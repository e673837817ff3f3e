"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Miller's only dedup is exact whole-record ``uniq -a`` (reference
``pkg/transformers/uniq.go:392-475``); these generalize it to
training-data scale:

- exact_dedup: hash-keyed first-per-group. The merge key is a 64-bit
  content hash, NOT the payload, so only (hash, id) pairs move wide;
  their measured size picks a broadcast filter or a bucketed
  semi-join.
- minhash_dedup: shingle -> minhash signature -> LSH band buckets ->
  candidate pairs within buckets -> signature-estimated Jaccard filter
  -> connected components (union-find over the surviving edge set,
  which is tiny relative to the corpus).
- simhash_fingerprints: 64-bit fingerprints + banded buckets for
  Hamming-radius candidate generation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from miller_ray.engine.merge import (aggregate_by, bucket_apply, distinct_values,
                                     merge_keyed, pandas_combine)
from miller_ray.hashing import hash64
from miller_ray.sketches.minhash import MinHash, hamming64, shingle_hashes, simhash_concat


def exact_dedup(ds, content_cols: list[str], id_col: str, keep: str = "min"):
    """Keep one row per distinct content: the one with the min (or max)
    id. Shuffle key = content hash; collisionful groups are disambiguated
    inside the group by the real content columns."""

    def add_hash(t: pa.Table) -> pa.Table:
        h = None
        for c in content_cols:
            hc = hash64(t[c], seed=17)
            h = hc if h is None else (h ^ hc)
        return t.append_column("__h", pa.array(h.astype(np.int64)))

    hashed = ds.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True)

    # Stage 1: winner id per content hash — vectorized per-block partial
    # (local min/max per hash, plus the COUNT of rows tying the local
    # winner: full-row duplicates with the same id must still emit ONE
    # output row, and per-batch drop_duplicates cannot see cross-block
    # copies) then ``merge_keyed`` by hash; NEVER a per-group Python
    # call (a per-hash call would pay one call per distinct content —
    # the whole corpus).
    agg_col = f"{id_col}_{keep}"

    def local_winner(t: pa.Table) -> pa.Table:
        # heavy reduction in Arrow (distinct (h, id) + copy count);
        # pandas touches only the reduced set to pick the per-h winner
        red = (t.select(["__h", id_col]).group_by(["__h", id_col])
                .aggregate([([], "count_all")]))
        names = {id_col: agg_col, "count_all": "__nw"}
        return combine(red.rename_columns(
            [names.get(c, c) for c in red.column_names]).select(
                ["__h", agg_col, "__nw"]))

    @pandas_combine
    def combine(df: pd.DataFrame) -> pd.DataFrame:
        # winner of winners per hash; its multiplicity sums the tie
        # counts of the partials whose winner it is
        win = df.groupby("__h", sort=False)[agg_col].transform(keep)
        return (df[df[agg_col] == win]
                .groupby(["__h", agg_col], sort=False, as_index=False)["__nw"].sum())

    winners = merge_keyed(
        hashed.map_batches(local_winner, batch_format="pyarrow"), ["__h"], combine)
    if not isinstance(winners, pa.Table):
        return _bucketed_semijoin(hashed, winners, content_cols, id_col, agg_col)
    if not winners.num_rows:
        return ds  # empty input: pass the (empty) stream through
    winners = winners.to_pandas()
    # Stage 2, broadcast path: pack (content hash, id hash) into one
    # uint64 per winner and semi-join via np.isin against the sorted
    # packed array — vectorized, 8 bytes/winner, no per-row Python
    # tuple membership. (Same pattern as _keep_multi_member_buckets.)
    import ray

    def _pack(h: np.ndarray, idv) -> np.ndarray:
        return (np.asarray(h, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                ) ^ hash64(idv, seed=31)

    wpacked = np.sort(_pack(winners["__h"].to_numpy(), winners[agg_col].to_numpy()))
    # (h, id) pairs whose winner row occurs MORE THAN ONCE in the input
    # (full-row duplicates): excluded from the streamed filter and
    # re-emitted exactly once below. Empty for well-formed inputs.
    dups = winners[winners["__nw"] > 1]
    dpacked = np.sort(_pack(dups["__h"].to_numpy(), dups[agg_col].to_numpy()))
    wref = ray.put(wpacked)
    dref = ray.put(dpacked)

    def keep_winners(df: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(wref)
        d = ray.get(dref)
        packed = _pack(df["__h"].to_numpy(), df[id_col].to_numpy())
        m = np.isin(packed, w)
        if len(d):
            m &= ~np.isin(packed, d)
        out = df[m].drop(columns="__h")
        # same-hash same-id different-content collisions are broken by
        # exact content equality within the surviving rows
        return out.drop_duplicates(subset=content_cols)

    streamed = hashed.map_batches(keep_winners, batch_format="pandas")
    if not len(dpacked):
        return streamed

    def only_dups(df: pd.DataFrame) -> pd.DataFrame:
        packed = _pack(df["__h"].to_numpy(), df[id_col].to_numpy())
        return df[np.isin(packed, ray.get(dref))]

    # the duplicated-winner rows are a tiny, bounded set: collect,
    # dedupe exactly by content, stream back in as one extra block
    import ray.data as _rd

    extra = (hashed.map_batches(only_dups, batch_format="pandas")
                   .to_pandas()
                   .drop_duplicates(subset=content_cols)
                   .drop(columns="__h"))
    return streamed.union(_rd.from_pandas(extra))


def _bucketed_semijoin(hashed, winners, content_cols: list[str], id_col: str,
                       agg_col: str):
    """exact_dedup's stage 2 when the winners stay distributed: a
    BUCKETED semi-join. ``bucket_apply`` co-partitions the data rows and
    the winner rows by content hash, so each bucket call holds every row
    of its hashes with their winners: O(buckets) Python calls, each
    holding ~1/buckets of the corpus, and same-(hash, id) duplicates
    dedupe EXACTLY there."""

    def semijoin(rows: pd.DataFrame, w: pd.DataFrame) -> pd.DataFrame:
        keepm = pd.MultiIndex.from_arrays([rows["__h"], rows[id_col]]).isin(
            pd.MultiIndex.from_arrays([w["__h"], w[agg_col]]))
        # one output row per content: same-(h, id) full-row dups
        # collapse here (whole hash lives in this bucket); true
        # hash collisions are disambiguated by content equality
        return rows[keepm].drop_duplicates(subset=content_cols).drop(columns="__h")

    return bucket_apply([hashed, winners], ["__h"], semijoin, batch_format="pandas")


def _keep_multi_member_buckets(ds, keys: list[str], return_counts: bool = False):
    """Filter an exploded bucket Dataset down to buckets with >= 2
    members. Singleton buckets (the overwhelming majority under any
    realistic dup rate) cannot produce candidate pairs, and per-group
    map_groups pays a Python call PER BUCKET — pruning first makes the
    pair stage proportional to the duplicate count, not the corpus.

    Count via per-block partial counts folded by ``merge_keyed``, filter
    count>=2 vectorized, broadcast the surviving key set with ray.put."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        return t.select(keys).group_by(keys).aggregate([([], "count_all")])

    def multi_member(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["count_all"], 2)) if t.num_rows else t

    counts = merge_keyed(ds.map_batches(partial, batch_format="pyarrow"), keys,
                         aggregate_by(keys))
    multi = (multi_member(counts) if isinstance(counts, pa.Table) else
             counts.map_batches(multi_member, batch_format="pyarrow")
             ).to_pandas().rename(columns={"count_all": "n"})
    if multi.empty:
        return (ds.limit(0), multi) if return_counts else ds.limit(0)
    packed_wanted = None
    for k in keys:
        c = multi[k].to_numpy().astype(np.int64)
        packed_wanted = c if packed_wanted is None else \
            (packed_wanted * np.int64(1000003)) ^ c
    ref = ray.put(np.sort(packed_wanted))

    def keep(t: pa.Table) -> pa.Table:
        w = ray.get(ref)
        # pack the (small-int, hash) key into one int64 and np.isin
        # against the sorted wanted array — no per-row Python
        cols = [np.asarray(t[k], dtype=np.int64) for k in keys]
        packed = cols[0]
        for c in cols[1:]:
            packed = (packed * np.int64(1000003)) ^ c
        mask = np.isin(packed, w)
        return t.filter(pa.array(mask))

    out = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    return (out, multi) if return_counts else out


def _word_shingles(t: pa.Table, text_col: str, n: int = 3):
    """(flat shingle hashes, offsets) for each doc in the batch.

    Fully vectorized: ONE rolling n-gram combine over the batch's flat
    word-hash array, then boundary masking drops shingles that would
    cross documents (identical values to a per-doc shingle_hashes loop
    — the rolling combine only reads forward within the window)."""
    from miller_ray.hashing import splitmix64

    words = pc.split_pattern_regex(pc.cast(t[text_col], pa.string()), pattern=r"\s+")
    flat_words = pc.list_flatten(words)
    word_h = np.asarray(hash64(flat_words, seed=23), dtype=np.uint64)
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = np.zeros(t.num_rows + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    L = word_h.size
    if L == 0:
        return np.zeros(0, dtype=np.uint64), offsets.copy()

    # global rolling combine (acc[p] = shingle starting at word p)
    if L >= n:
        acc = word_h[: L - n + 1].copy()
        with np.errstate(over="ignore"):
            for i in range(1, n):
                acc = splitmix64(acc ^ word_h[i : L - n + 1 + i], seed=11 + i)
    else:
        acc = np.zeros(0, dtype=np.uint64)

    pos = np.arange(L)
    lens_rep = np.repeat(lens, lens)
    starts_rep = np.repeat(offsets[:-1], lens)
    rel = pos - starts_rep
    is_short = lens_rep < n                      # short docs: 1 shingle/word
    mask_long = (~is_short) & (rel <= lens_rep - n)
    vals = np.empty(L, dtype=np.uint64)
    vals[mask_long] = acc[pos[mask_long]]
    vals[is_short] = splitmix64(word_h[is_short], seed=5)
    keep = mask_long | is_short
    flat = vals[keep]
    sh_counts = np.where(lens >= n, lens - n + 1, lens)
    sh_offsets = np.zeros(t.num_rows + 1, dtype=np.int64)
    np.cumsum(sh_counts, out=sh_offsets[1:])
    return flat, sh_offsets


def minhash_signatures(ds, text_col: str = "text", id_col: str = "doc_id",
                       k: int = 128, shingle_n: int = 3, seed: int = 0,
                       concurrency=(1, 4)):
    """Dataset of (id, sig: list<uint64>) — actor pool holds the MinHash
    permutation table (k x 2 uint64) across batches."""

    class Signer:
        def __init__(self):
            self.mh = MinHash(k=k, seed=seed)

        def __call__(self, t: pa.Table) -> pa.Table:
            flat, offsets = _word_shingles(t, text_col, n=shingle_n)
            sigs = self.mh.signatures_concat(flat, offsets)
            sig_col = pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.reshape(-1).view(np.int64)), k)
            return pa.table({id_col: t[id_col], "sig": sig_col})

    return ds.map_batches(Signer, batch_format="pyarrow", zero_copy_batch=True,
                          concurrency=concurrency)


def _dedup_sorted_ids(t: pa.Table, id_col: str) -> pa.Table:
    """One row per distinct id, sorted by id (vectorized)."""
    ids = np.asarray(t[id_col])
    order = np.argsort(ids, kind="stable")
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = ids[order[1:]] != ids[order[:-1]]
    return t.take(pa.array(order[keep]))


def _cap_bucket(t: pa.Table, id_col: str, cap: int) -> pa.Table:
    """Deterministic hot-bucket sample: keep the `cap` members with the
    smallest hash64(id) — stable across runs and processes."""
    if t.num_rows <= cap:
        return t
    h = hash64(t[id_col], seed=41)
    sel = np.sort(np.argsort(h, kind="stable")[:cap])
    return t.take(pa.array(sel))


def minhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  k: int = 128, bands: int = 16, threshold: float = 0.7,
                  shingle_n: int = 3, seed: int = 0,
                  max_bucket_members: int = 500) -> pd.DataFrame:
    """Near-dup groups via MinHash-LSH. Returns (id, rep) for every doc
    in a near-dup cluster of size >= 2, rep = min id in the cluster.

    Pipeline: signatures (actor pool, materialized ONCE — the expensive
    re-sign never repeats) -> light (id, band, band_hash) bucket rows,
    NO signature payload (16x smaller than exploding sig per band) ->
    multi-member-bucket pruning -> semi-join signatures for candidate
    ids (broadcast packed-hash np.isin when small, shuffle join above
    2M candidates — same dual path as exact_dedup) -> DISTRIBUTED
    per-bucket pair scoring via groupby(band,bh).map_groups (nothing
    corpus-sized on the driver) -> union-find on surviving edges.

    Hot buckets (boilerplate text hashing everything into one bucket)
    are capped at ``max_bucket_members`` by a deterministic id-hash
    sample; the number of capped buckets is logged, never silent."""
    import ray

    mh = MinHash(k=k, seed=seed)
    sig_ds = minhash_signatures(ds, text_col, id_col, k=k, shingle_n=shingle_n,
                                seed=seed).materialize()

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        sigs = np.asarray(t["sig"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False)).view(np.uint64).reshape(n, k)
        bh = mh.band_hashes(sigs, bands)  # (n, bands)
        ids = np.repeat(np.asarray(t[id_col]), bands)
        band_id = np.tile(np.arange(bands, dtype=np.int64), n)
        return pa.table({
            id_col: pa.array(ids),
            "band": pa.array(band_id),
            "bh": pa.array(bh.reshape(-1).view(np.int64)),
        })

    buckets = sig_ds.map_batches(explode, batch_format="pyarrow")
    survivors, bucket_counts = _keep_multi_member_buckets(
        buckets, ["band", "bh"], return_counts=True)
    if bucket_counts.empty:
        return pd.DataFrame(columns=[id_col, "rep"])
    n_hot = int((bucket_counts["n"] > max_bucket_members).sum())
    if n_hot:
        print(f"[minhash_dedup] capping {n_hot} hot bucket(s) at "
              f"{max_bucket_members} members (deterministic sample)")
    survivors = survivors.materialize()
    n_mem = survivors.count()
    if n_mem == 0:
        return pd.DataFrame(columns=[id_col, "rep"])

    # candidate signatures: semi-join sig_ds against surviving ids —
    # broadcast a sorted packed-hash array + np.isin (8 bytes per
    # candidate; hash collisions only over-include, and non-surviving
    # bucket rows are dropped by the bucket filter below)
    cand_ids = np.asarray(distinct_values(survivors, id_col))
    wanted = np.sort(hash64(cand_ids, seed=47))
    wref = ray.put(wanted)

    def keep_sig(t: pa.Table) -> pa.Table:
        w = ray.get(wref)
        mask = np.isin(hash64(t[id_col], seed=47), w)
        return t.filter(pa.array(mask))

    cand_sigs = sig_ds.map_batches(keep_sig, batch_format="pyarrow",
                                   zero_copy_batch=True)

    # attach (band, bh) to candidate rows by re-deriving band hashes
    # (cheap vectorized recompute beats shuffling corpus-sized
    # signature payloads through a join), keeping only surviving
    # buckets via the packed wanted-bucket broadcast
    wb = ((bucket_counts["band"].to_numpy().astype(np.int64)
           * np.int64(1000003))
          ^ bucket_counts["bh"].to_numpy().astype(np.int64))
    bref = ray.put(np.sort(wb))

    def explode_sig(t: pa.Table) -> pa.Table:
        w = ray.get(bref)
        n = t.num_rows
        sigs = np.asarray(t["sig"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False)).view(np.uint64).reshape(n, k)
        bh = mh.band_hashes(sigs, bands).reshape(-1).view(np.int64)
        band_id = np.tile(np.arange(bands, dtype=np.int64), n)
        packed = (band_id * np.int64(1000003)) ^ bh
        hit = np.flatnonzero(np.isin(packed, w))
        sub = t.take(pa.array(hit // bands))
        return pa.table({
            id_col: sub[id_col],
            "band": pa.array(band_id[hit]),
            "bh": pa.array(bh[hit]),
            "sig": sub["sig"],
        })

    joined = cand_sigs.map_batches(explode_sig, batch_format="pyarrow",
                                   zero_copy_batch=True)

    def pairs(t: pa.Table) -> pa.Table:
        t = _dedup_sorted_ids(t, id_col)
        t = _cap_bucket(t, id_col, max_bucket_members)
        n = t.num_rows
        ityp = t[id_col].type
        if n < 2:
            return pa.table({"a": pa.array([], type=ityp),
                             "b": pa.array([], type=ityp),
                             "est_j": pa.array([], type=pa.float64())})
        ids = np.asarray(t[id_col])
        rows = np.asarray(t["sig"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False)).view(np.uint64).reshape(n, k)
        out_a, out_b, out_j = [], [], []
        for i in range(n - 1):
            agree = (rows[i + 1:] == rows[i]).mean(axis=1)
            hit = np.flatnonzero(agree >= threshold)
            if hit.size:
                out_a.append(np.repeat(ids[i], hit.size))
                out_b.append(ids[i + 1 + hit])
                out_j.append(agree[hit])
        if not out_a:
            return pa.table({"a": pa.array([], type=ityp),
                             "b": pa.array([], type=ityp),
                             "est_j": pa.array([], type=pa.float64())})
        return pa.table({"a": pa.array(np.concatenate(out_a), type=ityp),
                         "b": pa.array(np.concatenate(out_b), type=ityp),
                         "est_j": pa.array(np.concatenate(out_j).astype(np.float64))})

    edge_df = (joined.groupby(["band", "bh"])
               .map_groups(pairs, batch_format="pyarrow")
               .to_pandas())
    if edge_df.empty:
        return pd.DataFrame(columns=[id_col, "rep"])
    edge_df = edge_df.drop_duplicates(["a", "b"])

    # union-find over surviving edges (tiny)
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(edge_df["a"], edge_df["b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    rows = sorted((x, find(x)) for x in parent)
    return pd.DataFrame(rows, columns=[id_col, "rep"])


def simhash_fingerprints(ds, text_col: str = "text", id_col: str = "doc_id",
                         concurrency=None):
    """(id, simhash: int64) fingerprints, vectorized per batch.
    Stateless fn -> task pool (concurrency tuple is actor-only)."""

    def f(t: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(pc.cast(t[text_col], pa.string()), pattern=r"\s+")
        flat = hash64(pc.list_flatten(words), seed=29)
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = np.zeros(t.num_rows + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        fp = simhash_concat(flat, offsets)
        return pa.table({id_col: t[id_col], "simhash": pa.array(fp.view(np.int64))})

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True,
                          concurrency=concurrency)


def simhash_near_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                       max_hamming: int = 3,
                       max_bucket_members: int = 500) -> pd.DataFrame:
    """Candidate near-dup pairs by SimHash: bucket on each of 4 16-bit
    bands (any pair within Hamming<=3 of 64 bits shares at least one
    exact band by pigeonhole when distance < 4); verify Hamming inside
    buckets. Hot buckets capped at ``max_bucket_members`` by a
    deterministic id-hash sample (logged, never silent)."""
    fps = simhash_fingerprints(ds, text_col, id_col)

    def explode(t: pa.Table) -> pa.Table:
        f = t["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        n = f.size
        rows = {id_col: [], "band": [], "key": [], "simhash": []}
        ids = np.asarray(t[id_col])
        for b in range(4):
            rows[id_col].append(ids)
            rows["band"].append(np.full(n, b, dtype=np.int64))
            rows["key"].append(((f >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64))
            rows["simhash"].append(f.view(np.int64))
        return pa.table({c: pa.array(np.concatenate(v)) for c, v in rows.items()})

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return pd.DataFrame({"a": [], "b": [], "hamming": []})
        df = df.sort_values(id_col).drop_duplicates(id_col)
        if len(df) > max_bucket_members:
            h = hash64(df[id_col].to_numpy(), seed=41)
            df = df.iloc[np.sort(np.argsort(h, kind="stable")[:max_bucket_members])]
        ids = df[id_col].to_numpy()
        f = df["simhash"].to_numpy().view(np.uint64)
        out_a, out_b, out_h = [], [], []
        for i in range(len(ids)):
            d = hamming64(f[i + 1:], int(f[i]))
            for j in np.flatnonzero(d <= max_hamming):
                out_a.append(ids[i])
                out_b.append(ids[i + 1 + j])
                out_h.append(int(d[j]))
        return pd.DataFrame({"a": out_a, "b": out_b, "hamming": out_h})

    exploded, bcounts = _keep_multi_member_buckets(
        fps.map_batches(explode, batch_format="pyarrow"), ["band", "key"],
        return_counts=True)
    n_hot = int((bcounts["n"] > max_bucket_members).sum()) if not bcounts.empty else 0
    if n_hot:
        print(f"[simhash_near_pairs] capping {n_hot} hot bucket(s) at "
              f"{max_bucket_members} members (deterministic sample)")
    edges = exploded.groupby(["band", "key"]).map_groups(pairs, batch_format="pandas") \
                    .to_pandas()
    return edges.drop_duplicates(["a", "b"]).reset_index(drop=True)


def ngram_jaccard(ds, pairs_df: pd.DataFrame, text_col: str = "text",
                  id_col: str = "doc_id", shingle_n: int = 3) -> pd.DataFrame:
    """Exact n-gram Jaccard for a candidate pair list.

    Scale shape: the candidate PAIR LIST is the small side — broadcast
    an id->(pair_id, side) membership index via ray.put (built once per
    actor); each block emits one (pair_id, side, shingle-set) row per
    membership; scoring is a ``groupby(pair_id).map_groups`` exact set
    intersection (numpy), so no shingle payload ever lands on the
    driver — only the scored edge list does. A doc appearing in many
    pairs ships its shingle set once per pair through the shuffle:
    bounded by the candidate list and spread across reducers, unlike
    the old take_all() which moved every candidate's shingles to the
    driver and scored pairs in a Python loop."""
    import ray

    if pairs_df.empty:
        return pd.DataFrame({"a": pd.Series(dtype=object),
                             "b": pd.Series(dtype=object),
                             "jaccard": pd.Series(dtype=float)})
    npairs = len(pairs_df)
    mem_ids = np.concatenate([pairs_df["a"].to_numpy(),
                              pairs_df["b"].to_numpy()])
    mem_pid = np.concatenate([np.arange(npairs, dtype=np.int64)] * 2)
    mem_side = np.concatenate([np.zeros(npairs, np.int8),
                               np.ones(npairs, np.int8)])
    # sorted hash array for the vectorized prefilter + exact-id dict for
    # collision-proof membership (built once per actor, not per batch)
    hsorted = np.sort(hash64(mem_ids, seed=53))
    ref = ray.put((hsorted, mem_ids, mem_pid, mem_side))

    class EmitMemberShingles:
        def __init__(self):
            hs, ids, pid, side = ray.get(ref)
            self.hsorted = hs
            self.mem: dict = {}
            for i, d in enumerate(ids):
                self.mem.setdefault(d, []).append((int(pid[i]),
                                                   int(side[i])))

        def __call__(self, t: pa.Table) -> pa.Table:
            # vectorized hash prefilter, then exact dict lookup on the
            # (few) surviving rows only
            mask = pa.array(np.isin(hash64(t[id_col], seed=53),
                                    self.hsorted))
            sub = t.filter(mask)
            out_pid: list[int] = []
            out_side: list[int] = []
            out_sh: list[bytes] = []
            if sub.num_rows:
                flat, offsets = _word_shingles(sub, text_col, n=shingle_n)
                for i, d in enumerate(sub[id_col].to_pylist()):
                    for p, s in self.mem.get(d, ()):
                        out_pid.append(p)
                        out_side.append(s)
                        out_sh.append(flat[offsets[i]:offsets[i + 1]]
                                      .tobytes())
            return pa.table({
                "pair_id": pa.array(out_pid, type=pa.int64()),
                "side": pa.array(out_side, type=pa.int8()),
                "sh": pa.array(out_sh, type=pa.binary())})

    emitted = ds.map_batches(EmitMemberShingles, batch_format="pyarrow",
                             concurrency=(1, 4))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("side")
        if len(df) < 2:
            return pd.DataFrame({"pair_id": pd.Series(dtype=np.int64),
                                 "jaccard": pd.Series(dtype=float)})
        sa = np.unique(np.frombuffer(df["sh"].iloc[0], dtype=np.uint64))
        sb = np.unique(np.frombuffer(df["sh"].iloc[1], dtype=np.uint64))
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        union = sa.size + sb.size - inter
        return pd.DataFrame({"pair_id": [int(df["pair_id"].iloc[0])],
                             "jaccard": [inter / max(1, union)]})

    scored = emitted.groupby("pair_id").map_groups(
        score, batch_format="pandas").to_pandas()  # edge list only
    out = pairs_df[["a", "b"]].reset_index(drop=True)
    jac = np.zeros(npairs, dtype=float)
    jac[scored["pair_id"].to_numpy()] = scored["jaccard"].to_numpy()
    out["jaccard"] = jac
    return out


def embedding_cosine_pairs(ds, threshold: float = 0.4,
                           emb_col: str = "embedding",
                           id_col: str = "vec_id") -> pd.DataFrame:
    """Embedding-cosine near-duplicate pairs, EXACT: every unordered id
    pair whose cosine similarity is >= ``threshold``. Output columns
    (id1, id2) with id1 < id2, sorted — float-free like brute_force_topk
    so the result hashes stably against a SQL oracle.

    Scale shape (the broadcast baseline, mirroring ann.brute_force_topk):
    the normalized corpus matrix is built once on the driver and
    broadcast via ray.put; each block computes ``corpus @ block.T`` and
    emits only the above-threshold pairs where corpus_id < block_id, so
    every pair is produced exactly once with no shuffle. Per-pair output
    is tiny (two int64s); the driver holds only the edge list. Bounded
    by the broadcast: fine to ~10M x 64 float32 (~2.5 GB object-store
    share, read zero-copy by every task); beyond that use
    embedding_cosine_pairs_lsh, which buckets by hyperplane signature
    instead of broadcasting. float64 accumulation keeps the threshold
    comparison stable against a double-precision oracle."""
    import ray

    corpus = pa.concat_tables(
        ray.get(ds.select_columns([id_col, emb_col]).to_arrow_refs()),
        promote_options="default")
    from miller_ray.stages.ann import _emb_matrix
    if corpus.num_rows == 0:
        return pd.DataFrame({"id1": pd.Series(dtype=np.int64),
                             "id2": pd.Series(dtype=np.int64)})
    cm = _emb_matrix(corpus, emb_col)
    cm = cm / np.maximum(np.linalg.norm(cm, axis=1, keepdims=True), 1e-30)
    cids = corpus[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ref = ray.put((cids, cm))

    class PairScorer:
        def __init__(self):
            self.ids, self.m = ray.get(ref)  # once per actor

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"id1": pa.array([], type=pa.int64()),
                                 "id2": pa.array([], type=pa.int64())})
            b = _emb_matrix(t, emb_col)
            b = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True),
                               1e-30)
            bids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            sims = self.m @ b.T  # (corpus, block), float64
            mask = (sims >= threshold) & (self.ids[:, None] < bids[None, :])
            ci, bj = np.nonzero(mask)
            return pa.table({"id1": pa.array(self.ids[ci]),
                             "id2": pa.array(bids[bj])})

    pairs = ds.map_batches(PairScorer, batch_format="pyarrow",
                           zero_copy_batch=True, concurrency=(1, 4))
    pdf = pairs.to_pandas()  # edge list only
    return pdf.sort_values(["id1", "id2"]).reset_index(drop=True)


def embedding_cosine_pairs_lsh(ds, threshold: float = 0.4,
                               emb_col: str = "embedding",
                               id_col: str = "vec_id",
                               n_planes: int = 24, band_bits: int = 4,
                               bucket_cap: int = 2000,
                               seed: int = 97) -> pd.DataFrame:
    """Embedding-cosine near-dup pairs at scale: hyperplane-LSH banding
    instead of an all-pairs broadcast. Same output contract as
    embedding_cosine_pairs but approximate — a pair is scored only if it
    collides in at least one band, so recall depends on (threshold,
    band_bits, n_bands): P(catch) = 1 - (1 - p^band_bits)^n_bands with
    p = 1 - acos(sim)/pi (random-hyperplane collision probability,
    Charikar SimHash).

    Stages: (1) sign each embedding against n_planes shared hyperplanes
    (one matmul per block); (2) explode light (band, bucket, id) rows
    plus the embedding payload; (3) prune singleton buckets — they can't
    make pairs — via the same partial-count + broadcast keep-set used by
    minhash_dedup; (4) per-bucket exact cosine scoring in map_groups
    (vectorized matmul over the bucket's members, hot buckets capped at
    ``bucket_cap`` by deterministic id-hash sample); (5) dedupe pair
    rows across bands. Only the surviving edge list reaches the driver."""
    from miller_ray.stages.ann import _emb_matrix, _lsh_planes

    n_bands = n_planes // band_bits
    d = None

    def sign_and_explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"band": pa.array([], type=pa.int64()),
                             "bucket": pa.array([], type=pa.int64()),
                             id_col: pa.array([], type=pa.int64()),
                             emb_col: t[emb_col]})
        m = _emb_matrix(t, emb_col)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        planes = _lsh_planes(m.shape[1], n_planes, seed)
        bits = (m @ planes.T > 0)  # (n, n_planes)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        weights = (1 << np.arange(band_bits, dtype=np.int64))
        out_band, out_bucket, out_id, out_row = [], [], [], []
        for band in range(n_bands):
            chunk = bits[:, band * band_bits:(band + 1) * band_bits]
            bucket = chunk.astype(np.int64) @ weights
            out_band.append(np.full(len(ids), band, dtype=np.int64))
            out_bucket.append(bucket)
            out_id.append(ids)
            out_row.append(np.arange(len(ids)))
        rows = np.concatenate(out_row)
        emb = t[emb_col].combine_chunks().take(pa.array(rows))
        return pa.table({
            "band": pa.array(np.concatenate(out_band)),
            "bucket": pa.array(np.concatenate(out_bucket)),
            id_col: pa.array(np.concatenate(out_id)),
            emb_col: emb,
        })

    exploded = ds.map_batches(sign_and_explode, batch_format="pyarrow",
                              zero_copy_batch=True)
    pruned = _keep_multi_member_buckets(exploded, ["band", "bucket"])

    def score_bucket(t: pa.Table) -> pa.Table:
        t = _cap_bucket(t, id_col, bucket_cap)
        m = _emb_matrix(t, emb_col)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = m @ m.T
        i, j = np.nonzero(np.triu(sims >= threshold, k=1))
        id1 = np.minimum(ids[i], ids[j])
        id2 = np.maximum(ids[i], ids[j])
        return pa.table({"id1": pa.array(id1), "id2": pa.array(id2)})

    pairs = pruned.groupby(["band", "bucket"]).map_groups(
        score_bucket, batch_format="pyarrow")
    pdf = pairs.to_pandas()  # edge list only
    if pdf.empty:
        return pd.DataFrame({"id1": pd.Series(dtype=np.int64),
                             "id2": pd.Series(dtype=np.int64)})
    pdf = pdf.drop_duplicates(["id1", "id2"])
    return pdf.sort_values(["id1", "id2"]).reset_index(drop=True)
