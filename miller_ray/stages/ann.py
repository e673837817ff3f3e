"""Similarity search over an embedding column (list<float>).

- brute-force cosine top-k: the baseline — numpy matmul per batch
  against a BROADCAST query matrix (ray.put once, read in every task;
  never re-shipped per batch), local top-k per block, tiny global merge.
- LSH-bucketed variant: random-hyperplane signatures bucket the corpus;
  only matching buckets are scanned — the scale path when the corpus is
  too large for full scans per query.
- IVF (inverted-file) variant: k-means centroids trained on a bounded
  deterministic sample then refined with DISTRIBUTED Lloyd iterations
  (per-block k×d partial sums, driver state O(k·d)); vectors are
  assigned to their nearest-centroid list and each query scans only its
  ``nprobe`` closest lists. Better recall/scan than hyperplane LSH on
  clustered real-world embeddings; `build_ivf_index` persists the
  list-partitioned Parquet layout for read-time partition pruning.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from miller_ray.hashing import splitmix64


def _emb_matrix(t: pa.Table, col: str) -> np.ndarray:
    arr = t[col].combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _no_hits(t: pa.Table, id_col: str) -> pa.Table:
    """The local top-k table of a batch without rows."""
    return pa.table({"query_id": pa.array([], type=pa.int64()),
                     id_col: pa.array([], type=t[id_col].type),
                     "sim": pa.array([], type=pa.float64())})


def _rank_hits(ds, parts, k: int, id_col: str) -> pd.DataFrame:
    """(query_id, rank, id_col) from the local top-k rows ``parts``: the
    k best per query by (sim desc, id asc), rank 1-based. A dataset
    without rows gives the typed empty frame (``to_pandas`` of no rows
    drops the columns)."""
    pdf = parts.to_pandas()
    if pdf.empty:
        id_type = ds.schema().base_schema.field(id_col).type
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.int64),
                             id_col: pd.Series(dtype=id_type.to_pandas_dtype())})
    pdf = pdf.sort_values(["query_id", "sim", id_col],
                          ascending=[True, False, True])
    top = pdf.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_id").cumcount() + 1
    return top[["query_id", "rank", id_col]]


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     emb_col: str = "embedding", id_col: str = "vec_id",
                     concurrency=(1, 4)) -> pd.DataFrame:
    """Exact cosine top-k for each query row. Output columns:
    (query_id, rank, vec_id) — rank 1-based by (similarity desc, vec_id
    asc); similarity itself is omitted so results are float-free.

    Query matrix is normalized once on the driver and broadcast via
    ray.put; each actor fetches it once in __init__."""
    import ray

    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    qref = ray.put(qn)

    class Scorer:
        def __init__(self):
            self.q = ray.get(qref)  # (nq, d), once per actor

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _no_hits(t, id_col)
            m = _emb_matrix(t, emb_col)
            m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
            sims = self.q @ m.T  # (nq, batch)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            nq = self.q.shape[0]
            kk = min(k, sims.shape[1])
            # local top-k per query per block
            part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            rows = {"query_id": [], id_col: [], "sim": []}
            for qi in range(nq):
                sel = part[qi]
                rows["query_id"].append(np.full(kk, qi, dtype=np.int64))
                rows[id_col].append(ids[sel])
                rows["sim"].append(sims[qi, sel])
            return pa.table({c: pa.array(np.concatenate(v)) for c, v in rows.items()})

    parts = ds.map_batches(Scorer, batch_format="pyarrow", zero_copy_batch=True,
                           concurrency=concurrency)
    return _rank_hits(ds, parts, k, id_col)  # small: nq * k * n_blocks rows


def _lsh_planes(d: int, n_planes: int, seed: int) -> np.ndarray:
    rng_base = splitmix64(np.arange(n_planes * d, dtype=np.uint64), seed=seed)
    # NB: float64_array / 2**64 would silently upcast to an OBJECT array
    # (2**64 overflows int64); multiply by the float reciprocal instead
    return ((rng_base.astype(np.float64) * 2.0**-64) - 0.5).reshape(n_planes, d)


def _expand_probe(sigs: set[int], n_planes: int, radius: int) -> set[int]:
    """All signatures within Hamming distance ``radius`` of any seed:
    BFS over single-bit flips, one level per unit of radius, so a
    single seed yields 1 + C(n,1) + ... + C(n,radius) signatures."""
    probe = set(sigs)
    frontier = set(sigs)
    for _ in range(max(0, radius)):
        nxt = set()
        for s in frontier:
            for b in range(n_planes):
                t = s ^ (1 << b)
                if t not in probe:
                    probe.add(t)
                    nxt.add(t)
        frontier = nxt
    return probe


def _probe_set(queries: np.ndarray, planes: np.ndarray,
               probe_hamming: int) -> set[int]:
    n_planes = planes.shape[0]
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    qsig = (qn @ planes.T > 0).astype(np.uint64) @ \
        (1 << np.arange(n_planes, dtype=np.uint64))
    return _expand_probe({int(s) for s in qsig}, n_planes, probe_hamming)


def build_lsh_index(ds, out_dir: str, n_planes: int = 8,
                    emb_col: str = "embedding", id_col: str = "vec_id",
                    seed: int = 0) -> str:
    """Persist the corpus as a SIGNATURE-PARTITIONED Parquet layout
    (one hive directory per LSH bucket): the corpus is signed exactly
    ONCE, and each query afterwards reads only its probed partitions —
    the 100 TB scale path the in-memory ``lsh_bucketed_topk`` stands in
    for. Deterministic planes (seeded splitmix64) make the index
    reproducible and the probe computation driver-side-only.

    Partition count is 2**n_planes: size n_planes to the corpus so a
    partition stays well under a read-task's memory (100 TB wants
    n_planes>=16 → 65k partitions of ~1.5 GB; the default 8 is test
    scale). Probe cost grows as sum_{i<=r} C(n_planes, i) per query —
    raise n_planes and keep probe_hamming small rather than the
    reverse."""
    import ray

    # probe the embedding dimension from one row
    first = ds.take(1)[0]
    d = len(first[emb_col])
    planes = _lsh_planes(d, n_planes, seed)
    pref = ray.put(planes)

    def sign(t: pa.Table) -> pa.Table:
        pl = ray.get(pref)
        m = _emb_matrix(t, emb_col)
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sig = (mn @ pl.T > 0).astype(np.uint64) @ \
            (1 << np.arange(pl.shape[0], dtype=np.uint64))
        return t.append_column("__sig", pa.array(sig.astype(np.int64)))

    ds.map_batches(sign, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(
        out_dir, partition_cols=["__sig"])
    return out_dir


def lsh_index_topk(index_dir: str, queries: np.ndarray, k: int = 10,
                   n_planes: int = 8, emb_col: str = "embedding",
                   id_col: str = "vec_id", seed: int = 0,
                   probe_hamming: int = 2) -> pd.DataFrame:
    """Query a persisted LSH index: read ONLY the partitions within
    ``probe_hamming`` of each query signature (partition pruning at the
    read — no corpus re-sign, no full scan), then exact cosine top-k
    over the candidates."""
    import os

    import ray.data as rd

    d = queries.shape[1]
    planes = _lsh_planes(d, n_planes, seed)
    probe = _probe_set(queries, planes, probe_hamming)
    dirs = [os.path.join(index_dir, f"__sig={s}") for s in sorted(probe)]
    files = [os.path.join(p, f) for p in dirs if os.path.isdir(p)
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    if not files:
        return pd.DataFrame(columns=["query_id", "rank", id_col])
    cand = rd.read_parquet(files, columns=[id_col, emb_col])
    return brute_force_topk(cand, queries, k=k, emb_col=emb_col,
                            id_col=id_col)


def lsh_bucketed_topk(ds, queries: np.ndarray, k: int = 10, n_planes: int = 8,
                      emb_col: str = "embedding", id_col: str = "vec_id",
                      seed: int = 0, probe_hamming: int = 2) -> pd.DataFrame:
    """Approximate top-k: random-hyperplane LSH buckets; scan only the
    buckets within ``probe_hamming`` of each query's signature. At scale
    the bucketed corpus is a partitioned Parquet layout keyed by
    signature prefix; here buckets are a grouped Dataset.

    Recall depends on corpus structure: hyperplane LSH prunes by cosine
    locality, so clustered real-world embeddings retain high recall at
    small scan fractions, while UNIFORM random vectors (the synthetic
    testdata) have weakly-separated top-k and any pruning costs recall —
    report scan fraction alongside recall when evaluating."""
    import ray

    d = queries.shape[1]
    planes = _lsh_planes(d, n_planes, seed)
    probe = _probe_set(queries, planes, probe_hamming)
    probe_arr = np.array(sorted(probe), dtype=np.uint64)
    pref = ray.put((planes, probe_arr))

    class Filter:
        def __init__(self):
            self.planes, self.probe = ray.get(pref)

        def __call__(self, t: pa.Table) -> pa.Table:
            m = _emb_matrix(t, emb_col)
            mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
            sig = (mn @ self.planes.T > 0).astype(np.uint64) @ \
                (1 << np.arange(self.planes.shape[0], dtype=np.uint64))
            mask = np.isin(sig, self.probe)
            return t.filter(pa.array(mask))

    candidates = ds.map_batches(Filter, batch_format="pyarrow", zero_copy_batch=True,
                                concurrency=(1, 4))
    return brute_force_topk(candidates, queries, k=k, emb_col=emb_col, id_col=id_col)


# ---------------------------------------------------------------------------
# IVF (inverted-file index): k-means lists + nprobe search
# ---------------------------------------------------------------------------

def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)


def _kmeanspp_init(sample: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means++ seeding on the (already bounded) sample.
    All "randomness" is splitmix64 of the step index — reproducible
    across runs and processes, no RNG state."""
    n = sample.shape[0]
    first = int(splitmix64(np.array([0], dtype=np.uint64),
                           seed=seed)[0] % np.uint64(n))
    cents = [sample[first]]
    d2 = 1.0 - sample @ cents[0]  # cosine distance to nearest centroid
    for step in range(1, k):
        w = np.maximum(d2, 0.0)
        tot = float(w.sum())
        if tot <= 0:  # all points coincide with a centroid
            idx = int(splitmix64(np.array([step], dtype=np.uint64),
                                 seed=seed)[0] % np.uint64(n))
        else:
            r = (int(splitmix64(np.array([step], dtype=np.uint64),
                                seed=seed)[0]) / 2**64) * tot
            idx = int(np.searchsorted(np.cumsum(w), r, side="right"))
            idx = min(idx, n - 1)
        cents.append(sample[idx])
        d2 = np.minimum(d2, 1.0 - sample @ cents[-1])
    return np.stack(cents)


def _lloyd_on(sample: np.ndarray, cents: np.ndarray, iters: int) -> np.ndarray:
    for _ in range(iters):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(cents.shape[0]):
            pts = sample[assign == c]
            if len(pts):
                cents[c] = pts.mean(axis=0)
        cents = _normalize(cents)
    return cents


def train_ivf_centroids(ds, n_lists: int = 16, emb_col: str = "embedding",
                        id_col: str = "vec_id", seed: int = 0,
                        sample_target: int = 4096,
                        lloyd_iters: int = 2) -> np.ndarray:
    """Train IVF centroids. Scale behavior:

    1. Bounded deterministic sample: each block keeps rows whose
       ``hash64(id) / 2**64 < sample_target / n`` — only ~sample_target
       vectors ever reach the driver regardless of corpus size.
    2. k-means++ init + 5 Lloyd iterations on the sample (driver-side,
       O(sample × d) — the standard IVF training regime).
    3. ``lloyd_iters`` distributed refinements over the FULL corpus:
       each block emits per-centroid (sum, count) partials — k×d floats
       independent of block size — summed on the driver. No corpus
       materialization anywhere.
    """
    import ray

    from miller_ray.hashing import hash64

    n = ds.count()  # parquet metadata, no scan
    frac = min(1.0, (4.0 * sample_target) / max(n, 1))
    thresh = np.uint64(min(int(frac * (2**64 - 1)), 2**64 - 1))

    def keep_sample(t: pa.Table) -> pa.Table:
        h = hash64(t[id_col], seed=seed + 101)
        return t.filter(pa.array(h <= thresh)).select([id_col, emb_col])

    samp_tbl = ds.map_batches(keep_sample, batch_format="pyarrow",
                              zero_copy_batch=True).to_pandas()
    if samp_tbl.empty:
        raise ValueError("empty corpus: cannot train IVF centroids")
    # stable order independent of block arrival, then cap
    samp_tbl = samp_tbl.sort_values(id_col).head(sample_target)
    sample = _normalize(np.stack(samp_tbl[emb_col].to_numpy())
                        .astype(np.float64))
    k = min(n_lists, sample.shape[0])
    cents = _lloyd_on(sample, _kmeanspp_init(sample, k, seed), iters=5)

    # distributed Lloyd over the full corpus: k×d partials per block
    for _ in range(max(0, lloyd_iters)):
        cref = ray.put(cents)

        def partials(t: pa.Table) -> pa.Table:
            c = ray.get(cref)
            m = _normalize(_emb_matrix(t, emb_col))
            assign = np.argmax(m @ c.T, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=c.shape[0])
            return pa.table({
                "list_id": pa.array(np.arange(c.shape[0], dtype=np.int64)),
                "vsum": pa.array(list(sums), type=pa.list_(pa.float64())),
                "cnt": pa.array(counts.astype(np.int64)),
            })

        pdf = ds.map_batches(partials, batch_format="pyarrow",
                             zero_copy_batch=True).to_pandas()
        sums = np.zeros_like(cents)
        counts = np.zeros(cents.shape[0], dtype=np.int64)
        for lid, vs, ct in zip(pdf["list_id"], pdf["vsum"], pdf["cnt"]):
            sums[lid] += np.asarray(vs)
            counts[lid] += ct
        nz = counts > 0
        cents[nz] = _normalize(sums[nz] / counts[nz, None])
    return cents


def ivf_topk(ds, queries: np.ndarray, k: int = 10, n_lists: int = 16,
             nprobe: int = 4, emb_col: str = "embedding",
             id_col: str = "vec_id", seed: int = 0,
             centroids: np.ndarray | None = None) -> pd.DataFrame:
    """Approximate cosine top-k via IVF: each query scores ONLY vectors
    whose nearest centroid is among the query's ``nprobe`` closest
    lists. One corpus pass: per batch, vectors are assigned to a list
    (argmax vs broadcast centroids) and a per-(query,list) probe mask
    silences non-probed similarities before the local top-k — same
    merge shape as brute_force_topk, ~nprobe/n_lists of its FLOPs.

    ``nprobe == n_lists`` degrades gracefully to the exact answer."""
    import ray

    if centroids is None:
        centroids = train_ivf_centroids(ds, n_lists=n_lists, emb_col=emb_col,
                                        id_col=id_col, seed=seed)
    qn = _normalize(queries)
    qc = np.argsort(-(qn @ centroids.T), axis=1)[:, :min(nprobe,
                                                         centroids.shape[0])]
    probe = np.zeros((qn.shape[0], centroids.shape[0]), dtype=bool)
    for qi in range(qn.shape[0]):
        probe[qi, qc[qi]] = True
    bref = ray.put((qn, centroids, probe))

    class Scorer:
        def __init__(self):
            self.q, self.c, self.probe = ray.get(bref)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _no_hits(t, id_col)
            m = _normalize(_emb_matrix(t, emb_col))
            assign = np.argmax(m @ self.c.T, axis=1)
            sims = self.q @ m.T  # (nq, batch)
            sims = np.where(self.probe[:, assign], sims, -np.inf)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            kk = min(k, sims.shape[1])
            part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            rows = {"query_id": [], id_col: [], "sim": []}
            for qi in range(self.q.shape[0]):
                sel = part[qi]
                keep = np.isfinite(sims[qi, sel])
                rows["query_id"].append(
                    np.full(int(keep.sum()), qi, dtype=np.int64))
                rows[id_col].append(ids[sel][keep])
                rows["sim"].append(sims[qi, sel][keep])
            return pa.table({c: pa.array(np.concatenate(v) if v else
                                         np.array([], dtype=np.float64))
                             for c, v in rows.items()})

    parts = ds.map_batches(Scorer, batch_format="pyarrow",
                           zero_copy_batch=True, concurrency=(1, 4))
    return _rank_hits(ds, parts, k, id_col)


def build_ivf_index(ds, out_dir: str, centroids: np.ndarray,
                    emb_col: str = "embedding") -> str:
    """Persist the corpus as a LIST-PARTITIONED Parquet layout (one hive
    directory per IVF list): assigned exactly once; each query
    afterwards reads only its ``nprobe`` probed partitions. The 100 TB
    shape: n_lists sized so a list's shard set stays in read-task
    memory (e.g. 100 TB / 64k lists ≈ 1.5 GB per list)."""
    import ray

    cref = ray.put(centroids)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _normalize(_emb_matrix(t, emb_col))
        lid = np.argmax(m @ c.T, axis=1).astype(np.int64)
        return t.append_column("__list", pa.array(lid))

    ds.map_batches(assign, batch_format="pyarrow",
                   zero_copy_batch=True).write_parquet(
        out_dir, partition_cols=["__list"])
    return out_dir


def ivf_index_topk(index_dir: str, queries: np.ndarray,
                   centroids: np.ndarray, k: int = 10, nprobe: int = 4,
                   emb_col: str = "embedding",
                   id_col: str = "vec_id") -> pd.DataFrame:
    """Query a persisted IVF index: read ONLY the ``nprobe`` closest
    list partitions per query (partition pruning at the read), exact
    cosine rerank inside them."""
    import os

    import ray.data as rd

    qn = _normalize(queries)
    order = np.argsort(-(qn @ centroids.T), axis=1)
    probe = sorted({int(lid) for qi in range(qn.shape[0])
                    for lid in order[qi, :min(nprobe, centroids.shape[0])]})
    dirs = [os.path.join(index_dir, f"__list={lid}") for lid in probe]
    files = [os.path.join(p, f) for p in dirs if os.path.isdir(p)
             for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
    if not files:
        return pd.DataFrame(columns=["query_id", "rank", id_col])
    cand = rd.read_parquet(files, columns=[id_col, emb_col])
    # rerank is exact within the probed lists, but a probed-list union is
    # still per-query in ivf_topk terms; reuse the masked scorer so each
    # query only sees ITS lists
    return ivf_topk(cand, queries, k=k, nprobe=nprobe,
                    n_lists=centroids.shape[0], emb_col=emb_col,
                    id_col=id_col, centroids=centroids)
