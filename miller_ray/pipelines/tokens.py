"""The north-rule flagship: one streaming pass over a tokens table
(doc_id, tokens: list<int32>, n_tok, source) building six mergeable
sketch UDAFs, plus grouped (per-source) variants with salted merge.

Answers what Miller answers exactly, approximately where the domain is
unbounded:
- HLL(doc_id), HLL per source    <-> ``mlr count-distinct -f doc_id``
- exact token histogram          <-> ``mlr most-frequent`` / ``top`` by
  count (exact top-k, also returned as ``hh_tokens``: token ids are
  bounded, so no Count-Min is needed) and ``mlr stats1 -a p50,p90,p99``
  over token values
- KLL / t-digest over n_tok      <-> ``mlr stats1 -a p50,p90,p99 -f n_tok``
- Bloom(doc_id)                  <-> membership pruning for dedup/semi-join
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from miller_ray.engine.scan import read_shards
from miller_ray.engine.udaf import SketchSpec, build_grouped_sketches, build_sketches
from miller_ray.schema import sf_to_tokens_rows, tokens_parquet_path
from miller_ray.sketches import BloomFilter, BoundedIntHist, HyperLogLog, KLL, TDigest
from miller_ray.schema import VOCAB_SIZE


def read_tokens(sf_dir: str, n_rows: int | None = None):
    """Tokens Dataset for a testdata sf dir (deterministic synthetic,
    cached as a multi-file Parquet dataset under /tmp), read by
    ``engine.scan.read_shards`` in batches of one shard's rows or 3125,
    whichever is more: a shard of at least 3125 rows is its own batch,
    and smaller shards pack whole into batches of up to 3125 rows, so a
    build emits one partial per batch, not one per tiny shard."""
    n = n_rows or sf_to_tokens_rows(sf_dir)
    path = tokens_parquet_path(n)
    files = sorted(os.path.join(path, f) for f in os.listdir(path)
                   if f.endswith(".parquet"))
    return read_shards(files, max(3125, -(-n // max(len(files), 1))))


def _token_counts(t, cache) -> np.ndarray:
    """ONE bincount pass over the batch's flattened tokens, shared via
    the per-batch cache by every token-frequency sketch. Token ids are
    bounded ([0, vocab)), so this dense count vector is a sufficient
    statistic for the exact histogram's top-k AND value quantiles — the
    token stream is scanned exactly once per batch."""
    key = ("bincount", "tokens")
    if key not in cache:
        from miller_ray.sketches.base import bincount_chunked

        # bincount per Arrow chunk directly on the zero-copy values
        # buffer and SUM the counts — pa.concat_arrays would copy the
        # whole token stream once more, and this kernel is the
        # flagship's memory-bandwidth hot spot
        acc = np.zeros(VOCAB_SIZE, dtype=np.int64)
        for c in t["tokens"].chunks:
            flat = c.flatten().to_numpy(zero_copy_only=False)
            if flat.size:
                cnt = bincount_chunked(flat, minlength=VOCAB_SIZE)
                if cnt.size > acc.size:
                    cnt[: acc.size] += acc
                    acc = cnt
                else:
                    acc[: cnt.size] += cnt
        cache[key] = acc
    return cache[key]


def _doc_id_hashes(t: pa.Table, cache: dict) -> np.ndarray:
    """ONE hash64 pass over the batch's doc_id column, shared via the
    per-batch cache by HLL and Bloom (identical base hash, seed 0) —
    doc_id hashing is the kernel's second hot spot after the token
    bincount, and sharing halves it with bit-identical results."""
    key = ("h64", "doc_id")
    if key not in cache:
        from miller_ray.hashing import hash64

        cache[key] = hash64(t["doc_id"])
    return cache[key]


def default_specs(hll_p: int = 14, kll_k: int = 200,
                  td_compression: float = 200.0, bloom_capacity: int = 1_000_000):
    return [
        SketchSpec.custom("hll_doc_id", lambda: HyperLogLog(p=hll_p),
                          lambda sk, t, cache: sk.update_hashes(_doc_id_hashes(t, cache)),
                          ["doc_id"]),
        SketchSpec.column("hll_source", lambda: HyperLogLog(p=hll_p), "source"),
        # token ids are bounded, so the exact histogram's top-k answers
        # the heavy-hitter question
        SketchSpec.alias("hh_tokens", "hist_token_values"),
        SketchSpec.column("kll_n_tok", lambda: KLL(k=kll_k), "n_tok"),
        SketchSpec.column("td_n_tok", lambda: TDigest(td_compression), "n_tok"),
        # token VALUES live in [0, vocab): the exact bounded-int histogram
        # replaces a KLL for quantiles — it rides the shared bincount
        # instead of an O(n log n) sort, the flagship's bandwidth hot spot
        SketchSpec.custom("hist_token_values",
                          lambda: BoundedIntHist(domain=VOCAB_SIZE),
                          lambda sk, t, cache: sk.update_counts(_token_counts(t, cache)),
                          ["tokens"]),
        SketchSpec.custom("bloom_doc_id",
                          lambda: BloomFilter(capacity=bloom_capacity, fpp=0.01),
                          lambda sk, t, cache: sk.update_hashes(_doc_id_hashes(t, cache)),
                          ["doc_id"]),
    ]


def sketch_build(ds, specs=None) -> dict:
    """ONE pass over ds building every sketch; returns {name: sketch}.
    ``hh_tokens`` is the merged ``hist_token_values`` object."""
    return build_sketches(ds, specs or default_specs())


def sketch_summary(ds) -> pd.DataFrame:
    """Flagship output: one row per (sketch, statistic) estimate."""
    sk = sketch_build(ds)
    rows: list[tuple[str, str, float]] = []
    rows.append(("hll_doc_id", "distinct_count", sk["hll_doc_id"].estimate()))
    rows.append(("hll_source", "distinct_count", sk["hll_source"].estimate()))
    tv, tc = sk["hh_tokens"].top(10)
    for i, (v, c) in enumerate(zip(tv, tc), 1):
        rows.append(("hh_tokens", f"top{i}_token_{int(v)}", float(c)))
    for p in (50, 90, 99):
        rows.append(("kll_n_tok", f"p{p}", sk["kll_n_tok"].quantile(p)))
        rows.append(("td_n_tok", f"p{p}", sk["td_n_tok"].quantile(p)))
        rows.append(("hist_token_values", f"p{p}", sk["hist_token_values"].quantile(p)))
    rows.append(("bloom_doc_id", "estimated_fpp", sk["bloom_doc_id"].estimated_fpp()))
    return pd.DataFrame(rows, columns=["sketch", "stat", "value"])


def grouped_ntok_sketches(ds, hll_p: int = 14, kll_k: int = 200) -> pd.DataFrame:
    """Per-source sketches merged through ``merge_keyed``: distinct
    doc_ids (HLL) and n_tok quantiles (KLL) per source."""
    specs = [
        SketchSpec.column("hll_doc_id", lambda: HyperLogLog(p=hll_p), "doc_id"),
        SketchSpec.column("kll_n_tok", lambda: KLL(k=kll_k), "n_tok"),
    ]
    pdf = build_grouped_sketches(ds, ["source"], specs)
    out = pd.DataFrame({
        "source": pdf["source"],
        "doc_id_distinct_est": [h.estimate() for h in pdf["hll_doc_id"]],
        "n_tok_p50_est": [k.quantile(50) for k in pdf["kll_n_tok"]],
        "n_tok_p90_est": [k.quantile(90) for k in pdf["kll_n_tok"]],
        "n_tok_p99_est": [k.quantile(99) for k in pdf["kll_n_tok"]],
    })
    return out.sort_values("source").reset_index(drop=True)


def verify_token_arrays(sf_dir: str, n_rows: int | None = None) -> bool:
    """Per-row invariant vs the reference scan (input_hint): our Dataset
    scan yields token arrays identical to a plain pyarrow read,
    row-aligned by doc_id, and n_tok == len(tokens) everywhere."""
    import pyarrow.parquet as pq

    n = n_rows or sf_to_tokens_rows(sf_dir)
    path = tokens_parquet_path(n)
    ref = pq.read_table(path)
    ours = read_tokens(sf_dir, n_rows=n).to_pandas().sort_values("doc_id")
    refd = ref.to_pandas().sort_values("doc_id")
    if not (ours["n_tok"].to_numpy() == ours["tokens"].map(len).to_numpy()).all():
        return False
    if len(ours) != len(refd):
        return False
    for a, b in zip(ours["tokens"], refd["tokens"]):
        if not np.array_equal(np.asarray(a), np.asarray(b)):
            return False
    return True
