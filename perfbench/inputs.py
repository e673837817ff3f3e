"""Seeded benchmark inputs and their exact answers.

Inputs are written under the benchmark's own cache directory, keyed by
(kind, size, seed), so a second run with the same seed reuses them. The
tokens tables use the program's own generator
(``miller_ray.schema.generate_tokens_table``), shard by shard, with
doc_ids re-keyed to stay unique across shards — the layout of the
program's bench table, at a size set by the benchmark. Exact answers
come from pyarrow/numpy over the same files, or DuckDB for the verbs,
and are computed before any clock starts.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from miller_ray.schema import HOT_SOURCE, SOURCES, VOCAB_SIZE, generate_tokens_table

PERCENTILES = (50, 90, 99)
JOIN_WEIGHTS = {s: 10 * (i + 1) for i, s in enumerate(SOURCES)}


def _materialize(path: str, write) -> str:
    """Run ``write(tmp_dir)`` once per path; a finished dir is reused."""
    if os.path.isdir(path):
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    write(tmp)
    os.replace(tmp, path)
    return path


def parquet_files(path: str) -> list[str]:
    return sorted(os.path.join(path, f) for f in os.listdir(path)
                  if f.endswith(".parquet"))


def tokens_table(cache_dir: str, n_seqs: int, n_shards: int, seed: int) -> str:
    """Directory of ``n_shards`` uncompressed Parquet shards of the
    tokens schema (doc_id, tokens, n_tok, source)."""
    shard_rows = -(-n_seqs // n_shards)

    def write(out: str) -> None:
        for i, start in enumerate(range(0, n_seqs, shard_rows)):
            n = min(shard_rows, n_seqs - start)
            t = generate_tokens_table(n, seed=seed * 1_000_003 + start)
            ids = np.char.add("doc-", np.char.zfill((np.arange(n) + start).astype(str), 12))
            t = t.set_column(0, "doc_id", pa.array(ids.tolist(), type=pa.string()))
            pq.write_table(t, os.path.join(out, f"part-{i:05d}.parquet"),
                           row_group_size=shard_rows, compression="none",
                           use_dictionary=False)

    return _materialize(os.path.join(cache_dir, f"tokens_n{n_seqs}_f{n_shards}_s{seed}"), write)


def records_table(cache_dir: str, n_records: int, n_files: int, seed: int) -> str:
    """Directory of scalar records (doc_id: int64 unique, n_tok: int32,
    source: string with one source holding ~90% of rows)."""

    def write(out: str) -> None:
        rng = np.random.default_rng(seed)
        doc_id = rng.permutation(n_records).astype(np.int64) * 7 + 3
        n_tok = np.clip(rng.lognormal(6.0, 1.0, n_records), 1, 8192).astype(np.int32)
        cold = np.array(SOURCES[1:])[rng.integers(0, len(SOURCES) - 1, n_records)]
        source = np.where(rng.random(n_records) < 0.9, HOT_SOURCE, cold)
        t = pa.table({"doc_id": doc_id, "n_tok": n_tok,
                      "source": pa.array(source.tolist(), type=pa.string())})
        step = -(-n_records // n_files)
        for i, start in enumerate(range(0, n_records, step)):
            pq.write_table(t.slice(start, step), os.path.join(out, f"part-{i:05d}.parquet"))

    return _materialize(os.path.join(cache_dir, f"records_n{n_records}_f{n_files}_s{seed}"),
                        write)


# ---------------------------------------------------------------------------
# exact answers
# ---------------------------------------------------------------------------

def type1_percentile(sorted_vals: np.ndarray, p: float):
    """Miller's non-interpolated percentile: the value at index
    int(p/100 * n), clamped to the last element."""
    n = sorted_vals.size
    return sorted_vals[min(int(p * n / 100.0), n - 1)]


@dataclass
class TokensExact:
    n_seqs: int
    n_tokens: int
    doc_ids: pa.Array
    n_tok_sorted: np.ndarray
    token_counts: np.ndarray
    by_source: dict[str, np.ndarray]  # source -> sorted n_tok of its rows

    @property
    def n_sources(self) -> int:
        return len(self.by_source)

    def token_percentile(self, p: float) -> int:
        """Type-1 percentile of the flattened token values, from counts."""
        cum = np.cumsum(self.token_counts)
        idx = min(int(p * self.n_tokens / 100.0), self.n_tokens - 1)
        return int(np.searchsorted(cum, idx, side="right"))


def tokens_exact(path: str) -> TokensExact:
    t = pq.read_table(path)
    counts = np.zeros(VOCAB_SIZE, dtype=np.int64)
    for chunk in t["tokens"].chunks:
        counts += np.bincount(chunk.flatten().to_numpy(), minlength=VOCAB_SIZE)
    n_tok = t["n_tok"].to_numpy()
    src = t["source"].to_numpy(zero_copy_only=False)
    by_source = {s: np.sort(n_tok[src == s]) for s in np.unique(src)}
    return TokensExact(n_seqs=t.num_rows, n_tokens=int(counts.sum()),
                       doc_ids=t["doc_id"].combine_chunks(),
                       n_tok_sorted=np.sort(n_tok), token_counts=counts,
                       by_source=by_source)


def verbs_exact(path: str) -> dict[str, pd.DataFrame]:
    """Exact answer of every verb in the ``verbs`` round, by verb name."""
    con = duckdb.connect()
    try:
        con.execute(f"CREATE VIEW r AS SELECT * FROM read_parquet('{path}/*.parquet')")
        con.register("w", pd.DataFrame({"source": list(JOIN_WEIGHTS),
                                        "weight": list(JOIN_WEIGHTS.values())}))
        q = lambda sql: con.execute(sql).df()  # noqa: E731
        out = {
            "count_distinct": q("SELECT source, count(*) AS count FROM r GROUP BY source"),
            "count_distinct_n": q("SELECT count(DISTINCT doc_id) AS count FROM r"),
            "top": q("SELECT source, top_idx, n_tok AS n_tok_top FROM ("
                     " SELECT source, n_tok, row_number() OVER"
                     " (PARTITION BY source ORDER BY n_tok DESC) AS top_idx FROM r)"
                     " WHERE top_idx <= 10"),
            "stats1_moments": q("SELECT source, count(n_tok) AS n_tok_count,"
                                " sum(n_tok) AS n_tok_sum, avg(n_tok) AS n_tok_mean,"
                                " min(n_tok) AS n_tok_min, max(n_tok) AS n_tok_max,"
                                " var_samp(n_tok) AS n_tok_var FROM r GROUP BY source"),
            "step": q("SELECT doc_id, n_tok,"
                      " coalesce(n_tok - lag(n_tok) OVER (ORDER BY doc_id), 0)"
                      " AS n_tok_delta,"
                      " sum(n_tok) OVER (ORDER BY doc_id) AS n_tok_rsum FROM r"),
            "head": q("SELECT doc_id, n_tok, source FROM ("
                      " SELECT *, row_number() OVER (PARTITION BY source ORDER BY doc_id)"
                      " AS rn FROM r) WHERE rn <= 3"),
            "rank": q("SELECT doc_id, n_tok, source, rank() OVER"
                      " (PARTITION BY source ORDER BY n_tok) AS n_tok_rank FROM r"),
            "join": q("SELECT r.doc_id, r.n_tok, r.source, w.weight FROM r"
                      " JOIN w ON r.source = w.source"),
        }
        groups = q("SELECT source, list(n_tok ORDER BY n_tok) AS v FROM r GROUP BY source")
    finally:
        con.close()
    rows = []
    for s, v in zip(groups["source"], groups["v"]):
        v = np.asarray(v)
        rows.append({"source": s, **{f"n_tok_p{p}": type1_percentile(v, p)
                                     for p in PERCENTILES}})
    out["stats1_pctl"] = pd.DataFrame(rows)
    return out


def ckpt_exact(path: str) -> dict:
    t = pq.read_table(path, columns=["doc_id"])
    return {"rows": t.num_rows, "distinct_doc_ids": len(pc.unique(t["doc_id"])),
            "partitions": len(parquet_files(path))}
