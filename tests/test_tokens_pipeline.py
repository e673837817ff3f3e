"""Flagship tokens-table pipeline: per-row invariant + sketch accuracy
vs exact answers (BASELINE.json input_hint: "per-row invariant vs the
reference: token-array equality")."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from miller_ray.pipelines import tokens as T
from miller_ray.schema import sf_to_tokens_rows, tokens_parquet_path


@pytest.fixture(scope="module")
def sf001():
    return "/root/testdata/sf0.001"


def test_token_array_equality(ray_session, sf001):
    """Our Dataset scan returns token arrays identical to the reference
    (plain pyarrow) scan, row-aligned; n_tok == len(tokens) everywhere."""
    assert T.verify_token_arrays(sf001)


def test_flagship_summary_schema(ray_session, sf001):
    df = T.sketch_summary(T.read_tokens(sf001))
    assert list(df.columns) == ["sketch", "stat", "value"]
    assert set(df["sketch"]) >= {"hll_doc_id", "hh_tokens", "kll_n_tok",
                                 "td_n_tok", "bloom_doc_id"}
    assert len(df) > 10


def test_flagship_accuracy_vs_exact(ray_session, sf001):
    n = sf_to_tokens_rows(sf001)
    ref = pq.read_table(tokens_parquet_path(n))
    sk = T.sketch_build(T.read_tokens(sf001))

    exact_docs = len(set(ref["doc_id"].to_pylist()))
    est = sk["hll_doc_id"].estimate()
    assert abs(est - exact_docs) / exact_docs < 3 * 1.04 / np.sqrt(2**14)

    ntok = np.asarray(ref["n_tok"].to_pandas(), dtype=np.float64)
    srt = np.sort(ntok)
    for p in (50, 90, 99):
        exact = srt[min(int(p * srt.size / 100), srt.size - 1)]
        for name in ("kll_n_tok", "td_n_tok"):
            got = sk[name].quantile(p)
            # rank-error bound: the estimate's exact rank must be close
            r = np.searchsorted(srt, got, side="right") / srt.size
            assert abs(r - p / 100.0) < 0.05, (name, p, got, exact, r)

    toks = pa.concat_arrays([c.flatten() for c in ref["tokens"].chunks])
    u, c = np.unique(np.asarray(toks), return_counts=True)
    order = np.argsort(-c)
    tv, tc = sk["hh_tokens"].top(5)
    # CMS+heap heavy hitters: top-5 token ids match the exact top-5
    assert set(tv.tolist()) == set(u[order[:5]].tolist())
    # CMS never underestimates; overestimate bounded by eps*N
    exact_counts = dict(zip(u.tolist(), c.tolist()))
    n_total = int(c.sum())
    for v, est_c in zip(tv.tolist(), tc.tolist()):
        assert est_c >= exact_counts[v]
        assert est_c - exact_counts[v] <= sk["hh_tokens"].eps * n_total

    # Bloom: zero false negatives over every inserted doc_id
    contained = sk["bloom_doc_id"].contains_batch(ref["doc_id"])
    assert bool(np.asarray(contained).all())


def test_flagship_top_tokens_are_exact(ray_session, sf001):
    """The ten hh_tokens rows are the exact top-10 token counts,
    count-desc then token-asc."""
    n = sf_to_tokens_rows(sf001)
    ref = pq.read_table(tokens_parquet_path(n))
    toks = pa.concat_arrays([c.flatten() for c in ref["tokens"].chunks])
    u, c = np.unique(np.asarray(toks), return_counts=True)
    order = np.lexsort((u, -c))[:10]
    df = T.sketch_summary(T.read_tokens(sf001))
    hh = df[df["sketch"] == "hh_tokens"]
    assert hh["stat"].tolist() == [f"top{i}_token_{v}"
                                   for i, v in enumerate(u[order].tolist(), 1)]
    assert hh["value"].tolist() == c[order].astype(float).tolist()


def test_hh_tokens_is_the_token_histogram(ray_session, sf001):
    """hh_tokens is an alias spec: the builders build and ship only the
    histogram and return that one object under both names, on empty
    input too."""
    import ray.data as rd

    from miller_ray.engine.udaf import build_sketches, built_specs

    specs = T.default_specs()
    assert [s.name for s in specs] == ["hll_doc_id", "hll_source", "hh_tokens", "kll_n_tok",
                                       "td_n_tok", "hist_token_values", "bloom_doc_id"]
    assert "hh_tokens" not in [s.name for s in built_specs(specs)]
    sk = T.sketch_build(T.read_tokens(sf001))
    assert sk["hh_tokens"] is sk["hist_token_values"]
    n = sf_to_tokens_rows(sf001)
    empty = rd.from_arrow(pq.read_table(tokens_parquet_path(n)).slice(0, 0))
    sk = build_sketches(empty, specs)
    assert sk["hh_tokens"] is sk["hist_token_values"]
    assert sk["hh_tokens"].top(10)[0].size == 0


def test_grouped_sketches_per_source(ray_session, sf001):
    n = sf_to_tokens_rows(sf001)
    ref = pq.read_table(tokens_parquet_path(n)).to_pandas()
    out = T.grouped_ntok_sketches(T.read_tokens(sf001))
    exact = ref.groupby("source")["doc_id"].nunique()
    assert set(out["source"]) == set(exact.index)
    for _, row in out.iterrows():
        e = exact[row["source"]]
        assert abs(row["doc_id_distinct_est"] - e) / max(e, 1) < 0.05


def test_read_tokens_batches_one_per_shard(ray_session, tmp_path, monkeypatch):
    """read_tokens sizes its batches by the table's own shard count, so
    8 shards of 3200 rows give one partial per shard."""
    from miller_ray.schema import generate_tokens_table

    for i in range(8):
        pq.write_table(generate_tokens_table(3200, seed=i),
                       tmp_path / f"part-{i:05d}.parquet")
    monkeypatch.setattr(T, "tokens_parquet_path", lambda n: str(tmp_path))
    ds = T.read_tokens("", n_rows=8 * 3200)
    sizes = ds.map_batches(lambda b: pa.table({"rows": [b.num_rows]}),
                           batch_format="pyarrow").to_pandas()["rows"]
    assert sorted(sizes) == [3200] * 8


def test_read_tokens_logs_its_shard_read(ray_session, tmp_path, monkeypatch, caplog):
    """read_tokens reads through the one shard reader: it logs every
    shard file, one read task per CPU at most and one shard's rows per
    batch."""
    import logging

    import ray

    from miller_ray.schema import generate_tokens_table

    for i in range(6):
        pq.write_table(generate_tokens_table(3300, seed=i),
                       tmp_path / f"part-{i:05d}.parquet")
    monkeypatch.setattr(T, "tokens_parquet_path", lambda n: str(tmp_path))
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    T.read_tokens("", n_rows=6 * 3300)
    reads = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("read_shards:")]
    cpus = int(ray.cluster_resources()["CPU"])
    assert reads == [f"read_shards: files=6 read_tasks={min(6, cpus)} batch_rows=3300"]
