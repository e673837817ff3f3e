"""Dedup stage correctness on constructed duplicates."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from miller_ray.engine import merge
from miller_ray.stages import dedup


@pytest.fixture()
def rd(ray_session):
    import ray.data as rd

    return rd


def test_exact_dedup_keeps_min_id(rd):
    t = pa.table({"id": [5, 3, 1, 2, 4, 6], "txt": ["a", "a", "a", "b", "b", "c"]})
    out = dedup.exact_dedup(rd.from_arrow(t), ["txt"], "id").to_pandas()
    assert sorted(out["id"]) == [1, 2, 6]


def test_exact_dedup_no_dups_is_identity(rd):
    t = pa.table({"id": [1, 2, 3], "txt": ["x", "y", "z"]})
    out = dedup.exact_dedup(rd.from_arrow(t), ["txt"], "id").to_pandas()
    assert sorted(out["id"]) == [1, 2, 3]


def test_exact_dedup_cross_block_full_row_dups(rd, monkeypatch):
    # identical (id, content) rows in DIFFERENT blocks must still emit
    # exactly one output row — per-batch drop_duplicates can't see
    # cross-block copies (regression: winner multiplicity tracking /
    # bucketed semi-join)
    t1 = pa.table({"id": [1, 2], "txt": ["a", "b"]})
    t2 = pa.table({"id": [1, 3], "txt": ["a", "c"]})
    ds = rd.from_arrow(t1).union(rd.from_arrow(t2))
    a = dedup.exact_dedup(ds, ["txt"], "id").to_pandas()
    assert sorted(a["id"].tolist()) == [1, 2, 3]
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", 0)
    b = dedup.exact_dedup(ds, ["txt"], "id").to_pandas()
    assert sorted(b["id"].tolist()) == [1, 2, 3]
    assert b["id"].dtype == "int64"


def test_exact_dedup_shuffle_join_scale_path(rd, monkeypatch):
    # force the distributed branch (bucketed semi-join — the 100-TB
    # path) and check it agrees with the broadcast path on the same
    # input
    n = 500
    ids = list(range(n))
    txts = [f"doc{i % 200}" for i in ids]  # 200 distinct, dups keep min id
    t = pa.table({"id": ids, "txt": txts})
    a = dedup.exact_dedup(rd.from_arrow(t), ["txt"], "id").to_pandas()
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", 0)
    b = dedup.exact_dedup(rd.from_arrow(t), ["txt"], "id").to_pandas()
    assert sorted(a["id"]) == sorted(b["id"]) == list(range(200))


def test_minhash_finds_planted_near_dups(rd):
    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep dark woods to hide from every single hunter")
    near = base.replace("dark", "cold")  # one-word edit: high Jaccard
    distinct = ("completely different content about distributed sketching "
                "algorithms over parquet token tables with ray data pipelines "
                "and mergeable state for approximate aggregation at scale")
    docs = pa.table({
        "doc_id": ["a", "b", "c", "d"],
        "text": [base, near, distinct, "tiny text here now"],
    })
    out = dedup.minhash_dedup(rd.from_arrow(docs), threshold=0.5)
    clusters = dict(zip(out["doc_id"], out["rep"]))
    assert clusters.get("a") == "a" and clusters.get("b") == "a"
    assert "c" not in clusters and "d" not in clusters


def test_simhash_pairs_on_planted_dups(rd):
    base = " ".join(f"token{i}" for i in range(60))
    near = base.replace("token30", "token99")
    docs = pa.table({"doc_id": [1, 2, 3],
                     "text": [base, near, "one unrelated short doc entirely"]})
    pairs = dedup.simhash_near_pairs(rd.from_arrow(docs), max_hamming=6)
    assert {(int(a), int(b)) for a, b in zip(pairs["a"], pairs["b"])} == {(1, 2)}


def test_lsh_persisted_index(ray_session, tmp_path, sf_dir):
    """build_lsh_index partitions the corpus by signature ONCE; queries
    prune partitions at the read and match brute-force when the probe
    radius covers every bucket."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from miller_ray.stages import ann

    con = duckdb.connect()
    q = con.execute(
        f"select embedding from '{sf_dir}/embeddings.parquet' "
        "where vec_id < 2 order by vec_id").df()["embedding"]
    con.close()
    queries = np.stack(q.to_numpy()).astype(np.float64)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    idx = ann.build_lsh_index(ds, str(tmp_path / "lshidx"), n_planes=4)
    import os

    parts = [d for d in os.listdir(idx) if d.startswith("__sig=")]
    assert 1 < len(parts) <= 16  # bucketed layout on disk
    # full-radius probe == exact answer
    exact = ann.brute_force_topk(ds, queries, k=5)
    full = ann.lsh_index_topk(idx, queries, k=5, n_planes=4,
                              probe_hamming=4)
    assert full.equals(exact)
    # pruned probe returns a subset-quality result with k rows per query
    pruned = ann.lsh_index_topk(idx, queries, k=5, n_planes=4,
                                probe_hamming=1)
    assert set(pruned["query_id"]) == {0, 1}


def test_embedding_cosine_pairs_exact(ray_session, sf_dir):
    """Exact embedding near-dup pairs == the numpy all-pairs answer."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from miller_ray.stages import dedup

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    got = dedup.embedding_cosine_pairs(ds, threshold=0.4)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    e = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    ids = t["vec_id"].to_numpy()
    s = e @ e.T
    i, j = np.nonzero(np.triu(s >= 0.4, k=1))
    exp = sorted(zip(np.minimum(ids[i], ids[j]).tolist(),
                     np.maximum(ids[i], ids[j]).tolist()))
    assert list(zip(got["id1"], got["id2"])) == exp
    assert len(exp) > 0  # the threshold actually exercises pairs


def test_embedding_cosine_pairs_lsh(ray_session, sf_dir):
    """LSH-bucketed variant: perfect precision (every emitted pair is a
    true above-threshold pair — in-bucket scoring is exact cosine) and
    high recall at the banding chosen for the test threshold."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from miller_ray.stages import dedup

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    # 12 bands x 2 bits: P(catch sim>=0.4) = 1-(1-p^2)^12 ~ 0.999
    # with p = 1 - acos(0.4)/pi ~ 0.631
    lsh = dedup.embedding_cosine_pairs_lsh(ds, threshold=0.4,
                                           n_planes=24, band_bits=2)
    exact = dedup.embedding_cosine_pairs(ds, threshold=0.4)
    lshp = set(zip(lsh["id1"], lsh["id2"]))
    exactp = set(zip(exact["id1"], exact["id2"]))
    assert lshp <= exactp  # no false positives ever
    assert len(lshp & exactp) / len(exactp) >= 0.9


def test_ngram_jaccard_distributed_scoring(rd):
    # VERDICT r04 #4: pair scoring must run in map_groups, not a driver
    # loop over take_all(); semantics: exact hashed-shingle Jaccard in
    # pairs_df order, unmatched candidates impossible by construction.
    docs = pd.DataFrame({
        "doc_id": ["a", "b", "c", "d"],
        "text": ["the quick brown fox jumps over the lazy dog",
                 "the quick brown fox jumps over the lazy cat",
                 "completely different text entirely here now folks",
                 "the quick brown fox jumps over the lazy dog"],
    })
    ds = rd.from_pandas(docs).repartition(3)
    pairs = pd.DataFrame({"a": ["a", "a", "b"], "b": ["b", "d", "c"]})
    out = dedup.ngram_jaccard(ds, pairs)
    assert list(out.columns) == ["a", "b", "jaccard"]
    assert out["a"].tolist() == pairs["a"].tolist()  # order preserved
    assert out.loc[1, "jaccard"] == 1.0   # identical docs
    assert out.loc[2, "jaccard"] == 0.0   # disjoint docs
    assert 0.0 < out.loc[0, "jaccard"] < 1.0
    empty = dedup.ngram_jaccard(ds, pairs.iloc[0:0])
    assert list(empty.columns) == ["a", "b", "jaccard"] and empty.empty


def _clustered_vecs(n_clusters=4, per=150, d=16):
    """Deterministic clustered embeddings: splitmix64-derived centers
    plus small splitmix64 noise — no RNG state, reproducible anywhere."""
    import numpy as np

    from miller_ray.hashing import splitmix64

    def unit(seed, rows):
        raw = splitmix64(np.arange(rows * d, dtype=np.uint64), seed=seed)
        m = (raw.astype(np.float64) * 2.0**-64 - 0.5).reshape(rows, d)
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    centers = unit(7, n_clusters)
    noise = 0.15 * unit(11, n_clusters * per)
    pts = np.repeat(centers, per, axis=0) + noise
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return centers, pts


def test_ivf_topk_full_probe_is_exact(rd):
    """nprobe == n_lists degrades to the brute-force answer exactly."""
    import numpy as np

    from miller_ray.stages import ann

    centers, pts = _clustered_vecs()
    t = pa.table({"vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
                  "embedding": pa.array(list(pts), type=pa.list_(pa.float64()))})
    ds = rd.from_arrow(t)
    queries = centers[:2]
    cents = ann.train_ivf_centroids(ds, n_lists=4, sample_target=256)
    exact = ann.brute_force_topk(ds, queries, k=8)
    full = ann.ivf_topk(ds, queries, k=8, n_lists=4, nprobe=4,
                        centroids=cents)
    assert full.equals(exact)


def test_ivf_topk_nprobe1_recall_on_clusters(rd):
    """On clustered data a single probed list retains the true top-k:
    k-means lists align with the clusters."""
    import numpy as np

    from miller_ray.stages import ann

    centers, pts = _clustered_vecs()
    t = pa.table({"vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
                  "embedding": pa.array(list(pts), type=pa.list_(pa.float64()))})
    ds = rd.from_arrow(t)
    queries = centers[:2]
    cents = ann.train_ivf_centroids(ds, n_lists=4, sample_target=256)
    exact = ann.brute_force_topk(ds, queries, k=8)
    approx = ann.ivf_topk(ds, queries, k=8, n_lists=4, nprobe=1,
                          centroids=cents)
    for qid in (0, 1):
        e = set(exact.loc[exact["query_id"] == qid, "vec_id"])
        a = set(approx.loc[approx["query_id"] == qid, "vec_id"])
        assert len(e & a) / len(e) >= 0.75, (qid, len(e & a))


def test_ivf_persisted_index(rd, tmp_path):
    """build_ivf_index partitions by list once; querying reads only the
    probed list dirs and matches the in-memory ivf_topk answer."""
    import os

    import numpy as np

    from miller_ray.stages import ann

    centers, pts = _clustered_vecs()
    t = pa.table({"vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
                  "embedding": pa.array(list(pts), type=pa.list_(pa.float64()))})
    ds = rd.from_arrow(t)
    queries = centers[:2]
    cents = ann.train_ivf_centroids(ds, n_lists=4, sample_target=256)
    idx = ann.build_ivf_index(ds, str(tmp_path / "ivfidx"), cents)
    parts = [p for p in os.listdir(idx) if p.startswith("__list=")]
    assert 2 <= len(parts) <= 4  # clustered corpus fills the lists
    got = ann.ivf_index_topk(idx, queries, cents, k=8, nprobe=1)
    want = ann.ivf_topk(ds, queries, k=8, n_lists=4, nprobe=1,
                        centroids=cents)
    assert got.equals(want)


def test_pii_redact_planted(rd):
    from miller_ray.stages import text as T

    t = pa.table({"doc_id": [1, 2],
                  "text": ["contact bob@x.org or 192.168.0.1 ssn 123-45-6789",
                           "no pii here at all"]})
    out = T.pii_redact(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert list(out["text"]) == [
        "contact <EMAIL> or <IP> ssn <SSN>", "no pii here at all"]
    assert list(out["n_redacted"]) == [3, 0]


def test_domain_mix_negative_ids_match_duckdb(rd):
    """SQL ``%`` keeps the dividend's sign (``-7 % 100`` is -7), so the
    kept rows over negative ids must be the ones DuckDB keeps under the
    ``domain_mix`` oracle's own predicate."""
    import duckdb

    from __ray_entry__ import oracle_sql
    from miller_ray.stages import text as T

    sql = oracle_sql()["domain_mix"]
    pred = sql.split(" WHERE ", 1)[1].split(") SELECT ", 1)[0]
    ids = np.arange(-250, 250, dtype=np.int64)
    t = pa.table({"doc_id": ids,
                  "source": [f"src{i % 10}" for i in range(ids.size)]})
    quotas = {f"src{i}": (i % 5 + 1) * 0.15 for i in range(64)}
    got = sorted(T.domain_mix(rd.from_arrow(t), quotas).to_pandas()["doc_id"])
    con = duckdb.connect()
    con.register("documents", t)
    want = sorted(r[0] for r in con.execute(
        f"SELECT doc_id FROM documents WHERE {pred}").fetchall())
    assert any(i < 0 and i % 100 >= 15 for i in want)  # numpy's % drops these
    assert got == want


def test_topk_with_empty_blocks(rd):
    """Empty blocks in the corpus change neither top-k answer."""
    import numpy as np

    from miller_ray.stages import ann

    centers, pts = _clustered_vecs()
    t = pa.table({"vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
                  "embedding": pa.array(list(pts), type=pa.list_(pa.float64()))})
    ds = rd.from_arrow([t.slice(0, 0), t.slice(0, 300), t.slice(300, 0),
                        t.slice(300)])
    queries = centers[:2]
    exact = ann.brute_force_topk(rd.from_arrow(t), queries, k=8)
    assert ann.brute_force_topk(ds, queries, k=8).equals(exact)
    cents = ann.train_ivf_centroids(rd.from_arrow(t), n_lists=4,
                                    sample_target=256)
    full = ann.ivf_topk(ds, queries, k=8, n_lists=4, nprobe=4,
                        centroids=cents)
    assert full.equals(exact)


def test_kmeanspp_first_centroid_depends_on_seed():
    """The first k-means++ pick is ``splitmix64(0, seed) mod n`` in
    integer arithmetic; a float64 modulo of the 64-bit hash loses its
    low bits and picked row 0 for every seed."""
    import numpy as np

    from miller_ray.stages import ann

    sample = np.eye(16)  # row i is the only row with a 1 in column i
    firsts = {int(np.argmax(ann._kmeanspp_init(sample, 1, seed)[0]))
              for seed in range(32)}
    assert len(firsts) > 1, firsts


def _empty_vectors(rd):
    import numpy as np

    t = pa.table({"vec_id": pa.array([], type=pa.int64()),
                  "embedding": pa.array([], type=pa.list_(pa.float64()))})
    return rd.from_arrow(t), np.eye(2, 4)


def _assert_no_hits(out):
    assert list(out.columns) == ["query_id", "rank", "vec_id"]
    assert len(out) == 0
    assert [str(d) for d in out.dtypes] == ["int64", "int64", "int64"]


def test_brute_force_topk_empty_dataset(rd):
    from miller_ray.stages import ann

    ds, queries = _empty_vectors(rd)
    _assert_no_hits(ann.brute_force_topk(ds, queries, k=3))


def test_ivf_topk_empty_dataset(rd):
    from miller_ray.stages import ann

    ds, queries = _empty_vectors(rd)
    _assert_no_hits(ann.ivf_topk(ds, queries, k=3, centroids=queries))
