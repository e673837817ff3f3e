"""Resume correctness (SURVEY.md §5 item 5): a run interrupted after k
partitions, then re-run, yields the same result as a single run."""

import logging
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from miller_ray.engine import merge
from miller_ray.engine.checkpoint import checkpointed_build, lineage_report, load_manifest
from miller_ray.engine.udaf import SketchSpec
from miller_ray.schema import generate_tokens_table
from miller_ray.sketches import HyperLogLog, KLL


def _specs():
    return [
        SketchSpec.column("hll_doc_id", lambda: HyperLogLog(p=12), "doc_id"),
        SketchSpec.column("kll_n_tok", lambda: KLL(k=200), "n_tok"),
    ]


@pytest.fixture(scope="module")
def token_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpt_input")
    paths = []
    for i in range(4):
        t = generate_tokens_table(1500, seed=100 + i)
        p = str(d / f"part-{i}.parquet")
        pq.write_table(t, p, row_group_size=500)
        paths.append(p)
    return paths


def test_resume_equals_single_run(ray_session, token_files, tmp_path):
    single = checkpointed_build(token_files, _specs(), str(tmp_path / "a"))

    # interrupted run: only the first 2 partitions complete...
    ck = str(tmp_path / "b")
    checkpointed_build(token_files[:2], _specs(), ck)
    assert len(load_manifest(ck)) == 2
    # ...then the re-run picks up the remaining 2 and merges all 4
    resumed = checkpointed_build(token_files, _specs(), ck)

    assert single["hll_doc_id"].estimate() == resumed["hll_doc_id"].estimate()
    for name in single:
        assert single[name].to_bytes() == resumed[name].to_bytes(), name
    for p in (10, 50, 90, 99):
        assert abs(single["kll_n_tok"].quantile(p) - resumed["kll_n_tok"].quantile(p)) \
            <= 0.05 * max(1.0, single["kll_n_tok"].quantile(p))

    # second full run is a no-op (all partitions manifested)
    again = checkpointed_build(token_files, _specs(), ck)
    assert again["hll_doc_id"].estimate() == resumed["hll_doc_id"].estimate()

    # lineage metrics: one entry per file, row counts correct
    rep = lineage_report(ck)
    assert [e["path"] for e in rep] == sorted(token_files)
    assert all(e["rows"] == 1500 for e in rep)


def test_keyed_fold_branches_write_the_same_checkpoint(ray_session, token_files,
                                                      tmp_path, caplog, monkeypatch):
    """The per-file fold runs through ``merge_keyed``: its driver fold
    and its salted two-level merge give the same manifest rows, blob
    digests and merged sketches."""
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    runs = {}
    for fold_bytes in (merge.KEYED_FOLD_BYTES, 0):
        monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", fold_bytes)
        caplog.clear()
        ck = str(tmp_path / f"k{fold_bytes}")
        out = checkpointed_build(token_files, _specs(), ck)
        branch = {r.getMessage().split("branch=")[1] for r in caplog.records
                  if r.getMessage().startswith("merge_keyed:")}
        lineage = {e["path"]: (e["rows"], e["sha256"]) for e in lineage_report(ck)}
        runs[fold_bytes] = (branch, lineage, {k: v.to_bytes() for k, v in out.items()})
    (b1, lin1, sk1), (b2, lin2, sk2) = runs.values()
    assert b1 == {"driver fold"} and b2 == {"salted two-level merge"}
    assert sorted(lin1) == sorted(token_files)
    assert all(rows == 1500 for rows, _ in lin1.values())
    assert lin1 == lin2
    assert sk1 == sk2


def test_build_reads_its_files_in_at_most_one_task_per_cpu(ray_session, token_files,
                                                           tmp_path, caplog):
    """The cold build logs its shard read: every pending file, at most
    one read task per CPU, batches of up to 131072 rows. A resume with
    nothing pending reads nothing."""
    import ray

    caplog.set_level(logging.DEBUG, logger="miller_ray")
    ck = str(tmp_path / "r")
    checkpointed_build(token_files, _specs(), ck)
    reads = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("read_shards:")]
    assert len(reads) == 1, reads
    plan = dict(kv.split("=") for kv in reads[0].split()[1:])
    assert int(plan["files"]) == len(token_files)
    assert 1 <= int(plan["read_tasks"]) <= int(ray.cluster_resources()["CPU"])
    assert int(plan["batch_rows"]) == 131072
    caplog.clear()
    checkpointed_build(token_files, _specs(), ck)
    assert not [r for r in caplog.records if r.getMessage().startswith("read_shards:")]


def test_alias_spec_writes_no_blob(ray_session, token_files, tmp_path):
    """An alias spec gets no blob file or manifest entry; cold build and
    resume both return its target's sketch under the alias."""
    specs = _specs() + [SketchSpec.alias("n_docs", "hll_doc_id")]
    ck = str(tmp_path / "c")
    cold = checkpointed_build(token_files, specs, ck)
    assert cold["n_docs"] is cold["hll_doc_id"]
    assert not [f for f in os.listdir(ck) if ".n_docs." in f]
    assert all(set(e["blobs"]) == {"hll_doc_id", "kll_n_tok"}
               for e in load_manifest(ck).values())
    resumed = checkpointed_build(token_files, specs, ck)
    assert resumed["n_docs"] is resumed["hll_doc_id"]
    assert resumed["n_docs"].to_bytes() == cold["n_docs"].to_bytes()


def test_corrupt_blob_is_rebuilt(ray_session, token_files, tmp_path):
    ck = str(tmp_path / "c")
    first = checkpointed_build(token_files, _specs(), ck)
    # corrupt one blob: its manifest entry must be invalidated and rebuilt
    rep = lineage_report(ck)
    victim = os.path.join(ck, rep[0]["blobs"]["hll_doc_id"])
    with open(victim, "wb") as f:
        f.write(b"garbage")
    assert rep[0]["path"] not in load_manifest(ck)
    rebuilt = checkpointed_build(token_files, _specs(), ck)
    assert rebuilt["hll_doc_id"].estimate() == first["hll_doc_id"].estimate()


def test_torn_manifest_line_ignored(ray_session, token_files, tmp_path):
    ck = str(tmp_path / "d")
    checkpointed_build(token_files[:1], _specs(), ck)
    with open(os.path.join(ck, "manifest.jsonl"), "a") as f:
        f.write('{"path": "part-9.parquet", "rows": 12')  # killed mid-write
    m = load_manifest(ck)
    assert len(m) == 1


def test_hll_estimate_sane(ray_session, token_files, tmp_path):
    out = checkpointed_build(token_files, _specs(), str(tmp_path / "e"))
    est = out["hll_doc_id"].estimate()
    # 4 files x 1500 rows, doc_ids unique within file but chunk-seeded
    # generation reuses ids across files -> exact distinct = 1500
    exact = 1500
    assert abs(est - exact) / exact < 3 * 1.04 / np.sqrt(2**12)
