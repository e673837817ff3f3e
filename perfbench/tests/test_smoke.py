"""Smoke tests of the benchmark at tiny scale.

Every workload runs with zero failed ops, every checker rejects a
perturbed answer, a traced run accounts for each op's wall time, and the
command fails without the program next to it.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Each workload prepared at tiny scale, with one op's result."""
    from perfbench import run
    from perfbench.tracing import Tracer
    from perfbench.workloads import SCALES, WORKLOADS

    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(ROOT)  # Ray workers import the program
    cache = str(tmp_path_factory.mktemp("cache"))
    run.start_ray()
    try:
        out = {}
        for name, cls in WORKLOADS.items():
            wl = cls(SCALES["tiny"], 7, cache, Tracer(False))
            wl.prepare()
            wl.before_op()
            out[name] = (wl, wl.op())
            wl.cleanup()
        yield out
    finally:
        run.shutdown_ray()
        if old is None:
            os.environ.pop("PYTHONPATH")
        else:
            os.environ["PYTHONPATH"] = old


@pytest.mark.parametrize("name", ["flagship", "verbs", "checkpoint"])
def test_tiny_op_passes_its_check(tiny, name):
    wl, res = tiny[name]
    assert wl.check(res) == []


def test_flagship_rejects_perturbed_estimates(tiny):
    wl, (res, grouped) = tiny["flagship"]
    for sketch, stat, factor in [("hll_doc_id", "distinct_count", 1.1),
                                 ("kll_n_tok", "p90", 2.0),
                                 ("td_n_tok", "p50", 3.0),
                                 ("hist_token_values", "p99", 1.5),
                                 ("bloom_doc_id", "estimated_fpp", 1.5)]:
        bad = res.copy()
        row = (bad["sketch"] == sketch) & (bad["stat"] == stat)
        assert row.sum() == 1
        bad.loc[row, "value"] *= factor
        assert wl.check((bad, grouped)), (sketch, stat)
    bad = res.copy()
    bad.loc[bad["sketch"] == "hh_tokens", "value"] -= 1  # below the true count
    assert wl.check((bad, grouped))


def test_bloom_check_sees_false_negatives(tiny):
    from miller_ray.sketches import BloomFilter
    from perfbench import checks

    wl, _ = tiny["flagship"]
    assert checks.check_bloom(BloomFilter(capacity=1000), wl.exact.doc_ids)


def test_flagship_rejects_perturbed_grouped_estimates(tiny):
    wl, (summary, res) = tiny["flagship"]
    for col, factor in [("doc_id_distinct_est", 1.1), ("n_tok_p50_est", 2.0)]:
        bad = res.copy()
        bad.loc[bad["source"] == "web", col] *= factor
        assert wl.check((summary, bad)), col
    assert wl.check((summary, res.iloc[1:]))


@pytest.mark.parametrize("verb", ["count_distinct", "count_distinct_n", "top",
                                  "stats1_moments", "stats1_pctl", "step", "head",
                                  "rank", "join"])
def test_verbs_reject_a_dropped_row(tiny, verb):
    wl, res = tiny["verbs"]
    assert wl.check({**res, verb: res[verb].iloc[1:]})


def test_verbs_reject_a_changed_value(tiny):
    wl, res = tiny["verbs"]
    bad = res["rank"].copy()
    bad.loc[bad.index[0], "n_tok_rank"] += 1
    assert wl.check({**res, "rank": bad})


def test_checkpoint_rejects_a_changed_resume_or_lineage(tiny):
    from miller_ray.sketches import HyperLogLog

    wl, (cold, resumed, lineage) = tiny["checkpoint"]
    assert wl.check((cold, {**resumed, "hll_doc_id": HyperLogLog(p=14)}, lineage))
    assert wl.check((cold, resumed, lineage[1:]))


def _run_cli(args, cwd):
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=300)
    return p, p.stdout.strip().splitlines()


def test_cli_untraced_from_another_directory(tmp_path):
    p, lines = _run_cli(["--workload", "verbs", "--seed", "3", "--seconds", "2",
                         "--trace", "0", "--scale", "tiny"], tmp_path)
    assert p.returncode == 0, p.stderr[-2000:]
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_cli_traced_accounts_for_op_wall_time(tmp_path):
    p, lines = _run_cli(["--workload", "flagship", "--seed", "3", "--seconds", "3",
                         "--trace", "1", "--scale", "tiny"], tmp_path)
    assert p.returncode == 0, p.stderr[-2000:]
    res = json.loads(lines[-1])
    assert res["correct"] and res["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in bench["per_layer"]}
    summary = json.loads(lines[-2])
    assert summary["accounting"]
    for acc in summary["accounting"].values():
        assert abs(acc["layers"] + acc["residual"] - acc["wall"]) <= 0.10 * acc["wall"]
    assert res["metrics"]["udaf.partials"]["value"] == summary["branch"]["partials"]
    assert (ROOT / summary["trace_file"]).exists()


def test_benchmark_json_names_the_code_metrics():
    from perfbench.workloads import PER_LAYER, WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".out", ".ray", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flagship",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
