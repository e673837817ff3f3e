"""Benchmark of the sketch verbs: one closed-loop client runs one
workload's op again and again for ``--seconds``, checks every result
against its exact answer, and prints one JSON object as its last line.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from spans recorded around the calls into each layer,
writes the spans to ``perfbench/.out/`` and states the branch the
program took. Inputs are generated from ``--seed`` into
``perfbench/.cache/``. See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# setup_s is the median of this many (ray.init + warm-up op) cycles
SETUP_CYCLES = 2
# Ray gets one CPU whatever the host has: one read task, so flagship
# folds one partial per shard on the driver, and a shared host's other
# tenants move the figures less than with every core in play
RAY_CPUS = 1
# An op holds two workers at once; with the default soft limit (one
# worker per CPU) Ray kills the idle one between ops and every other op
# pays a worker start (measured 0.9 s vs 1.8 s alternating on the
# per-source sketches)
RAY_WORKERS_SOFT_LIMIT = 4
# Ray's object store: the largest op holds well under this, and a small
# store fits /dev/shm on a host whose memory other tenants share
RAY_OBJECT_STORE_BYTES = 512 * 1024 ** 2
# Ray's session files stay in the checkout when its socket paths fit
RAY_TMP = BENCH_DIR / ".ray" / str(os.getpid())
OP_TIMEOUT_S = 60.0
# stop starting ops after this long, so a slow host still ends in time
RUN_DEADLINE_S = 140.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["flagship", "verbs", "checkpoint"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="input size; tiny is for the smoke tests")
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def tree_rss_mb(root_pid: int) -> float:
    """Summed RSS of ``root_pid`` and every process below it (the Ray
    processes ``ray.init`` started), read from /proc."""
    children: dict[int, list[int]] = {}
    rss: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        pid = int(d)
        children.setdefault(int(fields[1]), []).append(pid)
        rss[pid] = int(fields[21])
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        total += rss.get(pid, 0)
        todo += children.get(pid, [])
    return total * os.sysconf("SC_PAGE_SIZE") / 1e6


def canary_s() -> float:
    """Wall time of a fixed pure-ALU loop: no allocation, no syscalls.
    It rises when the host's CPU is contended, so it tells a slow run
    on a busy host from a slow program."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 1103515245 + i) & 0x7FFFFFFF
    return time.perf_counter() - t0


def host_record() -> dict:
    import duckdb
    import numpy
    import pandas
    import pyarrow
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = int(next(line for line in f if line.startswith("MemTotal")).split()[1])
    return {"nproc": nproc(), "ray_cpus": RAY_CPUS, "mem_gb": round(mem_kb / 1e6, 1),
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
            "pandas": pandas.__version__, "duckdb": duckdb.__version__,
            "note": "figures from hosts with other nproc or mem_gb, such as the "
                    "32-vCPU BENCH_r0x.json rounds, are not comparable"}


def call_with_timeout(fn, timeout: float):
    """(result, None) or (None, error text). The call runs in a daemon
    thread so a hung Ray job cannot keep the run from reporting."""
    box: dict = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException:  # reported as a failed op, never re-raised
            box["error"] = traceback.format_exc()

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        return None, f"timed out after {timeout:.0f} s"
    return box.get("result"), box.get("error")


class Run:
    def __init__(self, wl, tracer, trace: bool):
        self.wl, self.tr, self.trace = wl, tracer, trace
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.rss_mb: list[float] = []
        self.walls: list[float] = []          # timed, untraced ops
        self.traced_walls: list[float] = []   # timed, traced ops
        self.traced_ids: list[str] = []
        self.setup_s: list[float] = []
        self.passed = 0                       # timed, untraced ops that passed
        self.hung = False

    def _fail(self, err: str) -> None:
        self.failed += 1
        self.errors.append(err)
        print(f"op failed: {err}", file=sys.stderr)

    def op(self, trace_id: str, traced: bool):
        """Run, time and check one op; returns (wall time, passed). The
        wall time covers the op alone: not its reset, replay or check."""
        self.wl.before_op()
        self.attempted += 1
        self.tr.enabled = traced
        t: dict[str, float] = {}

        def body():
            with self.tr.trace(trace_id):
                with self.tr.span("op"):
                    t["start"] = time.perf_counter()
                    try:
                        res = self.wl.op()
                    finally:
                        t["end"] = time.perf_counter()
                if traced:
                    self.wl.replay()
            return res

        t0 = time.perf_counter()
        res, err = call_with_timeout(body, OP_TIMEOUT_S)
        wall = t.get("end", time.perf_counter()) - t.get("start", t0)
        self.tr.enabled = self.trace
        self.rss_mb.append(tree_rss_mb(os.getpid()))
        if err:
            self.hung = err.startswith("timed out")
            self._fail(err)
            return wall, False
        errs = self.wl.check(res)
        if errs:
            self._fail("; ".join(errs))
        return wall, not errs

    def setup(self, import_s: float) -> None:
        for cycle in range(SETUP_CYCLES):
            if cycle:
                shutdown_ray()
            with self.tr.trace(f"setup{cycle}"):
                t0 = time.perf_counter()
                with self.tr.span("ray.init"):
                    start_ray()
                with self.tr.span("ray.warmup"):
                    self.op(f"warmup{cycle}", traced=False)
                self.setup_s.append(import_s + time.perf_counter() - t0)
            if self.hung:
                return

    def loop(self, seconds: float) -> None:
        """Closed loop for ``seconds``. A traced run alternates untraced
        and traced ops."""
        t0 = time.perf_counter()
        i = 0
        while (time.perf_counter() - t0 < seconds and not self.hung
               and time.perf_counter() - _START < RUN_DEADLINE_S):
            traced = self.trace and i % 2 == 1
            wall, passed = self.op(f"op{i}", traced)
            if traced and passed:
                self.traced_walls.append(wall)
                self.traced_ids.append(f"op{i}")
            else:
                self.walls.append(wall)
                self.passed += passed
            i += 1


def ray_socket_fits(temp_dir: str) -> bool:
    """Whether Ray's longest socket path under ``temp_dir``,
    ``<temp_dir>/session_<date>_<pid>/sockets/plasma_store``, fits the
    107-byte AF_UNIX limit. The date is 26 characters."""
    session = f"session_{'x' * 26}_{os.getpid()}"
    return len(os.path.join(temp_dir, session, "sockets", "plasma_store").encode()) <= 107


def ray_temp_dirs() -> list[str]:
    """Where Ray may put its session: the checkout first, then Ray's
    usual /tmp/ray (a long checkout path does not fit a socket path)."""
    dirs = [str(RAY_TMP)] if ray_socket_fits(str(RAY_TMP)) else []
    return dirs + ["/tmp/ray"]


def init_ray(temp_dir: str) -> None:
    """Start a fresh one-CPU Ray cluster in this process. An address in
    the environment would join another cluster instead, so it is
    dropped. Ray's memory monitor is off: on a shared host it judges by
    the other tenants' memory and would kill this run's tasks."""
    import logging

    import ray
    from ray.data import DataContext

    os.environ.pop("RAY_ADDRESS", None)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    ray.init(address="local", num_cpus=RAY_CPUS, object_store_memory=RAY_OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level=logging.ERROR, log_to_driver=False,
             _temp_dir=temp_dir,
             _system_config={"num_workers_soft_limit": RAY_WORKERS_SOFT_LIMIT,
                             "memory_monitor_refresh_ms": 0})
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def start_ray() -> None:
    """``init_ray`` in the first temp dir where Ray starts."""
    dirs = ray_temp_dirs()
    for i, d in enumerate(dirs):
        try:
            init_ray(d)
            return
        except Exception:
            if i == len(dirs) - 1:
                raise
            traceback.print_exc()
            print(f"perfbench: Ray did not start in {d}; trying {dirs[i + 1]}",
                  file=sys.stderr)
            shutdown_ray()


def shutdown_ray() -> None:
    import ray

    ray.shutdown()
    shutil.rmtree(RAY_TMP, ignore_errors=True)


def median_or_nan(vals):
    return statistics.median(vals) if vals else float("nan")


def per_layer(run: Run, wl, canaries: list[float]) -> dict:
    tr = run.tr
    from perfbench.workloads import LAYERS, PER_LAYER

    acc = {tid: tr.accounting(tid) for tid in run.traced_ids}
    residual = median_or_nan([a["residual"] for a in acc.values()])
    hashes = tr.per_trace("hashing.hash64")
    derived = {
        "udaf.fold_s": tr.median("udaf.fold", inclusive=True),
        "ray.warmup_s": tr.median("ray.warmup", inclusive=True),
        "hashing.hashes_per_s": median_or_nan(
            [tr.counters[t]["hashing.hashes"] / s for t, s in hashes.items() if s > 0])
        if hashes else 0.0,
        "trace.op_s_p50": median_or_nan(run.traced_walls),
        "trace.overhead_s": median_or_nan(run.traced_walls) - median_or_nan(run.walls),
        "trace.unaccounted_share": max((a["unaccounted"] for a in acc.values()),
                                       default=float("nan")),
        "host.canary_s": statistics.median(canaries),
    }
    for layer in LAYERS:
        derived[f"{layer}.calls"], derived[f"{layer}.failed"] = tr.layer_calls(layer)
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            v = derived[name]
        elif name.endswith("_overhead_s") or name.endswith(".residual_s"):
            v = residual if name == wl.residual_metric else 0.0
        elif name.endswith("_s"):
            v = tr.median(name[:-2])
        else:
            v = tr.counter_median(name)
        out[name] = {"value": v, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # Ray workers import the program by module path: they see the
    # checkout only through PYTHONPATH set before ray.init
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.tracing import Tracer
        from perfbench.workloads import SCALES, WORKLOADS
    except ImportError:
        traceback.print_exc()
        print("perfbench: cannot import the program from the checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    cache_dir = str(BENCH_DIR / ".cache")
    os.makedirs(cache_dir, exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    # any integer seeds the inputs; numpy takes non-negative seeds only
    wl = WORKLOADS[args.workload](SCALES[args.scale], args.seed % 2 ** 63, cache_dir, tracer)
    wl.prepare()

    run = Run(wl, tracer, bool(args.trace))
    canaries = [canary_s()]
    branch: dict = {}
    try:
        run.setup(import_s)
        if not run.hung:
            run.loop(args.seconds)
        if args.trace and not run.hung:
            with tracer.trace("probe"):
                probe, err = call_with_timeout(wl.probe, OP_TIMEOUT_S)
            branch = probe or {"error": err}
    finally:
        shutdown_ray()
        wl.cleanup()
    canaries.append(canary_s())

    summary = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
               "samples": len(run.walls), "op_s": run.walls, "setup_s": run.setup_s,
               "errors": run.errors[:5]}
    if args.trace:
        out_dir = BENCH_DIR / ".out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-s{args.seed}.json"
        summary.update(branch=branch, traced_samples=len(run.traced_walls),
                       trace_file=str(path.relative_to(ROOT)),
                       accounting={t: tracer.accounting(t) for t in run.traced_ids})
        tracer.dump(str(path), {"summary": summary})
        metrics = per_layer(run, wl, canaries)
    else:
        metrics = {
            "seq_per_s": {"value": wl.units_per_op * run.passed / sum(run.walls)
                          if run.walls else float("nan"), "unit": "seq/s"},
            "op_s_p50": {"value": median_or_nan(run.walls), "unit": "s"},
            "setup_s": {"value": median_or_nan(run.setup_s), "unit": "s"},
            "rss_mb_max": {"value": max(run.rss_mb, default=float("nan")), "unit": "MB"},
        }
    print(json.dumps({"host": {**host_record(), "canary_s": canaries}}))
    print(json.dumps(summary))
    for m in metrics.values():  # no op finished: no number, not a NaN token
        if m["value"] != m["value"]:
            m["value"] = None
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
