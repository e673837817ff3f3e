"""Time ``merge_keyed``'s two branches on synthetic partial sets of
growing size, forcing each branch through ``KEYED_FOLD_BYTES``.

    python scripts/keyed_fold_crossover.py sum|sketch MIB [MIB ...]
    python scripts/keyed_fold_crossover.py --driver-only sum 64

``sum``: 64 blocks of (k, n) int64 partials folded by
``aggregate_by(["k"], "sum")``, each key in about 4 partials.
``sketch``: 64 blocks of per-(block, group) HLL p=14 + KLL k=200 blob
rows (2000 values each) folded by the grouped build's ``_merge_fn``.
Each line gives the median wall time of the fold plus reading its
result to pandas on the driver; ``--driver-only`` times only the driver
branch, in a fresh process, with the driver's peak RSS before and after.
Run from the repo root with ``PYTHONPATH=.``.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

import miller_ray.engine.merge as M
from miller_ray.engine.udaf import SketchSpec, _merge_fn, _partial_fn, built_specs
from miller_ray.sketches import KLL, HyperLogLog

NBLK = 64


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sum_parts(rng, mib: int):
    rows = (mib << 20) // 16 // NBLK
    groups = max(1, rows * NBLK // 4)
    tabs = [pa.table({"k": rng.integers(0, groups, rows),
                      "n": rng.integers(1, 100, rows)}) for _ in range(NBLK)]
    return tabs, M.aggregate_by(["k"], "sum")


def sketch_parts(rng, mib: int):
    specs = built_specs([SketchSpec.column("hll", lambda: HyperLogLog(p=14), "v"),
                         SketchSpec.column("kll", lambda: KLL(k=200), "v")])
    build = _partial_fn(specs, ["k"])
    probe = build(pa.table({"k": np.zeros(2000, np.int64),
                            "v": rng.integers(0, 1 << 40, 2000)}))
    rows = max(1, (mib << 20) // probe.nbytes // NBLK)
    groups = max(1, rows * NBLK // 4)
    tabs = []
    for _ in range(NBLK):
        keys = np.repeat(rng.integers(0, groups, rows), 2000)
        tabs.append(build(pa.table({"k": keys,
                                    "v": rng.integers(0, 1 << 40, keys.size)})))
    return tabs, _merge_fn(specs, ["k"])


def main(argv: list[str]) -> None:
    driver_only = argv[:1] == ["--driver-only"]
    if driver_only:
        argv = argv[1:]
    kind, sizes = argv[0], [int(a) for a in argv[1:]]
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    rng = np.random.default_rng(1)
    branches = [("driver", 1 << 62, 3)] + ([] if driver_only else
                                           [("distributed", 0, 2)])
    for mib in sizes:
        tabs, combine = (sum_parts if kind == "sum" else sketch_parts)(rng, mib)
        ds = rd.from_arrow(tabs)
        before = rss_mb()
        res = {}
        for branch, limit, reps in branches:
            M.KEYED_FOLD_BYTES = limit
            ts = []
            for _ in range(reps):
                t0 = time.perf_counter()
                out = M.merge_keyed(ds, ["k"], combine).to_pandas()
                ts.append(time.perf_counter() - t0)
            res[branch] = (statistics.median(ts), len(out))
        assert len({n for _, n in res.values()}) == 1, res
        print(f"{kind} {sum(t.nbytes for t in tabs) / 2**20:.1f} MiB, "
              f"{tabs[0].num_rows} rows/block, {res['driver'][1]} groups: "
              + ", ".join(f"{b} {s:.2f} s" for b, (s, _) in res.items())
              + (f", peak rss {before:.0f} -> {rss_mb():.0f} MB"
                 if driver_only else ""), flush=True)
        del tabs, ds
    ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1:])
