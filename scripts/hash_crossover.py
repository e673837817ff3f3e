"""Time ``hash64``'s two Arrow string paths over batch sizes, to place
``hashing.ARROW_KERNEL_MIN_ROWS``.

    python scripts/hash_crossover.py [ROWS ...]

Two column shapes: ``ids``, unique 16-byte ids (``doc-`` + 12 digits,
as ``schema.generate_tokens_table`` writes them), and ``category``, an
8-value column drawn from ``schema.SOURCES`` (5 distinct byte lengths).
For each size it times the vectorized kernel (``_hash_arrow_strings``)
and pandas' C SipHash over the column's object array (what ``hash64``
sends below the constant), asserts the two hashes are equal, and prints
the median of several runs. The last lines give, per shape, the
smallest size from which the kernel wins at every larger size tried.
Default sizes run from 313 rows (one benchmark shard) to 62 500 (one
batch of a 4M-row table). Run from the repo root with ``PYTHONPATH=.``.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa

from miller_ray import hashing
from miller_ray.schema import SOURCES

SIZES = [313, 1000, 2000, 4000, 8000, 12_000, 16_000, 24_000, 32_000, 62_500]


def column(shape: str, rows: int, rng) -> pa.Array:
    if shape == "ids":
        ids = rng.choice(10**12, size=rows, replace=False)
        return pa.array(np.char.add("doc-", np.char.zfill(ids.astype(str), 12)).tolist())
    return pa.array(np.array(SOURCES)[rng.integers(0, len(SOURCES), rows)].tolist())


def pandas_path(arr: pa.Array) -> np.ndarray:
    return pd.util.hash_array(arr.to_numpy(zero_copy_only=False),
                              hash_key=hashing._HASH_KEY, categorize=False)


def median_s(fn, arr: pa.Array) -> float:
    reps = max(5, min(200, 200_000 // len(arr)))
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(arr)
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def main(argv: list[str]) -> None:
    sizes = [int(a) for a in argv] or SIZES
    rng = np.random.default_rng(1)
    for shape in ("ids", "category"):
        kernel_from = None
        for rows in sorted(sizes):
            arr = column(shape, rows, rng)
            kern = hashing._hash_arrow_strings(arr)
            assert kern is not None and (kern == pandas_path(arr)).all(), (shape, rows)
            k_s = median_s(hashing._hash_arrow_strings, arr)
            p_s = median_s(pandas_path, arr)
            if k_s >= p_s:
                kernel_from = None
            elif kernel_from is None:
                kernel_from = rows
            print(f"{shape} {rows} rows: kernel {k_s * 1e3:.3f} ms, "
                  f"pandas {p_s * 1e3:.3f} ms, pandas/kernel {p_s / k_s:.2f}", flush=True)
        print(f"{shape}: kernel faster at every size from "
              + (f"{kernel_from} rows" if kernel_from else "none tried"), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
