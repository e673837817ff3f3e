"""Ordered scan: the execution shape of Miller's stream-order verbs.

``step``, ``fill-down``, ``stats1 -w``, ``step slwin``, ``decimate -b/-e``,
sort-path ``rank``, ``tail``, ``fraction -c`` and the exact percentiles
of value counts too large for the driver carry per-group state across
records in stream order (SURVEY.md §2.3); ``tail`` keeps the input's
block order, the others sort it first. Distributed, the stream is one
global sort by (group..., order); each sorted block then needs only a
small CARRY describing the blocks around it, so a hot group spanning
many blocks still runs in parallel and no per-group reducer exists.
Per-task memory is one block plus its carry; the driver only chains
O(blocks) small summaries.

Every sort of a Dataset in the package is ``sort_nulls_last``: null
keys sort last in either direction, as Miller emits records missing the
sort key last (sort.go). Every read of Parquet shard files by the
engine and the pipelines is ``read_shards``.
"""

from __future__ import annotations

import functools
import operator
import os
from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from miller_ray.engine.merge import block_refs, log


def read_shards(paths: list[str], batch_rows: int, include_paths: bool = False):
    """A Dataset over the Parquet shard files ``paths``: the one shard
    reader of ``read_tokens`` and ``checkpointed_build``.

    - Each file is read in runs of ``batch_rows`` rows that cross its
      row groups, and a read task packs consecutive runs into one table
      while they fit ``batch_rows`` rows and share a schema. So a file
      of at most ``batch_rows`` rows is never split, and small files
      share a table: in a ``map_batches(batch_size=None)`` fused into
      the read task, one partial-sketch blob covers up to ``batch_rows``
      rows however small the shards. A build's cost grows with its
      partials, each packed, shipped and merged (measured: Ray's
      ``read_parquet``, a table per row group, gave 448 partials and
      ~8 s of merge at 2 CPUs on a 4M-row table, against <1 s at one
      partial per shard; packing 64 shards of 312 rows into 3125-row
      tables took ``sketch_summary`` from 0.53-0.57 s to 0.32-0.35 s at
      1 Ray CPU on a 4-vCPU host).
    - A keyed build (the checkpoint's, by ``path``) slices each file's
      run out of its table, so per-file blobs do not depend on the
      packing. The global KLL and t-digest bytes do, as their merges
      are order-sensitive, and so on how files split into read tasks,
      i.e. on the Ray CPU count; their answers stay within the
      sketches' rank error (all that perfbench checks of them). HLL,
      Bloom and histogram bytes do not depend on it.
    - Read tasks are capped at the schedulable CPU count: each task
      then reads several shard files in turn, so a single wave of tasks
      covers the input instead of paying dispatch per file (measured
      0.9 s -> ~0.4 s on a 64-shard tokens table, with 5.4 s of useful
      remote time either way). More tasks than cores adds dispatch, not
      parallelism; fewer files than cores keeps one task per file.
    - Local paths go through the mmap filesystem: uncompressed PLAIN
      pages decode straight off page-cache mappings instead of buffered
      read copies (measured 1.4x single-thread scan throughput through
      the same pyarrow Parquet reader).

    ``include_paths`` adds each row's file as column ``path``, the very
    string given in ``paths``. Logs one ``read_shards:`` line at DEBUG.
    """
    import ray
    import ray.data as rd
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    class Shards(Datasource):
        def estimate_inmemory_data_size(self):
            return None

        def get_read_tasks(self, parallelism: int) -> list:
            parts = [[paths[i] for i in part] for part in
                     np.array_split(np.arange(len(paths)), parallelism) if part.size]
            return [ReadTask(functools.partial(_read_files, files, batch_rows, include_paths),
                             BlockMetadata(num_rows=None, size_bytes=None,
                                           input_files=files, exec_stats=None))
                    for files in parts]

    cpus = int(ray.cluster_resources().get("CPU", os.cpu_count() or 8)) \
        if ray.is_initialized() else (os.cpu_count() or 8)
    tasks = max(1, min(len(paths), cpus))
    log.debug("read_shards: files=%d read_tasks=%d batch_rows=%d",
              len(paths), tasks, batch_rows)
    return rd.read_datasource(Shards(), override_num_blocks=tasks)


def _read_files(files: list[str], batch_rows: int, include_paths: bool):
    """``read_shards``' read task: each file's rows in runs of up to
    ``batch_rows``, consecutive runs packed into one table while they
    fit ``batch_rows`` rows and share a schema. A run is never split."""
    import pyarrow.fs as pafs
    import pyarrow.parquet as pq

    mmap = pafs.LocalFileSystem(use_mmap=True)
    pending: list[pa.Table] = []
    rows = 0
    for p in files:
        fs, path = pafs.FileSystem.from_uri(p) if "://" in p else (mmap, p)
        with fs.open_input_file(path) as f:
            # no decode threads: there is already one read task per CPU
            for b in pq.ParquetFile(f).iter_batches(batch_size=batch_rows,
                                                    use_threads=False):
                t = pa.Table.from_batches([b])
                if include_paths:
                    t = t.append_column("path", pa.array([p] * t.num_rows, pa.string()))
                if pending and (rows + t.num_rows > batch_rows
                                or not t.schema.equals(pending[0].schema)):
                    yield pa.concat_tables(pending)
                    pending, rows = [], 0
                pending.append(t)
                rows += t.num_rows
    if pending:
        yield pa.concat_tables(pending)


def _flagged_sort(ds, keys: list[str], descending: list[bool] | bool):
    """``ds`` sorted by ``keys`` with null keys last, and the names of
    the flag columns the sort leaves on it. Ray's sort places its block
    boundaries by comparing key values, and a null does not compare
    with a string, so an ascending ``is_null`` flag precedes each key:
    a boundary then never compares a null with a value. NaN counts as
    null."""
    desc = [descending] * len(keys) if isinstance(descending, bool) \
        else list(descending)
    flags = [f"__n_{k}" for k in keys]

    def flag(b):
        if isinstance(b, pa.Table):
            for f, k in zip(flags, keys):
                b = b.append_column(f, pc.is_null(b[k], nan_is_null=True))
            return b
        return b.assign(**{f: b[k].isna() for f, k in zip(flags, keys)})

    # the native block format: a pandas block stays pandas, so an
    # object column of mixed types never goes through Arrow
    flagged = ds.map_batches(flag, batch_format=None, batch_size=None)
    return flagged.sort([c for pair in zip(flags, keys) for c in pair],
                        descending=[x for d in desc for x in (False, d)]), flags


def sort_nulls_last(ds, keys: list[str], descending: list[bool] | bool = False):
    """``ds`` sorted by ``keys``, each ascending or, where ``descending``
    (one bool, or one per key) says so, descending; rows with a null
    key come last in either direction."""
    srt, flags = _flagged_sort(ds, keys, descending)
    return srt.drop_columns(flags)


def group_index(df: pd.DataFrame, keys: list[str]) -> dict[tuple, np.ndarray]:
    """Row positions of each group of ``df``, keyed by the group's key
    tuple; one group keyed ``()`` when ``keys`` is empty. Rows with a
    null key belong to no group (pandas ``groupby`` default)."""
    if not keys:
        return {(): np.arange(len(df))}
    return {k if isinstance(k, tuple) else (k,): idx
            for k, idx in df.groupby(keys, sort=False).indices.items()}


def running_carries(summaries: list[dict], fold: Callable) -> list[dict]:
    """Forward carries for per-group block summaries ``{key: summary}``:
    block i's carry maps each key it holds to the ``fold`` of that key's
    summaries in the blocks before i; a key first seen in block i is
    absent. ``fold(state, summary)`` returns the new state, which has
    the shape of a summary (the first summary is the initial state)."""
    state: dict = {}
    out = []
    for sm in summaries:
        out.append({k: state[k] for k in sm if k in state})
        for k, v in sm.items():
            state[k] = fold(state[k], v) if k in state else v
    return out


def running_totals(summaries: list[dict]) -> list[tuple[dict, dict]]:
    """Per block, the pair (the sums of its keys' summaries in the
    blocks before it, as ``running_carries`` gives them, and their sums
    over ALL blocks). In a sorted stream a block needs to name only its
    first and last group: the others lie wholly inside it."""
    totals: dict = {}
    for sm in summaries:
        for k, v in sm.items():
            totals[k] = totals[k] + v if k in totals else v
    return [(before, {k: totals[k] for k in sm}) for before, sm in zip(
        running_carries(summaries, operator.add), summaries)]


def ordered_scan(ds, sort_keys: list[str] | None,
                 summarize: Callable[[pd.DataFrame], Any],
                 carries: Callable[[list], list],
                 apply: Callable[[pd.DataFrame, Any], pd.DataFrame]):
    """Run a per-block computation whose blocks depend on each other
    only through small carries, in the order of ``sort_keys``:

    1. sort ``ds`` by ``sort_keys`` as ``sort_nulls_last`` does
       (``None``: keep its block order);
    2. ``summarize(df)`` in one task per block -> a small summary;
    3. ``carries(summaries)`` on the driver -> one carry per block, in
       block order (e.g. the running state of every earlier block);
    4. ``apply(df, carry)`` in one task per block -> the output frame.

    Blocks without rows are dropped before step 2, so ``summarize`` and
    ``apply`` always get a non-empty frame and ``carries`` one summary
    per such block. Returns a Dataset of the ``apply`` frames in block
    order."""
    import ray
    import ray.data as rd

    flags: list[str] = []
    if sort_keys is not None:
        ds, flags = _flagged_sort(ds, sort_keys, False)
    # raw blocks, not to_arrow_refs(): that converts pandas blocks
    # through Arrow, which retypes an all-NaN float column to null
    # (object dtype once back in pandas)
    refs, _ = block_refs(ds)

    def frame(block) -> pd.DataFrame:
        df = block if isinstance(block, pd.DataFrame) else block.to_pandas()
        return df.drop(columns=flags) if flags else df

    @ray.remote
    def _summarize(block) -> list:
        return [summarize(frame(block))] if len(block) else []

    @ray.remote
    def _apply(block, carry):
        return apply(frame(block), carry)

    summaries = ray.get([_summarize.remote(b) for b in refs])
    live = [(b, s[0]) for b, s in zip(refs, summaries) if s]
    cs = carries([s for _, s in live])
    return rd.from_pandas_refs(
        [_apply.remote(b, c) for (b, _), c in zip(live, cs, strict=True)])
