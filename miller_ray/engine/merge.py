"""Size-planned merge of per-block partials: the one fold behind every
accumulating verb (``top``, ``sample``, ``stats1 -a mode,antimode,
distinct_count``) and every global sketch build.

A *partial* is what one block's map task emits: a local top-k frame, a
row of sketch blobs, per-group mode candidates. ``combine`` reduces ANY
subset of partials to a partial of the same shape (a local top-k of
top-ks is a top-k; a merge of sketch merges is a sketch merge), so the
merge tree may cut the partials anywhere.

``merge_partials`` plans the tree from how many partials there are
(Approximate Distinct Counts for Billions of Datasets, SIGMOD 2019,
plans its merges the same way): while more than ``MERGE_FANIN`` remain
it adds one combine level of ``ceil(n / MERGE_FANIN)`` tasks, then
gathers the ≤ ``MERGE_FANIN`` combined partials left on the driver,
where the caller applies its final reduce once (``combine`` itself, or
the same fold without re-serializing, as ``build_sketches`` does). As
far as the estimate holds, the driver thus folds at most
``MERGE_FANIN`` partials whatever the input block count (1e6 blocks ->
4 levels), and an input of ≤ ``MERGE_FANIN`` blocks pays no
repartition at all. The levels are lazy: build, levels and the driver's
gather run as ONE execution (a ``materialize()`` first would cost a
second executor start on every call).
"""

from __future__ import annotations

import logging
from typing import Callable

import pandas as pd
import pyarrow as pa

MERGE_FANIN = 16

log = logging.getLogger("miller_ray")


def estimated_blocks(ds) -> int | None:
    """Pre-execution block-count estimate of ``ds``'s plan, or None when
    the plan gives none. The package's one read of Ray's private
    ``_plan``; it plans only the merge depth, never the answer."""
    try:
        n = int(ds._plan.initial_num_blocks() or 0)
    except AttributeError:  # plan API gone from this Ray version
        return None
    return n if n > 0 else None


def merge_partials(parts, combine: Callable, batch_format: str = "pyarrow"):
    """Merge the partial rows of Dataset ``parts`` with ``combine`` (a
    ``batch_format`` batch -> batch of the same schema) down to at most
    ``MERGE_FANIN`` partials, and return them concatenated on the driver
    as one ``batch_format`` table (empty, without columns, when
    ``parts`` holds no rows) for the caller's final reduce.

    Without a block estimate the partials are materialized once and
    their measured block count plans the levels.
    """
    est = estimated_blocks(parts)
    fallback = est is None
    if fallback:
        parts = parts.materialize()
        est = parts.num_blocks()
    n, levels = est, 0
    while n > MERGE_FANIN:
        n = -(-n // MERGE_FANIN)
        parts = parts.repartition(n).map_batches(
            combine, batch_format=batch_format, batch_size=None)
        levels += 1
    log.debug("merge_partials: estimated_blocks=%d levels=%d fallback=%s "
              "branch=%s", est, levels, fallback,
              f"{levels} merge levels, then driver fold" if levels
              else "driver fold")
    batches = [b for b in parts.iter_batches(batch_size=None,
                                             batch_format=batch_format)
               if len(b)]
    if batch_format == "pandas":
        return pd.concat(batches, ignore_index=True) if batches else pd.DataFrame()
    return pa.concat_tables(batches, promote_options="permissive") \
        if batches else pa.table({})
