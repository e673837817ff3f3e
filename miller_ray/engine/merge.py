"""Size-planned merges of per-block partials: the two folds behind every
accumulating verb and every sketch build.

A *partial* is what one block's map task emits: a local top-k frame, a
row of sketch blobs, per-group counts. ``combine`` is *closed*: it
reduces ANY subset of partials to a partial of the same schema (a local
top-k of top-ks is a top-k; a merge of sketch merges is a sketch
merge), so a merge may cut the partials anywhere. Both folds plan from
measurements, not from per-call flags (Approximate Distinct Counts for
Billions of Datasets, SIGMOD 2019, plans its merges the same way).

- ``merge_partials``: partials bounded per block (one sketch row, nbins
  histogram rows). It plans the tree from how many partials there are:
  while more than ``MERGE_FANIN`` remain it adds one combine level of
  ``ceil(n / MERGE_FANIN)`` tasks, then gathers the ≤ ``MERGE_FANIN``
  combined partials left on the driver, where the caller applies its
  final reduce once (``combine`` itself, or the same fold without
  re-serializing, as ``build_sketches`` does). As far as the estimate
  holds, the driver thus folds at most ``MERGE_FANIN`` partials
  whatever the input block count (1e6 blocks -> 4 levels), and an input
  of ≤ ``MERGE_FANIN`` blocks pays no repartition at all. The levels
  are lazy: build, levels and the driver's gather run as ONE execution
  (a ``materialize()`` first would cost a second executor start on
  every call).
- ``merge_keyed``: partials that carry group keys, whose count grows
  with the number of groups (``count -g``, ``stats1``'s moments and its
  (group, value) count table for percentiles and modes, grouped
  sketches, the checkpointed per-file fold, the ends verbs). ``combine`` is also group-wise: a key's
  output rows depend only on that key's input rows. The partials run
  once; their measured bytes choose the branch. Up to
  ``KEYED_FOLD_BYTES`` they are folded by one ``combine`` on the
  driver. Above it they stay distributed: a salted two-level keyed
  merge, each level one ``bucket_apply``, where a hot key's partials
  first spread over ``MERGE_FANIN`` salts.

``bucket_apply`` is the package's keyed shuffle: one hash exchange on
plain Ray tasks that co-partitions any number of inputs by the same key
hash and calls a group-wise function once per bucket. The keyed folds,
the shuffle join, ``join -s``, exact dedup's semi-join and the
mixed-type percentiles all run on it.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from miller_ray.hashing import hash64, splitmix64

MERGE_FANIN = 16
# measured partial bytes above which a keyed fold stays distributed. On
# one CPU the driver fold beat the distributed merge at every size tried
# (sums and sketch merges, 1-256 MiB), so this caps the driver's memory,
# which peaks near 3x the partial bytes, rather than marking a crossover
KEYED_FOLD_BYTES = 64 << 20

log = logging.getLogger("miller_ray")

_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)


def estimated_blocks(ds) -> int | None:
    """Pre-execution block-count estimate of ``ds``'s plan, or None when
    the plan gives none. The package's one read of Ray's private
    ``_plan``; it plans only the merge depth, never the answer."""
    try:
        n = int(ds._plan.initial_num_blocks() or 0)
    except AttributeError:  # plan API gone from this Ray version
        return None
    return n if n > 0 else None


def block_refs(ds) -> tuple[list, int]:
    """Run ``ds`` once, streaming, and return its block refs in block
    order with the sum of their measured ``size_bytes``. The package's
    one read of Ray's ``iter_internal_ref_bundles``; holding the refs
    keeps the blocks alive without a ``materialize()``."""
    refs, nbytes = [], 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            nbytes += meta.size_bytes or 0
    return refs, nbytes


def merge_partials(parts, combine: Callable, batch_format: str = "pyarrow"):
    """Merge the partial rows of Dataset ``parts`` with ``combine`` (a
    ``batch_format`` batch -> batch of the same schema) down to at most
    ``MERGE_FANIN`` partials, and return them concatenated on the driver
    as one ``batch_format`` table (empty, without columns, when
    ``parts`` holds no rows) for the caller's final reduce.

    Without a block estimate the partials are materialized once and
    their measured block count plans the levels. Logs one
    ``merge_partials:`` line at DEBUG after the fold: the plan, and the
    partial rows that reached the driver as ``partials``.
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
    batches = [b for b in parts.iter_batches(batch_size=None,
                                             batch_format=batch_format)
               if len(b)]
    log.debug("merge_partials: estimated_blocks=%d levels=%d fallback=%s "
              "partials=%d branch=%s", est, levels, fallback,
              sum(map(len, batches)),
              f"{levels} merge levels, then driver fold" if levels
              else "driver fold")
    if batch_format == "pandas":
        return pd.concat(batches, ignore_index=True) if batches else pd.DataFrame()
    return pa.concat_tables(batches, promote_options="permissive") \
        if batches else pa.table({})


def distinct_values(ds, column: str, values: Callable = lambda col: col) -> list:
    """The sorted distinct non-null values of ``values(col)`` over the
    ``column`` of every block of ``ds`` (default: the column itself).
    Each block emits its ``pc.unique``, and ``merge_partials`` folds
    them with ``pc.unique`` as the closed combine."""

    def unique(t: pa.Table) -> pa.Table:
        return pa.table({"v": pc.unique(t["v"])})

    parts = ds.select_columns([column]).map_batches(
        lambda t: unique(pa.table({"v": values(t[column])})),
        batch_format="pyarrow")
    left = merge_partials(parts, unique)
    return sorted(unique(left)["v"].drop_null().to_pylist()) if left.num_rows else []


def key_hash(t: pa.Table, cols: list[str]) -> np.ndarray:
    """A uint64 per row of ``t`` over columns ``cols``. Equal keys hash
    equal whatever Arrow type a block gave them: numbers hash by their
    float64 value (an int key is read as float in a pandas block with
    nulls), and every null or NaN hashes alike (an all-null block types
    its key column ``null``)."""
    h = np.zeros(t.num_rows, dtype=np.uint64)
    for c in cols:
        a = t[c].combine_chunks()
        if pa.types.is_dictionary(a.type):
            a = a.dictionary_decode()
        if pa.types.is_null(a.type) or pa.types.is_boolean(a.type) or \
                pa.types.is_integer(a.type) or pa.types.is_floating(a.type):
            x = pc.cast(a, pa.float64(), safe=False).to_numpy(
                zero_copy_only=False) + 0.0
            hc, null = splitmix64(x.view(np.uint64)), np.isnan(x)
        else:
            hc = hash64(a)
            null = pc.is_null(a).to_numpy(zero_copy_only=False)
        hc[null] = _NULL_HASH
        h = splitmix64(h ^ hc)
    return h


def row_salts(t: pa.Table) -> np.ndarray:
    """Salt in [0, ``MERGE_FANIN``) per partial row, hashed from the
    row's whole content: one hot key's partials from different blocks
    differ, so they spread over the salts instead of one reducer."""
    return (key_hash(t, t.column_names) % np.uint64(MERGE_FANIN)).astype(np.int64)


def _salted(block) -> pa.Table:
    """``block`` as an Arrow table with its ``row_salts`` appended as
    ``__salt``; a plain task, so an empty block keeps its columns."""
    t = block if isinstance(block, pa.Table) else \
        pa.Table.from_pandas(block, preserve_index=False)
    return t.append_column("__salt", pa.array(row_salts(t)))


def _split(block, keys: list[str], nb: int) -> list:
    """``block``'s rows cut into ``nb`` pieces by ``key_hash(keys) % nb``,
    with one ``take``. An empty block (which may carry no columns) is
    its own empty piece for every bucket."""
    if not len(block):
        return [block] * nb
    kt = block if isinstance(block, pa.Table) else \
        pa.Table.from_pandas(block[keys], preserve_index=False)
    bkt = key_hash(kt, keys) % np.uint64(nb)
    order = np.argsort(bkt, kind="stable")
    cuts = np.searchsorted(bkt[order], np.arange(nb + 1, dtype=np.uint64)).tolist()
    rows = block.take(order)
    return [rows[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _batch(pieces: list, batch_format: str):
    """One input's pieces of a bucket as one ``batch_format`` batch.
    Arrow pieces concatenate to the union of their schemas (an all-null
    block types a column ``null``; an empty one may have no columns)."""
    if all(isinstance(p, pa.Table) for p in pieces):
        t = pa.concat_tables(pieces, promote_options="permissive") \
            if pieces else pa.table({})
        return t.to_pandas() if batch_format == "pandas" else t
    dfs = [p if isinstance(p, pd.DataFrame) else p.to_pandas() for p in pieces]
    df = pd.concat([d for d in dfs if len(d)] or dfs[:1], ignore_index=True)
    return df if batch_format == "pandas" else \
        pa.Table.from_pandas(df, preserve_index=False)


def _reduce(fn: Callable, batch_format: str, sizes: list[int], *pieces):
    """One bucket: ``fn`` over one batch per input (``sizes`` counts
    each input's pieces), and its row count. A bucket without rows
    skips ``fn`` and yields an empty batch."""
    batches, i = [], 0
    for n in sizes:
        batches.append(_batch(list(pieces[i:i + n]), batch_format))
        i += n
    out = fn(*batches) if any(len(b) for b in batches) else batches[0]
    return out, len(out)


def bucket_apply(inputs: list, keys: list[str], fn: Callable,
                 batch_format: str = "pyarrow"):
    """Apply the group-wise ``fn`` to the Datasets ``inputs`` with every
    key's rows together, and return its outputs as a Dataset.

    One hash exchange on Ray tasks, 2 × CPUs buckets: each input runs
    once (``block_refs``); one task per block orders its rows by bucket
    = ``key_hash(keys)`` mod buckets and returns one piece per bucket;
    one task per bucket then calls ``fn`` once, with one
    ``batch_format`` batch per input holding that bucket's rows of it
    (possibly none, but never none in all). The inputs share the hash,
    so they are co-partitioned: a key's rows from every input meet in
    one call, as a join needs. Buckets whose output has no rows are
    left out of the result, so an empty output's schema never clashes
    with the others'. The number of tasks grows with blocks and CPUs,
    never with distinct keys, and nothing sorts the keys, so null keys
    are keys like any other."""
    import ray
    import ray.data as rd

    nb = max(2, 2 * int(ray.cluster_resources().get("CPU", 1)))
    split = ray.remote(_split).options(num_returns=nb)
    pieces = [[split.remote(ref, keys, nb) for ref in block_refs(ds)[0]]
              for ds in inputs]
    reduce, fn_ref = ray.remote(_reduce).options(num_returns=2), ray.put(fn)
    sizes = [len(p) for p in pieces]
    outs = [reduce.remote(fn_ref, batch_format, sizes,
                          *(blk[b] for p in pieces for blk in p))
            for b in range(nb)]
    rows = ray.get([n for _, n in outs])
    return rd.from_arrow_refs([o for (o, _), n in zip(outs, rows) if n]
                              or [outs[0][0]])


def merge_keyed(parts, keys: list[str], combine: Callable):
    """Fold the keyed partial rows of Dataset ``parts`` with the closed,
    group-wise pyarrow ``combine``.

    The partials run once; their blocks' measured bytes pick the branch:
    - ≤ ``KEYED_FOLD_BYTES``: one ``combine`` over all of them on the
      driver; returns that ``pa.Table`` (with no rows when ``parts``
      has none);
    - above: returns a Dataset over the blocks already held. Level 1
      buckets rows by (keys, ``row_salts``) and combines each bucket, so
      a hot key's partials merge in up to ``MERGE_FANIN`` places; level
      2 buckets by keys and combines each key's level-1 rows into its
      final rows.
    """
    import ray
    import ray.data as rd

    refs, nbytes = block_refs(parts)
    driver = nbytes <= KEYED_FOLD_BYTES
    log.debug("merge_keyed: partial_blocks=%d bytes=%d branch=%s", len(refs),
              nbytes, "driver fold" if driver else "salted two-level merge")
    if driver:
        blocks = [b if isinstance(b, pa.Table) else
                  pa.Table.from_pandas(b, preserve_index=False)
                  for b in ray.get(refs)]
        full = [b for b in blocks if b.num_rows]
        if not full:
            return blocks[0] if blocks else pa.table({})
        return combine(pa.concat_tables(full, promote_options="permissive"))

    salted = rd.from_arrow_refs([ray.remote(_salted).remote(r) for r in refs])
    lvl1 = bucket_apply([salted], [*keys, "__salt"],
                        lambda t: combine(t.drop_columns(["__salt"])))
    return bucket_apply([lvl1], keys, combine)


def pandas_combine(fn: Callable[[pd.DataFrame], pd.DataFrame]):
    """The closed pyarrow combine that runs the pandas frame function
    ``fn``: its output keeps the input's schema, which pandas alone
    would not (an all-null key column comes back as floats)."""

    def combine(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(fn(t.to_pandas()), schema=t.schema,
                                    preserve_index=False)

    return combine


def aggregate_by(keys: list[str], how="sum") -> Callable[[pa.Table], pa.Table]:
    """Closed combine of partials that merge column-wise: one row per
    key (a null key is a group), every other column folded by the
    pandas aggregation ``how``: a name (``"sum"``, ``"max"``; nulls are
    skipped, and a sum over none is 0), a function, or a {column: name}
    dict. It runs in pandas because pyarrow 16's multi-key ``group_by``
    splits one null-keyed group into several."""
    return pandas_combine(lambda df: df.groupby(
        keys, sort=False, dropna=False).agg(how).reset_index())
