"""Mergeable-sketch UDAF harness over ray.data.Dataset.

The north-rule execution shape (BASELINE.json): per-block partial
sketches built inside ``map_batches`` over zero-copy Arrow batches, then
a tree merge over KB-sized serialized partials — the wide all-to-all
shuffle a naive ``groupby`` would do never happens; only sketch blobs
move.

- Global sketches: ``build_sketches`` -> one partial row per block ->
  ``_tree_merge`` (map_batches merge levels while the partial count is
  large, driver fold at the tip). At 10^12 rows / ~1M blocks the tree is
  2 levels; partial blobs are ~16 KB (HLL p=14) so no stage ever holds
  more than ``merge_fanin`` blobs in memory.
- Grouped sketches: ``build_grouped_sketches`` -> per-(block, group)
  partial rows -> two-level salted merge: ``groupby(keys + salt)`` then
  ``groupby(keys)``. A hot key (one ``source`` = 90% of rows, FIXTURES
  F1) is absorbed at the partial stage (one row per block regardless of
  row skew) and its merge fan-in is split across ``n_salts`` reducers.

Builders are plain functions (stateless Ray tasks -> elastic, fusable).
For expensive per-actor setup (shared broadcast state) pass an actor
class via map_batches directly — see stages/ for examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from miller_ray.hashing import hash64


@dataclass
class SketchSpec:
    """One sketch to build: name, factory, and the batch->values extractor.

    ``extract`` maps a pyarrow Table batch to the value vector fed to
    ``sketch.update_batch`` (e.g. a column, or the flattened values of a
    list column via ``pa.ListArray.values`` — zero-copy).
    """

    name: str
    factory: Callable[[], Any]
    extract: Callable[[pa.Table], Any]
    update: Callable[[Any, pa.Table, dict], None] | None = None

    @staticmethod
    def custom(name: str, factory: Callable[[], Any],
               update: Callable[[Any, pa.Table, dict], None]) -> "SketchSpec":
        """Spec with a custom per-batch update hook ``update(sketch,
        batch, cache)`` — lets several sketches share one pass over the
        data via the per-batch cache (e.g. one token bincount feeding
        both CMS heavy-hitters and the value histogram)."""
        return SketchSpec(name, factory, lambda t, cache=None: None, update)

    @staticmethod
    def column(name: str, factory: Callable[[], Any], col: str) -> "SketchSpec":
        return SketchSpec(name, factory, lambda t, cache=None, c=col: t[c])

    @staticmethod
    def flat_list_column(name: str, factory: Callable[[], Any], col: str) -> "SketchSpec":
        """Feed the flattened values of a list<...> column (zero-copy).

        When several specs flatten the same column (CMS heavy-hitters +
        KLL over token values), the per-batch ``cache`` dict dedups the
        flatten — list columns are the dominant bytes in a tokens table,
        so flattening once halves the batch's memory traffic."""

        def ex(t: pa.Table, cache=None, c=col):
            key = ("flat", c)
            if cache is not None and key in cache:
                return cache[key]
            chunked = t[c]
            arrs = [chunk.flatten() for chunk in chunked.chunks]
            flat = pa.concat_arrays(arrs) if arrs else pa.array([], type=pa.int64())
            # hand sketches a numpy view at NATIVE width: every downstream
            # np.asarray is then a no-op instead of a fresh 10M-element copy
            out = flat.to_numpy(zero_copy_only=False)
            if cache is not None:
                cache[key] = out
            return out

        return SketchSpec(name, factory, ex)


def apply_spec(sk, spec: "SketchSpec", t: pa.Table, cache: dict) -> None:
    """Feed one batch into one sketch, honoring custom update hooks."""
    if spec.update is not None:
        spec.update(sk, t, cache)
        return
    try:
        vals = spec.extract(t, cache)
    except TypeError:  # user-supplied extract without cache param
        vals = spec.extract(t)
    sk.update_batch(vals)


def _partial_fn(specs: list[SketchSpec]):
    def build(t: pa.Table) -> pa.Table:
        row: dict[str, list] = {}
        cache: dict = {}
        for spec in specs:
            sk = spec.factory()
            apply_spec(sk, spec, t, cache)
            row[spec.name] = [sk.to_bytes()]
        return pa.table(row)

    return build


def _merge_fn(specs: list[SketchSpec]):
    classes = {s.name: type(s.factory()) for s in specs}

    def merge(t: pa.Table) -> pa.Table:
        row = {}
        for name, cls in classes.items():
            blobs = t[name].to_pylist()
            acc = cls.from_bytes(blobs[0])
            for b in blobs[1:]:
                acc.merge(cls.from_bytes(b))
            row[name] = [acc.to_bytes()]
        return pa.table(row)

    return merge


def build_sketches(ds, specs: list[SketchSpec], batch_size: int | None = None,
                   merge_fanin: int = 16) -> dict[str, Any]:
    """Build all specs in ONE pass over ds; returns {name: merged sketch}."""
    parts = ds.map_batches(_partial_fn(specs), batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size)
    merge = _merge_fn(specs)
    # Plan the merge-tree depth from the PRE-execution block-count
    # estimate (one partial row per input block) so the whole
    # build -> tree-merge -> take_all chain runs as a SINGLE streaming
    # execution — a materialize()+count() round trip here costs a full
    # extra executor startup (~0.2-0.4 s of serial driver time per
    # build, the dominant fixed cost after the round-5 kernel work).
    # The estimate only plans LEVEL COUNT; correctness never depends on
    # it: if Ray splits blocks beyond the estimate, the driver fold
    # below simply merges a longer (still KB-sized) tail of partials.
    try:
        n_est = int(ds._plan.initial_num_blocks() or 0)
    except Exception:  # plan API unavailable -> single level + fold
        n_est = 0
    if n_est <= 0:
        # no usable estimate: materialize once and count exactly
        parts = parts.materialize()
        n_est = parts.count()
    # Tree-merge levels chain LAZILY: each map_batches(batch_size=
    # merge_fanin) bundles ~merge_fanin single-row partial blocks per
    # merge task, and only the final take_all() executes the whole
    # chain — a materialize()+count() round-trip per level would cost
    # one full execution each.
    while n_est > merge_fanin:
        parts = parts.map_batches(
            merge, batch_format="pyarrow", batch_size=merge_fanin)
        n_est = -(-n_est // merge_fanin)
    rows = parts.take_all()
    out: dict[str, Any] = {}
    for spec in specs:
        if not rows:  # empty input -> fresh (zero) sketches
            out[spec.name] = spec.factory()
            continue
        cls = type(spec.factory())
        acc = cls.from_bytes(rows[0][spec.name])
        for r in rows[1:]:
            acc.merge(cls.from_bytes(r[spec.name]))
        out[spec.name] = acc
    return out


def build_grouped_sketches(ds, group_by: list[str], specs: list[SketchSpec],
                           batch_size: int | None = None,
                           n_salts: int = 16) -> pd.DataFrame:
    """Per-group sketches with two-level salted merge.

    Returns a pandas DataFrame: group_by columns + one column per spec
    holding the merged sketch OBJECT for that group (callers compute
    estimates). Partial rows are one per (block, group); the salt splits
    each group's merge fan-in across ``n_salts`` reducers before the
    final per-group merge, so a hot group does not serialize on one
    reducer (SURVEY.md §4 skew row).
    """

    def build(t: pa.Table) -> pa.Table:
        df_keys = t.select(group_by).to_pandas()
        # group row-indices by key within the batch (vectorized factorize)
        codes, key_rows = pd.factorize(
            pd.MultiIndex.from_frame(df_keys) if len(group_by) > 1 else df_keys[group_by[0]],
            sort=False)
        out_cols: dict[str, list] = {k: [] for k in group_by}
        out_cols.update({s.name: [] for s in specs})
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order], np.arange(len(key_rows)))
        bounds = np.append(bounds, codes.size)
        for gi in range(len(key_rows)):
            rows = order[bounds[gi] : bounds[gi + 1]]
            sub = t.take(pa.array(rows))
            kv = key_rows[gi]
            if len(group_by) == 1:
                out_cols[group_by[0]].append(kv)
            else:
                for k, v in zip(group_by, kv):
                    out_cols[k].append(v)
            sub_cache: dict = {}
            for spec in specs:
                sk = spec.factory()
                apply_spec(sk, spec, sub, sub_cache)
                out_cols[spec.name].append(sk.to_bytes())
        # deterministic salt from the first blob's content
        first = specs[0].name
        salts = [int(hash64(np.array([b[:64]], dtype=object))[0]
                     % np.uint64(n_salts))
                 for b in out_cols[first]]
        out_cols["__salt"] = salts
        return pa.table(out_cols)

    parts = ds.map_batches(build, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size).materialize()

    classes = {s.name: type(s.factory()) for s in specs}

    # Small fan-in: fold the KB-sized partials on the driver — two Ray
    # shuffle stages on a few hundred blob rows is pure fixed overhead.
    # The salted two-level distributed merge below is the scale path
    # (millions of partials / thousands of groups).
    if parts.count() <= 5000:
        pdf = parts.to_pandas()
        rows = []
        # dropna=False: null group keys are groups too (matches the
        # distributed salted path and verbs.count's driver fold)
        for key_vals, grp in pdf.groupby(group_by, sort=False, dropna=False):
            if len(group_by) == 1:
                key_vals = (key_vals,) if not isinstance(key_vals, tuple) else key_vals
            row = dict(zip(group_by, key_vals))
            for name, cls in classes.items():
                acc = cls.from_bytes(grp[name].iloc[0])
                for b in grp[name].iloc[1:]:
                    acc.merge(cls.from_bytes(b))
                row[name] = acc
            rows.append(row)
        return pd.DataFrame(rows)

    def merge_group(df: pd.DataFrame) -> pd.DataFrame:
        row = {k: [df[k].iloc[0]] for k in group_by}
        if "__salt" in df.columns:
            row["__salt"] = [df["__salt"].iloc[0]]
        for name, cls in classes.items():
            acc = cls.from_bytes(df[name].iloc[0])
            for b in df[name].iloc[1:]:
                acc.merge(cls.from_bytes(b))
            row[name] = [acc.to_bytes()]
        return pd.DataFrame(row)

    # level 1: (key, salt) -> level 2: key
    lvl1 = parts.groupby(group_by + ["__salt"]).map_groups(merge_group, batch_format="pandas")
    lvl1 = lvl1.drop_columns(["__salt"])

    def merge_final(df: pd.DataFrame) -> pd.DataFrame:
        return merge_group(df)

    lvl2 = lvl1.groupby(group_by).map_groups(merge_final, batch_format="pandas")
    pdf = lvl2.to_pandas()
    for name, cls in classes.items():
        pdf[name] = pdf[name].map(cls.from_bytes)
    return pdf.reset_index(drop=True)
