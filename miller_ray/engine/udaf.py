"""Mergeable-sketch UDAF harness over ray.data.Dataset.

The north-rule execution shape (BASELINE.json): per-block partial
sketches built inside ``map_batches`` over zero-copy Arrow batches, then
a merge over KB-sized serialized partials — the wide all-to-all
shuffle a naive ``groupby`` would do never happens; only sketch blobs
move. Every blob fold goes through ``merge_blobs``.

- Global sketches: ``build_sketches`` -> one partial row per block ->
  ``engine.merge.merge_partials`` with ``_merge_fn`` as the combiner:
  merge levels of ``MERGE_FANIN``-way combines while the block estimate
  is large, then one ``merge_blobs`` fold on the driver, all in one
  execution.
  At 10^12 rows / ~1M blocks that is 4 levels; partial blobs are ~16 KB
  (HLL p=14), and a merge task holds about ``MERGE_FANIN`` of them.
- Grouped sketches: ``build_grouped_sketches`` -> per-(block, group)
  partial rows -> ``engine.merge.merge_keyed``: a driver fold while the
  partials measure small, else its salted two-level keyed merge. A hot
  key (one ``source`` = 90% of rows, FIXTURES F1) is absorbed at the
  partial stage (one row per block regardless of row skew) and its
  merge fan-in is split across salts.

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

from miller_ray.engine.merge import merge_keyed, merge_partials


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
    # name of the spec whose merged sketch this one returns (see alias)
    alias_of: str | None = None

    @staticmethod
    def custom(name: str, factory: Callable[[], Any],
               update: Callable[[Any, pa.Table, dict], None]) -> "SketchSpec":
        """Spec with a custom per-batch update hook ``update(sketch,
        batch, cache)`` — lets several sketches share one pass over the
        data via the per-batch cache (e.g. one doc_id hash pass feeding
        both the HyperLogLog and the Bloom filter)."""
        return SketchSpec(name, factory, lambda t, cache=None: None, update)

    @staticmethod
    def alias(name: str, of: str) -> "SketchSpec":
        """A second name for spec ``of``'s merged sketch, for a question
        that sketch already answers (the exact token histogram's top-k).
        The builders build nothing for it and return ``of``'s object."""
        return SketchSpec(name, EmptyPartial, lambda t, cache=None: None,
                          lambda sk, t, cache: None, of)

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


class EmptyPartial:
    """An alias spec's sketch: it holds nothing, so building, packing
    and merging one costs nothing."""

    def to_bytes(self) -> bytes:
        return b""

    @classmethod
    def from_bytes(cls, b: bytes) -> "EmptyPartial":
        return cls()

    def merge(self, other: "EmptyPartial") -> "EmptyPartial":
        return self


def built_specs(specs: list[SketchSpec]) -> list[SketchSpec]:
    """The specs a builder builds: all but the aliases."""
    return [s for s in specs if s.alias_of is None]


def bind_aliases(specs: list[SketchSpec], out):
    """Set each alias spec's entry of ``out`` (a dict, or a frame with a
    column per spec) to its target's merged sketch; returns ``out``."""
    for s in specs:
        if s.alias_of is not None:
            out[s.name] = out[s.alias_of]
    return out


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


def merge_blobs(cls, blobs) -> Any:
    """Deserialize a non-empty sequence of ``cls`` blobs and merge them
    into one sketch — the one blob fold of the global build and of the
    grouped build's keyed merge."""
    acc = cls.from_bytes(blobs[0])
    for b in blobs[1:]:
        acc.merge(cls.from_bytes(b))
    return acc


def _merge_fn(specs: list[SketchSpec], keys: list[str] | None = None):
    """Combiner over partial rows: one row per key (one row in all
    without ``keys``) whose spec columns hold the merged blobs."""
    classes = {s.name: type(s.factory()) for s in specs}
    keys = keys or []

    def merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        groups = [range(t.num_rows)] if not keys else list(
            t.select(keys).to_pandas().groupby(keys, sort=False, dropna=False)
            .indices.values())
        out = {k: t[k].take([g[0] for g in groups]) for k in keys}
        for name, cls in classes.items():
            blobs = t[name].to_pylist()
            out[name] = [merge_blobs(cls, [blobs[i] for i in g]).to_bytes()
                         for g in groups]
        return pa.table(out).select(t.column_names)

    return merge


def build_sketches(ds, specs: list[SketchSpec],
                   batch_size: int | None = None) -> dict[str, Any]:
    """Build all specs in ONE pass over ds; returns {name: merged sketch}."""
    built = built_specs(specs)
    parts = ds.map_batches(_partial_fn(built), batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size)
    left = merge_partials(parts, _merge_fn(built))
    if not left.num_rows:  # empty input -> fresh (zero) sketches
        return bind_aliases(specs, {spec.name: spec.factory() for spec in built})
    # the driver's fold keeps the merged sketches as objects: packing
    # them, as _merge_fn does, would only be undone here
    return bind_aliases(specs, {
        spec.name: merge_blobs(type(spec.factory()), left[spec.name].to_pylist())
        for spec in built})


def _grouped_partial_fn(group_by: list[str], specs: list[SketchSpec]):
    """Batch -> one partial row per group in the batch: the group keys
    and one blob per spec."""

    def build(t: pa.Table) -> pa.Table:
        df_keys = t.select(group_by).to_pandas()
        # group row-indices by key within the batch (vectorized factorize)
        codes, key_rows = pd.factorize(
            pd.MultiIndex.from_frame(df_keys) if len(group_by) > 1 else df_keys[group_by[0]],
            sort=False)
        out_cols: dict[str, list] = {k: [] for k in group_by}
        out_cols.update({s.name: [] for s in specs})
        # one take into group order (stable: rows keep their order
        # within a group), then each group is a zero-copy slice of it
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order], np.arange(len(key_rows) + 1))
        grouped = t.take(pa.array(order))
        for gi in range(len(key_rows)):
            sub = grouped.slice(bounds[gi], bounds[gi + 1] - bounds[gi])
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
        return pa.table(out_cols)

    return build


def build_grouped_sketches(ds, group_by: list[str],
                           specs: list[SketchSpec]) -> pd.DataFrame:
    """Per-group sketches, merged by ``merge_keyed``.

    Returns a pandas DataFrame: group_by columns + one column per spec
    holding the merged sketch OBJECT for that group (callers compute
    estimates). Partial rows are one per (block, group); when they
    measure large, the keyed merge's salts split each group's merge
    fan-in across reducers before the final per-group merge, so a hot
    group does not serialize on one reducer (SURVEY.md §4 skew row).
    """
    built = built_specs(specs)
    parts = ds.map_batches(_grouped_partial_fn(group_by, built),
                           batch_format="pyarrow", zero_copy_batch=True)
    pdf = merge_keyed(parts, group_by, _merge_fn(built, group_by)).to_pandas()
    pdf = pdf.reindex(columns=[*group_by, *(s.name for s in built)])
    for s in built:
        pdf[s.name] = pdf[s.name].map(type(s.factory()).from_bytes)
    return bind_aliases(specs, pdf.reset_index(drop=True))
