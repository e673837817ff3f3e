"""Mergeable-sketch UDAF harness over ray.data.Dataset.

The north-rule execution shape (BASELINE.json): per-block partial
sketches built inside ``map_batches`` over zero-copy Arrow batches, then
a merge over KB-sized serialized partials — the wide all-to-all
shuffle a naive ``groupby`` would do never happens; only sketch blobs
move.

One partial function, ``_partial_fn(specs, keys)``, serves every build:
per batch it emits one row per group of ``keys`` (one row without
keys) holding the key values, the group's row count ``__rows`` and
one blob per spec. ``_merge_fn`` groups rows by the same rule (a null
key is one group), sums ``__rows`` and folds each group's blobs with
``merge_blobs``, the one blob fold. Which fold runs depends on the build:

- Global sketches: ``build_sketches`` -> ``engine.merge.merge_partials``:
  levels of ``MERGE_FANIN``-way combines while more than
  ``MERGE_FANIN`` partial blocks remain, then one ``merge_blobs`` fold
  on the driver over the partial rows of the blocks left.
- Grouped sketches: ``build_grouped_sketches`` -> per-(block, group)
  partial rows -> ``engine.merge.merge_keyed``: a driver fold while the
  partials measure small, else its salted two-level keyed merge. A hot
  key (one ``source`` = 90% of rows, FIXTURES F1) is absorbed at the
  partial stage (one row per block regardless of row skew) and its
  merge fan-in is split across salts.
- Checkpointed sketches: ``engine.checkpoint.checkpointed_build`` keys
  the partials by source file (``path``) and folds them through
  ``merge_keyed`` as well.

Builders are plain functions (stateless Ray tasks -> elastic, fusable).
For expensive per-actor setup (shared broadcast state) pass an actor
class via map_batches directly — see stages/ for examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from miller_ray.engine.merge import merge_keyed, merge_partials


@dataclass
class SketchSpec:
    """One sketch to build: name, factory, and the batch->values extractor.

    ``extract`` maps a pyarrow Table batch to the value vector fed to
    ``sketch.update_batch`` (e.g. a column, or the flattened values of a
    list column via ``pa.ListArray.values`` — zero-copy).

    ``columns`` names the batch columns the spec reads; the keyed
    partial builder copies only those (and the keys) when it regroups a
    batch. ``None`` means any column may be read, so every one is kept.
    """

    name: str
    factory: Callable[[], Any]
    extract: Callable[[pa.Table], Any]
    update: Callable[[Any, pa.Table, dict], None] | None = None
    # name of the spec whose merged sketch this one returns (see alias)
    alias_of: str | None = None
    columns: tuple[str, ...] | None = None

    @staticmethod
    def custom(name: str, factory: Callable[[], Any],
               update: Callable[[Any, pa.Table, dict], None],
               columns: Iterable[str] | None = None) -> "SketchSpec":
        """Spec with a custom per-batch update hook ``update(sketch,
        batch, cache)`` — lets several sketches share one pass over the
        data via the per-batch cache (e.g. one doc_id hash pass feeding
        both the HyperLogLog and the Bloom filter). ``columns`` names
        the columns ``update`` reads (``None``: unknown)."""
        return SketchSpec(name, factory, lambda t, cache=None: None, update,
                          columns=None if columns is None else tuple(columns))

    @staticmethod
    def alias(name: str, of: str) -> "SketchSpec":
        """A second name for spec ``of``'s merged sketch, for a question
        that sketch already answers (the exact token histogram's top-k).
        The builders build nothing for it and return ``of``'s object."""
        return SketchSpec(name, EmptyPartial, lambda t, cache=None: None,
                          lambda sk, t, cache: None, of, ())

    @staticmethod
    def column(name: str, factory: Callable[[], Any], col: str) -> "SketchSpec":
        return SketchSpec(name, factory, lambda t, cache=None, c=col: t[c],
                          columns=(col,))

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

        return SketchSpec(name, factory, ex, columns=(col,))


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


def _group_rows(t: pa.Table, keys: list[str]) -> list[np.ndarray]:
    """Each group's row positions in ``t`` (ascending) by columns
    ``keys``, groups in order of first appearance: the one grouping
    rule of ``_partial_fn`` and of ``_merge_fn``. A null key is one
    group, and a float NaN joins it (as ``merge.key_hash`` and pandas'
    ``dropna=False`` have it). Each key's ``dictionary_encode`` indices
    fold into one dense int64 code per row."""
    codes, n = np.zeros(t.num_rows, np.int64), 1
    for k in keys:
        a = t[k].combine_chunks()
        if pa.types.is_dictionary(a.type):
            a = a.dictionary_decode()
        if pa.types.is_floating(a.type):
            # NaN to null, and -0.0 to 0.0 (+ 0.0), so equal keys code alike
            a = pc.if_else(pc.is_nan(a), pa.scalar(None, a.type), pc.add(a, 0))
        enc = a.dictionary_encode(null_encoding="encode")
        codes = codes * len(enc.dictionary) + enc.indices.to_numpy()
        if n > 1:  # dense again, in first-appearance order
            enc = pa.array(codes).dictionary_encode()
            codes = enc.indices.to_numpy().astype(np.int64)
        n = len(enc.dictionary)
    order = np.argsort(codes, kind="stable")
    return np.split(order, np.cumsum(np.bincount(codes, minlength=n))[:-1]) \
        if t.num_rows else []


def _partial_fn(specs: list[SketchSpec], keys=()):
    """Batch -> one partial row per group of ``keys`` in the batch (one
    row in all without ``keys``): the group's key values, its row count
    ``__rows`` and one blob per spec.

    When every group's rows form one contiguous run (the checkpoint's
    file runs keyed by ``path``), each group is a zero-copy slice of the
    batch. Otherwise one ``take`` copies the rows into group order,
    keeping only the keys and the columns the specs read
    (``SketchSpec.columns``; every column if a spec leaves it ``None``).
    Either way each group's rows keep their order, so its blobs are
    those of the group's rows filtered out of the batch."""
    keys = list(keys)
    read = None if any(s.columns is None for s in specs) else \
        list(dict.fromkeys([*keys, *(c for s in specs for c in s.columns)]))

    def build(t: pa.Table) -> pa.Table:
        if keys:
            groups = _group_rows(t, keys)
            out = {k: t[k].take(pa.array([g[0] for g in groups], pa.int64()))
                   for k in keys}
            if all(g[-1] - g[0] < len(g) for g in groups):
                subs = [t.slice(g[0], len(g)) for g in groups]
            else:
                src = t if read is None else t.select(read)
                grouped = src.take(np.concatenate([np.zeros(0, np.int64), *groups]))
                starts = np.cumsum([0, *map(len, groups)])
                subs = [grouped.slice(a, b - a) for a, b in zip(starts, starts[1:])]
        else:
            out, subs = {}, [t]
        out["__rows"] = [sub.num_rows for sub in subs]
        out.update({spec.name: [] for spec in specs})
        for sub in subs:
            cache: dict = {}
            for spec in specs:
                sk = spec.factory()
                apply_spec(sk, spec, sub, cache)
                out[spec.name].append(sk.to_bytes())
        return pa.table(out)

    return build


def merge_blobs(cls, blobs) -> Any:
    """Deserialize a non-empty iterable of ``cls`` blobs and merge them
    into one sketch: the one blob fold of every build."""
    blobs = iter(blobs)
    acc = cls.from_bytes(next(blobs))
    for b in blobs:
        acc.merge(cls.from_bytes(b))
    return acc


def _merge_fn(specs: list[SketchSpec], keys=()):
    """Combiner over partial rows: one row per key (one row in all
    without ``keys``) whose ``__rows`` is the sum of its partials' and
    whose spec columns hold the merged blobs."""
    classes = {s.name: type(s.factory()) for s in specs}
    keys = list(keys)

    def merge(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        groups = _group_rows(t, keys) if keys else [np.arange(t.num_rows)]
        first = pa.array([g[0] for g in groups], pa.int64())
        out = {k: t[k].take(first) for k in keys}
        rows = t["__rows"].to_numpy()
        out["__rows"] = [int(rows[g].sum()) for g in groups]
        for name, cls in classes.items():
            blobs = t[name].to_pylist()
            out[name] = [merge_blobs(cls, [blobs[i] for i in g]).to_bytes()
                         for g in groups]
        return pa.table(out).select(t.column_names)

    return merge


def build_sketches(ds, specs: list[SketchSpec]) -> dict[str, Any]:
    """Build all specs in ONE pass over ds; returns {name: merged sketch}."""
    built = built_specs(specs)
    parts = ds.map_batches(_partial_fn(built), batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    left = merge_partials(parts, _merge_fn(built))
    if not left.num_rows:  # empty input -> fresh (zero) sketches
        return bind_aliases(specs, {spec.name: spec.factory() for spec in built})
    # the driver's fold keeps the merged sketches as objects: packing
    # them, as _merge_fn does, would only be undone here
    return bind_aliases(specs, {
        spec.name: merge_blobs(type(spec.factory()), left[spec.name].to_pylist())
        for spec in built})


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
    parts = ds.map_batches(_partial_fn(built, group_by),
                           batch_format="pyarrow", zero_copy_batch=True)
    pdf = merge_keyed(parts, group_by, _merge_fn(built, group_by)).to_pandas()
    pdf = pdf.reindex(columns=[*group_by, *(s.name for s in built)])
    for s in built:
        pdf[s.name] = pdf[s.name].map(type(s.factory()).from_bytes)
    return bind_aliases(specs, pdf.reset_index(drop=True))
