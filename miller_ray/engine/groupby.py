"""Grouped aggregation: partial pre-aggregation inside map_batches, then
``engine.merge.merge_keyed`` over the per-(block, group) partials.

Moment stats fold per-group moments. Exact percentiles fold the
field's (group, value) count table (``value_counts``, shared with
mode/antimode/distinct_count) and read each rank off its per-group
cumulative counts: on the driver where the table fits, else in one
``engine.scan.ordered_scan`` over it.

This is the scale-critical path (SURVEY.md §4): a bare
``ds.groupby(k).aggregate(...)`` shuffles every row; here each block is
reduced to one row per group first (pyarrow ``Table.group_by`` — zero-copy
Arrow in, vectorized kernels), so the merge moves ``O(blocks x groups)``
rows regardless of input size. Skewed keys are absorbed at the partial
stage: a key holding 90% of rows still contributes exactly one partial row
per block.

Reproduces Miller's stats1/stats2 observable semantics
(``pkg/transformers/stats1.go``, ``stats2.go``): null values are skipped
by the accumulators (``stats1_accumulators.go:456-460``), ``count`` counts
ingested (non-null) values, ``null_count`` counts nulls.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from miller_ray.engine import exact
from miller_ray.engine.merge import aggregate_by, bucket_apply, merge_keyed
from miller_ray.engine.scan import ordered_scan, running_totals

_DUMMY = "__g"

# acc name -> required partial moments
_NEEDS = {
    "count": ("n",),
    "null_count": ("n", "nall"),
    "sum": ("s1",),
    "mean": ("n", "s1"),
    "min": ("mn",),
    "max": ("mx",),
    "var": ("n", "s1", "s2"),
    "stddev": ("n", "s1", "s2"),
    "meaneb": ("n", "s1", "s2"),
    "skewness": ("n", "s1", "s2", "s3"),
    "kurtosis": ("n", "s1", "s2", "s3", "s4"),
    "minlen": ("lmn",),
    "maxlen": ("lmx",),
}

_PA_AGG = {"n": "count", "s1": "sum", "s2": "sum", "s3": "sum", "s4": "sum",
           "mn": "min", "mx": "max", "lmn": "min", "lmx": "max"}


def _partial_builder(group_by: list[str], fields: list[str], moments: dict[str, set]):
    """Returns a map_batches fn: Arrow batch -> per-group partial rows."""

    def partial(t: pa.Table) -> pa.Table:
        cols: dict[str, pa.Array] = {}
        keys = list(group_by)
        if not keys:
            cols[_DUMMY] = pa.array(np.zeros(t.num_rows, dtype=np.int8))
            keys = [_DUMMY]
        else:
            for k in keys:
                cols[k] = t[k]
        aggs = []
        for f in fields:
            need = moments[f]
            col = t[f]
            if "lmn" in need or "lmx" in need:
                ln = pc.utf8_length(pc.cast(col, pa.string()))
                cols[f"{f}__len"] = ln
                if "lmn" in need:
                    aggs.append((f"{f}__len", "min"))
                if "lmx" in need:
                    aggs.append((f"{f}__len", "max"))
            numeric_needs = [m for m in need if m in ("n", "s1", "s2", "s3", "s4", "mn", "mx")]
            if numeric_needs:
                # count/min/max work on ANY orderable type (strings sort
                # lexically, matching Miller's min/max); only the power
                # sums force a float cast
                if set(numeric_needs) <= {"n", "mn", "mx"}:
                    x = col
                else:
                    x = pc.cast(col, pa.float64()) if not pa.types.is_floating(col.type) else col
                cols[f"{f}__x"] = x
                if "s2" in need or "s3" in need or "s4" in need:
                    x2 = pc.multiply(x, x)
                    cols[f"{f}__x2"] = x2
                    if "s3" in need or "s4" in need:
                        x3 = pc.multiply(x2, x)
                        cols[f"{f}__x3"] = x3
                        if "s4" in need:
                            cols[f"{f}__x4"] = pc.multiply(x2, x2)
                for m in numeric_needs:
                    src = {"n": f"{f}__x", "s1": f"{f}__x", "s2": f"{f}__x2",
                           "s3": f"{f}__x3", "s4": f"{f}__x4",
                           "mn": f"{f}__x", "mx": f"{f}__x"}[m]
                    aggs.append((src, _PA_AGG[m]))
            if "nall" in need:
                pass  # derived from count_all below
        aggs.append(([], "count_all"))
        work = pa.table(cols)
        out = work.group_by(keys).aggregate(aggs)
        # canonical column order: Table.group_by emits aggregate columns
        # in hash order, which varies per block and breaks downstream
        # schema unification
        return out.select(sorted(out.column_names))

    return partial


def grouped_stats(ds, group_by: list[str], fields: list[str], accs: list[str]) -> pd.DataFrame:
    """Miller stats1 moment accumulators, grouped. Output columns:
    group_by + [f"{field}_{acc}"] in the requested order.

    Percentile/median/mode/distinct_count accs are handled by
    :func:`grouped_percentiles` / the verbs layer, not here.
    """
    bad = [a for a in accs if a not in _NEEDS]
    if bad:
        raise ValueError(f"unsupported moment accumulators: {bad}")
    moments = {f: set(m for a in accs for m in _NEEDS[a]) for f in fields}
    keys = list(group_by) if group_by else [_DUMMY]

    parts = ds.map_batches(
        _partial_builder(group_by, fields, moments),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # merge partials (one row per block per group) by key
    agg_cols: list[str] = []
    for f in fields:
        need = moments[f]
        for m in need:
            if m == "nall":
                continue
            src = {"n": f"{f}__x_count", "s1": f"{f}__x_sum", "s2": f"{f}__x2_sum",
                   "s3": f"{f}__x3_sum", "s4": f"{f}__x4_sum",
                   "mn": f"{f}__x_min", "mx": f"{f}__x_max",
                   "lmn": f"{f}__len_min", "lmx": f"{f}__len_max"}[m]
            if src not in agg_cols:
                agg_cols.append(src)
    agg_cols.append("count_all")
    combine = aggregate_by(keys, {
        c: "min" if c.endswith("_min") else "max" if c.endswith("_max")
        else "sum" for c in agg_cols})
    pdf = merge_keyed(parts, keys, combine).to_pandas()
    if pdf.empty:  # empty input: keep the output schema
        cols = [k for k in keys if k != _DUMMY] + \
            [f"{f}_{a}" for f in fields for a in accs]
        return pd.DataFrame({c: [] for c in cols})

    out = pdf[[k for k in keys if k != _DUMMY]].copy()

    def col(f, m):
        src = {"n": f"{f}__x_count", "s1": f"{f}__x_sum", "s2": f"{f}__x2_sum",
               "s3": f"{f}__x3_sum", "s4": f"{f}__x4_sum",
               "mn": f"{f}__x_min", "mx": f"{f}__x_max",
               "lmn": f"{f}__len_min", "lmx": f"{f}__len_max"}[m]
        return pdf[src].to_numpy()

    for f in fields:
        for a in accs:
            name = f"{f}_{a}"
            if a == "count":
                out[name] = col(f, "n").astype(np.int64)
            elif a == "null_count":
                out[name] = (pdf["count_all"].to_numpy() - col(f, "n")).astype(np.int64)
            elif a == "sum":
                out[name] = col(f, "s1")
            elif a == "mean":
                with np.errstate(invalid="ignore", divide="ignore"):
                    out[name] = col(f, "s1") / col(f, "n")
            elif a == "min":
                out[name] = col(f, "mn")
            elif a == "max":
                out[name] = col(f, "mx")
            elif a == "var":
                out[name] = exact.finalize_var(col(f, "n"), col(f, "s1"), col(f, "s2"))
            elif a == "stddev":
                out[name] = exact.finalize_stddev(col(f, "n"), col(f, "s1"), col(f, "s2"))
            elif a == "meaneb":
                out[name] = exact.finalize_meaneb(col(f, "n"), col(f, "s1"), col(f, "s2"))
            elif a == "skewness":
                out[name] = exact.finalize_skewness(col(f, "n"), col(f, "s1"),
                                                    col(f, "s2"), col(f, "s3"))
            elif a == "kurtosis":
                out[name] = exact.finalize_kurtosis(col(f, "n"), col(f, "s1"),
                                                    col(f, "s2"), col(f, "s3"), col(f, "s4"))
            elif a == "minlen":
                out[name] = col(f, "lmn").astype(np.int64)
            elif a == "maxlen":
                out[name] = col(f, "lmx").astype(np.int64)
    return out.reset_index(drop=True)


def _pname(field: str, p: float) -> str:
    return f"{field}_p{int(p) if float(p).is_integer() else p}"


def value_counts(ds, group_by: list[str], field: str):
    """The count table of ``field``'s non-null values: one row per
    (group..., value) with its count ``__n``. Per-block counts fold
    through ``merge_keyed``, so this is a ``pa.Table`` where they fit
    the driver and a Dataset above ``KEYED_FOLD_BYTES``. ``stats1``
    builds it once per field for its percentiles and its
    mode/antimode/distinct_count."""
    gcols = list(dict.fromkeys([*group_by, field]))

    def partial(t: pa.Table) -> pa.Table:
        # null values never enter an accumulator (Miller ingests
        # non-void only, stats1_accumulators.go): without this filter
        # an all-null group reports mode=null
        t = t.filter(pc.is_valid(t[field]))
        out = t.group_by(gcols).aggregate([([], "count_all")])
        return out.rename_columns(
            ["__n" if c == "count_all" else c for c in out.column_names])

    parts = ds.select_columns(gcols).map_batches(partial, batch_format="pyarrow")
    return merge_keyed(parts, gcols, aggregate_by(gcols))


def _drop_nan(t: pa.Table, field: str) -> pa.Table:
    """``t`` without the rows whose ``field`` is NaN: percentiles skip
    them."""
    if not t.num_rows or not pa.types.is_floating(t.schema.field(field).type):
        return t
    return t.filter(pc.invert(pc.is_nan(t[field])))


def _slot_ranks(pp: list[float], interpolated: bool, n: np.ndarray) -> list[np.ndarray]:
    """Per percentile in ``pp``, the 0-based ranks of the order
    statistics it reads in groups of ``n`` values: type-1 reads
    int(p*n/100) clamped (percentiles.go:195-210); -i (type-7) reads the
    floor and the ceiling of p/100*(n-1)."""
    out = []
    for p in pp:
        if interpolated:
            lo = np.maximum(p / 100.0 * (n - 1), 0.0).astype(np.int64)
            out += [np.minimum(lo, n - 1), np.minimum(lo + 1, n - 1)]
        else:
            out.append(np.clip((p * n / 100.0).astype(np.int64), 0, n - 1))
    return out


def _groups(df: pd.DataFrame, keys: list[str], field: str):
    """A frame of value counts sorted by (keys, value), cut into its
    groups: counts, values, each group's first row, count and value sum,
    and ``key(j)``, group j's key with nulls as None, so that one key
    from two blocks compares equal (NaN never equals itself)."""
    c = df["__n"].to_numpy(dtype=np.int64)
    v = df[field].to_numpy(dtype=np.float64)
    if keys:
        codes = df.groupby(keys, sort=False, dropna=False).ngroup().to_numpy()
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
    else:
        starts = np.zeros(1, dtype=np.int64)

    def key(j: int) -> tuple:
        return tuple(None if pd.isna(x) else x for x in df[keys].iloc[starts[j]])

    return c, v, starts, np.add.reduceat(c, starts), np.add.reduceat(c * v, starts), key


def _edge_sums(df: pd.DataFrame, keys: list[str], field: str) -> dict:
    """``ordered_scan`` summary: count and value sum of the block's first
    and last group."""
    _, _, starts, own, s, key = _groups(df, keys, field)
    return {key(j): np.array([own[j], s[j]]) for j in (0, len(starts) - 1)}


def _rank_rows(df: pd.DataFrame, carry: tuple, keys: list[str], field: str,
               ranks) -> pd.DataFrame:
    """One block of value counts sorted by (keys, value) -> one row per
    group it holds: the keys, the group's count ``__n``, ``__ad``, its
    absolute deviation from the group mean summed over the block's
    values, and per rank of ``ranks(n)`` the value at that rank where
    the block holds it (NaN elsewhere). ``carry`` is the
    ``running_totals`` pair for its first and last group, which may
    continue in other blocks; every other group lies wholly inside."""
    before, totals = carry
    c, v, starts, own, s, key = _groups(df, keys, field)
    tot = np.stack([own, s], axis=1).astype(np.float64)
    pre = np.zeros(len(starts), dtype=np.int64)
    for j in {0, len(starts) - 1}:
        k = key(j)
        tot[j] = totals.get(k, tot[j])
        pre[j] = before[k][0] if k in before else 0
    n = tot[:, 0].astype(np.int64)
    mean = tot[:, 1] / n
    cum = np.cumsum(c)
    base = cum[starts] - c[starts]  # the block's values before each group
    out = df[keys].iloc[starts].reset_index(drop=True).assign(
        __n=n, __ad=np.add.reduceat(
            c * np.abs(v - np.repeat(mean, np.diff(np.append(starts, len(c))))),
            starts))
    for j, k in enumerate(ranks(n)):
        at = k - pre
        idx = np.searchsorted(cum, base + at, side="right")
        out[f"__r{j}"] = np.where((at >= 0) & (at < own),
                                  v[np.minimum(idx, len(v) - 1)], np.nan)
    return out


def grouped_percentiles(ds, group_by: list[str], field: str, ps: list[float],
                        interpolated: bool = False,
                        extra_accs: list[str] | None = None,
                        counts=None) -> pd.DataFrame:
    """Exact Miller percentiles (R type-1; -i => type-7) per group, read
    off the field's ``value_counts`` table (``counts``, built here when
    not given): sorted by (group, value), each group's cumulative count
    locates every rank the percentiles need. Where the table fits the
    driver that is one sort there; above ``KEYED_FOLD_BYTES`` it is one
    ``ordered_scan`` over the table, whose carries hold the counts and
    sums of the groups that span blocks, and the driver sums the rank
    rows each block emits. No per-group task, whatever the skew.

    extra_accs: 'median' (= p50) and 'mad' (mean absolute deviation
    about the mean, reference stats1_accumulators.go:496-534).

    Non-numeric columns use Miller's mixed-type total order via a
    per-group sort fallback (conformance-only path).
    """
    extra_accs = extra_accs or []
    keys = list(group_by)
    sch = ds.schema()
    ftype = dict(zip(sch.names, sch.types))[field]
    # a pandas block's object column reports a Python type, not Arrow's
    if not isinstance(ftype, pa.DataType) or not (
            pa.types.is_integer(ftype) or pa.types.is_floating(ftype)
            or pa.types.is_decimal(ftype) or pa.types.is_boolean(ftype)):
        return _grouped_percentiles_obj(
            ds.select_columns(list(dict.fromkeys(keys + [field]))), group_by,
            field, ps, interpolated, extra_accs)

    pp = list(dict.fromkeys(ps + ([50.0] if "median" in extra_accs else [])))
    ranks = functools.partial(_slot_ranks, pp, interpolated)
    counts = value_counts(ds, keys, field) if counts is None else counts
    if isinstance(counts, pa.Table):
        t = _drop_nan(counts, field)
        df = t.to_pandas() if t.num_rows else pd.DataFrame()
        if len(df):
            codes = df.groupby(keys, sort=False, dropna=False).ngroup().to_numpy() \
                if keys else np.zeros(len(df))
            df = df.iloc[np.lexsort((df[field].to_numpy(dtype=np.float64), codes))]
            df = _rank_rows(df, ({}, {}), keys, field, ranks)
    else:
        df = ordered_scan(
            counts.map_batches(lambda t: _drop_nan(t, field), batch_format="pyarrow"),
            list(dict.fromkeys(keys + [field])),
            lambda b: _edge_sums(b, keys, field), running_totals,
            lambda b, carry: _rank_rows(b, carry, keys, field, ranks)).to_pandas()
    names = [_pname(field, p) for p in ps] + [f"{field}_{a}" for a in extra_accs]
    if df.empty:  # empty input: keep the output schema
        return pd.DataFrame({c: [] for c in keys + names})

    slots = [c for c in df.columns if c.startswith("__r")]
    df = df.assign(**{_DUMMY: 0}).groupby(keys or [_DUMMY], sort=False, dropna=False) \
        .agg({"__n": "max", "__ad": "sum", **{c: "max" for c in slots}}).reset_index()
    n = df["__n"].to_numpy()
    r = [df[c].to_numpy() for c in slots]
    at = {}
    for i, p in enumerate(pp):
        if not interpolated:
            at[p] = r[i]
            continue
        f = np.maximum(p / 100.0 * (n - 1), 0.0)
        lo = f.astype(np.int64)
        at[p] = np.where(lo >= n - 1, r[2 * i + 1],
                         r[2 * i] * (1.0 - (f - lo)) + r[2 * i + 1] * (f - lo))
    out = df[keys].copy()
    for p in ps:
        out[_pname(field, p)] = at[p]
    for a in extra_accs:
        out[f"{field}_{a}"] = at[50.0] if a == "median" else df["__ad"] / n
    return out


def _grouped_percentiles_obj(sub, group_by, field, ps, interpolated,
                             extra_accs) -> pd.DataFrame:
    """Mixed-type fallback: per-group sort under Miller's total order
    (numbers below strings), the groups gathered by one ``bucket_apply``.
    Conformance-scale only."""
    pfn = exact.percentile_interpolated if interpolated else exact.percentile_type1

    def per_group(df: pd.DataFrame) -> pd.DataFrame:
        vals = exact.miller_sorted(df[field].dropna().tolist())
        out = {k: [df[k].iloc[0]] for k in group_by}
        for p in ps:
            out[_pname(field, p)] = [pfn(vals, p)]
        for a in extra_accs:
            if a == "median":
                out[f"{field}_median"] = [pfn(vals, 50)]
            elif a == "mad":
                mean = vals.mean() if vals.size else np.nan
                out[f"{field}_mad"] = [np.abs(vals - mean).mean()
                                       if vals.size else np.nan]
        return pd.DataFrame(out)

    keys = list(group_by) or [_DUMMY]

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([per_group(g) for _, g in df.groupby(
            keys, sort=False, dropna=False)], ignore_index=True)

    if not group_by:  # one bucket holds every value
        sub = sub.map_batches(lambda b: b.assign(**{_DUMMY: 0}),
                              batch_format="pandas")
    # pandas batches: a mixed-type object column has no Arrow type
    out = bucket_apply([sub], keys, per_bucket, batch_format="pandas").to_pandas()
    # ungrouped, an empty input still gives its one row
    return out if group_by or len(out) else per_group(pd.DataFrame({field: []}))
