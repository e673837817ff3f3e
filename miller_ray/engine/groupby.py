"""Grouped aggregation: partial pre-aggregation inside map_batches, then
``engine.merge.merge_keyed`` over the per-(block, group) partials.

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

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from miller_ray.engine import exact
from miller_ray.engine.merge import aggregate_by, bucket_apply, merge_keyed

_DUMMY = "__g"
# grouped_percentiles: distinct values a group's pass-A store keeps
# before it turns dense, and the refinement passes' bins per group
MAX_UNIQUES = 2_000_000
NBINS = 8192

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


def _vc_partial_builder(group_by: list[str], field: str):
    """map_batches fn: Arrow batch -> per-(block, group) VALUE-COUNT rows
    (group cols + __v float64 + __c int64). Fully vectorized: one
    lexsort over (group code, value), boundary diff for counts — no
    per-group Python even at 10^5 groups. The partial for a block is
    bounded by the block's distinct values, so a hot group with massive
    ties still contributes tiny partials."""

    def partial(t: pa.Table) -> pa.Table:
        is_int = pa.types.is_integer(t.schema.field(field).type)
        vtype = pa.int64() if is_int else pa.float64()
        if t.num_rows == 0:
            cols = {k: t[k] for k in group_by}
            cols["__v"] = pa.array([], type=vtype)
            cols["__c"] = pa.array([], type=pa.int64())
            return pa.table(cols)
        x, valid = _num_col(t[field])
        if group_by:
            key_pdf = t.select(group_by).to_pandas()
            codes_parts = [pd.factorize(key_pdf[k], use_na_sentinel=False)[0]
                           for k in group_by]
            combined = codes_parts[0].astype(np.int64)
            for cp in codes_parts[1:]:
                combined = combined * (np.int64(cp.max()) + 1) + cp
            ucodes, codes = np.unique(combined, return_inverse=True)
            first_idx = np.zeros(ucodes.size, dtype=np.int64)
            first_idx[codes[::-1]] = np.arange(len(codes) - 1, -1, -1)
        else:
            codes = np.zeros(x.size, dtype=np.int64)
            first_idx = np.zeros(1, dtype=np.int64)
        xv, cv = x[valid], codes[valid]
        order = np.lexsort((xv, cv))
        xs, cs = xv[order], cv[order]
        if xs.size:
            bound = np.empty(xs.size, dtype=bool)
            bound[0] = True
            bound[1:] = (xs[1:] != xs[:-1]) | (cs[1:] != cs[:-1])
            starts = np.flatnonzero(bound)
            cnts = np.diff(np.append(starts, xs.size))
            uv, ug = xs[starts], cs[starts]
        else:
            uv = np.zeros(0, dtype=x.dtype)
            ug = cnts = np.zeros(0, dtype=np.int64)
        out = {}
        if group_by:
            rep = pa.array(ug.astype(np.int64))
            for k in group_by:
                out[k] = pc.take(t[k].combine_chunks(),
                                 pa.array(first_idx))  # one row per code
                out[k] = pc.take(out[k], rep)
        out["__v"] = pa.array(uv, type=vtype)
        out["__c"] = pa.array(np.asarray(cnts, dtype=np.int64))
        return pa.table(out)

    return partial


def _num_col(col) -> tuple[np.ndarray, np.ndarray]:
    """(values, valid-mask) for a numeric Arrow column. Integer columns
    stay int64 (exact — float64 cannot represent every int64, and
    Miller's percentile keeper returns the actual input value); floats
    drop NaN via the mask."""
    if pa.types.is_integer(col.type):
        if col.null_count:
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            x = pc.fill_null(col, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            x = col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
            valid = np.ones(len(x), dtype=bool)
        return x, valid
    x = pc.cast(col, pa.float64(), safe=False).to_numpy(zero_copy_only=False)
    return x, ~np.isnan(x)


class _GroupVC:
    """Driver-side streamed fold of per-block value-count partials for
    one group. Memory bounded: when distinct values exceed max_uniques
    the group downgrades to 'dense' (keeps only n/s1/min/max) and is
    finished by the histogram-refinement passes."""

    __slots__ = ("vals", "cnts", "pend_v", "pend_c", "n", "s1", "mn", "mx", "dense")

    def __init__(self):
        self.vals = np.zeros(0, dtype=np.float64)
        self.cnts = np.zeros(0, dtype=np.int64)
        self.pend_v: list = []
        self.pend_c: list = []
        self.n = 0
        self.s1 = 0.0
        self.mn = np.inf
        self.mx = -np.inf
        self.dense = False

    def add(self, v: np.ndarray, c: np.ndarray, max_uniques: int):
        if v.size == 0:
            return
        self.n += int(c.sum())
        self.s1 += float((v.astype(np.float64) * c).sum())
        self.mn = min(self.mn, float(v.min()))
        self.mx = max(self.mx, float(v.max()))
        if self.dense:
            return
        self.pend_v.append(v)
        self.pend_c.append(c)
        if sum(a.size for a in self.pend_v) + self.vals.size > max(
                2 * max(self.vals.size, 1024), max_uniques // 4):
            self.compact(max_uniques)

    def compact(self, max_uniques: int):
        if not self.pend_v and self.vals.size <= max_uniques:
            return
        # dtype follows the incoming partials (int64 stays int64 — an
        # empty float64 seed must not promote exact ints)
        nonempty = [a for a in [self.vals] + self.pend_v if a.size]
        v = np.concatenate(nonempty) if nonempty else self.vals
        c = np.concatenate([self.cnts] + self.pend_c)
        self.pend_v, self.pend_c = [], []
        uv, inv = np.unique(v, return_inverse=True)
        if uv.size > max_uniques:
            self.dense = True
            self.vals = np.zeros(0, dtype=np.float64)
            self.cnts = np.zeros(0, dtype=np.int64)
            return
        self.vals = uv
        self.cnts = np.bincount(inv, weights=c).astype(np.int64)

    def order_stat(self, k: int) -> float:
        """k-th (0-based) order statistic from sorted value counts."""
        cum = np.cumsum(self.cnts)
        return float(self.vals[np.searchsorted(cum, k, side="right")])


def _ranks_for(n: int, ps: list[float], interpolated: bool,
               want_median: bool) -> list[int]:
    """0-based order-statistic ranks needed for the requested
    percentiles (type-1: int(p*n/100) clamped, percentiles.go:195-210;
    type-7: floor/ceil of p/100*(n-1))."""
    ks: set[int] = set()
    pp = list(ps) + ([50.0] if want_median else [])
    for p in pp:
        if interpolated:
            f = (p / 100.0) * (n - 1)
            f = max(f, 0.0)
            lo = int(f)
            ks.add(min(lo, n - 1))
            ks.add(min(lo + 1, n - 1))
        else:
            ks.add(min(max(int(p * n / 100.0), 0), n - 1))
    return sorted(ks)


def _finalize_ps(field, ps, interpolated, extra_accs, n, stat, mean, mad_val):
    """Build the output columns for one group given an order-statistic
    lookup function ``stat(k)``."""
    out = {}
    for p in ps:
        out[_pname(field, p)] = _one_pct(p, n, stat, interpolated)
    for a in extra_accs:
        if a == "median":
            out[f"{field}_median"] = _one_pct(50.0, n, stat, interpolated)
        elif a == "mad":
            out[f"{field}_mad"] = mad_val
    return out


def _one_pct(p, n, stat, interpolated):
    if n == 0:
        return None
    if not interpolated:
        return stat(min(max(int(p * n / 100.0), 0), n - 1))
    f = max((p / 100.0) * (n - 1), 0.0)
    lo = int(f)
    if lo >= n - 1:
        return stat(n - 1)
    frac = f - lo
    return stat(lo) * (1.0 - frac) + stat(lo + 1) * frac


def grouped_percentiles(ds, group_by: list[str], field: str, ps: list[float],
                        interpolated: bool = False,
                        extra_accs: list[str] | None = None) -> pd.DataFrame:
    """Exact Miller percentiles (R type-1; -i => type-7) per group,
    as mergeable per-block partials — NO per-group sort, NO wide
    shuffle, parallelism independent of group count.

    Pass A (always): per-block (group, value, count) partials
    (vectorized lexsort+diff), stream-folded on the driver with per-
    group distinct-value stores capped at ``MAX_UNIQUES``. Groups whose
    column fits the cap (any bounded-cardinality field at ANY row
    count; most real columns) finish here in ONE pass.

    Dense groups (distinct values > cap) fall back to exact histogram
    refinement: Pass B bins values over [min, max] into ``NBINS``
    per-block bincounts (merged counts locate the bin holding each
    needed order statistic), Pass C collects value-counts ONLY inside
    candidate bins (expected n/NBINS of the group) and indexes exactly.
    Both passes move O(blocks x NBINS) rows — scale-safe at 10^12.

    extra_accs: 'median' (= p50) and 'mad' (mean absolute deviation
    about the mean, reference stats1_accumulators.go:496-534).

    Non-numeric columns use Miller's mixed-type total order via a
    per-group sort fallback (conformance-only path).
    """
    extra_accs = extra_accs or []
    cols = list(dict.fromkeys((group_by or []) + [field]))
    sub = ds.select_columns(cols)
    sch = ds.schema()
    ftype = dict(zip(sch.names, sch.types))[field]
    # a pandas block's object column reports a Python type, not Arrow's
    if not isinstance(ftype, pa.DataType) or not (
            pa.types.is_integer(ftype) or pa.types.is_floating(ftype)
            or pa.types.is_decimal(ftype) or pa.types.is_boolean(ftype)):
        return _grouped_percentiles_obj(sub, group_by, field, ps,
                                        interpolated, extra_accs)

    # batch_size=None: one partial per BLOCK (maximal per-block value
    # dedup; tiny 1024-row default batches defeat the reduction and put
    # thousands of fold iterations on the driver)
    parts = sub.map_batches(_vc_partial_builder(group_by, field),
                            batch_format="pyarrow", zero_copy_batch=True,
                            batch_size=None)

    keys = list(group_by)
    store: dict[tuple, _GroupVC] = {}
    for batch in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        pdf = batch.to_pandas()
        if keys:
            for key, sl in pdf.groupby(keys, sort=False, dropna=False).indices.items():
                kt = key if isinstance(key, tuple) else (key,)
                store.setdefault(kt, _GroupVC()).add(
                    pdf["__v"].to_numpy()[sl], pdf["__c"].to_numpy()[sl], MAX_UNIQUES)
        else:
            store.setdefault((), _GroupVC()).add(
                pdf["__v"].to_numpy(), pdf["__c"].to_numpy(), MAX_UNIQUES)
    for g in store.values():
        g.compact(MAX_UNIQUES)

    dense = {k: g for k, g in store.items() if g.dense}
    dense_stats = _dense_order_stats(sub, group_by, field, dense, ps,
                                     interpolated, "mad" in extra_accs,
                                     NBINS) if dense else {}

    rows = []
    for kt, g in store.items():
        mean = g.s1 / g.n if g.n else np.nan
        if not g.dense:
            mad = (float((g.cnts * np.abs(g.vals - mean)).sum()) / g.n
                   if g.n else np.nan)
            stat = g.order_stat
        else:
            stats_k, mad = dense_stats[kt]
            stat = stats_k.__getitem__
        row = dict(zip(keys, kt))
        row.update(_finalize_ps(field, ps, interpolated, extra_accs,
                                g.n, stat, mean, mad))
        rows.append(row)
    if not rows:  # empty input: keep the output schema
        cols = keys + [_pname(field, p) for p in ps] + \
            [f"{field}_{a}" for a in extra_accs]
        return pd.DataFrame({c: [] for c in cols})
    return pd.DataFrame(rows)


def _dense_order_stats(sub, group_by, field, dense: dict, ps, interpolated,
                       want_mad, nbins):
    """Histogram-refinement passes (B + C) for groups whose distinct
    values exceeded the pass-A cap. Returns {key: ({k: value}, mad)}."""
    import ray

    keys = list(group_by)
    meta = {kt: (g.n, g.mn, g.mx, g.s1 / g.n if g.n else 0.0)
            for kt, g in dense.items()}
    meta_ref = ray.put(meta)

    def bin_counts(t: pa.Table) -> pa.Table:
        m = ray.get(meta_ref)
        x0, valid0 = _num_col(t[field])
        x = np.where(valid0, x0.astype(np.float64), np.nan)
        if keys:
            key_pdf = t.select(keys).to_pandas()
            grouped = key_pdf.groupby(keys, sort=False, dropna=False).indices
        else:
            grouped = {(): np.arange(x.size)}
        out_keys: list[tuple] = []
        out_bins: list[np.ndarray] = []
        out_cnts: list[np.ndarray] = []
        out_absdev: list[float] = []
        for key, sl in grouped.items():
            kt = key if isinstance(key, tuple) else (key,)
            if kt not in m:
                continue
            n, mn, mx, mu = m[kt]
            xv = x[sl]
            xv = xv[~np.isnan(xv)]
            width = (mx - mn) or 1.0
            b = np.clip(((xv - mn) * (nbins / width)).astype(np.int64), 0, nbins - 1)
            bc = np.bincount(b, minlength=nbins)
            nz = np.flatnonzero(bc)
            out_keys.append(kt)
            out_bins.append(nz.astype(np.int64))
            out_cnts.append(bc[nz].astype(np.int64))
            out_absdev.append(float(np.abs(xv - mu).sum()) if want_mad else 0.0)
        cols = {}
        reps = [len(b) for b in out_bins]
        for i, k in enumerate(keys):
            cols[k] = pa.array(
                list(np.repeat([kt[i] for kt in out_keys], reps)),
                type=t.schema.field(k).type)
        cols["__bin"] = pa.array(np.concatenate(out_bins) if out_bins
                                 else np.zeros(0, dtype=np.int64))
        cols["__c"] = pa.array(np.concatenate(out_cnts) if out_cnts
                               else np.zeros(0, dtype=np.int64))
        # one absdev row per group rides along with bin 0 padding trick:
        # emit as separate tiny table columns via a sentinel bin -1
        if want_mad and out_keys:
            for i, k in enumerate(keys):
                cols[k] = pa.concat_arrays([
                    cols[k],
                    pa.array([kt[i] for kt in out_keys],
                             type=t.schema.field(k).type)])
            cols["__bin"] = pa.concat_arrays([cols["__bin"], pa.array([-1] * len(out_keys), type=pa.int64())])
            cols["__c"] = pa.concat_arrays([cols["__c"], pa.array(
                np.asarray(out_absdev).view(np.int64))])
        return pa.table(cols)

    hists: dict[tuple, np.ndarray] = {kt: np.zeros(nbins, dtype=np.int64)
                                      for kt in dense}
    absdev: dict[tuple, float] = {kt: 0.0 for kt in dense}
    for batch in sub.map_batches(bin_counts, batch_format="pyarrow",
                                 zero_copy_batch=True,
                                 batch_size=None).iter_batches(
                                     batch_format="pyarrow", batch_size=None):
        pdf = batch.to_pandas()
        grouped = (pdf.groupby(keys, sort=False, dropna=False).indices.items()
                   if keys else [((), np.arange(len(pdf)))])
        for key, sl in grouped:
            kt = key if isinstance(key, tuple) else (key,)
            bins = pdf["__bin"].to_numpy()[sl]
            cnts = pdf["__c"].to_numpy()[sl]
            mad_rows = bins == -1
            if mad_rows.any():
                absdev[kt] += float(cnts[mad_rows].view(np.float64).sum())
            norm = ~mad_rows
            np.add.at(hists[kt], bins[norm], cnts[norm])

    # locate candidate bins per group for every needed rank
    candidates: dict[tuple, set[int]] = {}
    rank_bin: dict[tuple, dict[int, int]] = {}
    for kt, (n, mn, mx, mu) in meta.items():
        cum = np.cumsum(hists[kt])
        rb = {}
        for k in _ranks_for(n, ps, interpolated, True):
            b = int(np.searchsorted(cum, k, side="right"))
            rb[k] = b
        rank_bin[kt] = rb
        candidates[kt] = set(rb.values())
    cand_ref = ray.put({kt: np.array(sorted(c), dtype=np.int64)
                        for kt, c in candidates.items()})

    def collect(t: pa.Table) -> pa.Table:
        m = ray.get(meta_ref)
        cand = ray.get(cand_ref)
        x0, valid0 = _num_col(t[field])
        if keys:
            key_pdf = t.select(keys).to_pandas()
            grouped = key_pdf.groupby(keys, sort=False, dropna=False).indices
        else:
            grouped = {(): np.arange(len(x0))}
        okeys, obins, ovals, ocnts = [], [], [], []
        for key, sl in grouped.items():
            kt = key if isinstance(key, tuple) else (key,)
            if kt not in m:
                continue
            n, mn, mx, mu = m[kt]
            sel = sl[valid0[sl]]
            xv = x0[sel]
            width = (mx - mn) or 1.0
            b = np.clip(((xv.astype(np.float64) - mn) * (nbins / width))
                        .astype(np.int64), 0, nbins - 1)
            mask = np.isin(b, cand[kt])
            xv, b = xv[mask], b[mask]
            order = np.lexsort((xv, b))
            xs, bs = xv[order], b[order]
            if not xs.size:
                continue
            bound = np.empty(xs.size, dtype=bool)
            bound[0] = True
            bound[1:] = (xs[1:] != xs[:-1]) | (bs[1:] != bs[:-1])
            starts = np.flatnonzero(bound)
            cnts = np.diff(np.append(starts, xs.size))
            okeys.append((kt, starts.size))
            obins.append(bs[starts])
            ovals.append(xs[starts])
            ocnts.append(cnts)
        cols = {}
        for i, k in enumerate(keys):
            cols[k] = pa.array(
                list(np.repeat([kt[i] for kt, _ in okeys],
                               [r for _, r in okeys])),
                type=t.schema.field(k).type)
        z = np.zeros(0, dtype=np.int64)
        cols["__bin"] = pa.array(np.concatenate(obins) if obins else z)
        cols["__v"] = pa.array(np.concatenate(ovals) if ovals
                               else np.zeros(0, dtype=x0.dtype))
        cols["__c"] = pa.array(np.concatenate(ocnts) if ocnts else z)
        return pa.table(cols)

    bin_vc: dict[tuple, dict[int, _GroupVC]] = {kt: {} for kt in dense}
    for batch in sub.map_batches(collect, batch_format="pyarrow",
                                 zero_copy_batch=True,
                                 batch_size=None).iter_batches(
                                     batch_format="pyarrow", batch_size=None):
        pdf = batch.to_pandas()
        gcols = keys + ["__bin"]
        for key, sl in pdf.groupby(gcols, sort=False, dropna=False).indices.items():
            kt0 = key if isinstance(key, tuple) else (key,)
            kt, b = tuple(kt0[:-1]), int(kt0[-1])
            bin_vc[kt].setdefault(b, _GroupVC()).add(
                pdf["__v"].to_numpy()[sl], pdf["__c"].to_numpy()[sl],
                np.iinfo(np.int64).max)

    out: dict[tuple, tuple[dict[int, float], float]] = {}
    for kt, (n, mn, mx, mu) in meta.items():
        cum_below = np.concatenate([[0], np.cumsum(hists[kt])[:-1]])
        stats_k = {}
        for k, b in rank_bin[kt].items():
            g = bin_vc[kt][b]
            g.compact(np.iinfo(np.int64).max)
            stats_k[k] = g.order_stat(k - int(cum_below[b]))
        mad = absdev[kt] / n if n else np.nan
        out[kt] = (stats_k, mad)
    return out


def _grouped_percentiles_obj(sub, group_by, field, ps, interpolated,
                             extra_accs) -> pd.DataFrame:
    """Mixed-type fallback: per-group sort under Miller's total order
    (numbers below strings). Conformance-scale only."""
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

    if group_by:
        def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
            return pd.concat([per_group(g) for _, g in df.groupby(
                group_by, sort=False, dropna=False)], ignore_index=True)

        return bucket_apply([sub], group_by, per_bucket,
                            batch_format="pandas").to_pandas()
    # pandas batches: a mixed-type object column has no Arrow type
    allv = [v for b in sub.iter_batches(batch_format="pandas")
            for v in b[field].tolist()]
    vals = exact.miller_sorted(allv)
    out = {}
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
