"""Miller-semantics verb facade over ray.data.Dataset.

Each function re-expresses one reference verb (file cited per function,
all in Miller's pkg/transformers/) Ray-Data-first: stateless per-record
verbs are vectorized ``map_batches``; verbs that fold or scan go
through the engine's primitives, picked by the shape of the per-block
partial:
- ``engine.merge.merge_partials`` for partials bounded per block
  (histogram bins, an ungrouped top-k);
- ``engine.merge.merge_keyed`` for partials that carry group keys
  (``count -g``, ``stats1``, ``top -g``, ``head -g``, ``sample -g``);
- ``engine.scan.ordered_scan`` for stream-order verbs (step, fill-down,
  stats1 -w, decimate -b/-e, sort-path rank, tail, fraction -c) and for
  ``stats1`` percentiles whose value counts are too large for the
  driver.
The ends verbs (head -g, tail -g/-o, top, top -a, sample) share one
per-group trim as both partial and combine (``_ends``). Buffer-all
verbs (sort, tac) are one ``engine.scan.sort_nulls_last``.

Divergences from Miller, by design (SURVEY.md §1.6):
- output row order is undefined unless the verb sorts; callers compare
  set-wise (the driver's value-hash is order-insensitive).
- first-seen tie-breaks (mode/antimode/top ties) are replaced by the
  deterministic total order (count desc / value asc), documented per
  verb.
- records with a null group key form one group, as in ``count -g``
  (Miller skips records lacking the group field, top.go:208-211).

Aggregate results are returned as small pandas DataFrames (they are
O(groups)); record-level verbs return Datasets and keep streaming.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from miller_ray.engine.groupby import (grouped_percentiles, grouped_stats,
                                       value_counts)
from miller_ray.engine import merge as engine_merge
from miller_ray.engine.merge import (aggregate_by, block_refs, bucket_apply,
                                     distinct_values, key_hash, merge_keyed,
                                     merge_partials, pandas_combine)
from miller_ray.engine.scan import (group_index, ordered_scan, running_carries,
                                    running_totals, sort_nulls_last)

_MOMENT_ACCS = {"count", "null_count", "sum", "mean", "min", "max", "var",
                "stddev", "meaneb", "skewness", "kurtosis", "minlen", "maxlen"}


def _dataset(out):
    """A fold's answer as a Dataset: a driver fold's small ``pa.Table``
    (``merge_keyed``'s, or ``_ends``') is wrapped once."""
    import ray.data as rd

    return rd.from_arrow(out) if isinstance(out, pa.Table) else out


# ---------------------------------------------------------------------------
# counting / distinctness  (count.go, uniq.go)
# ---------------------------------------------------------------------------

def _count_parts(ds, keys: list[str]):
    """Per-block partial ``count -g keys``: one (keys, count_all) row
    per (block, group), for ``merge_keyed`` by ``aggregate_by(keys)``."""
    def partial(t: pa.Table) -> pa.Table:
        out = t.group_by(keys).aggregate([([], "count_all")])
        return out.select(sorted(out.column_names))

    return ds.select_columns(keys).map_batches(partial, batch_format="pyarrow")


def count(ds, group_by: list[str] | None = None,
          output_name: str = "count") -> pd.DataFrame:
    """Verb ``count`` (count.go): record count, optionally per group."""
    if not group_by:
        return pd.DataFrame({output_name: [ds.count()]})
    out = merge_keyed(_count_parts(ds, group_by), group_by,
                      aggregate_by(group_by)).to_pandas()
    if out.empty:  # empty input loses its schema through to_pandas
        return pd.DataFrame({**{g: [] for g in group_by},
                             output_name: pd.Series(dtype=np.int64)})
    out = out.rename(columns={"count_all": output_name})[
        [*group_by, output_name]]
    out[output_name] = out[output_name].astype(np.int64)
    return out


def _num_distinct(ds, fields: list[str]) -> int:
    """Number of distinct field-combos WITHOUT collecting the distinct
    set to the driver when it is big: per-block distinct partials
    (bounded by block size) go through ``merge_keyed``; when they
    measure large, the merged distinct set stays a Dataset and only its
    ``count()`` reaches the driver — a billion-key ``count-distinct -n``
    never materializes its keys."""
    def partial(t: pa.Table) -> pa.Table:
        out = t.group_by(fields).aggregate([])
        return out.select(sorted(out.column_names))

    parts = ds.select_columns(fields).map_batches(
        partial, batch_format="pyarrow")
    out = merge_keyed(parts, fields,
                      pandas_combine(lambda df: df.drop_duplicates()))
    return out.num_rows if isinstance(out, pa.Table) else int(out.count())


def count_lazy(ds, group_by: list[str], output_name: str = "count"):
    """Dataset-returning ``count -g`` for output-sized results: when the
    grouped count is itself big data (e.g. per-doc_id counts over 10^12
    rows), the result must stay a distributed Dataset the caller can
    ``write_parquet`` — never a driver DataFrame. ``count``'s per-block
    partials through ``merge_keyed``, with columns ``[*group_by,
    output_name]``."""
    return _dataset(merge_keyed(_count_parts(ds, group_by), group_by,
                                aggregate_by(group_by))).rename_columns(
        {"count_all": output_name}).select_columns([*group_by, output_name])


def uniq_lazy(ds, fields: list[str], show_counts: bool = False):
    """Dataset-returning ``uniq -g`` / ``count-distinct -f`` for
    output-sized results (billions of distinct combos over 10^12
    rows): the distinct set stays a distributed Dataset the caller can
    ``write_parquet`` — never a driver DataFrame. Runs
    :func:`count_lazy`."""
    out = count_lazy(ds, fields)
    return out if show_counts else out.select_columns(fields)


def count_distinct(ds, fields: list[str], n: bool = False,
                   output_name: str = "count") -> pd.DataFrame:
    """Verb ``count-distinct -f fields`` (uniq.go:27-33): count of records
    per distinct field-combo; ``-n`` -> number of distinct combos
    (streaming — see _num_distinct)."""
    if n:
        return pd.DataFrame({output_name: [_num_distinct(ds, fields)]})
    return count(ds.select_columns(fields), group_by=fields,
                 output_name=output_name)


def uniq(ds, fields: list[str], show_counts: bool = False,
         show_num_distinct: bool = False) -> pd.DataFrame:
    """Verb ``uniq -g`` (uniq.go:282-366): distinct value combos;
    ``-c`` adds counts; ``-n`` -> count only. Output order is undefined
    (Miller: first-seen) — sort by fields for determinism."""
    if show_num_distinct:
        return pd.DataFrame({"count": [_num_distinct(ds, fields)]})
    res = count(ds.select_columns(fields), group_by=fields)
    res = res.sort_values(fields).reset_index(drop=True)
    if not show_counts:
        res = res[fields]
    return res


def count_similar(ds, group_by: list[str], counter_name: str = "count"):
    """Verb ``count-similar`` (count_similar.go): append the count of
    records sharing the group key to every record. Two-pass: small
    grouped count -> broadcast map-side join (no wide shuffle)."""
    counts = count(ds, group_by=group_by, output_name=counter_name)
    return _broadcast_join(ds, counts, on=group_by)


# ---------------------------------------------------------------------------
# stats1 / stats2  (stats1.go, stats2.go)
# ---------------------------------------------------------------------------

def stats1(ds, accs: list[str], fields: list[str],
           group_by: list[str] | None = None, interpolated: bool = False) -> pd.DataFrame:
    """Verb ``stats1 -a accs -f fields [-g group]`` (stats1.go:249-338).

    Moment accumulators stream via partial aggregation. Percentile
    accumulators (pNN/median/mad) are exact and mode/antimode/
    distinct_count use the deterministic (count, value) tie-break in
    place of Miller's first-seen rule; both read one (group, value)
    count table per field (``engine.groupby.value_counts``), and the
    percentiles are ranked off it by ``grouped_percentiles``. The
    approximate path is the sketches.
    """
    group_by = group_by or []
    moment = [a for a in accs if a in _MOMENT_ACCS]
    pctls = [a for a in accs if a.startswith("p") and a[1:].replace(".", "").isdigit()]
    extra = [a for a in accs if a in ("median", "mad")]
    modes = [a for a in accs if a in ("mode", "antimode", "distinct_count")]
    unknown = set(accs) - set(moment) - set(pctls) - set(extra) - set(modes)
    if unknown:
        raise ValueError(f"unsupported stats1 accumulators: {sorted(unknown)}")

    results: list[pd.DataFrame] = []
    if moment:
        results.append(grouped_stats(ds, group_by, fields, moment))
    ps = [float(a[1:]) for a in pctls]
    for f in fields:
        counts = value_counts(ds, group_by, f) if modes else None
        if pctls or extra:
            r = grouped_percentiles(ds, group_by, f, ps, interpolated=interpolated,
                                    extra_accs=extra, counts=counts)
            # Miller names outputs by the REQUESTED acc string (p05
            # stays f_p05, not the canonical f_p5)
            ren = {}
            for a, p in zip(pctls, ps):
                canon = f"{f}_p{int(p) if p.is_integer() else p}"
                if canon != f"{f}_{a}" and canon in r.columns:
                    ren[canon] = f"{f}_{a}"
            results.append(r.rename(columns=ren) if ren else r)
        if modes:
            results.append(_value_stats(counts, group_by, f, modes))

    out = results[0]
    for r in results[1:]:
        out = out.merge(r, on=group_by, how="outer") if group_by \
            else pd.concat([out, r], axis=1)
    # Miller emits fields in (field, acc) request order
    ordered = list(group_by)
    for f in fields:
        for a in accs:
            col = f"{f}_{a}"
            if col in out.columns:
                ordered.append(col)
    return out[ordered]


def _value_stats(merged, group_by: list[str], field: str,
                 modes: list[str]) -> pd.DataFrame:
    """distinct_count / mode / antimode from ``field``'s (group, value)
    count table ``merged`` (``value_counts``). A driver fold gives the
    table itself, reduced to one candidate row per group. When the
    counts measure large they stay distributed: per-block per-group
    CANDIDATES (arg-max/arg-min count + distinct partials) ->
    ``merge_partials`` of the candidates, so the distinct-value table
    never lands on the driver.

    Tie-break: highest/lowest count, then smallest value
    (deterministic; Miller uses first-seen, stats1_accumulators.go:367-405)."""
    keys = list(group_by) if group_by else []
    cand_cols = keys + ["__mode_v", "__mode_n", "__anti_v", "__anti_n", "__dc"]

    kk = keys or ["__g"]

    def best(df: pd.DataFrame, v: str, n: str, desc: bool) -> pd.DataFrame:
        return (df.sort_values([n, v], ascending=[not desc, True])
                  .drop_duplicates(subset=kk))

    def pick(df: pd.DataFrame, mode: tuple, anti: tuple, dc: tuple):
        # one row per group: mode (count desc, then value asc), antimode
        # (count asc, then value asc) and distinct count. Both sides of
        # the key merge are row subsets of df, so they share its key
        # dtype (a separate groupby(...).size() frame types an all-null
        # key float64, and pandas refuses that merge)
        df = df if keys else df.assign(__g=0)
        df = df.assign(__dc=df.groupby(kk, sort=False, dropna=False)[dc[0]]
                       .transform(dc[1]))
        m = best(df, *mode, desc=True)[[*kk, *mode, "__dc"]].set_axis(
            [*kk, "__mode_v", "__mode_n", "__dc"], axis=1)
        a = best(df, *anti, desc=False)[[*kk, *anti]].set_axis(
            [*kk, "__anti_v", "__anti_n"], axis=1)
        return m.merge(a, on=kk)[cand_cols]

    def candidates(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({c: pd.Series(dtype=object) if c.endswith("_v")
                                 or c in keys else pd.Series(dtype=np.int64)
                                 for c in cand_cols})
        return pick(df, (field, "__n"), (field, "__n"), (field, "size"))

    def combine_cands(df: pd.DataFrame) -> pd.DataFrame:
        # combiner over candidate rows (one per block × group): winner
        # of winners is exact because __n/__dc are already global per
        # (group, value) when candidates are formed
        if df.empty:
            return df
        return pick(df, ("__mode_v", "__mode_n"), ("__anti_v", "__anti_n"),
                    ("__dc", "sum"))

    # a driver fold's counts are all there is: one candidate per group
    cand = candidates(merged.to_pandas()) if isinstance(merged, pa.Table) \
        else merge_partials(merged.map_batches(candidates, batch_format="pandas"),
                            combine_cands, batch_format="pandas")
    # the driver's combine_cands leaves ONE row per group; every value
    # null leaves no candidate, so no mode/antimode rows at all
    out = combine_cands(cand) if len(cand) else \
        pd.DataFrame({c: [] for c in cand_cols})
    res = out[keys].copy() if keys else pd.DataFrame(index=out.index)
    if "distinct_count" in modes:
        res[f"{field}_distinct_count"] = out["__dc"].to_numpy()
    if "mode" in modes:
        res[f"{field}_mode"] = out["__mode_v"].to_numpy()
    if "antimode" in modes:
        res[f"{field}_antimode"] = out["__anti_v"].to_numpy()
    return res.reset_index(drop=True)


def stats2(ds, accs: list[str], field_pairs: list[tuple[str, str]],
           group_by: list[str] | None = None) -> pd.DataFrame:
    """Verb ``stats2 -a corr,cov,r2,linreg-ols -f x,y`` (stats2.go:22):
    bivariate stats from mergeable moment sums."""
    from miller_ray.engine import exact

    group_by = group_by or []
    frames = []
    for x, y in field_pairs:
        base = grouped_stats(ds, group_by, [x, y],
                             ["count", "sum", "var"])  # var forces s2 partials
        # need sumxy: dedicated partial pass
        sxy = _sum_xy(ds, group_by, x, y)
        m = base.merge(sxy, on=group_by) if group_by else pd.concat([base, sxy], axis=1)
        n = m[f"{x}_count"].to_numpy(dtype=np.float64)
        sumx, sumy = m[f"{x}_sum"].to_numpy(), m[f"{y}_sum"].to_numpy()
        # recover raw sumx2 from var: sumx2 = var*(n-1) + sumx^2/n
        sumx2 = m[f"{x}_var"].to_numpy() * (n - 1) + sumx * sumx / n
        sumy2 = m[f"{y}_var"].to_numpy() * (n - 1) + sumy * sumy / n
        sumxy = m["__sumxy"].to_numpy()
        out = m[group_by].copy() if group_by else pd.DataFrame(index=m.index)
        prefix = f"{x}_{y}_"
        for a in accs:
            if a == "cov":
                out[prefix + "cov"] = exact.finalize_cov(n, sumx, sumy, sumxy)
            elif a == "corr":
                out[prefix + "corr"] = exact.finalize_corr(n, sumx, sumx2, sumy, sumy2, sumxy)
            elif a == "r2":
                out[prefix + "r2"] = exact.finalize_r2(n, sumx, sumx2, sumy, sumy2, sumxy)
            elif a == "linreg-ols":
                mm, bb = exact.finalize_linreg_ols(n, sumx, sumx2, sumxy, sumy)
                out[prefix + "m"] = mm
                out[prefix + "b"] = bb
                out[prefix + "n"] = n.astype(np.int64)
            elif a == "linreg-pca":
                mm, bb, qq = exact.finalize_linreg_pca(n, sumx, sumx2,
                                                       sumy, sumy2, sumxy)
                out[prefix + "pca_m"] = mm
                out[prefix + "pca_b"] = bb
                out[prefix + "pca_n"] = n.astype(np.int64)
                out[prefix + "pca_quality"] = qq
            else:
                raise ValueError(f"unsupported stats2 accumulator: {a}")
        frames.append(out)
    res = frames[0]
    for f in frames[1:]:
        res = res.merge(f, on=group_by) if group_by else pd.concat([res, f], axis=1)
    return res.reset_index(drop=True)


def _sum_xy(ds, group_by: list[str], x: str, y: str) -> pd.DataFrame:
    keys = group_by or ["__g"]

    def partial(t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in group_by} if group_by else {
            "__g": pa.array(np.zeros(t.num_rows, dtype=np.int8))}
        fx = pc.cast(t[x], pa.float64())
        fy = pc.cast(t[y], pa.float64())
        cols["__xy"] = pc.multiply(fx, fy)
        return pa.table(cols).group_by(keys).aggregate([("__xy", "sum")])

    parts = ds.select_columns(list(dict.fromkeys(group_by + [x, y]))).map_batches(
        partial, batch_format="pyarrow")
    out = merge_keyed(parts, keys, aggregate_by(keys)).to_pandas()
    return out.rename(columns={"__xy_sum": "__sumxy"}).reindex(
        columns=[*group_by, "__sumxy"])


# ---------------------------------------------------------------------------
# top / most-frequent / histogram / fraction
# ---------------------------------------------------------------------------

def top(ds, field: str, n: int = 1, group_by: list[str] | None = None,
        smallest: bool = False) -> pd.DataFrame:
    """Verb ``top -n N -f field [-g group]`` (top.go:146-182): the N
    largest (``-a`` min: smallest) values per group. Output: group keys +
    ``top_idx`` (1-based) + ``<field>_top``, each group's rows in value
    order. Ties: value order then arbitrary among equal values (Miller
    keeps first-seen). Records with a null group key form one group
    (Miller skips records lacking the group field). The per-group trim
    of :func:`_ends` by value is the whole fold."""
    group_by = group_by or []
    pdf = _ends(ds.select_columns([*group_by, field]), n, group_by, [field],
                ascending=smallest).to_pandas()
    if pdf.empty:  # empty input loses its schema through to_pandas
        pdf = pd.DataFrame({c: pd.Series(dtype=object)
                            for c in group_by + [field]})
    # a group's rows all leave one trim, which sorted them by value
    top_idx = pdf.groupby(group_by, sort=False, dropna=False).cumcount() \
        .to_numpy() + 1 if group_by else np.arange(1, len(pdf) + 1)
    return pd.DataFrame({
        **{k: pdf[k].to_numpy() for k in group_by},
        "top_idx": top_idx.astype(np.int64),
        f"{field}_top": pdf[field].to_numpy(),
    })


def most_frequent(ds, fields: list[str], n: int = 1, descending: bool = True,
                  output_name: str = "count") -> pd.DataFrame:
    """Verbs ``most-frequent`` / ``least-frequent``
    (most_or_least_frequent.go:24-39). Tie-break: count then value asc
    (Miller: first-seen)."""
    vc = count(ds.select_columns(fields), group_by=fields, output_name=output_name)
    vc = vc.sort_values([output_name] + fields,
                        ascending=[not descending] + [True] * len(fields))
    return vc.head(n).reset_index(drop=True)


def histogram(ds, fields: list[str], lo: float, hi: float, nbins: int = 20) -> pd.DataFrame:
    """Verb ``histogram --lo --hi --nbins`` (histogram.go:247-266):
    values in [lo, hi) binned by int((x-lo)*mul); x == hi joins the last
    bin; values outside are dropped. Output: bin_lo, bin_hi + one count
    column per field."""
    mul = nbins / (hi - lo)

    def partial(t: pa.Table) -> pa.Table:
        out = {}
        for f in fields:
            x = t[f].to_numpy(zero_copy_only=False).astype(np.float64)
            ok = (x >= lo) & (x < hi)
            idx = ((x[ok] - lo) * mul).astype(np.int64)
            counts = np.bincount(idx, minlength=nbins).astype(np.int64)
            counts[nbins - 1] += int((x == hi).sum())
            out[f"{f}_count"] = counts
        out["bin"] = np.arange(nbins, dtype=np.int64)
        return pa.table(out)

    # nbins rows per block whatever the input: a bounded partial
    combine = aggregate_by(["bin"])
    left = merge_partials(
        ds.select_columns(fields).map_batches(partial, batch_format="pyarrow"),
        combine)
    merged = combine(left).to_pandas() if left.num_rows else pd.DataFrame()
    if merged.empty:  # no input blocks at all: every bin counts zero
        merged = pd.DataFrame({"bin": np.arange(nbins, dtype=np.int64),
                               **{f"{f}_count": np.zeros(nbins, np.int64)
                                  for f in fields}})
    merged = merged.sort_values("bin").reset_index(drop=True)
    width = (hi - lo) / nbins
    out = pd.DataFrame({"bin_lo": lo + merged["bin"] * width,
                        "bin_hi": lo + (merged["bin"] + 1) * width})
    for f in fields:
        out[f"{f}_count"] = merged[f"{f}_count"].astype(np.int64)
    return out


def fraction(ds, fields: list[str], group_by: list[str] | None = None,
             percent: bool = False):
    """Verb ``fraction -f fields [-g group]`` (fraction.go:44-139):
    value / per-group column total, appended as <field>_fraction.
    Two-pass: tiny grouped sums -> broadcast divide (streams)."""
    group_by = group_by or []
    sums = grouped_stats(ds, group_by, fields, ["sum"])
    import ray

    sums_ref = ray.put(sums)
    mult = 100.0 if percent else 1.0
    suffix = "_fraction_percent" if percent else "_fraction"

    def divide(t: pa.Table) -> pa.Table:
        s = ray.get(sums_ref)
        if group_by:
            key_df = t.select(group_by).to_pandas()
            m = key_df.merge(s, on=group_by, how="left")
            for f in fields:
                denom = m[f"{f}_sum"].to_numpy()
                t = t.append_column(f"{f}{suffix}",
                                    pa.array(t[f].to_numpy(zero_copy_only=False) * mult / denom))
        else:
            for f in fields:
                denom = float(s[f"{f}_sum"].iloc[0])
                t = t.append_column(f"{f}{suffix}",
                                    pc.multiply(pc.cast(t[f], pa.float64()), mult / denom))
        return t

    return ds.map_batches(divide, batch_format="pyarrow")


def merge_fields(ds, accs: list[str], in_fields: list[str], out_name: str,
                 keep_inputs: bool = False, interpolated: bool = False):
    """Verb ``merge-fields -a accs -f fields -o name`` (merge_fields.go:
    15-30): stats1 accumulators horizontally across fields within each
    record — a vectorized row-wise reduce, no shuffle at all."""

    def rowwise(t: pa.Table) -> pa.Table:
        mat = np.column_stack([t[f].to_numpy(zero_copy_only=False).astype(np.float64)
                               for f in in_fields])
        if not keep_inputs:
            t = t.drop_columns([f for f in in_fields if f in t.column_names])
        srt = None
        for a in accs:
            if a == "min":
                vals = np.nanmin(mat, axis=1)
            elif a == "max":
                vals = np.nanmax(mat, axis=1)
            elif a == "sum":
                vals = np.nansum(mat, axis=1)
            elif a == "mean":
                vals = np.nanmean(mat, axis=1)
            elif a == "count":
                vals = (~np.isnan(mat)).sum(axis=1).astype(np.int64)
            elif a == "median" or (a.startswith("p") and
                                   a[1:].replace(".", "").isdigit()):
                # row-wise Miller R-type-1 percentile (NaNs sort last and
                # are excluded via per-row valid count)
                if srt is None:
                    srt = np.sort(mat, axis=1)
                    cnt = (~np.isnan(mat)).sum(axis=1)
                pp = 50.0 if a == "median" else float(a[1:])
                if interpolated:
                    # R type-7 along each row (merge_fields.go -i)
                    findex = pp / 100.0 * np.maximum(cnt - 1, 0)
                    lo = findex.astype(np.int64)
                    hi = np.minimum(lo + 1, np.maximum(cnt - 1, 0))
                    frac = findex - lo
                    r_ = np.arange(mat.shape[0])
                    vals = srt[r_, lo] * (1 - frac) + srt[r_, hi] * frac
                else:
                    idx = np.minimum((pp * cnt / 100.0).astype(np.int64),
                                     np.maximum(cnt - 1, 0))
                    vals = srt[np.arange(mat.shape[0]), idx]
            elif a in ("mode", "antimode"):
                # per-row frequency vote over <=k fields; first-seen
                # tie-break follows field order (stats1_accumulators.go
                # mode). k is tiny so the row loop is bounded.
                picks = []
                for rowv in mat:
                    vv = rowv[~np.isnan(rowv)]
                    if vv.size == 0:
                        picks.append(np.nan)
                        continue
                    cnts: dict = {}
                    for x in vv.tolist():
                        cnts[x] = cnts.get(x, 0) + 1
                    tgt = max(cnts.values()) if a == "mode" \
                        else min(cnts.values())
                    picks.append(next(x for x in cnts if cnts[x] == tgt))
                vals = np.array(picks, dtype=np.float64)
            else:
                raise ValueError(f"merge-fields acc not supported: {a}")
            t = t.append_column(f"{out_name}_{a}", pa.array(vals))
        return t

    return ds.map_batches(rowwise, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# record-level verbs (map_batches, streaming)
# ---------------------------------------------------------------------------

def cut(ds, fields: list[str], complement: bool = False):
    """Verb ``cut -f`` (cut.go): project fields (``-x`` complement)."""
    if complement:
        keep = [c for c in ds.schema().names if c not in fields]
        return ds.select_columns(keep)
    return ds.select_columns(fields)


def rename(ds, mapping: dict[str, str]):
    """Verb ``rename`` (rename.go): rename columns."""
    return ds.rename_columns(mapping)


def mlr_filter(ds, predicate):
    """Verb ``filter`` (put_or_filter.go): keep rows where a vectorized
    Arrow predicate (pa.Table -> BooleanArray) is true."""
    return ds.map_batches(lambda t: t.filter(predicate(t)), batch_format="pyarrow",
                          zero_copy_batch=True)


def put(ds, **columns):
    """Verb ``put`` for the common assignment case: new columns from
    vectorized Arrow expressions (pa.Table -> Array)."""

    def assign(t: pa.Table) -> pa.Table:
        for name, fn in columns.items():
            arr = fn(t)
            if name in t.column_names:
                t = t.set_column(t.column_names.index(name), name, arr)
            else:
                t = t.append_column(name, arr)
        return t

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def head(ds, n: int = 10, group_by: list[str] | None = None,
         order_by: str | None = None):
    """Verb ``head`` (head.go): first n records (per group with -g).
    Ungrouped relies on Dataset.limit's backpressure fast-stop —
    the analogue of Miller's downstream-done protocol. Grouped, the
    first n per group by ``order_by`` or, without it, in block order
    (Miller's stream order does not exist distributed — declare an
    order column for deterministic output): the trim of :func:`_ends`."""
    if not group_by:
        return ds.limit(n)
    return _dataset(_ends(ds, n, group_by, [order_by] if order_by else []))


def head_by(ds, n: int, order_by: str, group_by: list[str]):
    """Verb ``head -n -g`` with a declared order: first n records per
    group by ``order_by``."""
    return head(ds, n, group_by, order_by)


def _ends(ds, n: int, group_by: list[str], by: list[str],
          ascending=True, last: bool = False):
    """The first (``last``: last) n rows of ``ds`` per ``group_by`` group
    (one group when empty; a null key is a group) after a stable sort
    by ``by`` (``ascending``: a bool or one per column), or in block
    order when ``by`` is empty. Serves ``head -g``, ``tail -g``/``-o``,
    ``top``, ``top -a`` and ``sample``.

    The trim is both the per-block partial and the closed combine (the
    first n of first-n's are the first n), so at most groups × n rows
    per block reach the fold. Keyed partials fold through
    ``merge_keyed`` (a ``pa.Table`` or a Dataset); unkeyed ones through
    ``merge_partials``, then the same trim once on the driver (a
    ``pa.Table``)."""

    @pandas_combine
    def trim(df: pd.DataFrame) -> pd.DataFrame:
        if by:
            df = df.sort_values(by, ascending=ascending, kind="stable")
        ends = df.groupby(group_by, sort=False, dropna=False) if group_by else df
        return ends.tail(n) if last else ends.head(n)

    parts = ds.map_batches(trim, batch_format="pyarrow")
    if group_by:
        return merge_keyed(parts, group_by, trim)
    left = merge_partials(parts, trim)
    return trim(left) if left.num_rows else left


def tail(ds, n: int = 10, group_by: list[str] | None = None,
         order_by: str | None = None):
    """Verb ``tail`` (tail.go): last n records, per group with -g. With
    a group or ``order_by``, the last n by ``order_by`` (in block order
    without it) are the trim of :func:`_ends`. Otherwise the last n in
    block order, as an ``ordered_scan``: each block's summary is its row
    count, its carry how many of its rows come before the last n."""
    if group_by or order_by is not None:
        return _dataset(_ends(ds, n, group_by or [],
                              [order_by] if order_by else [], last=True))

    def skips(lens: list[int]) -> list[int]:
        start = sum(lens) - n
        return [start - off for off in list(accumulate(lens, initial=0))[:-1]]

    return ordered_scan(ds, None, len, skips,
                        lambda df, skip: df.iloc[max(0, skip):])


def sample(ds, k: int, seed: int = 42, group_by: list[str] | None = None) -> pd.DataFrame:
    """Verb ``sample -k`` (sample.go:186): reservoir sample of k per
    group. Distributed as a mergeable weighted reservoir: per-row
    priority = hash-seeded uniform key, the k smallest priorities per
    group (the trim of :func:`_ends`) == uniform k-sample
    (Efraimidis-Spirakis A-Res with deterministic per-row priorities)."""
    from miller_ray.hashing import hash64

    def prioritize(t: pa.Table) -> pa.Table:
        # deterministic pseudo-random priority from the row's content
        # (every column, so distinct rows do not tie: a tie would be
        # broken by the order the partials arrive in) and its position
        h = hash64(pa.array(np.arange(t.num_rows)), seed=seed)
        pri = (key_hash(t, t.column_names) ^ h).astype(np.float64) / 2**64
        return t.append_column("__pri", pa.array(pri))

    out = _ends(ds.map_batches(prioritize, batch_format="pyarrow"), k,
                group_by or [], ["__pri"]).to_pandas()
    return out.drop(columns="__pri", errors="ignore")


def decimate(ds, n: int = 10):
    """Verb ``decimate -n`` (decimate.go): keep every n-th record.
    Distributed contract: keep a deterministic 1/n of records selected
    by row-content hash (Miller's is positional; position is not stable
    under parallel scan)."""
    from miller_ray.hashing import hash64

    def pick(t: pa.Table) -> pa.Table:
        h = hash64(t[t.column_names[0]], seed=99)
        return t.filter(pa.array(h % np.uint64(n) == np.uint64(n - 1)))

    return ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)


def fill_down(ds, fields: list[str], group_by: list[str], order_by: str):
    """Verb ``fill-down -f`` (fill_down.go:112): carry last non-null
    value forward within a group, ordered by ``order_by`` (Miller uses
    stream order; distributed needs an explicit order column).

    An ``ordered_scan``: a block's summary is the last non-null value
    per (group, field); its carry is that value over all earlier
    blocks."""
    gb = list(group_by or [])

    def summarize(df: pd.DataFrame) -> dict:
        df = df.sort_values(order_by).reset_index(drop=True)
        out = {}
        for key, idx in group_index(df, gb).items():
            last = {}
            for f in fields:
                nn = df[f].iloc[idx].dropna()
                if len(nn):
                    last[f] = nn.iloc[-1]
            out[key] = last
        return out

    def apply(df: pd.DataFrame, carry: dict) -> pd.DataFrame:
        df = df.sort_values(order_by).reset_index(drop=True)
        for key, idx in group_index(df, gb).items():
            sub = df.loc[idx, fields].ffill()
            for f, v in carry.get(key, {}).items():
                sub[f] = sub[f].fillna(v)
            df.loc[idx, fields] = sub
        return df

    return ordered_scan(
        ds, gb + [order_by], summarize,
        lambda sms: running_carries(sms, lambda st, last: {**st, **last}),
        apply)


_STEP_BASES = {"delta", "shift", "shift_lag", "shift_lead", "rsum",
               "rprod", "counter", "ewma", "ratio", "from-first"}


def _parse_stepper(s: str) -> tuple[str, int]:
    """Split ``shift_lag_2`` -> (shift_lag, 2); plain names get count 1.
    Raises ValueError for unknown names and non-positive counts
    (step.go stepperInputFromName: 'count must be a positive integer')."""
    if s in _STEP_BASES:
        return s, 1
    for base in ("shift_lag", "shift_lead", "shift", "delta", "ratio"):
        if s.startswith(base + "_"):
            tail = s[len(base) + 1:]
            try:
                n = int(tail)
            except ValueError:
                break
            if n <= 0:
                raise ValueError(
                    f'mlr step: stepper "{s}": count must be a positive integer')
            return base, n
    raise ValueError(f"unsupported stepper: {s}")


def step(ds, fields: list[str], steppers: list[str], group_by: list[str],
         order_by: str, ewma_alpha: float = 0.5,
         ewma_alphas: list[str] | None = None,
         ewma_suffixes: list[str] | None = None):
    """Verb ``step -a delta,shift,rsum,counter,ewma`` (step.go:631-712):
    per-group successive-record functions over an explicit order column.
    Parameterized lag steppers (``shift_lag_2``, ``delta_3``,
    ``ratio_2``, ``shift_lead_2``; step.go stepperInputFromName) and
    multi-weight EWMA (``-d 0.1,0.9`` -> columns ``f_ewma_0.1`` …;
    ``-o smooth,rough`` renames the suffixes, step.go:1436-1464) are
    supported. With ``ewma_alphas=None`` the single ``ewma_alpha``
    emits the legacy ``f_ewma`` column.

    An ``ordered_scan``: a block's summary per group is its count, sum,
    product, first value, first and last K values and EWMA end state
    (linear in the incoming state: e_end = A + (1-alpha)^n * e_in); its
    carry is those folded over all earlier blocks, plus the next K
    values from later blocks (shift_lead at lag K)."""
    parsed = [(s,) + _parse_stepper(s) for s in steppers]
    need_lag = max([n for _, b, n in parsed
                    if b in ("delta", "shift", "shift_lag", "ratio")],
                   default=0)
    need_lead = max([n for _, b, n in parsed if b == "shift_lead"],
                    default=0)
    want_ewma = any(b == "ewma" for _, b, _n in parsed)
    if ewma_alphas is not None:
        alphas = [float(a) for a in ewma_alphas]
        esfx = list(ewma_suffixes) if ewma_suffixes else list(ewma_alphas)
        ecols = [f"_ewma_{s}" for s in esfx]
    else:
        alphas = [ewma_alpha]
        ecols = ["_ewma"]
    gb = list(group_by or [])

    def summarize(df: pd.DataFrame) -> dict:
        df = df.sort_values(order_by).reset_index(drop=True)
        cols = {f: df[f].to_numpy(dtype=np.float64) for f in fields}
        out = {}
        for key, idx in group_index(df, gb).items():
            d = {"cnt": len(idx)}
            for f in fields:
                x = cols[f][idx]
                d[f"{f}:sum"] = float(np.nansum(x))
                d[f"{f}:prod"] = float(np.nanprod(x))
                d[f"{f}:first"] = float(x[0])
                if need_lag:
                    d[f"{f}:lastK"] = x[-need_lag:].tolist()
                if need_lead:
                    d[f"{f}:firstK"] = x[:need_lead].tolist()
                if want_ewma:
                    for k, a in enumerate(alphas):
                        # A = recursive EWMA seeded by a zero carry;
                        # ewma = end state with no carry (first seeds)
                        s0 = pd.Series(np.concatenate([[0.0], x]))
                        d[f"{f}:ewmA:{k}"] = float(
                            s0.ewm(alpha=a, adjust=False).mean().iloc[-1])
                        d[f"{f}:ewma:{k}"] = float(pd.Series(x).ewm(
                            alpha=a, adjust=False).mean().iloc[-1])
            out[key] = d
        return out

    def fold(st: dict, d: dict) -> dict:
        new = {"cnt": st["cnt"] + d["cnt"]}
        for f in fields:
            new[f"{f}:sum"] = st[f"{f}:sum"] + d[f"{f}:sum"]
            new[f"{f}:prod"] = st[f"{f}:prod"] * d[f"{f}:prod"]
            new[f"{f}:first"] = st[f"{f}:first"]
            if need_lag:
                new[f"{f}:lastK"] = (st[f"{f}:lastK"]
                                     + d[f"{f}:lastK"])[-need_lag:]
            for k, a in enumerate(alphas if want_ewma else []):
                new[f"{f}:ewma:{k}"] = (d[f"{f}:ewmA:{k}"]
                                        + (1.0 - a) ** d["cnt"]
                                        * st[f"{f}:ewma:{k}"])
        return new

    def lead(later: dict, d: dict) -> dict:
        return {f"{f}:firstK": (d[f"{f}:firstK"]
                                + later[f"{f}:firstK"])[:need_lead]
                for f in fields}

    def carries(summaries: list) -> list:
        before = running_carries(summaries, fold)
        # shift_lead needs the next K same-group values, folded
        # backwards over the following blocks
        after = running_carries(summaries[::-1], lead)[::-1] if need_lead \
            else [{}] * len(summaries)
        return list(zip(before, after))

    sfx = {"from-first": "from_first"}

    def apply(df: pd.DataFrame, carry: tuple) -> pd.DataFrame:
        before, after = carry
        df = df.sort_values(order_by).reset_index(drop=True)
        for key, idx in group_index(df, gb).items():
            cr = before.get(key, {})
            nx = after.get(key, {})
            for f in fields:
                x = df.loc[idx, f].to_numpy(dtype=np.float64)
                L = np.asarray(cr.get(f"{f}:lastK", []), dtype=np.float64)
                R = np.asarray(nx.get(f"{f}:firstK", []), dtype=np.float64)

                def lag(n: int) -> np.ndarray:
                    full = np.concatenate([L, x])
                    pos = len(L) + np.arange(len(x)) - n
                    v = np.where(pos >= 0, full[np.maximum(pos, 0)], np.nan)
                    return v

                for s, b, n in parsed:
                    if b == "ewma":
                        for k, a in enumerate(alphas):
                            ein = cr.get(f"{f}:ewma:{k}")
                            if ein is not None:
                                e = pd.Series(
                                    np.concatenate([[ein], x])).ewm(
                                    alpha=a, adjust=False).mean() \
                                    .to_numpy()[1:]
                            else:
                                e = pd.Series(x).ewm(
                                    alpha=a, adjust=False).mean() \
                                    .to_numpy()
                            col, v = f"{f}{ecols[k]}", e
                            if col not in df.columns:
                                df[col] = np.nan
                            df.loc[idx, col] = v
                        continue
                    if b == "delta":
                        pv = lag(n)
                        v = x - pv
                        v[np.isnan(pv)] = 0.0
                    elif b in ("shift", "shift_lag"):
                        v = lag(n)
                    elif b == "shift_lead":
                        full = np.concatenate([x, R])
                        pos = np.arange(len(x)) + n
                        v = np.where(pos < len(full),
                                     full[np.minimum(pos, len(full) - 1)],
                                     np.nan)
                    elif b == "rsum":
                        v = np.cumsum(x) + cr.get(f"{f}:sum", 0.0)
                    elif b == "rprod":
                        v = np.cumprod(x) * cr.get(f"{f}:prod", 1.0)
                    elif b == "counter":
                        v = np.arange(1, len(x) + 1, dtype=np.int64) \
                            + int(cr.get("cnt", 0))
                    elif b == "ratio":
                        pv = lag(n)
                        v = x / pv
                        # no previous value: ratio is 1, not NaN
                        # (step.go stepperRatio, FromInt(1))
                        v[np.isnan(pv)] = 1.0
                    else:  # from-first
                        v = x - cr.get(f"{f}:first", x[0])
                    col = f"{f}_{sfx.get(s, s)}"
                    if col not in df.columns:
                        df[col] = np.nan
                    df.loc[idx, col] = v
        return df

    return ordered_scan(ds, gb + [order_by], summarize, carries, apply)


def _rank_sorted(ds, field: str, group_by: list[str],
                 output_name: str):
    """Sort-based competition rank for NEAR-UNIQUE value columns (e.g.
    continuous floats), where the (group, value)->rank lookup table
    would be as big as the data and a broadcast would not fit. Two
    ``ordered_scan``s: the first, unsorted, tags each row with its
    global row id (summary: row count; carry: rows in earlier blocks);
    the second, sorted by (group..., value), ranks locally (summary: the
    group and value run at the block's end; carry: the run continuing
    into the block). A final sort by row id restores record order. Two
    all-to-all sorts of the full stream: the honest price of ranking
    values that never repeat."""
    gb = list(group_by or [])

    tagged = ordered_scan(
        ds, None, len,
        lambda counts: list(accumulate(counts, initial=0))[:-1],
        lambda df, first: df.assign(
            __rk=first + np.arange(len(df), dtype=np.int64)))

    def _run_edges(df: pd.DataFrame):
        """(group-change, run-change) boolean arrays; row 0 is True."""
        n = len(df)
        gch = np.zeros(n, dtype=bool)
        gch[0] = True
        for c in gb:
            v = df[c].to_numpy()
            gch[1:] |= v[1:] != v[:-1]
        vch = gch.copy()
        fv = df[field].to_numpy()
        vch[1:] |= fv[1:] != fv[:-1]
        return gch, vch

    def summarize(df: pd.DataFrame) -> dict:
        gch, vch = _run_edges(df)
        last_gstart = int(np.flatnonzero(gch)[-1])
        last_rstart = int(np.flatnonzero(vch)[-1])
        return {
            "last_g": tuple(df[c].iloc[-1] for c in gb),
            "last_v": df[field].iloc[-1],
            "n_last_group": len(df) - last_gstart,
            "local_start_last_run": last_rstart - last_gstart,
        }

    def carries(summaries: list) -> list:
        # state = (group, rows-so-far-in-group, last value, rank
        # assigned to that value) for the group touching the block's
        # trailing edge; each block's INCOMING state is its carry.
        # Sorted order guarantees only that one group/run can span.
        state = (None, 0, None, 0)
        out = []
        for s in summaries:
            out.append(state)
            g0, P, v0, r0 = state
            Pg = P if s["last_g"] == g0 else 0
            total = s["n_last_group"] + Pg
            if (s["last_g"] == g0 and s["last_v"] == v0
                    and s["local_start_last_run"] == 0):
                r_last = r0  # the run continues straight from the carry
            else:
                r_last = 1 + s["local_start_last_run"] + Pg
            state = (s["last_g"], total, s["last_v"], r_last)
        return out

    def apply(df: pd.DataFrame, carry: tuple) -> pd.DataFrame:
        g0, P, v0, r0 = carry
        gch, vch = _run_edges(df)
        idx = np.arange(len(df), dtype=np.int64)
        gstart = np.maximum.accumulate(np.where(gch, idx, 0))
        rstart = np.maximum.accumulate(np.where(vch, idx, 0))
        local_start = rstart - gstart
        in_g0 = np.ones(len(df), dtype=bool) if g0 is not None \
            else np.zeros(len(df), dtype=bool)
        if g0 is not None:
            for c, val in zip(gb, g0):
                in_g0 &= df[c].to_numpy() == val
        ranks = 1 + local_start + np.where(in_g0, P, 0)
        if g0 is not None:
            cont = in_g0 & (df[field].to_numpy() == v0)
            ranks[cont] = r0
        df[output_name] = ranks.astype(np.int64)
        return df

    ranked = ordered_scan(tagged, gb + [field], summarize, carries, apply)
    return sort_nulls_last(ranked, ["__rk"]).drop_columns(["__rk"])


def rank(ds, field: str, group_by: list[str] | None = None,
         output_name: str | None = None):
    """Verb ``rank`` (rank.go, EmitRank percentile_keeper.go:88-104):
    standard competition rank (1,2,2,4) of the field among all records
    (per group with -g)."""
    group_by = group_by or []
    output_name = output_name or f"{field}_rank"

    # Scale shape (grouped and ungrouped alike): a VALUE-COUNT
    # reduction keyed by (group..., value) — small relative to the
    # data whenever values repeat — then a driver-side cumsum per
    # group and a broadcast map back over the stream. No per-group
    # call: a hot group never lands on one reducer. When values
    # DON'T repeat (near-unique/continuous columns) the lookup table
    # is data-sized: merge_keyed then measures the value counts large
    # and returns a Dataset, and rank takes the sort-based path instead
    # of an unbounded broadcast.
    keys = group_by + [field]
    counts = merge_keyed(_count_parts(ds, keys), keys, aggregate_by(keys))
    if not isinstance(counts, pa.Table):
        return _rank_sorted(ds, field, group_by, output_name)
    pdf = counts.to_pandas()
    if pdf.empty:  # empty input: rank column exists, no rows
        return ds.map_batches(
            lambda t: t.append_column(
                output_name, pa.array([0] * t.num_rows, type=pa.int64())),
            batch_format="pyarrow")
    vc = pdf.rename(columns={"count_all": "count"})
    vc["count"] = vc["count"].astype(np.int64)
    vc = vc.sort_values(keys).reset_index(drop=True)
    if group_by:
        prior = vc.groupby(group_by, sort=False, dropna=False)["count"] \
            .apply(lambda s: s.cumsum().shift(1).fillna(0)) \
            .reset_index(drop=True)
        vc[output_name] = (prior + 1).astype(np.int64)
    else:
        vc[output_name] = (vc["count"].cumsum().shift(1)
                           .fillna(0) + 1).astype(np.int64)
    lookup = vc[keys + [output_name]]
    return _broadcast_join(ds, lookup, on=keys)


def sec2gmt(ds, fields: list[str], decimals: int = 0):
    """Verbs ``sec2gmt`` / ``sec2gmtdate`` (sec2gmt.go): epoch seconds ->
    ISO-8601 UTC strings, vectorized via Arrow timestamp cast."""

    def conv(t: pa.Table) -> pa.Table:
        for f in fields:
            # cast to second precision: %S on timestamp[us] renders
            # fractional seconds, which Miller's sec2gmt does not
            ts = pc.cast(pc.cast(t[f], pa.int64()), pa.timestamp("s"))
            s = pc.strftime(ts, format="%Y-%m-%dT%H:%M:%SZ")
            t = t.set_column(t.column_names.index(f), f, s)
        return t

    return ds.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)


def seqgen(start: int, stop: int, step_by: int = 1):
    """Verb ``seqgen`` (seqgen.go:18-20): counter sequence as a Dataset."""
    import ray.data as rd

    # Miller's seqgen is inclusive of stop
    n = max(0, (stop - start) // step_by + 1)

    def to_i(t: pa.Table) -> pa.Table:
        return pa.table({"i": pc.add(pc.multiply(t["id"], step_by), start)})

    return rd.range(n).map_batches(to_i, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# joins  (join.go)
# ---------------------------------------------------------------------------

def _broadcast_join(ds, small_df: pd.DataFrame, on: list[str], how: str = "left"):
    """Broadcast-hash-join: ray.put the small side once; pandas merge
    per batch (the Ray-native replacement for join.go's ingestLeftFile
    half-streaming hash join, join.go:311-330)."""
    import ray

    ref = ray.put(small_df)

    def join_batch(df: pd.DataFrame) -> pd.DataFrame:
        # ray.get of a shared ref is zero-copy from the node's object
        # store; plain tasks avoid actor-pool startup latency per query
        return df.merge(ray.get(ref), on=on, how=how)

    return ds.map_batches(join_batch, batch_format="pandas")


def join(ds, right, on: list[str], how: str = "inner"):
    """Verb ``join`` (join.go:311-330): the rows of ``ds`` and of
    ``right`` (a Dataset or a pandas DataFrame) paired on the ``on``
    columns as ``pandas.merge`` pairs them, for ``how`` in inner, left,
    right and outer.

    The right side's measured size picks the physical join. An inner or
    left join against a DataFrame, or against a Dataset whose blocks
    measure at most ``KEYED_FOLD_BYTES``, broadcasts the right side to
    plain tasks over ``ds``'s batches. Anything else, every right and
    outer join included (an unmatched right row must come out once, not
    once per left batch), co-partitions both sides with ``bucket_apply``
    and merges each bucket."""
    import ray.data as rd

    if how in ("inner", "left"):
        if isinstance(right, pd.DataFrame):
            return _broadcast_join(ds, right, on=on, how=how)
        refs, nbytes = block_refs(right)
        right = rd.from_arrow_refs(refs)
        if nbytes <= engine_merge.KEYED_FOLD_BYTES:
            return _broadcast_join(ds, right.to_pandas(), on=on, how=how)
    elif isinstance(right, pd.DataFrame):
        right = rd.from_pandas(right)
    return bucket_apply([ds, right], on, lambda l, r: l.merge(r, on=on, how=how),
                        batch_format="pandas")


def sorted_merge_join(ds, left, right_on: list[str],
                      left_on: list[str] | None = None,
                      emit_paired: bool = True,
                      emit_unpaired_left: bool = False,
                      emit_unpaired_right: bool = False,
                      lp: str = "", rp: str = "",
                      ignore_empty: bool = False):
    """Verb ``join -s`` engine path (join.go --sorted-input;
    utils/join_bucket_keeper.go:118): both sides are key-sorted, so
    equal keys form contiguous runs and pairing needs no hash of the
    full left side. Ray-native shape: ``bucket_apply`` co-partitions the
    left side (its keys renamed to the stream's) and the stream by key
    hash, so each key's runs from both sides meet in one bucket call.
    Each key group pairs left×stream rows (cartesian within the key, as
    the bucket keeper does for equal-key runs); unpaired sides emit
    under --ul/--ur.

    Works large-large: no side is ingested whole; memory is bounded by
    the largest bucket (skewed keys hurt — same caveat as the
    reference, which buffers one key's bucket).

    Output is unordered (Dataset semantics); Miller's stream order is
    a single-node streaming artifact."""
    import ray.data as rd

    left_on = left_on or right_on
    keys = list(right_on)
    lds = rd.from_pandas(left) if isinstance(left, pd.DataFrame) else left
    lnonkey = [c for c in lds.schema().names if c not in left_on]
    snonkey = [c for c in ds.schema().names if c not in keys]
    lcols = [lp + c for c in lnonkey]
    scols = [rp + c for c in snonkey]
    # unprefixed collisions: the stream side wins in paired records
    # (join.go map-put order — left first, right overwrites)
    ucols = list(dict.fromkeys(keys + lcols + scols))

    def left_side(df: pd.DataFrame) -> pd.DataFrame:
        # left key columns are read under their own names and written
        # under the stream's
        out = pd.DataFrame({k: df[src] for k, src in zip(keys, left_on)},
                           index=df.index)
        for c in lnonkey:
            out[lp + c] = df[c]
        return out

    def per_bucket(ls: pd.DataFrame, ss: pd.DataFrame) -> pd.DataFrame:
        # all rows of every key in this bucket: pair/unpair every key
        # at once with vectorized pandas merges (one Ray task per
        # BUCKET, not per distinct key)
        ss = ss.rename(columns=dict(zip(snonkey, scols)))

        def valid(d: pd.DataFrame) -> pd.Series:
            m = pd.Series(True, index=d.index)
            for k in keys:
                m &= d[k].notna()
                if ignore_empty:
                    m &= (d[k] != "")
            return m

        def unmatched(d: pd.DataFrame, other: pd.DataFrame) -> pd.DataFrame:
            matched = (pd.MultiIndex.from_frame(d[keys])
                       .isin(pd.MultiIndex.from_frame(other[keys]))
                       & valid(d).to_numpy())
            return d[~matched]

        lsv, ssv = ls[valid(ls)], ss[valid(ss)]
        parts = []
        if emit_paired and len(lsv) and len(ssv):
            # inner merge IS the per-key cartesian of equal-key runs
            parts.append(lsv.drop(columns=[c for c in lcols if c in scols])
                         .merge(ssv, on=keys, how="inner"))
        if emit_unpaired_left and len(ls):
            parts.append(unmatched(ls, ssv))
        if emit_unpaired_right and len(ss):
            parts.append(unmatched(ss, lsv))
        out = pd.concat(parts, ignore_index=True) if parts else \
            pd.DataFrame(columns=ucols)
        return out.reindex(columns=ucols)

    return bucket_apply([lds.map_batches(left_side, batch_format="pandas"), ds],
                        keys, per_bucket, batch_format="pandas")


def mlr_join(ds, left, left_on: list[str], right_on: list[str] | None = None,
             emit_paired: bool = True, emit_unpaired_left: bool = False,
             emit_unpaired_right: bool = False,
             lp: str = "left_", rp: str = "right_"):
    """Full verb ``join`` semantics (join.go:26-31, 311-330): the -f
    file is the LEFT side (fully ingested, join.go ingestLeftFile:533 —
    here a broadcast pandas table), the record stream is the RIGHT.

    - ``emit_paired`` off  == Miller ``--np``
    - ``emit_unpaired_left``  == ``--ul`` (left rows whose key paired
      with NO stream record; found via a distributed matched-key sweep
      bounded by the left key set, never the stream)
    - ``emit_unpaired_right`` == ``--ur`` (stream rows with no match)
    - ``left_on`` / ``right_on`` mirror ``-l``/``-r`` key renaming; the
      output key columns keep the STREAM's names.
    - ``lp``/``rp`` prefixes disambiguate colliding non-key field names
      (join.go --lp/--rp, defaults left_/right_).

    Output parts share one union schema (absent side null-filled) so
    the result is a single well-typed Dataset.
    """
    import ray

    right_on = right_on or left_on
    ldf = left.to_pandas() if not isinstance(left, pd.DataFrame) else left.copy()
    # resolve non-key collisions once, on column names
    lnonkey = [c for c in ldf.columns if c not in left_on]
    # stream columns discovered from schema (cheap, no execution)
    snames = ds.schema().names
    collide = [c for c in lnonkey if c in snames and c not in right_on]
    lren = {c: lp + c for c in collide}
    ldf = ldf.rename(columns=lren)
    lcols_out = [c for c in ldf.columns if c not in left_on]
    sren = {c: rp + c for c in collide if rp}  # stream side keeps name unless rp
    # Miller renames BOTH sides on collision
    out_stream_cols = [sren.get(c, c) for c in snames]
    union_cols = out_stream_cols + [c for c in lcols_out if c not in out_stream_cols]

    lref = ray.put(ldf)

    def paired_and_ur(df: pd.DataFrame) -> pd.DataFrame:
        ltab = ray.get(lref)
        df = df.rename(columns=sren)
        m = df.merge(ltab, how="left", left_on=[sren.get(c, c) for c in right_on],
                     right_on=left_on, indicator=True)
        m = m.drop(columns=[c for c in left_on if c in m.columns
                            and c not in out_stream_cols])
        parts = []
        if emit_paired:
            parts.append(m[m["_merge"] == "both"])
        if emit_unpaired_right:
            parts.append(m[m["_merge"] == "left_only"])
        out = (pd.concat(parts, ignore_index=True) if parts
               else m.iloc[0:0]).drop(columns="_merge")
        return out.reindex(columns=union_cols)

    result = ds.map_batches(paired_and_ur, batch_format="pandas")

    if emit_unpaired_left:
        # distributed sweep: per-block set of stream keys that exist in
        # the left key set (bounded by |left|), then a driver union
        lkeys = ldf[left_on].drop_duplicates()
        kref = ray.put(set(map(tuple, lkeys.itertuples(index=False))))

        def matched_keys(df: pd.DataFrame) -> pd.DataFrame:
            w = ray.get(kref)
            seen = {t for t in map(tuple, df[right_on].drop_duplicates()
                                   .itertuples(index=False)) if t in w}
            return pd.DataFrame(list(seen), columns=left_on) if seen else \
                pd.DataFrame({c: [] for c in left_on})

        matched = ds.map_batches(matched_keys, batch_format="pandas").to_pandas()
        matched_set = set(map(tuple, matched.drop_duplicates().itertuples(index=False)))
        mask = [tuple(r) not in matched_set
                for r in ldf[left_on].itertuples(index=False)]
        ul = ldf[mask].copy()
        # left key columns surface under the stream's key names
        ul = ul.rename(columns=dict(zip(left_on, right_on)))
        ul = ul.reindex(columns=union_cols)
        import ray.data as rd

        if len(ul):
            result = result.union(rd.from_pandas(ul))
    return result


# ---------------------------------------------------------------------------
# sort-family  (sort.go, tac.go, shuffle.go)
# ---------------------------------------------------------------------------

def sort(ds, keys: list[str], descending: list[bool] | bool = False):
    """Verb ``sort`` (sort.go:56-67): multi-key sort. Miller emits
    records missing the key last: null keys sort last in either
    direction."""
    return sort_nulls_last(ds, keys, descending)


def tac(ds, order_col: str):
    """Verb ``tac`` (tac.go): reverse — needs an explicit order column
    in a distributed setting."""
    return sort_nulls_last(ds, [order_col], True)


def shuffle(ds, seed: int = 42):
    """Verb ``shuffle`` (shuffle.go): random permutation."""
    return ds.random_shuffle(seed=seed)


def fill_empty(ds, fields: list[str], fill_value: str = "N/A"):
    """Verb ``fill-empty -v`` (fill_empty.go): replace empty/null string
    values with the fill string."""

    def fill(t: pa.Table) -> pa.Table:
        for f in fields:
            col = t[f]
            filled = pc.if_else(
                pc.or_kleene(pc.is_null(col), pc.equal(pc.cast(col, pa.string()), "")),
                pa.scalar(fill_value), pc.cast(col, pa.string()))
            t = t.set_column(t.column_names.index(f), f, filled)
        return t

    return ds.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


def case_verb(ds, fields: list[str], how: str = "upper"):
    """Verb ``case`` (case.go:266): upper/lower/title/sentence-case
    values (``-k`` keys variant: :func:`case_keys`)."""
    fn = {"upper": pc.utf8_upper, "lower": pc.utf8_lower,
          "title": pc.utf8_title, "sentence": pc.utf8_capitalize}[how]

    def conv(t: pa.Table) -> pa.Table:
        for f in fields:
            t = t.set_column(t.column_names.index(f), f, fn(pc.cast(t[f], pa.string())))
        return t

    return ds.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)


def _latin1_convert(ds, to_utf8: bool):
    """Verbs ``latin1-to-utf8`` / ``utf8-to-latin1``
    (transformers/latin1_to_utf8.go, utf8_to_latin1.go; byte rules in
    pkg/lib/latin1.go): convert every string value between the two
    encodings. Arrow utf8 columns cannot hold raw latin-1 bytes, so
    non-UTF8 payloads ride either as ``binary`` columns or as
    surrogateescape-escaped str under pandas object dtype — both
    handled. A utf8→latin1 conversion of a code point past U+00FF
    yields Miller's error value, rendered ``(error)``."""
    from miller_ray.functions import _l1_one

    def conv(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        for c in out.columns:
            if out[c].dtype == object:
                out[c] = out[c].map(
                    lambda x: _l1_one(x, to_utf8)
                    if isinstance(x, (str, bytes)) else x)
        return out

    return ds.map_batches(conv, batch_format="pandas")


def latin1_to_utf8(ds):
    """Reinterpret each string value's bytes as latin-1 → utf8 text."""
    return _latin1_convert(ds, True)


def utf8_to_latin1(ds):
    """Downconvert utf8 text to latin-1 bytes; ``(error)`` where
    impossible (code points above U+00FF)."""
    return _latin1_convert(ds, False)


def clean_whitespace(ds, fields: list[str]):
    """Verb ``clean-whitespace`` (clean_whitespace.go): strip + collapse
    internal whitespace in values."""

    def conv(t: pa.Table) -> pa.Table:
        for f in fields:
            s = pc.utf8_trim_whitespace(pc.cast(t[f], pa.string()))
            s = pc.replace_substring_regex(s, pattern=r"\s+", replacement=" ")
            t = t.set_column(t.column_names.index(f), f, s)
        return t

    return ds.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)


def sub(ds, fields: list[str], pattern: str, replacement: str, all_matches: bool = False):
    """Verbs ``sub``/``gsub`` (subs.go): regex substitution on fields."""

    def conv(t: pa.Table) -> pa.Table:
        for f in fields:
            s = pc.cast(t[f], pa.string())
            s = pc.replace_substring_regex(
                s, pattern=pattern, replacement=replacement,
                max_replacements=None if all_matches else 1)
            t = t.set_column(t.column_names.index(f), f, s)
        return t

    return ds.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)


def having_fields(ds, at_least: list[str]):
    """Verb ``having-fields --at-least`` (having_fields.go): with a fixed
    Arrow schema this filters rows where the fields are non-null."""

    def f(t: pa.Table) -> pa.Table:
        mask = None
        for c in at_least:
            m = pc.is_valid(t[c])
            mask = m if mask is None else pc.and_(mask, m)
        return t.filter(mask)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def sparsify(ds):
    """Verb ``sparsify`` (sparsify.go): under a fixed Arrow schema,
    empty strings become nulls (the columnar analogue of dropping
    empty-valued fields)."""

    def f(t: pa.Table) -> pa.Table:
        for i, c in enumerate(t.column_names):
            col = t[c]
            if pa.types.is_string(col.type):
                t = t.set_column(i, c, pc.if_else(pc.equal(col, ""), pa.nulls(len(col), pa.string()), col))
        return t

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def unsparsify(ds, fill: str = ""):
    """Verb ``unsparsify`` (unsparsify.go): nulls -> fill string (the
    union-of-keys across records is the Arrow schema already)."""

    def f(t: pa.Table) -> pa.Table:
        for i, c in enumerate(t.column_names):
            col = t[c]
            if pa.types.is_string(col.type):
                t = t.set_column(i, c, pc.fill_null(col, fill))
        return t

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def skip_trivial_records(ds):
    """Verb ``skip-trivial-records`` (skip_trivial_records.go): drop rows
    where every field is null/empty."""

    def f(t: pa.Table) -> pa.Table:
        mask = None
        for c in t.column_names:
            col = t[c]
            m = pc.is_valid(col)
            if pa.types.is_string(col.type):
                m = pc.and_(m, pc.not_equal(pc.fill_null(col, ""), ""))
            mask = m if mask is None else pc.or_(mask, m)
        return t.filter(mask)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# field-order / shape verbs  (label.go, reorder.go, template.go, ...)
# ---------------------------------------------------------------------------

def label(ds, names: list[str]):
    """Verb ``label`` (label.go): positionally rename the first n fields."""

    def f(t: pa.Table) -> pa.Table:
        new = list(t.column_names)
        new[: len(names)] = names
        return t.rename_columns(new)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def reorder(ds, fields: list[str], put_at_end: bool = False):
    """Verb ``reorder -f [-e]`` (reorder.go): move fields to front/back."""

    def f(t: pa.Table) -> pa.Table:
        rest = [c for c in t.column_names if c not in fields]
        order = rest + fields if put_at_end else fields + rest
        return t.select(order)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def sort_within_records(ds, reverse: bool = False):
    """Verb ``sort-within-records`` (sort_within_records.go): sort field
    names lexically within each record (columnar: reorder columns)."""

    def f(t: pa.Table) -> pa.Table:
        return t.select(sorted(t.column_names, reverse=reverse))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def regularize(ds):
    """Verb ``regularize`` (regularize.go): canonical key order for same
    key-sets. Under a fixed Arrow schema every record already shares one
    key order — identity, kept for API parity."""
    return ds


def template(ds, fields: list[str], fill=None):
    """Verb ``template -f`` (template.go): force field set & order; absent
    fields are added filled with ``fill`` (Miller: VOID), extras dropped."""

    def f(t: pa.Table) -> pa.Table:
        cols = {}
        for c in fields:
            if c in t.column_names:
                cols[c] = t[c]
            else:
                cols[c] = pa.nulls(t.num_rows, pa.string()) if fill is None else \
                    pa.array([fill] * t.num_rows)
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def grep_verb(ds, pattern: str, invert: bool = False, ignore_case: bool = False):
    """Verb ``grep`` (grep.go): regex match against the whole record
    formatted as DKVP (``k=v,k=v,...``), vectorized via Arrow string
    kernels (binary_join_element_wise -> match_substring_regex)."""

    def f(t: pa.Table) -> pa.Table:
        pieces = []
        for c in t.column_names:
            s = pc.cast(t[c], pa.string())
            pieces.append(pc.binary_join_element_wise(
                pa.array([c] * t.num_rows), pc.fill_null(s, ""), "="))
        rec = pc.binary_join_element_wise(*pieces, ",") if len(pieces) > 1 else pieces[0]
        m = pc.match_substring_regex(rec, pattern, ignore_case=ignore_case)
        return t.filter(pc.invert(m) if invert else m)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# nest / reshape / repeat  (nest.go, reshape.go, repeat.go)
# ---------------------------------------------------------------------------

def nest_explode(ds, field: str, sep: str = ";"):
    """Verb ``nest --explode --values --across-records`` (nest.go): split
    ``field`` on ``sep`` and emit one record per element. Vectorized:
    split_pattern -> list flatten with parent-row take."""

    def f(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern(pc.cast(t[field], pa.string()), sep)
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        base = t.drop_columns([field]).take(parents)
        return base.append_column(field, flat)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def nest_implode(ds, field: str, group_by: list[str], sep: str = ";"):
    """Verb ``nest --implode --values --across-records`` (nest.go): join
    the field's values across records of the same group with ``sep``.
    Deterministic order: value-sorted (Miller: stream order).

    Scale shape: values are PRE-JOINED per (block, group) inside
    map_batches, so ``merge_keyed`` moves one joined row per (block,
    group) instead of every record; its combine joins a group's parts
    into one, and the value sort and ``sep`` join run once, after the
    merge. A hot group's full value string still lands on one reducer
    — inherent to the verb's output (one record holding every
    value)."""

    NUL = "\x00"  # internal partial separator: values may contain sep

    combine = aggregate_by(group_by, NUL.join)

    def partial(t: pa.Table) -> pa.Table:
        # each value rendered as pandas renders it, one part per record
        strs = pa.array(t[field].to_pandas().astype(str), pa.string())
        return combine(t.select(group_by).append_column("__part", strs))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df[field] = [sep.join(sorted(p.split(NUL))) for p in df.pop("__part")]
        return df

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return _dataset(merge_keyed(parts, group_by, combine)).map_batches(
        finish, batch_format="pandas")


def reshape_wide_to_long(ds, fields: list[str], key_name: str = "key",
                         value_name: str = "value"):
    """Verb ``reshape -i f1,f2 -o key,value`` (reshape.go): wide->long,
    one output record per (record, field). Streaming flat transform."""

    def f(t: pa.Table) -> pa.Table:
        keep = [c for c in t.column_names if c not in fields]
        n = t.num_rows
        parts = []
        for fld in fields:
            cols = {c: t[c] for c in keep}
            cols[key_name] = pa.array([fld] * n)
            cols[value_name] = pc.cast(t[fld], pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def reshape_long_to_wide(ds, key_field: str, value_field: str,
                         group_by: list[str], key_values: list[str] | None = None):
    """Verb ``reshape -s key,value`` (reshape.go, non-streaming half):
    long->wide. Vectorized two-phase: per-batch partial pivot (each
    (group, key) cell filled at most once globally), then a
    ``merge_keyed`` first-non-null (max) merge — no per-group Python
    calls."""
    if key_values is None:
        key_values = distinct_values(ds, key_field)
    key_values = [str(k) for k in key_values]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df.pivot_table(index=group_by, columns=key_field, values=value_field,
                           aggfunc="max")
        w = w.reindex(columns=key_values)
        w.columns = [str(c) for c in w.columns]
        return w.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas")
    return _dataset(merge_keyed(parts, group_by, aggregate_by(group_by, "max")))


def repeat(ds, n: int = 1, by_field: str | None = None):
    """Verb ``repeat -n / -f`` (repeat.go): emit each record n times
    (or per-record count from ``by_field``)."""

    def f(t: pa.Table) -> pa.Table:
        if by_field is not None:
            counts = t[by_field].to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            counts = np.full(t.num_rows, n, dtype=np.int64)
        idx = np.repeat(np.arange(t.num_rows), np.maximum(counts, 0))
        return t.take(pa.array(idx))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def bootstrap(ds, seed: int = 42):
    """Verb ``bootstrap`` (bootstrap.go): resample n records with
    replacement. Distributed contract: per-block resample of block-size
    records (deterministic seed per block content) — in expectation the
    same bootstrap distribution without a global shuffle."""
    from miller_ray.hashing import hash64

    def f(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        block_seed = int(hash64(t[t.column_names[0]], seed=seed)[:16].sum()
                         % np.uint64(2**31))
        rng = np.random.default_rng(block_seed)
        idx = rng.integers(0, t.num_rows, size=t.num_rows)
        return t.take(pa.array(np.sort(idx)))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# value formatting  (sec2gmtdate.go, subs.go ssub, format_values.go)
# ---------------------------------------------------------------------------

def sec2gmtdate(ds, fields: list[str]):
    """Verb ``sec2gmtdate`` (sec2gmtdate.go): epoch seconds -> UTC date."""

    def conv(t: pa.Table) -> pa.Table:
        for f in fields:
            ts = pc.cast(pc.cast(t[f], pa.int64()), pa.timestamp("s"))
            t = t.set_column(t.column_names.index(f), f,
                             pc.strftime(ts, format="%Y-%m-%d"))
        return t

    return ds.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)


def ssub(ds, fields: list[str], literal: str, replacement: str):
    """Verb ``ssub`` (subs.go): literal (non-regex) substitution of the
    FIRST occurrence per value."""
    import re

    pattern = re.escape(literal)

    def conv(t: pa.Table) -> pa.Table:
        for f in fields:
            s = pc.replace_substring_regex(pc.cast(t[f], pa.string()),
                                           pattern=pattern,
                                           replacement=replacement,
                                           max_replacements=1)
            t = t.set_column(t.column_names.index(f), f, s)
        return t

    return ds.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)


def gsub(ds, fields: list[str], pattern: str, replacement: str):
    """Verb ``gsub`` (subs.go): regex substitution of ALL occurrences."""
    return sub(ds, fields, pattern, replacement, all_matches=True)


def format_values(ds, float_format: str = "%.6f", int_format: str = "%d"):
    """Verb ``format-values -f/-i`` (format_values.go:199): printf-format
    numeric values by detected type (C-level np.char.mod, no Python loop
    per row)."""

    def conv(t: pa.Table) -> pa.Table:
        for i, c in enumerate(t.column_names):
            col = t[c]
            if not (pa.types.is_floating(col.type) or pa.types.is_integer(col.type)):
                continue
            fmt = float_format if pa.types.is_floating(col.type) else int_format
            x = col.to_numpy(zero_copy_only=False)
            if col.null_count:
                # int columns with nulls surface as float64+NaN; format
                # only the valid slots, re-insert nulls (Miller passes
                # absent fields through untouched)
                valid = ~pd.isna(x)
                arr = np.empty(len(x), dtype=object)
                src = x[valid]
                if pa.types.is_integer(col.type):
                    src = src.astype(np.int64)
                arr[valid] = np.char.mod(fmt, src)
                out = pa.array(arr, type=pa.string())
            else:
                out = pa.array(np.char.mod(fmt, x))
            t = t.set_column(i, c, out)
        return t

    return ds.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# summary / uniq -a / count-distinct -u / histogram --auto (summary.go, ...)
# ---------------------------------------------------------------------------

SUMMARY_ALL = ["field_type", "count", "null_count", "distinct_count", "mode",
               "sum", "mean", "stddev", "var", "skewness", "minlen", "maxlen",
               "min", "p25", "median", "p75", "max", "iqr", "lof", "lif",
               "uif", "uof"]

_SUMMARY_DEFAULT = ["field_type", "count", "mean", "min", "max",
                    "null_count", "distinct_count"]


def summary(ds, fields: list[str], summarizers: list[str] | None = None,
            exclude: list[str] | None = None) -> pd.DataFrame:
    """Verb ``summary`` (summary.go:40-76): transposed per-column
    profile. ``summarizers`` mirrors ``-a`` (full set in SUMMARY_ALL,
    fences per summary.go:53-57: lof/lif/uif/uof = p25/p75 -/+ 1.5 or
    3.0 x iqr); ``exclude`` mirrors ``-x``; default mirrors
    summaryDefaultSummarizerNames. Composed from the same mergeable
    kernels as stats1; one moment pass + one percentile pass + one
    value-count pass, each only if requested."""
    names = list(summarizers) if summarizers else list(_SUMMARY_DEFAULT)
    if exclude:
        base = summarizers or SUMMARY_ALL
        names = [n for n in base if n not in exclude]
    bad = set(names) - set(SUMMARY_ALL)
    if bad:
        raise ValueError(f"unknown summarizers: {sorted(bad)}")

    sch = ds.schema()
    types = dict(zip(sch.names, sch.types))

    def _ftype(t) -> str:
        if not isinstance(t, pa.DataType):
            # pandas-block datasets report plain `object` for string
            # columns; treat as string
            return "string"
        if pa.types.is_integer(t):
            return "int"
        if pa.types.is_floating(t):
            return "float"
        if pa.types.is_boolean(t):
            return "boolean"
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return "string"
        return "array" if pa.types.is_list(t) else "map"

    moment_req = [n for n in names if n in
                  ("count", "null_count", "sum", "mean", "stddev", "var",
                   "skewness", "minlen", "maxlen", "min", "max")]
    needs_pct = any(n in names for n in
                    ("p25", "median", "p75", "iqr", "lof", "lif", "uif", "uof"))
    needs_vc = any(n in names for n in ("mode", "distinct_count"))

    numeric = {f for f in fields
               if isinstance(types[f], pa.DataType)
               and (pa.types.is_integer(types[f])
                    or pa.types.is_floating(types[f]))}
    moments = grouped_stats(ds, [], fields, [m for m in moment_req
                                             if m not in ("skewness",)]) \
        if moment_req else None
    if (moments is not None and moments.empty) or \
            (moments is None and ds.limit(1).count() == 0):
        return pd.DataFrame({c: [] for c in ["field_name"] + names})
    skew = grouped_stats(ds, [], [f for f in fields if f in numeric],
                         ["skewness"]) if "skewness" in names and numeric else None
    counts = {f: value_counts(ds, [], f) for f in fields} if needs_vc else {}
    pcts = {f: grouped_percentiles(ds, [], f, [25, 50, 75], counts=counts.get(f))
            for f in fields} if needs_pct else {}
    vcs = {f: _value_stats(counts[f], [], f,
                           [m for m in ("mode", "distinct_count") if m in names])
           for f in fields} if needs_vc else {}

    rows = []
    for f in fields:
        row: dict[str, Any] = {"field_name": f}
        for n in names:
            if n == "field_type":
                row[n] = _ftype(types[f])
            elif n in ("count", "null_count", "minlen", "maxlen"):
                row[n] = int(moments[f"{f}_{n}"].iloc[0])
            elif n in ("sum", "mean", "stddev", "var", "min", "max"):
                row[n] = float(moments[f"{f}_{n}"].iloc[0])
            elif n == "skewness":
                row[n] = (float(skew[f"{f}_skewness"].iloc[0])
                          if skew is not None and f in numeric else np.nan)
            elif n == "mode":
                row[n] = vcs[f][f"{f}_mode"].iloc[0]
            elif n == "distinct_count":
                row[n] = int(vcs[f][f"{f}_distinct_count"].iloc[0])
            elif n in ("p25", "median", "p75", "iqr", "lof", "lif", "uif", "uof"):
                p25 = float(pcts[f][f"{f}_p25"].iloc[0])
                p50 = float(pcts[f][f"{f}_p50"].iloc[0])
                p75 = float(pcts[f][f"{f}_p75"].iloc[0])
                iqr = p75 - p25
                row[n] = {"p25": p25, "median": p50, "p75": p75, "iqr": iqr,
                          "lof": p25 - 3.0 * iqr, "lif": p25 - 1.5 * iqr,
                          "uif": p75 + 1.5 * iqr, "uof": p75 + 3.0 * iqr}[n]
        rows.append(row)
    return pd.DataFrame(rows)


def uniq_all(ds) -> pd.DataFrame:
    """Verb ``uniq -a`` (uniq.go:392-475): distinct whole records.
    Exact dedup = groupby over every column (hash shuffle keyed by the
    full record)."""
    cols = ds.schema().names
    return count(ds, group_by=cols).drop(columns=["count"])


def count_distinct_unlashed(ds, fields: list[str]) -> pd.DataFrame:
    """Verb ``count-distinct -u`` (uniq.go:65-160): per-field (unlashed)
    value counts — output (field, value, count) rows."""
    frames = []
    for f in fields:
        vc = count(ds.select_columns([f]), group_by=[f])
        frames.append(pd.DataFrame({
            "field": f, "value": vc[f].astype(str), "count": vc["count"]}))
    return pd.concat(frames, ignore_index=True)


def histogram_auto(ds, fields: list[str], nbins: int = 20) -> pd.DataFrame:
    """Verb ``histogram --auto`` (histogram.go): lo/hi from the data.
    Miller buffers all records; here it is a tiny min/max pre-pass then
    the ordinary mergeable binned count — two streaming passes, no
    buffer-all."""
    mm = grouped_stats(ds, [], fields, ["min", "max"])
    lo = min(float(mm[f"{f}_min"].iloc[0]) for f in fields)
    hi = max(float(mm[f"{f}_max"].iloc[0]) for f in fields)
    return histogram(ds, fields, lo=lo, hi=hi, nbins=nbins)


# ---------------------------------------------------------------------------
# tee / split sinks  (tee.go, split.go)
# ---------------------------------------------------------------------------

def tee(ds, path: str):
    """Verb ``tee`` (tee.go): write the stream to a sink mid-chain and
    pass records through. Ray-native: STREAM the write (partitioned
    parquet, backpressured — never a full object-store materialize,
    which would pin the whole corpus), then hand downstream stages a
    fresh streaming read of the files just written."""
    import ray.data as rd

    ds.write_parquet(path)
    return rd.read_parquet(path)


def split_write(ds, out_dir: str, by: str | None = None, n: int | None = None,
                m: int | None = None):
    """Verb ``split -g key | -n cap | -m k`` (split.go:21-25): write
    records to multiple files. ``-g`` -> hive-partitioned parquet by
    key (one directory per distinct value — the resumable-output
    layout); ``-n`` -> repartition to ceil(rows/n) files; ``-m`` ->
    round-robin into exactly m files (repartition contract: equal-size
    blocks, not Miller's strict record-order rotation)."""
    if by is not None:
        ds.write_parquet(out_dir, partition_cols=[by])
    elif n is not None:
        total = ds.count()
        ds.repartition(max(1, -(-total // n))).write_parquet(out_dir)
    elif m is not None:
        ds.repartition(m).write_parquet(out_dir)
    else:
        ds.write_parquet(out_dir)
    return out_dir


def top_full_records(ds, field: str, n: int = 1,
                     group_by: list[str] | None = None,
                     tiebreak: str | None = None) -> pd.DataFrame:
    """Verb ``top -a`` (top.go): full records of the top-n by value per
    group (single value-field form), the trim of :func:`_ends` by value
    descending — no global sort. ``tiebreak`` names a secondary sort
    column (ascending) so equal values select deterministically
    (Miller keeps first-seen; stream order does not exist distributed)."""
    return _ends(ds, n, group_by or [], [field] + ([tiebreak] if tiebreak else []),
                 [False] + ([True] if tiebreak else [])).to_pandas()


def cumulative_fraction(ds, field: str, group_by: list[str] | None = None):
    """Verb ``fraction -c`` (fraction.go:44-45, two-pass): cumulative
    fraction of the per-group column total, in descending value order
    (Miller: stream order — distributed needs a declared order).

    An ``ordered_scan`` over ``ds`` sorted by (group, value desc): each
    block's summary is the sums of its first and last group; its carry
    is the sums of the blocks before it and the group totals, both
    folded from the summaries on the driver (``running_totals``), so no
    pass precedes the sort. Records with a null group key get no
    fraction. Returns a Dataset in that order."""
    group_by = group_by or []
    name = f"{field}_cumfrac"

    def sums(df: pd.DataFrame) -> dict:
        ends = list(group_index(df, group_by).items())
        return {k: float(df[field].iloc[idx].sum()) for k, idx in ends[:1] + ends[-1:]}

    def apply(df: pd.DataFrame, carry) -> pd.DataFrame:
        before, totals = carry
        out = np.full(len(df), np.nan)
        for k, idx in group_index(df, group_by).items():
            x = df[field].iloc[idx]
            out[idx] = (before.get(k, 0.0) + x.cumsum().to_numpy(dtype=np.float64)) \
                / totals.get(k, x.sum())
        return df.assign(**{name: out})

    srt = sort_nulls_last(ds, group_by + [field], [False] * len(group_by) + [True])
    return ordered_scan(srt, None, sums, running_totals, apply)


def _edge_rows(m: int, n: int):
    """``ordered_scan`` summary and carries for window verbs: a block's
    summary is its first n and last m rows; its carry is the m rows
    before it and the n rows after it in sorted order (``None`` at the
    ends), gathered across as many neighbouring blocks as it takes."""

    def summarize(df: pd.DataFrame) -> tuple:
        return df.head(n), df.tail(m)

    def carries(summaries: list) -> list:
        before, after, run = [], [], None
        for _, tail in summaries:
            before.append(run)
            run = pd.concat([run, tail]).tail(m)
        run = None
        for head, _ in reversed(summaries):
            after.append(run)
            run = pd.concat([head, run]).head(n)
        return list(zip(before, reversed(after)))

    return summarize, carries


def stats1_windowed(ds, accs: list[str], fields: list[str], group_by: list[str],
                    order_by: str, window: int):
    """Verb ``stats1 -w n`` (stats1.go:478-550): per-group trailing
    window of the last n records, re-emitting per record. Miller keeps
    a ring buffer per group; stream order is not stable distributed, so
    an explicit order column is required. Supported accs: count, sum,
    mean, min, max, var, stddev.

    An ``ordered_scan``: a block's carry is the window-1 rows before it
    (``_edge_rows``), context only and not emitted."""
    roll_fns = {"count": "count", "sum": "sum", "mean": "mean", "min": "min",
                "max": "max", "var": "var", "stddev": "std"}
    bad = [a for a in accs if a not in roll_fns]
    if bad:
        raise ValueError(f"unsupported windowed accumulators: {bad}")
    gb = list(group_by or [])

    def roll(df: pd.DataFrame, carry: tuple) -> pd.DataFrame:
        work = pd.concat([carry[0], df], ignore_index=True)
        for f in fields:
            for a in accs:
                fn = roll_fns[a]
                if gb:
                    col = work.groupby(gb, sort=False)[f].transform(
                        lambda s, fn=fn: getattr(
                            s.rolling(window, min_periods=1), fn)())
                else:
                    col = getattr(work[f].rolling(window, min_periods=1),
                                  fn)()
                work[f"{f}_{a}_w{window}"] = col
        return work.iloc[len(work) - len(df):].reset_index(drop=True)

    return ordered_scan(ds, gb + [order_by],
                        *_edge_rows(window - 1, 0), roll)


def cut_regex(ds, pattern: str, complement: bool = False):
    """Verb ``cut -r -f regex`` (cut.go): select fields whose NAME
    matches the regex (``-x`` complement)."""
    import re

    rx = re.compile(pattern)
    names = ds.schema().names
    keep = [c for c in names if bool(rx.search(c)) != complement]
    return ds.select_columns(keep)


def rename_regex(ds, pattern: str, replacement: str):
    """Verb ``rename -r`` (rename.go): regex-rename fields with
    backreference support (\\1 -> Python group refs)."""
    import re

    names = ds.schema().names
    mapping = {}
    for c in names:
        new = re.sub(pattern, replacement, c)
        if new != c:
            mapping[c] = new
    return ds.rename_columns(mapping) if mapping else ds


def json_parse(ds, fields: list[str]):
    """Verb ``json-parse -f`` (json_parse.go): parse JSON-encoded string
    fields into struct columns. No Arrow parse-to-struct kernel exists;
    the per-value decode uses orjson (C) when available — ~20x the
    stdlib loop — against the zero-copy Arrow buffer."""
    try:
        import orjson as _json

        loads = _json.loads
    except ImportError:  # pragma: no cover
        import json as _json

        loads = _json.loads

    def f(t: pa.Table) -> pa.Table:
        for c in fields:
            vals = [None if v is None else loads(v) for v in t[c].to_pylist()]
            t = t.set_column(t.column_names.index(c), c, pa.array(vals))
        return t

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def json_stringify(ds, fields: list[str]):
    """Verb ``json-stringify -f`` (json_stringify.go): struct/list
    columns -> compact JSON strings (orjson C encoder when available)."""
    try:
        import orjson as _json

        def dumps(v):
            return _json.dumps(v).decode()
    except ImportError:  # pragma: no cover
        import json as _json

        def dumps(v):
            return _json.dumps(v, separators=(",", ":"))

    def f(t: pa.Table) -> pa.Table:
        for c in fields:
            vals = [None if v is None else dumps(v) for v in t[c].to_pylist()]
            t = t.set_column(t.column_names.index(c), c,
                             pa.array(vals, type=pa.string()))
        return t

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def flatten(ds, sep: str = "."):
    """Verb ``flatten`` (flatten.go): struct columns -> ``a.b``-style
    dotted top-level columns (Arrow Table.flatten is zero-copy)."""

    def f(t: pa.Table) -> pa.Table:
        while any(pa.types.is_struct(t[c].type) for c in t.column_names):
            t = t.flatten()
        if sep != ".":
            t = t.rename_columns([c.replace(".", sep) for c in t.column_names])
        return t

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def unflatten(ds, sep: str = "."):
    """Verb ``unflatten`` (unflatten.go): dotted columns -> one struct
    column per top-level prefix."""

    def f(t: pa.Table) -> pa.Table:
        groups: dict[str, list[str]] = {}
        for c in t.column_names:
            if sep in c:
                groups.setdefault(c.split(sep, 1)[0], []).append(c)
        for prefix, cols in groups.items():
            arrays = [t[c].combine_chunks() for c in cols]
            names = [c.split(sep, 1)[1] for c in cols]
            struct = pa.StructArray.from_arrays(arrays, names=names)
            t = t.drop_columns(cols).append_column(prefix, struct)
        return t

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def cat_n(ds, order_by: str, output_name: str = "n", group_by: list[str] | None = None):
    """Verb ``cat -n [-g]`` (cat.go): prepend a record counter. Miller
    numbers in stream order; distributed numbering needs an explicit
    unique order column — n == rank of ``order_by`` (competition rank ==
    row number when the order key is unique)."""
    return rank(ds, order_by, group_by=group_by, output_name=output_name)


def remove_empty_columns(ds):
    """Verb ``remove-empty-columns`` (remove_empty_columns.go): drop
    fields that are null/empty in EVERY record. Two-pass like Miller,
    but pass 1 is a tiny per-block any-non-empty reduction."""

    def probe(t: pa.Table) -> pa.Table:
        # one row of per-column flags; an empty block adds no row
        row = {}
        for c in t.column_names:
            col = t[c]
            m = pc.is_valid(col)
            if pa.types.is_string(col.type):
                m = pc.and_(m, pc.not_equal(pc.fill_null(col, ""), ""))
            row[c] = [bool(pc.any(m).as_py())]
        return pa.table(row).slice(0, t.num_rows)

    def any_of(t: pa.Table) -> pa.Table:
        return pa.table({c: [bool(pc.any(t[c]).as_py())] for c in t.column_names})

    flags = merge_partials(ds.map_batches(probe, batch_format="pyarrow"), any_of)
    if not flags.num_rows:
        return ds
    return ds.select_columns([c for c in flags.column_names if pc.any(flags[c]).as_py()])


def least_frequent(ds, fields: list[str], n: int = 1,
                   output_name: str = "count") -> pd.DataFrame:
    """Verb ``least-frequent`` (most_or_least_frequent.go:39)."""
    return most_frequent(ds, fields, n=n, descending=False, output_name=output_name)


def tail_by(ds, n: int, order_by: str, group_by: list[str]):
    """Verb ``tail -n -g`` with a declared order: last n records per
    group by ``order_by`` (tail.go keeps a ring buffer in stream
    order)."""
    return tail(ds, n, group_by, order_by)


def step_slwin(ds, fields: list[str], m: int, n: int, group_by: list[str],
               order_by: str):
    """Stepper ``slwin_m_n`` (step.go:631-712 STEPPER_LOOKUP_TABLE):
    mean over a centered window of m records back / n forward, shrunk at
    group edges — cumsum-vectorized per group.

    An ``ordered_scan``: a block's carry is the m rows before it and the
    n rows after it (``_edge_rows``), context only and not emitted. A
    row near a block edge either sees its true group edge inside that
    padding (correct shrink) or has >= m / >= n same-group context rows
    (no shrink applies)."""
    gb = list(group_by or [])
    cols = [f"{f}_slwin_{m}_{n}" for f in fields]

    def roll(df: pd.DataFrame, carry: tuple) -> pd.DataFrame:
        before, after = carry
        work = pd.concat([before, df, after], ignore_index=True)
        own_lo = 0 if before is None else len(before)
        for c in cols:
            work[c] = np.nan
        for idx in group_index(work, gb).values():
            N = len(idx)
            pos = np.arange(N)
            lo = np.maximum(pos - m, 0)
            hi = np.minimum(pos + n, N - 1)
            for f, c in zip(fields, cols):
                x = work[f].to_numpy(dtype=np.float64)[idx]
                s = np.concatenate([[0.0], np.cumsum(x)])
                work.loc[idx, c] = (s[hi + 1] - s[lo]) / (hi - lo + 1)
        return work.iloc[own_lo:own_lo + len(df)].reset_index(drop=True)

    return ordered_scan(ds, gb + [order_by], *_edge_rows(m, n), roll)


def merge_fields_collapse(ds, accs: list[str], substrings: list[str],
                          keep_inputs: bool = False, interpolated: bool = False):
    """Verb ``merge-fields -c substr1,substr2`` (merge_fields.go:21):
    fields with the same name AFTER REMOVING the substrings are
    accumulated together; output basename = the collapsed stem (e.g.
    ``a_in`` + ``a_out`` with ``-c _in,_out`` -> group ``a``)."""
    names = ds.schema().names
    groups: dict[str, list[str]] = {}
    for c in names:
        for sub_ in substrings:
            if sub_ in c:
                groups.setdefault(c.replace(sub_, ""), []).append(c)
                break
    out = ds
    for stem, hit in groups.items():
        out = merge_fields(out, accs, hit, stem, keep_inputs=keep_inputs,
                           interpolated=interpolated)
    return out


def nest_explode_values_across_fields(ds, field: str, sep: str = ";",
                                      nested_fs: str | None = None):
    """Verb ``nest --explode --values --across-fields -f x`` (nest.go:66):
    split ``x`` on the separator into new fields ``x_1..x_k`` in place.
    k = global max element count (tiny pre-pass on one projected column)."""
    sep = nested_fs or sep

    def count_max(t: pa.Table) -> pa.Table:
        # an empty block adds no row
        lists = pc.split_pattern(pc.cast(t[field], pa.string()), sep)
        k = int(pc.max(pc.list_value_length(lists)).as_py() or 0)
        return pa.table({"k": [k]}).slice(0, t.num_rows)

    def max_of(t: pa.Table) -> pa.Table:
        return pa.table({"k": [pc.max(t["k"]).as_py()]})

    left = merge_partials(ds.select_columns([field]).map_batches(
        count_max, batch_format="pyarrow"), max_of)
    if not left.num_rows:
        return ds
    k = pc.max(left["k"]).as_py()

    def f(df: pd.DataFrame) -> pd.DataFrame:
        parts = df[field].astype(str).str.split(sep, expand=True)
        parts = parts.reindex(columns=range(k))
        parts.columns = [f"{field}_{i+1}" for i in range(k)]
        idx = list(df.columns).index(field)
        out = df.drop(columns=[field])
        order = (list(out.columns[:idx]) + list(parts.columns)
                 + list(out.columns[idx:]))
        return pd.concat([out, parts], axis=1)[order]

    return ds.map_batches(f, batch_format="pandas")


def _pair_keys(ds, field: str, sep: str, ps: str) -> list[str]:
    """Distinct pair keys of a nested pairs field (pre-pass, projected)."""

    def keys_of(col) -> pa.ChunkedArray:
        pairs = pc.list_flatten(pc.split_pattern(pc.cast(col, pa.string()), sep))
        return pc.list_element(pc.split_pattern(pairs, ps, max_splits=1), 0)

    return distinct_values(ds, field, keys_of)


def nest_explode_pairs_across_fields(ds, field: str, sep: str = ";",
                                     ps: str = "="):
    """Verb ``nest --explode --pairs --across-fields -f x`` (nest.go:79):
    ``x="a=1;b=2"`` -> fields a=1, b=2 replacing x. Column set = union
    of pair keys (pre-pass); rows lacking a key get null."""
    keys = _pair_keys(ds, field, sep, ps)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        s = df[field].astype(str).str.split(sep)
        e = df.drop(columns=[field]).join(s.explode().rename("__pair"))
        kv = e["__pair"].str.split(ps, n=1, expand=True)
        e["__k"], e["__v"] = kv[0], kv[1] if 1 in kv.columns else None
        other = [c for c in df.columns if c != field]
        w = e.pivot_table(index=other, columns="__k", values="__v",
                          aggfunc="first").reset_index()
        for c in keys:
            if c not in w.columns:
                w[c] = None
        return w[other + keys]

    return ds.map_batches(f, batch_format="pandas")


def nest_explode_pairs_across_records(ds, field: str, sep: str = ";",
                                      ps: str = "="):
    """Verb ``nest --explode --pairs --across-records -f x`` (nest.go:72):
    one output record per pair; the pair key becomes a field. Under a
    fixed Arrow schema: other columns + one column per distinct key,
    exactly one non-null per row."""
    keys = _pair_keys(ds, field, sep, ps)

    def f(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern(pc.cast(t[field], pa.string()), sep)
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        kv = pc.split_pattern(flat, ps, max_splits=1)
        pk = pc.list_element(kv, 0).to_numpy(zero_copy_only=False)
        pv = np.array([x[1] if len(x) > 1 else None for x in kv.to_pylist()],
                      dtype=object)
        base = t.drop_columns([field]).take(parents)
        for key in keys:
            vals = np.where(pk == key, pv, None)
            base = base.append_column(key, pa.array(vals, type=pa.string()))
        return base

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def sec2gmt_frac(ds, fields: list[str], decimals: int = 0,
                 input_unit: str = "s"):
    """Verb ``sec2gmt -1..-9 / --millis/--micros/--nanos`` (sec2gmt.go):
    epoch -> ISO-8601 with fractional-second digits; input may be in
    seconds / milliseconds / microseconds / nanoseconds."""
    div = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}[input_unit]

    def conv(t: pa.Table) -> pa.Table:
        ns_mult = int(1e9 // div)  # input unit -> nanoseconds
        for f in fields:
            # reference TRUNCATES fractional digits via integer-ns
            # division (lib/time.go secToFormattedTime); integer inputs
            # stay exact in int64 ns, float inputs truncate once at
            # the ns boundary
            if pa.types.is_integer(t[f].type):
                total_ns = t[f].to_numpy(zero_copy_only=False).astype(
                    np.int64) * ns_mult
                secs = total_ns // 1_000_000_000
                frac = (total_ns % 1_000_000_000) // 10 ** (9 - decimals) \
                    if decimals > 0 else None
            else:
                # float path: split at the second BEFORE scaling so the
                # sub-second part keeps full mantissa precision
                xf = pc.cast(t[f], pa.float64()).to_numpy(
                    zero_copy_only=False) / div
                secs = np.floor(xf).astype(np.int64)
                frac = np.floor((xf - secs) * 10 ** decimals).astype(
                    np.int64) if decimals > 0 else None
            n = len(secs)
            ts = pc.cast(pa.array(secs), pa.timestamp("s"))
            base = pc.strftime(ts, format="%Y-%m-%dT%H:%M:%S")
            if decimals > 0:
                fs = np.char.zfill(frac.astype(str), decimals)
                out = pc.binary_join_element_wise(
                    base, pa.array(fs), ".")
                out = pc.binary_join_element_wise(out, pa.array([""] * n), "Z")
            else:
                out = pc.binary_join_element_wise(base, pa.array([""] * n), "Z")
            t = t.set_column(t.column_names.index(f), f, out)
        return t

    return ds.map_batches(conv, batch_format="pyarrow", zero_copy_batch=True)


def sort_by_flags(ds, specs: list[tuple[str, str]]):
    """Verb ``sort`` with per-key flags (sort.go:56-67): ``f``/``r``
    lexical, ``nf``/``nr`` numeric, ``c``/``cr`` case-folded lexical,
    ``t``/``tr`` natural order. Derived sort-key columns are built
    vectorized per batch, the sort itself is the distributed
    ``Dataset.sort``, keys dropped after."""
    import re

    digit_run = re.compile(r"\d+")

    def natural_key(s: str) -> str:
        # zero-pad digit runs to width 12 so lexical == natural order
        return digit_run.sub(lambda m: m.group().zfill(12), s)

    keycols, desc = [], []
    derived: list[tuple[str, str, str]] = []  # (keycol, field, kind)
    for f, fl in specs:
        fl = fl or "f"
        kind = {"f": "lex", "r": "lex", "c": "fold", "cr": "fold",
                "nf": "num", "nr": "num", "t": "nat", "tr": "nat"}[fl]
        kc = f"__sk_{f}_{kind}"
        derived.append((kc, f, kind))
        keycols.append(kc)
        desc.append(fl in ("r", "cr", "nr", "tr"))

    def add_keys(t: pa.Table) -> pa.Table:
        for kc, f, kind in derived:
            col = t[f]
            if kind == "lex":
                t = t.append_column(kc, pc.cast(col, pa.string()))
            elif kind == "fold":
                t = t.append_column(kc, pc.utf8_lower(pc.cast(col, pa.string())))
            elif kind == "num":
                v = pd.to_numeric(pd.Series(np.asarray(col)), errors="coerce")
                t = t.append_column(kc, pa.array(v.to_numpy(dtype=np.float64)))
            else:  # natural
                s = pc.cast(col, pa.string()).to_pylist()
                t = t.append_column(
                    kc, pa.array([None if x is None else natural_key(x)
                                  for x in s]))
        return t

    keyed = ds.map_batches(add_keys, batch_format="pyarrow", zero_copy_batch=True)
    sorted_ds = sort_nulls_last(keyed, keycols, desc)
    return sorted_ds.map_batches(lambda t: t.drop_columns(keycols),
                                 batch_format="pyarrow", zero_copy_batch=True)


def having_fields_mode(ds, fields: list[str] | None = None,
                       mode: str = "at-least",
                       name_regex: str | None = None):
    """Verb ``having-fields`` full modes (having_fields.go): at-least /
    all-defined (all named fields non-null), any-defined (any non-null),
    none-defined (all null); field set by name list or name regex."""
    import re

    if name_regex is not None:
        rx = re.compile(name_regex)
        fields = [c for c in ds.schema().names if rx.search(c)]
    if not fields:
        return ds.limit(0) if mode != "none-defined" else ds

    def f(t: pa.Table) -> pa.Table:
        masks = [pc.is_valid(t[c]) for c in fields]
        if mode in ("at-least", "all-defined"):
            m = masks[0]
            for x in masks[1:]:
                m = pc.and_(m, x)
        elif mode == "any-defined":
            m = masks[0]
            for x in masks[1:]:
                m = pc.or_(m, x)
        elif mode == "none-defined":
            m = masks[0]
            for x in masks[1:]:
                m = pc.or_(m, x)
            m = pc.invert(m)
        else:
            raise ValueError(f"unknown having-fields mode {mode}")
        return t.filter(m)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def bootstrap_ci(ds, fields: list[str], stat: str = "mean",
                 nboot: int = 1000, level: float = 0.95,
                 seed: int = 1) -> pd.DataFrame:
    """Verb ``bootstrap-ci -a mean -f fields -n -c`` (bootstrap_ci.go):
    percentile-bootstrap confidence interval for the mean/sum.

    Distributed as a POISSON bootstrap (the classic large-scale
    reformulation: resampling n-of-n with replacement ≈ independent
    Poisson(1) row weights, exact as n → ∞): ONE streaming pass where
    each block accumulates nboot weighted partial (n, sum) pairs from
    deterministic per-block seeded RNG, merged by summation — no
    materialized resamples, no driver-side data. Reference semantics
    are per-resample ``stats1`` then type-1 percentile CI endpoints."""
    if stat not in ("mean", "sum"):
        raise ValueError("bootstrap_ci supports stat in {'mean','sum'}")

    def partial(t: pa.Table) -> pa.Table:
        import hashlib

        out = {}
        for f in fields:
            x = pc.cast(t[f], pa.float64()).to_numpy(zero_copy_only=False)
            x = np.nan_to_num(x, nan=0.0)
            ns = np.empty(nboot, dtype=np.int64)
            ss = np.empty(nboot, dtype=np.float64)
            # seed from BLOCK CONTENT + field name: equal-sized blocks
            # must not share weight streams, and builtin hash() is
            # PYTHONHASHSEED-dependent — md5 of the column bytes is
            # deterministic across processes and distinct per block
            h = hashlib.md5(x.tobytes())
            h.update(f.encode())
            h.update(seed.to_bytes(8, "little", signed=True))
            rng = np.random.default_rng(int.from_bytes(h.digest()[:8], "little"))
            for r in range(nboot):
                w = rng.poisson(1.0, x.size)
                ns[r] = w.sum()
                ss[r] = float(w @ x)
            out[f"{f}_n"] = ns
            out[f"{f}_s"] = ss
        out["rep"] = np.arange(nboot, dtype=np.int64)
        return pa.table(out)

    # nboot rows per block whatever the input: a bounded partial
    combine = aggregate_by(["rep"])
    left = merge_partials(
        ds.select_columns(fields).map_batches(partial, batch_format="pyarrow"),
        combine)
    if not left.num_rows:  # no input rows: no interval
        return pd.DataFrame(columns=["field", f"{stat}_lo", f"{stat}_hi"])
    merged = combine(left).to_pandas()
    alpha = (1.0 - level) / 2.0
    rows = []
    for f in fields:
        stats = (merged[f"{f}_s"] / merged[f"{f}_n"] if stat == "mean"
                 else merged[f"{f}_s"]).to_numpy()
        srt = np.sort(stats)
        from miller_ray.engine.exact import percentile_type1

        rows.append({
            "field": f,
            f"{stat}_lo": float(percentile_type1(srt, alpha * 100)),
            f"{stat}_hi": float(percentile_type1(srt, (1 - alpha) * 100)),
        })
    return pd.DataFrame(rows)


def decimate_positional(ds, n: int, group_by: list[str], order_by: str,
                        keep_first: bool = False):
    """Verb ``decimate -n [-b|-e]`` with a declared order: keep the
    last (default, -e) or first (-b) of every n records per group
    (decimate.go; Miller counts in stream order).

    An ``ordered_scan``: a block's summary is its record count per
    group; its carry is the group's count over all earlier blocks, so
    position within the group is carry + local arange."""
    gb = list(group_by or [])

    def apply(df: pd.DataFrame, carry: dict) -> pd.DataFrame:
        df = df.sort_values(order_by).reset_index(drop=True)
        keep = np.zeros(len(df), dtype=bool)
        for key, idx in group_index(df, gb).items():
            i = carry.get(key, 0) + np.arange(len(idx))
            keep[idx] = (i % n == 0) if keep_first else (i % n == n - 1)
        return df[keep]

    return ordered_scan(
        ds, gb + [order_by],
        lambda df: {k: len(idx) for k, idx in group_index(df, gb).items()},
        lambda sms: running_carries(sms, lambda a, b: a + b),
        apply)


def altkv(ds):
    """Verb ``altkv`` (transformers/altkv.go): positional values become
    alternating key/value pairs — odd fields are the keys of the even
    fields; a trailing odd value gets a positional key. Batch-local
    (each record maps independently); the union schema across batches
    is data-dependent, as in the reference."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, row in df.iterrows():
            vals = [x for x in row.tolist() if not pd.isna(x)]
            r: dict = {}
            for i in range(0, len(vals) - 1, 2):
                r[str(vals[i])] = vals[i + 1]
            if len(vals) % 2:
                r[str(len(vals) // 2 + 1)] = vals[-1]
            rows.append(r)
        return pd.DataFrame(rows)

    return ds.map_batches(f, batch_format="pandas")


def gap(ds, n: int, order_col: str):
    """Verb ``gap -n`` (transformers/gap.go): insert an all-null
    spacer record every n records. Presentation-only in the reference;
    here the spacer keeps the order column (fractional) so downstream
    sorts preserve placement. Needs an explicit order column in a
    distributed setting; block-local modulo uses the GLOBAL order
    index, so the result is partitioning-independent."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, row in df.iterrows():
            i = int(row[order_col])
            if i > 0 and i % n == 0:
                spacer = {c: None for c in df.columns}
                spacer[order_col] = i - 0.5
                out.append(spacer)
            out.append(row.to_dict())
        return pd.DataFrame(out)

    return ds.map_batches(f, batch_format="pandas")


def _first_seen_sort(ds, keys: list[str], order_col: str):
    """``ds``'s rows regrouped by ``keys``: groups in first-seen
    ``order_col`` order, ``order_col`` order within each group. One
    ``merge_keyed`` min fold finds each key's first ``order_col`` (one
    row per distinct key), broadcast by key hash, so that one sort by
    (first seen, order) lands the layout. Keys are never sorted
    themselves, so a null key is a group like any other."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        out = t.group_by(keys).aggregate([(order_col, "min")])
        return out.select(sorted(out.column_names))

    firsts = merge_keyed(ds.select_columns([*keys, order_col]).map_batches(
        partial, batch_format="pyarrow"), keys, aggregate_by(keys, "min"))
    if not isinstance(firsts, pa.Table):
        firsts = pa.Table.from_pandas(firsts.to_pandas(), preserve_index=False)
    if not firsts.num_rows:  # no rows: nothing to regroup
        return ds
    h = key_hash(firsts, keys)
    at = np.argsort(h)
    ref = ray.put((h[at], firsts[f"{order_col}_min"].to_numpy()[at]))

    def rank(t: pa.Table) -> pa.Table:
        hs, first = ray.get(ref)
        return t.append_column(
            "__first", pa.array(first[np.searchsorted(hs, key_hash(t, keys))]))

    return sort_nulls_last(ds.map_batches(rank, batch_format="pyarrow"),
                           ["__first", order_col]).drop_columns(["__first"])


def group_by_verb(ds, fields: list[str], order_col: str):
    """Verb ``group-by`` (transformers/group_by.go): records regroup
    by the VALUES of the given fields, groups in first-seen stream
    order, original order within each group. Same plan as group_like,
    keyed by values instead of schema signature."""
    return _first_seen_sort(ds, fields, order_col)


def group_like(ds, order_col: str):
    """Verb ``group-like`` (transformers/group_like.go): records
    regroup by key-signature (the set of non-null fields), signatures
    in first-seen stream order, original order within each group.
    Distributed shape: one pass stamps each row's signature, then
    ``_first_seen_sort`` keyed by it — no driver-side loop over rows."""

    def stamp(df: pd.DataFrame) -> pd.DataFrame:
        sigs = []
        cols = [c for c in df.columns if c != "__sig__"]
        for _, row in df.iterrows():
            sigs.append("\x1f".join(
                c for c in cols if not pd.isna(row[c])))
        df = df.copy()
        df["__sig__"] = sigs
        return df

    return _first_seen_sort(ds.map_batches(stamp, batch_format="pandas"),
                            ["__sig__"], order_col).drop_columns(["__sig__"])


def surv(ds, duration_field: str, status_field) -> pd.DataFrame:
    """Verb ``surv`` (transformers/surv.go): Kaplan-Meier
    right-censored survival estimate, event times only.

    Scale shape: a (duration, status)-keyed COUNT reduction — small
    whenever durations repeat — then a tiny driver fold in descending
    duration order for the at-risk suffix sums. No per-record data
    reaches the driver. ``status_field`` may be a column name or a
    callable batch→bool-Series for derived statuses."""

    def stamp(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame()
        out["__dur__"] = pd.to_numeric(df[duration_field],
                                       errors="coerce")
        if callable(status_field):
            out["__ev__"] = status_field(df)
        else:
            out["__ev__"] = pd.to_numeric(df[status_field],
                                          errors="coerce") != 0
        return out.dropna(subset=["__dur__"])

    vc = count(ds.map_batches(stamp, batch_format="pandas"),
               group_by=["__dur__", "__ev__"])
    vc = vc.sort_values("__dur__", ascending=False).reset_index(drop=True)
    rows = []
    n_at = 0
    acc: list = []
    for dur, grp in vc.groupby("__dur__", sort=False):
        n_here = int(grp["count"].sum())
        d = int(grp.loc[grp["__ev__"], "count"].sum())
        n_at += n_here
        acc.append((float(dur), d, n_at))
    s_prob = 1.0
    for dur, d, n in reversed(acc):  # ascending duration
        if d:
            s_prob *= 1.0 - d / n
            rows.append({"time": dur, "survival": s_prob})
    return pd.DataFrame(rows)


def bar(ds, fields: list[str], lo: float = 0.0, hi: float = 100.0,
        width: int = 40, fill: str = "*", oob: str = "#",
        blank: str = "."):
    """Verb ``bar`` (transformers/bar.go): numeric fields replaced by
    fixed-width ASCII bars. Pure per-batch map; --auto (two-pass
    min/max) is a stats1 pre-pass + this with lo/hi filled in."""
    bars = []
    for i in range(width + 1):
        if i == 0:
            bars.append(oob + blank * (width - 1))
        elif i < width:
            bars.append(fill * i + blank * (width - i))
        else:
            bars.append(fill * (width - 1) + oob)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        for fld in fields:
            nums = pd.to_numeric(df[fld], errors="coerce")
            idx = np.floor(width * (nums - lo) / (hi - lo)) \
                .clip(0, width)
            df[fld] = [bars[int(i)] if pd.notna(i) else orig
                       for orig, i in zip(df[fld], idx)]
        return df

    return ds.map_batches(f, batch_format="pandas")


def sparkline_verb(ds, fields: list[str]) -> pd.DataFrame:
    """Verb ``sparkline`` (transformers/sparkline.go): per-field
    end-of-stream summary record {field, n, lo, hi, sparkline}.
    Scale note: the glyph strip is one character PER RECORD — at scale
    cap the input (sample/head) first; the min/max reduction itself is
    distributed."""
    from miller_ray.functions import REGISTRY

    stats = ds.select_columns(fields).to_pandas()
    rows = []
    for f in fields:
        vals = [x for x in stats[f] if not (x is None or (
            isinstance(x, float) and np.isnan(x)))]
        rec: dict = {"field": f, "n": len(vals)}
        spark = REGISTRY["sparkline"](list(vals))
        if spark != "(error)" and vals:
            nums = pd.to_numeric(pd.Series(vals), errors="coerce").dropna()
            if len(nums):
                rec["lo"] = float(nums.min())
                rec["hi"] = float(nums.max())
        rec["sparkline"] = spark
        rows.append(rec)
    return pd.DataFrame(rows)


def case_keys(ds, how: str = "upper"):
    """Verb ``case -k`` (case.go): apply the case mapping to field
    NAMES (schema-level rename; no data movement)."""
    fns = {"upper": str.upper, "lower": str.lower, "title": str.title,
           "sentence": lambda s: s[:1].upper() + s[1:].lower() if s else s}
    fn = fns[how]
    mapping = {c: fn(c) for c in ds.schema().names if fn(c) != c}
    return ds.rename_columns(mapping) if mapping else ds


def stats1_regex(ds, accs: list[str], field_regex: str,
                 group_by: list[str] | None = None, exclude: bool = False,
                 **kw) -> pd.DataFrame:
    """Verb ``stats1 --fr/--fx regex`` (stats1.go --fr/--fx flags):
    value fields selected by regex over column names."""
    import re

    rx = re.compile(field_regex)
    gb = set(group_by or [])
    fields = [c for c in ds.schema().names
              if c not in gb and bool(rx.search(c)) != exclude]
    if not fields:
        raise ValueError(f"no fields match {field_regex!r}")
    return stats1(ds, accs, fields, group_by=group_by, **kw)
