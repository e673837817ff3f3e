"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship one-pass 6-sketch build over the
north-rule tokens table at sf0.001 scale. ``queries()`` exposes one
callable per implemented operator/pipeline from SURVEY.md §2 (and the
training-data extensions); ``oracle_sql()`` gives the DuckDB-equivalent
SQL for every exactly-SQL-expressible query. Sketch/approximate and
order-dependent queries intentionally have no oracle entry (driver
records a rows-only check); their accuracy bounds are pinned in
``tests/`` instead.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().

Float-column convention: any column produced by multi-step arithmetic is
rounded to a fixed number of decimals IN BOTH the Ray result and the
oracle SQL (summation order differs between engines; rounding makes the
value-hash comparison well-defined). Columns that are raw data values
(percentiles, top-k, min/max) are left untouched.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd


def _rd():
    import ray.data as rd

    return rd


_BLOCK_HINT_CACHE: dict[str, int | None] = {}
_TARGET_BYTES_PER_BLOCK = 2 * 1024 * 1024


def _block_hint(path: str) -> int | None:
    """Bytes-aware read parallelism for SMALL files only.

    Ray Data's minimum-parallelism heuristic splits every read into
    ~2x-CPUs blocks; for a KB..MB input that means 64 tasks of ~80 rows
    each and the pipeline is pure scheduling overhead (measured: 1.6 MB
    documents table, 0.65 s of a 0.8 s execution was task dispatch).
    Aim for >= _TARGET_BYTES_PER_BLOCK of uncompressed bytes per task;
    once the byte-derived count exceeds the parallelism floor (i.e. the
    input is big), return None and let Ray's own byte-based splitting
    govern — at 100 TB this hint is a no-op."""
    hint = _BLOCK_HINT_CACHE.get(path)
    if path in _BLOCK_HINT_CACHE:
        return hint
    import os

    import pyarrow.parquet as pq
    import ray

    cpus = int(ray.cluster_resources().get("CPU", os.cpu_count() or 8)) \
        if ray.is_initialized() else (os.cpu_count() or 8)
    try:
        m = pq.read_metadata(path)
        nbytes = sum(m.row_group(i).total_byte_size
                     for i in range(m.num_row_groups))
        blocks = max(1, -(-nbytes // _TARGET_BYTES_PER_BLOCK))
        hint = int(blocks) if blocks < 2 * cpus else None
    except Exception:
        hint = None
    _BLOCK_HINT_CACHE[path] = hint
    return hint


def _t(sf_dir: str, name: str, columns=None):
    path = f"{sf_dir}/{name}.parquet"
    hint = _block_hint(path)
    kw = {"override_num_blocks": hint} if hint else {}
    return _rd().read_parquet(path, columns=columns, **kw)


def _round(df: pd.DataFrame, cols: dict[str, int]) -> pd.DataFrame:
    for c, d in cols.items():
        df[c] = df[c].astype(np.float64).round(d)
    return df


# ---------------------------------------------------------------------------
# query implementations
# ---------------------------------------------------------------------------

def q_count_by_group(sf_dir: str):
    from miller_ray import verbs

    return verbs.count(_t(sf_dir, "lineitem", ["l_returnflag"]), ["l_returnflag"])


def q_count_distinct(sf_dir: str):
    from miller_ray import verbs

    return verbs.count_distinct(_t(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"]),
                                ["l_returnflag", "l_linestatus"])


def q_count_distinct_n(sf_dir: str):
    from miller_ray import verbs

    return verbs.count_distinct(_t(sf_dir, "lineitem", ["l_partkey"]), ["l_partkey"], n=True)


def q_uniq_priorities(sf_dir: str):
    from miller_ray import verbs

    return verbs.uniq(_t(sf_dir, "orders", ["o_orderpriority"]), ["o_orderpriority"],
                      show_counts=True)


def q_stats1_moments(sf_dir: str):
    from miller_ray import verbs

    r = verbs.stats1(_t(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]),
                     ["count", "sum", "mean", "min", "max"],
                     ["l_quantity", "l_extendedprice"], ["l_returnflag"])
    return _round(r, {"l_quantity_sum": 2, "l_quantity_mean": 6,
                      "l_extendedprice_sum": 2, "l_extendedprice_mean": 4})


def q_stats1_var(sf_dir: str):
    from miller_ray import verbs

    r = verbs.stats1(_t(sf_dir, "lineitem", ["l_returnflag", "l_quantity"]),
                     ["var", "stddev", "meaneb"], ["l_quantity"], ["l_returnflag"])
    return _round(r, {"l_quantity_var": 3, "l_quantity_stddev": 4, "l_quantity_meaneb": 6})


def q_stats1_skew_kurt(sf_dir: str):
    from miller_ray import verbs

    r = verbs.stats1(_t(sf_dir, "lineitem", ["l_returnflag", "l_discount"]),
                     ["skewness", "kurtosis"], ["l_discount"], ["l_returnflag"])
    return _round(r, {"l_discount_skewness": 6, "l_discount_kurtosis": 6})


def q_stats1_percentiles(sf_dir: str):
    from miller_ray import verbs

    return verbs.stats1(_t(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"]),
                        ["p25", "p50", "p75", "p90", "p99"],
                        ["l_extendedprice"], ["l_returnflag"])


def q_stats1_median_interp(sf_dir: str):
    from miller_ray import verbs

    r = verbs.stats1(_t(sf_dir, "lineitem", ["l_linestatus", "l_quantity"]),
                     ["median"], ["l_quantity"], ["l_linestatus"], interpolated=True)
    return _round(r, {"l_quantity_median": 6})


def q_stats1_distinct_mode(sf_dir: str):
    from miller_ray import verbs

    return verbs.stats1(_t(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"]),
                        ["distinct_count", "mode"], ["o_orderpriority"], ["o_orderstatus"])


def q_top3(sf_dir: str):
    from miller_ray import verbs

    return verbs.top(_t(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"]),
                     "l_extendedprice", n=3, group_by=["l_returnflag"])


def q_bottom2_orderkeys(sf_dir: str):
    from miller_ray import verbs

    return verbs.top(_t(sf_dir, "orders", ["o_orderpriority", "o_orderkey"]),
                     "o_orderkey", n=2, group_by=["o_orderpriority"], smallest=True)


def q_histogram(sf_dir: str):
    from miller_ray import verbs

    return verbs.histogram(_t(sf_dir, "lineitem", ["l_quantity"]), ["l_quantity"],
                           lo=0.0, hi=50.0, nbins=10)


def q_fraction(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    sums = verbs.stats1(ds, ["sum"], ["o_totalprice"], ["o_orderpriority"])
    total = sums["o_totalprice_sum"].sum()
    out = sums.rename(columns={"o_totalprice_sum": "group_sum"})
    out["o_totalprice_fraction"] = out["group_sum"] / total
    return _round(out[["o_orderpriority", "o_totalprice_fraction"]],
                  {"o_totalprice_fraction": 6})


def q_most_frequent_brand(sf_dir: str):
    from miller_ray import verbs

    return verbs.most_frequent(_t(sf_dir, "part", ["p_brand"]), ["p_brand"], n=3)


def q_merge_fields(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_tax", "l_discount"])
    return verbs.merge_fields(ds, ["min", "max", "sum"], ["l_tax", "l_discount"],
                              "rate", keep_inputs=False)


def q_stats2(sf_dir: str):
    from miller_ray import verbs

    r = verbs.stats2(_t(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]),
                     ["corr", "r2"], [("l_quantity", "l_extendedprice")], ["l_returnflag"])
    return _round(r, {"l_quantity_l_extendedprice_corr": 6,
                      "l_quantity_l_extendedprice_r2": 8})


def q_join_segment_revenue(sf_dir: str):
    from miller_ray import verbs

    cust = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    cust = cust.rename(columns={"c_custkey": "o_custkey"})
    joined = verbs.join(_t(sf_dir, "orders", ["o_custkey", "o_totalprice"]), cust,
                        on=["o_custkey"])
    r = verbs.stats1(joined, ["count", "sum"], ["o_totalprice"], ["c_mktsegment"])
    return _round(r, {"o_totalprice_sum": 2})


def q_join_left_outer(sf_dir: str):
    """join --ul-style paired + unpaired-stream emission (join.go:26-31):
    orders against the BUILDING-segment customer subset."""
    from miller_ray import verbs

    cust = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    cust = cust[cust["c_mktsegment"] == "BUILDING"]
    r = verbs.mlr_join(_t(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
                       cust, left_on=["c_custkey"], right_on=["o_custkey"],
                       emit_paired=True, emit_unpaired_right=True)
    out = r.to_pandas()
    out["c_mktsegment"] = out["c_mktsegment"].where(
        out["c_mktsegment"].notna(), "-")
    return out


def q_join_anti(sf_dir: str):
    """join --np --ul (anti-join): customers with no order among the
    low-custkey order stream (DSL filter composed in front)."""
    from miller_ray import dsl, verbs

    cust = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    stream = dsl.filter_expr(_t(sf_dir, "orders", ["o_custkey"]),
                             "$o_custkey <= 750")
    r = verbs.mlr_join(stream, cust, left_on=["c_custkey"],
                       right_on=["o_custkey"],
                       emit_paired=False, emit_unpaired_left=True)
    out = r.to_pandas().rename(columns={"o_custkey": "c_custkey"})
    return out.reindex(columns=["c_custkey", "c_mktsegment"])


def q_sort_head(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"])
    return verbs.head(verbs.sort(ds, ["l_extendedprice"], descending=True), 100)


def q_filter_project(sf_dir: str):
    import pyarrow.compute as pc

    from miller_ray import verbs

    ds = _t(sf_dir, "lineitem",
            ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount"])
    ds = verbs.mlr_filter(ds, lambda t: pc.greater(t["l_quantity"], 45.0))
    return verbs.put(ds, revenue=lambda t: pc.multiply(
        t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])))


def q_put_expr(sf_dir: str):
    """put -e with a Miller DSL expression string (dsl.py parser)."""
    from miller_ray import dsl

    ds = _t(sf_dir, "lineitem",
            ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount", "l_tax"])
    return dsl.put_expr(ds,
                        '$revenue = $l_extendedprice * (1 - $l_discount); '
                        '$charge = $revenue * (1 + $l_tax); '
                        '$tag = $l_discount > 0.05 ? "hi" : "lo"')


def q_filter_expr(sf_dir: str):
    """filter -e with a Miller DSL predicate string (dsl.py parser)."""
    from miller_ray import dsl

    ds = _t(sf_dir, "part", ["p_partkey", "p_name", "p_brand", "p_retailprice"])
    return dsl.filter_expr(
        ds, '$p_retailprice >= 1200 && $p_name =~ "widget" || $p_brand == "Brand#13"')


def q_put_oosvar_sum(sf_dir: str):
    """Aggregating-put idiom (put -q with @oosvars + begin/emit,
    pkg/dsl/cst/emit_emitp.go) on the distributed partial/merge plan
    (dsl.put_oosvar): per-block vectorized reduction, driver fold."""
    from miller_ray import dsl

    ds = _t(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])
    r = dsl.put_oosvar(
        ds, 'begin {@q = {}} @q[$l_returnflag] += $l_quantity; '
            'end {emit @q, "l_returnflag"}')
    r = r.sort_values("l_returnflag").reset_index(drop=True)
    return _round(r, {"q": 2})


def q_rank(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity"])
    r = verbs.rank(ds, "l_quantity", group_by=["l_returnflag"])
    return r.select_columns(["l_orderkey", "l_linenumber", "l_quantity_rank"])


def q_count_similar(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    return verbs.count_similar(ds, ["c_mktsegment"], counter_name="segment_count")


def q_step_delta(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    r = verbs.step(ds, ["value"], ["delta", "rsum"], ["user_id"], "event_id")
    return r.select_columns(["event_id", "value_delta", "value_rsum"]).to_pandas().pipe(
        _round, {"value_delta": 6, "value_rsum": 6})


def q_sec2gmt(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id"])
    ds = verbs.put(ds, sec=lambda t: t["event_id"])
    return verbs.sec2gmt(ds, ["sec"]).select_columns(["event_id", "sec"])


def q_case_upper(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "documents", ["doc_id", "lang"])
    return verbs.case_verb(ds, ["lang"], how="upper")


def q_fill_empty(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "event_type"])
    return verbs.fill_empty(ds, ["event_type"], fill_value="N/A")


def q_seqgen(sf_dir: str):
    from miller_ray import verbs

    return verbs.seqgen(1, 1000)


def q_dedup_exact(sf_dir: str):
    from miller_ray.stages import dedup

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.exact_dedup(ds, ["text"], "doc_id")
    return out.select_columns(["doc_id"])


def q_lang_counts(sf_dir: str):
    from miller_ray import verbs

    return verbs.count(_t(sf_dir, "documents", ["lang"]), ["lang"])


def q_token_stats(sf_dir: str):
    from miller_ray import verbs
    from miller_ray.stages import text

    ds = text.token_count(_t(sf_dir, "documents", ["lang", "text"]))
    r = verbs.stats1(ds, ["count", "sum", "mean", "max"], ["n_tok"], ["lang"])
    return _round(r, {"n_tok_mean": 6, "n_tok_sum": 1, "n_tok_max": 1})


def q_fingerprint(sf_dir: str):
    from miller_ray.stages import text

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    return text.fingerprint(ds).select_columns(["doc_id", "fingerprint"])


def q_ann_top10(sf_dir: str):
    import duckdb

    from miller_ray.stages import ann

    con = duckdb.connect()
    q = con.execute(
        f"select embedding from '{sf_dir}/embeddings.parquet' where vec_id < 4 order by vec_id"
    ).df()["embedding"]
    con.close()
    queries_m = np.stack(q.to_numpy()).astype(np.float64)
    return ann.brute_force_topk(_t(sf_dir, "embeddings", ["vec_id", "embedding"]),
                                queries_m, k=10)


def q_embed_cosine_pairs(sf_dir: str):
    from miller_ray.stages import dedup

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    return dedup.embedding_cosine_pairs(ds, threshold=0.4)


def q_embed_cosine_lsh(sf_dir: str):
    from miller_ray.stages import dedup

    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    return dedup.embedding_cosine_pairs_lsh(ds, threshold=0.4,
                                            n_planes=24, band_bits=2)


def q_label(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "region", ["r_regionkey", "r_name"])
    return verbs.label(ds, ["regionkey", "name"])


def q_template(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "nation", ["n_nationkey", "n_name"])
    return verbs.template(ds, ["n_name", "n_nationkey", "n_missing"], fill="-")


def q_grep(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "part", ["p_partkey", "p_name", "p_brand"])
    return verbs.grep_verb(ds, "widget")


def q_nest_explode(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "part", ["p_partkey", "p_name"])
    return verbs.nest_explode(ds, "p_name", sep=" ")


def q_nest_implode(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "part", ["p_partkey", "p_name"])
    exploded = verbs.nest_explode(ds, "p_name", sep=" ")
    return verbs.nest_implode(exploded, "p_name", ["p_partkey"], sep=";")


def q_reshape_long(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_tax", "l_discount"])
    return verbs.reshape_wide_to_long(ds, ["l_tax", "l_discount"],
                                      key_name="rate_kind", value_name="rate")


def q_reshape_wide(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_tax", "l_discount"])
    long = verbs.reshape_wide_to_long(ds, ["l_tax", "l_discount"],
                                      key_name="rate_kind", value_name="rate")
    return verbs.reshape_long_to_wide(long, "rate_kind", "rate",
                                      ["l_orderkey", "l_linenumber"])


def q_repeat(sf_dir: str):
    from miller_ray import verbs

    ds = verbs.head(_t(sf_dir, "region", ["r_regionkey", "r_name"]), 5)
    return verbs.repeat(ds, n=3)


def q_sec2gmtdate(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id"])
    ds = verbs.put(ds, day=lambda t: t["event_id"])
    return verbs.sec2gmtdate(ds, ["day"]).select_columns(["event_id", "day"])


def q_ssub(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "part", ["p_partkey", "p_name"])
    return verbs.ssub(ds, ["p_name"], "widget", "gadget")


def q_gsub(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "part", ["p_partkey", "p_type"])
    return verbs.gsub(ds, ["p_type"], "[aeiou]", "_")


def q_format_values(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
    return verbs.format_values(ds, float_format="%.2f")


def q_summary(sf_dir: str):
    from miller_ray import verbs

    r = verbs.summary(_t(sf_dir, "lineitem", ["l_quantity", "l_discount"]),
                      ["l_quantity", "l_discount"],
                      summarizers=["count", "null_count", "min", "max", "sum",
                                   "mean", "stddev", "p25", "median", "p75",
                                   "iqr"])
    # mean is derived from the 2-digit-rounded sum (the inputs are 2-dp
    # fixed point, so that sum is EXACT and block-order-independent;
    # avg(l_discount) lands exactly on a 6th-digit half, so rounding a
    # float-accumulated mean directly flips with summation order — on
    # the DuckDB side too)
    r = _round(r, {"sum": 2})
    r["mean"] = (r["sum"] / r["count"]).astype(np.float64).round(6)
    return _round(r, {"stddev": 6, "iqr": 6})


def q_summary_full(sf_dir: str):
    """summary with the full -a set (summary.go:40-57) on one numeric
    column: field_type/distinct_count/mode/skewness/fences included."""
    from miller_ray import verbs

    r = verbs.summary(_t(sf_dir, "lineitem", ["l_quantity"]), ["l_quantity"],
                      summarizers=["field_type", "count", "null_count",
                                   "distinct_count", "mode", "sum", "mean",
                                   "stddev", "var", "skewness", "min", "p25",
                                   "median", "p75", "max", "iqr", "lof",
                                   "lif", "uif", "uof"])
    return _round(r, {"sum": 2, "mean": 6, "stddev": 6, "var": 6,
                      "skewness": 6, "iqr": 6, "lof": 6, "lif": 6,
                      "uif": 6, "uof": 6})


def q_uniq_all(sf_dir: str):
    from miller_ray import verbs

    return verbs.uniq_all(_t(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"]))


def q_count_distinct_unlashed(sf_dir: str):
    from miller_ray import verbs

    return verbs.count_distinct_unlashed(
        _t(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"]),
        ["l_returnflag", "l_linestatus"])


def q_histogram_auto(sf_dir: str):
    from miller_ray import verbs

    return verbs.histogram_auto(_t(sf_dir, "lineitem", ["l_quantity"]),
                                ["l_quantity"], nbins=8)


def q_top_full_records(sf_dir: str):
    from miller_ray import verbs

    return verbs.top_full_records(_t(sf_dir, "orders",
                                     ["o_orderkey", "o_orderpriority", "o_totalprice"]),
                                  "o_totalprice", n=2, group_by=["o_orderpriority"],
                                  tiebreak="o_orderkey")


def q_cumfrac(sf_dir: str):
    from miller_ray import verbs

    sums = verbs.stats1(_t(sf_dir, "orders", ["o_orderpriority", "o_totalprice"]),
                        ["sum"], ["o_totalprice"], ["o_orderpriority"])
    r = verbs.cumulative_fraction(
        _rd().from_pandas(sums.rename(columns={"o_totalprice_sum": "grp_sum"})),
        "grp_sum").to_pandas()
    return _round(r[["o_orderpriority", "grp_sum", "grp_sum_cumfrac"]],
                  {"grp_sum": 2, "grp_sum_cumfrac": 6})


def q_stats2_linreg(sf_dir: str):
    from miller_ray import verbs

    r = verbs.stats2(_t(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"]),
                     ["linreg-ols", "cov"], [("l_quantity", "l_extendedprice")])
    return _round(r, {"l_quantity_l_extendedprice_m": 4,
                      "l_quantity_l_extendedprice_b": 4,
                      "l_quantity_l_extendedprice_cov": 4})


def q_sort_within_records(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "region", ["r_regionkey", "r_name"])
    return verbs.sort_within_records(ds)


def q_reorder(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    return verbs.reorder(ds, ["n_name"])


def q_split_write(sf_dir: str):
    """split -g then read back per-partition counts (resumable layout)."""
    import shutil
    import tempfile

    from miller_ray import verbs

    out = tempfile.mkdtemp(prefix="mr_split_")
    try:
        verbs.split_write(_t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]),
                          out, by="o_orderpriority")
        back = _rd().read_parquet(out)
        r = verbs.count(back, ["o_orderpriority"])
        # hive partition values are URL-encoded on disk ("4-NOT%20SPECIFIED")
        from urllib.parse import unquote

        r["o_orderpriority"] = r["o_orderpriority"].map(unquote)
        return r
    finally:
        shutil.rmtree(out, ignore_errors=True)


def q_tee(sf_dir: str):
    import shutil
    import tempfile

    from miller_ray import verbs

    out = tempfile.mkdtemp(prefix="mr_tee_")
    try:
        ds = _t(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
        passed = verbs.tee(ds, out)
        return verbs.count(passed, ["s_nationkey"])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def q_csv_io(sf_dir: str):
    """CSV sink + source (miller_ray.io): parquet -> CSV files -> read
    back with Arrow type inference -> grouped count."""
    import shutil
    import tempfile

    from miller_ray import io as MIO
    from miller_ray import verbs

    out = tempfile.mkdtemp(prefix="mr_csv_")
    try:
        MIO.write_csv(_t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]), out)
        back = MIO.read_csv(out)
        return verbs.count(back, ["o_orderpriority"])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def q_dkvp_io(sf_dir: str):
    """DKVP sink + source round-trip (record_reader_dkvp_nidx.go):
    k=v,k=v text lines with Miller type inference on read."""
    import shutil
    import tempfile

    from miller_ray import io as MIO

    out = tempfile.mkdtemp(prefix="mr_dkvp_")
    try:
        MIO.write_dkvp(_t(sf_dir, "nation",
                          ["n_nationkey", "n_name", "n_regionkey"]), out)
        back = MIO.read_dkvp([f"{out}/{f}" for f in sorted(
            __import__("os").listdir(out))])
        return back.to_pandas().sort_values("n_nationkey").reset_index(drop=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def q_xtab_io(sf_dir: str):
    """XTAB sink + source round-trip (record_reader_xtab.go /
    record_writer_xtab.go): key-value lines, blank-line-separated
    records, per-file parse parallelism."""
    import os
    import shutil
    import tempfile

    from miller_ray import io as MIO

    out = tempfile.mkdtemp(prefix="mr_xtab_")
    try:
        MIO.write_xtab(_t(sf_dir, "region", ["r_regionkey", "r_name"]), out)
        back = MIO.read_xtab([f"{out}/{f}" for f in sorted(os.listdir(out))])
        return back.to_pandas().sort_values("r_regionkey") \
            .reset_index(drop=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def q_markdown_io(sf_dir: str):
    """Markdown-table sink + source round-trip
    (record_reader_markdown.go / record_writer_markdown.go)."""
    import os
    import shutil
    import tempfile

    from miller_ray import io as MIO

    out = tempfile.mkdtemp(prefix="mr_md_")
    try:
        MIO.write_markdown(_t(sf_dir, "nation",
                              ["n_nationkey", "n_regionkey"]), out)
        back = MIO.read_markdown(
            [f"{out}/{f}" for f in sorted(os.listdir(out))])
        return back.to_pandas().sort_values("n_nationkey") \
            .reset_index(drop=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ----- sketch / approximate / non-SQL queries (rows-only checks) -----------

def q_sketch_flagship(sf_dir: str):
    from miller_ray.pipelines import tokens as T

    return T.sketch_summary(T.read_tokens(sf_dir))


def q_sketch_grouped(sf_dir: str):
    from miller_ray.pipelines import tokens as T

    return T.grouped_ntok_sketches(T.read_tokens(sf_dir))


def q_bloom_membership(sf_dir: str):
    """Build Bloom on even doc_ids, probe odds: zero false negatives by
    construction; report observed fp stats (deterministic)."""
    import pyarrow as pa

    from miller_ray.engine.udaf import SketchSpec, build_sketches
    from miller_ray.pipelines import tokens as T
    from miller_ray.sketches import BloomFilter

    ds = T.read_tokens(sf_dir)

    def evens(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 4, 20), pa.int64())
        return t.filter(pc.equal(pc.bit_wise_and(idx, 1), 0))

    even_ds = ds.map_batches(evens, batch_format="pyarrow")
    sk = build_sketches(even_ds, [SketchSpec.column(
        "bloom", lambda: BloomFilter(capacity=200_000, fpp=0.01), "doc_id")])
    bloom = sk["bloom"]

    def probe(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 4, 20), pa.int64())
        odd = t.filter(pc.equal(pc.bit_wise_and(idx, 1), 1))
        even = t.filter(pc.equal(pc.bit_wise_and(idx, 1), 0))
        fp = int(bloom.contains_batch(odd["doc_id"]).sum())
        fn = int((~bloom.contains_batch(even["doc_id"])).sum())
        return pa.table({"n_odd": [odd.num_rows], "n_even": [even.num_rows],
                         "false_pos": [fp], "false_neg": [fn]})

    agg = ds.map_batches(probe, batch_format="pyarrow").to_pandas().sum()
    return pd.DataFrame({
        "n_probed": [int(agg["n_odd"])],
        "false_neg": [int(agg["false_neg"])],
        "fp_rate_pct_x100": [int(10000 * agg["false_pos"] / max(1, agg["n_odd"]))],
    })


def q_cat_n(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    r = verbs.cat_n(ds, "o_orderkey", group_by=["o_orderpriority"])
    return r.select_columns(["o_orderkey", "n"])


def q_remove_empty_columns(sf_dir: str):
    import pyarrow as pa

    from miller_ray import verbs

    ds = _t(sf_dir, "nation", ["n_nationkey", "n_name"])
    ds = verbs.put(ds, all_empty=lambda t: pa.array([""] * t.num_rows))
    return verbs.remove_empty_columns(ds)


def q_least_frequent(sf_dir: str):
    from miller_ray import verbs

    return verbs.least_frequent(_t(sf_dir, "lineitem", ["l_shipdate"]),
                                ["l_shipdate"], n=3)


def q_tail_by(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    return verbs.tail_by(ds, 2, "o_orderkey", ["o_orderpriority"])


def q_step_slwin(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "user_id", "value"])
    r = verbs.step_slwin(ds, ["value"], 2, 2, ["user_id"], "event_id")
    return _round(r.select_columns(["event_id", "value_slwin_2_2"]).to_pandas(),
                  {"value_slwin_2_2": 6})


def q_decimate(sf_dir: str):
    """decimate -n 10 with a declared order (exact Miller positional
    semantics via the sorted-block carry path, SQL-oracled row-for-row;
    the orderless verbs.decimate keeps a content-hash 1/n instead)."""
    import pyarrow.compute as pc

    from miller_ray import verbs

    ds = _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"])

    def okey(t):
        return t.append_column(
            "okey", pc.add(pc.multiply(t["l_orderkey"], 16),
                           t["l_linenumber"]))

    r = verbs.decimate_positional(
        ds.map_batches(okey, batch_format="pyarrow"), 10, [], "okey")
    return r.select_columns(["l_orderkey", "l_linenumber"])


def q_decimate_pos(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "user_id", "value"])
    r = verbs.decimate_positional(ds, 3, ["user_id"], "event_id")
    return r.select_columns(["event_id", "user_id"]).to_pandas()


def q_shuffle(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "region", ["r_regionkey", "r_name"])
    return pd.DataFrame({"rows": [verbs.shuffle(ds).count()]})


def q_bootstrap(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "orders", ["o_orderkey"])
    return pd.DataFrame({"rows": [verbs.bootstrap(ds).count()]})


def q_json_flatten(sf_dir: str):
    """json-parse then flatten: props JSON string -> props.k column."""
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "props"])
    ds = verbs.json_parse(ds, ["props"])
    ds = verbs.flatten(ds)
    out = ds.to_pandas()
    out.columns = ["event_id", "props_k"]
    return out


def q_json_roundtrip(sf_dir: str):
    """json-parse -> unflatten(identity) -> json-stringify round-trip."""
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "props"])
    parsed = verbs.json_parse(ds, ["props"])
    restrung = verbs.json_stringify(parsed, ["props"])
    return restrung.to_pandas()


def q_stats1_windowed(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "user_id", "value"])
    r = verbs.stats1_windowed(ds, ["mean", "sum", "min"], ["value"],
                              ["user_id"], "event_id", window=5)
    out = r.select_columns(["event_id", "value_mean_w5", "value_sum_w5",
                            "value_min_w5"]).to_pandas()
    return _round(out, {"value_mean_w5": 6, "value_sum_w5": 6, "value_min_w5": 6})


def q_sorted_join(sf_dir: str):
    """join -s engine path: sorted-merge join of lineitem (stream)
    against orders (left) on the order key."""
    from miller_ray import verbs

    stream = _t(sf_dir, "lineitem",
                ["l_orderkey", "l_linenumber", "l_quantity"])
    left = _t(sf_dir, "orders",
              ["o_orderkey", "o_totalprice", "o_orderpriority"])
    out = verbs.sorted_merge_join(
        stream, left, right_on=["l_orderkey"], left_on=["o_orderkey"])
    return out.select_columns(["l_orderkey", "l_linenumber",
                               "l_quantity", "o_totalprice",
                               "o_orderpriority"])


def q_surv_km(sf_dir: str):
    """Kaplan-Meier survival over events: duration = round(value),
    status = odd event_id."""
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "value"])

    def status(df):
        return (df["event_id"] % 2) != 0

    out = verbs.surv(
        ds.map_batches(
            lambda df: df.assign(value=np.floor(df["value"] + 0.5)),
            batch_format="pandas"),
        "value", status)
    out["survival"] = out["survival"].round(8)
    return out


def q_bar_bars(sf_dir: str):
    """bar verb: events.value as 40-char ASCII bars on [0, 100]."""
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "value"])
    return verbs.bar(ds, ["value"], lo=0.0, hi=100.0, width=40)


def q_group_like(sf_dir: str):
    """group-like over a het stream built from events (rows with null
    props drop the column)."""
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "event_type", "value"])

    def hetify(df):
        df = df.copy()
        df.loc[df["event_id"] % 3 == 0, "value"] = None
        return df

    out = verbs.group_like(ds.map_batches(hetify, batch_format="pandas"),
                           "event_id")
    return out


def q_cut_regex(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "lineitem",
            ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"])
    return verbs.cut_regex(ds, r"^l_(orderkey|linenumber|quantity)$")


def q_rename_regex(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "region", ["r_regionkey", "r_name"])
    return verbs.rename_regex(ds, r"^r_(.*)$", r"region_\1")


def q_dsl_functions(sf_dir: str):
    """Composed Miller DSL built-ins (functions.py, SURVEY §2.8)."""
    from miller_ray import functions as F

    ds = _t(sf_dir, "part", ["p_partkey", "p_name", "p_brand", "p_retailprice"])
    for spec in [("strlen", "p_name", "name_len"),
                 ("toupper", "p_brand", "brand_uc"),
                 ("sqrt", "p_retailprice", "price_sqrt"),
                 ("md5", "p_name", "name_md5"),
                 ("sub", "p_name", "name_sub", " ", "_")]:
        ds = ds.map_batches(F.put_fn(*spec), batch_format="pyarrow")
    out = ds.select_columns(
        ["p_partkey", "name_len", "brand_uc", "price_sqrt", "name_md5", "name_sub"])
    return _round(out.to_pandas(), {"price_sqrt": 6})


def q_fill_down(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "user_id", "value"])
    # null out values on odd event_ids, then carry forward per user
    ds = verbs.put(ds, value=lambda t: pc.if_else(
        pc.equal(pc.bit_wise_and(t["event_id"], 1), 0),
        t["value"], pa.nulls(t.num_rows, pa.float64())))
    r = verbs.fill_down(ds, ["value"], ["user_id"], "event_id")
    out = r.to_pandas()[["event_id", "value"]]
    return _round(out.fillna({"value": -1.0}), {"value": 6})


def q_step_shift(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "user_id", "value"])
    r = verbs.step(ds, ["value"], ["shift_lag", "shift_lead"], ["user_id"], "event_id")
    out = r.select_columns(["event_id", "value_shift_lag", "value_shift_lead"]).to_pandas()
    return _round(out.fillna(-1.0), {"value_shift_lag": 6, "value_shift_lead": 6})


def q_step_ewma(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "events", ["event_id", "user_id", "value"])
    r = verbs.step(ds, ["value"], ["ewma"], ["user_id"], "event_id")
    out = r.select_columns(["event_id", "value_ewma"]).to_pandas()
    # alpha=0.5 ewma over 2-decimal inputs lands EXACTLY on rounding
    # boundaries; floor(x*100+.5+eps) is the deterministic tie-up
    # convention shared with the SQL oracle (pandas round is half-even,
    # DuckDB half-away — neither matches the other on exact ties).
    out["value_ewma"] = np.floor(
        out["value_ewma"].to_numpy() * 100 + 0.5 + 1e-9) / 100
    return out


def q_ngram_jaccard(sf_dir: str):
    from miller_ray.stages import dedup

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    pairs = dedup.simhash_near_pairs(ds, max_hamming=3)
    if pairs.empty:
        return pairs.assign(jaccard=[])
    r = dedup.ngram_jaccard(ds, pairs.head(20))
    return _round(r, {"jaccard": 6})


def q_checkpointed_sketch(sf_dir: str):
    """Resumable sketch build with per-partition lineage manifests
    (north rule): run once over a 4-file shard layout, report the merged
    estimates plus lineage metrics. Deterministic."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from miller_ray.engine.checkpoint import checkpointed_build, lineage_report
    from miller_ray.engine.udaf import SketchSpec
    from miller_ray.schema import generate_tokens_table, sf_to_tokens_rows
    from miller_ray.sketches import KLL, HyperLogLog

    n = sf_to_tokens_rows(sf_dir)
    work = tempfile.mkdtemp(prefix="mr_ckpt_")
    try:
        paths = []
        per = max(n // 4, 1)
        for i in range(4):
            t = generate_tokens_table(per, seed=1000 + i)
            p = f"{work}/part-{i}.parquet"
            pq.write_table(t, p, row_group_size=max(per // 4, 100))
            paths.append(p)
        specs = [
            SketchSpec.column("hll_doc_id", lambda: HyperLogLog(p=14), "doc_id"),
            SketchSpec.column("kll_n_tok", lambda: KLL(k=200), "n_tok"),
        ]
        ck = f"{work}/ckpt"
        out = checkpointed_build(paths, specs, ck)
        rep = lineage_report(ck)
        return pd.DataFrame({
            "n_partitions": [len(rep)],
            "rows_total": [sum(e["rows"] for e in rep)],
            "hll_doc_id_est_bucket": [int(out["hll_doc_id"].estimate() // 100)],
            "kll_p50": [out["kll_n_tok"].quantile(50)],
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)


def q_minhash_dedup(sf_dir: str):
    from miller_ray.stages import dedup

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    return dedup.minhash_dedup(ds, threshold=0.9)


def q_simhash_pairs(sf_dir: str):
    from miller_ray.stages import dedup

    ds = _t(sf_dir, "documents", ["doc_id", "text"])
    return dedup.simhash_near_pairs(ds, max_hamming=3)


def q_sample_reservoir(sf_dir: str):
    from miller_ray import verbs

    ds = _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    return verbs.sample(ds, k=5, group_by=["o_orderpriority"])


def q_quality_scores(sf_dir: str):
    from miller_ray import verbs
    from miller_ray.stages import text

    ds = text.quality_score(_t(sf_dir, "documents", ["source", "text"]))
    r = verbs.stats1(ds, ["mean"], ["stop_ratio", "mean_word_len"], ["source"])
    return _round(r, {"stop_ratio_mean": 6, "mean_word_len_mean": 6})


def q_corpus_curation(sf_dir: str):
    """End-to-end training-data curation over ``documents``: quality
    filter (stopword + punctuation ratio) -> exact content dedup (keep
    min doc_id) -> per-language token stats over the surviving corpus.

    Every stage streams: the quality gate is a pyarrow filter inside
    map_batches, dedup shuffles only (hash, id) pairs, and the stats
    are pre-aggregated partials. Fully SQL-checkable (each heuristic
    is deterministic arithmetic both engines compute identically).
    """
    import pyarrow.compute as pc

    from miller_ray import verbs
    from miller_ray.stages import dedup, text

    ds = text.quality_score(_t(sf_dir, "documents", ["doc_id", "lang", "text"]))

    def keep(t):
        m = pc.and_(pc.greater_equal(t["stop_ratio"], 0.05),
                    pc.less_equal(t["punct_ratio"], 0.2))
        return t.filter(m).select(["doc_id", "lang", "text"])

    ds = ds.map_batches(keep, batch_format="pyarrow")
    ds = dedup.exact_dedup(ds, ["text"], "doc_id")
    ds = text.token_count(ds)
    r = verbs.stats1(ds, ["count", "sum", "mean"], ["n_tok"], ["lang"])
    return _round(r, {"n_tok_mean": 6, "n_tok_sum": 1})


def q_ann_lsh_top10(sf_dir: str):
    """LSH-bucketed ANN (scale path): recall vs the brute-force truth."""
    import duckdb

    from miller_ray.stages import ann

    con = duckdb.connect()
    q = con.execute(
        f"select embedding from '{sf_dir}/embeddings.parquet' where vec_id < 4 order by vec_id"
    ).df()["embedding"]
    con.close()
    queries_m = np.stack(q.to_numpy()).astype(np.float64)
    exact = ann.brute_force_topk(_t(sf_dir, "embeddings", ["vec_id", "embedding"]),
                                 queries_m, k=10)
    approx = ann.lsh_bucketed_topk(_t(sf_dir, "embeddings", ["vec_id", "embedding"]),
                                   queries_m, k=10)
    rows = []
    for qid in sorted(exact["query_id"].unique()):
        e = set(exact.loc[exact["query_id"] == qid, "vec_id"])
        a = set(approx.loc[approx["query_id"] == qid, "vec_id"])
        rows.append({"query_id": int(qid),
                     "recall_pct": int(100 * len(e & a) / max(len(e), 1)),
                     "returned": len(a)})
    return pd.DataFrame(rows)


def q_ann_ivf_top10(sf_dir: str):
    """IVF ANN (scale path): k-means lists trained with distributed
    Lloyd partials, each query scanning only its nprobe closest lists.
    Full-probe equals brute force by construction (asserted here); the
    pruned probe's recall is reported per query."""
    import duckdb

    from miller_ray.stages import ann

    con = duckdb.connect()
    q = con.execute(
        f"select embedding from '{sf_dir}/embeddings.parquet' where vec_id < 4 order by vec_id"
    ).df()["embedding"]
    con.close()
    queries_m = np.stack(q.to_numpy()).astype(np.float64)
    ds = _t(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents = ann.train_ivf_centroids(ds, n_lists=8, sample_target=1024)
    exact = ann.brute_force_topk(ds, queries_m, k=10)
    full = ann.ivf_topk(_t(sf_dir, "embeddings", ["vec_id", "embedding"]),
                        queries_m, k=10, n_lists=8, nprobe=8, centroids=cents)
    assert full.equals(exact), "IVF full-probe must match brute force"
    approx = ann.ivf_topk(_t(sf_dir, "embeddings", ["vec_id", "embedding"]),
                          queries_m, k=10, n_lists=8, nprobe=4,
                          centroids=cents)
    rows = []
    for qid in sorted(exact["query_id"].unique()):
        e = set(exact.loc[exact["query_id"] == qid, "vec_id"])
        a = set(approx.loc[approx["query_id"] == qid, "vec_id"])
        rows.append({"query_id": int(qid),
                     "recall_pct": int(100 * len(e & a) / max(len(e), 1)),
                     "returned": len(a)})
    return pd.DataFrame(rows)


def q_pii_redact(sf_dir: str):
    """PII scrub (emails / IPv4s / SSN-shaped ids -> placeholder tags)
    with per-doc redaction counts. PII spans are PLANTED deterministically
    (user<doc_id>@example.com + an IPv4) so the redaction kernels are
    actually exercised; the oracle replays the same plant + RE2
    replacements in DuckDB and compares md5 of the redacted text."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from miller_ray.stages import text as T

    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        planted = pc.binary_join_element_wise(
            "user", pc.cast(t["doc_id"], pa.string()),
            "@example.com ip 10.0.0.1 ", pc.cast(t["text"], pa.string()),
            "")
        return pa.table({"doc_id": t["doc_id"], "text": planted})

    red = T.pii_redact(ds.map_batches(plant, batch_format="pyarrow"))

    def digest(df: pd.DataFrame) -> pd.DataFrame:
        df["redacted_md5"] = [hashlib.md5(x.encode()).hexdigest()
                              for x in df["text"]]
        return df[["doc_id", "n_redacted", "redacted_md5"]]

    return red.map_batches(digest, batch_format="pandas")


def q_domain_mix(sf_dir: str):
    """Deterministic source-weighted subsampling (domain mixing): keep
    doc iff doc_id % 100 < 15*(src_index%5+1) — systematic id-keyed
    selection, reproducible across retries/repartitions, no RNG. The
    curation step that rebalances source proportions before training."""
    from miller_ray import verbs
    from miller_ray.stages import text

    quotas = {f"src{i}": (i % 5 + 1) * 0.15 for i in range(64)}
    ds = text.domain_mix(
        _t(sf_dir, "documents", ["doc_id", "source", "n_chars"]), quotas)
    r = verbs.stats1(ds, ["count", "sum"], ["n_chars"], ["source"])
    return _round(r, {"n_chars_sum": 1})


def q_lang_id(sf_dir: str):
    """n-gram language-ID heuristic vs the labeled lang column."""
    from miller_ray.stages import text

    ds = _t(sf_dir, "documents", ["doc_id", "lang", "text"])
    pred = text.lang_id(ds).to_pandas()
    agg = (pred.assign(hit=(pred["lang"] == pred["lang_pred"]).astype(int))
               .groupby("lang", sort=True)["hit"].agg(["count", "sum"]).reset_index())
    agg.columns = ["lang", "n", "n_correct"]
    return agg


def q_multimodal_av(sf_dir: str):
    """Audio features + video frame sampling (stubbed decode, real
    Ray plumbing): deterministic row counts."""
    import ray.data as rd

    from miller_ray.stages import multimodal

    media = rd.from_arrow(multimodal.make_fake_media_table(100))
    audio = multimodal.extract_audio_features(media)
    frames = multimodal.sample_video_frames(media, every_n=10)
    return pd.DataFrame({"audio_rows": [audio.count()],
                         "frame_rows": [frames.count()]})


def q_multimodal_features(sf_dir: str):
    import ray.data as rd

    from miller_ray.stages import multimodal

    media = rd.from_arrow(multimodal.make_fake_media_table(200))
    feats = multimodal.extract_image_features(media, concurrency=(1, 2))
    return feats.to_pandas().assign(
        f0=lambda d: d["features"].map(lambda v: round(float(v[0]), 6))
    )[["media_id", "f0"]]


def q_multimodal_real_decode(sf_dir: str):
    """REAL codec-free decode end-to-end: PCM WAV (stdlib wave + numpy
    FFT mel-band energies) and netpbm/BMP images (pure numpy), through
    the same actor-pool stages as the fake path. Deterministic media
    table, deterministic features."""
    import ray.data as rd

    from miller_ray.stages import multimodal

    media = rd.from_arrow(multimodal.make_real_media_table(60))
    img_types = {"image/x-portable-pixmap", "image/bmp"}
    imgs = media.filter(lambda r: r["media_type"] in img_types)
    auds = media.filter(lambda r: r["media_type"] == "audio/wav")
    fi = multimodal.extract_image_features(imgs, concurrency=(1, 2),
                                           use_fake=False).to_pandas()
    fa = multimodal.extract_audio_features(auds, concurrency=(1, 2),
                                           use_fake=False).to_pandas()
    fi["kind"] = "image"
    fa["kind"] = "audio"
    fi["f0"] = fi["features"].map(lambda v: round(float(v[0]), 6))
    fa["f0"] = fa["audio_features"].map(lambda v: round(float(v[0]), 6))
    out = pd.concat([fi[["media_id", "kind", "f0"]],
                     fa[["media_id", "kind", "f0"]]], ignore_index=True)
    return out.sort_values("media_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# contract surface
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: one-pass 6-sketch build over the sf0.001 tokens table."""
    return q_sketch_flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    # ORDER MATTERS: the driver's correctness gate checks only the
    # FIRST 50 entries. Round 4 moves the 16 SQL queries that sat past
    # the cap in r03 (judge-oracle-green but never driver-recorded) to
    # the front; 16 repeatedly-driver-verified stable queries (green in
    # r01+r02+r03) rotate behind the cap. Every entry keeps its
    # oracle_sql() pair, so scripts/check_oracle.py still covers 66/66.
    return {
        # --- round-5 flagship: composed curation pipeline (quality
        # --- gate -> exact dedup -> per-lang token stats), SQL-checked
        "corpus_curation": q_corpus_curation,
        # --- round-4 window: previously past the 50-cap, plus the
        # --- round-4 ENGINE ops (never driver-checked) ---
        "sorted_join": q_sorted_join,
        "surv_km": q_surv_km,
        "bar_bars": q_bar_bars,
        "format_values": q_format_values,
        "summary": q_summary,
        "summary_full": q_summary_full,
        "repeat": q_repeat,
        "sec2gmtdate": q_sec2gmtdate,
        "uniq_all": q_uniq_all,
        "count_distinct_unlashed": q_count_distinct_unlashed,
        "histogram_auto": q_histogram_auto,
        "top_full_records": q_top_full_records,
        "cumfrac": q_cumfrac,
        "stats2_linreg": q_stats2_linreg,
        "sort_within_records": q_sort_within_records,
        "reorder": q_reorder,
        "split_write": q_split_write,
        "tee": q_tee,
        "embed_cosine_pairs": q_embed_cosine_pairs,
        "decimate_pos": q_decimate_pos,
        # --- driver-checked continuity set ---
        "count_by_group": q_count_by_group,
        "stats1_moments": q_stats1_moments,
        "stats1_skew_kurt": q_stats1_skew_kurt,
        "stats1_percentiles": q_stats1_percentiles,
        "stats1_distinct_mode": q_stats1_distinct_mode,
        "merge_fields": q_merge_fields,
        "stats2": q_stats2,
        "join_segment_revenue": q_join_segment_revenue,
        "markdown_io": q_markdown_io,
        "sort_head": q_sort_head,
        "filter_project": q_filter_project,
        "put_expr": q_put_expr,
        "put_oosvar_sum": q_put_oosvar_sum,
        "filter_expr": q_filter_expr,
        "rank": q_rank,
        "count_similar": q_count_similar,
        "step_delta": q_step_delta,
        "sec2gmt": q_sec2gmt,
        "seqgen": q_seqgen,
        "dedup_exact": q_dedup_exact,
        "lang_counts": q_lang_counts,
        "token_stats": q_token_stats,
        "fingerprint": q_fingerprint,
        "ann_top10": q_ann_top10,
        "template": q_template,
        "grep": q_grep,
        "nest_explode": q_nest_explode,
        "nest_implode": q_nest_implode,
        "reshape_long": q_reshape_long,
        "reshape_wide": q_reshape_wide,
        "ssub": q_ssub,
        "gsub": q_gsub,
        "case_upper": q_case_upper,
        "fill_empty": q_fill_empty,
        "label": q_label,
        # --- rotated behind the 50-cap (driver-green r01..r03; still
        # --- covered by scripts/check_oracle.py every round) ---
        "count_distinct": q_count_distinct,
        "count_distinct_n": q_count_distinct_n,
        "uniq_priorities": q_uniq_priorities,
        "stats1_var": q_stats1_var,
        "stats1_median_interp": q_stats1_median_interp,
        "top3": q_top3,
        "bottom2_orderkeys": q_bottom2_orderkeys,
        "histogram": q_histogram,
        "fraction": q_fraction,
        "most_frequent_brand": q_most_frequent_brand,
        "join_left_outer": q_join_left_outer,
        "join_anti": q_join_anti,
        "csv_io": q_csv_io,
        "dkvp_io": q_dkvp_io,
        "xtab_io": q_xtab_io,
        # approximate / non-SQL (rows-only checks)
        "sketch_flagship": q_sketch_flagship,
        "sketch_grouped": q_sketch_grouped,
        "bloom_membership": q_bloom_membership,
        "checkpointed_sketch": q_checkpointed_sketch,
        "dsl_functions": q_dsl_functions,
        "stats1_windowed": q_stats1_windowed,
        "json_flatten": q_json_flatten,
        "cat_n": q_cat_n,
        "remove_empty_columns": q_remove_empty_columns,
        "least_frequent": q_least_frequent,
        "tail_by": q_tail_by,
        "step_slwin": q_step_slwin,
        "decimate": q_decimate,
        "shuffle": q_shuffle,
        "bootstrap": q_bootstrap,
        "json_roundtrip": q_json_roundtrip,
        "cut_regex": q_cut_regex,
        "rename_regex": q_rename_regex,
        "fill_down": q_fill_down,
        "step_shift": q_step_shift,
        "step_ewma": q_step_ewma,
        "ngram_jaccard": q_ngram_jaccard,
        "minhash_dedup": q_minhash_dedup,
        "simhash_pairs": q_simhash_pairs,
        "sample_reservoir": q_sample_reservoir,
        "quality_scores": q_quality_scores,
        "multimodal_features": q_multimodal_features,
        "ann_lsh_top10": q_ann_lsh_top10,
        "ann_ivf_top10": q_ann_ivf_top10,
        "lang_id": q_lang_id,
        "domain_mix": q_domain_mix,
        "pii_redact": q_pii_redact,
        "multimodal_av": q_multimodal_av,
        "multimodal_real_decode": q_multimodal_real_decode,
        # round 4: rows-only engine ops
        "group_like": q_group_like,
        "embed_cosine_lsh": q_embed_cosine_lsh,
    }


def oracle_sql() -> dict[str, str]:
    p_idx = "1 + least(cast(floor({p}*count(*)/100.0) as int), count(*)-1)"
    return {
        "count_by_group":
            "SELECT l_returnflag, count(*) AS count FROM lineitem GROUP BY l_returnflag",
        "count_distinct":
            "SELECT l_returnflag, l_linestatus, count(*) AS count FROM lineitem "
            "GROUP BY l_returnflag, l_linestatus",
        "count_distinct_n":
            "SELECT count(DISTINCT l_partkey) AS count FROM lineitem",
        "uniq_priorities":
            "SELECT o_orderpriority, count(*) AS count FROM orders GROUP BY o_orderpriority",
        "stats1_moments":
            "SELECT l_returnflag, "
            "count(l_quantity) AS l_quantity_count, "
            "ROUND(sum(l_quantity), 2) AS l_quantity_sum, "
            "ROUND(avg(l_quantity), 6) AS l_quantity_mean, "
            "min(l_quantity) AS l_quantity_min, max(l_quantity) AS l_quantity_max, "
            "count(l_extendedprice) AS l_extendedprice_count, "
            "ROUND(sum(l_extendedprice), 2) AS l_extendedprice_sum, "
            "ROUND(avg(l_extendedprice), 4) AS l_extendedprice_mean, "
            "min(l_extendedprice) AS l_extendedprice_min, "
            "max(l_extendedprice) AS l_extendedprice_max "
            "FROM lineitem GROUP BY l_returnflag",
        "stats1_var":
            "SELECT l_returnflag, ROUND(var_samp(l_quantity), 3) AS l_quantity_var, "
            "ROUND(stddev_samp(l_quantity), 4) AS l_quantity_stddev, "
            "ROUND(sqrt(var_samp(l_quantity)/count(l_quantity)), 6) AS l_quantity_meaneb "
            "FROM lineitem GROUP BY l_returnflag",
        "stats1_skew_kurt":
            # Miller's formulas via raw power sums (NOT duckdb's skewness()):
            # skew = [(s3 - m*(3*s2 - 2*n*m^2))/n] / [((s2 - n*m^2)/(n-1))^1.5]
            # kurt = [(s4 - m*(4*s3 - m*(6*s2 - 3*n*m^2)))/n] / [((s2-n*m^2)/n)^2] - 3
            "WITH s AS (SELECT l_returnflag, count(*)::DOUBLE AS n, "
            "sum(l_discount) AS s1, sum(l_discount*l_discount) AS s2, "
            "sum(l_discount*l_discount*l_discount) AS s3, "
            "sum(l_discount*l_discount*l_discount*l_discount) AS s4 "
            "FROM lineitem GROUP BY l_returnflag) "
            "SELECT l_returnflag, "
            "ROUND(((s3 - (s1/n)*(3*s2 - 2*n*(s1/n)*(s1/n)))/n) / "
            "  POW((s2 - n*(s1/n)*(s1/n))/(n-1), 1.5), 6) AS l_discount_skewness, "
            "ROUND(((s4 - (s1/n)*(4*s3 - (s1/n)*(6*s2 - 3*n*(s1/n)*(s1/n))))/n) / "
            "  POW((s2 - n*(s1/n)*(s1/n))/n, 2) - 3.0, 6) AS l_discount_kurtosis "
            "FROM s",
        "stats1_percentiles":
            "SELECT l_returnflag, "
            + ", ".join(
                f"(list_sort(list(l_extendedprice)))[{p_idx.format(p=p)}] "
                f"AS l_extendedprice_p{p}" for p in (25, 50, 75, 90, 99))
            + " FROM lineitem GROUP BY l_returnflag",
        "stats1_median_interp":
            "SELECT l_linestatus, ROUND(quantile_cont(l_quantity, 0.5), 6) "
            "AS l_quantity_median FROM lineitem GROUP BY l_linestatus",
        "stats1_distinct_mode":
            "SELECT o_orderstatus, count(DISTINCT o_orderpriority) AS "
            "o_orderpriority_distinct_count, "
            "(SELECT p FROM (SELECT o_orderpriority p, count(*) c FROM orders o2 "
            " WHERE o2.o_orderstatus = o.o_orderstatus GROUP BY 1 "
            " ORDER BY c DESC, p LIMIT 1)) AS o_orderpriority_mode "
            "FROM orders o GROUP BY o_orderstatus",
        "top3":
            "SELECT l_returnflag, CAST(row_number() OVER "
            "(PARTITION BY l_returnflag ORDER BY l_extendedprice DESC) AS BIGINT) AS top_idx, "
            "l_extendedprice AS l_extendedprice_top FROM lineitem QUALIFY top_idx <= 3",
        "bottom2_orderkeys":
            "SELECT o_orderpriority, CAST(row_number() OVER "
            "(PARTITION BY o_orderpriority ORDER BY o_orderkey ASC) AS BIGINT) AS top_idx, "
            "o_orderkey AS o_orderkey_top FROM orders QUALIFY top_idx <= 2",
        "histogram":
            "WITH bins AS (SELECT CAST(range AS BIGINT) b FROM range(0, 10)), "
            "c AS (SELECT least(cast(floor(l_quantity/5.0) as BIGINT), 9) b, "
            "count(*) n FROM lineitem WHERE l_quantity >= 0 AND l_quantity <= 50 GROUP BY 1) "
            "SELECT bins.b*5.0 AS bin_lo, (bins.b+1)*5.0 AS bin_hi, "
            "COALESCE(c.n, 0) AS l_quantity_count FROM bins LEFT JOIN c ON bins.b = c.b",
        "fraction":
            "SELECT o_orderpriority, ROUND(sum(o_totalprice) / "
            "(SELECT sum(o_totalprice) FROM orders), 6) AS o_totalprice_fraction "
            "FROM orders GROUP BY o_orderpriority",
        "most_frequent_brand":
            "SELECT p_brand, count(*) AS count FROM part GROUP BY p_brand "
            "ORDER BY count DESC, p_brand LIMIT 3",
        "merge_fields":
            "SELECT l_orderkey, l_linenumber, "
            "least(l_tax, l_discount) AS rate_min, "
            "greatest(l_tax, l_discount) AS rate_max, "
            "l_tax + l_discount AS rate_sum FROM lineitem",
        "stats2":
            "SELECT l_returnflag, "
            "ROUND(corr(l_quantity, l_extendedprice), 6) AS l_quantity_l_extendedprice_corr, "
            "ROUND(POW(corr(l_quantity, l_extendedprice), 2), 8) "
            "AS l_quantity_l_extendedprice_r2 "
            "FROM lineitem GROUP BY l_returnflag",
        "join_segment_revenue":
            "SELECT c_mktsegment, count(o_totalprice) AS o_totalprice_count, "
            "ROUND(sum(o_totalprice), 2) AS o_totalprice_sum "
            "FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment",
        "join_left_outer":
            "SELECT o_orderkey, o_custkey, COALESCE(c_mktsegment, '-') "
            "AS c_mktsegment FROM orders "
            "LEFT JOIN (SELECT c_custkey, c_mktsegment FROM customer "
            "WHERE c_mktsegment = 'BUILDING') c ON o_custkey = c_custkey",
        "join_anti":
            "SELECT c_custkey, c_mktsegment FROM customer "
            "WHERE c_custkey NOT IN "
            "(SELECT o_custkey FROM orders WHERE o_custkey <= 750)",
        "sort_head":
            "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
            "ORDER BY l_extendedprice DESC LIMIT 100",
        "filter_project":
            "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_discount, "
            "l_extendedprice * (1.0 - l_discount) AS revenue "
            "FROM lineitem WHERE l_quantity > 45.0",
        "put_expr":
            "SELECT l_orderkey, l_linenumber, l_extendedprice, l_discount, l_tax, "
            "l_extendedprice * (1 - l_discount) AS revenue, "
            "l_extendedprice * (1 - l_discount) * (1 + l_tax) AS charge, "
            "CASE WHEN l_discount > 0.05 THEN 'hi' ELSE 'lo' END AS tag "
            "FROM lineitem",
        "put_oosvar_sum":
            "SELECT l_returnflag, ROUND(CAST(SUM(l_quantity) AS DOUBLE), 2) AS q "
            "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
        "filter_expr":
            "SELECT p_partkey, p_name, p_brand, p_retailprice FROM part "
            "WHERE (p_retailprice >= 1200 AND regexp_matches(p_name, 'widget')) "
            "OR p_brand = 'Brand#13'",
        "rank":
            "SELECT l_orderkey, l_linenumber, CAST(rank() OVER "
            "(PARTITION BY l_returnflag ORDER BY l_quantity) AS BIGINT) AS l_quantity_rank "
            "FROM lineitem",
        "count_similar":
            "SELECT c_custkey, c_mktsegment, CAST(count(*) OVER "
            "(PARTITION BY c_mktsegment) AS BIGINT) AS segment_count FROM customer",
        "step_delta":
            "SELECT event_id, "
            "ROUND(COALESCE(value - lag(value) OVER w, 0), 6) AS value_delta, "
            "ROUND(sum(value) OVER (PARTITION BY user_id ORDER BY event_id "
            "ROWS UNBOUNDED PRECEDING), 6) AS value_rsum "
            "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY event_id)",
        "step_ewma":
            # fold the per-group prefix list: acc_1 = x_1, then
            # acc = 0.5*x + 0.5*acc (miller step -a ewma, default d=0.5)
            "SELECT event_id, "
            "floor(list_reduce(list(value) OVER (PARTITION BY user_id "
            "ORDER BY event_id ROWS UNBOUNDED PRECEDING), "
            "(acc, x) -> 0.5*x + 0.5*acc)*100 + 0.5 + 1e-9)/100 "
            "AS value_ewma FROM events",
        "sec2gmt":
            "SELECT event_id, strftime(epoch_ms(event_id * 1000), "
            "'%Y-%m-%dT%H:%M:%SZ') AS sec FROM events",
        "case_upper":
            "SELECT doc_id, upper(lang) AS lang FROM documents",
        "fill_empty":
            "SELECT event_id, CASE WHEN event_type IS NULL OR event_type = '' "
            "THEN 'N/A' ELSE event_type END AS event_type FROM events",
        "seqgen":
            "SELECT CAST(range AS BIGINT) AS i FROM range(1, 1001)",
        "dedup_exact":
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "lang_counts":
            "SELECT lang, count(*) AS count FROM documents GROUP BY lang",
        "decimate":
            "SELECT l_orderkey, l_linenumber FROM ("
            "SELECT l_orderkey, l_linenumber, row_number() OVER "
            "(ORDER BY l_orderkey*16 + l_linenumber) AS rn FROM lineitem"
            ") WHERE rn % 10 = 0",
        "pii_redact":
            "WITH planted AS (SELECT doc_id, 'user' || doc_id || "
            "'@example.com ip 10.0.0.1 ' || text AS t0 FROM documents), "
            "s1 AS (SELECT doc_id, "
            "len(regexp_extract_all(t0, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS c1, "
            "regexp_replace(t0, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', "
            "'<EMAIL>', 'g') AS t1 FROM planted), "
            "s2 AS (SELECT doc_id, c1, "
            "len(regexp_extract_all(t1, "
            "'\\b(?:\\d{1,3}\\.){3}\\d{1,3}\\b')) AS c2, "
            "regexp_replace(t1, '\\b(?:\\d{1,3}\\.){3}\\d{1,3}\\b', "
            "'<IP>', 'g') AS t2 FROM s1), "
            "s3 AS (SELECT doc_id, c1, c2, "
            "len(regexp_extract_all(t2, '\\b\\d{3}-\\d{2}-\\d{4}\\b')) AS c3, "
            "regexp_replace(t2, '\\b\\d{3}-\\d{2}-\\d{4}\\b', '<SSN>', 'g') "
            "AS t3 FROM s2) "
            "SELECT doc_id, c1 + c2 + c3 AS n_redacted, md5(t3) AS "
            "redacted_md5 FROM s3",
        "domain_mix":
            "WITH kept AS (SELECT source, n_chars FROM documents WHERE "
            "(doc_id % 100) < ((CAST(substr(source, 4) AS INT) % 5 + 1) * 15)) "
            "SELECT source, count(n_chars) AS n_chars_count, "
            "ROUND(sum(n_chars), 1) AS n_chars_sum "
            "FROM kept GROUP BY source",
        "lang_id":
            "WITH w AS (SELECT lang, list_slice(regexp_split_to_array("
            "lower(text), '\\s+'), 1, 200) AS ws FROM documents), "
            "s AS (SELECT lang, "
            "len(list_distinct(list_filter(ws, x -> x IN "
            "('der','und','die')))) AS s_de, "
            "len(list_distinct(list_filter(ws, x -> x IN "
            "('the','and','of')))) AS s_en, "
            "len(list_distinct(list_filter(ws, x -> x IN "
            "('el','y','los')))) AS s_es, "
            "len(list_distinct(list_filter(ws, x -> x IN "
            "('le','et','les')))) AS s_fr FROM w), "
            "p AS (SELECT lang, CASE "
            "WHEN GREATEST(s_de,s_en,s_es,s_fr) = 0 THEN 'unknown' "
            "WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr "
            "THEN 'de' "
            "WHEN s_en >= s_es AND s_en >= s_fr THEN 'en' "
            "WHEN s_es >= s_fr THEN 'es' ELSE 'fr' END AS pred FROM s) "
            "SELECT lang, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(CASE WHEN pred = lang THEN 1 ELSE 0 END) "
            "AS BIGINT) AS n_correct FROM p GROUP BY lang",
        "group_like":
            # the hetify stage nulls `value` where event_id%3==0; the
            # group-like reordering is invisible to the driver's
            # order-insensitive compare, so content equality IS the check
            "SELECT event_id, event_type, "
            "CASE WHEN event_id % 3 = 0 THEN NULL ELSE value END AS value "
            "FROM events",
        "corpus_curation":
            "WITH w AS (SELECT doc_id, lang, text, "
            "len(regexp_split_to_array(text, '\\s+'))::DOUBLE AS n_words, "
            "len(list_filter(regexp_split_to_array(lower(text), '\\s+'), "
            "x -> x IN ('the','and','of','a','to','in','is','it','that',"
            "'for')))::DOUBLE AS n_stop, "
            "length(regexp_replace(text, '[\\w\\s]', '', 'g'))::DOUBLE "
            "AS n_punct, "
            "GREATEST(length(text), 1)::DOUBLE AS n_chars FROM documents), "
            "f AS (SELECT doc_id, lang, text FROM w "
            "WHERE n_stop / GREATEST(n_words, 1) >= 0.05 "
            "AND n_punct / n_chars <= 0.2), "
            "d AS (SELECT arg_min(lang, doc_id) AS lang, text "
            "FROM f GROUP BY text), "
            "t AS (SELECT lang, CAST(len(regexp_split_to_array(text, "
            "'\\s+')) AS BIGINT) AS n_tok FROM d) "
            "SELECT lang, count(n_tok) AS n_tok_count, "
            "ROUND(sum(n_tok), 1) AS n_tok_sum, "
            "ROUND(avg(n_tok), 6) AS n_tok_mean FROM t GROUP BY lang",
        "quality_scores":
            "WITH w AS (SELECT source, length(text)::DOUBLE AS n_chars, "
            "len(regexp_split_to_array(text, '\\s+'))::DOUBLE AS n_words, "
            "len(list_filter(regexp_split_to_array(lower(text), '\\s+'), "
            "x -> x IN ('the','and','of','a','to','in','is','it','that',"
            "'for')))::DOUBLE AS n_stop FROM documents) "
            "SELECT source, "
            "ROUND(AVG(n_stop / GREATEST(n_words, 1)), 6) AS stop_ratio_mean, "
            "ROUND(AVG(n_chars / GREATEST(n_words, 1)), 6) "
            "AS mean_word_len_mean FROM w GROUP BY source",
        "token_stats":
            "WITH t AS (SELECT lang, CAST(len(regexp_split_to_array(text, '\\s+')) AS BIGINT) "
            "AS n_tok FROM documents) "
            "SELECT lang, count(n_tok) AS n_tok_count, ROUND(sum(n_tok), 1) AS n_tok_sum, "
            "ROUND(avg(n_tok), 6) AS n_tok_mean, ROUND(max(n_tok), 1) AS n_tok_max "
            "FROM t GROUP BY lang",
        "fingerprint":
            "SELECT doc_id, md5(text) AS fingerprint FROM documents",
        "ann_top10":
            "WITH q AS (SELECT vec_id AS query_id, embedding e FROM embeddings "
            "WHERE vec_id < 4) "
            "SELECT q.query_id, CAST(row_number() OVER (PARTITION BY q.query_id "
            "ORDER BY list_cosine_similarity(v.embedding, q.e) DESC, v.vec_id) AS BIGINT) "
            "AS rank, v.vec_id FROM embeddings v CROSS JOIN q QUALIFY rank <= 10",
        "decimate_pos":
            "SELECT event_id, user_id FROM (SELECT event_id, user_id, "
            "row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS rn "
            "FROM events) WHERE rn % 3 = 0",
        "embed_cosine_pairs":
            "SELECT a.vec_id AS id1, b.vec_id AS id2 "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
            "CAST(b.embedding AS DOUBLE[])) >= 0.4",
        "label":
            "SELECT r_regionkey AS regionkey, r_name AS name FROM region",
        "template":
            "SELECT n_name, n_nationkey, '-' AS n_missing FROM nation",
        "grep":
            "SELECT p_partkey, p_name, p_brand FROM part WHERE "
            "regexp_matches(concat('p_partkey=', p_partkey, ',p_name=', p_name, "
            "',p_brand=', p_brand), 'widget')",
        "nest_explode":
            "SELECT p_partkey, unnest(string_split(p_name, ' ')) AS p_name FROM part",
        "nest_implode":
            "WITH e AS (SELECT p_partkey, unnest(string_split(p_name, ' ')) AS w "
            "FROM part) SELECT p_partkey, string_agg(w, ';' ORDER BY w) AS p_name "
            "FROM e GROUP BY p_partkey",
        "reshape_long":
            "SELECT l_orderkey, l_linenumber, 'l_tax' AS rate_kind, l_tax AS rate "
            "FROM lineitem UNION ALL "
            "SELECT l_orderkey, l_linenumber, 'l_discount', l_discount FROM lineitem",
        "reshape_wide":
            "SELECT l_orderkey, l_linenumber, max(l_tax) AS l_tax, "
            "max(l_discount) AS l_discount FROM lineitem GROUP BY 1, 2",
        "repeat":
            "SELECT r_regionkey, r_name FROM (SELECT * FROM region ORDER BY "
            "r_regionkey LIMIT 5) CROSS JOIN range(3)",
        "sec2gmtdate":
            "SELECT event_id, strftime(epoch_ms(event_id * 1000), '%Y-%m-%d') AS day "
            "FROM events",
        "ssub":
            "SELECT p_partkey, regexp_replace(p_name, 'widget', 'gadget') AS p_name "
            "FROM part",
        "gsub":
            "SELECT p_partkey, regexp_replace(p_type, '[aeiou]', '_', 'g') AS p_type "
            "FROM part",
        "format_values":
            "SELECT printf('%d', l_orderkey) AS l_orderkey, "
            "printf('%d', l_linenumber) AS l_linenumber, "
            "printf('%.2f', l_quantity) AS l_quantity FROM lineitem",
        "summary":
            "WITH "
            "q AS (SELECT list_sort(list(l_quantity)) l, count(*) n FROM lineitem), "
            "d AS (SELECT list_sort(list(l_discount)) l, count(*) n FROM lineitem) "
            "SELECT 'l_quantity' AS field_name, count(l_quantity) AS count, "
            "count(*) - count(l_quantity) AS null_count, "
            "min(l_quantity) AS min, max(l_quantity) AS max, "
            "ROUND(sum(l_quantity), 2) AS sum, "
            "ROUND(ROUND(sum(l_quantity), 2) / count(l_quantity), 6) AS mean, "
            "ROUND(stddev_samp(l_quantity), 6) AS stddev, "
            "(SELECT l[1+least(cast(floor(25*n/100.0) as int), n-1)] FROM q) AS p25, "
            "(SELECT l[1+least(cast(floor(50*n/100.0) as int), n-1)] FROM q) AS median, "
            "(SELECT l[1+least(cast(floor(75*n/100.0) as int), n-1)] FROM q) AS p75, "
            "ROUND((SELECT l[1+least(cast(floor(75*n/100.0) as int), n-1)] FROM q) - "
            "(SELECT l[1+least(cast(floor(25*n/100.0) as int), n-1)] FROM q), 6) AS iqr "
            "FROM lineitem UNION ALL "
            "SELECT 'l_discount', count(l_discount), count(*) - count(l_discount), "
            "min(l_discount), max(l_discount), ROUND(sum(l_discount), 2), "
            "ROUND(ROUND(sum(l_discount), 2) / count(l_discount), 6), "
            "ROUND(stddev_samp(l_discount), 6), "
            "(SELECT l[1+least(cast(floor(25*n/100.0) as int), n-1)] FROM d), "
            "(SELECT l[1+least(cast(floor(50*n/100.0) as int), n-1)] FROM d), "
            "(SELECT l[1+least(cast(floor(75*n/100.0) as int), n-1)] FROM d), "
            "ROUND((SELECT l[1+least(cast(floor(75*n/100.0) as int), n-1)] FROM d) - "
            "(SELECT l[1+least(cast(floor(25*n/100.0) as int), n-1)] FROM d), 6) "
            "FROM lineitem",
        "summary_full":
            "WITH q AS (SELECT list_sort(list(l_quantity)) l, count(*) n "
            "FROM lineitem), "
            "sk AS (SELECT count(*)::DOUBLE n, sum(l_quantity) s1, "
            "sum(l_quantity*l_quantity) s2, "
            "sum(l_quantity*l_quantity*l_quantity) s3 FROM lineitem), "
            "pct AS (SELECT "
            "(SELECT l[1+least(cast(floor(25*n/100.0) as int), n-1)] FROM q) p25, "
            "(SELECT l[1+least(cast(floor(50*n/100.0) as int), n-1)] FROM q) p50, "
            "(SELECT l[1+least(cast(floor(75*n/100.0) as int), n-1)] FROM q) p75) "
            "SELECT 'l_quantity' AS field_name, 'float' AS field_type, "
            "count(l_quantity) AS count, "
            "count(*) - count(l_quantity) AS null_count, "
            "count(DISTINCT l_quantity) AS distinct_count, "
            "(SELECT p FROM (SELECT l_quantity p, count(*) c FROM lineitem "
            " GROUP BY 1 ORDER BY c DESC, p LIMIT 1)) AS mode, "
            "ROUND(sum(l_quantity), 2) AS sum, ROUND(avg(l_quantity), 6) AS mean, "
            "ROUND(stddev_samp(l_quantity), 6) AS stddev, "
            "ROUND(var_samp(l_quantity), 6) AS var, "
            "(SELECT ROUND(((s3 - (s1/n)*(3*s2 - 2*n*(s1/n)*(s1/n)))/n) / "
            " POW((s2 - n*(s1/n)*(s1/n))/(n-1), 1.5), 6) FROM sk) AS skewness, "
            "min(l_quantity) AS min, "
            "(SELECT p25 FROM pct) AS p25, (SELECT p50 FROM pct) AS median, "
            "(SELECT p75 FROM pct) AS p75, max(l_quantity) AS max, "
            "(SELECT ROUND(p75 - p25, 6) FROM pct) AS iqr, "
            "(SELECT ROUND(p25 - 3.0*(p75-p25), 6) FROM pct) AS lof, "
            "(SELECT ROUND(p25 - 1.5*(p75-p25), 6) FROM pct) AS lif, "
            "(SELECT ROUND(p75 + 1.5*(p75-p25), 6) FROM pct) AS uif, "
            "(SELECT ROUND(p75 + 3.0*(p75-p25), 6) FROM pct) AS uof "
            "FROM lineitem",
        "uniq_all":
            "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem",
        "count_distinct_unlashed":
            "SELECT 'l_returnflag' AS field, l_returnflag AS value, count(*) AS count "
            "FROM lineitem GROUP BY l_returnflag UNION ALL "
            "SELECT 'l_linestatus', l_linestatus, count(*) FROM lineitem "
            "GROUP BY l_linestatus",
        "histogram_auto":
            "WITH mm AS (SELECT min(l_quantity) lo, max(l_quantity) hi FROM lineitem), "
            "bins AS (SELECT CAST(range AS BIGINT) b FROM range(0, 8)), "
            "c AS (SELECT least(cast(floor((l_quantity - mm.lo) * 8.0 / (mm.hi - mm.lo)) "
            "as BIGINT), 7) b, count(*) n FROM lineitem, mm GROUP BY 1) "
            "SELECT mm.lo + bins.b * (mm.hi - mm.lo) / 8.0 AS bin_lo, "
            "mm.lo + (bins.b + 1) * (mm.hi - mm.lo) / 8.0 AS bin_hi, "
            "COALESCE(c.n, 0) AS l_quantity_count "
            "FROM bins CROSS JOIN mm LEFT JOIN c ON bins.b = c.b",
        "top_full_records":
            "SELECT o_orderkey, o_orderpriority, o_totalprice FROM orders "
            "QUALIFY row_number() OVER (PARTITION BY o_orderpriority "
            "ORDER BY o_totalprice DESC, o_orderkey) <= 2",
        "cumfrac":
            "WITH s AS (SELECT o_orderpriority, sum(o_totalprice) grp_sum FROM orders "
            "GROUP BY o_orderpriority) "
            "SELECT o_orderpriority, ROUND(grp_sum, 2) AS grp_sum, "
            "ROUND(sum(grp_sum) OVER (ORDER BY "
            "grp_sum DESC, o_orderpriority ROWS UNBOUNDED PRECEDING) / "
            "(SELECT sum(grp_sum) FROM s), 6) AS grp_sum_cumfrac FROM s",
        "stats2_linreg":
            "SELECT ROUND(regr_slope(l_extendedprice, l_quantity), 4) "
            "AS l_quantity_l_extendedprice_m, "
            "ROUND(regr_intercept(l_extendedprice, l_quantity), 4) "
            "AS l_quantity_l_extendedprice_b, "
            "CAST(count(*) AS BIGINT) AS l_quantity_l_extendedprice_n, "
            "ROUND(covar_samp(l_quantity, l_extendedprice), 4) "
            "AS l_quantity_l_extendedprice_cov FROM lineitem",
        "sort_within_records":
            "SELECT r_name, r_regionkey FROM region",
        "reorder":
            "SELECT n_name, n_nationkey, n_regionkey FROM nation",
        "split_write":
            "SELECT o_orderpriority, count(*) AS count FROM orders "
            "GROUP BY o_orderpriority",
        "tee":
            "SELECT s_nationkey, count(*) AS count FROM supplier GROUP BY s_nationkey",
        "csv_io":
            "SELECT o_orderpriority, count(*) AS count FROM orders "
            "GROUP BY o_orderpriority",
        "dkvp_io":
            "SELECT n_nationkey, n_name, n_regionkey FROM nation",
        "xtab_io":
            "SELECT r_regionkey, r_name FROM region",
        "markdown_io":
            "SELECT n_nationkey, n_regionkey FROM nation",
        "json_flatten":
            "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS props_k "
            "FROM events",
        "cat_n":
            "SELECT o_orderkey, CAST(rank() OVER (PARTITION BY o_orderpriority "
            "ORDER BY o_orderkey) AS BIGINT) AS n FROM orders",
        "remove_empty_columns":
            "SELECT n_nationkey, n_name FROM nation",
        "least_frequent":
            "SELECT l_shipdate, count(*) AS count FROM lineitem "
            "GROUP BY l_shipdate ORDER BY count ASC, l_shipdate LIMIT 3",
        "tail_by":
            "SELECT o_orderkey, o_orderpriority FROM orders QUALIFY "
            "row_number() OVER (PARTITION BY o_orderpriority "
            "ORDER BY o_orderkey DESC) <= 2",
        "step_slwin":
            "SELECT event_id, ROUND(avg(value) OVER (PARTITION BY user_id "
            "ORDER BY event_id ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING), 6) "
            "AS value_slwin_2_2 FROM events",
        "json_roundtrip":
            "SELECT event_id, json_object('k', CAST(json_extract(props, '$.k') "
            "AS BIGINT))::VARCHAR AS props FROM events",
        "stats1_windowed":
            "SELECT event_id, "
            "ROUND(avg(value) OVER w, 6) AS value_mean_w5, "
            "ROUND(sum(value) OVER w, 6) AS value_sum_w5, "
            "ROUND(min(value) OVER w, 6) AS value_min_w5 "
            "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY event_id "
            "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)",
        "cut_regex":
            "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem",
        "rename_regex":
            "SELECT r_regionkey AS region_regionkey, r_name AS region_name FROM region",
        "dsl_functions":
            "SELECT p_partkey, CAST(length(p_name) AS BIGINT) AS name_len, "
            "upper(p_brand) AS brand_uc, ROUND(sqrt(p_retailprice), 6) AS price_sqrt, "
            "md5(p_name) AS name_md5, "
            "regexp_replace(p_name, ' ', '_') AS name_sub FROM part",
        "fill_down":
            "SELECT event_id, ROUND(COALESCE(last_value(CASE WHEN event_id % 2 = 0 "
            "THEN value END IGNORE NULLS) OVER (PARTITION BY user_id ORDER BY "
            "event_id ROWS UNBOUNDED PRECEDING), -1.0), 6) AS value FROM events",
        "step_shift":
            "SELECT event_id, "
            "ROUND(COALESCE(lag(value) OVER w, -1.0), 6) AS value_shift_lag, "
            "ROUND(COALESCE(lead(value) OVER w, -1.0), 6) AS value_shift_lead "
            "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY event_id)",
        "sorted_join":
            "SELECT l_orderkey, l_linenumber, l_quantity, o_totalprice, "
            "o_orderpriority FROM lineitem JOIN orders "
            "ON l_orderkey = o_orderkey",
        "surv_km":
            "WITH ev AS (SELECT floor(value + 0.5) AS duration, "
            "(event_id % 2) <> 0 AS status FROM events "
            "WHERE value IS NOT NULL), "
            "agg AS (SELECT duration, count(*) AS n_here, "
            "sum(CASE WHEN status THEN 1 ELSE 0 END) AS d "
            "FROM ev GROUP BY duration), "
            "r AS (SELECT duration, d, sum(n_here) OVER "
            "(ORDER BY duration DESC) AS n_at FROM agg), "
            "s AS (SELECT duration, d, exp(sum(ln(1.0 - "
            "CAST(d AS DOUBLE)/n_at)) OVER (ORDER BY duration)) "
            "AS survival FROM r) "
            "SELECT duration AS time, round(survival, 8) AS survival "
            "FROM s WHERE d > 0",
        "bar_bars":
            "SELECT event_id, CASE WHEN value IS NULL THEN NULL "
            "WHEN i <= 0 THEN '#' || repeat('.', 39) "
            "WHEN i >= 40 THEN repeat('*', 39) || '#' "
            "ELSE repeat('*', i) || repeat('.', 40 - i) END AS value "
            "FROM (SELECT event_id, value, "
            "CAST(floor(40 * value / 100.0) AS INT) AS i FROM events)",
    }
