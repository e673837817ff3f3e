"""Round-2 verb-gap coverage: nest pairs/across-fields, case variants,
sec2gmt fractional, sort flags, having-fields modes, bootstrap-ci,
positional decimate, tail order, cumulative fraction, reshape and
percentiles corner inputs, summary full stat set."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from miller_ray import verbs


def _ds(tbl):
    import ray.data as rd

    return rd.from_arrow(tbl)


def test_nest_explode_values_across_fields(ray_session):
    t = pa.table({"id": [1, 2], "x": ["a;b;c", "d;e"]})
    r = verbs.nest_explode_values_across_fields(_ds(t), "x").to_pandas()
    assert list(r.columns) == ["id", "x_1", "x_2", "x_3"]
    assert r.loc[0].tolist() == [1, "a", "b", "c"]
    assert r.loc[1, "x_2"] == "e"
    assert pd.isna(r.loc[1, "x_3"]) or r.loc[1, "x_3"] is None


def _empty(tbl):
    """A Dataset over ``tbl`` with every row filtered out."""
    return _ds(tbl).filter(lambda r: False)


def _blocks(tbl):
    """A Dataset over ``tbl`` with one block per row."""
    import ray.data as rd

    return rd.from_arrow([tbl.slice(i, 1) for i in range(tbl.num_rows)])


def test_nest_explode_values_max_count_over_blocks(ray_session):
    # the widest row sits in the last of 3 blocks
    t = pa.table({"id": [1, 2, 3], "x": ["a", "b;c", "d;e;f"]})
    r = verbs.nest_explode_values_across_fields(_blocks(t), "x").to_pandas()
    r = r.sort_values("id").reset_index(drop=True)
    assert list(r.columns) == ["id", "x_1", "x_2", "x_3"]
    assert r.loc[2].tolist() == [3, "d", "e", "f"]
    assert r.loc[0, "x_1"] == "a" and pd.isna(r.loc[0, "x_3"])
    assert verbs.nest_explode_values_across_fields(_empty(t), "x").count() == 0


def test_remove_empty_columns_over_blocks(ray_session):
    # "s" is non-empty in one block only; "e" is null or "" in every one
    t = pa.table({"a": [1, 2, 3], "s": ["", None, "x"], "e": [None, "", ""]})
    r = verbs.remove_empty_columns(_blocks(t)).to_pandas()
    assert list(r.columns) == ["a", "s"]
    assert sorted(r["a"]) == [1, 2, 3]
    assert verbs.remove_empty_columns(_empty(t)).count() == 0


def test_nest_explode_pairs_across_fields(ray_session):
    t = pa.table({"id": [1, 2], "x": ["a=1;b=2", "a=3;c=4"]})
    r = verbs.nest_explode_pairs_across_fields(_ds(t), "x").to_pandas()
    r = r.sort_values("id").reset_index(drop=True)
    assert r.loc[0, "a"] == "1" and r.loc[0, "b"] == "2"
    assert r.loc[1, "a"] == "3" and r.loc[1, "c"] == "4"
    assert pd.isna(r.loc[1, "b"])


def test_nest_explode_pairs_across_records(ray_session):
    t = pa.table({"id": [1], "x": ["a=1;b=2"]})
    r = verbs.nest_explode_pairs_across_records(_ds(t), "x").to_pandas()
    assert len(r) == 2
    assert set(r.columns) == {"id", "a", "b"}
    assert r["a"].dropna().tolist() == ["1"]
    assert r["b"].dropna().tolist() == ["2"]


def test_case_variants(ray_session):
    t = pa.table({"s": ["hello WORLD", "bye"]})
    r = verbs.case_verb(_ds(t), ["s"], how="sentence").to_pandas()
    assert r["s"].tolist() == ["Hello world", "Bye"]
    r2 = verbs.case_keys(_ds(pa.table({"ab": [1], "Cd": [2]})), "upper").to_pandas()
    assert list(r2.columns) == ["AB", "CD"]


def test_sec2gmt_frac(ray_session):
    t = pa.table({"t": pa.array([1500000000.25, 1500000000.999999])})
    r = verbs.sec2gmt_frac(_ds(t), ["t"], decimals=3).to_pandas()
    assert r["t"].tolist() == ["2017-07-14T02:40:00.250Z",
                               "2017-07-14T02:41:00.000Z"] or \
        r["t"].tolist()[0].endswith(".250Z")
    # millis input
    t2 = pa.table({"t": pa.array([1500000000123])})
    r2 = verbs.sec2gmt_frac(_ds(t2), ["t"], decimals=3,
                            input_unit="ms").to_pandas()
    assert r2["t"].iloc[0] == "2017-07-14T02:40:00.123Z"


def test_sort_by_flags(ray_session):
    t = pa.table({"s": ["file10", "file2", "File1"], "n": ["10", "2", "1"]})
    r = verbs.sort_by_flags(_ds(t), [("s", "t")]).to_pandas()
    assert r["s"].tolist() == ["File1", "file2", "file10"]  # natural order
    r2 = verbs.sort_by_flags(_ds(t), [("s", "c")]).to_pandas()
    assert r2["s"].tolist() == ["File1", "file10", "file2"]
    r3 = verbs.sort_by_flags(_ds(t), [("n", "nf")]).to_pandas()
    assert r3["n"].tolist() == ["1", "2", "10"]
    r4 = verbs.sort_by_flags(_ds(t), [("n", "nr")]).to_pandas()
    assert r4["n"].tolist() == ["10", "2", "1"]


def test_having_fields_modes(ray_session):
    t = pa.table({"a": [1, None, 3], "b": [None, None, 6]})
    assert verbs.having_fields_mode(_ds(t), ["a", "b"],
                                    "all-defined").count() == 1
    assert verbs.having_fields_mode(_ds(t), ["a", "b"],
                                    "any-defined").count() == 2
    assert verbs.having_fields_mode(_ds(t), ["a", "b"],
                                    "none-defined").count() == 1
    assert verbs.having_fields_mode(_ds(t), mode="any-defined",
                                    name_regex="^a$").count() == 2


def test_bootstrap_ci(ray_session):
    rng = np.random.default_rng(7)
    x = rng.normal(10.0, 2.0, 4000)
    t = pa.table({"v": pa.array(x)})
    r = verbs.bootstrap_ci(_ds(t), ["v"], stat="mean", nboot=200, seed=3)
    lo, hi = float(r["mean_lo"].iloc[0]), float(r["mean_hi"].iloc[0])
    se = 2.0 / np.sqrt(4000)
    assert lo < 10.0 < hi
    assert (hi - lo) < 8 * se  # sane width
    # deterministic across runs
    r2 = verbs.bootstrap_ci(_ds(t), ["v"], stat="mean", nboot=200, seed=3)
    assert float(r2["mean_lo"].iloc[0]) == lo


def test_bootstrap_ci_without_rows(ray_session):
    t = pa.table({"v": [1.0, 2.0]})
    r = verbs.bootstrap_ci(_empty(t), ["v"], stat="sum", nboot=20)
    assert list(r.columns) == ["field", "sum_lo", "sum_hi"] and r.empty


def test_decimate_positional(ray_session):
    t = pa.table({"g": ["a"] * 6 + ["b"] * 3,
                  "i": list(range(6)) + list(range(3))})
    r = verbs.decimate_positional(_ds(t), 3, ["g"], "i").to_pandas()
    got = r.sort_values(["g", "i"])
    assert got[got["g"] == "a"]["i"].tolist() == [2, 5]
    assert got[got["g"] == "b"]["i"].tolist() == [2]
    r2 = verbs.decimate_positional(_ds(t), 3, ["g"], "i",
                                   keep_first=True).to_pandas()
    assert r2[r2["g"] == "a"].sort_values("i")["i"].tolist() == [0, 3]


def test_tail_ordered(ray_session):
    t = pa.table({"i": list(range(100))})
    r = verbs.tail(_ds(t), 5, order_by="i").to_pandas()
    assert r["i"].tolist() == [95, 96, 97, 98, 99]


def test_tail_in_block_order_over_many_blocks(ray_session):
    # without an order column, the last n rows in block order, across
    # block boundaries and for n beyond the row count
    import ray.data as rd

    t = pa.table({"i": list(range(100))})
    ds = rd.from_arrow([t.slice(i, 10) for i in range(0, 100, 10)])
    assert verbs.tail(ds, 5).to_pandas()["i"].tolist() == list(range(95, 100))
    assert verbs.tail(ds, 15).to_pandas()["i"].tolist() == list(range(85, 100))
    assert verbs.tail(ds, 200).to_pandas()["i"].tolist() == list(range(100))


@pytest.mark.parametrize("group_by", [[], ["g"]])
def test_cumulative_fraction_over_sorted_blocks(ray_session, group_by):
    # 10 input blocks, values with ties: records come out sorted by
    # (group, value desc), each with its running share of its group total
    import ray.data as rd

    rng = np.random.default_rng(11)
    t = pa.table({"g": rng.choice(["a", "b", "c"], 300),
                  "v": rng.integers(1, 20, 300).astype(np.float64)})
    ds = rd.from_arrow([t.slice(i, 30) for i in range(0, 300, 30)])
    got = verbs.cumulative_fraction(ds, "v", group_by).to_pandas()
    want = t.to_pandas().sort_values(
        group_by + ["v"], ascending=[True] * len(group_by) + [False])
    v = want.groupby(group_by)["v"] if group_by else want["v"]
    want["v_cumfrac"] = v.cumsum() / (v.transform("sum") if group_by else v.sum())
    cols = group_by + ["v", "v_cumfrac"]  # tied records may swap their g
    pd.testing.assert_frame_equal(got[cols].reset_index(drop=True),
                                  want[cols].reset_index(drop=True))


def test_reshape_long_to_wide_with_a_null_key(ray_session):
    # a record whose key is null adds no column, and does not break the
    # listing of the key values
    t = pa.table({"g": [1, 1, 2, 2], "k": ["x", None, "y", "x"],
                  "val": [1.0, 2.0, 3.0, 4.0]})
    r = verbs.reshape_long_to_wide(_ds(t), "k", "val", ["g"]).to_pandas()
    r = r.sort_values("g").reset_index(drop=True)
    assert list(r.columns) == ["g", "x", "y"]
    assert r["x"].tolist() == [1.0, 4.0]
    assert pd.isna(r.loc[0, "y"]) and r.loc[1, "y"] == 3.0


def test_stats1_percentiles_of_a_mixed_type_pandas_column(ray_session):
    # a pandas block's object column: Miller's mixed-type order, numbers
    # before strings
    import ray.data as rd

    df = pd.DataFrame({"g": ["a", "a", "b", "b", "a"],
                       "x": [1, "abc", 2.5, 3, 7]})
    r = verbs.stats1(rd.from_pandas(df), ["p50", "median"], ["x"], ["g"])
    r = r.set_index("g")
    assert r.loc["a", "x_p50"] == 7 and r.loc["a", "x_median"] == 7
    assert r.loc["b", "x_p50"] == 3
    # ungrouped: 1 < 2.5 < 3 < 7 < "abc"
    assert verbs.stats1(rd.from_pandas(df), ["p50"], ["x"])["x_p50"].tolist() == [3]


def test_summary_full_stats(ray_session):
    t = pa.table({"v": pa.array([1, 2, 2, 3, 100], type=pa.int64()),
                  "s": pa.array(["aa", "b", "b", "cccc", "dd"])})
    r = verbs.summary(_ds(t), ["v", "s"],
                      summarizers=["field_type", "count", "distinct_count",
                                   "mode", "minlen", "maxlen"])
    rv = r[r["field_name"] == "v"].iloc[0]
    assert rv["field_type"] == "int"
    assert rv["distinct_count"] == 4
    assert rv["mode"] == 2
    assert rv["minlen"] == 1 and rv["maxlen"] == 3
    rs = r[r["field_name"] == "s"].iloc[0]
    assert rs["field_type"] == "string"
    assert rs["mode"] == "b"
    assert rs["minlen"] == 1 and rs["maxlen"] == 4


def test_mlr_join_modes(ray_session):
    left = pd.DataFrame({"k": [1, 2, 3], "lv": ["a", "b", "c"]})
    t = pa.table({"k": [2, 3, 3, 4], "rv": [20, 30, 31, 40]})
    # inner (paired only)
    r = verbs.mlr_join(_ds(t), left, ["k"]).to_pandas()
    assert sorted(r["rv"].dropna().astype(int).tolist()) == [20, 30, 31]
    # unpaired right (--np --ur)
    r2 = verbs.mlr_join(_ds(t), left, ["k"], emit_paired=False,
                        emit_unpaired_right=True).to_pandas()
    assert r2["rv"].dropna().astype(int).tolist() == [40]
    # unpaired left (--np --ul)
    r3 = verbs.mlr_join(_ds(t), left, ["k"], emit_paired=False,
                        emit_unpaired_left=True).to_pandas()
    assert r3["lv"].dropna().tolist() == ["a"]
    # collision prefixes
    left2 = pd.DataFrame({"k": [1], "v": ["L"]})
    t2 = pa.table({"k": [1], "v": ["R"]})
    r4 = verbs.mlr_join(_ds(t2), left2, ["k"]).to_pandas()
    assert r4["left_v"].tolist() == ["L"] and r4["right_v"].tolist() == ["R"]
