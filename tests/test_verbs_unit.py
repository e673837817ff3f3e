"""In-memory unit tests for verbs without dedicated driver queries
(SURVEY.md §5: the reference pins these with golden files; we pin the
same observable semantics on tiny tables)."""

import logging
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from miller_ray import verbs
from miller_ray.engine import merge


@pytest.fixture()
def rd(ray_session):
    import ray.data as rd

    return rd


def test_having_fields(rd):
    t = pa.table({"a": [1, None, 3], "b": ["x", "y", None]})
    out = verbs.having_fields(rd.from_arrow(t), ["a", "b"]).to_pandas()
    assert out["a"].tolist() == [1]


def test_sparsify_unsparsify_roundtrip(rd):
    t = pa.table({"s": ["", "x", ""], "n": [1, 2, 3]})
    sp = verbs.sparsify(rd.from_arrow(t)).to_pandas()
    assert sp["s"].isna().tolist() == [True, False, True]
    un = verbs.unsparsify(verbs.sparsify(rd.from_arrow(t)), fill="-").to_pandas()
    assert un["s"].tolist() == ["-", "x", "-"]


def test_skip_trivial_records(rd):
    t = pa.table({"a": ["", None, "x"], "b": ["", "", "y"]})
    out = verbs.skip_trivial_records(rd.from_arrow(t)).to_pandas()
    assert len(out) == 1 and out["a"].iloc[0] == "x"


def test_clean_whitespace(rd):
    t = pa.table({"s": ["  a   b  ", "c\t\td"]})
    out = verbs.clean_whitespace(rd.from_arrow(t), ["s"]).to_pandas()
    assert out["s"].tolist() == ["a b", "c d"]


def test_merge_fields_collapse(rd):
    # Miller -c: fields with the same name AFTER removing the substring
    # collapse together (merge_fields.go:21): a_in + a_out -> group "a"
    t = pa.table({"a_in": [1.0, 2.0], "a_out": [3.0, 4.0], "other": [9.0, 9.0]})
    out = verbs.merge_fields_collapse(rd.from_arrow(t), ["sum"],
                                      ["_in", "_out"]).to_pandas()
    assert out["a_sum"].tolist() == [4.0, 6.0]
    assert "other" in out.columns and "a_in" not in out.columns


def test_stats1_regex(rd):
    t = pa.table({"g": ["x", "x", "y"], "v_1": [1.0, 2.0, 3.0], "v_2": [4.0, 5.0, 6.0],
                  "skip_me": [0.0, 0.0, 0.0]})
    out = verbs.stats1_regex(rd.from_arrow(t), ["sum"], r"^v_", group_by=["g"])
    row = out.set_index("g").loc["x"]
    assert row["v_1_sum"] == 3.0 and row["v_2_sum"] == 9.0
    assert "skip_me_sum" not in out.columns


def test_decimate_fraction(rd):
    t = pa.table({"k": [f"id{i}" for i in range(2000)]})
    out = verbs.decimate(rd.from_arrow(t), n=10)
    kept = out.count()
    assert 120 <= kept <= 280  # ~1/10 by hash, binomial spread


def test_top_ties_deterministic(rd):
    t = pa.table({"v": [5.0, 5.0, 5.0, 1.0]})
    a = verbs.top(rd.from_arrow(t), "v", n=2)
    b = verbs.top(rd.from_arrow(t), "v", n=2)
    pd.testing.assert_frame_equal(a, b)
    assert a["v_top"].tolist() == [5.0, 5.0]


def test_top_grouped_raises_no_deprecation_warning(rd):
    import warnings

    t = pa.table({"g": ["a", "b", "a", "b", "a", None],
                  "v": [1.0, 7.0, 3.0, 5.0, 3.0, 9.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        out = verbs.top(rd.from_arrow(t), "v", n=2, group_by=["g"])
    out = out.sort_values(["g", "top_idx"]).reset_index(drop=True)
    # the null-keyed record is a group of its own, as in count -g
    assert out.to_dict("list") == {"g": ["a", "a", "b", "b", None],
                                   "top_idx": [1, 2, 1, 2, 1],
                                   "v_top": [3.0, 3.0, 7.0, 5.0, 9.0]}


def test_histogram_edges(rd, caplog):
    # x == hi joins last bin; outside [lo, hi] dropped (histogram.go)
    t = pa.table({"x": [0.0, 4.999, 5.0, 10.0, -0.1, 10.1]})
    out = verbs.histogram(rd.from_arrow(t), ["x"], lo=0.0, hi=10.0, nbins=2)
    assert out["x_count"].tolist() == [2, 2]
    # 20 blocks: merge_partials plans a combine level before the driver
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    x = np.append(np.random.default_rng(5).uniform(-1.0, 11.0, 2000), 10.0)
    ds = rd.from_arrow([pa.table({"x": c}) for c in np.array_split(x, 20)])
    out = verbs.histogram(ds, ["x"], lo=0.0, hi=10.0, nbins=7)
    assert int(_merge_plans(caplog)[-1]["levels"]) >= 1
    want = np.histogram(x, bins=7, range=(0.0, 10.0))[0]
    assert out["x_count"].tolist() == want.tolist()


def _merge_plans(caplog) -> list[dict[str, str]]:
    """The fields of every merge_partials debug line logged so far."""
    return [dict(re.findall(r"(\w+)=(\S+)", r.getMessage()))
            for r in caplog.records if r.getMessage().startswith("merge_partials:")]


def _tree_merge_input(rd):
    n_blocks, per = 250, 8
    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], n_blocks * per),
        "v": rng.permutation(n_blocks * per).astype(np.int64),
    })
    df["w"] = df["v"] % 7  # repeated values for mode/antimode
    return df, rd.from_pandas(df).repartition(n_blocks)


def test_sample_ignores_block_order(rd):
    # a row's priority hashes its whole content and its position in the
    # block: over a 3-value first column and 8-row blocks, distinct rows
    # still do not tie, so the sample cannot depend on the order in
    # which the partials reach the fold
    df, _ = _tree_merge_input(rd)
    blocks = [pa.Table.from_pandas(df.iloc[i:i + 8], preserve_index=False)
              for i in range(0, len(df), 8)]
    fwd = verbs.sample(rd.from_arrow(blocks), k=10, seed=42)
    rev = verbs.sample(rd.from_arrow(blocks[::-1]), k=10, seed=42)
    assert sorted(fwd["v"]) == sorted(rev["v"])


def test_top_sample_tree_merge_many_blocks(rd, caplog):
    # VERDICT r03 #4: top()/sample() partials must be tree-merged, not
    # driver-concatenated per block: ungrouped, merge_partials plans
    # combine levels from the 250 measured partial blocks, so the driver folds
    # <= 16 partials; grouped, the keyed partials fold by merge_keyed.
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    df, ds = _tree_merge_input(rd)
    out = verbs.top(ds, "v", n=3, group_by=["g"])
    assert any(r.getMessage().startswith("merge_keyed:") for r in caplog.records)
    exp = (df.sort_values("v", ascending=False).groupby("g").head(3)
             .sort_values(["g", "v"], ascending=[True, False]))
    got = out.sort_values(["g", "top_idx"])
    assert got["v_top"].tolist() == exp["v"].tolist()
    # ungrouped
    out2 = verbs.top(ds, "v", n=5)
    plan = _merge_plans(caplog)[-1]
    assert plan["partial_blocks"] == "250" and int(plan["levels"]) >= 1
    assert out2["v_top"].tolist() == sorted(df["v"], reverse=True)[:5]
    # sample: exact size, rows drawn from input, deterministic by seed
    s1 = verbs.sample(ds, k=10, seed=42)
    s2 = verbs.sample(ds, k=10, seed=42)
    assert len(s1) == 10
    assert sorted(s1["v"]) == sorted(s2["v"])
    assert set(s1["v"]).issubset(set(df["v"]))
    # mode/antimode/distinct_count fold their value counts by merge_keyed
    caplog.clear()
    st = verbs.stats1(ds, ["distinct_count", "mode", "antimode"], ["w"], ["g"])
    assert any(r.getMessage().startswith("merge_keyed:") for r in caplog.records)
    counts = df.groupby(["g", "w"]).size().reset_index(name="n")
    mode = counts.sort_values(["n", "w"], ascending=[False, True]) \
                 .drop_duplicates("g").set_index("g")["w"]
    anti = counts.sort_values(["n", "w"], ascending=[True, True]) \
                 .drop_duplicates("g").set_index("g")["w"]
    st = st.set_index("g").sort_index()
    assert st["w_distinct_count"].tolist() == \
        df.groupby("g")["w"].nunique().sort_index().tolist()
    assert st["w_mode"].tolist() == mode.sort_index().tolist()
    assert st["w_antimode"].tolist() == anti.sort_index().tolist()
    # a 2-block input folds on the driver: no merge level at all
    small_ds = rd.from_pandas(df).repartition(2)
    small = verbs.top(small_ds, "v", n=3, group_by=["g"])
    verbs.top(small_ds, "v", n=5)
    plan = _merge_plans(caplog)[-1]
    assert plan["partial_blocks"] == "2" and plan["levels"] == "0"
    pd.testing.assert_frame_equal(small.sort_values(["g", "top_idx"])
                                  .reset_index(drop=True),
                                  got.reset_index(drop=True))


def test_grouped_rank_no_map_groups(rd):
    # VERDICT r03 #3: grouped rank via (group, value) count reduction +
    # broadcast, competition ranking (1,2,2,4)
    df = pd.DataFrame({"g": ["a"] * 4 + ["b"] * 3,
                       "x": [10, 20, 20, 40, 5, 5, 6]})
    ds = rd.from_pandas(df).repartition(4)
    out = verbs.rank(ds, "x", group_by=["g"]).to_pandas()
    out = out.sort_values(["g", "x"]).reset_index(drop=True)
    assert out["x_rank"].tolist() == [1, 2, 2, 4, 1, 1, 3]


def test_altkv(rd):
    t = pa.table({"1": ["a", "k"], "2": [1, 2], "3": ["b", None],
                  "4": [5, None]})
    out = verbs.altkv(rd.from_arrow(t)).to_pandas()
    recs = out.to_dict("records")
    assert recs[0]["a"] == 1 and recs[0]["b"] == 5
    # trailing odd value gets a positional key
    assert recs[1]["k"] == 2


def test_gap(rd):
    t = pa.table({"x": [10, 20, 30, 40], "ord": [0, 1, 2, 3]})
    out = verbs.gap(rd.from_arrow(t), 2, "ord").to_pandas()
    out = out.sort_values("ord").reset_index(drop=True)
    # one spacer before global index 2
    assert len(out) == 5
    assert pd.isna(out["x"].iloc[2])


def test_group_like(rd):
    rows = [{"a": 1, "ord": 0}, {"b": 2, "ord": 1}, {"a": 3, "ord": 2},
            {"b": 4, "ord": 3}]
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = verbs.group_like(ds, "ord").to_pandas()
    # a-signature rows first (signature first seen at ord 0), in order
    assert out["ord"].tolist() == [0, 2, 1, 3]


def test_sorted_merge_join(rd):
    left = pd.DataFrame({"id": [1, 1, 2, 4], "lv": ["a", "b", "c", "d"]})
    stream = rd.from_pandas(pd.DataFrame(
        {"id": [1, 2, 2, 3], "sv": ["x", "y", "z", "w"]}))
    out = verbs.sorted_merge_join(stream, left, ["id"]).to_pandas()
    # inner pairs: id=1 (2 left x 1 stream), id=2 (1 left x 2 stream)
    assert len(out) == 4
    assert sorted(out[out["id"] == 1]["lv"]) == ["a", "b"]
    assert set(out[out["id"] == 2]["sv"]) == {"y", "z"}
    # unpaired flags
    ul = verbs.sorted_merge_join(stream, left, ["id"], emit_paired=False,
                                 emit_unpaired_left=True).to_pandas()
    assert ul["id"].tolist() == [4]
    ur = verbs.sorted_merge_join(stream, left, ["id"], emit_paired=False,
                                 emit_unpaired_right=True).to_pandas()
    assert ur["id"].tolist() == [3]
    # --lp/--rp prefixes on non-key fields
    pref = verbs.sorted_merge_join(stream, left, ["id"],
                                   lp="l_", rp="r_").to_pandas()
    assert "l_lv" in pref.columns and "r_sv" in pref.columns
    # an int64 stream key pairs with the equal float64 left key over
    # several blocks: buckets hash keys by value, not by pandas dtype
    stream = rd.from_pandas([pd.DataFrame({"id": range(i, i + 10), "sv": "s"})
                             for i in range(0, 40, 10)])
    left = pd.DataFrame({"id": np.arange(0, 40, 3, dtype=np.float64), "lv": "l"})
    out = verbs.sorted_merge_join(stream, left, ["id"]).to_pandas()
    assert sorted(out["id"]) == left["id"].tolist()


@pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
def test_join_equals_pandas_merge(rd, how, monkeypatch):
    """A DataFrame right side (broadcast for inner/left) and a Dataset
    right side forced onto the shuffle (``KEYED_FOLD_BYTES`` = -1) both
    give ``pandas.merge``'s rows, with a 3-block left side, a null key
    and unmatched keys on both sides."""
    left = pd.DataFrame({"k": ["a", "b", None, "c", "a", "e"] * 2,
                         "lv": range(12)})
    right = pd.DataFrame({"k": ["a", None, "c", "d", "f"], "rv": range(5)})
    ds = rd.from_pandas([left.iloc[i:i + 4] for i in range(0, 12, 4)])
    want = _sorted(left.merge(right, on=["k"], how=how))
    shuffles = []
    real = verbs.bucket_apply
    monkeypatch.setattr(verbs, "bucket_apply",
                        lambda *a, **kw: shuffles.append(1) or real(*a, **kw))
    got = verbs.join(ds, right, on=["k"], how=how).to_pandas()
    assert len(shuffles) == (how in ("right", "outer"))
    pd.testing.assert_frame_equal(_sorted(got), want, check_dtype=False)
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", -1)
    got = verbs.join(ds, rd.from_pandas(right), on=["k"], how=how).to_pandas()
    assert len(shuffles) == 1 + (how in ("right", "outer"))
    pd.testing.assert_frame_equal(_sorted(got), want, check_dtype=False)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _carry_cases(rd, df, k, pos):
    """Inputs of the boundary-carry tests, as (case, frame, Dataset,
    group-by); column ``pos`` holds each row's position in ``df``.

    - ``blocks``: ``df`` over ``k`` blocks, grouped by ``g``;
    - ``empty_blocks``: ``df`` over 24 blocks of which only the first
      two keep their rows; the sort then cuts 24 ranges from at most 20
      sampled keys, so some sorted blocks are empty too;
    - ``two_keys``: ``df`` over ``k`` blocks, grouped by ``g`` and ``h``.
    """
    yield "blocks", df, rd.from_pandas(df).repartition(k), ["g"]
    cut = len(df) // 12
    ds = rd.from_pandas(df).repartition(24).map_batches(
        lambda b: b[b[pos] < cut], batch_format="pandas")
    yield "empty_blocks", df[df[pos] < cut], ds, ["g"]
    df2 = df.assign(h=np.arange(len(df)) // 7 % 2)
    yield "two_keys", df2, rd.from_pandas(df2).repartition(k), ["g", "h"]


def test_stats1_windowed_boundary_carry(rd):
    # many blocks force carries across block boundaries; result must
    # equal a single-partition pandas rolling
    import numpy as np
    n = 200
    df = pd.DataFrame({"g": ["a", "b"] * (n // 2),
                       "o": list(range(n // 2)) * 2,
                       "x": np.arange(n, dtype=float)})
    for case, df, ds, gb in _carry_cases(rd, df, 8, "x"):
        out = verbs.stats1_windowed(ds, ["sum", "mean", "min"], ["x"],
                                    gb, "o", 5).to_pandas()
        out = out.sort_values(gb + ["o"]).reset_index(drop=True)
        ref = df.sort_values(gb + ["o"]).reset_index(drop=True)
        for a, fn in (("sum", "sum"), ("mean", "mean"), ("min", "min")):
            want = ref.groupby(gb, sort=False)["x"].transform(
                lambda s: getattr(s.rolling(5, min_periods=1), fn)())
            got = out[f"x_{a}_w5"]
            assert np.allclose(got.to_numpy(), want.to_numpy()), (case, a)


def test_group_by_verb(rd):
    df = pd.DataFrame({"g": ["b", "a", "b", "a"], "x": [1, 2, 3, 4],
                       "ord": [0, 1, 2, 3]})
    out = verbs.group_by_verb(rd.from_pandas(df), ["g"], "ord").to_pandas()
    # b first seen at ord 0: b-group rows first, stream order within
    assert out["ord"].tolist() == [0, 2, 1, 3]


def test_bar_and_sparkline_verbs(rd):
    t = pa.table({"id": [1, 2, 3], "v": [0.0, 50.0, 200.0]})
    out = verbs.bar(rd.from_arrow(t), ["v"], lo=0.0, hi=100.0,
                    width=10).to_pandas().sort_values("id")
    bars = out["v"].tolist()
    assert bars[0] == "#" + "." * 9        # at lo -> oob char
    assert bars[1] == "*" * 5 + "." * 5    # midpoint
    assert bars[2] == "*" * 9 + "#"        # beyond hi -> capped oob
    sp = verbs.sparkline_verb(rd.from_arrow(t), ["v"])
    row = sp[sp["field"] == "v"].iloc[0]
    assert row["n"] == 3 and row["lo"] == 0.0 and row["hi"] == 200.0
    assert len(row["sparkline"]) == 3


def test_surv_kaplan_meier(rd):
    # surv.csv fixture semantics (transformers/surv.go golden case)
    df = pd.DataFrame({"d": [1, 2, 3, 4, 5], "s": [1, 0, 1, 0, 1]})
    out = verbs.surv(rd.from_pandas(df), "d", "s")
    assert out["time"].tolist() == [1.0, 3.0, 5.0]
    want = [0.8, 0.8 * (2 / 3), 0.0]
    assert all(abs(a - b) < 1e-9 for a, b in zip(out["survival"], want))


def test_step_boundary_carry_all_steppers(rd):
    # many blocks force per-group carries across block boundaries; every
    # stepper must equal a single-partition pandas reference
    import numpy as np
    rng = np.random.default_rng(7)
    n = 300
    df = pd.DataFrame({"g": rng.choice(["a", "b", "c"], n),
                       "o": np.arange(n),
                       "x": rng.uniform(0.5, 2.0, n)})
    steppers = ["delta", "shift_lag", "shift_lead", "rsum", "rprod",
                "counter", "ewma", "ratio", "from-first"]
    for case, df, ds, gb in _carry_cases(rd, df, 13, "o"):
        out = verbs.step(ds, ["x"], steppers, gb, "o").to_pandas()
        out = out.sort_values(gb + ["o"]).reset_index(drop=True)
        ref = df.sort_values(gb + ["o"]).reset_index(drop=True)
        grp = ref.groupby(gb, sort=False)["x"]
        want = {
            "x_delta": grp.diff().fillna(0),
            "x_shift_lag": grp.shift(1),
            "x_shift_lead": grp.shift(-1),
            "x_rsum": grp.cumsum(),
            "x_rprod": grp.cumprod(),
            "x_counter": grp.cumcount() + 1,
            "x_ewma": grp.transform(
                lambda s: s.ewm(alpha=0.5, adjust=False).mean()),
            "x_ratio": (ref["x"] / grp.shift(1)).fillna(1.0),
            "x_from_first": grp.transform(lambda s: s - s.iloc[0]),
        }
        for col, w in want.items():
            assert np.allclose(out[col].to_numpy(), w.to_numpy(),
                               equal_nan=True), (case, col)


def test_step_ungrouped_multi_block(rd):
    import numpy as np
    df = pd.DataFrame({"o": np.arange(100), "x": np.arange(100) + 1.0})
    ds = rd.from_pandas(df).repartition(9)
    out = verbs.step(ds, ["x"], ["rsum", "ewma", "counter"], [], "o") \
        .to_pandas().sort_values("o").reset_index(drop=True)
    assert np.allclose(out["x_rsum"],
                       df["x"].cumsum().to_numpy())
    assert np.allclose(out["x_ewma"],
                       df["x"].ewm(alpha=0.5, adjust=False).mean())
    assert out["x_counter"].tolist() == list(range(1, 101))


def test_fill_down_boundary_carry(rd):
    # nulls at block heads must inherit the carry from earlier blocks
    import numpy as np
    n = 240
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, n)
    x[rng.random(n) < 0.6] = np.nan
    df = pd.DataFrame({"g": rng.choice(["a", "b"], n),
                       "o": np.arange(n), "x": x})
    for case, df, ds, gb in _carry_cases(rd, df, 11, "o"):
        out = verbs.fill_down(ds, ["x"], gb, "o").to_pandas()
        out = out.sort_values(gb + ["o"]).reset_index(drop=True)
        ref = df.sort_values(gb + ["o"]).reset_index(drop=True)
        want = ref.groupby(gb, sort=False)["x"].ffill()
        assert np.allclose(out["x"].to_numpy(), want.to_numpy(),
                           equal_nan=True), case


def test_step_slwin_boundary_carry(rd):
    # centered window across block boundaries == single-frame reference
    import numpy as np
    rng = np.random.default_rng(3)
    n = 260
    df = pd.DataFrame({"g": rng.choice(["a", "b"], n),
                       "o": np.arange(n),
                       "x": rng.uniform(0, 10, n)})

    def slwin(s):
        x = s.to_numpy(dtype=float)
        N = len(x)
        i = np.arange(N)
        lo = np.maximum(i - 3, 0)
        hi = np.minimum(i + 2, N - 1)
        c = np.concatenate([[0.0], np.cumsum(x)])
        return pd.Series((c[hi + 1] - c[lo]) / (hi - lo + 1),
                         index=s.index)

    for case, df, ds, gb in _carry_cases(rd, df, 12, "o"):
        out = verbs.step_slwin(ds, ["x"], 3, 2, gb, "o").to_pandas()
        out = out.sort_values(gb + ["o"]).reset_index(drop=True)
        ref = df.sort_values(gb + ["o"]).reset_index(drop=True)
        want = ref.groupby(gb, sort=False)["x"].transform(slwin)
        assert np.allclose(out["x_slwin_3_2"].to_numpy(),
                           want.to_numpy()), case


def test_decimate_positional_boundary_carry(rd):
    import numpy as np
    n = 100
    df = pd.DataFrame({"g": ["a", "b"] * (n // 2),
                       "o": np.arange(n), "x": np.arange(n)})
    for case, df, ds, gb in _carry_cases(rd, df, 7, "o"):
        out = verbs.decimate_positional(ds, 3, gb, "o").to_pandas()
        out = out.sort_values(gb + ["o"]).reset_index(drop=True)
        ref = df.sort_values(gb + ["o"]).reset_index(drop=True)
        want = ref.groupby(gb, sort=False).nth(slice(2, None, 3)) \
            .sort_values(gb + ["o"]).reset_index(drop=True)
        assert out["o"].tolist() == want["o"].tolist(), case
        first = verbs.decimate_positional(ds, 3, gb, "o",
                                          keep_first=True).to_pandas()
        wantf = ref.groupby(gb, sort=False).nth(slice(0, None, 3))
        assert sorted(first["o"]) == sorted(wantf["o"]), case


def test_nest_implode_partial_preagg(rd):
    df = pd.DataFrame({"g": ["a", "a", "b", "a", "b"],
                       "v": ["z", "m;q", "k", "c", "d"]})
    ds = rd.from_pandas(df).repartition(4)
    out = verbs.nest_implode(ds, "v", ["g"], sep=";").to_pandas()
    out = out.sort_values("g").reset_index(drop=True)
    assert out.loc[0, "v"] == ";".join(sorted(["z", "m;q", "c"]))
    assert out.loc[1, "v"] == "d;k"


def test_rank_sort_path_near_unique(rd, monkeypatch):
    # VERDICT r04 #3: near-unique value columns must not broadcast a
    # data-sized lookup — force the sort-based path and check it
    # matches pandas method='min' AND preserves record order.
    rng = np.random.default_rng(11)
    n = 3000
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], n),
        "v": np.round(rng.random(n), 6),
        "row": np.arange(n),
    })
    df.loc[rng.choice(n, 300, replace=False), "v"] = 0.25  # ties
    for case, df, ds, gb in _carry_cases(rd, df, 11, "row"):
        with monkeypatch.context() as m:
            m.setattr(merge, "KEYED_FOLD_BYTES", 0)
            out = verbs.rank(ds, "v", gb).to_pandas()
        assert (out["row"].to_numpy() == df["row"].to_numpy()).all(), case
        exp = df.groupby(gb)["v"].rank(method="min").astype(np.int64)
        assert (out["v_rank"].to_numpy() == exp.to_numpy()).all(), case
        # ungrouped agrees with the broadcast path
        with monkeypatch.context() as m:
            m.setattr(merge, "KEYED_FOLD_BYTES", 0)
            a = verbs.rank(ds, "v", []).to_pandas()
        b = verbs.rank(ds, "v", []).to_pandas()
        assert (a["v_rank"].to_numpy() == b["v_rank"].to_numpy()).all(), \
            case


def test_count_distinct_n_streaming(rd, monkeypatch):
    # VERDICT r04 #2: -n must not collect the distinct set; the
    # streaming branch (partials > threshold) returns the same number
    from miller_ray.verbs import _num_distinct
    df = pd.DataFrame({"a": np.arange(500) % 97, "b": np.arange(500) % 13})
    ds = rd.from_pandas(df).repartition(5)
    exact = len(df.drop_duplicates())
    assert verbs.count_distinct(ds, ["a", "b"], n=True)["count"][0] == exact
    assert _num_distinct(ds, ["a", "b"]) == exact
    # force the above-threshold Dataset-groupby branches (the 100-TB
    # paths: grouped-count shuffle / never-collected distinct stream)
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", 0)
    assert _num_distinct(ds, ["a", "b"]) == exact
    big = verbs.count(ds, ["a"])
    exp_a = df.groupby("a").size()
    assert big.set_index("a")["count"].sort_index().tolist() == exp_a.tolist()
    lz = verbs.count_lazy(ds, ["a"]).to_pandas()
    assert list(lz.columns) == ["a", "count"]
    exp = df.groupby("a").size()
    assert lz.set_index("a")["count"].sort_index().tolist() == exp.tolist()
    ul = verbs.uniq_lazy(ds, ["a", "b"]).to_pandas()
    assert len(ul) == exact and list(ul.columns) == ["a", "b"]
    ulc = verbs.uniq_lazy(ds, ["a"], show_counts=True).to_pandas()
    assert ulc["count"].sum() == len(df)


def test_empty_input_passes_through(rd, monkeypatch):
    # an empty Dataset must flow through every aggregate/filter verb
    # without KeyErrors from schema-less empty pandas frames
    import pyarrow as pa

    from miller_ray.stages import dedup

    empty = rd.from_arrow(pa.table({"id": pa.array([], pa.int64()),
                                    "txt": pa.array([], pa.string()),
                                    "v": pa.array([], pa.float64())}))
    assert len(verbs.top(empty, "v", n=3)) == 0
    assert len(verbs.top(empty, "v", n=3, group_by=["txt"])) == 0
    h = verbs.histogram(empty, ["v"], lo=0.0, hi=1.0, nbins=4)
    assert len(h) == 4 and h["v_count"].sum() == 0
    assert len(verbs.stats1(empty, ["count", "mode"], ["v"], ["txt"])) == 0
    assert len(verbs.stats2(empty, ["cov"], [("v", "id")], ["txt"])) == 0
    assert dedup.exact_dedup(empty, ["txt"], "id").count() == 0
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", 0)
    assert dedup.exact_dedup(empty, ["txt"], "id").count() == 0


def test_grouped_percentiles_dense_refinement_path(rd, monkeypatch):
    # force the distributed branch (value counts above KEYED_FOLD_BYTES:
    # the 10^12-row continuous-column path, an ordered_scan over the
    # sorted counts) and check it stays EXACT vs the R-type-1 and
    # type-7 definitions, grouped and ungrouped
    from miller_ray.engine.exact import percentile_interpolated, percentile_type1
    from miller_ray.engine.groupby import grouped_percentiles

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"g": np.arange(3000) % 3,
                       "v": rng.normal(size=3000)})  # ~all distinct
    ds = rd.from_pandas(df).repartition(6)
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", 0)
    ps = [10, 50, 99]
    for interpolated, pfn in ((False, percentile_type1),
                              (True, percentile_interpolated)):
        out = grouped_percentiles(ds, ["g"], "v", ps, interpolated=interpolated)
        for g, grp in df.groupby("g"):
            vals = np.sort(grp["v"].to_numpy())
            row = out[out["g"] == g].iloc[0]
            for p in ps:
                assert row[f"v_p{p}"] == pfn(vals, p), (interpolated, g, p)
        whole = grouped_percentiles(ds, [], "v", ps, interpolated=interpolated)
        assert len(whole) == 1
        for p in ps:
            assert whole[f"v_p{p}"].iloc[0] == pfn(np.sort(df["v"].to_numpy()), p), \
                (interpolated, p)
