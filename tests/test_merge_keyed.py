"""``merge_keyed``: every keyed fold answers the same on its driver
branch and on its salted two-level distributed branch, which tests
reach by setting ``KEYED_FOLD_BYTES`` to 0."""

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from miller_ray import verbs
from miller_ray.engine import merge
from miller_ray.engine.udaf import SketchSpec, build_grouped_sketches
from miller_ray.sketches import HyperLogLog
from miller_ray.stages import dedup


@pytest.fixture(scope="module")
def ds(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    n = 240
    g = rng.choice(["a", "b", "c"], n).astype(object)
    g[::7] = None  # a null group key: dropna=False on both branches
    t = pa.table({"g": g, "v": rng.integers(0, 9, n).astype(np.float64),
                  "y": rng.normal(size=n), "o": rng.permutation(n),
                  "k": rng.choice(["p", "q"], n),
                  "txt": [f"t{i % 50}" for i in range(n)], "id": np.arange(n)})
    return rd.from_arrow([t.slice(i, 40) for i in range(0, n, 40)])


def _group_sizes(out) -> pd.DataFrame:
    # which n rows head/tail -g keep is arbitrary without an order
    # column; how many each group keeps is not
    return out.to_pandas().groupby("g", dropna=False).size().reset_index()


def _estimates(out: pd.DataFrame) -> pd.DataFrame:
    return out.assign(h=[h.estimate() for h in out["h"]])


def _in_order(out) -> pd.DataFrame:
    # a regrouping verb's answer is its row order: keep it as a column
    df = out.to_pandas()
    return df.assign(pos=np.arange(len(df)))


def _all_null_g(ds):
    return ds.map_batches(lambda t: t.set_column(
        t.schema.get_field_index("g"), "g", pa.nulls(t.num_rows, pa.string())),
        batch_format="pyarrow")


# site -> (answer on ds as a frame, whether the null group shows in it)
SITES = {
    "count": (lambda ds: verbs.count(ds, ["g"]), True),
    "count_distinct_n": (
        lambda ds: verbs.count_distinct(ds, ["g", "v"], n=True), False),
    "grouped_stats": (lambda ds: verbs.stats1(
        ds, ["count", "sum", "mean", "min", "max", "var"], ["v"], ["g"]), True),
    "value_stats": (lambda ds: verbs.stats1(
        ds, ["distinct_count", "mode", "antimode"], ["v"], ["g"]), True),
    # every key null: one group, whose pandas key dtype is float64
    "value_stats_all_null_g": (lambda ds: verbs.stats1(
        _all_null_g(ds), ["distinct_count", "mode", "antimode"], ["v"], ["g"]),
        True),
    "percentiles": (lambda ds: verbs.stats1(
        ds, ["p10", "p50", "p99", "median", "mad", "count"], ["v"], ["g"]), True),
    "percentiles_i": (lambda ds: verbs.stats1(
        ds, ["p10", "p50", "p99", "median", "mad", "count"], ["v"], ["g"],
        interpolated=True), True),
    "percentiles_all_null_g": (lambda ds: verbs.stats1(
        _all_null_g(ds), ["p10", "p50", "median", "mad"], ["v"], ["g"]), True),
    # a string field's percentiles take the per-group bucket path
    "string_percentiles": (lambda ds: verbs.stats1(
        ds, ["p50", "count"], ["txt"], ["g"]), True),
    "count_lazy": (lambda ds: verbs.count_lazy(ds, ["g"]).to_pandas(), True),
    "uniq_lazy": (lambda ds: verbs.uniq_lazy(
        ds, ["g", "k"], show_counts=True).to_pandas(), True),
    "group_by_verb": (lambda ds: _in_order(verbs.group_by_verb(ds, ["g"], "o")),
                      True),
    "group_like": (lambda ds: _in_order(verbs.group_like(
        ds.select_columns(["g", "o"]), "o")), True),
    "sum_xy": (lambda ds: verbs.stats2(ds, ["cov"], [("v", "y")], ["g"]), True),
    "grouped_sketches": (lambda ds: _estimates(build_grouped_sketches(
        ds, ["g"], [SketchSpec.column("h", lambda: HyperLogLog(p=10), "id")])),
        True),
    "rank": (lambda ds: verbs.rank(ds, "v", ["g"]).to_pandas(), True),
    "head": (lambda ds: _group_sizes(verbs.head(ds, 2, ["g"])), True),
    "head_by": (lambda ds: verbs.head(ds, 2, ["g"], order_by="o").to_pandas(), True),
    "tail": (lambda ds: _group_sizes(verbs.tail(ds, 2, ["g"])), True),
    "tail_by": (lambda ds: verbs.tail_by(ds, 2, "o", ["g"]).to_pandas(), True),
    "top": (lambda ds: verbs.top(ds, "v", 2, ["g"]), True),
    "top_full_records": (lambda ds: verbs.top_full_records(
        ds, "v", 2, ["g"], tiebreak="id"), True),
    "sample": (lambda ds: verbs.sample(ds, 3, group_by=["g"]), True),
    "nest_implode": (lambda ds: verbs.nest_implode(
        ds.select_columns(["g", "txt"]), "txt", ["g"]).to_pandas(), True),
    "reshape_long_to_wide": (lambda ds: verbs.reshape_long_to_wide(
        ds.select_columns(["g", "k", "y"]), "k", "y", ["g"]).to_pandas(), False),
    "exact_dedup": (lambda ds: dedup.exact_dedup(ds, ["txt"], "id").to_pandas(),
                    False),
}


def _branches(caplog) -> set[str]:
    return {r.getMessage().split("branch=")[1] for r in caplog.records
            if r.getMessage().startswith("merge_keyed:")}


def _canonical(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("site", sorted(SITES))
def test_branches_give_the_same_answer(ds, site, caplog, monkeypatch):
    run, null_group = SITES[site]
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    driver = _canonical(run(ds))
    assert _branches(caplog) == {"driver fold"}
    caplog.clear()
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", 0)
    dist = _canonical(run(ds))
    assert _branches(caplog) == {"salted two-level merge"}
    assert not driver.empty
    if null_group:
        assert driver["g"].isna().any()
    pd.testing.assert_frame_equal(driver, dist, check_dtype=False)


def test_grouped_sketches_nulls_in_two_keys(ray_session, caplog, monkeypatch):
    """Nulls in both of two group keys: each key combination, null ones
    included, is one group whose sketch equals one built over its rows,
    on both branches."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    n = 240
    g = rng.choice(["a", "b"], n).astype(object)
    g[::5] = None
    t = pa.table({"g": g, "b": pa.array(rng.integers(0, 3, n), mask=np.arange(n) % 7 == 0),
                  "id": np.arange(n)})
    ds = rd.from_arrow([t.slice(i, 40) for i in range(0, n, 40)])
    ids: dict[tuple, list] = {}
    for r in t.to_pylist():
        ids.setdefault((r["g"], r["b"]), []).append(r["id"])
    assert (None, None) in ids
    want = {}
    for key, v in ids.items():
        want[key] = HyperLogLog(p=10)
        want[key].update_batch(np.array(v))
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    for fold_bytes, branch in ((merge.KEYED_FOLD_BYTES, "driver fold"),
                               (0, "salted two-level merge")):
        monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", fold_bytes)
        caplog.clear()
        out = build_grouped_sketches(
            ds, ["g", "b"], [SketchSpec.column("h", lambda: HyperLogLog(p=10), "id")])
        assert _branches(caplog) == {branch}
        got = {tuple(None if pd.isna(x) else x for x in key): h.to_bytes()
               for *key, h in out.itertuples(index=False)}
        assert got == {key: h.to_bytes() for key, h in want.items()}, branch


def test_value_stats_many_blocks_with_null_values(ray_session, monkeypatch):
    # stats1 mode/antimode/distinct_count over 60 blocks, every fifth
    # block's values all null; equals pandas on both branches
    import ray.data as rd

    rng = np.random.default_rng(8)
    tables = []
    for i in range(60):
        v = rng.integers(0, 6, 20).astype(np.float64)
        tables.append(pa.table({
            "g": rng.choice(["a", "b", "c"], 20),
            "v": pa.array(v, mask=np.full(20, i % 5 == 0))}))
    ds = rd.from_arrow(tables)
    pdf = pa.concat_tables(tables).to_pandas().dropna(subset=["v"])
    counts = pdf.groupby(["g", "v"]).size().rename("n").reset_index()
    mode = counts.sort_values(["n", "v"], ascending=[False, True]) \
        .drop_duplicates("g").set_index("g")["v"]
    anti = counts.sort_values(["n", "v"]).drop_duplicates("g").set_index("g")["v"]
    want = pd.DataFrame({"v_distinct_count": pdf.groupby("g")["v"].nunique(),
                         "v_mode": mode, "v_antimode": anti}).sort_index()
    accs = ["distinct_count", "mode", "antimode"]
    for fold_bytes in (merge.KEYED_FOLD_BYTES, 0):
        monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", fold_bytes)
        got = verbs.stats1(ds, accs, ["v"], ["g"]).set_index("g").sort_index()
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_names=False)


@pytest.fixture(scope="module")
def null_blocks(ray_session):
    """5 Arrow blocks of 6 rows: g cycles a/None/b, v is 0..29."""
    import ray.data as rd

    t = pa.table({"g": np.array(["a", None, "b"] * 10, dtype=object),
                  "v": np.arange(30)})
    return rd.from_arrow([t.slice(i, 6) for i in range(0, 30, 6)])


@pytest.mark.parametrize("fold_bytes", [merge.KEYED_FOLD_BYTES, 0])
def test_null_group_percentiles_do_not_split_per_block(null_blocks, fold_bytes,
                                                       monkeypatch, caplog):
    # the null group's value counts fold as one group, not one per block
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", fold_bytes)
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    out = verbs.stats1(null_blocks, ["p50", "mode", "count"], ["v"], ["g"])
    # one fold for the moments, one value-count table for p50 and mode
    assert sum(r.getMessage().startswith("merge_keyed:")
               for r in caplog.records) == 2
    assert len(out) == 3
    null = out[out["g"].isna()]
    assert len(null) == 1
    assert null["v_p50"].iloc[0] == 16 and null["v_count"].iloc[0] == 10
    assert null["v_mode"].iloc[0] == 1


def test_null_keys_sort_last(null_blocks):
    # sort, sort descending and fraction -c take null group keys, which
    # Ray's own sort cannot compare with strings; nulls come last
    up = verbs.sort(null_blocks, ["g"]).to_pandas()
    assert up["g"].tolist() == ["a"] * 10 + ["b"] * 10 + [None] * 10
    down = verbs.sort(null_blocks, ["g", "v"], descending=[True, False]).to_pandas()
    assert down["g"].tolist() == ["b"] * 10 + ["a"] * 10 + [None] * 10
    assert down["v"].tolist() == [*range(2, 30, 3), *range(0, 30, 3), *range(1, 30, 3)]
    frac = verbs.cumulative_fraction(null_blocks, "v", ["g"]).to_pandas()
    assert len(frac) == 30
    assert frac["g"].tolist()[-10:] == [None] * 10


@pytest.mark.parametrize("fold_bytes", [merge.KEYED_FOLD_BYTES, 0])
def test_percentiles_equal_the_exact_sort(ds, fold_bytes, monkeypatch):
    # every group, the null one and an all-null key included, ungrouped,
    # -i and empty input: the exact per-group sort on both branches
    from miller_ray.engine.exact import percentile_interpolated, percentile_type1
    from miller_ray.engine.groupby import grouped_percentiles

    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", fold_bytes)
    pdf = ds.to_pandas()
    ps = [0, 10, 50, 99, 100]
    for keys, data, frame in ((["g"], ds, pdf), ([], ds, pdf),
                              (["g"], _all_null_g(ds), pdf.assign(g=None))):
        # the null key as a value, and one key when ungrouped
        want = frame.assign(g=frame["g"].fillna("~") if keys else 0)
        for interpolated, pfn in ((False, percentile_type1),
                                  (True, percentile_interpolated)):
            out = grouped_percentiles(data, keys, "y", ps, interpolated,
                                      ["median", "mad"])
            got = out.assign(g=out["g"].fillna("~") if keys else 0)
            assert len(got) == want["g"].nunique()
            for key, grp in want.groupby("g"):
                row = got[got["g"] == key]
                vals = np.sort(grp["y"].to_numpy())
                for p in ps:
                    assert row[f"y_p{p}"].iloc[0] == pfn(vals, p), (keys, p)
                assert row["y_median"].iloc[0] == pfn(vals, 50)
                assert row["y_mad"].iloc[0] == pytest.approx(
                    np.abs(vals - vals.mean()).mean(), rel=1e-9)
    empty = grouped_percentiles(ds.filter(expr="v < 0"), ["g"], "y", [50], False,
                                ["median"])
    assert empty.empty and list(empty.columns) == ["g", "y_p50", "y_median"]


def test_merge_keyed_logs_both_branches(ray_session, caplog, monkeypatch):
    import ray.data as rd

    t = pa.table({"g": ["a", "b", "a", None], "c": [1, 2, 3, 4]})
    parts = rd.from_arrow([t.slice(0, 2), t.slice(2)])
    combine = merge.aggregate_by(["g"])
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    small = merge.merge_keyed(parts, ["g"], combine)
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", 0)
    big = merge.merge_keyed(parts, ["g"], combine)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("merge_keyed:")]
    assert len(lines) == 2
    assert "partial_blocks=2 " in lines[0] and lines[0].endswith("branch=driver fold")
    assert lines[1].endswith("branch=salted two-level merge")
    assert int(lines[0].split("bytes=")[1].split()[0]) > 0
    assert isinstance(small, pa.Table)
    assert _canonical(small.to_pandas()).equals(_canonical(big.to_pandas()))


def test_key_hash_ignores_block_types():
    # one key, typed differently by different blocks, lands in one bucket
    a = pa.table({"k": pa.array([5, None], pa.int64()), "s": ["x", None]})
    b = pa.table({"k": [5.0, float("nan")],
                  "s": pa.array(["x", None], pa.large_string())})
    c = pa.table({"k": [5.0, None], "s": pa.array(["x", None]).dictionary_encode()})
    want = merge.key_hash(a, ["k", "s"])
    assert want[0] != want[1]
    for t in (b, c):
        assert merge.key_hash(t, ["k", "s"]).tolist() == want.tolist()
    nulls = pa.table({"k": pa.nulls(1), "s": pa.nulls(1)})
    assert merge.key_hash(nulls, ["k", "s"]).tolist() == want[1:].tolist()
