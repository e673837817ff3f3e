"""Skewed-key handling (north rule: "salted-key skew handling for hot
source groups"): one source holds ~90% of rows (schema.HOT_SOURCE);
grouped sketches must stay correct and partial-row counts must be
bounded per block regardless of skew."""

import numpy as np
import pyarrow as pa
import pytest

from miller_ray.engine import merge
from miller_ray.engine.udaf import SketchSpec, build_grouped_sketches
from miller_ray.schema import HOT_SOURCE, generate_tokens_table
from miller_ray.sketches import KLL, HyperLogLog


@pytest.fixture(scope="module")
def skewed_ds(ray_session):
    import ray.data as rd

    t = generate_tokens_table(8000, seed=7)
    return rd.from_arrow(t), t


def test_hot_source_is_skewed(skewed_ds):
    _, t = skewed_ds
    src = t["source"].to_pandas()
    assert (src == HOT_SOURCE).mean() > 0.8


def test_grouped_sketches_correct_under_skew(skewed_ds):
    ds, t = skewed_ds
    specs = [
        SketchSpec.column("hll_doc_id", lambda: HyperLogLog(p=14), "doc_id"),
        SketchSpec.column("kll_n_tok", lambda: KLL(k=200), "n_tok"),
    ]
    out = build_grouped_sketches(ds, ["source"], specs)
    pdf = t.to_pandas()
    exact = pdf.groupby("source")["doc_id"].nunique()
    assert set(out["source"]) == set(exact.index)
    for _, row in out.iterrows():
        e = exact[row["source"]]
        est = row["hll_doc_id"].estimate()
        assert abs(est - e) / max(e, 1) < 0.05, (row["source"], est, e)
    # hot group quantiles within rank error of exact
    hot = out[out["source"] == HOT_SOURCE].iloc[0]
    vals = np.sort(pdf.loc[pdf["source"] == HOT_SOURCE, "n_tok"].to_numpy())
    for p in (50, 90):
        got = hot["kll_n_tok"].quantile(p)
        r = np.searchsorted(vals, got, side="right") / vals.size
        assert abs(r - p / 100) < 0.05


def test_partial_rows_bounded_by_groups_not_rows(skewed_ds):
    """A block with 90% hot-key rows still emits ONE partial row per
    (group, block) — the salted merge then splits reducer fan-in."""
    ds, t = skewed_ds
    from miller_ray.engine.udaf import SketchSpec

    spec = SketchSpec.column("h", lambda: HyperLogLog(p=10), "doc_id")
    # build() inside build_grouped_sketches emits per-(block, group) rows;
    # verify via the public path: partial count equals blocks x groups at
    # most, far below row count
    out = build_grouped_sketches(ds, ["source"], [spec])
    assert len(out) == t["source"].to_pandas().nunique()


def test_distributed_grouped_merge_equals_driver_fold(skewed_ds, monkeypatch):
    """Partials measuring above KEYED_FOLD_BYTES take the salted
    two-level merge instead of the driver fold; HLL merges are exact
    (register max), so both branches give the same per-group
    estimates."""
    ds = skewed_ds[0].limit(5100)
    spec = SketchSpec.column("h", lambda: HyperLogLog(p=10), "doc_id")
    fold = build_grouped_sketches(ds, ["source"], [spec])
    monkeypatch.setattr(merge, "KEYED_FOLD_BYTES", 0)
    dist = build_grouped_sketches(ds, ["source"], [spec])

    def estimates(out):
        return {s: h.estimate() for s, h in zip(out["source"], out["h"])}

    assert estimates(dist) == estimates(fold)


def test_hot_source_partials_spread_over_salts(skewed_ds):
    """The keyed merge's salt is hashed from each partial row's
    content, so the hot source's per-block partials land on many salts,
    not one reducer."""
    from miller_ray.engine.udaf import _partial_fn

    _, t = skewed_ds
    n_blocks = 64
    specs = [SketchSpec.column("hll_doc_id", lambda: HyperLogLog(p=14), "doc_id"),
             SketchSpec.column("kll_n_tok", lambda: KLL(k=200), "n_tok")]
    build = _partial_fn(specs, ["source"])
    per = -(-t.num_rows // n_blocks)
    salts = set()
    for i in range(0, t.num_rows, per):
        part = build(t.slice(i, per))
        hot = part["source"].to_numpy(zero_copy_only=False) == HOT_SOURCE
        salts.update(merge.row_salts(part)[hot].tolist())
    assert len(salts) >= merge.MERGE_FANIN // 2, sorted(salts)


def test_grouped_alias_spec_returns_its_target(skewed_ds):
    ds, _ = skewed_ds
    specs = [SketchSpec.column("h", lambda: HyperLogLog(p=10), "doc_id"),
             SketchSpec.alias("h2", "h")]
    out = build_grouped_sketches(ds, ["source"], specs)
    assert list(out.columns) == ["source", "h", "h2"]
    assert all(a is b for a, b in zip(out["h"], out["h2"]))


def _split_cases():
    import pyarrow.compute as pc

    t = generate_tokens_table(600, seed=11)
    # two chunks, so the split also crosses a chunk boundary
    t = pa.concat_tables([t.slice(0, 250), t.slice(250)])
    band = pc.cast(pc.divide(t["n_tok"], 200), pa.int64())
    src = t["source"].to_pylist()
    nulls = pa.array([None if i % 9 == 0 else s for i, s in enumerate(src)])
    by_source = t.sort_by("source")
    return {
        "one key": (t, ["source"]),
        "two keys": (t.append_column("band", band), ["source", "band"]),
        "null key": (t.set_column(3, "source", nulls), ["source"]),
        # contiguous groups: each group is a slice of the batch
        "sorted key": (pa.concat_tables([by_source.slice(0, 250), by_source.slice(250)]),
                       ["source"]),
        "one group": (t.set_column(3, "source", pa.array(["web"] * t.num_rows)),
                      ["source"]),
    }


@pytest.mark.parametrize("case", ["one key", "two keys", "null key", "sorted key",
                                  "one group"])
def test_grouped_partials_equal_per_group_filter(case):
    """Each group's partial blobs are those built over the group's rows
    in their original order (``t.filter(key == g)``): the grouped build
    splits a batch without reordering rows within a group, whether it
    slices contiguous groups out of the batch or takes only the columns
    the specs declare. Rows with a null key form one group
    (``t.filter(is_null(key))``)."""
    import pyarrow.compute as pc

    from miller_ray.engine.udaf import _partial_fn, apply_spec, built_specs
    from miller_ray.pipelines.tokens import default_specs

    t, keys = _split_cases()[case]
    specs = built_specs(default_specs(bloom_capacity=1000))
    assert all(s.columns is not None for s in specs)
    part = _partial_fn(specs, keys)(t)
    groups = list(zip(*(part[k].to_pylist() for k in keys)))
    want_groups = set(zip(*(t[k].to_pylist() for k in keys)))
    assert len(groups) == len(want_groups) and set(groups) == want_groups
    if case == "null key":
        assert (None,) in want_groups
    for i, g in enumerate(groups):
        mask = pc.is_null(t[keys[0]]) if g[0] is None else pc.equal(t[keys[0]], g[0])
        for k, v in zip(keys[1:], g[1:]):
            mask = pc.and_(mask, pc.equal(t[k], v))
        sub = t.filter(mask)
        assert part["__rows"][i].as_py() == sub.num_rows, (case, g)
        cache: dict = {}
        for s in specs:
            sk = s.factory()
            apply_spec(sk, s, sub, cache)
            assert part[s.name][i].as_py() == sk.to_bytes(), (case, g, s.name)


@pytest.mark.parametrize("case", ["one key", "sorted key"])
def test_group_carries_the_columns_its_specs_read(case):
    """On the take path (groups interleaved) a group carries the keys
    and the columns its specs declare, and every column once a custom
    spec leaves ``columns`` unset; on the slice path (contiguous groups)
    it is a slice of the whole batch."""
    from miller_ray.engine.udaf import _partial_fn

    t, keys = _split_cases()[case]
    seen: list[list[str]] = []

    def specs(columns):
        return [SketchSpec.column("h", lambda: HyperLogLog(p=10), "doc_id"),
                SketchSpec.custom("seen", lambda: HyperLogLog(p=10),
                                  lambda sk, b, cache: seen.append(b.column_names),
                                  columns)]

    n_groups = len(set(t["source"].to_pylist()))
    declared = ["source", "doc_id", "n_tok"] if case == "one key" else t.column_names
    for columns, want in ((["n_tok"], declared), (None, t.column_names)):
        seen.clear()
        _partial_fn(specs(columns), keys)(t)
        assert seen == [want] * n_groups, (case, columns)


def _random_key_table(rng, n: int) -> pa.Table:
    """Random string, int, float and dictionary keys, nulls and NaN in
    each (and -0.0 beside 0.0), over three chunks whose dictionary
    columns each carry their own dictionary."""
    chunks = []
    for m in (n // 3, n // 3, n - 2 * (n // 3)):
        def pick(values):
            return [values[i] for i in rng.integers(0, len(values), m)]

        words = ["a", "b", "cc", "", None]
        chunks.append(pa.table({
            "s": pa.array(pick(words), pa.string()),
            "i": pa.array(pick([1, 2, -7, None]), pa.int64()),
            "f": pa.array(pick([0.5, 0.0, -0.0, float("nan"), None]), pa.float64()),
            "d": pa.array(pick(words[::-1]), pa.string()).dictionary_encode(),
        }))
    return pa.concat_tables(chunks)


@pytest.mark.parametrize("keys", [["s"], ["i"], ["f"], ["d"], ["s", "i"],
                                  ["f", "d", "i"], ["s", "i", "f", "d"]],
                         ids="+".join)
def test_group_rows_match_pandas_groupby(keys):
    """``_group_rows`` forms the groups of pandas'
    ``groupby(sort=False, dropna=False)``: a null and a NaN key are one
    group, and a dictionary column groups by its values whatever each
    chunk's dictionary. Its groups come in order of first appearance,
    each group's rows ascending."""
    from miller_ray.engine.udaf import _group_rows

    rng = np.random.default_rng(len(keys) * 31 + ord(keys[0]))
    for _ in range(5):
        t = _random_key_table(rng, int(rng.integers(1, 400)))
        assert t["d"].num_chunks == 3
        plain = pa.table({k: t[k].cast(pa.string()) if k == "d" else t[k] for k in keys})
        want = plain.to_pandas().groupby(keys, sort=False, dropna=False).indices
        got = _group_rows(t, keys)
        assert sorted(map(tuple, got)) == sorted(map(tuple, want.values())), keys
        firsts = [g[0] for g in got]
        assert firsts == sorted(firsts)
        assert all((np.diff(g) > 0).all() for g in got)
