"""Ray's developer and private APIs stay inside ``miller_ray/engine/``:
verbs are written against the engine primitives (``ordered_scan``), so
a Ray upgrade touches one package."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "miller_ray"


def _files_using(token: str) -> list[str]:
    return [p.relative_to(PKG).as_posix() for p in sorted(PKG.rglob("*.py"))
            if token in p.read_text(encoding="utf-8")]


def test_ray_internals_stay_in_engine():
    for token in ("iter_internal_ref_bundles", "._plan", "@ray.remote"):
        assert "verbs.py" not in _files_using(token), token
    outside = [f for f in _files_using("iter_internal_ref_bundles")
               if not f.startswith("engine/")]
    assert not outside, outside


def test_no_private_plan_reads():
    # merge_partials plans from measured blocks, not Ray's plan estimate
    assert not _files_using("._plan"), _files_using("._plan")


def test_block_refs_are_read_in_one_engine_function():
    # every access to the attribute, by (file, top-level function)
    users = set()
    for p in sorted(PKG.rglob("*.py")):
        for top in ast.parse(p.read_text(encoding="utf-8")).body:
            if any(isinstance(n, ast.Attribute)
                   and n.attr == "iter_internal_ref_bundles"
                   for n in ast.walk(top)):
                users.add((p.relative_to(PKG).as_posix(),
                           getattr(top, "name", None)))
    assert len(users) == 1 and next(iter(users))[0].startswith("engine/"), users


def test_keyed_fold_knobs_are_gone():
    for token in ("fold_limit", "broadcast_limit", "n_salts",
                  "_bucketed_group_apply"):
        assert not _files_using(token), token


def test_sketch_builds_shuffle_no_dataset_themselves():
    # the sketch builds fold only through merge_partials/merge_keyed:
    # no map_groups, and their one groupby is on a pandas frame
    for name in ("engine/udaf.py", "engine/checkpoint.py"):
        for n in ast.walk(ast.parse((PKG / name).read_text(encoding="utf-8"))):
            if isinstance(n, ast.Attribute) and n.attr in ("groupby", "map_groups"):
                on_pandas = n.attr == "groupby" and isinstance(n.value, ast.Call) \
                    and getattr(n.value.func, "attr", None) == "to_pandas"
                assert on_pandas, (name, n.lineno, n.attr)


def test_keyed_shuffles_run_on_the_engine_exchange():
    # the engine and the verbs shuffle by key only through
    # merge.bucket_apply / merge_keyed: no Ray sort shuffle, grouped
    # aggregate or Dataset.join, and no join knob
    files = [*sorted((PKG / "engine").glob("*.py")), PKG / "verbs.py"]
    for token in ("map_groups", "ray.data.aggregate", "join_type",
                  "num_partitions", "right_is_small"):
        users = [p.name for p in files if token in p.read_text(encoding="utf-8")]
        assert not users, (token, users)


def test_folds_and_scans_run_on_the_engine_primitives():
    # no Ray grouped aggregate anywhere in the package; the verbs gather
    # no batches on the driver, list no Ray distinct values and keep no
    # state in a one-task map: they fold or scan through the engine
    assert not _files_using("ray.data.aggregate")
    src = (PKG / "verbs.py").read_text(encoding="utf-8")
    for token in ("iter_batches", ".unique(", "concurrency=1"):
        assert token not in src, token


def test_percentiles_fold_through_merge_keyed():
    # exact percentiles read one merge_keyed value-count table: no
    # driver batch loop and no distinct-value cap or histogram bins
    src = (PKG / "engine/groupby.py").read_text(encoding="utf-8")
    for token in ("iter_batches", "MAX_UNIQUES", "NBINS"):
        assert token not in src, token


def test_datasets_sort_only_nulls_last():
    # every Dataset sort in the engine and the verbs is scan's one
    # null-safe sort; np.sort is the only other .sort( call
    users = []
    for p in [*sorted((PKG / "engine").glob("*.py")), PKG / "verbs.py"]:
        for top in ast.parse(p.read_text(encoding="utf-8")).body:
            for n in ast.walk(top):
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                        and n.func.attr == "sort" \
                        and getattr(n.func.value, "id", None) != "np":
                    users.append((p.name, getattr(top, "name", None)))
    assert users == [("scan.py", "_flagged_sort")], users


def test_shards_are_read_in_one_engine_function():
    # the sketch builds read Parquet shards only through scan.read_shards:
    # no Ray Parquet reader in the engine or the pipelines
    users = set()
    for p in [*sorted((PKG / "engine").glob("*.py")),
              *sorted((PKG / "pipelines").glob("*.py"))]:
        for top in ast.parse(p.read_text(encoding="utf-8")).body:
            if any(isinstance(n, ast.Attribute)
                   and n.attr in ("read_parquet", "read_datasource")
                   for n in ast.walk(top)):
                users.add((p.relative_to(PKG).as_posix(), getattr(top, "name", None)))
    assert users == {("engine/scan.py", "read_shards")}, users
