"""Ray's developer and private APIs stay inside ``miller_ray/engine/``:
verbs are written against the engine primitives (``ordered_scan``), so
a Ray upgrade touches one package."""

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
