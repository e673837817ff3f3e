"""Checkpointed, resumable sketch builds with per-partition lineage.

North-rule requirement (BASELINE.json): "resumable from checkpoint with
per-partition lineage + metrics". The reference has no notion of this
(Miller is fail-fast single-process, SURVEY.md §4); the design here is
Ray-Data-native:

- The unit of checkpointing is the INPUT FILE (at 100 TB scale, ~1 GB
  parquet shards — stable identities, unlike Ray block ids which change
  with parallelism; SURVEY.md §7.4 "Resume layout").
- One streaming pass over the *pending* files only
  (``read_parquet(paths, include_paths=True)``): per-block partials are
  grouped by source path inside the batch, then a tiny blob-only
  ``groupby(path)`` merge yields ONE serialized sketch row per file.
- Each finished partition writes a blob file named by its content hash
  plus a manifest line ``{path, rows, blobs: {spec: file}, sha256}`` —
  appended atomically (write temp + rename of the whole manifest), so a
  killed run leaves either a valid manifest or the previous one.
- Resume = re-list inputs, skip manifested partitions (blob present AND
  hash matches), build only the remainder, merge all blobs. Because
  sketch updates are deterministic per block (fixed-seed hashing, no
  RNG), a resumed run's final sketch equals the single-run sketch
  byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

import pyarrow as pa

from miller_ray.engine.udaf import SketchSpec, _merge_fn, bind_aliases, built_specs


def _sha256(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


def _manifest_path(ckpt_dir: str) -> str:
    return os.path.join(ckpt_dir, "manifest.jsonl")


def load_manifest(ckpt_dir: str) -> dict[str, dict]:
    """Valid manifest entries keyed by input path (blob files verified)."""
    out: dict[str, dict] = {}
    mp = _manifest_path(ckpt_dir)
    if not os.path.exists(mp):
        return out
    with open(mp) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                e = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail line from a killed run
            ok = True
            for blob_file, digest in zip(e["blobs"].values(), e["sha256"].values()):
                fp = os.path.join(ckpt_dir, blob_file)
                if not os.path.exists(fp):
                    ok = False
                    break
                with open(fp, "rb") as bf:
                    if _sha256(bf.read()) != digest:
                        ok = False
                        break
            if ok:
                out[e["path"]] = e
    return out


def _append_manifest(ckpt_dir: str, entries: list[dict]) -> None:
    """Atomic append: rewrite manifest to a temp file, rename over."""
    mp = _manifest_path(ckpt_dir)
    existing = ""
    if os.path.exists(mp):
        with open(mp) as f:
            existing = f.read()
    tmp = mp + ".tmp"
    with open(tmp, "w") as f:
        f.write(existing)
        for e in entries:
            f.write(json.dumps(e, sort_keys=True) + "\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, mp)


def _partial_fn_by_path(specs: list[SketchSpec]):
    """Per-batch: one partial-sketch row per source path in the batch."""

    def build(t: pa.Table) -> pa.Table:
        import numpy as np

        paths = t["path"].to_pandas()
        data = t.drop_columns(["path"])
        out: dict[str, list] = {"path": []}
        out.update({s.name: [] for s in specs})
        codes, uniques = paths.factorize(sort=False)
        for gi, p in enumerate(uniques):
            sub = data.take(pa.array(np.flatnonzero(codes == gi)))
            out["path"].append(p)
            sub_cache: dict = {}
            for spec in specs:
                from miller_ray.engine.udaf import apply_spec

                sk = spec.factory()
                apply_spec(sk, spec, sub, sub_cache)
                out[spec.name].append(sk.to_bytes())
        out["rows"] = [int((codes == gi).sum()) for gi in range(len(uniques))]
        return pa.table(out)

    return build


def checkpointed_build(input_paths: list[str], specs: list[SketchSpec],
                       ckpt_dir: str, batch_size: int | None = 131072) -> dict[str, Any]:
    """Build all sketches over ``input_paths``, checkpointing per file.

    Returns ``{spec_name: merged sketch}``. Safe to kill and re-run:
    finished partitions are skipped on resume. Also records per-partition
    row counts (lineage metrics) in the manifest.
    """
    import ray.data as rd

    os.makedirs(ckpt_dir, exist_ok=True)
    done = load_manifest(ckpt_dir)
    pending = [p for p in input_paths if p not in done]
    built = built_specs(specs)

    if pending:
        ds = rd.read_parquet(pending, include_paths=True)
        parts = ds.map_batches(_partial_fn_by_path(built), batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=batch_size)
        merge = _merge_fn(built)

        def merge_path(t: pa.Table) -> pa.Table:
            merged = merge(t.select([s.name for s in built]))
            cols = {"path": [t["path"][0].as_py()],
                    "rows": [int(pa.compute.sum(t["rows"]).as_py())]}
            for s in built:
                cols[s.name] = merged[s.name]
            return pa.table(cols)

        # blob-only shuffle: one row per (block, path) in, one per path out
        finished = parts.groupby("path").map_groups(
            merge_path, batch_format="pyarrow").take_all()

        entries = []
        for row in finished:
            blobs, hashes = {}, {}
            for s in built:
                blob = row[s.name]
                digest = _sha256(blob)
                fname = f"{digest[:24]}.{s.name}.bin"
                fp = os.path.join(ckpt_dir, fname)
                # always (re)write: an existing file with this name may be
                # a corrupted leftover whose manifest entry was invalidated
                tmp = fp + ".tmp"
                with open(tmp, "wb") as f:
                    f.write(blob)
                os.replace(tmp, fp)
                blobs[s.name] = fname
                hashes[s.name] = digest
            entries.append({"path": row["path"], "rows": int(row["rows"]),
                            "blobs": blobs, "sha256": hashes})
        _append_manifest(ckpt_dir, entries)
        done.update({e["path"]: e for e in entries})

    # final driver-side fold over per-partition blobs (KB each)
    out: dict[str, Any] = {}
    for spec in built:
        cls = type(spec.factory())
        acc = None
        for p in input_paths:
            e = done.get(p)
            if e is None:
                continue
            with open(os.path.join(ckpt_dir, e["blobs"][spec.name]), "rb") as f:
                sk = cls.from_bytes(f.read())
            acc = sk if acc is None else acc.merge(sk)
        out[spec.name] = acc if acc is not None else spec.factory()
    return bind_aliases(specs, out)


def lineage_report(ckpt_dir: str) -> list[dict]:
    """Per-partition lineage metrics: path, rows, blob digests."""
    return sorted(load_manifest(ckpt_dir).values(), key=lambda e: e["path"])
