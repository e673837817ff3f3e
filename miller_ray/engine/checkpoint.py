"""Checkpointed, resumable sketch builds with per-partition lineage.

North-rule requirement (BASELINE.json): "resumable from checkpoint with
per-partition lineage + metrics". The reference has no notion of this
(Miller is fail-fast single-process, SURVEY.md §4); the design here is
Ray-Data-native:

- The unit of checkpointing is the INPUT FILE (at 100 TB scale, ~1 GB
  parquet shards — stable identities, unlike Ray block ids which change
  with parallelism; SURVEY.md §7.4 "Resume layout").
- One streaming pass over the *pending* files only, read by
  ``engine.scan.read_shards`` (read tasks capped at the CPU count, the
  mmap filesystem for local paths, each file in runs of up to 131072
  rows tagged with the file as ``path``). The sketch builds' partial
  function, keyed by ``path`` and fused into the read tasks, cuts each
  file's run as a zero-copy slice and emits one partial row per run, so
  a file of up to 131072 rows yields one partial and only partial blobs
  reach the object store; ``merge_keyed`` folds them to ONE serialized
  sketch row per file, with the file's row count.
- Each finished partition writes a blob file named by its content hash
  plus a manifest line ``{path, rows, blobs: {spec: file}, sha256}`` —
  appended atomically (write temp + rename of the whole manifest), so a
  killed run leaves either a valid manifest or the previous one.
- Resume = re-list inputs, skip manifested partitions (blob present AND
  hash matches), build only the remainder, then fold every partition's
  blob files on the driver with ``merge_blobs``. Because sketch updates
  are deterministic per block (fixed-seed hashing, no RNG), a resumed
  run's final sketch equals the single-run sketch byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

import pyarrow as pa

from miller_ray.engine.merge import merge_keyed
from miller_ray.engine.scan import read_shards
from miller_ray.engine.udaf import (SketchSpec, _merge_fn, _partial_fn, bind_aliases,
                                    built_specs, merge_blobs)


def _sha256(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


def _read(fp: str) -> bytes:
    with open(fp, "rb") as f:
        return f.read()


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
            files = [os.path.join(ckpt_dir, f) for f in e["blobs"].values()]
            if all(os.path.exists(fp) and _sha256(_read(fp)) == digest
                   for fp, digest in zip(files, e["sha256"].values())):
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


def checkpointed_build(input_paths: list[str], specs: list[SketchSpec],
                       ckpt_dir: str) -> dict[str, Any]:
    """Build all sketches over ``input_paths``, checkpointing per file.

    Returns ``{spec_name: merged sketch}``. Safe to kill and re-run:
    finished partitions are skipped on resume. Also records per-partition
    row counts (lineage metrics) in the manifest.
    """
    os.makedirs(ckpt_dir, exist_ok=True)
    done = load_manifest(ckpt_dir)
    pending = [p for p in input_paths if p not in done]
    built = built_specs(specs)

    if pending:
        # fused into the read tasks: only partial blobs reach the
        # object store, one per file of up to 131072 rows
        parts = read_shards(pending, 131072, include_paths=True).map_batches(
            _partial_fn(built, ["path"]), batch_format="pyarrow",
            zero_copy_batch=True, batch_size=None)
        merged = merge_keyed(parts, ["path"], _merge_fn(built, ["path"]))
        # the distributed branch's merged rows stream block by block
        batches = [merged] if isinstance(merged, pa.Table) else \
            merged.iter_batches(batch_size=None, batch_format="pyarrow")
        entries = []
        for row in (row for b in batches for row in b.to_pylist()):
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
            entries.append({"path": row["path"], "rows": row["__rows"],
                            "blobs": blobs, "sha256": hashes})
        _append_manifest(ckpt_dir, entries)
        done.update({e["path"]: e for e in entries})

    # final driver-side fold over per-partition blobs (KB each)
    finished = [done[p]["blobs"] for p in input_paths if p in done]
    return bind_aliases(specs, {
        spec.name: merge_blobs(type(spec.factory()), (
            _read(os.path.join(ckpt_dir, f[spec.name])) for f in finished))
        if finished else spec.factory() for spec in built})


def lineage_report(ckpt_dir: str) -> list[dict]:
    """Per-partition lineage metrics: path, rows, blob digests."""
    return sorted(load_manifest(ckpt_dir).values(), key=lambda e: e["path"])
