"""The benchmark's workloads: each makes its seeded inputs and exact
answers, runs one op through the program's public API, checks the op's
result, and in a traced run replays the op's layers in-process.

The replay calls only the program's public functions (``default_specs``,
``apply_spec``, the sketches' ``to_bytes``/``from_bytes``/``merge``,
``hash64``, ``bincount_chunked``); it copies no engine code, so what it
cannot reach stays in the op's residual.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.fs as pafs

import ray
import ray.data as rd

from miller_ray import verbs
from miller_ray.engine.checkpoint import checkpointed_build, lineage_report, load_manifest
from miller_ray.engine.udaf import SketchSpec, apply_spec, build_sketches
from miller_ray.hashing import hash64
from miller_ray.pipelines import tokens as T
from miller_ray.schema import VOCAB_SIZE
from miller_ray.sketches import KLL, HyperLogLog
from miller_ray.sketches.base import bincount_chunked

from perfbench import checks, inputs


@dataclass(frozen=True)
class Scale:
    tokens_seqs: int
    tokens_shards: int
    records: int
    record_files: int
    ckpt_seqs: int
    ckpt_shards: int


SCALES = {
    "full": Scale(tokens_seqs=20_000, tokens_shards=64, records=100_000,
                  record_files=4, ckpt_seqs=10_000, ckpt_shards=16),
    "tiny": Scale(tokens_seqs=2_000, tokens_shards=8, records=5_000,
                  record_files=2, ckpt_seqs=1_000, ckpt_shards=4),
}

SPEC_NAMES = [s.name for s in T.default_specs()]
VERB_NAMES = ["count_distinct", "count_distinct_n", "top", "stats1_moments",
              "stats1_pctl", "step", "head", "rank", "join"]
LAYERS = ["tokens", "sketches", "hashing", "udaf", "verbs", "checkpoint", "ray"]
# build_grouped_sketches folds on the driver up to this many partial rows
GROUPED_DRIVER_FOLD_MAX = 5000


def _per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    m = [("tokens.scan_s", "s", "lower"), ("tokens.scan_mb", "MB", "lower")]
    for s in SPEC_NAMES:
        m += [(f"sketches.{s}.update_s", "s", "lower"), (f"sketches.{s}.pack_s", "s", "lower"),
              (f"sketches.{s}.blob_bytes", "bytes", "lower"),
              (f"sketches.{s}.merge_s", "s", "lower")]
    m += [("sketches.bincount_s", "s", "lower"), ("hashing.hash64_s", "s", "lower"),
          ("hashing.hashes_per_s", "1/s", "higher"),
          ("udaf.partials", "count", "lower"), ("udaf.partial_mb", "MB", "lower"),
          ("udaf.build_s", "s", "lower"), ("udaf.fold_s", "s", "lower"),
          ("udaf.ray_overhead_s", "s", "lower")]
    m += [(f"udaf.grouped.{k}", u, "lower") for k, u in (
        ("groups", "count"), ("partials", "count"), ("blob_mb", "MB"), ("update_s", "s"),
        ("pack_s", "s"), ("fold_s", "s"))]
    for v in VERB_NAMES:
        m += [(f"verbs.{v}_s", "s", "lower"), (f"verbs.{v}.rows_out", "count", "higher")]
    m += [("verbs.residual_s", "s", "lower"),
          ("checkpoint.build_s", "s", "lower"), ("checkpoint.resume_s", "s", "lower"),
          ("checkpoint.bytes_written", "bytes", "lower"),
          ("checkpoint.files_written", "count", "lower"),
          ("checkpoint.partitions", "count", "higher"),
          ("checkpoint.residual_s", "s", "lower"),
          ("ray.init_s", "s", "lower"), ("ray.warmup_s", "s", "lower")]
    for layer in LAYERS:
        m += [(f"{layer}.calls", "count", "lower"), (f"{layer}.failed", "count", "lower")]
    m += [("trace.op_s_p50", "s", "lower"), ("trace.overhead_s", "s", "lower"),
          ("trace.unaccounted_share", "share", "lower"), ("host.canary_s", "s", "lower")]
    return m


PER_LAYER = _per_layer_names()


def scan_tokens(files: list[str], n_seqs: int) -> list[pa.Table]:
    """Every shard through the pyarrow scanner with ``read_tokens``'
    batch size (one shard's rows, at least 3125) and mmap."""
    ds = pads.dataset(files, format="parquet",
                      filesystem=pafs.LocalFileSystem(use_mmap=True))
    return [pa.Table.from_batches([b])
            for b in ds.to_batches(batch_size=max(3125, -(-n_seqs // 64)))]


class Workload:
    name = ""
    # per-layer metric that reports the op's residual on this workload
    residual_metric = ""
    # input sequences (records, for verbs) one op consumes; set by prepare
    units_per_op = 0

    def __init__(self, scale: Scale, seed: int, cache_dir: str, tracer):
        self.scale, self.seed, self.cache_dir, self.tr = scale, seed, cache_dir, tracer

    def prepare(self) -> None:
        """Make inputs and exact answers (untimed)."""

    def before_op(self) -> None:
        """Untimed reset before each op."""

    def op(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def replay(self) -> None:
        """Traced run: in-process replay of the op's layers."""

    def probe(self) -> dict:
        """Traced run, once: extra layer measurements; returns the
        branch the program took on this input."""
        return {"workload": self.name}

    def cleanup(self) -> None:
        pass


class Flagship(Workload):
    """One round of the north-rule job over the tokens table: the 7
    global sketches, then per-source HLL and KLL."""

    name = "flagship"
    residual_metric = "udaf.ray_overhead_s"

    def prepare(self) -> None:
        n = self.scale.tokens_seqs
        self.path = inputs.tokens_table(self.cache_dir, n, self.scale.tokens_shards, self.seed)
        self.files = inputs.parquet_files(self.path)
        self.exact = inputs.tokens_exact(self.path)
        self.units_per_op = n
        # read_tokens resolves its table on the driver through this
        # lookup; point it at the benchmark's table so the scan options
        # read_tokens sets are the ones measured
        T.tokens_parquet_path = lambda n_rows, **_: self.path
        spec = next(s for s in T.default_specs() if s.name == "bloom_doc_id")
        bloom = spec.factory()
        for t in scan_tokens(self.files, n):
            part = spec.factory()
            apply_spec(part, spec, t, {})
            bloom.merge(part)
        self.bloom_errors = checks.check_bloom(bloom, self.exact.doc_ids)
        self.bloom_fpp = bloom.estimated_fpp()

    def _dataset(self):
        return T.read_tokens("perfbench", n_rows=self.scale.tokens_seqs)

    def _scan(self) -> list[pa.Table]:
        with self.tr.span("tokens.scan"):
            tables = scan_tokens(self.files, self.scale.tokens_seqs)
        self.tr.count("tokens.scan_mb", sum(t.nbytes for t in tables) / 1e6)
        return tables

    def op(self):
        summary = T.sketch_summary(self._dataset())
        return summary, T.grouped_ntok_sketches(self._dataset())

    def check(self, result) -> list[str]:
        summary, grouped = result
        return (self.bloom_errors + checks.check_flagship(summary, self.exact, self.bloom_fpp)
                + checks.check_grouped(grouped, self.exact))

    def replay(self) -> None:
        self._replay_global()
        self._replay_grouped()

    def _replay_global(self) -> None:
        tr = self.tr
        with tr.span("replay"):
            tables = self._scan()
            specs = T.default_specs()
            blobs: dict[str, list[bytes]] = {s.name: [] for s in specs}
            for t in tables:
                cache: dict = {}
                for s in specs:
                    sk = s.factory()
                    with tr.span(f"sketches.{s.name}.update"):
                        apply_spec(sk, s, t, cache)
                    with tr.span(f"sketches.{s.name}.pack"):
                        blobs[s.name].append(sk.to_bytes())
            with tr.span("udaf.fold"):
                for s in specs:
                    cls = type(s.factory())
                    with tr.span(f"sketches.{s.name}.merge"):
                        acc = cls.from_bytes(blobs[s.name][0])
                        for b in blobs[s.name][1:]:
                            acc.merge(cls.from_bytes(b))
        tr.count("udaf.partials", len(tables))
        tr.count("udaf.partial_mb", sum(len(b) for bl in blobs.values() for b in bl) / 1e6)
        for s in specs:
            tr.count(f"sketches.{s.name}.blob_bytes",
                     sum(map(len, blobs[s.name])) / len(tables))
        # kernels shared by several specs, timed alone; their time is
        # inside the update spans above, so they stay out of accounting
        with tr.span("kernels"):
            with tr.span("sketches.bincount"):
                for t in tables:
                    for c in t["tokens"].chunks:
                        bincount_chunked(c.flatten().to_numpy(), minlength=VOCAB_SIZE)
            with tr.span("hashing.hash64"):
                for t in tables:
                    hash64(t["doc_id"])
        tr.count("hashing.hashes", sum(t.num_rows for t in tables))

    def _replay_grouped(self) -> None:
        tr = self.tr
        specs = grouped_specs()
        parts: dict[str, dict[str, list[bytes]]] = {}
        n_parts = 0
        with tr.span("replay"):
            for t in self._scan():
                src = t["source"]
                # the per-batch split is the benchmark's own (untimed):
                # the engine's split stays in the residual
                for g in pc.unique(src).to_pylist():
                    sub = t.filter(pc.equal(src, g))
                    n_parts += 1
                    cache: dict = {}
                    for s in specs:
                        sk = s.factory()
                        with tr.span("udaf.grouped.update"):
                            apply_spec(sk, s, sub, cache)
                        with tr.span("udaf.grouped.pack"):
                            b = sk.to_bytes()
                        parts.setdefault(g, {}).setdefault(s.name, []).append(b)
            with tr.span("udaf.grouped.fold"):
                for by_spec in parts.values():
                    for s in specs:
                        cls = type(s.factory())
                        acc = cls.from_bytes(by_spec[s.name][0])
                        for b in by_spec[s.name][1:]:
                            acc.merge(cls.from_bytes(b))
        tr.count("udaf.grouped.groups", len(parts))
        tr.count("udaf.grouped.partials", n_parts)
        tr.count("udaf.grouped.blob_mb", sum(len(b) for by_spec in parts.values()
                                             for bl in by_spec.values() for b in bl) / 1e6)
        self.grouped_partial_rows = n_parts

    def probe(self) -> dict:
        # one in-memory block per shard: build_sketches' plan then knows
        # the block count, so this probe also takes the merge levels
        ds = rd.from_arrow(scan_tokens(self.files, self.scale.tokens_seqs))
        with self.tr.span("udaf.build"):
            build_sketches(ds, T.default_specs())
        partials = self._dataset().map_batches(
            _rows_of_batch, batch_format="pyarrow", zero_copy_batch=True).count()
        # read_tokens caps its read tasks at the cluster's CPUs
        read_tasks = min(len(self.files), int(ray.cluster_resources()["CPU"]))
        rows = getattr(self, "grouped_partial_rows", 0)
        driver_fold = rows <= GROUPED_DRIVER_FOLD_MAX
        return {"workload": self.name, "partials": partials, "read_tasks": read_tasks,
                "op_merge": (f"driver fold of {partials} partials" if read_tasks <= 16
                             else "map_batches merge levels, then driver fold"),
                "udaf.build_probe": f"{len(self.files)} in-memory blocks: merge levels, "
                                    "then driver fold",
                "grouped_partial_rows": rows,
                "grouped_merge": "driver fold" if driver_fold else "salted two-level shuffle",
                "unexercised": ["salted shuffle"] if driver_fold else ["grouped driver fold"]}


def _rows_of_batch(t: pa.Table) -> pa.Table:
    return pa.table({"rows": [t.num_rows]})


def grouped_specs() -> list[SketchSpec]:
    """The specs ``grouped_ntok_sketches`` builds, at its defaults."""
    return [SketchSpec.column("hll_doc_id", lambda: HyperLogLog(p=14), "doc_id"),
            SketchSpec.column("kll_n_tok", lambda: KLL(k=200), "n_tok")]


class Verbs(Workload):
    name = "verbs"
    residual_metric = "verbs.residual_s"

    def prepare(self) -> None:
        self.path = inputs.records_table(self.cache_dir, self.scale.records,
                                         self.scale.record_files, self.seed)
        self.exact = inputs.verbs_exact(self.path)
        self.units_per_op = self.scale.records
        self.weights = pd.DataFrame({"source": list(inputs.JOIN_WEIGHTS),
                                     "weight": list(inputs.JOIN_WEIGHTS.values())})

    def op(self):
        ds = rd.read_parquet(self.path)
        calls = {
            "count_distinct": lambda: verbs.count_distinct(ds, ["source"]),
            "count_distinct_n": lambda: verbs.count_distinct(ds, ["doc_id"], n=True),
            "top": lambda: verbs.top(ds, "n_tok", n=10, group_by=["source"]),
            "stats1_moments": lambda: verbs.stats1(
                ds, ["count", "sum", "mean", "min", "max", "var"], ["n_tok"], ["source"]),
            "stats1_pctl": lambda: verbs.stats1(ds, ["p50", "p90", "p99"], ["n_tok"],
                                                ["source"]),
            "step": lambda: verbs.step(ds.select_columns(["doc_id", "n_tok"]), ["n_tok"],
                                       ["delta", "rsum"], [], "doc_id").to_pandas(),
            "head": lambda: verbs.head(ds, 3, group_by=["source"],
                                       order_by="doc_id").to_pandas(),
            "rank": lambda: verbs.rank(ds, "n_tok", group_by=["source"]).to_pandas(),
            "join": lambda: verbs.join(ds, self.weights, on=["source"]).to_pandas(),
        }
        out = {}
        for name, call in calls.items():
            with self.tr.span(f"verbs.{name}"):
                out[name] = call()
            self.tr.count(f"verbs.{name}.rows_out", len(out[name]))
        return out

    def check(self, result) -> list[str]:
        return checks.check_verbs(result, self.exact)

    def probe(self) -> dict:
        return {"workload": self.name,
                "join": "broadcast hash join (join's right_is_small default)",
                "unexercised": ["shuffle join", "rank's sort path"]}


class Checkpoint(Workload):
    name = "checkpoint"
    residual_metric = "checkpoint.residual_s"

    def prepare(self) -> None:
        self.path = inputs.tokens_table(self.cache_dir, self.scale.ckpt_seqs,
                                        self.scale.ckpt_shards, self.seed)
        self.files = inputs.parquet_files(self.path)
        self.exact = inputs.ckpt_exact(self.path)
        self.units_per_op = self.scale.ckpt_seqs
        self.ckpt_dir = os.path.join(self.cache_dir, f"ckpt-{os.getpid()}")

    def before_op(self) -> None:
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)

    def op(self):
        tr = self.tr
        with tr.span("checkpoint.build"):
            cold = checkpointed_build(self.files, T.default_specs(), self.ckpt_dir)
        with tr.span("checkpoint.resume"):
            resumed = checkpointed_build(self.files, T.default_specs(), self.ckpt_dir)
        with tr.span("checkpoint.load_manifest"):
            manifest = load_manifest(self.ckpt_dir)
        with tr.span("checkpoint.lineage_report"):
            lineage = lineage_report(self.ckpt_dir)
        if tr.enabled:
            names = os.listdir(self.ckpt_dir)
            tr.count("checkpoint.files_written", len(names))
            tr.count("checkpoint.bytes_written", sum(
                os.path.getsize(os.path.join(self.ckpt_dir, f)) for f in names))
            tr.count("checkpoint.partitions", len(manifest))
        return cold, resumed, lineage

    def check(self, result) -> list[str]:
        cold, resumed, lineage = result
        return checks.check_checkpoint(cold, resumed, lineage, self.exact)

    def probe(self) -> dict:
        return {"workload": self.name, "partitions": len(self.files),
                "merge": "groupby(path) shuffle to one blob per file, then a driver "
                         "fold over the blob files"}

    def cleanup(self) -> None:
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Flagship, Verbs, Checkpoint)}
