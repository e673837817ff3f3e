"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start, an end, the span that encloses it and the id
of the trace (one op, or one set-up cycle) it belongs to. The layer of a
span is its name up to the first dot (``sketches.hll_doc_id.update`` is
in layer ``sketches``). Counters (bytes, rows, partials) are recorded per
trace next to the spans. Nothing is written until ``dump``.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self.trace_id: str | None = None

    @contextmanager
    def trace(self, trace_id: str):
        """Spans and counters opened inside belong to ``trace_id``."""
        prev, self.trace_id = self.trace_id, trace_id
        try:
            yield
        finally:
            self.trace_id = prev

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "trace": self.trace_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "ok": True}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        except BaseException:
            rec["ok"] = False
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` of the current trace."""
        if self.enabled:
            per = self.counters.setdefault(self.trace_id, {})
            per[name] = per.get(name, 0.0) + value

    # -- reading ---------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def per_trace(self, name: str, inclusive: bool = False) -> dict[str, float]:
        """Trace id -> summed (self, or inclusive) time of spans ``name``."""
        st = self.self_times()
        out: dict[str, float] = {}
        for s in self.spans:
            if s["name"] == name:
                v = s["end"] - s["start"] if inclusive else st[s["id"]]
                out[s["trace"]] = out.get(s["trace"], 0.0) + v
        return out

    def median(self, name: str, inclusive: bool = False) -> float:
        """Median over traces of the time in spans ``name`` (0 if none)."""
        vals = list(self.per_trace(name, inclusive).values())
        return statistics.median(vals) if vals else 0.0

    def counter_median(self, name: str) -> float:
        vals = [c[name] for c in self.counters.values() if name in c]
        return statistics.median(vals) if vals else 0.0

    def layer_calls(self, layer: str) -> tuple[int, int]:
        """(calls, failed calls) of every span in ``layer``."""
        mine = [s for s in self.spans if s["name"].split(".", 1)[0] == layer]
        return len(mine), sum(not s["ok"] for s in mine)

    def accounting(self, trace_id: str) -> dict[str, float]:
        """Wall time of the trace's ``op`` span against its layers.

        Layer time is the summed self time of every span below an ``op``
        or ``replay`` root of the trace; the residual is what of the op's
        wall time the layers do not cover (Ray's scheduling, the driver,
        and any work the replay cannot reach). ``unaccounted`` is the
        share of the wall time by which layers plus residual miss it,
        which is non-zero only when the layers exceed the wall time.
        """
        st = self.self_times()
        mine = [s for s in self.spans if s["trace"] == trace_id]
        roots = {s["id"]: s["name"] for s in mine if s["parent"] is None}
        op = next(s for s in mine if s["parent"] is None and s["name"] == "op")
        wall = op["end"] - op["start"]

        def root_of(s):
            while s["parent"] is not None:
                s = self.spans[s["parent"]]
            return s["id"]

        layers = sum(st[s["id"]] for s in mine if s["parent"] is not None
                     and roots.get(root_of(s)) in ("op", "replay"))
        residual = max(0.0, wall - layers)
        return {"wall": wall, "layers": layers, "residual": residual,
                "unaccounted": abs(layers + residual - wall) / wall}

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "spans": self.spans, "counters": self.counters}, f)
