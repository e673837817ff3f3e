"""Exact mergeable histogram over a bounded integer domain.

The scale-path quantile AND top-k sketch for TOKEN VALUES: a token id
lives in [0, vocab), so an exact count vector is smaller than a KLL
sketch's error analysis deserves — update is ONE O(n) ``np.bincount``
pass whose 50k-bin table stays L2-resident (the KLL bulk path's
O(n log n) sort is the single biggest memory-bandwidth consumer in the
flagship build, and bandwidth — not CPU — is what stops intra-node
scaling). Merge is vector addition; quantiles are exact (Miller
R-type-1 on the weighted CDF, reference
``pkg/bifs/percentiles.go:193-210``), and so is ``top(k)``, Miller's
``most-frequent``: it answers what ``HeavyHitters`` answers, with
``eps = 0``. A flagship partial has ~31% of its bins non-zero and is
stored narrowed and zlib-compressed (base.pack_arrays).

Use KLL/t-digest for unbounded or float domains (n_tok lengths, value
columns) and Count-Min heavy hitters for unbounded value sets; use this
whenever the domain is a bounded small-int set.
"""

from __future__ import annotations

import numpy as np

from miller_ray.sketches.base import bincount_chunked, pack_arrays, unpack_arrays

_TAG = b"BIH1"


class BoundedIntHist:
    __slots__ = ("domain", "counts", "n")

    # point-count error bound (as HeavyHitters' ``cms.eps``): counts are exact
    eps = 0.0

    def __init__(self, domain: int = 65536):
        self.domain = int(domain)
        self.counts = np.zeros(self.domain, dtype=np.int64)
        self.n = 0

    def update_batch(self, values) -> None:
        v = np.asarray(values)
        if v.dtype.kind not in "iu":
            v = v.astype(np.int64)
        if v.size == 0:
            return
        # out-of-domain values are clipped into the edge bins (callers
        # size the domain to the vocab; clipping keeps update total-safe)
        if v.size and (v.min() < 0 or v.max() >= self.domain):
            v = np.clip(v, 0, self.domain - 1)
        self.counts += bincount_chunked(v, minlength=self.domain)
        self.n += v.size

    def update_counts(self, counts: np.ndarray) -> None:
        """Ingest a precomputed dense count vector (index = value)."""
        c = np.asarray(counts, dtype=np.int64)
        if c.size > self.domain:
            extra = int(c[self.domain:].sum())
            c = c[: self.domain].copy()
            c[-1] += extra
        self.counts[: c.size] += c
        self.n += int(c.sum())

    def merge(self, other: "BoundedIntHist") -> "BoundedIntHist":
        if other.domain != self.domain:
            raise ValueError("BoundedIntHist domain mismatch")
        self.counts += other.counts
        self.n += other.n
        return self

    def quantile(self, p: float) -> float:
        """Exact Miller R-type-1 percentile (p in [0, 100])."""
        if self.n == 0:
            return float("nan")
        target = int(p * self.n / 100.0)
        if target >= self.n:
            target = self.n - 1
        cw = np.cumsum(self.counts)
        return float(np.searchsorted(cw, target, side="right"))

    def quantiles(self, ps) -> np.ndarray:
        return np.array([self.quantile(p) for p in ps])

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k most frequent values as (values, counts), count-desc then
        value-asc (``HeavyHitters.top``'s tie-break); values never seen
        are left out, so fewer than k may come back."""
        vals = np.flatnonzero(self.counts)
        cnts = self.counts[vals]
        order = np.lexsort((vals, -cnts))[:k]
        return vals[order].astype(np.int64), cnts[order]

    def count_of(self, value: int) -> int:
        return int(self.counts[value]) if 0 <= value < self.domain else 0

    def to_bytes(self) -> bytes:
        return pack_arrays(_TAG, [self.domain, self.n], [self.counts])

    @classmethod
    def from_bytes(cls, data: bytes) -> "BoundedIntHist":
        scalars, arrays = unpack_arrays(data, _TAG)
        obj = cls(domain=int(scalars[0]))
        obj.n = int(scalars[1])
        obj.counts = arrays[0].astype(np.int64, copy=False)
        return obj
