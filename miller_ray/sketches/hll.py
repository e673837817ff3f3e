"""Dense HyperLogLog with Ertl's improved raw estimator.

Answers Miller's ``count-distinct -n`` / ``uniq -n`` / stats1
``distinct_count`` (reference ``pkg/transformers/uniq.go`` and
``pkg/transformers/utils/stats1_accumulators.go:339-341`` — exact,
string-keyed) approximately: standard error 1.04/sqrt(2^p)
(~0.8% at the default p=14).

Estimator: Ertl 2017, "New cardinality estimation algorithms for
HyperLogLog sketches" (arXiv:1702.01284), §'improved raw estimator' —
bias-free across the full range without empirical correction tables or
linear-counting crossovers.

Register update is a vectorized ``np.maximum.at``; merge is elementwise
register max (exactly associative/commutative/idempotent).
"""

from __future__ import annotations

import math

import numpy as np

from miller_ray.hashing import hash64
from miller_ray.sketches.base import pack_arrays, unpack_arrays

_TAG = b"HLL1"


def _sigma(x: float) -> float:
    if x == 1.0:
        return math.inf
    y = 1.0
    z = x
    while True:
        x = x * x
        z_prev = z
        z = z + x * y
        y = y + y
        if z == z_prev:
            return z


def _tau(x: float) -> float:
    if x == 0.0 or x == 1.0:
        return 0.0
    y = 1.0
    z = 1.0 - x
    while True:
        x = math.sqrt(x)
        z_prev = z
        y = 0.5 * y
        z = z - (1.0 - x) ** 2 * y
        if z == z_prev:
            return z / 3.0


class HyperLogLog:
    """Dense HLL. p register-index bits (m = 2**p registers, 1 byte each)."""

    __slots__ = ("p", "m", "q", "registers", "seed")

    def __init__(self, p: int = 14, seed: int = 0):
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self.m = 1 << p
        self.q = 64 - p
        self.seed = seed
        self.registers = np.zeros(self.m, dtype=np.uint8)

    # -- updates ---------------------------------------------------------
    def update_batch(self, values) -> None:
        self.update_hashes(hash64(values, seed=self.seed))

    def update_hashes(self, h: np.ndarray) -> None:
        """Update from pre-computed uint64 hashes (for shared-hash pipelines)."""
        if h.size == 0:
            return
        idx = (h >> np.uint64(self.q)).astype(np.int64)
        rem = h & np.uint64((1 << self.q) - 1)
        # rho = q - bit_length(rem) + 1; rem==0 -> q+1. bit_length via frexp
        # (exact for q<=50 bits in float64; q=50 at default p=14).
        _, exp = np.frexp(rem.astype(np.float64))
        rho = (self.q - exp + 1).astype(np.uint8)
        rho[rem == 0] = self.q + 1
        np.maximum.at(self.registers, idx, rho)

    # -- merge / estimate ------------------------------------------------
    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.p != self.p or other.seed != self.seed:
            raise ValueError("cannot merge HLLs with different p/seed")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        counts = np.bincount(self.registers, minlength=self.q + 2)
        m = float(self.m)
        z = m * _tau((m - counts[self.q + 1]) / m)
        for k in range(self.q, 0, -1):
            z = 0.5 * (z + counts[k])
        z = z + m * _sigma(counts[0] / m)
        alpha_inf = 1.0 / (2.0 * math.log(2.0))
        return alpha_inf * m * m / z

    @property
    def relative_error(self) -> float:
        return 1.04 / math.sqrt(self.m)

    # -- serialization ---------------------------------------------------
    def to_bytes(self) -> bytes:
        return pack_arrays(_TAG, [self.p, self.seed], [self.registers])

    @classmethod
    def from_bytes(cls, data: bytes) -> "HyperLogLog":
        scalars, arrays = unpack_arrays(data, _TAG)
        obj = cls(p=int(scalars[0]), seed=int(scalars[1]))
        obj.registers = arrays[0].astype(np.uint8, copy=False)
        return obj
