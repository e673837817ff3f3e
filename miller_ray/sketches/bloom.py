"""Bloom filter (Bloom 1970) for membership pruning.

North-rule use: pre-shuffle pruning for exact dedup / semi-anti joins —
broadcast a Bloom of the small side's keys (``ray.put`` once), filter
batches before the wide exchange. Zero false negatives; false-positive
rate <= configured fpp at the design capacity.

k hash functions via Kirsch-Mitzenmacher double hashing; bit sets via
``np.bitwise_or.at`` on a uint8-backed bit array. Merge = bitwise OR
(exactly associative / commutative / idempotent).
"""

from __future__ import annotations

import math

import numpy as np

from miller_ray.hashing import hash_pair
from miller_ray.sketches.base import pack_arrays, unpack_arrays

_TAG = b"BLM1"


class BloomFilter:
    __slots__ = ("m", "k", "bits", "n_added", "seed")

    def __init__(self, capacity: int = 1_000_000, fpp: float = 0.01, seed: int = 0,
                 m: int | None = None, k: int | None = None):
        if m is None:
            m = max(8, int(math.ceil(-capacity * math.log(fpp) / (math.log(2) ** 2))))
        if k is None:
            k = max(1, int(round((m / max(capacity, 1)) * math.log(2))))
        self.m = int(m)
        self.k = int(k)
        self.bits = np.zeros((self.m + 7) // 8, dtype=np.uint8)
        self.n_added = 0
        self.seed = seed

    def _positions_from_h1(self, h1: np.ndarray) -> np.ndarray:
        """Kirsch-Mitzenmacher positions from the base hash (h2 derived
        exactly as hash_pair does, so pre-hashed and value paths agree)."""
        from miller_ray.hashing import splitmix64

        h2 = splitmix64(h1, seed=self.seed + 7919)
        h2 |= np.uint64(1)
        m = np.uint64(self.m)
        with np.errstate(over="ignore"):
            return np.stack([((h1 + np.uint64(i) * h2) % m).astype(np.int64)
                             for i in range(self.k)])

    def _positions(self, values) -> np.ndarray:
        h1, _ = hash_pair(values, seed=self.seed)
        return self._positions_from_h1(h1)

    def _add_positions(self, pos: np.ndarray) -> None:
        if pos.shape[1] == 0:
            return
        flat = pos.ravel()
        np.bitwise_or.at(self.bits, flat >> 3, (np.uint8(1) << (flat & 7).astype(np.uint8)))
        self.n_added += pos.shape[1]

    def add_batch(self, values) -> None:
        self._add_positions(self._positions(values))

    def update_hashes(self, h1: np.ndarray) -> None:
        """Update from pre-computed base hashes (``hash64(values,
        seed=self.seed)``) — for shared-hash pipelines where another
        sketch already hashed the same column."""
        self._add_positions(self._positions_from_h1(h1))

    # Sketch-protocol alias
    update_batch = add_batch

    def contains_batch(self, values) -> np.ndarray:
        pos = self._positions(values)
        if pos.shape[1] == 0:
            return np.zeros(0, dtype=bool)
        out = np.ones(pos.shape[1], dtype=bool)
        for i in range(self.k):
            p = pos[i]
            out &= (self.bits[p >> 3] & (np.uint8(1) << (p & 7).astype(np.uint8))) != 0
        return out

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (other.m, other.k, other.seed) != (self.m, self.k, self.seed):
            raise ValueError("Bloom shape/seed mismatch")
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        self.n_added += other.n_added
        return self

    def estimated_fpp(self) -> float:
        """Actual expected fpp from the observed bit load."""
        load = np.unpackbits(self.bits).sum() / self.m
        return float(load ** self.k)

    def to_bytes(self) -> bytes:
        return pack_arrays(_TAG, [self.m, self.k, self.n_added, self.seed], [self.bits])

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        scalars, arrays = unpack_arrays(data, _TAG)
        obj = cls(m=int(scalars[0]), k=int(scalars[1]), seed=int(scalars[3]))
        obj.bits = arrays[0].astype(np.uint8, copy=False)
        obj.n_added = int(scalars[2])
        return obj
