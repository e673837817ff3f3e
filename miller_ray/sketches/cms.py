"""Count-Min sketch + heavy-hitters (CMS + candidate heap).

Approximate analogue of Miller's ``most-frequent`` / ``top`` by count and
``count-distinct -f F`` per-value counts (reference
``pkg/transformers/most_or_least_frequent.go``, ``uniq.go``): point-count
overestimates bounded by eps*N with probability 1-delta (Cormode &
Muthukrishnan 2005).

Rows use Kirsch-Mitzenmacher double hashing ((h1 + i*h2) mod w), updates
are one ``np.bincount`` per row (vectorized over the whole batch).

``HeavyHitters`` pairs the CMS with a bounded candidate set (the classic
"CMS + heap" top-k): each partial tracks the locally-frequent values; on
merge the candidate union is re-scored against the merged CMS and
truncated. Deterministic tie-break: (-count, value) ascending.
"""

from __future__ import annotations

import numpy as np

from miller_ray.hashing import hash_pair
from miller_ray.sketches.base import bincount_chunked, pack_arrays, unpack_arrays

_TAG = b"CMS1"


class CountMinSketch:
    __slots__ = ("depth", "width", "counts", "n", "seed")

    def __init__(self, eps: float = 1e-4, delta: float = 1e-3, seed: int = 0,
                 width: int | None = None, depth: int | None = None):
        w = int(width if width is not None else np.ceil(np.e / eps))
        # round up to a power of two: index masking (& (w-1)) is ~50x
        # cheaper than uint64 modulo, and a larger width only tightens eps
        self.width = 1 << int(np.ceil(np.log2(max(w, 2))))
        self.depth = int(depth if depth is not None else np.ceil(np.log(1.0 / delta)))
        self.counts = np.zeros((self.depth, self.width), dtype=np.int64)
        self.n = 0  # total weight ingested
        self.seed = seed

    @property
    def eps(self) -> float:
        return np.e / self.width

    def _index_iter(self, values):
        """Yield the depth per-row index vectors (int64) one at a time.

        In-place (h += h2; h & mask) per level — no (depth, n) stack,
        no modulo — so a 13M-value batch costs ~2 vector ops per level.
        """
        h1, h2 = hash_pair(values, seed=self.seed)
        mask = np.uint64(self.width - 1)
        h = h1.copy()
        with np.errstate(over="ignore"):
            for _ in range(self.depth):
                yield (h & mask).view(np.int64)
                h += h2

    def update_batch(self, values, weights: np.ndarray | None = None) -> None:
        vals = values
        if weights is None:
            # unique-first: hashing cost scales with #distinct, not batch
            # size — a huge win for token streams (vocab << batch)
            arr = np.asarray(vals) if not isinstance(vals, np.ndarray) else vals
            try:
                if getattr(arr, "size", 0) > 65536 and arr.dtype.kind in "iu":
                    vals, weights = np.unique(arr, return_counts=True)
            except TypeError:
                pass
        n = len(vals) if not hasattr(vals, "size") else vals.size
        if n == 0:
            return
        if weights is None:
            for i, idx in enumerate(self._index_iter(vals)):
                self.counts[i] += np.bincount(idx, minlength=self.width)
            self.n += n
        else:
            w = np.asarray(weights, dtype=np.float64)
            for i, idx in enumerate(self._index_iter(vals)):
                self.counts[i] += np.bincount(idx, weights=w,
                                              minlength=self.width).astype(np.int64)
            self.n += int(w.sum())

    def query(self, values) -> np.ndarray:
        """Estimated counts (vector) for a vector of values."""
        est = None
        for i, idx in enumerate(self._index_iter(values)):
            row = self.counts[i][idx]
            est = row if est is None else np.minimum(est, row)
        if est is None or est.size == 0:
            return np.zeros(0, dtype=np.int64)
        return est

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        if (other.width, other.depth, other.seed) != (self.width, self.depth, self.seed):
            raise ValueError("CMS shape/seed mismatch")
        self.counts += other.counts
        self.n += other.n
        return self

    def to_bytes(self) -> bytes:
        return pack_arrays(_TAG, [self.width, self.depth, self.n, self.seed], [self.counts.ravel()])

    @classmethod
    def from_bytes(cls, data: bytes) -> "CountMinSketch":
        scalars, arrays = unpack_arrays(data, _TAG)
        obj = cls(width=int(scalars[0]), depth=int(scalars[1]), seed=int(scalars[3]))
        obj.counts = arrays[0].reshape(obj.depth, obj.width).astype(np.int64)
        obj.n = int(scalars[2])
        return obj


_HH_TAG = b"CMH1"


class HeavyHitters:
    """Top-k frequent int64 values: CMS + bounded exact candidate counts.

    Candidates are tracked exactly per partial (bincount-style local
    counts), so a value frequent anywhere stays in some partial's
    candidate set; the merged CMS re-scores the union. ``slack`` extra
    candidates guard against locally-light globally-heavy values.
    """

    __slots__ = ("k", "slack", "cms", "cand_values", "cand_counts")

    def __init__(self, k: int = 50, eps: float = 1e-4, delta: float = 1e-3,
                 seed: int = 0, slack: int = 8):
        self.k = k
        self.slack = slack
        self.cms = CountMinSketch(eps=eps, delta=delta, seed=seed)
        self.cand_values = np.zeros(0, dtype=np.int64)
        self.cand_counts = np.zeros(0, dtype=np.int64)

    def _truncate(self) -> None:
        cap = self.k * self.slack
        if self.cand_values.size > cap:
            order = np.lexsort((self.cand_values, -self.cand_counts))[:cap]
            order.sort()
            self.cand_values = self.cand_values[order]
            self.cand_counts = self.cand_counts[order]

    def update_batch(self, values, weights: np.ndarray | None = None) -> None:
        vals = np.asarray(values)  # keep native int width — no 2x copy
        if vals.dtype.kind not in "iu":
            vals = vals.astype(np.int64)
        if vals.size == 0:
            return
        if weights is None:
            vmin = vals.min() if vals.size else 0
            vmax = vals.max() if vals.size else 0
            if 0 <= vmin and vmax < (1 << 22):
                # small-domain ints (token ids): O(n) bincount beats the
                # O(n log n) sort inside np.unique
                full = bincount_chunked(vals, minlength=0)
                uniq = np.flatnonzero(full)
                cnt = full[uniq].astype(np.int64)
                uniq = uniq.astype(np.int64)
            else:
                uniq, cnt = np.unique(vals, return_counts=True)
                cnt = cnt.astype(np.int64)
        else:
            uniq, inv = np.unique(vals, return_inverse=True)
            cnt = np.bincount(inv, weights=np.asarray(weights, dtype=np.float64),
                              minlength=uniq.size).astype(np.int64)
        # one unique pass serves both the CMS (hash #distinct values, not
        # #items) and the exact candidate fold below
        self.cms.update_batch(uniq, weights=cnt)
        self._fold_candidates(uniq, cnt)
        self._truncate()

    def _fold_candidates(self, uniq: np.ndarray, cnt: np.ndarray) -> None:
        # fold into the running candidate map
        allv = np.concatenate([self.cand_values, uniq])
        allc = np.concatenate([self.cand_counts, cnt])
        mv, minv = np.unique(allv, return_inverse=True)
        mc = np.bincount(minv, weights=allc.astype(np.float64), minlength=mv.size).astype(np.int64)
        self.cand_values, self.cand_counts = mv, mc
        self._truncate()

    def merge(self, other: "HeavyHitters") -> "HeavyHitters":
        self.cms.merge(other.cms)
        allv = np.concatenate([self.cand_values, other.cand_values])
        mv = np.unique(allv)
        # re-score the candidate union against the merged CMS (upper bound)
        mc = self.cms.query(mv)
        self.cand_values, self.cand_counts = mv, mc
        self._truncate()
        return self

    def top(self, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(values, estimated_counts), count-desc then value-asc."""
        k = k or self.k
        est = self.cms.query(self.cand_values) if self.cand_values.size else self.cand_counts
        order = np.lexsort((self.cand_values, -est))[:k]
        return self.cand_values[order], est[order]

    def to_bytes(self) -> bytes:
        return pack_arrays(
            _HH_TAG, [self.k, self.slack],
            [self.cand_values, self.cand_counts]) + self.cms.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "HeavyHitters":
        from miller_ray.sketches.base import unpack_arrays_ex

        scalars, arrays, off = unpack_arrays_ex(data, _HH_TAG)
        obj = cls(k=int(scalars[0]), slack=int(scalars[1]))
        obj.cand_values = arrays[0].astype(np.int64)
        obj.cand_counts = arrays[1].astype(np.int64)
        obj.cms = CountMinSketch.from_bytes(data[off:])
        return obj
