"""Deterministic vectorized 64-bit hashing for sketch updates.

All sketches key off these functions so that a re-executed Ray block
(task retry / lineage reconstruction) produces byte-identical partial
state: no RNG in any update path, fixed seeds only.

- integers  -> splitmix64 finalizer (public-domain constant mix, as in
  Steele et al., "Fast Splittable Pseudorandom Number Generators").
- strings / arbitrary objects -> ``pandas.util.hash_array`` (SipHash-based,
  keyed with a fixed 16-byte key -> stable across processes and runs).
  Arrow string/binary arrays of at least ``ARROW_KERNEL_MIN_ROWS`` rows
  hash through ``_hash_arrow_strings``, a vectorized numpy SipHash whose
  output is byte-identical; shorter ones go to pandas' C SipHash.

Double hashing (Kirsch-Mitzenmacher) derives the i-th hash as
``h1 + i*h2`` which preserves Bloom/CMS guarantees with two base hashes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# fixed 16-byte key => pandas siphash output is stable across runs/processes
_HASH_KEY = "miller_ray_00042"

# Arrow string/binary arrays with fewer rows hash in pandas' C SipHash;
# the numpy kernel's ~180 vector passes per distinct length only pay off
# above it. scripts/hash_crossover.py, three runs on 1 CPU: the kernel
# wins at every larger size from 12-24k rows, on unique 16-byte ids and
# on an 8-value column alike; it is 5x (ids) and 15-30x (8 values)
# slower at 313 rows, and 1.1-1.6x faster at 62.5k.
ARROW_KERNEL_MIN_ROWS = 16_384

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64, copy=True)
        z += _GOLDEN * np.uint64(seed + 1)
        z ^= z >> np.uint64(30)
        z *= _C1
        z ^= z >> np.uint64(27)
        z *= _C2
        z ^= z >> np.uint64(31)
    return z


_SIP_K0 = np.uint64(int.from_bytes(_HASH_KEY.encode()[:8], "little"))
_SIP_K1 = np.uint64(int.from_bytes(_HASH_KEY.encode()[8:], "little"))
_SIP_IV = (np.uint64(0x736F6D6570736575), np.uint64(0x646F72616E646F6D),
           np.uint64(0x6C7967656E657261), np.uint64(0x7465646279746573))


def _siphash24_words(words: np.ndarray) -> np.ndarray:
    """Vectorized SipHash-2-4 (pandas' keyed hash) over pre-framed
    little-endian message words, followed by pandas' splitmix-style
    output scramble — BYTE-IDENTICAL to ``pd.util.hash_array`` on the
    equivalent object array (asserted in tests). ``words`` is (n, W)
    uint64 where the final word already carries the tail bytes plus
    ``len << 56`` per the SipHash framing. In-place numpy ops keep the
    working set at 4 row-sized vectors; rows are processed in L2-sized
    chunks (the ~200 vector passes per hash are bandwidth-bound on the
    state temporaries otherwise — chunking is a 3x kernel win)."""
    total = words.shape[0]
    if total > 32_768:
        out = np.empty(total, dtype=np.uint64)
        for s in range(0, total, 32_768):
            out[s:s + 32_768] = _siphash24_words(words[s:s + 32_768])
        return out
    n = total
    v0 = np.full(n, _SIP_IV[0] ^ _SIP_K0, dtype=np.uint64)
    v1 = np.full(n, _SIP_IV[1] ^ _SIP_K1, dtype=np.uint64)
    v2 = np.full(n, _SIP_IV[2] ^ _SIP_K0, dtype=np.uint64)
    v3 = np.full(n, _SIP_IV[3] ^ _SIP_K1, dtype=np.uint64)
    t = np.empty(n, dtype=np.uint64)  # rotl scratch

    def rotl(x, b):
        np.left_shift(x, np.uint64(b), out=t)
        np.right_shift(x, np.uint64(64 - b), out=x)
        np.bitwise_or(x, t, out=x)

    def sipround():
        nonlocal v0, v1, v2, v3
        v0 += v1
        rotl(v1, 13)
        v1 ^= v0
        rotl(v0, 32)
        v2 += v3
        rotl(v3, 16)
        v3 ^= v2
        v0 += v3
        rotl(v3, 21)
        v3 ^= v0
        v2 += v1
        rotl(v1, 17)
        v1 ^= v2
        rotl(v2, 32)

    with np.errstate(over="ignore"):
        for j in range(words.shape[1]):
            m = words[:, j]
            v3 ^= m
            sipround()
            sipround()
            v0 ^= m
        v2 ^= np.uint64(0xFF)
        sipround()
        sipround()
        sipround()
        sipround()
        h = v0
        h ^= v1
        h ^= v2
        h ^= v3
        # pandas _hash_ndarray's final redistribution pass
        h ^= h >> np.uint64(30)
        h *= _C1
        h ^= h >> np.uint64(27)
        h *= _C2
        h ^= h >> np.uint64(31)
    return h


def _hash_arrow_strings(arr: pa.Array) -> np.ndarray | None:
    """pd.util.hash_array-identical hashing straight off an Arrow
    string/binary array's buffers, with no per-row Python objects.
    Rows are grouped by byte length so each group hashes as a dense
    (m, W)-word matrix, at ~180 numpy passes per distinct length: a
    fixed cost that ``hash64`` only pays on arrays of at least
    ``ARROW_KERNEL_MIN_ROWS`` rows. Returns None when the layout isn't
    eligible (nulls, non-string, long or many-length text) — the caller
    then hashes the object array in pandas."""
    import sys

    if sys.byteorder != "little" or arr.null_count:
        # word framing views padded bytes as LE uint64; BE hosts use the
        # object path (correct everywhere, just slower)
        return None
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    elif pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        off_dtype = np.int32
    else:
        return None
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=off_dtype)[arr.offset: arr.offset + len(arr) + 1]
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None \
        else np.empty(0, dtype=np.uint8)
    lens = np.diff(off)
    # The win is for short key-like columns (ids, categories): one dense
    # word-matrix per distinct length. Long or length-heterogeneous text
    # (document bodies) is better served by the C siphash loop — the
    # per-length batching degenerates and padded width scales the cost.
    uniq = np.unique(lens)
    if uniq.size > 8 or (uniq.size and int(uniq[-1]) > 64):
        return None
    out = np.empty(len(arr), dtype=np.uint64)
    for ln in uniq:
        ln = int(ln)
        idx = np.nonzero(lens == ln)[0]
        width = (ln // 8 + 1) * 8  # full words + tail word with len byte
        padded = np.zeros((len(idx), width), dtype=np.uint8)
        if ln:
            starts = off[:-1][idx].astype(np.int64)
            padded[:, :ln] = data[starts[:, None] + np.arange(ln)]
        padded[:, width - 1] = ln & 0xFF
        out[idx] = _siphash24_words(padded.view(np.uint64))
    return out


def _is_bytes_like(t: pa.DataType) -> bool:
    return (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t))


def _as_numpy(values) -> np.ndarray:
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array):
        if pa.types.is_integer(values.type):
            # zero-copy when no nulls; nulls hashed as sentinel
            return values.to_numpy(zero_copy_only=False)
        return np.asarray(values.to_pandas())
    return np.asarray(values)


def hash64(values, seed: int = 0) -> np.ndarray:
    """Hash a vector of scalars to uint64, deterministically.

    Accepts numpy arrays, pyarrow (Chunked)Arrays, pandas Series, lists.
    Integer/float inputs use splitmix64 on the raw value; strings and
    other objects go through pandas' keyed SipHash. Distinct seeds give
    independent hash families.

    Arrow string/binary arrays hash off their object array in pandas'
    C SipHash below ``ARROW_KERNEL_MIN_ROWS`` rows, and through the
    byte-identical ``_hash_arrow_strings`` kernel from there (1.5x
    faster than pandas at 62.5k rows of ids or categories).
    """
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array) and _is_bytes_like(values.type):
        h = _hash_arrow_strings(values) if len(values) >= ARROW_KERNEL_MIN_ROWS else None
        if h is None:
            h = pd.util.hash_array(values.to_numpy(zero_copy_only=False),
                                   hash_key=_HASH_KEY, categorize=False)
        return splitmix64(h, seed=seed) if seed else h
    arr = _as_numpy(values)
    if arr.dtype.kind in ("i", "u"):
        return splitmix64(arr.astype(np.uint64, copy=False), seed=seed)
    if arr.dtype.kind == "f":
        # hash the bit pattern so 1.0 and 1 differ (Miller string-distinctness
        # is handled a level up by canonical string rendering when required)
        return splitmix64(arr.astype(np.float64).view(np.uint64), seed=seed)
    if arr.dtype.kind == "b":
        return splitmix64(arr.astype(np.uint64), seed=seed)
    if arr.dtype == object and arr.size and all(isinstance(x, (int, np.integer)) for x in arr[:16]):
        # normalize integer-valued object arrays onto the int hash path so
        # the same logical values hash identically regardless of dtype
        try:
            return splitmix64(arr.astype(np.int64).astype(np.uint64), seed=seed)
        except (TypeError, ValueError, OverflowError):
            pass
    if arr.dtype.kind != "O":
        # numpy unicode / StringDType arrays (np.asarray on list[str])
        # must hash identically to the object path pyarrow strings take
        arr = arr.astype(object)
    h = pd.util.hash_array(arr, hash_key=_HASH_KEY, categorize=False)
    if seed:
        return splitmix64(h, seed=seed)
    return h


def hash_pair(values, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit hash vectors for double hashing."""
    h1 = hash64(values, seed=seed)
    h2 = splitmix64(h1, seed=seed + 7919)
    # h2 must be odd so (h1 + i*h2) mod 2^k cycles well for power-of-two mods
    h2 |= np.uint64(1)
    return h1, h2
