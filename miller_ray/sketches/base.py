"""Sketch protocol: the mergeable-UDAF state contract.

This is the engine's extension surface (the analogue of Miller's DSL UDF
hooks, reference ``pkg/dsl`` — see SURVEY.md §2.10): any object with
``update_batch / merge / to_bytes / from_bytes`` can be driven by the
:mod:`miller_ray.engine.udaf` harness over a ``ray.data.Dataset``.

Contract:
- ``update_batch`` accepts a numpy array / pyarrow Array and is a pure,
  deterministic function of (current state, value sequence).
- ``merge`` is associative and commutative up to the sketch's published
  equivalence (HLL/CMS/Bloom register-exact; KLL/t-digest equivalent
  within rank-error bounds, property-tested in tests/test_merge.py).
- ``to_bytes``/``from_bytes`` round-trip exactly (binary, versioned tag).
"""

from __future__ import annotations

import struct
import zlib
from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Sketch(Protocol):
    def update_batch(self, values) -> None: ...

    def merge(self, other) -> "Sketch": ...

    def to_bytes(self) -> bytes: ...

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch": ...


_ZLIB, _NARROW, _SPARSE = 1, 2, 4  # per-array flag bits


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` as the narrowest int of its sign whose range holds its
    values: uint8/16/32 if none is negative, else int8/16/32; ``a``
    itself if none fits."""
    lo = int(a.min()) if a.size else 0
    hi = int(a.max()) if a.size else 0
    cands = (np.uint8, np.uint16, np.uint32) if lo >= 0 else \
        (np.int8, np.int16, np.int32)
    for cand in cands:
        info = np.iinfo(cand)
        if info.min <= lo and hi <= info.max:
            return a.astype(cand)
    return a


def _nonzero_positions(a: np.ndarray) -> np.ndarray | None:
    """Positions of ``a``'s non-zero elements (bitwise: -0.0 counts), or
    None when at least 1/8 of its 8-byte words are non-zero.

    The scan runs over a uint64 view, so a mostly-empty array costs one
    pass over words; only the non-zero words are then split into
    elements (a byte-level scan of a Bloom bitmap was slower than zlib)."""
    size = a.dtype.itemsize
    if 8 % size:
        return None
    bits = a.view(f"u{size}")
    per = 8 // size
    n_words = a.size // per
    body = bits[: n_words * per]
    # a bool mask first: flatnonzero straight over uint64 was 5x slower
    nz = np.flatnonzero(body.view(np.uint64) != 0)
    if 8 * nz.size >= n_words:
        return None
    rows, cols = np.nonzero(body.reshape(n_words, per)[nz])
    tail = np.flatnonzero(bits[n_words * per:]) + n_words * per
    return np.concatenate([nz[rows] * per + cols, tail])


def pack_arrays(tag: bytes, scalars: list[float], arrays: list[np.ndarray]) -> bytes:
    """Tiny self-describing binary format shared by the sketch classes.

    layout: tag(4) | n_scalars(u32) | scalars(f64...) | n_arrays(u32) |
      per array: dtype_str_len(u8) dtype_str flag(u8) raw_nbytes(u64)
                 stored_nbytes(u64) [logical_dtype_len(u8) logical_dtype]
                 payload

    Arrays over 4 KB are stored in one of three ways (flag 0 = raw):

    - sparse (flag bit 4) when fewer than 1/8 of the 8-byte words are
      non-zero: payload = n(u64) | delta_dtype_len(u8) delta_dtype |
      n delta-coded positions, narrowed | n values. Per-block Bloom
      bitmaps and small-batch HLL registers are this empty: a flagship
      Bloom partial sets ~2.2k of 9.6M bits.
    - zlib (flag bit 1) otherwise, when it saves at least 10%: dense
      partials such as a flagship token histogram (31% of bins non-zero)
      or Count-Min rows (37%).
    - 8-byte int arrays are first narrowed (flag bit 2): dtype_str is
      the stored dtype and the logical dtype follows the header.
    """
    out = [tag[:4].ljust(4, b"\0"), struct.pack("<I", len(scalars))]
    out.append(struct.pack(f"<{len(scalars)}d", *scalars))
    out.append(struct.pack("<I", len(arrays)))
    for a in arrays:
        a = np.ascontiguousarray(a).reshape(-1)
        logical = a.dtype
        # partial-sketch counter arrays (CMS rows, bounded-int hists) are
        # int64 by contract but per-block values are small: narrowing
        # halves (or quarters) the bytes on both ends of every merge
        if logical.kind in "iu" and logical.itemsize == 8 and a.nbytes > 4096:
            a = _narrow(a)
        flag = _NARROW if a.dtype != logical else 0
        raw_nb = a.nbytes
        payload = None
        if raw_nb > 4096:
            pos = _nonzero_positions(a)
            if pos is not None:
                deltas = _narrow(np.diff(pos, prepend=0))
                dds = deltas.dtype.str.encode()
                flag |= _SPARSE
                payload = struct.pack("<QB", pos.size, len(dds)) + dds \
                    + deltas.tobytes() + a[pos].tobytes()
            else:
                payload = a.tobytes()
                comp = zlib.compress(payload, 1)
                if len(comp) < 0.9 * raw_nb:
                    flag |= _ZLIB
                    payload = comp
        if payload is None:
            payload = a.tobytes()
        ds = a.dtype.str.encode()
        hdr = struct.pack("<B", len(ds)) + ds \
            + struct.pack("<BQQ", flag, raw_nb, len(payload))
        if flag & _NARROW:
            lds = logical.str.encode()
            hdr += struct.pack("<B", len(lds)) + lds
        out.append(hdr + payload)
    return b"".join(out)


def _unpack_sparse(payload: memoryview, dt: np.dtype, count: int) -> np.ndarray:
    """Scatter a sparse payload (see pack_arrays) into a zeroed array."""
    n, dl = struct.unpack_from("<QB", payload, 0)
    off = 9
    delta_dt = np.dtype(bytes(payload[off : off + dl]).decode())
    off += dl
    deltas = np.frombuffer(payload, dtype=delta_dt, count=n, offset=off)
    off += n * delta_dt.itemsize
    arr = np.zeros(count, dtype=dt)
    arr[np.cumsum(deltas, dtype=np.int64)] = np.frombuffer(payload, dtype=dt,
                                                           count=n, offset=off)
    return arr


def unpack_arrays_ex(data: bytes, expect_tag: bytes,
                     offset: int = 0) -> tuple[list[float], list[np.ndarray], int]:
    """Like unpack_arrays but also returns the end offset (for blobs that
    concatenate several packed sections)."""
    tag = data[offset : offset + 4].rstrip(b"\0")
    if tag != expect_tag[:4].rstrip(b"\0"):
        raise ValueError(f"sketch tag mismatch: {tag!r} != {expect_tag!r}")
    off = offset + 4
    (ns,) = struct.unpack_from("<I", data, off)
    off += 4
    scalars = list(struct.unpack_from(f"<{ns}d", data, off))
    off += 8 * ns
    (na,) = struct.unpack_from("<I", data, off)
    off += 4
    arrays = []
    for _ in range(na):
        (dl,) = struct.unpack_from("<B", data, off)
        off += 1
        dt = np.dtype(data[off : off + dl].decode())
        off += dl
        flag, raw_nb, stored_nb = struct.unpack_from("<BQQ", data, off)
        off += 17
        logical = None
        if flag & _NARROW:  # stored narrow; restore the logical dtype
            (ll,) = struct.unpack_from("<B", data, off)
            off += 1
            logical = np.dtype(data[off : off + ll].decode())
            off += ll
        payload = memoryview(data)[off : off + stored_nb]
        off += stored_nb
        if flag & _SPARSE:
            arr = _unpack_sparse(payload, dt, raw_nb // dt.itemsize)
        else:
            if flag & _ZLIB:
                payload = zlib.decompress(payload)
            arr = np.frombuffer(payload, dtype=dt, count=raw_nb // dt.itemsize)
            if logical is None:
                arr = arr.copy()
        arrays.append(arr.astype(logical) if logical is not None else arr)
    return scalars, arrays, off


def unpack_arrays(data: bytes, expect_tag: bytes) -> tuple[list[float], list[np.ndarray]]:
    scalars, arrays, _ = unpack_arrays_ex(data, expect_tag)
    return scalars, arrays


def bincount_chunked(values: np.ndarray, minlength: int,
                     chunk: int = 1 << 20) -> np.ndarray:
    """np.bincount in bounded-size chunks.

    np.bincount silently casts non-intp input (e.g. int32 tokens) to
    int64 — for a 10M-element array that is a fresh ~80 MB allocation
    PER CALL, and concurrent page-zeroing of such allocations serializes
    workers in the kernel (measured 13x inflation at 8 procs). Chunking
    keeps the temporary at ~8 MB, which the allocator recycles without
    touching new pages.
    """
    v = np.asarray(values)
    if v.size <= chunk:
        return np.bincount(v, minlength=minlength)
    acc = np.bincount(v[:chunk], minlength=minlength)
    for s in range(chunk, v.size, chunk):
        c = np.bincount(v[s : s + chunk], minlength=minlength)
        if c.size > acc.size:
            c[: acc.size] += acc
            acc = c
        else:
            acc[: c.size] += c
    return acc
