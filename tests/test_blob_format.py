"""The sketch blob format (``sketches.base.pack_arrays``): sparse,
zlib, narrowed and raw arrays round-trip exactly, and blobs written
before the sparse encoding existed still decode and merge."""

import struct

import numpy as np
import pytest

from miller_ray.sketches import BloomFilter, BoundedIntHist, HyperLogLog
from miller_ray.sketches.base import pack_arrays, unpack_arrays

# written into stored blobs, so spelled out here, not imported
_ZLIB, _NARROW, _SPARSE = 1, 2, 4


def _flag(blob: bytes) -> int:
    """Flag byte of the first array of a packed blob."""
    (ns,) = struct.unpack_from("<I", blob, 4)
    off = 4 + 4 + 8 * ns + 4
    (dl,) = struct.unpack_from("<B", blob, off)
    return blob[off + 1 + dl]


def _roundtrip(a: np.ndarray) -> tuple[np.ndarray, int]:
    blob = pack_arrays(b"TST1", [1.5], [a])
    scalars, [out] = unpack_arrays(blob, b"TST1")
    assert scalars == [1.5]
    assert out.dtype == a.dtype
    assert out.tobytes() == a.tobytes()  # bit-exact, -0.0 included
    assert out.flags.writeable
    return out, _flag(blob)


def test_sparse_all_zero():
    _, flag = _roundtrip(np.zeros(100_000, dtype=np.uint8))
    assert flag == _SPARSE


def test_sparse_single_nonzero_last_element():
    a = np.zeros(50_000, dtype=np.int32)
    a[-1] = -7
    _, flag = _roundtrip(a)
    assert flag == _SPARSE


def test_sparse_length_not_multiple_of_eight_bytes():
    # a flagship Bloom partial: 9585059 bits = 1198133 bytes, odd length
    bloom = BloomFilter(capacity=1_000_000, fpp=0.01)
    assert bloom.bits.nbytes % 8
    bloom.add_batch(np.arange(300, dtype=np.int64))
    bloom.bits[-1] = 0x01  # a set bit in the tail past the last word
    out, flag = _roundtrip(bloom.bits)
    assert flag == _SPARSE
    rt = BloomFilter.from_bytes(bloom.to_bytes())
    assert np.array_equal(rt.bits, bloom.bits) and rt.n_added == bloom.n_added
    assert rt.estimated_fpp() == bloom.estimated_fpp()


def test_sparse_float_keeps_negative_zero():
    a = np.zeros(4097, dtype=np.float32)
    a[[0, 17, 4096]] = [-0.0, 2.5, np.nan]
    _, flag = _roundtrip(a)
    assert flag == _SPARSE


def test_sparse_narrowed_int64():
    a = np.zeros(60_000, dtype=np.int64)
    a[::101] = 3
    a[5] = 70_000  # needs uint32
    _, flag = _roundtrip(a)
    assert flag == _SPARSE | _NARROW
    a[7] = -1
    _, flag = _roundtrip(a)
    assert flag == _SPARSE | _NARROW


def test_dense_array_keeps_zlib():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, 60_000).astype(np.int64)
    _, flag = _roundtrip(a)
    assert flag == _ZLIB | _NARROW
    # one non-zero element in every 8-byte word is dense, however few
    # bytes that is in all
    b = np.zeros(80_000, dtype=np.uint8)
    b[::8] = 1
    _, flag = _roundtrip(b)
    assert flag == _ZLIB


def test_small_arrays_stay_raw():
    _, flag = _roundtrip(np.zeros(512, dtype=np.uint8))
    assert flag == 0


def test_sparse_blob_is_smaller_than_zlib():
    import zlib

    bloom = BloomFilter(capacity=1_000_000, fpp=0.01)
    bloom.add_batch(np.arange(313, dtype=np.int64))  # one flagship partial
    assert len(bloom.to_bytes()) < len(zlib.compress(bloom.bits.tobytes(), 1))


# Blobs written before the sparse encoding (zlib, narrowed and raw flags
# only): BloomFilter(capacity=5000, fpp=0.01) over ints 0..39,
# HyperLogLog(p=14) over ints 0..59, BoundedIntHist(domain=520) over
# [3, 3, 7, 519, 5, 3].
OLD_BLOOM = bytes.fromhex(
    "424c4d310400000000000000c066e7400000000000001c400000000000004440"
    "000000000000000001000000037c7531016717000000000000eb020000000000"
    "007801b5544b96dc300874fc66d1cb3e02999703e408e466ca9c3c20090418d9"
    "72f7c48b111445f1917ab6edf5efc7eba99289625c9c4f1707e7cd1c9fc32cc8"
    "a8e8c130d4878fae7bc744d8b6da52a8b02eb9ce7c44eac771194a01b5366afa"
    "d8b7866ba854bac9d170114b820c7ce7b05f5260e54421d1e46a0b76f38455be"
    "ecfd90805d61651da573ef1f653fcb39b9d92c0d65982cf80ee69b942a852451"
    "64d51040cfa2d6c410bd49b8c38f51eb84687f34c0ff3e6eae7048ff1ce6d6e6"
    "478364265cfc76dc164f872e768cac548acd5faa46b885b4b201311537a09bc3"
    "e0649ef43d0f69775e6bea9112246a48b04825e1a99c0bd8e7d2e72cbc9b7c66"
    "2ad93f292cbe3d39061678c7ae93992ee5e23011659ac709f19d42923687a418"
    "3176a43ff6f3ba3692dbf94603b7049fdc7d72173564e9664916be67670fe9ba"
    "f3b254e444674d60a94a23cd6ac98d9adb93da9f435ea081342b5b715ec9a233"
    "35afce2cf0d0cc33cd0f0a83385c6751df25ff3fe868853c7088f8d9b3a844d9"
    "67cf8ad92a866a8d7f9ad9360d0dd46e56219ffa081595d40d668d6f94b01732"
    "e253ebef88dcc8e43be8ab9a6e6c08a7164bc8d60f8431ce21548196dc57f43b"
    "e1b0c0c50293ac03f4ea702494a6262d612b3ae837aee1d0ef0ce07d25b5039d"
    "187db121f09e8bfca3745f7029960f0d3debea39749a39b20c5133b4ff623eeb"
    "5deeed05947b25ec25f59dd4517e5dcb8c1562278f37c540b6924e2cfd5c3db0"
    "137d01020f0061d0c9eed8a59b2cc332255b1e26a28dceed531a68de294d5973"
    "032854d2b0bd49224042921d68785c6163cbd0cd33f4446c0a7991468b858ec9"
    "a17de3c636aeb5541dbb25a706d828ceb38e444041aa59db98bc1e3bf2c33dfc"
    "21415a61921b836823ce087a2eb6e6c01aed168bbae2c64a9aa433630b9b7b86"
    "34e10e68c46a5a394dc6d3e87704f3fbb18fe5f52ab976d47bc6371709d7fee4"
    "c95f252669bee584409a11fdccea4452e060df70a7f1e15f86f138f80c6196fb"
    "c37fdeff9024fe01f4812146"
)
OLD_HLL = bytes.fromhex(
    "484c4c31020000000000000000002c40000000000000000001000000037c7531"
    "01004000000000000047010000000000007801ed99d10e83200c4575730ffbff"
    "1fde12498c8696142b45397b9a40dbdb43abb84dd3e89ff966001aeb6d1cee66"
    "9b81dc44e02d93a0826436cc7447c05aaed6f5dd258c20088c4c80061e79f7a3"
    "737fad020a4558988e4e82f81080000420900828afc30f62949e5d0fca885420"
    "d080c03cd13a3e98ed0763bb858f52bc9c23f0dc8e912a521a3fc7116b088c49"
    "20b89f82c357eef95269875920818052fb04a64b686f0286ae0fa835ef6c377f"
    "5d26633cf9fe73a019b72d6df1cdf9e7be2eabf02a8eceecae9289df2381a02a"
    "1db65e82781fb79d6b08b420503cf5a47ef82a62ec2db3d84df2f1b5db94578c"
    "7c644625022edc5d9c480a2f1c1775e71a4d5c7ca1405cef08b0053b1c5c1808"
    "e45ada60ce52083426a01d971a4b215c8940e5a3a9d24c50b37ae34e27e06118"
    "022a8180ce31fcaba44ad72603d2d2e4f43ef703bf6c0072"
)
OLD_HIST = bytes.fromhex(
    "42494831020000000000000000408040000000000000184001000000037c7531"
    "0208020000000000000802000000000000033c69380000000300010001"
    + "00" * 511 + "01")


def test_old_bloom_blob_decodes_and_merges():
    assert _flag(OLD_BLOOM) == _ZLIB
    old = BloomFilter.from_bytes(OLD_BLOOM)
    assert old.estimated_fpp() == 2.3233141393280176e-16
    fresh = BloomFilter(capacity=5000, fpp=0.01)
    fresh.add_batch(np.arange(40, dtype=np.int64))
    assert np.array_equal(old.bits, fresh.bits) and old.n_added == 40
    new = BloomFilter(capacity=5000, fpp=0.01)
    new.add_batch(np.arange(40, 45, dtype=np.int64))
    new_blob = new.to_bytes()
    assert _flag(new_blob) == _SPARSE
    union = BloomFilter(capacity=5000, fpp=0.01)
    union.add_batch(np.arange(45, dtype=np.int64))
    for merged in (BloomFilter.from_bytes(OLD_BLOOM).merge(BloomFilter.from_bytes(new_blob)),
                   BloomFilter.from_bytes(new_blob).merge(BloomFilter.from_bytes(OLD_BLOOM))):
        assert np.array_equal(merged.bits, union.bits)
        assert merged.estimated_fpp() == union.estimated_fpp()


def test_old_hll_blob_decodes_and_merges():
    assert _flag(OLD_HLL) == _ZLIB
    old = HyperLogLog.from_bytes(OLD_HLL)
    assert old.estimate() == 60.10953833514068
    fresh = HyperLogLog(p=14)
    fresh.update_batch(np.arange(60, dtype=np.int64))
    assert np.array_equal(old.registers, fresh.registers)
    new = HyperLogLog(p=14)
    new.update_batch(np.arange(60, 200, dtype=np.int64))
    new_blob = new.to_bytes()
    assert _flag(new_blob) == _SPARSE
    union = HyperLogLog(p=14)
    union.update_batch(np.arange(200, dtype=np.int64))
    merged = HyperLogLog.from_bytes(new_blob).merge(HyperLogLog.from_bytes(OLD_HLL))
    assert np.array_equal(merged.registers, union.registers)
    assert merged.estimate() == union.estimate()


def test_old_narrowed_hist_blob_decodes():
    assert _flag(OLD_HIST) == _NARROW
    old = BoundedIntHist.from_bytes(OLD_HIST)
    assert old.counts.dtype == np.int64 and old.n == 6
    assert old.top(3)[0].tolist() == [3, 5, 7] and old.quantile(50) == 5.0
    new = BoundedIntHist(domain=520)
    new.update_batch(np.array([5, 519], dtype=np.int64))
    assert _flag(new.to_bytes()) == _NARROW  # 520 bytes once narrowed: raw
    merged = old.merge(BoundedIntHist.from_bytes(new.to_bytes()))
    assert merged.count_of(5) == 2 and merged.count_of(519) == 2 and merged.n == 8
