"""Unit + accuracy-bound tests for the pure sketch kernels (no Ray)."""

import numpy as np
import pytest

from miller_ray.hashing import hash64, hash_pair
from miller_ray.sketches import (
    BloomFilter,
    BoundedIntHist,
    CountMinSketch,
    HeavyHitters,
    HyperLogLog,
    KLL,
    MinHash,
    TDigest,
)
from miller_ray.sketches.minhash import hamming64, shingle_hashes, simhash_concat


# ---------------------------------------------------------------- hashing
def test_hash64_deterministic_across_calls():
    a = np.arange(1000, dtype=np.int64)
    assert np.array_equal(hash64(a), hash64(a.copy()))
    s = np.array(["foo", "bar", "baz"], dtype=object)
    assert np.array_equal(hash64(s), hash64(s.copy()))


def test_hash64_seeds_independent():
    a = np.arange(1000, dtype=np.int64)
    h0, h1 = hash64(a, seed=0), hash64(a, seed=1)
    assert not np.array_equal(h0, h1)


def test_hash_pair_h2_odd():
    _, h2 = hash_pair(np.arange(100))
    assert np.all(h2 & np.uint64(1) == 1)


# ---------------------------------------------------------------- HLL
@pytest.mark.parametrize("n", [0, 1, 10, 1000, 100_000, 1_000_000])
def test_hll_accuracy(n):
    h = HyperLogLog(p=14)
    if n:
        h.update_batch(np.arange(n, dtype=np.int64))
    est = h.estimate()
    if n == 0:
        assert est < 1
    else:
        rel = abs(est - n) / n
        assert rel < 4 * h.relative_error, f"n={n} est={est} rel={rel}"


def test_hll_merge_equals_union():
    a, b = HyperLogLog(p=12), HyperLogLog(p=12)
    a.update_batch(np.arange(0, 60_000))
    b.update_batch(np.arange(30_000, 90_000))
    u = HyperLogLog(p=12)
    u.update_batch(np.arange(0, 90_000))
    a.merge(b)
    assert np.array_equal(a.registers, u.registers)  # register-exact merge


def test_hll_strings_and_roundtrip():
    h = HyperLogLog(p=12)
    h.update_batch(np.array([f"doc-{i}" for i in range(20_000)], dtype=object))
    est = h.estimate()
    assert abs(est - 20_000) / 20_000 < 4 * h.relative_error
    h2 = HyperLogLog.from_bytes(h.to_bytes())
    assert h2.estimate() == est


# ---------------------------------------------------------------- CMS
def test_cms_bounds():
    rng = np.random.default_rng(42)
    vals = rng.zipf(1.5, size=200_000)
    vals = vals[vals < 10_000]
    cms = CountMinSketch(eps=1e-3, delta=1e-3)
    cms.update_batch(vals)
    uniq, true_counts = np.unique(vals, return_counts=True)
    est = cms.query(uniq)
    assert np.all(est >= true_counts)  # never underestimates
    assert np.all(est - true_counts <= cms.eps * cms.n * 3)


def test_cms_merge_additive():
    a, b = CountMinSketch(width=1024, depth=4), CountMinSketch(width=1024, depth=4)
    a.update_batch(np.arange(1000) % 17)
    b.update_batch(np.arange(1000) % 13)
    u = CountMinSketch(width=1024, depth=4)
    u.update_batch(np.arange(1000) % 17)
    u.update_batch(np.arange(1000) % 13)
    a.merge(b)
    assert np.array_equal(a.counts, u.counts)
    rt = CountMinSketch.from_bytes(a.to_bytes())
    assert np.array_equal(rt.counts, a.counts) and rt.n == a.n


def test_heavy_hitters_top():
    rng = np.random.default_rng(7)
    # heavy values 0..9 with huge counts + noise tail
    heavy = np.repeat(np.arange(10), 5000)
    noise = rng.integers(100, 1_000_000, size=50_000)
    vals = np.concatenate([heavy, noise])
    rng.shuffle(vals)
    parts = np.array_split(vals, 7)
    sketches = []
    for p in parts:
        hh = HeavyHitters(k=10, eps=1e-4, delta=1e-3)
        hh.update_batch(p)
        sketches.append(hh)
    merged = sketches[0]
    for s in sketches[1:]:
        merged.merge(s)
    top_vals, top_counts = merged.top(10)
    assert set(top_vals.tolist()) == set(range(10))
    assert np.all(top_counts >= 5000)
    rt = HeavyHitters.from_bytes(merged.to_bytes())
    tv, tc = rt.top(10)
    assert np.array_equal(tv, top_vals) and np.array_equal(tc, top_counts)


def test_bounded_int_hist_top_matches_exact_counts():
    # 40 values, many sharing a count: the value-ascending tie-break
    # decides which of the tied ones make the cut
    rng = np.random.default_rng(11)
    vals = np.repeat(rng.permutation(1000)[:40], rng.integers(1, 5, 40))
    rng.shuffle(vals)
    h = BoundedIntHist(domain=1000)
    for part in np.array_split(vals, 3):
        p = BoundedIntHist(domain=1000)
        p.update_batch(part)
        h.merge(BoundedIntHist.from_bytes(p.to_bytes()))
    u, c = np.unique(vals, return_counts=True)
    order = np.lexsort((u, -c))
    assert len(set(c[order[:10]])) < 10  # ties inside the top 10
    for k in (1, 10, 40, 100):
        tv, tc = h.top(k)
        assert tv.tolist() == u[order[:k]].tolist()
        assert tc.tolist() == c[order[:k]].tolist()
    assert h.eps == 0.0
    ev, ec = BoundedIntHist(domain=1000).top(10)
    assert ev.size == 0 and ec.size == 0


# ---------------------------------------------------------------- KLL
def test_kll_exact_when_small():
    # fewer items than capacity -> no compaction -> exact type-1 percentiles
    k = KLL(k=200)
    vals = np.arange(1, 101, dtype=np.float64)  # 1..100
    k.update_batch(vals)
    srt = np.sort(vals)
    for p in [0, 25, 50, 75, 90, 99, 100]:
        idx = min(int(p * 100 / 100.0), 99)
        assert k.quantile(p) == srt[idx], p


@pytest.mark.parametrize("dist", ["uniform", "zipfish", "normal"])
def test_kll_rank_error(dist):
    rng = np.random.default_rng(3)
    n = 200_000
    if dist == "uniform":
        vals = rng.uniform(0, 1, n)
    elif dist == "zipfish":
        vals = rng.zipf(1.3, n).astype(np.float64)
    else:
        vals = rng.normal(0, 1, n)
    k = KLL(k=200)
    k.update_batch(vals)
    srt = np.sort(vals)
    for p in [1, 10, 25, 50, 75, 90, 99]:
        q = k.quantile(p)
        # with heavy ties the returned value's rank is an interval
        r_lo = np.searchsorted(srt, q, side="left") / n
        r_hi = np.searchsorted(srt, q, side="right") / n
        err = max(0.0, r_lo - p / 100, p / 100 - r_hi)
        assert err < 0.03, (dist, p, r_lo, r_hi)


def test_kll_merge_bound_and_roundtrip():
    rng = np.random.default_rng(11)
    vals = rng.normal(0, 1, 100_000)
    parts = np.array_split(vals, 13)
    ks = []
    for part in parts:
        s = KLL(k=200)
        s.update_batch(part)
        ks.append(s)
    merged = ks[0]
    for s in ks[1:]:
        merged.merge(s)
    assert merged.n == 100_000
    srt = np.sort(vals)
    for p in [10, 50, 90]:
        q = merged.quantile(p)
        true_rank = np.searchsorted(srt, q, side="right") / vals.size
        assert abs(true_rank - p / 100) < 0.04
    rt = KLL.from_bytes(merged.to_bytes())
    assert rt.quantile(50) == merged.quantile(50)


# ---------------------------------------------------------------- TDigest
def test_tdigest_accuracy_tails():
    rng = np.random.default_rng(5)
    vals = rng.normal(0, 1, 500_000)
    td = TDigest(compression=200)
    for chunk in np.array_split(vals, 10):
        td.update_batch(chunk)
    srt = np.sort(vals)
    n = vals.size
    for p in [0.1, 1, 25, 50, 75, 99, 99.9]:
        q = td.quantile(p)
        true_rank = np.searchsorted(srt, q, side="right") / n
        tol = 0.005 if 10 < p < 90 else 0.002
        assert abs(true_rank - p / 100) < tol, (p, true_rank)
    assert td.quantile(0) == vals.min()
    assert td.quantile(100) == vals.max()


def test_tdigest_merge_and_roundtrip():
    rng = np.random.default_rng(9)
    vals = rng.exponential(2.0, 100_000)
    parts = np.array_split(vals, 8)
    ds = []
    for p in parts:
        t = TDigest(compression=100)
        t.update_batch(p)
        ds.append(t)
    merged = ds[0]
    for t in ds[1:]:
        merged.merge(t)
    assert merged.n == 100_000
    assert merged.means.size < 150  # bounded state
    srt = np.sort(vals)
    for p in [50, 90, 99]:
        q = merged.quantile(p)
        true_rank = np.searchsorted(srt, q, side="right") / vals.size
        assert abs(true_rank - p / 100) < 0.01
    rt = TDigest.from_bytes(merged.to_bytes())
    assert rt.quantile(50) == merged.quantile(50)


# ---------------------------------------------------------------- Bloom
def test_bloom_no_false_negatives_and_fpp():
    keys = np.array([f"doc-{i:08d}" for i in range(50_000)], dtype=object)
    probe = np.array([f"other-{i:08d}" for i in range(50_000)], dtype=object)
    bf = BloomFilter(capacity=50_000, fpp=0.01)
    bf.add_batch(keys)
    assert bf.contains_batch(keys).all()  # zero false negatives
    fp = bf.contains_batch(probe).mean()
    assert fp < 0.02  # fpp within 2x of design

    # merge = union
    a = BloomFilter(capacity=1000, fpp=0.01, seed=3)
    b = BloomFilter(m=a.m, k=a.k, seed=3)
    a.add_batch(keys[:500])
    b.add_batch(keys[500:1000])
    a.merge(b)
    assert a.contains_batch(keys[:1000]).all()
    rt = BloomFilter.from_bytes(a.to_bytes())
    assert np.array_equal(rt.bits, a.bits)


# ---------------------------------------------------------------- MinHash / SimHash
def test_minhash_jaccard_estimate():
    mh = MinHash(k=256, seed=1)
    a = hash64(np.arange(0, 1000))
    b = hash64(np.arange(500, 1500))  # true J = 500/1500 = 1/3
    est = MinHash.estimate_jaccard(mh.signature(a), mh.signature(b))
    assert abs(est - 1 / 3) < 0.08


def test_minhash_concat_layout_matches_single():
    mh = MinHash(k=64, seed=2)
    docs = [hash64(np.arange(i, i + 50)) for i in range(5)]
    flat = np.concatenate(docs)
    offsets = np.array([0, 50, 100, 150, 200, 250])
    sigs = mh.signatures_concat(flat, offsets)
    for i, d in enumerate(docs):
        assert np.array_equal(sigs[i], mh.signature(d))


def test_simhash_similar_docs_close():
    base = hash64(np.array([f"w{i}" for i in range(200)], dtype=object))
    near = np.concatenate([base[:190], hash64(np.array([f"x{i}" for i in range(10)], dtype=object))])
    far = hash64(np.array([f"z{i}" for i in range(200)], dtype=object))
    flat = np.concatenate([base, near, far])
    offsets = np.array([0, 200, 400, 600])
    fps = simhash_concat(flat, offsets)
    d_near = hamming64(fps[:1], int(fps[1]))[0]
    d_far = hamming64(fps[:1], int(fps[2]))[0]
    assert d_near < d_far
    assert d_near <= 12


def test_shingles():
    t = np.arange(10, dtype=np.uint64)
    sh = shingle_hashes(t, n=3)
    assert sh.size == 8
    # shifted window produces overlapping shingles
    sh2 = shingle_hashes(t[1:], n=3)
    assert np.intersect1d(sh, sh2).size == 7


def test_hash64_arrow_fast_path_matches_pandas():
    """The vectorized buffer-level SipHash-2-4 over Arrow string
    columns must be BYTE-IDENTICAL to the pandas object path (every
    sketch keys off hash64; a divergence silently changes estimates,
    partial-blob content, and checkpoint reuse)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from miller_ray.hashing import hash64, splitmix64

    # <=8 distinct lengths, all <=64 bytes: the fast-path eligibility
    # window (ids/categories); the helper must be used AND byte-correct
    from miller_ray.hashing import _hash_arrow_strings

    rng = np.random.RandomState(7)
    lens = [0, 1, 4, 8, 9, 16, 33]  # ascii-only so byte len == char len
    strs = ["".join(chr(rng.randint(32, 127)) for _ in range(rng.choice(lens)))
            for _ in range(400)] + ["doc-000000000001", "src7", ""]
    want = pd.util.hash_array(np.asarray(strs, dtype=object),
                              hash_key="miller_ray_00042", categorize=False)
    fast = _hash_arrow_strings(pa.array(strs))
    assert fast is not None and (fast == want).all()
    got = hash64(pa.array(strs))
    assert (got == want).all()
    # heterogeneous/long text declines the fast path but stays correct
    texts = ["word " * rng.randint(1, 60) for _ in range(200)]
    assert (hash64(pa.array(texts)) ==
            pd.util.hash_array(np.asarray(texts, dtype=object),
                               hash_key="miller_ray_00042",
                               categorize=False)).all()
    # seeded family + large_string + sliced (non-zero offset) layouts
    assert (hash64(pa.array(strs), seed=5) == splitmix64(want, seed=5)).all()
    assert (hash64(pa.array(strs, type=pa.large_string())) == want).all()
    big = pa.array(strs * 3)
    sl = big.slice(17, 200)
    assert (hash64(sl) == hash64(pa.array(sl.to_pylist()))).all()
    # nulls fall back to the object path without raising
    assert len(hash64(pa.array(["a", None, "b"]))) == 3
