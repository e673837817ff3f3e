"""Checks of every op's result against its exact answer.

Each check returns a list of error strings; an empty list means the
result passed. The bounds are the sketches' published errors:

- HyperLogLog, p=14: |estimate - n| <= HLL_SIGMAS * 1.04/sqrt(2**14) * n.
- Count-Min (HeavyHitters, eps=1e-4): true <= estimate <= true + eps*N,
  and every reported token is a heavy hitter (true count at least the
  exact 10th count minus eps*N).
- KLL, k=200: the estimate's true rank lies within KLL_RANK_EPS of the
  asked rank (DataSketches' 99% normalized rank error for k=200).
- t-digest, compression 200: the same rank test with TDIGEST_RANK_EPS.
- hist_token_values: equal to the exact type-1 percentile.
- Bloom: no false negative over every doc_id.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from perfbench.inputs import PERCENTILES, TokensExact

HLL_SIGMAS = 4.0
HLL_P = 14
CMS_EPS = 1e-4
KLL_RANK_EPS = 0.0165
TDIGEST_RANK_EPS = 0.01


def hll_errors(name: str, est: float, true: int) -> list[str]:
    tol = HLL_SIGMAS * 1.04 / math.sqrt(1 << HLL_P) * true
    if not abs(est - true) <= tol:
        return [f"{name}: estimate {est:.1f} vs {true} (tolerance {tol:.2f})"]
    return []


def rank_errors(name: str, est: float, p: float, sorted_vals: np.ndarray,
                eps: float) -> list[str]:
    """The estimate's rank interval [#(<est), #(<=est)]/n must reach
    within eps of p/100 (ties give an interval, not a point)."""
    n = sorted_vals.size
    lo = np.searchsorted(sorted_vals, est, side="left") / n
    hi = np.searchsorted(sorted_vals, est, side="right") / n
    q = p / 100.0
    if not lo - eps <= q <= hi + eps:
        return [f"{name} p{p}: {est} has rank [{lo:.4f}, {hi:.4f}], asked {q}"]
    return []


def check_flagship(summary: pd.DataFrame, ex: TokensExact,
                   bloom_fpp: float) -> list[str]:
    """``sketch_summary`` rows (sketch, stat, value) against the exact
    answer. ``bloom_fpp`` is the estimated fpp of the in-process filter
    that was checked for false negatives: the op's merged filter has the
    same bits, hence the same estimate."""
    v = {(r.sketch, r.stat): r.value for r in summary.itertuples()}
    err: list[str] = []
    err += hll_errors("hll_doc_id", v.get(("hll_doc_id", "distinct_count"), math.nan),
                      ex.n_seqs)
    err += hll_errors("hll_source", v.get(("hll_source", "distinct_count"), math.nan),
                      ex.n_sources)
    slack = CMS_EPS * ex.n_tokens
    tenth = np.sort(ex.token_counts)[-10]
    top = [(stat, val) for (sk, stat), val in v.items() if sk == "hh_tokens"]
    if len(top) != 10:
        err.append(f"hh_tokens: {len(top)} rows, expected 10")
    for stat, est in top:
        tok = int(stat.rsplit("_", 1)[1])
        true = int(ex.token_counts[tok])
        if not true <= est <= true + slack:
            err.append(f"hh_tokens {stat}: estimate {est} vs true {true} (+{slack:.0f})")
        if true < tenth - slack:
            err.append(f"hh_tokens {stat}: token {tok} is not a top-10 token")
    for p in PERCENTILES:
        err += rank_errors("kll_n_tok", v.get(("kll_n_tok", f"p{p}"), math.nan), p,
                           ex.n_tok_sorted, KLL_RANK_EPS)
        err += rank_errors("td_n_tok", v.get(("td_n_tok", f"p{p}"), math.nan), p,
                           ex.n_tok_sorted, TDIGEST_RANK_EPS)
        want = ex.token_percentile(p)
        got = v.get(("hist_token_values", f"p{p}"))
        if got != want:
            err.append(f"hist_token_values p{p}: {got} vs exact {want}")
    fpp = v.get(("bloom_doc_id", "estimated_fpp"))
    if fpp != bloom_fpp:
        err.append(f"bloom_doc_id: estimated fpp {fpp} vs checked filter {bloom_fpp}")
    return err


def check_bloom(bloom, doc_ids) -> list[str]:
    missing = int((~bloom.contains_batch(doc_ids)).sum())
    return [f"bloom_doc_id: {missing} false negatives"] if missing else []


def check_grouped(out: pd.DataFrame, ex: TokensExact) -> list[str]:
    """Per-source HLL and KLL bounds of ``grouped_ntok_sketches``."""
    got = list(out["source"])
    if sorted(got) != sorted(ex.by_source):
        return [f"grouped: sources {sorted(got)} vs {sorted(ex.by_source)}"]
    err: list[str] = []
    for r in out.itertuples():
        vals = ex.by_source[r.source]
        # doc_ids are unique, so a source's distinct count is its row count
        err += hll_errors(f"hll_doc_id[{r.source}]", r.doc_id_distinct_est, vals.size)
        for p in PERCENTILES:
            err += rank_errors(f"kll_n_tok[{r.source}]", getattr(r, f"n_tok_p{p}_est"),
                               p, vals, KLL_RANK_EPS)
    return err


def frame_errors(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """Equal frames up to row order and column order: same columns,
    same rows; floats to 1e-9 relative."""
    cols = list(want.columns)
    if sorted(got.columns) != sorted(cols):
        return [f"{name}: columns {sorted(got.columns)} vs {sorted(cols)}"]
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows vs {len(want)}"]
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        x, y = a[c].to_numpy(), b[c].to_numpy()
        if x.dtype.kind in "iuf" and y.dtype.kind in "iuf":
            same = np.allclose(x.astype(float), y.astype(float), rtol=1e-9, atol=0)
        else:
            same = bool((x.astype(str) == y.astype(str)).all())
        if not same:
            return [f"{name}: column {c} differs"]
    return []


def check_verbs(results: dict[str, pd.DataFrame],
                exact: dict[str, pd.DataFrame]) -> list[str]:
    err: list[str] = []
    for name, want in exact.items():
        if name not in results:
            err.append(f"{name}: no result")
        else:
            err += frame_errors(name, results[name], want)
    return err


def check_checkpoint(cold: dict, resumed: dict, lineage: list[dict],
                     ex: dict) -> list[str]:
    """Resume equals the cold build byte for byte; lineage covers every
    input row once; the merged HLL is within its bound."""
    err = [f"{name}: resumed sketch differs from the cold build"
           for name in cold if cold[name].to_bytes() != resumed[name].to_bytes()]
    rows = sum(e["rows"] for e in lineage)
    if rows != ex["rows"] or len(lineage) != ex["partitions"]:
        err.append(f"lineage: {len(lineage)} partitions / {rows} rows, expected "
                   f"{ex['partitions']} / {ex['rows']}")
    err += hll_errors("hll_doc_id", cold["hll_doc_id"].estimate(), ex["distinct_doc_ids"])
    return err
