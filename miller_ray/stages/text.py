"""Text-analysis stages over a documents table (doc_id, text, lang,
source, ...): tokenization, language-ID heuristics, quality scoring,
token counting, document fingerprinting.

These are the training-data-pipeline extensions beyond Miller's verb set
(Miller's closest analogues: ``put`` with string BIFs, ``sub``/``gsub``).
All stages are vectorized ``map_batches``; the regex/stopword state lives
in an actor (__init__ once per actor, __call__ per batch).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from miller_ray.hashing import hash64
from miller_ray.schema import VOCAB_SIZE


def token_count(ds, text_col: str = "text", out_col: str = "n_tok"):
    """Whitespace token count, vectorized (split_pattern + list_value_length)."""

    def f(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.cast(t[text_col], pa.string()), pattern=r"\s+")
        return t.append_column(out_col, pc.cast(pc.list_value_length(toks), pa.int64()))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def tokenize(ds, text_col: str = "text", out_col: str = "tokens",
             vocab_size: int = VOCAB_SIZE):
    """Deterministic hash tokenizer: whitespace words -> hash64 % vocab
    (int32 ids). Produces the north-rule tokens layout from a documents
    table. Zero-copy list construction from the flat word array."""

    def f(t: pa.Table) -> pa.Table:
        words = pc.split_pattern(pc.cast(t[text_col], pa.string()), pattern=" ")
        flat = pc.list_flatten(words)
        offsets = np.zeros(t.num_rows + 1, dtype=np.int64)
        np.cumsum(pc.list_value_length(words).to_numpy(zero_copy_only=False), out=offsets[1:])
        ids = (hash64(flat) % np.uint64(vocab_size)).astype(np.int32)
        toks = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(ids))
        t = t.append_column(out_col, toks)
        return t.append_column("n_tok", pa.array(np.diff(offsets).astype(np.int32)))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


class QualityScorer:
    """Actor-pool stage: per-doc quality heuristics (length, punctuation
    ratio, stopword ratio, mean word length). Stopword set + regexes
    compiled once per actor."""

    STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "it", "that", "for")

    def __init__(self):
        self.stop = set(self.STOPWORDS)

    def __call__(self, t: pa.Table) -> pa.Table:
        text = pc.cast(t["text"], pa.string())
        n_chars = pc.utf8_length(text)
        words = pc.split_pattern_regex(text, pattern=r"\s+")
        n_words = pc.cast(pc.list_value_length(words), pa.float64())
        # punctuation ratio: chars not alnum/space over total
        stripped = pc.replace_substring_regex(text, pattern=r"[\w\s]", replacement="")
        punct = pc.cast(pc.utf8_length(stripped), pa.float64())
        total = pc.cast(pc.max_element_wise(n_chars, 1), pa.float64())
        punct_ratio = pc.divide(punct, total)
        mean_word_len = pc.divide(pc.cast(n_chars, pa.float64()),
                                  pc.max_element_wise(n_words, 1.0))
        # stopword ratio via flat word membership (vectorized is_in)
        flat = pc.utf8_lower(pc.list_flatten(words))
        is_stop = pc.cast(pc.is_in(flat, value_set=pa.array(self.STOPWORDS)), pa.float64())
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = np.zeros(t.num_rows + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        stops = np.add.reduceat(is_stop.to_numpy(zero_copy_only=False),
                                np.minimum(offsets[:-1], max(0, len(flat) - 1))) \
            if len(flat) else np.zeros(t.num_rows)
        stops = np.where(lens > 0, stops, 0.0)
        stop_ratio = stops / np.maximum(lens, 1)
        t = t.append_column("punct_ratio", punct_ratio)
        t = t.append_column("mean_word_len", mean_word_len)
        t = t.append_column("stop_ratio", pa.array(stop_ratio))
        return t


def quality_score(ds, concurrency=(1, 4)):
    return ds.map_batches(QualityScorer, batch_format="pyarrow",
                          zero_copy_batch=True, concurrency=concurrency)


def fingerprint(ds, text_col: str = "text", out_col: str = "fingerprint"):
    """MD5 hex fingerprint of the text (matches DuckDB/SQL ``md5()``)."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        df[out_col] = [hashlib.md5(s.encode()).hexdigest() for s in df[text_col]]
        return df

    return ds.map_batches(f, batch_format="pandas")


def lang_id(ds, text_col: str = "text", out_col: str = "lang_pred"):
    """Toy n-gram language-ID heuristic: scores per-language marker
    stopwords; deterministic. (The real model-based stage would be an
    actor pool loading a fastText-style model — not available in this
    container; the plumbing is identical.)"""
    markers = {
        "en": ["the", "and", "of"],
        "de": ["der", "und", "die"],
        "fr": ["le", "et", "les"],
        "es": ["el", "y", "los"],
    }

    class Scorer:
        """Vectorized: one flat word array per batch, one is_in per
        language, reduceat per doc — no per-row Python (the same
        pattern as QualityScorer's stopword ratio)."""

        def __init__(self):
            self.langs = sorted(markers)
            self.value_sets = {k: pa.array(markers[k]) for k in self.langs}

        def __call__(self, t: pa.Table) -> pa.Table:
            words = pc.list_slice(
                pc.split_pattern_regex(
                    pc.utf8_lower(pc.cast(t[text_col], pa.string())),
                    pattern=r"\s+"), 0, 200)
            flat = pc.list_flatten(words)
            lens = pc.list_value_length(words).to_numpy(
                zero_copy_only=False).astype(np.int64)
            offsets = np.zeros(t.num_rows + 1, dtype=np.int64)
            np.cumsum(lens, out=offsets[1:])
            scores = np.zeros((t.num_rows, len(self.langs)), dtype=np.int64)
            for li, lang in enumerate(self.langs):
                # distinct-marker count per doc: a marker seen twice in a
                # doc scores once (set semantics) — dedupe (doc, marker)
                # pairs via the marker index the word hits
                hit = pc.index_in(flat, value_set=self.value_sets[lang])
                hv = hit.to_numpy(zero_copy_only=False)
                ok = ~np.isnan(hv.astype(np.float64)) if hv.dtype == object \
                    else ~pd.isna(hv)
                if not ok.any():
                    continue
                doc = np.repeat(np.arange(t.num_rows), lens)[ok]
                mk = hv[ok].astype(np.int64)
                uniq = np.unique(doc * np.int64(len(markers[lang]) + 1) + mk)
                np.add.at(scores[:, li], (uniq // (len(markers[lang]) + 1)), 1)
            best = np.argmax(scores, axis=1)  # ties -> lowest index = sorted lang order
            best_n = scores[np.arange(t.num_rows), best]
            preds = np.where(best_n > 0,
                             np.array(self.langs, dtype=object)[best], "unknown")
            return t.append_column(out_col, pa.array(preds, type=pa.string()))

    return ds.map_batches(Scorer, batch_format="pyarrow",
                          zero_copy_batch=True, concurrency=(1, 2))


def domain_mix(ds, quotas: dict[str, float], id_col: str = "doc_id",
               source_col: str = "source", denom: int = 100,
               default_quota: float = 0.0):
    """Deterministic source-weighted subsampling (domain mixing): keep a
    row iff ``key % denom < round(denom * quotas[source])``, where key is
    the integer id when the id column is integral (SQL-reproducible —
    the oracle-checked mode) else ``hash64(id)`` (same distribution,
    rows-only-verifiable). Systematic id-keyed selection instead of RNG:
    reproducible across task retries, stable under repartitioning, and
    a re-run of the pipeline selects the SAME subset — the property a
    resumable 100 TB curation job needs. Quotas > 1 are clamped (use
    ``repeat`` for upsampling); unknown sources get ``default_quota``.

    Scale shape: one filtering map_batches, a broadcast-size quota dict
    captured in the closure, no shuffle, no driver state.
    """
    cuts = {s: int(round(denom * min(max(q, 0.0), 1.0)))
            for s, q in quotas.items()}
    default_cut = int(round(denom * min(max(default_quota, 0.0), 1.0)))

    def keep(t: pa.Table) -> pa.Table:
        col = t[id_col]
        if pa.types.is_integer(col.type):
            # fmod keeps the dividend's sign, as SQL's % does (-7 % 100
            # is -7); numpy's % takes the divisor's
            key = np.fmod(pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False), denom)
        else:
            key = hash64(col) % np.uint64(denom)
        src = t[source_col].to_pandas()
        cut = src.map(lambda s: cuts.get(s, default_cut)).to_numpy()
        return t.filter(pa.array(key < cut))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


# (pattern, replacement) pairs applied in order; RE2 syntax so the same
# pattern string runs identically under pyarrow.compute (RE2) and
# DuckDB's regexp_replace (also RE2) — the oracle-parity requirement
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    (r"\b\d{3}-\d{2}-\d{4}\b", "<SSN>"),
]


def pii_redact(ds, text_col: str = "text", out_col: str | None = None,
               count_col: str | None = "n_redacted",
               patterns: list[tuple[str, str]] | None = None):
    """Scrub PII-shaped spans (emails, IPv4s, SSN-shaped ids) from a
    text column — the standard hygiene pass before training-data
    release. Fully vectorized: pyarrow.compute replace/count regex
    kernels (RE2) per batch, no Python loop over rows, no shuffle.
    ``count_col`` (optional) records how many spans were replaced per
    document so downstream filters can quarantine PII-dense docs."""
    pats = PII_PATTERNS if patterns is None else patterns
    dst = out_col or text_col

    def f(t: pa.Table) -> pa.Table:
        s = pc.cast(t[text_col], pa.string())
        n = None
        for pat, repl in pats:
            if count_col is not None:
                c = pc.count_substring_regex(s, pat)
                n = c if n is None else pc.add(n, c)
            s = pc.replace_substring_regex(s, pat, repl)
        cols = dict(zip(t.column_names, t.columns))
        cols[dst] = s
        if count_col is not None:
            cols[count_col] = pc.cast(n, pa.int64())
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
