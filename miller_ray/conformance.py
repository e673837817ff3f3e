"""Reference-conformance harness: replay johnkerl/miller's own golden
test corpus (``/root/reference/test/cases/<suite>/<NNNN>/{cmd,expout}``)
through THIS engine and compare.

No ``mlr`` binary exists in the sandbox (Go sources only), so the
harness parses each case's ``cmd`` line, loads the referenced
``test/input/*`` files with a DKVP/CSV reader, executes the verb through
``miller_ray.verbs`` over a Ray Dataset, parses ``expout`` (DKVP, XTAB,
PPRINT, JSON, CSV), and compares record multisets with numeric
tolerance (Miller renders floats at 8 decimals).

Comparison is ORDER-INSENSITIVE except for ``sort``/``head``/``tail``
cases (where the verb defines order), matching this engine's documented
divergence (SURVEY.md §1.6: first-seen output order does not survive
distribution). Cases using unsupported flags/verbs are SKIPPED and
counted, never silently passed.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import math
import os
import re
import shlex
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

REFERENCE = "/root/reference"

# ---------------------------------------------------------------------------
# input readers (test fixtures are tiny; type inference mirrors
# pkg/mlrval/mlrval_infer.go for int/float/string)
# ---------------------------------------------------------------------------


_INFER_MODE: list = [None]  # per-case: None | "none" | "int_as_float"


class _SrcInt(int):
    """Int that remembers its source text: Miller preserves the
    ORIGINAL string form of numbers that pass through unmodified
    (mlrval printrep; io-infer-flags/dash-O renders 0x1000/-08/0123
    verbatim while arithmetic uses the parsed value)."""

    def __new__(cls, value, src=None):
        o = super().__new__(cls, value)
        o.src = str(value) if src is None else src
        return o

    def __reduce__(self):  # picklable across Ray workers
        return (_SrcInt, (int(self), self.src))

    def __str__(self):
        return self.src

    def __repr__(self):
        return self.src


def _infer(v: str):
    if v is None or v == "":
        return "" if v == "" else None
    mode = _INFER_MODE[0]
    if mode == "none":
        return v  # -S/--infer-none: all values stay strings
    try:
        if re.fullmatch(r"[+-]?\d+", v):
            if re.match(r"[+-]?0\d", v):
                if mode == "octal":
                    # -O/--infer-octal: leading-zero ints parse base-8;
                    # invalid octal digits ("08") re-scan as decimal
                    # (scan.go inferWithOctalAsInt; io-infer-flags)
                    try:
                        return _SrcInt(int(v, 8), v)
                    except ValueError:
                        return _SrcInt(int(v), v)
                return v  # leading-zero ints stay strings (scan.go)
            if mode == "octal" and str(int(v)) != v:
                return _SrcInt(int(v), v)  # e.g. "-0" keeps its form
            return float(v) if mode == "int_as_float" else int(v)
        if re.fullmatch(r"[+-]?0[xX][0-9a-fA-F]+", v) or \
                re.fullmatch(r"[+-]?0[bB][01]+", v):
            # hex/binary literals are int64 BIT PATTERNS: values in
            # [2^63, 2^64) reinterpret as negative two's-complement
            # (scan.go / int64-io golden cases)
            n = int(v, 0)
            if 2**63 <= n < 2**64:
                n = n - 2**64
            elif not (-2**63 <= n < 2**63):
                n = float(n)
            # -A floatifies hex/binary like decimal ints
            # (io-infer-flags/dash-A: -0x1000 -> -4096.0 float)
            if mode == "int_as_float":
                return float(n)
            if mode == "octal" and isinstance(n, int):
                return _SrcInt(n, v)  # passthrough keeps 0x/0b form
            return n
        if re.fullmatch(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", v):
            return float(v)
    except ValueError:
        pass
    return v


def read_dkvp(path: str, sep: str = ",", ips: str = "=") -> list[dict]:
    recs = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            rec = {}
            seen: dict[str, int] = {}
            for pos, pair in enumerate(line.split(sep), 1):
                if ips in pair:
                    k, _, v = pair.partition(ips)
                    seen[k] = seen.get(k, 0) + 1
                    if seen[k] > 1 and not NO_DEDUPE:
                        # dedupe-field-names behavior
                        k = f"{k}_{seen[k]}"
                    rec[k] = _infer(v)
                else:
                    rec[str(pos)] = _infer(pair)  # NIDX-style positional key
            recs.append(rec)
    return recs


# --no-dedupe-field-names: duplicate keys collapse map-style (last
# value wins, first position kept) instead of the _2/_3 renames
# (pkg/cli/option_types.go dedupe-field-names flag). Module toggle set
# by load_df for the duration of one case's input read.
NO_DEDUPE = False

# set while running a should-fail case: reader-level VALIDATION errors
# become FatalError (pass when the reference also rejects) instead of
# Unsupported (skip)
EXPECT_FAIL_MODE = [False]


def _dedupe_header(hdr: list[str]) -> list[str]:
    """Duplicate CSV header names get _2, _3... suffixes
    (record_reader dedupe-field-names behavior); with
    --no-dedupe-field-names the names pass through unchanged so the
    record dict's last-wins assignment applies."""
    if NO_DEDUPE:
        return list(hdr)
    seen: dict[str, int] = {}
    out = []
    for h in hdr:
        seen[h] = seen.get(h, 0) + 1
        out.append(h if seen[h] == 1 else f"{h}_{seen[h]}")
    return out


def read_csv(path: str, sep: str = ",", ragged: bool = False,
             implicit_header: bool = False,
             skip_trivial: bool = False) -> list[dict]:
    import csv

    with open(path, encoding="utf-8-sig") as f:  # strips a UTF-8 BOM
        if len(sep) == 1:
            # a blank line is a record with one empty field
            # (record_reader_csv; io-rfc-csv/0020); csv.reader yields
            # [] for blank lines outside quoted fields
            rows = [r if r else [""] for r in csv.reader(f, delimiter=sep)]
        else:  # multi-char separator: plain split, no quoting
            rows = [ln.rstrip("\n").split(sep) for ln in f
                    if ln.rstrip("\n")]
    if not rows:
        return []
    if implicit_header:
        hdr = [str(k) for k in range(1, len(rows[0]) + 1)]
        data = rows
    else:
        hdr = _dedupe_header(rows[0])
        data = rows[1:]
    out = []
    for row in data:
        if len(row) != len(hdr) and not ragged and not implicit_header:
            if skip_trivial and not any(f != "" for f in row):
                # a skip-trivial-records chain downgrades all-empty
                # ragged rows from fatal to skipped
                # (record_reader_csv.go:264-270, issue #1535)
                continue
            msg = (f"ragged CSV input without --allow-ragged-csv-input "
                   f"({len(row)} fields vs {len(hdr)} header)")
            if EXPECT_FAIL_MODE[0]:
                from miller_ray.functions import FatalError

                err = FatalError("mlr: " + msg)
                # records streamed BEFORE the abort (regtester expout
                # holds the partial output)
                err.partial_records = list(out)
                raise err
            raise Unsupported(msg)
        keys = hdr if len(row) <= len(hdr) else _dedupe_header(
            hdr + [str(k) for k in range(len(hdr) + 1, len(row) + 1)])
        out.append({k: _infer(v) for k, v in zip(keys, row)})
    return out


def read_csvlite(path: str, sep: str = ",", ragged: bool = False,
                 implicit_header: bool = False) -> list[dict]:
    """csvlite: a blank line starts a NEW header block (heterogeneous
    schema support; record_reader_csvlite.go). Multi-character
    separators split literally (no quoting)."""
    import csv
    import io

    with open(path) as f:
        text = f.read()
    if len(sep) > 1:
        recs2: list[dict] = []
        hdr2: list[str] | None = None
        for line in text.split("\n"):
            line = line.rstrip("\r")
            if line == "":
                hdr2 = None
                continue
            parts = line.split(sep)
            if hdr2 is None:
                if implicit_header:
                    hdr2 = [str(k) for k in range(1, len(parts) + 1)]
                else:
                    hdr2 = _dedupe_header(parts)
                    continue
            keys = hdr2 if len(parts) <= len(hdr2) else _dedupe_header(
                hdr2 + [str(k) for k in range(len(hdr2) + 1, len(parts) + 1)])
            recs2.append({k: _infer(v) for k, v in zip(keys, parts)})
        return recs2
    recs: list[dict] = []
    for block in re.split(r"\n\s*\n", text):
        if not block.strip():
            continue
        rows = [r for r in csv.reader(io.StringIO(block), delimiter=sep) if r]
        if not rows:
            continue
        if implicit_header:
            hdr = [str(k) for k in range(1, len(rows[0]) + 1)]
            data = rows
        else:
            hdr = _dedupe_header(rows[0])
            data = rows[1:]
        for row in data:
            keys = hdr if len(row) <= len(hdr) else _dedupe_header(
                hdr + [str(k) for k in range(len(hdr) + 1, len(row) + 1)])
            recs.append({k: _infer(v) for k, v in zip(keys, row)})
    return recs


def read_tsv(path: str, implicit_header: bool = False,
             unescape: bool = True, ragged: bool = False) -> list[dict]:
    """TSV cells unescape \\t, \\n, \\r, \\\\ (the TSV spec's escapes);
    tsvLITE keeps cells literal (unescape=False)."""

    def unesc(s):
        if not unescape or not isinstance(s, str) or "\\" not in s:
            return s
        return (s.replace("\\\\", "\x00").replace("\\t", "\t")
                 .replace("\\n", "\n").replace("\\r", "\r")
                 .replace("\x00", "\\"))

    with open(path) as f:
        all_lines = [ln.rstrip("\n") for ln in f]
    lines = [ln for ln in all_lines if ln]
    if not lines:
        return []
    if implicit_header:
        hdr = [str(k) for k in range(1, len(lines[0].split("\t")) + 1)]
        data = lines
    else:
        # header cells are NOT escape-decoded (record_reader_tsv.go
        # decodes data fields only; io-spec-tsv/0001)
        hdr = _dedupe_header(lines[0].split("\t"))
        data = lines[1:]
    if EXPECT_FAIL_MODE[0] and not ragged and not implicit_header:
        # strict TSV: EVERY physical line (blank included — 0 fields)
        # must match the header width (record_reader_tsv.go
        # "TSV header/data length mismatch"; io-spec-tsv/0004) — the
        # records before the offending line are the partial output
        out0: list[dict] = []
        for lineno, ln in enumerate(all_lines[1:], 2):
            cells = ln.split("\t") if ln else []
            if len(cells) != len(hdr):
                from miller_ray.functions import FatalError

                err = FatalError(
                    f"mlr: TSV header/data length mismatch "
                    f"{len(hdr)} != {len(cells)} at line {lineno}")
                err.partial_records = list(out0)
                raise err
            out0.append({k: _infer(unesc(v))
                         for k, v in zip(hdr, cells)})
        return out0
    out = []
    for ln in data:
        cells = ln.split("\t")
        if ragged or implicit_header:
            # --ragged (+--hi): longer rows grow positional keys past
            # the header; shorter rows pad VOID up to the header width
            # (io-ragged-implicit-header-tsv/0001)
            keys = hdr + [str(k) for k in range(len(hdr) + 1,
                                                len(cells) + 1)]
            if len(cells) < len(hdr):
                cells = cells + [""] * (len(hdr) - len(cells))
        else:
            keys = hdr
        out.append({k: _infer(unesc(v)) for k, v in zip(keys, cells)})
    return out


def read_nidx(path: str, sep: str | None = None) -> list[dict]:
    """NIDX: whitespace- (or sep-) split positional fields, 1-up keys."""
    recs = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            if sep and sep.startswith("\x00re:"):
                toks = [t for t in re.split(sep[4:], line) if t != ""]
            elif sep:
                toks = line.split(sep)
            else:
                toks = line.split()
            recs.append({str(i): _infer(v) for i, v in enumerate(toks, 1)})
    return recs


def _dedupe_record(fields: list) -> dict:
    """Ordered (key, value) pairs → record dict with Miller's
    dedupe-field-names _2/_3 renames (honoring --no-dedupe-field-names
    via the NO_DEDUPE module toggle)."""
    rec: dict = {}
    seen: dict[str, int] = {}
    for k, v in fields:
        seen[k] = seen.get(k, 0) + 1
        if seen[k] > 1 and not NO_DEDUPE:
            k = f"{k}_{seen[k]}"
        rec[k] = v
    return rec


def parse_recutils_text(text: str) -> list[list]:
    """GNU recutils stanzas → ordered (key, raw-string-value) field
    lists (record_reader_rec.go). Two continuation mechanisms:
    trailing-backslash joins physical lines with no separator; a "+"
    prefix folds the line into the previous field's value with an
    embedded newline (one leading space after "+" stripped). Malformed
    lines are hard errors carrying the records parsed so far."""
    from miller_ray.functions import FatalError

    stanzas_fields: list[list] = []
    for stanza in re.split(r"\n\s*\n", text):
        lines = [ln for ln in stanza.split("\n") if ln != ""]
        if not lines:
            continue
        # pass 1: backslash-newline logical-line joining
        joined: list[str] = []
        pending: str | None = None
        for ln in lines:
            if ln.endswith("\\"):
                pending = (pending or "") + ln[:-1]
                continue
            if pending is not None:
                joined.append(pending + ln)
                pending = None
            else:
                joined.append(ln)
        if pending is not None:
            joined.append(pending)
        # pass 2: field parsing with "+"-continuation folding
        fields: list = []
        for ln in joined:
            if ln.startswith("+"):
                if not fields:
                    err = FatalError(
                        f"mlr: recutils: continuation line \"{ln}\" has "
                        f"no preceding field in this record")
                    err.partial_records = [
                        {k: _infer(v) for k, v in _dedupe_record(f).items()}
                        for f in stanzas_fields]
                    raise err
                cont = ln[1:]
                if cont.startswith(" "):
                    cont = cont[1:]
                if fields[-1][1] == "":
                    fields[-1][1] = cont
                else:
                    fields[-1][1] = fields[-1][1] + "\n" + cont
                continue
            k, colon, rest = ln.partition(":")
            if not colon or (rest and not rest.startswith(" ")):
                err = FatalError(
                    f"mlr: recutils: missing \": \" field separator in "
                    f"line \"{ln}\"")
                err.partial_records = [
                    {k: _infer(v) for k, v in _dedupe_record(f).items()}
                    for f in stanzas_fields]
                raise err
            fields.append([k, rest[1:] if rest else ""])
        if fields:
            stanzas_fields.append(fields)
    return stanzas_fields


def read_recutils(path: str) -> list[dict]:
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        text = f.read()
    return [{k: _infer(v) for k, v in _dedupe_record(fields).items()}
            for fields in parse_recutils_text(text)]


def parse_recutils_out(text: str) -> list[dict]:
    """Expected-output parser for --orecutils (record_writer_rec.go:
    "Key: value" lines, "+ " continuation per embedded newline)."""
    return [{k: _infer(v) for k, v in _dedupe_record(fields).items()}
            for fields in parse_recutils_text(text)]


# DCF list-valued field names: comma-separated in the format, exposed
# as arrays (record_reader_dcf.go dcfListFieldNames)
_DCF_LIST_FIELDS = {
    "Depends", "Pre-Depends", "Recommends", "Suggests", "Enhances",
    "Breaks", "Conflicts", "Replaces", "Built-Using", "Build-Depends",
    "Build-Depends-Indep", "Build-Conflicts", "Build-Conflicts-Indep"}


def _parse_dcf_text(text: str) -> list[dict]:
    """Debian control paragraphs → records (record_reader_dcf.go).
    Continuation lines start with space/tab and join with newline; list
    fields split on commas into arrays; all other values stay strings
    (the DCF reader does NOT type-infer)."""
    recs: list[dict] = []
    for para in re.split(r"\n\s*\n", text):
        lines = [ln for ln in para.split("\n") if ln != ""]
        if not lines:
            continue
        fields: list = []
        for ln in lines:
            if ln[0] in (" ", "\t") and fields:
                fields[-1][1] = fields[-1][1] + "\n" + ln.strip()
                continue
            k, _, rest = ln.partition(":")
            fields.append([k.strip(), rest.strip()])
        rec: dict = {}
        for k, v in _dedupe_record(fields).items():
            if k in _DCF_LIST_FIELDS:
                rec[k] = [p.strip() for p in v.split(",") if p.strip()]
            else:
                rec[k] = v
        recs.append(rec)
    return recs


def read_dcf(path: str) -> list[dict]:
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        return _parse_dcf_text(f.read())


def parse_dcf_out(text: str) -> list[dict]:
    return _parse_dcf_text(text)


def _split_dkvpx_line(line: str, ifs: str, ips: str) -> list:
    """One DKVPX line → ordered (key, value) pairs with CSV-style
    double-quoting: keys and values may be independently quoted, ""
    escapes a quote, separators inside quotes are literal
    (pkg/dkvpx/dkvpx_reader.go)."""
    fields: list = []
    key: str | None = None
    buf: list[str] = []
    i, n = 0, len(line)
    in_quotes = False
    while i < n:
        c = line[i]
        if in_quotes:
            if c == '"':
                if i + 1 < n and line[i + 1] == '"':
                    buf.append('"')
                    i += 2
                    continue
                in_quotes = False
                i += 1
                continue
            buf.append(c)
            i += 1
            continue
        if c == '"':
            in_quotes = True
            i += 1
            continue
        if c == ips and key is None:
            key = "".join(buf)
            buf = []
            i += 1
            continue
        if c == ifs:
            val = "".join(buf)
            if key is None:
                fields.append([str(len(fields) + 1), val])
            else:
                fields.append([key, val])
            key, buf = None, []
            i += 1
            continue
        buf.append(c)
        i += 1
    val = "".join(buf)
    if key is not None or val or fields:
        fields.append([str(len(fields) + 1) if key is None else key, val])
    return fields


def _check_dkvpx_seps(ifs: str, ips: str) -> None:
    from miller_ray.functions import FatalError

    if len(ifs) != 1:
        raise FatalError("mlr: for DKVPX, IFS can only be a single character")
    if len(ips) != 1:
        raise FatalError("mlr: for DKVPX, IPS can only be a single character")


def read_dkvpx(path: str, ifs: str = ",", ips: str = "=") -> list[dict]:
    _check_dkvpx_seps(ifs, ips)
    recs = []
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            recs.append({k: _infer(v) for k, v in _dedupe_record(
                _split_dkvpx_line(line, ifs, ips)).items()})
    return recs


def parse_dkvpx_out(text: str, ofs: str = ",", ops: str = "=") -> list[dict]:
    recs = []
    for line in text.splitlines():
        if not line:
            continue
        recs.append({k: _infer(v) for k, v in _dedupe_record(
            _split_dkvpx_line(line, ofs, ops)).items()})
    return recs


def _fw_indexes(spec: str, ref_row: str) -> list[int]:
    """Fixed-width column split points (fixed_width_splitter.go):
    widths:N,N,... are cumulative offsets; the align specs derive
    offsets from a reference row's word layout (multi-word variants
    treat a SINGLE space as intra-word)."""
    if spec.startswith("widths:"):
        out, pos = [], 0
        for w in spec[len("widths:"):].split(","):
            pos += int(w.strip())
            out.append(pos)
        return out
    multi = spec.endswith("-multi-word")
    out = []
    if spec.startswith("left-align"):
        in_word, first_space = True, False
        for i, c in enumerate(ref_row):
            if c != " ":
                if not in_word:
                    out.append(i)
                in_word = True
            elif multi:
                if first_space:
                    in_word, first_space = False, False
                else:
                    first_space = True
            else:
                in_word = False
        return out
    if spec.startswith("right-align"):
        in_word, first_space = False, False
        for i, c in enumerate(ref_row):
            if c != " ":
                in_word, first_space = True, False
            else:
                if in_word:
                    if multi:
                        first_space = True
                    else:
                        out.append(i)
                elif multi and first_space:
                    out.append(i - 1)
                    first_space = False
                in_word = False
        return out
    raise Unsupported(f"fixed-width spec {spec}")


def _fw_split(line: str, indexes: list[int]) -> list[str]:
    if not indexes:
        return [line]
    out, si = [], 0
    for idx in indexes:
        if idx > len(line):
            break
        out.append(line[si:idx])
        si = idx
    rest = line[si:]
    if rest != "":
        out.append(rest)
    return out


def read_fixed_width(path: str, spec: str, implicit_header: bool = False,
                     ragged: bool = False) -> list[dict]:
    """--fw / --fixed pprint input (record_reader_pprint.go fixed-width
    path): the first non-separator line is the splitter's reference
    row; separator lines (dashes/equals) are skipped; blank lines
    reset the header block."""
    sep_rx = re.compile(r"^[-=─ ]*$")
    recs: list[dict] = []
    hdr: list[str] | None = None
    indexes: list[int] | None = None
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for raw in f:
            line = raw.rstrip("\n").rstrip("\r")
            if line == "":
                hdr = indexes = None
                continue
            if sep_rx.fullmatch(line):
                continue
            if indexes is None:
                indexes = _fw_indexes(spec, line)
            fields = [x.strip() for x in _fw_split(line, indexes)]
            if hdr is None:
                if implicit_header:
                    hdr = [str(i) for i in range(1, len(fields) + 1)]
                else:
                    hdr = _dedupe_header(fields)
                    continue
            elif not ragged and len(hdr) != len(fields):
                from miller_ray.functions import FatalError

                raise FatalError(
                    f"mlr: fixed-width header/data length mismatch "
                    f"{len(hdr)} != {len(fields)}")
            rec: dict = {}
            n = min(len(hdr), len(fields))
            for i in range(n):
                rec[hdr[i]] = _infer(fields[i])
            for i in range(len(hdr), len(fields)):
                rec[str(i + 1)] = _infer(fields[i])
            recs.append(rec)
    return recs


def read_json_in(path: str) -> list[dict]:
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
        if isinstance(data, dict):
            data = [data]
    except json.JSONDecodeError:
        try:
            # concatenated pretty-printed objects (mlr's default JSON
            # stream form): wrap as an array
            data = json.loads("[" + re.sub(r"}\s*{", "},{", text) + "]")
        except json.JSONDecodeError:
            data = [json.loads(line) for line in text.splitlines() if line.strip()]
    # nested values stay as Python dict/list objects (heterogeneous
    # object columns); the json-parse/flatten verbs and the writers'
    # auto-flatten consume them structurally
    return list(data)


def read_pprint(path: str, ifs: str | None = None,
                implicit_header: bool = False,
                barred_in: bool = False) -> list[dict]:
    with open(path) as f:
        text = f.read()
    if barred_in:
        # --barred-input: strip the box-drawing frame, then parse as
        # plain pprint (record_reader_pprint.go barred mode)
        text = _unbar_pprint(text)
    if implicit_header:
        # -N / --implicit-pprint-header: every line is data, keys 1..n
        recs0: list[dict] = []
        for ln in text.splitlines():
            if not ln.strip():
                continue
            parts = [x for x in (re.split(
                "(?:" + re.escape(ifs) + ")+", ln.strip())
                if ifs and ifs != " " else ln.split()) if x != ""]
            recs0.append({str(i): _infer("" if v == "-" else v)
                          for i, v in enumerate(parts, 1)})
        return recs0
    if ifs and ifs != " ":
        # pprint pads columns with RUNS of the separator; split on runs
        # (record_reader_pprint splitter semantics)
        pat = "(?:" + re.escape(ifs) + ")+"
        recs: list[dict] = []
        hdr: list[str] | None = None
        for ln in text.splitlines():
            if not ln.strip():
                hdr = None
                continue
            parts = [x for x in re.split(pat, ln.strip()) if x != ""]
            if hdr is None:
                hdr = _dedupe_header(parts)
                continue
            recs.append({k: _infer("" if v == "-" else v)
                         for k, v in zip(hdr, parts)})
        return recs
    return [{k: _infer(v) for k, v in r.items()}
            for r in parse_pprint(text)]


# ---------------------------------------------------------------------------
# expout parsers
# ---------------------------------------------------------------------------


def parse_dkvp(text: str, ofs: str = ",", ops: str = "=") -> list[dict]:
    recs = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = {}
        for pair in line.split(ofs):
            k, _, v = pair.partition(ops)
            rec[k] = v
        recs.append(rec)
    return recs


def parse_nidx_out(text: str, ofs: str | None = None) -> list[dict]:
    recs = []
    for line in text.splitlines():
        if not line.strip():
            continue
        toks = line.split(ofs) if ofs and ofs != " " else line.split()
        recs.append({str(i): v for i, v in enumerate(toks, 1)})
    return recs


def parse_markdown_out(text: str, implicit_header: bool = False) -> list[dict]:
    """``| a | b |`` tables; a new header row starts a new schema block
    (record_writer_markdown). With --hi (implicit_header) every
    non-separator row is DATA under 1-up positional keys — the header
    row is demoted to a record (record_reader_markdown headerless)."""
    recs: list[dict] = []
    hdr: list[str] | None = None
    for line in text.splitlines():
        s = line.strip()
        if not s.startswith("|"):
            hdr = None
            continue
        cells = [c.strip().replace("\\|", "|")
                 for c in re.split(r"(?<!\\)\|", s.strip("|"))]
        if all(set(c) <= {"-", ":", " "} and c for c in cells):
            continue  # separator row
        if implicit_header:
            recs.append({str(i): v for i, v in enumerate(cells, 1)})
            continue
        if hdr is None:
            hdr = _dedupe_header(cells)
            continue
        recs.append(dict(zip(hdr, cells)))
    return recs


def parse_yaml_out(text: str) -> list[dict]:
    """Parse a Miller yaml OUTPUT file back to records: either the
    default top-level-array form (one `- k: v` item per record) or the
    --no-yarray `---`-separated document stream; nested maps/arrays
    come through as Python collections (record_writer_yaml.go)."""
    import yaml as _yaml

    recs: list[dict] = []
    for doc in _yaml.safe_load_all(text):
        if doc is None:
            continue
        if isinstance(doc, list):
            recs.extend(d for d in doc if isinstance(d, dict))
        elif isinstance(doc, dict):
            recs.append(doc)
    # values compare as strings like every other reader
    def _str(v):
        if isinstance(v, dict):
            return {k: _str(x) for k, x in v.items()}
        if isinstance(v, list):
            return [_str(x) for x in v]
        if isinstance(v, bool):
            return "true" if v else "false"
        return v if isinstance(v, (int, float)) or v is None else str(v)
    return [{str(k): _str(v) for k, v in r.items()} for r in recs]


def _unbar_pprint(text: str) -> str:
    """Convert ``--barred`` pprint output back to plain pprint. Short
    ragged data rows are padded to the header's cell count with "-"
    (pprint's VOID marker) so the deduped header keeps every key —
    io-dedupe-field-names/pprint-barred-ragged expects ``"4_2": ""``
    for the missing trailing cell."""
    out = []
    hdr_n: int | None = None
    for line in text.splitlines():
        s = line.strip()
        if not s:
            out.append("")
            hdr_n = None
            continue
        if set(s) <= {"+", "-"}:
            continue  # border row
        if s.startswith("|") and s.endswith("|"):
            cells = [c.strip() for c in s[1:-1].split(" | ")]
            if hdr_n is None:
                hdr_n = len(cells)
            elif len(cells) < hdr_n:
                cells += [""] * (hdr_n - len(cells))
            out.append(" ".join(c if c else "-" for c in cells))
        else:
            out.append(line)
    return "\n".join(out)


def parse_xtab(text: str, ips: str | None = None) -> list[dict]:
    """XTAB blocks; default pair separator is a whitespace run. An
    explicit --ips/--ops (possibly multi-character, e.g. ': ' or
    '@@@@') splits on its FIRST occurrence per line
    (record_reader_xtab.go custom-IPS path; io-multi-character-ixs)."""
    recs, cur = [], {}
    seen: dict[str, int] = {}

    def put(k, v):
        seen[k] = seen.get(k, 0) + 1
        cur[k if (seen[k] == 1 or NO_DEDUPE) else f"{k}_{seen[k]}"] = v

    for line in text.splitlines():
        if not line.strip():
            if cur:
                recs.append(cur)
                cur = {}
                seen = {}
            continue
        if ips is not None and ips not in (" ", "\t"):
            if len(ips) == 1:
                # single-char IPS separates on a RUN of that char,
                # mirroring the default whitespace-run behavior
                # (io-multi-character-ixs/0012: 'a.....1' → a=1)
                m = re.match(r"(.*?)(?:%s)+(.*)" % re.escape(ips), line)
                if m:
                    put(m.group(1), m.group(2).strip())
                else:
                    put(line.strip(), "")
            else:
                k, sep, v = line.partition(ips)
                if sep:
                    put(k, v.strip())
                else:
                    put(line.strip(), "")
            continue
        m = re.match(r"(\S*)[ \t]+(.*)", line)
        if m:
            put(m.group(1), m.group(2).strip())
        else:
            put(line.strip(), "")
    if cur:
        recs.append(cur)
    return recs


def parse_pprint(text: str) -> list[dict]:
    recs = []
    block: list[str] = []

    def flush(block):
        if not block:
            return
        hdr_line = block[0]
        raw_hdr = hdr_line.split()
        hdr = _dedupe_header(raw_hdr)
        # column start offsets from the header (pprint pads all rows to
        # shared column widths, so slicing is exact even when VALUES
        # contain spaces)
        starts = []
        pos = 0
        for tok in raw_hdr:
            starts.append(hdr_line.index(tok, pos))
            pos = hdr_line.index(tok, pos) + len(tok)
        for row in block[1:]:
            vals = []
            simple = row.split()
            if len(simple) == len(hdr):
                vals = simple
            else:
                for i2, s in enumerate(starts):
                    e = starts[i2 + 1] if i2 + 1 < len(starts) else len(row)
                    vals.append(row[s:e].strip())
            # pprint renders VOID/absent as "-"
            recs.append({k: ("" if v == "-" else v)
                         for k, v in zip(hdr, vals)})

    for line in text.splitlines() + [""]:
        if not line.strip():
            flush(block)
            block = []
        else:
            block.append(line)
    return recs


def parse_json_out(text: str) -> list[dict]:
    # Miller writes the error VALUE bare even in JSON output — as a
    # map value and as an array element
    text = re.sub(r"([:,[]\s*)\(error\)", r'\1"(error)"', text)
    try:
        data = json.loads(text)
        if isinstance(data, dict):
            data = [data]
    except json.JSONDecodeError:
        try:
            data = [json.loads(line)
                    for line in text.splitlines() if line.strip()]
        except json.JSONDecodeError:
            # concatenated documents (the JSON writer restarts `[...]`
            # blocks on schema change): raw_decode in a loop
            dec = json.JSONDecoder()
            data = []
            i = 0
            while i < len(text):
                while i < len(text) and text[i] in " \t\r\n":
                    i += 1
                if i >= len(text):
                    break
                obj, j = dec.raw_decode(text, i)
                data.extend(obj if isinstance(obj, list) else [obj])
                i = j
    return [{k: ("" if v is None else v) for k, v in r.items()} for r in data]


def parse_csvlite_out(text: str) -> list[dict]:
    import csv
    import io

    # csvlite emits a fresh header block (blank-line separated) on
    # schema change
    recs: list[dict] = []
    for block in re.split(r"\n\s*\n", text):
        if block.strip():
            recs.extend(csv.DictReader(io.StringIO(block)))
    return recs


def parse_csv_out(text: str) -> list[dict]:
    """Strict RFC-CSV output: one header; an EMPTY line is a record
    with a single empty value (io-rfc-csv/0020)."""
    import csv
    import io

    rows = [r if r else [""] for r in csv.reader(io.StringIO(text))]
    if not rows:
        return []
    hdr = _dedupe_header(rows[0])
    return [dict(zip(hdr, r)) for r in rows[1:]]


def parse_tsv_out(text: str) -> list[dict]:
    import csv
    import io

    return list(csv.DictReader(io.StringIO(text), delimiter="\t"))


# The reference regtester exports MLR_OFMT=%.8f globally
# (regtest/regtester.go:161) — EXCEPT that non-windows/* cases are
# unconditionally skipped by it (regtester.go:371 returns before
# running), so their expouts predate the global OFMT and carry full
# float precision. run_case() clears this for those cases.
REGTEST_OFMT: list = ["%.8f"]


EXPOUT_PARSERS = {"dkvp": parse_dkvp, "xtab": parse_xtab, "pprint": parse_pprint,
                  "json": parse_json_out, "csv": parse_csv_out,
                  "tsv": parse_tsv_out, "nidx": parse_nidx_out,
                  "markdown": parse_markdown_out, "yaml": parse_yaml_out,
                  "csvlite": parse_csvlite_out, "tsvlite": parse_tsv_out,
                  "recutils": parse_recutils_out, "dcf": parse_dcf_out}


def _miller_regex(spec: str):
    """CompileMillerRegex (lib/regex.go:97): "..."/"/.../" wrappers are
    stripped; a trailing `i` outside the wrapper makes the pattern
    case-insensitive."""
    n = len(spec)
    if n >= 2:
        for q in ('"', "/"):
            if spec.startswith(q):
                if spec.endswith(q):
                    return re.compile(spec[1:n - 1])
                if spec.endswith(q + "i"):
                    return re.compile(spec[1:n - 2], re.IGNORECASE)
    return re.compile(spec)


def _parse_expout(case: "Case", text: str) -> list[dict]:
    """Parse expected output honoring the case's output main flags
    (--ofs/--ops/--ors, --barred)."""
    if case.ors and case.ors != "\n":
        text = "\n".join(x for x in text.split(case.ors))
    f = case.ofmt
    if case.headerless_out and f in ("csv", "csvlite", "tsv", "tsvlite",
                                     "pprint", "markdown"):
        # headerless output: every line is data, keys are positional
        import csv as _csv
        import io as _io

        recs = []
        for ln in text.splitlines():
            if not ln.strip():
                continue
            if f in ("csv", "csvlite"):
                row = next(_csv.reader(_io.StringIO(ln),
                                       delimiter=case.ofs or ","))
            elif f in ("tsv", "tsvlite"):
                row = ln.split(case.ofs or "\t")
            else:
                row = ln.split()
            recs.append({str(i): _infer(x.strip() if f == "pprint"
                                        else x)
                         for i, x in enumerate(row, 1)})
        return recs
    if f == "dkvp":
        return parse_dkvp(text, ofs=case.ofs or ",", ops=case.ops or "=")
    if f == "dkvpx":
        return parse_dkvpx_out(text, ofs=case.ofs or ",",
                               ops=case.ops or "=")
    if f == "nidx":
        return parse_nidx_out(text, ofs=case.ofs)
    if f == "pprint":
        if case.ofs and case.ofs != " ":
            recs = []
            hdr = None
            for ln in text.splitlines():
                if not ln.strip():
                    hdr = None
                    continue
                parts = [x.strip() for x in ln.split(case.ofs)]
                if hdr is None:
                    hdr = _dedupe_header(parts)
                    continue
                recs.append({k: ("" if v == "-" else v)
                             for k, v in zip(hdr, parts)})
            return recs
        return parse_pprint(_unbar_pprint(text) if case.barred else text)
    if f == "xtab" and case.ofs and case.ofs != "\n":
        # xtab's OFS is the BETWEEN-FIELDS separator (default newline)
        text = "\n".join("\n".join(ln.split(case.ofs))
                         for ln in text.splitlines())
        return parse_xtab(text, ips=case.ops)
    if f == "xtab":
        return parse_xtab(text, ips=case.ops)
    if f in ("csv", "csvlite") and case.ofs and case.ofs != ",":
        recs: list[dict] = []
        lines = [ln for ln in text.splitlines()]
        hdr: list[str] | None = None
        for ln in lines:
            if not ln.strip():
                hdr = None
                continue
            parts = ln.split(case.ofs)
            if hdr is None:
                hdr = _dedupe_header(parts)
                continue
            recs.append(dict(zip(hdr, parts)))
        return recs
    if f not in EXPOUT_PARSERS:
        raise Unsupported(f"expout format {f}")
    return EXPOUT_PARSERS[f](text)


# ---------------------------------------------------------------------------
# cmd parsing
# ---------------------------------------------------------------------------

_FORMATS = ("csv", "csvlite", "tsv", "tsvlite", "json", "jsonl", "dkvp",
            "nidx", "xtab", "pprint", "markdown", "yaml", "recutils",
            "dcf", "dkvpx")

_FMT_FLAGS: dict = {"--jvstack": (None, None), "--no-jvstack": (None, None),
                    "--jlistwrap": (None, None), "--no-fflush": (None, None),
                    "--records-per-batch": ("skipval", None),
                    # in-process decompression (option_parse.go:3296):
                    # _decompress_input keys off the file extension; the
                    # flag itself needs no state
                    "--gzin": (None, None), "--bz2in": (None, None),
                    "--zin": (None, None), "--zstdin": (None, None),
                    # yaml writer layout (list-of-records vs ---docs):
                    # invisible to the record-level compare
                    "--no-yarray": (None, None),
                    "--yarray": (None, None)}
for _f in _FORMATS:
    _FMT_FLAGS[f"--{_f}"] = ("iofmt", _f)
    _FMT_FLAGS[f"--i{_f}"] = ("ifmt", _f)
    _FMT_FLAGS[f"--o{_f}"] = ("ofmt", _f)
_FMT_FLAGS["--md"] = ("iofmt", "markdown")
_FMT_FLAGS["--imd"] = ("ifmt", "markdown")
_FMT_FLAGS["--omd"] = ("ofmt", "markdown")
# keystroke savers --c2p, --j2x, ... (cli/option_parse.go); "b" is
# barred-pprint output
_KEYSTROKE_LETTER = {"c": "csv", "t": "tsv", "j": "json", "d": "dkvp",
                     "n": "nidx", "x": "xtab", "p": "pprint",
                     "m": "markdown", "y": "yaml"}
for _a, _af in _KEYSTROKE_LETTER.items():
    for _b, _bf in _KEYSTROKE_LETTER.items():
        _FMT_FLAGS[f"--{_a}2{_b}"] = ("pair", (_af, _bf))
    _FMT_FLAGS[f"--{_a}2b"] = ("pairb", (_af, "pprint"))
# jsonl in the keystroke table spells "l" only in 2-letter savers
_KEYSTROKE_LETTER2 = dict(_KEYSTROKE_LETTER, l="jsonl")
for _a, _af in _KEYSTROKE_LETTER2.items():
    for _b, _bf in _KEYSTROKE_LETTER2.items():
        _FMT_FLAGS.setdefault(f"--{_a}2{_b}", ("pair", (_af, _bf)))
# single-letter io savers: -c/--c2c, -t/--t2t, -j/--j2j
# (option_parse.go:1333,1356,1448)
_FMT_FLAGS["-c"] = ("iofmt", "csv")
_FMT_FLAGS["-t"] = ("iofmt", "tsv")
_FMT_FLAGS["-j"] = ("iofmt", "json")
# --jvquoteall: JSON writer quotes every value — invisible to the
# string-normalized record compare (option_parse.go:557)
_FMT_FLAGS["--jvquoteall"] = (None, None)

# separator aliases (cli/separators.go SEPARATOR_NAMES_TO_VALUES)
_IFS_NAMES = {"comma": ",", "semicolon": ";", "pipe": "|", "space": " ",
              "tab": "\t", "colon": ":", "newline": "\n", "equals": "=",
              "slash": "/", "cr": "\r", "crcr": "\r\r", "crlf": "\r\n",
              "crlfcrlf": "\r\n\r\n", "lf": "\n", "lflf": "\n\n",
              "ascii_esc": "\x1b", "ascii_etx": "\x03", "ascii_fs": "\x1c",
              "ascii_gs": "\x1d", "ascii_null": "\x00", "ascii_rs": "\x1e",
              "ascii_soh": "\x01", "ascii_stx": "\x02", "ascii_us": "\x1f",
              "asv_fs": "\x1f", "asv_rs": "\x1e",
              "usv_fs": "␟", "usv_rs": "␞"}


def _sepval(x: str) -> str:
    """Resolve a separator CLI value: alias name, backslash escapes, or
    the literal string (cli/separators.go)."""
    if x in _IFS_NAMES:
        return _IFS_NAMES[x]
    if "\\" in x:
        try:
            return x.encode().decode("unicode_escape")
        except UnicodeDecodeError:
            return x
    return x


@dataclass
class Case:
    verb: str
    args: list[str]
    files: list[str]
    ifmt: str = "dkvp"
    ofmt: str = "dkvp"
    then_chain: bool = False
    unsupported: str | None = None
    post: list = field(default_factory=list)  # parsed chained verbs
    ifs: str | None = None
    ips: str | None = None
    irs: str | None = None
    ofs: str | None = None
    ops: str | None = None
    ors: str | None = None
    flatsep: str | None = None
    env: dict = field(default_factory=dict)
    barred: bool = False
    comments: tuple | None = None  # ("skip"|"pass", prefix)
    ragged: bool = False
    implicit_header: bool = False
    num_fmt: str | None = None  # --ofmt float format
    force_seq_dsl: bool = False  # should-fail mode: row-at-a-time DSL
    infer_mode: str | None = None  # -S strings-only / -A int-as-float
    loads: list = field(default_factory=list)  # --load/--mload libs
    no_dedupe: bool = False  # --no-dedupe-field-names
    repifs: bool = False  # --repifs: collapse repeated IFS on input
    gen: dict | None = None  # --igen / --gen-* pseudo-reader options
    in_place: bool = False  # -I: per-file in-place processing
    stdin_redirect: bool = False  # input arrived via "< file"
    fatal: str | None = None  # CLI-level fatal error (mlrrc parse etc.)
    fixed_width: str | None = None  # --fw/--fixed spec (pprint reader)
    headerless_out: bool = False  # -N / --headerless-csv-output
    barred_in: bool = False  # --barred-input (pprint reader)
    no_auto_unflatten: bool = False  # --no-auto-unflatten
    no_auto_flatten: bool = False  # --no-auto-flatten
    seed: int | None = None  # --seed: Go-faithful PRNG stream


def _load_mlrrc_tokens(toks: list[str]) -> tuple[list[str], str | None]:
    """.mlrrc processing (climain/mlrcli_mlrrc.go): returns (flag
    tokens to PREPEND before the CLI main flags, fatal-error message).
    Global (pre-section) lines always apply; [name] sections apply only
    under --profile/-P name. Lines get a "--" prefix when bare; the
    prepipe/load/profile flags are forbidden inside the file."""
    profile = None
    norc = "--norc" in toks
    for flg in ("--profile", "-P"):
        if flg in toks:
            idx = toks.index(flg)
            if idx + 1 < len(toks):
                profile = toks[idx + 1]
    if profile is not None and norc:
        return [], (f'mlr: --profile "{profile}" was specified along '
                    f'with --norc, which disables .mlrrc processing.')
    if norc:
        return [], None
    path = os.environ.get("MLRRC")
    if not path:
        return [], (f'mlr: --profile "{profile}" was specified, but no '
                    f'.mlrrc file was found' if profile else None)
    if path == "__none__":
        if profile:
            return [], (f'mlr: --profile "{profile}" was specified, but '
                        f'.mlrrc processing is disabled since the MLRRC '
                        f'environment variable is set to "__none__"')
        return [], None
    full = path if os.path.isabs(path) else os.path.join(REFERENCE, path)
    if not os.path.exists(full):
        return [], (f'mlr: --profile "{profile}" was specified, but no '
                    f'.mlrrc file was found' if profile else None)
    out: list[str] = []
    section = ""
    found_profile = False
    for lineno, raw in enumerate(open(full).read().splitlines(), 1):
        stripped = re.sub(r"#.*", "", raw).strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                return [], (f'mlr: parse error at file "{path}" line '
                            f'{lineno}: {raw}')
            name = stripped[1:-1].strip()
            if not name or any(c in name for c in "[]"):
                return [], (f'mlr: parse error at file "{path}" line '
                            f'{lineno}: {raw}')
            section = name
            if profile and name == profile:
                found_profile = True
            continue
        if section and section != profile:
            continue
        line = stripped if stripped.startswith("-") else "--" + stripped
        parts = line.split()
        if parts[0] in ("--prepipe", "--prepipex", "--load", "--mload",
                        "--profile", "-P"):
            return [], (f'mlr: parse error at file "{path}" line '
                        f'{lineno}: {raw}')
        out.extend(parts)
    if profile and not found_profile:
        return [], (f'mlr: --profile "{profile}" was specified, but no '
                    f'[{profile}] section was found in {path}')
    return out, None


def _py_repl(rep: str) -> str:
    """python-re replacement form: \\N backrefs become \\g<N>, every
    OTHER backslash is a literal character (Miller replacement strings
    never use python-re escapes)."""
    out9: list = []
    i9 = 0
    while i9 < len(rep):
        if rep[i9] == "\\" and i9 + 1 < len(rep) and \
                rep[i9 + 1].isdigit():
            out9.append("\\g<" + rep[i9 + 1] + ">")
            i9 += 2
        elif rep[i9] == "\\":
            out9.append("\\\\")
            i9 += 1
        else:
            out9.append(rep[i9])
            i9 += 1
    return "".join(out9)


def parse_cmd(cmd: str) -> Case:
    stdin_file = None
    m9 = re.match(r"^printf\s+'((?:[^'\\]|\\.)*)'\s*\|\s*(.*)$",
                  cmd.strip())
    if m9:
        # `printf 'a=lorem\n' | mlr ...` (verb-sub-gsub-ssub
        # non-windows): synthesize the stdin text with C-style
        # escape expansion and feed it as an input file
        import tempfile

        def _unesc(mm):
            c = mm.group(1)
            if c == "n":
                return "\n"
            if c == "t":
                return "\t"
            if c == "\\":
                return "\\"
            if c.startswith("x"):
                return chr(int(c[1:], 16))
            return c
        text9 = re.sub(r"\\(x[0-9a-fA-F]{2}|.)", _unesc, m9.group(1))
        fd9, stdin_file = tempfile.mkstemp(prefix="mlr_stdin_",
                                           suffix=".txt")
        with os.fdopen(fd9, "w") as fh9:
            fh9.write(text9)
        cmd = m9.group(2)
    toks = shlex.split(cmd.strip())
    if toks[0] not in ("mlr", "${MLR}"):
        return Case("", [], [], unsupported=f"non-mlr cmd {toks[0]}")
    toks = toks[1:]
    if stdin_file is not None:
        toks.append(stdin_file)
    if os.environ.get("MLRRC") or "--profile" in toks or "-P" in toks:
        rc_toks, fatal = _load_mlrrc_tokens(toks)
        if fatal:
            return Case("", [], [], fatal=fatal)
        # strip --profile/-P NAME from the CLI tokens, prepend the
        # mlrrc-derived flags (CLI flags override by coming later)
        for flg in ("--profile", "-P"):
            while flg in toks:
                idx = toks.index(flg)
                del toks[idx:idx + 2]
        toks = rc_toks + toks
    ifmt = ofmt = "dkvp"
    files: list[str] = []
    no_input = False
    fixed_width = None
    headerless_out = False
    barred = ragged = implicit_header = no_dedupe = False
    seed = None
    no_auto_unflatten = no_auto_flatten = False
    barred_in = False
    repifs = in_place = False
    gen: dict | None = None
    seps: dict[str, str | None] = {k: None for k in
                                   ("ifs", "ips", "irs", "ofs", "ops", "ors")}
    flatsep = num_fmt = None
    infer_mode = None
    loads: list[str] = []
    env: dict = {}
    comments: tuple | None = None
    i = 0
    # main flags
    while i < len(toks) and toks[i].startswith("-"):
        t = toks[i]
        if t.startswith("--") and "=" in t[2:]:
            # getopt-style --flag=value (cli-getoptish/0002 --ofs=pipe):
            # split in place and reprocess
            head2, _, val2 = t.partition("=")
            toks = toks[:i] + [head2, val2] + toks[i + 1:]
            continue
        if t == "-n":
            no_input = True
            i += 1
            continue
        if t == "--from":
            files.append(toks[i + 1]); i += 2; continue
        if t in ("--load", "--mload"):
            if t == "--load":
                loads.append(toks[i + 1])
                i += 2
            else:
                i += 1
                while i < len(toks) and toks[i] != "--":
                    loads.append(toks[i])
                    i += 1
                i += 1
            continue
        if t == "--mfrom":
            i += 1
            while i < len(toks) and toks[i] != "--":
                files.append(toks[i])
                i += 1
            if i >= len(toks):
                # unterminated list is a CLI fatal (option_parse.go)
                return Case("", [], [], fatal=(
                    'mlr: "--mfrom" must be terminated by "--".'))
            i += 1  # past the closing --
            continue
        if t in ("--ifs", "--ips", "--irs", "--ofs", "--ops", "--ors"):
            seps[t[2:]] = _sepval(toks[i + 1])
            i += 2
            continue
        if t in ("--fs", "--ps", "--rs"):
            v2 = _sepval(toks[i + 1])
            seps["i" + t[2:]] = seps["o" + t[2:]] = v2
            i += 2
            continue
        if t == "--tz":
            env["TZ"] = toks[i + 1]
            i += 2
            continue
        if t in ("--jflatsep", "--flatsep", "--oflatsep", "--iflatsep"):
            flatsep = toks[i + 1]
            i += 2
            continue
        if t == "--ofmt":
            num_fmt = toks[i + 1]
            i += 2
            continue
        if t == "--seed":
            # lib.SeedRandom (pkg/lib/rand.go:17-21): int literal, also
            # hex (option_parse.go scans with strconv semantics)
            seed = int(toks[i + 1], 0)
            i += 2
            continue
        if t in ("--ofmte", "--ofmtf", "--ofmtg"):
            # --ofmte 6 == --ofmt %.6e etc. (option_parse.go)
            num_fmt = f"%.{toks[i + 1]}{t[-1]}"
            i += 2
            continue
        if t == "--repifs":
            repifs = True
            i += 1
            continue
        if t == "--igen":
            gen = gen if gen is not None else {}
            i += 1
            continue
        if t in ("--gen-field-name", "--gen-start", "--gen-stop",
                 "--gen-step"):
            # any --gen-* flag selects the gen pseudo-reader
            # (option_parse.go sets InputFileFormat = "gen")
            gen = gen if gen is not None else {}
            gen[t[len("--gen-"):]] = toks[i + 1]
            i += 2
            continue
        if t == "-I":
            in_place = True
            i += 1
            continue
        if t == "--norc":
            i += 1  # no .mlrrc is ever read in this harness
            continue
        if t == "--errors-json":
            i += 1  # stderr error SHAPE only; stderr text not compared
            continue
        if t == "--fw":
            fixed_width = "left-align-multi-word"
            i += 1
            continue
        if t == "--fixed":
            fixed_width = toks[i + 1]
            i += 2
            continue
        if t == "-N":
            # -N = --implicit-csv-header + --headerless-csv-output
            implicit_header = True
            headerless_out = True
            i += 1
            continue
        if t == "--headerless-csv-input":
            implicit_header = True
            i += 1
            continue
        if t in ("--headerless-csv-output", "--ho"):
            headerless_out = True
            i += 1
            continue
        if t == "--no-shell":
            env["MLR_NO_SHELL"] = "1"
            i += 1
            continue
        if t in ("-M", "--no-color"):
            # monochrome output: the default in a non-TTY regtest run
            # (colorizer.go ColorizeOutputNever) — a no-op here
            i += 1
            continue
        if t in ("--prepipe", "--prepipex"):
            if env.get("MLR_NO_SHELL") or os.environ.get("MLR_NO_SHELL"):
                return Case("", [], [], fatal=(
                    "mlr: --prepipe is disabled by --no-shell / "
                    "MLR_NO_SHELL"))
            # `--prepipe '${MLR} [flags] cat'` pipes each input file
            # through mlr-cat itself — an identity re-serialization our
            # reader already normalizes (CRLF, quoting), so consume it
            # (io-compressed-input 0001-0004); arbitrary shell prepipes
            # stay unsupported (no subprocesses in the harness)
            pp = toks[i + 1] if i + 1 < len(toks) else ""
            if re.fullmatch(r"\$\{MLR\}(\s+--?[a-z-]+)*\s+cat", pp):
                i += 2
                continue
            return Case("", [], [], unsupported="main flag --prepipe")
        if t in ("--xvright", "--quote-all", "--lazy-quotes"):
            # output alignment / quoting style and reader leniency that
            # the value-normalized record compare cannot observe:
            # --xvright (xtab right-align), --quote-all (CSV writer
            # quotes every field), --lazy-quotes (Go csv.LazyQuotes —
            # our reader already treats mid-field quotes literally)
            i += 1
            continue
        if t == "--omd-aligned":
            # markdown output with padded columns (alignment itself is
            # invisible to the record compare)
            ofmt = "markdown"
            i += 1
            continue
        if t in ("--iusv", "--iasv", "--usv", "--asv"):
            # USV/ASV: CSV-shaped with Unicode/ASCII unit+record
            # separators (U+241F/U+241E, 0x1F/0x1E)
            ifmt = "usv" if "usv" in t else "asv"
            if t in ("--usv", "--asv"):
                ofmt = "csv"  # writer side is separator-normalized
            i += 1
            continue
        if t == "--skip-comments":
            comments = ("skip", "#")
            i += 1
            continue
        if t == "--skip-comments-with":
            comments = ("skip", toks[i + 1])
            i += 2
            continue
        if t == "--pass-comments":
            comments = ("pass", "#")
            i += 1
            continue
        if t == "--pass-comments-with":
            comments = ("pass", toks[i + 1])
            i += 2
            continue
        if t == "--allow-ragged-csv-input":
            ragged = True
            i += 1
            continue
        if t in ("--implicit-csv-header", "--hi", "--headerless-csv-input",
                 "--implicit-pprint-header", "--implicit-tsv-header"):
            implicit_header = True
            i += 1
            continue
        if t == "--barred":
            barred = True
            i += 1
            continue
        if t == "--ifs-regex" and i + 1 < len(toks):
            _alias = {"spaces": " +", "tabs": "\\t+",
                      "whitespace": "[ \\t]+"}
            seps["ifs"] = "\x00re:" + _alias.get(toks[i + 1],
                                                  toks[i + 1])
            i += 2
            continue
        if t == "--jquoteall":
            # JSON writer quotes keys AND values: invisible to the
            # string-normalized record compare
            i += 1
            continue
        if t == "--barred-input":
            barred_in = True
            i += 1
            continue
        if t == "--right":
            # right-aligned pprint output: alignment only, invisible
            # to the whitespace-split record compare
            i += 1
            continue
        if t in ("-i", "-o") and i + 1 < len(toks) and \
                toks[i + 1] in _FORMATS:
            if t == "-i":
                ifmt = toks[i + 1]
            else:
                ofmt = toks[i + 1]
            i += 2
            continue
        if t == "--ragged":
            ragged = True
            i += 1
            continue
        if t in ("-S", "--infer-none"):
            infer_mode = "none"
            i += 1
            continue
        if t in ("-A", "--infer-int-as-float"):
            infer_mode = "int_as_float"
            i += 1
            continue
        if t in ("--infer-octal", "-O"):
            infer_mode = "octal"
            i += 1
            continue
        if t == "--right-align-numeric":
            # presentation-only: value-invisible to the parsed-record
            # comparison
            i += 1
            continue
        if t == "--no-dedupe-field-names":
            no_dedupe = True
            i += 1
            continue
        if t in ("--no-auto-unflatten", "--no-auto-flatten"):
            if t == "--no-auto-unflatten":
                no_auto_unflatten = True
            else:
                no_auto_flatten = True
            i += 1
            continue
        if t == "--nr-progress-mod":
            i += 2  # progress ticker on stderr: no stdout effect
            continue
        if t in _FMT_FLAGS:
            kind, val = _FMT_FLAGS[t]
            if kind == "ofmt":
                ofmt = val
            elif kind == "ifmt":
                ifmt = val
            elif kind == "iofmt":
                ifmt = ofmt = val
            elif kind == "pair":
                ifmt, ofmt = val
            elif kind == "pairb":
                ifmt, ofmt = val
                barred = True
            elif kind == "skipval":
                i += 1
            i += 1
            continue
        return Case("", [], [], unsupported=f"main flag {t}")
    # "mlr <flags> < file" / "mlr <flags> file": no verb defaults to
    # cat (cli/option_parse.go: "If no verb is given, 'cat' is used")
    stdin_redirect = False
    if i < len(toks) and toks[i] == "<":
        files.append(toks[i + 1])
        stdin_redirect = True
        i += 2
    if i >= len(toks):
        if not files and gen is None and not no_input:
            return Case("", [], [], unsupported="no verb")
        verb = "cat"
    elif toks[i] == "then":
        # `mlr then cat ...`: an empty leading chain slot defaults to
        # cat (chaining/0013) — keep the 'then' for the segment split
        verb = "cat"
    else:
        verb = toks[i]
        i += 1
    rest = toks[i:]
    if no_input:
        rest = list(rest) + ["__NO_INPUT__"]
    # split off trailing file args (no flags after them in these suites)
    dsl_ofmt = None
    args = []
    j = 0
    cur_verb = verb
    while j < len(rest):
        t = rest[j]
        if t == "then":
            args.append("__THEN__")
            j += 1
            if j < len(rest):
                cur_verb = rest[j]
            continue
        if t == "-f" and cur_verb in ("put", "filter") and j + 1 < len(rest):
            # put/filter -f <script-file>: the script is an ARG, not a
            # data file
            args.extend(["-f", rest[j + 1]])
            j += 2
            continue
        if t == "-e" and cur_verb in ("put", "filter") and j + 1 < len(rest):
            # -e consumes the NEXT token verbatim, even one that looks
            # like a flag (VerbGetStringArg; dsl-multipart-scripts/0004
            # `put -e -f file` = program "-f" + file as INPUT)
            args.extend(["-e", rest[j + 1]])
            j += 2
            continue
        m_att = re.fullmatch(r"-n(\d+)", t)
        if m_att:
            args.extend(["-n", m_att.group(1)])
            j += 1
            continue
        if t == "-o" and cur_verb in ("put", "filter") and \
                j + 1 < len(rest) and rest[j + 1] in _FORMATS:
            # put/filter re-parse unknown flags as WRITER options with
            # their own options copy (put_or_filter.go:328-343 "mlr
            # main and mlr put have different output formats"): -o FMT
            # sets the DSL redirect/emit writer format only
            dsl_ofmt = rest[j + 1]
            j += 2
            continue
        if t in _FMT_FLAGS and cur_verb in ("put", "filter") and \
                _FMT_FLAGS[t][0] in ("ofmt", "iofmt"):
            dsl_ofmt = _FMT_FLAGS[t][1]
            if _FMT_FLAGS[t][0] == "iofmt":
                dsl_ofmt = _FMT_FLAGS[t][1]
            j += 1
            continue
        if t == "--no-fflush" and cur_verb in ("put", "filter"):
            j += 1
            continue
        if t.startswith("-") and not re.fullmatch(r"-\d+(\.\d+)?", t):
            args.append(t)
            # flags taking a value
            if t in ("-f", "-g", "-n", "-o", "-a", "-v", "-x", "-r", "-nf",
                     "-nr", "-tf", "-tr", "-c", "--lo", "--hi", "--nbins",
                     "-d", "-N", "-b", "-e", "-k", "-m", "-s", "-i", "-w",
                     "-p", "-u"):
                # some of these are boolean for some verbs; handled per-verb
                pass
            j += 1
        else:
            # value for previous flag OR a file path
            if t.startswith("file://"):
                t = t[len("file://"):]
            if t == "<":
                stdin_redirect = True
                j += 1
                continue  # stdin redirect: next token is the file
            if cur_verb == "tee" and "__TEE_TGT__" not in args and \
                    (not args or args[-1] != "-o"):
                # verb tee's positional is its OUTPUT file, never an
                # input — even when a same-named golden file exists in
                # the case dir (dsl-redirects/0001-0002)
                args.extend(["__TEE_TGT__", t])
                j += 1
                continue
            if t and (t.startswith("test/input")
                      or os.path.isfile(os.path.join(REFERENCE, t))
                      or os.path.isfile(_redirect_write_path(
                          os.path.join(REFERENCE, t)))
                      or ("/" in t and any(ch in t for ch in "*?[")
                          and any(os.path.isfile(h) for h in __import__(
                              "glob").glob(os.path.join(REFERENCE, t))))
                      # an absolute path that is NOT a /regex/ form is
                      # an input file even when missing — the reader
                      # fails on it (non-windows/file-not-found)
                      or (t.startswith("/")
                          and not t.endswith(("/", "/i"))
                          and "," not in t and "/" in t[1:]
                          and not re.search(r"[\^$*?\[(|]", t))):
                files.append(t)
            else:
                args.append(t)
            j += 1
    if verb == "script":
        # mlr script parses format flags AFTER the verb
        # (transformers/script.go own CLI loop)
        kept = []
        for tok in args:
            fl = _FMT_FLAGS.get(tok)
            if fl and fl[0] in ("iofmt", "ifmt", "ofmt", "pair", "pairb"):
                kind2, val2 = fl
                if kind2 == "iofmt":
                    ifmt = ofmt = val2
                elif kind2 == "ifmt":
                    ifmt = val2
                elif kind2 == "ofmt":
                    ofmt = val2
                else:
                    ifmt, ofmt = val2
            else:
                kept.append(tok)
        args = kept
    if dsl_ofmt is not None:
        if "-q" in args:
            # quiet put: the DSL writer's output IS the whole stdout
            ofmt = dsl_ofmt
        else:
            args.extend(["__DSL_OFMT_MIXED__", dsl_ofmt])
    if ifmt == "jsonl":
        ifmt = "json"

    if ofmt in ("jsonl", "ojsonl"):
        ofmt = "json"

    if ofmt in ("csv", "tsv") and seps.get("ors") not in (
            None, "\n", "\r\n"):
        # record_writer_csv.go:35 / record_writer_tsv.go:27 — writer
        # construction fails before any input is read
        return Case("", [], [], fatal=(
            f"mlr: for {ofmt.upper()}, ORS must be newline or "
            "carriage-return/newline"))
    return Case(verb, args, files, ifmt, ofmt, ifs=seps["ifs"],
                ips=seps["ips"], irs=seps["irs"], ofs=seps["ofs"],
                ops=seps["ops"], ors=seps["ors"], flatsep=flatsep,
                env=env, barred=barred, comments=comments, ragged=ragged,
                implicit_header=implicit_header, num_fmt=num_fmt,
                infer_mode=infer_mode, loads=loads, no_dedupe=no_dedupe,
                repifs=repifs, gen=gen, in_place=in_place,
                stdin_redirect=stdin_redirect, fixed_width=fixed_width,
                headerless_out=headerless_out,
                barred_in=barred_in,
                no_auto_unflatten=no_auto_unflatten,
                no_auto_flatten=no_auto_flatten, seed=seed)


# ---------------------------------------------------------------------------
# execution through miller_ray.verbs
# ---------------------------------------------------------------------------


def _maybe_decompress(p: str, args: list[str]) -> str:
    """gzip/bzip2/flate inputs (reference lib/readerwriter.go: .gz,
    .bz2, .z extensions and --gzin/--bz2in/--zin flags): decompress to
    a temp file and return its path."""
    import bz2 as _bz2
    import gzip as _gzip
    import tempfile
    import zlib as _zlib

    raw = None
    if p.endswith(".zst") or "--zstdin" in args:
        try:
            import zstandard as _zstd

            raw = _zstd.ZstdDecompressor().decompress(
                open(p, "rb").read())
        except ImportError:
            # no python binding in this container — fall back to the
            # zstd CLI (the engine-proper never reads zstd; this is
            # the conformance reader only)
            import shutil as _sh
            import subprocess as _sp

            if not _sh.which("zstd"):
                raise Unsupported("zstd input (no zstandard module)")
            r9 = _sp.run(["zstd", "-dc", p], capture_output=True)
            if r9.returncode != 0:
                raise Unsupported("zstd input (decompress failed)")
            raw = r9.stdout
    elif p.endswith(".gz") or "--gzin" in args:
        with _gzip.open(p, "rb") as fh:
            raw = fh.read()
    elif p.endswith(".bz2") or "--bz2in" in args:
        with _bz2.open(p, "rb") as fh:
            raw = fh.read()
    elif p.endswith(".z") or "--zin" in args:
        data = open(p, "rb").read()
        try:
            raw = _zlib.decompress(data)
        except _zlib.error:
            raw = _zlib.decompress(data, -15)  # raw deflate
    if raw is None:
        return p
    tf = tempfile.NamedTemporaryFile("wb", delete=False, suffix=".txt")
    tf.write(raw)
    tf.close()
    return tf.name


def load_df(case: Case) -> pd.DataFrame:
    global NO_DEDUPE
    if "__NO_INPUT__" in case.args:
        d = pd.DataFrame()
        d["__row__"] = []
        return d
    NO_DEDUPE = case.no_dedupe
    _INFER_MODE[0] = case.infer_mode
    try:
        return _load_df_body(case)
    finally:
        NO_DEDUPE = False
        _INFER_MODE[0] = None


def _load_df_body(case: Case) -> pd.DataFrame:
    frames = []
    korder: dict[int, list[str]] = {}
    comments_out: list[str] = []
    if case.gen is not None:
        # gen pseudo-reader (pseudo_reader_gen.go): sequential numeric
        # records; stop is INCLUSIVE, negative steps count down
        g = case.gen
        name = g.get("field-name", "i")
        start = _infer(g.get("start", "1"))
        stop = _infer(g.get("stop", "100"))
        step = _infer(g.get("step", "1"))
        v = start
        while (v <= stop) if step >= 0 else (v >= stop):
            frames.append({name: v})
            v = v + step
            if step == 0:
                break  # reference loops forever; one record is enough
        df = pd.DataFrame(frames)
        df["__row__"] = np.arange(len(df))
        df.attrs["korder"] = {1: [name]} if frames else {}
        df.attrs["raw_records"] = [dict(r) for r in frames]
        return df
    files = []
    for f in case.files:
        if any(ch in f for ch in "*?["):
            import glob as _glob

            hits = sorted(_glob.glob(os.path.join(REFERENCE, f)))
            files.extend(os.path.relpath(h, REFERENCE) for h in hits)
        else:
            files.append(f)
    left_fmt = None
    if case.verb == "join" and _has(case.args, "-i"):
        # join -i FMT: the -f left file has its own input format
        # (join.go per-verb input options)
        left_fmt = _flagvals(case.args, "-i")
    for fnum, f in enumerate(files, 1):
        p = os.path.join(REFERENCE, f)
        if not os.path.exists(p):
            # precopy targets live in the scratch write root (the
            # reference tree is read-only); -I reads them back
            mapped = _redirect_write_path(p)
            if os.path.exists(mapped):
                p = mapped
        p = _maybe_decompress(p, case.args)
        fmt = left_fmt if (left_fmt and fnum == 1) else case.ifmt
        # join's -f side is read by the verb's own reader; its comments
        # are consumed, not passed to stdout (verb-join/0221)
        side_input = case.verb == "join" and fnum == 1
        p = _preprocess_input(p, case,
                              [] if side_input else comments_out)
        if case.fixed_width and fmt == "pprint":
            recs = read_fixed_width(p, case.fixed_width,
                                    implicit_header=case.implicit_header,
                                    ragged=case.ragged)
        elif fmt == "csv":
            recs = read_csv(p, sep=case.ifs or ",", ragged=case.ragged,
                            implicit_header=case.implicit_header,
                            skip_trivial=(
                                case.verb == "skip-trivial-records"
                                or "skip-trivial-records" in case.args))
        elif fmt == "csvlite":
            recs = read_csvlite(p, sep=case.ifs or ",", ragged=case.ragged,
                                implicit_header=case.implicit_header)
        elif fmt == "tsv":
            recs = read_tsv(p, implicit_header=case.implicit_header,
                            ragged=case.ragged)
        elif fmt == "tsvlite":
            recs = read_tsv(p, implicit_header=case.implicit_header,
                            unescape=False)
        elif fmt == "nidx":
            recs = read_nidx(p, sep=case.ifs)
        elif fmt == "json":
            recs = read_json_in(p)
        elif fmt == "pprint":
            recs = read_pprint(p, ifs=case.ifs,
                               implicit_header=case.implicit_header,
                               barred_in=case.barred_in)
        elif fmt == "xtab":
            recs = [{k: _infer(v) for k, v in r.items()}
                    for r in parse_xtab(open(p, encoding="utf-8", errors="surrogateescape").read(), ips=case.ips)]
        elif fmt == "markdown":
            recs = [{k: _infer(v) for k, v in r.items()}
                    for r in parse_markdown_out(
                        open(p, encoding="utf-8", errors="surrogateescape").read(),
                        implicit_header=case.implicit_header)]
        elif fmt in ("usv", "asv"):
            # USV/ASV (record_reader_csvlike): CSV-shaped, header-first,
            # unit/record separators U+241F,U+241E (usv) or 0x1F,0x1E
            # (asv); no quoting
            fs2, rs2 = ("␟", "␞") if fmt == "usv" \
                else ("\x1f", "\x1e")
            text2 = open(p, encoding="utf-8",
                         errors="surrogateescape").read()
            rows2 = [r2 for r2 in text2.rstrip("\n").split(rs2)
                     if r2 != ""]
            recs = []
            if rows2:
                hdr2 = _dedupe_header(rows2[0].split(fs2))
                recs = [{k: _infer(v2) for k, v2 in
                         zip(hdr2, r2.split(fs2))}
                        for r2 in rows2[1:]]
        elif fmt == "yaml":
            recs = read_yaml_in(p)
        elif fmt == "recutils":
            recs = read_recutils(p)
        elif fmt == "dcf":
            recs = read_dcf(p)
        elif fmt == "dkvpx":
            recs = read_dkvpx(p, ifs=case.ifs or ",", ips=case.ips or "=")
        else:
            recs = read_dkvp(p, sep=case.ifs or ",", ips=case.ips or "=")
        korder[fnum] = list(recs[0].keys()) if recs else []
        for r in recs:
            r["__file__"] = f
            r["__filenum__"] = fnum
        frames.extend(recs)
    df = pd.DataFrame(frames)
    df["__row__"] = np.arange(len(df))
    df.attrs["korder"] = korder  # per-FILE field order (files are
    # rectangular per header; the union frame loses record key order)
    # per-ROW records with original key order and scalar types (the
    # union frame appends new columns last and promotes int->float on
    # NaN fill); the sequential DSL path needs the true record shape
    df.attrs["raw_records"] = [
        {k: v for k, v in r.items() if not str(k).startswith("__")}
        for r in frames]
    if comments_out:
        # --pass-comments: comment lines stream straight to stdout at
        # read time (record_reader pass-comments)
        df.attrs["passed_comments"] = comments_out
    return df


def _preprocess_input(p: str, case: Case, comments_out: list[str]) -> str:
    """Apply reader-level main flags that rewrite the raw byte stream:
    --irs (custom record separator) and --skip/--pass-comments.
    Returns a temp-file path when a rewrite happened."""
    with open(p, encoding="utf-8", errors="surrogateescape") as f:
        text = f.read()
    if case.irs in (None, "\n") and not case.comments \
            and not case.repifs and "\r\n" not in text:
        return p
    # CRLF/LF autodetect (record_reader autodetects line endings)
    text = text.replace("\r\n", "\n")
    if case.irs and case.irs != "\n":
        text = "\n".join(x for x in text.split(case.irs))
    if case.repifs and case.ifs:
        # --repifs: runs of IFS collapse to one separator, and
        # leading/trailing IFS runs are stripped (record readers'
        # AllowRepeatIFS)
        esc = re.escape(case.ifs)
        text = "\n".join(
            re.sub(f"(?:{esc})+", case.ifs.replace("\\", "\\\\"),
                   re.sub(f"^(?:{esc})+|(?:{esc})+$", "", ln))
            for ln in text.split("\n"))
    if case.comments:
        mode, prefix = case.comments
        lines = []
        for ln in text.split("\n"):
            if ln.startswith(prefix):
                if mode == "pass":
                    comments_out.append(ln)
            else:
                lines.append(ln)
        text = "\n".join(lines)
    tf = tempfile.NamedTemporaryFile("w", delete=False, suffix=".txt",
                                     encoding="utf-8",
                                     errors="surrogateescape")
    tf.write(text)
    tf.close()
    return tf.name


def read_yaml_in(path: str) -> list[dict]:
    """YAML record reader (record_reader_yaml.go): a stream of mappings
    separated by ``---`` or a top-level ``- k: v`` list; nested
    maps/arrays come through as Python collections; yaml nulls are
    ABSENT-valued fields."""
    import yaml as _yaml

    recs: list[dict] = []
    with open(path) as fh:
        for doc in _yaml.safe_load_all(fh.read()):
            if doc is None:
                continue
            if isinstance(doc, list):
                recs.extend(d for d in doc if isinstance(d, dict))
            elif isinstance(doc, dict):
                recs.append(doc)
            else:
                raise Unsupported("yaml input shape")
    def _norm_v(v):
        if isinstance(v, dict):
            return {str(k): _norm_v(x) for k, x in v.items()}
        if isinstance(v, list):
            return [_norm_v(x) for x in v]
        if isinstance(v, bool):
            return "true" if v else "false"
        return v
    return [{str(k): _norm_v(v) for k, v in r.items()} for r in recs]


def _ds(df: pd.DataFrame):
    import ray.data as rd

    return rd.from_pandas(df.reset_index(drop=True))


def _flagvals(args: list[str], flag: str, default=None):
    if flag in args:
        idx = args.index(flag)
        if idx + 1 < len(args):
            return args[idx + 1]
    return default


def _has(args, flag):
    return flag in args


_SUPPORTED_ACCS = {"mean", "sum", "count", "min", "max", "var", "stddev",
                   "meaneb", "median", "mode", "antimode", "mad",
                   "distinct_count", "null_count", "skewness", "kurtosis",
                   "minlen", "maxlen"}


def _void_to_nan(df, fields):
    """Miller stats accumulators skip VOID (empty-string) values
    (bifs/stats.go ingests only non-void); blank entries in numeric
    columns become NaN so Arrow gets a clean numeric column. Cleans
    every otherwise-numeric object column: mixed int/"" columns break
    the Arrow conversion even when unreferenced."""
    import pandas as _pd

    df = df.copy()
    fields = [f for f in df.columns if not str(f).startswith("__")]
    for f in fields:
        if f in df.columns and df[f].dtype == object:
            col = df[f].replace("", np.nan)
            num = _pd.to_numeric(col, errors="coerce")
            if num.notna().sum() == col.notna().sum():
                col = num
            df[f] = col
    return df



def _logistic_regression(xs, ys, m0=-0.001, b0=0.002, tol=1e-9,
                         maxits=100):
    """Newton-Raphson logistic fit, a port of the reference's exact
    iteration (pkg/lib/mlrmath.go:324-420 LogisticRegression): same
    m0/b0 seeds, same Hessian step, same relative-ell convergence test
    — byte-identical coefficients at the golden tolerance."""
    import math as _m

    m, b = m0, b0
    for _ in range(maxits):
        dldm = dldb = d2ldm2 = d2ldmdb = d2ldb2 = ell0 = 0.0
        for xi, yi in zip(xs, ys):
            pi = 1.0 / (1.0 + _m.exp(-m0 * xi - b0))
            qi = 1.0 / (1.0 + _m.exp(m0 * xi + b0))
            dldm += xi * (yi - pi)
            dldb += yi - pi
            piqi = pi * qi
            d2ldm2 -= xi * xi * piqi
            d2ldmdb -= xi * piqi
            d2ldb2 -= piqi
            ell0 += _m.log(qi) + yi * (m0 * xi + b0)
        D = d2ldm2 * d2ldb2 - d2ldmdb * d2ldmdb
        m = m0 - (d2ldb2 * dldm - d2ldmdb * dldb) / D
        b = b0 - (-d2ldmdb * dldm + d2ldm2 * dldb) / D
        ell = 0.0
        for xi, yi in zip(xs, ys):
            qi = 1.0 / (1.0 + _m.exp(m * xi + b))
            ell += _m.log(qi) + yi * (m0 * xi + b0)
        dell = max(ell, ell0)
        err = abs(ell - ell0) / dell if dell != 0.0 else 0.0
        m0, b0 = m, b
        if err < tol:
            break
    return m, b


def _stats2_sequential(df, a):
    """stats2 -s (running per-record emission), --fit (second-pass
    fitted values from the group-final coefficients) and logireg
    (stats2.go Populate/Fit; utils/stats2_accumulators.go:246-296)."""
    from miller_ray.engine import exact as EX

    accs = _flagvals(a, "-a").split(",")
    for acc in accs:
        if acc not in ("linreg-ols", "linreg-pca", "r2", "corr", "cov",
                       "logireg"):
            raise Unsupported(f"stats2 acc {acc}")
    flds = _flagvals(a, "-f").split(",")
    pairs = list(zip(flds[::2], flds[1::2]))
    g7 = _flagvals(a, "-g")
    gbf7 = g7.split(",") if g7 else []
    do_s = _has(a, "-s")
    do_fit = "--fit" in a
    rows7 = _df_records(df.sort_values("__row__").drop(
        columns=["__row__", "__file__", "__filenum__"], errors="ignore"))

    def num7(r7, f7):
        v7 = r7.get(f7)
        if v7 is None or (isinstance(v7, float) and math.isnan(v7)):
            return None
        try:
            return float(v7)
        except (TypeError, ValueError):
            return None

    def key7(r7):
        if not gbf7:
            return ()
        ks7 = [r7.get(k7) for k7 in gbf7]
        if any(k7 is None or (isinstance(k7, float) and math.isnan(k7))
               for k7 in ks7):
            return None
        return tuple(str(k7) for k7 in ks7)

    def fmt7(x7):
        if isinstance(x7, float):
            if math.isnan(x7):
                return ""
            return (REGTEST_OFMT[0] % x7) if REGTEST_OFMT[0] else repr(x7)
        return x7

    def _sc(x7):
        v7 = float(np.asarray(x7).reshape(()))
        return v7

    def emit_acc(oc7, fx, fy, acc, st7):
        n7 = st7["n"]
        sx, sy = st7["sx"], st7["sy"]
        sxy, sx2, sy2 = st7["sxy"], st7["sx2"], st7["sy2"]
        p7 = f"{fx}_{fy}"
        if acc == "linreg-ols":
            if n7 >= 2:
                m7, b7 = EX.finalize_linreg_ols(n7, sx, sx2, sxy, sy)
                oc7[f"{p7}_ols_m"] = fmt7(_sc(m7))
                oc7[f"{p7}_ols_b"] = fmt7(_sc(b7))
            else:
                oc7[f"{p7}_ols_m"] = ""
                oc7[f"{p7}_ols_b"] = ""
            oc7[f"{p7}_ols_n"] = n7
        elif acc == "linreg-pca":
            if n7 >= 2:
                m7, b7, q7 = EX.finalize_linreg_pca(n7, sx, sx2, sy,
                                                    sy2, sxy)
                oc7[f"{p7}_pca_m"] = fmt7(_sc(m7))
                oc7[f"{p7}_pca_b"] = fmt7(_sc(b7))
                oc7[f"{p7}_pca_n"] = n7
                oc7[f"{p7}_pca_quality"] = fmt7(_sc(q7))
            else:
                for s7 in ("m", "b", "n", "quality"):
                    oc7[f"{p7}_pca_{s7}"] = ""
        elif acc == "r2":
            oc7[f"{p7}_r2"] = fmt7(_sc(EX.finalize_r2(
                n7, sx, sx2, sy, sy2, sxy))) if n7 >= 2 else ""
        elif acc == "corr":
            oc7[f"{p7}_corr"] = fmt7(_sc(EX.finalize_corr(
                n7, sx, sx2, sy, sy2, sxy))) if n7 >= 2 else ""
        elif acc == "cov":
            oc7[f"{p7}_cov"] = fmt7(_sc(EX.finalize_cov(
                n7, sx, sy, sxy))) if n7 >= 2 else ""
        else:  # logireg
            if n7 >= 2:
                m7, b7 = _logistic_regression(st7["xs"], st7["ys"])
                oc7[f"{p7}_logistic_m"] = fmt7(m7)
                oc7[f"{p7}_logistic_b"] = fmt7(b7)
            else:
                oc7[f"{p7}_logistic_m"] = ""
                oc7[f"{p7}_logistic_b"] = ""
            oc7[f"{p7}_logistic_n"] = n7

    st: dict = {}
    korder: list = []

    def getst(k7, pr7):
        if (k7, pr7) not in st:
            st[(k7, pr7)] = {"n": 0, "sx": 0.0, "sy": 0.0, "sxy": 0.0,
                             "sx2": 0.0, "sy2": 0.0, "xs": [], "ys": []}
            if k7 not in korder:
                korder.append(k7)
        return st[(k7, pr7)]

    out_rows7 = []
    for r7 in rows7:
        k7 = key7(r7)
        nr7 = dict(r7)
        if k7 is not None:
            for fx, fy in pairs:
                x7, y7 = num7(r7, fx), num7(r7, fy)
                if x7 is None or y7 is None:
                    continue
                st7 = getst(k7, (fx, fy))
                st7["n"] += 1
                st7["sx"] += x7
                st7["sy"] += y7
                st7["sxy"] += x7 * y7
                st7["sx2"] += x7 * x7
                st7["sy2"] += y7 * y7
                st7["xs"].append(x7)
                st7["ys"].append(y7)
                if do_s:
                    for acc in accs:
                        emit_acc(nr7, fx, fy, acc, st7)
        out_rows7.append(nr7)

    if do_fit:
        import math as _m

        coefs: dict = {}
        for (k7, pr7), st7 in st.items():
            c7 = {}
            if st7["n"] >= 2:
                for acc in accs:
                    if acc == "linreg-ols":
                        m7, b7 = EX.finalize_linreg_ols(
                            st7["n"], st7["sx"], st7["sx2"],
                            st7["sxy"], st7["sy"])
                        c7["ols"] = (_sc(m7), _sc(b7))
                    elif acc == "linreg-pca":
                        m7, b7, _q = EX.finalize_linreg_pca(
                            st7["n"], st7["sx"], st7["sx2"],
                            st7["sy"], st7["sy2"], st7["sxy"])
                        c7["pca"] = (_sc(m7), _sc(b7))
                    elif acc == "logireg":
                        c7["logistic"] = _logistic_regression(
                            st7["xs"], st7["ys"])
            coefs[(k7, pr7)] = c7
        # grouped --fit: records are HELD per group and emitted at EOS
        # grouped, groups in first-seen order (stats2.go fit emission)
        if gbf7:
            bykey: dict = {}
            tail7: list = []
            ord7: list = []
            for r7 in out_rows7:
                k7 = key7(r7)
                if k7 is None:
                    tail7.append(r7)
                    continue
                if k7 not in bykey:
                    bykey[k7] = []
                    ord7.append(k7)
                bykey[k7].append(r7)
            out_rows7 = [r7 for k7 in ord7 for r7 in bykey[k7]] + tail7
        fit_rows = []
        for r7 in out_rows7:
            k7 = key7(r7)
            nr7 = dict(r7)
            if k7 is not None:
                for fx, fy in pairs:
                    x7, y7 = num7(r7, fx), num7(r7, fy)
                    if x7 is None or y7 is None:
                        continue
                    c7 = coefs.get((k7, (fx, fy)), {})
                    for acc in accs:
                        tag = {"linreg-ols": "ols", "linreg-pca": "pca",
                               "logireg": "logistic"}.get(acc)
                        if tag is None:
                            continue
                        col7 = f"{fx}_{fy}_{tag}_fit"
                        if tag in c7:
                            m7, b7 = c7[tag]
                            yf = 1.0 / (1.0 + _m.exp(-m7 * x7 - b7)) \
                                if tag == "logistic" else m7 * x7 + b7
                            nr7[col7] = fmt7(yf)
                        else:
                            nr7[col7] = ""
            fit_rows.append(nr7)
        return pd.DataFrame(fit_rows), True
    if do_s:
        return pd.DataFrame(out_rows7), True
    # final-emission mode (non-s, non-fit) with logireg support:
    # one output record per group, group keys then per-pair fields
    finals = []
    for k7 in korder:
        oc7: dict = {}
        for g8, kv8 in zip(gbf7, k7):
            oc7[g8] = kv8
        for fx, fy in pairs:
            st7 = st.get((k7, (fx, fy)))
            if st7 is None:
                continue
            for acc in accs:
                emit_acc(oc7, fx, fy, acc, st7)
        finals.append(oc7)
    return pd.DataFrame(finals), True


def execute(case: Case, df: pd.DataFrame):
    """Run the verb via miller_ray.verbs; returns (DataFrame, ordered)."""
    from miller_ray import verbs

    v, a = case.verb, case.args

    if v == "count":
        g = _flagvals(a, "-g")
        name = _flagvals(a, "-o", "count")
        if _has(a, "-d"):
            raise Unsupported("count -d")
        gb = g.split(",") if g else None
        if gb:
            sub = df.dropna(subset=gb)
            out = verbs.count(_ds(sub), gb, output_name=name)
        else:
            out = verbs.count(_ds(df), None, output_name=name)
        if _has(a, "-n"):
            return pd.DataFrame({name: [len(out)]}) if gb else out, False
        return out, False

    if v == "count-distinct":
        fields = _flagvals(a, "-f").split(",")
        if _has(a, "-u"):
            # -u unlashed: per-field value counts in first-seen order
            # (uniq.go:65-160); ENGINE path: verbs.count_distinct_unlashed
            name_u = _flagvals(a, "-o", "count")
            work = df.sort_values("__row__")
            rows_u = []
            for f in fields:
                vals = work[f].dropna()
                for val, cnt in vals.groupby(vals, sort=False).size().items():
                    rows_u.append({"field": f, "value": val,
                                   name_u: int(cnt)})
            return pd.DataFrame(rows_u), True
        # -o is ignored under -n (output stays "count")
        name = "count" if _has(a, "-n") else _flagvals(a, "-o", "count")
        sub = df.dropna(subset=fields)
        out = verbs.count_distinct(_ds(sub), fields, n=_has(a, "-n"),
                                   output_name=name)
        return out, False

    if v in ("sample", "shuffle", "bootstrap", "bootstrap-ci"):
        # Seeded-PRNG verbs, record-faithful to the reference: Miller
        # seeds Go's math/rand (pkg/lib/rand.go SeedRandom) and the
        # algorithms below consume the stream in exactly the reference
        # order, so with gorand.GoRand the golden outputs reproduce
        # bit-for-bit (sample.go reservoir, shuffle.go Knuth image map,
        # bootstrap.go with-replacement, bootstrap_ci.go resampled CIs).
        from miller_ray.functions import FatalError
        from miller_ray.gorand import GoRand

        if v == "bootstrap-ci":
            # CLI-parse-time validations (bootstrap_ci.go:132-140)
            conf = float(_flagvals(a, "-c", "0.95"))
            nres = int(_flagvals(a, "-n", "1000"))
            fields_s = _flagvals(a, "-f")
            if not fields_s:
                raise FatalError("mlr bootstrap-ci: -f option is required")
            if nres <= 0:
                raise FatalError("mlr bootstrap-ci: -n argument must be "
                                 f"positive; got {nres}")
            if conf <= 0.0 or conf >= 1.0:
                raise FatalError("mlr bootstrap-ci: -c argument must be "
                                 f"strictly between 0 and 1; got {conf:g}")
        if case.seed is None:
            raise Unsupported(f"{v} without --seed is nondeterministic")
        gor = GoRand(case.seed)
        raw = df.attrs.get("raw_records")
        if raw is None:
            cols0 = [c for c in df.columns if not str(c).startswith("__")]
            raw = []
            for r0 in df.sort_values("__row__").to_dict("records"):
                raw.append({k0: v0 for k0, v0 in r0.items()
                            if k0 in cols0 and v0 is not None
                            and not (isinstance(v0, float)
                                     and math.isnan(v0))})

        if v == "sample":
            k = int(_flagvals(a, "-k", "-1"))
            if k <= 0:
                raise Unsupported("sample without positive -k")
            g = _flagvals(a, "-g")
            gb = g.split(",") if g else []
            buckets: dict[tuple, list] = {}
            order0: list[tuple] = []
            for nr, rec in enumerate(raw, 1):  # NR is GLOBAL (sample.go:158)
                if any(f not in rec for f in gb):
                    continue
                key0 = tuple(str(rec[f]) for f in gb)
                b = buckets.get(key0)
                if b is None:
                    b = buckets[key0] = []
                    order0.append(key0)
                if len(b) < k:
                    b.append(rec)
                else:
                    r_ = gor.int63() % nr
                    if r_ < k:
                        b[r_] = rec
            return pd.DataFrame([rec for key0 in order0
                                 for rec in buckets[key0]]), True

        if v == "shuffle":
            n0 = len(raw)
            images = list(range(n0))
            for i0 in range(n0):
                u0 = gor.randrange(i0, n0)
                images[u0], images[i0] = images[i0], images[u0]
            return pd.DataFrame([raw[images[i0]]
                                 for i0 in range(n0)]), True

        if v == "bootstrap":
            nin = len(raw)
            nout = int(_flagvals(a, "-n", "-1"))
            if nout == -1:
                nout = nin
            if nout == 0 or nin == 0:
                return pd.DataFrame(), True
            return pd.DataFrame([raw[gor.randrange(0, nin)]
                                 for _ in range(nout)]), True

        # bootstrap-ci
        from miller_ray.engine import exact as EX

        accs = (_flagvals(a, "-a") or "mean").split(",")
        fields = fields_s.split(",")
        g = _flagvals(a, "-g")
        gb = g.split(",") if g else []
        interp = _has(a, "-i")

        def _stat(acc: str, vals: list) -> float:
            if acc == "mean":
                return float(sum(vals)) / len(vals)
            if acc == "sum":
                return float(sum(vals))
            if acc == "count":
                return len(vals)
            if acc == "median":
                acc = "p50"
            if re.fullmatch(r"p\d+(\.\d+)?", acc):
                srt0 = EX.miller_sorted(vals)
                pf0 = (EX.percentile_interpolated if interp
                       else EX.percentile_type1)
                return pf0(srt0, float(acc[1:]))
            if acc == "min":
                return min(vals)
            if acc == "max":
                return max(vals)
            if acc in ("var", "stddev", "meaneb"):
                n1 = len(vals)
                sx = float(sum(vals))
                sx2 = float(sum(x1 * x1 for x1 in vals))
                fin = {"var": EX.finalize_var, "stddev": EX.finalize_stddev,
                       "meaneb": EX.finalize_meaneb}[acc]
                return fin(n1, sx, sx2)
            raise Unsupported(f"bootstrap-ci accumulator {acc}")

        groups: dict[tuple, dict] = {}
        gvals: dict[tuple, dict] = {}
        order0 = []
        for rec in raw:
            if any(f not in rec for f in gb):
                continue
            key0 = tuple(str(rec[f]) for f in gb)
            if key0 not in groups:
                groups[key0] = {}
                gvals[key0] = {f: rec[f] for f in gb}
                order0.append(key0)
            vbf = groups[key0]
            for f in fields:
                val = rec.get(f)
                if val is None or val == "" or (
                        isinstance(val, float) and math.isnan(val)):
                    continue
                vbf.setdefault(f, []).append(val)
        alpha = (1.0 - conf) / 2.0
        pf = EX.percentile_interpolated if interp else EX.percentile_type1
        out_recs = []
        for key0 in order0:
            rec_out = dict(gvals[key0])
            for f, values in groups[key0].items():
                if not values:
                    continue
                n1 = len(values)
                for acc in accs:
                    point = _stat(acc, values)
                    reps = [_stat(acc, [values[gor.randrange(0, n1)]
                                        for _ in range(n1)])
                            for _rep in range(nres)]
                    srt = EX.miller_sorted(reps)
                    base = f"{f}_{acc}"
                    rec_out[base] = point
                    rec_out[base + "_lo"] = pf(srt, 100.0 * alpha)
                    rec_out[base + "_hi"] = pf(srt, 100.0 * (1.0 - alpha))
            out_recs.append(rec_out)
        return pd.DataFrame(out_recs), True

    if v == "uniq":
        g = _flagvals(a, "-g") or _flagvals(a, "-f")
        if _has(a, "-a") or _has(a, "-x") or g is None:
            # uniq -a (whole-record distinct, uniq.go -a) and -x
            # (distinct over every field EXCEPT the listed ones, per
            # RECORD key set — het records project to het keys):
            # first-seen order; -c prepends the count; -n emits only
            # the distinct-record count; -o renames the count field.
            name2 = _flagvals(a, "-o", "count")
            excl = set((_flagvals(a, "-x") or "").split(","))
            raw = df.attrs.get("raw_records")
            if raw is None:
                cols = [c for c in df.columns
                        if not str(c).startswith("__")]
                raw = []
                for r5 in df.sort_values("__row__").to_dict("records"):
                    raw.append({k5: v5 for k5, v5 in r5.items()
                                if k5 in cols and v5 is not None
                                and not (isinstance(v5, float)
                                         and math.isnan(v5))})
            projected = [{k5: v5 for k5, v5 in rec.items()
                          if k5 not in excl} for rec in raw]
            order2: list = []
            counts: dict = {}
            for rec in projected:
                key2 = tuple((k5, str(v5)) for k5, v5 in rec.items())
                if key2 not in counts:
                    counts[key2] = 0
                    order2.append((key2, rec))
                counts[key2] += 1
            if _has(a, "-n"):
                return pd.DataFrame([{name2: len(order2)}]), True
            out_recs2 = []
            for key2, rec in order2:
                if _has(a, "-c"):
                    out_recs2.append({name2: counts[key2], **rec})
                else:
                    out_recs2.append(dict(rec))
            return pd.DataFrame(out_recs2), True
        fields = g.split(",")
        name = _flagvals(a, "-o", "count")
        sub = df.dropna(subset=fields)
        if _has(a, "-n"):
            return verbs.uniq(_ds(sub), fields, show_num_distinct=True), False
        out = verbs.uniq(_ds(sub), fields, show_counts=_has(a, "-c"))
        if _has(a, "-c") and name != "count":
            out = out.rename(columns={"count": name})
        return out, False

    if v == "stats1" and (_has(a, "-s") or _has(a, "-w")):
        # stats1 -s / -w: per-record stats — cumulative (-s) or over a
        # trailing window of the last n values (-w n); per -g group
        # (stats1.go -s/-w). Sequential by definition; the ENGINE scale
        # path for -w is verbs.stats1_windowed.
        if _has(a, "-s") and _has(a, "-w"):
            from miller_ray.functions import FatalError

            raise FatalError("mlr stats1: -s and -w are incompatible")
        window = int(_flagvals(a, "-w")) if _has(a, "-w") else None
        accs = (_flagvals(a, "-a") or "").split(",")
        g = _flagvals(a, "-g")
        gb = g.split(",") if g else []
        if _has(a, "--fr"):
            rx2 = re.compile(_flagvals(a, "--fr"))
            fields = [c for c in df.columns
                      if not str(c).startswith("__") and c not in gb
                      and rx2.search(str(c))]
        else:
            fields = (_flagvals(a, "-f") or "").split(",")
        supported = {"mean", "sum", "count", "min", "max", "mode",
                     "antimode", "var", "stddev", "median",
                     "distinct_count"}
        bad = [x for x in accs if x not in supported
               and not re.fullmatch(r"p\d+(\.\d+)?", x)]
        if bad:
            raise Unsupported(f"stats1 -s accs {bad}")
        work = df.sort_values("__row__")
        state: dict = {}
        rows = []
        for _, row in work.iterrows():
            rec = {k: x for k, x in row.items()
                   if not str(k).startswith("__")
                   and not (x is None or (isinstance(x, float)
                                          and pd.isna(x)))}
            key = tuple(str(rec.get(k2)) for k2 in gb) if gb else ()
            st = state.setdefault(key, {f2: [] for f2 in fields})
            for f2 in fields:
                xv = rec.get(f2)
                ok2 = isinstance(xv, (int, float, np.integer,
                                      np.floating)) and not (
                    isinstance(xv, float) and np.isnan(xv))
                if not ok2 and isinstance(xv, str) and re.fullmatch(
                        r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?",
                        str(xv)):
                    ok2 = True
                # one slot per RECORD: the -w window spans the last n
                # records of the group, absent values excluded from
                # the stats but occupying window slots (stats1.go -w)
                st[f2].append(xv if ok2 else None)
            for f2 in fields:
                vals = st[f2]
                if window is not None:
                    vals = vals[-window:]
                vals = [x2 for x2 in vals if x2 is not None]
                if not vals:
                    continue
                nums = [float(x2) for x2 in vals]
                from collections import Counter

                for acc in accs:
                    m_p = re.fullmatch(r"p(\d+(?:\.\d+)?)", acc)
                    if m_p or acc in ("median", "distinct_count"):
                        kname = f"{f2}_{acc}"
                        if acc == "distinct_count":
                            rec[kname] = len({str(x2) for x2 in vals})
                            continue
                        p3 = 50.0 if acc == "median" \
                            else float(m_p.group(1))
                        srt = sorted(vals, key=float)
                        idx = min(int(p3 * len(srt) / 100.0),
                                  len(srt) - 1)
                        rec[kname] = srt[idx]
                        continue
                    kname = f"{f2}_{acc}"
                    if acc == "count":
                        rec[kname] = len(vals)
                    elif acc == "sum":
                        s2 = sum(nums)
                        rec[kname] = int(s2) if s2.is_integer() and all(
                            float(x2).is_integer() for x2 in nums) \
                            else s2
                    elif acc == "mean":
                        rec[kname] = sum(nums) / len(nums)
                    elif acc == "min":
                        rec[kname] = min(vals, key=float)
                    elif acc == "max":
                        rec[kname] = max(vals, key=float)
                    elif acc in ("var", "stddev"):
                        if len(nums) < 2:
                            rec[kname] = ""
                        else:
                            m2 = sum(nums) / len(nums)
                            var = sum((x2 - m2) ** 2
                                      for x2 in nums) / (len(nums) - 1)
                            rec[kname] = var if acc == "var" \
                                else var ** 0.5
                    elif acc in ("mode", "antimode"):
                        cnt = Counter(str(x2) for x2 in vals)
                        best = None
                        for v2, c2 in cnt.items():
                            if best is None or (
                                    c2 > cnt[best] if acc == "mode"
                                    else c2 < cnt[best]):
                                best = v2
                        rec[kname] = _infer(best)
            rows.append(rec)
        return _rows_frame(pd.DataFrame({"__rows__": rows})), True

    if v == "stats1":
        if _has(a, "-s") or _has(a, "-w"):
            raise Unsupported("stats1 -s/-w")
        df = _void_to_nan(df, (_flagvals(a, "-f") or "").split(","))
        interpolated = _has(a, "-i")
        accs = _flagvals(a, "-a").split(",")
        _MILLER_ACCS = {"antimode", "count", "distinct_count", "kurtosis",
                        "mad", "max", "maxlen", "mean", "meaneb", "min",
                        "minlen", "mode", "null_count", "skewness",
                        "stddev", "sum", "var", "median", "first", "last"}
        for acc in accs:
            if re.fullmatch(r"p\d+(\.\d+)?", acc):
                continue
            if acc not in _MILLER_ACCS:
                # unknown accumulator is fatal at construction
                # (stats1_accumulators.go:356; verb-stats1/0018)
                from miller_ray.functions import FatalError

                raise FatalError(
                    f'mlr stats1: accumulator "{acc}" not found')
            if acc not in _SUPPORTED_ACCS:
                raise Unsupported(f"stats1 acc {acc}")
        meta_cols = ("__row__", "__file__", "__filenum__")
        if _has(a, "--fr") or _has(a, "--fx"):
            spec = _flagvals(a, "--fr") or _flagvals(a, "--fx")
            regs = _mlr_regexes(spec)
            gset = set((_flagvals(a, "-g") or "").split(","))
            hit = [c for c in df.columns if c not in meta_cols
                   and c not in gset
                   and any(rx.search(c) for rx in regs)]
            if _has(a, "--fx"):
                hit = [c for c in df.columns if c not in meta_cols
                       and c not in gset and c not in hit]
            fields = hit
        else:
            fields = _flagvals(a, "-f").split(",")
        if _has(a, "--gr") or _has(a, "--gx"):
            gspec = _flagvals(a, "--gr") or _flagvals(a, "--gx")
            gregs = _mlr_regexes(gspec)
            ghit = [c for c in df.columns if c not in meta_cols
                    and c not in fields
                    and any(rx.search(c) for rx in gregs)]
            if _has(a, "--gx"):
                ghit = [c for c in df.columns if c not in meta_cols
                        and c not in fields and c not in ghit]
            gb = ghit or None
        else:
            g = _flagvals(a, "-g")
            gb = g.split(",") if g else None
        sub = (df.dropna(subset=gb) if gb else df).copy()
        usable = [f for f in fields if f in sub.columns]
        if not usable:
            return pd.DataFrame(), False
        value_kind = {"mode", "antimode", "distinct_count", "minlen", "maxlen"}
        mixed = [f for f in usable if sub[f].dropna().map(
            lambda x: isinstance(x, str) and x != "").any()]
        if mixed:
            # Miller mixed-type total order (numbers below strings):
            # Arrow columns cannot hold mixed types, so evaluate with the
            # engine's exact kernels directly (miller_sorted + type-1)
            from miller_ray.engine import exact as EX

            if any(x in accs for x in ("mean", "sum", "var", "stddev")):
                raise Unsupported("moment accs over mixed-type fields")

            def one(group_df):
                row = {}
                for f in usable:
                    vals = EX.miller_sorted(group_df[f].dropna().tolist())
                    for acc in accs:
                        if acc == "min":
                            row[f + "_min"] = EX.percentile_type1(vals, 0)
                        elif acc == "max":
                            row[f + "_max"] = EX.percentile_type1(vals, 100)
                        elif acc == "median":
                            row[f + "_median"] = EX.percentile_type1(vals, 50)
                        elif re.fullmatch(r"p\d+(\.\d+)?", acc):
                            row[f + "_" + acc] = EX.percentile_type1(
                                vals, float(acc[1:]))
                        elif acc == "null_count":
                            # VOID or JSON-null values
                            # (stats1_accumulators.go null_count;
                            # verb-stats1-regexed-field-names/0008)
                            raw_vals = group_df[f].tolist()
                            row[f + "_null_count"] = sum(
                                1 for x in raw_vals
                                if (isinstance(x, str) and x == "")
                                or x is None
                                or (isinstance(x, float) and np.isnan(x)))
                        elif acc == "count":
                            row[f + "_count"] = len(vals)
                        elif acc == "distinct_count":
                            row[f + "_distinct_count"] = len(
                                {str(x) for x in vals})
                        else:
                            raise Unsupported(f"mixed-type acc {acc}")
                return row

            if gb:
                rows = []
                for kv, grp in sub.groupby(gb, sort=False):
                    kv = kv if isinstance(kv, tuple) else (kv,)
                    rows.append({**dict(zip(gb, kv)), **one(grp)})
            else:
                rows = [one(sub)]
            return pd.DataFrame(rows), False
        if not (set(accs) & value_kind):
            for f in usable:
                sub[f] = pd.to_numeric(sub[f], errors="coerce")
        out = verbs.stats1(_ds(sub), accs, usable, gb,
                           interpolated=interpolated)
        # Miller names percentile outputs by the REQUESTED acc string
        # (p00 stays x_p00; ours canonicalizes to x_p0)
        ren = {}
        for f in usable:
            for acc in accs:
                m2 = re.fullmatch(r"p(\d+(\.\d+)?)", acc)
                if m2:
                    ours_name = f"{f}_p{int(float(m2.group(1))) if float(m2.group(1)).is_integer() else float(m2.group(1))}"
                    want = f"{f}_{acc}"
                    if ours_name != want and ours_name in out.columns:
                        ren[ours_name] = want
        out = out.rename(columns=ren) if ren else out
        # Miller accumulators over an all-void group: sum renders 0,
        # mode/antimode render VOID (mix-null-field-input golden cases)
        for f in usable:
            if f + "_sum" in out.columns:
                out[f + "_sum"] = out[f + "_sum"].fillna(0)
            for acc in ("mode", "antimode"):
                c2 = f"{f}_{acc}"
                if c2 in out.columns and out[c2].isna().any():
                    out[c2] = out[c2].astype(object).where(
                        out[c2].notna(), "")
        return out, False

    if v == "top":
        fields = _flagvals(a, "-f").split(",")
        n = int(_flagvals(a, "-n", "1"))
        g = _flagvals(a, "-g")
        gb = g.split(",") if g else None
        if _has(a, "-a"):
            # top -a (top.go showFullRecords): emit the top-n RECORDS
            # themselves. Single value field only (top.go:125). Records
            # missing the sought/group fields are skipped; VOID values
            # ingest and outrank numbers (mlrval collation: string-ish
            # above numeric). Equal values: the TopKeeper bsearch
            # inserts AT the first equal slot, so a later-seen equal
            # record ranks above an earlier one
            # (mlrval_collections.go:488-512, top_keeper.go:71-90).
            from miller_ray.functions import FatalError

            if len(fields) > 1:
                raise FatalError(
                    "mlr top: -a requires a single value-field name")
            f2 = fields[0]
            domax = "--min" not in a
            raw = df.attrs.get("raw_records")
            if raw is None:
                cols = [c for c in df.columns
                        if not str(c).startswith("__")]
                raw = []
                for r5 in df.sort_values("__row__").to_dict("records"):
                    raw.append({k5: v5 for k5, v5 in r5.items()
                                if k5 in cols and v5 is not None
                                and not (isinstance(v5, float)
                                         and math.isnan(v5))})

            def sortkey(v5):
                s5 = str(v5)
                try:
                    return (0, float(s5), "")
                except ValueError:
                    return (1, 0.0, s5)  # strings (incl VOID) above nums

            def bsearch_insert(keys, k5):
                # verbatim Bsearch{Desc,Asc}endingInsert — the exact
                # midpoint walk decides where EQUAL values land, which
                # is observable in the output order (0031: t,v,u,s,r)
                size = len(keys)
                if size == 0:
                    return 0

                def gt(x2, y2):
                    return x2 > y2 if domax else x2 < y2

                lo2, hi2 = 0, size - 1
                mid2 = (hi2 + lo2) // 2
                if gt(k5, keys[0]):
                    return 0
                if gt(keys[hi2], k5):
                    return size
                while lo2 < hi2:
                    if k5 == keys[mid2]:
                        return mid2
                    elif gt(k5, keys[mid2]):
                        hi2 = mid2
                    else:
                        lo2 = mid2
                    newmid = (hi2 + lo2) // 2
                    if mid2 == newmid:
                        if gt(k5, keys[lo2]) or k5 == keys[lo2]:
                            return lo2
                        if gt(k5, keys[hi2]) or k5 == keys[hi2]:
                            return hi2
                        return hi2 + 1
                    mid2 = newmid
                return lo2

            keepers: dict = {}
            order2: list = []
            for rec in raw:
                if f2 not in rec or any(g5 not in rec for g5 in (gb or [])):
                    continue
                key2 = tuple(str(rec[g5]) for g5 in (gb or []))
                if key2 not in keepers:
                    keepers[key2] = []
                    order2.append(key2)
                arr = keepers[key2]
                k5 = sortkey(rec[f2])
                pos = bsearch_insert([e[0] for e in arr], k5)
                if len(arr) < n:
                    arr.insert(pos, (k5, rec))
                elif pos < n:
                    arr.insert(pos, (k5, rec))
                    arr.pop()
            out_recs2 = [rec for key2 in order2
                         for _k5, rec in keepers[key2]]
            return pd.DataFrame(out_recs2), True
        smallest = "--min" in a
        # Miller skips records missing ANY sought field (top.go:208-211)
        # but INGESTS void values, which outrank numbers in the mlrval
        # total order (mix-null-field-input/0021): map "" to +inf and
        # back to VOID on output
        base = df.copy()
        had_void = False
        for f in fields:
            vals = base[f]
            if (vals == "").any():
                had_void = True
                vals = vals.replace("", np.inf)
            if vals.dropna().map(lambda v: isinstance(v, (int, np.integer))).all():
                base[f] = vals.astype("Int64")  # int64-exact (near-ovf cases)
            else:
                base[f] = pd.to_numeric(vals, errors="coerce")
        base = base.dropna(subset=fields + (gb or []))
        keep_cols = fields + (gb or []) + \
            [c for c in ("__row__",) if c in base.columns]
        base = base[keep_cols]  # other columns may be mixed-type
        merged = None
        for f in fields:
            sub = base
            one = verbs.top(_ds(sub), f, n=n, group_by=gb, smallest=smallest)
            key = (gb or []) + ["top_idx"]
            merged = one if merged is None else merged.merge(one, on=key, how="outer")
        # Miller VOID-pads each group to n rows (top.go:146-182)
        if gb:
            full = []
            for kv, grp in merged.groupby(gb, sort=False):
                kv = kv if isinstance(kv, tuple) else (kv,)
                grp = grp.set_index("top_idx").reindex(range(1, n + 1))
                grp[gb] = [kv] * n
                full.append(grp.reset_index())
            merged = pd.concat(full, ignore_index=True)
        else:
            merged = merged.set_index("top_idx").reindex(
                range(1, n + 1)).reset_index()
        vcols = [c for c in merged.columns if c.endswith("_top")]
        merged[vcols] = merged[vcols].astype(object).where(
            merged[vcols].notna(), "")
        if had_void:
            merged[vcols] = merged[vcols].where(
                merged[vcols].ne(np.inf), "")
        oname = _flagvals(a, "-o", "top_idx")
        if oname != "top_idx":
            merged = merged.rename(columns={"top_idx": oname})
        return merged, False

    if v == "sort":
        keys, desc, modes = [], [], []
        j = 0
        while j < len(a):
            fl = a[j]
            if fl in ("-f", "-r", "-nf", "-nr", "-t", "-tr", "-rt",
                      "-tf", "-c", "-cr"):
                mode = ("num" if fl in ("-nf", "-nr") else
                        "nat" if "t" in fl else
                        "fold" if "c" in fl else "lex")
                for k in a[j + 1].split(","):
                    keys.append(k)
                    desc.append("r" in fl)
                    modes.append(mode)
                j += 2
            else:
                raise Unsupported(f"sort flag {fl}")
        work = df.copy()

        def _natkey9(s9):
            return tuple((0, int(p9)) if p9.isdigit() else (1, p9)
                         for p9 in re.findall(r"\d+|\D+", s9))

        sort_cols = []
        for k, mode in zip(keys, modes):
            if k not in work.columns:
                work[k] = np.nan
            col = f"__s_{k}"
            if mode == "lex":
                work[col] = work[k].map(
                    lambda v: np.nan if pd.isna(v) else str(v))
            elif mode == "fold":
                work[col] = work[k].map(
                    lambda v: np.nan if pd.isna(v) else str(v).casefold())
            elif mode == "nat":
                # -t natural sort (sort.go natural mode; verb-sort
                # 0024-0026): digit runs compare numerically
                work[col] = work[k].map(
                    lambda v: np.nan if pd.isna(v) else _natkey9(str(v)))
            else:
                work[col] = pd.to_numeric(work[k], errors="coerce")
            sort_cols.append(col)
        # Miller emits records missing the key last
        work = work.sort_values(sort_cols, ascending=[not d for d in desc],
                                na_position="last", kind="stable")
        out = work.drop(columns=sort_cols + ["__row__"])
        return out, True

    if v == "cut":
        fields = _flagvals(a, "-f").split(",")
        if _has(a, "-r"):
            regs = _mlr_regexes(_flagvals(a, "-f"))
            rows = []
            for _, row in df.sort_values("__row__").iterrows():
                r = {}
                for k, x in row.items():
                    if k in ("__row__", "__file__", "__filenum__") or pd.isna(x):
                        continue
                    hit = any(rx.search(k) for rx in regs)
                    if hit != _has(a, "-x"):
                        r[k] = x
                if r:  # a record cut down to zero fields is not emitted
                    rows.append(r)
            return pd.DataFrame(rows), True
        if _has(a, "-x"):
            keep = [c for c in df.columns if c not in fields and c != "__row__"]
        elif _has(a, "-o"):
            keep = [f for f in fields if f in df.columns]
        else:
            keep = [c for c in df.columns if c in fields]
        return df[keep], False

    if v == "head" or v == "tail":
        nraw = _flagvals(a, "-n", "10")
        g = _flagvals(a, "-g")
        # GNU-style signed counts (head.go/tail.go): `tail -n +K` =
        # from the K-th record on; `head -n -K` = all but the last K;
        # `tail -n -K` = last K; `head -n +K` = first K
        if nraw.startswith("+"):
            k9 = int(nraw[1:])
            if v == "tail":
                picker = (lambda d: d.iloc[max(0, k9 - 1):])
            else:
                picker = (lambda d: d.head(k9))
        elif nraw.startswith("-"):
            k9 = int(nraw[1:])
            if v == "head" and g:
                # grouped all-but-last-K: record i of a group emits
                # when its (i+K)-th group-mate ARRIVES, so output
                # order follows the trigger positions (verb-head/0005)
                gb9 = g.split(",")
                work9 = df.sort_values("__row__")
                outp: list = []
                for _key9, grp9 in work9.dropna(subset=gb9).groupby(
                        gb9, sort=False):
                    rows9 = grp9.to_dict("records")
                    for i9 in range(len(rows9) - k9):
                        outp.append((rows9[i9 + k9]["__row__"],
                                     rows9[i9]))
                outp.sort(key=lambda x9: x9[0])
                out9 = pd.DataFrame([r9 for _p9, r9 in outp])
                return out9.drop(columns=["__row__", "__file__",
                                          "__filenum__"],
                                 errors="ignore"), True
            if v == "head":
                picker = (lambda d: d.iloc[:max(0, len(d) - k9)])
            else:
                picker = (lambda d: d.tail(k9))
        else:
            n = int(nraw)
            picker = (lambda d: d.head(n)) if v == "head" \
                else (lambda d: d.tail(n))
        work = df.sort_values("__row__")
        if g:
            gb = g.split(",")
            out = work.dropna(subset=gb).groupby(gb, sort=False,
                                                 group_keys=False)[work.columns].apply(picker)
        else:
            out = picker(work)
        # tail -g buffers per group and emits at end-of-stream -> group
        # order, not stream order; compare unordered in that case
        ordered = not (v == "tail" and g)
        return out.sort_values("__row__").drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore"), ordered

    if v == "histogram":
        fields = _flagvals(a, "-f").split(",")
        nbins = int(_flagvals(a, "--nbins", "20"))
        work = df.copy()
        for f in fields:
            work[f] = pd.to_numeric(work[f], errors="coerce")
        if _has(a, "-s"):
            # -s: one record per field {field, lo, hi, sparkline}
            # (histogram.go:271-291 sparklineRecord; verb-histogram/0008)
            from miller_ray.functions import REGISTRY
            from miller_ray import dsl as DSL

            if _has(a, "--auto"):
                lo = min(work[f].min() for f in fields)
                hi = max(work[f].max() for f in fields)
            else:
                lo = float(_flagvals(a, "--lo"))
                hi = float(_flagvals(a, "--hi"))
            hist = verbs.histogram(_ds(work), fields, lo=float(lo),
                                   hi=float(hi), nbins=nbins)
            prefix = _flagvals(a, "-o") or ""
            rows = [{prefix + "field": f,
                     prefix + "lo": DSL._print_render(float(lo),
                                                      REGTEST_OFMT[0]),
                     prefix + "hi": DSL._print_render(float(hi),
                                                      REGTEST_OFMT[0]),
                     prefix + "sparkline": REGISTRY["sparkline"](
                         [int(c) for c in hist[f + "_count"]])}
                    for f in fields]
            return pd.DataFrame({"__rows__": rows}).pipe(_rows_frame), True
        if _has(a, "--auto"):
            out = verbs.histogram_auto(_ds(work), fields, nbins=nbins)
        else:
            lo = float(_flagvals(a, "--lo"))
            hi = float(_flagvals(a, "--hi"))
            out = verbs.histogram(_ds(work), fields, lo=lo, hi=hi, nbins=nbins)
        prefix = _flagvals(a, "-o")
        if prefix:
            out = out.rename(columns={c: prefix + c for c in out.columns})
        return out, False

    if v == "fill-empty":
        val = _flagvals(a, "-v", None)
        if val is None:
            val = _flagvals(a, "-Sv", None)  # combined -Sv VALUE form
        if val is None:
            val = "N/A"
        if not (_has(a, "-S") or _has(a, "-Sv")):
            # the fill value is type-inferred unless -S forces string
            # (fill_empty.go; verb-fill-empty/0003 typeof=int)
            val = _infer(val)
        fields = [c for c in df.columns if c not in ("__row__", "__file__", "__filenum__")]
        out = df.drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore").copy()
        for c in fields:
            out[c] = out[c].map(lambda x: val if (x == "" or pd.isna(x)) else x)
        return out, False

    if v == "rename":
        if _has(a, "-r"):
            spec = a[-1]
            pat_s, _, rep = spec.partition(",")
            flags = 0
            if pat_s.startswith("/"):
                if pat_s.endswith("/i"):
                    flags, pat_s = re.IGNORECASE, pat_s[1:-2]
                elif pat_s.endswith("/"):
                    pat_s = pat_s[1:-1]
            rx = re.compile(pat_s, flags)
            rep_py = _py_repl(rep)
            count = 0 if _has(a, "-g") else 1
            # row-wise map semantics: colliding renamed keys overwrite
            # in the RECORD's OWN field order (Miller record = ordered
            # map; the union frame's column order differs per file)
            korder = df.attrs.get("korder", {})
            rows = []
            for _, row in df.sort_values("__row__").iterrows():
                keys = korder.get(row.get("__filenum__"),
                                  [k for k in row.index])
                r = {}
                for k in keys:
                    x = row.get(k)
                    if k in ("__row__", "__file__", "__filenum__") or pd.isna(x):
                        continue
                    r[rx.sub(rep_py, k, count=count)] = x
                rows.append(r)
            return pd.DataFrame(rows), True
        pairs = a[-1].split(",") if a else []
        out = df.drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore").copy()
        for old, new in zip(pairs[::2], pairs[1::2]):
            if old in out.columns:
                if new in out.columns and new != old:
                    vals = out[old]
                    out = out.drop(columns=[old])
                    out[new] = vals  # overwrites existing column (map put)
                else:
                    # no collision: the field is re-keyed IN PLACE
                    # (mlrmap rename preserves position; -I rewrites
                    # compare output text byte-wise)
                    out = out.rename(columns={old: new})
        return out, False

    if v == "label":
        names = a[-1].split(",")
        if len(set(names)) != len(names):
            # duplicate labels are fatal at CLI parse (label.go;
            # verb-label/0009 should-fail)
            from miller_ray.functions import FatalError

            dup = next(n2 for i2, n2 in enumerate(names)
                       if n2 in names[:i2])
            raise FatalError("mlr label: labels must be unique; "
                             f'got duplicate "{dup}"')
        cols = [c for c in df.columns if c not in ("__row__", "__file__", "__filenum__")]
        out = df.drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore").copy()
        labeled = cols[: len(names)]
        # an unlabeled column whose name equals a new label is displaced
        # (map reinsert overwrites it)
        clobbered = [c for c in cols[len(names):] if c in names]
        out = out.drop(columns=clobbered)
        out = out.rename(columns=dict(zip(labeled, names)))
        return out, False

    if v in ("regularize", "sort-within-records", "cat") and not a:
        return df.drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore"), True

    if v == "nothing":
        return pd.DataFrame(), False

    if v == "script":
        # mlr script (transformers/script.go): run the -e program once
        # with a next()-driven record cursor
        from miller_ray import dsl as DSL

        expr = _flagvals(a, "-e")
        if expr is None:
            raise Unsupported("script without -e")
        prog = DSL.compile_program(expr)
        recs_in = df.attrs.get("raw_records")
        if recs_in is None:
            recs_in = [
                {k: x for k, x in row.items()
                 if not str(k).startswith("__") and x is not None
                 and not (isinstance(x, float) and np.isnan(x))}
                for _, row in df.iterrows()]
        recs, texts = DSL.run_script(prog, recs_in, ofmt=REGTEST_OFMT[0])
        if texts and not recs:
            return RawText("\n".join(texts) + "\n"), True
        if not recs:
            return pd.DataFrame(), False
        return _rows_frame(pd.DataFrame({"__rows__": recs})), True

    if v == "sparkline":
        # transformers/sparkline.go: end-of-stream per-field summary
        # with a block-glyph strip; non-numeric values error the strip
        from miller_ray.functions import REGISTRY as _REG

        if _has(a, "--help"):
            # verb --help prints the UsageFunc text and exits 0
            # (cli.ErrHelpRequested; verb-sparkline/0003)
            from miller_ray import help_catalog as _H

            usage = _H.verb_usage_exact("sparkline")
            if usage is None:
                raise Unsupported("sparkline --help")
            return RawText(usage.split("\n", 1)[1]), True
        fields = (_flagvals(a, "-f") or "").split(",")
        work = df.sort_values("__row__") if "__row__" in df.columns else df
        rows = []
        for f2 in fields:
            vals = [x for x in (work[f2] if f2 in work.columns else [])
                    if not (x is None or (isinstance(x, float)
                                          and np.isnan(x)))]
            rec: dict = {"field": f2, "n": len(vals)}
            spark = _REG["sparkline"](list(vals))
            if spark != "(error)":
                nums = []
                for x in vals:
                    try:
                        nums.append(float(x))
                    except (TypeError, ValueError):
                        pass
                if nums:
                    rec["lo"] = min(nums)
                    rec["hi"] = max(nums)
            rec["sparkline"] = spark
            rows.append(rec)
        return pd.DataFrame(rows), True

    if v == "bar":
        # transformers/bar.go: numeric fields replaced by cheesy bars
        if _has(a, "--help"):
            from miller_ray import help_catalog as _H

            usage = _H.verb_usage_exact("bar")
            if usage is None:
                raise Unsupported("bar --help")
            return RawText(usage.split("\n", 1)[1]), True
        fields = (_flagvals(a, "-f") or "").split(",")
        lo0 = float(_flagvals(a, "--lo", "0"))
        hi0 = float(_flagvals(a, "--hi", "100"))
        w = int(_flagvals(a, "-w", "40"))
        fill = _flagvals(a, "-c", "*")
        oob = _flagvals(a, "-x", "#")
        blank = _flagvals(a, "-b", ".")
        auto = _has(a, "--auto")
        bars = []
        for i2 in range(w + 1):
            if i2 == 0:
                bars.append(oob + blank * (w - 1))
            elif i2 < w:
                bars.append(fill * i2 + blank * (w - i2))
            else:
                bars.append(fill * (w - 1) + oob)

        def _gofmt(x: float) -> str:
            s2 = repr(float(x))
            return s2[:-2] if s2.endswith(".0") else s2

        out = df.drop(columns=["__row__", "__file__", "__filenum__"],
                      errors="ignore").copy()
        for f2 in fields:
            if f2 not in out.columns:
                continue
            nums = pd.to_numeric(out[f2], errors="coerce")
            if auto:
                if nums.notna().any():
                    lo, hi = float(nums.min()), float(nums.max())
                else:
                    lo = hi = 0.0
                pre, suf = f"[{_gofmt(lo)}]", f"[{_gofmt(hi)}]"
            else:
                lo, hi = lo0, hi0
                pre = suf = ""

            def conv(x, lo=lo, hi=hi, pre=pre, suf=suf):
                if pd.isna(x):
                    return x
                i3 = min(max(int(w * (x - lo) / (hi - lo)), 0), w) \
                    if hi != lo else 0
                return pre + bars[i3] + suf
            out[f2] = [orig if pd.isna(nv) else conv(nv)
                       for orig, nv in zip(out[f2], nums)]
        return out, True

    if v == "surv":
        # Kaplan-Meier right-censored survival estimate
        # (transformers/surv.go via gonum statmodel SurvfuncRight):
        # records missing either field are skipped; event times only
        dfld = _flagvals(a, "-d")
        sfld = _flagvals(a, "-s")
        if not dfld or not sfld or dfld not in df.columns \
                or sfld not in df.columns:
            return pd.DataFrame(), False
        sub = df[[dfld, sfld]].dropna()
        dur = sub[dfld].astype(float).to_numpy()
        ev = sub[sfld].astype(float).to_numpy() != 0
        rows = []
        s_prob = 1.0
        for t2 in np.unique(dur):
            n_at = int((dur >= t2).sum())
            d2 = int(((dur == t2) & ev).sum())
            if d2 and n_at:
                s_prob *= 1.0 - d2 / n_at
                rows.append({"time": float(t2), "survival": s_prob})
        return pd.DataFrame(rows), True

    if v == "stats2":
        df = _void_to_nan(df, (_flagvals(a, "-f") or "").split(","))
        _f2 = [f for f in (_flagvals(a, "-f") or "").split(",") if f]
        if _f2 and df.dropna(subset=[f for f in _f2
                                     if f in df.columns]).empty:
            # no complete pairs: groups emit with VOID stats, the
            # ungrouped form emits nothing
            _g2 = _flagvals(a, "-g")
            if _g2:
                return df[_g2.split(",")].drop_duplicates() \
                    .reset_index(drop=True), False
            return pd.DataFrame(), False
        if _has(a, "-s") or "--fit" in a or \
                "logireg" in (_flagvals(a, "-a") or ""):
            return _stats2_sequential(df, a)
        accs = _flagvals(a, "-a").split(",")
        for acc in accs:
            if acc not in ("linreg-ols", "linreg-pca", "r2", "corr", "cov"):
                raise Unsupported(f"stats2 acc {acc}")
        flds = _flagvals(a, "-f").split(",")
        pairs = list(zip(flds[::2], flds[1::2]))
        g = _flagvals(a, "-g")
        gb = g.split(",") if g else None
        frames = []
        groups_present = (df.dropna(subset=gb)[gb].drop_duplicates()
                          if gb else None)
        for x, y in pairs:
            sub = df.copy()
            sub[x] = pd.to_numeric(sub[x], errors="coerce")
            sub[y] = pd.to_numeric(sub[y], errors="coerce")
            # Miller ingests only records where BOTH fields are present
            sub = sub.dropna(subset=[x, y] + (gb or []))
            one = verbs.stats2(_ds(sub.drop(columns=["__row__", "__file__",
                                                     "__filenum__"],
                                            errors="ignore")),
                               accs, [(x, y)], gb)
            pre = f"{x}_{y}_"
            one = one.rename(columns={pre + "m": pre + "ols_m",
                                      pre + "b": pre + "ols_b",
                                      pre + "n": pre + "ols_n"})
            frames.append(one)
        out = frames[0]
        for fme in frames[1:]:
            out = out.merge(fme, on=gb) if gb else pd.concat([out, fme], axis=1)
        if gb is not None:
            # groups with records but no complete (x, y) pair still emit
            # (with void stats) in Miller
            out = groups_present.merge(out, on=gb, how="left")
        return out, False

    if v == "merge-fields":
        # presence BEFORE void-cleaning: a void field still creates its
        # accumulator (sum renders 0); an absent field does not
        present = df.notna()
        df = _void_to_nan(df, (_flagvals(a, "-f") or "").split(","))
        accs = _flagvals(a, "-a").split(",")
        keep = _has(a, "-k")
        interp = _has(a, "-i")
        work = df.drop(columns=["__row__", "__file__", "__filenum__"],
                       errors="ignore").copy()
        if _has(a, "-c"):
            subs = _flagvals(a, "-c").split(",")
            hit = [c for c in work.columns if any(x in c for x in subs)]
            has_str = any(work[c].dropna().map(
                lambda x: isinstance(x, str) and x != "").any() for c in hit)
            if has_str:
                # mixed-type rows: Miller total order via exact kernels
                return _merge_fields_mixed(work, accs, subs, keep), False
            for c in hit:
                work[c] = pd.to_numeric(work[c], errors="coerce")
            out = verbs.merge_fields_collapse(_ds(work), accs, subs,
                                              keep_inputs=keep,
                                              interpolated=interp).to_pandas()
            out = _mask_empty_groups(out, work, accs, subs,
                                      present=present)
            return out, False
        if _has(a, "-r"):
            # -r: value fields selected by regex (merge_fields.go:20);
            # then identical to the -f path with the -o output name
            regs = _mlr_regexes(_flagvals(a, "-r"))
            fields = [c for c in work.columns
                      if any(rx.search(str(c)) for rx in regs)]
        else:
            req = _flagvals(a, "-f").split(",")
            fields = [c for c in req if c in work.columns]
        if not fields:
            # Miller still emits the accumulators: sum/count are 0,
            # order statistics are VOID
            oname = _flagvals(a, "-o", "out")
            for acc in accs:
                if acc in ("sum", "count"):
                    work[f"{oname}_{acc}"] = 0
            return work, False
        for c in fields:
            work[c] = pd.to_numeric(work[c], errors="coerce")
        oname = _flagvals(a, "-o", "out")
        out = verbs.merge_fields(_ds(work), accs, fields, oname,
                                 keep_inputs=keep,
                                 interpolated=interp).to_pandas()
        return out, False

    if v == "fill-down":
        if "--all" in a:
            fields = [c for c in df.columns
                      if c not in ("__row__", "__file__", "__filenum__")]
        elif "--only-if-blank" in a:
            raise Unsupported("fill-down --only-if-blank")
        else:
            fields = _flagvals(a, "-f").split(",")
        if _has(a, "-a"):
            # -a / --only-if-absent: "" counts as present; only truly
            # absent keys fill (a rectangular CSV never fills)
            work = df.sort_values("__row__").copy()
            for c in fields:
                if c in work.columns:
                    filled = work[c].ffill()
                    work[c] = filled.where(filled.notna(), work[c])
            return work.drop(columns=["__row__", "__file__", "__filenum__"],
                             errors="ignore"), True
        work = df.sort_values("__row__").copy()
        for c in fields:
            if c not in work.columns:
                continue
            col = work[c].map(lambda v_: np.nan if (pd.isna(v_) or v_ == "")
                              else v_)
            filled = col.ffill()
            work[c] = filled.where(filled.notna(), work[c])
        return work.drop(columns=["__row__", "__file__", "__filenum__"],
                         errors="ignore"), True

    if v == "sort-within-records":
        # sort_within_records.go: matching keys sorted to the FRONT
        # (lexical, or natural with -n), rest in original order. -f =
        # explicit key list; -r regex; -f+-r = single regex pattern;
        # bare -r = recursive submap sort (JSON)
        from miller_ray.functions import FatalError

        natural = _has(a, "-n")
        fnames = _flagvals(a, "-f")
        has_r = _has(a, "-r")
        rval = _flagvals(a, "-r") if has_r else None

        def natkey(s5: str):
            parts = re.findall(r"\d+|\D+", s5)
            return tuple((0, int(p5)) if p5.isdigit() else (1, p5)
                         for p5 in parts)

        sortkey = natkey if natural else (lambda s5: s5)
        matcher = None
        if fnames is not None and has_r:
            names5 = fnames.split(",")
            if len(names5) > 1:
                raise FatalError(
                    "mlr sort-within-records: regex mode takes a single "
                    f"pattern; got {len(names5)} names: {fnames}. Use "
                    "alternation in the regex (e.g. 'a|b') instead of a "
                    "comma-list.")
            try:
                rx5 = _mlr_regexes(fnames)[0]
            except re.error:
                raise FatalError(
                    "mlr sort-within-records: cannot compile regex "
                    f"[{fnames}]")
            matcher = rx5.search
        elif fnames is not None:
            fset5 = set(fnames.split(","))
            matcher = lambda k5: k5 in fset5  # noqa: E731
        elif has_r and rval is not None and not rval.startswith("-"):
            try:
                rx5 = _mlr_regexes(rval)[0]
            except re.error:
                raise FatalError(
                    "mlr sort-within-records: cannot compile regex "
                    f"[{rval}]")
            matcher = rx5.search

        def sort_submaps(v5):
            if isinstance(v5, dict):
                return {k5: sort_submaps(v5[k5])
                        for k5 in sorted(v5, key=sortkey)}
            if isinstance(v5, list):
                return [sort_submaps(x5) for x5 in v5]
            return v5

        work = df.drop(columns=["__row__", "__file__", "__filenum__"],
                       errors="ignore")
        cols5 = list(work.columns)
        if matcher is None:
            if has_r:
                # bare -r: recursive submap sort; top level also sorted
                work = work.map(sort_submaps)
            ordered5 = sorted(cols5, key=sortkey)
        else:
            front5 = sorted([c5 for c5 in cols5 if matcher(str(c5))],
                            key=sortkey)
            ordered5 = front5 + [c5 for c5 in cols5 if c5 not in front5]
        return work[ordered5], True

    if v == "having-fields":
        # six criteria over each record's OWN key set
        # (transformers/having_fields.go:239-366)
        work = df.sort_values("__row__") if "__row__" in df.columns else df
        meta = {"__row__", "__file__", "__filenum__"}
        raw0 = df.attrs.get("raw_records")
        if raw0 is not None:
            keysets = [[k for k in r] for r in raw0]
        else:
            cols = [c for c in work.columns if c not in meta]
            keysets = [[c for c in cols
                        if not (pd.isna(row[c]) if not isinstance(
                            row[c], (list, dict, np.ndarray))
                            else False)]
                       for _, row in work.iterrows()]

        def _mode(flag):
            val = _flagvals(a, flag)
            return None if val is None else val

        keep: list[bool] = []
        if (fl := _mode("--at-least")) is not None:
            need = set(fl.split(","))
            keep = [need.issubset(ks) for ks in keysets]
        elif (fl := _mode("--which-are")) is not None:
            need = set(fl.split(","))
            keep = [len(ks) == len(need) and set(ks) == need
                    for ks in keysets]
        elif (fl := _mode("--at-most")) is not None:
            need = set(fl.split(","))
            keep = [set(ks).issubset(need) for ks in keysets]
        elif (fl := _mode("--all-matching")) is not None:
            rx = _miller_regex(fl)
            keep = [all(rx.search(str(k)) for k in ks) for ks in keysets]
        elif (fl := _mode("--any-matching")) is not None:
            rx = _miller_regex(fl)
            keep = [any(rx.search(str(k)) for k in ks) for ks in keysets]
        elif (fl := _mode("--none-matching")) is not None:
            rx = _miller_regex(fl)
            keep = [not any(rx.search(str(k)) for k in ks)
                    for ks in keysets]
        else:
            raise Unsupported("having-fields mode")
        out = work[pd.Series(keep, index=work.index)]
        out = out.drop(columns=[c for c in meta if c in out.columns])
        if raw0 is not None:
            out = out.copy()
            out.attrs["raw_records"] = [r for r, k2 in zip(raw0, keep)
                                        if k2]
        # drop all-absent columns so sparse records keep their shape
        live = [c for c in out.columns
                if not out[c].map(lambda x: pd.isna(x) if not isinstance(
                    x, (list, dict, np.ndarray)) else False).all()]
        return out[live], True

    if v == "cat":
        if "--filename" in a or "--filenum" in a:
            work = df.sort_values("__row__").copy()
            if "--filename" in a:
                work["filename"] = work["__file__"]
            if "--filenum" in a:
                work["filenum"] = work["__filenum__"]
            return work.drop(columns=["__row__", "__file__", "__filenum__"],
                             errors="ignore"), True
        g = _flagvals(a, "-g")
        name = _flagvals(a, "-N", "n")
        work = df.sort_values("__row__").copy()
        if "__NO_INPUT__" in a or work.empty:
            return pd.DataFrame(), False
        if _has(a, "-n") or _has(a, "-N"):
            if g:
                gb = g.split(",")
                # a record missing ANY group field falls into one shared
                # bucket (GetSelectedValuesJoined !ok -> "" key)
                def key(row):
                    vals = [row[k] for k in gb]
                    if any(pd.isna(x) for x in vals):
                        return "\x00absent-bucket"
                    return tuple(vals)

                work["__k"] = work.apply(key, axis=1)
                work[name] = work.groupby("__k", sort=False).cumcount() + 1
                work = work.drop(columns=["__k"])
            else:
                work[name] = np.arange(1, len(work) + 1)
            cols = [name] + [c for c in work.columns if c not in (name, "__row__")]
            return work[cols], True
        return work.drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore"), True

    if v == "tac":
        out = df.sort_values("__row__", ascending=False)                  .drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore")
        raw = df.attrs.get("raw_records")
        if raw is not None and len(raw) == len(out):
            # exact per-record key order survives the reversal — needed
            # by headerless het output (io-het-csv-input/0026)
            out.attrs["out_records"] = list(reversed(raw))
        return out, True

    if v == "seqgen":
        start = int(_flagvals(a, "--start", "1"))
        stop = int(_flagvals(a, "--stop", "100"))
        step = int(_flagvals(a, "--step", "1"))
        if step == 0:
            raise Unsupported("seqgen --step 0")
        from miller_ray import verbs as V

        out = V.seqgen(start, stop, step_by=step).to_pandas()
        if "i" not in out.columns:
            out = pd.DataFrame({"i": []})
        out = out.sort_values("i", ascending=step > 0).reset_index(drop=True)
        fname = _flagvals(a, "-f")
        if fname:
            out = out.rename(columns={"i": fname})
        return out, True

    if v == "fraction":
        fields = _flagvals(a, "-f").split(",")
        g = _flagvals(a, "-g")
        gb = g.split(",") if g else []
        if _has(a, "-p") or _has(a, "-c"):
            # fraction.go -p (percents, suffix _percent) / -c
            # (running-sum cumulative, suffix _cumulative_*): two-pass
            # sequential — denominator per (group, field) over present
            # numeric values, then per-record emit in stream order
            mult = 100 if _has(a, "-p") else 1
            sfx6 = ("_cumulative_" if _has(a, "-c") else "_") + \
                ("percent" if _has(a, "-p") else "fraction")
            rows6 = _df_records(df.sort_values("__row__").drop(
                columns=["__row__", "__file__", "__filenum__"],
                errors="ignore"))

            def num6(r6, f6):
                v6 = r6.get(f6)
                if v6 is None or (isinstance(v6, float)
                                  and math.isnan(v6)):
                    return None
                try:
                    return float(v6)
                except (TypeError, ValueError):
                    return None

            def gkey6(r6):
                if not gb:
                    return ()
                ks6 = [r6.get(g6) for g6 in gb]
                if any(k6 is None or (isinstance(k6, float)
                                      and math.isnan(k6)) for k6 in ks6):
                    return None
                return tuple(str(k6) for k6 in ks6)

            denom: dict = {}
            for r6 in rows6:
                k6 = gkey6(r6)
                if k6 is None:
                    continue
                for f6 in fields:
                    x6 = num6(r6, f6)
                    if x6 is not None:
                        denom[(k6, f6)] = denom.get((k6, f6), 0.0) + x6
            cum: dict = {}
            out_rows6 = []
            for r6 in rows6:
                k6 = gkey6(r6)
                nr6 = dict(r6)
                if k6 is not None:
                    for f6 in fields:
                        x6 = num6(r6, f6)
                        if x6 is None:
                            continue
                        d6 = denom.get((k6, f6), 0.0)
                        if _has(a, "-c"):
                            cum[(k6, f6)] = cum.get((k6, f6), 0.0) + x6
                            x6 = cum[(k6, f6)]
                        val6 = x6 * mult / d6 if d6 else ""
                        nr6[f6 + sfx6] = (REGTEST_OFMT[0] % val6) \
                            if REGTEST_OFMT[0] and val6 != "" else val6
                out_rows6.append(nr6)
            return pd.DataFrame(out_rows6), True
        work = df.copy()
        for f in fields:
            work[f] = pd.to_numeric(work[f], errors="coerce")
        if gb:
            in_g = work.dropna(subset=gb)
            rest = work[~work.index.isin(in_g.index)].drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore")
        else:
            in_g, rest = work, work.iloc[0:0].drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore")
        out = verbs.fraction(_ds(in_g.drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore")), fields,
                             group_by=gb or None).to_pandas()
        return pd.concat([out, rest], ignore_index=True), False

    if v == "grep":
        invert = _has(a, "-v")
        ignore_case = _has(a, "-i")
        values_only = _has(a, "-a")  # grep.go:89 — match the NIDX string
        pattern = [x for x in a if not x.startswith("-")][-1]
        flags = re.IGNORECASE if ignore_case else 0
        rx = re.compile(pattern, flags)

        def render(row):
            if values_only:  # ToNIDXString: values joined by spaces
                return " ".join(f"{'' if pd.isna(v_) else v_}"
                                for v_ in row.values if not pd.isna(v_))
            return ",".join(f"{k}={'' if pd.isna(v_) else v_}"
                            for k, v_ in row.items() if not pd.isna(v_))

        work = df.drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore")
        mask = work.apply(lambda r: bool(rx.search(render(r))), axis=1)
        out = work[~mask] if invert else work[mask]
        return out, True

    if v == "decimate":
        n = int(_flagvals(a, "-n", "10"))
        g = _flagvals(a, "-g")
        keep_first = _has(a, "-b") and not _has(a, "-e")
        work = df.sort_values("__row__")
        gb = g.split(",") if g else None
        if gb:
            pos = work.groupby(gb, sort=False, dropna=False).cumcount()
        else:
            pos = pd.Series(np.arange(len(work)), index=work.index)
        sel = (pos % n == 0) if keep_first else (pos % n == n - 1)
        return work[sel].drop(columns=["__row__", "__file__", "__filenum__"], errors="ignore"), True

    if v == "step":
        # Faithful record-path simulation of transformers/step.go:
        # per-(group, field) value-RING prev-caches (delta/shift_lag/
        # ratio, parameterized counts), record-WINDOW steppers
        # (shift_lead_N, slwin_m_n), continuing accumulators (rsum/
        # rprod/counter/ewma/from-first), and the het gating quirks:
        # ring pushes and clears are driven by the INGESTED record's
        # field presence while outputs attach to the record delayed by
        # maxNumRecordsForward (step.go handleRecord:407-495), and the
        # EOS drain gates on the DRAINED record itself
        # (handleDrainRecord:502-547).
        from miller_ray.functions import FatalError

        steppers = _flagvals(a, "-a").split(",")
        fields = _flagvals(a, "-f").split(",")
        alphas = (_flagvals(a, "-d") or "0.5").split(",")
        osfx = _flagvals(a, "-o").split(",") if _flagvals(a, "-o") else None
        if osfx is not None and len(osfx) != len(alphas):
            raise FatalError(
                "mlr step: length of -o must match that of -d")
        esfx = osfx if osfx is not None else alphas
        parsed = []  # (raw, base, back, fwd)
        for s in steppers:
            if s.startswith("slwin"):
                m2 = re.fullmatch(r"slwin_(-?\d+)_(-?\d+)", s)
                if not m2:
                    raise FatalError(f'mlr step: stepper "{s}" not found')
                mm, nn = int(m2.group(1)), int(m2.group(2))
                if mm < 0 or nn < 0:
                    raise FatalError(
                        f'mlr step: stepper "{s}": backward/forward counts '
                        "must be non-negative integers")
                parsed.append((s, "slwin", mm, nn))
                continue
            try:
                base, cnt = verbs._parse_stepper(s)
            except ValueError as e:
                msg = str(e)
                if "count must be" in msg:
                    raise FatalError(msg)
                raise FatalError(f'mlr step: stepper "{s}" not found')
            if base == "shift_lead":
                parsed.append((s, base, 0, cnt))
            elif base in ("shift", "shift_lag", "delta", "ratio"):
                parsed.append((s, base, cnt, 0))
            else:
                parsed.append((s, base, 0, 0))
        FWD = max((p[3] for p in parsed), default=0)
        gb = (_flagvals(a, "-g") or "")
        gbf = gb.split(",") if gb else []

        work = df.sort_values("__row__")
        recs = work.to_dict("records")

        def present(rec, f):
            v2 = rec.get(f)
            if v2 is None:
                return False
            if isinstance(v2, float) and math.isnan(v2):
                return False
            return True

        def numval(rec, f):
            """Mlrval of rec[f]: None=absent, ''=void, int/float/str."""
            v2 = rec.get(f)
            if not present(rec, f):
                return None
            if isinstance(v2, str):
                if v2 == "":
                    return ""
                try:
                    return int(v2)
                except ValueError:
                    try:
                        return float(v2)
                    except ValueError:
                        return v2
            if isinstance(v2, float) and v2.is_integer() \
                    and not isinstance(v2, bool):
                # int columns NaN-promoted to float by the union schema
                return int(v2)
            return v2

        def fmt_out(x):
            """Stepper output -> cell: ints stay int; floats render
            through the regtest MLR_OFMT so integral floats keep their
            float-typed rendering (e.g. slwin mean 1.0 -> 1.00000000)."""
            if isinstance(x, float):
                f2 = REGTEST_OFMT[0]
                return (f2 % x) if f2 else repr(x)
            return x

        class Ring:
            def __init__(self, n):
                self.n = n
                self.buf: list = []

            def push(self, v2):
                self.buf.append(v2)
                if len(self.buf) > self.n:
                    old = self.buf.pop(0)
                    return old, True
                return None, False

        out_cols: dict[int, dict] = {}  # rec index -> {col: value}
        emitted: set[int] = set()       # grouped records that centered
        grouped_idx: set[int] = set()   # records that entered a window

        def run_group(idxs: list[int]):
            rings: dict = {}   # (f, raw) -> Ring
            state: dict = {}   # misc per (f, key)
            ingested: list[int] = []

            def win(p_pos, j):
                q = p_pos + j
                return recs[ingested[q]] if 0 <= q < len(ingested) else None

            def clear(f):
                for s, base, back, fwd in parsed:
                    if base in ("shift", "shift_lag", "delta", "ratio") \
                            and (f, s) in rings:
                        rings[(f, s)].push(None)

            def apply_steppers(f, p_pos):
                p = recs[ingested[p_pos]]
                cur = numval(p, f)
                oc = out_cols.setdefault(ingested[p_pos], {})
                for s, base, back, fwd in parsed:
                    if base in ("shift", "shift_lag"):
                        r2 = rings.setdefault((f, s), Ring(back))
                        prev, has = r2.push(cur)
                        oc[f"{f}_{s}"] = fmt_out(prev) \
                            if has and prev is not None else ""
                    elif base == "delta":
                        r2 = rings.setdefault((f, s), Ring(back))
                        if cur is None:
                            r2.push(None)
                        elif cur == "":
                            r2.push(None)
                            oc[f"{f}_{s}"] = ""
                        else:
                            prev, has = r2.push(cur)
                            oc[f"{f}_{s}"] = fmt_out(
                                cur - prev if has and prev is not None
                                else 0)
                    elif base == "ratio":
                        r2 = rings.setdefault((f, s), Ring(back))
                        if cur is None:
                            r2.push(None)
                        elif cur == "":
                            r2.push(None)
                            oc[f"{f}_{s}"] = ""
                        else:
                            prev, has = r2.push(cur)
                            if has and prev is not None:
                                q2 = cur / prev
                                if isinstance(cur, int) \
                                        and isinstance(prev, int) \
                                        and cur % prev == 0:
                                    q2 = cur // prev
                                oc[f"{f}_{s}"] = fmt_out(q2)
                            else:
                                oc[f"{f}_{s}"] = fmt_out(1)
                    elif base == "shift_lead":
                        nrec = win(p_pos, fwd)
                        if nrec is None:
                            oc[f"{f}_{s}"] = ""
                        else:
                            nv = numval(nrec, f)
                            if nv is not None:
                                oc[f"{f}_{s}"] = fmt_out(nv)
                    elif base == "slwin":
                        tot, cnt2 = 0.0, 0
                        for j in range(-back, fwd + 1):
                            r3 = win(p_pos, j)
                            if r3 is None:
                                continue
                            v3 = numval(r3, f)
                            if v3 is None or v3 == "" \
                                    or isinstance(v3, str):
                                continue
                            tot += v3
                            cnt2 += 1
                        oc[f"{f}_{back}_{fwd}"] = \
                            fmt_out(tot / cnt2) if cnt2 else ""
                    elif base == "rsum":
                        if cur is None:
                            continue
                        if cur == "":
                            oc[f"{f}_rsum"] = ""
                        else:
                            k2 = (f, "rsum")
                            state[k2] = state.get(k2, 0) + cur
                            oc[f"{f}_rsum"] = fmt_out(state[k2])
                    elif base == "rprod":
                        if cur is None:
                            continue
                        if cur == "":
                            oc[f"{f}_rprod"] = ""
                        else:
                            k2 = (f, "rprod")
                            state[k2] = state.get(k2, 1) * cur
                            oc[f"{f}_rprod"] = fmt_out(state[k2])
                    elif base == "counter":
                        if cur is None:
                            continue
                        if cur == "":
                            oc[f"{f}_counter"] = ""
                        else:
                            k2 = (f, "counter")
                            state[k2] = state.get(k2, 0) + 1
                            oc[f"{f}_counter"] = state[k2]
                    elif base == "from-first":
                        if cur is None:
                            continue
                        k2 = (f, "first")
                        if k2 not in state:
                            state[k2] = cur
                            oc[f"{f}_from_first"] = 0
                        else:
                            first = state[k2]
                            if cur == "" or first == "":
                                oc[f"{f}_from_first"] = ""
                            else:
                                oc[f"{f}_from_first"] = fmt_out(cur - first)
                    elif base == "ewma":
                        if cur is None or cur == "" \
                                or isinstance(cur, str):
                            continue
                        k2 = (f, "ewma")
                        if k2 not in state:
                            state[k2] = [cur] * len(alphas)
                            for i2 in range(len(alphas)):
                                oc[f"{f}_ewma_{esfx[i2]}"] = fmt_out(cur)
                        else:
                            prevs = state[k2]
                            for i2, a2 in enumerate(alphas):
                                fa = float(a2)
                                nxt2 = fa * cur + (1.0 - fa) * prevs[i2]
                                oc[f"{f}_ewma_{esfx[i2]}"] = fmt_out(nxt2)
                                prevs[i2] = nxt2

            for idx in idxs:
                ingested.append(idx)
                r2 = recs[idx]
                p_pos = len(ingested) - 1 - FWD
                for f in fields:
                    if not present(r2, f):
                        clear(f)
                        continue
                    if p_pos >= 0:
                        apply_steppers(f, p_pos)
                if p_pos >= 0:
                    emitted.add(ingested[p_pos])
            # EOS drain (step.go Transform EndOfStream): ONE nil-ingest
            # per delayed log entry — min(FWD, n) entries — so a group
            # smaller than the forward window never centers its first
            # records and they are dropped from the output, exactly as
            # the reference does (verb-step/0022: 9 of 10 records).
            for k3 in range(min(FWD, len(ingested))):
                p_pos = len(ingested) - FWD + k3
                if p_pos < 0:
                    continue
                emitted.add(ingested[p_pos])
                p = recs[ingested[p_pos]]
                for f in fields:
                    if not present(p, f):
                        clear(f)
                        continue
                    apply_steppers(f, p_pos)

        if gbf:
            order: list = []
            groups: dict = {}
            for i4, r4 in enumerate(recs):
                if not all(present(r4, g2) for g2 in gbf):
                    continue  # gok false: passed along untouched
                key = tuple(str(r4.get(g2)) for g2 in gbf)
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(i4)
            for key in order:
                grouped_idx.update(groups[key])
                run_group(groups[key])
        else:
            grouped_idx.update(range(len(recs)))
            run_group(list(range(len(recs))))

        out_recs = []
        for i4, r4 in enumerate(recs):
            if i4 in grouped_idx and i4 not in emitted:
                continue  # never window-centered: dropped (drain note)
            merged = {k5: v5 for k5, v5 in r4.items()}
            for c5, v5 in out_cols.get(i4, {}).items():
                merged[c5] = v5
            out_recs.append(merged)
        out = pd.DataFrame(out_recs)
        return out, True


    if v == "reorder":
        names = [c for c in df.columns
                 if c not in ("__row__", "__file__", "__filenum__")]
        if _has(a, "-r"):
            regs = _mlr_regexes(_flagvals(a, "-r")
                                if _flagvals(a, "-r") else a[-1])
            sel = [c for c in names if any(x.search(c) for x in regs)]
        else:
            req = _flagvals(a, "-f").split(",")
            sel = [c for c in req if c in names]
        rest = [c for c in names if c not in sel]
        if _has(a, "-e"):
            order = rest + sel
        elif _has(a, "-b") or _has(a, "-a"):
            anchor = _flagvals(a, "-b") or _flagvals(a, "-a")
            rest2 = [c for c in names if c not in sel]
            if anchor not in rest2:
                order = sel + rest2
            else:
                ai = rest2.index(anchor) + (1 if _has(a, "-a") else 0)
                order = rest2[:ai] + sel + rest2[ai:]
        else:
            order = sel + rest
        return df[order], True

    if v == "repeat":
        work = df.sort_values("__row__")
        out_rows = []
        if _has(a, "-f"):
            fld = _flagvals(a, "-f")
            for _, row in work.iterrows():
                cnt = row.get(fld)
                try:
                    cnt = int(float(cnt))
                except (TypeError, ValueError):
                    continue
                r = {k: x for k, x in row.items()
                     if k not in ("__row__", "__file__", "__filenum__")
                     and not pd.isna(x)}
                out_rows.extend([dict(r)] * max(cnt, 0))
        else:
            n = int(_flagvals(a, "-n", "1"))
            for _, row in work.iterrows():
                r = {k: x for k, x in row.items()
                     if k not in ("__row__", "__file__", "__filenum__")
                     and not pd.isna(x)}
                out_rows.extend([dict(r)] * n)
        return pd.DataFrame(out_rows), True

    if v == "template":
        if _has(a, "-t"):
            tpath = os.path.join(REFERENCE, case.files[0])
            with open(tpath) as fh:
                tfields = fh.readline().strip().split(",")
            data = df[df["__filenum__"] > 1]
        else:
            tfields = _flagvals(a, "-f").split(",")
            data = df
        fill = _flagvals(a, "--fill-with", "")
        rows = []
        for _, row in data.sort_values("__row__").iterrows():
            rows.append({c: (row[c] if c in row.index and not pd.isna(row[c])
                             else fill) for c in tfields})
        return pd.DataFrame(rows), True

    if v in ("put", "filter"):
        return _exec_put_filter(v, a, df, ofmt=case.ofmt,
                                flatsep=case.flatsep or ".",
                                force_seq=case.force_seq_dsl,
                                loads=case.loads)

    if v == "join":
        return _exec_join(a, df)

    if v in ("sub", "gsub", "ssub"):
        fields = (_flagvals(a, "-f") or "").split(",") if _has(a, "-f") else None
        pos = [x for x in a if x == "-" or not x.startswith("-")]
        if len(pos) < 2:
            raise Unsupported("sub args")
        pat, rep = pos[-2], pos[-1]
        # C-style escapes expand in replacements (and in ssub's
        # LITERAL pattern): \t \n \xHH; \\ stays a single backslash
        # (verb-sub-gsub-ssub non-windows escape cases)

        def _cesc(s9: str) -> str:
            return re.sub(
                r"\\(x[0-9a-fA-F]{2}|[tnr\\])",
                lambda mm: {"t": "\t", "n": "\n", "r": "\r",
                            "\\": "\\"}.get(mm.group(1)) or
                chr(int(mm.group(1)[1:], 16)), s9)

        rep = _cesc(rep)
        if v == "ssub":
            pat = _cesc(pat)
        work = _drop_meta(df).copy()
        if _has(a, "-a"):
            targets = [c for c in work.columns]
        elif _has(a, "-r"):
            # -r: -f names are field-name regexes (subs.go:187),
            # compiled through CompileMillerRegex ("..."/"/.../" and
            # trailing-i forms)
            pats = [_miller_regex(fx) for fx in (fields or [])]
            targets = [c for c in work.columns
                       if any(p.search(str(c)) for p in pats)]
        else:
            targets = [c for c in (fields or []) if c in work.columns]
        rep_py = _py_repl(rep)
        for c in targets:
            def one(x):
                if pd.isna(x) or not isinstance(x, str):
                    return x
                if v == "ssub":
                    return x.replace(pat, rep, 1)
                return re.sub(pat, rep_py, x, count=0 if v == "gsub" else 1)
            work[c] = work[c].map(one)
        return work, True

    if v in ("sec2gmt", "sec2gmtdate"):
        return _exec_sec2gmt(v, a, df)

    if v in ("latin1-to-utf8", "utf8-to-latin1"):
        # transformers/latin1_to_utf8.go: string VALUES only (keys
        # untouched); unconvertible values become (error)
        from miller_ray.functions import _l1_one
        work = _drop_meta(df).copy()
        for c in work.columns:
            work[c] = work[c].map(
                lambda x: _l1_one(x, v == "latin1-to-utf8")
                if isinstance(x, (str, bytes)) else x)
        return work, True

    if v == "case":
        how = ("upper" if _has(a, "-u") else "lower" if _has(a, "-l")
               else "sentence" if _has(a, "-s") else "title" if _has(a, "-t")
               else None)
        if how is None:
            raise Unsupported("case mode")
        keys_only, values_only = _has(a, "-k"), _has(a, "-v")
        fields = _flagvals(a, "-f")
        fields = fields.split(",") if fields else None
        fn = {"upper": str.upper, "lower": str.lower,
              "sentence": lambda s: s.capitalize(),
              "title": lambda s: s.title()}[how]
        work = _drop_meta(df).copy()
        targets = fields or list(work.columns)
        if not keys_only:  # values (default or -v)
            for c in targets:
                if c in work.columns:
                    work[c] = work[c].map(
                        lambda x: fn(x) if isinstance(x, str) else x)
        if not values_only:  # keys (default or -k)
            ren = {c: fn(c) for c in targets if c in work.columns and fn(c) != c}
            work = work.rename(columns=ren)
        return work, True

    if v == "nest":
        return _exec_nest(a, df)

    if v == "reshape":
        return _exec_reshape(a, df)

    if v in ("most-frequent", "least-frequent"):
        fields = _flagvals(a, "-f").split(",")
        n = int(_flagvals(a, "-n", "1"))
        brief = _has(a, "-b")
        oname = _flagvals(a, "-o", "count")
        work = _drop_meta(df)
        if any(f not in work.columns for f in fields):
            return pd.DataFrame(), False
        cnt: dict[tuple, int] = {}
        for _, row in df.sort_values("__row__").iterrows():
            key = tuple(row[f] for f in fields)
            if any(pd.isna(x) for x in key):
                continue
            cnt[key] = cnt.get(key, 0) + 1
        items = list(cnt.items())  # first-seen order preserved (py dicts)
        items.sort(key=lambda kv: -kv[1] if v == "most-frequent" else kv[1])
        rows = []
        for key, c in items[:n]:
            r = dict(zip(fields, key))
            if not brief:
                r[oname] = c
            rows.append(r)
        return pd.DataFrame(rows), True

    if v == "count-similar":
        gb = _flagvals(a, "-g").split(",")
        name = _flagvals(a, "-o", "count")
        work = df.sort_values("__row__").copy()
        work[name] = work.groupby(gb, sort=False, dropna=False)[gb[0]] \
                         .transform("size")
        # count-similar buffers per group and emits grouped at
        # end-of-stream -> not stream order
        return _drop_meta(work), False

    if v == "sparsify":
        # -s STR: remove fields whose value equals STR (default "");
        # -f restricts which fields are considered (sparsify.go)
        target = _flagvals(a, "-s", "")
        fields = _flagvals(a, "-f")
        fields = fields.split(",") if fields else None
        out_rows = []
        for _, row in df.sort_values("__row__").iterrows():
            r = {}
            for k, x in row.items():
                if k in ("__row__", "__file__", "__filenum__") or pd.isna(x):
                    continue
                applies = fields is None or k in fields
                if applies and str(x) == target:
                    continue
                r[k] = x
            out_rows.append(r)
        return pd.DataFrame(out_rows), True

    if v == "unsparsify":
        fill = _flagvals(a, "--fill-with", "")
        fields = _flagvals(a, "-f")
        work = _drop_meta(df).copy()
        if fields is not None:
            # streaming variant: add only the NAMED fields when absent
            for c in fields.split(","):
                if c not in work.columns:
                    work[c] = fill
            for c in fields.split(","):
                work[c] = work[c].where(work[c].notna(), fill)
            return work, True
        for c in work.columns:
            work[c] = work[c].where(work[c].notna(), fill)
        return work, True

    if v == "skip-trivial-records":
        work = _drop_meta(df)
        mask = work.apply(
            lambda r: any(not pd.isna(x) and x != "" for x in r), axis=1) \
            if len(work) else pd.Series([], dtype=bool)
        return work[mask], True

    if v == "remove-empty-columns":
        work = _drop_meta(df)
        keep = [c for c in work.columns
                if work[c].map(lambda x: not pd.isna(x) and x != "").any()]
        return work[keep], True

    if v == "format-values":
        int_fmt = _flagvals(a, "-i", "%d")
        float_fmt = _flagvals(a, "-f", "%f")
        str_fmt = _flagvals(a, "-s", "%s")
        coerce = _has(a, "-n")
        for fmt in (int_fmt, float_fmt, str_fmt):
            pass
        def cfmt(fmt, val):
            fmt = re.sub(r"%(-?\d*\.?\d*)(?:ll|l|h)([dioxXeEfgGs])",
                         r"%\1\2", fmt)
            return fmt % val
        work = _drop_meta(df).copy()
        for c in work.columns:
            def one(x):
                if isinstance(x, (dict, list)):
                    return x  # format-values skips collection values
                if pd.isna(x):
                    return x
                if isinstance(x, str):
                    return cfmt(str_fmt, x) if x != "" else x
                if coerce:
                    return cfmt(float_fmt, float(x))
                if isinstance(x, (int, np.integer)):
                    return cfmt(int_fmt, int(x))
                return cfmt(float_fmt, float(x))
            work[c] = work[c].map(one)
        return work, True

    if v == "unspace":
        keys_only, values_only = _has(a, "-k"), _has(a, "-v")
        ch = _flagvals(a, "-f", "_")
        work = _drop_meta(df).copy()
        if not keys_only:
            for c in work.columns:
                work[c] = work[c].map(
                    lambda x: x.replace(" ", ch) if isinstance(x, str) else x)
        if not values_only:
            work = work.rename(columns={c: c.replace(" ", ch)
                                        for c in work.columns})
        if values_only and case.ofmt == "pprint":
            # keys keep their spaces -> the golden pprint header is
            # ambiguous to re-parse (header tokens split on those very
            # spaces) — compare rendered text instead (verb-unspace/0003)
            recs = [{k: ("" if pd.isna(x) else x) for k, x in row.items()}
                    for _, row in work.iterrows()]
            return RawText(render_records(recs, "pprint",
                                          flatsep=case.flatsep or ".")), True
        return work, True

    if v == "altkv":
        rows = []
        for _, row in df.sort_values("__row__").iterrows():
            vals = [x for k, x in row.items()
                    if k not in ("__row__", "__file__", "__filenum__")
                    and not pd.isna(x)]
            r = {}
            for i2 in range(0, len(vals) - 1, 2):
                r[str(vals[i2])] = vals[i2 + 1]
            if len(vals) % 2:
                r[str(len(vals) // 2 + 1)] = vals[-1]
            rows.append(r)
        return pd.DataFrame(rows), True

    if v in ("json-stringify", "json-parse"):
        import json as _json

        fields = (_flagvals(a, "-f") or "").split(",") if _has(a, "-f") \
            else None
        keep_bad = _has(a, "-k")
        work = df.sort_values("__row__")
        out_rows = []
        for _, row in work.iterrows():
            r = {}
            for k, x in row.items():
                if str(k).startswith("__"):
                    continue
                if x is None or (isinstance(x, float) and np.isnan(x)):
                    continue
                if fields is not None and k not in fields:
                    r[k] = x
                    continue
                if v == "json-stringify":
                    if _has(a, "--jvstack"):
                        r[k] = _json.dumps(x, indent=2,
                                           ensure_ascii=False)
                    else:
                        r[k] = _json.dumps(x, separators=(", ", ": "),
                                           ensure_ascii=False)
                else:
                    if not isinstance(x, str):
                        r[k] = x
                        continue
                    try:
                        r[k] = _json.loads(x)
                    except _json.JSONDecodeError:
                        if keep_bad:
                            r[k] = x
                        else:
                            r[k] = "(error)"
            out_rows.append(r)
        return pd.DataFrame({"__rows__": out_rows}).pipe(_rows_frame), True

    if v in ("flatten", "unflatten"):
        from miller_ray import dsl as DSL

        sep = _flagvals(a, "-s") or case.flatsep or "."
        fields = (_flagvals(a, "-f") or "").split(",") if _has(a, "-f") \
            else None
        work = df.sort_values("__row__")
        out_rows = []
        for _, row in work.iterrows():
            src = {k: x for k, x in row.items()
                   if not str(k).startswith("__")
                   and x is not None
                   and not (isinstance(x, float) and np.isnan(x))}
            r: dict = {}
            if v == "flatten":
                for k, x in src.items():
                    if isinstance(x, (dict, list)) and (
                            fields is None or k in fields):
                        flat: dict = {}
                        DSL._flatten_into(flat, str(k), x, sep=sep)
                        r.update(flat)
                    else:
                        r[k] = x
            else:
                for k, x in src.items():
                    parts = str(k).split(sep)
                    if any(p == "" for p in parts):
                        # empty path segments (x@@y, @y, x@) keep the
                        # key verbatim (verb-flatten-unflatten/0011)
                        r[k] = x
                        continue
                    if sep in str(k) and (fields is None
                                          or parts[0] in fields):
                        node = r
                        for p2 in parts[:-1]:
                            nxt = node.get(p2)
                            if not isinstance(nxt, dict):
                                nxt = {}
                                node[p2] = nxt
                            node = nxt
                        node[parts[-1]] = \
                            {} if x == "{}" else [] if x == "[]" else x
                    else:
                        r[k] = x
                if fields is None:
                    from miller_ray.functions import _arrayify
                    r = {k: (_arrayify(x) if isinstance(x, dict) else x)
                         for k, x in r.items()}
            out_rows.append(r)
        return pd.DataFrame({"__rows__": out_rows}).pipe(_rows_frame), True

    if v == "clean-whitespace":
        # clean_whitespace.go: collapse internal whitespace runs to one
        # space and trim ends, in KEYS and VALUES (default both; -k
        # keys-only, -v values-only)
        keys_only = _has(a, "-k")
        vals_only = _has(a, "-v")

        def _cw(s9):
            return re.sub(r"\s+", " ", str(s9)).strip()

        rows9 = _df_records(df.sort_values("__row__").drop(
            columns=["__row__", "__file__", "__filenum__"],
            errors="ignore"))
        out_rows9 = []
        for r9 in rows9:
            nr9 = {}
            for k9, val9 in r9.items():
                nk9 = k9 if vals_only else _cw(k9)
                if not keys_only and isinstance(val9, str) and val9:
                    val9 = _cw(val9)
                    # cleaned text re-infers numerically ("  2" was a
                    # string; "2" is an int — dsl-clean-whitespace/0010)
                    try:
                        val9 = int(val9)
                    except ValueError:
                        try:
                            val9 = float(val9)
                        except ValueError:
                            pass
                nr9[nk9] = val9
            out_rows9.append(nr9)
        return pd.DataFrame(out_rows9), True

    if v == "gap":
        # gap.go: emit an EMPTY record every n records (-n) or when the
        # -g key changes; exactly one of -n/-g required. The empty
        # record renders as a blank line (dkvp) / block break (pprint).
        from miller_ray.functions import FatalError

        n_s = _flagvals(a, "-n")
        g_s = _flagvals(a, "-g")
        if (n_s is None) == (g_s is None):
            raise FatalError(
                "mlr gap: exactly one of -n or -g is required.")
        work = df.sort_values("__row__")
        rows = _df_records(work.drop(
            columns=["__row__", "__file__", "__filenum__"],
            errors="ignore"))
        out_rows: list = []
        if n_s is not None:
            n6 = int(n_s)
            for i6, r6 in enumerate(rows):
                if i6 > 0 and i6 % n6 == 0:
                    out_rows.append({})
                out_rows.append(r6)
        else:
            gbf6 = g_s.split(",")
            prevkey = None
            for r6 in rows:
                key6 = tuple(str(r6.get(k6)) for k6 in gbf6)
                if prevkey is not None and key6 != prevkey:
                    out_rows.append({})
                prevkey = key6
                out_rows.append(r6)
        return pd.DataFrame(out_rows), True

    if v == "group-like":
        # group_like.go: records regrouped by key-signature, signatures
        # in first-seen order, original order within each group
        raw = df.attrs.get("raw_records")
        work = df.sort_values("__row__")
        if raw is None or len(raw) != len(work):
            raw = [{k: x for k, x in row.items()
                    if not str(k).startswith("__")
                    and not (x is None or (isinstance(x, float)
                                           and np.isnan(x)))}
                   for _, row in work.iterrows()]
        order: list[tuple] = []
        groups: dict[tuple, list[dict]] = {}
        for r in raw:
            sig = tuple(r.keys())
            if sig not in groups:
                groups[sig] = []
                order.append(sig)
            groups[sig].append(r)
        out_rows = [r for sig in order for r in groups[sig]]
        out = pd.DataFrame({"__rows__": out_rows}).pipe(_rows_frame)
        out.attrs["out_records"] = out_rows
        return out, True

    if v == "check":
        # check.go: validates the stream and emits NO records
        return df.iloc[0:0], True

    if v == "group-by":
        # group_by.go:117-129: regroup by the VALUES of the positional
        # comma-joined field list; groups in first-seen order, original
        # order within; records missing ANY group field are dropped
        pos = [x for x in a if not x.startswith("-")
               and x != "__NO_INPUT__"]
        if not pos:
            raise Unsupported("group-by without field names")
        gflds = pos[0].split(",")
        raw = df.attrs.get("raw_records")
        work = df.sort_values("__row__")
        if raw is None or len(raw) != len(work):
            raw = [{k: x for k, x in row.items()
                    if not str(k).startswith("__")
                    and not (x is None or (isinstance(x, float)
                                           and np.isnan(x)))}
                   for _, row in work.iterrows()]
        order2: list[tuple] = []
        groups2: dict[tuple, list[dict]] = {}
        for r in raw:
            if any(f2 not in r for f2 in gflds):
                continue
            sig = tuple(str(r[f2]) for f2 in gflds)
            if sig not in groups2:
                groups2[sig] = []
                order2.append(sig)
            groups2[sig].append(r)
        out_rows = [r for sig in order2 for r in groups2[sig]]
        return pd.DataFrame({"__rows__": out_rows}).pipe(_rows_frame), True

    if v == "rank":
        # rank.go: competition rank (min method) per field, optional
        # groups; --sorted is an O(1)-space promise with identical
        # output on sorted input
        if not _flagvals(a, "-f"):
            # -f is required at CLI parse (rank.go usage; verb-rank/0006)
            from miller_ray.functions import FatalError

            raise FatalError("mlr rank: -f field names required")
        fields = _flagvals(a, "-f").split(",")
        g = _flagvals(a, "-g")
        gb = g.split(",") if g else None
        work = df.sort_values("__row__").copy()
        for f2 in fields:
            if f2 not in work.columns:
                continue
            col = pd.to_numeric(work[f2], errors="coerce")
            if gb:
                rk = col.groupby([work[x] for x in gb]).rank(method="min")
            else:
                rk = col.rank(method="min")
            work[f2 + "_rank"] = rk.astype("Int64")
        return work, True

    if v == "describe":
        # describe.go: per-field profile with mlrval type counts,
        # null/distinct counts, min/max under the numbers-before-
        # strings ordering, and the distinct-value list when small
        bad = [f2 for f2 in a if f2.startswith("-")
               and f2 not in ("-n", "--max-values", "--transpose", "-a")]
        if bad:
            # unknown options are fatal at CLI parse
            # (verb-describe/bad-option should-fail)
            from miller_ray.functions import FatalError

            raise FatalError(
                f'mlr describe: option "{bad[0]}" not recognized')
        maxv = _flagvals(a, "-n", _flagvals(a, "--max-values"))
        maxv = 20 if maxv is None else int(maxv)
        work = df.sort_values("__row__")
        cols = [c for c in work.columns if not str(c).startswith("__")]
        raw = df.attrs.get("raw_records")
        out_rows = []
        for c in cols:
            if raw is not None and len(raw) == len(work):
                # pristine records keep int-ness the union frame's
                # NaN-fill promotion loses (verb-describe/het)
                vals = [r[c] for r in raw if c in r]
            else:
                vals = [x for x in work[c]
                        if not (x is None or (isinstance(x, float)
                                              and np.isnan(x)))]
            types: dict[str, int] = {}
            for x in vals:
                tn = ("boolean" if isinstance(x, bool)
                      else "int" if isinstance(x, (int, np.integer))
                      else "float" if isinstance(x, (float, np.floating))
                      else "map" if isinstance(x, dict)
                      else "array" if isinstance(x, list)
                      else "empty" if x == "" else "string")
                types[tn] = types.get(tn, 0) + 1
            distinct: list = []
            seen: set = set()
            for x in vals:
                k2 = (type(x).__name__, str(x))
                if k2 not in seen:
                    seen.add(k2)
                    distinct.append(x)
            nums = [x for x in vals
                    if isinstance(x, (int, float, np.integer, np.floating))
                    and not isinstance(x, bool)]
            strs = [str(x) for x in vals if isinstance(x, str)]
            mn = min(nums) if nums else (min(strs) if strs else "")
            mx = max(strs) if strs else (max(nums) if nums else "")
            row = {"field_name": c, "types": types, "count": len(vals),
                   "null_count": sum(1 for x in vals if x == ""),
                   "distinct_count": len(distinct), "min": mn, "max": mx}
            if maxv > 0 and len(distinct) <= maxv:
                row["values"] = distinct
            out_rows.append(row)
        return pd.DataFrame({"__rows__": out_rows}).pipe(_rows_frame), True

    if v == "summary":
        # summary.go: per-field profile. -a selects (canonical order),
        # -x excludes from the FULL set, default is the 7-stat subset;
        # string columns: lexical min/max/percentiles, sum=0, moments
        # absent; mode ties break first-seen
        ALL = ["field_type", "count", "null_count", "distinct_count",
               "mode", "sum", "mean", "stddev", "var", "skewness",
               "minlen", "maxlen", "min", "p25", "median", "p75", "max",
               "iqr", "lof", "lif", "uif", "uof"]
        DEFAULT = ["field_type", "count", "null_count",
                   "distinct_count", "mean", "min", "max"]
        if _has(a, "--all"):
            names = list(ALL)
        elif _has(a, "-a"):
            sel = set(_flagvals(a, "-a").split(","))
            names = [n for n in ALL if n in sel]
        elif _has(a, "-x"):
            excl = set(_flagvals(a, "-x").split(","))
            names = [n for n in ALL if n not in excl]
        else:
            names = list(DEFAULT)
        work = df.sort_values("__row__")
        cols = [c for c in work.columns if not str(c).startswith("__")]
        out_rows = []
        for c in cols:
            vals = [x for x in work[c]
                    if not (x is None or (isinstance(x, float)
                                          and np.isnan(x)))]
            nums = [float(x) for x in vals
                    if isinstance(x, (int, float, np.integer, np.floating))
                    and not isinstance(x, bool)]
            is_num = len(nums) == len(vals) and nums
            svals = sorted(nums) if is_num else sorted(map(str, vals))

            def pctl(p):
                if not svals:
                    return None
                i2 = min(int(p / 100.0 * len(svals)), len(svals) - 1)
                return svals[i2]

            n2 = len(nums)
            mean = sum(nums) / n2 if n2 else None
            if n2 >= 2:
                var = sum((x - mean) ** 2 for x in nums) / (n2 - 1)
                m3 = sum((x - mean) ** 3 for x in nums) / n2
                # skewness = m3 / sample_stddev^3 (bifs/stats.go)
                skew = m3 / var ** 1.5 if var > 0 else None
            else:
                var = skew = None
            from collections import Counter as _Ctr
            cnt = _Ctr(str(x) for x in vals)
            mode_v = None
            if vals:
                best = max(cnt.values())
                for x in vals:  # first-seen tie-break (summary.go)
                    if cnt[str(x)] == best:
                        mode_v = x
                        break
            p25, p50, p75 = pctl(25), pctl(50), pctl(75)
            iqr = (p75 - p25) if is_num and p25 is not None else None
            stats = {
                "field_type": ("int" if all(
                    isinstance(x, (int, np.integer)) for x in vals)
                    else "float") if is_num else "string",
                "count": len(vals),
                "null_count": sum(1 for x in vals if x == ""),
                "distinct_count": len(cnt),
                "mode": mode_v,
                        "sum": sum(nums),
                "mean": mean if is_num else None,
                "stddev": math.sqrt(var) if is_num and var is not None
                else None,
                "var": var if is_num else None,
                "skewness": skew if is_num else None,
                "minlen": min((len(str(x)) for x in vals), default=None),
                "maxlen": max((len(str(x)) for x in vals), default=None),
                "min": svals[0] if svals else None,
                "p25": p25, "median": p50, "p75": p75,
                "max": svals[-1] if svals else None,
                "iqr": iqr,
                "lof": p25 - 3.0 * iqr if iqr is not None else None,
                "lif": p25 - 1.5 * iqr if iqr is not None else None,
                "uif": p75 + 1.5 * iqr if iqr is not None else None,
                "uof": p75 + 3.0 * iqr if iqr is not None else None,
            }
            row = {"field_name": c}
            for nm in names:
                if stats[nm] is not None:
                    row[nm] = stats[nm]
            out_rows.append(row)
        out = pd.DataFrame({"__rows__": out_rows}).pipe(_rows_frame)
        if _has(a, "--transpose"):
            tr_rows = []
            for nm in names:
                r2 = {"field_name": nm}
                for row in out_rows:
                    if nm in row:
                        r2[row["field_name"]] = row[nm]
                tr_rows.append(r2)
            out = pd.DataFrame({"__rows__": tr_rows}).pipe(_rows_frame)
        return out, True

    if v == "split":
        # split.go: -n size-capped, -m round-robin, -g by group values;
        # filenames prefix_k.suffix (makeUngroupedOutputFileName);
        # writer-format flags (--ojson etc.) may follow the verb
        fmt_out = case.ofmt
        for x in a:
            if x in _FMT_FLAGS and _FMT_FLAGS[x][0] in ("ofmt", "iofmt"):
                fmt_out = _FMT_FLAGS[x][1]
                if fmt_out == "jsonl":
                    fmt_out = "json"
        prefix = _flagvals(a, "--prefix", "split")
        suffix = _flagvals(a, "--suffix") or \
            {"json": "json", "dkvp": "dkvp", "nidx": "nidx",
             "xtab": "xtab", "pprint": "pprint", "markdown": "md",
             "tsv": "tsv", "tsvlite": "tsv",
             "csvlite": "csv"}.get(fmt_out, fmt_out)
        folder = _flagvals(a, "--folder")
        joiner = _flagvals(a, "-j", "_")
        emit_downstream = _has(a, "-v")
        work = df.sort_values("__row__")
        recs = [{k: x for k, x in row.items()
                 if not str(k).startswith("__")
                 and not (x is None or (isinstance(x, float)
                                        and np.isnan(x)))}
                for _, row in work.iterrows()]
        groups: dict[str, list[dict]] = {}
        if _has(a, "-g"):
            gflds = _flagvals(a, "-g").split(",")
            for r in recs:
                parts = [str(r.get(g2, "")) for g2 in gflds]
                name = joiner.join(parts)
                if not _has(a, "-e"):
                    from urllib.parse import quote_plus
                    name = quote_plus(name)
                if prefix:
                    name = prefix + joiner + name
                groups.setdefault(f"{name}.{suffix}", []).append(r)
        elif _has(a, "-m"):
            m = int(_flagvals(a, "-m"))
            for i2, r in enumerate(recs):
                groups.setdefault(
                    f"{prefix}_{1 + i2 % m}.{suffix}", []).append(r)
        elif _has(a, "-n"):
            n = int(_flagvals(a, "-n"))
            for i2, r in enumerate(recs):
                groups.setdefault(
                    f"{prefix}_{1 + i2 // n}.{suffix}", []).append(r)
        else:
            raise Unsupported("split requires -n/-m/-g")
        for fname, grp in groups.items():
            path = os.path.join(folder, fname) if folder else fname
            path = _redirect_write_path(
                path if os.path.isabs(path)
                else os.path.join(REFERENCE, path))
            with open(path, "w") as fh:
                fh.write(render_records(grp, fmt_out,
                                        flatsep=case.flatsep or "."))
        if emit_downstream:
            return df, True
        return df.iloc[0:0], True

    if v == "tee":
        # tee.go: write the stream to a file (format from -o or the
        # main output format), pass records through unchanged
        fmt_out = _flagvals(a, "-o", case.ofmt)
        positional = [x for x in a if not x.startswith("-")
                      and x != _flagvals(a, "-o") and x != "__NO_INPUT__"
                      and x != "__TEE_TGT__"]
        if _has(a, "-p"):
            raise Unsupported("tee to pipe")
        tgt = _flagvals(a, "__TEE_TGT__")
        if tgt:
            positional = [tgt]
        if not positional:
            raise Unsupported("tee without a filename")
        target = positional[-1]
        work = df.sort_values("__row__")
        recs = [{k: x for k, x in row.items()
                 if not str(k).startswith("__")
                 and not (x is None or (isinstance(x, float)
                                        and np.isnan(x)))}
                for _, row in work.iterrows()]
        path = _redirect_write_path(
            target if os.path.isabs(target)
            else os.path.join(REFERENCE, target))
        mode = "a" if _has(a, "-a") else "w"
        with open(path, mode) as fh:
            fh.write(render_records(recs, fmt_out,
                                    flatsep=case.flatsep or "."))
        return df, True

    if v == "rename" or v == "cut":
        # regex variants fall through to here only with -r (plain handled
        # above)
        pass

    raise Unsupported(f"verb {v} args {a}")


def _rows_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Build a DataFrame from a list-of-dicts column without pandas
    promoting int->float on sparse keys (object dtype preserved)."""
    rows = list(df["__rows__"])
    cols: list[str] = []
    for r in rows:
        for k in r:
            if k not in cols:
                cols.append(k)
    return pd.DataFrame({c: pd.Series([r.get(c) for r in rows],
                                      dtype=object) for c in cols})


def _drop_meta(df: pd.DataFrame) -> pd.DataFrame:
    out = df.sort_values("__row__") if "__row__" in df.columns else df
    return out.drop(columns=["__row__", "__file__", "__filenum__"],
                    errors="ignore")


def _mlr_regexes(spec: str):
    """Parse Miller's comma-joined /regex/[i] list (cut -r, rename -r)."""
    out = []
    for part in spec.split(","):
        flags = 0
        if part.startswith("/") and (part.endswith("/") or part.endswith("/i")):
            if part.endswith("/i"):
                flags = re.IGNORECASE
                part = part[1:-2]
            else:
                part = part[1:-1]
        out.append(re.compile(part, flags))
    return out


def _render_rec_lines(rec: dict, ofmt: str,
                      flatsep: str = ".") -> list[str]:
    """Render one record as output lines for mixed text+record
    comparison (xtab: padded key column; dkvp: k=v,k=v)."""
    from miller_ray import dsl as DSL

    flat: dict = {}
    for k, v in rec.items():
        if str(k).startswith("__"):
            continue
        if isinstance(v, (dict, list)) and len(v):
            DSL._flatten_into(flat, str(k), v, sep=flatsep)
        elif isinstance(v, dict):
            flat[k] = "{}"
        elif isinstance(v, list):
            flat[k] = "[]"
        else:
            flat[k] = v
    def rv(v):
        # integral floats are ints that went through a union-schema
        # promotion (NaN fill) — render without the float formatter
        if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
            return str(int(v))
        return DSL._print_render(v, REGTEST_OFMT[0])

    items = [(str(k), rv(v)) for k, v in flat.items()]
    if not items:
        return []
    if ofmt == "dkvp":
        return [",".join(f"{k}={v}" for k, v in items)]
    w = max(len(k) for k, _ in items)
    return [f"{k.ljust(w)} {v}" for k, v in items]


class RawText(str):
    """Sentinel for verbatim text output (dump/print) compared
    literally against expout instead of through record parsers."""


_WRITE_ROOT = os.path.join(tempfile.gettempdir(), "mlr_conf_writes")


def _redirect_write_path(path: str) -> str:
    """Map a file-write target inside the (read-only) reference tree to
    a stable scratch path. Writers (split/tee/DSL redirects) and the
    postcmp comparator both apply this mapping."""
    rel = os.path.relpath(path, REFERENCE) if os.path.isabs(path) else path
    if rel.startswith(".."):
        return path  # already outside the reference tree
    out = os.path.join(_WRITE_ROOT, rel)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    return out


def _render_value(v) -> str:
    from miller_ray import dsl as DSL  # noqa: F811 — local import

    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        # integral floats are ints that went through a union-schema
        # NaN-fill promotion
        return str(int(v))
    # the regtest harness exports MLR_OFMT=%.8f globally
    # (regtester.go:161): float-typed values render through it
    return DSL._print_render(v, REGTEST_OFMT[0])


def _csv_quote(s: str) -> str:
    if any(c in s for c in ",\"\n"):
        return '"' + s.replace('"', '""') + '"'
    return s


def render_records(recs: list[dict], fmt: str, flatsep: str = ".") -> str:
    """Render records as a Miller output file (record_writer_*.go):
    csv/tsv with schema-change header blocks, aligned pprint, vstacked
    JSON, dkvp/nidx/xtab/markdown."""
    from miller_ray import dsl as DSL

    flat_recs: list[dict] = []
    for rec in recs:
        fr: dict = {}
        for k, v in rec.items():
            if str(k).startswith("__"):
                continue
            if v is None or (isinstance(v, float) and math.isnan(v)):
                continue
            if isinstance(v, (dict, list)) and fmt != "json":
                DSL._flatten_into(fr, str(k), v, sep=flatsep)
            else:
                fr[k] = v
        flat_recs.append(fr)
    recs = flat_recs
    if fmt == "json":
        parts = [DSL._mlr_json(r, ofmt=REGTEST_OFMT[0]) for r in recs]
        return "[\n" + ",\n".join(parts) + "\n]\n" if parts else "[\n]\n"
    lines: list[str] = []
    if fmt in ("csv", "csvlite", "tsv", "tsvlite"):
        sep = "\t" if fmt.startswith("tsv") else ","
        hdr: list[str] | None = None
        for r in recs:
            keys = list(r.keys())
            if keys != hdr:
                if hdr is not None:
                    lines.append("")
                hdr = keys
                lines.append(sep.join(_csv_quote(k) for k in keys))
            lines.append(sep.join(
                _csv_quote(_render_value(r[k])) for k in keys))
        return "\n".join(lines) + "\n" if lines else ""
    if fmt == "dkvp":
        for r in recs:
            lines.append(",".join(f"{k}={_render_value(v)}"
                                  for k, v in r.items()))
        return "\n".join(lines) + "\n" if lines else ""
    if fmt == "nidx":
        for r in recs:
            lines.append(" ".join(_render_value(v) for v in r.values()))
        return "\n".join(lines) + "\n" if lines else ""
    if fmt == "xtab":
        blocks = []
        for r in recs:
            if not r:
                continue
            w = max(len(str(k)) for k in r)
            blocks.append("\n".join(f"{str(k).ljust(w)} {_render_value(v)}"
                                    for k, v in r.items()))
        return "\n\n".join(blocks) + "\n" if blocks else ""
    if fmt == "pprint":
        out_blocks = []
        block: list[dict] = []
        hdr = None
        for r in recs + [None]:
            keys = list(r.keys()) if r is not None else None
            if keys != hdr and block:
                rows = [hdr] + [[_render_value(x.get(k)) or "-"
                                 for k in hdr] for x in block]
                widths = [max(len(row[i]) for row in rows)
                          for i in range(len(hdr))]
                out_blocks.append("\n".join(
                    " ".join(c.ljust(widths[i]) if i < len(row) - 1 else c
                             for i, c in enumerate(row))
                    for row in rows))
                block = []
            hdr = keys
            if r is not None:
                block.append(r)
        return "\n\n".join(out_blocks) + "\n" if out_blocks else ""
    if fmt == "markdown":
        hdr = None
        for r in recs:
            keys = list(r.keys())
            if keys != hdr:
                hdr = keys
                lines.append("| " + " | ".join(hdr) + " |")
                lines.append("| " + " | ".join("---" for _ in hdr) + " |")
            lines.append("| " + " | ".join(
                _render_value(r.get(k)) for k in hdr) + " |")
        return "\n".join(lines) + "\n" if lines else ""
    raise Unsupported(f"render format {fmt}")


_LAST_STDERR: list[str] = []


def _render_sink_items(items: list, ofmt: str,
                       flatsep: str = ".") -> str:
    """Render a redirect sink's accumulated ("rec"/"text"/"textn",
    payload) items: records through the format writer, text lines
    verbatim."""
    recs = [p for k, p in items if k == "rec"]
    out = ""
    if recs:
        if ofmt == "json":
            # the JSON writer emits emitp paths as NESTED MAPS (the
            # writer receives the real structure; integer-keyed maps
            # stay maps — no arrayification: dsl-redirects/0041)
            def _nest(rec: dict) -> dict:
                out: dict = {}
                for k, x in rec.items():
                    parts = str(k).split(flatsep)
                    if len(parts) == 1 or any(p == "" for p in parts):
                        out[k] = x
                        continue
                    node = out
                    ok = True
                    for p2 in parts[:-1]:
                        nxt = node.setdefault(p2, {})
                        if not isinstance(nxt, dict):
                            ok = False
                            break
                        node = nxt
                    if ok:
                        node[parts[-1]] = x
                    else:
                        out[k] = x
                return out
            recs = [_nest(dict(r)) for r in recs]
        out += render_records(recs, ofmt, flatsep=flatsep)
    pend = ""
    for k, p in items:
        if k == "textn":
            pend += p
        elif k == "text":
            out += pend + p + "\n"
            pend = ""
    if pend:
        out += pend
    return out


def _write_dsl_sinks(sinks: dict, ofmt: str, flatsep: str = ".") -> None:
    """Write DSL redirect outputs: file targets into the scratch
    mapping (postcmp reads them back); stderr into _LAST_STDERR for
    the experr comparison."""
    for path, ent in (sinks.get("files") or {}).items():
        tgt = _redirect_write_path(
            path if os.path.isabs(path) else os.path.join(REFERENCE, path))
        with open(tgt, "a" if ent["mode"] == "a" else "w") as fh:
            fh.write(_render_sink_items(ent["items"], ofmt, flatsep))
    if sinks.get("stderr"):
        _LAST_STDERR.append(
            _render_sink_items(sinks["stderr"], ofmt, flatsep))


def _dsl_unassigned_warnings(src: str) -> list[str]:
    """Token-level read-before-assignment scan for `put -W`
    (cst/warnings.go): locals read before any assignment warn;
    func/subr bodies are fresh scopes seeing only their parameters
    (dsl-warnings 0015/0018/0020/0022-0025)."""
    from miller_ray import dsl as DSL
    from miller_ray.functions import REGISTRY as _REG

    try:
        toks = DSL._lex(src)
    except Exception:
        return []
    KW = {"begin", "end", "if", "elif", "else", "for", "while", "do",
          "in", "func", "subr", "call", "return", "unset", "filter",
          "print", "printn", "eprint", "eprintn", "dump", "edump",
          "tee", "emit", "emitp", "emitf", "true", "false", "all",
          "var", "str", "num", "int", "float", "bool", "map", "arr",
          "funct", "M_PI", "M_E", "NR", "FNR", "NF", "FILENAME",
          "FILENUM", "ENV", "IPS", "IFS", "IRS", "OPS", "OFS", "ORS",
          "FLATSEP"}
    warns: list[str] = []
    scopes: list[set] = [set()]
    # stack of brace depths at which a func/subr scope closes
    fn_depths: list[int] = []
    depth = 0
    i = 0
    n = len(toks)
    while i < n:
        k, v2 = toks[i]
        if k == "op" and v2 == "{":
            depth += 1
        elif k == "op" and v2 == "}":
            depth -= 1
            if fn_depths and depth < fn_depths[-1]:
                fn_depths.pop()
                scopes.pop()
        elif k == "ident" and v2 in ("func", "subr"):
            # params form the new scope
            params: set = set()
            j = i + 1
            if j < n and toks[j][0] == "ident":
                j += 1
            if j < n and toks[j] == ("op", "("):
                j += 1
                while j < n and toks[j] != ("op", ")"):
                    if toks[j][0] == "ident" and \
                            toks[j][1] not in ("var", "str", "num",
                                               "int", "float", "bool",
                                               "map", "arr", "funct"):
                        params.add(toks[j][1])
                    j += 1
            scopes.append(params)
            fn_depths.append(depth + 1)
            # skip to the opening brace of the body
            while i < n and toks[i] != ("op", "{"):
                i += 1
            continue
        elif k == "ident" and v2 == "for":
            # bind-form loop variables are assigned
            j = i + 1
            if j < n and toks[j] == ("op", "("):
                d2 = 1
                j += 1
                while j < n and d2 > 0:
                    if toks[j][1] in ("(", "[", "{"):
                        d2 += 1
                    elif toks[j][1] in (")", "]", "}"):
                        d2 -= 1
                    elif d2 >= 1 and toks[j] == ("ident", "in"):
                        break
                    elif toks[j][0] == "ident" and d2 >= 1 and \
                            toks[j][1] not in ("var", "str", "num",
                                               "int", "float", "bool",
                                               "map", "arr"):
                        scopes[-1].add(toks[j][1])
                    j += 1
        elif k == "ident" and v2 == "call":
            i += 2  # skip the subroutine name
            continue
        elif k == "ident" and v2 not in KW:
            nxt = toks[i + 1] if i + 1 < n else ("", "")
            if nxt == ("op", "("):
                i += 1  # function call name
                continue
            # assignment target? scan past [..] and .ident chains
            j = i + 1
            d2 = 0
            while j < n:
                kj, vj = toks[j]
                if vj == "[":
                    d2 += 1
                elif vj == "]":
                    d2 -= 1
                elif d2 == 0:
                    if kj == "op" and vj == "." and j + 1 < n and \
                            toks[j + 1][0] == "ident":
                        j += 1
                    else:
                        break
                j += 1
            is_assign = j < n and toks[j][0] == "op" and \
                toks[j][1] in DSL._ASSIGN_OPS
            if is_assign:
                scopes[-1].add(v2)
            elif v2 not in scopes[-1] and v2 not in _REG and \
                    v2 not in DSL._HOFS:
                warns.append(f"Variable name {v2} might not have "
                             "been assigned yet.")
        i += 1
    return warns



def _exec_put_filter(v: str, a: list[str], df: pd.DataFrame,
                     ofmt: str = "dkvp", flatsep: str = ".",
                     force_seq: bool = False,
                     loads: list | None = None):
    loads = loads or []
    orig_args = list(a)  # for the vectorized→sequential retry
    from miller_ray import dsl as DSL

    if _has(a, "-f") or _has(a, "-e"):
        # multiple -f/-e script pieces concatenate into one program
        # (mlr put -f p1 -e 'x' -e 'y'; put_or_filter.go script pieces)
        pieces = []
        rest = []
        j = 0
        while j < len(a):
            if a[j] == "-f" and j + 1 < len(a):
                with open(os.path.join(REFERENCE, a[j + 1])) as fh:
                    pieces.append(fh.read())
                j += 2
            elif a[j] == "-e" and j + 1 < len(a):
                pieces.append(a[j + 1])
                j += 2
            else:
                rest.append(a[j])
                j += 1
        # each -f/-e piece is a SEPARATE AST in the reference
        # (cst/root.go:76 loops over dslStrings) so a trailing bare
        # expression in one piece needs a ';' before the next piece's
        # first statement (dsl-multipart-scripts/0007)
        src = ";\n".join(p.rstrip().rstrip(";") if p.strip() else p
                         for p in pieces)
        a = rest
    else:
        src = None
    if loads and src is not None:
        lib_files = []
        for lf in loads:
            p2 = os.path.join(REFERENCE, lf)
            if os.path.isdir(p2):
                lib_files.extend(sorted(
                    os.path.join(p2, f2) for f2 in os.listdir(p2)
                    if f2.endswith(".mlr")))
            else:
                lib_files.append(p2)
        lib_src = "".join(open(p2).read() + "\n" for p2 in lib_files)
        src = lib_src + src
    mixed_dsl_ofmt = _flagvals(a, "__DSL_OFMT_MIXED__")
    if mixed_dsl_ofmt:
        if ofmt != "pprint":
            # only a BUFFERED main writer keeps the two streams
            # separable (pprint holds all records to end-of-stream;
            # a streaming main writer would interleave)
            raise Unsupported(
                f"{v} with a separate DSL writer format AND a "
                f"pass-through record stream (two concurrent output "
                f"writers)")
        i9 = a.index("__DSL_OFMT_MIXED__")
        a = a[:i9] + a[i9 + 2:]
        force_seq = True
    if "-s" in a:
        # put/filter -s name=value: preset @name as if by a begin block
        # (put_or_filter.go:278 "mlr put -s sum=0" == put 'begin{@sum=0}');
        # the value is type-inferred like record values
        presets = []
        rest2 = []
        j = 0
        while j < len(a):
            if a[j] == "-s" and j + 1 < len(a):
                nm, sep, val = a[j + 1].partition("=")
                if not sep:
                    raise Unsupported(f"{v} -s without name=value")
                iv = _infer(val)
                if isinstance(iv, str):
                    lit = '"' + iv.replace("\\", "\\\\") \
                                  .replace('"', '\\"') + '"'
                else:
                    lit = val
                presets.append(f"begin {{ @{nm} = {lit} }}")
                j += 2
            else:
                rest2.append(a[j])
                j += 1
        a = rest2
        if src is not None:
            src = "\n".join(presets) + "\n" + src
        else:
            # presets attach ahead of the inline expression below
            loads_src = "\n".join(presets) + "\n"
            exprs0 = [x for x in a
                      if not (x.startswith("-") and len(x) > 1
                              and not x[1].isdigit())
                      and x != "__NO_INPUT__"]
            if len(exprs0) == 1:
                a = [x for x in a if x not in exprs0]
                src = loads_src + exprs0[0]
            else:
                raise Unsupported(f"{v} -s arg shape")
    flags = [x for x in a if x.startswith("-") and len(x) > 1
             and not x[1].isdigit()]
    if "--explain" in flags and src is not None:
        # put/filter --explain: validate the DSL and report
        # (put_or_filter.go --explain; invalid programs exit 1)
        DSL.compile_program(src)  # DslError propagates (should-fail)
        return RawText(f"mlr {v}: DSL expression is valid.\n"), True
    # -S/-F are Miller-6 no-ops (type inference moved to the readers);
    # -w/-W print static-analysis warnings to stdout without changing
    # the record stream (dsl-warnings: all golden cases run under -n,
    # so the stream side is empty either way)
    if any(fl not in ("-x", "-q", "-S", "-F", "-w", "-W")
           for fl in flags):
        raise Unsupported(f"{v} flags {flags}")
    exprs = [x for x in a if x not in flags and x != "__NO_INPUT__"]
    if src is None:
        if len(exprs) != 1:
            raise Unsupported(f"{v} arg shape")
        src = exprs[0]
    if v == "filter" and not src.strip():
        # an empty filter program is fatal (put_or_filter.go:
        # "filter statement must not be empty"; dsl-empty-statements/
        # 0002) — put '' is a legal no-op
        from miller_ray.functions import FatalError

        raise FatalError("mlr: filter statement must not be empty")
    if "-W" in flags:
        # -W: static-analysis warnings become fatal (put_or_filter.go
        # -W; dsl-warnings should-fail cases). Token-level
        # read-before-assign scan; func/subr bodies see only their
        # own params (cst/warnings.go VariableNamesAreDefined).
        warns = _dsl_unassigned_warnings(src)
        if warns:
            from miller_ray.functions import FatalError

            err5 = FatalError("mlr: " + "; ".join(warns))
            # the reference prints this line to STDOUT before exit 1
            msg5 = "mlr: Exiting due to warnings treated as fatal."
            err5.partial = ([], [msg5], [("text", msg5)])
            raise err5
    try:
        prog = DSL.compile_program(src)
    except DSL.DslError as e:
        raise Unsupported(f"dsl parse: {e}")
    if v == "filter" and any(
            isinstance(st, tuple) and st and st[0] == "filter"
            for st in prog.statements):
        # the `filter` KEYWORD statement is put-only (cst validators;
        # dsl-context-specific-validation/0024-25)
        raise Unsupported(
            "dsl parse: filter statements are not valid in mlr filter")
    if "__row__" in df.columns:
        df = df.sort_values("__row__")
    work = _drop_meta(df)
    meta = df
    cols = {}
    mixed_col = None
    # int+float mixes silently upcast to double (pandas at load,
    # Arrow here), losing the per-ROW int/float identity that
    # typeof()/formatting depend on (io-infer-flags/dash-O) — detect
    # from the PRISTINE records, pre-upcast, and route to the
    # sequential interpreter
    raw0 = df.attrs.get("raw_records")
    if raw0:
        per_key_int: dict = {}
        per_key_float: dict = {}
        for r in raw0:
            for k2, x in r.items():
                if isinstance(x, bool) or x is None:
                    continue
                if isinstance(x, (int, np.integer)):
                    per_key_int[k2] = True
                elif isinstance(x, (float, np.floating)) \
                        and not np.isnan(x):
                    per_key_float[k2] = True
        for k2 in per_key_int:
            if k2 in per_key_float:
                mixed_col = k2
                break
    if mixed_col is None:
        for c in work.columns:
            try:
                cols[c] = pa.array(work[c].tolist())
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                mixed_col = c
                break
    invert = "-x" in flags
    quiet = "-q" in flags

    if prog.needs_seq or mixed_col is not None or force_seq:
        # cross-record programs (@oosvars, begin/end, emit, dump/print,
        # locals/loops/UDFs) AND mixed-type inputs (no Arrow column
        # type) run through the record-dict sequential interpreter —
        # full reference semantics at conformance scale (the
        # distributed engine path for the associative subset is
        # dsl.put_oosvar)
        if invert and v != "filter":
            raise Unsupported(f"{v} -x with sequential execution")
        raw = df.attrs.get("raw_records")
        if raw is not None and len(raw) == len(df):
            # pristine input records: true per-record key order and
            # scalar types (attrs do not survive then-chain stages)
            records = [dict(r) for r in raw]
        else:
            records = []
            for _, row in work.iterrows():
                records.append({k: x for k, x in row.items()
                                if x is not None and not (
                                    isinstance(x, float) and np.isnan(x))})
        seeds: list[dict] = [{} for _ in records]
        if "__row__" in meta.columns:
            for i, nr in enumerate(meta["__row__"].to_numpy() + 1):
                seeds[i]["\x00NR"] = int(nr)
        if "__filenum__" in meta.columns:
            fnr = meta.groupby("__filenum__",
                               sort=False).cumcount().to_numpy() + 1
            for i in range(len(records)):
                seeds[i]["\x00FNR"] = int(fnr[i])
                seeds[i]["\x00FILENUM"] = int(
                    meta["__filenum__"].iloc[i])
        else:
            for s2 in seeds:
                if "\x00NR" in s2:
                    s2["\x00FNR"] = s2["\x00NR"]
        if "__file__" in meta.columns:
            for i in range(len(records)):
                seeds[i]["\x00FILENAME"] = str(meta["__file__"].iloc[i])
        sinks: dict = {}
        try:
            # the reference regtest exports MLR_OFMT=%.8f globally
            # (regtester.go:161) — float-typed prints render through it
            recs, texts, stream = prog.run_records(
                records, seeds=seeds, quiet=quiet, ofmt=REGTEST_OFMT[0],
                want_filter=(v == "filter"), sinks=sinks,
                flatsep=flatsep,
                end_nr=df.attrs.get("stream_end_nr"),
                invert=invert,
                tag_stdout_redirect=bool(mixed_dsl_ofmt))
        except DSL.DslError as e:
            raise Unsupported(f"dsl seq: {e}")
        except (TypeError, KeyError, IndexError) as e:
            raise Unsupported(f"dsl seq {type(e).__name__}: {e}")
        _write_dsl_sinks(sinks, ofmt, flatsep)
        if mixed_dsl_ofmt and sinks.get("stdout_redir"):
            # two concurrent stdout writers: the `> stdout` redirect
            # renders through the put-level format; the buffered main
            # pprint writer flushes after it (dsl-output-redirects/0070)
            redir_recs = [p for k2, p in sinks["stdout_redir"]
                          if k2 == "rec"]
            head = render_records(redir_recs, mixed_dsl_ofmt,
                                  flatsep=flatsep)
            clean = [{k: x for k, x in r.items()
                      if not str(k).startswith("__")} for r in recs]
            body = render_records(clean, ofmt, flatsep=flatsep)
            return RawText(head + body), True
        for cmd2, ent in (sinks.get("pipes") or {}).items():
            # pipe redirect: rendered output runs through the shell
            # command; the command's stdout joins mlr's stdout
            import subprocess

            rendered = _render_sink_items(ent["items"], ofmt, flatsep)
            r2 = subprocess.run(cmd2, shell=True, input=rendered,
                                capture_output=True, text=True)
            texts = list(texts) + [ln for ln in
                                   r2.stdout.rstrip("\n").split("\n")
                                   if r2.stdout.strip()]
            stream = list(stream) + [("text", ln) for ln in
                                     r2.stdout.rstrip("\n").split("\n")
                                     if r2.stdout.strip()]
        if texts:
            if recs and ofmt == "pprint":
                # the pprint writer buffers records until end-of-stream
                # (column widths), so ALL text output precedes the
                # table(s) (dsl-subr/0017)
                clean = [{k: x for k, x in r.items()
                          if not str(k).startswith("__")} for r in recs]
                body = render_records(clean, "pprint", flatsep=flatsep)
                return RawText("\n".join(texts) + "\n" + body), True
            if recs and ofmt == "json":
                # the json writer streams: "[" at the first record,
                # ",\n" between records, "]" at stream end; prints
                # interleave in stream order
                parts: list[str] = []
                started = False
                pend = ""
                for kind2, payload in stream:
                    if kind2 == "textn":
                        pend += payload
                        continue
                    if kind2 == "text":
                        parts.append(pend + payload + "\n")
                        pend = ""
                        continue
                    r = _auto_unflatten({k: x for k, x in payload.items()
                                         if not str(k).startswith("__")},
                                        sep=flatsep)
                    obj = DSL._mlr_json(r, ofmt=REGTEST_OFMT[0])
                    parts.append(("," if started else "[") + "\n" + obj)
                    started = True
                if pend:
                    parts.append(pend)
                out_text = "".join(parts) + ("\n]" if started else "")
                return RawText(out_text), True
            if recs:
                # mixed text + record output: render records into the
                # stream in order (xtab/dkvp writers only)
                if ofmt not in ("xtab", "dkvp"):
                    raise Unsupported(
                        f"mixed dump/print and {ofmt} record output")
                lines: list[str] = []
                wrote_rec = False
                pend = ""
                for kind2, payload in stream:
                    if kind2 == "textn":
                        pend += payload
                        continue
                    if kind2 == "text":
                        lines.append(pend + payload)
                        pend = ""
                    else:
                        rl = _render_rec_lines(payload, ofmt, flatsep)
                        if not rl:
                            continue
                        if ofmt == "xtab" and wrote_rec:
                            # the xtab writer separates records with a
                            # blank line regardless of interleaved
                            # prints (record_writer_xtab.go onFirst)
                            lines.append("")
                        if pend:
                            rl[0] = pend + rl[0]
                            pend = ""
                        lines.extend(rl)
                        wrote_rec = True
                if pend:
                    lines.append(pend)
                return RawText("\n".join(lines)), True
            return RawText("\n".join(texts)), True
        recs = [{k: v2 for k, v2 in r.items()
                 if not str(k).startswith("__")} for r in recs]
        if ofmt not in ("json", "jsonl", "yaml"):
            # non-structural output auto-flattens collection-valued
            # fields with "." (mlr auto-flatten; yaml holds nesting)
            flat = []
            for r in recs:
                fr: dict = {}
                for k, v2 in r.items():
                    if isinstance(v2, (dict, list)):
                        if len(v2) == 0:
                            fr[k] = "{}" if isinstance(v2, dict) else "[]"
                        else:
                            DSL._flatten_into(fr, str(k), v2, sep=flatsep)
                    else:
                        fr[k] = v2
                flat.append(fr)
            recs = flat
        if any(isinstance(x, _SrcInt) for r in recs for x in r.values()):
            # pd.DataFrame would upcast int+float columns to float64,
            # destroying the source-form ints (-O mode)
            return pd.DataFrame(recs, dtype=object), True
        return pd.DataFrame(recs), True

    if mixed_col is not None:  # pragma: no cover — routed above
        raise Unsupported(f"mixed-type column {mixed_col}")
    t = pa.table(cols)
    seed = {}
    if "__row__" in meta.columns:
        seed["\x00NR"] = pa.array(meta["__row__"].to_numpy() + 1)
    if "__filenum__" in meta.columns:
        seed["\x00FNR"] = pa.array(
            meta.groupby("__filenum__", sort=False).cumcount().to_numpy() + 1)
        seed["\x00FILENUM"] = pa.array(meta["__filenum__"].to_numpy())
    elif "\x00NR" in seed:
        seed["\x00FNR"] = seed["\x00NR"]
    if "__file__" in meta.columns:
        seed["\x00FILENAME"] = pa.array(meta["__file__"].astype(str))

    def apply_mask(out_t, m):
        if m is None:
            return out_t
        if hasattr(m, "type") or isinstance(m, (pa.Array, pa.ChunkedArray)):
            if invert:
                m = pc.invert(m)
            return out_t.filter(pc.fill_null(m, False))
        keep = bool(m) != invert
        return out_t if keep else out_t.slice(0, 0)

    try:
        out_t, mask, bare = prog.run(t, seed_env=seed)
        if v == "filter":
            pred = bare if bare is not None else mask
            if pred is None:
                if any(isinstance(st, tuple) and st and st[0] == "expr"
                       for st in prog.statements):
                    # the bare predicate evaluated ABSENT (e.g.
                    # $nosuchfield > .3): absent is not true, so no
                    # record passes (dsl-functional-tests/0012)
                    out_t = out_t.slice(0, 0)
                else:
                    raise Unsupported("filter without predicate")
            else:
                out_t = apply_mask(out_t, pred)
        else:
            out_t = apply_mask(out_t, mask)
    except Unsupported:
        raise
    except Exception:
        # the vectorized Arrow path cannot express per-VALUE type
        # outcomes (e.g. int($1, 8) yielding int for some rows and
        # "(error)" for others, then arithmetic on the mix) or
        # collection-of-columns constructs ([$a,$b][1]); the
        # record-dict interpreter can — retry there
        # (dsl-int-function/0004, dsl-array-map-indexing/0014).
        # A genuine DSL error re-raises in the sequential pass and is
        # itemized there.
        return _exec_put_filter(v, orig_args, df, ofmt=ofmt,
                                flatsep=flatsep, force_seq=True,
                                loads=loads)
    return out_t.to_pandas(), True


def _cmp_keys(x, y) -> int:
    """Miller mlrval ordering: numbers numerically, numbers < strings."""
    xn = isinstance(x, (int, float, np.integer, np.floating))
    yn = isinstance(y, (int, float, np.integer, np.floating))
    if xn and yn:
        return -1 if x < y else (1 if x > y else 0)
    if xn != yn:
        return -1 if xn else 1
    return -1 if str(x) < str(y) else (1 if str(x) > str(y) else 0)


def _exec_join(a: list[str], df: pd.DataFrame):
    """Verb join (join.go): -f left file vs stream; default unsorted
    half-streaming hash join (ingestLeftFile), -s = sorted-merge via a
    JoinBucketKeeper simulation (join_bucket_keeper.go:118) whose
    pairing depends on input ORDER — required for the scrambled
    het-join fixtures."""
    a = [x for tok in a for x in
         (tok.split("=", 1) if tok.startswith("--lp=") or tok.startswith("--rp=")
          else [tok])]
    j = _flagvals(a, "-j")
    lf = _flagvals(a, "-l", j)
    rf = _flagvals(a, "-r", j)
    jout = j or lf
    if lf is None or rf is None:
        raise Unsupported("join without key names")
    lk = _flagvals(a, "--lk", _flagvals(a, "--left-keep-field-names")) \
        if (_has(a, "--lk") or _has(a, "--left-keep-field-names")) \
        else None
    rk = _flagvals(a, "--rk", _flagvals(a, "--right-keep-field-names")) \
        if (_has(a, "--rk") or _has(a, "--right-keep-field-names")) \
        else None
    # join.go:74-75: prefixes default EMPTY and, when given, apply to
    # ALL non-join fields of that side, paired and unpaired records
    # alike; colliding names without prefixes overwrite (map semantics)
    lp = _flagvals(a, "--lp", "")
    rp = _flagvals(a, "--rp", "")
    emit_paired = not _has(a, "--np")
    emit_ul = _has(a, "--ul")
    emit_ur = _has(a, "--ur")
    sorted_mode = _has(a, "-s") or _has(a, "--sorted-input")
    ignore_empty = _has(a, "--ignore-empty")

    left = df[df["__filenum__"] == 1].sort_values("__row__")
    right = df[df["__filenum__"] > 1].sort_values("__row__")

    def recs(sub: pd.DataFrame) -> list[dict]:
        out = []
        for _, row in sub.iterrows():
            out.append({k: x for k, x in row.items()
                        if k not in ("__row__", "__file__", "__filenum__")
                        and not pd.isna(x)})
        return out

    # multi-field join keys: -j/-l/-r take comma-separated lists
    # (join.go splitAxisNames)
    fval = _flagvals(a, "-f")
    # when -f's FILE resolved, parse_cmd moved it to case.files and the
    # next args token is another flag; a path-looking leftover means
    # the file could not be opened
    if fval is not None and not fval.startswith("-") \
            and not os.path.exists(os.path.join(REFERENCE, fval)) \
            and not os.path.exists(fval):
        # join -f FILE whose path did not resolve to an input: the
        # reference fails to open it (non-windows-left-file-not-found)
        from miller_ray.functions import FatalError

        raise FatalError(f"mlr: open {fval} failed")
    lfs = lf.split(",")
    rfs = rf.split(",")
    jouts = jout.split(",")
    lrecs, rrecs = recs(left), recs(right)
    if lk is not None:
        # --lk: keep only these left fields (join fields implied);
        # --lk "" makes the left file a pure row-selector (join.go:23)
        keep_l = {k for k in (lk or "").split(",") if k} | set(lfs)
        lrecs = [{k: v for k, v in r.items() if k in keep_l}
                 for r in lrecs]
    if rk is not None:
        keep_r = {k for k in (rk or "").split(",") if k} | set(rfs)
        rrecs = [{k: v for k, v in r.items() if k in keep_r}
                 for r in rrecs]
    if ignore_empty:
        # --ignore-empty: records whose join value is "" never pair
        def usable(rec, kfs):
            return all(kf in rec and rec[kf] != "" for kf in kfs)
    else:
        def usable(rec, kfs):
            return all(kf in rec for kf in kfs)

    def pair(lrec: dict, rrec: dict) -> dict:
        out = {jo: rrec.get(rfn) for jo, rfn in zip(jouts, rfs)}
        for k, x in lrec.items():
            if k not in lfs:
                out[lp + k] = x
        for k, x in rrec.items():
            if k not in rfs:
                out[rp + k] = x
        return out

    def solo(rec: dict, kfs: list, prefix: str) -> dict:
        kmap = dict(zip(kfs, jouts))
        out = {}
        for k, x in rec.items():
            if k in kmap:
                out[kmap[k]] = x
            else:
                out[prefix + k] = x
        return out

    paired_out: list[dict] = []
    ur_out: list[dict] = []
    ul_out: list[dict] = []

    if not sorted_mode:
        from collections import defaultdict

        lmap: dict = defaultdict(list)
        for lr in lrecs:
            if usable(lr, lfs):
                lmap[tuple(str(lr[k]) for k in lfs)].append(lr)
        matched: set = set()
        for rr in rrecs:
            if not usable(rr, rfs):
                ur_out.append(rr)
                continue
            key = tuple(str(rr[k]) for k in rfs)
            if key in lmap:
                matched.add(key)
                for lr in lmap[key]:
                    paired_out.append(pair(lr, rr))
            else:
                ur_out.append(rr)
        for lr in lrecs:
            if not usable(lr, lfs) or tuple(
                    str(lr[k]) for k in lfs) not in matched:
                ul_out.append(lr)
    else:
        # genuinely key-sorted inputs run through the ENGINE op
        # (verbs.sorted_merge_join: one co-partitioned bucket_apply);
        # the bucket-keeper simulation below only covers the
        # scrambled-input fixtures whose missed-pair output is an
        # input-order artifact of the reference's streaming keeper
        def _tup_le(x: tuple, y: tuple) -> bool:
            for a2, b2 in zip(x, y):
                c2 = _cmp_keys(a2, b2)
                if c2 != 0:
                    return c2 < 0
            return True

        def _key_sorted(rs: list[dict], kfs: list[str]) -> bool:
            ks = [tuple(r[k] for k in kfs) for r in rs]
            return all(_tup_le(ks[i2], ks[i2 + 1])
                       for i2 in range(len(ks) - 1))

        all_usable = all(usable(lr, lfs) for lr in lrecs) and \
            all(usable(rr, rfs) for rr in rrecs)
        if lrecs and rrecs and all_usable and _key_sorted(lrecs, lfs) \
                and _key_sorted(rrecs, rfs):
            from miller_ray import verbs

            lframe = pd.DataFrame(lrecs)
            rframe = pd.DataFrame(rrecs)
            # groupby keys must agree in type across sides (the sim
            # hashes str()-keys); stringify for the exchange, the
            # normalized comparison re-infers numbers
            for kf, rf2 in zip(lfs, rfs):
                lframe[kf] = lframe[kf].astype(str)
                rframe[rf2] = rframe[rf2].astype(str)
            out = verbs.sorted_merge_join(
                _ds(rframe), lframe, right_on=rfs, left_on=lfs,
                emit_paired=emit_paired, emit_unpaired_left=emit_ul,
                emit_unpaired_right=emit_ur, lp=lp, rp=rp,
                ignore_empty=ignore_empty).to_pandas()
            out = out.rename(columns=dict(zip(rfs, jouts)))
            return out, False
        # bucket keeper: left grouped by CONSECUTIVE equal keys; advance
        # only forward as right keys arrive
        if len(lfs) > 1:
            raise Unsupported("sorted join with multi-field keys")
        buckets: list[tuple[object, list[dict], list[bool]]] = []
        for lr in lrecs:
            if not usable(lr, lfs):
                ul_out.append(lr)
                continue
            key = lr[lf]
            if buckets and _cmp_keys(buckets[-1][0], key) == 0:
                buckets[-1][1].append(lr)
            else:
                buckets.append((key, [lr], [False]))
        bi = 0
        for rr in rrecs:
            if not usable(rr, rfs):
                ur_out.append(rr)
                continue
            k = rr[rf]
            while bi < len(buckets) and _cmp_keys(buckets[bi][0], k) < 0:
                if not buckets[bi][2][0]:
                    ul_out.extend(buckets[bi][1])
                bi += 1
            if bi < len(buckets) and _cmp_keys(buckets[bi][0], k) == 0:
                buckets[bi][2][0] = True
                for lr in buckets[bi][1]:
                    paired_out.append(pair(lr, rr))
            else:
                ur_out.append(rr)
        while bi < len(buckets):
            if not buckets[bi][2][0]:
                ul_out.extend(buckets[bi][1])
            bi += 1

    rows = []
    if emit_paired:
        rows.extend(paired_out)
    if emit_ul:
        rows.extend(solo(r, lfs, lp) for r in ul_out)
    if emit_ur:
        rows.extend(solo(r, rfs, rp) for r in ur_out)
    return pd.DataFrame(rows), False


def _exec_sec2gmt(v: str, a: list[str], df: pd.DataFrame):
    import datetime as _dt

    decimals = 0
    unit = 1.0
    fields = None
    for x in a:
        if re.fullmatch(r"-[1-9]", x):
            decimals = int(x[1:])
        elif x == "--millis":
            unit = 1e3
        elif x == "--micros":
            unit = 1e6
        elif x == "--nanos":
            unit = 1e9
        elif not x.startswith("-"):
            fields = x.split(",")
    if fields is None:
        raise Unsupported("sec2gmt fields")

    def conv(val):
        if pd.isna(val) or isinstance(val, str) and not re.fullmatch(
                r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", str(val)):
            return val
        x = float(val) / unit
        secs = math.floor(x)
        frac = x - secs
        if decimals:
            # Miller TRUNCATES the fractional seconds (sec2gmt.go)
            fr = math.floor(frac * 10 ** decimals)
            if fr >= 10 ** decimals:
                secs += 1
                fr = 0
        base = _dt.datetime.fromtimestamp(secs, _dt.timezone.utc)
        if v == "sec2gmtdate":
            return base.strftime("%Y-%m-%d")
        s = base.strftime("%Y-%m-%dT%H:%M:%S")
        if decimals:
            return f"{s}.{fr:0{decimals}d}Z"
        return s + "Z"

    work = _drop_meta(df).copy()
    for f in fields:
        if f in work.columns:
            work[f] = work[f].map(conv)
    return work, True


def _exec_nest(a: list[str], df: pd.DataFrame):
    fs = _IFS_NAMES.get(_flagvals(a, "--nested-fs", ";"),
                        _flagvals(a, "--nested-fs", ";"))
    ps = _IFS_NAMES.get(_flagvals(a, "--nested-ps", ":"),
                        _flagvals(a, "--nested-ps", ":"))
    explode = "--explode" in a
    implode = "--implode" in a
    values = "--values" in a
    pairs = "--pairs" in a
    across_records = "--across-records" in a
    across_fields = "--across-fields" in a
    if _flagvals(a, "--evar"):
        explode, values, across_records = True, True, True
        fs = _flagvals(a, "--evar")
    if _flagvals(a, "--ivar"):
        implode, values, across_records = True, True, True
        fs = _flagvals(a, "--ivar")
    rx = _flagvals(a, "-r")
    if rx:
        regs = _mlr_regexes(rx)
        fields = [c for c in df.columns
                  if c not in ("__row__", "__file__", "__filenum__")
                  and any(r.search(c) for r in regs)]
    else:
        fields = (_flagvals(a, "-f") or "").split(",")
    work_rows = [({k: x for k, x in row.items()
                   if k not in ("__row__", "__file__", "__filenum__")
                   and not pd.isna(x)})
                 for _, row in df.sort_values("__row__").iterrows()]

    for field_ in fields:
        new_rows: list[dict] = []
        if explode and values and across_records:
            for r in work_rows:
                if field_ not in r:
                    new_rows.append(r)
                    continue
                for piece in str(r[field_]).split(fs):
                    rr = dict(r)
                    rr[field_] = _infer(piece)
                    new_rows.append(rr)
        elif explode and values and across_fields:
            for r in work_rows:
                if field_ not in r:
                    new_rows.append(r)
                    continue
                rr = {}
                for k, x in r.items():
                    if k == field_:
                        for i2, piece in enumerate(str(x).split(fs), 1):
                            rr[f"{field_}_{i2}"] = _infer(piece)
                    else:
                        rr[k] = x
                new_rows.append(rr)
        elif explode and pairs and across_records:
            for r in work_rows:
                if field_ not in r:
                    new_rows.append(r)
                    continue
                if str(r[field_]) == "":  # empty -> zero pairs, no record
                    continue
                for piece in str(r[field_]).split(fs):
                    k2, _, v2 = piece.partition(ps)
                    rr = {k: x for k, x in r.items() if k != field_}
                    rr[k2] = _infer(v2)
                    new_rows.append(rr)
        elif explode and pairs and across_fields:
            for r in work_rows:
                if field_ not in r:
                    new_rows.append(r)
                    continue
                rr = {}
                for k, x in r.items():
                    if k == field_:
                        for piece in str(x).split(fs):
                            k2, _, v2 = piece.partition(ps)
                            rr[k2] = _infer(v2)
                    else:
                        rr[k] = x
                new_rows.append(rr)
        elif implode and values and across_records:
            seen: dict[tuple, dict] = {}
            order: list[tuple] = []
            for r in work_rows:
                if field_ not in r:
                    new_rows.append(r)
                    continue
                key = tuple(sorted((k, str(x)) for k, x in r.items()
                                   if k != field_))
                if key in seen:
                    seen[key][field_] = f"{seen[key][field_]}{fs}{r[field_]}"
                else:
                    rr = dict(r)
                    rr[field_] = str(r[field_])
                    seen[key] = rr
                    order.append(key)
            new_rows.extend(seen[k] for k in order)
        elif implode and values and across_fields:
            rxp = re.compile(re.escape(field_) + r"_\d+$")
            for r in work_rows:
                pieces = [str(x) for k, x in r.items() if rxp.fullmatch(k)]
                if not pieces:
                    new_rows.append(r)
                    continue
                rr = {}
                placed = False
                for k, x in r.items():
                    if rxp.fullmatch(k):
                        if not placed:
                            rr[field_] = fs.join(pieces)
                            placed = True
                    else:
                        rr[k] = x
                new_rows.append(rr)
        else:
            raise Unsupported(f"nest mode {a}")
        work_rows = new_rows
    return pd.DataFrame(work_rows), True


def _exec_reshape(a: list[str], df: pd.DataFrame):
    work_rows = [({k: x for k, x in row.items()
                   if k not in ("__row__", "__file__", "__filenum__")
                   and not pd.isna(x)})
                 for _, row in df.sort_values("__row__").iterrows()]
    if _has(a, "-s"):
        kname, vname = _flagvals(a, "-s").split(",")
        seen: dict[tuple, dict] = {}
        order: list[tuple] = []
        passthrough = []
        for r in work_rows:
            if kname not in r or vname not in r:
                # a record without the key+value pair passes through
                passthrough.append(r)
                continue
            other = {k: x for k, x in r.items() if k not in (kname, vname)}
            key = tuple(sorted((k, str(x)) for k, x in other.items()))
            if key not in seen:
                seen[key] = dict(other)
                order.append(key)
            seen[key][str(r[kname])] = r.get(vname, "")
        return pd.DataFrame([seen[k] for k in order] + passthrough), True
    # wide -> long
    if _has(a, "-r"):
        # reshape -r is ONE regex (not a comma-joined list — regexes
        # like ^.{2,10}$ contain commas)
        spec = _flagvals(a, "-r")
        flags2 = 0
        if spec.startswith("/") and spec.endswith("/i"):
            flags2, spec = re.IGNORECASE, spec[1:-2]
        elif spec.startswith("/") and spec.endswith("/"):
            spec = spec[1:-1]
        rx1 = re.compile(spec, flags2)
        def hits(r):
            return [k for k in r if rx1.search(k)]
    else:
        flds = _flagvals(a, "-i").split(",")
        def hits(r):
            return [k for k in r if k in flds]
    kname, vname = _flagvals(a, "-o").split(",")
    out = []
    for r in work_rows:
        hit = hits(r)
        if not hit:
            out.append(r)
            continue
        other = {k: x for k, x in r.items() if k not in hit}
        for k in hit:
            rr = dict(other)
            rr[kname] = k
            rr[vname] = r[k]
            out.append(rr)
    return pd.DataFrame(out), True


class Unsupported(Exception):
    pass


def _collapse_groups(columns, subs):
    groups: dict[str, list[str]] = {}
    for c in columns:
        for sub_ in subs:
            if sub_ in c:
                groups.setdefault(c.replace(sub_, ""), []).append(c)
                break
    return groups


def _mask_empty_groups(out, work, accs, subs, present=None):
    """A record with NO fields in a collapse group emits NO stats for
    it (no accumulator is created) — mask count=0 artifacts to absent.
    Fields that are PRESENT but void still create the accumulator, so
    sum renders 0 for them (mix-null-field-input/0014)."""
    for stem, cols in _collapse_groups(
            [c for c in work.columns], subs).items():
        if present is not None:
            valid = present[[c for c in cols if c in present.columns]] \
                .any(axis=1).to_numpy()
        else:
            valid = work[cols].notna().any(axis=1).to_numpy()
        for acc in accs:
            col = f"{stem}_{acc}"
            if col in out.columns:
                out.loc[~valid, col] = np.nan
    return out


def _merge_fields_mixed(work, accs, subs, keep):
    """Row-wise merge-fields under Miller's mixed-type total order."""
    from miller_ray.engine import exact as EX

    groups = _collapse_groups(list(work.columns), subs)
    out = work.copy() if keep else work.drop(
        columns=[c for cols in groups.values() for c in cols])
    for stem, cols in groups.items():
        for acc in accs:
            vals = []
            for _, row in work.iterrows():
                items = [row[c] for c in cols if not pd.isna(row[c])]
                if not items:
                    vals.append(np.nan)
                    continue
                srt = EX.miller_sorted(items)
                if acc == "min":
                    vals.append(EX.percentile_type1(srt, 0))
                elif acc == "max":
                    vals.append(EX.percentile_type1(srt, 100))
                elif acc == "sum":
                    nums = [x for x in items
                            if isinstance(x, (int, float, np.integer, np.floating))]
                    vals.append(sum(nums))
                elif acc == "count":
                    vals.append(len(items))
                elif acc == "median" or re.fullmatch(r"p\d+(\.\d+)?", acc):
                    pp = 50.0 if acc == "median" else float(acc[1:])
                    vals.append(EX.percentile_type1(srt, pp))
                else:
                    raise Unsupported(f"mixed merge-fields acc {acc}")
            out[f"{stem}_{acc}"] = vals
    return out


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _norm_num(x: float) -> str:
    if abs(x) < 1e15 and float(x).is_integer():
        return "%d" % int(x)
    return "%.5g" % x


def _norm_coll(v):
    """Normalize numbers inside collection values so our full-precision
    floats compare equal to Miller's %.8f-rendered expout JSON."""
    if isinstance(v, dict):
        # key-sorted: Arrow struct round-trips reorder nested map keys
        # (record-level keys are sorted in _rec_key already)
        return {str(k): _norm_coll(x)
                for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    if isinstance(v, (list, np.ndarray)):
        # ndarray: an Arrow list column round-tripped through pandas
        return [_norm_coll(x) for x in v]
    if isinstance(v, float) and not math.isnan(v) and REGTEST_OFMT[0]:
        # render through the regtest MLR_OFMT first, as Miller does for
        # floats inside collections, so a value sitting on a 5-sig-fig
        # normalization boundary lands in the same cell as the expout's
        # %.8f-rounded text (dsl-indexing/0002: 0.1149449987 vs
        # 0.11494500)
        v = float(REGTEST_OFMT[0] % v)
    return _norm(v)


def _df_records(df: pd.DataFrame) -> list[dict]:
    """DataFrame → record dicts, preserving exact cell objects.
    ``DataFrame.to_dict("records")`` boxes values to native types
    (``maybe_box_native``), which strips int SUBCLASSES like _SrcInt
    and with them the -O source-form rendering."""
    cols = list(df.columns)
    data = [df[c].tolist() for c in cols]
    return [dict(zip(cols, row)) for row in zip(*data)]


def _norm(v) -> str:
    # 5 significant digits for non-integers: Miller renders floats at 8
    # DECIMALS (already rounded), so comparing more precision than that
    # double-rounds; integers compare exactly below 2^50
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "\x00absent"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, bytes):
        return v.hex()  # mlrval_output.go:96 bytes render as hex
    if isinstance(v, _SrcInt):
        # source-form ints RENDER as their original text ("0123"),
        # so normalize the text exactly like the parsed expout side
        v = v.src
    elif isinstance(v, (int, np.integer, float, np.floating)):
        return _norm_num(float(v))
    s = str(v)
    try:
        return _norm_num(float(s))
    except ValueError:
        pass
    try:
        if re.fullmatch(r"[+-]?0[xXbB][0-9a-fA-F]+", s):
            n = int(s, 0)
            if 2**63 <= n < 2**64:
                n -= 2**64  # int64 bit pattern (scan.go)
            return _norm_num(float(n))
    except ValueError:
        pass
    return s


def _rec_key(rec: dict) -> tuple:
    # Miller emits VOID ("") where an accumulator has no value (e.g.
    # stddev of one sample); treat void == absent for comparison
    out = []
    for k, v in rec.items():
        if k is None:
            # csv.DictReader puts ragged-row extras under None — the
            # strict reader drops them (io-tsv-auto-unsparsify/over)
            continue
        if isinstance(v, (dict, list, np.ndarray)):
            out.append((k, str(_norm_coll(v))))
            continue
        nv = _norm(v)
        if nv not in ("\x00absent", ""):
            out.append((k, nv))
    return tuple(sorted(out))


def compare(ours: pd.DataFrame, expected: list[dict], ordered: bool) -> tuple[bool, str]:
    our_recs = [] if ours is None or ours.empty else _df_records(ours)
    return compare_recs(our_recs, expected, ordered)


def _tol_equal(ka: tuple, kb: tuple) -> bool:
    """Second-pass record equality with relative numeric tolerance —
    catches double-rounding at the last normalized digit (Miller prints
    8 decimals; our full-precision value can round the 5th sig digit
    the other way)."""
    da, db = dict(ka), dict(kb)
    if set(da) != set(db):
        return False
    for k in da:
        va, vb = da[k], db[k]
        if va == vb:
            continue
        try:
            fa, fb = float(va), float(vb)
        except ValueError:
            return False
        # one 5-sig-fig normalization grid cell = 1e-4 relative
        if not (abs(fa - fb) <= 2e-4 * max(1e-30, abs(fa), abs(fb))
                or abs(fa - fb) < 1e-9):
            return False
    return True


def _tol_multiset_equal(a: list[tuple], b: list[tuple]) -> bool:
    ca, cb = Counter(a), Counter(b)
    rem_a = list((ca - cb).elements())
    rem_b = list((cb - ca).elements())
    if len(rem_a) != len(rem_b):
        return False
    for kb in rem_b:
        for i, ka in enumerate(rem_a):
            if _tol_equal(ka, kb):
                rem_a.pop(i)
                break
        else:
            return False
    return True


def compare_recs(our_recs: list[dict], expected: list[dict],
                 ordered: bool) -> tuple[bool, str]:
    # All-ABSENT records (verb gap's blank-line markers) are invisible
    # to the record-level compare: every reader consumes blank lines as
    # record separators, so the parsed expout side never carries them.
    # All-VOID records (skip-trivial-records semantics) still compare.
    def _all_absent(r: dict) -> bool:
        return all(v is None or (isinstance(v, float) and math.isnan(v))
                   for k, v in r.items() if k is not None)

    a = [_rec_key(r) for r in our_recs if not _all_absent(r)]
    b = [_rec_key(r) for r in expected if not _all_absent(r)]
    if ordered:
        ok = a == b or (len(a) == len(b)
                        and all(x == y or _tol_equal(x, y)
                                for x, y in zip(a, b)))
    else:
        ok = Counter(a) == Counter(b) or _tol_multiset_equal(a, b)
    if ok:
        return True, "ok"
    return False, f"ours={len(a)} recs vs exp={len(b)}; first diff: " + str(
        next(iter(set(map(tuple, b)) - set(map(tuple, a))), "extra rows"))[:200]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _freqify_modes(recs: list[dict], df: pd.DataFrame, gb: list[str] | None):
    """Replace mode/antimode VALUES by their frequency in the input.

    Miller's mode tie-break is first-seen (stream order); this engine's
    is deterministic (count, value) — SURVEY.md §1.6 documents the
    divergence. Both answers are valid modes iff they have the same
    multiplicity, which is what this normalization checks."""
    out = []
    for r in recs:
        r = dict(r)
        for k in list(r):
            m = re.fullmatch(r"(.+)_(antimode|mode)", k)
            if not m or m.group(1) not in df.columns:
                continue
            fld = m.group(1)
            sub = df
            for g in gb or []:
                if g in r:
                    sub = sub[sub[g].astype(str) == str(r[g])]
            target = _norm(r[k])
            freq = 0
            for v, c in sub[fld].value_counts(dropna=True).items():
                if _norm(v) == target:
                    freq = int(c)
                    break
            r[k] = f"freq:{freq}"
        out.append(r)
    return out


def _auto_unflatten(rec: dict, sep: str = ".") -> dict:
    from miller_ray.functions import _arrayify, _infer_str

    out: dict = {}
    for k, v in rec.items():
        parts = str(k).split(sep)
        if len(parts) == 1 or any(p == "" for p in parts):
            # non-dotted keys still pass through unflattenTerminal:
            # "{}"/"[]" strings restore to empty collections
            # (mlrmap_flatten_unflatten.go:257-271)
            out[k] = {} if v == "{}" else [] if v == "[]" else v
            continue
        node = out
        for p in parts[:-1]:
            nxt = node.get(p)
            if not isinstance(nxt, dict):
                nxt = {}
                node[p] = nxt
            node = nxt
        if v == "{}":
            v = {}  # flatten writes empty collections as "{}"/"[]"
        elif v == "[]":
            v = []  # (flatten_unflatten.go); unflatten restores them
        elif isinstance(v, str):
            v = _infer_str(v)
        node[parts[-1]] = v
    return {k: (_arrayify(v) if isinstance(v, dict) else v)
            for k, v in out.items()}


def run_case(case_dir: str) -> tuple[str, str]:
    """Returns (status, detail); status in {pass, fail, skip}."""
    expect_fail = os.path.exists(os.path.join(case_dir, "should-fail"))
    envfile = os.path.join(case_dir, "env")
    saved_env: dict = {}
    if os.path.exists(envfile):
        # per-case environment (regtester.go EnvName): set for the
        # duration of the case, restored after
        for line in open(envfile).read().splitlines():
            k, sep, v2 = line.partition("=")
            if sep and k.strip():
                saved_env[k.strip()] = os.environ.get(k.strip())
                os.environ[k.strip()] = v2
    saved_ofmt = REGTEST_OFMT[0]
    if "non-windows/dsl-redirects" in case_dir:
        # these expouts were generated before regtester.go:161 set
        # MLR_OFMT globally (the regtester skips non-windows/* cases
        # unconditionally, regtester.go:371, so they were never
        # regenerated) — full float precision; the sibling
        # verb-sub-gsub-ssub/non-windows expouts DO carry %.8f
        REGTEST_OFMT[0] = None
    try:
        return _run_case_inner(case_dir, expect_fail)
    except Unsupported as e:
        return "skip", str(e)
    finally:
        REGTEST_OFMT[0] = saved_ofmt
        for k, old in saved_env.items():
            if old is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = old


def _ast_echo(seg: list[str]) -> tuple[str, list[str]]:
    """Strip ``-v`` from a put/filter segment and return the reference's
    AST echo header (put_or_filter.go:440-449 echoDSLString +
    printASTAsTree; tree format per pkg/parsing/mlr.bnf annotations,
    reproduced by miller_ray.dsl_ast)."""
    from miller_ray import dsl_ast as AST

    args = seg[1:]
    srcs: list[str] = []
    rest = [seg[0]]
    j = 0
    while j < len(args):
        a = args[j]
        if a == "-v":
            j += 1
        elif a in ("-f", "-e") and j + 1 < len(args):
            if a == "-f":
                with open(os.path.join(REFERENCE, args[j + 1])) as fh:
                    srcs.append(fh.read())
            else:
                srcs.append(args[j + 1])
            rest.extend(args[j:j + 2])
            j += 2
        else:
            rest.append(a)
            j += 1
    if not srcs:
        inline = [x for x in rest[1:] if x != "__NO_INPUT__"
                  and not (x.startswith("-") and len(x) > 1)]
        if len(inline) != 1:
            raise Unsupported("put -v arg shape")
        srcs = [inline[0]]
    try:
        hdr = "".join(AST.verbose_header(s) for s in srcs)
    except AST.AstError as e:
        raise Unsupported(f"ast echo: {e}")
    return hdr, rest


_AUXENTS = ("lecat", "termcvt", "hex", "unhex")


def _run_auxent(case_dir: str, cmd: str) -> tuple[str, str]:
    """mlr auxiliary byte-level entry points (pkg/auxents): lecat,
    termcvt, hex, unhex. Pure byte transforms with optional `> file`
    shell redirect (mapped to scratch) and byte-exact expout/postcmp
    comparison."""
    toks = shlex.split(cmd.strip())
    toks = toks[1:]  # past "mlr"
    verb = toks[0]
    toks = toks[1:]
    flags: list[str] = []
    infiles: list[str] = []
    outfile: str | None = None
    i = 0
    while i < len(toks):
        t = toks[i]
        if t == "<":
            infiles.append(toks[i + 1])
            i += 2
        elif t == ">":
            outfile = toks[i + 1]
            i += 2
        elif t.startswith("-"):
            flags.append(t)
            i += 1
        else:
            infiles.append(t)
            i += 1
    data = b"".join(
        open(os.path.join(REFERENCE, f2), "rb").read() for f2 in infiles)
    if verb == "lecat":
        out = bytearray()
        for b2 in data:
            if b2 == 0x0d:
                out += b"[CR]"
            elif b2 == 0x0a:
                out += b"[LF]\n"
            else:
                out.append(b2)
        result = bytes(out)
    elif verb == "termcvt":
        terms = {"--cr2crlf": (b"\r", b"\r\n"), "--lf2crlf": (b"\n", b"\r\n"),
                 "--crlf2cr": (b"\r\n", b"\r"), "--crlf2lf": (b"\r\n", b"\n"),
                 "--cr2lf": (b"\r", b"\n"), "--lf2cr": (b"\n", b"\r")}
        it, ot = (b"\n", b"\n")
        for fl in flags:
            if fl in terms:
                it, ot = terms[fl]
        result = data.replace(it, ot)
    elif verb == "unhex":
        out = bytearray()
        for line in data.decode("ascii", errors="replace").splitlines():
            for field in re.split(r"\s+", line):
                if field:
                    out.append(int(field, 16))
        result = bytes(out)
    elif verb == "hex":
        raw = "-r" in flags
        lines = []
        for off in range(0, len(data), 16):
            chunk = data[off:off + 16]
            parts = []
            for j in range(16):
                parts.append(f"{chunk[j]:02x} " if j < len(chunk)
                             else "   ")
                if j % 4 == 3 and 0 < j < 15:
                    parts.append(" ")
            body = "".join(parts)
            if raw:
                lines.append(body)
            else:
                ascii_tail = "".join(
                    chr(b2) if 0x20 <= b2 <= 0x7e else "."
                    for b2 in chunk)
                lines.append(f"{off:08x}: {body}|{ascii_tail}|")
        result = ("\n".join(lines) + "\n" if lines else "").encode()
    else:
        return "skip", f"auxent {verb}"
    if outfile is not None:
        target = _redirect_write_path(os.path.join(REFERENCE, outfile))
        with open(target, "wb") as fh:
            fh.write(result)
        stdout_bytes = b""
    else:
        stdout_bytes = result
    exp = b""
    exp_p = os.path.join(case_dir, "expout")
    if os.path.exists(exp_p):
        exp = open(exp_p, "rb").read()
    # the regtester normalizes CRLF to LF before comparing
    stdout_bytes = stdout_bytes.replace(b"\r\n", b"\n")
    exp = exp.replace(b"\r\n", b"\n")
    if stdout_bytes.rstrip(b"\n") != exp.rstrip(b"\n"):
        return "fail", (f"{cmd}: auxent byte mismatch: got "
                        f"{stdout_bytes[:60]!r} want {exp[:60]!r}")
    pc_file = os.path.join(case_dir, "postcmp")
    if os.path.exists(pc_file):
        rel = os.path.relpath(case_dir, REFERENCE)
        for line in open(pc_file).read().splitlines():
            line = line.replace("${CASEDIR}", rel).strip()
            if not line:
                continue
            exp_f, act_f = line.split()
            want = open(os.path.join(REFERENCE, exp_f), "rb").read()
            mapped = _redirect_write_path(os.path.join(REFERENCE, act_f))
            got = open(mapped, "rb").read() if os.path.exists(mapped) \
                else None
            if got != want:
                return "fail", f"{cmd}: auxent postcmp mismatch {act_f}"
    return "pass", "auxent ok"


def _repl_render(v) -> str:
    """mlr repl value echo: JSON strings, plain numbers/bools,
    lowercase hex for bytes, error MESSAGES plain (repl/verbs.go
    print of evaluated expressions)."""
    msg = getattr(v, "msg", None)
    if msg is not None:
        return msg  # MlrError: the reference prints the message text
    if v is None:
        return ""
    if isinstance(v, bytes):
        return v.hex()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=False)
    if isinstance(v, (dict, list)):
        from miller_ray import dsl as DSL

        if isinstance(v, dict):
            return DSL._mlr_json(v, ofmt=REGTEST_OFMT[0])
        # bytes elements render as quoted hex inside collections
        return json.dumps([x.hex() if isinstance(x, bytes) else x
                           for x in v], ensure_ascii=False)
    return str(v)


def _run_colorized_case(case_dir: str, cmd: str) -> tuple[str, str]:
    """mlr -C / --always-color: force-colorized output. Default scheme
    (colorizer.go:159-168): keys bold-underline (ESC[1m ESC[4m … ESC[0m),
    values plain with a trailing reset. JSON writer shape only (the
    golden corpus exercises --ojson cat)."""
    from miller_ray import dsl as DSL

    toks = shlex.split(cmd.strip())
    toks = [t for t in toks if t not in ("-C", "--always-color")]
    case = parse_cmd(" ".join(toks))
    if case.unsupported:
        raise Unsupported(case.unsupported)
    if case.verb != "cat" or case.args or case.post or \
            case.ofmt != "json":
        raise Unsupported("colorized output beyond plain ojson cat")
    df = load_df(case)
    recs = df.attrs.get("raw_records") or []
    key_on, reset = "\x1b[1m\x1b[4m", "\x1b[0m"

    def crender(v, level=0):
        pad = "  " * level
        if isinstance(v, dict):
            if not v:
                return "{}"
            inner = ",\n".join(
                f'{"  " * (level + 1)}{key_on}"{DSL._fmt_key(k)}"{reset}: '
                + crender(vv, level + 1)
                for k, vv in v.items())
            return "{\n" + inner + "\n" + pad + "}"
        if isinstance(v, list):
            return DSL._mlr_json(v, level, REGTEST_OFMT[0]) + reset
        return DSL._json_scalar(v, REGTEST_OFMT[0]) + reset

    parts = [crender(r) for r in recs]
    got = "[\n" + ",\n".join(parts) + "\n]\n" if parts else "[\n]\n"
    exp_p = os.path.join(case_dir, "expout")
    exp = open(exp_p, encoding="utf-8").read()
    if got.rstrip("\n") == exp.rstrip("\n"):
        return "pass", "colorized ok"
    return "fail", f"{cmd}: colorized mismatch got {got[:120]!r}"


def _run_mcp_help(case_dir: str, cmd: str) -> tuple[str, str]:
    """mlr mcp --help (terminals/mcp/mcp_main.go mcpUsage): the usage
    text is a run of Fprintf literals, extracted from the reference
    source at runtime like the rest of the help prose."""
    go = open(os.path.join(REFERENCE, "pkg/terminals/mcp/mcp_main.go"),
              encoding="utf-8").read()
    m = re.search(r"func mcpUsage\(o \*os\.File\) \{(.*?)\n\}", go, re.S)
    if not m:
        raise Unsupported("mcpUsage not found")
    parts = []
    # integer const args interpolate into %d (defaultTimeoutSeconds,
    # defaultMaxOutputBytes — simple `name = n [* n]` consts)
    consts: dict[str, int] = {}
    for cm in re.finditer(r"(\w+) = (\d+)(?: \* (\d+))?", go):
        consts[cm.group(1)] = int(cm.group(2)) * \
            (int(cm.group(3)) if cm.group(3) else 1)
    for lit in re.finditer(
            r'fmt\.Fprintf\(o, "((?:[^"\\]|\\.)*)"(?:, ([^)]*))?\)',
            m.group(1)):
        s = lit.group(1)
        s = (s.replace("\\\\", "\x00").replace("\\n", "\n")
              .replace('\\"', '"').replace("\x00", "\\"))
        for argname in (lit.group(2) or "").split(","):
            argname = argname.strip()
            if argname in consts:
                s = s.replace("%d", str(consts[argname]), 1)
        parts.append(s)
    got = "".join(parts)
    exp_p = os.path.join(case_dir, "expout")
    exp = open(exp_p, encoding="utf-8").read()
    if got.rstrip("\n") == exp.rstrip("\n"):
        return "pass", "mcp help ok"
    return "fail", f"{cmd}: mcp help mismatch got {got[:120]!r}"


def _run_help_case(case_dir: str, cmd: str) -> tuple[str, str]:
    """mlr help ... (terminals/help/entry.go HelpMain): named topics,
    'find' approximate search, and exact search over flags / verbs /
    functions / keywords. Help prose comes from the reference tree at
    runtime via miller_ray.help_catalog."""
    from miller_ray import help_catalog as H

    toks = shlex.split(cmd.strip())
    args = toks[2:]  # past "mlr help"
    out: list[str] = []
    if not args:
        raise Unsupported("mlr help default dump")
    if args[0] == "find":
        terms = args[1:]
        if not terms:
            out.append("mlr help find: need one or more things "
                       "to search for.\n")
        for t in terms:
            found = False
            # NOTE: flag matches print but do not count as found —
            # ShowHelpForFlagApproximateWithName always returns false
            # (flag_types.go:292-303), and the goldens encode that
            for s in H.flag_usage_approximate(t):
                out.append(s)
            for s in H.verb_usage_approximate(t):
                out.append(s)
                found = True
            for s in H.bif_usage_approximate(t):
                out.append(s)
                found = True
            for s in H.keyword_usage_approximate(t):
                out.append(s)
                found = True
            if not found:
                out.append(f'No help found for "{t}". '
                           f"See also 'mlr help topics'.\n")
    elif args[0] == "usage-verbs":
        sep = "=" * 64
        for i, (v, text) in enumerate(H.load_verb_catalog()):
            if i > 0:
                out.append("\n")
            out.append(f"{sep}\n{v}\n{text}")
        out.append(sep + "\n")
    elif args[0] == "flag-table-nil-check":
        # flagTableNilCheck: every flag has a name, help and parser;
        # our parsed catalog carries the same non-empty invariant
        for f in H.load_flag_catalog():
            if not f["name"] or not f["help"]:
                raise Unsupported(f"flag table nil: {f}")
        out.append("Flag-table nil check completed successfully.\n")
    elif args[0] == "list-verbs":
        out.extend(v + "\n" for v, _ in H.load_verb_catalog())
    elif args[0] == "list-functions":
        out.extend(e["name"] + "\n" for e in H.load_bif_catalog())
    elif args[0] == "list-keywords":
        out.extend(k + "\n" for k, _ in H.load_keyword_catalog())
    elif args[0] in ("topics", "basic-examples", "file-formats",
                     "flags", "flag", "list-separator-aliases",
                     "list-separator-regex-aliases", "verb",
                     "list-function-classes", "list-functions-in-class",
                     "usage-functions", "usage-functions-by-class",
                     "function", "usage-keywords", "keyword", "auxents",
                     "terminals", "mlrrc", "output-colorization",
                     "type-arithmetic-info",
                     "type-arithmetic-info-extended",
                     "list-flag-sections", "list-flags-for-section",
                     "list-functions-as-paragraph",
                     "list-functions-as-table",
                     "list-keywords-as-paragraph",
                     "list-verbs-as-paragraph", "print-info-for-section",
                     "show-headline-for-flag", "show-help-for-flag",
                     "show-help-for-section",
                     "show-help-for-section-via-downdash", "--as-json"):
        raise Unsupported(f"mlr help {args[0]}")
    else:
        # exact search: flag, verb, function, keyword — in that order
        # (helpByExactSearchOne); two-line not-found message
        for t in args:
            found = False
            s = H.flag_usage_exact(t)
            if s:
                out.append(s)
                found = True
            s = H.verb_usage_exact(t)
            if s:
                out.append(s)
                found = True
            s = H.bif_usage_exact(t)
            if s:
                out.append(s)
                found = True
            s = H.keyword_usage(t)
            if s:
                out.append(s)
                found = True
            if not found:
                out.append(f'No help found for "{t}". Please try '
                           f"'mlr help find {t}' for approximate "
                           f"match.\n")
                out.append("See also 'mlr help topics'.\n")
    got = "".join(out)
    exp_p = os.path.join(case_dir, "expout")
    exp = open(exp_p, encoding="utf-8").read() if os.path.exists(exp_p) \
        else ""
    if got.rstrip("\n") == exp.rstrip("\n"):
        return "pass", "help ok"
    return "fail", (f"{cmd}: help mismatch got {got[:120]!r} "
                    f"want {exp[:120]!r}")


def _run_repl_script(case_dir: str, cmd: str) -> tuple[str, str]:
    """mlr repl -q -s: full session replay (miller_ray.repl)."""
    from miller_ray.repl import run_repl_case

    return run_repl_case(case_dir, cmd)


def _run_case_inner(case_dir: str,
                    expect_fail: bool = False) -> tuple[str, str]:
    with open(os.path.join(case_dir, "cmd")) as f:
        cmd = f.read().strip()
    rel = os.path.relpath(case_dir, REFERENCE)
    cmd = cmd.replace("${CASEDIR}", rel).replace("./" + rel, rel)
    ctoks = cmd.split()
    if len(ctoks) == 1 and ctoks[0] in ("mlr", "${MLR}"):
        # bare `mlr`: usage to stderr, exit 1 (climain parseCommandLine
        # -> help.MainUsage; cli-default-verb-cat/0004)
        usage = _main_usage_text()
        experr_p = os.path.join(case_dir, "experr")
        want = open(experr_p).read() if os.path.exists(experr_p) else ""
        if usage is not None and usage.rstrip("\n") == want.rstrip("\n"):
            return "pass", "failed as expected (usage to stderr)"
        return "skip", "no verb"
    if len(ctoks) >= 2 and ctoks[0] in ("mlr", "${MLR}") \
            and ctoks[1] in _AUXENTS:
        return _run_auxent(case_dir, cmd)
    if "-C" in ctoks or "--always-color" in ctoks:
        return _run_colorized_case(case_dir, cmd)
    if len(ctoks) >= 3 and ctoks[1] == "mcp" \
            and ("--help" in ctoks or "-h" in ctoks):
        return _run_mcp_help(case_dir, cmd)
    if len(ctoks) >= 3 and ctoks[1] == "help":
        return _run_help_case(case_dir, cmd)
    if len(ctoks) >= 3 and ctoks[1] == "repl":
        # non-terminal stdin suppresses banner and prompts
        # (prompt.go getInputIsTerminal), so plain `mlr repl <
        # script` behaves like -q -s

        return _run_repl_script(case_dir, cmd)
    postcmp: list[tuple[str, str]] = []
    pc_file = os.path.join(case_dir, "postcmp")
    if os.path.exists(pc_file):
        for line in open(pc_file).read().splitlines():
            line = line.replace("${CASEDIR}", rel).strip()
            if not line:
                continue
            exp_f, act_f = line.split()
            # pre-clear the mapped target so a stale write from a
            # previous run can't satisfy the comparison
            mapped = _redirect_write_path(os.path.join(REFERENCE, act_f))
            if os.path.exists(mapped):
                os.unlink(mapped)
            postcmp.append((os.path.join(REFERENCE, exp_f), mapped))
    pre_file = os.path.join(case_dir, "precopy")
    if os.path.exists(pre_file):
        # regtester.go precopy pairs: stage source files at their
        # (scratch-mapped) destination before the run; -I reads and
        # rewrites them there. Runs AFTER the postcmp pre-clear — for
        # -I the postcmp targets ARE the precopied inputs.
        import shutil

        for line in open(pre_file).read().splitlines():
            line = line.replace("${CASEDIR}", rel).strip()
            if not line:
                continue
            src_f, dst_f = line.split()
            shutil.copyfile(
                os.path.join(REFERENCE, src_f),
                _redirect_write_path(os.path.join(REFERENCE, dst_f)))
    case = parse_cmd(cmd)
    if case.fatal:
        # CLI-level fatal (mlrrc parse error, bad profile): should-fail
        # cases with empty expout pass on the failure itself
        if expect_fail:
            with open(os.path.join(case_dir, "expout"), encoding="utf-8",
                      errors="surrogateescape") as f:
                if f.read().strip() == "":
                    return "pass", "failed as expected (CLI fatal)"
            return "fail", f"{cmd}: expected output before CLI fatal"
        return "fail", f"{cmd}: {case.fatal}"
    if case.unsupported:
        return "skip", case.unsupported
    if not case.env:
        return _run_case_body(case_dir, cmd, case, postcmp, expect_fail)
    saved: dict = {}
    try:
        for k, v in case.env.items():
            saved[k] = os.environ.get(k)
            os.environ[k] = v
        return _run_case_body(case_dir, cmd, case, postcmp, expect_fail)
    finally:
        for k, old in saved.items():
            if old is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = old


def _run_expect_fail(case_dir: str, cmd: str, case: Case, segments,
                     df, headers: list) -> tuple[str, str]:
    """should-fail cases (regtester: exit 1 + stdout == expout): the
    run must raise, and the PARTIAL output written before the fatal
    error must match expout. Miller's exact stderr text is not
    reproduced; the failure itself plus the stdout prefix is the
    conformance claim."""
    from miller_ray.functions import FatalError
    from miller_ray import dsl as DSL

    prefix = "".join(headers)
    with open(os.path.join(case_dir, "expout"), encoding="utf-8", errors="surrogateescape") as f:
        exp_text = f.read()
    err = None
    partial = None
    try:
        for seg in segments:
            if not seg:
                raise Unsupported("empty then segment")
            sub_case = dataclasses.replace(
                case, verb=seg[0], args=seg[1:], unsupported=None)
            ours, _ordered = execute(sub_case, df)
            if isinstance(ours, RawText):
                partial = (None, str(ours))
                break
            df = ours.copy()
            df.attrs.pop("raw_records", None)
            df["__row__"] = np.arange(len(df))
            partial = (df, None)
    except Unsupported as e:
        reason = str(e)
        if reason.startswith(("dsl parse:", "dsl seq", "dsl run",
                              "ast echo:", "put -v arg shape")):
            # our engine also rejects the input; with no output
            # expected beyond the AST echo this confirms the failure
            if exp_text == prefix or exp_text == "":
                return "pass", "failed as expected (rejected input)"
            return "skip", f"should-fail with partial output: {reason}"
        return "skip", reason
    except (FatalError, DSL.DslError, ValueError, TypeError,
            KeyError) as e:
        err = e
        pp = getattr(e, "partial", None)
        if pp is not None:
            precs, ptexts, pstream = pp
            got = prefix
            pend = ""
            run: list[dict] = []

            def flush_run():
                nonlocal got
                if not run:
                    return
                recs = run[:]
                if case.ofmt == "pprint":
                    # the pprint writer buffers the CURRENT schema
                    # block (column widths need all its rows): rows in
                    # the unflushed final block are lost on abort
                    keys = None
                    blocks: list[list[dict]] = []
                    for r in recs:
                        ks = [k for k in r if not str(k).startswith("__")]
                        if ks != keys:
                            blocks.append([])
                            keys = ks
                        blocks[-1].append(r)
                    recs = [r for b in blocks[:-1] for r in b]
                if recs:
                    got += render_records(recs, case.ofmt,
                                          flatsep=case.flatsep or ".")
                run.clear()

            for kind2, payload in pstream:
                if kind2 == "textn":
                    flush_run()
                    pend += payload
                elif kind2 == "text":
                    flush_run()
                    got += pend + payload + "\n"
                    pend = ""
                else:
                    run.append(payload)
            flush_run()
            got += pend
            if got.rstrip("\n") == exp_text.rstrip("\n"):
                return "pass", "failed as expected (partial output ok)"
            return "fail", (f"{cmd}: should-fail partial mismatch: "
                            f"got {got[:90]!r} want {exp_text[:90]!r}")
        if exp_text == prefix or exp_text == "":
            return "pass", "failed as expected"
        return "skip", "should-fail partial output unavailable"
    if err is None and case.ofmt in ("csv", "tsv") and \
            partial is not None and partial[0] is not None:
        # writer-level validation (record_writer_csv.go:99 /
        # record_writer_tsv.go): the first record's keys fix the
        # header; a later record whose key at position i differs
        # aborts mid-stream, leaving the already-written rows as
        # partial output (io-multi 0010/0033/0034,
        # io-{csv,tsv}-auto-unsparsify/key-change). Records that are
        # a PREFIX of the header (or extend past it) auto-unsparsify
        # and do not abort.
        dfp = partial[0]
        if "__row__" in dfp.columns:
            dfp = dfp.sort_values("__row__")
        recs_w = []
        for r in _df_records(dfp):
            recs_w.append({k: v for k, v in r.items()
                           if not str(k).startswith("__")
                           and not (v is None or (isinstance(v, float)
                                                  and math.isnan(v)))})
        first_keys: list | None = None
        good: list[dict] = []
        aborted = False
        for rec in recs_w:
            ks = list(rec.keys())
            if first_keys is None:
                first_keys = ks
            else:
                if any(i2 < len(first_keys) and k2 != first_keys[i2]
                       for i2, k2 in enumerate(ks)):
                    aborted = True
                    break
            good.append(rec)
        if aborted:
            got = prefix + render_records(good, case.ofmt,
                                          flatsep=case.flatsep or ".")
            if case.headerless_out and got:
                got = "\n".join(got.split("\n")[1:])
            if got.rstrip("\n") == exp_text.rstrip("\n"):
                return "pass", ("failed as expected "
                                "(schema-change abort, partial ok)")
            return "fail", (f"{cmd}: schema-change partial mismatch: "
                            f"got {got[:90]!r} want {exp_text[:90]!r}")
    if err is None:
        # the engine accepted input the reference validates against —
        # a missing-validation gap, not a wrong answer; itemized skip
        return "skip", "should-fail: validation not implemented"
    return "fail", f"{cmd}: unreachable"


def _main_usage_text() -> str | None:
    """Extract help.MainUsage's text from the reference at runtime
    (pkg/terminals/help/entry.go:294-310 — a raw backtick literal plus
    the DOC_URL line), like the rest of the help surface."""
    p = os.path.join(REFERENCE, "pkg/terminals/help/entry.go")
    try:
        src = open(p).read()
    except OSError:
        return None
    i = src.find("func MainUsage")
    if i < 0:
        return None
    j = src.find("`", i)
    k = src.find("`", j + 1)
    if j < 0 or k < 0:
        return None
    body = src[j + 1:k]
    try:
        du = open(os.path.join(REFERENCE, "pkg/lib/docurl.go")).read()
        m = re.search(r'DOC_URL\s*=\s*"([^"]+)"', du)
        if m:
            body += f"Please also see {m.group(1)}\n"
    except OSError:
        pass
    return body


def _compare_stderr(case_dir: str) -> tuple[bool, str]:
    if not _LAST_STDERR:
        return True, "ok"
    got = "".join(_LAST_STDERR).replace("\r\n", "\n")
    experr = os.path.join(case_dir, "experr")
    want = open(experr).read().replace("\r\n", "\n") \
        if os.path.exists(experr) else ""
    if got.rstrip("\n") == want.rstrip("\n"):
        return True, "ok"
    return False, f"stderr mismatch: got {got[:80]!r} want {want[:80]!r}"


def _compare_postcmp(postcmp: list) -> tuple[bool, str]:
    """Verify file-write targets against their .expect files
    (regtester.go postcmp pairs; paths mapped into scratch)."""
    for exp_f, act_f in postcmp:
        if not os.path.exists(act_f):
            return False, f"postcmp: {os.path.basename(act_f)} not written"
        want = open(exp_f).read().replace("\r\n", "\n")
        got = open(act_f).read().replace("\r\n", "\n")
        if want.rstrip("\n") != got.rstrip("\n"):
            return False, (f"postcmp mismatch {os.path.basename(act_f)}: "
                           f"got {got[:80]!r} want {want[:80]!r}")
    return True, "ok"


def _run_in_place(case_dir: str, cmd: str, case: Case, segments,
                  df: pd.DataFrame, postcmp: list) -> tuple[str, str]:
    """-I in-place processing (cli mode -I): each input file is run
    through the verb chain separately and rewritten (at its
    scratch-mapped path) in the OUTPUT format; stdout stays empty."""
    for f in sorted(set(df["__file__"])) if "__file__" in df.columns \
            else []:
        sub = df[df["__file__"] == f].copy()
        sub.attrs["korder"] = df.attrs.get("korder", {})
        raw = df.attrs.get("raw_records")
        if raw is not None:
            mask = (df["__file__"] == f).tolist()
            sub.attrs["raw_records"] = [r for r, m in zip(raw, mask) if m]
        sub.attrs["stream_end_nr"] = len(sub)
        cur = sub
        for seg in segments:
            sub_case = dataclasses.replace(
                case, verb=seg[0], args=seg[1:], unsupported=None)
            cur, _ordered = execute(sub_case, cur)
            if isinstance(cur, RawText):
                break
            cur = cur.copy()
            cur.attrs.pop("raw_records", None)
            cur["__row__"] = np.arange(len(cur))
        if isinstance(cur, RawText):
            out_text = str(cur)
        else:
            recs = [] if cur is None or cur.empty else _df_records(cur)
            out_text = render_records(recs, case.ofmt,
                                      flatsep=case.flatsep or ".")
        target = os.path.join(REFERENCE, f)
        mapped = _redirect_write_path(target)
        with open(mapped, "w", encoding="utf-8",
                  errors="surrogateescape") as fh:
            fh.write(out_text)
    pok, pmsg = _compare_postcmp(postcmp)
    if pok:
        pok, pmsg = _compare_stderr(case_dir)
    return ("pass", "in-place ok") if pok else ("fail", f"{cmd}: {pmsg}")


def _run_case_body(case_dir: str, cmd: str, case: Case,
                   postcmp: list | None = None,
                   expect_fail: bool = False) -> tuple[str, str]:
    from miller_ray.functions import FatalError

    EXPECT_FAIL_MODE[0] = expect_fail
    postcmp = postcmp or []
    if expect_fail:
        case = dataclasses.replace(case, force_seq_dsl=True)
    _LAST_STDERR.clear()
    os.environ["CASEDIR"] = os.path.relpath(case_dir, REFERENCE)
    os.environ.setdefault("MLR_TEST_ROOT", REFERENCE)
    headers: list[str] = []
    passed_comments: list[str] = []
    try:
        # split then-chain segments: [verb args...] __THEN__ [verb args...]
        segments = [[case.verb]]
        for tok in case.args:
            if tok == "__THEN__":
                segments.append([])
            else:
                segments[-1].append(tok)
        # put/filter -v echoes the DSL expression + AST at transformer
        # construction time, i.e. before any records flow, in chain order
        for si, seg in enumerate(segments):
            if seg and seg[0] in ("put", "filter") and "-v" in seg[1:]:
                try:
                    hdr, segments[si] = _ast_echo(seg)
                except Unsupported as e:
                    if expect_fail and str(e).startswith("ast echo:"):
                        # the reference also rejects this DSL source at
                        # parse (dsl-subr/0002 `call s` without parens):
                        # a pre-echo parse failure with no expected
                        # stdout IS the conformance claim
                        with open(os.path.join(case_dir, "expout"),
                                  encoding="utf-8",
                                  errors="surrogateescape") as fh0:
                            if fh0.read() == "":
                                return "pass", "failed as expected " \
                                    "(rejected at parse, pre-echo)"
                    raise
                headers.append(hdr)
        if case.in_place and (not case.files or case.stdin_redirect
                              or "__NO_INPUT__" in case.args):
            # -I requires named input files (neither stdin nor -n)
            raise FatalError("mlr: -I requires input files")
        df = load_df(case)
        passed_comments = df.attrs.get("passed_comments") or []
        if case.in_place:
            return _run_in_place(case_dir, cmd, case, segments, df,
                                 postcmp)
        input_df = df
        # the reader's total record count: end-block NR context
        # survives dropping verbs (verb-head-early-out/0002)
        stream_end_nr = len(df)
        df.attrs["stream_end_nr"] = stream_end_nr
        ordered = True
        if expect_fail:
            return _run_expect_fail(case_dir, cmd, case, segments, df,
                                    headers)
        for si, seg in enumerate(segments):
            if not seg:
                raise Unsupported("empty then segment")
            sub_case = dataclasses.replace(
                case, verb=seg[0], args=seg[1:], unsupported=None)
            # poison inherited out_records so only the stage's OWN
            # record-order claim survives (attrs propagate via .copy())
            df.attrs["out_records"] = None
            ours, seg_ordered = execute(sub_case, df)
            if isinstance(ours, RawText):
                if si != len(segments) - 1:
                    raise Unsupported("text output mid then-chain")
                break
            ordered = ordered and seg_ordered
            df = ours.copy()
            # a verb stage rewrites values: the pristine input records
            # (pandas propagates .attrs through copy) no longer apply
            df.attrs.pop("raw_records", None)
            df.attrs["stream_end_nr"] = stream_end_nr
            df["__row__"] = np.arange(len(df))
        ordered = ordered if len(segments) == 1 else (ordered and seg_ordered)
    except Unsupported as e:
        if headers:
            # the program itself is unsupported at runtime, but when the
            # reference's whole output IS the AST echo (e.g. -n with a
            # pure-assignment program), AST equality is the full check
            with open(os.path.join(case_dir, "expout"), encoding="utf-8", errors="surrogateescape") as f:
                exp_text = f.read()
            if exp_text == "".join(headers):
                return "pass", "ast echo (program produces no output)"
        return "skip", str(e)
    except (FatalError, FileNotFoundError) as e:
        # reader-level fatal errors (recutils malformed stanza, dkvpx
        # separator validation, ragged CSV, missing input file, -I
        # without files): in should-fail mode compare any partial
        # records emitted before the abort
        if expect_fail:
            precs = getattr(e, "partial_records", None) or []
            if case.verb == "join":
                # the abort came from join's own -f side reader (or
                # pre-join main input): nothing reached the writer
                # (verb-join/left-file-malformed-*)
                precs = []
            got = render_records(precs, case.ofmt,
                                 flatsep=case.flatsep or ".") \
                if precs else ""
            if not precs and case.ofmt == "json" \
                    and not re.search(r"--o?jsonl\b", cmd) \
                    and isinstance(e, FileNotFoundError):
                # the JSON writer emits its list wrapper even when the
                # reader opens no file (non-windows/file-not-found)
                got = "[\n]\n"
            with open(os.path.join(case_dir, "expout"), encoding="utf-8",
                      errors="surrogateescape") as f:
                exp_text = f.read()
            if got.rstrip("\n") == exp_text.rstrip("\n"):
                return "pass", "failed as expected (reader abort)"
            # the engine rejects the input too, but the reference's
            # pre-abort stream depends on reader batching and writer
            # buffering (e.g. join -f side reads, pass-comments
            # interleaving) that a frame engine does not reproduce
            return "skip", ("should-fail: reader abort confirmed, "
                            "partial stream not reproduced")
        return "fail", f"raised {type(e).__name__}: {e}"
    except Exception as e:  # noqa: BLE001 — conformance harness reports
        return "fail", f"raised {type(e).__name__}: {e}"
    prefix = "".join(headers)
    if isinstance(ours, RawText):
        with open(os.path.join(case_dir, "expout"), encoding="utf-8", errors="surrogateescape") as f:
            exp_text = f.read()
        got = [ln.rstrip()
               for ln in (prefix + str(ours)).strip("\n").split("\n")]
        want = [ln.rstrip() for ln in exp_text.strip("\n").split("\n")]
        if got == want:
            pok, pmsg = _compare_postcmp(postcmp)
            if pok:
                pok, pmsg = _compare_stderr(case_dir)
            return ("pass", "text ok") if pok else ("fail", f"{cmd}: {pmsg}")
        return "fail", f"{cmd}: text mismatch (got {len(got)} lines, " \
                       f"want {len(want)}); first got={got[:3]} want={want[:3]}"
    if ours is not None and len(getattr(ours, "columns", [])):
        ours = ours.drop(columns=[c for c in ("__row__", "__file__", "__filenum__")
                                  if c in ours.columns])
    with open(os.path.join(case_dir, "expout"), encoding="utf-8", errors="surrogateescape") as f:
        raw_exp = f.read()
    if prefix:
        if not raw_exp.startswith(prefix):
            el = raw_exp.splitlines()
            hl = prefix.splitlines()
            d = next((k for k in range(min(len(el), len(hl)))
                      if el[k] != hl[k]), min(len(el), len(hl)))
            return "fail", f"{cmd}: AST echo mismatch at line {d}: " \
                f"want={el[d] if d < len(el) else ''!r} " \
                f"got={hl[d] if d < len(hl) else ''!r}"
        raw_exp = raw_exp[len(prefix):]
    if passed_comments:
        # --pass-comments: comment lines stream to stdout at read time;
        # verify the multiset and compare records on the remainder
        mode_prefix = case.comments[1]
        exp_comments = [ln for ln in raw_exp.splitlines()
                        if ln.startswith(mode_prefix)]
        if Counter(exp_comments) != Counter(passed_comments):
            return "fail", f"{cmd}: passed-comments mismatch"
        raw_exp = "\n".join(ln for ln in raw_exp.splitlines()
                            if not ln.startswith(mode_prefix))
    try:
        expected = _parse_expout(case, raw_exp)
    except Unsupported:
        raise
    except Exception as e:  # noqa: BLE001 — malformed-for-format expout
        return "fail", (f"{cmd}: expout unparseable as {case.ofmt}: "
                        f"{type(e).__name__}: {e}")
    our_recs = [] if ours is None or ours.empty else _df_records(ours)
    if case.num_fmt:
        # --ofmt: float-typed values render through the format
        # (cli-ofmt; summary --ofmt %.4f)
        nf = re.sub(r"%(-?\d*\.?\d*)(?:ll|l|h)([dioxXeEfgGs])",
                    r"%\1\2", case.num_fmt)
        our_recs = [{k: (nf % x if isinstance(x, float)
                         and not x.is_integer() else x)
                     for k, x in r.items()} for r in our_recs]
    if case.ofmt == "nidx" or (case.headerless_out and case.ofmt in (
            "csv", "csvlite", "tsv", "tsvlite", "pprint", "markdown")):
        # the nidx writer — and headerless csv/tsv/pprint output —
        # drops keys and emits values positionally
        # (record_writer_nidx; --headerless-csv-output)
        # drop absent cells BEFORE enumerating so het records keep
        # dense positional indices (io-het-csv-input headerless cases)
        keysets = {tuple(k for k, x in r.items()
                         if not (x is None or (isinstance(x, float)
                                               and math.isnan(x))))
                   for r in our_recs}
        if case.headerless_out and case.ofmt != "nidx" and \
            len(keysets) > 1 and not case.implicit_header:
            pres = None if ours is None else \
                ours.attrs.get("out_records")
            if pres is not None and len(pres) == len(our_recs):
                # the final stage carried exact per-record key order
                # (tac/group-like/group-by record reorderings) —
                # positional values come from it
                # (io-het-csv-input/0026-0027)
                our_recs = [dict(r) for r in pres]
            else:
                # het keysets + headerless output: the union frame
                # cannot represent per-record key ORDER, which decides
                # the positional value order — itemized gap
                raise Unsupported("headerless output with "
                                  "heterogeneous key order")
        our_recs = [{str(i): v for i, v in enumerate(
                        (x for x in r.values()
                         if not (x is None or (isinstance(x, float)
                                               and math.isnan(x)))), 1)}
                    for r in our_recs]
    if case.ofmt in ("csv", "tsv") and our_recs:
        # strict csv/tsv writer auto-unsparsify (record_writer_csv.go):
        # the FIRST record fixes the header; a later record whose keys
        # EXTEND it writes the extra values positionally past the
        # header — which the reader then drops (io-csv-auto-unsparsify
        # "over": a,b,c,d=7 renders "4,5,6,7" under header a,b,c)
        def _live_keys(r):
            return [k for k, x in r.items()
                    if not (x is None or (isinstance(x, float)
                                          and math.isnan(x)))]

        hdr0 = _live_keys(our_recs[0])
        fixed = [our_recs[0]]
        for r in our_recs[1:]:
            ks = _live_keys(r)
            if len(ks) > len(hdr0) and ks[:len(hdr0)] == hdr0:
                r = {k: r[k] for k in hdr0}
            fixed.append(r)
        our_recs = fixed
    if case.ofmt in ("json", "jsonl", "yaml") and \
            not case.no_auto_unflatten and \
            case.ifmt not in ("json", "jsonl", "yaml") and any(
            (case.flatsep or ".") in str(k) for r in our_recs for k in r):
        # JSON output auto-unflattens dotted field names into nested
        # collections (mlr auto-unflatten, record_writer_json)
        our_recs = [_auto_unflatten(r, sep=case.flatsep or ".")
                    for r in our_recs]
    if case.ofmt not in ("json", "jsonl", "yaml", "dcf") and \
            not case.no_auto_flatten and any(
            isinstance(x, (dict, list)) for r in our_recs
            for x in r.values()):
        # non-JSON writers auto-flatten collection values with FLATSEP
        # (record_writer non-JSON path)
        from miller_ray import dsl as DSL
        flat_recs = []
        for r in our_recs:
            fr: dict = {}
            for k, x in r.items():
                if isinstance(x, (dict, list)):
                    DSL._flatten_into(fr, str(k), x,
                                      sep=case.flatsep or ".")
                else:
                    fr[k] = x
            flat_recs.append(fr)
        our_recs = flat_recs
    if case.ofmt == "xtab" and any(
            isinstance(k, str) and " " in k
            for r in our_recs for k in r):
        # keys containing spaces make the golden xtab ambiguous to
        # re-parse (key = first space-run-delimited token) — compare
        # rendered text (verb-stats1-regexed-field-names/0008)
        blocks = []
        for r in our_recs:
            w = max((len(str(k)) for k in r), default=0)
            blocks.append("\n".join(
                f"{str(k).ljust(w)} {_render_value(v)}"
                for k, v in r.items()))
        txt = "\n\n".join(blocks) + ("\n" if blocks else "")
        with open(os.path.join(case_dir, "expout")) as fh:
            want = fh.read()
        if txt != want:
            return "fail", f"{cmd}: xtab text mismatch"
        pok, pmsg = _compare_postcmp(postcmp)
        if pok:
            pok, pmsg = _compare_stderr(case_dir)
        return ("pass", "ok") if pok else ("fail", f"{cmd}: {pmsg}")
    if case.ofmt in ("xtab", "dkvp", "pprint") and any(
            isinstance(x, str) and "\n" in x
            for r in our_recs for x in r.values()):
        if case.ofmt == "xtab":
            # xtab prints values RAW, so embedded newlines span
            # physical lines (record_writer_xtab.go) and the golden
            # can't be re-parsed record-wise — compare rendered text
            # (dsl-basic/0061, verb-json-parse-json-stringify/0019)
            blocks = []
            for r in our_recs:
                w = max((len(str(k)) for k in r), default=0)
                blocks.append("\n".join(
                    f"{str(k).ljust(w)} {_render_value(v)}"
                    for k, v in r.items()))
            txt = "\n\n".join(blocks) + ("\n" if blocks else "")
            with open(os.path.join(case_dir, "expout")) as fh:
                want = fh.read()
            if txt != want:
                if os.environ.get("MLR_RAY_DEBUG_XTAB"):
                    with open("/tmp/xtab_ours.txt", "w") as fh:
                        fh.write(txt)
                    with open("/tmp/xtab_want.txt", "w") as fh:
                        fh.write(want)
                return "fail", f"{cmd}: xtab text mismatch"
            pok, pmsg = _compare_postcmp(postcmp)
            if pok:
                pok, pmsg = _compare_stderr(case_dir)
            return ("pass", "ok") if pok else ("fail", f"{cmd}: {pmsg}")
        return "skip", f"embedded newline not representable in {case.ofmt}"
    if case.ofmt == "pprint":
        # pprint cannot represent leading/trailing whitespace in values
        # (or KEYS: column padding swallows it on reparse —
        # dsl-multipart-scripts/0004's `$xy ` key)
        our_recs = [{(k.strip() if isinstance(k, str) else k):
                     (v.strip() if isinstance(v, str) else v)
                     for k, v in r.items()} for r in our_recs]
    if case.ofmt == "tsv":
        # the TSV writer escapes embedded tabs/newlines as \t, \n
        def _esc(s):
            return (s.replace("\\", "\\\\").replace("\t", "\\t")
                     .replace("\n", "\\n").replace("\r", "\\r")
                    if isinstance(s, str) else s)
        our_recs = [{_esc(k): _esc(v) for k, v in r.items()}
                    for r in our_recs]
    if case.verb == "stats1" and re.search(r"\bmode|antimode\b",
                                           " ".join(case.args)):
        g = _flagvals(case.args, "-g")
        gb = g.split(",") if g else None
        our_recs = _freqify_modes(our_recs, input_df, gb)
        expected = _freqify_modes(expected, input_df, gb)
    ok, msg = compare_recs(our_recs, expected, ordered)
    if not ok:
        return "fail", f"{cmd}: {msg}"
    pok, pmsg = _compare_postcmp(postcmp)
    if pok:
        pok, pmsg = _compare_stderr(case_dir)
    return ("pass", msg) if pok else ("fail", f"{cmd}: {pmsg}")


def run_suite(suite: str) -> dict:
    base = os.path.join(REFERENCE, "test/cases", suite)
    out = {"pass": 0, "fail": 0, "skip": 0, "failures": []}
    case_dirs = []
    for root, dirs, files in os.walk(base):
        if "cmd" in files:
            case_dirs.append(root)
            dirs[:] = []  # a case dir never nests further cases
    for cdir in sorted(case_dirs):
        case_id = os.path.relpath(cdir, base)
        status, detail = run_case(cdir)
        out[status] += 1
        if status == "fail":
            out["failures"].append(f"{suite}/{case_id}: {detail}")
    return out
