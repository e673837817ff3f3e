"""Count code lines of Python files: lines holding a token other than a
comment, and not inside a module, class or function docstring. Blank
lines, comments and docstrings do not count.

Usage: python scripts/count_code_lines.py PATH...   (files or directories)
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(src: str) -> int:
    doc = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    getattr(first, "value", None), ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def main(paths: list[str]) -> None:
    total = 0
    for arg in paths:
        p = pathlib.Path(arg)
        for f in sorted(p.rglob("*.py")) if p.is_dir() else [p]:
            total += code_lines(f.read_text(encoding="utf-8"))
    print(total)


if __name__ == "__main__":
    main(sys.argv[1:])
