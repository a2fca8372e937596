"""Count raw lines and code lines of each module under src/abovetight.

A code line holds a token other than a comment or a docstring, so deleting
comments or docstrings leaves the code count unchanged. A multi-line token
(a string that is not a docstring, or a bracketed expression split over
lines) counts every line it spans. Prints one row per module and a total.

    python3 scripts/line_count.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abovetight"
# Tokens that never make a line count as code.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """Raw lines and code lines of one module's source."""
    docstrings = docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main() -> int:
    rows = {path.name: count(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    print("%-14s %6s %6s" % ("module", "raw", "code"))
    for name, (raw, code) in rows.items():
        print("%-14s %6d %6d" % (name, raw, code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
