"""Print the code lines of ``src/`` and ``tests/``: lines without docstrings, comments or blanks.

A line counts when it holds a token other than a comment or a line break,
and is not part of a docstring (the string that opens a module, class or
function). Run it from anywhere: ``python scripts/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code other than docstrings."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    for tree in ("src", "tests"):
        total = sum(code_lines(path.read_text(encoding="utf-8"))
                    for path in sorted((ROOT / tree).rglob("*.py")))
        print(f"{tree}/ {total} code lines")
