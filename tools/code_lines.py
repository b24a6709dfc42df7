"""Code lines of the Python files under one or more directories.

Usage, from the root of a checkout:

    python3 tools/code_lines.py [PATH ...]

PATH is a directory, searched recursively for ``.py`` files, or one file; the
default is ``src/relayfl``.  A code line is a source line that holds part of a
token other than a comment, so blank lines, comment-only lines and the lines
of module, class and function docstrings are left out, while every line of a
multi-line statement or of any other string counts.  One line ``count path``
is printed per file, sorted by path, then ``count total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    files = sorted(path for root in map(Path, argv or ["src/relayfl"])
                   for path in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
