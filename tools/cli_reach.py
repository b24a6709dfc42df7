"""Package code that the reference configs never reach.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/cli_reach.py

Every reference config of ``tools/csv_digests.py`` runs through
``csv_digests.write_csvs`` (``relayfl.cli.main`` with one BLAS thread) under
``sys.settrace``.  Then one line is printed, sorted, for

- each function of the relayfl package that no run enters:
  ``<module>.<qualified name>``;
- each statement of an entered function that no run executes, unless the
  statement that holds it is unexecuted too:
  ``<module>.<qualified name>: <statement>``.  A statement is named by its
  source text on one line without comments (a compound statement by its
  header); when that text occurs more than once in the function, the header
  of the statement that holds it comes first (``if converged: break``).

``raise`` statements and ``except`` bodies are left out: only a bad document
or a direct library call reaches them.  Docstrings, and the module and class
bodies that run on import, are not counted.  The exit code is that of
``write_csvs``, or 2 when relayfl is not importable.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import os
import sys
import tempfile
import tokenize
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import csv_digests  # noqa: E402


class _Statement:
    """One counted statement: its text, the lines whose execution shows that it
    ran (a compound statement's header), and the statement that holds it."""

    def __init__(self, node: ast.stmt, lines: list[str], parent: _Statement | None):
        end = node.body[0].lineno if isinstance(getattr(node, "body", None), list) \
            else node.end_lineno + 1
        self.own_lines = range(node.lineno, max(end, node.lineno + 1))
        self.text = " ".join(" ".join(lines[i - 1] for i in self.own_lines).split())
        self.parent = parent
        self.children: list[_Statement] = []
        if parent is not None:
            parent.children.append(self)

    def ran(self, filename: str, hits: set) -> bool:
        return (any((filename, line) in hits for line in self.own_lines)
                or any(child.ran(filename, hits) for child in self.children))


def _functions(path: str) -> dict[str, list[_Statement]]:
    """Counted statements of each function in the file, in source order, by the
    qualified name its code object carries (``co_qualname``)."""
    source = Path(path).read_text(encoding="utf-8")
    comments = {token.start[0]: token.start[1]
                for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT}
    lines = [text[:comments.get(number, len(text))]
             for number, text in enumerate(source.splitlines(), start=1)]
    found: dict[str, list[_Statement]] = {}

    def definitions(body, scope: str):
        # The functions and classes a module or class body defines.
        for node in body:
            if isinstance(node, ast.FunctionDef):
                function(node, scope)
            elif isinstance(node, ast.ClassDef):
                definitions(node.body, f"{scope}{node.name}.")

    def function(node, scope: str):
        qualname = scope + node.name
        body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
        found[qualname] = []
        counted(body, None, found[qualname], qualname + ".<locals>.")

    def counted(body, parent: _Statement | None, statements: list, scope: str):
        for node in body:
            if isinstance(node, ast.Raise):
                continue
            statement = _Statement(node, lines, parent)
            statements.append(statement)
            if isinstance(node, ast.FunctionDef):
                function(node, scope)
            else:  # a try statement's handlers are left out
                for field in ("body", "orelse", "finalbody"):
                    counted(getattr(node, field, []), statement, statements, scope)

    definitions(ast.parse(source, path).body, "")
    return found


def unreached(root: str, hits: set, entered: set) -> list[str]:
    """The sorted report lines of the package at `root`, from the (filename,
    line) pairs executed and the (filename, qualified name) pairs entered."""
    out = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        filename = os.path.join(root, name)
        for qualname, statements in _functions(filename).items():
            function = f"{name[:-3]}.{qualname}"
            if (filename, qualname) not in entered:
                out.append(function)
                continue
            texts = Counter(s.text for s in statements)
            for s in statements:
                if s.ran(filename, hits) or (s.parent and not s.parent.ran(filename, hits)):
                    continue
                text = s.text if texts[s.text] == 1 or s.parent is None \
                    else f"{s.parent.text} {s.text}"
                out.append(f"{function}: {text}")
    return sorted(out)


def trace_reference_runs(root: str) -> tuple[int, set, set]:
    """(write_csvs exit code, lines executed, functions entered) of the package at `root`."""
    hits, entered = set(), set()
    prefix = root + os.sep

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entered.add((code.co_filename, code.co_qualname))
        return line

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(call)
        try:
            code = csv_digests.write_csvs([], Path(tmp), lambda name, path: None)
        finally:
            sys.settrace(None)
    return code, hits, entered


def main() -> int:
    spec = importlib.util.find_spec("relayfl")
    if spec is None:
        print("relayfl is not importable; set PYTHONPATH to a checkout's src", file=sys.stderr)
        return 2
    root = spec.submodule_search_locations[0]
    code, hits, entered = trace_reference_runs(root)
    if code == 0:
        for entry in unreached(root, hits, entered):
            print(entry)
    return code


if __name__ == "__main__":
    sys.exit(main())
