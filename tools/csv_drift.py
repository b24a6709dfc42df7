"""Largest relative change in each numeric CSV column between two source trees.

Usage, from the root of a checkout:

    python3 tools/csv_drift.py OLD_SRC NEW_SRC [NAME ...]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Each tree
writes the CSVs of the reference configs of ``tools/csv_digests.py`` (all of
them, or the named ones) in its own subprocess with one BLAS thread.  For each
config one line gives the row counts and whether the two CSVs are
byte-identical, one line per changed numeric column gives the largest
relative difference |old - new| / max(|old|, |new|) over its cells, one
line (if any) names the numeric columns whose text changes where no value
does (``1`` against ``1.0``, ``-0.0`` against ``0.0``), and one line lists
the numeric columns that did not change.  A column is numeric when one of its cells
parses as a float and every other is empty or parses too.  The exit code is
1 when a header, a row count or a non-numeric cell differs (or a numeric cell
is empty on one side only), and 0 otherwise; a numeric bound is for the
reader to check.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent

# Runs in the subprocess, with PYTHONPATH set to one tree's src.
WRITER = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import csv_digests
sys.exit(csv_digests.write_csvs(sys.argv[3:], Path(sys.argv[2]), lambda name, path: None))
"""


def write_tree(src: str, out_dir: Path, names: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", WRITER, str(TOOLS), str(out_dir), *names],
                   env=env, check=True)


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def relative_difference(old: float, new: float) -> float:
    return 0.0 if old == new else abs(old - new) / max(abs(old), abs(new))


def compare(old_path: Path,
            new_path: Path) -> tuple[list[str], dict[str, float], list[str], int, int]:
    """(problems, largest relative difference per numeric column, numeric
    columns changed in text only, old and new row counts) of two CSVs."""
    with open(old_path, newline="", encoding="utf-8") as fh:
        old = list(csv.reader(fh))
    with open(new_path, newline="", encoding="utf-8") as fh:
        new = list(csv.reader(fh))
    counts = len(old) - 1, len(new) - 1
    if old[0] != new[0]:
        return [f"headers differ: {old[0]} != {new[0]}"], {}, [], *counts
    problems = []
    if counts[0] != counts[1]:
        problems.append("row counts differ")
    rows = list(zip(old[1:], new[1:]))
    drift, text_only = {}, []
    for col, name in enumerate(old[0]):
        cells = [(a[col], b[col]) for a, b in rows]
        numbers = [(_number(a), _number(b)) for a, b in cells]
        numeric = (any(x is not None for x, _ in numbers)
                   and all((x is not None or a == "") and (y is not None or b == "")
                           for (a, b), (x, y) in zip(cells, numbers)))
        if not numeric:
            changed = sum(a != b for a, b in cells)
            if changed:
                problems.append(f"{name}: {changed} non-numeric cells differ")
            continue
        worst = 0.0
        for (a, b), (x, y) in zip(cells, numbers):
            if (a == "") != (b == ""):
                problems.append(f"{name}: a cell is empty on one side only")
            elif a != b:
                worst = max(worst, relative_difference(x, y))
        drift[name] = worst
        if not worst and any(a != b for a, b in cells):
            text_only.append(name)
    return problems, drift, text_only, *counts


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: csv_drift.py OLD_SRC NEW_SRC [NAME ...]", file=sys.stderr)
        return 2
    old_src, new_src, names = argv[0], argv[1], argv[2:]
    sys.path.insert(0, str(TOOLS))
    import csv_digests

    order = names or list(csv_digests.reference_configs())
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        old_dir, new_dir = Path(tmp, "old"), Path(tmp, "new")
        for src, out_dir in ((old_src, old_dir), (new_src, new_dir)):
            out_dir.mkdir()
            write_tree(src, out_dir, names)
        for name in order:
            old_path, new_path = old_dir / f"{name}.csv", new_dir / f"{name}.csv"
            problems, drift, text_only, old_rows, new_rows = compare(old_path, new_path)
            status = "same" if old_rows == new_rows else "DIFFER"
            identical = old_path.read_bytes() == new_path.read_bytes()
            print(f"{name}: rows {old_rows} / {new_rows} {status}, "
                  f"{'byte-identical' if identical else 'bytes differ'}")
            for column, worst in drift.items():
                if worst:
                    print(f"  {column:<18} {worst:.3g}")
            if text_only:
                print("  text only:", ", ".join(text_only))
            print("  unchanged:", ", ".join(c for c, worst in drift.items()
                                            if not worst and c not in text_only))
            for problem in problems:
                print(f"  FAIL {problem}")
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
