"""The comparison tools under tools/ run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import code_lines  # noqa: E402
import csv_drift  # noqa: E402


def test_csv_drift_finds_no_change_between_a_tree_and_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "csv_drift.py"), src, src,
         "zero-relay-cell-no_relay"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # Two trials of 8 one-block rounds.  A zero-relay run without a sweep
    # leaves the sweep and single-relay columns empty; every other is numeric.
    assert proc.stdout.splitlines() == [
        "zero-relay-cell-no_relay: rows 16 / 16 same, byte-identical",
        "  unchanged: trial, round, blocks_used, nmse_db, test_accuracy, mse_predicted",
    ]


def _drift_of(old_text, new_text, tmp_path, monkeypatch):
    """compare() of two hand-made CSVs, and main()'s exit code when each tree
    writes one of them as config "pair"."""
    texts = {"old": old_text, "new": new_text}
    monkeypatch.setattr(csv_drift, "write_tree",
                        lambda src, out_dir, names: (out_dir / "pair.csv").write_text(texts[src]))
    (tmp_path / "old.csv").write_text(old_text)
    (tmp_path / "new.csv").write_text(new_text)
    return csv_drift.compare(tmp_path / "old.csv", tmp_path / "new.csv"), \
        csv_drift.main(["old", "new", "pair"])


@pytest.mark.parametrize("old, new, problem", [
    ("a,b\n1,2\n", "a,c\n1,2\n", "headers differ: ['a', 'b'] != ['a', 'c']"),
    ("a,b\n1,2\n3,4\n", "a,b\n1,2\n", "row counts differ"),
    ("a,s\n1,x\n2,y\n", "a,s\n1,x\n2,z\n", "s: 1 non-numeric cells differ"),
    ("a,b\n1,2\n3,\n", "a,b\n1,2\n3,4\n", "b: a cell is empty on one side only"),
], ids=["header", "row-count", "non-numeric-cell", "one-sided-empty-cell"])
def test_csv_drift_fails_on_a_structural_difference(old, new, problem, tmp_path, monkeypatch,
                                                    capsys):
    (problems, *_), code = _drift_of(old, new, tmp_path, monkeypatch)
    assert problems == [problem]
    assert code == 1
    assert f"  FAIL {problem}" in capsys.readouterr().out.splitlines()


def test_csv_drift_reports_a_numeric_change_and_passes(tmp_path, monkeypatch, capsys):
    (problems, drift, text_only, old_rows, new_rows), code = _drift_of(
        "a,b,s\n1,2,x\n3,,y\n", "a,b,s\n1,2.5,x\n3,,y\n", tmp_path, monkeypatch)
    assert problems == []
    assert drift == {"a": 0.0, "b": 0.2}
    assert text_only == []
    assert (old_rows, new_rows) == (2, 2)
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "pair: rows 2 / 2 same, bytes differ",
        "  b                  0.2",
        "  unchanged: a",
    ]


def test_csv_drift_names_columns_changed_in_text_only(tmp_path, monkeypatch, capsys):
    # Equal values in other text: the CSVs are not byte-identical, and no
    # value drifts.
    (problems, drift, text_only, _, _), code = _drift_of(
        "a,b,c\n1,-0.0,5\n2,3,6\n", "a,b,c\n1.0,0.0,5\n2,3,6\n", tmp_path, monkeypatch)
    assert problems == []
    assert drift == {"a": 0.0, "b": 0.0, "c": 0.0}
    assert text_only == ["a", "b"]
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "pair: rows 2 / 2 same, bytes differ",
        "  text only: a, b",
        "  unchanged: c",
    ]


def _csv_digests(*names):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "csv_digests.py"), *names], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_csv_digests_prints_one_stable_line_per_config():
    runs = [_csv_digests("zero-relay-cell-no_relay") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(r"zero-relay-cell-no_relay [0-9a-f]{12}\n", proc.stdout)
    assert runs[0].stdout == runs[1].stdout


def test_csv_digests_rejects_an_unknown_config():
    proc = _csv_digests("no-such-config")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("unknown config no-such-config; known: line-k20-n1, ")
    assert "num-relays-0-2" in proc.stderr


# What the reference configs leave unreached in src/relayfl (tools/cli_reach.py),
# each entry with the caller outside the CLI that needs it.  Code that no
# reference config reaches gets a config that does, leaves the package, or an
# entry here.
CLI_UNREACHED = {
    "aggregation.max_constraint_violation":
        "perfbench/workload.py solve_quality; tests/test_optimizer.py",
    "aggregation.relay_power_used": "max_constraint_violation; tests/test_aggregation.py",
    "experiment.read_csv": "perfbench/workload.py check_csv; tests/test_experiment.py",
    "optimizer.SolverTrace.iterations_run": "perfbench/workload.py solve_quality",
    'cli.main: config = override(config, "master_seed", args.seed)':
        "relayfl run --seed; tests/test_experiment.py",
    "optimizer.update_device_scalars: if base_dual == -np.inf: break":
        "library calls with overflowing relay powers; "
        "test_non_finite_first_dual_keeps_the_fallbacks",
}


def test_cli_reach_leaves_only_code_with_an_outside_caller():
    # One BLAS thread, as for the digests: qcqp-gap-cell-n4 reaches the device
    # QCQP gap warning only under one thread.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_reach.py")], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                          "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == sorted(CLI_UNREACHED)


GRID_LINE = re.compile(
    r"(line|cell) seed=(\d+) pr=(0\.01|0\.1|1) noise_dbm=(-70|-80|-100) sweeps=(\d+) "
    r"stop=(converged|max_iterations) gap_misses=(\d+) mse=(\S+)")


def test_solver_grid_prints_one_line_per_seeded_solve():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solver_grid.py")], capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                                     "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 216
    keys = set()
    for line in lines:
        match = GRID_LINE.fullmatch(line)
        assert match, line
        cell, seed, pr, noise, sweeps, stop, misses, mse = match.groups()
        keys.add((cell, int(seed), pr, noise))
        # j_max is 100: a solve stops converged, or capped after 100 sweeps.
        assert 1 <= int(sweeps) <= 100 and (stop == "converged" or int(sweeps) == 100), line
        assert 0 <= int(misses) <= int(sweeps)
        assert 0 < float(mse) < float("inf") and repr(float(mse)) == mse
    assert len(keys) == 216


CODE_LINES_FIXTURE = {
    # 8 code lines: the import, the class header, both lines of the string that is
    # no docstring, and both lines of the def and of the return statement.
    "a.py": '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line


class A:
    """Class docstring."""

    # a comment-only line
    x = """a string that is
    not a docstring"""

    def f(self,
          y):
        """Function docstring,
        two lines."""
        return (y +
                1)
''',
    "sub/b.py": "async def g():\n    '''Docstring.'''\n    pass\n",
    "__init__.py": "",
    "notes.txt": "not python\n",
}


def test_code_lines_counts_a_fixture(tmp_path, capsys):
    for name, text in CODE_LINES_FIXTURE.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"0 {tmp_path / '__init__.py'}", f"8 {tmp_path / 'a.py'}",
        f"2 {tmp_path / 'sub' / 'b.py'}", "10 total"]


@pytest.mark.parametrize("source, expected", [
    pytest.param("\n\n   \n", 0, id="blank"),
    pytest.param("# one\n    # two\n", 0, id="comments-only"),
    pytest.param('"""Only a docstring."""\n', 0, id="module-docstring"),
    pytest.param('import os\n"""A later string is code."""\n', 2, id="later-module-string"),
    pytest.param('def f():\n    x = 1\n    """Not first, so code."""\n', 3,
                 id="later-function-string"),
    pytest.param('class A:\n    def f(self):\n        """Doc."""\n\n        class B:\n'
                 '            """Doc."""\n', 3, id="nested-docstrings"),
    pytest.param("@staticmethod\ndef f():\n    return f'{1}'\n", 3, id="decorator-and-fstring"),
    pytest.param("x = [\n    1,\n\n    2,\n]\n", 4, id="blank-inside-brackets"),
])
def test_code_lines_of_source(source, expected):
    assert code_lines.code_lines(source) == expected


def test_code_lines_takes_one_file(tmp_path, capsys):
    path = tmp_path / "one.py"
    path.write_text("x = 1\n# comment\ny = 2\n")
    assert code_lines.main([str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"2 {path}", "2 total"]
