"""The comparison tools under tools/ run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_csv_drift_finds_no_change_between_a_tree_and_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "csv_drift.py"), src, src,
         "zero-relay-cell-no_relay"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # Two trials of 8 one-block rounds.  A zero-relay run without a sweep
    # leaves the sweep and single-relay columns empty; every other is numeric.
    assert proc.stdout.splitlines() == [
        "zero-relay-cell-no_relay: rows 16 / 16 same",
        "  unchanged: trial, round, blocks_used, nmse_db, test_accuracy, mse_predicted",
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
