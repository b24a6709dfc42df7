"""The comparison tools under tools/ run end to end."""

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
