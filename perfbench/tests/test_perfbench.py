"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import spec  # noqa: E402
import workload as bench  # noqa: E402
from relayfl import aggregation, cli, optimizer  # noqa: E402
from tracer import Tracer, tail_percentile  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small(name: str) -> spec.Workload:
    """The named workload shrunk to a few seconds: fewer rounds, trials and passes."""
    w = spec.WORKLOADS_BY_NAME[name]
    config = json.loads(json.dumps(w.config))
    if w.command == "theorem-sweep":
        config["trials"] = 3
    else:
        config["fl"]["total_blocks"] = 4
    return dataclasses.replace(w, config=config, passes=1, traced_passes=1)


def test_benchmark_json_is_rendered_from_spec_and_meets_the_contract():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(committed["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert all(re.match(r"^[A-Za-z0-9_./-]{1,200}$", p) for p in committed["paths"])
    assert 1 <= committed["run_seconds"] <= 60
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])
    assert len(json.dumps(committed)) < 64 * 1024


def test_tracer_restores_every_binding():
    before = (optimizer.relay_mse, aggregation.relay_mse, cli.write_csv, optimizer.solve)
    with Tracer():
        assert optimizer.relay_mse is aggregation.relay_mse
        assert optimizer.relay_mse is not before[0]
        assert cli.write_csv is not before[2]
    assert (optimizer.relay_mse, aggregation.relay_mse, cli.write_csv,
            optimizer.solve) == before


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = np.arange(1.0, 41.0)
    pct, value = tail_percentile(samples)
    assert value == 30.0 and pct == 75.0
    assert np.sum(samples > value) == 10
    assert tail_percentile(np.arange(10.0)) == (0.0, 0.0)


@pytest.mark.parametrize("name", [w.name for w in spec.WORKLOADS + spec.EXTRA_WORKLOADS])
def test_traced_runs_repeat_exactly(name, tmp_path):
    w = small(name)
    first = bench.run_workload(w, 3, 0.0, True, tmp_path / "a")
    second = bench.run_workload(w, 3, 0.0, True, tmp_path / "b")
    assert first["failed"] == 0 and second["failed"] == 0
    for metric in spec.DETERMINISTIC_PER_LAYER:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert set(first["metrics"]) >= {m.name for m in spec.PER_LAYER}
    calls = first["metrics"]
    if w.config.get("scheme") == "no_relay":
        assert calls["optimizer.update_device_scalars.calls"] == 0
        assert calls["optimizer.solve.calls"] == 0
        assert calls["geometry.perturb_channels.calls"] > 0
    else:
        assert calls["optimizer.solve.calls"] > 0
    assert (calls["single_relay.analytic_construction.calls"] > 0) == (
        w.command == "theorem-sweep")


def test_second_seed_runs_cleanly(tmp_path):
    result = bench.run_workload(small("line-k20-n1"), 2, 0.0, False, tmp_path)
    assert result["failed"] == 0 and result["attempted"] == 2 * 3
    metrics = result["metrics"]
    assert metrics["trials_per_s"] > 0 and metrics["peak_rss_mb"] > 0
    assert metrics["failed_frac"] == 0.0
    assert 0.0 < metrics["mse_ratio_p50"] <= metrics["mse_ratio_max"]
    assert 0.0 <= metrics["final_accuracy"] <= 1.0


def test_nan_output_counts_as_failed_trial(tmp_path, monkeypatch):
    real = cli.run_experiment

    def corrupted(config):
        rows = real(config)
        rows[0]["mse_predicted"] = math.nan
        return rows

    monkeypatch.setattr(cli, "run_experiment", corrupted)
    result = bench.run_workload(small("line-k20-n1"), 2, 0.0, False, tmp_path)
    # The first trial fails in the untraced pass and in its traced replay.
    assert result["failed"] == 2
    assert result["metrics"]["failed_frac"] == 2 / result["attempted"]
    assert any("mse_predicted nan" in p for p in result["record"]["problems"])


def test_raising_pass_fails_all_its_trials(tmp_path, monkeypatch):
    def broken(config):
        raise FloatingPointError("injected")

    monkeypatch.setattr(cli, "run_experiment", broken)
    result = bench.run_workload(small("line-k20-n1"), 2, 0.0, True, tmp_path)
    assert result["failed"] == result["attempted"] > 0


def test_runner_prints_the_contract_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem-k20-hisnr",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line-k20-n1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
