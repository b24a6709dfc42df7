"""One benchmark workload, run inside a fresh process started by run.py.

Usage (from the root of a relayfl checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 --dir DIR

The process runs passes through ``relayfl.cli.main``.  Pass p uses master seed
``seed * STREAM_SEED_STRIDE + p`` and writes its CSV into DIR, so a repeated
pass sees the same inputs.

* ``--trace 0``: passes 0..passes-1 run in turn, cycling, until S seconds
  have passed and each has run at least once.  ``trials_per_s`` divides the
  trials of one cycle by the sum over passes of the upper decile of each
  pass's times (see ``upper_decile``).  ``peak_rss_mb`` is read next, and
  one traced run of the traced set (passes 0..traced_passes-1) gives the
  quality metrics.
* ``--trace 1``: the traced set runs once untraced, then repeatedly under the
  tracer for S seconds; per-layer times are upper deciles over the
  repetitions.

Every pass's output is checked; a repeated pass must write the same CSV as
its first run, and a traced pass the same CSV as the untraced one, byte for
byte.  The last stdout line is one JSON object with ``attempted``,
``failed``, ``metrics`` and ``record``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from relayfl import aggregation, cli, experiment, optimizer

import spec
from tracer import FunctionStats, Tracer, layer_of, tail_percentile

MAX_CONSTRAINT_VIOLATION = 1e-9


@dataclass
class PassOutcome:
    """Result of one pass: its trial keys, the ones that failed, and timing."""

    workload: spec.Workload
    index: int
    csv: Path
    elapsed_s: float
    written: bytes | None = None    # the CSV's bytes, when cli.main returned 0
    failed: set = field(default_factory=set)
    rows: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def trials(self) -> list[tuple[int, int]]:
        per_point = self.workload.config["trials"]
        return [(point, trial) for point in range(self.workload.points)
                for trial in range(per_point)]

    def fail_all(self, reason: str) -> None:
        self.failed.update(self.trials)
        self.problems.append(reason)


def master_seed(seed: int, index: int) -> int:
    return seed * spec.STREAM_SEED_STRIDE + index


def run_pass(workload: spec.Workload, config_path: Path, seed: int, index: int,
             csv: Path) -> PassOutcome:
    """One ``relayfl.cli.main`` call, from config file to written CSV, then checks."""
    argv = [workload.command, "--config", str(config_path), "--out", str(csv),
            "--seed", str(master_seed(seed, index))]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a raising trial is a failed trial, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    outcome = PassOutcome(workload, index, csv, time.perf_counter() - start)
    if code != 0:
        outcome.fail_all(f"cli.main returned {code!r}")
        return outcome
    try:
        outcome.written = csv.read_bytes()
    except OSError as exc:
        outcome.fail_all(f"CSV unreadable: {exc}")
        return outcome
    check_csv(outcome)
    return outcome


def check_csv(outcome: PassOutcome) -> None:
    """Re-parse the pass's CSV and mark every trial whose rows are wrong."""
    workload = outcome.workload
    try:
        rows = experiment.read_csv(str(outcome.csv))
    except (OSError, ValueError, IndexError) as exc:
        outcome.fail_all(f"CSV does not re-parse: {exc}")
        return
    expected = workload.trials_per_pass * workload.rows_per_trial
    if len(rows) != expected:
        outcome.fail_all(f"{len(rows)} CSV rows, expected {expected}")
        return
    outcome.rows = rows
    points = {}
    for row in rows:
        if workload.command == "theorem-sweep":
            key = (0, row["trial"])
        else:
            key = (points.setdefault(row["sweep_value"], len(points)), row["trial"])
        mse = row["mse_predicted"]
        accuracy = row["test_accuracy"]
        if mse is None or not math.isfinite(mse) or mse < 0:
            outcome.failed.add(key)
            outcome.problems.append(f"trial {key}: mse_predicted {mse!r}")
        if workload.command == "run" and (accuracy is None or not 0.0 <= accuracy <= 1.0):
            outcome.failed.add(key)
            outcome.problems.append(f"trial {key}: test_accuracy {accuracy!r}")


def traced_pass(workload: spec.Workload, config_path: Path, seed: int, index: int,
                csv: Path, reference: bytes | None):
    """Replay one pass under the tracer; check its CSV against the untraced bytes.

    Without both CSVs (a pass whose cli.main failed) the replay cannot be
    verified and all its trials count as failed.

    Returns (outcome, tracer, solve_quality).
    """
    tracer = Tracer()
    with tracer:
        outcome = run_pass(workload, config_path, seed, index, csv)
    if reference is None or outcome.written is None:
        outcome.fail_all("no CSV pair to compare")
    elif outcome.written != reference:
        outcome.fail_all("traced CSV differs from the untraced CSV")
    quality = solve_quality(tracer.solves)
    for position, (record, violation) in enumerate(zip(tracer.solves, quality["violation"])):
        if not violation <= MAX_CONSTRAINT_VIOLATION:  # NaN fails too
            key = record.trial if record.trial is not None else (0, position)
            outcome.failed.add(key)
            outcome.problems.append(f"trial {key}: constraint violation {violation:.3e}")
    return outcome, tracer, quality


def solve_quality(solves) -> dict:
    """Per-solve sweeps, stop reason, warnings, MSE / no-relay ratio and violation."""
    out = {"sweeps": [], "capped": [], "gap_misses": [], "relay_rejected": [],
           "ratio": [], "violation": []}
    for record in solves:
        args = record.arguments
        channels, weights, budget = args["channels"], args["weights"], args["budget"]
        variant = args.get("variant", optimizer.SchemeVariant.FULL)
        phase1 = 2.0 * budget.p0 if variant is optimizer.SchemeVariant.RELAY_ONLY else None
        trace = record.trace
        mse = aggregation.relay_mse(record.config, channels, weights, budget.sigma2)
        _, _, norelay = aggregation.norelay_optimum(channels.h, weights, 2.0 * budget.p0,
                                                    budget.sigma2)
        out["sweeps"].append(trace.iterations_run)
        out["capped"].append(trace.terminated_by == "max_iterations")
        out["gap_misses"].append(sum("device QCQP gap" in w for w in trace.warnings))
        out["relay_rejected"].append(sum("relay update rejected" in w
                                         for w in trace.warnings))
        out["ratio"].append(mse / norelay)
        out["violation"].append(aggregation.max_constraint_violation(
            record.config, channels, budget, phase1_budget=phase1))
    return out


def solver_summary(quality: dict) -> dict:
    """Counts and ratios over all solves; every figure is 0 when there were none."""
    solves = len(quality["ratio"])
    return {
        "sweeps_per_solve": sum(quality["sweeps"]) / solves if solves else 0.0,
        "capped": sum(quality["capped"]),
        "qcqp_gap_misses": sum(quality["gap_misses"]),
        "relay_rejected": sum(quality["relay_rejected"]),
        "mse_ratio_p50": statistics.median(quality["ratio"]) if solves else 0.0,
        "mse_ratio_max": max(quality["ratio"]) if solves else 0.0,
    }


def end_to_end_quality(outcomes: list[PassOutcome], quality: dict) -> dict:
    """Deterministic end-to-end metrics of the traced set; omits those that do not apply."""
    out = {}
    solves = len(quality["ratio"])
    if solves:
        summary = solver_summary(quality)
        out["capped_frac"] = summary["capped"] / solves
        out["mse_ratio_p50"] = summary["mse_ratio_p50"]
        out["mse_ratio_max"] = summary["mse_ratio_max"]
    rows = [row for o in outcomes for row in o.rows if row["test_accuracy"] is not None]
    if rows:
        last = {}
        for o in outcomes:
            for row in o.rows:
                key = (o.index, row["sweep_value"], row["trial"])
                if key not in last or row["round"] > last[key]["round"]:
                    last[key] = row
        out["final_accuracy"] = statistics.fmean(r["test_accuracy"] for r in last.values())
        out["nmse_db_mean"] = statistics.fmean(r["nmse_db"] for r in rows)
    return out


def layer_metrics(tracers: list[list[Tracer]], quality: dict) -> tuple[dict, dict, list]:
    """Per-layer metrics over repetitions of the traced set.

    Each repetition is a list of tracers (one per pass).  Counts come from the
    first repetition; times are upper deciles of the per-repetition sums;
    per-call percentiles pool every call of every repetition.  Also returns
    the tail percentiles and the functions whose call count differs between
    repetitions.
    """
    reps = [_merge(rep) for rep in tracers]
    unsteady = sorted(name for name, s in reps[0].items()
                      if any(rep[name].calls != s.calls for rep in reps[1:]))
    metrics, tails = {}, {}
    for layer in spec.LAYERS:
        metrics[f"{layer}.self_s"] = upper_decile([
            sum(s.self_s for name, s in rep.items() if layer_of(name) == layer)
            for rep in reps])
    for metric in spec.PER_LAYER:
        function, _, stat = metric.name.rpartition(".")
        if metric.name in metrics or function not in reps[0]:
            continue
        if stat == "calls":
            metrics[metric.name] = reps[0][function].calls
        elif stat in ("busy_s", "self_s"):
            metrics[metric.name] = upper_decile([getattr(rep[function], stat)
                                                 for rep in reps])
        else:
            pooled = np.concatenate([rep[function].durations_s for rep in reps])
            if stat == "p50_ms":
                metrics[metric.name] = 1000.0 * float(np.median(pooled)) if pooled.size else 0.0
            else:
                pct, value = tail_percentile(pooled)
                metrics[metric.name] = 1000.0 * value
                tails[metric.name] = {"percentile": pct, "samples": int(pooled.size)}
    metrics.update({f"optimizer.{k}": v for k, v in solver_summary(quality).items()})
    missing = [m.name for m in spec.PER_LAYER if m.name not in metrics]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    return metrics, tails, unsteady


def upper_decile(samples: list[float]) -> float:
    """90th percentile (linear interpolation) of repeated timings of identical work.

    A shared virtual machine can alternate between two CPU speeds; on a 2-core
    VM they were about 1.6x apart, and the share of fast time in a 30 s run
    varied from none to most of it.  The median then flips between the two
    speeds from run to run, while the slow phase shows up in almost every run,
    so its speed is the steady figure.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _merge(tracers: list[Tracer]) -> dict:
    """Sum the function statistics of the passes of one repetition."""
    merged = {}
    for tracer in tracers:
        for name, s in tracer.function_stats().items():
            m = merged.get(name)
            merged[name] = s if m is None else FunctionStats(
                m.calls + s.calls, m.busy_s + s.busy_s, m.self_s + s.self_s,
                np.concatenate([m.durations_s, s.durations_s]))
    return merged


def _merge_quality(qualities: list[dict]) -> dict:
    return {key: [v for q in qualities for v in q[key]] for key in qualities[0]}


def reference_kernel_ms() -> float:
    """Median time of a fixed small-array kernel, as a machine-speed reading only."""
    x = np.linspace(0.0, 1.0, 20) * (1 + 1j)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0.0
        for _ in range(1000):
            total += float(np.sum(np.abs(x * 1.0001 - 0.5) ** 2))
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def machine_info(seed: int) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def run_workload(workload: spec.Workload, seed: int, seconds: float, trace: bool,
                 directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=1) + "\n", encoding="utf-8")
    record = {"workload": workload.name, "machine": machine_info(seed),
              "reference_kernel_ms": {"before": reference_kernel_ms()}}
    outcomes: list[PassOutcome] = []
    reference: dict[int, bytes] = {}

    def untraced(index: int) -> PassOutcome:
        outcome = run_pass(workload, config_path, seed, index, directory / f"pass{index}.csv")
        if outcome.written is not None and (
                outcome.written != reference.setdefault(index, outcome.written)):
            outcome.fail_all("CSV differs from the first run of the same pass")
        outcomes.append(outcome)
        return outcome

    def traced_set() -> tuple[list[Tracer], dict]:
        tracers, qualities = [], []
        for index in range(workload.traced_passes):
            outcome, tracer, quality = traced_pass(
                workload, config_path, seed, index, directory / f"traced{index}.csv",
                reference.get(index))
            outcomes.append(outcome)
            tracers.append(tracer)
            qualities.append(quality)
        return tracers, _merge_quality(qualities)

    metrics = {}
    if not trace:
        times: list[list[float]] = [[] for _ in range(workload.passes)]
        start, cpu_start = time.perf_counter(), time.process_time()
        count = 0
        while count < workload.passes or time.perf_counter() - start < seconds:
            index = count % workload.passes
            times[index].append(untraced(index).elapsed_s)
            count += 1
        typical = [upper_decile(t) for t in times]
        metrics["trials_per_s"] = workload.trials_per_pass * workload.passes / sum(typical)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["pass_seconds"] = times
        record["timed_cpu_over_wall"] = ((time.process_time() - cpu_start)
                                         / (time.perf_counter() - start))
        first = outcomes[:workload.traced_passes]
        _, quality = traced_set()
        metrics.update(end_to_end_quality(first, quality))
    else:
        for index in range(workload.traced_passes):
            untraced(index)
        repetitions, quality = [], None
        start = time.perf_counter()
        while not repetitions or time.perf_counter() - start < seconds:
            tracers, rep_quality = traced_set()
            repetitions.append(tracers)
            if quality is None:
                quality = rep_quality
            elif rep_quality != quality:
                outcomes[-1].fail_all("solver outcomes differ between traced repetitions")
        record["traced_repetitions"] = len(repetitions)
        layer, record["tail_percentiles"], unsteady = layer_metrics(repetitions, quality)
        if unsteady:
            outcomes[-1].fail_all(f"call counts differ between traced repetitions: {unsteady}")
        metrics.update(layer)

    attempted = sum(len(o.trials) for o in outcomes)
    failed = sum(len(o.failed) for o in outcomes)
    metrics["failed_frac"] = failed / attempted
    record["reference_kernel_ms"]["after"] = reference_kernel_ms()
    record["problems"] = [p for o in outcomes for p in o.problems][:20]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS_BY_NAME), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run_workload(spec.WORKLOADS_BY_NAME[args.workload], args.seed, args.seconds,
                          bool(args.trace), args.dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
