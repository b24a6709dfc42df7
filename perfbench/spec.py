"""What the benchmark measures: workloads, metric definitions, and BENCHMARK.json.

This module is the single source of truth for the benchmark's contract.
``report.py`` renders BENCHMARK.json from it, and a test checks that the
committed file matches.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 30
"""Length of the measured part of one run, in seconds."""

SETUP_PROBES = 7
"""Fresh processes timed per run for ``setup_s``; the median is reported."""

STREAM_SEED_STRIDE = 2**20
"""Pass p of a run with seed s uses master seed s * STREAM_SEED_STRIDE + p."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # relayfl subcommand: "run" or "theorem-sweep"
    config: dict            # relayfl configuration document for one pass
    passes: int             # distinct passes (instance sets) cycled by a timed run
    traced_passes: int      # passes 0..traced_passes-1 form the traced set

    @property
    def points(self) -> int:
        sweep = self.config.get("sweep")
        return len(sweep["values"]) if sweep else 1

    @property
    def trials_per_pass(self) -> int:
        """Monte Carlo trials in one pass: (sweep point, trial) pairs, or instances."""
        return self.config["trials"] * self.points

    @property
    def rows_per_trial(self) -> int:
        """CSV rows one trial must produce: one per FL round, or two per instance."""
        if self.command == "theorem-sweep":
            return 2
        relay_scheme = self.config["scheme"] in ("proposed", "relay_only")
        return self.config["fl"]["total_blocks"] // (2 if relay_scheme else 1)


WORKLOADS = (
    Workload(
        name="line-k20-n1",
        why="paper default (line, K=20, N=1, -70 dBm) swept over pr_watts: "
            "relay constraints active and slack; N=1 device QCQP, converged solves",
        command="run",
        config={"scheme": "proposed", "num_devices": 20, "num_relays": 1, "trials": 1,
                "budget": {"noise_dbm": -70.0}, "layout": {"kind": "line"},
                "fl": {"total_blocks": 40},
                "sweep": {"key": "pr_watts", "values": [0.01, 0.1, 1.0]}},
        passes=12,
        traced_passes=3,
    ),
    Workload(
        name="fl-k100-norelay",
        why="no-relay scheme with CSI error and K=100, tau=5 local steps: bypasses "
            "the optimizer, loads federated training and perturb_channels",
        command="run",
        config={"scheme": "no_relay", "num_devices": 100, "num_relays": 1, "trials": 1,
                "csi_kappa": 0.5, "layout": {"kind": "line"},
                "fl": {"total_blocks": 40, "tau": 5, "num_classes": 10, "feature_dim": 50,
                       "samples_per_class": 400, "partition": "shards"}},
        passes=2,
        traced_passes=2,
    ),
    Workload(
        name="theorem-k20-hisnr",
        why="theorem-sweep, line, K=20 at -100 dBm: analytic construction, "
            "warm-started solves and the N=1 high-SNR regime",
        command="theorem-sweep",
        config={"num_devices": 20, "num_relays": 1, "trials": 20,
                "budget": {"noise_dbm": -100.0}, "layout": {"kind": "line"}},
        passes=4,
        traced_passes=2,
    ),
)

# Runnable by name but not in BENCHMARK.json.  Its -80 dBm solves vary so much
# in cost (about 0.19 s mean, standard deviation about the same) that a
# trials_per_s steady across seeds needs some 300 distinct solves, about a
# minute per run, more than the run count allows.  Its per-layer and quality
# numbers repeat exactly and are still printed by report.py.
EXTRA_WORKLOADS = (
    Workload(
        name="cell-k100-n4",
        why="cell, K=100, N=4 at -80 dBm (heavy multi-relay dual search) and "
            "-100 dBm (sweep-cap bound), so solver quality has something to measure",
        command="run",
        config={"scheme": "proposed", "num_devices": 100, "num_relays": 4, "trials": 1,
                "layout": {"kind": "cell"}, "fl": {"total_blocks": 8},
                "sweep": {"key": "noise_dbm", "values": [-80.0, -100.0]}},
        passes=5,
        traced_passes=3,
    ),
)

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS + EXTRA_WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str             # "lower" or "higher"
    bound: float | None = None  # end-to-end metrics only


# Gated end-to-end metrics: present and nonzero on every workload.
END_TO_END = (
    Metric("trials_per_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

# Reported end-to-end metrics that are not gated: each is missing on some
# workload (no solves, no training) or is zero at the seed code, and the
# deterministic ones change only when the numbers change on purpose.
END_TO_END_REPORTED = (
    Metric("failed_frac", "1", "lower"),
    Metric("capped_frac", "1", "lower"),
    Metric("mse_ratio_p50", "1", "lower"),
    Metric("mse_ratio_max", "1", "lower"),
    Metric("final_accuracy", "1", "higher"),
    Metric("nmse_db_mean", "dB", "lower"),
)

LAYERS = ("geometry", "aggregation", "optimizer", "single_relay", "federated", "experiment")


def _timed(function: str, *stats: str) -> tuple[Metric, ...]:
    units = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms"}
    return tuple(Metric(f"{function}.{s}", units[s], "lower") for s in stats)


PER_LAYER = (
    *(Metric(f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    *_timed("experiment.run_trial", "p50_ms", "tail_ms"),
    *_timed("experiment.write_csv", "busy_s"),
    *_timed("federated.train", "self_s"),
    *_timed("federated.local_update", "calls", "busy_s"),
    *_timed("federated.evaluate_accuracy", "busy_s"),
    *_timed("optimizer.solve", "calls", "busy_s", "self_s", "p50_ms", "tail_ms"),
    Metric("optimizer.sweeps_per_solve", "count", "lower"),
    Metric("optimizer.capped", "count", "lower"),
    Metric("optimizer.mse_ratio_p50", "1", "lower"),
    Metric("optimizer.mse_ratio_max", "1", "lower"),
    *_timed("optimizer.update_device_scalars", "calls", "busy_s", "p50_ms"),
    Metric("optimizer.qcqp_gap_misses", "count", "lower"),
    *_timed("optimizer.update_relay_scalars", "calls", "busy_s"),
    Metric("optimizer.relay_rejected", "count", "lower"),
    *_timed("optimizer.update_c1", "busy_s"),
    *_timed("optimizer.update_c2", "busy_s"),
    *_timed("aggregation.relay_mse", "calls", "busy_s"),
    *_timed("aggregation.simulate_round", "busy_s"),
    *_timed("aggregation.norelay_optimum", "calls", "busy_s"),
    *_timed("geometry.realize_channels", "calls", "busy_s"),
    *_timed("geometry.perturb_channels", "calls", "busy_s"),
    *_timed("single_relay.analytic_construction", "calls", "busy_s"),
    *_timed("single_relay.snr_summary", "busy_s"),
)

# Per-layer metrics that must repeat exactly for a given seed and code.
DETERMINISTIC_PER_LAYER = tuple(
    m.name for m in PER_LAYER
    if m.name.endswith(".calls") or m.name.split(".", 1)[1] in (
        "sweeps_per_solve", "capped", "mse_ratio_p50", "mse_ratio_max",
        "qcqp_gap_misses", "relay_rejected"))


def benchmark_json() -> dict:
    """The BENCHMARK.json document, keys in the order the contract lists them."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
