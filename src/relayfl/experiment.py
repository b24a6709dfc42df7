"""Experiment configuration, Monte Carlo orchestration, and CSV emission.

Configs are JSON documents whose top-level keys match the ExperimentConfig
fields; unknown keys at any level are rejected so typos fail loudly.  Every
trial derives its own random stream from (master_seed, sweep index, trial
index), which makes runs reproducible and trial order irrelevant.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import aggregation as agg
from . import federated, geometry, optimizer, single_relay

SWEEPABLE_KEYS = ("pr_watts", "p0_watts", "noise_dbm", "x_relay", "num_devices",
                  "num_relays", "shards_c", "csi_kappa", "total_blocks")

CSV_COLUMNS = ("sweep_key", "sweep_value", "trial", "round", "blocks_used",
               "nmse_db", "test_accuracy", "mse_predicted", "mse_norelay_bound",
               "cond40", "cond41")


class ConfigError(ValueError):
    """Configuration document is malformed; the message names the key path."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class BudgetConfig:
    p0_watts: float = 0.05
    pr_watts: float = 0.1
    noise_dbm: float = -70.0


@dataclass(frozen=True)
class LayoutConfig:
    kind: str = "line"  # "line" or "cell"
    x_relay: float = 50.0
    device_x_min: float = 80.0
    device_x_max: float = 120.0
    device_y_half: float = 60.0
    cell_radius: float = 120.0
    relay_ring_radius: float = 50.0
    antenna_gain: float = 4.11
    pathloss_exponent: float = 3.0
    carrier_freq_hz: float = 915e6


@dataclass(frozen=True)
class SolverSection:
    j_max: int = 100
    epsilon: float = 1e-4
    qcqp_tol: float = 1e-8
    qcqp_max_iter: int = 300


@dataclass(frozen=True)
class FlConfig:
    total_blocks: int = 40
    tau: int = 1
    lr_base: float = 0.05
    lr_decay: float = 0.9
    lr_step: int = 50
    lr_floor: float = 1e-5
    num_classes: int = 5
    feature_dim: int = 20
    samples_per_class: int = 120
    separation: float = 4.0
    partition: str = "iid"  # "iid" or "shards"
    shards_c: int = 2


@dataclass(frozen=True)
class SweepConfig:
    key: str
    values: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str = "proposed"
    num_devices: int = 20
    num_relays: int = 1
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    solver: SolverSection = field(default_factory=SolverSection)
    fl: FlConfig = field(default_factory=FlConfig)
    csi_kappa: float | None = None
    trials: int = 50
    master_seed: int = 1
    sweep: SweepConfig | None = None


def _build_section(cls, data: dict, path: str):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key {path}.{sorted(unknown)[0]}")
    return cls(**data)


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    if config.scheme not in federated.SCHEMES:
        raise ConfigError(f"scheme must be one of {federated.SCHEMES}")
    if config.num_devices < 1:
        raise ConfigError("num_devices must be at least 1")
    if config.num_relays < 0:
        raise ConfigError("num_relays must be nonnegative")
    if config.trials < 1:
        raise ConfigError("trials must be at least 1")
    b = config.budget
    if b.p0_watts <= 0 or b.pr_watts <= 0:
        raise ConfigError("budget.p0_watts and budget.pr_watts must be positive")
    lay = config.layout
    if lay.kind not in ("line", "cell"):
        raise ConfigError("layout.kind must be 'line' or 'cell'")
    if lay.kind == "line" and config.num_relays != 1:
        raise ConfigError("line layout places exactly one relay; set num_relays to 1")
    if min(lay.x_relay, lay.cell_radius, lay.relay_ring_radius,
           lay.antenna_gain, lay.pathloss_exponent, lay.carrier_freq_hz) <= 0:
        raise ConfigError("layout geometry and propagation values must be positive")
    if lay.device_x_min <= 0 or lay.device_x_max <= lay.device_x_min:
        raise ConfigError("layout device x range must be positive and increasing")
    s = config.solver
    for name in ("j_max", "qcqp_max_iter"):
        value = getattr(s, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"solver.{name} must be an integer")
    for name in ("epsilon", "qcqp_tol"):
        value = getattr(s, name)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ConfigError(f"solver.{name} must be a finite number")
    if s.j_max < 1 or s.qcqp_max_iter < 1 or s.epsilon <= 0 or s.qcqp_tol <= 0:
        raise ConfigError("solver limits must be positive")
    fl = config.fl
    if fl.total_blocks < 1 or fl.tau < 1:
        raise ConfigError("fl.total_blocks and fl.tau must be at least 1")
    if fl.partition not in ("iid", "shards"):
        raise ConfigError("fl.partition must be 'iid' or 'shards'")
    if min(fl.num_classes, fl.feature_dim, fl.samples_per_class, fl.shards_c) < 1:
        raise ConfigError("fl task parameters must be positive")
    if fl.lr_base <= 0 or fl.lr_floor <= 0 or not 0 < fl.lr_decay <= 1 or fl.lr_step < 1:
        raise ConfigError("fl learning-rate schedule values are out of range")
    if config.csi_kappa is not None and not 0.0 <= config.csi_kappa <= 1.0:
        raise ConfigError("csi_kappa must lie in [0, 1]")
    if config.sweep is not None:
        if config.sweep.key not in SWEEPABLE_KEYS:
            raise ConfigError(f"sweep.key must be one of {SWEEPABLE_KEYS}")
        if not config.sweep.values:
            raise ConfigError("sweep.values must be nonempty")
    return config


def parse_config(data: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed JSON document."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]}")
    kwargs = {}
    try:
        for key, value in data.items():
            if key == "budget":
                kwargs[key] = _build_section(BudgetConfig, value, "budget")
            elif key == "layout":
                kwargs[key] = _build_section(LayoutConfig, value, "layout")
            elif key == "solver":
                kwargs[key] = _build_section(SolverSection, value, "solver")
            elif key == "fl":
                kwargs[key] = _build_section(FlConfig, value, "fl")
            elif key == "sweep":
                if value is None:
                    kwargs[key] = None
                else:
                    unknown_sweep = set(value) - {"key", "values"}
                    if unknown_sweep:
                        raise ConfigError(f"unknown key sweep.{sorted(unknown_sweep)[0]}")
                    kwargs[key] = SweepConfig(key=value["key"],
                                              values=tuple(value["values"]))
            else:
                kwargs[key] = value
        config = ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    return _validate(config)


def load_config(path: str) -> ExperimentConfig:
    """Read, parse, and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return parse_config(data)


def _apply_sweep(config: ExperimentConfig, key: str, value) -> ExperimentConfig:
    if key == "pr_watts":
        return replace(config, budget=replace(config.budget, pr_watts=float(value)))
    if key == "p0_watts":
        return replace(config, budget=replace(config.budget, p0_watts=float(value)))
    if key == "noise_dbm":
        return replace(config, budget=replace(config.budget, noise_dbm=float(value)))
    if key == "x_relay":
        return replace(config, layout=replace(config.layout, x_relay=float(value)))
    if key == "num_devices":
        return replace(config, num_devices=int(value))
    if key == "num_relays":
        return replace(config, num_relays=int(value))
    if key == "shards_c":
        return replace(config, fl=replace(config.fl, shards_c=int(value)))
    if key == "total_blocks":
        return replace(config, fl=replace(config.fl, total_blocks=int(value)))
    if key == "csi_kappa":
        return replace(config, csi_kappa=float(value))
    raise ConfigError(f"unsupported sweep key {key!r}")


def _power_budget(config: ExperimentConfig) -> agg.PowerBudget:
    return agg.PowerBudget(p0=config.budget.p0_watts, pr=config.budget.pr_watts,
                           sigma2=dbm_to_watts(config.budget.noise_dbm))


def _pl_params(config: ExperimentConfig) -> geometry.PathLossParams:
    lay = config.layout
    return geometry.PathLossParams(antenna_gain=lay.antenna_gain,
                                   carrier_freq=lay.carrier_freq_hz,
                                   exponent=lay.pathloss_exponent)


def _make_layout(config: ExperimentConfig, rng: np.random.Generator) -> geometry.NodeLayout:
    lay = config.layout
    if lay.kind == "line":
        return geometry.line_layout(
            config.num_devices, rng, x_relay=lay.x_relay,
            device_x=(lay.device_x_min, lay.device_x_max),
            device_y_half=lay.device_y_half)
    return geometry.cell_layout(config.num_devices, config.num_relays, rng,
                                cell_radius=lay.cell_radius,
                                ring_radius=lay.relay_ring_radius)


def _solver_config(config: ExperimentConfig) -> optimizer.SolverConfig:
    s = config.solver
    return optimizer.SolverConfig(j_max=s.j_max, epsilon=s.epsilon,
                                  qcqp_tol=s.qcqp_tol, qcqp_max_iter=s.qcqp_max_iter)


def run_trial(config: ExperimentConfig, sweep_index: int, trial: int) -> list:
    """Run one Monte Carlo trial and return its per-round metrics.

    The trial's positions, dataset, split, and all fading/noise are drawn from
    a stream keyed by (master_seed, sweep_index, trial), so trials can run in
    any order or concurrently.
    """
    rng = geometry.stream(config.master_seed, sweep_index, trial)
    layout = _make_layout(config, rng)
    fl = config.fl
    task = federated.make_synthetic_task(fl.num_classes, fl.feature_dim,
                                         fl.samples_per_class, fl.separation, rng)
    if fl.partition == "iid":
        partition = federated.partition_iid(task, config.num_devices, rng)
    else:
        partition = federated.partition_shards(task, config.num_devices, fl.shards_c)
    schedule = federated.LrSchedule(base=fl.lr_base, decay=fl.lr_decay,
                                    step=fl.lr_step, floor=fl.lr_floor)
    return federated.train(
        config.scheme, task, partition, layout, _pl_params(config),
        _power_budget(config), _solver_config(config), schedule, fl.total_blocks,
        rng, csi_kappa=config.csi_kappa, tau=fl.tau)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """All sweep points and trials; returns one row dict per round (CSV_COLUMNS)."""
    if config.sweep is None:
        points = [("", "")]
        configs = [config]
    else:
        points = [(config.sweep.key, v) for v in config.sweep.values]
        configs = [_validate(_apply_sweep(config, config.sweep.key, v))
                   for v in config.sweep.values]
    rows = []
    for sweep_index, ((key, value), cfg) in enumerate(zip(points, configs)):
        for trial in range(cfg.trials):
            for m in run_trial(cfg, sweep_index, trial):
                rows.append({
                    "sweep_key": key, "sweep_value": value, "trial": trial,
                    "round": m.round, "blocks_used": m.blocks_used,
                    "nmse_db": m.nmse_db, "test_accuracy": m.test_accuracy,
                    "mse_predicted": m.mse_predicted,
                    "mse_norelay_bound": m.mse_norelay_bound,
                    "cond40": m.cond40, "cond41": m.cond41,
                })
    return rows


def theorem_sweep(config: ExperimentConfig) -> list[dict]:
    """Sample single-relay instances and certify the analytic relaying bound.

    Each instance (one per trial) contributes two rows sharing delta and the
    condition booleans: round 0 carries the analytic construction's MSE in
    mse_predicted, round 1 the MSE of the full solver warm-started from that
    construction.  mse_norelay_bound holds the no-relay optimum at the 2*p0
    budget in both rows.
    """
    if config.num_relays != 1:
        raise ConfigError("theorem sweep requires num_relays = 1")
    budget = _power_budget(config)
    params = _pl_params(config)
    solver_cfg = _solver_config(config)
    weights = agg.DeviceWeights.uniform(config.num_devices)
    rows = []
    for trial in range(config.trials):
        rng = geometry.stream(config.master_seed, trial)
        layout = _make_layout(config, rng)
        channels = geometry.realize_channels(layout, params, rng)
        summary = single_relay.snr_summary(channels, budget)
        check = single_relay.check_theorem_conditions(summary, config.num_devices)
        construction = single_relay.analytic_construction(channels, weights, budget)
        _, _, bound = agg.norelay_optimum(channels.h, weights, 2.0 * budget.p0,
                                          budget.sigma2)
        solved, _ = optimizer.solve(channels, weights, budget, solver_cfg,
                                    optimizer.SchemeVariant.FULL,
                                    warm_start=construction.config)
        solved_mse = agg.relay_mse(solved, channels, weights, budget.sigma2)
        for rnd, mse in ((0, construction.mse), (1, solved_mse)):
            rows.append({
                "sweep_key": "delta", "sweep_value": summary.delta, "trial": trial,
                "round": rnd, "blocks_used": 0, "nmse_db": None,
                "test_accuracy": None, "mse_predicted": mse,
                "mse_norelay_bound": bound, "cond40": check.cond_40,
                "cond41": check.cond_41,
            })
    return rows


def _format_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(rows: list[dict], path: str) -> None:
    """Write the result table; floats use repr so finite values round-trip exactly."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col)) for col in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list[dict]:
    """Parse a file produced by write_csv back into typed row dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for col, cell in zip(header, cells):
            if cell == "":
                row[col] = None
            elif col in ("trial", "round", "blocks_used"):
                row[col] = int(cell)
            elif col in ("cond40", "cond41"):
                row[col] = cell == "true"
            elif col in ("sweep_key",):
                row[col] = cell
            elif col == "sweep_value":
                try:
                    row[col] = float(cell)
                except ValueError:
                    row[col] = cell
            else:
                row[col] = float(cell)
        out.append(row)
    return out


def summarize(rows: list[dict], column: str, final_round_only: bool = False) -> dict:
    """Mean and standard error of one metric per sweep value (over trials/rounds)."""
    if final_round_only:
        last = {}
        for row in rows:
            key = (row["sweep_value"], row["trial"])
            if key not in last or row["round"] > last[key]["round"]:
                last[key] = row
        rows = list(last.values())
    grouped: dict = {}
    for row in rows:
        if row[column] is None:
            continue
        grouped.setdefault(row["sweep_value"], []).append(float(row[column]))
    out = {}
    for value, xs in grouped.items():
        arr = np.asarray(xs)
        if arr.size > 1 and np.all(np.isfinite(arr)):
            stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))
        else:
            stderr = float("nan") if not np.all(np.isfinite(arr)) else 0.0
        out[value] = {"mean": float(arr.mean()), "stderr": stderr, "count": arr.size}
    return out
