"""Experiment configuration, Monte Carlo orchestration, and CSV emission.

Configs are JSON documents whose keys match the ExperimentConfig fields; one
loader checks every value against its field's annotation and rejects unknown
keys at any level so typos fail loudly.  Every trial derives its own random
stream from (master_seed, sweep index, trial index), which makes runs
reproducible and trial order irrelevant.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import aggregation as agg
from . import federated, geometry, optimizer, single_relay

# Sweep key -> key path of the field each sweep value sets.
SWEEP_PATHS = {"pr_watts": "budget.pr_watts", "p0_watts": "budget.p0_watts",
               "noise_dbm": "budget.noise_dbm", "x_relay": "layout.x_relay",
               "num_devices": "num_devices", "num_relays": "num_relays",
               "shards_c": "fl.shards_c", "csi_kappa": "csi_kappa",
               "total_blocks": "fl.total_blocks"}

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
    solver: optimizer.SolverConfig = field(default_factory=optimizer.SolverConfig)
    fl: FlConfig = field(default_factory=FlConfig)
    csi_kappa: float | None = None
    trials: int = 50
    master_seed: int = 1
    sweep: SweepConfig | None = None


def _check_value(kind, value, path: str):
    """`value` checked against the annotation `kind`; sections are loaded recursively."""
    if isinstance(kind, types.UnionType):  # X | None
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if dataclasses.is_dataclass(kind):
        return _load(kind, value, path + ".")
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and is_number and isinstance(value, int):
        return value
    # NaN and infinities fail; abs() compares ints exactly, so ints past the float range fail.
    if kind is float and is_number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is str and isinstance(value, str):
        return value
    if kind is tuple and isinstance(value, (list, tuple)):  # override() passes tuples
        return tuple(value)
    expected = {int: "an integer", float: "a finite number", str: "a string", tuple: "a list"}
    raise ConfigError(f"{path} must be {expected[kind]}")


def _load(cls, data, prefix: str = ""):
    """Dataclass `cls` from a JSON object at `prefix`; its own ValueErrors name the section."""
    section = prefix[:-1] or "configuration"
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown key {prefix}{unknown[0]}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in data
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing key {prefix}{missing[0]}")
    values = {key: _check_value(hints[key], value, prefix + key) for key, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    if config.scheme not in federated.SCHEMES:
        raise ConfigError(f"scheme must be one of {federated.SCHEMES}")
    if config.num_devices < 1:
        raise ConfigError("num_devices must be at least 1")
    if config.num_relays < 0:
        raise ConfigError("num_relays must be nonnegative")
    if config.trials < 1:
        raise ConfigError("trials must be at least 1")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    b = config.budget
    if b.p0_watts <= 0 or b.pr_watts <= 0:
        raise ConfigError("budget.p0_watts and budget.pr_watts must be positive")
    try:
        sigma2 = dbm_to_watts(b.noise_dbm)
    except OverflowError:
        sigma2 = math.inf
    if not 0.0 < sigma2 < math.inf:
        raise ConfigError("budget.noise_dbm must give a positive, finite noise power")
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
    if lay.device_y_half < 0:
        raise ConfigError("layout.device_y_half must be nonnegative")
    for key, watts in (("p0_watts", b.p0_watts), ("pr_watts", b.pr_watts)):
        if not 0.0 < watts / sigma2 < math.inf:
            raise ConfigError(f"budget.{key} over the noise power must be finite and nonzero")
    # The farthest link of each kind must keep a finite, nonzero path gain and
    # received power-to-noise ratio, or the first trial overflows or divides by zero.
    distances, watts = _farthest_links(config)
    with np.errstate(over="ignore", under="ignore"):
        gains = geometry.path_loss(distances, _pl_params(config))
        ratios = gains * watts / sigma2
    if not all(0.0 < x < math.inf for x in (*gains, *ratios)):
        raise ConfigError("layout distances and propagation values must give finite, nonzero "
                          "path gains and power-to-noise ratios on every link")
    fl = config.fl
    if fl.total_blocks < 1 or fl.tau < 1:
        raise ConfigError("fl.total_blocks and fl.tau must be at least 1")
    if fl.partition not in ("iid", "shards"):
        raise ConfigError("fl.partition must be 'iid' or 'shards'")
    if (min(fl.num_classes, fl.feature_dim, fl.samples_per_class, fl.shards_c) < 1
            or fl.separation <= 0):
        raise ConfigError("fl task parameters must be positive")
    if fl.lr_base <= 0 or fl.lr_floor <= 0 or not 0 < fl.lr_decay <= 1 or fl.lr_step < 1:
        raise ConfigError("fl learning-rate schedule values are out of range")
    shards = fl.partition == "shards"
    needed = config.num_devices * (fl.shards_c if shards else 1)
    available = federated.train_size(fl.num_classes * fl.samples_per_class)
    if available < needed:
        raise ConfigError(f"the fl task has {available} training samples but num_devices"
                          f"{' x fl.shards_c' if shards else ''} needs {needed}")
    if config.csi_kappa is not None and not 0.0 <= config.csi_kappa <= 1.0:
        raise ConfigError("csi_kappa must lie in [0, 1]")
    if config.sweep is not None:
        if config.sweep.key not in SWEEP_PATHS:
            raise ConfigError(f"sweep.key must be one of {tuple(SWEEP_PATHS)}")
        if not config.sweep.values:
            raise ConfigError("sweep.values must be nonempty")
        # Every sweep target is a scalar; a nested value would also be deep-copied
        # by every override, past the recursion limit when it nests deep enough.
        if any(isinstance(value, (list, tuple, dict)) for value in config.sweep.values):
            raise ConfigError("sweep.values must not hold lists or objects")
    return config


def _farthest_links(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Longest device-AP, device-relay and relay-AP distance the layout can place,
    and the transmit power (watts) on each of those links."""
    lay, b = config.layout, config.budget
    if lay.kind == "line":
        reach = max(lay.x_relay - lay.device_x_min, lay.device_x_max - lay.x_relay)
        distances = [math.hypot(lay.device_x_max, lay.device_y_half),
                     math.hypot(reach, lay.device_y_half), lay.x_relay]
    elif config.num_relays:
        distances = [lay.cell_radius, lay.cell_radius + lay.relay_ring_radius,
                     lay.relay_ring_radius]
    else:
        distances = [lay.cell_radius]
    watts = [b.p0_watts, b.p0_watts, b.pr_watts][:len(distances)]
    return np.array(distances), np.array(watts)


def parse_config(data: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed JSON document."""
    return _validate(_load(ExperimentConfig, data))


def load_config(path: str) -> ExperimentConfig:
    """Read, parse, and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"configuration is not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError("configuration nests too deeply to parse") from exc
    return parse_config(data)


def override(config: ExperimentConfig, path: str, value) -> ExperimentConfig:
    """Copy of `config` with the field at a dotted key path set to `value`, checked anew."""
    data = dataclasses.asdict(config)
    *sections, leaf = path.split(".")
    target = data
    for name in sections:
        target = target[name]
    target[leaf] = value
    return parse_config(data)


def sweep_points(config: ExperimentConfig) -> list[tuple[object, ExperimentConfig]]:
    """(value, configuration) for every sweep value, each checked like a document."""
    path = SWEEP_PATHS[config.sweep.key]
    points = []
    for value in config.sweep.values:
        try:
            points.append((value, override(config, path, value)))
        except ConfigError as exc:
            raise ConfigError(f"sweep value {value!r}: {exc}") from exc
    return points


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
        _power_budget(config), config.solver, schedule, fl.total_blocks,
        rng, csi_kappa=config.csi_kappa, tau=fl.tau)


@contextmanager
def _trial_numerics(where: str):
    """Report a trial whose numbers leave the double range as a configuration error."""
    try:
        yield
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"{where}: the configuration drives the computation out of the "
                          f"floating-point range ({type(exc).__name__}: {exc})") from exc


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """All sweep points and trials; returns one row dict per round (CSV_COLUMNS)."""
    if config.sweep is None:
        key, points = "", [("", config)]
    else:
        key, points = config.sweep.key, sweep_points(config)
    rows = []
    for sweep_index, (value, cfg) in enumerate(points):
        for trial in range(cfg.trials):
            where = f"sweep value {value!r}, trial {trial}" if key else f"trial {trial}"
            with _trial_numerics(where):
                metrics = run_trial(cfg, sweep_index, trial)
            for m in metrics:
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
    if config.sweep is not None:
        raise ConfigError("theorem sweep takes no sweep section")
    budget = _power_budget(config)
    params = _pl_params(config)
    weights = agg.DeviceWeights.uniform(config.num_devices)
    rows = []
    for trial in range(config.trials):
        with _trial_numerics(f"trial {trial}"):
            rng = geometry.stream(config.master_seed, trial)
            layout = _make_layout(config, rng)
            channels = geometry.realize_channels(layout, params, rng)
            summary = single_relay.snr_summary(channels, budget)
            check = single_relay.check_theorem_conditions(summary, config.num_devices)
            construction = single_relay.analytic_construction(channels, weights, budget)
            _, _, bound = agg.norelay_optimum(channels.h, weights, 2.0 * budget.p0,
                                              budget.sigma2)
            solved, _ = optimizer.solve(channels, weights, budget, config.solver,
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
