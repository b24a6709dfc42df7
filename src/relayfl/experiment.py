"""Experiment configuration, Monte Carlo orchestration, and CSV emission.

Configs are JSON documents whose keys match the ExperimentConfig fields; one
loader checks every value against its field's annotation, type and declared
range, and rejects unknown keys at any level so typos fail loudly.  Every
trial derives its own random stream from (master_seed, sweep index, trial
index), which makes runs reproducible and trial order irrelevant.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from . import aggregation as agg
from . import federated, geometry, optimizer, single_relay

# Sweep key -> key path of the field each sweep value sets.
SWEEP_PATHS = {"pr_watts": "budget.pr_watts", "p0_watts": "budget.p0_watts",
               "noise_dbm": "budget.noise_dbm", "x_relay": "layout.x_relay",
               "num_devices": "num_devices", "num_relays": "num_relays",
               "shards_c": "fl.shards_c", "csi_kappa": "csi_kappa",
               "total_blocks": "fl.total_blocks"}

# The most numbers one array of a trial may hold (1 GiB of float64); a document
# whose sizes ask for more is a configuration error, not a failed allocation.
MAX_ARRAY_SIZE = 2**27

CSV_COLUMNS = ("sweep_key", "sweep_value", "trial",
               *(f.name for f in dataclasses.fields(federated.RoundMetrics)))


class ConfigError(ValueError):
    """Configuration document is malformed; the message names the key path."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


class _Range(typing.NamedTuple):
    """The values a config field accepts, declared in its annotation as
    ``Annotated[type, range]``: the words that finish "<key> must be" and the
    test of a value that already has the field's type."""

    text: str
    holds: typing.Callable[[typing.Any], bool]


POSITIVE = _Range("positive", lambda x: x > 0)
NONNEGATIVE = _Range("nonnegative", lambda x: x >= 0)


def _at_least(bound) -> _Range:
    return _Range(f"at least {bound}", lambda x: x >= bound)


def _one_of(*options: str) -> _Range:
    return _Range(f"one of {options}", options.__contains__)


AT_LEAST_ONE = _at_least(1)


@dataclass(frozen=True)
class BudgetConfig:
    p0_watts: Annotated[float, POSITIVE] = 0.05
    pr_watts: Annotated[float, POSITIVE] = 0.1
    noise_dbm: float = -70.0


@dataclass(frozen=True)
class LayoutConfig:
    kind: Annotated[str, _one_of("line", "cell")] = "line"
    x_relay: Annotated[float, POSITIVE] = 50.0
    relay_ring_radius: Annotated[float, POSITIVE] = 50.0


@dataclass(frozen=True)
class FlConfig:
    total_blocks: int = 40
    tau: Annotated[int, AT_LEAST_ONE] = 1
    # A smaller base would train at the floor, not at the rate the document sets.
    lr_base: Annotated[float, _at_least(federated.LR_FLOOR)] = 0.05
    # A one-class softmax never moves, so every round's truth is zero.
    num_classes: Annotated[int, _at_least(2)] = 5
    feature_dim: Annotated[int, AT_LEAST_ONE] = 20
    samples_per_class: Annotated[int, AT_LEAST_ONE] = 120
    separation: Annotated[float, POSITIVE] = 4.0
    partition: Annotated[str, _one_of("iid", "shards")] = "iid"
    shards_c: Annotated[int, AT_LEAST_ONE] = 2


@dataclass(frozen=True)
class SweepConfig:
    key: Annotated[str, _one_of(*SWEEP_PATHS)]
    # Every sweep target is a scalar; a nested value would also be deep-copied
    # by every override, past the recursion limit when it nests deep enough.
    values: Annotated[tuple, _Range(
        "a nonempty list without lists or objects",
        lambda v: bool(v) and not any(isinstance(x, (list, tuple, dict)) for x in v))]


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: Annotated[str, _one_of(*federated.SCHEMES)] = "proposed"
    num_devices: Annotated[int, AT_LEAST_ONE] = 20
    num_relays: Annotated[int, NONNEGATIVE] = 1
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    solver: optimizer.SolverConfig = field(default_factory=optimizer.SolverConfig)
    fl: FlConfig = field(default_factory=FlConfig)
    csi_kappa: Annotated[float | None, _Range("in [0, 1]", lambda x: 0 <= x <= 1)] = None
    trials: Annotated[int, AT_LEAST_ONE] = 50
    master_seed: Annotated[int, NONNEGATIVE] = 1
    sweep: SweepConfig | None = None


_EXPECTED = {int: "an integer", float: "a finite number", str: "a string", tuple: "a list"}


def _check_value(kind, value, path: str):
    """`value` checked against the annotation `kind`, then against the range an
    ``Annotated`` kind declares; sections are loaded recursively."""
    rule = None
    if typing.get_origin(kind) is Annotated:
        kind, rule = typing.get_args(kind)
    if isinstance(kind, types.UnionType):  # X | None
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if dataclasses.is_dataclass(kind):
        return _load(kind, value, path + ".")
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    typed = {int: is_number and isinstance(value, int),
             # NaN and infinities fail; abs() compares ints exactly, so ints past the
             # float range fail.
             float: is_number and abs(value) <= sys.float_info.max,
             str: isinstance(value, str),
             tuple: isinstance(value, (list, tuple))}  # override() passes tuples
    if not typed[kind]:
        raise ConfigError(f"{path} must be {_EXPECTED[kind]}")
    value = kind(value)  # a float from an int, a tuple from a list
    if rule is not None and not rule.holds(value):
        raise ConfigError(f"{path} must be {rule.text}")
    return value


@functools.cache
def _type_hints(cls) -> types.MappingProxyType:
    """The resolved field annotations of config dataclass `cls`, ranges included,
    read-only because every parse shares them."""
    return types.MappingProxyType(typing.get_type_hints(cls, include_extras=True))


def _load(cls, data, prefix: str = ""):
    """Dataclass `cls` from a JSON object at `prefix`; its own ValueErrors, which
    begin with the field's name, are reported under the dotted key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix[:-1] or 'configuration'} must be a JSON object")
    hints = _type_hints(cls)
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
        raise ConfigError(f"{prefix}{exc}") from exc


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    """The rules that derive a value or relate fields; each field's own range was
    checked as it loaded."""
    b, lay, fl = config.budget, config.layout, config.fl
    try:
        sigma2 = dbm_to_watts(b.noise_dbm)
    except OverflowError:
        sigma2 = math.inf
    if not 0.0 < sigma2 < math.inf:
        raise ConfigError("budget.noise_dbm must give a positive, finite noise power")
    if lay.kind == "line" and config.num_relays != 1:
        raise ConfigError("line layout places exactly one relay; set num_relays to 1")
    for key, watts in (("p0_watts", b.p0_watts), ("pr_watts", b.pr_watts)):
        if not 0.0 < watts / sigma2 < math.inf:
            raise ConfigError(f"budget.{key} over the noise power must be finite and nonzero")
    # The farthest link of each kind must keep a finite, nonzero path gain and
    # received power-to-noise ratio, or the first trial overflows or divides by zero.
    distances, watts, keys = _farthest_links(config)
    with np.errstate(over="ignore", under="ignore"):
        gains = geometry.path_loss(distances)
        ratios = gains * watts / sigma2
    if not all(0.0 < x < math.inf for x in (*gains, *ratios)):
        raise ConfigError(f"{keys} must give finite, nonzero path gains and "
                          "power-to-noise ratios on every link")
    if fl.total_blocks < federated.blocks_per_round(config.scheme):
        raise ConfigError("fl.total_blocks must buy one round (a relay scheme needs two)")
    shards = fl.partition == "shards"
    needed = config.num_devices * (fl.shards_c if shards else 1)
    # The largest arrays a trial builds: the task's samples by their features and by
    # the classes (features, logits, test scores), the devices' model changes, the
    # relays by the devices and by themselves (channels, the relay update's system),
    # and the shard list.  The cap also keeps `needed` printable below: str() refuses
    # ints past 4,300 digits.
    samples, cols = fl.num_classes * fl.samples_per_class, fl.feature_dim + 1
    if max(samples * max(cols, fl.num_classes), config.num_devices * fl.num_classes * cols,
           config.num_relays * max(config.num_devices, config.num_relays),
           needed) > MAX_ARRAY_SIZE:
        raise ConfigError(f"num_devices, num_relays and fl.num_classes, feature_dim, "
                          f"samples_per_class and shards_c ask for an array of more than "
                          f"{MAX_ARRAY_SIZE} numbers")
    available = federated.train_size(samples)
    if available < needed:
        raise ConfigError(f"the fl task has {available} training samples but num_devices"
                          f"{' x fl.shards_c' if shards else ''} needs {needed}")
    return config


def _farthest_links(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, str]:
    """Longest device-AP, device-relay and relay-AP distance the layout can place in
    geometry's device regions, the transmit power (watts) on each of those links, and
    the keys that can leave a link's gain or power-to-noise ratio out of range."""
    lay, b = config.layout, config.budget
    if lay.kind == "line":
        (x_min, x_max), y_half = geometry.LINE_DEVICE_X, geometry.LINE_DEVICE_Y_HALF
        reach = max(lay.x_relay - x_min, x_max - lay.x_relay)
        distances = [math.hypot(x_max, y_half), math.hypot(reach, y_half), lay.x_relay]
        keys = "layout.x_relay and the budget"
    elif config.num_relays:
        distances = [geometry.CELL_RADIUS, geometry.CELL_RADIUS + lay.relay_ring_radius,
                     lay.relay_ring_radius]
        keys = "layout.relay_ring_radius and the budget"
    else:
        # The one link's length is a geometry constant, so only its power can trip it.
        distances, keys = [geometry.CELL_RADIUS], "budget.p0_watts"
    watts = [b.p0_watts, b.p0_watts, b.pr_watts][:len(distances)]
    return np.array(distances), np.array(watts), keys


def parse_config(data: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed JSON document."""
    return _validate(_load(ExperimentConfig, data))


def load_config(path: str) -> ExperimentConfig:
    """Read, parse, and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"configuration is not readable JSON: {exc}") from exc
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


def _make_layout(config: ExperimentConfig, rng: np.random.Generator) -> geometry.NodeLayout:
    lay = config.layout
    if lay.kind == "line":
        return geometry.line_layout(config.num_devices, rng, x_relay=lay.x_relay)
    return geometry.cell_layout(config.num_devices, config.num_relays, rng,
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
    return federated.train(
        config.scheme, task, partition, layout, _power_budget(config), config.solver,
        fl.lr_base, fl.total_blocks, rng, csi_kappa=config.csi_kappa, tau=fl.tau)[0]


@contextmanager
def _trial_numerics(where: str):
    """Report a trial whose numbers leave the double range as a configuration error;
    overflow, invalid operations and division by zero raise, so no NaN reaches a CSV."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
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
            rows.extend(_row(key, value, trial, m) for m in metrics)
    return rows


def theorem_sweep(config: ExperimentConfig) -> list[dict]:
    """Sample single-relay instances and certify the analytic relaying bound.

    Each instance (one per trial) contributes two rows sharing delta, the
    condition booleans and mse_norelay_bound, the no-relay optimum at the
    2*p0 budget (``single_relay.theorem_certificate``): round 0 carries the
    analytic construction's MSE in mse_predicted, round 1 the last objective
    of the full solver warm-started from that construction.
    """
    if config.num_relays != 1:
        raise ConfigError("theorem sweep requires num_relays = 1")
    if config.sweep is not None:
        raise ConfigError("theorem sweep takes no sweep section")
    budget = _power_budget(config)
    weights = agg.DeviceWeights.uniform(config.num_devices)
    rows = []
    for trial in range(config.trials):
        with _trial_numerics(f"trial {trial}"):
            rng = geometry.stream(config.master_seed, trial)
            layout = _make_layout(config, rng)
            gains = geometry.path_gain_profile(layout)
            channels = geometry.realize_channels(gains, rng)
            delta, bound, cond40, cond41 = single_relay.theorem_certificate(
                channels, weights, budget)
            start, start_mse = single_relay.analytic_construction(channels, weights, budget)
            _, trace = optimizer.solve(channels, weights, budget, config.solver,
                                       optimizer.SchemeVariant.FULL, warm_start=start)
        for rnd, mse in ((0, start_mse), (1, trace.objectives[-1])):
            rows.append(_row("delta", delta, trial, federated.RoundMetrics(
                round=rnd, blocks_used=0, nmse_db=None, test_accuracy=None,
                mse_predicted=mse, mse_norelay_bound=bound, cond40=cond40, cond41=cond41)))
    return rows


def _row(key: str, value, trial: int, metrics: federated.RoundMetrics) -> dict:
    """One CSV row: the sweep point and trial, then the round's CSV_COLUMNS fields."""
    return {"sweep_key": key, "sweep_value": value, "trial": trial,
            **{col: getattr(metrics, col) for col in CSV_COLUMNS[3:]}}


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
    """Parse a file produced by write_csv back into typed row dicts; an empty cell
    reads as None, and a column with no parser in the table as floats."""
    parsers = {"sweep_key": str, "trial": int, "round": int, "blocks_used": int,
               "cond40": "true".__eq__, "cond41": "true".__eq__}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    columns = [(col, parsers.get(col, float)) for col in lines[0].split(",")]
    return [{col: None if cell == "" else parse(cell)
             for (col, parse), cell in zip(columns, line.split(","))}
            for line in lines[1:]]
