import copy
import dataclasses
import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayfl import experiment, federated
from relayfl.cli import main
from relayfl.experiment import (
    MAX_ARRAY_SIZE,
    SWEEP_PATHS,
    BudgetConfig,
    ConfigError,
    ExperimentConfig,
    FlConfig,
    LayoutConfig,
    SweepConfig,
    dbm_to_watts,
    load_config,
    parse_config,
    read_csv,
    run_experiment,
    run_trial,
    sweep_points,
    theorem_sweep,
    theorem_trial,
    write_csv,
)
from relayfl.geometry import stream

from oracles import summarize

TINY_FL = {"total_blocks": 4, "num_classes": 3, "feature_dim": 4,
           "samples_per_class": 30, "separation": 5.0}


def tiny_config(**overrides):
    data = {
        "scheme": "error_free",
        "num_devices": 3,
        "trials": 2,
        "master_seed": 7,
        "fl": dict(TINY_FL),
        "solver": {"j_max": 30},
    }
    data.update(overrides)
    return parse_config(data)


class TestConfig:
    def test_empty_document_gives_defaults(self):
        config = parse_config({})
        assert config.scheme == "proposed"
        assert config.num_devices == 20
        assert config.solver.j_max == 100
        assert config.solver.epsilon == pytest.approx(1e-4)
        assert config.budget.p0_watts == pytest.approx(0.05)
        assert config.budget.pr_watts == pytest.approx(0.1)
        assert config.budget.noise_dbm == pytest.approx(-70.0)
        assert config.layout == LayoutConfig(kind="line", x_relay=50.0, relay_ring_radius=50.0)

    def test_dbm_conversion(self):
        assert dbm_to_watts(-100.0) == pytest.approx(1e-13)
        assert dbm_to_watts(-70.0) == pytest.approx(1e-10)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"trials": 0})

    @pytest.mark.parametrize("solver", [
        {"epsilon": float("nan")}, {"epsilon": float("inf")}, {"epsilon": float("-inf")},
        {"epsilon": "1e-4"}, {"j_max": 1.5}, {"j_max": 2.0}, {"j_max": True}, {"j_max": False},
    ])
    def test_bad_solver_values_rejected(self, solver):
        with pytest.raises(ConfigError, match="solver"):
            parse_config({"solver": solver})

    @pytest.mark.parametrize("key, value", [("j_max", 0), ("j_max", -1),
                                            ("epsilon", 0.0), ("epsilon", -1e-8)])
    def test_solver_range_error_names_the_field(self, key, value):
        with pytest.raises(ConfigError, match=rf"^solver\.{key} must be"):
            parse_config({"solver": {key: value}})

    def test_array_size_cap_is_inclusive(self):
        # Two classes of 64 samples of 2**20 - 1 features, plus the bias column,
        # fill the cap exactly.
        fl = {"num_classes": 2, "samples_per_class": 64, "feature_dim": 2**20 - 1}
        assert 128 * 2**20 == MAX_ARRAY_SIZE
        parse_config({"fl": fl})
        with pytest.raises(ConfigError, match=f"more than {MAX_ARRAY_SIZE} numbers"):
            parse_config({"fl": {**fl, "feature_dim": 2**20}})

    def test_lr_base_floor_is_inclusive(self):
        # A base under the floor would train at the floor, so it is refused; the floor runs.
        parse_config({"fl": {"lr_base": federated.LR_FLOOR}})
        with pytest.raises(ConfigError, match=r"^fl\.lr_base must be at least 1e-05$"):
            parse_config({"fl": {"lr_base": np.nextafter(federated.LR_FLOOR, 0.0)}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="colour"):
            parse_config({"colour": "red"})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="budget.p9"):
            parse_config({"budget": {"p9_watts": 1.0}})

    def test_bad_scheme(self):
        with pytest.raises(ConfigError):
            parse_config({"scheme": "wishful"})

    def test_sweep_key_validated(self):
        with pytest.raises(ConfigError):
            parse_config({"sweep": {"key": "nonsense", "values": [1]}})

    def test_kappa_range(self):
        with pytest.raises(ConfigError):
            parse_config({"csi_kappa": 1.5})

    def test_line_layout_requires_one_relay(self):
        with pytest.raises(ConfigError, match="one relay"):
            parse_config({"num_relays": 3})
        parse_config({"num_relays": 3, "layout": {"kind": "cell"}})

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scheme": "no_relay", "trials": 3}))
        config = load_config(str(path))
        assert config.scheme == "no_relay"
        assert config.trials == 3

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -(10**400), 1e308, -1e308]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
NEAR_VALID = (st.integers(-3, 700) | st.floats(-200.0, 1e3)
              | st.sampled_from(["proposed", "no_relay", "error_free", "line", "cell", "iid",
                                 "shards"]))


def _fields(defaults: dict):
    """Documents over a section's own keys: each absent, its default, near-valid or anything."""
    return st.fixed_dictionaries({}, optional={
        key: (_fields(default) if isinstance(default, dict) else st.just(default) | NEAR_VALID)
        | JSON_VALUES for key, default in defaults.items()})


SWEEPS = st.fixed_dictionaries({
    "key": st.sampled_from(sorted(SWEEP_PATHS)),
    "values": st.lists(NEAR_VALID | JSON_VALUES, min_size=1, max_size=3)})
DOCUMENTS = JSON_VALUES | st.builds(lambda document, sweep: {**document, "sweep": sweep},
                                    _fields(dataclasses.asdict(ExperimentConfig())),
                                    st.none() | SWEEPS | JSON_VALUES)


@given(DOCUMENTS)
@settings(max_examples=400, deadline=None)
def test_any_document_gives_config_or_config_error(document):
    """The config and every sweep point build, or a ConfigError says why; nothing else."""
    try:
        config = parse_config(document)
        points = sweep_points(config) if config.sweep is not None else []
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)
    assert all(isinstance(point, ExperimentConfig) for _, point in points)


class TestRunExperiment:
    def test_error_free_rows(self):
        rows = run_experiment(tiny_config())
        assert len(rows) == 2 * 4  # trials x rounds (one block per round)
        assert all(r["nmse_db"] == float("-inf") for r in rows)
        assert all(r["blocks_used"] <= 4 for r in rows)
        assert all(r["mse_norelay_bound"] is not None for r in rows)  # N = 1 run

    def test_relay_scheme_block_budget(self):
        rows = run_experiment(tiny_config(scheme="proposed", trials=1))
        assert len(rows) == 2  # floor(4 / 2) rounds
        assert max(r["blocks_used"] for r in rows) == 4

    def test_no_relay_single_block_runs_one_round(self):
        rows = run_experiment(tiny_config(scheme="no_relay", trials=1,
                                          fl={**TINY_FL, "total_blocks": 1}))
        assert [r["round"] for r in rows] == [1]

    def test_rows_deterministic(self):
        config = tiny_config(scheme="no_relay")
        assert run_experiment(config) == run_experiment(config)

    def test_trial_rows_independent_of_order(self):
        config = tiny_config(scheme="no_relay")
        lone = run_trial(config, 0, 1)
        batch = run_experiment(config)
        from_batch = [r for r in batch if r["trial"] == 1]
        assert len(lone) == len(from_batch)
        for metric, row in zip(lone, from_batch):
            assert row["nmse_db"] == pytest.approx(metric.nmse_db)
            assert row["test_accuracy"] == pytest.approx(metric.test_accuracy)
        # A theorem instance is keyed by (master seed, trial) alone, so one run by
        # itself gives exactly the sweep's rows of that trial.
        theorem = tiny_config(scheme="proposed", trials=3)
        delta, rounds = theorem_trial(theorem, 1)
        assert [r for r in theorem_sweep(theorem) if r["trial"] == 1] == [
            {"sweep_key": "delta", "sweep_value": delta, "trial": 1, **dataclasses.asdict(m)}
            for m in rounds]

    def test_sweep_applies_values(self):
        config = tiny_config(scheme="no_relay", trials=1,
                             sweep={"key": "noise_dbm", "values": [-100.0, -60.0]})
        rows = run_experiment(config)
        quiet = [r for r in rows if r["sweep_value"] == -100.0]
        loud = [r for r in rows if r["sweep_value"] == -60.0]
        assert len(quiet) == len(loud) == 4
        mean_q = np.mean([r["nmse_db"] for r in quiet])
        mean_l = np.mean([r["nmse_db"] for r in loud])
        assert mean_q < mean_l

    def test_summarize_final_round(self):
        rows = run_experiment(tiny_config(scheme="no_relay"))
        summary = summarize(rows, "test_accuracy", final_round_only=True)
        (value,) = summary
        assert summary[value]["count"] == 2

    def test_shard_partition_and_kappa_wiring(self):
        config = tiny_config(scheme="no_relay", trials=1, csi_kappa=0.8,
                             fl={**TINY_FL, "partition": "shards", "shards_c": 2})
        rows = run_experiment(config)
        assert len(rows) == 4
        assert all(np.isfinite(r["nmse_db"]) for r in rows)


class TestTheoremSweep:
    def test_rows_and_certification(self):
        config = parse_config({
            "scheme": "proposed", "num_devices": 5, "trials": 12, "master_seed": 3,
        })
        rows = theorem_sweep(config)
        assert len(rows) == 24
        by_trial = {}
        for row in rows:
            by_trial.setdefault(row["trial"], {})[row["round"]] = row
        for trial, pair in by_trial.items():
            construction, solved = pair[0], pair[1]
            assert construction["sweep_key"] == "delta"
            assert construction["sweep_value"] == pytest.approx(solved["sweep_value"])
            assert solved["mse_predicted"] <= construction["mse_predicted"] + 1e-9
            if construction["cond40"] and construction["cond41"]:
                assert construction["mse_predicted"] <= (
                    construction["mse_norelay_bound"] * (1 + 1e-9))


class TestCsv:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], str(path))
        text = path.read_text()
        assert text == ("sweep_key,sweep_value,trial,round,blocks_used,nmse_db,"
                        "test_accuracy,mse_predicted,mse_norelay_bound,cond40,cond41\n")

    def test_round_trip_bit_exact(self, tmp_path):
        rows = run_experiment(tiny_config(scheme="no_relay", trials=1))
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        parsed = read_csv(str(path))
        assert len(parsed) == len(rows)
        for original, back in zip(rows, parsed):
            for key in ("nmse_db", "test_accuracy", "mse_predicted"):
                if original[key] is not None and np.isfinite(original[key]):
                    assert back[key] == original[key]  # bit-exact via repr

    def test_minus_infinity_rendering(self, tmp_path):
        rows = run_experiment(tiny_config(trials=1))
        path = tmp_path / "ideal.csv"
        write_csv(rows, str(path))
        body = path.read_text().splitlines()[1]
        assert "-inf" in body.split(",")

    def test_condition_booleans_render_lowercase(self, tmp_path):
        rows = theorem_sweep(parse_config({"num_devices": 4, "trials": 4}))
        path = tmp_path / "thm.csv"
        write_csv(rows, str(path))
        text = path.read_text()
        assert "True" not in text and "False" not in text
        parsed = read_csv(str(path))
        for original, back in zip(rows, parsed):
            assert back["cond40"] == bool(original["cond40"])
            assert back["cond41"] == bool(original["cond41"])

    def test_identical_runs_identical_bytes(self, tmp_path):
        config = tiny_config(scheme="no_relay")
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(config), str(first))
        write_csv(run_experiment(config), str(second))
        assert first.read_bytes() == second.read_bytes()


def _one_trial(**sections):
    return {"trials": 1, "fl": {"total_blocks": 2}, **sections}


def _sweep(key, *values, fl=None):
    return {"trials": 1, "fl": fl or {"total_blocks": 2},
            "sweep": {"key": key, "values": list(values)}}


def _set(document, key, value):
    """Deep copy of `document` with the dotted `key` set to `value`."""
    document = copy.deepcopy(document)
    *sections, leaf = key.split(".")
    target = document
    for name in sections:
        target = target.setdefault(name, {})
    target[leaf] = value
    return document


def _cli(tmp_path, command, document, *args, out="x.csv"):
    """Write `document` (a JSON value, or raw bytes) to a file, run `relayfl <command>`
    on it with `args`, and return the exit code and the CSV path."""
    cfg_path = tmp_path / "cfg.json"
    if isinstance(document, bytes):
        cfg_path.write_bytes(document)
    else:
        cfg_path.write_text(json.dumps(document))
    out = tmp_path / out
    return main([command, "--config", str(cfg_path), "--out", str(out), *args]), out


def _config_error(capsys, result):
    """The contract for a refused document: exit 1, stderr that begins
    `configuration error: `, no traceback and no CSV.  Returns the rest of stderr."""
    code, out = result
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    assert not out.exists()
    return err.removeprefix("configuration error: ")


def _finite_rows(result):
    """The contract for a run that must pass: exit 0 and a CSV of rows whose
    `mse_predicted` is finite.  Returns the rows."""
    code, out = result
    assert code == 0
    rows = read_csv(str(out))
    assert rows and all(np.isfinite(row["mse_predicted"]) for row in rows)
    return rows


# Each document used to end in a traceback or to be silently coerced into a run.
# Each runs as a `run` and, but for NO_TASK_RUNS, as a `theorem-sweep` document.
MALFORMED = [
    pytest.param({"trials": 1.5}, [], id="trials-fraction"),
    pytest.param({"trials": True, "fl": {"total_blocks": 2}}, [], id="trials-bool"),
    pytest.param({"trials": 1, "num_devices": "20"}, [], id="num-devices-string"),
    pytest.param({"trials": 1, "budget": {"noise_dbm": "x"}}, [], id="noise-string"),
    pytest.param({"trials": 1, "budget": {"noise_dbm": 1e308}}, [], id="noise-huge"),
    pytest.param({"trials": 1, "budget": {"noise_dbm": -1e308}}, [], id="noise-tiny"),
    pytest.param({"trials": 1, "budget": {"pr_watts": float("nan")}}, [], id="pr-nan"),
    pytest.param({"trials": 1, "layout": {"x_relay": float("inf")}}, [], id="x-relay-inf"),
    pytest.param({"trials": 1, "layout": {"x_relay": -5}}, [], id="x-relay-negative"),
    pytest.param({"trials": 1, "fl": {"separation": -1}}, [], id="separation-negative"),
    pytest.param({"trials": 1, "csi_kappa": "0.5"}, [], id="kappa-string"),
    pytest.param({"trials": 1, "num_devices": 500}, [], id="iid-too-few-samples"),
    pytest.param({"trials": 1, "num_devices": 100, "fl": {"partition": "shards", "shards_c": 5}},
                 [], id="shards-too-few-samples"),
    pytest.param({"trials": 1, "num_devices": 1, "fl": {"num_classes": 1, "samples_per_class": 1}},
                 [], id="one-sample"),
    pytest.param({"trials": 1, "master_seed": -1}, [], id="seed-negative"),
    pytest.param({"trials": 1, "master_seed": 1.5, "fl": {"total_blocks": 2}}, [],
                 id="seed-fraction"),
    pytest.param({"trials": 1}, ["--seed", "-3"], id="seed-flag-negative"),
    pytest.param({"trials": 1, "sweep": {"values": [0.1]}}, [], id="sweep-without-key"),
    pytest.param({"trials": 1, "sweep": {"key": "pr_watts"}}, [], id="sweep-without-values"),
    pytest.param(_sweep("pr_watts", 0.1, "abc"), [], id="sweep-string"),
    pytest.param(_sweep("num_devices", 5, {}), [], id="sweep-object"),
    pytest.param(_sweep("pr_watts", 0.1, json.loads("[" * 600 + "]" * 600)), [],
                 id="sweep-value-nested-600-deep"),
    pytest.param(_sweep("noise_dbm", -70.0, 1e308), [], id="sweep-noise-huge"),
    pytest.param(_sweep("noise_dbm", -70.0, -1e308), [], id="sweep-noise-tiny"),
    pytest.param(_sweep("csi_kappa", "0.5"), [], id="sweep-kappa-string"),
    pytest.param(_sweep("num_devices", 2.7), [], id="sweep-devices-fraction"),
    pytest.param(_sweep("num_devices", True), [], id="sweep-devices-bool"),
    pytest.param(_sweep("shards_c", 2, 100, fl={"total_blocks": 2, "partition": "shards"}), [],
                 id="sweep-shards-too-few-samples"),
    # Finite extremes that pass the type checks, run as one trial of two blocks.
    pytest.param(_one_trial(budget={"p0_watts": 1e308}), [], id="p0-huge"),
    pytest.param(_one_trial(budget={"pr_watts": 1e308}), [], id="pr-huge"),
    # Finite gains and power-to-noise ratios whose squares leave the double range
    # (p0 1e-300 still runs on a two-relay cell).
    pytest.param(_one_trial(budget={"p0_watts": 1e-300}), [], id="p0-tiny"),
    pytest.param(_one_trial(num_relays=2, layout={"kind": "cell"}, budget={"p0_watts": 1e-305}),
                 [], id="cell-p0-tiny"),
    # Valid documents whose local updates overflow; they used to write NaN and exit 0.
    pytest.param({"trials": 1, "fl": {"total_blocks": 4, "lr_base": 1e300}}, [],
                 id="lr-base-huge"),
    pytest.param({"trials": 1, "fl": {"total_blocks": 4, "separation": 1e300}}, [],
                 id="separation-huge"),
    # Values the solver section's own checks reject.
    pytest.param(_one_trial(solver={"j_max": 0}), [], id="j-max-zero"),
    pytest.param(_one_trial(solver={"epsilon": -1}), [], id="epsilon-negative"),
    # Well-typed values out of range.
    pytest.param(_one_trial(num_devices=0), [], id="num-devices-zero"),
    pytest.param(_one_trial(num_relays=-1, layout={"kind": "cell"}), [],
                 id="cell-relays-negative"),
    pytest.param(_one_trial(budget={"p0_watts": -1}), [], id="p0-negative"),
    pytest.param(_one_trial(layout={"kind": "hex"}), [], id="layout-kind-unknown"),
    pytest.param(_one_trial(layout={"kind": "cell", "relay_ring_radius": -1}), [],
                 id="ring-radius-negative"),
    pytest.param({"trials": 1, "fl": {"total_blocks": 2, "tau": 0}}, [], id="tau-zero"),
    pytest.param({"trials": 1, "fl": {"total_blocks": 2, "partition": "dirichlet"}}, [],
                 id="partition-unknown"),
    pytest.param(_sweep("pr_watts"), [], id="sweep-values-empty"),
]

# A theorem sweep builds no learning task, so these MALFORMED documents run there.
NO_TASK_RUNS = {"lr-base-huge", "separation-huge"}

# (command, document, message) the CLI must refuse.  The message is what follows
# `configuration error: `: the whole stderr if it ends in a newline, else its start.
CONFIG_ERRORS = [
    # A block budget that buys no round.
    pytest.param("run", {"fl": {"total_blocks": 1}}, "fl.total_blocks",
                 id="block-budget-proposed"),
    pytest.param("run", {"scheme": "relay_only", "fl": {"total_blocks": 1}},
                 "fl.total_blocks", id="block-budget-relay-only"),
    pytest.param("run", _sweep("total_blocks", 2, 1), "sweep value 1: fl.total_blocks",
                 id="block-budget-sweep"),
    pytest.param("theorem-sweep", {"trials": 1, "fl": {"total_blocks": 1}},
                 "fl.total_blocks", id="block-budget-theorem-sweep"),
    # The analytic and signal-chain MSEs of the construction disagree at this scale.
    pytest.param("theorem-sweep", {"trials": 1, "budget": {"p0_watts": 1e100}}, "trial 0: ",
                 id="theorem-p0-huge-ratio"),
    # The certificate is defined for one relay only.
    pytest.param("theorem-sweep", {"trials": 1, "num_relays": 2, "layout": {"kind": "cell"}},
                 "theorem sweep requires num_relays = 1", id="theorem-cell-two-relays"),
    # A theorem sweep builds no learning task, but its document passes every check
    # a run document does, the fl ranges and cross-field rules included.
    pytest.param("theorem-sweep", {"trials": 1, "num_devices": 500},
                 "the fl task has 480 training samples but num_devices needs 500",
                 id="theorem-iid-too-few-samples"),
    pytest.param("theorem-sweep", {"trials": 1, "fl": {"num_classes": 1}},
                 "fl.num_classes must be at least 2", id="theorem-one-class"),
    pytest.param("theorem-sweep", _sweep("pr_watts", 0.1),
                 "theorem sweep takes no sweep section\n", id="theorem-sweep-section"),
    # A trial that leaves the double range names its sweep point and trial.
    pytest.param("run", _sweep("p0_watts", 0.05, 1e-300),
                 "sweep value 1e-300, trial 0: the configuration drives the computation out "
                 "of the floating-point range (OverflowError", id="numerical-failure"),
    # Every farthest link passes, but a Rayleigh draw underflows a device-to-relay
    # SNR to zero, which leaves the certificate's delta undefined.
    pytest.param("theorem-sweep", {"trials": 1, "budget": {"p0_watts": 1e-306,
                                                           "noise_dbm": 100.0}},
                 "trial 0: the configuration drives the computation out of the "
                 "floating-point range (ZeroDivisionError", id="theorem-relay-snr-underflow"),
    pytest.param("run", {"scheme": "error_free", "trials": 1, "fl": {"total_blocks": 2},
                         "budget": {"p0_watts": 1e-306, "noise_dbm": 100.0}},
                 "trial 0: the configuration drives the computation out of the "
                 "floating-point range (ZeroDivisionError", id="run-relay-snr-underflow"),
    # The relay's distance leaves a farthest link's gain out of the double range.
    pytest.param("run", _one_trial(layout={"x_relay": 1e308}), "layout.x_relay and ",
                 id="farthest-link-x-relay-huge"),
    pytest.param("run", _one_trial(layout={"x_relay": 1e-300}), "layout.x_relay and ",
                 id="farthest-link-x-relay-tiny"),
    pytest.param("run", _one_trial(layout={"kind": "cell", "relay_ring_radius": 1e200}),
                 "layout.relay_ring_radius and ", id="farthest-link-ring-radius-huge"),
    pytest.param("run", _one_trial(num_relays=2,
                                   layout={"kind": "cell", "relay_ring_radius": 1e-300}),
                 "layout.relay_ring_radius and ", id="farthest-link-ring-radius-tiny"),
    # A relay-free cell's one link has a fixed length, so only its power can trip it.
    pytest.param("run", _one_trial(num_relays=0, layout={"kind": "cell"},
                                   budget={"p0_watts": 5e-324}),
                 "budget.p0_watts must give finite, nonzero path gains and power-to-noise "
                 "ratios on every link\n", id="farthest-link-relay-free-p0-tiny"),
    # Files the JSON reader refuses.
    pytest.param("run", b'{"trials": 1, "x": "\xff"}', "configuration is not readable JSON: ",
                 id="unparseable-not-utf8"),
    pytest.param("run", b"[" * 200_000 + b"]" * 200_000, "configuration is not readable JSON: ",
                 id="unparseable-nested-200000-deep"),
    # Past the interpreter's integer-string limit of 4,300 digits.
    pytest.param("run", b'{"trials": ' + b"1" * 5000 + b"}",
                 "configuration is not readable JSON: ", id="unparseable-int-5000-digits"),
    pytest.param("run", b'{"fl": {"tau": ' + b"1" * 5000 + b"}}",
                 "configuration is not readable JSON: ",
                 id="unparseable-int-5000-digits-in-section"),
    # The sample-count message used to print num_devices x fl.shards_c, and
    # str() refuses ints past 4,300 digits.
    pytest.param("run", {"trials": 1, "num_devices": 10**4000,
                         "fl": {"partition": "shards", "shards_c": 10**4000}},
                 "num_devices, num_relays and fl.num_classes, feature_dim, samples_per_class "
                 f"and shards_c ask for an array of more than {MAX_ARRAY_SIZE} numbers\n",
                 id="shard-count-past-the-cap"),
    pytest.param("run", {"scheme": "nope"},
                 "scheme must be one of ('proposed', 'relay_only', 'no_relay', 'error_free')\n",
                 id="scheme-unknown"),
    pytest.param("run", {"solver": {"epsilon": float("nan")}},
                 "solver.epsilon must be a finite number\n", id="solver-epsilon-nan"),
    pytest.param("run", {"solver": {"j_max": 1.5}}, "solver.j_max must be an integer\n",
                 id="solver-j-max-fraction"),
    # A base under the floor would train at the floor, so it is refused.
    pytest.param("run", {"trials": 1, "fl": {"total_blocks": 2, "lr_base": 1e-6}},
                 "fl.lr_base must be at least 1e-05\n", id="lr-base-under-the-floor"),
]


def _removed(section, base, **keys):
    return [pytest.param(_set(base, f"{section}.{key}", value), f"{section}.{key}",
                         id=f"{section}.{key}") for key, value in keys.items()]


# Keys that became constants: the inner QCQP's tolerance and iteration cap (optimizer),
# the learning rate's decay, step and floor (federated), and the path-loss model and the
# device regions (geometry).
REMOVED_KEYS = [
    *_removed("solver", _one_trial(), qcqp_tol=1e-8, qcqp_max_iter=300),
    *_removed("fl", _one_trial(), lr_decay=0.9, lr_step=50, lr_floor=1e-5),
    *_removed("layout", {"trials": 1}, antenna_gain=4.11, pathloss_exponent=3.0,
              carrier_freq_hz=915e6, device_x_min=80.0, device_x_max=120.0,
              device_y_half=60.0, cell_radius=120.0),
]


# One value outside each declared field range; every other value of the document is valid.
RANGE_BREAKS = {
    "scheme": "wishful", "num_devices": 0, "num_relays": -1, "csi_kappa": 1.5, "trials": 0,
    "master_seed": -1, "budget.p0_watts": 0.0, "budget.pr_watts": -0.1, "layout.kind": "hex",
    "layout.x_relay": 0.0, "layout.relay_ring_radius": -50.0, "fl.tau": 0,
    "fl.lr_base": 1e-6, "fl.num_classes": 1, "fl.feature_dim": 0, "fl.samples_per_class": 0,
    "fl.separation": 0.0,
    "fl.partition": "dirichlet", "fl.shards_c": 0, "sweep.key": "colour", "sweep.values": [],
}
SECTIONS = {"": ExperimentConfig, "budget.": BudgetConfig, "layout.": LayoutConfig,
            "fl.": FlConfig, "sweep.": SweepConfig}


def test_range_breaks_cover_every_declared_range():
    declared = {prefix + name for prefix, cls in SECTIONS.items()
                for name, kind in typing.get_type_hints(cls, include_extras=True).items()
                if typing.get_origin(kind) is typing.Annotated}
    assert declared == set(RANGE_BREAKS)


@pytest.mark.parametrize("num_relays, layout", [
    pytest.param(1, {"kind": "line", "x_relay": 1.0}, id="line-x-relay-1"),
    pytest.param(1, {"kind": "line", "x_relay": 50.0}, id="line-x-relay-50"),
    # A relay inside the device strip has devices on both sides of it.
    pytest.param(1, {"kind": "line", "x_relay": 100.0}, id="line-x-relay-100"),
    pytest.param(1, {"kind": "line", "x_relay": 200.0}, id="line-x-relay-200"),
    pytest.param(1, {"kind": "cell"}, id="cell-1-relay"),
    pytest.param(4, {"kind": "cell"}, id="cell-4-relays"),
])
def test_farthest_links_bound_every_placement(num_relays, layout):
    # The validator checks the gains of these links, so no placed link may be longer.
    config = parse_config({"num_devices": 200, "num_relays": num_relays, "layout": layout})
    farthest = experiment._farthest_links(config)[0]
    for seed in range(5):
        nodes = experiment._make_layout(config, stream(seed))
        placed = (nodes.device_ap_distances(), nodes.device_relay_distances(),
                  nodes.relay_ap_distances())
        for distances, bound in zip(placed, farthest, strict=True):
            assert distances.max() <= bound


def _extreme_values():
    """Every float field of budget, layout and fl at 1e-300, 1e-100, 1e100 and 1e300,
    as a one-trial run on the line and on a 0-, 1- and 2-relay cell, and as a theorem
    sweep on the line and on a 1-relay cell."""
    modes = [("run", "line", _one_trial()),
             ("run", "cell0", _one_trial(num_relays=0, layout={"kind": "cell"})),
             ("run", "cell1", _one_trial(layout={"kind": "cell"})),
             ("run", "cell2", _one_trial(num_relays=2, layout={"kind": "cell"})),
             ("theorem-sweep", "line", {"trials": 1}),
             ("theorem-sweep", "cell1", {"trials": 1, "layout": {"kind": "cell"}})]
    for section, cls in (("budget", BudgetConfig), ("layout", LayoutConfig),
                         ("fl", FlConfig)):
        for key, kind in typing.get_type_hints(cls).items():
            if kind is not float:
                continue
            for value in (1e-300, 1e-100, 1e100, 1e300):
                for command, name, base in modes:
                    yield pytest.param(command, _set(base, f"{section}.{key}", value),
                                       id=f"{command}-{name}-{section}.{key}={value:g}")


EXTREME_VALUES = list(_extreme_values())


class TestCli:
    @pytest.mark.parametrize("command, document, extra_args", [
        *(pytest.param("run", *case.values, id=case.id) for case in MALFORMED),
        *(pytest.param("theorem-sweep", *case.values, id=f"theorem-sweep-{case.id}")
          for case in MALFORMED if case.id not in NO_TASK_RUNS)])
    def test_malformed_document_is_config_error(self, tmp_path, capsys, command, document,
                                                extra_args):
        _config_error(capsys, _cli(tmp_path, command, document, *extra_args))

    @pytest.mark.parametrize("command, document, message", CONFIG_ERRORS)
    def test_config_error(self, tmp_path, capsys, command, document, message):
        got = _config_error(capsys, _cli(tmp_path, command, document))
        assert got == message if message.endswith("\n") else got.startswith(message)

    @pytest.mark.parametrize("command", ["run", "theorem-sweep"])
    @pytest.mark.parametrize("document, key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, tmp_path, capsys, command, document, key):
        assert _config_error(capsys, _cli(tmp_path, command, document)) == (
            f"unknown key {key}\n")

    @pytest.mark.parametrize("key, value", RANGE_BREAKS.items(), ids=list(RANGE_BREAKS))
    def test_declared_range_violation_names_the_key(self, tmp_path, capsys, key, value):
        valid = _one_trial(layout={"kind": "cell" if key == "num_relays" else "line"},
                           sweep={"key": "pr_watts", "values": [0.1]})
        parse_config(valid)
        message = _config_error(capsys, _cli(tmp_path, "run", _set(valid, key, value)))
        assert message.startswith(f"{key} must be ")

    # NumPy refused these with _ArrayMemoryError, "array is too big" and "Maximum
    # allowed dimension exceeded"; the cap now rejects them before any trial.
    @pytest.mark.parametrize("num_classes", [10**13, 10**17, 10**21])
    def test_sizes_past_the_cap_are_config_errors(self, tmp_path, capsys, monkeypatch,
                                                  num_classes):
        def fail(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "run_trial", fail)
        document = {"scheme": "no_relay", "trials": 1, "fl": {"num_classes": num_classes}}
        assert "fl.num_classes" in _config_error(capsys, _cli(tmp_path, "run", document))

    @pytest.mark.parametrize("command, document", [
        # The relay-to-AP gain is near the double limit, so |b|^2 underflows.
        pytest.param("run", _one_trial(num_relays=2,
                                       layout={"kind": "cell", "relay_ring_radius": 1e-100}),
                     id="relay-next-to-the-ap-ring-radius-tiny"),
        pytest.param("run", _one_trial(layout={"x_relay": 1e-100}),
                     id="relay-next-to-the-ap-x-relay-tiny"),
        *(pytest.param("run", {"scheme": scheme, "num_relays": 0, "layout": {"kind": "cell"}},
                       id=f"zero-relay-cell-{scheme}")
          for scheme in ["proposed", "relay_only", "no_relay", "error_free"]),
        *(pytest.param("theorem-sweep", case.values[0], id=f"theorem-sweep-{case.id}")
          for case in MALFORMED if case.id in NO_TASK_RUNS)])
    def test_runs_to_a_finite_mse(self, tmp_path, command, document):
        _finite_rows(_cli(tmp_path, command, document))

    # The softmax saturates to one-hot, so every model change of the last round
    # is exactly zero and its estimate equals its zero truth.  These runs used to
    # stop on 0 / 0 in the NMSE.
    @pytest.mark.parametrize("scheme, fl", [
        ("error_free", {"total_blocks": 40, "lr_base": 1.0, "separation": 100.0}),
        ("proposed", {"total_blocks": 4, "lr_base": 1000.0, "separation": 40.0}),
        ("no_relay", {"total_blocks": 8, "lr_base": 1000.0, "separation": 40.0}),
    ])
    def test_all_zero_round_reads_minus_infinity(self, tmp_path, scheme, fl):
        rows = _finite_rows(_cli(tmp_path, "run", {"scheme": scheme, "trials": 1, "fl": fl}))
        assert rows[-1]["nmse_db"] == float("-inf")
        assert rows[-1]["mse_predicted"] == 0.0

    @pytest.mark.parametrize("command, document", EXTREME_VALUES)
    def test_extreme_value_runs_or_is_config_error(self, tmp_path, capsys, command, document):
        result = _cli(tmp_path, command, document)
        if result[0] == 0:
            _finite_rows(result)
        else:
            _config_error(capsys, result)

    def test_run_and_seed_override(self, tmp_path):
        cfg = {"scheme": "no_relay", "num_devices": 3, "trials": 1,
               "fl": dict(TINY_FL), "solver": {"j_max": 30}}
        csvs = []
        for seed, name in [("5", "a.csv"), ("5", "b.csv"), ("6", "c.csv")]:
            result = _cli(tmp_path, "run", cfg, "--seed", seed, out=name)
            _finite_rows(result)
            csvs.append(result[1].read_bytes())
        assert csvs[0] == csvs[1] != csvs[2]

    # argparse rejects these before any document is read, with its usage line and exit 2.
    @pytest.mark.parametrize("call", [
        pytest.param(lambda tmp_path: main([]), id="no-command"),
        pytest.param(lambda tmp_path: main(["run"]), id="run-without-flags"),
        pytest.param(lambda tmp_path: _cli(tmp_path, "run", {"trials": 1}, "--seed", "abc"),
                     id="seed-not-an-integer"),
    ])
    def test_usage_error_exits_2(self, tmp_path, capsys, call):
        with pytest.raises(SystemExit) as exit_info:
            call(tmp_path)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: relayfl")
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        document = {"scheme": "no_relay", "num_devices": 2, "trials": 1, "fl": dict(TINY_FL)}
        assert _cli(tmp_path, "run", document, out="missing/x.csv")[0] == 2
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not out.exists()

    def test_theorem_sweep_command(self, tmp_path):
        rows = _finite_rows(_cli(tmp_path, "theorem-sweep", {"num_devices": 4, "trials": 3}))
        assert len(rows) == 6
        assert all(r["sweep_key"] == "delta" for r in rows)
