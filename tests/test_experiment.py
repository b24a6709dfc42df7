import dataclasses
import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayfl import experiment
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
    write_csv,
)

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
        assert config.layout.kind == "line"
        assert config.layout.antenna_gain == pytest.approx(4.11)
        assert config.layout.pathloss_exponent == pytest.approx(3.0)
        assert config.layout.carrier_freq_hz == pytest.approx(915e6)

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


# Each document used to end in a traceback or to be silently coerced into a run.
MALFORMED = [
    pytest.param({"trials": 1.5}, [], id="trials-fraction"),
    pytest.param({"trials": True, "fl": {"total_blocks": 2}}, [], id="trials-bool"),
    pytest.param({"trials": 1, "num_devices": "20"}, [], id="num-devices-string"),
    pytest.param({"trials": 1, "budget": {"noise_dbm": "x"}}, [], id="noise-string"),
    pytest.param({"trials": 1, "budget": {"noise_dbm": 1e308}}, [], id="noise-huge"),
    pytest.param({"trials": 1, "budget": {"noise_dbm": -1e308}}, [], id="noise-tiny"),
    pytest.param({"trials": 1, "budget": {"pr_watts": float("nan")}}, [], id="pr-nan"),
    pytest.param({"trials": 1, "layout": {"device_x_max": float("inf")}}, [], id="x-max-inf"),
    pytest.param({"trials": 1, "layout": {"device_y_half": -5}}, [], id="y-half-negative"),
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
    pytest.param(_one_trial(layout={"device_y_half": 1e308}), [], id="y-half-huge"),
    pytest.param(_one_trial(layout={"kind": "cell", "cell_radius": 1e200}), [],
                 id="cell-radius-huge"),
    pytest.param(_one_trial(layout={"x_relay": 1e308}), [], id="x-relay-huge"),
    pytest.param(_one_trial(layout={"carrier_freq_hz": 1e-300}), [], id="carrier-tiny"),
    # Finite gains and power-to-noise ratios whose squares leave the double range.
    pytest.param(_one_trial(budget={"p0_watts": 1e-300}), [], id="p0-tiny"),
    pytest.param(_one_trial(layout={"antenna_gain": 1e-300}), [], id="antenna-gain-tiny"),
    pytest.param(_one_trial(num_relays=2, layout={"kind": "cell", "antenna_gain": 1e-300}), [],
                 id="cell-antenna-gain-tiny"),
    # Valid documents whose local updates overflow; they used to write NaN and exit 0.
    pytest.param({"trials": 1, "fl": {"total_blocks": 4, "lr_base": 1e300}}, [],
                 id="lr-base-huge"),
    pytest.param({"trials": 1, "fl": {"total_blocks": 4, "separation": 1e300}}, [],
                 id="separation-huge"),
    # Updates whose squares underflow: every variance is zero and so is the truth's norm.
    pytest.param({"trials": 1, "fl": {"total_blocks": 4, "lr_base": 1e-300,
                                      "lr_floor": 1e-300}}, [], id="lr-and-floor-tiny"),
    # Values the solver section's own checks reject.
    pytest.param(_one_trial(solver={"j_max": 0}), [], id="j-max-zero"),
    pytest.param(_one_trial(solver={"epsilon": -1}), [], id="epsilon-negative"),
    # Well-typed values out of range.
    pytest.param(_one_trial(num_devices=0), [], id="num-devices-zero"),
    pytest.param(_one_trial(num_relays=-1, layout={"kind": "cell"}), [],
                 id="cell-relays-negative"),
    pytest.param(_one_trial(budget={"p0_watts": -1}), [], id="p0-negative"),
    pytest.param(_one_trial(layout={"kind": "hex"}), [], id="layout-kind-unknown"),
    pytest.param(_one_trial(layout={"kind": "cell", "cell_radius": -1}), [],
                 id="cell-radius-negative"),
    pytest.param({"trials": 1, "fl": {"total_blocks": 2, "tau": 0}}, [], id="tau-zero"),
    pytest.param({"trials": 1, "fl": {"total_blocks": 2, "partition": "dirichlet"}}, [],
                 id="partition-unknown"),
    pytest.param(_sweep("pr_watts"), [], id="sweep-values-empty"),
]


# One value outside each declared field range; every other value of the document is valid.
RANGE_BREAKS = {
    "scheme": "wishful", "num_devices": 0, "num_relays": -1, "csi_kappa": 1.5, "trials": 0,
    "master_seed": -1, "budget.p0_watts": 0.0, "budget.pr_watts": -0.1, "layout.kind": "hex",
    "layout.x_relay": 0.0, "layout.device_x_min": 0.0, "layout.device_y_half": -1.0,
    "layout.cell_radius": 0.0, "layout.relay_ring_radius": -50.0, "layout.antenna_gain": 0.0,
    "layout.pathloss_exponent": 0.0, "layout.carrier_freq_hz": -915e6, "fl.tau": 0,
    "fl.lr_base": 0.0, "fl.lr_decay": 1.5, "fl.lr_step": 0, "fl.lr_floor": 0.0,
    "fl.num_classes": 1, "fl.feature_dim": 0, "fl.samples_per_class": 0, "fl.separation": 0.0,
    "fl.partition": "dirichlet", "fl.shards_c": 0, "sweep.key": "colour", "sweep.values": [],
}
SECTIONS = {"": ExperimentConfig, "budget.": BudgetConfig, "layout.": LayoutConfig,
            "fl.": FlConfig, "sweep.": SweepConfig}


def _with_range_broken(key, value):
    """(valid one-trial document, the same document with `key` set to `value`)."""
    valid = _one_trial(layout={"kind": "cell" if key == "num_relays" else "line"},
                       sweep={"key": "pr_watts", "values": [0.1]})
    broken = json.loads(json.dumps(valid))
    *sections, leaf = key.split(".")
    target = broken
    for name in sections:
        target = target.setdefault(name, {})
    target[leaf] = value
    return valid, broken


def test_range_breaks_cover_every_declared_range():
    declared = {prefix + name for prefix, cls in SECTIONS.items()
                for name, kind in typing.get_type_hints(cls, include_extras=True).items()
                if typing.get_origin(kind) is typing.Annotated}
    assert declared == set(RANGE_BREAKS)


def _extreme_values():
    """Every float field of budget, layout and fl at 1e-300, 1e-100, 1e100 and 1e300,
    as a one-trial run on the line and on a 2-relay cell, and as a theorem sweep."""
    modes = [("run", "line", _one_trial()),
             ("run", "cell2", _one_trial(num_relays=2, layout={"kind": "cell"})),
             ("theorem-sweep", "line", {"trials": 1})]
    for section, cls in (("budget", BudgetConfig), ("layout", LayoutConfig),
                         ("fl", FlConfig)):
        for key, kind in typing.get_type_hints(cls).items():
            if kind is not float:
                continue
            for value in (1e-300, 1e-100, 1e100, 1e300):
                for command, name, base in modes:
                    document = {**base, section: {**base.get(section, {}), key: value}}
                    yield pytest.param(command, document,
                                       id=f"{command}-{name}-{section}.{key}={value:g}")


EXTREME_VALUES = list(_extreme_values())


class TestCli:
    @pytest.mark.parametrize("document, extra_args", MALFORMED)
    def test_malformed_document_is_config_error(self, tmp_path, capsys, document, extra_args):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(document))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), *extra_args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", RANGE_BREAKS.items(), ids=list(RANGE_BREAKS))
    def test_declared_range_violation_names_the_key(self, tmp_path, capsys, key, value):
        valid, broken = _with_range_broken(key, value)
        parse_config(valid)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(broken))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key} must be ")
        assert "Traceback" not in err
        assert not out.exists()

    # NumPy refused these with _ArrayMemoryError, "array is too big" and "Maximum
    # allowed dimension exceeded"; the cap now rejects them before any trial.
    @pytest.mark.parametrize("num_classes", [10**13, 10**17, 10**21])
    def test_sizes_past_the_cap_are_config_errors(self, tmp_path, capsys, monkeypatch,
                                                  num_classes):
        def fail(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "run_trial", fail)
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps({"scheme": "no_relay", "trials": 1,
                                        "fl": {"num_classes": num_classes}}))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "fl.num_classes" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_shard_count_past_the_cap_is_config_error(self, tmp_path, capsys):
        # The sample-count message used to print num_devices x fl.shards_c, and
        # str() refuses ints past 4,300 digits.
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps({"trials": 1, "num_devices": 10**4000,
                                        "fl": {"partition": "shards", "shards_c": 10**4000}}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err

    @pytest.mark.parametrize("raw", [
        pytest.param(b'{"trials": 1, "x": "\xff"}', id="not-utf8"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested-200000-deep"),
        # Past the interpreter's integer-string limit of 4,300 digits.
        pytest.param(b'{"trials": ' + b"1" * 5000 + b"}", id="int-5000-digits"),
        pytest.param(b'{"fl": {"tau": ' + b"1" * 5000 + b"}}", id="int-5000-digits-in-section"),
    ])
    def test_unparseable_file_is_config_error(self, tmp_path, capsys, raw):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(raw)
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, document, message", [
        pytest.param("run", {"fl": {"total_blocks": 1}}, "fl.total_blocks", id="proposed"),
        pytest.param("run", {"scheme": "relay_only", "fl": {"total_blocks": 1}},
                     "fl.total_blocks", id="relay-only"),
        pytest.param("run", _sweep("total_blocks", 2, 1), "sweep value 1: fl.total_blocks",
                     id="sweep"),
        pytest.param("theorem-sweep", {"trials": 1, "fl": {"total_blocks": 1}},
                     "fl.total_blocks", id="theorem-sweep"),
    ])
    def test_block_budget_without_a_round_is_config_error(self, tmp_path, capsys, command,
                                                          document, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(document))
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("document", [
        # The analytic and signal-chain MSEs of the construction disagree at this scale.
        pytest.param({"trials": 1, "budget": {"p0_watts": 1e100}}, id="p0-huge-ratio"),
        pytest.param({"trials": 1, "layout": {"antenna_gain": 1e100}}, id="antenna-gain-huge"),
        # The certificate is defined for one relay only.
        pytest.param({"trials": 1, "num_relays": 2, "layout": {"kind": "cell"}},
                     id="cell-two-relays"),
    ])
    def test_malformed_theorem_sweep_is_config_error(self, tmp_path, capsys, document):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(document))
        out = tmp_path / "thm.csv"
        assert main(["theorem-sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("configuration error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_numerical_failure_names_the_sweep_point_and_trial(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_sweep("p0_watts", 0.05, 1e-300)))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sweep value 1e-300, trial 0:")
        assert "OverflowError" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("document", [
        pytest.param(_one_trial(num_relays=2,
                                layout={"kind": "cell", "relay_ring_radius": 1e-100}),
                     id="ring-radius-tiny"),
        pytest.param(_one_trial(layout={"x_relay": 1e-100}), id="x-relay-tiny"),
    ])
    def test_relays_next_to_the_ap_run_to_a_finite_mse(self, tmp_path, document):
        # The relay-to-AP gain is near the double limit, so |b|^2 underflows.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(document))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert rows and all(np.isfinite(row["mse_predicted"]) for row in rows)

    @pytest.mark.parametrize("scheme", ["proposed", "relay_only", "no_relay", "error_free"])
    def test_zero_relay_cell_runs_to_a_finite_mse(self, tmp_path, scheme):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scheme": scheme, "num_relays": 0,
                                        "layout": {"kind": "cell"}}))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert rows and all(np.isfinite(row["mse_predicted"]) for row in rows)

    @pytest.mark.parametrize("command, document", EXTREME_VALUES)
    def test_extreme_value_runs_or_is_config_error(self, tmp_path, capsys, command, document):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(document))
        out = tmp_path / "x.csv"
        code = main([command, "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            rows = read_csv(str(out))
            assert rows and all(np.isfinite(row["mse_predicted"]) for row in rows)
        else:
            assert code == 1
            assert err.startswith("configuration error:")
            assert "Traceback" not in err
            assert not out.exists()

    def test_theorem_sweep_rejects_sweep(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_sweep("pr_watts", 0.1)))
        out = tmp_path / "thm.csv"
        assert main(["theorem-sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()

    def test_run_and_seed_override(self, tmp_path):
        cfg = {"scheme": "no_relay", "num_devices": 3, "trials": 1,
               "fl": dict(TINY_FL), "solver": {"j_max": 30}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a),
                     "--seed", "5"]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out_b),
                     "--seed", "5"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        out_c = tmp_path / "c.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_c),
                     "--seed", "6"]) == 0
        assert out_a.read_bytes() != out_c.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"scheme": "nope"}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("solver", [{"epsilon": float("nan")}, {"j_max": 1.5}])
    def test_bad_solver_section_is_config_error(self, tmp_path, capsys, solver):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"solver": solver}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("configuration error: solver.")
        assert not (tmp_path / "x.csv").exists()

    # The inner QCQP's tolerance and iteration cap are optimizer constants, not keys.
    @pytest.mark.parametrize("key, value", [("qcqp_tol", 1e-8), ("qcqp_max_iter", 300)])
    def test_removed_solver_key_is_unknown(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_one_trial(solver={key: value})))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"configuration error: unknown key solver.{key}\n"
        assert not out.exists()

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scheme": "no_relay", "num_devices": 2,
                                        "trials": 1, "fl": dict(TINY_FL)}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "missing" / "x.csv")]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not out.exists()

    def test_theorem_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_devices": 4, "trials": 3}))
        out = tmp_path / "thm.csv"
        assert main(["theorem-sweep", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 6
        assert all(r["sweep_key"] == "delta" for r in rows)
