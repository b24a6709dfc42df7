"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are fixed here and match the package's
contracts; the reference computations come from tests/oracles.py and are
independent of the code paths they check.
"""

import contextlib
import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    c1_block,
    c2_block,
    device_block,
    device_update_oracle,
    fd_complex_gradient,
    norelay_oracle,
    random_feasible_setup,
    relay_block,
    single_relay_instance,
    summarize,
)
from relayfl import federated
from relayfl.aggregation import (
    DeviceWeights,
    PowerBudget,
    compute_global_stats,
    compute_local_stats,
    denormalize,
    norelay_optimum,
    normalize,
    relay_mse,
    simulate_round,
)
from relayfl.experiment import parse_config, run_experiment
from relayfl.geometry import (
    ChannelRealization,
    PathLossParams,
    cell_layout,
    line_layout,
    path_gain_profile,
    realize_channels,
    stream,
)
from relayfl.optimizer import (
    SchemeVariant,
    SolverConfig,
    init_config,
    solve,
)
from relayfl.single_relay import analytic_construction, check_theorem_conditions, snr_summary

TABLE_BUDGET = PowerBudget(p0=0.05, pr=0.1, sigma2=1e-10)  # noise -70 dBm
PL = PathLossParams()


@contextlib.contextmanager
def criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL ({time.perf_counter() - start:6.1f}s): {description}")
        raise
    print(f"criterion {num:2d} PASS ({time.perf_counter() - start:6.1f}s): {description}")


def random_channels(rng, k, n):
    return ChannelRealization(
        h=(rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(0.5),
        g=(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) * np.sqrt(0.5),
        f=(rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5),
    )


def test_criterion_01_norelay_closed_form_matches_oracle():
    with criterion(1, "no-relay closed form vs aligned brute force, 100 instances, 1e-6"):
        for i in range(100):
            rng = stream(1000, i)
            k = int(rng.integers(1, 4))
            h = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(0.5)
            weights = DeviceWeights.from_counts(rng.integers(1, 9, k))
            p0 = float(rng.uniform(0.05, 2.0))
            sigma2 = float(rng.uniform(0.01, 1.0))
            _, _, mse = norelay_optimum(h, weights, p0, sigma2)
            oracle = norelay_oracle(h, weights.rho, p0, sigma2)
            assert abs(mse - oracle) <= 1e-6 * oracle


def test_criterion_02_analytic_mse_matches_monte_carlo():
    with criterion(2, "analytic MSE vs 1e6-draw Monte Carlo, 20 configs, 1%"):
        draws = 10**6
        for i in range(20):
            k = 1 + i % 3
            n = 1 + (i // 3) % 2
            config, ch, weights, budget = random_feasible_setup(2000 + i, k, n)
            rng = stream(2100, i)
            symbols = rng.standard_normal((k, draws))
            est = simulate_round(config, ch, symbols, budget.sigma2, rng)
            empirical = float(np.mean(np.abs(est - weights.rho @ symbols) ** 2))
            analytic = relay_mse(config, ch, weights, budget.sigma2)
            assert abs(empirical - analytic) <= 0.01 * analytic


def test_criterion_03_solver_monotone_and_converges():
    with criterion(3, "200 solves (K=20, N in {1,4}): monotone traces, >=95% epsilon-converged"):
        solver_cfg = SolverConfig(j_max=100, epsilon=1e-4)
        weights = DeviceWeights.uniform(20)
        converged = 0
        for i in range(200):
            rng = stream(3000, i)
            if i % 2 == 0:
                layout = line_layout(20, rng)
            else:
                layout = cell_layout(20, 4, rng)
            ch = realize_channels(path_gain_profile(layout, PL), rng)
            _, trace = solve(ch, weights, TABLE_BUDGET, solver_cfg)
            diffs = np.diff(trace.objectives)
            assert np.all(diffs <= 1e-9 * np.abs(trace.objectives[:-1]))
            converged += trace.terminated_by == "converged"
        assert converged >= 190, f"only {converged}/200 converged"


def test_criterion_04_closed_form_stationarity_and_dominance():
    with criterion(4, "receive/relay closed forms: FD residual < 1e-5 and point dominance"):
        # receive scalars: stationarity plus random-point dominance
        for i in range(100):
            rng = stream(4000, i)
            k, n = int(rng.integers(1, 6)), int(rng.integers(0, 4))
            ch = random_channels(rng, k, n)
            weights = DeviceWeights.uniform(k)
            budget = PowerBudget(p0=1.0, pr=2.0, sigma2=float(rng.uniform(0.05, 0.5)))
            cfg = init_config(ch, weights, budget)
            c1_star = c1_block(cfg, ch, weights, budget)
            c2_star = c2_block(cfg, ch, weights, budget)
            grad1 = fd_complex_gradient(
                lambda v: relay_mse(replace(cfg, c1=v), ch, weights, budget.sigma2), c1_star)
            grad2 = fd_complex_gradient(
                lambda v: relay_mse(replace(cfg, c2=v), ch, weights, budget.sigma2), c2_star)
            assert abs(grad1) < 1e-5 and abs(grad2) < 1e-5
            base1 = relay_mse(replace(cfg, c1=c1_star), ch, weights, budget.sigma2)
            base2 = relay_mse(replace(cfg, c2=c2_star), ch, weights, budget.sigma2)
            for _ in range(30):
                probe = rng.standard_normal() + 1j * rng.standard_normal()
                assert relay_mse(replace(cfg, c1=probe), ch, weights,
                                 budget.sigma2) >= base1 - 1e-9
                assert relay_mse(replace(cfg, c2=probe), ch, weights,
                                 budget.sigma2) >= base2 - 1e-9
        # relay scalars: interior stationarity
        for i in range(100):
            rng = stream(4100, i)
            k, n = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            ch = random_channels(rng, k, n)
            weights = DeviceWeights.uniform(k)
            budget = PowerBudget(p0=1.0, pr=1e6, sigma2=float(rng.uniform(0.05, 0.5)))
            cfg = init_config(ch, weights, budget)
            b_star = relay_block(cfg, ch, weights, budget)
            caps = budget.pr / ((np.abs(ch.g) ** 2).T @ np.abs(cfg.a1) ** 2 + budget.sigma2)
            assert np.all(np.abs(b_star) < np.sqrt(caps))
            for j in range(n):
                def along(bj, j=j):
                    b = b_star.copy()
                    b[j] = bj
                    return relay_mse(replace(cfg, b=b), ch, weights, budget.sigma2)
                assert abs(fd_complex_gradient(along, b_star[j])) < 1e-5
        # relay scalars: dominance on single-relay instances (projection exact)
        for i in range(100):
            rng = stream(4200, i)
            k = int(rng.integers(1, 6))
            ch = random_channels(rng, k, 1)
            weights = DeviceWeights.uniform(k)
            budget = PowerBudget(p0=1.0, pr=float(rng.uniform(0.2, 3.0)),
                                 sigma2=float(rng.uniform(0.05, 0.5)))
            cfg = init_config(ch, weights, budget)
            b_star = relay_block(cfg, ch, weights, budget)
            best = relay_mse(replace(cfg, b=b_star), ch, weights, budget.sigma2)
            cap = budget.pr / (np.abs(ch.g[:, 0]) ** 2 @ np.abs(cfg.a1) ** 2 + budget.sigma2)
            for _ in range(100):
                b = np.array([np.sqrt(cap) * rng.uniform() * np.exp(2j * np.pi * rng.uniform())])
                assert relay_mse(replace(cfg, b=b), ch, weights,
                                 budget.sigma2) >= best - 1e-9


def test_criterion_05_device_qcqp_matches_slsqp_oracle():
    with criterion(5, "device QCQP vs SLSQP multistart, 50 instances, 1e-4 relative"):
        for i in range(50):
            rng = stream(5000, i)
            k = int(rng.integers(1, 3))
            n = int(rng.integers(0, 2))
            ch = random_channels(rng, k, n)
            weights = DeviceWeights.uniform(k)
            budget = PowerBudget(p0=1.0, pr=float(rng.uniform(0.5, 3.0)),
                                 sigma2=float(rng.uniform(0.05, 0.5)))
            cfg = init_config(ch, weights, budget)
            cfg = replace(cfg, c1=c1_block(cfg, ch, weights, budget))
            cfg = replace(cfg, c2=c2_block(cfg, ch, weights, budget))
            a1, a2, _ = device_block(cfg, ch, weights, budget)
            relay_path = ch.g @ (ch.f * cfg.b) if n else np.zeros(k)
            theta = cfg.c1 * ch.h + cfg.c2 * relay_path
            phi = cfg.c2 * ch.h
            mine = float(np.sum(np.abs(theta * a1 + phi * a2 - weights.rho) ** 2))
            oracle = device_update_oracle(cfg, ch, weights, budget, seed=i)
            assert np.isfinite(oracle)
            assert abs(mine - oracle) <= 1e-4 * max(oracle, 1e-12)


def test_criterion_06_single_relay_bound_certification():
    with criterion(6, "1e3 condition-satisfying instances: bound holds, warm solve only descends"):
        solver_cfg = SolverConfig()
        for i in range(1000):
            ch, weights, budget = single_relay_instance(6000 + i, enforce_conditions=True)
            cond40, cond41 = check_theorem_conditions(*snr_summary(ch, budget))
            assert cond40 and cond41
            start, start_mse = analytic_construction(ch, weights, budget)
            _, _, bound = norelay_optimum(ch.h, weights, 2.0 * budget.p0, budget.sigma2)
            assert start_mse <= bound * (1.0 + 1e-12)
            _, trace = solve(ch, weights, budget, solver_cfg, SchemeVariant.FULL,
                             warm_start=start)
            assert trace.objectives[-1] <= start_mse + 1e-9


TREND_BASE = {
    "num_devices": 20, "trials": 50, "master_seed": 2026,
    "fl": {"total_blocks": 40, "num_classes": 8, "feature_dim": 20,
           "samples_per_class": 120, "separation": 2.2},
}


def _final_mean(rows, column):
    stats = summarize(rows, column, final_round_only=True)
    return stats[list(stats)[0]]["mean"]


def test_criterion_07_low_snr_scheme_ordering():
    with criterion(7, "sigma2=-70dBm, 50 trials: NMSE and accuracy orderings across schemes"):
        results = {}
        for scheme in ("proposed", "relay_only", "no_relay"):
            rows = run_experiment(parse_config({
                **TREND_BASE, "scheme": scheme, "budget": {"noise_dbm": -70.0}}))
            results[scheme] = (_final_mean(rows, "nmse_db"),
                               _final_mean(rows, "test_accuracy"))
        nmse = {s: results[s][0] for s in results}
        acc = {s: results[s][1] for s in results}
        assert nmse["proposed"] < nmse["relay_only"] < nmse["no_relay"], nmse
        assert acc["proposed"] >= acc["relay_only"] >= acc["no_relay"], acc


def test_criterion_08_high_snr_equivalence():
    with criterion(8, "sigma2=-100dBm: all schemes NMSE < -20 dB, accuracy within 1pp of ideal"):
        base = {
            "num_devices": 20, "trials": 50, "master_seed": 2026,
            "budget": {"noise_dbm": -100.0},
            "fl": {"total_blocks": 40, "num_classes": 5, "feature_dim": 20,
                   "samples_per_class": 120, "separation": 4.0},
        }
        accuracy = {}
        for scheme in ("proposed", "relay_only", "no_relay", "error_free"):
            rows = run_experiment(parse_config({**base, "scheme": scheme}))
            accuracy[scheme] = _final_mean(rows, "test_accuracy")
            if scheme != "error_free":
                stats = summarize(rows, "nmse_db")
                assert stats[list(stats)[0]]["mean"] < -20.0, scheme
        for scheme in ("proposed", "relay_only", "no_relay"):
            assert abs(accuracy[scheme] - accuracy["error_free"]) <= 0.01, accuracy


def test_criterion_09_roundtrip_and_noiseless_limit():
    with criterion(9, "normalization round-trip 1e-10; sigma2=1e-15 tracks error-free < 1e-3"):
        for i in range(25):
            rng = stream(9000, i)
            k, dim = int(rng.integers(2, 7)), int(rng.integers(3, 40))
            deltas = 5.0 * rng.standard_normal((k, dim))
            weights = DeviceWeights.from_counts(rng.integers(1, 20, k))
            means, variances = compute_local_stats(deltas)
            g_mean, g_var = compute_global_stats(means, variances, weights)
            symbols = np.stack([normalize(d, g_mean, np.sqrt(g_var)) for d in deltas])
            recovered = denormalize(weights.rho @ symbols, g_mean, np.sqrt(g_var))
            truth = weights.rho @ deltas
            assert np.all(np.abs(recovered - truth) <= 1e-10 * np.maximum(np.abs(truth), 1.0))

        quiet = PowerBudget(p0=1.0, pr=1.0, sigma2=1e-15)
        for seed in (1, 2, 3):
            task = federated.make_synthetic_task(3, 6, 50, 4.0, stream(9100, seed))
            rng = stream(9200, seed)
            layout = line_layout(3, rng, x_relay=5.0, device_x=(8.0, 12.0),
                                 device_y_half=6.0)
            partition = federated.partition_iid(task, 3, rng)
            schedule = federated.LrSchedule()
            _, noisy = federated.train(
                "proposed", task, partition, layout, PL, quiet, SolverConfig(),
                schedule, 12, stream(9300, seed))
            _, ideal = federated.train(
                "error_free", task, partition, layout, PL, quiet, SolverConfig(),
                schedule, 6, stream(9300, seed))
            deviation = np.linalg.norm(noisy - ideal) / np.linalg.norm(ideal)
            assert deviation < 1e-3, deviation


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical config and seed give byte-identical CSV from the CLI"):
        cfg = {
            "scheme": "proposed", "num_devices": 3, "trials": 2, "master_seed": 5,
            "fl": {"total_blocks": 4, "num_classes": 3, "feature_dim": 4,
                   "samples_per_class": 30, "separation": 5.0},
            "solver": {"j_max": 30},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "relayfl", "run", "--config", str(cfg_path),
                 "--out", str(out)], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0]) > 100
