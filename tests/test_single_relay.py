import numpy as np
import pytest

from relayfl import single_relay
from relayfl.aggregation import (
    DeviceWeights,
    InconsistentMseError,
    PowerBudget,
    max_constraint_violation,
    norelay_optimum,
    relay_mse,
)
from relayfl.geometry import ChannelRealization, stream
from relayfl.optimizer import SchemeVariant, SolverConfig, solve
from oracles import single_relay_instance
from relayfl.single_relay import (
    SnrSummary,
    analytic_construction,
    check_theorem_conditions,
    snr_summary,
)


class TestSnrSummary:
    def test_worked_example(self):
        ch = ChannelRealization(h=[1.0 + 0j, 2.0 + 0j],
                                g=[[np.sqrt(2.0) + 0j], [np.sqrt(8.0) + 0j]],
                                f=[1.0 + 0j])
        summary = snr_summary(ch, PowerBudget(p0=1.0, pr=4.0, sigma2=1.0))
        assert summary.snr_device_ap == pytest.approx([1.0, 4.0])
        assert summary.snr_device_relay == pytest.approx([2.0, 8.0])
        assert summary.snr_relay_ap == pytest.approx(4.0)
        assert summary.delta == pytest.approx(0.5)

    def test_equal_gains_give_unit_delta(self):
        ch = ChannelRealization(h=[1j, 2.0 + 0j], g=[[1.0 + 0j], [0.0 + 2j]], f=[1.0 + 0j])
        summary = snr_summary(ch, PowerBudget(p0=0.3, pr=1.0, sigma2=0.1))
        assert summary.delta == pytest.approx(1.0)

    def test_delta_invariant_to_common_scaling(self):
        ch, weights, budget = single_relay_instance(7)
        base = snr_summary(ch, budget).delta
        scaled = ChannelRealization(h=3.0 * ch.h, g=3.0 * ch.g, f=ch.f)
        assert snr_summary(scaled, budget).delta == pytest.approx(base)

    def test_requires_single_relay(self):
        ch = ChannelRealization(h=[1.0 + 0j], g=[[1.0 + 0j, 1.0 + 0j]],
                                f=[1.0 + 0j, 1.0 + 0j])
        with pytest.raises(ValueError):
            snr_summary(ch, PowerBudget(p0=1.0, pr=1.0, sigma2=1.0))


class TestTheoremConditions:
    def _summary(self, delta, worst_snr, relay_ap, k=20):
        snr = np.full(k, worst_snr)
        relay_snr = snr / max(delta, 1e-300)
        return SnrSummary(snr_device_ap=snr, snr_device_relay=relay_snr,
                          snr_relay_ap=relay_ap, delta=delta)

    def test_unit_delta_threshold(self):
        # at delta = 1 the requirement reduces to K * worst SNR + 1
        cond40, cond41 = check_theorem_conditions(self._summary(1.0, 10.0, 201.0), 20)
        assert cond40 and cond41
        cond40, cond41 = check_theorem_conditions(self._summary(1.0, 10.0, 200.99), 20)
        assert cond40 and not cond41

    def test_zero_delta_threshold(self):
        threshold = 20 * 10.0 / (1.0 + np.sqrt(2.0)) ** 2
        _, cond41 = check_theorem_conditions(self._summary(0.0, 10.0, threshold * 1.001), 20)
        assert cond41
        _, cond41 = check_theorem_conditions(self._summary(0.0, 10.0, threshold * 0.999), 20)
        assert not cond41

    def test_delta_above_one_flags_condition(self):
        cond40, cond41 = check_theorem_conditions(self._summary(1.5, 10.0, 1e9), 20)
        assert not cond40
        assert not cond41


class TestAnalyticConstruction:
    def test_alignment_is_exact(self):
        for seed in range(20):
            ch, weights, budget = single_relay_instance(seed)
            built = analytic_construction(ch, weights, budget)
            cfg = built.config
            assert cfg.c1 == 0
            combined = (cfg.c2 * ch.f[0] * cfg.b[0] * ch.g[:, 0] * cfg.a1
                        + cfg.c2 * ch.h * cfg.a2)
            assert combined == pytest.approx(weights.rho, abs=1e-10)

    def test_symmetric_unit_instance(self):
        ch = ChannelRealization(h=[1.0 + 0j], g=[[1.0 + 0j]], f=[1.0 + 0j])
        budget = PowerBudget(p0=1.0, pr=1.0, sigma2=1.0)
        built = analytic_construction(ch, DeviceWeights([1.0]), budget)
        assert built.alpha_bar == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)))
        assert built.alpha == pytest.approx(built.alpha_bar)
        assert built.mse == pytest.approx(3.0 / (3.0 + 2.0 * np.sqrt(2.0)))
        assert built.mse == pytest.approx(
            relay_mse(built.config, ch, DeviceWeights([1.0]), budget.sigma2), rel=1e-9)

    def test_split_sums_to_one_and_feasible(self):
        for seed in range(40, 60):
            ch, weights, budget = single_relay_instance(seed)
            built = analytic_construction(ch, weights, budget)
            assert built.alpha + built.beta == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= built.alpha <= 0.5
            assert max_constraint_violation(built.config, ch, budget) <= 1e-9

    def test_branches_coincide_at_boundary_split(self):
        found = 0
        for seed in range(200):
            ch, weights, budget = single_relay_instance(seed)
            built = analytic_construction(ch, weights, budget)
            if built.alpha < 0.5:  # boundary split: both limits on eta coincide
                k = weights.rho.size
                rho = float(weights.rho[0])
                eta_direct = built.beta**2 * rho**2 / (
                    budget.p0 * float(np.min(np.abs(ch.h) ** 2)))
                eta_relay = (k * built.alpha**2 * rho**2
                             + built.gamma * budget.sigma2 * abs(ch.f[0]) ** 2) / (
                    budget.pr * abs(ch.f[0]) ** 2)
                assert eta_direct == pytest.approx(eta_relay, rel=1e-9)
                assert built.eta == pytest.approx(eta_direct, rel=1e-9)
                found += 1
        assert found > 10

    def test_certified_dominance_on_condition_satisfying_instances(self):
        for seed in range(300):
            ch, weights, budget = single_relay_instance(seed, enforce_conditions=True)
            cond40, cond41 = check_theorem_conditions(snr_summary(ch, budget), weights.rho.size)
            assert cond40 and cond41
            built = analytic_construction(ch, weights, budget)
            _, _, bound = norelay_optimum(ch.h, weights, 2.0 * budget.p0, budget.sigma2)
            assert built.mse <= bound * (1.0 + 1e-9)

    def test_solver_warm_started_never_worse(self):
        for seed in range(5):
            ch, weights, budget = single_relay_instance(seed, enforce_conditions=True)
            built = analytic_construction(ch, weights, budget)
            solved, trace = solve(ch, weights, budget, SolverConfig(),
                                  SchemeVariant.FULL, warm_start=built.config)
            assert trace.objectives[-1] <= built.mse + 1e-9

    def test_signal_chain_disagreement_raises_typed_error(self, monkeypatch):
        ch, weights, budget = single_relay_instance(11)
        monkeypatch.setattr(single_relay, "relay_mse",
                            lambda config, *args: 2.0 * relay_mse(config, *args))
        with pytest.raises(InconsistentMseError, match="disagree"):
            analytic_construction(ch, weights, budget)

    def test_nonuniform_weights_rejected(self):
        ch, _, budget = single_relay_instance(3, num_devices=2)
        with pytest.raises(ValueError):
            analytic_construction(ch, DeviceWeights([0.3, 0.7]), budget)
