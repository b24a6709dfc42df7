import numpy as np
import pytest

from relayfl import single_relay
from relayfl.aggregation import (
    DeviceWeights,
    PowerBudget,
    max_constraint_violation,
    norelay_optimum,
    relay_mse,
)
from relayfl.geometry import ChannelRealization
from relayfl.optimizer import Problem, SchemeVariant, SolverConfig, solve
from oracles import single_relay_instance
from relayfl.single_relay import (
    analytic_construction,
    check_theorem_conditions,
    snr_summary,
)


class TestSnrSummary:
    def test_worked_example(self):
        ch = ChannelRealization(h=[1.0 + 0j, 2.0 + 0j],
                                g=[[np.sqrt(2.0) + 0j], [np.sqrt(8.0) + 0j]],
                                f=[1.0 + 0j])
        snr_ap, snr_relay, delta = snr_summary(ch, PowerBudget(p0=1.0, pr=4.0, sigma2=1.0))
        assert snr_ap == pytest.approx([1.0, 4.0])
        assert snr_relay == pytest.approx(4.0)
        assert delta == pytest.approx(0.5)

    def test_equal_gains_give_unit_delta(self):
        ch = ChannelRealization(h=[1j, 2.0 + 0j], g=[[1.0 + 0j], [0.0 + 2j]], f=[1.0 + 0j])
        _, _, delta = snr_summary(ch, PowerBudget(p0=0.3, pr=1.0, sigma2=0.1))
        assert delta == pytest.approx(1.0)

    def test_delta_invariant_to_common_scaling(self):
        ch, weights, budget = single_relay_instance(7)
        _, _, base = snr_summary(ch, budget)
        scaled = ChannelRealization(h=3.0 * ch.h, g=3.0 * ch.g, f=ch.f)
        assert snr_summary(scaled, budget)[2] == pytest.approx(base)

    def test_relay_snr_takes_the_constructions_link_power(self):
        # The construction and the SNR summary read |f|^2 as NumPy's abs
        # squared, as the relay update's disc does; Python's abs of the
        # complex gain differs from it in the last bit for some gains.
        differs = 0
        for seed in range(40):
            ch, weights, budget = single_relay_instance(seed)
            f2 = Problem(ch, weights, budget).f2[0]
            assert single_relay._link_powers(ch)[2] == f2
            assert snr_summary(ch, budget)[1] == budget.pr * f2 / budget.sigma2
            differs += abs(complex(ch.f[0])) ** 2 != f2
        assert differs > 0


class TestTheoremConditions:
    def _summary(self, delta, worst_snr, relay_ap, k=20):
        """The three values of ``snr_summary``: K equal device SNRs, the relay SNR, delta."""
        return np.full(k, worst_snr), relay_ap, delta

    def test_unit_delta_threshold(self):
        # at delta = 1 the requirement reduces to K * worst SNR + 1
        cond40, cond41 = check_theorem_conditions(*self._summary(1.0, 10.0, 201.0))
        assert cond40 and cond41
        cond40, cond41 = check_theorem_conditions(*self._summary(1.0, 10.0, 200.99))
        assert cond40 and not cond41

    def test_zero_delta_threshold(self):
        threshold = 20 * 10.0 / (1.0 + np.sqrt(2.0)) ** 2
        _, cond41 = check_theorem_conditions(*self._summary(0.0, 10.0, threshold * 1.001))
        assert cond41
        _, cond41 = check_theorem_conditions(*self._summary(0.0, 10.0, threshold * 0.999))
        assert not cond41

    def test_delta_above_one_flags_condition(self):
        cond40, cond41 = check_theorem_conditions(*self._summary(1.5, 10.0, 1e9))
        assert not cond40
        assert not cond41


def _split(config, ch, weights):
    """(alpha, beta, gamma, eta) read off a phase-2-only config.

    alpha and beta are the relayed share c2 f b g_k a1_k / rho_k and the direct
    share c2 h_k a2_k / rho_k of each weight, checked to be one real value
    across devices within the rounding they carry; gamma = |c2 b|^2 and
    eta = |c2|^2.
    """
    c2, b = config.c2, config.b[0]
    relayed = c2 * ch.f[0] * b * ch.g[:, 0] * config.a1 / weights.rho
    direct = c2 * ch.h * config.a2 / weights.rho
    shares = []
    for share in (relayed, direct):
        assert share == pytest.approx(np.full(share.size, share[0].real), abs=1e-12)
        shares.append(float(share[0].real))
    return shares[0], shares[1], abs(c2 * b) ** 2, abs(c2) ** 2


class TestAnalyticConstruction:
    def test_alignment_is_exact(self):
        for seed in range(20):
            ch, weights, budget = single_relay_instance(seed)
            cfg = analytic_construction(ch, weights, budget)
            assert cfg.c1 == 0
            combined = (cfg.c2 * ch.f[0] * cfg.b[0] * ch.g[:, 0] * cfg.a1
                        + cfg.c2 * ch.h * cfg.a2)
            assert combined == pytest.approx(weights.rho, abs=1e-10)

    def test_symmetric_unit_instance(self):
        ch = ChannelRealization(h=[1.0 + 0j], g=[[1.0 + 0j]], f=[1.0 + 0j])
        budget = PowerBudget(p0=1.0, pr=1.0, sigma2=1.0)
        cfg = analytic_construction(ch, DeviceWeights([1.0]), budget)
        alpha, _, _, _ = _split(cfg, ch, DeviceWeights([1.0]))
        # the relay-power limit binds, so alpha is the boundary split alpha_bar
        assert alpha == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)), abs=1e-12)
        assert relay_mse(cfg, ch, DeviceWeights([1.0]), budget.sigma2) == pytest.approx(
            3.0 / (3.0 + 2.0 * np.sqrt(2.0)))

    def test_split_sums_to_one_and_feasible(self):
        for seed in range(40, 60):
            ch, weights, budget = single_relay_instance(seed)
            cfg = analytic_construction(ch, weights, budget)
            alpha, beta, _, _ = _split(cfg, ch, weights)
            assert alpha + beta == pytest.approx(1.0, abs=1e-12)
            assert -1e-12 <= alpha <= 0.5 + 1e-12
            assert max_constraint_violation(cfg, ch, budget) <= 1e-9

    def test_branches_coincide_at_boundary_split(self):
        found = 0
        for seed in range(200):
            ch, weights, budget = single_relay_instance(seed)
            cfg = analytic_construction(ch, weights, budget)
            alpha, beta, gamma, eta = _split(cfg, ch, weights)
            if alpha < 0.5 - 1e-12:  # boundary split: both limits on eta coincide
                k = weights.rho.size
                rho = float(weights.rho[0])
                eta_direct = beta**2 * rho**2 / (
                    budget.p0 * float(np.min(np.abs(ch.h) ** 2)))
                eta_relay = (k * alpha**2 * rho**2
                             + gamma * budget.sigma2 * abs(ch.f[0]) ** 2) / (
                    budget.pr * abs(ch.f[0]) ** 2)
                assert eta_direct == pytest.approx(eta_relay, rel=1e-9)
                assert eta == pytest.approx(eta_direct, rel=1e-9)
                found += 1
        assert found > 10

    def test_certified_dominance_on_condition_satisfying_instances(self):
        for seed in range(300):
            ch, weights, budget = single_relay_instance(seed, enforce_conditions=True)
            cond40, cond41 = check_theorem_conditions(*snr_summary(ch, budget))
            assert cond40 and cond41
            cfg = analytic_construction(ch, weights, budget)
            mse = relay_mse(cfg, ch, weights, budget.sigma2)
            # the signal chain's MSE is the paper's, exact alignment leaving
            # only the noise amplified by |c2|^2 + |c2 f b|^2
            assert mse == pytest.approx(
                (abs(cfg.c2) ** 2 + abs(cfg.c2 * ch.f[0] * cfg.b[0]) ** 2) * budget.sigma2,
                rel=1e-12, abs=0)
            _, _, bound = norelay_optimum(ch.h, weights, 2.0 * budget.p0, budget.sigma2)
            assert mse <= bound * (1.0 + 1e-9)

    def test_solver_warm_started_never_worse(self):
        for seed in range(5):
            ch, weights, budget = single_relay_instance(seed, enforce_conditions=True)
            start = analytic_construction(ch, weights, budget)
            _, trace = solve(ch, weights, budget, SolverConfig(),
                             SchemeVariant.FULL, warm_start=start)
            assert trace.objectives[-1] <= relay_mse(start, ch, weights, budget.sigma2) + 1e-9


def test_snr_underflow_raises_zero_division_error():
    # |g|^2 of 1e-170 underflows to 0, so the device-to-relay SNR is zero and delta
    # undefined; a trial reports the ZeroDivisionError as a configuration error.
    channels = ChannelRealization(h=[1.0 + 0j], g=[[1e-170 + 0j]], f=[1.0 + 0j])
    with pytest.raises(ZeroDivisionError):
        snr_summary(channels, PowerBudget(p0=1.0, pr=1.0, sigma2=1.0))


TWO_RELAYS = ChannelRealization(h=[1.0 + 0j], g=[[1.0 + 0j, 1.0 + 0j]], f=[1.0 + 0j, 1.0 + 0j])
UNIT_BUDGET = PowerBudget(p0=1.0, pr=1.0, sigma2=1.0)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: analytic_construction(TWO_RELAYS, DeviceWeights([1.0]), UNIT_BUDGET),
                 "exactly one relay", id="construction-two-relays"),
    pytest.param(lambda: snr_summary(TWO_RELAYS, UNIT_BUDGET), "exactly one relay",
                 id="summary-two-relays"),
    pytest.param(lambda: analytic_construction(single_relay_instance(3, num_devices=2)[0],
                                               DeviceWeights([0.3, 0.7]), UNIT_BUDGET),
                 "uniform weights", id="construction-nonuniform-weights"),
])
def test_bad_input_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
