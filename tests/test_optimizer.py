import functools
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace
from scipy.optimize import brentq

from relayfl.aggregation import (
    DeviceWeights,
    PowerBudget,
    TransceiverConfig,
    _combined_gains,
    _misalignment_power,
    max_constraint_violation,
    norelay_optimum,
    relay_input_power,
    relay_mse,
    relay_power_used,
)
from relayfl.geometry import (
    ChannelRealization,
    cell_layout,
    path_gain_profile,
    realize_channels,
    stream,
)
from relayfl import optimizer
from relayfl.experiment import dbm_to_watts
from relayfl.single_relay import analytic_construction
from relayfl.optimizer import (
    SchemeVariant,
    SolverConfig,
    SolverTrace,
    _bounded_newton_step,
    _clamp_disc,
    _transmit_scalars,
    init_config,
    solve,
    update_relay_scalars,
)

from oracles import (
    c1_block,
    c2_block,
    device_block,
    device_update_oracle,
    fd_complex_gradient,
    misalignment_of,
    paper_channels,
    random_feasible_setup,
    rayleigh_channels,
    relay_block,
    relay_update_oracle,
    solve_reference,
)

SOLVER = SolverConfig()


def random_instance(seed, num_devices, num_relays, p0=1.0, pr=2.0, sigma2=0.1,
                    uniform=True):
    rng = stream(seed)
    k, n = num_devices, num_relays
    ch = rayleigh_channels(rng, k, n)
    weights = (DeviceWeights.uniform(k) if uniform
               else DeviceWeights.from_counts(rng.integers(1, 9, k)))
    return ch, weights, PowerBudget(p0=p0, pr=pr, sigma2=sigma2), rng


class TestInitConfig:
    def test_single_device_unit_channel(self):
        ch = ChannelRealization(h=[1.0 + 0j], g=[[1.0 + 0j]], f=[1.0 + 0j])
        cfg = init_config(ch, DeviceWeights([1.0]), PowerBudget(p0=1.0, pr=2.0, sigma2=0.5))
        assert cfg.a1 == pytest.approx([1.0])
        assert cfg.a2 == pytest.approx([1.0])
        assert cfg.c1 == pytest.approx(0.5)
        assert cfg.c2 == pytest.approx(0.5)

    def test_relay_powers_start_active(self):
        ch, weights, budget, _ = random_instance(81, 4, 2)
        cfg = init_config(ch, weights, budget)
        used = relay_power_used(cfg, ch, budget.sigma2)
        assert used == pytest.approx(np.full(2, budget.pr), rel=1e-12)

    def test_symmetric_channels_equal_scalars(self):
        ch = ChannelRealization(h=[2.0 + 0j, 2.0 + 0j], g=np.ones((2, 1)), f=[1.0 + 0j])
        cfg = init_config(ch, DeviceWeights.uniform(2), PowerBudget(p0=1.0, pr=1.0, sigma2=0.1))
        assert cfg.a1[0] == pytest.approx(cfg.a1[1])
        assert cfg.a2[0] == pytest.approx(cfg.a2[1])

    def test_direct_paths_align_perfectly(self):
        ch, weights, budget, _ = random_instance(82, 5, 0)
        cfg = init_config(ch, weights, budget)
        combined = (cfg.c1 + cfg.c2) * ch.h * cfg.a1
        assert combined == pytest.approx(weights.rho, abs=1e-14)

    def test_full_start_without_relays_is_the_norelay_optimum(self):
        ch, weights, budget, _ = random_instance(84, 6, 2, uniform=False)
        cfg = init_config(ch, weights, budget)
        assert np.array_equal(cfg.a1, cfg.a2) and cfg.c1 == cfg.c2
        silent = replace(cfg, b=np.zeros(2, dtype=complex))
        _, _, bound = norelay_optimum(ch.h, weights, 2.0 * budget.p0, budget.sigma2)
        assert relay_mse(silent, ch, weights, budget.sigma2) == pytest.approx(bound, rel=1e-12)

    def test_relay_only_start_is_the_norelay_optimum_in_phase_one(self):
        ch, weights, budget, _ = random_instance(85, 6, 2, uniform=False)
        cfg = init_config(ch, weights, budget, SchemeVariant.RELAY_ONLY)
        a, c, _ = norelay_optimum(ch.h, weights, 2.0 * budget.p0, budget.sigma2)
        assert np.array_equal(cfg.a1, a) and cfg.c2 == c
        assert cfg.c1 == 0 and not cfg.a2.any()


class TestDeviceUpdate:
    def test_flat_objective_keeps_input(self):
        ch, weights, budget, _ = random_instance(83, 3, 1)
        cfg = init_config(ch, weights, budget)
        flat = replace(cfg, c1=0.0, c2=0.0)
        a1, a2, ok = device_block(flat, ch, weights, budget)
        assert ok
        assert a1 == pytest.approx(flat.a1)
        assert a2 == pytest.approx(flat.a2)

    def test_single_device_reaches_zero_misalignment(self):
        ch = ChannelRealization(h=[1.0 + 0j], g=np.zeros((1, 0)), f=np.zeros(0))
        weights = DeviceWeights([1.0])
        budget = PowerBudget(p0=100.0, pr=1.0, sigma2=0.1)
        cfg = TransceiverConfig(a1=[0.1 + 0j], a2=[0.1 + 0j], b=np.zeros(0), c1=1.0, c2=1.0)
        a1, a2, ok = device_block(cfg, ch, weights, budget)
        final = replace(cfg, a1=a1, a2=a2)
        assert ok
        assert misalignment_of(final, ch, weights) <= 1e-8

    @pytest.mark.parametrize("seed", [101, 102, 103, 104])
    def test_matches_slsqp_oracle(self, seed):
        ch, weights, budget, _ = random_instance(seed, 2, 1, sigma2=0.2)
        cfg = init_config(ch, weights, budget)
        # move off the initial point so the subproblem is nontrivial
        cfg = replace(cfg, c1=c1_block(cfg, ch, weights, budget))
        cfg = replace(cfg, c2=c2_block(cfg, ch, weights, budget))
        a1, a2, _ = device_block(cfg, ch, weights, budget)
        mine = misalignment_of(replace(cfg, a1=a1, a2=a2), ch, weights)
        oracle = device_update_oracle(cfg, ch, weights, budget, seed=seed)
        assert mine <= oracle * (1 + 1e-4) + 1e-12
        assert mine >= oracle * (1 - 1e-4) - 1e-12

    def test_non_finite_first_dual_keeps_the_fallbacks(self):
        # |theta_0|^2 = 2^-1020 is just above the smallest normal double, and the
        # huge box leaves device 0 wanting its whole relayed copy: its relay
        # power overflows, so the first dual value is 0 * inf = NaN.  Powers of
        # two keep the direct copy exactly on its box.
        ch = ChannelRealization(h=[2.0**-20, 1.0], g=[[16.0], [1.0]], f=[1.0])
        budget = PowerBudget(p0=2.0**1022, pr=0.15, sigma2=0.1)
        weights = DeviceWeights.uniform(2)
        cfg = TransceiverConfig(a1=[0.0, 0.1], a2=[0.1, 0.1], b=[2.0**-14], c1=0.0,
                                c2=2.0**-500)
        with np.errstate(all="ignore"):
            a1, a2, ok = device_block(cfg, ch, weights, budget)
        final = replace(cfg, a1=a1, a2=a2)
        assert not ok
        assert np.isfinite(a1).all() and np.isfinite(a2).all()
        assert max_constraint_violation(final, ch, budget) <= 0
        assert misalignment_of(final, ch, weights) <= misalignment_of(cfg, ch, weights)

    def test_subnormal_theta_counts_as_unlinked(self):
        # |theta_0|^2 = 1e-320 is subnormal: device 0 keeps its silent phase 1
        # instead of overflowing 1 / |theta_0|^2, and device 1 meets the cap.
        ch = ChannelRealization(h=[1.0, 1.0], g=[[1e-160], [1.0]], f=[1.0])
        budget = PowerBudget(p0=1.0, pr=0.15, sigma2=0.1)
        weights = DeviceWeights.uniform(2)
        cfg = TransceiverConfig(a1=[0.0, 0.1], a2=[0.1, 0.1], b=[1.0], c1=0.0, c2=1.0)
        a1, a2, ok = device_block(cfg, ch, weights, budget)
        final = replace(cfg, a1=a1, a2=a2)
        assert ok
        assert a1[0] == 0
        assert max_constraint_violation(final, ch, budget) <= 1e-12
        assert misalignment_of(final, ch, weights) <= misalignment_of(cfg, ch, weights)

    def test_transmit_scalars_at_subnormal_coefficients(self):
        # |coef|^2 is subnormal for both: 1 / |coef|^2 overflows, copy / coef does not
        coef = np.array([1e-160 + 0j, (3 + 2j) * 1e-155])
        a = _transmit_scalars(np.array([0.0, 0.7]), coef, np.abs(coef) ** 2 > 0, np.zeros(2))
        assert a[0] == 0
        assert a[1] == pytest.approx(0.7 / ((3 + 2j) * 1e-155), rel=1e-12)

    def test_tight_cap_split_does_not_depend_on_rounding(self):
        # theta = 2 and phi = 1 reach rho = 1 along a segment of zero-error
        # splits: the minimum-norm one (a1 = 0.4) loads the relay with 0.16,
        # the direct copy alone (a2 = 1) loads it with nothing.
        ch = ChannelRealization(h=[1.0 + 0j], g=[[1.0 + 0j]], f=[1.0 + 0j])
        cfg = TransceiverConfig(a1=[0.1 + 0j], a2=[0.1 + 0j], b=[1.0 + 0j], c1=1.0, c2=1.0)
        splits = []
        for cap in 0.16 * (1.0 + np.array([-1e-9, 1e-9])):
            budget = PowerBudget(p0=1.0, pr=cap + 0.1, sigma2=0.1)
            a1, a2, ok = device_block(cfg, ch, DeviceWeights([1.0]), budget)
            assert ok
            splits.append(np.concatenate([a1, a2]))
        assert splits[0] == pytest.approx(splits[1], abs=1e-6)
        assert splits[0] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_unlinked_device_keeps_its_input_where_the_cap_binds(self):
        # theta_0 = c1 h_0 + c2 g_0 f b = 1 - 1 = 0, yet device 0 loads the relay
        # with |g_0 a1_0|^2 = 0.64; device 1 alone would want 2.25 of the 1.9.
        ch = ChannelRealization(h=[1.0 + 0j, 1.0 + 0j], g=[[-8.0 + 0j], [8.0 + 0j]],
                                f=[1.0 + 0j])
        cfg = TransceiverConfig(a1=[0.1 + 0j, 0.1 + 0j], a2=[0.1 + 0j, 0.1 + 0j],
                                b=[1.0 + 0j], c1=1.0, c2=0.125)
        budget = PowerBudget(p0=1.0, pr=2.0, sigma2=0.1)
        a1, a2, ok = device_block(cfg, ch, DeviceWeights.uniform(2), budget)
        final = replace(cfg, a1=a1, a2=a2)
        assert ok
        assert a1[0] == cfg.a1[0]
        assert 64.0 * abs(a1[1]) ** 2 == pytest.approx(2.0 - 0.1 - 0.64, rel=1e-9)
        assert max_constraint_violation(final, ch, budget) <= 1e-12

    def test_one_unlinked_device_where_the_cap_binds_matches_oracle(self):
        # theta_0 = 1 - 0.125 * 8 = 0: device 0 keeps its input and its load
        # 64 |a1_0|^2 = 0.64 is charged first, so devices 1 and 2 meet the cap
        # of the same instance without device 0 and 0.64 more relay noise.
        ch = ChannelRealization(h=[1.0, 1.0, 0.5], g=[[-8.0], [8.0], [4.0]], f=[1.0])
        cfg = TransceiverConfig(a1=[0.1, 0.05, 0.05], a2=[0.1, 0.1, 0.1], b=[1.0],
                                c1=1.0, c2=0.125)
        budget = PowerBudget(p0=1.0, pr=1.5, sigma2=0.1)
        weights = DeviceWeights.uniform(3)
        a1, a2, ok = device_block(cfg, ch, weights, budget)
        final = replace(cfg, a1=a1, a2=a2)
        assert ok
        assert a1[0] == cfg.a1[0]
        assert relay_power_used(final, ch, budget.sigma2) == pytest.approx([1.5], rel=1e-9)
        assert max_constraint_violation(final, ch, budget) <= 1e-12
        rest = ChannelRealization(h=ch.h[1:], g=ch.g[1:], f=ch.f)
        rest_cfg = replace(cfg, a1=cfg.a1[1:], a2=cfg.a2[1:])
        rest_weights = SimpleNamespace(rho=weights.rho[1:])
        oracle = device_update_oracle(rest_cfg, rest, rest_weights,
                                      replace(budget, sigma2=0.1 + 0.64))
        mine = misalignment_of(replace(rest_cfg, a1=a1[1:], a2=a2[1:]), rest, rest_weights)
        assert mine == pytest.approx(oracle, rel=1e-6)

    def test_silent_relay_bounds_nothing_where_the_live_cap_binds(self):
        # |b_0|^2 = 1e-320 is below pr / finfo(float).max, so pr / |b_0|^2
        # overflows: relay 0 bounds nothing, and relay 1's cap binds.
        ch, weights, budget, _ = random_instance(140, 3, 2, sigma2=0.2)
        cfg = off_start(ch, weights, budget)
        live = replace(cfg, b=np.array([0.0, 3.0 * cfg.b[1]]))
        silent = replace(live, b=np.array([1e-160, live.b[1]]))
        a1, a2, ok = device_block(silent, ch, weights, budget)
        final = replace(silent, a1=a1, a2=a2)
        assert ok
        assert relay_power_used(final, ch, budget.sigma2)[1] == pytest.approx(budget.pr,
                                                                              rel=1e-9)
        assert max_constraint_violation(final, ch, budget) <= 1e-12
        oracle = device_update_oracle(live, ch, weights, budget, seed=140)
        assert misalignment_of(final, ch, weights) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("exit, noise_dbm, pr", [
        ("box-only", -100.0, 1.0),
        ("silent-phase-1", 100.0, 0.1),
        ("search", -70.0, 0.01),
    ])
    def test_one_relay_scalars_match_the_array_path(self, monkeypatch, exit, noise_dbm, pr):
        # One relay keeps |b|^2 and its cap in scalars.  Give it a second,
        # silent relay (b_2 = 0): the live mask drops that one, and the array
        # path runs on the first relay alone.  On every device update of three
        # line solves both must return the same bits, and each case reaches
        # its exit.
        update, searches, exits = optimizer.update_device_scalars, [], []

        def counted_step(*args):
            searches.append(args)
            return _bounded_newton_step(*args)

        def compared_update(problem, a1, a2, b, theta, phi):
            searches.clear()
            scalar = update(problem, a1, a2, b, theta, phi)
            exits.append("search" if searches else
                         "silent-phase-1" if b.any() and not scalar[0].any() else "box-only")
            array = update(two_relays, a1, a2, np.append(b, 0.0), theta, phi)
            assert [bits(v) for v in scalar] == [bits(v) for v in array]
            return scalar

        monkeypatch.setattr(optimizer, "_bounded_newton_step", counted_step)
        monkeypatch.setattr(optimizer, "update_device_scalars", compared_update)
        budget = PowerBudget(p0=0.05, pr=pr, sigma2=dbm_to_watts(noise_dbm))
        weights = DeviceWeights.uniform(20)
        for seed in range(3):
            rng = stream(9800, seed)
            ch = paper_channels(rng, "line")
            extra = (rng.standard_normal(20) + 1j * rng.standard_normal(20)) * np.abs(ch.g[:, 0])
            two = ChannelRealization(h=ch.h, g=np.column_stack([ch.g[:, 0], extra]),
                                     f=np.append(ch.f, 1j * ch.f))
            two_relays = optimizer.Problem(two, weights, budget)
            solve(ch, weights, budget, SOLVER)
        assert exits.count(exit) >= 3, exits

    def test_zero_direct_channel_keeps_its_phase2_input(self):
        # phi_0 = 0: a2_0 keeps its input, and device 0's whole weight goes
        # over the relay.  A realization has no zero gain, so the combined
        # gains are passed directly.
        ch = ChannelRealization(h=[1.0, 1.0], g=[[1.0], [1.0]], f=[1.0])
        budget = PowerBudget(p0=1.0, pr=2.0, sigma2=0.1)
        weights = DeviceWeights.uniform(2)
        problem = optimizer.Problem(ch, weights, budget)
        theta, phi = np.array([1.0 + 0j, 2.0]), np.array([0j, 1.0])
        a2_in = np.array([0.3 + 0.4j, 0.1])
        a1, a2, ok = optimizer.update_device_scalars(
            problem, np.full(2, 0.1 + 0j), a2_in, np.ones(1, dtype=complex), theta, phi)
        assert ok
        assert a2[0] == a2_in[0]
        assert a1[0] == pytest.approx(0.5, rel=1e-12)
        # Device 0 relays its weight and device 1 sends it direct: no misalignment.
        assert theta * a1 + phi * a2 == pytest.approx(weights.rho, abs=1e-15)

    def test_slack_relays_put_the_direct_copy_first(self):
        ch, weights, budget, _ = random_instance(131, 6, 2)
        cfg = off_start(ch, weights, budget)
        cfg = replace(cfg, b=0.1 * cfg.b)  # far below the caps
        a1, a2, ok = device_block(cfg, ch, weights, budget)
        theta = cfg.c1 * ch.h + cfg.c2 * (ch.g @ (ch.f * cfg.b))
        phi = cfg.c2 * ch.h
        direct = np.minimum(weights.rho, np.abs(phi) * np.sqrt(budget.p0))
        relayed = np.minimum(weights.rho - direct, np.abs(theta) * np.sqrt(budget.p0))
        assert ok
        assert (relayed > 0).any() and (direct > 0).all()
        assert phi * a2 == pytest.approx(direct, rel=1e-12)
        assert theta * a1 == pytest.approx(relayed, rel=1e-12, abs=1e-15)
        assert (relay_power_used(replace(cfg, a1=a1, a2=a2), ch, budget.sigma2)
                < budget.pr).all()

    def test_never_increases_objective(self):
        for seed in range(120, 130):
            ch, weights, budget, _ = random_instance(seed, 4, 2)
            cfg = init_config(ch, weights, budget)
            cfg = replace(cfg, c2=1.5 * cfg.c2)  # off-optimum incoming point
            before = misalignment_of(cfg, ch, weights)
            a1, a2, _ = device_block(cfg, ch, weights, budget)
            after = misalignment_of(replace(cfg, a1=a1, a2=a2), ch, weights)
            assert after <= before * (1 + 1e-12) + 1e-15
            assert max_constraint_violation(replace(cfg, a1=a1, a2=a2), ch, budget) <= 1e-9

    @pytest.mark.parametrize("num_relays", [1, 4])
    def test_dual_search_never_exceeds_the_incoming_misalignment_power(self, num_relays,
                                                                       monkeypatch):
        # Bit for bit, in the objective's own formula.  A weak direct copy
        # (c2 scaled down) makes the box-only optimum overload a relay, so the
        # multiplier search runs; its exit is the one checked against the
        # incoming point.  The second update starts at the first one's output,
        # so the two points tie up to rounding.
        searches = []

        def counted_step(*args):
            searches.append(args)
            return _bounded_newton_step(*args)

        monkeypatch.setattr(optimizer, "_bounded_newton_step", counted_step)
        checked = 0
        for seed in range(140, 160):
            ch, weights, budget, _ = random_instance(seed, 6, num_relays, pr=0.1)
            cfg = init_config(ch, weights, budget)
            cfg = replace(cfg, c2=0.3 * cfg.c2)
            problem = optimizer.Problem(ch, weights, budget)
            theta, phi = _combined_gains(cfg.c1, cfg.c2, ch.h, ch.g @ (ch.f * cfg.b))
            a1, a2 = cfg.a1, cfg.a2
            for _ in range(2):
                searches.clear()
                new1, new2, _ = optimizer.update_device_scalars(problem, a1, a2, cfg.b,
                                                                theta, phi)
                if searches:
                    checked += 1
                    before = _misalignment_power(theta, phi, _clamp_disc(a1, problem.r1),
                                                 _clamp_disc(a2, problem.r2), weights.rho)
                    assert _misalignment_power(theta, phi, new1, new2, weights.rho) <= before
                a1, a2 = new1, new2
        assert checked >= 30


def off_start(ch, weights, budget):
    """Channel-inversion start with both receive scalars moved to their optima."""
    cfg = init_config(ch, weights, budget)
    cfg = replace(cfg, c1=c1_block(cfg, ch, weights, budget))
    return replace(cfg, c2=c2_block(cfg, ch, weights, budget))


class TestBoundedNewtonStep:
    @pytest.mark.parametrize("lam, rhs, slope, expected", [
        (0.5, 1.0, -2.0, 0.5),     # free: the Newton step
        (0.5, -3.0, -2.0, -0.5),   # the step would cross zero: pinned there
        (0.0, -1.0, -2.0, 0.0),    # at zero and pointing down: stays
        (0.0, 1e-25, 0.0, 0.0),    # flat (no free device): the least-norm step
    ])
    def test_one_multiplier(self, lam, rhs, slope, expected):
        step = _bounded_newton_step(np.array([lam]), np.array([rhs]), np.array([[slope]]))
        assert step == pytest.approx([expected])

    def test_pins_a_multiplier_and_resolves_the_rest(self):
        system = np.array([[-2.0, -1.0], [-1.0, -2.0]])
        lam, rhs = np.array([0.1, 1.0]), np.array([-3.0, 0.0])
        step = _bounded_newton_step(lam, rhs, system)
        # the first multiplier would go negative, so it ends at zero and the
        # second solves its own row with that step fixed
        assert step == pytest.approx([-0.1, 0.05])


class TestDualSolveAtScale:
    """Device updates at the paper's sizes, certified by weak duality instead of SLSQP."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_single_relay_line_matches_dual_bound(self, seed):
        budget = PowerBudget(p0=0.05, pr=0.01, sigma2=1e-10)
        weights = DeviceWeights.uniform(20)
        rng = stream(7100, seed)
        ch = paper_channels(rng, "line")
        cfg = off_start(ch, weights, budget)
        a1, a2, ok = device_block(cfg, ch, weights, budget)

        # Lagrangian of the relay constraint, minimized per device in closed
        # form: the direct copy covers what it can, the relayed copy the rest.
        theta = cfg.c1 * ch.h + cfg.c2 * (ch.g @ (ch.f * cfg.b))
        t2 = np.abs(theta) ** 2
        r1 = r2 = np.sqrt(budget.p0)
        w = np.abs(ch.g[:, 0]) ** 2
        cap = budget.pr / abs(cfg.b[0]) ** 2 - budget.sigma2
        short = np.maximum(weights.rho - np.abs(cfg.c2 * ch.h) * r2, 0.0)

        def relayed(lam):
            return np.minimum(short * t2 / (t2 + w * lam), np.sqrt(t2) * r1)

        def h(lam):
            return float(np.sum(w * np.minimum(short**2 * t2 / (t2 + w * lam) ** 2, r1**2))
                         - cap)

        assert h(0.0) > 0  # the relay constraint binds
        hi = 1.0
        while h(hi) > 0:
            hi *= 8.0
        lam = brentq(h, 0.0, hi, xtol=1e-300, rtol=1e-15, maxiter=500)
        u = relayed(lam)
        saturated = np.isclose(u, np.sqrt(t2) * r1, rtol=1e-12)
        assert saturated.any() and (~saturated & (u > 0)).any()
        dual = float(np.sum((short - u) ** 2 + w * lam * u**2 / t2)) - lam * cap

        final = replace(cfg, a1=a1, a2=a2)
        assert ok
        assert misalignment_of(final, ch, weights) <= dual + optimizer.QCQP_TOL * np.sum(
            weights.rho**2)
        assert max_constraint_violation(final, ch, budget) <= 1e-9

    def test_four_relay_cell_converges_feasible_and_descends(self):
        budget = PowerBudget(p0=0.05, pr=0.1, sigma2=1e-10)
        weights = DeviceWeights.uniform(20)
        rng = stream(7200, 0)
        ch = paper_channels(rng, "cell")
        cfg = off_start(ch, weights, budget)
        a1, a2, ok = device_block(cfg, ch, weights, budget)
        final = replace(cfg, a1=a1, a2=a2)
        assert ok
        assert max_constraint_violation(final, ch, budget) <= 1e-9
        # every relay ends at its power cap, so all four multipliers were searched
        used = relay_power_used(final, ch, budget.sigma2)
        assert used == pytest.approx(np.full(4, budget.pr), rel=1e-9)
        assert misalignment_of(final, ch, weights) <= misalignment_of(cfg, ch, weights)

    @pytest.mark.parametrize("seed", [7, 12])
    def test_four_relay_solves_meet_the_gap_tolerance(self, seed):
        # Instances whose nearly collinear relay constraints left earlier
        # multiplier searches above QCQP_TOL on several sweeps.
        budget = PowerBudget(p0=0.05, pr=0.1, sigma2=1e-10)
        weights = DeviceWeights.uniform(20)
        rng = stream(5000, seed)
        ch = paper_channels(rng, "cell")
        cfg, trace = solve(ch, weights, budget, SOLVER)
        assert not [w for w in trace.warnings if "QCQP" in w]
        assert np.all(np.diff(trace.objectives) <= 1e-9 * np.abs(trace.objectives[:-1]))
        assert max_constraint_violation(cfg, ch, budget) <= 1e-9


class TestRelayUpdate:
    @pytest.mark.parametrize("binding", [False, True], ids=["slack-cap", "binding-cap"])
    @pytest.mark.parametrize("seed", range(6))
    def test_one_relay_stationary_point_matches_lapack(self, seed, binding):
        # With one relay M x = q is a 1x1 Hermitian positive-definite system.
        # The relay update's closed form must agree, to 4 ulp, with LAPACK's
        # solve of M and q built as the N-relay update builds them, and where
        # the cap binds with that solution scaled radially onto the disc.  The
        # closed form forms M as the relay input power and q as one dot
        # product, so the two differ in summation order only; over these 300
        # instances with up to 100 devices they differ by at most 3.4 ulp.
        rng = stream(6400, seed)
        for _ in range(50):
            k = int(rng.integers(1, 101))
            cfg, ch, weights, budget = random_feasible_setup(int(rng.integers(1 << 30)), k, 1)
            budget = replace(budget, pr=1e6)  # the stationary point fits the cap
            problem = optimizer.Problem(ch, weights, budget)
            g, g_h = ch.g, problem.g_h
            m = (g_h * np.abs(cfg.a1) ** 2) @ g + problem.noise_eye
            residual = weights.rho - ch.h * (cfg.c1 * cfg.a1 + cfg.c2 * cfg.a2)
            q = g_h @ (residual * np.conj(cfg.a1)) / cfg.c2
            x = np.linalg.solve(m, q)[0]
            if binding:
                # A cap of a quarter of the stationary point's relay power.
                load = m[0, 0].real
                budget = replace(budget, pr=0.25 * abs(x / ch.f[0]) ** 2 * load)
                x = x * (abs(ch.f[0]) * np.sqrt(budget.pr / load) / abs(x))
            expected = x / ch.f[0]
            b = relay_block(cfg, ch, weights, budget)[0]
            assert abs(b - expected) <= 4 * np.finfo(float).eps * abs(expected)

    def test_radial_projection_worked_example(self):
        # stationary point lands at 3+4i and the power cap allows magnitude 2
        ch = ChannelRealization(h=[1.0 + 0j], g=[[1.0 + 0j]], f=[1.0 + 0j])
        cfg = TransceiverConfig(a1=[1.0 + 0j], a2=[-5.0 - 8.0j], b=[0j], c1=0.0, c2=1.0)
        budget = PowerBudget(p0=100.0, pr=8.0, sigma2=1.0)
        b = relay_block(cfg, ch, DeviceWeights([1.0]), budget)
        assert b[0] == pytest.approx(1.2 + 1.6j, rel=1e-12)

    def test_interior_point_unchanged(self):
        ch = ChannelRealization(h=[1.0 + 0j], g=[[1.0 + 0j]], f=[1.0 + 0j])
        cfg = TransceiverConfig(a1=[1.0 + 0j], a2=[0j], b=[0j], c1=0.0, c2=1.0)
        budget = PowerBudget(p0=100.0, pr=8.0, sigma2=1.0)
        # unconstrained stationary point is rho / (c2 (|a1|^2 + sigma2)) = 0.5
        b = relay_block(cfg, ch, DeviceWeights([1.0]), budget)
        assert b[0] == pytest.approx(0.5, rel=1e-12)

    def test_dominates_random_feasible_points(self):
        ch, weights, budget, rng = random_instance(140, 1, 1)
        cfg = init_config(ch, weights, budget)
        b_star = relay_block(cfg, ch, weights, budget)
        value = relay_mse(replace(cfg, b=b_star), ch, weights, budget.sigma2)
        cap = budget.pr / (np.abs(ch.g[:, 0]) ** 2 @ np.abs(cfg.a1) ** 2 + budget.sigma2)
        for _ in range(1000):
            b = np.sqrt(cap) * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
            trial = relay_mse(replace(cfg, b=np.array([b])), ch, weights, budget.sigma2)
            assert value <= trial + 1e-9

    def test_stationarity_when_interior(self):
        ch, weights, budget, _ = random_instance(141, 3, 2, pr=1e6)
        cfg = init_config(ch, weights, budget)
        b_star = relay_block(cfg, ch, weights, budget)
        caps = budget.pr / ((np.abs(ch.g) ** 2).T @ np.abs(cfg.a1) ** 2 + budget.sigma2)
        assert np.all(np.abs(b_star) < np.sqrt(caps))  # interior for huge relay power
        for n in range(2):
            def objective(bn, n=n):
                b = b_star.copy()
                b[n] = bn
                return relay_mse(replace(cfg, b=b), ch, weights, budget.sigma2)
            grad = fd_complex_gradient(objective, b_star[n])
            assert abs(grad) < 1e-5

    def test_idempotent(self):
        ch, weights, budget, _ = random_instance(142, 4, 2)
        cfg = init_config(ch, weights, budget)
        b1 = relay_block(cfg, ch, weights, budget)
        b2 = relay_block(replace(cfg, b=b1), ch, weights, budget)
        assert b2 == pytest.approx(b1, rel=1e-12)

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 2), (2, 5), (3, 3), (3, 4), (3, 6),
                                        (4, 0), (4, 2), (4, 4)])
    def test_matches_slsqp_oracle_with_two_caps_binding(self, n, seed):
        cfg, ch, weights, budget = random_feasible_setup(6300 + seed, 6, n)
        budget = replace(budget, pr=0.1 * budget.pr)
        cfg = replace(cfg, b=np.sqrt(0.1) * cfg.b)
        new = replace(cfg, b=relay_block(cfg, ch, weights, budget))
        used = relay_power_used(new, ch, budget.sigma2)
        assert np.sum(used >= budget.pr * (1 - 1e-9)) >= 2
        assert max_constraint_violation(new, ch, budget) <= 1e-9
        assert relay_mse(new, ch, weights, budget.sigma2) == pytest.approx(
            relay_update_oracle(cfg, ch, weights, budget), rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_layout_of_g_does_not_change_b(self, seed):
        # A realization keeps g in Fortran order whatever the layout passed
        # in, so a C- and an F-ordered g give the same b bit for bit, on the
        # stationary point and the capped path alike.
        cfg, ch, weights, budget = random_feasible_setup(6320 + seed, 100, 4)
        c_input, f_input = np.ascontiguousarray(ch.g), np.asfortranarray(ch.g)
        assert not c_input.flags.f_contiguous and not f_input.flags.c_contiguous
        c_ordered = ChannelRealization(h=ch.h, g=c_input, f=ch.f)
        f_ordered = ChannelRealization(h=ch.h, g=f_input, f=ch.f)
        assert c_ordered.g.flags.f_contiguous and f_ordered.g.flags.f_contiguous
        assert np.array_equal(c_ordered.g, f_ordered.g)
        for pr in (1e6, 0.1 * budget.pr):
            tight = replace(budget, pr=pr)
            b_c = relay_block(cfg, c_ordered, weights, tight)
            b_f = relay_block(cfg, f_ordered, weights, tight)
            assert np.array_equal(b_c, b_f)

    def test_relay_input_power_is_the_relay_updates_cap(self):
        # The solver's start and the constraint checker read the relay input
        # power with the same bits as the relay update's cap.
        rng = stream(6330)
        gains = path_gain_profile(cell_layout(100, 4, rng))
        budget = PowerBudget(p0=0.05, pr=0.1, sigma2=1e-10)
        for _ in range(200):
            ch = realize_channels(gains, rng)
            a1 = 0.2 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
            problem = optimizer.Problem(ch, DeviceWeights.uniform(100), budget)
            cap = problem.g2 @ np.abs(a1) ** 2 + budget.sigma2
            assert bits(relay_input_power(ch, a1, budget.sigma2)) == bits(cap)

    @pytest.mark.parametrize("pr", [0.01, 0.1])
    @pytest.mark.parametrize("kind, noise_dbm", [("cell", -70.0), ("cell", -80.0),
                                                 ("line", -70.0)])
    def test_no_relay_update_raises_the_mse(self, monkeypatch, kind, noise_dbm, pr):
        # Four-relay cells, where a radially projected joint solution used to
        # raise the objective in up to 39% of the sweeps, and one-relay lines,
        # whose closed form is projected onto the cap.
        checked = []

        def checked_update(problem, a1, a2, b, c1, c2):
            channels, budget = problem.channels, problem.budget
            config = TransceiverConfig(a1=a1, a2=a2, b=b, c1=c1, c2=c2)
            b = update_relay_scalars(problem, a1, a2, b, c1, c2)
            new = replace(config, b=b)
            checked.append((relay_mse(config, channels, weights, budget.sigma2),
                            relay_mse(new, channels, weights, budget.sigma2),
                            max_constraint_violation(new, channels, budget),
                            relay_power_used(new, channels, budget.sigma2).max() / budget.pr))
            return b

        monkeypatch.setattr(optimizer, "update_relay_scalars", checked_update)
        budget = PowerBudget(p0=0.05, pr=pr, sigma2=dbm_to_watts(noise_dbm))
        weights = DeviceWeights.uniform(20)
        for seed in range(10):
            rng = stream(9200, seed)
            ch = paper_channels(rng, kind)
            solve(ch, weights, budget, SOLVER)
        before, after, violation, load = np.array(checked).T
        assert np.all(after <= before * (1 + 1e-12))
        assert violation.max() <= 1e-9
        assert np.sum(load >= 1 - 1e-9) >= 10  # some relay caps bind


class TestReceiveScalars:
    def test_c1_single_device_value(self):
        ch = ChannelRealization(h=[1.0 + 0j], g=np.zeros((1, 0)), f=np.zeros(0))
        cfg = TransceiverConfig(a1=[1.0 + 0j], a2=[0j], b=np.zeros(0), c1=0.0, c2=0.0)
        budget = PowerBudget(p0=1.0, pr=1.0, sigma2=1.0)
        assert c1_block(cfg, ch, DeviceWeights([1.0]), budget) == pytest.approx(0.5)

    def test_c1_zero_when_phase1_silent(self):
        ch, weights, budget, _ = random_instance(150, 3, 1)
        cfg = replace(init_config(ch, weights, budget), a1=np.zeros(3, dtype=complex))
        assert c1_block(cfg, ch, weights, budget) == 0.0

    def test_c2_zero_when_phase2_silent(self):
        ch, weights, budget, _ = random_instance(151, 3, 1)
        cfg = replace(init_config(ch, weights, budget),
                      a2=np.zeros(3, dtype=complex), b=np.zeros(1, dtype=complex))
        assert c2_block(cfg, ch, weights, budget) == 0.0

    def test_c2_relay_free_reduction(self):
        ch, weights, budget, _ = random_instance(152, 1, 0)
        cfg = init_config(ch, weights, budget)
        h, a1, a2 = ch.h[0], cfg.a1[0], cfg.a2[0]
        expected = ((weights.rho[0] - cfg.c1 * h * a1) * np.conj(h * a2)
                    / (abs(h * a2) ** 2 + budget.sigma2))
        assert c2_block(cfg, ch, weights, budget) == pytest.approx(expected)

    @pytest.mark.parametrize("seed", [160, 161, 162])
    def test_stationarity(self, seed):
        ch, weights, budget, _ = random_instance(seed, 4, 2)
        cfg = init_config(ch, weights, budget)
        c1_star = c1_block(cfg, ch, weights, budget)
        grad1 = fd_complex_gradient(
            lambda v: relay_mse(replace(cfg, c1=v), ch, weights, budget.sigma2), c1_star)
        assert abs(grad1) < 1e-5
        c2_star = c2_block(cfg, ch, weights, budget)
        grad2 = fd_complex_gradient(
            lambda v: relay_mse(replace(cfg, c2=v), ch, weights, budget.sigma2), c2_star)
        assert abs(grad2) < 1e-5

    def test_idempotent(self):
        ch, weights, budget, _ = random_instance(163, 3, 1)
        cfg = init_config(ch, weights, budget)
        c1 = c1_block(cfg, ch, weights, budget)
        assert c1_block(replace(cfg, c1=c1), ch, weights, budget) == pytest.approx(
            c1, rel=1e-12)
        c2 = c2_block(cfg, ch, weights, budget)
        assert c2_block(replace(cfg, c2=c2), ch, weights, budget) == pytest.approx(
            c2, rel=1e-12)


class TestSolve:
    @pytest.mark.parametrize("seed,k,n", [(170, 3, 1), (171, 5, 2), (172, 4, 0)])
    def test_monotone_and_feasible(self, seed, k, n):
        ch, weights, budget, _ = random_instance(seed, k, n)
        cfg, trace = solve(ch, weights, budget, SOLVER)
        diffs = np.diff(trace.objectives)
        assert np.all(diffs <= 1e-9 * np.abs(trace.objectives[:-1]))
        assert max_constraint_violation(cfg, ch, budget) <= 1e-9

    def test_feasibility_after_every_block(self):
        ch, weights, budget, _ = random_instance(173, 4, 2)
        cfg = init_config(ch, weights, budget)
        assert max_constraint_violation(cfg, ch, budget) <= 1e-9
        a1, a2, _ = device_block(cfg, ch, weights, budget)
        cfg = replace(cfg, a1=a1, a2=a2)
        assert max_constraint_violation(cfg, ch, budget) <= 1e-9
        b = relay_block(cfg, ch, weights, budget)
        cfg = replace(cfg, b=b)
        assert max_constraint_violation(cfg, ch, budget) <= 1e-9
        cfg = replace(cfg, c1=c1_block(cfg, ch, weights, budget))
        cfg = replace(cfg, c2=c2_block(cfg, ch, weights, budget))
        assert max_constraint_violation(cfg, ch, budget) <= 1e-9

    def test_relay_free_two_phase_vs_single_phase_budgets(self):
        # Splitting the budget across two phases starts exactly at the aligned
        # single-phase optimum with the total budget (the initialization
        # emulates it), and descent can only improve from there; the aligned
        # half-budget scheme is always worse.
        ch, weights, budget, _ = random_instance(174, 4, 0)
        cfg, trace = solve(ch, weights, budget, SOLVER)
        final = trace.objectives[-1]
        _, _, full_budget = norelay_optimum(ch.h, weights, 2.0 * budget.p0, budget.sigma2)
        _, _, half_budget = norelay_optimum(ch.h, weights, budget.p0, budget.sigma2)
        assert trace.objectives[0] == pytest.approx(full_budget, rel=1e-12)
        assert final <= full_budget * (1 + 1e-9)
        assert final <= half_budget * (1 + 1e-9)

    @pytest.mark.parametrize("pr", [0.01, 1.0])
    @pytest.mark.parametrize("kind", ["line", "cell"])
    def test_high_snr_solves_never_end_above_the_norelay_optimum(self, kind, pr):
        # -100 dBm noise, where the relay constraints decide most solves; the
        # no-relay optimum spends the same 2 * p0 per device.
        budget = PowerBudget(p0=0.05, pr=pr, sigma2=1e-13)
        weights = DeviceWeights.uniform(20)
        for seed in range(8):
            rng = stream(7300, seed)
            ch = paper_channels(rng, kind)
            _, trace = solve(ch, weights, budget, SOLVER)
            _, _, bound = norelay_optimum(ch.h, weights, 2.0 * budget.p0, budget.sigma2)
            assert np.all(np.diff(trace.objectives) <= 1e-9 * np.abs(trace.objectives[:-1]))
            assert trace.objectives[-1] <= bound * (1 + 1e-9)

    def test_infinite_epsilon_stops_after_one_sweep(self):
        ch, weights, budget, _ = random_instance(175, 3, 1)
        cfg, trace = solve(ch, weights, budget, SolverConfig(epsilon=float("inf")))
        assert trace.iterations_run == 1
        assert trace.terminated_by == "converged"

    def test_iterations_run_follows_the_objectives(self):
        # One objective for the start and one per sweep; the count is read off them.
        trace = SolverTrace(objectives=np.arange(4.0), terminated_by="converged")
        assert trace.iterations_run == 3
        with pytest.raises(AttributeError):
            trace.iterations_run = 2
        ch, weights, budget, _ = random_instance(177, 4, 2)
        _, trace = solve(ch, weights, budget, SolverConfig(j_max=3, epsilon=1e-300))
        assert trace.terminated_by == "max_iterations"
        assert trace.iterations_run == 3 == trace.objectives.size - 1

    def test_relay_only_pins_and_budget(self):
        ch, weights, budget, _ = random_instance(176, 4, 2)
        cfg, trace = solve(ch, weights, budget, SOLVER, SchemeVariant.RELAY_ONLY)
        assert np.all(cfg.a2 == 0)
        assert cfg.c1 == 0
        assert np.all(np.abs(cfg.a1) ** 2 <= 2.0 * budget.p0 * (1 + 1e-9))
        assert max_constraint_violation(cfg, ch, budget,
                                        phase1_budget=2.0 * budget.p0) <= 1e-9
        diffs = np.diff(trace.objectives)
        assert np.all(diffs <= 1e-9 * np.abs(trace.objectives[:-1]))

    def test_warm_start_trace_begins_at_given_config(self):
        ch, weights, budget, _ = random_instance(177, 3, 1)
        start = init_config(ch, weights, budget)
        start = replace(start, c2=0.7 * start.c2)
        cfg, trace = solve(ch, weights, budget, SOLVER, warm_start=start)
        assert trace.objectives[0] == pytest.approx(
            relay_mse(start, ch, weights, budget.sigma2))
        assert trace.objectives[-1] <= trace.objectives[0] + 1e-12

    def test_calls_no_relay_mse(self, monkeypatch):
        # The first objective is formed from the start's sweep state, not by
        # relay_mse; the tracer still wraps the module's binding.
        def fail(*args):
            raise AssertionError("solve called relay_mse")

        ch, weights, budget, _ = random_instance(178, 3, 1)
        start = analytic_construction(ch, weights, budget)
        monkeypatch.setattr(optimizer, "relay_mse", fail)
        for variant, warm in [(SchemeVariant.FULL, None), (SchemeVariant.RELAY_ONLY, None),
                              (SchemeVariant.FULL, start)]:
            _, trace = solve(ch, weights, budget, SOLVER, variant, warm_start=warm)
            assert np.all(np.isfinite(trace.objectives))

    def test_dead_phase2_keeps_relays_silent(self):
        # with c2 = 0 the relay update is skipped for the sweep; the dead
        # phase-2 path stays dead and the solver still descends monotonically
        ch, weights, budget, _ = random_instance(179, 3, 1)
        k = 3
        start = TransceiverConfig(
            a1=np.full(k, 0.1 + 0j), a2=np.zeros(k, dtype=complex),
            b=np.zeros(1, dtype=complex), c1=1.0 + 0j, c2=0.0 + 0j)
        cfg, trace = solve(ch, weights, budget, SOLVER, warm_start=start)
        assert np.all(cfg.b == 0)
        assert cfg.c2 == 0
        diffs = np.diff(trace.objectives)
        assert np.all(diffs <= 1e-9 * np.abs(trace.objectives[:-1]))


SYMMETRY_GRID = [(kind, noise_dbm, pr, seed) for kind in ("line", "cell")
                 for noise_dbm in (-70.0, -80.0, -100.0) for pr in (0.01, 1.0) for seed in range(3)]


@functools.lru_cache(maxsize=None)
def symmetry_instance(kind, noise_dbm, pr, seed):
    """(channels, unequal weights, budget, trace of the cold FULL solve) of one
    instance: K = 20 devices on a line with one relay or in a cell with four."""
    rng = stream(9600, seed)
    ch = paper_channels(rng, kind)
    weights = DeviceWeights.from_counts(rng.integers(1, 9, 20))
    budget = PowerBudget(p0=0.05, pr=pr, sigma2=dbm_to_watts(noise_dbm))
    return ch, weights, budget, solve(ch, weights, budget, SOLVER)[1]


class TestSolveSymmetries:
    """Three maps of an instance keep every configuration's MSE once the
    configuration is mapped as well: p0, pr and sigma^2 scaled by t (a by sqrt t,
    c by 1/sqrt t), the devices permuted with their weights, and device k's h_k
    and g_k. turned by one phase (absorbed by a1_k and a2_k).  So each image must
    end at the instance's final MSE, up to rounding, in as many sweeps."""

    @pytest.mark.parametrize("symmetry", ["scale-1e-6", "scale-1e6", "permute", "rotate"])
    def test_images_end_at_the_same_mse_in_as_many_sweeps(self, symmetry):
        for kind, noise_dbm, pr, seed in SYMMETRY_GRID:
            ch, weights, budget, trace = symmetry_instance(kind, noise_dbm, pr, seed)
            rng = stream(9700, seed)
            if symmetry.startswith("scale"):
                t = float(symmetry.removeprefix("scale-"))
                budget = PowerBudget(p0=budget.p0 * t, pr=budget.pr * t,
                                     sigma2=budget.sigma2 * t)
            elif symmetry == "permute":
                order = rng.permutation(20)
                ch = ChannelRealization(h=ch.h[order], g=ch.g[order], f=ch.f)
                weights = DeviceWeights(weights.rho[order])
            else:
                turn = np.exp(2j * np.pi * rng.random(20))
                ch = ChannelRealization(h=ch.h * turn, g=ch.g * turn[:, None], f=ch.f)
            _, image = solve(ch, weights, budget, SOLVER)
            where = (kind, noise_dbm, pr, seed)
            assert image.iterations_run == trace.iterations_run, where
            final = trace.objectives[-1]
            assert abs(image.objectives[-1] - final) <= 1e-12 * final, where


@functools.lru_cache(maxsize=None)
def reference_grid_cell(kind, noise_dbm, pr, variant):
    """Seeded solves of one grid cell: (channels, budget, warm start, config, trace).

    K = 20 devices on a line with one relay or in a cell with four.  Line
    instances are also solved warm-started from the analytic construction.
    """
    budget = PowerBudget(p0=0.05, pr=pr, sigma2=dbm_to_watts(noise_dbm))
    weights = DeviceWeights.uniform(20)
    solves = []
    for seed in range(2):
        rng = stream(9500, seed)
        ch = paper_channels(rng, kind)
        starts = [None]
        if kind == "line":
            starts.append(analytic_construction(ch, weights, budget))
        for start in starts:
            cfg, trace = solve(ch, weights, budget, SOLVER, variant, warm_start=start)
            solves.append((ch, budget, start, cfg, trace))
    return solves


REFERENCE_GRID = [
    pytest.param(kind, noise_dbm, pr, variant,
                 id=f"{kind}-{noise_dbm:g}dBm-pr{pr:g}-{variant.value}")
    for kind in ("line", "cell") for noise_dbm in (-70.0, -100.0) for pr in (0.01, 1.0)
    for variant in SchemeVariant
]


def bits(value):
    return np.asarray(value).tobytes()


class TestSolveMatchesReference:
    """`solve` keeps its state in arrays and shares the relay path; the block-by-block
    loop on TransceiverConfig (tests/oracles.py) must give the same bits."""

    @pytest.mark.parametrize("kind, noise_dbm, pr, variant", REFERENCE_GRID)
    def test_bit_for_bit(self, kind, noise_dbm, pr, variant):
        weights = DeviceWeights.uniform(20)
        for ch, budget, start, cfg, trace in reference_grid_cell(kind, noise_dbm, pr, variant):
            ref_cfg, ref = solve_reference(ch, weights, budget, SOLVER, variant,
                                           warm_start=start)
            for field in ("a1", "a2", "b", "c1", "c2"):
                assert bits(getattr(cfg, field)) == bits(getattr(ref_cfg, field)), field
            assert bits(trace.objectives) == bits(ref.objectives)
            assert trace.iterations_run == ref.iterations_run
            assert trace.terminated_by == ref.terminated_by
            assert trace.warnings == ref.warnings

    @pytest.mark.parametrize("kind, noise_dbm, pr, variant", REFERENCE_GRID)
    def test_first_objective_is_relay_mse_of_the_start(self, kind, noise_dbm, pr, variant):
        # Cold FULL and RELAY_ONLY starts, and on line warm starts from the
        # analytic construction; relay-only solves pin a2 and c1 at zero.
        weights = DeviceWeights.uniform(20)
        for ch, budget, start, _, trace in reference_grid_cell(kind, noise_dbm, pr, variant):
            if start is None:
                start = init_config(ch, weights, budget, variant)
            if variant is SchemeVariant.RELAY_ONLY:
                start = replace(start, a2=np.zeros_like(start.a2), c1=0.0)
            assert trace.objectives[0] == relay_mse(start, ch, weights, budget.sigma2)

    @pytest.mark.parametrize("kind, noise_dbm, pr, variant", REFERENCE_GRID)
    def test_last_objective_is_relay_mse(self, kind, noise_dbm, pr, variant):
        weights = DeviceWeights.uniform(20)
        for ch, budget, _, cfg, trace in reference_grid_cell(kind, noise_dbm, pr, variant):
            assert trace.objectives[-1] == relay_mse(cfg, ch, weights, budget.sigma2)


def _relay_update_at_zero_c2():
    ch, weights, budget, _ = random_instance(143, 2, 1)
    return relay_block(replace(init_config(ch, weights, budget), c2=0.0), ch, weights, budget)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: SolverConfig(epsilon=np.nan), "epsilon", id="solver-nan-epsilon"),
    pytest.param(lambda: SolverConfig(j_max=2.5), "j_max must be", id="solver-fractional-j-max"),
    pytest.param(lambda: SolverConfig(j_max=np.nan), "j_max must be", id="solver-nan-j-max"),
    pytest.param(lambda: init_config(random_instance(86, 3, 1)[0], DeviceWeights.uniform(2),
                                     PowerBudget(p0=1.0, pr=2.0, sigma2=0.1)),
                 "lengths differ", id="init-lengths"),
    pytest.param(_relay_update_at_zero_c2, "nonzero phase-2 receive scalar",
                 id="relay-update-zero-c2"),
])
def test_bad_input_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
