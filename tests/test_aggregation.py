import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayfl.aggregation import (
    DegenerateUpdateError,
    DeviceWeights,
    PowerBudget,
    SingularChannelError,
    TransceiverConfig,
    compute_global_stats,
    compute_local_stats,
    denormalize,
    max_constraint_violation,
    norelay_optimum,
    normalize,
    relay_mse,
    relay_power_used,
    simulate_round,
)
from relayfl.geometry import ChannelRealization, _complex_normal, stream

from oracles import norelay_objective, norelay_oracle, random_feasible_setup


class TestLocalStats:
    def test_two_point_vector(self):
        assert compute_local_stats([1.0, 3.0]) == pytest.approx((2.0, 1.0))

    def test_second_worked_pair(self):
        assert compute_local_stats([2.0, 6.0]) == pytest.approx((4.0, 4.0))

    def test_constant_vector(self):
        mean, var = compute_local_stats(np.full(17, 3.25))
        assert (mean, var) == pytest.approx((3.25, 0.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_local_stats([])

    def test_stack_rows_match_single_vectors(self):
        deltas = 3.0 * stream(5).standard_normal((6, 41))
        means, variances = compute_local_stats(deltas)
        assert means.shape == variances.shape == (6,)
        for d, m, v in zip(deltas, means, variances):
            assert m == d.mean()
            assert v == np.mean((d - d.mean()) ** 2)


class TestGlobalStats:
    def test_weighted_pair(self):
        w = DeviceWeights([0.5, 0.5])
        assert compute_global_stats([2.0, 4.0], [1.0, 4.0], w) == pytest.approx((3.0, 2.5))

    def test_single_device_identity(self):
        w = DeviceWeights([1.0])
        assert compute_global_stats([1.7], [0.3], w) == pytest.approx((1.7, 0.3))

    def test_all_zero_variances(self):
        w = DeviceWeights([0.25, 0.75])
        _, var = compute_global_stats([1.0, 2.0], [0.0, 0.0], w)
        assert var == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_global_stats([1.0], [1.0], DeviceWeights([0.5, 0.5]))


class TestNormalization:
    def test_worked_example(self):
        out = normalize([1.0, 3.0], 3.0, np.sqrt(2.5))
        assert out == pytest.approx([-1.2649, 0.0], abs=1e-4)

    def test_constant_at_mean_gives_zero(self):
        assert np.all(normalize(np.full(5, 3.0), 3.0, 2.0) == 0.0)

    def test_degenerate_std_rejected(self):
        with pytest.raises(DegenerateUpdateError):
            normalize([1.0], 1.0, 0.0)

    def test_denormalize_at_zero_returns_mean(self):
        assert denormalize(0.0, 3.0, 2.0) == pytest.approx(3.0)

    def test_denormalize_worked_example(self):
        # matches the weighted sum of the worked update pair [1,3], [2,6]
        assert denormalize(-0.9486832980505138, 3.0, np.sqrt(2.5)) == pytest.approx(1.5)

    def test_denormalize_identity(self):
        assert denormalize(0.7, 0.0, 1.0) == pytest.approx(0.7)

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=9),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_identity(self, num_devices, dim, seed):
        rng = stream(99, num_devices, dim, seed)
        deltas = 10.0 * rng.standard_normal((num_devices, dim))
        counts = rng.integers(1, 50, num_devices)
        weights = DeviceWeights.from_counts(counts)
        means, variances = compute_local_stats(deltas)
        g_mean, g_var = compute_global_stats(means, variances, weights)
        if g_var <= 0:
            return
        symbols = np.stack([normalize(d, g_mean, np.sqrt(g_var)) for d in deltas])
        recovered = denormalize(weights.rho @ symbols, g_mean, np.sqrt(g_var))
        truth = weights.rho @ deltas
        assert recovered == pytest.approx(truth, rel=1e-10, abs=1e-12)


class TestNoRelayOptimum:
    def test_two_device_worked_example(self):
        h = np.array([1.0, 2.0], dtype=complex)  # |h|^2 = [1, 4]
        _, _, mse = norelay_optimum(h, DeviceWeights([0.5, 0.5]), 1.0, 0.1)
        assert mse == pytest.approx(0.025)

    def test_single_device_worked_example(self):
        _, _, mse = norelay_optimum(np.array([1.0 + 0j]), DeviceWeights([1.0]), 0.5, 1.0)
        assert mse == pytest.approx(2.0)

    def test_alignment_and_tight_power(self):
        rng = stream(41)
        h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * np.sqrt(0.5)
        weights = DeviceWeights.from_counts(rng.integers(1, 9, 4))
        p0_total = 0.3
        a, c, _ = norelay_optimum(h, weights, p0_total, 0.01)
        assert c * h * a == pytest.approx(weights.rho, abs=1e-12)
        powers = np.abs(a) ** 2
        assert np.all(powers <= p0_total * (1 + 1e-12))
        assert np.max(powers) == pytest.approx(p0_total, rel=1e-9)
        assert c.imag == 0.0 and c.real > 0.0

    def test_matches_independent_oracle(self):
        for i in range(20):
            rng = stream(42, i)
            k = int(rng.integers(1, 4))
            h = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(0.5)
            weights = DeviceWeights.from_counts(rng.integers(1, 9, k))
            p0, sigma2 = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.01, 1.0))
            _, _, mse = norelay_optimum(h, weights, p0, sigma2)
            oracle = norelay_oracle(h, weights.rho, p0, sigma2)
            assert mse == pytest.approx(oracle, rel=1e-6)

    def test_never_beaten_by_random_aligned_points(self):
        rng = stream(43)
        h = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * np.sqrt(0.5)
        weights = DeviceWeights.uniform(3)
        p0_total, sigma2 = 0.7, 0.05
        a_opt, c_opt, mse = norelay_optimum(h, weights, p0_total, sigma2)
        assert norelay_objective(a_opt, c_opt, h, weights.rho, sigma2) == pytest.approx(mse)
        for _ in range(500):
            c = abs(c_opt) * (1.0 + rng.uniform(0.0, 4.0)) * np.exp(
                2j * np.pi * rng.uniform())
            a = weights.rho / (c * h)
            assert np.all(np.abs(a) ** 2 <= p0_total * (1 + 1e-12))
            assert norelay_objective(a, c, h, weights.rho, sigma2) >= mse - 1e-12

    def test_zero_channel_rejected(self):
        with pytest.raises(SingularChannelError):
            norelay_optimum(np.array([0j, 1 + 0j]), DeviceWeights([0.5, 0.5]), 1.0, 0.1)


def random_feasible_setup(seed, num_devices, num_relays):
    rng = stream(seed)
    k, n = num_devices, num_relays
    ch = ChannelRealization(
        h=(rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(0.5),
        g=(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) * np.sqrt(0.5),
        f=(rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5),
    )
    budget = PowerBudget(p0=1.0, pr=2.0, sigma2=float(rng.uniform(0.05, 0.5)))
    a1 = np.sqrt(budget.p0) * rng.uniform(0.2, 1.0, k) * np.exp(2j * np.pi * rng.uniform(0, 1, k))
    a2 = np.sqrt(budget.p0) * rng.uniform(0.2, 1.0, k) * np.exp(2j * np.pi * rng.uniform(0, 1, k))
    caps = budget.pr / ((np.abs(ch.g) ** 2).T @ (np.abs(a1) ** 2) + budget.sigma2)
    b = np.sqrt(caps) * rng.uniform(0.2, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    c1 = rng.standard_normal() + 1j * rng.standard_normal()
    c2 = rng.standard_normal() + 1j * rng.standard_normal()
    config = TransceiverConfig(a1=a1, a2=a2, b=b, c1=c1, c2=c2)
    weights = DeviceWeights.uniform(k)
    return config, ch, weights, budget


class TestRelayMse:
    def test_all_zero_config(self):
        config, ch, weights, budget = random_feasible_setup(50, 3, 2)
        zero = TransceiverConfig(a1=np.zeros(3), a2=np.zeros(3), b=np.zeros(2),
                                 c1=0.0, c2=0.0)
        assert relay_mse(zero, ch, weights, budget.sigma2) == pytest.approx(
            float(np.sum(weights.rho**2)))

    def test_receive_only_noise(self):
        _, ch, weights, budget = random_feasible_setup(51, 4, 1)
        cfg = TransceiverConfig(a1=np.zeros(4), a2=np.zeros(4), b=np.zeros(1),
                                c1=1.0, c2=1.0)
        expected = float(np.sum(weights.rho**2)) + 2.0 * budget.sigma2
        assert relay_mse(cfg, ch, weights, budget.sigma2) == pytest.approx(expected)

    def test_matches_monte_carlo(self):
        config, ch, weights, budget = random_feasible_setup(52, 2, 1)
        rng = stream(53)
        draws = 10**6
        symbols = rng.standard_normal((2, draws))
        est = simulate_round(config, ch, symbols, budget.sigma2, rng)
        truth = weights.rho @ symbols
        empirical = float(np.mean(np.abs(est - truth) ** 2))
        assert empirical == pytest.approx(
            relay_mse(config, ch, weights, budget.sigma2), rel=0.01)


class TestSimulateRound:
    def test_noiseless_aligned_config_is_exact(self):
        rng = stream(60)
        k, n = 3, 2
        ch = ChannelRealization(
            h=(rng.standard_normal(k) + 1j * rng.standard_normal(k)),
            g=(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))),
            f=(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        )
        weights = DeviceWeights.uniform(k)
        a1 = 0.1 * np.exp(2j * np.pi * rng.uniform(0, 1, k))
        b = 0.5 * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        c1, c2 = 0.4 + 0.2j, 0.9 - 0.1j
        relay_path = ch.g @ (ch.f * b)
        a2 = (weights.rho - c1 * ch.h * a1 - c2 * a1 * relay_path) / (c2 * ch.h)
        config = TransceiverConfig(a1=a1, a2=a2, b=b, c1=c1, c2=c2)
        symbols = rng.standard_normal((k, 64))
        out = simulate_round(config, ch, symbols, 0.0, stream(61))
        assert out == pytest.approx(weights.rho @ symbols, abs=1e-12)

    def test_noiseless_output_is_deterministic_affine(self):
        config, ch, weights, _ = random_feasible_setup(62, 3, 1)
        symbols = stream(63).standard_normal((3, 32))
        one = simulate_round(config, ch, symbols, 0.0, stream(64))
        two = simulate_round(config, ch, symbols, 0.0, stream(65))
        assert np.array_equal(one, two)
        doubled = simulate_round(config, ch, 2.0 * symbols, 0.0, stream(66))
        assert doubled == pytest.approx(2.0 * one)

    def test_zero_relays_draw_only_the_two_ap_noise_vectors(self):
        rng = stream(69)
        k, d, sigma2 = 3, 16, 0.5
        ch = ChannelRealization(h=rng.standard_normal(k) + 1j * rng.standard_normal(k),
                                g=np.zeros((k, 0)), f=np.zeros(0))
        config = TransceiverConfig(a1=rng.standard_normal(k), a2=rng.standard_normal(k),
                                   b=np.zeros(0), c1=0.4 + 0.2j, c2=0.9 - 0.1j)
        symbols = rng.standard_normal((k, d))
        drawn, twin = stream(70), stream(70)
        est = simulate_round(config, ch, symbols, sigma2, drawn)
        noise1, noise2 = _complex_normal(twin, d), _complex_normal(twin, d)
        assert drawn.bit_generator.state == twin.bit_generator.state
        y1 = (ch.h * config.a1) @ symbols + np.sqrt(sigma2) * noise1
        y2 = (ch.h * config.a2) @ symbols + np.sqrt(sigma2) * noise2
        assert np.array_equal(est, config.c1 * y1 + config.c2 * y2)

    def test_empirical_mse_tracks_formula(self):
        config, ch, weights, budget = random_feasible_setup(67, 3, 2)
        rng = stream(68)
        symbols = rng.standard_normal((3, 200_000))
        est = simulate_round(config, ch, symbols, budget.sigma2, rng)
        truth = weights.rho @ symbols
        empirical = float(np.mean(np.abs(est - truth) ** 2))
        assert empirical == pytest.approx(
            relay_mse(config, ch, weights, budget.sigma2), rel=0.02)


class TestRelayPower:
    def test_zero_relay_scalars(self):
        config, ch, _, budget = random_feasible_setup(70, 2, 2)
        silent = TransceiverConfig(a1=config.a1, a2=config.a2, b=np.zeros(2),
                                   c1=config.c1, c2=config.c2)
        assert np.all(relay_power_used(silent, ch, budget.sigma2) == 0.0)

    def test_noise_only_forwarding(self):
        _, ch, _, budget = random_feasible_setup(71, 2, 2)
        cfg = TransceiverConfig(a1=np.zeros(2), a2=np.zeros(2), b=np.ones(2),
                                c1=0.0, c2=1.0)
        assert relay_power_used(cfg, ch, budget.sigma2) == pytest.approx(
            np.full(2, budget.sigma2))

    def test_hand_worked_value(self):
        ch = ChannelRealization(h=[1.0 + 0j], g=[[np.sqrt(2.0) + 0j]], f=[1.0 + 0j])
        cfg = TransceiverConfig(a1=[np.sqrt(0.5)], a2=[0.0], b=[np.sqrt(3.0)],
                                c1=0.0, c2=1.0)
        assert relay_power_used(cfg, ch, 0.1) == pytest.approx([3.3])

    def test_violation_detection(self):
        config, ch, weights, budget = random_feasible_setup(72, 3, 2)
        assert max_constraint_violation(config, ch, budget) <= 1e-9
        hot = TransceiverConfig(a1=config.a1, a2=config.a2, b=10.0 * config.b,
                                c1=config.c1, c2=config.c2)
        assert max_constraint_violation(hot, ch, budget) > 0
