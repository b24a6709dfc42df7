import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayfl.aggregation import (
    DeviceWeights,
    PowerBudget,
    TransceiverConfig,
    _combined_gains,
    _misalignment_power,
    max_constraint_violation,
    norelay_optimum,
    relay_mse,
    relay_power_used,
    simulate_round,
    symbol_stats,
)
from relayfl.geometry import ChannelRealization, _complex_normal, stream
from relayfl.optimizer import SchemeVariant, SolverConfig, init_config, solve

from oracles import (
    mse_reference,
    norelay_objective,
    norelay_oracle,
    paper_channels,
    random_feasible_setup,
    rayleigh_channels,
)


def _symbol_map(deltas, weights):
    """The symbol map of ``federated.train`` at a round's updates: (symbols, mean, std)."""
    mean, std = symbol_stats(deltas, weights)
    return (np.asarray(deltas) - mean) / std, mean, std


class TestSymbolStats:
    def test_two_point_vector(self):
        assert symbol_stats([[1.0, 3.0]], DeviceWeights([1.0])) == pytest.approx((2.0, 1.0))

    def test_second_worked_pair(self):
        assert symbol_stats([[2.0, 6.0]], DeviceWeights([1.0])) == pytest.approx((4.0, 2.0))

    def test_constant_vector(self):
        assert symbol_stats([np.full(17, 3.25)], DeviceWeights([1.0])) == (3.25, 0.0)

    def test_rows_weigh_their_own_statistics(self):
        deltas = 3.0 * stream(5).standard_normal((6, 41))
        weights = DeviceWeights.from_counts(np.arange(1, 7))
        means = [d.mean() for d in deltas]
        variances = [np.mean((d - d.mean()) ** 2) for d in deltas]
        assert symbol_stats(deltas, weights) == (weights.rho @ means,
                                                 np.sqrt(weights.rho @ variances))

    def test_weighted_pair(self):
        # Row statistics (2, 1) and (4, 4): global mean 3 and variance 2.5.
        w = DeviceWeights([0.5, 0.5])
        assert symbol_stats([[1.0, 3.0], [2.0, 6.0]], w) == pytest.approx((3.0, np.sqrt(2.5)))

    def test_single_device_identity(self):
        # One row of mean 1.7 and variance 0.3.
        row = [1.7 - np.sqrt(0.3), 1.7 + np.sqrt(0.3)]
        assert symbol_stats([row], DeviceWeights([1.0])) == pytest.approx((1.7, np.sqrt(0.3)))

    def test_all_zero_variances(self):
        w = DeviceWeights([0.25, 0.75])
        assert symbol_stats([[1.0, 1.0], [2.0, 2.0]], w) == (1.75, 0.0)


class TestSymbolMap:
    def test_worked_pair(self):
        # The pair [1, 3], [2, 6] at equal weights: mean 3, std sqrt(2.5).
        weights = DeviceWeights([0.5, 0.5])
        symbols, mean, std = _symbol_map([[1.0, 3.0], [2.0, 6.0]], weights)
        assert symbols[0] == pytest.approx([-1.2649, 0.0], abs=1e-4)
        x_hat = weights.rho @ symbols
        assert x_hat[0] == pytest.approx(-0.9486832980505138)
        # The AP's map back gives the weighted sum [1.5, 4.5].
        assert std * x_hat + mean == pytest.approx([1.5, 4.5])

    def test_row_at_the_mean_maps_to_zero(self):
        symbols, _, _ = _symbol_map([np.full(5, 3.0), [1.0, 5.0, 1.0, 5.0, 3.0]],
                                    DeviceWeights([0.5, 0.5]))
        assert np.all(symbols[0] == 0.0)

    def test_zero_symbol_maps_back_to_the_mean(self):
        _, mean, std = _symbol_map([[1.0, 3.0], [2.0, 6.0]], DeviceWeights([0.5, 0.5]))
        assert std * 0.0 + mean == 3.0

    def test_unit_statistics_give_the_identity(self):
        symbols, mean, std = _symbol_map([[-1.0, 1.0]], DeviceWeights([1.0]))
        assert (mean, std) == (0.0, 1.0)
        assert symbols[0] == pytest.approx([-1.0, 1.0])
        assert std * 0.7 + mean == pytest.approx(0.7)

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=9),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_identity(self, num_devices, dim, seed):
        rng = stream(99, num_devices, dim, seed)
        deltas = 10.0 * rng.standard_normal((num_devices, dim))
        counts = rng.integers(1, 50, num_devices)
        weights = DeviceWeights.from_counts(counts)
        symbols, mean, std = _symbol_map(deltas, weights)
        recovered = std * (weights.rho @ symbols) + mean
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
        h = rayleigh_channels(rng, 4, 0).h
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
            h = rayleigh_channels(rng, k, 0).h
            weights = DeviceWeights.from_counts(rng.integers(1, 9, k))
            p0, sigma2 = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.01, 1.0))
            _, _, mse = norelay_optimum(h, weights, p0, sigma2)
            oracle = norelay_oracle(h, weights.rho, p0, sigma2)
            assert mse == pytest.approx(oracle, rel=1e-6)

    def test_never_beaten_by_random_aligned_points(self):
        rng = stream(43)
        h = rayleigh_channels(rng, 3, 0).h
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

    @pytest.mark.parametrize("variant", list(SchemeVariant))
    @pytest.mark.parametrize("kind", ["line", "cell", "cell-no-relay"])
    def test_matches_term_by_term_reference(self, kind, variant):
        # The formula multiplies by the combined gains theta = c1 h + c2 path and
        # phi = c2 h and sums with one dot product; the reference multiplies term
        # by term and sums |.|^2 with np.sum.  Checked at the start and at the
        # solution of seeded K = 20 solves, at low and high SNR.
        weights = DeviceWeights.uniform(20)
        for seed in range(3):
            rng = stream(6500, seed)
            ch = paper_channels(rng, kind, 0 if kind == "cell-no-relay" else 4)
            for sigma2 in (1e-10, 1e-13):
                budget = PowerBudget(p0=0.05, pr=0.1, sigma2=sigma2)
                cfg, trace = solve(ch, weights, budget, SolverConfig(j_max=20), variant)
                for config in (init_config(ch, weights, budget, variant), cfg):
                    assert relay_mse(config, ch, weights, sigma2) == pytest.approx(
                        mse_reference(config, ch, weights, sigma2), rel=1e-13, abs=0)
                assert trace.objectives[-1] == pytest.approx(
                    mse_reference(cfg, ch, weights, sigma2), rel=1e-13, abs=0)

    def test_misalignment_overflow_follows_the_overflow_rule(self):
        # Every entry of theta a1 - rho is finite (about 1e155), but the sum of
        # their squares overflows; np.vdot alone would give inf under any errstate.
        ch = ChannelRealization(h=[1.0, 1.0], g=[[1.0], [1.0]], f=[1.0])
        weights = DeviceWeights.uniform(2)
        config = TransceiverConfig(a1=[1e155, 1e155], a2=[0.0, 0.0], b=[0.0], c1=1.0, c2=0.0)
        theta, phi = _combined_gains(config.c1, config.c2, ch.h, np.zeros(2))
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="misalignment power"):
                _misalignment_power(theta, phi, config.a1, config.a2, weights.rho)
            with pytest.raises(FloatingPointError, match="misalignment power"):
                relay_mse(config, ch, weights, 1.0)
        assert relay_mse(config, ch, weights, 1.0) == np.inf

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
        # Both AP products in one real matmul: real parts of h a1 and h a2,
        # then their imaginary parts.
        gains = np.stack([ch.h * config.a1, ch.h * config.a2])
        parts = np.concatenate([gains.real, gains.imag]) @ symbols
        y1 = parts[0] + 1j * parts[2] + np.sqrt(sigma2) * noise1
        y2 = parts[1] + 1j * parts[3] + np.sqrt(sigma2) * noise2
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


def _one_device_round(symbols):
    ch = ChannelRealization(h=[1.0 + 0j], g=[[1.0 + 0j]], f=[1.0 + 0j])
    cfg = TransceiverConfig(a1=[1.0], a2=[1.0], b=[1.0], c1=0.5, c2=0.5)
    return simulate_round(cfg, ch, symbols, 0.1, stream(1))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: DeviceWeights([1.5, -0.5]), "positive", id="weights-negative"),
    pytest.param(lambda: DeviceWeights([np.nan]), "positive", id="weights-nan"),
    pytest.param(lambda: DeviceWeights([0.3, 0.3]), "sum to one", id="weights-sum"),
    pytest.param(lambda: PowerBudget(p0=0.0, pr=1.0, sigma2=0.1), "positive",
                 id="budget-zero-p0"),
    pytest.param(lambda: PowerBudget(p0=np.nan, pr=1.0, sigma2=0.1), "positive",
                 id="budget-nan-p0"),
    pytest.param(lambda: TransceiverConfig(a1=[1.0], a2=[1.0, 1.0], b=[], c1=1.0, c2=1.0),
                 "equal length", id="config-lengths"),
    pytest.param(lambda: norelay_optimum(np.ones(2, dtype=complex), DeviceWeights([1.0]),
                                         1.0, 0.1), "lengths differ", id="norelay-lengths"),
    pytest.param(lambda: norelay_optimum(np.ones(1, dtype=complex), DeviceWeights([1.0]),
                                         0.0, 0.1), "positive", id="norelay-zero-power"),
    pytest.param(lambda: norelay_optimum(np.ones(1, dtype=complex), DeviceWeights([1.0]),
                                         np.nan, 0.1), "positive", id="norelay-nan-power"),
    pytest.param(lambda: norelay_optimum(np.array([0j, 1 + 0j]), DeviceWeights([0.5, 0.5]),
                                         1.0, 0.1), "zero device-to-AP channel",
                 id="norelay-zero-channel"),
    pytest.param(lambda: norelay_optimum(np.array([complex(np.nan)]), DeviceWeights([1.0]),
                                         1.0, 0.1), "finite", id="norelay-nan-channel"),
    pytest.param(lambda: norelay_optimum(np.array([complex(np.inf)]), DeviceWeights([1.0]),
                                         np.inf, 0.1), "finite", id="norelay-inf-channel"),
    pytest.param(lambda: symbol_stats(np.zeros((1, 0)), DeviceWeights([1.0])), "K x d stack",
                 id="symbol-stats-empty"),
    # symbol_stats leaves the row count to NumPy's product with the weights.
    pytest.param(lambda: symbol_stats([[1.0, 2.0]], DeviceWeights([0.5, 0.5])),
                 "mismatch in its core dimension", id="symbol-stats-lengths"),
    pytest.param(lambda: _one_device_round(np.zeros(3)), "K x d", id="round-symbols-1d"),
])
def test_bad_input_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
