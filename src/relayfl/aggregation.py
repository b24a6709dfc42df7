"""Symbol statistics and the over-the-air aggregation signal chain.

Covers the global mean and standard deviation that map a round's model updates
onto zero-mean, unit-variance symbols, (delta - mean) / std, and back at the
AP, std * x_hat + mean; the closed-form optimum of the single-phase no-relay
scheme; and the two-phase relay chain together with its analytic mean-square
aggregation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ChannelRealization, SingularChannelError, _complex_normal


@dataclass(frozen=True)
class DeviceWeights:
    """Aggregation weights rho_k = D_k / D, strictly positive and summing to one."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float).reshape(-1)
        object.__setattr__(self, "rho", rho)
        if not (rho.size >= 1 and np.all(rho > 0)):
            raise ValueError("weights must be positive")
        if abs(rho.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")

    @classmethod
    def uniform(cls, num_devices: int) -> "DeviceWeights":
        return cls(np.full(num_devices, 1.0 / num_devices))

    @classmethod
    def from_counts(cls, counts) -> "DeviceWeights":
        counts = np.asarray(counts, dtype=float)
        return cls(counts / counts.sum())


@dataclass(frozen=True)
class PowerBudget:
    """Transmit/noise powers in watts: p0 per device per phase, pr per relay, sigma2 noise."""

    p0: float
    pr: float
    sigma2: float

    def __post_init__(self):
        if not (self.p0 > 0 and self.pr > 0 and self.sigma2 > 0):
            raise ValueError("powers must be positive")


@dataclass(frozen=True)
class TransceiverConfig:
    """Decision variables of the two-phase scheme.

    a1, a2: per-device transmit scalars for the two phases (length K);
    b: per-relay amplify-and-forward scalars (length N);
    c1, c2: receive combining scalars at the AP.
    """

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    c1: complex
    c2: complex

    def __post_init__(self):
        object.__setattr__(self, "a1", np.asarray(self.a1, dtype=complex).reshape(-1))
        object.__setattr__(self, "a2", np.asarray(self.a2, dtype=complex).reshape(-1))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=complex).reshape(-1))
        object.__setattr__(self, "c1", complex(self.c1))
        object.__setattr__(self, "c2", complex(self.c2))
        if self.a1.shape != self.a2.shape:
            raise ValueError("a1 and a2 must have equal length")


def symbol_stats(deltas: np.ndarray, weights: DeviceWeights) -> tuple[float, float]:
    """Global mean and standard deviation of a (K, d) stack of update vectors.

    Each row gives its mean and population variance (divisor d); the global
    mean and variance are their rho-weighted sums, and std is the square root
    of that variance.  std is 0 when every row is constant.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 2 or deltas.shape[1] == 0:
        raise ValueError("updates must be a K x d stack with d >= 1")
    means = deltas.mean(axis=-1, keepdims=True)
    variances = np.mean((deltas - means) ** 2, axis=-1)
    return float(weights.rho @ means[:, 0]), float(np.sqrt(weights.rho @ variances))


def norelay_optimum(h: np.ndarray, weights: DeviceWeights, p0_total: float,
                    sigma2: float) -> tuple[np.ndarray, complex, float]:
    """Optimal single-phase transmit/receive scalars and the minimum MSE.

    Every device inverts its channel so that c * h_k * a_k = rho_k; the receive
    scalar takes its smallest magnitude that keeps all devices within the
    power budget, which is set by the device with the largest rho_k / |h_k|.
    The receive scalar is returned real positive; a_k absorbs channel phase.
    """
    h = np.asarray(h, dtype=complex).reshape(-1)
    rho = weights.rho
    if h.shape != rho.shape:
        raise ValueError("channel and weight lengths differ")
    if not (p0_total > 0 and sigma2 > 0):
        raise ValueError("powers must be positive")
    if not np.isfinite(h).all():
        raise ValueError("channel gains must be finite")
    mag = np.abs(h)
    if np.any(mag == 0):
        raise SingularChannelError("zero device-to-AP channel")
    c = float(np.max(rho / mag) / np.sqrt(p0_total))
    a = rho / (c * h)
    mse = (sigma2 / p0_total) * float(np.max(rho**2 / mag**2))
    return a, complex(c), mse


def relay_gains(channels: ChannelRealization, b: np.ndarray):
    """Per-device relay path sum_n g_kn f_n b_n and forwarded-noise gain sum_n |f_n b_n|^2.

    Both are 0 without relays.
    """
    fb = channels.f * b
    return channels.g @ fb, float(np.vdot(fb, fb).real)


def _combined_gains(c1, c2, h: np.ndarray, path):
    """Per-device gains (theta, phi) = (c1 h + c2 path, c2 h) of a1 and a2 in the estimate."""
    return c1 * h + c2 * path, c2 * h


def _misalignment_power(theta, phi, a1, a2, rho) -> np.float64:
    """|theta a1 + phi a2 - rho|^2 by one ``np.vdot``, which ignores ``np.errstate``:
    a sum of finite terms that overflows raises ``FloatingPointError`` here when
    NumPy's `over` mode is "raise", and is inf otherwise."""
    misalign = theta * a1 + phi * a2 - rho
    power = np.vdot(misalign, misalign).real
    if power == np.inf and np.geterr()["over"] == "raise" and np.isfinite(misalign).all():
        raise FloatingPointError("overflow encountered in the misalignment power")
    return power


def transceiver_mse(theta: np.ndarray, phi: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                    c1: complex, c2: complex, forwarded: float, rho: np.ndarray,
                    sigma2: float) -> float:
    """Analytic aggregation MSE from the combined gains and the forwarded-noise gain.

    (theta, phi) are the gains of a1 and a2 at the AP (``_combined_gains``)
    and `forwarded` the noise gain of ``relay_gains``: misalignment power
    (``_misalignment_power``) plus the receive noise amplified by
    |c1|^2 + |c2|^2 (1 + forwarded).  ``relay_mse`` and the solver's
    objective both evaluate this one formula.
    """
    misalignment = _misalignment_power(theta, phi, a1, a2, rho)
    noise_gain = abs(c1) ** 2 + abs(c2) ** 2 * (1.0 + forwarded)
    return float(misalignment + noise_gain * sigma2)


def relay_mse(config: TransceiverConfig, channels: ChannelRealization,
              weights: DeviceWeights, sigma2: float) -> float:
    """Analytic aggregation MSE: misalignment power plus amplified noise power."""
    path, forwarded = relay_gains(channels, config.b)
    theta, phi = _combined_gains(config.c1, config.c2, channels.h, path)
    return transceiver_mse(theta, phi, config.a1, config.a2, config.c1, config.c2, forwarded,
                           weights.rho, sigma2)


def relay_input_power(channels: ChannelRealization, a1: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-relay phase-1 receive power sum_k |g_kn|^2 |a1_k|^2 + sigma2."""
    return (np.abs(channels.g) ** 2).T @ (np.abs(a1) ** 2) + sigma2


def relay_power_used(config: TransceiverConfig, channels: ChannelRealization,
                     sigma2: float) -> np.ndarray:
    """Per-relay transmit power |b_n|^2 (sum_k |g_kn|^2 |a1_k|^2 + sigma2)."""
    return np.abs(config.b) ** 2 * relay_input_power(channels, config.a1, sigma2)


def max_constraint_violation(config: TransceiverConfig, channels: ChannelRealization,
                             budget: PowerBudget, phase1_budget: float | None = None) -> float:
    """Largest relative violation of the device and relay power constraints.

    Zero or negative means feasible.  `phase1_budget` overrides the phase-1
    per-device limit (the relay-only baseline spends the full 2 * p0 there).
    """
    p1 = budget.p0 if phase1_budget is None else phase1_budget
    v1 = (np.abs(config.a1) ** 2 - p1) / p1
    v2 = (np.abs(config.a2) ** 2 - budget.p0) / budget.p0
    vr = (relay_power_used(config, channels, budget.sigma2) - budget.pr) / budget.pr
    return max(float(np.max(v, initial=-np.inf)) for v in (v1, v2, vr))


def simulate_round(config: TransceiverConfig, channels: ChannelRealization,
                   symbols: np.ndarray, sigma2: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Two-phase transmission of real symbols; returns the complex estimate c1 y1 + c2 y2.

    The AP keeps its real part.  symbols is K x d (one real symbol stream per
    device).  Fresh independent complex noise of variance sigma2 is drawn per
    symbol at every receive point: each relay in phase 1 and the AP in both
    phases.
    """
    s = np.asarray(symbols, dtype=float)
    if s.ndim != 2 or s.shape[0] != channels.num_devices:
        raise ValueError("symbols must be K x d")
    d = s.shape[1]
    n = channels.num_relays
    noise_scale = np.sqrt(sigma2)

    # Every product of the symbols at once, in real arithmetic: the rows are
    # the gains h a1 (AP, phase 1), g a1 (one row per relay) and h a2 (AP,
    # phase 2), their real parts stacked over their imaginary parts.
    gains = np.vstack([channels.h * config.a1, (channels.g * config.a1[:, None]).T,
                       channels.h * config.a2])
    parts = np.concatenate([gains.real, gains.imag]) @ s
    received = np.empty((n + 2, d), dtype=complex)
    received.real, received.imag = parts[:n + 2], parts[n + 2:]

    # Phase 1: devices transmit to the relays and the AP.
    y1 = received[0] + noise_scale * _complex_normal(rng, d)
    r = received[1:n + 1] + noise_scale * _complex_normal(rng, (n, d))
    forwarded = (channels.f * config.b) @ r
    # Phase 2: relays forward, devices retransmit.
    y2 = forwarded + received[n + 1] + noise_scale * _complex_normal(rng, d)
    return config.c1 * y1 + config.c2 * y2

