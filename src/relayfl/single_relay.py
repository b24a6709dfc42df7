"""Single-relay performance analysis.

Summarizes the three link SNRs of an N=1 system, checks the sufficient
conditions under which relaying is guaranteed to beat the no-relay scheme, and
builds the analytic phase-2-only configuration whose MSE certifies that bound.
"""

from __future__ import annotations

import numpy as np

from .aggregation import (
    DeviceWeights,
    InconsistentMseError,
    PowerBudget,
    TransceiverConfig,
    norelay_optimum,
    relay_mse,
)
from .geometry import ChannelRealization


def _link_powers(channels: ChannelRealization) -> tuple[np.ndarray, np.ndarray, float]:
    """(|h|^2, |g|^2, |f|^2) of a single-relay system: the device-to-AP and
    device-to-relay powers per device, and the relay-to-AP power."""
    if channels.num_relays != 1:
        raise ValueError("single-relay analysis is defined for exactly one relay")
    return np.abs(channels.h) ** 2, np.abs(channels.g[:, 0]) ** 2, float(np.abs(channels.f[0])) ** 2


def snr_summary(channels: ChannelRealization,
                budget: PowerBudget) -> tuple[np.ndarray, float, float]:
    """(snr_device_ap, snr_relay_ap, delta) of a single-relay system.

    The peak received SNRs at the AP, one per device and one of the relay,
    and the worst-case SNR ratio delta: the worst device-to-AP SNR over the
    worst device-to-relay SNR.  delta at or below one means the relay hears
    every device at least as well as the AP does.
    """
    h2, g2, f2 = _link_powers(channels)
    snr_ap = budget.p0 * h2 / budget.sigma2
    worst_relay = float(np.min(budget.p0 * g2 / budget.sigma2))
    if worst_relay == 0:
        raise ValueError("worst device-to-relay SNR is zero; delta undefined")
    delta = float(np.min(snr_ap)) / worst_relay
    return snr_ap, budget.pr * f2 / budget.sigma2, delta


def check_theorem_conditions(snr_device_ap: np.ndarray, snr_relay_ap: float,
                             delta: float) -> tuple[bool, bool]:
    """(cond40, cond41): whether each sufficient condition for the relay-assisted
    MSE bound holds, from the values of ``snr_summary``.  The device count K is
    the length of `snr_device_ap`.

    The second condition is undefined when delta exceeds one (cond40 False)
    and is then reported False.
    """
    if not delta <= 1.0:
        return False, False
    worst = float(np.min(snr_device_ap))
    threshold = (snr_device_ap.size * worst + delta) / (1.0 + np.sqrt(2.0 - 2.0 * delta)) ** 2
    return True, bool(snr_relay_ap >= threshold)


def theorem_certificate(channels: ChannelRealization, weights: DeviceWeights,
                        budget: PowerBudget) -> tuple[float, float, bool, bool]:
    """(delta, bound, cond40, cond41) of one instance: the SNR ratio, the no-relay
    optimum at the 2 * p0 budget, and whether each sufficient condition for
    relaying to beat that bound holds."""
    _, _, bound = norelay_optimum(channels.h, weights, 2.0 * budget.p0, budget.sigma2)
    snr_ap, snr_relay, delta = snr_summary(channels, budget)
    return (delta, bound, *check_theorem_conditions(snr_ap, snr_relay, delta))


def analytic_construction(channels: ChannelRealization, weights: DeviceWeights,
                          budget: PowerBudget) -> tuple[TransceiverConfig, float]:
    """(config, mse) of the perfectly aligned phase-2-only configuration.

    Requires uniform weights and a single relay.  The relayed copy carries a
    fraction alpha of each weight and the direct phase-2 copy the remaining
    beta = 1 - alpha, with every device inverting its own path so alignment is
    exact and only amplified noise remains.  alpha is one half whenever the
    relay-power limit allows it, otherwise the boundary value alpha_bar at
    which the direct-link and relay-power limits on eta = |c2|^2 coincide;
    gamma = |c2 b|^2.  The split and both levels can be read off the config.
    """
    h2, g2, f2 = _link_powers(channels)
    rho_vec = weights.rho
    if np.max(np.abs(rho_vec - rho_vec[0])) > 1e-12:
        raise ValueError("analytic construction requires uniform weights")
    rho = float(rho_vec[0])
    num_devices = rho_vec.size
    h2_min, g2_min = float(np.min(h2)), float(np.min(g2))

    alpha_bar = 1.0 / (1.0 + np.sqrt(
        (num_devices * budget.p0 * g2_min + budget.sigma2) * h2_min
        / (budget.pr * f2 * g2_min)
    ))
    alpha = min(0.5, alpha_bar)
    beta = 1.0 - alpha

    gamma = alpha**2 * rho**2 / (budget.p0 * f2 * g2_min)
    eta_direct = beta**2 * rho**2 / (budget.p0 * h2_min)
    eta_relay = (num_devices * alpha**2 * rho**2 + gamma * budget.sigma2 * f2) / (
        budget.pr * f2)
    eta = max(eta_direct, eta_relay)

    # Magnitudes fix eta and gamma; phases are chosen so c2 and c2 * f * b are
    # real positive, and the per-device inversions absorb everything else.
    c2 = complex(np.sqrt(eta))
    b_mag = np.sqrt(gamma / eta)
    f = complex(channels.f[0])
    b = b_mag * np.conj(f) / abs(f)
    a1 = alpha * rho / (c2 * f * b * channels.g[:, 0])
    a2 = beta * rho / (c2 * channels.h)
    config = TransceiverConfig(a1=a1, a2=a2, b=np.array([b]), c1=0.0 + 0.0j, c2=c2)

    mse = (eta + gamma * f2) * budget.sigma2
    cross = relay_mse(config, channels, weights, budget.sigma2)
    if abs(cross - mse) > 1e-9 * max(mse, 1e-300):
        raise InconsistentMseError("analytic MSE and signal-chain MSE disagree")
    return config, mse
