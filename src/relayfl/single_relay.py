"""Single-relay performance analysis.

Summarizes the three link SNRs of an N=1 system, checks the sufficient
conditions under which relaying is guaranteed to beat the no-relay scheme, and
builds the analytic phase-2-only configuration whose MSE certifies that bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import (
    DeviceWeights,
    InconsistentMseError,
    PowerBudget,
    SingularChannelError,
    TransceiverConfig,
    norelay_optimum,
    relay_mse,
)
from .geometry import ChannelRealization


@dataclass(frozen=True)
class SnrSummary:
    """Peak received SNRs of all links and their worst-case ratio.

    delta divides the worst device-to-AP SNR by the worst device-to-relay SNR;
    values at or below one mean the relay hears every device at least as well
    as the AP does.
    """

    snr_device_ap: np.ndarray
    snr_device_relay: np.ndarray
    snr_relay_ap: float
    delta: float


@dataclass(frozen=True)
class AnalyticConstruction:
    """Closed-form phase-2-only configuration and its certified MSE.

    alpha and beta split the target weight between the relayed and the direct
    copy; gamma = |c2 b|^2 and eta = |c2|^2 are the squared combining levels;
    alpha_bar is the split at which the direct-link and relay-power limits on
    eta coincide.  `case` names the branch that sets eta at the chosen alpha.
    """

    alpha: float
    beta: float
    gamma: float
    eta: float
    alpha_bar: float
    config: TransceiverConfig
    mse: float
    case: str  # "relay_limited" or "direct_limited"


def snr_summary(channels: ChannelRealization, budget: PowerBudget) -> SnrSummary:
    """Per-link peak SNRs for a single-relay system."""
    if channels.num_relays != 1:
        raise ValueError("SNR summary is defined for exactly one relay")
    h2 = np.abs(channels.h) ** 2
    g2 = np.abs(channels.g[:, 0]) ** 2
    f2 = float(np.abs(channels.f[0]) ** 2)
    snr_ap = budget.p0 * h2 / budget.sigma2
    snr_relay = budget.p0 * g2 / budget.sigma2
    worst_relay = float(np.min(snr_relay))
    if worst_relay == 0:
        raise ValueError("worst device-to-relay SNR is zero; delta undefined")
    delta = float(np.min(snr_ap)) / worst_relay
    return SnrSummary(
        snr_device_ap=snr_ap,
        snr_device_relay=snr_relay,
        snr_relay_ap=budget.pr * f2 / budget.sigma2,
        delta=delta,
    )


def check_theorem_conditions(summary: SnrSummary, num_devices: int) -> tuple[bool, bool]:
    """(cond40, cond41): whether each sufficient condition for the relay-assisted
    MSE bound holds.

    The second condition is undefined when delta exceeds one (cond40 False)
    and is then reported False.
    """
    if not summary.delta <= 1.0:
        return False, False
    worst = float(np.min(summary.snr_device_ap))
    threshold = (num_devices * worst + summary.delta) / (
        1.0 + np.sqrt(2.0 - 2.0 * summary.delta)
    ) ** 2
    return True, bool(summary.snr_relay_ap >= threshold)


def theorem_certificate(channels: ChannelRealization, weights: DeviceWeights,
                        budget: PowerBudget) -> tuple[float, float, bool, bool]:
    """(delta, bound, cond40, cond41) of one instance: the SNR ratio, the no-relay
    optimum at the 2 * p0 budget, and whether each sufficient condition for
    relaying to beat that bound holds."""
    _, _, bound = norelay_optimum(channels.h, weights, 2.0 * budget.p0, budget.sigma2)
    summary = snr_summary(channels, budget)
    return (summary.delta, bound, *check_theorem_conditions(summary, channels.num_devices))


def analytic_construction(channels: ChannelRealization, weights: DeviceWeights,
                          budget: PowerBudget) -> AnalyticConstruction:
    """Build the perfectly aligned phase-2-only configuration.

    Requires uniform weights and a single relay.  The relayed copy carries a
    fraction alpha of each weight and the direct phase-2 copy the remaining
    beta = 1 - alpha, with every device inverting its own path so alignment is
    exact and only amplified noise remains.  alpha is one half whenever the
    relay-power limit allows it, otherwise the boundary value alpha_bar.
    """
    if channels.num_relays != 1:
        raise ValueError("analytic construction is defined for exactly one relay")
    rho_vec = weights.rho
    if np.max(np.abs(rho_vec - rho_vec[0])) > 1e-12:
        raise ValueError("analytic construction requires uniform weights")
    rho = float(rho_vec[0])
    num_devices = rho_vec.size

    h = channels.h
    g = channels.g[:, 0]
    f = complex(channels.f[0])
    if np.any(np.abs(h) == 0) or np.any(np.abs(g) == 0) or abs(f) == 0:
        raise SingularChannelError("zero channel gain in single-relay construction")
    h2_min = float(np.min(np.abs(h) ** 2))
    g2_min = float(np.min(np.abs(g) ** 2))
    f2 = abs(f) ** 2

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
    case = "direct_limited" if eta_direct >= eta_relay else "relay_limited"

    # Magnitudes fix eta and gamma; phases are chosen so c2 and c2 * f * b are
    # real positive, and the per-device inversions absorb everything else.
    c2 = complex(np.sqrt(eta))
    b_mag = np.sqrt(gamma / eta)
    b = b_mag * np.conj(f) / abs(f)
    a1 = alpha * rho / (c2 * f * b * g)
    a2 = beta * rho / (c2 * h)
    config = TransceiverConfig(a1=a1, a2=a2, b=np.array([b]), c1=0.0 + 0.0j, c2=c2)

    mse = (eta + gamma * f2) * budget.sigma2
    cross = relay_mse(config, channels, weights, budget.sigma2)
    if abs(cross - mse) > 1e-9 * max(mse, 1e-300):
        raise InconsistentMseError("analytic MSE and signal-chain MSE disagree")
    return AnalyticConstruction(alpha=alpha, beta=beta, gamma=gamma, eta=eta,
                                alpha_bar=alpha_bar, config=config, mse=mse, case=case)
