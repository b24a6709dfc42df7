"""Alternating minimization of the aggregation MSE over all transceiver scalars.

One outer sweep updates, in order: the device transmit scalars (a convex QCQP
solved in its dual: once the few relay power constraints are priced by
multipliers, each device has a closed form with the direct copy first, and the
box-only optimum at zero multipliers is the first iterate), the relay scalars
(closed form plus radial projection onto the per-relay power cap), and the two
receive scalars (exact closed forms).  The objective is always evaluated
through ``aggregation.relay_mse`` so there is a single source of truth for the
MSE.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .aggregation import (
    DeviceWeights,
    PowerBudget,
    SingularChannelError,
    TransceiverConfig,
    forwarded_noise_gain,
    relay_input_power,
    relay_mse,
    relay_path,
)
from .geometry import ChannelRealization


class SchemeVariant(Enum):
    FULL = "full"
    RELAY_ONLY = "relay_only"


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop limits and inner QCQP tolerances."""

    j_max: int = 100
    epsilon: float = 1e-4
    qcqp_tol: float = 1e-8
    qcqp_max_iter: int = 300

    def __post_init__(self):
        if self.j_max < 1 or self.qcqp_max_iter < 1:
            raise ValueError("iteration limits must be positive")
        if self.epsilon <= 0 or self.qcqp_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class SolverTrace:
    """Objective value after initialization and after each sweep."""

    objectives: np.ndarray
    iterations_run: int
    terminated_by: str  # "converged" or "max_iterations"
    warnings: tuple[str, ...] = ()


def _phase1_budget(budget: PowerBudget, variant: SchemeVariant) -> float:
    # The relay-only baseline does not retransmit in phase 2, so its devices
    # spend the whole 2 * p0 budget in phase 1.
    return 2.0 * budget.p0 if variant is SchemeVariant.RELAY_ONLY else budget.p0


def init_config(channels: ChannelRealization, weights: DeviceWeights,
                budget: PowerBudget,
                variant: SchemeVariant = SchemeVariant.FULL) -> TransceiverConfig:
    """Channel-inversion starting point with all relay power constraints active.

    Devices split their budget evenly across the phases and invert the direct
    channel; the receive scalars are set so the two direct copies already sum
    to the target weights.  Relay scalars start at full transmit power.
    """
    h = channels.h
    rho = weights.rho
    if h.shape != rho.shape:
        raise ValueError("channel and weight lengths differ")
    mag = np.abs(h)
    if np.any(mag == 0):
        raise SingularChannelError("zero device-to-AP channel")
    peak = float(np.max(rho / mag))
    p1 = _phase1_budget(budget, variant)

    if variant is SchemeVariant.RELAY_ONLY:
        a1 = np.sqrt(p1) * rho / (h * peak)
        a2 = np.zeros_like(a1)
        c1 = 0.0 + 0.0j
        c2 = complex(peak / np.sqrt(p1))
    else:
        a1 = np.sqrt(budget.p0) * rho / (h * peak)
        a2 = a1.copy()
        c1 = c2 = complex(peak / (2.0 * np.sqrt(budget.p0)))

    if channels.num_relays:
        b = np.sqrt(budget.pr / relay_input_power(channels, a1, budget.sigma2)).astype(complex)
    else:
        b = np.zeros(0, dtype=complex)
    return TransceiverConfig(a1=a1, a2=a2, b=b, c1=c1, c2=c2)


def _theta_phi(config: TransceiverConfig,
               channels: ChannelRealization) -> tuple[np.ndarray, np.ndarray]:
    """Per-device effective gains multiplying a1 and a2 in the combined estimate."""
    theta = config.c1 * channels.h + config.c2 * relay_path(config, channels)
    phi = config.c2 * channels.h
    return np.asarray(theta, dtype=complex), np.asarray(phi, dtype=complex)


def _misalignment(theta, phi, a1, a2, rho) -> float:
    return float(np.sum(np.abs(theta * a1 + phi * a2 - rho) ** 2))


def _clamp_disc(a: np.ndarray, radius: float) -> np.ndarray:
    """Project each entry onto the disc of the given radius."""
    if radius <= 0:
        return np.zeros_like(a)
    return a * (radius / np.maximum(np.abs(a), radius))


def _transmit_scalars(copy, coef, coef2, dead):
    """Scalars a with coef * a = copy, where coef2 = |coef|^2; dead where coef2 = 0."""
    return np.where(coef2 > 0, copy / np.where(coef2 > 0, coef, 1.0), dead)


def _bounded_newton_step(lam, rhs, system):
    """Step solving system @ step = -rhs for lam >= 0 that keeps lam + step >= 0.

    Multipliers at zero whose right-hand side points down stay put; a
    multiplier the step would push below zero is pinned there and the rest
    re-solved.  Singular systems take the least-norm step.
    """
    free = (lam > 0) | (rhs > 0)
    if lam.size == 1:  # one multiplier: a scalar equation, no active set
        step = -rhs / system[0] if free[0] and system[0, 0] else np.zeros(1)
        return np.maximum(step, -lam)
    step = -lam  # every multiplier that is not free ends at zero
    while free.any():
        rows = system[free]
        step[free] = np.linalg.lstsq(rows[:, free], -rhs[free] - rows[:, ~free] @ step[~free],
                                     rcond=None)[0]
        blocked = lam + step < 0
        if not blocked.any():
            break
        free &= ~blocked
        step[blocked] = -lam[blocked]
    return step


def update_device_scalars(config: TransceiverConfig, channels: ChannelRealization,
                          weights: DeviceWeights, budget: PowerBudget,
                          solver_cfg: SolverConfig, *,
                          variant: SchemeVariant = SchemeVariant.FULL):
    """Minimize the misalignment over (a1, a2) with the other blocks fixed.

    Returns (a1, a2, converged).  The feasible set is the per-device power
    boxes (set by `variant`) intersected with the per-relay quadratic
    constraints on a1, which are dualized with multipliers lam >= 0; the dual
    is the only way the split is found.  For fixed lam each device aligns both
    copies with its weight: the direct phase-2 copy carries all it can for
    free and the relayed copy u_k = |theta_k a1_k| takes the rest, shrunk by
    the penalty mu_k = sum_n |g_kn|^2 lam_n and capped by the device box.  So
    the split does not depend on rounding when a relay cap is exactly tight.
    The first iterate is lam = 0, the box-only optimum, returned if it fits
    every relay.  Otherwise the relay powers h(lam) decrease in lam and are
    smooth between the breakpoints where a device leaves its cap.  Each
    multiplier starts at the left end of the smooth piece that holds its own
    root, and one safeguarded Newton iteration on the concave dual finds them
    all: it solves the analytic Jacobian against the secular form (free relay
    power)^(-1/2), which is exact when one device per relay is free, stops
    multipliers at lam = 0, and adds a Levenberg-Marquardt term until the dual
    value rises.  A scalar whose coefficient (theta_k or phi_k) is zero keeps
    its incoming value, clamped to its box, on every exit, and its phase-1
    load is charged against the relay caps first.  The result is feasible and
    never has a larger objective than the input; `converged` is False only if
    the duality gap could not be pushed below ``qcqp_tol`` (relative to the
    squared weight norm) within ``qcqp_max_iter`` Newton iterations.
    """
    rho = weights.rho
    theta, phi = _theta_phi(config, channels)
    r1 = float(np.sqrt(_phase1_budget(budget, variant)))
    # The relay-only variant does not transmit in phase 2.
    r2 = 0.0 if variant is SchemeVariant.RELAY_ONLY else float(np.sqrt(budget.p0))
    abs_th, abs_ph = np.abs(theta), np.abs(phi)
    th2, ph2 = abs_th**2, abs_ph**2
    w1, w2 = abs_th * r1, abs_ph * r2
    linked = th2 > 0
    th2_den = np.where(linked, th2, 1.0)
    inv_th2 = linked / th2_den
    # The incoming point, feasible by the solve-loop invariant, fills in the
    # scalars whose coefficient is zero on every exit.
    incoming1 = _clamp_disc(config.a1, r1)
    incoming2 = _clamp_disc(config.a2, r2)
    # Relay n bounds sum_k g2[n, k] |a1_k|^2 by radii_sq[n] once the load of
    # the unlinked devices is charged; silent relays bound nothing.
    live = np.abs(config.b) > 0
    g2 = np.abs(channels.g.T[live]) ** 2  # (Na, K)
    radii_sq = (np.maximum(budget.pr / np.abs(config.b[live]) ** 2 - budget.sigma2, 0.0)
                - g2 @ np.where(linked, 0.0, np.abs(incoming1) ** 2))

    direct = np.minimum(rho, w2)  # the free direct copy carries all it can
    short = rho - direct  # and the relayed copy the rest
    a2 = _transmit_scalars(direct, phi, ph2, incoming2)
    # lam = 0: the box-only optimum; if every relay fits it, it solves the dual.
    u = np.minimum(short, w1)
    if (g2 @ (u * u * inv_th2) <= radii_sq).all():
        return _transmit_scalars(u, theta, th2, incoming1), a2, True
    if (radii_sq <= 0).any():
        # A relay already spends its whole budget on forwarded noise and the
        # unlinked devices; phase-1 transmission must stop entirely.
        return _transmit_scalars(np.zeros_like(rho), theta, th2, incoming1), a2, True

    # With penalty mu the relayed copy is u = min(gain / (th2 + mu), w1); a
    # device leaves its cap once mu reaches mu_free.
    gain = short * th2
    mu_free = abs_th * (short / r1 - abs_th)
    gap_tol = solver_cfg.qcqp_tol * float(rho @ rho)
    # Start each relay at the left end of its smooth piece around the root
    # of h_n with the other multipliers at zero.
    lam = np.zeros(radii_sq.size)
    for n, row in enumerate(g2):
        capped = (mu_free > 0) & (row > 0)
        # Two ulps up, so that every device counts as free at its own breakpoint.
        breaks = np.nextafter(np.nextafter(mu_free[capped] / row[capped], np.inf), np.inf)
        u_at = np.minimum(gain[:, None] / (th2_den[:, None] + row[:, None] * breaks),
                          w1[:, None])
        h_at = (row * inv_th2) @ u_at**2 - radii_sq[n]
        lam[n] = breaks[h_at > 0].max(initial=0.0)
    base, base_dual, damping = lam, -np.inf, 0.0
    best_gap = np.inf
    best = np.zeros_like(rho)  # a silent phase 1 is always feasible
    converged = False
    for _ in range(solver_cfg.qcqp_max_iter):
        mu = lam @ g2
        denom = th2_den + mu
        u = np.minimum(gain / denom, w1)
        power = u * u * inv_th2
        h = g2 @ power - radii_sq
        err = short - u
        dual = float(err @ err + lam @ h)
        # Nearest feasible point: shrink every relayed copy until all relays
        # fit; the direct copy already carries all it can.
        feasible = u * np.sqrt((radii_sq / (radii_sq + np.maximum(h, 0.0))).min())
        err = short - feasible
        gap = float(err @ err) - dual
        if gap < best_gap:
            best_gap, best = gap, feasible
        if best_gap <= gap_tol:
            # One more Newton step from inside the tolerance lands on the
            # root to rounding, so the result does not depend on qcqp_tol.
            if converged:
                break
            converged = True
        if dual > base_dual:
            moving = power * (mu >= mu_free)  # right derivative at a breakpoint
            slope = (g2 * (-2.0 * moving / denom)) @ g2.T
            # Newton on the secular form F_n^(-1/2) = (F_n - h_n)^(-1/2), F_n the
            # power of the free devices; plain Newton on h_n where it is undefined.
            free_power = g2 @ moving
            target = free_power - h
            secular = (free_power > 0) & (target > 0)
            rhs = np.where(secular, 2.0 * free_power
                           * (np.sqrt(free_power / np.where(secular, target, 1.0)) - 1.0), h)
            base, base_dual, base_rhs, base_slope, damping = lam, dual, rhs, slope, 0.0
            system = slope
        else:
            if base_dual == -np.inf:
                # Not even the first dual value is finite (overflowed powers):
                # there is no base to damp from, so keep the fallbacks below.
                break
            # Levenberg-Marquardt: lean the next step towards scaled gradient ascent.
            damping = 4.0 * damping if damping else 1e-3
            if damping > 1e6:
                break
            curvature = np.maximum(-np.diag(base_slope), 1e-300)
            system = base_slope - damping * np.diag(curvature)
        step = _bounded_newton_step(base, base_rhs, system)
        cand = np.maximum(base + step, 0.0)
        if (cand == lam).all():
            break
        lam = cand
    a1 = _transmit_scalars(best, theta, th2, incoming1)

    # Never return anything worse than the incoming point, even when the
    # multiplier search exits early or its point is not finite.
    if not (_misalignment(theta, phi, a1, a2, rho)
            <= _misalignment(theta, phi, incoming1, incoming2, rho)):
        a1, a2 = incoming1, incoming2
    return a1, a2, converged


def update_relay_scalars(config: TransceiverConfig, channels: ChannelRealization,
                         weights: DeviceWeights, budget: PowerBudget):
    """Closed-form relay scalars followed by per-relay radial power projection.

    Returns (b, warning).  `warning` is set when the stationarity system is
    singular (for example a zero relay-to-AP gain) and the least-norm solution
    with zero component on the null direction is used instead.
    """
    if config.c2 == 0:
        raise ValueError("relay update requires a nonzero phase-2 receive scalar")
    n_relays = channels.num_relays
    if n_relays == 0:
        return np.zeros(0, dtype=complex), None
    g = channels.g
    a1 = config.a1
    power1 = np.abs(a1) ** 2
    system = config.c2 * (
        (g.conj().T * power1) @ g + budget.sigma2 * np.eye(n_relays)
    ) @ np.diag(channels.f)
    residual_target = (weights.rho - channels.h * (config.c1 * a1 + config.c2 * config.a2))
    rhs = g.conj().T @ (residual_target * np.conj(a1))

    warning = None
    try:
        b_hat = np.linalg.solve(system, rhs)
        ok = np.all(np.isfinite(b_hat)) and (
            np.linalg.norm(system @ b_hat - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1e-300)
        )
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        b_hat = np.linalg.pinv(system) @ rhs
        warning = "singular relay stationarity system; least-norm solution used"

    cap = budget.pr / relay_input_power(channels, a1, budget.sigma2)
    mag = np.abs(b_hat)
    scale = np.where(mag > np.sqrt(cap), np.sqrt(cap) / np.where(mag == 0, 1.0, mag), 1.0)
    return b_hat * scale, warning


def update_c1(config: TransceiverConfig, channels: ChannelRealization,
              weights: DeviceWeights, sigma2: float) -> complex:
    """Exact minimizer of the MSE over the phase-1 receive scalar."""
    direct1 = channels.h * config.a1
    rest = config.c2 * (channels.h * config.a2 + config.a1 * relay_path(config, channels))
    numerator = np.sum((weights.rho - rest) * np.conj(direct1))
    denominator = float(np.sum(np.abs(direct1) ** 2)) + sigma2
    return complex(numerator / denominator)


def update_c2(config: TransceiverConfig, channels: ChannelRealization,
              weights: DeviceWeights, sigma2: float) -> complex:
    """Exact minimizer of the MSE over the phase-2 receive scalar."""
    phase2 = channels.h * config.a2 + config.a1 * relay_path(config, channels)
    numerator = np.sum((weights.rho - config.c1 * channels.h * config.a1) * np.conj(phase2))
    denominator = (float(np.sum(np.abs(phase2) ** 2))
                   + (1.0 + forwarded_noise_gain(config, channels)) * sigma2)
    return complex(numerator / denominator)


def solve(channels: ChannelRealization, weights: DeviceWeights, budget: PowerBudget,
          solver_cfg: SolverConfig, variant: SchemeVariant = SchemeVariant.FULL,
          warm_start: TransceiverConfig | None = None):
    """Run the alternating minimization until the relative improvement drops below
    epsilon or the sweep limit is reached.

    Returns (config, trace).  The trace objective sequence starts at the
    initial configuration and is non-increasing: each block update either
    descends or is rejected (the relay closed form is kept only if it does not
    raise the objective, which can happen when several projected relay scalars
    interact).  For the relay-only variant a2 and c1 are pinned at zero and
    phase 1 carries the full device budget.
    """
    relay_only = variant is SchemeVariant.RELAY_ONLY
    config = warm_start if warm_start is not None else init_config(
        channels, weights, budget, variant)
    if relay_only:
        config = replace(config, a2=np.zeros_like(config.a2), c1=0.0 + 0.0j)

    warnings: list[str] = []
    objectives = [relay_mse(config, channels, weights, budget.sigma2)]
    iterations = 0
    terminated = "max_iterations"
    for _ in range(solver_cfg.j_max):
        iterations += 1
        a1, a2, inner_ok = update_device_scalars(
            config, channels, weights, budget, solver_cfg, variant=variant)
        if not inner_ok:
            warnings.append(f"sweep {iterations}: device QCQP gap above tolerance at exit")
        config = replace(config, a1=a1, a2=a2)

        if channels.num_relays and config.c2 != 0:
            before = relay_mse(config, channels, weights, budget.sigma2)
            b, warn = update_relay_scalars(config, channels, weights, budget)
            if warn:
                warnings.append(f"sweep {iterations}: {warn}")
            candidate = replace(config, b=b)
            after = relay_mse(candidate, channels, weights, budget.sigma2)
            if after <= before * (1.0 + 1e-12):
                config = candidate
            else:
                warnings.append(f"sweep {iterations}: relay update rejected (non-descent)")

        if not relay_only:
            config = replace(config, c1=update_c1(config, channels, weights, budget.sigma2))
        config = replace(config, c2=update_c2(config, channels, weights, budget.sigma2))

        objectives.append(relay_mse(config, channels, weights, budget.sigma2))
        improvement = abs(objectives[-1] - objectives[-2]) / max(abs(objectives[-1]), 1e-300)
        if improvement <= solver_cfg.epsilon:
            terminated = "converged"
            break

    trace = SolverTrace(objectives=np.asarray(objectives), iterations_run=iterations,
                        terminated_by=terminated, warnings=tuple(warnings))
    return config, trace
