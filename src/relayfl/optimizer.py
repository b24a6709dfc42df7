"""Alternating minimization of the aggregation MSE over all transceiver scalars.

One outer sweep updates, in order: the device transmit scalars (a convex QCQP
solved in its dual: once the few relay power constraints are priced by
multipliers, each device has a closed form with the direct copy first, and the
box-only optimum at zero multipliers is the first iterate), the relay scalars
(a convex quadratic with one disc per relay, minimized exactly), and the two
receive scalars (exact closed forms).  Every block is minimized exactly, so no
sweep raises the objective.

A solve holds its state (a1, a2, b, c1, c2) in plain arrays and builds one
``TransceiverConfig`` on exit.  What depends only on the instance is computed
once per solve (`Problem`); the relay path and the forwarded-noise gain are
computed once after each relay update and shared by the blocks that follow.
The objective is ``aggregation.transceiver_mse``, the one formula behind
``aggregation.relay_mse``.
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
    relay_gains,
    relay_input_power,
    relay_mse,
    transceiver_mse,
)
from .geometry import ChannelRealization

_TINY = np.finfo(float).tiny  # smallest normal double
_MAX = np.finfo(float).max


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


def _radii(budget: PowerBudget, variant: SchemeVariant) -> tuple[float, float]:
    # Per-device amplitude limits (r1, r2) of the two phases.  The relay-only
    # baseline does not retransmit in phase 2; its devices spend 2 * p0 in phase 1.
    if variant is SchemeVariant.RELAY_ONLY:
        return float(np.sqrt(2.0 * budget.p0)), 0.0
    r = float(np.sqrt(budget.p0))
    return r, r


class Problem:
    """One instance of the design problem and its per-solve invariants.

    The block updates take the instance in this form, so what depends only on
    the channels, weights, budget and variant is computed once per solve:
    |g^T|^2, the relays that reach the AP (f_n != 0) with their columns of g
    and its conjugate transpose, sigma2 I over those relays, the device radii
    of both phases and the QCQP tolerance scaled by the squared weight norm.
    """

    __slots__ = ("channels", "weights", "budget", "solver_cfg", "h", "rho", "sigma2",
                 "r1", "r2", "tol", "g2", "reach", "g_reach", "g_reach_h", "f_reach",
                 "abs_f_reach", "noise_eye")

    def __init__(self, channels: ChannelRealization, weights: DeviceWeights,
                 budget: PowerBudget, solver_cfg: SolverConfig,
                 variant: SchemeVariant = SchemeVariant.FULL):
        self.channels, self.weights = channels, weights
        self.budget, self.solver_cfg = budget, solver_cfg
        self.h, self.rho, self.sigma2 = channels.h, weights.rho, budget.sigma2
        self.r1, self.r2 = _radii(budget, variant)
        self.tol = solver_cfg.qcqp_tol * float(self.rho @ self.rho)
        self.g2 = np.abs(channels.g.T) ** 2  # (N, K)
        self.reach = channels.f != 0
        self.g_reach = channels.g[:, self.reach]
        self.g_reach_h = self.g_reach.conj().T
        self.f_reach = channels.f[self.reach]
        self.abs_f_reach = np.abs(self.f_reach)
        self.noise_eye = budget.sigma2 * np.eye(self.f_reach.size)


def init_config(channels: ChannelRealization, weights: DeviceWeights,
                budget: PowerBudget,
                variant: SchemeVariant = SchemeVariant.FULL) -> TransceiverConfig:
    """Channel-inversion starting point with all relay power constraints active.

    Devices invert the direct channel at the phase radii (r1, r2), scaled so the
    largest rho_k / |h_k| sits on them; the receive scalars make the direct copies
    sum to the target weights (c1 = 0 when r2 = 0).  Relays start at full power.
    """
    h = channels.h
    rho = weights.rho
    if h.shape != rho.shape:
        raise ValueError("channel and weight lengths differ")
    mag = np.abs(h)
    if np.any(mag == 0):
        raise SingularChannelError("zero device-to-AP channel")
    peak = float(np.max(rho / mag))
    r1, r2 = _radii(budget, variant)
    a1 = r1 * rho / (h * peak)
    a2 = r2 * rho / (h * peak)
    c2 = complex(peak / (r1 + r2))
    c1 = c2 if r2 > 0 else 0j
    b = np.sqrt(budget.pr / relay_input_power(channels, a1, budget.sigma2)).astype(complex)
    return TransceiverConfig(a1=a1, a2=a2, b=b, c1=c1, c2=c2)


def _misalignment(theta, phi, a1, a2, rho) -> float:
    return float(np.sum(np.abs(theta * a1 + phi * a2 - rho) ** 2))


def _clamp_disc(a: np.ndarray, radius: float) -> np.ndarray:
    """Project each entry onto the disc of the given radius."""
    if radius <= 0:
        return np.zeros_like(a)
    return a * (radius / np.maximum(np.abs(a), radius))


def _transmit_scalars(copy, coef, coef2, dead):
    """Scalars a with coef * a = copy, where coef2 = |coef|^2; dead where coef2 = 0."""
    linked = coef2 > 0
    return np.where(linked, copy / np.where(linked, coef, 1.0), dead)


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


def update_device_scalars(problem: Problem, a1: np.ndarray, a2: np.ndarray, b: np.ndarray,
                          c1: complex, c2: complex, path):
    """Minimize the misalignment over (a1, a2) with the other blocks fixed.

    `path` is the relay path of `b` (``aggregation.relay_gains``).  Returns
    (a1, a2, converged).  The feasible set is the per-device power boxes (the
    radii of the problem's variant) intersected with the per-relay quadratic
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
    rho, r1, r2 = problem.rho, problem.r1, problem.r2
    pr, sigma2 = problem.budget.pr, problem.sigma2
    # Per-device effective gains multiplying a1 and a2 in the combined estimate.
    theta = c1 * problem.h + c2 * path
    phi = c2 * problem.h
    abs_th, abs_ph = np.abs(theta), np.abs(phi)
    th2, ph2 = abs_th**2, abs_ph**2
    w1, w2 = abs_th * r1, abs_ph * r2
    # A subnormal |theta_k|^2 counts as unlinked: 1 / |theta_k|^2 overflows.
    linked = th2 >= _TINY
    th2 = np.where(linked, th2, 0.0)
    th2_den = np.where(linked, th2, 1.0)
    inv_th2 = linked / th2_den
    # The incoming point, feasible by the solve-loop invariant, fills in the
    # scalars whose coefficient is zero on every exit.
    incoming1 = _clamp_disc(a1, r1)
    incoming2 = _clamp_disc(a2, r2)
    # Relay n bounds sum_k g2[n, k] |a1_k|^2 by radii_sq[n] once the load of
    # the unlinked devices is charged; silent relays, and relays whose |b_n|^2
    # is too small for pr / |b_n|^2 to be finite, bound nothing.
    b2 = np.abs(b) ** 2
    live = b2 > pr / _MAX
    g2 = problem.g2[live]  # (Na, K)
    radii_sq = (np.maximum(pr / b2[live] - sigma2, 0.0)
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
    gap_tol = problem.tol
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
    for _ in range(problem.solver_cfg.qcqp_max_iter):
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


def update_relay_scalars(problem: Problem, a1: np.ndarray, a2: np.ndarray, b: np.ndarray,
                         c1: complex, c2: complex) -> np.ndarray:
    """Minimize the MSE over the relay scalars b with the other blocks fixed.

    In x = f * b over the relays with f_n != 0 the objective is
    |c2|^2 (x^H M x - 2 Re q^H x) + const with M = G^H diag|a1|^2 G + sigma2 I
    positive definite, and relay n's power cap reads |x_n| <= |f_n| sqrt(cap_n).
    The stationary point M^-1 q is returned when it fits every cap.  Otherwise
    the relays, starting from the feasible incoming b, take turns at their own
    exact minimizer with the others fixed: the stationary point along x_n,
    scaled radially onto the cap.  Every pass descends and stays feasible; the
    passes stop once one lowers the MSE by at most ``qcqp_tol`` times the
    squared weight norm, or after ``qcqp_max_iter`` passes.  Relays with
    f_n = 0 reach the AP with nothing and stay silent.
    """
    if c2 == 0:
        raise ValueError("relay update requires a nonzero phase-2 receive scalar")
    reach = problem.reach
    g, g_h, f = problem.g_reach, problem.g_reach_h, problem.f_reach
    pow1 = np.abs(a1) ** 2
    m = (g_h * pow1) @ g + problem.noise_eye
    residual = problem.rho - problem.h * (c1 * a1 + c2 * a2)
    q = g_h @ (residual * np.conj(a1)) / c2
    # pr over the relay input power sum_k |g_kn|^2 |a1_k|^2 + sigma2
    cap = problem.budget.pr / (problem.g2 @ pow1 + problem.sigma2)[reach]
    radius = problem.abs_f_reach * np.sqrt(cap)

    x = np.linalg.solve(m, q)
    if not (np.abs(x) <= radius).all():
        x = f * b[reach]
        diag = m.diagonal().real
        for _ in range(problem.solver_cfg.qcqp_max_iter):
            drop = 0.0
            for n in range(x.size):
                s = x[n] + (q[n] - m[n] @ x) / diag[n]
                new = s if abs(s) <= radius[n] else s * (radius[n] / abs(s))
                drop += diag[n] * (abs(x[n] - s) ** 2 - abs(new - s) ** 2)
                x[n] = new
            if abs(c2) ** 2 * drop <= problem.tol:
                break
    b = np.zeros(reach.size, dtype=complex)
    b[reach] = x / f
    return b


def _wiener(residual: np.ndarray, gain: np.ndarray, noise: float) -> complex:
    """Receive scalar minimizing sum_k |residual_k - c gain_k|^2 + |c|^2 noise."""
    numerator = (residual * np.conj(gain)).sum()
    return complex(numerator / (float((np.abs(gain) ** 2).sum()) + noise))


def update_c1(problem: Problem, a1: np.ndarray, c2: complex, phase2: np.ndarray) -> complex:
    """Exact minimizer of the MSE over the phase-1 receive scalar.

    `phase2` is the phase-2 gain h * a2 + a1 * path, which `update_c2` shares.
    """
    return _wiener(problem.rho - c2 * phase2, problem.h * a1, problem.sigma2)


def update_c2(problem: Problem, a1: np.ndarray, c1: complex, phase2: np.ndarray,
              forwarded: float) -> complex:
    """Exact minimizer of the MSE over the phase-2 receive scalar.

    `forwarded` is the forwarded-noise gain of ``aggregation.relay_gains``.
    """
    return _wiener(problem.rho - c1 * problem.h * a1, phase2,
                   (1.0 + forwarded) * problem.sigma2)


def solve(channels: ChannelRealization, weights: DeviceWeights, budget: PowerBudget,
          solver_cfg: SolverConfig, variant: SchemeVariant = SchemeVariant.FULL,
          warm_start: TransceiverConfig | None = None):
    """Run the alternating minimization until the relative improvement drops below
    epsilon or the sweep limit is reached.

    Returns (config, trace).  The trace objective sequence starts at the
    initial configuration and is non-increasing, because each block update
    minimizes the MSE over its block and keeps every power constraint.  For
    the relay-only variant a2 and c1 are pinned at zero and phase 1 carries
    the full device budget.

    The scalars live in plain arrays until the one config built on exit.  The
    relay path and forwarded-noise gain are computed once per relay update
    and shared by the next device update, both receive updates and the
    objective; the phase-2 gain h * a2 + a1 * path is computed once for both
    receive updates.  The first objective is ``relay_mse`` of the starting
    config and each sweep's is ``aggregation.transceiver_mse``, the formula
    ``relay_mse`` evaluates, so the last one equals ``relay_mse`` of the
    returned config exactly.
    """
    relay_only = variant is SchemeVariant.RELAY_ONLY
    config = warm_start if warm_start is not None else init_config(
        channels, weights, budget, variant)
    if relay_only:
        config = replace(config, a2=np.zeros_like(config.a2), c1=0.0 + 0.0j)
    a1, a2, b, c1, c2 = config.a1, config.a2, config.b, config.c1, config.c2
    problem = Problem(channels, weights, budget, solver_cfg, variant)
    h, rho, sigma2 = problem.h, problem.rho, problem.sigma2
    path, forwarded = relay_gains(channels, b)

    warnings: list[str] = []
    objectives = [relay_mse(config, channels, weights, sigma2)]
    terminated = "max_iterations"
    for iterations in range(1, solver_cfg.j_max + 1):
        a1, a2, inner_ok = update_device_scalars(problem, a1, a2, b, c1, c2, path)
        if not inner_ok:
            warnings.append(f"sweep {iterations}: device QCQP gap above tolerance at exit")

        if c2 != 0:
            b = update_relay_scalars(problem, a1, a2, b, c1, c2)
            path, forwarded = relay_gains(channels, b)

        phase2 = h * a2 + a1 * path
        if not relay_only:
            c1 = update_c1(problem, a1, c2, phase2)
        c2 = update_c2(problem, a1, c1, phase2, forwarded)

        objectives.append(transceiver_mse(a1, a2, c1, c2, path, forwarded, h, rho, sigma2))
        improvement = abs(objectives[-1] - objectives[-2]) / max(abs(objectives[-1]), 1e-300)
        if improvement <= solver_cfg.epsilon:
            terminated = "converged"
            break

    trace = SolverTrace(objectives=np.asarray(objectives), iterations_run=iterations,
                        terminated_by=terminated, warnings=tuple(warnings))
    return TransceiverConfig(a1=a1, a2=a2, b=b, c1=c1, c2=c2), trace
