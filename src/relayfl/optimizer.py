"""Alternating minimization of the aggregation MSE over all transceiver scalars.

One outer sweep updates, in order: the device transmit scalars (a convex QCQP
solved in its dual: once the few relay power constraints are priced by
multipliers, each device has a closed form with the direct copy first, and the
box-only optimum at zero multipliers is the first iterate), the relay scalars
(a convex quadratic with one disc per relay), and the two receive scalars
(exact closed forms).  Two blocks stop short of the exact minimizer: the
device block at its duality-gap tolerance or its iteration cap, and, with more
than one relay and a binding cap, the relay block at its pass tolerance
(``QCQP_TOL``, ``QCQP_MAX_ITER``).  Both still descend, so no sweep raises the
objective beyond the rounding of the closed forms.

A solve holds its state (a1, a2, b, c1, c2) in plain arrays and builds one
``TransceiverConfig`` on exit.  What depends only on the instance is computed
once per solve (`Problem`).  The products the blocks share form the sweep
state, and each is formed once per sweep:

- the relay path and the forwarded-noise gain (``aggregation.relay_gains``),
  after the relay update; the next receive updates and the objective read
  them, and the path enters the next device update through theta;
- the phase gains h * a1 and h * a2 + a1 * path, after the relay update;
  `update_c1` takes h * a1 as its gain and `update_c2` inside its residual,
  and both take the phase-2 gain;
- the combined gains theta = c1 h + c2 path and phi = c2 h of a1 and a2 at
  the AP (``aggregation._combined_gains``), after the receive updates; the
  objective ``aggregation.transceiver_mse`` (the one formula behind
  ``aggregation.relay_mse``) and the next device update read them.

The start's sweep state is formed the same way before the first sweep, and
the first objective is ``transceiver_mse`` at it, with the same bits as
``relay_mse`` of the starting config.

A sweep is a few dozen NumPy calls on arrays of K or N entries, so the call
count sets its cost.  The receive updates, the objective and the
forwarded-noise gain reduce with single BLAS dots (``np.vdot``).  A
one-relay system keeps its relay-sized quantities as NumPy scalars, which
cost a fraction of a call on a (1,) array: the relay update is the closed
form q / M, projected radially onto the relay's disc when outside it, and
the device update tests its one cap in scalars, down to the multiplier
search, which takes (1, K) arrays as for any N.  Masks that mask nothing are
skipped: the device update builds its unlinked-device masks (theta_k or phi_k
zero) and clamps the incoming scalars they keep only when some device is
unlinked, and drops silent relays from the caps only when some relay is
silent.  Skipping a mask leaves every result bit for bit the same, and so
does holding one relay in scalars in the device update.  Every relay reaches
the AP, because a ``ChannelRealization`` has no zero gain.  The receive
scalars are NumPy complex inside the loop.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .aggregation import (
    DeviceWeights,
    PowerBudget,
    TransceiverConfig,
    _combined_gains,
    _misalignment_power,
    norelay_optimum,
    relay_gains,
    relay_input_power,
    relay_mse,  # unused here; the perfbench tracer wraps and restores optimizer.relay_mse
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
    """The outer loop's stop rule: at most j_max sweeps, and stop once a sweep
    improves the objective by at most epsilon relative."""

    j_max: int = 100
    epsilon: float = 1e-4

    def __post_init__(self):
        if not isinstance(self.j_max, numbers.Integral):
            raise ValueError("j_max must be an integer")
        if self.j_max < 1:
            raise ValueError("j_max must be at least 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class SolverTrace:
    """Objective value after initialization and after each sweep."""

    objectives: np.ndarray
    terminated_by: str  # "converged" or "max_iterations"
    warnings: tuple[str, ...] = ()

    @property
    def iterations_run(self) -> int:
        """Sweeps run: one objective each after the initial one."""
        return len(self.objectives) - 1


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
    |g^T|^2, the conjugate transpose of g, f with |f| and |f|^2, sigma2 I
    over the relays, the device radii of both phases and ``QCQP_TOL`` scaled
    by the squared weight norm.
    """

    __slots__ = ("channels", "budget", "h", "rho", "sigma2", "r1", "r2", "tol",
                 "g2", "g_h", "f", "abs_f", "f2", "noise_eye")

    def __init__(self, channels: ChannelRealization, weights: DeviceWeights,
                 budget: PowerBudget, variant: SchemeVariant = SchemeVariant.FULL):
        self.channels, self.budget = channels, budget
        self.h, self.rho, self.sigma2 = channels.h, weights.rho, budget.sigma2
        self.r1, self.r2 = _radii(budget, variant)
        self.tol = QCQP_TOL * float(self.rho @ self.rho)
        self.g2, self.g_h = np.abs(channels.g.T) ** 2, channels.g.conj().T  # (N, K) each
        self.f, self.abs_f = channels.f, np.abs(channels.f)
        self.f2 = self.abs_f**2
        self.noise_eye = budget.sigma2 * np.eye(channels.num_relays)


def init_config(channels: ChannelRealization, weights: DeviceWeights,
                budget: PowerBudget,
                variant: SchemeVariant = SchemeVariant.FULL) -> TransceiverConfig:
    """The no-relay optimum at 2 * p0, split by the phase radii, with relays at full power.

    ``norelay_optimum`` gives the scalars (a, c) at the device power 2 * p0.
    Phase i takes the share s_i = r_i / sqrt(2 p0) of a, and c2 = s1 c,
    c1 = s2 c.  The FULL start (a1 = a2, c1 = c2) with b = 0 is that optimum;
    the relay-only start has a1 = a, c2 = c and a2 = c1 = 0.
    """
    a, c, _ = norelay_optimum(channels.h, weights, 2.0 * budget.p0, budget.sigma2)
    s1, s2 = (r / np.sqrt(2.0 * budget.p0) for r in _radii(budget, variant))
    a1, a2, c1, c2 = s1 * a, s2 * a, s2 * c, s1 * c
    b = np.sqrt(budget.pr / relay_input_power(channels, a1, budget.sigma2)).astype(complex)
    return TransceiverConfig(a1=a1, a2=a2, b=b, c1=c1, c2=c2)


def _clamp_disc(a: np.ndarray, radius: float) -> np.ndarray:
    """Project each entry onto the disc of the given radius."""
    if radius <= 0:
        return np.zeros_like(a)
    return a * (radius / np.maximum(np.abs(a), radius))


def _transmit_scalars(copy, coef, linked, dead):
    """Scalars a with coef * a = copy where `linked`, `dead` elsewhere.

    `linked` None means every scalar is linked; `dead` is then not read.
    """
    if linked is None:
        return copy / coef
    return np.divide(copy, coef, out=np.array(dead, dtype=complex), where=linked)


def _bounded_newton_step(lam, rhs, system):
    """Step solving system @ step = -rhs for lam >= 0 that keeps lam + step >= 0.

    Multipliers at zero whose right-hand side points down stay put; a
    multiplier the step would push below zero is pinned there and the rest
    re-solved.  Singular systems take the least-norm step.
    """
    if lam.size == 1:  # one multiplier: a scalar equation, no active set
        free = lam[0] > 0 or rhs[0] > 0
        step = -rhs / system[0] if free and system[0, 0] else np.zeros(1)
        return np.maximum(step, -lam)
    free = (lam > 0) | (rhs > 0)
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


# The inner blocks' stop rule.  The device update's multiplier search has
# converged once its duality gap is at most QCQP_TOL times the squared weight
# norm, and the relay update's coordinate passes stop once a pass lowers the MSE
# by at most that much; each runs at most QCQP_MAX_ITER Newton iterations or
# passes.
QCQP_TOL = 1e-8
QCQP_MAX_ITER = 300


def update_device_scalars(problem: Problem, a1: np.ndarray, a2: np.ndarray, b: np.ndarray,
                          theta: np.ndarray, phi: np.ndarray):
    """Minimize the misalignment |theta a1 + phi a2 - rho|^2 over (a1, a2) with the
    other blocks fixed.

    theta = c1 h + c2 path and phi = c2 h are the per-device gains of a1 and
    a2 at the AP (``aggregation._combined_gains``).  Returns
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
    load is charged against the relay caps first.  The result is feasible.
    The multiplier search's result never has a larger objective than the
    input, in the objective's bits (``aggregation._misalignment_power``); the
    box-only and silent-phase-1 exits return unchecked and can be an ulp
    worse.  `converged` is False only if the duality gap could not be pushed
    below ``QCQP_TOL`` (relative to the squared weight norm) within
    ``QCQP_MAX_ITER`` Newton iterations.  With one relay, its cap and the
    box-only and silent-phase-1 tests are NumPy scalars, and the result has
    the bits of the array path (that of two relays, the second silent).
    """
    rho, r1, r2 = problem.rho, problem.r1, problem.r2
    pr, sigma2 = problem.budget.pr, problem.sigma2
    abs_th, abs_ph = np.abs(theta), np.abs(phi)
    th2, ph2 = abs_th**2, abs_ph**2
    w1, w2 = abs_th * r1, abs_ph * r2
    # Relay n bounds sum_k g2[n, k] |a1_k|^2 by radii_sq[n]; silent relays,
    # and relays whose |b_n|^2 is too small for pr / |b_n|^2 to be finite,
    # bound nothing.  Masks are built only when some entry is masked out.
    # One relay is held in scalars up to the multiplier search: g2 is its
    # (K,) row and radii_sq a float, infinite when the relay is silent.  |b|
    # comes from the array abs, which rounds unlike the scalar one.
    one = b.size == 1
    if one:
        size = np.abs(b)[0]
        b2 = size * size
        g2 = problem.g2[0]
        radii_sq = max(pr / b2 - sigma2, 0.0) if b2 > pr / _MAX else math.inf
    else:
        g2, b2 = problem.g2, np.abs(b) ** 2
        if not np.minimum.reduce(b2, initial=np.inf) > pr / _MAX:
            live = b2 > pr / _MAX
            g2, b2 = g2[live], b2[live]  # (Na, K), (Na,)
        radii_sq = np.maximum(pr / b2 - sigma2, 0.0)
    # A scalar whose coefficient is zero keeps its incoming value, feasible by
    # the solve-loop invariant and clamped to its box, on every exit; a
    # subnormal |theta_k|^2 counts as unlinked, since 1 / |theta_k|^2
    # overflows.  The unlinked devices' phase-1 load is charged first.
    if np.minimum.reduce(th2) >= _TINY:
        linked1 = dead1 = None
        th2_den, inv_th2 = th2, 1.0 / th2
    else:
        linked1, dead1 = th2 >= _TINY, _clamp_disc(a1, r1)
        th2 = np.where(linked1, th2, 0.0)
        th2_den = np.where(linked1, th2, 1.0)
        inv_th2 = linked1 / th2_den
        radii_sq = radii_sq - g2 @ np.where(linked1, 0.0, np.abs(dead1) ** 2)
    linked2 = dead2 = None
    if not np.minimum.reduce(ph2) > 0:
        linked2, dead2 = ph2 > 0, _clamp_disc(a2, r2)

    direct = np.minimum(rho, w2)  # the free direct copy carries all it can
    short = rho - direct  # and the relayed copy the rest
    new2 = _transmit_scalars(direct, phi, linked2, dead2)
    # lam = 0: the box-only optimum; if every relay fits it, it solves the dual.
    u = np.minimum(short, w1)
    fits = g2 @ (u * u * inv_th2) <= radii_sq
    if fits if one else np.logical_and.reduce(fits):
        return _transmit_scalars(u, theta, linked1, dead1), new2, True
    spent = radii_sq <= 0
    if spent if one else np.logical_or.reduce(spent):
        # A relay already spends its whole budget on forwarded noise and the
        # unlinked devices; phase-1 transmission must stop entirely.
        return _transmit_scalars(np.zeros(rho.size), theta, linked1, dead1), new2, True
    if one:  # the multiplier search takes (1, K) and (1,) arrays
        g2, radii_sq = problem.g2, np.full(1, radii_sq)

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
        lam[n] = np.maximum.reduce(breaks[h_at > 0], initial=0.0)
    base, base_dual, damping = lam, -np.inf, 0.0
    best_gap = np.inf
    best = np.zeros(rho.size)  # a silent phase 1 is always feasible
    converged = False
    for _ in range(QCQP_MAX_ITER):
        mu = lam @ g2
        denom = th2_den + mu
        u = np.minimum(gain / denom, w1)
        power = u * u * inv_th2
        h = g2 @ power - radii_sq
        err = short - u
        dual = float(err @ err + lam @ h)
        # Nearest feasible point: shrink every relayed copy until all relays
        # fit; the direct copy already carries all it can.
        feasible = u * np.sqrt(np.minimum.reduce(radii_sq / (radii_sq + np.maximum(h, 0.0))))
        err = short - feasible
        gap = float(err @ err) - dual
        if gap < best_gap:
            best_gap, best = gap, feasible
        if best_gap <= gap_tol:
            # One more Newton step from inside the tolerance lands on the
            # root to rounding, so the result does not depend on QCQP_TOL.
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
            everywhere = np.logical_and.reduce(secular)
            ratio = free_power / (target if everywhere else np.where(secular, target, 1.0))
            rhs = 2.0 * free_power * (np.sqrt(ratio) - 1.0)
            if not everywhere:
                rhs = np.where(secular, rhs, h)
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
        if np.logical_and.reduce(cand == lam):
            break
        lam = cand
    new1 = _transmit_scalars(best, theta, linked1, dead1)

    # Never return anything worse than the incoming point, even when the
    # multiplier search exits early or its point is not finite.
    incoming1, incoming2 = _clamp_disc(a1, r1), _clamp_disc(a2, r2)
    if not (_misalignment_power(theta, phi, new1, new2, rho)
            <= _misalignment_power(theta, phi, incoming1, incoming2, rho)):
        return incoming1, incoming2, converged
    return new1, new2, converged


def update_relay_scalars(problem: Problem, a1: np.ndarray, a2: np.ndarray, b: np.ndarray,
                         c1: complex, c2: complex) -> np.ndarray:
    """Minimize the MSE over the relay scalars b with the other blocks fixed.

    In x = f * b the objective is
    |c2|^2 (x^H M x - 2 Re q^H x) + const with M = G^H diag|a1|^2 G + sigma2 I
    positive definite, and relay n's power cap reads |x_n|^2 <= |f_n|^2 pr / load_n,
    load_n = sum_k |g_kn|^2 |a1_k|^2 + sigma2 its input power.  One relay is
    solved in closed form, in scalars: M is its input power, q one dot
    product, and the stationary point q / M, scaled radially onto the disc
    when it lies outside, is the exact minimizer.  With more relays the
    stationary point M^-1 q is returned when it fits every cap.  Otherwise
    the relays, starting from the feasible incoming b, take turns at their own
    exact minimizer with the others fixed: the stationary point along x_n,
    scaled radially onto the cap.  Every pass descends and stays feasible; the
    passes stop once one lowers the MSE by at most ``QCQP_TOL`` times the
    squared weight norm, or after ``QCQP_MAX_ITER`` passes.
    """
    if c2 == 0:
        raise ValueError("relay update requires a nonzero phase-2 receive scalar")
    g, f, pr = problem.channels.g, problem.f, problem.budget.pr
    pow1 = np.abs(a1) ** 2
    residual = problem.rho - problem.h * (c1 * a1 + c2 * a2)
    if f.size == 1:
        load = problem.g2[0] @ pow1 + problem.sigma2
        x = np.vdot(g[:, 0], residual * np.conj(a1)) / (c2 * load)
        bound, size = problem.f2[0] * pr / load, abs(x)
        if size * size > bound:
            x = x * (math.sqrt(bound) / size)
        return x / f
    g_h = problem.g_h
    m = (g_h * pow1) @ g + problem.noise_eye
    q = g_h @ (residual * np.conj(a1)) / c2
    cap = pr / (problem.g2 @ pow1 + problem.sigma2)  # pr / load
    radius = problem.abs_f * np.sqrt(cap)

    x = np.linalg.solve(m, q)
    if not np.logical_and.reduce(np.abs(x) <= radius):
        x = f * b
        diag = m.diagonal().real
        weight = abs(c2) ** 2
        for _ in range(QCQP_MAX_ITER):
            drop = 0.0
            for n in range(x.size):
                s = x[n] + (q[n] - m[n] @ x) / diag[n]
                size = abs(s)
                new = s if size <= radius[n] else s * (radius[n] / size)
                drop += diag[n] * (abs(x[n] - s) ** 2 - abs(new - s) ** 2)
                x[n] = new
            if weight * drop <= problem.tol:
                break
    return x / f


def _wiener(residual: np.ndarray, gain: np.ndarray, noise: float) -> np.complex128:
    """Receive scalar minimizing sum_k |residual_k - c gain_k|^2 + |c|^2 noise."""
    return np.vdot(gain, residual) / (np.vdot(gain, gain).real + noise)


def update_c1(problem: Problem, phase1: np.ndarray, c2: complex,
              phase2: np.ndarray) -> np.complex128:
    """Exact minimizer of the MSE over the phase-1 receive scalar.

    `phase1` is the phase-1 gain h * a1 and `phase2` the phase-2 gain
    h * a2 + a1 * path; `update_c2` shares both.
    """
    return _wiener(problem.rho - c2 * phase2, phase1, problem.sigma2)


def update_c2(problem: Problem, phase1: np.ndarray, c1: complex, phase2: np.ndarray,
              forwarded: float) -> np.complex128:
    """Exact minimizer of the MSE over the phase-2 receive scalar.

    `forwarded` is the forwarded-noise gain of ``aggregation.relay_gains``.
    """
    return _wiener(problem.rho - c1 * phase1, phase2, (1.0 + forwarded) * problem.sigma2)


def solve(channels: ChannelRealization, weights: DeviceWeights, budget: PowerBudget,
          solver_cfg: SolverConfig, variant: SchemeVariant = SchemeVariant.FULL,
          warm_start: TransceiverConfig | None = None):
    """Run the alternating minimization until the relative improvement drops below
    epsilon or the sweep limit is reached.

    Returns (config, trace).  The trace objective sequence starts at the
    initial configuration and is non-increasing up to the rounding of the
    closed-form relay and receive blocks, because each block update minimizes
    the MSE over its block and keeps every power constraint; the device
    block's never-worse check reads the objective's own bits.  For
    the relay-only variant a2 and c1 are pinned at zero and phase 1 carries
    the full device budget.

    The scalars live in plain arrays until the one config built on exit, and
    each product of the sweep state (module docstring) is formed once per
    sweep.  Every objective is ``aggregation.transceiver_mse``, the formula
    ``relay_mse`` evaluates, at a sweep state: the first at the start's, with
    the same bits as ``relay_mse`` of the starting config, and each later one
    at its sweep's, so the last one equals ``relay_mse`` of the returned
    config exactly.
    """
    relay_only = variant is SchemeVariant.RELAY_ONLY
    config = warm_start if warm_start is not None else init_config(
        channels, weights, budget, variant)
    if relay_only:
        config = replace(config, a2=np.zeros_like(config.a2), c1=0.0 + 0.0j)
    # NumPy receive scalars: a Python complex is converted on every array operation.
    a1, a2, b = config.a1, config.a2, config.b
    c1, c2 = np.complex128(config.c1), np.complex128(config.c2)
    problem = Problem(channels, weights, budget, variant)
    h, rho, sigma2 = problem.h, problem.rho, problem.sigma2
    path, forwarded = relay_gains(channels, b)
    theta, phi = _combined_gains(c1, c2, h, path)

    warnings: list[str] = []
    # The config's Python receive scalars, as relay_mse takes them: on overflow
    # abs(c2) ** 2 then raises OverflowError or gives inf, not FloatingPointError.
    objectives = [transceiver_mse(theta, phi, a1, a2, config.c1, config.c2, forwarded,
                                  rho, sigma2)]
    terminated = "max_iterations"
    for iterations in range(1, solver_cfg.j_max + 1):
        a1, a2, inner_ok = update_device_scalars(problem, a1, a2, b, theta, phi)
        if not inner_ok:
            warnings.append(f"sweep {iterations}: device QCQP gap above tolerance at exit")

        if c2 != 0:
            b = update_relay_scalars(problem, a1, a2, b, c1, c2)
            path, forwarded = relay_gains(channels, b)

        phase1, phase2 = h * a1, h * a2 + a1 * path
        if not relay_only:
            c1 = update_c1(problem, phase1, c2, phase2)
        c2 = update_c2(problem, phase1, c1, phase2, forwarded)

        theta, phi = _combined_gains(c1, c2, h, path)
        objectives.append(transceiver_mse(theta, phi, a1, a2, c1, c2, forwarded, rho, sigma2))
        improvement = abs(objectives[-1] - objectives[-2]) / max(abs(objectives[-1]), 1e-300)
        if improvement <= solver_cfg.epsilon:
            terminated = "converged"
            break

    trace = SolverTrace(objectives=np.asarray(objectives), terminated_by=terminated,
                        warnings=tuple(warnings))
    return TransceiverConfig(a1=a1, a2=a2, b=b, c1=c1, c2=c2), trace
