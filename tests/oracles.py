"""Independent reference computations shared by the unit and acceptance tests.

The oracles are deliberately decoupled from the package's closed forms:
brute-force searches, bisection on feasibility predicates, and off-the-shelf
constrained optimization.  Two kinds of helper are not: the test-side
helper `summarize`, and the block adapters at the end, which call the
package's block updates at a TransceiverConfig; `solve_reference` strings
them into the per-block loop that `optimizer.solve` is compared with.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from relayfl.aggregation import (
    DeviceWeights,
    PowerBudget,
    TransceiverConfig,
    _combined_gains,
    relay_gains,
    relay_mse,
)
from relayfl.geometry import ChannelRealization, _complex_normal, stream
from relayfl.optimizer import (
    Problem,
    SchemeVariant,
    SolverTrace,
    init_config,
    update_c1,
    update_c2,
    update_device_scalars,
    update_relay_scalars,
)


def norelay_objective(a, c, h, rho, sigma2):
    """Direct evaluation of the single-phase error: misalignment plus scaled noise."""
    return float(np.sum(np.abs(c * h * a - rho) ** 2) + abs(c) ** 2 * sigma2)


def norelay_oracle(h, rho, p0_total, sigma2):
    """Brute-force optimum of the single-phase scheme under its alignment rule.

    The scheme requires every device's copy to land exactly on its weight
    (c * h_k * a_k = rho_k), so the only freedom is the receive magnitude.
    Feasibility of a given magnitude is checked device by device against the
    power cap; bisection finds the smallest feasible magnitude and the
    objective is evaluated directly at the recovered scalars.  The
    unrestricted minimum of the error expression is strictly smaller (a small
    receive scale trades misalignment for noise), but that operating point is
    outside this scheme.
    """
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=float)

    def feasible(t):
        a = rho / (t * h)
        return bool(np.all(np.abs(a) ** 2 <= p0_total))

    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
    lo = hi / 2.0
    while feasible(lo):
        lo /= 2.0
        if lo < 1e-300:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    t = hi
    return norelay_objective(rho / (t * h), t, h, rho, sigma2)


def rayleigh_channels(rng, num_devices, num_relays):
    """Unit-variance Rayleigh fading on every link: h, then g, then f from `rng`.

    With no relays only h takes draws, so ``rayleigh_channels(rng, k, 0).h``
    is a bare device-to-AP draw.
    """
    k, n = num_devices, num_relays
    return ChannelRealization(h=_complex_normal(rng, k), g=_complex_normal(rng, (k, n)),
                              f=_complex_normal(rng, n))


def random_feasible_setup(seed, num_devices, num_relays):
    """Random channels plus a random strictly feasible transceiver configuration."""
    rng = stream(seed)
    k, n = num_devices, num_relays
    ch = rayleigh_channels(rng, k, n)
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


def _disc_constraint(radius_sq, re, im):
    """SLSQP inequality radius_sq - z[re]^2 - z[im]^2 >= 0 with its exact gradient."""
    def jac(z):
        grad = np.zeros(z.size)
        grad[re], grad[im] = -2.0 * z[re], -2.0 * z[im]
        return grad

    return {"type": "ineq", "fun": lambda z: radius_sq - (z[re] ** 2 + z[im] ** 2),
            "jac": jac}


def device_update_oracle(config, ch, weights, budget, phase1_budget=None,
                         restarts=16, seed=0):
    """SLSQP multistart on the device subproblem, independent of the package solver.

    The objective and every constraint are quadratics in the real and
    imaginary parts of (a1, a2), so SLSQP gets their exact gradients.
    """
    k = ch.num_devices
    p1 = budget.p0 if phase1_budget is None else phase1_budget
    relay_path = ch.g @ (ch.f * config.b) if config.b.size else np.zeros(k)
    theta = config.c1 * ch.h + config.c2 * relay_path
    phi = config.c2 * ch.h

    def unpack(z):
        a1 = z[:k] + 1j * z[k:2 * k]
        a2 = z[2 * k:3 * k] + 1j * z[3 * k:]
        return a1, a2

    def objective(z):
        a1, a2 = unpack(z)
        return float(np.sum(np.abs(theta * a1 + phi * a2 - weights.rho) ** 2))

    def gradient(z):
        # d|e|^2 / dx = 2 Re(conj(e) de/dx), with de/d(Re a) = gain, de/d(Im a) = 1j gain
        a1, a2 = unpack(z)
        err = np.conj(theta * a1 + phi * a2 - weights.rho)
        return 2.0 * np.concatenate([(err * theta).real, (1j * err * theta).real,
                                     (err * phi).real, (1j * err * phi).real])

    constraints = []
    for i in range(k):
        constraints.append(_disc_constraint(p1, i, k + i))
        constraints.append(_disc_constraint(budget.p0, 2 * k + i, 3 * k + i))
    for n in range(config.b.size):
        if config.b[n] == 0:
            continue
        w = np.abs(ch.g[:, n]) ** 2
        cap = budget.pr / abs(config.b[n]) ** 2 - budget.sigma2
        constraints.append({"type": "ineq", "fun": lambda z, w=w, cap=cap:
                            cap - float(w @ (z[:k] ** 2 + z[k:2 * k] ** 2)),
                            "jac": lambda z, w=w: np.concatenate(
                                [-2.0 * w * z[:k], -2.0 * w * z[k:2 * k], np.zeros(2 * k)])})

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        start = 0.2 * np.sqrt(min(p1, budget.p0)) * rng.standard_normal(4 * k)
        res = minimize(objective, start, method="SLSQP", jac=gradient,
                       constraints=constraints, options={"maxiter": 400, "ftol": 1e-14})
        if res.success:
            z = res.x
            if all(c["fun"](z) >= -1e-10 for c in constraints):
                best = min(best, objective(z))
    return best


def relay_update_oracle(config, ch, weights, budget, restarts=16, seed=0):
    """SLSQP multistart on the relay subproblem, independent of the package solver.

    Minimizes the full two-phase MSE over b with a1, a2, c1 and c2 fixed,
    subject to |b_n|^2 (sum_k |g_kn|^2 |a1_k|^2 + sigma2) <= pr for each relay.
    The search variables are b_n / sqrt(cap_n), so every constraint is the
    unit disc.  SLSQP gets the exact gradients of the objective and the discs.
    """
    n = ch.num_relays
    fixed = config.c1 * ch.h * config.a1 + config.c2 * ch.h * config.a2
    caps = budget.pr / ((np.abs(ch.g) ** 2).T @ (np.abs(config.a1) ** 2) + budget.sigma2)
    scale = ch.f * np.sqrt(caps)  # fb = scale * (z[:n] + 1j z[n:])
    # d misalign / d Re(z_n): column n of c2 a1 g diag(scale)
    slope = config.c2 * config.a1[:, None] * ch.g * scale
    noise_weight = abs(config.c2) ** 2 * budget.sigma2

    def objective(z):
        fb = scale * (z[:n] + 1j * z[n:])
        misalign = fixed + config.c2 * config.a1 * (ch.g @ fb) - weights.rho
        noise = abs(config.c1) ** 2 + abs(config.c2) ** 2 * (1.0 + np.sum(np.abs(fb) ** 2))
        return float(np.sum(np.abs(misalign) ** 2) + noise * budget.sigma2)

    def gradient(z):
        fb = scale * (z[:n] + 1j * z[n:])
        misalign = fixed + config.c2 * config.a1 * (ch.g @ fb) - weights.rho
        d = np.conj(misalign) @ slope + noise_weight * np.conj(fb) * scale
        return 2.0 * np.concatenate([d.real, (1j * d).real])

    constraints = [_disc_constraint(1.0, i, n + i) for i in range(n)]
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        start = rng.uniform(-0.7, 0.7, 2 * n)
        res = minimize(objective, start, method="SLSQP", jac=gradient,
                       constraints=constraints, options={"maxiter": 400, "ftol": 1e-14})
        if res.success and all(c["fun"](res.x) >= -1e-10 for c in constraints):
            best = min(best, objective(res.x))
    return best


def local_update_reference(w, task, device_indices, tau, lr):
    """One device's model change after tau full-batch softmax-regression steps.

    Written per device with 2-D arrays only, in the operation order of the
    package's batched kernel, which steps the logits rather than the weights:
    class-major logits L = W xᵀ (C, n); per step the residual R (max and sum
    over the class axis, label entries minus one) joins the running sum E,
    and all steps but the last take L - (lr/n) R x xᵀ, through the Gram
    matrix x xᵀ when tau >= 2 and n < 2 (d + 1) and as (R x) xᵀ otherwise.
    The change is -(lr/n) E x.
    """
    x = np.column_stack([task.train_features[device_indices], np.ones(len(device_indices))])
    labels = task.train_labels[device_indices]
    n, cols = x.shape
    step = lr / n
    gram = x @ x.T if tau > 1 and n < 2 * cols else None
    logits = w.reshape(task.num_classes, cols) @ x.T
    total = np.zeros_like(logits)
    for t in range(tau):
        e = np.exp(logits - logits.max(axis=0))
        residual = e / e.sum(axis=0)
        residual[labels, np.arange(n)] -= 1.0
        total = total + residual
        if t < tau - 1:
            product = residual @ x @ x.T if gram is None else residual @ gram
            logits = logits - step * product
    return (total @ x).reshape(-1) * -step


def local_update_row_major(w, task, device_indices, tau, lr):
    """The same model change with sample-major logits (n, C) and row softmax,
    whose class sum NumPy groups pairwise for C >= 8."""
    x = np.column_stack([task.train_features[device_indices], np.ones(len(device_indices))])
    labels = task.train_labels[device_indices]
    w_local = w.copy()
    for _ in range(tau):
        logits = x @ w_local.reshape(task.num_classes, x.shape[1]).T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        probs[np.arange(labels.size), labels] -= 1.0
        w_local = w_local - lr * ((probs.T @ x).reshape(-1) / labels.size)
    return w_local - w


def cross_entropy_gradient(w, features, labels, num_classes):
    """Mean cross-entropy gradient for flattened softmax-regression weights, written directly."""
    x = np.column_stack([features, np.ones(labels.size)])
    logits = x @ w.reshape(num_classes, x.shape[1]).T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    probs[np.arange(labels.size), labels] -= 1.0
    return (probs.T @ x).reshape(-1) / labels.size


def cross_entropy_loss(w, features, labels, num_classes):
    """Mean cross-entropy of flattened softmax-regression weights, written directly."""
    x = np.column_stack([features, np.ones(labels.size)])
    logits = x @ w.reshape(num_classes, x.shape[1]).T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return float(-np.mean(np.log(probs[np.arange(labels.size), labels] + 1e-300)))


def summarize(rows, column, final_round_only=False):
    """Mean and standard error of one CSV column per sweep value (over trials/rounds)."""
    if final_round_only:
        last = {}
        for row in rows:
            key = (row["sweep_value"], row["trial"])
            if key not in last or row["round"] > last[key]["round"]:
                last[key] = row
        rows = list(last.values())
    grouped = {}
    for row in rows:
        if row[column] is None:
            continue
        grouped.setdefault(row["sweep_value"], []).append(float(row[column]))
    out = {}
    for value, xs in grouped.items():
        arr = np.asarray(xs)
        if arr.size > 1 and np.all(np.isfinite(arr)):
            stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))
        else:
            stderr = float("nan") if not np.all(np.isfinite(arr)) else 0.0
        out[value] = {"mean": float(arr.mean()), "stderr": stderr, "count": arr.size}
    return out


def mse_reference(config, ch, weights, sigma2):
    """The aggregation MSE written term by term from the config.

    |c1 h a1 + c2 h a2 + c2 a1 path - rho|^2 summed with ``np.sum``, plus
    the receive noise amplified by |c1|^2 + |c2|^2 (1 + sum_n |f_n b_n|^2).
    """
    fb = ch.f * config.b
    path = ch.g @ fb
    misalign = (config.c1 * ch.h * config.a1 + config.c2 * ch.h * config.a2
                + config.c2 * config.a1 * path - weights.rho)
    noise = abs(config.c1) ** 2 + abs(config.c2) ** 2 * (1.0 + np.sum(np.abs(fb) ** 2))
    return float(np.sum(np.abs(misalign) ** 2) + noise * sigma2)


def fd_complex_gradient(fun, value, eps=1e-6):
    """Central finite-difference Wirtinger-style gradient of a real function."""
    real = (fun(value + eps) - fun(value - eps)) / (2 * eps)
    imag = (fun(value + 1j * eps) - fun(value - 1j * eps)) / (2 * eps)
    return complex(real, imag)


def single_relay_instance(seed, num_devices=None, enforce_conditions=False):
    """Random single-relay draw; optionally rescale so both bound conditions hold.

    Enforcement scales the device-relay gains up until the worst relay link is
    at least as strong as the worst direct link, then sets the relay power at
    or above the second condition's threshold with a random margin.
    """
    rng = stream(seed)
    k = int(rng.integers(2, 7)) if num_devices is None else num_devices
    ch = rayleigh_channels(rng, k, 1)
    h, g, f = ch.h, ch.g[:, 0], complex(ch.f[0])
    p0 = float(rng.uniform(0.2, 2.0))
    sigma2 = float(rng.uniform(0.01, 0.5))
    pr = float(rng.uniform(0.2, 5.0))
    if enforce_conditions:
        h2_min = float(np.min(np.abs(h) ** 2))
        g2_min = float(np.min(np.abs(g) ** 2))
        if h2_min > g2_min:
            g = g * np.sqrt(h2_min / g2_min) * (1.0 + rng.uniform(0.0, 1.0))
            g2_min = float(np.min(np.abs(g) ** 2))
        delta = h2_min / g2_min
        worst_snr = p0 * h2_min / sigma2
        threshold = (k * worst_snr + delta) / (1.0 + np.sqrt(2.0 - 2.0 * delta)) ** 2
        pr = threshold * sigma2 / abs(f) ** 2 * (1.0 + rng.uniform(0.0, 3.0))
    channels = ChannelRealization(h=h, g=g.reshape(k, 1), f=[f])
    return channels, DeviceWeights.uniform(k), PowerBudget(p0=p0, pr=pr, sigma2=sigma2)


def device_block(config, ch, weights, budget, variant=SchemeVariant.FULL):
    """``update_device_scalars`` at a config: (a1, a2, converged)."""
    path, _ = relay_gains(ch, config.b)
    theta, phi = _combined_gains(config.c1, config.c2, ch.h, path)
    return update_device_scalars(Problem(ch, weights, budget, variant),
                                 config.a1, config.a2, config.b, theta, phi)


def relay_block(config, ch, weights, budget):
    """``update_relay_scalars`` at a config: the new b."""
    return update_relay_scalars(Problem(ch, weights, budget),
                                config.a1, config.a2, config.b, config.c1, config.c2)


def _phase_gains(config, ch):
    path, forwarded = relay_gains(ch, config.b)
    return ch.h * config.a1, ch.h * config.a2 + config.a1 * path, forwarded


def c1_block(config, ch, weights, budget):
    """``update_c1`` at a config: the new c1."""
    phase1, phase2, _ = _phase_gains(config, ch)
    return update_c1(Problem(ch, weights, budget), phase1, config.c2, phase2)


def c2_block(config, ch, weights, budget):
    """``update_c2`` at a config: the new c2."""
    phase1, phase2, forwarded = _phase_gains(config, ch)
    return update_c2(Problem(ch, weights, budget), phase1, config.c1,
                     phase2, forwarded)


def solve_reference(channels, weights, budget, solver_cfg, variant=SchemeVariant.FULL,
                    warm_start=None):
    """The alternating minimization written block by block on ``TransceiverConfig``.

    The same sweep as ``optimizer.solve`` through the same public block
    updates, but every block starts from the current config: each one builds
    its own ``Problem``, recomputes the relay path, the forwarded-noise gain
    and the products of the sweep state (theta, phi, h a1), and leaves a new config made with ``replace``; the objective is
    ``relay_mse``.  ``solve`` must return the same bits.
    """
    relay_only = variant is SchemeVariant.RELAY_ONLY
    config = warm_start if warm_start is not None else init_config(
        channels, weights, budget, variant)
    if relay_only:
        config = replace(config, a2=np.zeros_like(config.a2), c1=0.0 + 0.0j)
    warnings = []
    objectives = [relay_mse(config, channels, weights, budget.sigma2)]
    terminated = "max_iterations"
    for sweep in range(1, solver_cfg.j_max + 1):
        a1, a2, converged = device_block(config, channels, weights, budget, variant)
        if not converged:
            warnings.append(f"sweep {sweep}: device QCQP gap above tolerance at exit")
        config = replace(config, a1=a1, a2=a2)
        if channels.num_relays and config.c2 != 0:
            config = replace(config, b=relay_block(config, channels, weights, budget))
        if not relay_only:
            config = replace(config, c1=c1_block(config, channels, weights, budget))
        config = replace(config, c2=c2_block(config, channels, weights, budget))
        objectives.append(relay_mse(config, channels, weights, budget.sigma2))
        if (abs(objectives[-1] - objectives[-2]) / max(abs(objectives[-1]), 1e-300)
                <= solver_cfg.epsilon):
            terminated = "converged"
            break
    return config, SolverTrace(objectives=np.asarray(objectives), terminated_by=terminated,
                               warnings=tuple(warnings))
