"""Independent reference computations shared by the unit and acceptance tests.

Everything here is deliberately decoupled from the package's closed forms:
brute-force searches, bisection on feasibility predicates, and off-the-shelf
constrained optimization.
"""

import numpy as np
from scipy.optimize import minimize

from relayfl.aggregation import DeviceWeights, PowerBudget, TransceiverConfig
from relayfl.geometry import ChannelRealization, stream


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


def random_feasible_setup(seed, num_devices, num_relays):
    """Random channels plus a random strictly feasible transceiver configuration."""
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


def device_update_oracle(config, ch, weights, budget, phase1_budget=None,
                         restarts=16, seed=0):
    """SLSQP multistart on the device subproblem, independent of the package solver."""
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

    constraints = []
    for i in range(k):
        constraints.append({"type": "ineq",
                            "fun": lambda z, i=i: p1 - (z[i] ** 2 + z[k + i] ** 2)})
        constraints.append({"type": "ineq", "fun": lambda z, i=i:
                            budget.p0 - (z[2 * k + i] ** 2 + z[3 * k + i] ** 2)})
    for n in range(config.b.size):
        if config.b[n] == 0:
            continue
        w = np.abs(ch.g[:, n]) ** 2
        cap = budget.pr / abs(config.b[n]) ** 2 - budget.sigma2
        constraints.append({"type": "ineq", "fun": lambda z, w=w, cap=cap:
                            cap - float(w @ (z[:k] ** 2 + z[k:2 * k] ** 2))})

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        start = 0.2 * np.sqrt(min(p1, budget.p0)) * rng.standard_normal(4 * k)
        res = minimize(objective, start, method="SLSQP", constraints=constraints,
                       options={"maxiter": 400, "ftol": 1e-14})
        if res.success:
            z = res.x
            if all(c["fun"](z) >= -1e-10 for c in constraints):
                best = min(best, objective(z))
    return best


def local_update_reference(w, task, device_indices, tau, lr):
    """One device's model change after tau full-batch softmax-regression steps.

    Written per device with 2-D arrays only, in the operation order of the
    package's batched kernel: row softmax, label entries minus one, then
    (probs^T x) / n and w - lr * grad.
    """
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
    h = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(0.5)
    g = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(0.5)
    f = complex(rng.standard_normal() + 1j * rng.standard_normal()) * np.sqrt(0.5)
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
