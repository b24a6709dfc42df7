"""Federated averaging over the air on a synthetic classification task.

The learning model is softmax regression with a bias column (convex, so the
error-free run is a clean reference trajectory).  Every aggregation scheme
shares the same local-update and bookkeeping code; they differ only in how the
weighted sum of model changes crosses the channel and how many transmission
blocks one round costs (relay schemes use two, the rest one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import aggregation as agg
from . import geometry, optimizer, single_relay

SCHEMES = ("proposed", "relay_only", "no_relay", "error_free")


@dataclass(frozen=True)
class LearningTask:
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    num_classes: int

    @property
    def feature_dim(self) -> int:
        return self.train_features.shape[1]

    @property
    def model_dim(self) -> int:
        return self.num_classes * (self.feature_dim + 1)


@dataclass(frozen=True)
class Partition:
    """Per-device index lists into the training set; disjoint and nonempty."""

    assignments: tuple

    def __post_init__(self):
        parts = tuple(np.asarray(a, dtype=int) for a in self.assignments)
        object.__setattr__(self, "assignments", parts)
        if not parts or any(p.size == 0 for p in parts):
            raise ValueError("every device needs at least one sample")
        all_idx = np.concatenate(parts)
        if np.unique(all_idx).size != all_idx.size:
            raise ValueError("device index sets overlap")

    @property
    def num_devices(self) -> int:
        return len(self.assignments)

    def sizes(self) -> np.ndarray:
        return np.array([p.size for p in self.assignments])

    def size_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(device positions, (G, n) index stack) for each distinct sample count n."""
        sizes = self.sizes()
        return [(members, np.stack([self.assignments[k] for k in members]))
                for members in (np.flatnonzero(sizes == n) for n in np.unique(sizes))]


@dataclass(frozen=True)
class LrSchedule:
    """Stepwise-decayed learning rate with a floor: max(base * decay^(t // step), floor)."""

    base: float = 0.05
    decay: float = 0.9
    step: int = 50
    floor: float = 1e-5

    def __call__(self, round_index: int) -> float:
        return max(self.base * self.decay ** (round_index // self.step), self.floor)


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    blocks_used: int
    nmse_db: float | None
    test_accuracy: float | None
    mse_predicted: float
    mse_norelay_bound: float | None = None
    cond40: bool | None = None
    cond41: bool | None = None
    warnings: tuple[str, ...] = ()


def train_size(num_samples: int) -> int:
    """Training share round(0.8 n) of the 80/20 split, in [1, n - 1]; 0 when n < 2.

    Integer arithmetic, so sample counts beyond the float range are safe to check."""
    return min(max(1, (4 * num_samples + 2) // 5), num_samples - 1)


def make_synthetic_task(num_classes: int, feature_dim: int, samples_per_class: int,
                        separation: float, rng: np.random.Generator) -> LearningTask:
    """Gaussian class clusters with unit spread and means `separation` from the origin.

    Returns a deterministic 80/20 train/test split of the shuffled samples.
    """
    if min(num_classes, feature_dim, samples_per_class) < 1 or separation <= 0:
        raise ValueError("task parameters must be positive")
    if num_classes * samples_per_class < 2:
        raise ValueError("task needs at least two samples for a train/test split")
    means = rng.standard_normal((num_classes, feature_dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    features = np.concatenate([
        means[c] + rng.standard_normal((samples_per_class, feature_dim))
        for c in range(num_classes)
    ])
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    order = rng.permutation(labels.size)
    features, labels = features[order], labels[order]
    split = train_size(labels.size)
    return LearningTask(train_features=features[:split], train_labels=labels[:split],
                        test_features=features[split:], test_labels=labels[split:],
                        num_classes=num_classes)


def partition_iid(task: LearningTask, num_devices: int,
                  rng: np.random.Generator) -> Partition:
    """Uniform random split into num_devices parts of floor(D / K) samples each."""
    total = task.train_labels.size
    if total < num_devices:
        raise ValueError("fewer training samples than devices")
    per_device = total // num_devices
    order = rng.permutation(total)
    parts = [order[k * per_device:(k + 1) * per_device] for k in range(num_devices)]
    return Partition(assignments=tuple(parts))


def partition_shards(task: LearningTask, num_devices: int, shards_per_device: int) -> Partition:
    """Label-sorted shards, `shards_per_device` per device, strided assignment.

    The training samples are sorted by label and cut into K * C contiguous
    shards (the last shard absorbs any remainder); device k takes shards
    k, k + K, k + 2K, ...  Small C concentrates few labels per device, while
    C equal to the class count spreads every class across all devices.
    """
    total = task.train_labels.size
    num_shards = num_devices * shards_per_device
    if shards_per_device < 1 or num_shards > total:
        raise ValueError("shard count must be positive and at most the sample count")
    order = np.argsort(task.train_labels, kind="stable")
    size = total // num_shards
    shards = [order[j * size:(j + 1) * size] for j in range(num_shards - 1)]
    shards.append(order[(num_shards - 1) * size:])
    parts = [np.concatenate([shards[k + j * num_devices] for j in range(shards_per_device)])
             for k in range(num_devices)]
    return Partition(assignments=tuple(parts))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax along the last axis, computed in place."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _augment(features: np.ndarray) -> np.ndarray:
    """Features (..., n, d) with a bias column of ones appended: (..., n, d + 1)."""
    return np.concatenate([features, np.ones(features.shape[:-1] + (1,))], axis=-1)


def _gradient(mat: np.ndarray, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient (..., C, d + 1) of weights `mat` on augmented
    features x (..., n, d + 1) with labels (..., n); one stacked matmul per product."""
    probs = _softmax(x @ mat.swapaxes(-1, -2))
    rows = probs.reshape(-1, probs.shape[-1])  # a view: probs is fresh and contiguous
    rows[np.arange(rows.shape[0]), labels.reshape(-1)] -= 1.0
    grad = probs.swapaxes(-1, -2) @ x
    grad /= labels.shape[-1]
    return grad


def cross_entropy_gradient(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                           num_classes: int) -> np.ndarray:
    """Mean cross-entropy gradient for flattened softmax-regression weights.

    Leading axes batch independent problems: w (..., C (d + 1)), features
    (..., n, d) and labels (..., n) give one gradient row per problem."""
    x = _augment(features)
    mat = w.reshape(w.shape[:-1] + (num_classes, x.shape[-1]))
    return _gradient(mat, x, labels).reshape(w.shape)


def cross_entropy_loss(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                       num_classes: int) -> float:
    x = _augment(features)
    mat = w.reshape(num_classes, x.shape[1])
    probs = _softmax(x @ mat.T)
    return float(-np.mean(np.log(probs[np.arange(labels.size), labels] + 1e-300)))


def local_update(w: np.ndarray, task: LearningTask, device_indices: np.ndarray,
                 tau: int, lr: float) -> np.ndarray:
    """Cumulative model change after tau full-batch gradient steps on local data.

    `device_indices` is one device's index list (n,) or a (G, n) stack of
    equal-length lists, one row per device.  The devices' features are
    gathered once and all G models take each step together as (G, C, d + 1)
    stacked matmuls; the result has one model-change row per device, (G,
    model_dim), or a single (model_dim,) vector for one index list.  Every
    device sees exactly the arithmetic of a step on its own.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    idx = np.asarray(device_indices)
    x = _augment(task.train_features[idx])
    labels = task.train_labels[idx]
    start = w.reshape(task.num_classes, x.shape[-1])
    mat = np.broadcast_to(start, idx.shape[:-1] + start.shape)
    for _ in range(tau):
        grad = _gradient(mat, x, labels)
        grad *= lr
        mat = np.subtract(mat, grad, out=grad)  # w - lr * grad, in the gradient's buffer
    return (mat - start).reshape(idx.shape[:-1] + (-1,))


def nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Squared error of the estimate normalized by the squared norm of the truth.

    Raises ZeroDivisionError when the truth is exactly zero (the ratio is
    undefined).
    """
    denom = float(np.sum(np.asarray(truth, dtype=float) ** 2))
    err = float(np.sum((np.asarray(estimate, dtype=float) - truth) ** 2))
    return err / denom


def nmse_db(value: float) -> float:
    if value == 0.0:
        return float("-inf")
    return 10.0 * np.log10(value)


def evaluate_accuracy(w: np.ndarray, task: LearningTask) -> float:
    x = _augment(task.test_features)
    mat = w.reshape(task.num_classes, x.shape[1])
    predicted = np.argmax(x @ mat.T, axis=1)
    return float(np.mean(predicted == task.test_labels))


def blocks_per_round(scheme: str) -> int:
    """Relay schemes spend two transmission blocks per round, the others one."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return 2 if scheme in ("proposed", "relay_only") else 1


def train(scheme: str, task: LearningTask, partition: Partition,
          layout: geometry.NodeLayout, pl_params: geometry.PathLossParams,
          budget: agg.PowerBudget, solver_cfg: optimizer.SolverConfig,
          schedule: LrSchedule, total_blocks: int, rng: np.random.Generator,
          csi_kappa: float | None = None, tau: int = 1):
    """Run federated averaging until the transmission-block budget is spent.

    One round: broadcast the model (ideal), compute local changes, normalize
    them to unit symbols, draw a fresh block-fading realization, configure the
    scheme's transceivers, push the symbols through the channel, denormalize,
    and apply the estimated weighted sum to the global model.  With a CSI
    error level set, the optimizer sees the perturbed channels while the air
    interface uses the true ones.  On single-relay layouts every round also
    carries the ``single_relay.theorem_certificate`` of the true channels.

    Returns (metrics, w): one RoundMetrics per round and the final model.
    """
    if total_blocks < 1:
        raise ValueError("total_blocks must be at least 1")
    if schedule(1) <= 0 or tau < 1:
        raise ValueError("lr must be positive and tau at least 1")
    if layout.num_devices != partition.num_devices:
        raise ValueError("layout and partition disagree on the device count")
    weights = agg.DeviceWeights.from_counts(partition.sizes())
    bpr = blocks_per_round(scheme)
    num_rounds = total_blocks // bpr
    gains = geometry.path_gain_profile(layout, pl_params)
    dim = task.model_dim
    groups = partition.size_groups()
    w = np.zeros(dim)
    metrics: list[RoundMetrics] = []

    for t in range(1, num_rounds + 1):
        lr = schedule(t)
        deltas = np.empty((partition.num_devices, dim))
        for members, indices in groups:
            deltas[members] = local_update(w, task, indices, tau=tau, lr=lr)
        truth = weights.rho @ deltas
        channels = geometry.realize_channels(layout, pl_params, rng)
        perceived = channels if csi_kappa is None else geometry.perturb_channels(
            channels, gains, csi_kappa, rng)

        g_mean, g_var = agg.compute_global_stats(*agg.compute_local_stats(deltas), weights)
        round_warnings: tuple[str, ...] = ()

        if scheme == "error_free":
            estimate = truth
            mse_pred = 0.0
        elif g_var <= 0.0:
            # Every device's change is constant, or so small that its variance
            # underflows to zero; the broadcast mean stands for all of them,
            # so nothing is transmitted.
            estimate = np.full(dim, g_mean)
            mse_pred = 0.0
        else:
            symbols = agg.normalize(deltas, g_mean, np.sqrt(g_var))
            if scheme == "no_relay":
                a, c, _ = agg.norelay_optimum(perceived.h, weights, 2.0 * budget.p0,
                                              budget.sigma2)
                config = agg.TransceiverConfig(
                    a1=a, a2=np.zeros_like(a),
                    b=np.zeros(channels.num_relays, dtype=complex), c1=c, c2=0.0)
            else:
                variant = (optimizer.SchemeVariant.FULL if scheme == "proposed"
                           else optimizer.SchemeVariant.RELAY_ONLY)
                config, trace = optimizer.solve(perceived, weights, budget,
                                                solver_cfg, variant)
                round_warnings = trace.warnings
            x_hat = agg.simulate_round(config, channels, symbols, budget.sigma2, rng).real
            estimate = agg.denormalize(x_hat, g_mean, np.sqrt(g_var))
            mse_pred = agg.relay_mse(config, channels, weights, budget.sigma2)

        w = w + estimate

        bound = cond40 = cond41 = None
        if channels.num_relays == 1:
            _, bound, cond40, cond41 = single_relay.theorem_certificate(
                channels, weights, budget)
        metrics.append(RoundMetrics(
            round=t, blocks_used=t * bpr, nmse_db=nmse_db(nmse(estimate, truth)),
            test_accuracy=evaluate_accuracy(w, task), mse_predicted=mse_pred,
            mse_norelay_bound=bound, cond40=cond40, cond41=cond41,
            warnings=round_warnings))
    return metrics, w
