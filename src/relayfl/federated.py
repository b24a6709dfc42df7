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


@dataclass(frozen=True)
class LrSchedule:
    """Stepwise-decayed learning rate with a floor: max(base * decay^(t // step), floor)."""

    base: float = 0.05
    decay: float = 0.9
    step: int = 50
    floor: float = 1e-5

    def __call__(self, round_index: int) -> float:
        return max(self.base * self.decay ** (round_index // self.step), self.floor)


@dataclass
class TrainingState:
    """Mutable state of one federated run: global model, round counter, step sizes."""

    w: np.ndarray
    round: int = 0
    lr: float = 0.05
    tau: int = 1

    def __post_init__(self):
        if self.lr <= 0 or self.tau < 1:
            raise ValueError("lr must be positive and tau at least 1")


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    blocks_used: int
    nmse_db: float
    test_accuracy: float
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
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _augment(features: np.ndarray) -> np.ndarray:
    return np.column_stack([features, np.ones(features.shape[0])])


def cross_entropy_gradient(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                           num_classes: int) -> np.ndarray:
    """Mean cross-entropy gradient for flattened softmax-regression weights."""
    x = _augment(features)
    mat = w.reshape(num_classes, x.shape[1])
    probs = _softmax(x @ mat.T)
    probs[np.arange(labels.size), labels] -= 1.0
    return (probs.T @ x).reshape(-1) / labels.size


def cross_entropy_loss(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                       num_classes: int) -> float:
    x = _augment(features)
    mat = w.reshape(num_classes, x.shape[1])
    probs = _softmax(x @ mat.T)
    return float(-np.mean(np.log(probs[np.arange(labels.size), labels] + 1e-300)))


def local_update(w: np.ndarray, task: LearningTask, device_indices: np.ndarray,
                 tau: int, lr: float) -> np.ndarray:
    """Cumulative model change after tau full-batch gradient steps on local data."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    feats = task.train_features[device_indices]
    labels = task.train_labels[device_indices]
    w_local = w.copy()
    for _ in range(tau):
        w_local = w_local - lr * cross_entropy_gradient(w_local, feats, labels,
                                                        task.num_classes)
    return w_local - w


def global_update(w: np.ndarray, aggregate_estimate: np.ndarray) -> np.ndarray:
    return w + aggregate_estimate


def nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Squared error of the estimate normalized by the squared norm of the truth.

    Returns NaN when the truth is exactly zero (the ratio is undefined).
    """
    denom = float(np.sum(np.asarray(truth, dtype=float) ** 2))
    if denom == 0.0:
        return float("nan")
    err = float(np.sum((np.asarray(estimate, dtype=float) - truth) ** 2))
    return err / denom


def nmse_db(value: float) -> float:
    if np.isnan(value):
        return float("nan")
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
          csi_kappa: float | None = None, tau: int = 1,
          return_final_state: bool = False):
    """Run federated averaging until the transmission-block budget is spent.

    One round: broadcast the model (ideal), compute local changes, normalize
    them to unit symbols, draw a fresh block-fading realization, configure the
    scheme's transceivers, push the symbols through the channel, denormalize,
    and apply the estimated weighted sum to the global model.  With a CSI
    error level set, the optimizer sees the perturbed channels while the air
    interface uses the true ones.
    """
    if total_blocks < 1:
        raise ValueError("total_blocks must be at least 1")
    if layout.num_devices != partition.num_devices:
        raise ValueError("layout and partition disagree on the device count")
    weights = agg.DeviceWeights.from_counts(partition.sizes())
    bpr = blocks_per_round(scheme)
    num_rounds = total_blocks // bpr
    gains = geometry.path_gain_profile(layout, pl_params)
    dim = task.model_dim
    state = TrainingState(w=np.zeros(dim), round=0, lr=schedule(1), tau=tau)
    metrics: list[RoundMetrics] = []

    for t in range(1, num_rounds + 1):
        state.round = t
        state.lr = schedule(t)
        w, lr = state.w, state.lr
        deltas = np.stack([
            local_update(w, task, idx, tau=state.tau, lr=lr)
            for idx in partition.assignments
        ])
        truth = weights.rho @ deltas
        channels = geometry.realize_channels(layout, pl_params, rng)
        perceived = channels if csi_kappa is None else geometry.perturb_channels(
            channels, gains, csi_kappa, rng)

        locals_ = [agg.compute_local_stats(d) for d in deltas]
        g_mean, g_var = agg.compute_global_stats([m for m, _ in locals_],
                                                 [v for _, v in locals_], weights)
        round_warnings: tuple[str, ...] = ()

        if scheme == "error_free":
            estimate = truth
            mse_pred = 0.0
        elif g_var <= 0.0:
            # All devices produced the same constant change; the broadcast
            # statistic already carries it exactly, so nothing is transmitted.
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
            x_hat = agg.simulate_round(config, channels, symbols, budget.sigma2, rng)
            estimate = agg.denormalize(x_hat, g_mean, np.sqrt(g_var))
            mse_pred = agg.relay_mse(config, channels, weights, budget.sigma2)

        state.w = global_update(w, estimate)

        bound = cond40 = cond41 = None
        if channels.num_relays == 1:
            _, _, bound = agg.norelay_optimum(channels.h, weights, 2.0 * budget.p0,
                                              budget.sigma2)
            check = single_relay.check_theorem_conditions(
                single_relay.snr_summary(channels, budget), layout.num_devices)
            cond40, cond41 = check.cond_40, check.cond_41
        metrics.append(RoundMetrics(
            round=t, blocks_used=t * bpr, nmse_db=nmse_db(nmse(estimate, truth)),
            test_accuracy=evaluate_accuracy(state.w, task), mse_predicted=mse_pred,
            mse_norelay_bound=bound, cond40=cond40, cond41=cond41,
            warnings=round_warnings))
    if return_final_state:
        return metrics, state
    return metrics
