"""Federated averaging over the air on a synthetic classification task.

The learning model is softmax regression with a bias column (convex, so the
error-free run is a clean reference trajectory).  Every aggregation scheme
shares the same local-update and bookkeeping code; they differ only in how the
weighted sum of model changes crosses the channel and how many transmission
blocks one round costs (relay schemes use two, the rest one).

`train` gathers each trial's samples once: one `DeviceData` stack per group
of devices with equal sample counts, and one for the test set.  The local
steps run class-major, on (C, ..., n) logits, which each step moves through
the devices' Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    def train_data(self, device_indices: np.ndarray) -> DeviceData:
        """Training samples of one device's index list (n,) or a (G, n) stack."""
        idx = np.asarray(device_indices)
        return DeviceData.build(self.train_features[idx], self.train_labels[idx])

    def test_data(self) -> DeviceData:
        return DeviceData.build(self.test_features, self.test_labels)


@dataclass(frozen=True)
class DeviceData:
    """Samples prepared once for the softmax steps: features x (..., n, d + 1)
    with the bias column, labels (..., n), and `label_index`, the flat position
    of each sample's label entry in a C-contiguous class-major (C, ..., n) array."""

    x: np.ndarray
    labels: np.ndarray
    label_index: np.ndarray

    @classmethod
    def build(cls, features: np.ndarray, labels: np.ndarray) -> DeviceData:
        label_index = labels.reshape(-1) * labels.size + np.arange(labels.size)
        return cls(_augment(features), labels, label_index)

    @cached_property
    def _gram(self) -> np.ndarray:
        """Per-device Gram matrices x xᵀ (..., n, n), formed on first use and kept."""
        return _gram_matrices(self.x)


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

    def device_groups(self, task: LearningTask) -> list[tuple[np.ndarray, DeviceData]]:
        """(device positions, their stacked DeviceData) for each distinct sample count n."""
        sizes = self.sizes()
        return [(members, task.train_data(np.stack([self.assignments[k] for k in members])))
                for members in (np.flatnonzero(sizes == n) for n in np.unique(sizes))]


@dataclass(frozen=True)
class RoundMetrics:
    """One round's result; its fields, in order, are the CSV columns after the trial."""

    round: int
    blocks_used: int
    nmse_db: float | None
    test_accuracy: float | None
    mse_predicted: float
    mse_norelay_bound: float | None = None
    cond40: bool | None = None
    cond41: bool | None = None


def train_size(num_samples: int) -> int:
    """Training share round(0.8 n) of the 80/20 split, in [1, n - 1]; 0 when n < 2.

    Integer arithmetic, so sample counts beyond the float range are safe to check."""
    return min(max(1, (4 * num_samples + 2) // 5), num_samples - 1)


def make_synthetic_task(num_classes: int, feature_dim: int, samples_per_class: int,
                        separation: float, rng: np.random.Generator) -> LearningTask:
    """Gaussian class clusters with unit spread and means `separation` from the origin.

    Returns a deterministic 80/20 train/test split of the shuffled samples.
    """
    if not (min(num_classes, feature_dim, samples_per_class) >= 1 and separation > 0):
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


def _augment(features: np.ndarray) -> np.ndarray:
    """Features (..., n, d) with a bias column of ones appended: (..., n, d + 1)."""
    return np.concatenate([features, np.ones(features.shape[:-1] + (1,))], axis=-1)


def _gram_matrices(x: np.ndarray) -> np.ndarray:
    """Per-device Gram matrices x xᵀ (..., n, n) of features x (..., n, d + 1)."""
    return x @ x.swapaxes(-1, -2)


def _stacked(class_major: np.ndarray) -> np.ndarray:
    """The (..., C, n) view of a class-major (C, ..., n) array, for stacked matmuls.

    BLAS reads and writes the (C, n) slices through the strided view, as it
    reads x.swapaxes as a transposed operand, so nothing is copied."""
    return class_major.transpose(*range(1, class_major.ndim - 1), 0, -1)


def _residual(logits: np.ndarray, data: DeviceData, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax probabilities minus the one-hot labels, of class-major (C, ..., n) logits.

    The max and sum run over axis 0, row by row, on rows that hold every
    sample; `out`, when given, is C-contiguous and shaped like the logits.
    """
    res = np.subtract(logits, logits.max(axis=0), out=out)
    np.exp(res, out=res)
    res /= res.sum(axis=0)
    res.reshape(-1)[data.label_index] -= 1.0
    return res


def local_update(w: np.ndarray, data: DeviceData, tau: int, lr: float) -> np.ndarray:
    """Cumulative model change after tau full-batch gradient steps on local data.

    `data` holds one device's samples (n,) or a (G, n) stack of devices with
    equal sample counts (`LearningTask.train_data`), gathered once by the
    caller and reused every round.  The result has one model-change row per
    device, (G, model_dim), or a single (model_dim,) vector for one device.

    The steps run on the logits, not the weights.  A step takes the softmax
    residual R of the class-major (C, G, n) logits L = W xᵀ and moves W by
    -(lr/n) R x, so L moves by -(lr/n) R x xᵀ, and the model change is
    -(lr/n) E x with E the sum of the tau residuals.  Through the Gram
    matrices x xᵀ (`DeviceData._gram`) a step costs C n² multiply-adds
    against the 2 C n (d + 1) of a logit and gradient pair.  They are used
    when tau >= 2 and n < 2 (d + 1); otherwise a step multiplies by x and
    then by xᵀ, and x xᵀ is never formed.  Every product is one stacked
    matmul over the devices, so every device sees exactly the arithmetic of
    its own update.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    lead = data.labels.shape[:-1]
    n, cols = data.x.shape[-2:]
    xt = data.x.swapaxes(-1, -2)
    start = w.reshape(-1, cols)
    logits = np.empty(start.shape[:1] + data.labels.shape)
    np.matmul(np.broadcast_to(start, lead + start.shape), xt, out=_stacked(logits))
    step = lr / n
    gram = data._gram if tau > 1 and n < 2 * cols else None
    residual = total = _residual(logits, data)
    product, spare = np.empty_like(logits), np.empty_like(logits)
    for _ in range(tau - 1):
        if gram is None:
            np.matmul(_stacked(residual) @ data.x, xt, out=_stacked(product))
        else:
            np.matmul(_stacked(residual), gram, out=_stacked(product))
        product *= step
        logits -= product
        residual = _residual(logits, data, out=spare)
        total += residual
    delta = _stacked(total) @ data.x
    delta *= -step
    return delta.reshape(lead + (-1,))


def nmse_db(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Squared error of the estimate over the squared norm of the truth, in dB.

    -inf when the estimate is exact, a zero truth included; raises
    ZeroDivisionError for a nonzero estimate of a zero truth.
    """
    err = float(np.sum((np.asarray(estimate, dtype=float) - truth) ** 2))
    value = err / float(np.sum(np.asarray(truth, dtype=float) ** 2)) if err else 0.0
    return float("-inf") if value == 0.0 else 10.0 * np.log10(value)


def evaluate_accuracy(w: np.ndarray, data: DeviceData) -> float:
    """Share of the samples in one device's or the test set's `data` that w classifies right."""
    mat = w.reshape(-1, data.x.shape[-1])
    predicted = np.argmax(data.x @ mat.T, axis=1)
    return float(np.mean(predicted == data.labels))


def blocks_per_round(scheme: str) -> int:
    """Relay schemes spend two transmission blocks per round, the others one."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return 2 if scheme in ("proposed", "relay_only") else 1


# The step schedule of `_learning_rate`.  It counts rounds, not blocks, so a relay
# scheme, at two blocks per round, first decays at block 2 * LR_STEP.
LR_DECAY = 0.9
LR_STEP = 50
LR_FLOOR = 1e-5


def _learning_rate(lr_base: float, t: int) -> float:
    """Round t's rate, max(lr_base * LR_DECAY^(t // LR_STEP), LR_FLOOR)."""
    return max(lr_base * LR_DECAY ** (t // LR_STEP), LR_FLOOR)


def train(scheme: str, task: LearningTask, partition: Partition,
          layout: geometry.NodeLayout, budget: agg.PowerBudget,
          solver_cfg: optimizer.SolverConfig, lr_base: float, total_blocks: int,
          rng: np.random.Generator, csi_kappa: float | None = None, tau: int = 1):
    """Run federated averaging until the transmission-block budget is spent.

    One round: broadcast the model (ideal), compute local changes, map them
    onto unit symbols (delta - mean) / std with the global
    ``agg.symbol_stats``, draw a fresh block-fading realization, configure the
    scheme's transceivers, push the symbols through the channel, map the
    estimate back by std * x_hat + mean, and apply it to the global model.
    When std is 0 the mean stands for every change and nothing is sent.  With
    a CSI error level set, the optimizer sees the perturbed channels while the
    air interface uses the true ones.  On single-relay layouts every round also
    carries the ``single_relay.theorem_certificate`` of the true channels.
    Round t's local steps take the rate ``_learning_rate(lr_base, t)``.

    Returns (metrics, w): one RoundMetrics per round and the final model.
    """
    if total_blocks < 1:
        raise ValueError("total_blocks must be at least 1")
    if not (lr_base > 0 and tau >= 1):
        raise ValueError("lr must be positive and tau at least 1")
    if layout.num_devices != partition.num_devices:
        raise ValueError("layout and partition disagree on the device count")
    weights = agg.DeviceWeights.from_counts(partition.sizes())
    bpr = blocks_per_round(scheme)
    num_rounds = total_blocks // bpr
    gains = geometry.path_gain_profile(layout)
    dim = task.model_dim
    groups = partition.device_groups(task)
    test = task.test_data()
    w = np.zeros(dim)
    metrics: list[RoundMetrics] = []

    for t in range(1, num_rounds + 1):
        lr = _learning_rate(lr_base, t)
        deltas = np.empty((partition.num_devices, dim))
        for members, data in groups:
            deltas[members] = local_update(w, data, tau=tau, lr=lr)
        truth = weights.rho @ deltas
        channels = geometry.realize_channels(gains, rng)
        perceived = channels if csi_kappa is None else geometry.perturb_channels(
            channels, gains, csi_kappa, rng)

        mean, std = agg.symbol_stats(deltas, weights)

        if scheme == "error_free":
            estimate = truth
            mse_pred = 0.0
        elif std == 0.0:
            # Every device's change is constant, or so small that its variance
            # underflows to zero; the broadcast mean stands for all of them,
            # so nothing is transmitted.
            estimate = np.full(dim, mean)
            mse_pred = 0.0
        else:
            symbols = (deltas - mean) / std
            if scheme == "no_relay":
                a, c, _ = agg.norelay_optimum(perceived.h, weights, 2.0 * budget.p0,
                                              budget.sigma2)
                config = agg.TransceiverConfig(
                    a1=a, a2=np.zeros_like(a),
                    b=np.zeros(channels.num_relays, dtype=complex), c1=c, c2=0.0)
            else:
                variant = (optimizer.SchemeVariant.FULL if scheme == "proposed"
                           else optimizer.SchemeVariant.RELAY_ONLY)
                config, _ = optimizer.solve(perceived, weights, budget, solver_cfg, variant)
            x_hat = agg.simulate_round(config, channels, symbols, budget.sigma2, rng).real
            estimate = std * x_hat + mean
            mse_pred = agg.relay_mse(config, channels, weights, budget.sigma2)

        w = w + estimate

        bound = cond40 = cond41 = None
        if channels.num_relays == 1:
            _, bound, cond40, cond41 = single_relay.theorem_certificate(
                channels, weights, budget)
        metrics.append(RoundMetrics(
            round=t, blocks_used=t * bpr, nmse_db=nmse_db(estimate, truth),
            test_accuracy=evaluate_accuracy(w, test), mse_predicted=mse_pred,
            mse_norelay_bound=bound, cond40=cond40, cond41=cond41))
    return metrics, w
