import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayfl.aggregation import DeviceWeights, PowerBudget
from relayfl.federated import (
    LearningTask,
    LrSchedule,
    Partition,
    blocks_per_round,
    cross_entropy_gradient,
    cross_entropy_loss,
    evaluate_accuracy,
    local_update,
    make_synthetic_task,
    nmse,
    nmse_db,
    partition_iid,
    partition_shards,
    train,
)
from relayfl.geometry import PathLossParams, line_layout, stream
from relayfl.optimizer import SolverConfig

from oracles import local_update_reference

BUDGET = PowerBudget(p0=0.05, pr=0.1, sigma2=1e-10)
PL = PathLossParams()


def small_task(seed=1, num_classes=3, feature_dim=6, samples_per_class=60,
               separation=4.0):
    return make_synthetic_task(num_classes, feature_dim, samples_per_class,
                               separation, stream(seed))


def centralized_descent(task, rounds, schedule):
    w = np.zeros(task.model_dim)
    for t in range(1, rounds + 1):
        grad = cross_entropy_gradient(w, task.train_features, task.train_labels,
                                      task.num_classes)
        w = w - schedule(t) * grad
    return w


class TestSyntheticTask:
    def test_determinism(self):
        a = small_task(seed=9)
        b = small_task(seed=9)
        assert np.array_equal(a.train_features, b.train_features)
        assert np.array_equal(a.test_labels, b.test_labels)

    def test_well_separated_task_is_learnable(self):
        task = small_task(seed=10, separation=10.0)
        w = np.zeros(task.model_dim)
        for _ in range(400):
            w = w - 0.5 * cross_entropy_gradient(w, task.train_features,
                                                 task.train_labels, task.num_classes)
        assert evaluate_accuracy(w, task) >= 0.99

    def test_single_class_trivially_perfect(self):
        task = small_task(seed=11, num_classes=1)
        assert evaluate_accuracy(np.zeros(task.model_dim), task) == 1.0

    def test_split_is_eighty_twenty(self):
        task = small_task(seed=12, samples_per_class=50, num_classes=4)
        assert task.train_labels.size == 160
        assert task.test_labels.size == 40


class TestPartitions:
    def test_single_device_takes_everything(self):
        task = small_task()
        part = partition_iid(task, 1, stream(2))
        assert part.assignments[0].size == task.train_labels.size

    def test_even_split_sizes(self):
        task = small_task(samples_per_class=5, num_classes=2, feature_dim=2)
        # 10 samples -> 8 train; split across 2 devices -> 4 each
        part = partition_iid(task, 2, stream(3))
        assert [p.size for p in part.assignments] == [4, 4]

    def test_ten_samples_two_devices(self):
        rng = stream(4)
        task = LearningTask(train_features=rng.standard_normal((10, 2)),
                            train_labels=rng.integers(0, 2, 10),
                            test_features=rng.standard_normal((4, 2)),
                            test_labels=rng.integers(0, 2, 4), num_classes=2)
        part = partition_iid(task, 2, rng)
        assert [p.size for p in part.assignments] == [5, 5]

    def test_iid_label_histogram_close_to_global(self):
        task = small_task(seed=13, samples_per_class=400, num_classes=4, feature_dim=3)
        part = partition_iid(task, 4, stream(14))
        global_hist = np.bincount(task.train_labels, minlength=4) / task.train_labels.size
        for idx in part.assignments:
            hist = np.bincount(task.train_labels[idx], minlength=4) / idx.size
            sigma = np.sqrt(global_hist * (1 - global_hist) / idx.size)
            assert np.all(np.abs(hist - global_hist) <= 3.5 * sigma + 1e-9)

    def test_shards_single_class_per_device(self):
        task = small_task(seed=15, num_classes=2, samples_per_class=40, feature_dim=2)
        part = partition_shards(task, 2, 1)
        for idx in part.assignments:
            assert np.unique(task.train_labels[idx]).size == 1

    def test_shards_spread_all_classes_at_full_width(self):
        task = small_task(seed=16, num_classes=4, samples_per_class=64, feature_dim=2)
        part = partition_shards(task, 8, 4)
        for idx in part.assignments:
            labels = np.unique(task.train_labels[idx])
            assert labels.size >= 3  # nearly every class on every device

    def test_shards_are_disjoint_and_bounded_labels(self):
        task = small_task(seed=17, num_classes=5, samples_per_class=50, feature_dim=2)
        c = 2
        part = partition_shards(task, 5, c)
        seen = np.concatenate(part.assignments)
        assert np.unique(seen).size == seen.size
        for idx in part.assignments:
            assert np.unique(task.train_labels[idx]).size <= 2 * c

    def test_too_many_shards_rejected(self):
        task = small_task(samples_per_class=5, num_classes=2, feature_dim=2)
        with pytest.raises(ValueError):
            partition_shards(task, 8, 2)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_partition_disjoint_covering(self, devices, shards):
        task = small_task(seed=18, num_classes=3, samples_per_class=30, feature_dim=2)
        part = partition_shards(task, devices, shards)
        seen = np.concatenate(part.assignments)
        assert np.unique(seen).size == seen.size
        assert seen.size == task.train_labels.size
        assert all(p.size > 0 for p in part.assignments)


class TestLocalUpdate:
    def test_zero_learning_rate(self):
        task = small_task()
        idx = np.arange(10)
        delta = local_update(np.zeros(task.model_dim), task, idx, tau=1, lr=0.0)
        assert np.all(delta == 0.0)

    def test_single_step_matches_finite_differences(self):
        task = small_task(seed=20, num_classes=3, feature_dim=4, samples_per_class=20)
        idx = np.arange(12)
        rng = stream(21)
        w = 0.3 * rng.standard_normal(task.model_dim)
        lr = 0.07
        delta = local_update(w, task, idx, tau=1, lr=lr)
        feats, labels = task.train_features[idx], task.train_labels[idx]
        grad_fd = np.zeros_like(w)
        eps = 1e-6
        for i in range(w.size):
            up, down = w.copy(), w.copy()
            up[i] += eps
            down[i] -= eps
            grad_fd[i] = (cross_entropy_loss(up, feats, labels, task.num_classes)
                          - cross_entropy_loss(down, feats, labels, task.num_classes)) / (2 * eps)
        assert delta == pytest.approx(-lr * grad_fd, rel=1e-5, abs=1e-9)

    def test_identical_devices_identical_deltas(self):
        task = small_task(seed=22)
        idx = np.arange(8)
        w = 0.1 * stream(23).standard_normal(task.model_dim)
        d1 = local_update(w, task, idx, tau=2, lr=0.05)
        d2 = local_update(w, task, idx, tau=2, lr=0.05)
        assert np.array_equal(d1, d2)

    def test_multi_step_accumulates(self):
        task = small_task(seed=24)
        idx = np.arange(16)
        w = np.zeros(task.model_dim)
        one = local_update(w, task, idx, tau=1, lr=0.05)
        two = local_update(w, task, idx, tau=2, lr=0.05)
        assert not np.allclose(one, two)
        manual = local_update(w + one, task, idx, tau=1, lr=0.05)
        assert two == pytest.approx(one + manual, rel=1e-12, abs=1e-15)


class TestBatchedLocalUpdate:
    @pytest.mark.parametrize("tau", [1, 3])
    def test_rows_equal_per_device_reference(self, tau):
        task = small_task(seed=25, num_classes=4, feature_dim=7, samples_per_class=50)
        stack = np.stack(partition_iid(task, 6, stream(26)).assignments)
        w = 0.2 * stream(27).standard_normal(task.model_dim)
        batched = local_update(w, task, stack, tau=tau, lr=0.07)
        reference = np.stack([local_update_reference(w, task, idx, tau, 0.07) for idx in stack])
        assert batched.shape == (6, task.model_dim)
        assert np.array_equal(batched, reference)
        assert np.array_equal(local_update(w, task, stack[2], tau=tau, lr=0.07), reference[2])

    def test_gradient_batches_over_leading_axes(self):
        task = small_task(seed=28, num_classes=3, feature_dim=5, samples_per_class=40)
        stack = np.stack(partition_iid(task, 4, stream(29)).assignments)
        w = 0.3 * stream(30).standard_normal((4, task.model_dim))
        feats, labels = task.train_features[stack], task.train_labels[stack]
        batched = cross_entropy_gradient(w, feats, labels, task.num_classes)
        rows = [cross_entropy_gradient(w[g], feats[g], labels[g], task.num_classes)
                for g in range(4)]
        assert np.array_equal(batched, np.stack(rows))

    def test_uneven_shards_train_matches_per_device_trajectory(self):
        # 404 training samples in 21 shards of 19; the last device also takes
        # the 5-sample remainder, so train runs two size groups.
        task = small_task(seed=31, num_classes=5, feature_dim=6, samples_per_class=101)
        partition = partition_shards(task, 7, 3)
        assert sorted(set(partition.sizes())) == [57, 62]
        rng = stream(32)
        layout = line_layout(7, rng)
        schedule = LrSchedule(base=0.3)
        metrics, final_w = train("error_free", task, partition, layout, PL, BUDGET,
                                 SolverConfig(), schedule, 6, rng, tau=3)
        rho = DeviceWeights.from_counts(partition.sizes()).rho
        w = np.zeros(task.model_dim)
        for t, m in enumerate(metrics, start=1):
            deltas = np.stack([local_update_reference(w, task, idx, 3, schedule(t))
                               for idx in partition.assignments])
            w = w + rho @ deltas
            assert m.test_accuracy == evaluate_accuracy(w, task)
        assert len(metrics) == 6
        assert np.array_equal(final_w, w)


class TestGlobalUpdateAndNmse:
    def test_nmse_values(self):
        truth = np.array([1.0, 2.0])
        assert nmse(truth, truth) == 0.0
        assert nmse_db(nmse(truth, truth)) == float("-inf")
        assert nmse(np.zeros(2), truth) == pytest.approx(1.0)
        assert nmse(2.0 * truth, truth) == pytest.approx(1.0)
        with pytest.raises(ZeroDivisionError):
            nmse(truth, np.zeros(2))

    def test_schedule_and_state_validation(self):
        sched = LrSchedule(base=0.05, decay=0.9, step=50, floor=1e-5)
        assert sched(1) == pytest.approx(0.05)
        assert sched(49) == pytest.approx(0.05)
        assert sched(50) == pytest.approx(0.045)
        assert sched(10**9) == pytest.approx(1e-5)
        task = small_task(seed=30, num_classes=3, feature_dim=5, samples_per_class=40)
        rng = stream(30, 1)
        layout = line_layout(4, rng)
        partition = partition_iid(task, 4, rng)
        for schedule, tau in ((LrSchedule(base=0.0, floor=0.0), 1), (LrSchedule(), 0)):
            with pytest.raises(ValueError, match="lr must be positive and tau at least 1"):
                train("error_free", task, partition, layout, PL, BUDGET, SolverConfig(),
                      schedule, 2, rng, tau=tau)
        with pytest.raises(ValueError):
            Partition(assignments=(np.array([1, 2]), np.array([2, 3])))


class TestTrain:
    def _run(self, scheme, seed=30, blocks=8, **kwargs):
        task = small_task(seed=seed, num_classes=3, feature_dim=5, samples_per_class=40)
        rng = stream(seed, 1)
        layout = line_layout(4, rng)
        partition = partition_iid(task, 4, rng)
        schedule = LrSchedule()
        metrics, _ = train(scheme, task, partition, layout, PL, BUDGET, SolverConfig(),
                           schedule, blocks, rng, **kwargs)
        return task, partition, metrics

    def test_error_free_matches_reference_trajectory(self):
        task, partition, metrics = self._run("error_free", blocks=6)
        assert all(m.nmse_db == float("-inf") for m in metrics)
        # reference: exact weighted aggregation computed independently
        sizes = partition.sizes()
        rho = sizes / sizes.sum()
        w = np.zeros(task.model_dim)
        schedule = LrSchedule()
        for t in range(1, 7):
            deltas = np.stack([
                local_update(w, task, idx, tau=1, lr=schedule(t))
                for idx in partition.assignments
            ])
            w = w + rho @ deltas
        assert metrics[-1].test_accuracy == pytest.approx(evaluate_accuracy(w, task))

    def test_block_accounting(self):
        assert blocks_per_round("proposed") == 2
        assert blocks_per_round("relay_only") == 2
        assert blocks_per_round("no_relay") == 1
        assert blocks_per_round("error_free") == 1
        _, _, relay_metrics = self._run("proposed", blocks=9)
        assert len(relay_metrics) == 4
        assert relay_metrics[-1].blocks_used == 8
        _, _, direct_metrics = self._run("no_relay", blocks=9)
        assert len(direct_metrics) == 9
        assert direct_metrics[-1].blocks_used == 9

    def test_single_relay_diagnostics_present(self):
        _, _, metrics = self._run("proposed", blocks=4)
        for m in metrics:
            assert m.mse_norelay_bound is not None and m.mse_norelay_bound > 0
            assert m.cond40 is not None and m.cond41 is not None

    def test_near_noiseless_proposed_tracks_error_free(self):
        # short links and watt-level power so the residual noise floor at
        # sigma2 = 1e-15 W is vanishing relative to the aggregated update
        quiet = PowerBudget(p0=1.0, pr=1.0, sigma2=1e-15)
        task = small_task(seed=31, num_classes=3, feature_dim=5, samples_per_class=40)
        rng_a = stream(31, 2)
        layout = line_layout(3, rng_a, x_relay=5.0, device_x=(8.0, 12.0),
                             device_y_half=6.0)
        partition = partition_iid(task, 3, rng_a)
        schedule = LrSchedule()
        noisy, _ = train("proposed", task, partition, layout, PL, quiet, SolverConfig(),
                         schedule, 8, stream(31, 3))
        ideal, _ = train("error_free", task, partition, layout, PL, quiet, SolverConfig(),
                         schedule, 4, stream(31, 3))
        assert len(noisy) == len(ideal)
        for m in noisy:
            assert m.nmse_db < -60.0
        assert noisy[-1].test_accuracy == pytest.approx(ideal[-1].test_accuracy, abs=0.02)

    def test_error_free_loss_monotone_for_small_fixed_lr(self):
        # convex objective: exact weighted aggregation with a small constant
        # step can only reduce the training loss
        task = small_task(seed=33, num_classes=3, feature_dim=5, samples_per_class=40)
        partition = partition_iid(task, 4, stream(34))
        sizes = partition.sizes()
        rho = sizes / sizes.sum()
        w = np.zeros(task.model_dim)
        losses = [cross_entropy_loss(w, task.train_features, task.train_labels,
                                     task.num_classes)]
        for _ in range(30):
            deltas = np.stack([
                local_update(w, task, idx, tau=1, lr=0.02)
                for idx in partition.assignments
            ])
            w = w + rho @ deltas
            losses.append(cross_entropy_loss(w, task.train_features, task.train_labels,
                                             task.num_classes))
        assert np.all(np.diff(losses) <= 1e-12)

    def test_csi_error_degrades_predicted_mse(self):
        task = small_task(seed=35, num_classes=3, feature_dim=5, samples_per_class=40)
        rng = stream(36)
        layout = line_layout(4, rng)
        partition = partition_iid(task, 4, rng)
        schedule = LrSchedule()
        exact, _ = train("proposed", task, partition, layout, PL, BUDGET, SolverConfig(),
                         schedule, 8, stream(37))
        rough, _ = train("proposed", task, partition, layout, PL, BUDGET, SolverConfig(),
                         schedule, 8, stream(37), csi_kappa=0.2)
        mean_exact = np.mean([m.mse_predicted for m in exact])
        mean_rough = np.mean([m.mse_predicted for m in rough])
        assert mean_rough > mean_exact

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            self._run("shout_louder")
