import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayfl import federated
from relayfl.aggregation import DeviceWeights, PowerBudget
from relayfl.federated import (
    LearningTask,
    Partition,
    blocks_per_round,
    evaluate_accuracy,
    local_update,
    make_synthetic_task,
    nmse_db,
    partition_iid,
    partition_shards,
    train,
)
from relayfl.geometry import NodeLayout, line_layout, stream
from relayfl.optimizer import SolverConfig

from oracles import (
    cross_entropy_gradient,
    cross_entropy_loss,
    local_update_reference,
    local_update_row_major,
)

BUDGET = PowerBudget(p0=0.05, pr=0.1, sigma2=1e-10)


def small_task(seed=1, num_classes=3, feature_dim=6, samples_per_class=60,
               separation=4.0):
    return make_synthetic_task(num_classes, feature_dim, samples_per_class,
                               separation, stream(seed))


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
        assert evaluate_accuracy(w, task.test_data()) >= 0.99

    def test_single_class_trivially_perfect(self):
        task = small_task(seed=11, num_classes=1)
        assert evaluate_accuracy(np.zeros(task.model_dim), task.test_data()) == 1.0

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
        delta = local_update(np.zeros(task.model_dim), task.train_data(idx), tau=1, lr=0.0)
        assert np.all(delta == 0.0)

    def test_single_step_matches_finite_differences(self):
        task = small_task(seed=20, num_classes=3, feature_dim=4, samples_per_class=20)
        idx = np.arange(12)
        rng = stream(21)
        w = 0.3 * rng.standard_normal(task.model_dim)
        lr = 0.07
        delta = local_update(w, task.train_data(idx), tau=1, lr=lr)
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
        d1 = local_update(w, task.train_data(idx), tau=2, lr=0.05)
        d2 = local_update(w, task.train_data(idx), tau=2, lr=0.05)
        assert np.array_equal(d1, d2)

    def test_multi_step_accumulates(self):
        task = small_task(seed=24)
        idx = np.arange(16)
        w = np.zeros(task.model_dim)
        one = local_update(w, task.train_data(idx), tau=1, lr=0.05)
        two = local_update(w, task.train_data(idx), tau=2, lr=0.05)
        assert not np.allclose(one, two)
        manual = local_update(w + one, task.train_data(idx), tau=1, lr=0.05)
        assert two == pytest.approx(one + manual, rel=1e-12, abs=1e-15)


class TestBatchedLocalUpdate:
    @pytest.mark.parametrize("tau", [1, 3])
    def test_rows_equal_per_device_reference(self, tau):
        task = small_task(seed=25, num_classes=4, feature_dim=7, samples_per_class=50)
        stack = np.stack(partition_iid(task, 6, stream(26)).assignments)
        w = 0.2 * stream(27).standard_normal(task.model_dim)
        batched = local_update(w, task.train_data(stack), tau=tau, lr=0.07)
        reference = np.stack([local_update_reference(w, task, idx, tau, 0.07) for idx in stack])
        assert batched.shape == (6, task.model_dim)
        assert np.array_equal(batched, reference)
        single = local_update(w, task.train_data(stack[2]), tau=tau, lr=0.07)
        assert np.array_equal(single, reference[2])

    def test_ten_classes_rows_equal_per_device_reference(self):
        # From 8 classes on, a row softmax sums its classes pairwise and the
        # class-major kernel row by row; the reference takes the kernel's order.
        task = small_task(seed=33, num_classes=10, feature_dim=12, samples_per_class=40)
        stack = np.stack(partition_iid(task, 8, stream(34)).assignments)
        w = 0.2 * stream(35).standard_normal(task.model_dim)
        batched = local_update(w, task.train_data(stack), tau=5, lr=0.07)
        reference = np.stack([local_update_reference(w, task, idx, 5, 0.07) for idx in stack])
        assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("num_classes", [3, 10])
    def test_agrees_with_row_major_reference(self, num_classes):
        # 3 classes give n = 12 samples per device, which step through the
        # Gram matrices; 10 give n = 40 >= 2 (d + 1) = 26, which step through
        # x and then xᵀ without forming them.
        task = small_task(seed=36, num_classes=num_classes, feature_dim=12,
                          samples_per_class=40)
        stack = np.stack(partition_iid(task, 8, stream(37)).assignments)
        w = 0.2 * stream(38).standard_normal(task.model_dim)
        data = task.train_data(stack)
        batched = local_update(w, data, tau=5, lr=0.07)
        assert ("_gram" in vars(data)) == (num_classes == 3)
        for row, idx in zip(batched, stack):
            row_major = local_update_row_major(w, task, idx, 5, 0.07)
            assert np.linalg.norm(row - row_major) <= 1e-13 * np.linalg.norm(row_major)

    def test_benchmark_shape_rows_equal_per_device_reference(self):
        # The fl-k100-norelay shape: 100 devices of 32 samples, 50 features,
        # 10 classes, 5 local steps.  Smaller stacks can match the per-device
        # arithmetic where a single product over all devices' samples would not.
        task = small_task(seed=39, num_classes=10, feature_dim=50, samples_per_class=400)
        stack = np.stack(partition_iid(task, 100, stream(40)).assignments)
        assert stack.shape == (100, 32)
        w = 0.2 * stream(41).standard_normal(task.model_dim)
        batched = local_update(w, task.train_data(stack), tau=5, lr=0.05)
        reference = np.stack([local_update_reference(w, task, idx, 5, 0.05) for idx in stack])
        assert np.array_equal(batched, reference)

    def test_residual_batches_over_leading_axes(self):
        task = small_task(seed=28, num_classes=3, feature_dim=5, samples_per_class=40)
        stack = np.stack(partition_iid(task, 4, stream(29)).assignments)
        logits = 3.0 * stream(30).standard_normal((task.num_classes,) + stack.shape)
        batched = federated._residual(logits, task.train_data(stack))
        rows = [federated._residual(logits[:, g], task.train_data(idx))
                for g, idx in enumerate(stack)]
        assert np.array_equal(batched, np.stack(rows, axis=1))
        probs = np.exp(logits) / np.exp(logits).sum(axis=0)
        one_hot = task.train_labels[stack] == np.arange(task.num_classes)[:, None, None]
        assert batched == pytest.approx(probs - one_hot, abs=1e-15)

    def test_uneven_shards_train_matches_per_device_trajectory(self):
        # 404 training samples in 21 shards of 19; the last device also takes
        # the 5-sample remainder, so train runs two size groups.
        task = small_task(seed=31, num_classes=5, feature_dim=6, samples_per_class=101)
        partition = partition_shards(task, 7, 3)
        assert sorted(set(partition.sizes())) == [57, 62]
        rng = stream(32)
        layout = line_layout(7, rng)
        metrics, final_w = train("error_free", task, partition, layout, BUDGET,
                                 SolverConfig(), 0.3, 6, rng, tau=3)
        rho = DeviceWeights.from_counts(partition.sizes()).rho
        w = np.zeros(task.model_dim)
        for m in metrics:
            deltas = np.stack([local_update_reference(w, task, idx, 3, 0.3)
                               for idx in partition.assignments])
            w = w + rho @ deltas
            assert m.test_accuracy == evaluate_accuracy(w, task.test_data())
        assert len(metrics) == 6
        assert np.array_equal(final_w, w)

    @pytest.mark.parametrize("blocks", [2, 6])
    def test_train_prepares_device_data_once(self, monkeypatch, blocks):
        calls, grams = [], []
        augment, gram = federated._augment, federated._gram_matrices

        def counting_augment(features):
            calls.append(features.shape)
            return augment(features)

        def counting_gram(x):
            grams.append(x.shape)
            return gram(x)

        monkeypatch.setattr(federated, "_augment", counting_augment)
        monkeypatch.setattr(federated, "_gram_matrices", counting_gram)
        # With d = 40 both groups have n < 2 (d + 1); with d = 6 neither has.
        for feature_dim, tau in ((6, 3), (40, 1), (40, 3)):
            calls.clear()
            grams.clear()
            task = small_task(seed=31, num_classes=5, feature_dim=feature_dim,
                              samples_per_class=101)
            partition = partition_shards(task, 7, 3)
            rng = stream(32)
            metrics, _ = train("error_free", task, partition, line_layout(7, rng),
                               BUDGET, SolverConfig(), 0.3, blocks, rng,
                               tau=tau)
            assert len(metrics) == blocks
            # One gather per size group (57 and 62 samples) and one for the test set.
            groups = [(6, 57), (1, 62)]
            assert sorted(calls) == sorted([g + (feature_dim,) for g in groups]
                                           + [task.test_features.shape])
            # One Gram matrix per group and trial, only when a step uses it.
            used = tau > 1 and feature_dim == 40
            assert sorted(grams) == sorted(g + (feature_dim + 1,) for g in groups if used)


class TestGlobalUpdateAndNmse:
    def test_nmse_db_values(self):
        truth = np.array([1.0, 2.0])
        assert nmse_db(truth, truth) == float("-inf")
        # An exact estimate of a zero truth (a round whose every change is 0).
        assert nmse_db(np.zeros(2), np.zeros(2)) == float("-inf")
        # A ratio of 1 is 0 dB, and of 1/5 is -10 log10(5) dB.
        assert nmse_db(np.zeros(2), truth) == pytest.approx(0.0)
        assert nmse_db(2.0 * truth, truth) == pytest.approx(0.0)
        assert nmse_db(truth + [1.0, 0.0], truth) == pytest.approx(-10.0 * np.log10(5.0))
        with pytest.raises(ZeroDivisionError):
            nmse_db(truth, np.zeros(2))

    def test_schedule_and_state_validation(self):
        rate = federated._learning_rate
        assert rate(0.05, 1) == pytest.approx(0.05)
        assert rate(0.05, 49) == pytest.approx(0.05)
        assert rate(0.05, 50) == pytest.approx(0.045)
        assert rate(0.05, 10**9) == pytest.approx(1e-5)
        task = small_task(seed=30, num_classes=3, feature_dim=5, samples_per_class=40)
        rng = stream(30, 1)
        layout = line_layout(4, rng)
        partition = partition_iid(task, 4, rng)
        for lr_base, tau in ((0.0, 1), (0.05, 0)):
            with pytest.raises(ValueError, match="lr must be positive and tau at least 1"):
                train("error_free", task, partition, layout, BUDGET, SolverConfig(),
                      lr_base, 2, rng, tau=tau)
        with pytest.raises(ValueError):
            Partition(assignments=(np.array([1, 2]), np.array([2, 3])))


# (lr_base, round, rate): the first decay at round LR_STEP = 50, the second at 100,
# the floor 1e-5 first reached at round 4050, and a base under the floor lifted to it.
@pytest.mark.parametrize("lr_base, t, expected", [
    (0.05, 1, 0.05), (0.05, 49, 0.05), (0.05, 50, 0.045), (0.05, 99, 0.045),
    (0.05, 100, 0.0405), (0.05, 4049, 0.05 * 0.9**80), (0.05, 4050, 1e-5), (1e-6, 1, 1e-5),
])
def test_learning_rate(lr_base, t, expected):
    assert federated._learning_rate(lr_base, t) == pytest.approx(expected, rel=1e-12)


class TestTrain:
    def _run(self, scheme, seed=30, blocks=8, **kwargs):
        task = small_task(seed=seed, num_classes=3, feature_dim=5, samples_per_class=40)
        rng = stream(seed, 1)
        layout = line_layout(4, rng)
        partition = partition_iid(task, 4, rng)
        metrics, _ = train(scheme, task, partition, layout, BUDGET, SolverConfig(),
                           0.05, blocks, rng, **kwargs)
        return task, partition, metrics

    # The schedule counts rounds, so a relay scheme, at two blocks a round, takes
    # half as many rates as a one-block scheme from the same block budget.
    @pytest.mark.parametrize("scheme", ["proposed", "relay_only", "no_relay", "error_free"])
    def test_each_round_steps_at_its_scheduled_rate(self, monkeypatch, scheme):
        monkeypatch.setattr(federated, "LR_STEP", 1)
        rates = []

        def recording_update(w, data, tau, lr):
            rates.append(lr)
            return local_update(w, data, tau=tau, lr=lr)

        monkeypatch.setattr(federated, "local_update", recording_update)
        _, _, metrics = self._run(scheme, blocks=4)
        num_rounds = 4 // blocks_per_round(scheme)
        assert len(metrics) == num_rounds
        assert list(dict.fromkeys(rates)) == [federated._learning_rate(0.05, t)
                                              for t in range(1, num_rounds + 1)]

    def test_error_free_matches_reference_trajectory(self):
        task, partition, metrics = self._run("error_free", blocks=6)
        assert all(m.nmse_db == float("-inf") for m in metrics)
        # reference: exact weighted aggregation computed independently
        sizes = partition.sizes()
        rho = sizes / sizes.sum()
        w = np.zeros(task.model_dim)
        for t in range(1, 7):
            deltas = np.stack([
                local_update(w, task.train_data(idx), tau=1, lr=0.05)
                for idx in partition.assignments
            ])
            w = w + rho @ deltas
        assert metrics[-1].test_accuracy == pytest.approx(evaluate_accuracy(w, task.test_data()))

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
        xs, ys = rng_a.uniform(8, 12, 3), rng_a.uniform(-6, 6, 3)
        layout = NodeLayout(ap_position=np.zeros(2), relay_positions=[[5.0, 0.0]],
                            device_positions=np.column_stack([xs, ys]))
        partition = partition_iid(task, 3, rng_a)
        noisy, _ = train("proposed", task, partition, layout, quiet, SolverConfig(),
                         0.05, 8, stream(31, 3))
        ideal, _ = train("error_free", task, partition, layout, quiet, SolverConfig(),
                         0.05, 4, stream(31, 3))
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
                local_update(w, task.train_data(idx), tau=1, lr=0.02)
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
        exact, _ = train("proposed", task, partition, layout, BUDGET, SolverConfig(),
                         0.05, 8, stream(37))
        rough, _ = train("proposed", task, partition, layout, BUDGET, SolverConfig(),
                         0.05, 8, stream(37), csi_kappa=0.2)
        mean_exact = np.mean([m.mse_predicted for m in exact])
        mean_rough = np.mean([m.mse_predicted for m in rough])
        assert mean_rough > mean_exact

    def test_zero_variance_round_sends_the_weighted_mean(self, monkeypatch):
        # Every device's change is one constant, so the global variance is zero:
        # nothing is transmitted, and the broadcast mean stands for every change.
        levels = np.array([0.5, -0.25, 1.0, 2.0])

        def constant_rows(w, data, tau, lr):
            return np.repeat(levels[:, None], w.size, axis=1)

        def no_solve(*args, **kwargs):
            raise AssertionError("a zero-variance round ran the solver")

        monkeypatch.setattr(federated, "local_update", constant_rows)
        monkeypatch.setattr(federated.optimizer, "solve", no_solve)
        task = small_task(seed=30, num_classes=3, feature_dim=5, samples_per_class=40)
        rng = stream(30, 1)
        partition = partition_iid(task, 4, rng)
        metrics, w = train("proposed", task, partition, line_layout(4, rng), BUDGET,
                           SolverConfig(), 0.05, 6, rng)
        mean = DeviceWeights.from_counts(partition.sizes()).rho @ levels
        assert len(metrics) == 3
        assert [m.mse_predicted for m in metrics] == [0.0, 0.0, 0.0]
        assert w == pytest.approx(np.full(task.model_dim, 3 * mean), rel=1e-15)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            self._run("shout_louder")


def _train_four_devices(blocks=2, layout_devices=4):
    task = small_task(seed=30, num_classes=3, feature_dim=5, samples_per_class=40)
    rng = stream(30, 1)
    partition = partition_iid(task, 4, rng)
    return train("error_free", task, partition, line_layout(layout_devices, rng), BUDGET,
                 SolverConfig(), 0.05, blocks, rng)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: Partition(assignments=(np.array([0, 1]), np.array([], dtype=int))),
                 "at least one sample", id="partition-empty-device"),
    pytest.param(lambda: make_synthetic_task(0, 4, 10, 1.0, stream(1)), "positive",
                 id="task-no-classes"),
    pytest.param(lambda: make_synthetic_task(1, 4, 1, 1.0, stream(1)), "two samples",
                 id="task-one-sample"),
    pytest.param(lambda: partition_iid(small_task(), 1000, stream(1)), "fewer training samples",
                 id="iid-too-many-devices"),
    pytest.param(lambda: local_update(np.zeros(small_task().model_dim),
                                      small_task().train_data(np.arange(5)), 0, 0.1),
                 "tau", id="local-update-tau-zero"),
    pytest.param(lambda: _train_four_devices(blocks=0), "total_blocks", id="train-zero-blocks"),
    pytest.param(lambda: _train_four_devices(layout_devices=3), "disagree",
                 id="train-device-count-mismatch"),
])
def test_bad_input_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
