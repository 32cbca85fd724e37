"""Optimizer behavior, synthetic task properties, training loop."""

import numpy as np
import pytest

from fdht.lstm import make_cell, make_head
from fdht.train import (AdamState, SyntheticTask, TrainConfig, TrainingError,
                        adam_step, evaluate, generate_task, history_csv, train)
from oracles import nearest_template_accuracy


class TestAdam:
    def test_zero_gradient_no_l2_leaves_params(self):
        cfg = TrainConfig(l2_coeff=0.0)
        params = {"w": np.array([1.0, -2.0, 3.0])}
        before = params["w"].copy()
        state = AdamState()
        for _ in range(5):
            adam_step(params, {"w": np.zeros(3)}, state, cfg)
        np.testing.assert_array_equal(params["w"], before)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        cfg = TrainConfig(learning_rate=1e-3, l2_coeff=0.0)
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([0.37])}
        state = AdamState()
        prev = params["w"][0]
        for _ in range(1000):
            prev = params["w"][0]
            adam_step(params, grads, state, cfg)
        step_size = abs(params["w"][0] - prev)
        assert abs(step_size - cfg.learning_rate) <= 0.01 * cfg.learning_rate

    def test_pure_l2_decays_norm_monotonically(self):
        cfg = TrainConfig(l2_coeff=0.01)
        params = {"w": np.array([5.0, -3.0])}
        state = AdamState()
        norms = [np.linalg.norm(params["w"])]
        for _ in range(200):
            adam_step(params, {"w": np.zeros(2)}, state, cfg)
            norms.append(np.linalg.norm(params["w"]))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_non_finite_gradient_names_block(self):
        cfg = TrainConfig()
        params = {"good": np.zeros(2), "bad.block": np.zeros(2)}
        grads = {"good": np.zeros(2), "bad.block": np.array([1.0, np.nan])}
        with pytest.raises(TrainingError, match="bad.block"):
            adam_step(params, grads, AdamState(), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dropout"):
            TrainConfig(dropout_rate=1.0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)


class TestSyntheticTask:
    def test_same_seed_bitwise_identical(self):
        a_train, a_test = generate_task(SyntheticTask(seed=5))
        b_train, b_test = generate_task(SyntheticTask(seed=5))
        assert a_train.xs.tobytes() == b_train.xs.tobytes()
        assert a_test.xs.tobytes() == b_test.xs.tobytes()
        assert a_train.labels.tobytes() == b_train.labels.tobytes()

    def test_class_balanced(self):
        train_data, test_data = generate_task(SyntheticTask(classes=5, seed=1))
        for data, per in ((train_data, 40), (test_data, 20)):
            counts = np.bincount(data.labels, minlength=5)
            assert np.all(counts == per)

    def test_noiseless_nearest_template_is_perfect(self):
        task = SyntheticTask(classes=4, frames=3, frame_dim=32, noise=0.0,
                             seed=3, train_per_class=5, test_per_class=5)
        _, test_data = generate_task(task)
        assert nearest_template_accuracy(task, test_data) == 1.0

    def test_shuffled_labels_train_to_chance(self):
        # control: destroy the label signal, test accuracy stays near 1/k
        task = SyntheticTask(classes=4, frames=3, frame_dim=16, noise=0.3,
                             seed=11, train_per_class=10, test_per_class=25)
        train_data, test_data = generate_task(task)
        rng = np.random.default_rng(0)
        train_data.labels = rng.permutation(train_data.labels)
        cell = make_cell(16, (4, 5), (2, 2), 2, 2, seed=0)
        head = make_head(4, cell.hidden_size, seed=1)
        train(cell, head, train_data, test_data,
              TrainConfig(epochs=5, seed=2, dropout_rate=0.0))
        acc = evaluate(cell, head, test_data)
        # binomial guard band around chance for 100 test points
        assert abs(acc - 0.25) <= 5 * np.sqrt(0.25 * 0.75 / len(test_data))


class TestTrainLoop:
    def small_setup(self, epochs, seed=3, **task_kw):
        task = SyntheticTask(classes=3, frames=3, frame_dim=12, noise=0.4,
                             seed=9, train_per_class=8, test_per_class=6,
                             **task_kw)
        train_data, test_data = generate_task(task)
        cell = make_cell(12, (4, 4), (2, 2), 2, 2, seed=1)
        head = make_head(3, cell.hidden_size, seed=2)
        cfg = TrainConfig(epochs=epochs, seed=seed, batch_size=4)
        return cell, head, train_data, test_data, cfg

    def test_zero_epochs_empty_history_untouched_params(self):
        cell, head, tr, te, cfg = self.small_setup(epochs=0)
        before = {k: v.copy() for k, v in cell.params().items()}
        history = train(cell, head, tr, te, cfg)
        assert history == []
        for k, v in cell.params().items():
            assert v.tobytes() == before[k].tobytes()

    def test_deterministic_history(self):
        h1 = train(*self.small_setup(epochs=3)[:4],
                   TrainConfig(epochs=3, seed=3, batch_size=4))
        h2 = train(*self.small_setup(epochs=3)[:4],
                   TrainConfig(epochs=3, seed=3, batch_size=4))
        assert history_csv(h1) == history_csv(h2)

    def test_loss_decreases(self):
        cell, head, tr, te, cfg = self.small_setup(epochs=10)
        history = train(cell, head, tr, te, cfg)
        first = np.mean([r.train_loss for r in history[:5]])
        last = np.mean([r.train_loss for r in history[-5:]])
        assert last < first

    def test_eval_is_dropout_free_and_deterministic(self):
        cell, head, tr, te, cfg = self.small_setup(epochs=2)
        train(cell, head, tr, te, cfg)
        assert evaluate(cell, head, te) == evaluate(cell, head, te)

    def test_non_finite_sequence_names_epoch_and_minibatch(self):
        cell, head, tr, te, cfg = self.small_setup(epochs=2)
        planted = 2  # lands in minibatch 3 of epoch 0
        tr.xs[planted, 1, 5] = np.nan
        # epoch 0's order is the first draw of train's rng
        order = np.random.default_rng(cfg.seed).permutation(len(tr))
        minibatch = int(np.flatnonzero(order == planted)[0]) // cfg.batch_size
        assert minibatch > 0
        with pytest.raises(TrainingError) as exc:
            train(cell, head, tr, te, cfg)
        assert str(exc.value) == (f"epoch 0 minibatch {minibatch}: "
                                  "non-finite gradient in parameter block 'ht.0'")

    def test_history_csv_shape(self):
        cell, head, tr, te, cfg = self.small_setup(epochs=2)
        csv = history_csv(train(cell, head, tr, te, cfg))
        lines = csv.strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(lines) == 3
        assert lines[1].startswith("0,")
