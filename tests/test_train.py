"""Optimizer behavior, synthetic task properties, training loop."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fdht.lstm
from fdht.config import load_config
from fdht.ht import RootFrames
from fdht.lstm import bptt, forward_sequence, forward_split, make_cell, make_head
from fdht.train import (AdamState, Dataset, SyntheticTask, TrainConfig, TrainingError,
                        adam_step, epoch_line, evaluate, generate_task,
                        generate_test_split, history_csv, train)
from oracles import make_dense_cell, nearest_template_accuracy


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
        with pytest.raises(ValueError, match="epochs >= 0"):
            TrainConfig(epochs=-1)
        for rate in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="learning_rate must be positive"):
                TrainConfig(learning_rate=rate)
        TrainConfig(epochs=0)  # a run that trains nothing is allowed

    @pytest.mark.parametrize("rate", [1.0, -0.5, float("nan"), float("inf")])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        # bptt keeps the config's rule and message: 1.0 would divide by
        # zero, -0.5 and nan would train without dropout
        cell = make_cell(4, (3, 3), (2, 2), 2, 2, seed=5)
        head = make_head(3, cell.hidden_size, seed=2)
        batch = [(np.ones((2, 4)), 1)]
        message = r"^dropout_rate must be in \[0, 1\)$"
        with pytest.raises(ValueError, match=message):
            TrainConfig(dropout_rate=rate)
        with pytest.raises(ValueError, match=message):
            bptt(cell, head, batch, dropout_rate=rate, rng=np.random.default_rng(0))


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

    @pytest.mark.parametrize("task,digests", [
        (SyntheticTask(),
         ("e6d78113805377dfcbc9fe9463327cd131aad4108cbc00b497729fcea665677c",
          "f40d658bebf14efc0ffe5133b76191a59d7b693e1c275510794ef3b4caa82357")),
        (SyntheticTask(frame_dim=6),
         ("ac145222a386c1aad32d27ab2cfe9a61ce3c3a355f29749d1b32e0105c75a500",
          "f1350bb81429c369703ea97d4ac34c782b218f3ebd3b532ef26c3b0411a2a119")),
        (SyntheticTask(classes=3, frames=2, frame_dim=5, noise=0.9, seed=7,
                       train_per_class=4, test_per_class=3),
         ("a8ccd434a882fb8dc1a6e0f9bdf9f849df531aab57e974fea2e294a7d0def897",
          "7a4662b4cd6794904731be550fba03d7653f5db5f2b8754edf6fe31232441134")),
    ], ids=["default", "frame_dim-6", "small"])
    def test_splits_match_pinned_digests(self, task, digests):
        # SHA-256 of each split's xs bytes then labels bytes, as first
        # drawn sample by sample: a change of the draw order or of the
        # arithmetic on an entry changes them; generate_test_split must
        # give the test split's bytes
        got = tuple(hashlib.sha256(d.xs.tobytes() + d.labels.tobytes()).hexdigest()
                    for d in (*generate_task(task), generate_test_split(task)))
        assert got == digests + digests[1:]

    def test_draws_through_the_fill_loop(self, monkeypatch):
        # standard_normal fills its output in one loop; normal(0, 1) runs
        # the loc/scale path over the same draws, slower
        default_rng, calls = np.random.default_rng, []

        class Spy:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", Spy)
        task = SyntheticTask(classes=3, frames=2, frame_dim=5, train_per_class=4)
        generate_task(task)
        generate_test_split(task)
        assert set(calls) == {"standard_normal"}

    def test_test_split_peak_holds_no_train_sample(self):
        # generate_test_split draws the train split's noise one sample at
        # a time into one buffer: at its peak it holds the test split, the
        # clean sequences and that buffer. The slack is numpy's ufunc
        # buffer, which the broadcast `xs += clean` fills, and 4 KiB of
        # Python objects; the train split would add 3.9 MB
        task = SyntheticTask()
        generate_test_split(task)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            test = generate_test_split(task)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        sample = 8 * task.frames * task.frame_dim
        held = test.xs.nbytes + test.labels.nbytes + task.classes * sample + sample
        assert peak <= held + 8 * np.getbufsize() + 4096

    def test_pinned_tasks_are_the_shipped_ones(self):
        configs = Path(__file__).resolve().parent.parent / "configs"
        assert load_config(configs / "synthetic.ini").task == SyntheticTask()
        assert load_config(configs / "gradcheck-small.ini").task == SyntheticTask(frame_dim=6)

    def test_overflowing_noise_names_the_key(self):
        task = SyntheticTask(classes=2, frames=1, frame_dim=4, noise=1.7e308)
        for generate in (generate_task, generate_test_split):
            with pytest.raises(ValueError, match=r"^\[task\] noise = 1\.7e\+308 overflows"):
                generate(task)

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

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_empty_train_split_is_a_value_error(self, epochs):
        # named before any draw, where it was a ZeroDivisionError from the
        # epoch's mean loss over no minibatches
        cell, head, tr, te, cfg = self.small_setup(epochs=epochs)
        empty = Dataset(tr.xs[:0], tr.labels[:0])
        before = {k: v.copy() for k, v in cell.params().items()}
        with pytest.raises(ValueError, match="^cannot train on an empty train split$"):
            train(cell, head, empty, te, cfg)
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

    def test_input_only_block_order(self):
        # an input-only cell names its blocks ht.*, biases, then recurrent,
        # and each epoch's stderr line keeps that order, the head's last
        cell, head, tr, te, cfg = self.small_setup(epochs=1)
        cell = make_cell(12, (4, 4), (2, 2), 2, 2, mode="input-only", seed=1)
        blocks = ["ht.0", "ht.1", "ht.2", "biases", "recurrent"]
        assert list(cell.params()) == blocks
        (rec,) = train(cell, head, tr, te, cfg)
        keys = [field.split("=", 1)[0] for field in epoch_line(rec).split(" ")]
        assert keys == ["epoch", "wall_s", "loss",
                        *(f"grad_norm.{b}" for b in [*blocks, "head.w", "head.b"])]

    def test_history_csv_shape(self):
        cell, head, tr, te, cfg = self.small_setup(epochs=2)
        csv = history_csv(train(cell, head, tr, te, cfg))
        lines = csv.strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(lines) == 3
        assert lines[1].startswith("0,")


@pytest.fixture(scope="module", params=["full", "input-only", "dense"])
def noisy_model(request):
    """A synthetic-geometry cell trained for 2 epochs at noise 3.0, where
    test accuracy stays below 1.0, so a wrong prediction would show."""
    task = SyntheticTask(noise=3.0)
    train_data, test_data = generate_task(task)
    if request.param == "dense":
        cell = make_dense_cell(256, 16, seed=1)
    else:
        cell = make_cell(256, (16, 17), (4, 4), 8, 8, mode=request.param, seed=1)
    head = make_head(task.classes, cell.hidden_size, seed=2)
    train(cell, head, train_data, test_data, TrainConfig(epochs=2, seed=3))
    return cell, head, test_data


class TestEvaluateSplit:
    def test_logits_match_forward_sequence(self, noisy_model):
        cell, head, data = noisy_model
        got = forward_split(cell, head, data.xs)
        want = np.array([forward_sequence(cell, head, xs) for xs in data.xs])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))
        per_sequence = np.mean(np.argmax(want, axis=1) == data.labels)
        assert evaluate(cell, head, data) == per_sequence < 1.0

    def test_split_of_one_sequence(self, noisy_model):
        cell, head, data = noisy_model
        got = forward_split(cell, head, data.xs[:1])
        want = forward_sequence(cell, head, data.xs[0])
        assert got.shape == (1, head.b.size)
        assert np.max(np.abs(got[0] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_peak_memory_flat_in_frames(self, noisy_model):
        # one (B, N) block per time step, reused: eight times the frames
        # may not raise the peak by more than a few small objects
        cell, head, data = noisy_model

        def peak(frames):
            split = Dataset(np.repeat(data.xs[:, :1], frames, axis=1), data.labels)
            evaluate(cell, head, split)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                evaluate(cell, head, split)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16) <= peak(2) + 1024

    @pytest.fixture
    def rows(self, noisy_model, monkeypatch):
        """The row count of every block product that ``forward_split`` runs."""
        frames_type = type(noisy_model[0].gate_map.prepare())
        product, rows = frames_type.product, []

        def spy(frames, x):
            rows.append(len(x))
            return product(frames, x)

        monkeypatch.setattr(frames_type, "product", spy)
        return rows

    def test_blocks_match_one_block(self, noisy_model, monkeypatch, rows):
        # the default budget runs the 160 sequences as one block; one of
        # 30 sequences runs them in 6, with the same logits
        cell, head, data = noisy_model
        one = forward_split(cell, head, data.xs)
        steps = data.xs.shape[1]
        assert rows == [len(data)] * steps
        rows.clear()
        per_row = 8 * (cell.gate_map.in_size + 4 * cell.hidden_size)
        monkeypatch.setattr(fdht.lstm, "SPLIT_BLOCK_BYTES", 31 * per_row - 1)
        got = forward_split(cell, head, data.xs)
        assert rows == [30] * 5 * steps + [10] * steps
        assert np.max(np.abs(got - one)) <= 1e-12 * np.max(np.abs(one))
        assert np.array_equal(np.argmax(got, axis=1), np.argmax(one, axis=1))

    def test_input_only_block_holds_the_recurrent_matrix(self, noisy_model, monkeypatch,
                                                         rows):
        # each input-only step reads the whole (4H x H) recurrent matrix once
        # per block, so a block is budgeted at least that matrix's bytes;
        # full mode keeps SPLIT_BLOCK_BYTES, here one sequence a block
        cell, head, data = noisy_model
        one = forward_split(cell, head, data.xs)
        rows.clear()
        per_row = 8 * (cell.gate_map.in_size + 4 * cell.hidden_size)
        monkeypatch.setattr(fdht.lstm, "SPLIT_BLOCK_BYTES", per_row)
        got = forward_split(cell, head, data.xs)
        if cell.recurrent is None:
            size = 1
        else:
            assert cell.recurrent.nbytes > per_row
            size = cell.recurrent.nbytes // per_row
        sizes = [min(size, len(data) - first) for first in range(0, len(data), size)]
        assert rows == [b for b in sizes for _ in range(data.xs.shape[1])]
        assert np.max(np.abs(got - one)) <= 1e-12 * np.max(np.abs(one))

    @pytest.mark.parametrize("config, count", [("ucf11-direct", 32), ("hmdb51-cnn", 64)])
    def test_reference_split_peak_is_bounded(self, config, count):
        # the split runs in blocks of SPLIT_BLOCK_BYTES, so the peak does not
        # grow with it; one block of the whole split would hold 29.0 and
        # 30.7 MiB
        m = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{config}.ini").model
        cell = make_cell(m.n_x, m.n_shape, m.m_shape, m.leaf_rank, m.internal_rank, seed=1)
        head = make_head(8, cell.hidden_size, seed=2)
        xs = np.random.default_rng(29).normal(size=(count, 2, m.n_x)) / m.n_x ** 0.5
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            forward_split(cell, head, xs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    @pytest.mark.parametrize("xs, message", [
        (np.ones((3, 2, 5)), "input has length 5, expected 4"),
        ([[np.ones(4), np.ones(5)], [np.ones(4), np.ones(4)]], "input has length 5, expected 4"),
        (np.ones((3, 4)), r"input has shape \(\), expected \(4,\)"),
        (np.ones((3, 2, 2, 2)), r"input has shape \(2, 2\), expected \(4,\)"),
        (np.ones((3, 0, 4)), "cannot run an empty sequence"),
        (np.ones((0, 2, 4)), "cannot run an empty split"),
        ([np.ones((2, 4)), np.ones((3, 4))], "same number of frames"),
        (5.0, r"input has shape \(\), expected \(4,\)"),
    ], ids=["wrong-length", "ragged-frames", "1-d", "3-d", "empty-sequence",
            "empty-split", "ragged-split", "0-d"])
    def test_bad_split_rejected(self, xs, message):
        cell = make_cell(4, (3, 3), (2, 2), 2, 2, seed=9)
        head = make_head(3, cell.hidden_size, seed=0)
        labels = np.zeros(0 if np.isscalar(xs) else len(xs), dtype=np.int64)
        with pytest.raises(ValueError, match=message) as exc:
            evaluate(cell, head, Dataset(xs, labels))
        assert "\n" not in str(exc.value)


class TestMinibatchMemory:
    # One bptt + adam_step minibatch holds, at its peak, the frames'
    # buffers, the gradient dict, one sequence's blocks and the step
    # backward's temporaries. A sequence's blocks go when its backward is
    # done, so a batch needs no more than its largest sequence; blocks
    # kept one sequence longer would exceed the bound at either geometry.
    # A step's activations live in the frames' dy rows, which "frames"
    # counts, so "sequence" holds no activation block: a block of its own
    # (steps * 4 * H) would exceed the bound at hmdb51-cnn. The slack for
    # Python objects stays under one synthetic sequence's blocks. The bound
    # is that of one sequence at a time with its T' block and its packed
    # inputs: bptt runs lockstep groups (4 sequences at synthetic, 2 at
    # hmdb51-cnn), keeps no T' block and holds one input row per group,
    # refilled every step, and those bytes pay for the other sequences'
    # blocks.
    @pytest.mark.parametrize("geometry", ["synthetic", "hmdb51-cnn"])
    def test_peak_holds_one_sequence(self, geometry):
        n_x, n, m, leaf, internal, count = {
            "synthetic": (256, (16, 17), (4, 4), 8, 8, 16),
            "hmdb51-cnn": (2048, (8, 8, 8, 8), (4, 8, 8, 8), 14, 12, 4)}[geometry]
        cell = make_cell(n_x, n, m, leaf, internal, seed=1)
        head = make_head(8, cell.hidden_size, seed=2)
        rng = np.random.default_rng(28)
        steps = 6
        batch = [(rng.normal(size=(steps, n_x)) / n_x ** 0.5, i % 8) for i in range(count)]
        params = {**cell.params(), "head.w": head.w, "head.b": head.b}
        config, adam = TrainConfig(), AdamState()

        def minibatch():
            _, grads = bptt(cell, head, batch, dropout_rate=0.25, rng=np.random.default_rng(3))
            adam_step(params, grads, adam, config)

        minibatch()  # ADAM's moments exist from here on, as in every later minibatch
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            minibatch()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        g, rl, ml, mr, nl, nr = RootFrames(cell.weight).shape
        h, size = cell.hidden_size, cell.gate_map.in_size
        entries = {
            "frames": 2 * ml * rl * nl + 2 * rl * nr * g * mr + steps * ml * (rl * nr + g * mr),
            "gradients": sum(p.size for p in params.values()),
            # packed rows, c (with the initial state), tanh(c), last h
            "sequence": steps * size + (steps + 1) * h + steps * h + h,
            # dt and the dU product, and three (4, H) gate-stage arrays
            "step backward": ml * rl * (nr + nl) + 3 * 4 * h,
        }
        objects = 12 * 1024  # Python objects: views, tuples, the sequence
        assert peak <= 8 * sum(entries.values()) + objects
        assert 8 * entries["sequence"] > objects

    def test_prepare_peak_holds_the_frames_and_one_v(self):
        # Training frames hold U, V and their cotangents. Building them
        # makes the child frames and V's untransposed product, which must
        # go before the cotangents are allocated to keep the peak within
        # one V of what the frames hold: kept, they read 5.44 MiB against
        # this 4.88 MiB bound at hmdb51-cnn
        cell = make_cell(2048, (8, 8, 8, 8), (4, 8, 8, 8), 14, 12, seed=1)
        grads = {name: np.zeros(p.shape) for name, p in cell.params().items()}
        cell.gate_map.prepare(grads)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            frames = cell.gate_map.prepare(grads)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (frames.u, frames.du, frames.v, frames.dvt))
        assert peak <= held + frames.v.nbytes
