"""FDHT LSTM cell: padding arithmetic, gate math, dense-oracle agreement,
backpropagation through time."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fdht.lstm
from fdht.config import load_config
from fdht.ht import HTWeight, RootFrames, htl_forward, init_ht_weight, reconstruct_dense
from fdht.lstm import (GATE_ORDER, DenseGateMap, DenseLstmCell,
                       FdhtLstmCell, Head, LstmState, Sequence, _gate_backward,
                       _gate_forward, bptt, forward_sequence, group_size, make_cell, make_head,
                       sigmoid, softmax_cross_entropy, zero_grads)
from oracles import (fd_param_dict, make_dense_cell, max_rel_error,
                     per_gate_backward, per_gate_forward)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_cell(mode="full", seed=9, **kw):
    return make_cell(n_x=4, n_shape=(3, 3), m_shape=(2, 2), leaf_rank=2,
                     internal_rank=2, mode=mode, seed=seed, **kw)


class TestMakeCell:
    def test_ucf11_direct_padding(self):
        cell = make_cell(57600, (16, 16, 16, 15), (4, 4, 4, 4), 2, 2, seed=0)
        assert cell.hidden_size == 256
        assert cell.pad_len == 61440 - 57600 - 256 == 3584
        assert cell.weight.in_size == 61440

    def test_cnn_config_zero_padding(self):
        cell = make_cell(2048, (8, 8, 8, 8), (4, 8, 8, 8), 2, 2, seed=0)
        assert cell.hidden_size == 2048
        assert cell.pad_len == 0

    def test_exact_fit(self):
        # prod(n)=9 = 5 + 4 exactly
        cell = make_cell(5, (3, 3), (2, 2), 1, 1, seed=0)
        assert cell.pad_len == 0

    def test_too_small_reports_minimum(self):
        with pytest.raises(ValueError, match="at least n_x \\+ hidden = 9"):
            make_cell(5, (2, 2), (2, 2), 1, 1, seed=0)

    @pytest.mark.parametrize("n_x", [0, -2])
    def test_n_x_below_one_rejected(self, n_x):
        # with n_x = 0 the cell would step on an empty x; below 0 no x fits
        with pytest.raises(ValueError, match=f"n_x must be >= 1, got {n_x}"):
            make_cell(n_x, (3, 3), (2, 2), 2, 2)
        with pytest.raises(ValueError, match=f"n_x must be >= 1, got {n_x}"):
            DenseLstmCell(np.zeros((16, 9)), n_x=n_x)

    def test_forget_bias_one_rest_zero(self):
        cell = small_cell()
        assert cell.biases.shape == (4, 4)
        assert np.all(cell.biases[0] == 1.0)  # f
        assert np.all(cell.biases[1:] == 0.0)  # u, c, o

    def test_root_rank_must_be_four(self):
        w = init_ht_weight((2, 2), (3, 3), 2, 2, 3, seed=0)
        with pytest.raises(ValueError, match="root rank 4"):
            FdhtLstmCell(w, n_x=4)

    def test_dense_rows_must_be_a_multiple_of_four(self):
        with pytest.raises(ValueError, match="weight rows must be a multiple of 4, got 15$"):
            DenseLstmCell(np.zeros((15, 9)), 4)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match=r"mode must be one of .*, got 'bogus'"):
            small_cell(mode="bogus")

    def test_mode_read_from_recurrent_block(self):
        cell = small_cell(mode="input-only")
        assert FdhtLstmCell(cell.weight, n_x=4).mode == "full"
        assert FdhtLstmCell(cell.weight, n_x=4,
                            recurrent=cell.recurrent).mode == "input-only"
        with pytest.raises(ValueError, match=r"recurrent matrix must be \(16, 4\)"):
            FdhtLstmCell(cell.weight, n_x=4, recurrent=cell.recurrent[:4])

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (4,)])
    def test_bias_shape_checked(self, shape):
        # (4, 3) would fail at the first step; (4, 1) and (4,) would
        # broadcast silently
        biases = np.zeros(shape)
        expected = rf"biases must have shape \(4, 4\), got {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=expected):
            FdhtLstmCell(small_cell().weight, n_x=4, biases=biases)
        with pytest.raises(ValueError, match=expected):
            DenseLstmCell(np.zeros((16, 9)), n_x=4, biases=biases)


class TestStep:
    def test_zero_weight_zero_bias_identities(self):
        cell = small_cell()
        for f in cell.weight.factors:
            f[:] = 0.0
        cell.biases[:] = 0.0
        c0 = np.array([0.3, -1.2, 0.0, 2.0])
        out = cell.step(np.zeros(4), LstmState(np.zeros(4), c0))
        np.testing.assert_allclose(out.c, 0.5 * c0, atol=1e-15)
        np.testing.assert_allclose(out.h, 0.5 * np.tanh(0.5 * c0), atol=1e-15)

    def test_recurrent_path_is_live(self):
        cell = small_cell(seed=4)
        x = np.zeros(4)
        s_a = cell.step(x, LstmState(np.zeros(4), np.zeros(4)))
        s_b = cell.step(x, LstmState(np.ones(4), np.zeros(4)))
        assert np.max(np.abs(s_a.h - s_b.h)) > 1e-8

    def test_matches_dense_lstm_step(self):
        rng = np.random.default_rng(14)
        cell = small_cell(seed=2)
        dense = DenseLstmCell(reconstruct_dense(cell.weight), n_x=4,
                              biases=cell.biases)
        state_f = LstmState(rng.normal(size=4), rng.normal(size=4))
        state_d = LstmState(state_f.h.copy(), state_f.c.copy())
        x = rng.normal(size=4)
        out_f = cell.step(x, state_f)
        out_d = dense.step(x, state_d)
        assert np.max(np.abs(out_f.h - out_d.h)) <= 1e-10
        assert np.max(np.abs(out_f.c - out_d.c)) <= 1e-10

    def test_trajectory_matches_dense_over_8_steps(self):
        rng = np.random.default_rng(15)
        for seed in range(3):
            cell = make_cell(4, (3, 3), (2, 2), 2, 2, seed=seed)
            dense = DenseLstmCell(reconstruct_dense(cell.weight), n_x=4,
                                  biases=cell.biases)
            sf, sd = cell.init_state(), dense.init_state()
            for _ in range(8):
                x = rng.normal(size=4)
                sf = cell.step(x, sf)
                sd = dense.step(x, sd)
                assert np.max(np.abs(sf.h - sd.h)) <= 1e-9
                assert np.max(np.abs(sf.c - sd.c)) <= 1e-9

    def test_gate_ranges(self):
        rng = np.random.default_rng(16)
        cell = small_cell(seed=8)
        seq = Sequence(cell, [rng.normal(size=(5, 4))])
        for t in range(5):
            cell.step_packed(cell.gate_map, seq, t)
        for act, tanh_c in zip(seq.act, seq.tanh_c):
            f, u, c_in, o = act
            for gate in (f, u, o):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            assert np.all(np.abs(c_in) < 1.0) and np.all(np.abs(tanh_c) < 1.0)

    def test_input_size_checked(self):
        for cell in (small_cell(), make_dense_cell(4, 4, seed=0)):
            with pytest.raises(ValueError, match="expected 4"):
                cell.step(np.ones(5), cell.init_state())

    @pytest.mark.parametrize("mode", ["full", "input-only", "dense"])
    def test_packing_layout(self, mode):
        # [x | zeros(pad) | h] and the gate formulas, written out by hand
        rng = np.random.default_rng(20)
        if mode == "dense":
            w = rng.normal(size=(16, 9))
            cell = DenseLstmCell(w, n_x=4)
        else:
            cell = small_cell(mode=mode, seed=1)
            w = reconstruct_dense(cell.weight)
        assert cell.pad_len == 1
        cell.biases[:] = rng.normal(size=(4, 4))  # rows f, u, c, o
        x, h, c = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
        if mode == "input-only":
            z = w @ np.concatenate([x, np.zeros(5)]) + cell.recurrent @ h
        else:
            z = w @ np.concatenate([x, np.zeros(1), h])
        f, u, c_in, o = (z[4 * k:4 * k + 4] + cell.biases[k] for k in range(4))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        c_new = sig(f) * c + sig(u) * np.tanh(c_in)
        out = cell.step(x, LstmState(h, c))
        assert np.max(np.abs(out.c - c_new)) <= 1e-12
        assert np.max(np.abs(out.h - sig(o) * np.tanh(c_new))) <= 1e-12


class TestGateStage:
    @pytest.mark.parametrize("h", [1, 4, 2048])
    @pytest.mark.parametrize("scale", [30.0, 745.0, 1e4])
    def test_matches_per_gate_oracle_bitwise(self, h, scale):
        # every other pre-activation sits at +scale or -scale, deep in a
        # tail; at h = 1 that puts gate u at +scale and gate o at -scale.
        # A second block cycles 0.0, -0.0, inf and -inf through the gate
        # rows (each row meets all four from h = 4 on) over a bias of
        # -0.0, so that z + bias keeps the sign of a zero.
        rng = np.random.default_rng([h, int(scale)])
        z = rng.normal(scale=3.0, size=4 * h)
        z[1::2] = scale * np.tile([1.0, -1.0], h)
        bias = rng.normal(size=(4, h))
        c_prev, dh, dc = rng.normal(size=(3, h))
        special = np.resize([0.0, -0.0, np.inf, -np.inf], 4 * h)
        for pre, b in ((z, bias), (special, np.full((4, h), -0.0))):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                act, c, tanh_c, h_new = np.empty((4, h)), np.empty(h), np.empty(h), np.empty(h)
                _gate_forward(pre, b, c_prev, act, c, tanh_c, h_new)
                gates = act.copy()
                dz, dc_prev = _gate_backward(act, c_prev, tanh_c, dh, dc)
                want_h, want_c, want_gates = per_gate_forward(
                    pre, dict(zip("fuco", b)), c_prev)
                want_dz, want_dc_prev = per_gate_backward(want_gates, dh, dc)
            assert dz is act  # written over the activations, as in BPTT's rows
            assert gates.tobytes() == np.stack(want_gates[:4]).tobytes()
            assert tanh_c.tobytes() == want_gates[5].tobytes()
            assert np.array_equal(h_new, want_h)
            assert np.array_equal(c, want_c)
            assert np.array_equal(dz.reshape(-1), want_dz)
            assert np.array_equal(dc_prev, want_dc_prev)
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()

    def test_sigmoid_saturates_exactly(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert sigmoid(np.array([1e4, -1e4])).tolist() == [1.0, 0.0]


class TestPaddingNeutrality:
    def test_extra_zero_slices_change_nothing(self):
        # grow the first input mode; zero the new leaf slices; pad the input
        rng = np.random.default_rng(17)
        w = init_ht_weight((2, 2), (3, 2), 2, 2, 4, seed=6)
        x = rng.normal(size=w.in_size)
        y = htl_forward(w, x)

        w_big = init_ht_weight((2, 2), (5, 2), 2, 2, 4, seed=6)
        leaf0 = 1  # preorder (0,2) (0,1) (1,2): node 1 is mode 0's leaf
        w_big.factors[leaf0][:] = 0.0
        w_big.factors[leaf0][:, :, :3] = w.factors[leaf0]
        for i in range(len(w.factors)):
            if i != leaf0:
                w_big.factors[i] = w.factors[i].copy()
        x_big = np.concatenate([x, np.zeros(w_big.in_size - w.in_size)])
        y_big = htl_forward(w_big, x_big)
        assert np.max(np.abs(y - y_big)) <= 1e-12


class TestDenseGateMap:
    # the starts of TestRootFrames.test_backward_from_start, on the same
    # (16, 17) weight as one dense matrix, prepared with that start
    @pytest.mark.parametrize("start", [0, 3 * 17, 256, 272])
    def test_backward_from_start(self, start):
        w = init_ht_weight((4, 4), (16, 17), 8, 8, 4, seed=7)
        matrix = reconstruct_dense(w)
        frames = DenseGateMap(matrix).prepare({"w": np.zeros_like(matrix)}, start)
        rng = np.random.default_rng(18)
        packed, dy = rng.normal(size=(1, w.in_size)), rng.normal(size=(4, w.out_size // 4))
        frames.begin(packed, 1)  # the row of a one-step group of one
        frames.forward(packed, 0)
        got = frames.backward(0, dy)
        frames.end()
        frames.finish()
        want = (matrix.T @ dy.reshape(-1))[start:]
        assert got.shape == (1, want.size)
        if want.size:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(frames.grad, np.outer(dy, packed))

    def test_sequence_gradient_is_sum_of_outer_products(self):
        # one GEMM per minibatch against the per-step outer products, over
        # groups of different lengths and sizes
        rng = np.random.default_rng(24)
        matrix = rng.normal(size=(16, 9))
        frames = DenseGateMap(matrix).prepare({"w": np.zeros_like(matrix)})
        want = np.zeros_like(matrix)
        for steps, k in ((3, 2), (5, 1), (5, 2)):
            xs = rng.normal(size=(steps, k, 9))
            row = np.empty((k, 9))
            frames.begin(row, steps)
            for t, x in enumerate(xs):
                row[...] = x
                frames.forward(row, t)
            for t in range(steps - 1, -1, -1):
                dz = rng.normal(size=(4, k, 4))
                row[...] = xs[t]
                frames.backward(t, dz)
                for j in range(k):
                    want += np.outer(dz[:, j], xs[t, j])
            frames.end()
        frames.finish()
        assert np.max(np.abs(frames.grad - want)) <= 1e-12 * np.max(np.abs(want))

    def test_minibatch_gradient_is_one_gemm(self, monkeypatch):
        # The dense map prepared for BPTT adds the weight gradient once, in
        # finish, from its copies of every sequence's rows and dz rows: grads["w"]
        # is still zero when finish starts, and the minibatch's peak holds the
        # gradient, at most one gate's (H, N) product beside it, the kept
        # rows twice (the blocks and finish's concatenation of them) and a
        # slack for Python objects, well below a (4H, N) product.
        h, n_x, steps, count = 64, 960, 3, 8
        rng = np.random.default_rng(27)
        cell = DenseLstmCell(rng.normal(size=(4 * h, n_x + h)) / 32, n_x)
        head = make_head(3, h, seed=0)
        batch = [(rng.normal(size=(steps, n_x)), i % 3) for i in range(count)]
        finish = DenseGateMap.finish
        at_finish = []

        def spy(self):
            at_finish.append(not self.grad.any())
            finish(self)

        monkeypatch.setattr(DenseGateMap, "finish", spy)
        bptt(cell, head, batch)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bptt(cell, head, batch)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert at_finish == [True, True]
        matrix = 4 * h * (n_x + h) * 8
        rows = 2 * count * steps * (n_x + h + 4 * h) * 8
        assert matrix == 2_097_152
        assert peak <= matrix + matrix // 4 + rows + 64 * 1024


# (sequence, message) pairs for n_x = 4: each is rejected where bptt
# checks a sequence, with the message the per-step path gives
BAD_SEQUENCES = {
    "wrong-length": ([np.ones(5)] * 2, "input has length 5, expected 4"),
    "ragged": ([np.ones(4), np.ones(5)], "input has length 5, expected 4"),
    "1-d": (np.ones(4), r"input has shape \(\), expected \(4,\)"),
    "3-d": (np.ones((2, 2, 2)), r"input has shape \(2, 2\), expected \(4,\)"),
    "empty": ([], "cannot run an empty sequence"),
}


class TestSequenceAndHead:
    def test_empty_sequence_rejected(self):
        cell = small_cell()
        head = make_head(3, cell.hidden_size, seed=0)
        with pytest.raises(ValueError, match="empty"):
            forward_sequence(cell, head, [])

    def test_zero_model_logits_equal_head_bias(self):
        cell = small_cell()
        for f in cell.weight.factors:
            f[:] = 0.0
        cell.biases[:] = 0.0
        head = Head(np.zeros((3, 4)), np.array([0.1, -0.2, 0.7]))
        logits = forward_sequence(cell, head, [np.zeros(4)])
        np.testing.assert_allclose(logits, head.b, atol=1e-15)

    def test_permuting_head_rows_permutes_logits(self):
        rng = np.random.default_rng(18)
        cell = small_cell(seed=3)
        head = make_head(4, cell.hidden_size, seed=1)
        xs = [rng.normal(size=4) for _ in range(3)]
        logits = forward_sequence(cell, head, xs)
        perm = np.array([2, 0, 3, 1])
        head_p = Head(head.w[perm], head.b[perm])
        logits_p = forward_sequence(cell, head_p, xs)
        np.testing.assert_allclose(logits_p, logits[perm], atol=1e-12)

    def test_cross_entropy_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros(7), 3)
        assert abs(loss - np.log(7)) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            softmax_cross_entropy(np.zeros(3), 3)


def batch_loss(cell, head, batch):
    return float(np.mean([
        softmax_cross_entropy(forward_sequence(cell, head, xs), lab)[0]
        for xs, lab in batch
    ]))


def check_bptt_fd(cell, head, batch, step=1e-5, tol=1e-4):
    _, grads = bptt(cell, head, batch)
    params = dict(cell.params())
    params["head.w"] = head.w
    params["head.b"] = head.b
    numeric = fd_param_dict(params, lambda: batch_loss(cell, head, batch), step)
    for name in params:
        assert max_rel_error(grads[name], numeric[name]) <= tol, name


class TestBptt:
    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(19)
        return [([rng.normal(size=4) for _ in range(2)], int(rng.integers(0, 3)))
                for _ in range(3)]

    def test_full_mode_matches_fd(self, batch):
        cell = small_cell(seed=5)
        head = make_head(3, cell.hidden_size, seed=2)
        check_bptt_fd(cell, head, batch)

    def test_input_only_mode_matches_fd(self, batch):
        cell = small_cell(mode="input-only", seed=5)
        head = make_head(3, cell.hidden_size, seed=2)
        check_bptt_fd(cell, head, batch)

    def test_dense_cell_matches_fd(self, batch):
        cell = make_dense_cell(4, 4, seed=5)
        head = make_head(3, cell.hidden_size, seed=2)
        check_bptt_fd(cell, head, batch)

    def test_input_gradients_match_fd(self, batch):
        cell = small_cell(seed=7)
        head = make_head(3, cell.hidden_size, seed=2)
        _, _, input_grads = bptt(cell, head, batch, return_input_grads=True)
        xs, _ = batch[0]
        frames = {f"x{t}": xs[t] for t in range(len(xs))}
        numeric = fd_param_dict(frames, lambda: batch_loss(cell, head, batch))
        for t in range(len(xs)):
            assert max_rel_error(input_grads[0][t], numeric[f"x{t}"]) <= 1e-4

    def test_doubling_batch_leaves_mean_gradients(self, batch):
        cell = small_cell(seed=5)
        head = make_head(3, cell.hidden_size, seed=2)
        loss1, g1 = bptt(cell, head, batch)
        loss2, g2 = bptt(cell, head, batch + batch)
        assert abs(loss1 - loss2) <= 1e-12
        for k in g1:
            assert np.max(np.abs(g1[k] - g2[k])) <= 1e-12

    def test_uniform_logits_loss(self):
        cell = small_cell()
        for f in cell.weight.factors:
            f[:] = 0.0
        cell.biases[:] = 0.0
        head = Head(np.zeros((5, 4)), np.zeros(5))
        loss, _ = bptt(cell, head, [([np.zeros(4)], 2)])
        assert abs(loss - np.log(5)) <= 1e-12

    def test_empty_batch_rejected(self):
        cell = small_cell()
        head = make_head(3, cell.hidden_size, seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            bptt(cell, head, [])

    def test_dropout_needs_rng_and_is_seed_deterministic(self, batch):
        cell = small_cell(seed=5)
        head = make_head(3, cell.hidden_size, seed=2)
        with pytest.raises(ValueError, match="rng"):
            bptt(cell, head, batch, dropout_rate=0.5)
        l1, g1 = bptt(cell, head, batch, dropout_rate=0.5,
                      rng=np.random.default_rng(0))
        l2, g2 = bptt(cell, head, batch, dropout_rate=0.5,
                      rng=np.random.default_rng(0))
        assert l1 == l2
        for k in g1:
            assert g1[k].tobytes() == g2[k].tobytes()

    def test_input_grads_not_kept_unless_requested(self):
        # each dx is a view of its step's whole packed-input gradient, so
        # holding it for every sequence grows the peak with the batch;
        # against one group (two sequences), as bptt runs them
        cell = make_cell(4000, (64, 64), (2, 2), 2, 2, seed=0)
        head = make_head(3, cell.hidden_size, seed=1)
        rng = np.random.default_rng(4)
        batch = [([rng.normal(size=4000) for _ in range(4)], i % 3)
                 for i in range(16)]

        def peak(examples):
            bptt(cell, head, examples)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                bptt(cell, head, examples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_sequence = 4 * cell.gate_map.in_size * 8
        assert peak(batch) - peak(batch[:2]) <= one_sequence

    @pytest.mark.parametrize("mode", ["full", "input-only"])
    def test_peak_memory_flat_in_batch_size(self, mode):
        # step caches are dropped as backward uses them and the frames'
        # group blocks are reused, so the whole batch (four groups) may not
        # raise the peak over that of one full group by more than a few
        # small objects
        cell = make_cell(256, (16, 17), (4, 4), 8, 8, mode=mode, seed=1)
        head = make_head(8, cell.hidden_size, seed=2)
        rng = np.random.default_rng(5)
        batch = [([rng.normal(size=256) for _ in range(6)], i % 8)
                 for i in range(16)]

        def peak(examples):
            bptt(cell, head, examples)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                bptt(cell, head, examples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        k = group_size(cell, 6)
        assert k == 4
        assert peak(batch) <= peak(batch[:k]) + 1024

    def test_head_gradient_adds_in_blocks(self):
        # bptt adds each sequence's head.w gradient in blocks of rows of at
        # most HEAD_BLOCK_BYTES: with 2,048 classes a whole (classes x H)
        # outer product, 1 MiB, would sit beside the gradient; the loss and
        # its softmax make a few class-length vectors
        cell = make_cell(8, (8, 9), (8, 8), 2, 2, seed=1)
        rng = np.random.default_rng(6)
        batch = [(rng.normal(size=(3, 8)), i) for i in range(4)]

        def peak(classes):
            head = make_head(classes, cell.hidden_size, seed=2)
            bptt(cell, head, batch)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                bptt(cell, head, batch)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        classes = 2048
        head_grads = 8 * classes * (cell.hidden_size + 1)
        assert 8 * classes * cell.hidden_size == 2 ** 20
        vectors = 16 * 8 * classes
        assert peak(classes) - peak(4) <= head_grads + fdht.lstm.HEAD_BLOCK_BYTES + vectors

    def test_input_only_recurrent_gradient_is_one_gemm_per_group(self, monkeypatch):
        # Each group of two sequences opens a DenseGateMap over its h rows,
        # whose finish adds the recurrent gradient one gate's (H, H) product
        # at a time. At H = 64 a (4H, H) array, 128 KiB, is large against
        # the slack for Python objects, so the peak is bounded by the
        # gradient dict, the frames, one group's blocks, its dz and h rows
        # twice (kept, then concatenated by finish) and one (H, H) gate
        # block: a (4H, H) product per step breaks the bound.
        n_x, steps, count = 8, 6, 8
        cell = make_cell(n_x, (8, 9), (8, 8), 2, 2, mode="input-only", seed=1)
        head = make_head(3, cell.hidden_size, seed=2)
        h, n = cell.hidden_size, cell.gate_map.in_size
        rng = np.random.default_rng(5)
        batch = [(rng.normal(size=(steps, n_x)), i % 3) for i in range(count)]
        finish, finished = DenseGateMap.finish, []

        def spy(self):
            finished.append(self.grad.shape)
            finish(self)

        monkeypatch.setattr(DenseGateMap, "finish", spy)
        grads = zero_grads(cell, head)
        bptt(cell, head, batch)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            frames = cell.gate_map.prepare(grads, n)
            frames.begin(np.zeros((2, n)), steps)
            frame_bytes = tracemalloc.get_traced_memory()[0] - base
            del frames
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bptt(cell, head, batch)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        grad_bytes = sum(g.nbytes for g in grads.values())
        # a packed block's worth (more than the group's one row), c, tanh_c and h
        group = 2 * 8 * (steps * n + (3 * steps + 2) * h)
        rows = 2 * 2 * 8 * steps * (4 * h + h)
        gate = 8 * h * h
        assert 8 * 4 * h * h == 131_072 and frame_bytes > 0
        assert peak <= grad_bytes + frame_bytes + group + rows + gate + 64 * 1024
        assert finished == [(4 * h, h)] * count  # count / 2 groups, in each of two bptt

    def test_bad_sequences_rejected(self):
        # one line, the same from bptt's packing as from the per-step path
        for cell in (small_cell(), small_cell("input-only"), make_dense_cell(4, 4, seed=0)):
            head = make_head(3, cell.hidden_size, seed=0)
            for xs, message in BAD_SEQUENCES.values():
                for run in (lambda: bptt(cell, head, [([np.ones(4)], 0), (xs, 1)]),
                            lambda: forward_sequence(cell, head, xs)):
                    with pytest.raises(ValueError, match=message) as exc:
                        run()
                    assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("mode", ["full", "input-only"])
    def test_matches_dense_cell(self, mode):
        self.check_against_dense_cell(mode, [6] * 5)

    @pytest.mark.parametrize("mode", ["full", "input-only"])
    def test_mixed_lengths_match_dense_cell(self, mode):
        # each change of length reallocates the frames' sequence blocks
        self.check_against_dense_cell(mode, [2, 5, 3])

    @pytest.mark.parametrize("mode", ["full", "input-only"])
    def test_split_dv_matches_dense_cell(self, mode):
        # m_L = 2 and m_R = 8: every sequence's V cotangent is added one
        # gate's m_R rows at a time
        self.check_against_dense_cell(mode, [6, 3, 6], m_shape=(2, 8))

    @staticmethod
    def check_against_dense_cell(mode, lengths, m_shape=(4, 4)):
        # the synthetic geometry (or another m_shape with the same 16
        # hidden units) against a dense cell on the reconstructed matrix;
        # in input-only mode the recurrent matrix takes the dense columns
        # that the HT map only ever sees as zeros. Both cells run with and
        # without input gradients: without them (bptt's default) the gate
        # maps compute only the h rows of their input cotangent.
        cell = make_cell(256, (16, 17), m_shape, 8, 8, mode=mode, seed=1)
        head = make_head(8, cell.hidden_size, seed=2)
        rng = np.random.default_rng(21)
        batch = [([rng.normal(size=256) / 16 for _ in range(steps)], i % 8)
                 for i, steps in enumerate(lengths)]
        w = cell.weight
        h_cols = slice(cell.n_x + cell.pad_len, None)
        matrix = reconstruct_dense(w)
        if mode == "input-only":
            matrix[:, h_cols] = cell.recurrent
        dense = DenseLstmCell(matrix, cell.n_x, biases=cell.biases)

        def run(c, input_grads):
            return bptt(c, head, batch, dropout_rate=0.25,
                        rng=np.random.default_rng(3), return_input_grads=input_grads)

        def rel(got, want):
            return np.max(np.abs(np.subtract(got, want))) / np.max(np.abs(want))

        paths = {}
        for input_grads in (True, False):
            loss, grads, *dx = run(cell, input_grads)
            d_loss, d_grads, *d_dx = run(dense, input_grads)
            paths[input_grads] = grads
            assert rel(loss, d_loss) <= 1e-9
            if input_grads:
                # one dL/dx_t per step of every sequence, whatever their lengths
                assert rel(np.concatenate(sum(dx[0], [])),
                           np.concatenate(sum(d_dx[0], []))) <= 1e-9
            for k, g in enumerate(GATE_ORDER):
                assert rel(grads["biases"][k], d_grads["biases"][k]) <= 1e-9, g
            for name in ("head.w", "head.b"):
                assert rel(grads[name], d_grads[name]) <= 1e-9, name
            dw = d_grads["w"]
            if mode == "input-only":
                assert rel(grads["recurrent"], dw[:, h_cols]) <= 1e-9
                dw[:, h_cols] = 0.0
            # reconstruction is linear in each factor, so for any direction V,
            # <dL/dfactor_i, V> = <dL/dW, W(factor_i := V)>
            for i in range(len(w.factors)):
                direction = rng.normal(size=w.factors[i].shape)
                factors = list(w.factors)
                factors[i] = direction
                wv = reconstruct_dense(HTWeight(w.tree, w.m_shape, w.n_shape, factors))
                assert rel(np.vdot(grads[f"ht.{i}"], direction), np.vdot(dw, wv)) <= 1e-9
        # the two paths differ at most in the shape of the dh GEMM
        for name, g in paths[True].items():
            assert rel(paths[False][name], g) <= 1e-12, name

    @pytest.mark.parametrize("mode", ["full", "input-only", "dense"])
    def test_one_step_call_per_step(self, mode, monkeypatch):
        # bptt steps through step_packed and step_backward once per step of
        # each group (the two sequences of length 2 are one group), and
        # forward_sequence through step_cached once per frame, so a span
        # around one of them (perfbench's lstm.step_backward) times the
        # real per-step work
        cell = make_dense_cell(4, 4, seed=3) if mode == "dense" else small_cell(mode, seed=3)
        head = make_head(3, cell.hidden_size, seed=0)
        rng = np.random.default_rng(26)
        lengths = (2, 2, 3, 1)
        batch = [(rng.normal(size=(steps, 4)), steps % 3) for steps in lengths]
        calls = {}
        for name in ("step_packed", "step_backward", "step_cached"):
            def spy(self, *args, _name=name, _method=getattr(FdhtLstmCell, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(FdhtLstmCell, name, spy)
        for input_grads in (False, True):
            calls.clear()
            bptt(cell, head, batch, return_input_grads=input_grads)
            assert calls == {"step_packed": 6, "step_backward": 6}
        calls.clear()
        forward_sequence(cell, head, batch[2][0])
        assert calls == {"step_cached": 3, "step_packed": 3}

    @pytest.mark.parametrize("mode", ["full", "input-only", "dense"])
    @pytest.mark.parametrize("lengths", [(6, 6, 4, 6, 6, 5), (6, 6, 6), (6,) * 7 + (5,)])
    def test_groups_equal_one_sequence_batches(self, mode, lengths):
        # bptt runs consecutive equal-length sequences in lockstep groups
        # of up to group_size (4 here; the last lengths make HT groups of
        # 4, 3 and 1), and a change of length ends a group; the mean over
        # one-sequence batches, drawing their dropout masks from one
        # generator in batch order, is the same loss, gradients and input
        # gradients at the synthetic geometry
        cell = make_cell(256, (16, 17), (4, 4), 8, 8,
                         mode="full" if mode == "dense" else mode, seed=1)
        if mode == "dense":
            cell = DenseLstmCell(reconstruct_dense(cell.weight), cell.n_x, biases=cell.biases)
        head = make_head(8, cell.hidden_size, seed=2)
        rng = np.random.default_rng(29)
        batch = [(rng.normal(size=(steps, 256)) / 16, i % 8) for i, steps in enumerate(lengths)]
        b = len(batch)

        def rel(got, want):
            return np.max(np.abs(np.subtract(got, want))) / np.max(np.abs(want))

        for input_grads in (False, True):
            loss, grads, *dx = bptt(cell, head, batch, dropout_rate=0.25,
                                    rng=np.random.default_rng(4), return_input_grads=input_grads)
            draws = np.random.default_rng(4)
            singles = [bptt(cell, head, [example], dropout_rate=0.25, rng=draws,
                            return_input_grads=input_grads) for example in batch]
            assert rel(loss, sum(one[0] for one in singles) / b) <= 1e-12
            for name, g in grads.items():
                assert rel(g, sum(one[1][name] for one in singles) / b) <= 1e-12, name
            if input_grads:
                for got, one in zip(dx[0], singles):
                    assert rel(np.array(got), np.array(one[2][0]) / b) <= 1e-12

    def test_group_size_per_shipped_config(self):
        # the rule's group size for each config's own sequences: more than
        # two only where steps are call-bound, at the small geometries
        want = {"gradcheck-small": 35, "hmdb51-cnn": 2, "rank-sweep": 2, "synthetic": 4,
                "synthetic-input-only": 4, "ucf11-cnn": 2, "ucf11-direct": 2,
                "youtube-direct": 2}
        got = {}
        for path in sorted(CONFIGS.glob("*.ini")):
            cfg = load_config(path)
            m = cfg.model
            cell = make_cell(m.n_x, m.n_shape, m.m_shape, m.leaf_rank, m.internal_rank, m.mode)
            got[path.stem] = group_size(cell, cfg.task.frames)
        assert got == want

    def test_each_frames_forward_serves_a_group(self, monkeypatch):
        # a 16-sequence, 6-step minibatch runs as 4 lockstep groups of 4:
        # 24 products of the prepared frames, each over a row of four inputs;
        # a sequence at a time would make 96
        cell = make_cell(256, (16, 17), (4, 4), 8, 8, seed=1)
        head = make_head(8, cell.hidden_size, seed=2)
        rng = np.random.default_rng(30)
        batch = [(rng.normal(size=(6, 256)) / 16, i % 8) for i in range(16)]
        forward, rows = RootFrames.forward, []

        def spy(self, x, t):
            rows.append(len(x))
            return forward(self, x, t)

        monkeypatch.setattr(RootFrames, "forward", spy)
        bptt(cell, head, batch)
        assert rows == [4] * 24

    @pytest.mark.parametrize("mode", ["full", "input-only", "dense"])
    def test_np_dot_calls_do_not_grow_with_steps(self, mode, monkeypatch):
        # the GEMMs of every step and of the head are bound ndarray.dot (or
        # @) calls, which skip np.dot's Python-level dispatch: a minibatch
        # calls np.dot only to build the HT frames (once) and to finish
        # them (twice), whatever its number of steps
        cell = make_dense_cell(4, 4, seed=3) if mode == "dense" else small_cell(mode, seed=3)
        head = make_head(3, cell.hidden_size, seed=0)
        rng = np.random.default_rng(28)
        dot, calls = np.dot, []

        def spy(*args, **kwargs):
            calls.append(1)
            return dot(*args, **kwargs)

        monkeypatch.setattr(np, "dot", spy)
        for lengths in ((2, 3, 1), (5, 4, 6, 3)):
            batch = [(rng.normal(size=(steps, 4)), steps % 3) for steps in lengths]
            for input_grads in (False, True):
                calls.clear()
                bptt(cell, head, batch, return_input_grads=input_grads)
                assert len(calls) == (0 if mode == "dense" else 3), (lengths, input_grads)

    def test_one_run_plan_per_frame_and_no_tensordot_on_a_hit(self, monkeypatch):
        # forward_sequence runs the plan once per frame; a call whose
        # factors are unchanged runs two np.dot GEMMs and no np.tensordot
        cell = make_cell(n_x=4, n_shape=(2, 3, 2), m_shape=(1, 2, 2), leaf_rank=2,
                         internal_rank=3, seed=3)
        head = make_head(3, cell.hidden_size, seed=0)
        xs = np.random.default_rng(27).normal(size=(3, 4))
        tensordots, per_call = [], []

        def tensordot(*args, _f=np.tensordot, **kwargs):
            tensordots.append(1)
            return _f(*args, **kwargs)

        def run_plan(*args, _f=fdht.lstm.run_plan):
            before = len(tensordots)
            tape = _f(*args)
            per_call.append(len(tensordots) - before)
            return tape

        monkeypatch.setattr(np, "tensordot", tensordot)
        monkeypatch.setattr(fdht.lstm, "run_plan", run_plan)
        forward_sequence(cell, head, xs)
        assert len(per_call) == 3 and per_call[1:] == [0, 0]  # a miss, then hits
        per_call.clear()
        forward_sequence(cell, head, xs)
        assert per_call == [0, 0, 0]

    @pytest.mark.parametrize("mode", ["full", "input-only", "dense"])
    def test_default_bptt_asks_only_for_h_rows(self, mode, monkeypatch):
        # each bptt prepares the gate map once: without input gradients its
        # backward starts at the h slice, the row's last H columns, in
        # every mode, with them at row 0
        cell = make_dense_cell(4, 4, seed=3) if mode == "dense" else small_cell(mode, seed=3)
        head = make_head(3, cell.hidden_size, seed=0)
        rng = np.random.default_rng(23)
        batch = [([rng.normal(size=4) for _ in range(steps)], steps % 3)
                 for steps in (2, 3)]
        map_type = type(cell.gate_map)
        prepare, starts = map_type.prepare, []

        def spy(self, grads=None, start=0):
            starts.append(start)
            return prepare(self, grads, start)

        monkeypatch.setattr(map_type, "prepare", spy)
        bptt(cell, head, batch)
        assert starts == [cell.gate_map.in_size - cell.hidden_size]
        starts.clear()
        bptt(cell, head, batch, return_input_grads=True)
        assert starts == [0]

    @pytest.mark.parametrize("mode", ["full", "input-only", "dense"])
    def test_step_backward_into_plain_grad_dict(self, mode):
        # zeros_like over params() plus the head, with no shared bias
        # buffer, takes the same accumulation as zero_grads' dict, bit for bit
        if mode == "dense":
            cell = make_dense_cell(4, 4, seed=3)
        else:
            cell = small_cell(mode=mode, seed=3)
        head = make_head(3, cell.hidden_size, seed=0)
        rng = np.random.default_rng(22)
        xs, dh = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4))

        def accumulate(grads):
            # as bptt runs a group of two sequences: in input-only mode the
            # frames' end adds the recurrent gradient
            frames = cell.gate_map.prepare(grads)
            seq = Sequence(cell, list(xs), frames=frames)
            for t in range(3):
                cell.step_packed(frames, seq, t)
            g_h, g_c = dh, np.zeros((2, 4))
            for t in reversed(range(3)):
                g_h, g_c, _ = cell.step_backward(frames, seq, t, g_h, g_c, grads)
            frames.end()
            frames.finish()
            return grads

        plain = {k: np.zeros_like(v) for k, v in cell.params().items()}
        plain["head.w"] = np.zeros_like(head.w)
        plain["head.b"] = np.zeros_like(head.b)
        got = accumulate(plain)
        want = accumulate(zero_grads(cell, head))
        assert got.keys() == want.keys()
        assert np.any(want["biases"] != 0.0)
        assert mode != "input-only" or np.any(want["recurrent"] != 0.0)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_zero_grads_covers_all_params(self):
        cell = small_cell(mode="input-only")
        head = make_head(3, cell.hidden_size, seed=0)
        grads = zero_grads(cell, head)
        expected = set(cell.params()) | {"head.w", "head.b"}
        assert set(grads) == expected
        assert "recurrent" in grads
