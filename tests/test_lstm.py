"""FDHT LSTM cell: padding arithmetic, gate math, dense-oracle agreement,
backpropagation through time."""

import re
import tracemalloc

import numpy as np
import pytest

from fdht.ht import HTWeight, htl_forward, init_ht_weight, reconstruct_dense
from fdht.lstm import (GATE_ORDER, DenseLstmCell, FdhtLstmCell, Head,
                       LstmState, _gate_backward, _gate_forward, bptt,
                       forward_sequence, make_cell, make_dense_cell,
                       make_head, sigmoid, softmax_cross_entropy, zero_grads)
from oracles import (fd_param_dict, max_rel_error, per_gate_backward,
                     per_gate_forward)


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

    def test_forget_bias_one_rest_zero(self):
        cell = small_cell()
        assert cell.biases.shape == (4, 4)
        assert np.all(cell.biases[0] == 1.0)  # f
        assert np.all(cell.biases[1:] == 0.0)  # u, c, o

    def test_root_rank_must_be_four(self):
        w = init_ht_weight((2, 2), (3, 3), 2, 2, 3, seed=0)
        with pytest.raises(ValueError, match="root rank 4"):
            FdhtLstmCell(w, n_x=4)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            small_cell(mode="both")

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
        state = cell.init_state()
        for _ in range(5):
            state, cache = cell.step_cached(rng.normal(size=4), state)
            act, _, tanh_c = cache["gates"]
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
        # tail; at h = 1 that puts gate u at +scale and gate o at -scale
        rng = np.random.default_rng([h, int(scale)])
        z = rng.normal(scale=3.0, size=4 * h)
        z[1::2] = scale * np.tile([1.0, -1.0], h)
        bias = rng.normal(size=(4, h))
        c_prev, dh, dc = rng.normal(size=(3, h))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            state, gates = _gate_forward(z, bias, c_prev)
            dz, dc_prev = _gate_backward(gates, dh, dc)
            want_h, want_c, want_gates = per_gate_forward(
                z, dict(zip("fuco", bias)), c_prev)
            want_dz, want_dc_prev = per_gate_backward(want_gates, dh, dc)
        assert np.array_equal(state.h, want_h)
        assert np.array_equal(state.c, want_c)
        assert np.array_equal(dz.reshape(-1), want_dz)
        assert np.array_equal(dc_prev, want_dc_prev)

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
        # holding it for every sequence grows the peak with the batch
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
        assert peak(batch) - peak(batch[:1]) <= one_sequence

    def test_bad_sequences_rejected(self):
        for cell in (small_cell(), make_dense_cell(4, 4, seed=0)):
            head = make_head(3, cell.hidden_size, seed=0)
            with pytest.raises(ValueError, match="length 5, expected 4"):
                bptt(cell, head, [([np.ones(4), np.ones(5)], 0)])
            with pytest.raises(ValueError, match="empty sequence"):
                bptt(cell, head, [([np.ones(4)], 0), ([], 1)])

    @pytest.mark.parametrize("mode", ["full", "input-only"])
    def test_matches_dense_cell(self, mode):
        # the synthetic geometry against a dense cell on the reconstructed
        # matrix; in input-only mode the recurrent matrix takes the dense
        # columns that the HT map only ever sees as zeros
        cell = make_cell(256, (16, 17), (4, 4), 8, 8, mode=mode, seed=1)
        head = make_head(8, cell.hidden_size, seed=2)
        rng = np.random.default_rng(21)
        batch = [([rng.normal(size=256) / 16 for _ in range(6)], i % 8)
                 for i in range(5)]
        w = cell.weight
        h_cols = slice(cell.n_x + cell.pad_len, None)
        matrix = reconstruct_dense(w)
        if mode == "input-only":
            matrix[:, h_cols] = cell.recurrent
        dense = DenseLstmCell(matrix, cell.n_x, biases=cell.biases)

        def run(c):
            return bptt(c, head, batch, dropout_rate=0.25,
                        rng=np.random.default_rng(3), return_input_grads=True)

        def rel(got, want):
            return np.max(np.abs(np.subtract(got, want))) / np.max(np.abs(want))

        loss, grads, dx = run(cell)
        d_loss, d_grads, d_dx = run(dense)
        assert rel(loss, d_loss) <= 1e-9
        assert rel(dx, d_dx) <= 1e-9
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
        xs, dh = rng.normal(size=(3, 4)), rng.normal(size=4)

        def accumulate(grads):
            frames = cell.gate_map.prepare(grads)
            state, caches = cell.init_state(), []
            for x in xs:
                state, cache = cell.step_frames(frames, x, state)
                caches.append(cache)
            g_h, g_c = dh, np.zeros(4)
            for cache in reversed(caches):
                g_h, g_c, _ = cell.step_backward(frames, cache, g_h, g_c, grads)
            frames.finish()
            return grads

        plain = {k: np.zeros_like(v) for k, v in cell.params().items()}
        plain["head.w"] = np.zeros_like(head.w)
        plain["head.b"] = np.zeros_like(head.b)
        got = accumulate(plain)
        want = accumulate(zero_grads(cell, head))
        assert got.keys() == want.keys()
        assert np.any(want["biases"] != 0.0)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_zero_grads_covers_all_params(self):
        cell = small_cell(mode="input-only")
        head = make_head(3, cell.hidden_size, seed=0)
        grads = zero_grads(cell, head)
        expected = set(cell.params()) | {"head.w", "head.b"}
        assert set(grads) == expected
        assert "recurrent" in grads
