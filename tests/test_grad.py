"""Reverse-mode gradients vs finite differences and linear-map identities."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdht.grad
from fdht.grad import HTGradients, finite_diff_check, htl_backward
from fdht.ht import build_plan, htl_forward, init_ht_weight, reconstruct_dense
from oracles import directional_derivative_error, max_rel_error, random_small_weight


def quad_loss(y):
    return 0.5 * float(np.dot(y, y))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 12), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_plan_consumes_every_slot_exactly_once(d, leaf, internal, root):
    # backward_from_tape assigns each operand's cotangent once instead of
    # accumulating; that is exact only while the plan is a tree over slots
    w = init_ht_weight((1,) * d, (1,) * d, leaf, internal, root, seed=0)
    steps, _ = build_plan(w)
    consumed = Counter(slot for s in steps for slot in (s.a, s.b))
    want = ([("x",)] + [("f", i) for i in range(len(w.factors))]
            + [("t", k) for k in range(len(steps) - 1)])
    assert consumed == Counter(want)


def test_zero_cotangent_gives_zero_gradients():
    w = init_ht_weight((2, 2), (3, 2), 2, 2, 2, seed=0)
    x = np.random.default_rng(0).normal(size=w.in_size)
    g = htl_backward(w, x, np.zeros(w.out_size))
    assert all(np.all(f == 0.0) for f in g.factors)
    assert np.all(g.input == 0.0)


def test_rank1_all_ones_weight_finite_difference():
    w = init_ht_weight((2, 2), (2, 2), 1, 1, 1, seed=0)
    for f in w.factors:
        f[:] = 1.0
    x = np.ones(4)
    e1 = np.zeros(w.out_size)
    e1[0] = 1.0
    err = finite_diff_check(w, x, lambda y: float(y[0]), step=1e-5,
                            loss_grad=lambda y: e1)
    assert err <= 1e-6


def test_random_configs_match_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = random_small_weight(rng, d_choices=(2, 3), max_len=3, max_rank=2)
        x = rng.normal(size=w.in_size)
        err = finite_diff_check(w, x, quad_loss, step=1e-5, loss_grad=lambda y: y)
        assert err <= 1e-4


@pytest.mark.parametrize("d", [5, 6])
def test_deep_tree_gradients_along_random_directions(d):
    # from d = 5 on, the plan's frame build nests transfer tensors
    rng = np.random.default_rng(40 + d)
    m = tuple(int(v) for v in rng.integers(1, 4, size=d))
    n = tuple(int(v) for v in rng.integers(2, 4, size=d))
    w = init_ht_weight(m, n, 2, 3, 3, seed=d)
    x = rng.normal(size=w.in_size)
    grads = htl_backward(w, x, htl_forward(w, x))
    for arr, grad in zip([*w.factors, x], [*grads.factors, grads.input]):
        assert directional_derivative_error(
            lambda: quad_loss(htl_forward(w, x)), arr, grad, rng) <= 1e-4


def test_zero_weight_zero_input_reports_zero():
    w = init_ht_weight((2, 2), (2, 2), 2, 2, 2, seed=0)
    for f in w.factors:
        f[:] = 0.0
    err = finite_diff_check(w, np.zeros(w.in_size), quad_loss,
                            step=1e-5, loss_grad=lambda y: y)
    assert err == 0.0


def test_corrupted_gradient_is_detected(monkeypatch):
    w = init_ht_weight((2, 2), (2, 2), 2, 2, 2, seed=5)
    x = np.random.default_rng(5).normal(size=w.in_size)

    def corrupted_backward(w, x, dL_dy):
        g = htl_backward(w, x, dL_dy)
        bad = HTGradients([f.copy() for f in g.factors], g.input.copy())
        bad.factors[0].reshape(-1)[0] += 1.0
        return bad

    monkeypatch.setattr(fdht.grad, "htl_backward", corrupted_backward)
    err = finite_diff_check(w, x, quad_loss, step=1e-5, loss_grad=lambda y: y)
    assert err >= 0.1


def test_step_must_be_positive():
    w = init_ht_weight((2, 2), (2, 2), 1, 1, 1, seed=0)
    with pytest.raises(ValueError, match="positive"):
        finite_diff_check(w, np.ones(4), quad_loss, step=0.0, loss_grad=lambda y: y)


def test_cotangent_linearity():
    rng = np.random.default_rng(21)
    w = random_small_weight(rng)
    x = rng.normal(size=w.in_size)
    u = rng.normal(size=w.out_size)
    g1 = htl_backward(w, x, u)
    g2 = htl_backward(w, x, 3.25 * u)
    for a, b in zip(g1.factors, g2.factors):
        assert np.max(np.abs(3.25 * a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))
    assert np.max(np.abs(3.25 * g1.input - g2.input)) <= 1e-10 * max(
        1.0, np.max(np.abs(g2.input)))


def test_input_gradient_is_transpose_action():
    rng = np.random.default_rng(22)
    for _ in range(20):
        w = random_small_weight(rng)
        x = rng.normal(size=w.in_size)
        dy = rng.normal(size=w.out_size)
        g = htl_backward(w, x, dy)
        want = reconstruct_dense(w).T @ dy
        assert np.max(np.abs(g.input - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_gradient_buffers_mirror_weight_shapes():
    rng = np.random.default_rng(23)
    w = random_small_weight(rng)
    g = htl_backward(w, rng.normal(size=w.in_size), rng.normal(size=w.out_size))
    assert len(g.factors) == len(w.factors)
    for gf, f in zip(g.factors, w.factors):
        assert gf.shape == f.shape
    assert g.input.shape == (w.in_size,)


def test_backward_shape_errors():
    w = init_ht_weight((2, 2), (2, 2), 1, 1, 2, seed=0)
    with pytest.raises(ValueError, match="input has length"):
        htl_backward(w, np.ones(5), np.ones(w.out_size))
    with pytest.raises(ValueError, match="cotangent has length"):
        htl_backward(w, np.ones(w.in_size), np.ones(w.out_size + 1))


def test_determinism_fixed_reduction_order():
    rng = np.random.default_rng(24)
    w = random_small_weight(rng)
    x = rng.normal(size=w.in_size)
    dy = rng.normal(size=w.out_size)
    g1 = htl_backward(w, x, dy)
    g2 = htl_backward(w, x, dy)
    for a, b in zip(g1.factors, g2.factors):
        assert a.tobytes() == b.tobytes()
    assert g1.input.tobytes() == g2.input.tobytes()


def test_every_coordinate_against_fd_oracle():
    # independent check that bypasses finite_diff_check's own plumbing
    rng = np.random.default_rng(31)
    w = init_ht_weight((2, 2, 2), (2, 2, 2), 2, 2, 2, seed=9)
    x = rng.normal(size=w.in_size)
    dy = rng.normal(size=w.out_size)
    analytic = htl_backward(w, x, dy)

    def loss():
        return float(np.dot(dy, htl_forward(w, x)))

    step = 1e-5
    for fi, f in enumerate(w.factors):
        flat = f.reshape(-1)
        num = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = loss()
            flat[i] = orig - step
            lm = loss()
            flat[i] = orig
            num[i] = (lp - lm) / (2 * step)
        assert max_rel_error(analytic.factors[fi], num) <= 1e-4
