"""Tensor core: contraction and reshaping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdht.tensor import contract, contract_vjp, tensorize, vectorize
from oracles import loop_contract


def test_contract_worked_example():
    # 1x2x2 against 2x1x2 over (last, first): entry (0,0,0,0) = 1*5 + 2*7
    a = tensorize([1, 2, 3, 4], (1, 2, 2))
    b = tensorize([5, 6, 7, 8], (2, 1, 2))
    c = contract(a, b, [2], [0])
    assert c.shape == (1, 2, 1, 2)
    assert c[0, 0, 0, 0] == 19
    np.testing.assert_allclose(c, loop_contract(a, b, [2], [0]), atol=1e-12)


def test_contract_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3, 4))
    c = contract(a, np.eye(4), [2], [0])
    np.testing.assert_array_equal(c, a)


def test_contract_all_ones():
    c = contract(np.ones((2, 3)), np.ones((3, 4)), [1], [0])
    assert c.shape == (2, 4)
    np.testing.assert_array_equal(c, np.full((2, 4), 3.0))


def test_contract_shape_mismatch_names_modes():
    a = np.ones((2, 3))
    b = np.ones((4, 2))
    with pytest.raises(ValueError, match="mode 1 of A .* mode 0 of B"):
        contract(a, b, [1], [0])


def test_contract_rejects_repeated_and_unequal_mode_lists():
    a = np.ones((2, 2))
    b = np.ones((2, 2))
    with pytest.raises(ValueError, match="repeated"):
        contract(a, b, [0, 0], [0, 1])
    with pytest.raises(ValueError, match="length"):
        contract(a, b, [0], [0, 1])
    with pytest.raises(ValueError, match="out of range"):
        contract(a, b, [2], [0])


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_contract_matches_loop_oracle(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    nd_a = data.draw(st.integers(1, 3))
    nd_b = data.draw(st.integers(1, 3))
    n_contract = data.draw(st.integers(1, min(nd_a, nd_b)))
    a_modes = data.draw(st.permutations(range(nd_a)))[:n_contract]
    b_modes = data.draw(st.permutations(range(nd_b)))[:n_contract]
    shape_a = [int(x) for x in rng.integers(1, 5, size=nd_a)]
    shape_b = [int(x) for x in rng.integers(1, 5, size=nd_b)]
    for am, bm in zip(a_modes, b_modes):
        shape_b[bm] = shape_a[am]
    a = rng.normal(size=shape_a)
    b = rng.normal(size=shape_b)
    got = contract(a, b, list(a_modes), list(b_modes))
    want = loop_contract(a, b, list(a_modes), list(b_modes))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_contract_matches_loop_oracle_up_to_five_modes():
    # 100 random trials over tensors with up to 5 modes and lengths up to
    # 4, sized so the pure-python oracle stays affordable
    rng = np.random.default_rng(314)
    trials = 0
    while trials < 100:
        nd_a = int(rng.integers(1, 6))
        nd_b = int(rng.integers(1, 6))
        shape_a = [int(x) for x in rng.integers(1, 5, size=nd_a)]
        shape_b = [int(x) for x in rng.integers(1, 5, size=nd_b)]
        k = int(rng.integers(1, min(nd_a, nd_b) + 1))
        a_modes = list(rng.permutation(nd_a)[:k])
        b_modes = list(rng.permutation(nd_b)[:k])
        for am, bm in zip(a_modes, b_modes):
            shape_b[bm] = shape_a[am]
        out = np.prod([shape_a[ax] for ax in range(nd_a) if ax not in a_modes])
        out *= np.prod([shape_b[ax] for ax in range(nd_b) if ax not in b_modes])
        inner = np.prod([shape_a[ax] for ax in a_modes])
        if out * inner > 60_000:
            continue
        a = rng.normal(size=shape_a)
        b = rng.normal(size=shape_b)
        got = contract(a, b, a_modes, b_modes)
        want = loop_contract(a, b, a_modes, b_modes)
        assert np.max(np.abs(got - want)) <= 1e-12
        trials += 1


def test_contract_linearity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(4, 3))
        alpha = float(rng.normal())
        lhs = contract(alpha * a, b, [2], [0])
        rhs = alpha * contract(a, b, [2], [0])
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_contract_vjp_matches_finite_differences():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3, 2))
    b = rng.normal(size=(3, 2, 2))
    g = rng.normal(size=(2, 2, 2, 2))  # cotangent of contract(a,b,[1],[0])
    ga, gb = contract_vjp(g, a, b, [1], [0])
    eps = 1e-6
    for arr, grad in ((a, ga), (b, gb)):
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(np.sum(g * contract(a, b, [1], [0])))
            flat[i] = orig - eps
            lm = float(np.sum(g * contract(a, b, [1], [0])))
            flat[i] = orig
            assert abs(grad.reshape(-1)[i] - (lp - lm) / (2 * eps)) < 1e-6


def test_contract_vjp_multi_axis_order():
    # contracted axes given out of order must still route gradients home
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(4, 5, 2))
    c = contract(a, b, [2, 0], [0, 2])
    g = rng.normal(size=c.shape)
    ga, gb = contract_vjp(g, a, b, [2, 0], [0, 2])
    eps = 1e-6
    flat, gflat = a.reshape(-1), ga.reshape(-1)
    for i in range(0, flat.size, 7):
        orig = flat[i]
        flat[i] = orig + eps
        lp = float(np.sum(g * contract(a, b, [2, 0], [0, 2])))
        flat[i] = orig - eps
        lm = float(np.sum(g * contract(a, b, [2, 0], [0, 2])))
        flat[i] = orig
        assert abs(gflat[i] - (lp - lm) / (2 * eps)) < 1e-6
    assert gb.shape == b.shape


def random_pairing(rng, lengths, summed=None, ndims=(1, 4)):
    """Shapes and mode lists of a random contraction: ``summed`` pairs
    (random when None) of a's and b's modes, in random order, every mode
    length drawn from ``lengths``."""
    na, nb = (int(n) for n in rng.integers(ndims[0], ndims[1] + 1, size=2))
    if summed is None:
        summed = int(rng.integers(0, min(na, nb) + 1))
    a_modes = rng.permutation(na)[:summed].tolist()
    b_modes = rng.permutation(nb)[:summed].tolist()
    a_shape = rng.choice(lengths, size=na).tolist()
    b_shape = rng.choice(lengths, size=nb).tolist()
    for ax, bx in zip(a_modes, b_modes):
        b_shape[bx] = a_shape[ax]
    return a_shape, b_shape, a_modes, b_modes


def strided(rng, shape):
    """A non-contiguous operand: every other entry of a reversed-axis
    array, seen in ``shape``'s axis order."""
    base = rng.normal(size=[2 * n for n in reversed(shape)])
    return base[tuple(slice(None, None, 2) for _ in shape)].T


PAIRINGS = {
    "random": lambda rng: random_pairing(rng, (1, 2, 3, 4)),
    "outer-product": lambda rng: random_pairing(rng, (1, 2, 3), summed=0),
    "scalar": lambda rng: random_pairing(rng, (1, 2, 3), summed=3, ndims=(3, 3)),
    # one length everywhere: a mis-routed cotangent still has the right shape
    "repeated-lengths": lambda rng: random_pairing(rng, (2,)),
}


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("pairing", PAIRINGS)
def test_contract_vjp_is_the_adjoint(pairing, layout):
    # <g, contract(da, b)> = <ga, da> and <g, contract(a, db)> = <gb, db>,
    # relative to the sum of the absolute terms
    rng = np.random.default_rng([list(PAIRINGS).index(pairing), int(layout == "strided")])
    make = strided if layout == "strided" else (lambda r, shape: r.normal(size=shape))
    for _ in range(100):
        a_shape, b_shape, a_modes, b_modes = PAIRINGS[pairing](rng)
        a, b = make(rng, a_shape), make(rng, b_shape)
        g = rng.normal(size=contract(a, b, a_modes, b_modes).shape)
        ga, gb = contract_vjp(g, a, b, a_modes, b_modes)
        da, db = rng.normal(size=a.shape), rng.normal(size=b.shape)
        for grad, delta, x, y in ((ga, da, da, b), (gb, db, a, db)):
            assert grad.shape == delta.shape
            lhs = np.vdot(g, contract(x, y, a_modes, b_modes))
            scale = np.vdot(abs(g), contract(abs(x), abs(y), a_modes, b_modes))
            assert abs(lhs - np.vdot(grad, delta)) <= 1e-12 * scale


def test_tensorize_row_major():
    t = tensorize([1, 2, 3, 4, 5, 6], (2, 3))
    np.testing.assert_array_equal(t, [[1, 2, 3], [4, 5, 6]])


def test_tensorize_length_mismatch():
    with pytest.raises(ValueError, match="length 5"):
        tensorize(np.arange(5), (2, 3))


def test_vectorize_row_major():
    np.testing.assert_array_equal(vectorize([[1, 2], [3, 4]]), [1, 2, 3, 4])
    assert vectorize([[7.0]]).shape == (1,)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(0, 2**31))
def test_round_trip_is_identity(shape, seed):
    v = np.random.default_rng(seed).normal(size=int(np.prod(shape)))
    out = vectorize(tensorize(v, shape))
    assert out.tobytes() == v.tobytes()


def test_round_trip_ucf11_shape():
    v = np.random.default_rng(11).normal(size=61440)
    out = vectorize(tensorize(v, (16, 16, 16, 15)))
    assert out.tobytes() == v.tobytes()

