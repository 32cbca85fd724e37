"""HT weight structure, parameter accounting, dense oracle, fast kernel."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdht.grad import backward_from_tape, htl_backward
from fdht.ht import (HTWeight, OracleSizeError, RootFrames, build_dim_tree,
                     build_plan, htl_forward, init_ht_weight, param_count_config,
                     reconstruct_dense, run_plan)
from fdht.train import AdamState, TrainConfig, adam_step
from oracles import (adjoint_error, directional_derivative_error, nested_sum_dense,
                     random_small_weight, uncached_plan_tape)

REFERENCE_GEOMETRIES = {
    # name: (m_shape, n_shape, leaf_rank, internal_rank), as in configs/
    "ucf11-direct": ((4, 4, 4, 4), (16, 16, 16, 15), 14, 12),
    "youtube-direct": ((4, 4, 4, 4), (16, 16, 16, 15), 14, 11),
    "ucf11-cnn": ((4, 8, 8, 8), (8, 8, 8, 8), 9, 6),
    "hmdb51-cnn": ((4, 8, 8, 8), (8, 8, 8, 8), 14, 12),
}
# trees whose root children nest transfer tensors (d = 5 and 6)
DEEP_GEOMETRIES = {
    "d5": ((2, 3, 2, 2, 3), (3, 2, 3, 2, 2), 2, 3),
    "d6": ((2, 2, 3, 2, 2, 2), (2, 3, 2, 2, 3, 2), 3, 2),
}


class TestDimTree:
    def test_d4_splits(self):
        t = build_dim_tree(4, 2, 3, 4)
        sets = [(n.lo, n.hi) for n in t.nodes]
        assert sets == [(0, 4), (0, 2), (0, 1), (1, 2), (2, 4), (2, 3), (3, 4)]

    def test_d2_minimal(self):
        t = build_dim_tree(2, 5, 1, 7)
        assert [(n.lo, n.hi) for n in t.nodes] == [(0, 2), (0, 1), (1, 2)]
        assert t.root.rank == 7
        assert [t.nodes[1].rank, t.nodes[2].rank] == [5, 5]  # the two leaves

    def test_d5_ceiling_split(self):
        t = build_dim_tree(5, 1, 1, 1)
        sets = [(n.lo, n.hi) for n in t.nodes]
        assert (0, 3) in sets and (3, 5) in sets and (0, 2) in sets and (2, 3) in sets

    def test_d_too_small(self):
        with pytest.raises(ValueError, match="d >= 2"):
            build_dim_tree(1, 1, 1, 1)
        with pytest.raises(ValueError, match="ranks"):
            build_dim_tree(3, 0, 1, 1)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 12))
    def test_children_partition_parent(self, d):
        t = build_dim_tree(d, 1, 2, 3)
        leaves = set()
        for node in t.nodes:
            if node.is_leaf:
                leaves.add(node.lo)
                continue
            left = t.nodes[node.left]
            right = t.nodes[node.right]
            assert (left.lo, right.hi) == (node.lo, node.hi)
            assert left.lo < left.hi == right.lo < right.hi  # contiguous halves
        assert leaves == set(range(d))
        assert len(t.nodes) == 2 * d - 1


class TestParamCount:
    @pytest.mark.parametrize("m,n,leaf,internal,expected", [
        ((4, 4, 4, 4), (16, 16, 16, 15), 14, 12, 8808),
        ((4, 4, 4, 4), (16, 16, 16, 15), 14, 11, 8324),
        ((4, 8, 8, 8), (8, 8, 8, 8), 9, 6, 3132),
        ((4, 8, 8, 8), (8, 8, 8, 8), 14, 12, 8416),
    ])
    def test_reference_configs(self, m, n, leaf, internal, expected):
        w = init_ht_weight(m, n, leaf, internal, 4, seed=0)
        assert sum(f.size for f in w.factors) == expected
        assert param_count_config(m, n, leaf, internal, 4) == expected

    def test_count_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = random_small_weight(rng)
            total = 0
            for i, node in enumerate(w.tree.nodes):
                if node.is_leaf:
                    total += node.rank * w.m_shape[node.lo] * w.n_shape[node.lo]
                else:
                    total += (node.rank * w.tree.nodes[node.left].rank
                              * w.tree.nodes[node.right].rank)
            # leaf rank and non-root internal rank (a d=2 tree has no such node)
            ranks = {node.is_leaf: node.rank for node in w.tree.nodes[1:]}
            assert param_count_config(w.m_shape, w.n_shape, ranks[True],
                                      ranks.get(False, 1), w.root_rank) == total

    def test_cubic_tree_term_at_uniform_rank(self):
        # count(r) = r * sum(m_k n_k) + (d-2) r^3 + g r^2 exactly
        m, n, g = (3, 4, 2, 5), (4, 2, 6, 3), 4
        mn = sum(a * b for a, b in zip(m, n))
        d = len(m)
        for r in (2, 4, 8, 16):
            count = param_count_config(m, n, r, r, g)
            assert count - r * mn - g * r * r == (d - 2) * r ** 3


class TestInit:
    def test_deterministic_in_seed(self):
        w1 = init_ht_weight((2, 3), (3, 4), 2, 2, 3, seed=77)
        w2 = init_ht_weight((2, 3), (3, 4), 2, 2, 3, seed=77)
        for a, b in zip(w1.factors, w2.factors):
            assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        w1 = init_ht_weight((2, 3), (3, 4), 2, 2, 3, seed=1)
        w2 = init_ht_weight((2, 3), (3, 4), 2, 2, 3, seed=2)
        assert any(a.tobytes() != b.tobytes() for a, b in zip(w1.factors, w2.factors))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            init_ht_weight((2, 3), (3,), 1, 1, 1, seed=0)
        w = init_ht_weight((2, 2), (2, 2), 2, 2, 2, seed=0)
        bad = [f.copy() for f in w.factors]
        bad[1] = np.zeros((3, 2, 2))
        with pytest.raises(ValueError, match="expected"):
            HTWeight(w.tree, w.m_shape, w.n_shape, bad)


class TestReconstruct:
    def test_rank1_all_ones(self):
        w = init_ht_weight((2, 2), (2, 2), 1, 1, 1, seed=0)
        for f in w.factors:
            f[:] = 1.0
        np.testing.assert_array_equal(reconstruct_dense(w), np.ones((4, 4)))

    def test_zero_leaf_annihilates(self):
        w = init_ht_weight((2, 2, 2), (2, 2, 2), 2, 2, 2, seed=3)
        # preorder (0,3) (0,2) (0,1) (1,2) (2,3): node 3 is mode 1's leaf
        w.factors[3][:] = 0.0
        assert np.all(reconstruct_dense(w) == 0.0)

    def test_matches_nested_sum_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(12):
            w = random_small_weight(rng, d_choices=(2, 3), max_len=3, max_rank=2)
            got = reconstruct_dense(w)
            want = nested_sum_dense(w)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_element_cap(self):
        # dense equivalent 4*512 x 65536 = 1.34e8 entries, over the 10^8 cap
        w = init_ht_weight((4, 4, 4, 8), (16, 16, 16, 16), 2, 2, 4, seed=0)
        with pytest.raises(OracleSizeError, match="oracle too large"):
            reconstruct_dense(w)


class TestForward:
    def test_all_ones_unit_vector(self):
        w = init_ht_weight((2, 2), (2, 2), 1, 1, 1, seed=0)
        for f in w.factors:
            f[:] = 1.0
        e1 = np.zeros(4)
        e1[0] = 1.0
        np.testing.assert_allclose(htl_forward(w, e1), np.ones(4), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            w = random_small_weight(rng)
            x = rng.normal(size=w.in_size)
            err = np.max(np.abs(htl_forward(w, x) - reconstruct_dense(w) @ x))
            worst = max(worst, err)
        assert worst <= 1e-10

    @pytest.mark.parametrize("d", [5, 6])
    def test_deep_trees_match_dense_oracle(self, d):
        # from d = 5 on, a child of the root has an internal child, so the
        # plan's frame build nests transfer tensors
        rng = np.random.default_rng(d)
        for _ in range(4):
            m = tuple(int(v) for v in rng.integers(1, 4, size=d))
            n = tuple(int(v) for v in rng.integers(1, 4, size=d))
            w = init_ht_weight(m, n, *(int(r) for r in rng.integers(1, 4, size=3)),
                               seed=int(rng.integers(2**31)))
            x = rng.normal(size=w.in_size)
            assert np.max(np.abs(htl_forward(w, x) - reconstruct_dense(w) @ x)) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(8)
        w = random_small_weight(rng)
        x1 = rng.normal(size=w.in_size)
        x2 = rng.normal(size=w.in_size)
        a, b = 1.7, -0.3
        lhs = htl_forward(w, a * x1 + b * x2)
        rhs = a * htl_forward(w, x1) + b * htl_forward(w, x2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_length_mismatch(self):
        w = init_ht_weight((2, 2), (2, 2), 1, 1, 1, seed=0)
        with pytest.raises(ValueError, match="expected 4"):
            htl_forward(w, np.ones(5))

    def test_gate_major_output_order(self):
        # root-rank slices of the output select contiguous row blocks
        w = init_ht_weight((2, 3), (2, 2), 2, 2, 3, seed=10)
        x = np.random.default_rng(0).normal(size=w.in_size)
        y = htl_forward(w, x)
        dense = reconstruct_dense(w)
        h = int(np.prod(w.m_shape))
        for gate in range(3):
            np.testing.assert_allclose(
                y[gate * h:(gate + 1) * h],
                dense[gate * h:(gate + 1) * h] @ x, atol=1e-10)


class TestRootFrames:
    # The UCF11 dense matrix is 480 MB, so these checks never build it: the
    # forward is checked against the plan, the backward by an adjoint
    # identity and by directional derivatives of a loss the plan evaluates.
    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_reference_geometry(self, name):
        m, n, leaf, internal = REFERENCE_GEOMETRIES[name]
        w = init_ht_weight(m, n, leaf, internal, 4, seed=11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=w.in_size)
        sink = [np.zeros_like(f) for f in w.factors]
        frames = RootFrames(w, sink)
        y, saved = frames.forward(x)
        assert np.max(np.abs(y - htl_forward(w, x))) <= 1e-10

        u = rng.normal(size=w.out_size)
        assert adjoint_error(lambda v: frames.forward(v)[0],
                             lambda dy: frames.backward(saved, dy), x, u) <= 1e-12

        # gradients of 0.5 |W x|^2 through the frames, one direction per factor
        sink = [np.zeros_like(f) for f in w.factors]
        frames = RootFrames(w, sink)
        dx = frames.backward(saved, y)
        frames.finish()

        def loss():
            return 0.5 * float(np.sum(htl_forward(w, x) ** 2))

        for arr, grad in zip([*w.factors, x], [*sink, dx]):
            assert directional_derivative_error(loss, arr, grad, rng) <= 1e-4

    def test_accumulates_over_products(self):
        # two products accumulate the gradients of a sum of two losses
        w = init_ht_weight((2, 3, 2), (3, 2, 4), 2, 3, 4, seed=5)
        rng = np.random.default_rng(13)
        xs = [rng.normal(size=w.in_size) for _ in range(2)]
        us = [rng.normal(size=w.out_size) for _ in range(2)]
        both = [np.zeros_like(f) for f in w.factors]
        frames = RootFrames(w, both)
        for x, u in zip(xs, us):
            frames.backward(frames.forward(x)[1], u)
        frames.finish()
        for i in range(len(w.factors)):
            direction = rng.normal(size=w.factors[i].shape)
            factors = list(w.factors)
            factors[i] = direction
            wv = reconstruct_dense(HTWeight(w.tree, w.m_shape, w.n_shape, factors))
            want = sum(u @ wv @ x for x, u in zip(xs, us))
            assert abs(np.vdot(both[i], direction) - want) <= 1e-12 * abs(want)


class TestPlan:
    @pytest.mark.parametrize("name", list(REFERENCE_GEOMETRIES))
    def test_backward_at_reference_geometry(self, name):
        # the tape backward over the plan, checked without a dense matrix
        m, n, leaf, internal = REFERENCE_GEOMETRIES[name]
        w = init_ht_weight(m, n, leaf, internal, 4, seed=14)
        rng = np.random.default_rng(15)
        x = rng.normal(size=w.in_size)
        u = rng.normal(size=w.out_size)
        assert adjoint_error(lambda v: htl_forward(w, v),
                             lambda dy: htl_backward(w, x, dy).input, x, u) <= 1e-12

        # gradients of 0.5 |W x|^2, one direction per factor and for x
        grads = htl_backward(w, x, htl_forward(w, x))

        def loss():
            return 0.5 * float(np.sum(htl_forward(w, x) ** 2))

        for arr, grad in zip([*w.factors, x], [*grads.factors, grads.input]):
            assert directional_derivative_error(loss, arr, grad, rng) <= 1e-4

    def test_flops_at_ucf11_direct(self):
        m, n, leaf, internal = REFERENCE_GEOMETRIES["ucf11-direct"]
        w = init_ht_weight(m, n, leaf, internal, 4, seed=0)
        steps, _ = build_plan(w)
        tape = run_plan(w, np.zeros(n))
        # a multiply and an add per summed term of each output entry
        flops = [2 * tape[("t", k)].size * math.prod(tape[s.a].shape[ax] for ax in s.a_axes)
                 for k, s in enumerate(steps)]
        assert len(steps) == 2 * len(m) - 1
        # only the last two steps read the input, directly or through T
        assert [k for k, s in enumerate(steps) if ("x",) in (s.a, s.b)] == [5]
        assert steps[6].b == ("t", 5)
        r_l, m_l, m_r, n_r = internal, 4 * 4, 4 * 4, 16 * 15
        assert sum(flops[5:]) == (2 * r_l * m_l * math.prod(n)
                                  + 2 * m_l * r_l * n_r * 4 * m_r) == 29_491_200
        # carrying x from the leaves to the root costs 49,047,168
        assert sum(flops) == 37_164_672 < 49_047_168


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def weight_only_slots(w):
    """Slots of the plan steps whose operands never reach the input."""
    per_input, slots = {("x",)}, []
    for k, s in enumerate(build_plan(w)[0]):
        if s.a in per_input or s.b in per_input:
            per_input.add(("t", k))
        else:
            slots.append(("t", k))
    return slots


class TestPlanCache:
    # run_plan keeps the weight-only step values between calls; every tape
    # must still equal the uncached step-by-step tape bit for bit.
    @pytest.mark.parametrize("name", [*REFERENCE_GEOMETRIES, *DEEP_GEOMETRIES])
    def test_tape_and_gradients_equal_uncached_oracle(self, name):
        m, n, leaf, internal = {**REFERENCE_GEOMETRIES, **DEEP_GEOMETRIES}[name]
        w = init_ht_weight(m, n, leaf, internal, 4, seed=16)
        rng = np.random.default_rng(17)
        for _ in range(2):  # the miss that fills the cache, then a hit
            x = rng.normal(size=w.n_shape)
            tape, want = run_plan(w, x), uncached_plan_tape(w, x)
            assert tape.keys() == want.keys()
            assert all(same_bits(tape[slot], want[slot]) for slot in want)
            dy = rng.normal(size=w.out_size)
            got, ref = htl_backward(w, x, dy), backward_from_tape(w, want, dy)
            assert all(map(same_bits, [*got.factors, got.input], [*ref.factors, ref.input]))

    @pytest.mark.parametrize("edit", ["adam", "perturb", "replace", "signed-zero"])
    def test_factor_edits_invalidate(self, edit):
        w = init_ht_weight((2, 3, 2), (3, 2, 4), 2, 3, 4, seed=18)
        rng = np.random.default_rng(19)
        x = rng.normal(size=w.n_shape)
        if edit == "signed-zero":
            w.factors[0][0, 0, 0] = 0.0
        before = run_plan(w, x)
        if edit == "adam":
            params = {str(i): f for i, f in enumerate(w.factors)}
            grads = {k: rng.normal(size=f.shape) for k, f in params.items()}
            adam_step(params, grads, AdamState(), TrainConfig())
        elif edit == "perturb":  # one entry in place, as finite_diff_check does
            w.factors[1].reshape(-1)[3] += 1e-5
        elif edit == "replace":
            w.factors[2] = rng.normal(size=w.factors[2].shape)
        else:
            w.factors[0][0, 0, 0] = -0.0
        after, want = run_plan(w, x), uncached_plan_tape(w, x)
        assert all(same_bits(after[slot], want[slot]) for slot in want)
        assert all(after[slot] is not before[slot] for slot in weight_only_slots(w))

    def test_unchanged_factors_keep_the_values(self):
        w = init_ht_weight((2, 3, 2), (3, 2, 4), 2, 3, 4, seed=20)
        w.factors[0][0, 0, 0] = np.nan  # compared by bits, so a NaN still matches
        x = np.ones(w.n_shape)
        first = run_plan(w, x)
        w.factors[1] = w.factors[1].copy()  # a new array with the same bytes
        second = run_plan(w, x)
        assert all(second[slot] is first[slot] for slot in weight_only_slots(w))

    def test_kept_values_are_read_only(self):
        w = init_ht_weight((2, 3, 2), (3, 2, 4), 2, 3, 4, seed=21)
        tape = run_plan(w, np.ones(w.n_shape))
        for slot in weight_only_slots(w):
            with pytest.raises(ValueError, match="read-only"):
                tape[slot][...] = 0.0

    def test_hit_at_ucf11_direct_copies_no_operand(self):
        m, n, leaf, internal = REFERENCE_GEOMETRIES["ucf11-direct"]
        w = init_ht_weight(m, n, leaf, internal, 4, seed=22)
        x = np.random.default_rng(23).normal(size=n)
        steps, _ = build_plan(w)
        kept = weight_only_slots(w)
        assert kept == [("t", k) for k in range(2 * len(m) - 3)]
        first = run_plan(w, x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            second = run_plan(w, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(second[slot] is first[slot] for slot in kept)
        # The hit allocates T and Y. The cached operands that T and Y read
        # are FL (393,216 B) and V (1,474,560 B); a slack of a quarter of
        # the smaller lets any copy of either fail the bound.
        outputs = sum(second[("t", k)].nbytes for k in range(len(steps))
                      if ("t", k) not in kept)
        read = [first[s] for k in range(len(steps)) if ("t", k) not in kept
                for s in (steps[k].a, steps[k].b) if s in kept]
        slack = min(a.nbytes for a in read) // 4
        assert sorted(a.nbytes for a in read) == [393_216, 1_474_560]
        assert peak <= outputs + slack
