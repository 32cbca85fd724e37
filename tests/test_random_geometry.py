"""A random-geometry differential oracle for the fast cell paths.

Every BPTT minibatch of the HT cell, in either mode, and of a
``DenseLstmCell`` on the reconstructed matrix (in input-only mode with
the recurrent matrix in the columns that the HT map sees only as zeros)
must equal ``oracles.reference_bptt``, which runs one sequence and one
step at a time and shares no code with them; ``forward_split`` and
``forward_sequence`` must equal the dense cell's ``forward_split``. The
geometries are small: any tree depth from 2 to 5, n_x anywhere in
[1, N - H], so the zero pad may share a row of the frames' X with x or
with h, and batches of 1 to 6 sequences whose runs of equal lengths make
BPTT groups of every size up to the whole batch.
"""

import math

import numpy as np
from hypothesis import assume, given, note, settings
from hypothesis import strategies as st

from fdht.ht import HTWeight, reconstruct_dense
from fdht.lstm import (DenseLstmCell, bptt, forward_sequence, forward_split, group_size,
                       make_cell, make_head)
from oracles import reference_bptt

BPTT_TOL = 1e-9     # every BPTT path against the reference, relative
FORWARD_TOL = 1e-10


@st.composite
def cases(draw):
    d = draw(st.integers(2, 5))
    m_shape = tuple(draw(st.lists(st.integers(1, 3), min_size=d, max_size=d)))
    n_shape = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    hidden, size = math.prod(m_shape), math.prod(n_shape)
    assume(size > hidden)
    ranks = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_x = draw(st.integers(1, size - hidden))
    mode = draw(st.sampled_from(["full", "input-only"]))
    # runs of equal lengths, each a group (or more, past group_size)
    runs = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                         min_size=1, max_size=3))
    lengths = [steps for steps, count in runs for _ in range(count)][:6]
    return dict(m_shape=m_shape, n_shape=n_shape, ranks=ranks, n_x=n_x, mode=mode,
                lengths=lengths, dropout=draw(st.sampled_from([0.0, 0.3])),
                input_grads=draw(st.booleans()), seed=draw(st.integers(0, 2**16)))


def rel(got, want):
    scale = np.max(np.abs(want))
    return np.max(np.abs(np.subtract(got, want))) / scale if scale else np.max(np.abs(got))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=cases())
def test_bptt_and_forward_match_the_references(case):
    note(f"geometry and batch: {case}")
    rng = np.random.default_rng(case["seed"])
    cell = make_cell(case["n_x"], case["n_shape"], case["m_shape"], *case["ranks"],
                     mode=case["mode"], seed=case["seed"])
    cell.biases[...] = rng.normal(size=cell.biases.shape)
    head = make_head(3, cell.hidden_size, seed=case["seed"])
    w = cell.weight
    matrix = reconstruct_dense(w)
    if cell.recurrent is not None:
        matrix[:, cell.h_start:] = cell.recurrent
    dense = DenseLstmCell(matrix, cell.n_x, biases=cell.biases)
    batch = [(rng.normal(size=(steps, cell.n_x)), i % 3)
             for i, steps in enumerate(case["lengths"])]
    note(f"largest group: {min(len(batch), group_size(cell, max(case['lengths'])))}")

    def run(c):
        return bptt(c, head, batch, dropout_rate=case["dropout"],
                    rng=np.random.default_rng(case["seed"]),
                    return_input_grads=case["input_grads"])

    def check(got, want):
        loss, grads, *dx = got
        assert rel(loss, want[0]) <= BPTT_TOL
        if case["input_grads"]:
            assert rel(np.concatenate(sum(dx[0], [])),
                       np.concatenate(sum(want[2], []))) <= BPTT_TOL
        for name in set(grads) & set(want[1]):
            assert rel(grads[name], want[1][name]) <= BPTT_TOL, name

    def reference(m, recurrent=None):
        return reference_bptt(m, cell.n_x, cell.biases, head, batch, case["dropout"],
                              np.random.default_rng(case["seed"]), recurrent)

    check(run(dense), reference(matrix))
    want = reference(matrix) if cell.recurrent is None else reference(
        reconstruct_dense(w), cell.recurrent)
    got = run(cell)
    check(got, want)
    # reconstruction is linear in each factor, so for any direction V,
    # <dL/dfactor_i, V> = <dL/dW, W(factor_i := V)>, which is at most
    # |dL/dW| |W(factor_i := V)| in size
    dw = want[1]["w"]
    for i in range(len(w.factors)):
        factors = list(w.factors)
        factors[i] = direction = rng.normal(size=w.factors[i].shape)
        wv = reconstruct_dense(HTWeight(w.tree, w.m_shape, w.n_shape, factors))
        err = abs(np.vdot(got[1][f"ht.{i}"], direction) - np.vdot(dw, wv))
        assert err <= BPTT_TOL * np.linalg.norm(dw) * np.linalg.norm(wv), i

    for steps in sorted(set(case["lengths"])):
        xs = np.array([x for x, _ in batch if len(x) == steps])
        want = forward_split(dense, head, xs)
        assert rel(forward_split(cell, head, xs), want) <= FORWARD_TOL
        for x, logits in zip(xs, want):
            assert rel(forward_sequence(cell, head, x), logits) <= FORWARD_TOL
