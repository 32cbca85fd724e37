"""One contract for every gate map, run once per fixture: the HT frames,
the dense map and input-only mode's map over either. A fixture gives a
map, its dense oracle W and dW(D), W's derivative along a direction D of
the parameter of a ``params()`` name, so a new map needs one fixture."""

import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

import fdht.ht
import fdht.lstm
from fdht.ht import HTWeight, init_ht_weight, reconstruct_dense
from fdht.lstm import DenseGateMap, HtGateMap, InputOnlyGateMap


def ht(m_shape):
    # W is linear in each factor, so dW(D) is W with that factor set to D
    w = init_ht_weight(m_shape, (16, 17), 8, 8, 4, seed=7)

    def d_weight(name, d):
        factors = [d if name == f"ht.{i}" else f for i, f in enumerate(w.factors)]
        return reconstruct_dense(HTWeight(w.tree, w.m_shape, w.n_shape, factors))
    return HtGateMap(w), reconstruct_dense(w), d_weight


def dense():
    matrix = np.random.default_rng(24).normal(size=(64, 272))
    return DenseGateMap(matrix), matrix, lambda name, d: d


def input_only(inner, w, d_inner):
    # the row [x | h] against [W | R], each parameter moving its columns
    r = np.random.default_rng(25).normal(size=(64, 16))

    def d_weight(name, d):
        return np.hstack([np.zeros_like(w), d] if name == "recurrent"
                         else [d_inner(name, d), np.zeros_like(r)])
    return InputOnlyGateMap(inner, DenseGateMap(r, "recurrent")), np.hstack([w, r]), d_weight


# 272 inputs, 16 hidden units; HT frames add dV in one GEMM at m = (4, 4),
# one gate at a time at m = (2, 8) (ht.DV_BLOCK_BYTES)
FIXTURES = {"ht": lambda: ht((4, 4)), "dense": dense,
            "input-only-ht": lambda: input_only(*ht((2, 8))),
            "input-only-dense": lambda: input_only(*dense())}


@pytest.fixture(params=list(FIXTURES))
def fixture(request):
    return FIXTURES[request.param]()


def rows(z, k):
    """A (4, k, ...) gate-major output as a (k, 4H) copy in W's row order."""
    return np.array(z).reshape(4, k, -1).transpose(1, 0, 2).reshape(k, -1)


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def run_group(frames, xs, dzs):
    """Run a group of the (steps, k, N) ``xs`` forward, then backward with
    the (steps, 4, k, H) ``dzs``, and end it. Returns the block ``begin``
    returned, the (steps, k, 4H) products and the input cotangents."""
    row = np.empty(xs.shape[1:])
    block, ys, dxs = frames.begin(row, len(xs)), [], [None] * len(xs)
    for t, x in enumerate(xs):
        row[...] = x
        ys.append(rows(frames.forward(t), len(row)))
    for t in range(len(xs) - 1, -1, -1):
        row[...] = xs[t]
        dxs[t] = frames.backward(t, dzs[t])
    frames.end()
    return block, np.array(ys), dxs


def test_product_matches_forward_and_oracle(fixture):
    # unprepared on one row, prepared with no sink on three, forward(t)
    gate_map, w, _ = fixture
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(3, 2, w.shape[1]))
    assert close(rows(gate_map.product(xs[0, :1]), 1), xs[0, :1] @ w.T)
    assert close(rows(gate_map.prepare().product(xs[:, 0]), 3), xs[:, 0] @ w.T)
    assert close(run_group(gate_map.prepare({}), xs, rng.normal(size=(3, 4, 2, 16)))[1],
                 xs @ w.T)


# 0, a row boundary of n = (16, 17), 256 (the synthetic cell's n_x + pad,
# mid-row) and the HT map's input length
@pytest.mark.parametrize("start", [0, 3 * 17, 256, 272])
def test_input_cotangent_from_start(fixture, start):
    gate_map, w, _ = fixture
    rng = np.random.default_rng(18)
    xs, dzs = rng.normal(size=(1, 2, w.shape[1])), rng.normal(size=(1, 4, 2, 16))
    (got,) = run_group(gate_map.prepare({}, start), xs, dzs)[2]
    want = (rows(dzs[0], 2) @ w)[:, start:]
    assert got.shape == want.shape and (want.size == 0 or close(got, want))


def test_gradients_set_at_finish(fixture):
    # groups of (steps, k) = (3, 2), (5, 1), (5, 2), each product and
    # cotangent against W; the sink stays empty until finish sets every
    # params() name, <sink[name], D> = <sum dz x^T, dW(D)> for a random D
    gate_map, w, d_weight = fixture
    rng = np.random.default_rng(24)
    sink, want = {}, np.zeros_like(w)
    frames = gate_map.prepare(sink)
    for steps, k in ((3, 2), (5, 1), (5, 2)):
        xs, dzs = rng.normal(size=(steps, k, w.shape[1])), rng.normal(size=(steps, 4, k, 16))
        _, ys, dxs = run_group(frames, xs, dzs)
        dz = np.array([rows(d, k) for d in dzs])
        assert sink == {} and close(ys, xs @ w.T) and close(np.array(dxs), dz @ w)
        want += np.einsum("tki,tkj->ij", dz, xs)
    frames.finish()
    assert list(sink) == list(gate_map.params())
    for name, p in gate_map.params().items():
        d = rng.normal(size=p.shape)
        expected = np.vdot(want, d_weight(name, d))
        assert sink[name].shape == p.shape
        assert abs(np.vdot(sink[name], d) - expected) <= 1e-12 * abs(expected), name


def test_blocks_live_for_one_group(fixture):
    # a block kept past end is not the next group's, and once its caller
    # drops it, nothing holds it
    gate_map, w, _ = fixture
    frames, rng = gate_map.prepare({}), np.random.default_rng(31)
    first, second = (run_group(frames, rng.normal(size=(3, 2, w.shape[1])),
                               rng.normal(size=(3, 4, 2, 16)))[0] for _ in range(2))
    ref = weakref.ref(first.base)
    assert first.shape == second.shape == (3, 4, 2, 16)
    assert not np.shares_memory(first, second)
    del first
    assert ref() is None


def test_peak_flat_in_groups(fixture):
    # four groups may not raise the peak over one's but by a few objects
    gate_map, w, _ = fixture
    rng = np.random.default_rng(32)
    xs, dzs = rng.normal(size=(4, 3, 2, w.shape[1])), rng.normal(size=(4, 3, 4, 2, 16))

    def peak(groups):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            frames = gate_map.prepare({})
            for g in range(groups):
                run_group(frames, xs[g], dzs[g])
            frames.finish()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    peak(4)  # warm caches outside the measurement
    assert peak(4) <= peak(1) + 1024


def test_every_gate_map_has_a_fixture():
    # each class of fdht.ht and fdht.lstm with prepare or begin
    maps = {cls for module in (fdht.ht, fdht.lstm)
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and {"prepare", "begin"} & set(dir(cls))}
    built = set()
    for build in FIXTURES.values():
        gate_map = build()[0]
        built |= {type(gate_map), type(gate_map.prepare()), type(gate_map.prepare({}))}
    assert maps and maps <= built
