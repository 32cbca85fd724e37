"""Independent reference implementations used only by the tests.

The oracles are deliberately written as plain nested loops over index
tuples, with no use of the package's contraction engine, so that the fast
paths and these oracles can only agree by computing the same math. The
randomized checks at the end need only a few evaluations of the code they
check, so they also run at geometries too large for a dense matrix.
"""

import itertools

import numpy as np


def loop_contract(a, b, a_modes, b_modes):
    """Brute-force pairwise contraction by explicit summation."""
    a_free = [ax for ax in range(a.ndim) if ax not in a_modes]
    b_free = [ax for ax in range(b.ndim) if ax not in b_modes]
    out_shape = [a.shape[ax] for ax in a_free] + [b.shape[ax] for ax in b_free]
    out = np.zeros(out_shape if out_shape else (1,))
    contracted = [a.shape[ax] for ax in a_modes]
    for a_idx in itertools.product(*(range(a.shape[ax]) for ax in a_free)):
        for b_idx in itertools.product(*(range(b.shape[ax]) for ax in b_free)):
            acc = 0.0
            for s_idx in itertools.product(*(range(n) for n in contracted)):
                ai = [0] * a.ndim
                bi = [0] * b.ndim
                for ax, v in zip(a_free, a_idx):
                    ai[ax] = v
                for ax, v in zip(b_free, b_idx):
                    bi[ax] = v
                for k, v in enumerate(s_idx):
                    ai[a_modes[k]] = v
                    bi[b_modes[k]] = v
                acc += a[tuple(ai)] * b[tuple(bi)]
            out[a_idx + b_idx] = acc
    if not out_shape:
        return out[0]
    return out


def nested_sum_dense(w):
    """Dense matrix of an HTWeight by direct recursive summation over the
    tree, entry by entry."""
    tree = w.tree
    d = tree.d

    def frame_entry(idx, r, i_multi, j_multi):
        node = tree.nodes[idx]
        if node.is_leaf:
            k = node.lo
            return w.factors[idx][r, i_multi[k], j_multi[k]]
        g = w.factors[idx]
        acc = 0.0
        for p in range(g.shape[1]):
            left = frame_entry(node.left, p, i_multi, j_multi)
            if left == 0.0:
                continue
            for q in range(g.shape[2]):
                acc += g[r, p, q] * left * frame_entry(node.right, q, i_multi, j_multi)
        return acc

    rows = w.out_size
    cols = w.in_size
    out = np.zeros((rows, cols))
    row = 0
    for gate in range(w.root_rank):
        for i_multi in itertools.product(*(range(m) for m in w.m_shape)):
            col = 0
            for j_multi in itertools.product(*(range(n) for n in w.n_shape)):
                out[row, col] = frame_entry(0, gate, i_multi, j_multi)
                col += 1
            row += 1
    assert row == rows and d == len(w.m_shape)
    return out


def fd_param_dict(params, loss_fn, step=1e-5):
    """Central finite differences of loss_fn() with respect to every
    coordinate of every array in params (mutated in place and restored)."""
    grads = {}
    for name, arr in params.items():
        flat = arr.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_fn()
            flat[i] = orig - step
            lm = loss_fn()
            flat[i] = orig
            g[i] = (lp - lm) / (2 * step)
        grads[name] = g.reshape(arr.shape)
    return grads


def max_rel_error(analytic, numeric, abs_floor=1e-8):
    """Worst relative error with an absolute floor for near-zero entries."""
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    worst = 0.0
    for x, y in zip(a, n):
        diff = abs(x - y)
        if diff <= abs_floor:
            continue
        worst = max(worst, diff / max(abs(x), abs(y)))
    return worst


def random_small_weight(rng, d_choices=(2, 3, 4), max_len=4, max_rank=3):
    """A random HT weight in the oracle-friendly regime."""
    from fdht.ht import init_ht_weight

    d = int(rng.integers(min(d_choices), max(d_choices) + 1))
    m = tuple(int(x) for x in rng.integers(1, max_len + 1, size=d))
    n = tuple(int(x) for x in rng.integers(1, max_len + 1, size=d))
    leaf = int(rng.integers(1, max_rank + 1))
    internal = int(rng.integers(1, max_rank + 1))
    root = int(rng.integers(1, max_rank + 1))
    return init_ht_weight(m, n, leaf, internal, root, seed=int(rng.integers(2**31)))


def nearest_template_accuracy(task, data):
    """Classify by distance to the clean per-class sequence; the sanity
    ceiling for the synthetic task."""
    from fdht.train import _clean_sequences

    clean = _clean_sequences(task, np.random.default_rng(task.seed))
    hits = 0
    for x, label in zip(data.xs, data.labels):
        dists = [np.sum((x - clean[c]) ** 2) for c in range(task.classes)]
        hits += int(np.argmin(dists) == label)
    return hits / len(data)


def adjoint_error(forward, backward, v, u):
    """Relative gap between <J v, u> and <v, J^T u> for a linear map J
    given as ``forward`` (J) and ``backward`` (J^T)."""
    a = float(np.vdot(forward(v), u))
    b = float(np.vdot(v, backward(u)))
    return abs(a - b) / max(abs(a), abs(b))


def directional_derivative_error(loss, arr, grad, rng, step=1e-5):
    """Relative gap between <grad, dir> and the central difference of
    ``loss()`` along a random direction dir of ``arr`` (mutated in place
    and restored). The direction is scaled to the RMS entry of ``arr``, so
    ``step`` is a relative step."""
    direction = rng.normal(size=arr.shape) * float(np.sqrt(np.mean(arr ** 2)))
    orig = arr.copy()
    arr += step * direction
    lp = loss()
    arr[...] = orig - step * direction
    lm = loss()
    arr[...] = orig
    numeric = (lp - lm) / (2 * step)
    analytic = float(np.vdot(grad, direction))
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric))


def masked_sigmoid(z):
    """Logistic function split by sign with a boolean mask: 1/(1+e^-z)
    on z >= 0 and e^z/(1+e^z) on z < 0."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def per_gate_forward(z, biases, c_prev):
    """The LSTM gate stage one gate at a time: per-gate bias adds, the
    masked sigmoid on f, u, o and tanh on the candidate. Returns
    (h, c, gates) with gates = (f, u, c_in, o, c_prev, tanh_c)."""
    zr = z.reshape(4, -1)
    f = masked_sigmoid(zr[0] + biases["f"])
    u = masked_sigmoid(zr[1] + biases["u"])
    c_in = np.tanh(zr[2] + biases["c"])
    o = masked_sigmoid(zr[3] + biases["o"])
    c = f * c_prev + u * c_in
    tanh_c = np.tanh(c)
    return o * tanh_c, c, (f, u, c_in, o, c_prev, tanh_c)


def per_gate_backward(gates, dh, dc):
    """Gradients of ``per_gate_forward``: the flat pre-activation
    gradient in gate order f, u, c, o and dL/dc_prev."""
    f, u, c_in, o, c_prev, tanh_c = gates
    do = dh * tanh_c * o * (1.0 - o)
    dc_total = dc + dh * o * (1.0 - tanh_c ** 2)
    df = dc_total * c_prev * f * (1.0 - f)
    du = dc_total * c_in * u * (1.0 - u)
    dc_in = dc_total * u * (1.0 - c_in ** 2)
    return np.concatenate([df, du, dc_in, do]), dc_total * f
