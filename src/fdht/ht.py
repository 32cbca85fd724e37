"""Hierarchical Tucker decomposed weights.

A weight matrix of shape (g * prod(m)) x prod(n) is stored as one small
factor per node of a balanced binary tree over the d tensorization modes:
3-way frames ``(rank, m_k, n_k)`` at the leaves and 3-way transfer tensors
``(rank, left_rank, right_rank)`` at internal nodes. The root rank ``g``
becomes the leading mode of the output, one slice per LSTM gate when the
weight backs a recurrent cell.

Both fast kernels contract the input with the frames of the root's two
children, never materializing the dense matrix. The matrix-vector kernel
(:func:`htl_forward`) runs a schedule of pairwise contractions whose
weight-only steps build those frames from the factors and whose last two
steps read the input. The weight keeps the weight-only values between
calls, with a snapshot of the factors they came from: their dtypes and
shapes and one flat copy of their bytes. A call whose live factors match
it, checked with one compare of the bytes, runs only the last two steps,
as two GEMMs on operands prepared once; any difference rebuilds them.
:class:`RootFrames` serves training, where one minibatch multiplies by
the same factors many times: it builds the frames once as two matrices,
so each product is two GEMMs, and it sums the weight cotangent of a
whole sequence of products when the sequence ends. Without gradient
buffers it serves evaluation, one block of inputs at a time.
:func:`reconstruct_dense` assembles the dense matrix explicitly and
serves as the testing oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


# Largest dense matrix, in entries, that reconstruct_dense will build.
ORACLE_ELEMENT_CAP = 10**8


class OracleSizeError(RuntimeError):
    """Dense reconstruction would exceed ORACLE_ELEMENT_CAP."""


@dataclass
class DimNode:
    """Tree node covering the contiguous mode range [lo, hi) with its rank."""

    lo: int
    hi: int
    rank: int
    left: int | None = None   # child indices into DimTree.nodes
    right: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.hi - self.lo == 1


@dataclass
class DimTree:
    """Balanced binary dimension tree; ``nodes[0]`` is the root, children
    follow in preorder."""

    d: int
    nodes: list[DimNode]

    @property
    def root(self) -> DimNode:
        return self.nodes[0]


def build_dim_tree(d: int, leaf_rank: int, internal_rank: int, root_rank: int) -> DimTree:
    """Build the balanced tree over d modes: each node splits so that the
    left child takes the ceiling half of its range. Leaves get leaf_rank,
    the root gets root_rank, remaining internal nodes get internal_rank.
    """
    if d < 2:
        raise ValueError(f"m_shape and n_shape length: dimension tree needs d >= 2, got {d}")
    if min(leaf_rank, internal_rank, root_rank) < 1:
        raise ValueError(f"ranks must be >= 1, got leaf_rank={leaf_rank}, "
                         f"internal_rank={internal_rank}, root_rank={root_rank}")
    nodes: list[DimNode] = []

    def build(lo, hi, is_root):
        idx = len(nodes)
        if hi - lo == 1:
            nodes.append(DimNode(lo, hi, leaf_rank))
            return idx
        nodes.append(DimNode(lo, hi, root_rank if is_root else internal_rank))
        mid = lo + (hi - lo + 1) // 2
        nodes[idx].left = build(lo, mid, False)
        nodes[idx].right = build(mid, hi, False)
        return idx

    build(0, d, True)
    return DimTree(d, nodes)


@dataclass(eq=False)
class HTWeight:
    """HT-format weight: tree plus one factor array per node (preorder).

    Leaf factors have shape ``(rank, m_k, n_k)``; internal factors have
    shape ``(rank, left_rank, right_rank)``. The implied dense matrix has
    ``root_rank * prod(m_shape)`` rows and ``prod(n_shape)`` columns.
    """

    tree: DimTree
    m_shape: tuple[int, ...]
    n_shape: tuple[int, ...]
    factors: list[np.ndarray] = field(repr=False)
    # (factor dtypes and shapes, factor bytes, (weight-only tape values, FL
    # and V as 2-D GEMM operands, T's shape, Y's axis order of T, Y's shape))
    _weight_steps: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.m_shape = tuple(int(m) for m in self.m_shape)
        self.n_shape = tuple(int(n) for n in self.n_shape)
        tree = self.tree
        shapes = factor_shapes(tree, self.m_shape, self.n_shape)
        if len(self.factors) != len(tree.nodes):
            raise ValueError(
                f"expected {len(tree.nodes)} factors, got {len(self.factors)}"
            )
        for i, (node, f, want) in enumerate(zip(tree.nodes, self.factors, shapes)):
            if f.shape != want:
                raise ValueError(
                    f"factor for node {i} (modes {node.lo}..{node.hi - 1}) has "
                    f"shape {f.shape}, expected {want}"
                )

    @property
    def root_rank(self) -> int:
        return self.tree.root.rank

    @property
    def out_size(self) -> int:
        return self.root_rank * math.prod(self.m_shape)

    @property
    def in_size(self) -> int:
        return math.prod(self.n_shape)

    @cached_property
    def plan(self):
        """``build_plan(self)``, built once: it reads only tree and shapes."""
        return build_plan(self)


def factor_shapes(tree: DimTree, m_shape, n_shape) -> list[tuple[int, int, int]]:
    """Shape of every node's factor, in preorder: ``(rank, m_k, n_k)`` at
    the leaf for mode k, ``(rank, left_rank, right_rank)`` at an internal
    node. The one owner of the weight's geometry rules: both shapes have
    length d, and every mode length and node rank is at least 1."""
    nodes = tree.nodes
    if len(m_shape) != tree.d or len(n_shape) != tree.d:
        raise ValueError(f"m_shape and n_shape must have length d={tree.d}, "
                         f"got {len(m_shape)} and {len(n_shape)}")
    ranks = [n.rank for n in nodes]
    if min(*m_shape, *n_shape, *ranks) < 1:
        raise ValueError(f"mode lengths and ranks must be >= 1, got m_shape="
                         f"{tuple(m_shape)}, n_shape={tuple(n_shape)}, ranks={ranks}")
    return [(n.rank, int(m_shape[n.lo]), int(n_shape[n.lo])) if n.is_leaf
            else (n.rank, nodes[n.left].rank, nodes[n.right].rank)
            for n in nodes]


def init_ht_weight(m_shape, n_shape, leaf_rank, internal_rank, root_rank, seed) -> HTWeight:
    """Random Gaussian initialization, deterministic in the seed.

    Leaf frames use std 1/sqrt(n_k); transfer tensors use
    std 1/sqrt(left_rank * right_rank). Factors are drawn in preorder.
    """
    tree = build_dim_tree(len(m_shape), leaf_rank, internal_rank, root_rank)
    w = HTWeight(tree, m_shape, n_shape,
                 [np.empty(shape) for shape in factor_shapes(tree, m_shape, n_shape)])
    rng = np.random.default_rng(seed)
    for node, f in zip(tree.nodes, w.factors):
        fan_in = f.shape[2] if node.is_leaf else f.shape[1] * f.shape[2]
        f[...] = rng.normal(0.0, (1.0 / fan_in) ** 0.5, size=f.shape)
    return w


def param_count_config(m_shape, n_shape, leaf_rank, internal_rank, root_rank) -> int:
    """Total factor entries, leaves r_k*m_k*n_k plus internal r*r_l*r_r,
    from the configuration alone, without materializing factor arrays.
    Biases live in the cell and are not counted."""
    tree = build_dim_tree(len(m_shape), leaf_rank, internal_rank, root_rank)
    return sum(math.prod(shape) for shape in factor_shapes(tree, m_shape, n_shape))


# ---------------------------------------------------------------------------
# Frames: dense reconstruction (oracle) and the training kernel

def _node_frame(w: HTWeight, idx: int) -> np.ndarray:
    """Frame of node idx as (rank, prod m, prod n) over its modes, each
    group lexicographic: F[r, (iL, iR), (jL, jR)] =
    sum_ab g[r, a, b] FL[a, iL, jL] FR[b, iR, jR]."""
    node = w.tree.nodes[idx]
    if node.is_leaf:
        return w.factors[idx]
    fl, fr = _node_frame(w, node.left), _node_frame(w, node.right)
    t = np.tensordot(np.tensordot(w.factors[idx], fl, axes=(1, 0)), fr, axes=(1, 0))
    r, ml, nl, mr, nr = t.shape  # (r, iL, jL, iR, jR)
    return t.transpose(0, 1, 3, 2, 4).reshape(r, ml * mr, nl * nr)


def _frame_vjp(w: HTWeight, idx: int, d_frame, sink):
    """Reverse of ``_node_frame``: add to ``sink[i]`` the cotangent of
    every factor in the subtree of node idx, given ``d_frame``, the
    cotangent of that node's frame."""
    node = w.tree.nodes[idx]
    if node.is_leaf:
        sink[idx] += d_frame
        return
    g = w.factors[idx]
    fl, fr = _node_frame(w, node.left), _node_frame(w, node.right)
    df = d_frame.reshape(g.shape[0], fl.shape[1], fr.shape[1], fl.shape[2], fr.shape[2])
    p = np.tensordot(df, fr, axes=([2, 4], [1, 2]))  # (r, iL, jL, b)
    q = np.tensordot(df, fl, axes=([1, 3], [1, 2]))  # (r, iR, jR, a)
    sink[idx] += np.tensordot(fl, p, axes=([1, 2], [1, 2])).transpose(1, 0, 2)
    _frame_vjp(w, node.left, np.tensordot(g, p, axes=([0, 2], [0, 3])), sink)
    _frame_vjp(w, node.right, np.tensordot(g, q, axes=([0, 1], [0, 3])), sink)


def reconstruct_dense(w: HTWeight) -> np.ndarray:
    """Assemble the full dense matrix, rows (g, i_1..i_d) lexicographic,
    columns (j_1..j_d). Intended for small shapes; guarded by
    ORACLE_ELEMENT_CAP."""
    entries = w.out_size * w.in_size
    if entries > ORACLE_ELEMENT_CAP:
        raise OracleSizeError(
            f"oracle too large: dense matrix has {entries} entries "
            f"(cap {ORACLE_ELEMENT_CAP})"
        )
    return _node_frame(w, 0).reshape(w.out_size, w.in_size)


class RootFrames:
    """The HT matrix as two weight-only GEMM operands, for many products
    with the same factors.

    With FL, FR the frames of the root's children and X the input as an
    n_L x n_R matrix, W x = sum_ab root[g, a, b] FL[a, iL, jL]
    FR[b, iR, jR] X[jL, jR] is

        T = U @ X     U[(iL, a), jL]      = FL[a, iL, jL]
        Y = T' @ V    V[(a, jR), (g, iR)] = sum_b root[g, a, b] FR[b, iR, jR]

    with T' the (m_L, r_L n_R) reshape of T and Y the output as
    (m_L, g, m_R). ``forward`` and ``product`` return Y as a gate-major
    view, (g, ..., m_L, m_R), and copy nothing into that order themselves.
    ``backward`` accumulates the cotangent of U and, per group, that of
    V; ``finish`` takes them back through the frame build into
    ``sink``, one array per factor. U and V are built from the factors at
    construction and ``finish`` reads the factors again, so keep them
    unchanged until ``finish`` and build new frames after every update.
    Frames built without a ``sink`` hold no gradient buffers and serve
    only ``product``. ``backward`` returns the input cotangent from row
    ``start`` on, for which the rows of U.T are prepared once.

    Products come in groups of k sequences that run in lockstep, each
    opened by ``begin(block)`` over a (steps, k, N) block of inputs, whose
    row t ``forward(x, t)`` multiplies, and closed by ``end()``. A row's T
    for the whole group goes into one (k, m_L r_L, n_R) scratch through
    one ``np.matmul``, and its Y, one GEMM with M = k m_L, into slot t of
    a (steps, k m_L, g m_R) dy block, which ``backward`` then overwrites
    with dy. ``backward`` writes dt, again one GEMM, into T's scratch,
    adds the dU products one sequence at a time and runs the dh rows of
    the group in one ``np.matmul``. No T' block is kept: ``end``
    rebuilds each row's T' into the scratch and adds dy_t.T @ T'_t to
    ``dvt``, the V cotangent held transposed (the faster orientation of
    that GEMM on OpenBLAS), in blocks of whole gates of at most k m_L
    rows. Run and backward every row once before then. ``begin``
    prepares the views of every row (X, X^T, the dy slot and its
    gate-major view) and those of ``end``; the next group reuses the
    blocks unless its length or size differs. The frames keep no child
    frame; ``finish`` rebuilds FR from the factors. The row GEMMs of
    ``forward`` and ``backward`` are bound ``ndarray.dot`` calls: the BLAS
    call of ``np.dot`` and ``@``, so the same bits, without the dispatch of
    either; ``dot`` copies an operand that is neither C- nor F-contiguous,
    so the products over a group's sequences or over strided operands
    (T, the dh rows and ``end``'s) are ``np.matmul``, which reads them in
    place.
    """

    def __init__(self, w: HTWeight, sink=None, start=0):
        root = w.tree.root
        self.w, self.sink, self.start = w, sink, start
        fl, fr = _node_frame(w, root.left), _node_frame(w, root.right)
        rl, ml, nl = fl.shape
        rr, mr, nr = fr.shape
        g = root.rank
        self.shape = (g, rl, ml, mr, nl, nr)
        self.u = fl.transpose(1, 0, 2).reshape(ml * rl, nl)
        # np.dot on the operands np.tensordot would form: its bits, without
        # its Python wrapper
        v = np.dot(w.factors[0].reshape(g * rl, rr), fr.reshape(rr, -1))  # (g a, iR jR)
        self.v = v.reshape(g, rl, mr, nr).transpose(1, 3, 0, 2).reshape(rl * nr, g * mr)
        if sink is None:
            return
        del fl, fr, v  # free the child frames and V's product before the gradients
        self.vt = self.v.T
        self.du = np.zeros(self.u.shape)
        self.dvt = np.zeros((g * mr, rl * nr))
        self.ts = np.empty((0, ml * rl, nr))
        self.dy_block = np.empty((0, 0, g * mr))
        self.ut = self.u[:, start // nr:].T if start < nl * nr else None
        self.cut = start % nr

    def begin(self, block):
        """Open a group of k sequences over the (steps, k, N) ``block``,
        which is read in place: leave it unchanged until ``end``. Returns
        the dy block's memory as (steps, g, k, m_L m_R) rows, one per
        product, to store into: row t holds Y (laid out as dy, not as this
        view) from ``forward(x, t)`` on, is the caller's once it has read
        Y, and is overwritten by ``backward(t, dy)``."""
        g, rl, ml, mr, nl, nr = self.shape
        steps, k = block.shape[:2]
        if len(self.ts) != k:
            self.ts = np.empty((k, ml * rl, nr))  # T, then dt, for one row
            self.tt = self.ts.reshape(k * ml, rl * nr)  # T' = T as (k m_L, r_L n_R)
        if self.dy_block.shape[:2] != (steps, k * ml):
            self.dy_block = self.dys = None  # the last group's rows go first
            self.dy_block = np.empty((steps, k * ml, g * mr))
            self.dys = self.dy_block.reshape(steps, k, ml, g, mr).transpose(0, 3, 1, 2, 4)
        self.xs = block.reshape(steps, k, nl, nr)
        self.xts = self.xs.transpose(0, 1, 3, 2)
        # end's blocks of whole gates, each at most T' rows, or one gate
        rows = max(mr, k * ml // mr * mr)
        self.dv_blocks = [(self.dvt[r:r + rows], self.dy_block[:, :, r:r + rows].transpose(0, 2, 1))
                          for r in range(0, g * mr, rows)]
        return self.dy_block.reshape(steps, g, k, ml * mr)

    def forward(self, x, t):
        """``W @ x`` for the (k, N) row t of the open group as a
        (g, k, m_L, m_R) view, which the row's ``backward`` overwrites.
        ``x`` is read through the views ``begin`` prepared for that row."""
        np.matmul(self.u, self.xs[t], out=self.ts)
        self.tt.dot(self.v, out=self.dy_block[t])
        return self.dys[t]

    def product(self, x):
        """``W @ x`` for a (B, N) block of inputs as a (g, B, m_L, m_R)
        view, with no backward bookkeeping."""
        g, rl, ml, mr, nl, nr = self.shape
        b = len(x)
        t = np.matmul(self.u, x.reshape(b, nl, nr))  # (B, m_L r_L, n_R)
        y = t.reshape(b * ml, rl * nr) @ self.v
        return y.reshape(b, ml, g, mr).transpose(2, 0, 1, 3)

    def backward(self, t, dy):
        """Accumulate the U cotangent of row t's products and keep its
        (g, k, m_L, m_R) ``dy``, which may be that row's own memory, for
        the group's V cotangent; returns ``(W.T @ dy)[start:]`` for the
        frames' ``start``, one row per sequence. Only the n_L-rows of X
        from ``start // n_R`` on are computed, and none when ``start`` is
        the input length. dt is written into T's scratch."""
        slot = self.dys[t]
        slot[...] = dy.reshape(slot.shape)
        self.dy_block[t].dot(self.vt, out=self.tt)
        for dt, xt in zip(self.ts, self.xts[t]):
            self.du += dt.dot(xt)
        if self.ut is None:
            return np.empty((len(self.ts), 0))
        return np.matmul(self.ut, self.ts).reshape(len(self.ts), -1)[:, self.cut:]

    def end(self):
        """Add the V cotangent of the open group's products to ``dvt`` and
        let go of the group's block. T' is not kept: each row's is rebuilt
        into T's scratch, and its product with the row's dy is added in
        the blocks ``begin`` prepared, whole gates of at most T's k m_L
        rows, or one gate's m_R rows where a gate alone is larger, so no
        temporary is larger than the scratch or one gate's block."""
        for t, x in enumerate(self.xs):
            np.matmul(self.u, x, out=self.ts)
            for dvt, dyt in self.dv_blocks:
                dvt += dyt[t] @ self.tt
        self.xs = self.xts = self.dv_blocks = None

    def finish(self):
        """Add the factor cotangents of every ended group to ``sink``.
        The group blocks, U, V and the U.T rows are freed first, so the
        frames take no more products; the projection reads only dU,
        ``dvt`` and the factors."""
        self.dy_block = self.dys = self.ts = self.tt = None
        self.u = self.v = self.vt = self.ut = None
        g, rl, ml, mr, nl, nr = self.shape
        root = self.w.tree.root
        fr = _node_frame(self.w, root.right)  # (b, iR, jR)
        rr = fr.shape[0]
        # np.tensordot's operands and np.dot, as in __init__
        dv = self.dvt.T.reshape(rl, nr, g, mr)  # (a, jR, g, iR)
        d_root = np.dot(dv.transpose(0, 2, 3, 1).reshape(rl * g, mr * nr),
                        fr.transpose(1, 2, 0).reshape(mr * nr, rr))
        self.sink[0] += d_root.reshape(rl, g, rr).transpose(1, 0, 2)
        d_fr = np.dot(self.w.factors[0].transpose(2, 0, 1).reshape(rr, g * rl),
                      dv.transpose(2, 0, 1, 3).reshape(g * rl, nr * mr))
        _frame_vjp(self.w, root.left, self.du.reshape(ml, rl, nl).transpose(1, 0, 2),
                   self.sink)
        _frame_vjp(self.w, root.right, d_fr.reshape(rr, nr, mr).transpose(0, 2, 1), self.sink)


# ---------------------------------------------------------------------------
# Fast forward kernel

# A plan is a list of contraction steps over value slots. Slots:
#   ("x",)       the input as an n_shape tensor
#   ("f", i)     factor of node i
#   ("t", k)     output of step k
# Each step contracts slot a with slot b over the given axis lists, and
# every slot feeds exactly one step. A step is weight-only when neither
# operand depends on ("x",); here those build the frames of the root's
# children, FL and FR, and V = root x FR. The per-input steps are
# T = FL x, then Y = V T, whose axes are the gate (root rank) axis and
# m_1..m_d in some order; out_perm puts them in (gate, m_1..m_d) order.
# The tape returned by run_plan maps every slot to its value, so forward
# and backward both read an operand as values[slot].


@dataclass(frozen=True)
class PlanStep:
    a: tuple
    b: tuple
    a_axes: tuple
    b_axes: tuple


def build_plan(w: HTWeight):
    """Contraction schedule of ``W x`` through the root-children frames
    (the product :class:`RootFrames` runs), as a tree of pairwise steps.

    Weight-only steps first: each child frame is built leaves up, every
    internal node contracting its right child's frame and then its left
    child's with its transfer tensor, so that the frame's rank axis comes
    last; then ``V = root x FR`` over r_R. Two per-input steps follow:
    ``T = FL x`` over the left n-modes (x's leading axes) and ``Y = V T``
    over (r_L, right n-modes). Axes are tracked by label. Contracting an
    internal frame's rank axis, x's leading axes or, when FL is internal,
    T's trailing (r_L, n_R) axes reads that operand in place. The
    weight-only steps (7.7 of the 37.2 MFLOPs at ucf11-direct, against
    49.0 for carrying x from the leaves to the root) run only when the
    factors change: :func:`run_plan` keeps their values, with FL and V
    stored in the order ``T`` and ``Y`` read them.
    """
    tree, root = w.tree, w.tree.root
    steps: list[PlanStep] = []

    def step(a, b, summed):
        # a and b are (slot, axis labels); sum them over the labels in summed
        (slot_a, la), (slot_b, lb) = a, b
        steps.append(PlanStep(slot_a, slot_b, tuple(la.index(s) for s in summed),
                              tuple(lb.index(s) for s in summed)))
        return ("t", len(steps) - 1), [f for f in la + lb if f not in summed]

    def transfer(idx):
        node = tree.nodes[idx]
        return ("f", idx), [("r", idx), ("r", node.left), ("r", node.right)]

    def frame(idx):
        node = tree.nodes[idx]
        if node.is_leaf:
            return ("f", idx), [("r", idx), ("m", node.lo), ("n", node.lo)]
        left, right = frame(node.left), frame(node.right)
        return step(left, step(right, transfer(idx), [("r", node.right)]),
                    [("r", node.left)])

    fl, fr = frame(root.left), frame(root.right)
    v = step(transfer(0), fr, [("r", root.right)])
    x = (("x",), [("n", k) for k in range(tree.d)])
    t = step(fl, x, [("n", k) for k in range(tree.nodes[root.left].hi)])
    _, labels = step(v, t, [s for s in t[1] if s[0] != "m"])
    out = [("r", 0)] + [("m", k) for k in range(tree.d)]
    return steps, tuple(labels.index(s) for s in out)


def run_plan(w: HTWeight, x_tensor: np.ndarray) -> dict:
    """Execute the schedule; returns the slot dict of the input, every
    factor and every intermediate (the tape reused by the backward pass).

    The values of the weight-only steps come from :func:`_weight_steps`
    and are read-only. Only the last two steps, the per-input ones, run
    on every call, each as one ``np.dot`` on the 2-D operands that
    ``np.tensordot`` would form, reshaped as ``np.tensordot`` returns it.
    """
    kept, fl, v, t_shape, t_axes, y_shape = _weight_steps(w)
    k = len(w.plan[0]) - 1
    values = {("f", i): f for i, f in enumerate(w.factors)}
    values[("x",)] = x_tensor
    values.update(kept)
    t = values[("t", k - 1)] = np.dot(fl, x_tensor.reshape(fl.shape[1], -1)).reshape(t_shape)
    values[("t", k)] = np.dot(v, t.transpose(t_axes).reshape(v.shape[1], -1)).reshape(y_shape)
    return values


def _weight_steps(w: HTWeight) -> tuple:
    """Tape values of the plan's weight-only steps, all but its last two
    (:func:`build_plan`), then the 2-D weight operands of those two, ``T =
    FL x`` and ``Y = V T``, T's shape, Y's axis order of T and Y's shape.
    Kept on ``w`` with a private snapshot of the factors (dtypes, shapes
    and the bytes of ``np.concatenate(factors, axis=None)``, which the
    weight-only steps read as views), reused while the live factors match
    it and rebuilt from a fresh one on any difference. FL (a leaf factor
    at d = 2) and V are stored in the order ``np.tensordot`` reads them,
    so their 2-D operands are views: each per-input step is one GEMM."""
    kinds = [(f.dtype, f.shape) for f in w.factors]
    flat = np.concatenate(w.factors, axis=None)
    snapshot, kept = flat.tobytes(), w._weight_steps
    if kept is not None and kept[0] == kinds and kept[1] == snapshot:
        return kept[2]
    steps, _ = w.plan
    parts = np.split(np.frombuffer(snapshot, flat.dtype),
                     np.cumsum([math.prod(shape) for _, shape in kinds])[:-1])
    values = {("f", i): part.reshape(shape).astype(dtype, copy=False)
              for i, (part, (dtype, shape)) in enumerate(zip(parts, kinds))}
    for k, s in enumerate(steps[:-2]):
        values[("t", k)] = np.tensordot(values[s.a], values[s.b],
                                        axes=(list(s.a_axes), list(s.b_axes)))
    (fl, fl_free), (v, v_free) = (_read_order(values, s) for s in steps[-2:])
    t_shape = fl_free + w.n_shape[len(steps[-2].b_axes):]
    t_free = [ax for ax in range(len(t_shape)) if ax not in steps[-1].b_axes]
    y_shape = v_free + tuple(t_shape[ax] for ax in t_free)
    kept = {slot: val for slot, val in values.items() if slot[0] == "t"}
    for a in (*kept.values(), fl, v):
        a.flags.writeable = False
    w._weight_steps = (kinds, snapshot, (kept, fl, v, t_shape,
                                         list(steps[-1].b_axes) + t_free, y_shape))
    return w._weight_steps[2]


def _read_order(values, s):
    """``np.tensordot``'s 2-D operand ``a`` of step s and the shape of a's
    free axes. The operand views ``a`` stored with its free axes then its
    summed ones (a copy unless it is so already), which replaces a kept
    value ``a`` in ``values`` as a view with a's shape."""
    a = values[s.a]
    order = [ax for ax in range(a.ndim) if ax not in s.a_axes] + list(s.a_axes)
    stored = np.ascontiguousarray(a.transpose(order))
    if s.a[0] == "t":
        values[s.a] = stored.transpose(np.argsort(order))
    free = stored.shape[:a.ndim - len(s.a_axes)]
    return stored.reshape(math.prod(free), -1), free


def output_from_tape(w: HTWeight, values: dict) -> np.ndarray:
    """The (g, m_1..m_d) output tensor of an executed schedule."""
    steps, out_perm = w.plan
    return values[("t", len(steps) - 1)].transpose(out_perm)


def htl_forward(w: HTWeight, x) -> np.ndarray:
    """Matrix-vector product reconstruct_dense(w) @ x computed in HT form.

    The input is reshaped to n_shape, run through the schedule of
    :func:`build_plan`, and the resulting (g, m_1..m_d) tensor is
    flattened with the gate (root rank) index slowest.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != w.in_size:
        raise ValueError(f"input has length {x.size}, expected {w.in_size}")
    return output_from_tape(w, run_plan(w, x.reshape(w.n_shape))).reshape(-1)
