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
calls, with a snapshot of the factors they came from; every call checks
the live factors against it bitwise and rebuilds them on any difference.
:class:`RootFrames` serves training, where one minibatch multiplies by
the same factors many times: it builds the frames once as two matrices,
so each product is two GEMMs.
:func:`reconstruct_dense` assembles the dense matrix explicitly and
serves as the testing oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor import tensorize, vectorize


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
        raise ValueError(f"dimension tree needs d >= 2, got {d}")
    if min(leaf_rank, internal_rank, root_rank) < 1:
        raise ValueError("all ranks must be >= 1")
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
    factors: list[np.ndarray]
    # (factor snapshot, weight-only tape values), kept by run_plan
    _weight_steps: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.m_shape = tuple(int(m) for m in self.m_shape)
        self.n_shape = tuple(int(n) for n in self.n_shape)
        validate_weight(self)

    def __repr__(self):
        ranks = [n.rank for n in self.tree.nodes]
        return (f"HTWeight(d={self.tree.d}, g={self.root_rank}, "
                f"m_shape={self.m_shape}, n_shape={self.n_shape}, "
                f"ranks={ranks})")

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
    node."""
    nodes = tree.nodes
    return [(n.rank, int(m_shape[n.lo]), int(n_shape[n.lo])) if n.is_leaf
            else (n.rank, nodes[n.left].rank, nodes[n.right].rank)
            for n in nodes]


def validate_weight(w: HTWeight):
    tree = w.tree
    if len(w.m_shape) != tree.d or len(w.n_shape) != tree.d:
        raise ValueError(
            f"m/n shapes must have length d={tree.d}, got "
            f"{len(w.m_shape)} and {len(w.n_shape)}"
        )
    if len(w.factors) != len(tree.nodes):
        raise ValueError(
            f"expected {len(tree.nodes)} factors, got {len(w.factors)}"
        )
    shapes = factor_shapes(tree, w.m_shape, w.n_shape)
    for i, (node, f, want) in enumerate(zip(tree.nodes, w.factors, shapes)):
        if f.shape != want:
            raise ValueError(
                f"factor for node {i} (modes {node.lo}..{node.hi - 1}) has "
                f"shape {f.shape}, expected {want}"
            )


def init_ht_weight(m_shape, n_shape, leaf_rank, internal_rank, root_rank, seed) -> HTWeight:
    """Random Gaussian initialization, deterministic in the seed.

    Leaf frames use std 1/sqrt(n_k); transfer tensors use
    std 1/sqrt(left_rank * right_rank). Factors are drawn in preorder.
    """
    m_shape = tuple(int(m) for m in m_shape)
    n_shape = tuple(int(n) for n in n_shape)
    if len(m_shape) == 0 or len(m_shape) != len(n_shape):
        raise ValueError("m_shape and n_shape must be non-empty and equal length")
    tree = build_dim_tree(len(m_shape), leaf_rank, internal_rank, root_rank)
    rng = np.random.default_rng(seed)
    factors = []
    for node, shape in zip(tree.nodes, factor_shapes(tree, m_shape, n_shape)):
        fan_in = shape[2] if node.is_leaf else shape[1] * shape[2]
        factors.append(rng.normal(0.0, (1.0 / fan_in) ** 0.5, size=shape))
    return HTWeight(tree, m_shape, n_shape, factors)


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
    (m_L, g, m_R). ``backward`` accumulates the cotangents of U and V over
    every product; ``finish`` takes them back through the frame build into
    ``sink``, one array per factor. U and V are built from the factors at
    construction and ``finish`` reads the factors again, so keep them
    unchanged until ``finish`` and build new frames after every update.
    """

    def __init__(self, w: HTWeight, sink):
        root = w.tree.root
        self.w, self.sink = w, sink
        fl, self.fr = _node_frame(w, root.left), _node_frame(w, root.right)
        rl, ml, nl = fl.shape
        _, mr, nr = self.fr.shape
        self.shape = (root.rank, rl, ml, mr, nl, nr)
        self.u = fl.transpose(1, 0, 2).reshape(ml * rl, nl)
        v = np.tensordot(w.factors[0], self.fr, axes=(2, 0))  # (g, a, iR, jR)
        self.v = v.transpose(1, 3, 0, 2).reshape(rl * nr, root.rank * mr)
        self.du = np.zeros_like(self.u)
        self.dv = np.zeros_like(self.v)

    def forward(self, x):
        """``W @ x`` gate-major, and what ``backward`` needs."""
        g, _, ml, mr, nl, nr = self.shape
        t = (self.u @ x.reshape(nl, nr)).reshape(ml, -1)
        y = (t @ self.v).reshape(ml, g, mr).transpose(1, 0, 2)
        return y.reshape(-1), (x, t)

    def backward(self, saved, dy):
        """Accumulate the U and V cotangents of one product; returns
        ``W.T @ dy``."""
        x, t = saved
        g, rl, ml, mr, nl, nr = self.shape
        dy = dy.reshape(g, ml, mr).transpose(1, 0, 2).reshape(ml, g * mr)
        self.dv += t.T @ dy
        dt = (dy @ self.v.T).reshape(ml * rl, nr)
        self.du += dt @ x.reshape(nl, nr).T
        return (self.u.T @ dt).reshape(-1)

    def finish(self):
        """Add the factor cotangents of everything accumulated to ``sink``."""
        g, rl, ml, mr, nl, nr = self.shape
        root = self.w.tree.root
        dv = self.dv.reshape(rl, nr, g, mr)  # (a, jR, g, iR)
        self.sink[0] += np.tensordot(dv, self.fr, axes=([3, 1], [1, 2])).transpose(1, 0, 2)
        d_fr = np.tensordot(self.w.factors[0], dv, axes=([0, 1], [2, 0]))  # (b, jR, iR)
        _frame_vjp(self.w, root.left, self.du.reshape(ml, rl, nl).transpose(1, 0, 2),
                   self.sink)
        _frame_vjp(self.w, root.right, d_fr.transpose(0, 2, 1), self.sink)


# ---------------------------------------------------------------------------
# Fast forward kernel

# A plan is a list of contraction steps over value slots. Slots:
#   ("x",)       the tensorized input
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
    and are read-only; only the per-input steps run on every call.
    """
    steps, _ = w.plan
    values = {("f", i): f for i, f in enumerate(w.factors)}
    values[("x",)] = x_tensor
    kept = _weight_steps(w)
    values.update(kept)
    for k, s in enumerate(steps):
        if ("t", k) not in kept:
            values[("t", k)] = np.tensordot(values[s.a], values[s.b],
                                            axes=(list(s.a_axes), list(s.b_axes)))
    return values


def _weight_steps(w: HTWeight) -> dict:
    """Tape values of the plan's weight-only steps, kept on ``w`` with a
    private snapshot of the factors they came from. They are reused while
    every live factor has the snapshot's dtype, shape and bytes, and
    recomputed from a fresh snapshot on any difference. Each value that a
    per-input step reads is stored in the order ``np.tensordot`` reads
    it, so that step runs one GEMM with no operand copy."""
    kept = w._weight_steps
    if (kept is not None and len(kept[0]) == len(w.factors)
            and all(map(_same_bits, w.factors, kept[0]))):
        return kept[1]
    steps, _ = w.plan
    snapshot = [np.array(f) for f in w.factors]
    values = {("f", i): f for i, f in enumerate(snapshot)}
    per_input = {("x",)}
    for k, s in enumerate(steps):
        if s.a in per_input or s.b in per_input:
            per_input.add(("t", k))
            for slot, summed, left in ((s.a, s.a_axes, True), (s.b, s.b_axes, False)):
                if slot[0] == "t" and slot not in per_input:
                    values[slot] = _read_order(values[slot], summed, left)
        else:
            values[("t", k)] = np.tensordot(values[s.a], values[s.b],
                                            axes=(list(s.a_axes), list(s.b_axes)))
    kept = {slot: v for slot, v in values.items() if slot[0] == "t"}
    for v in kept.values():
        v.flags.writeable = False
    w._weight_steps = (snapshot, kept)
    return kept


def _read_order(a, summed, left):
    """A copy of ``a`` stored with its free axes then its ``summed`` axes
    (``left``) or summed then free, returned as a view with a's shape."""
    free = [ax for ax in range(a.ndim) if ax not in summed]
    order = free + list(summed) if left else list(summed) + free
    return np.ascontiguousarray(a.transpose(order)).transpose(np.argsort(order))


def _same_bits(a, b) -> bool:
    """Same dtype, shape and bytes, compared in place: 0.0 differs from
    -0.0 and a NaN matches only its own bits. Item sizes with no unsigned
    integer view never match."""
    if a.dtype != b.dtype or a.shape != b.shape or a.itemsize not in (1, 2, 4, 8):
        return False
    bits = np.dtype(f"u{a.itemsize}")
    return bool((a.view(bits) == b.view(bits)).all())


def output_from_tape(w: HTWeight, values: dict) -> np.ndarray:
    """The (g, m_1..m_d) output tensor of an executed schedule."""
    steps, out_perm = w.plan
    return values[("t", len(steps) - 1)].transpose(out_perm)


def htl_forward(w: HTWeight, x) -> np.ndarray:
    """Matrix-vector product reconstruct_dense(w) @ x computed in HT form.

    The input is tensorized to n_shape, run through the schedule of
    :func:`build_plan`, and the resulting (g, m_1..m_d) tensor is
    vectorized with the gate (root rank) index slowest.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != w.in_size:
        raise ValueError(f"input has length {x.size}, expected {w.in_size}")
    values = run_plan(w, tensorize(x, w.n_shape))
    return vectorize(output_from_tape(w, values))
