"""LSTM cells whose four gates come out of a single gate-stacked linear map.

One cell class owns the LSTM: it concatenates the input vector, zero
padding and previous hidden state to the map's input length, applies a
*gate map* once per time step, and splits the 4H pre-activations
gate-major in the order f, u, c, o. The gate map is the only part that
differs between the paper's cell and its baseline:

- ``HtGateMap`` (``FdhtLstmCell``) stores the stacked input-to-hidden and
  hidden-to-hidden matrices of all four gates in HT form with root rank
  ``GATES``, so the leading output mode selects the gate. Unprepared it
  runs the contraction plan; prepared, once per minibatch or split, it
  is the root-children frames (``fdht.ht.RootFrames``), two GEMMs per
  product.
- ``DenseGateMap`` (``DenseLstmCell``) is one explicit (4H x N) matrix;
  prepared for BPTT, it adds its gradient at the end of each group.
- ``InputOnlyGateMap`` runs input-only mode on the row [x | zeros | h]
  of length N + H: the cell's map reads the first N columns and a
  ``DenseGateMap`` over the (4H x H) recurrent matrix the last H, so in
  both modes h is the row's last H columns, on one step path.

Each method has one meaning. ``product(x)`` multiplies the block of
inputs it is given; it is all an unprepared map does, and what frames
prepared without gradient buffers serve. Frames prepared for BPTT open
a group of k equal-length sequences, which step in lockstep, over its
(k, N) input row (``begin``), and ``forward(t)`` multiplies that row
into row t of the block ``begin`` returned. Each gate map returns its
pre-activations gate-major in its own layout, with no copy of its own;
the gate stage reshapes them to its (4, k, H) block. Every map prepared
for BPTT allocates its own gradient blocks and sets them in the sink
under its ``params()`` names at ``finish``, and sets nothing before.

Inference has one recurrence loop, ``_run_block``: ``cell.step`` runs it
on a block of one sequence and one step through the unprepared map,
``forward_split`` on blocks of an evaluation split through frames
prepared once. BPTT gets each group's blocks once (``Sequence``): the
input row, which each step fills from the sequences' frames before its
forward and its backward, and the gate stage's cell states and tanh(c),
which the steps write in place and the backward reads.

The cell's bias is one (4, H) array ``biases``, rows f, u, c, o, held as
one block named ``biases`` in ``params()`` and in every gradient dict.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .ht import HTWeight, RootFrames, init_ht_weight, output_from_tape, run_plan

MODES = ("full", "input-only")
GATE_ORDER = ("f", "u", "c", "o")
GATES = len(GATE_ORDER)  # the HT root rank: one output slice per gate
SPLIT_BLOCK_BYTES = 2 << 20  # forward_split's block budget: a synthetic split is one block
# A BPTT group's byte budget. A group of k equal-length sequences holds,
# per sequence, its input row, the prepared frames' row scratch (HT's T),
# their dy rows (which also hold the activations), its cell states and
# its tanh(c) (``group_size``). More sequences a step cut the
# interpreter's calls per sequence, which set a step's time at small
# shapes (4 at synthetic, where a group of 4 keeps a minibatch's peak
# memory at that of pairs), and only raise the peak where a step's GEMMs
# set its time (2 at hmdb51-cnn and ucf11-direct).
GROUP_BYTES = 48 << 10
HEAD_BLOCK_BYTES = 64 << 10  # bptt's head.w gradient block: a synthetic head is one block


def group_size(cell, steps: int) -> int:
    """Most sequences of ``steps`` frames that one BPTT group runs: as
    many as fit ``GROUP_BYTES`` at 8 (N + scratch + 4H steps +
    H (2 steps + 1)) bytes each, at least 2."""
    per_sequence = (cell.gate_map.in_size + cell.gate_map.row_scratch
                    + (6 * steps + 1) * cell.hidden_size)
    return max(2, GROUP_BYTES // (8 * per_sequence))


@dataclass(eq=False)
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass(eq=False)
class Head:
    """Dense classifier on the final hidden state."""

    w: np.ndarray  # (classes, hidden)
    b: np.ndarray  # (classes,)


def make_head(classes: int, hidden_size: int, seed) -> Head:
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, hidden_size ** -0.5, size=(classes, hidden_size))
    return Head(w, np.zeros(classes))


# 0-d operands: a ufunc takes them faster than a Python float, same bits
_ZERO, _ONE = np.zeros(()), np.ones(())


def sigmoid(z, out=None):
    """Logistic function without overflow, exp(min(z, 0)) / (1 + exp(-|z|)):
    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, the same two
    IEEE expressions as splitting z by sign, so the bits match that form.
    It runs in place in two buffers, one of them the result ``out``."""
    d = np.abs(z)
    np.exp(np.negative(d, d), d)
    d += _ONE
    s = np.minimum(z, _ZERO, out=out)
    return np.divide(np.exp(s, s), d, s)


def softmax_cross_entropy(logits, label):
    """Mean-ready loss and dL/dlogits for one example, or, for a (k,
    classes) block of logits and k labels, the k losses and the (k,
    classes) dlogits, each row the bits of a call on that row alone. A
    label that is not an integer (a bool, a float or a str among them) or
    is out of range is a ValueError, that of the first such row."""
    one = np.ndim(logits) == 1
    logits, labels = np.atleast_2d(logits), np.atleast_1d(label)
    classes = logits.shape[1]
    for label in [label] if one else label:
        integer = isinstance(label, (int, np.integer)) and not isinstance(label, bool)
        if not (integer and 0 <= label < classes):
            raise ValueError(f"label {label} out of range for {classes} classes")
    shifted = logits - np.maximum.reduce(logits, 1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), 1, keepdims=True))
    rows = np.arange(len(labels))
    loss = log_z[:, 0] - shifted[rows, labels]
    dlogits = np.subtract(shifted, log_z, shifted)
    np.exp(dlogits, dlogits)
    dlogits[rows, labels] -= 1.0
    return (float(loss[0]), dlogits[0]) if one else (loss, dlogits)


class HtGateMap:
    """Gate map stored in HT form. Its own ``product`` runs the
    contraction plan on one packed row; ``prepare`` builds the
    root-children frames once, for training or for a split's ``product``,
    and every product of theirs is two GEMMs."""

    def __init__(self, weight: HTWeight):
        if weight.root_rank != GATES:
            raise ValueError(f"cell weight needs root rank {GATES}, got {weight.root_rank}")
        self.weight = weight
        self.in_size = weight.in_size
        self.hidden_size = math.prod(weight.m_shape)
        left = weight.tree.nodes[weight.tree.root.left]  # modes 0 .. left.hi - 1
        # entries of the prepared frames' T per sequence, (m_L r_L, n_R)
        self.row_scratch = (math.prod(weight.m_shape[:left.hi]) * left.rank
                            * math.prod(weight.n_shape[left.hi:]))

    def params(self) -> dict[str, np.ndarray]:
        return {f"ht.{i}": f for i, f in enumerate(self.weight.factors)}

    def product(self, x):
        """``W @ x`` as (g, m_1..m_d) for a (1, N) block ``x``: one run of
        the contraction plan."""
        return output_from_tape(self.weight, run_plan(self.weight, x.reshape(self.weight.n_shape)))

    def prepare(self, grads=None, start=0) -> RootFrames:
        """Frames of the current factors, whose ``finish`` allocates the
        factor gradients and sets them in ``grads`` under their names, and
        whose ``backward`` returns the input cotangent from row ``start``
        on; without ``grads``, for ``product``."""
        return RootFrames(self.weight, grads, start, list(self.params()))


class DenseGateMap:
    """Gate map as one explicit (4H x N) matrix, which serves ``product``.
    Prepared with a sink ``grads`` it also serves BPTT: ``forward(t)``
    writes the product of the group's input row into row t of the group's
    (steps, k, 4H) dz block, ``backward`` keeps a copy of the row in the
    group's (steps, k, N) block and the dz it gets in that dz block, and
    ``end`` adds the group's weight gradient in one GEMM per gate into the
    zero block ``prepare`` allocated, so it holds one group's rows;
    ``finish`` sets that block in the sink under ``name``, its ``params()``
    name: "w" for the dense cell, "recurrent" for input-only mode."""

    row_scratch = 0  # no per-sequence scratch beside the rows it keeps

    def __init__(self, w, name="w", sink=None, start=0):
        self.weight = np.asarray(w, dtype=np.float64)
        if self.weight.shape[0] % GATES:
            raise ValueError(
                f"weight rows must be a multiple of {GATES}, got {self.weight.shape[0]}")
        self.in_size = self.weight.shape[1]
        self.hidden_size = self.weight.shape[0] // GATES
        self.name, self.sink, self.start = name, sink, start
        self.grad = None if sink is None else np.zeros(self.weight.shape)

    def params(self) -> dict[str, np.ndarray]:
        return {self.name: self.weight}

    def forward(self, t):
        """``W @ x`` for the (k, N) row that ``begin`` took, written into
        row t of the block that ``begin`` returned, as a (g, k, H) view."""
        y = self.row.dot(self.weight.T, out=self.dz[t])
        return y.reshape(len(y), GATES, -1).transpose(1, 0, 2)

    def product(self, x):
        """``W @ x`` for a (B, N) block of inputs as a (g, B, H) view."""
        return (x @ self.weight.T).reshape(len(x), GATES, -1).transpose(1, 0, 2)

    def prepare(self, grads=None, start=0):
        """The map over the same weight, with a zero gradient block that
        ``finish`` sets in ``grads``, whose ``backward`` returns the input
        cotangent from row ``start`` on; without ``grads``, the map itself."""
        return self if grads is None else DenseGateMap(self.weight, self.name, grads, start)

    def begin(self, row, steps):
        """Open a group of ``steps`` products over the (k, N) input
        ``row``, which ``forward(t)`` reads and ``backward(t, dz)`` copies,
        so it must hold row t's inputs before each. Returns the group's dz
        block as (steps, g, k, H) rows: row t holds the product from
        ``forward(t)`` on, is the caller's once it has read it, and gets
        dz from ``backward(t, dz)``."""
        k, n = row.shape
        self.row = row
        self.x = np.empty((steps, k, n))
        self.dz = np.empty((steps, k, self.weight.shape[0]))
        return self.dz.reshape(steps, GATES, k, -1)

    def backward(self, t, dz):
        """Keep a copy of the group's row and the (g, k, H) ``dz`` of its
        row t, which may be that row's own memory; returns
        ``(dz.T @ W)[:, start:]``, one row per sequence, for the prepared
        ``start``."""
        self.x[t] = self.row
        row = self.dz[t]
        k = len(row)
        row.reshape(k, GATES, -1).transpose(1, 0, 2)[...] = dz.reshape(GATES, k, -1)
        return row @ self.weight[:, self.start:]

    def end(self):
        """Add ``dz.T @ x`` over the group's kept rows to ``grad``, one
        gate's H rows at a time, so no (4H x N) product sits beside
        ``grad``; then let go of the group's blocks."""
        dz, x = self.dz.reshape(-1, len(self.grad)), self.x.reshape(-1, self.in_size)
        for r in range(0, len(self.grad), self.hidden_size):
            self.grad[r:r + self.hidden_size] += dz[:, r:r + self.hidden_size].T @ x
        self.row = self.x = self.dz = None

    def finish(self):
        """Set the gradient that every group's ``end`` added in the sink."""
        self.sink[self.name] = self.grad


class InputOnlyGateMap:
    """Input-only mode's gate map over the row [x | zeros | h] of length
    N + H: the sum of ``inner``, the cell's map, on the first N columns
    (whose h columns stay zero) and ``recurrent``, a ``DenseGateMap`` over
    the (4H x H) recurrent matrix, on the last H. ``product`` returns the
    sum of both maps' products; prepared, ``forward(t)`` adds the
    recurrent product into the inner map's row t. ``begin``, ``end`` and
    ``finish`` delegate to both maps, so each sets its own gradients, the
    recurrent one under "recurrent", at ``finish``."""

    def __init__(self, inner, recurrent):
        self.inner, self.recurrent, self.n = inner, recurrent, inner.in_size
        self.in_size, self.row_scratch = self.n + recurrent.in_size, inner.row_scratch

    def params(self) -> dict[str, np.ndarray]:
        return {**self.inner.params(), **self.recurrent.params()}

    def forward(self, t):
        z = self.inner.forward(t)
        return np.add(z, self.recurrent.forward(t).reshape(z.shape), z)

    def product(self, x):
        z = self.inner.product(x[:, :self.n])
        return z + self.recurrent.product(x[:, self.n:]).reshape(z.shape)

    def prepare(self, grads=None, start=0):
        """Both maps prepared, for the input cotangent from row ``start`` (0 or N) on."""
        frames = copy.copy(self)
        frames.inner, frames.start = self.inner.prepare(grads, start), start
        frames.recurrent = self.recurrent.prepare(grads)
        return frames

    def begin(self, row, steps):
        self.recurrent.begin(row[:, self.n:], steps)
        return self.inner.begin(row[:, :self.n], steps)

    def backward(self, t, dz):
        dh = self.recurrent.backward(t, dz)  # before the inner map moves dz in its row
        return np.concatenate((self.inner.backward(t, dz), dh), axis=1)

    def end(self):
        self.inner.end()
        self.recurrent.end()

    def finish(self):
        self.inner.finish()
        self.recurrent.finish()


class Sequence:
    """The blocks of a BPTT group of k equal-length sequences, allocated once
    and written in place by its steps; each step serves all k. ``row`` is
    the group's (k, N) packed input row: the frames of each of the k
    sequences ``xs``, then zeros over the pad and the h slice. The frames
    are read in place, as the (steps, n_x) arrays that ``bptt`` checked
    with ``check_frames``: ``fill(t)`` writes step t's into the row's x
    slices before the step's forward and again before its backward.
    ``frames``, prepared for BPTT, open the group over the row
    (``begin``), and ``act`` is the block of rows that ``begin`` returns:
    row t holds the gate map's output, then the step's activations f, u,
    c_in, o as one contiguous (4, k, H) block, then, once the step's
    backward has read them, its dz. Step t writes its cell states into
    ``c[t + 1]`` (``c[0]`` is the zero initial state), tanh of those into
    ``tanh_c[t]`` and its hidden states into ``h``, the row's last H
    columns, where the next step's gate map reads them. Before step t's
    backward, ``fill(t, backward=True)`` also writes h_t back into ``h``:
    o_{t-1} tanh(c_{t-1}) from ``act[t - 1]`` and ``tanh_c[t - 1]``, the
    forward's own product, so the same bits, or zero at t = 0."""

    def __init__(self, cell, xs, frames):
        self.xs = xs
        k, steps, h = len(xs), len(xs[0]), cell.hidden_size
        self.row = np.zeros((k, cell.gate_map.in_size))
        self.x_rows = self.row[:, : cell.n_x]
        self.h = self.row[:, -h:]
        self.act = frames.begin(self.row, steps)
        self.c = np.zeros((steps + 1, k, h))
        self.tanh_c = np.empty((steps, k, h))

    def fill(self, t, backward=False):
        """Write step t's frames into the row's x slices and, with
        ``backward``, h_t into ``h``."""
        for j, x in enumerate(self.xs):
            self.x_rows[j] = x[t]
        if backward and t:
            np.multiply(self.act[t - 1][3], self.tanh_c[t - 1], self.h)
        elif backward:
            self.h[...] = 0.0


class FdhtLstmCell:
    """LSTM cell over a gate map; by default the HT map, root rank ``GATES``.

    Without ``recurrent`` (mode "full") the gate map consumes
    [x | zeros(pad_len) | h]. With a dense (4H x H) ``recurrent`` matrix
    (mode "input-only") the map consumes only [x | zeros], and that matrix
    supplies the hidden-to-hidden terms, one H x H block per gate: the
    cell's ``gate_map`` is then an ``InputOnlyGateMap`` over both.
    """

    gate_map_type = HtGateMap

    def __init__(self, weight, n_x: int, biases=None, recurrent=None):
        self.gate_map = self.gate_map_type(weight)
        self.weight = self.gate_map.weight
        self.n_x = int(n_x)
        self.hidden_size = h = self.gate_map.hidden_size
        self.pad_len = pad_length(self.n_x, h, self.gate_map.in_size)
        if biases is None:
            biases = np.zeros((GATES, h))
            biases[0] = 1.0  # forget gate
        self.biases = np.array(biases, dtype=np.float64)
        if self.biases.shape != (GATES, h):
            raise ValueError(f"biases must have shape {(GATES, h)}, got {self.biases.shape}")
        self.recurrent, self.mode = recurrent, "full"
        if recurrent is not None:
            self.recurrent = np.asarray(recurrent, dtype=np.float64)
            if self.recurrent.shape != (GATES * h, h):
                raise ValueError(f"recurrent matrix must be {(GATES * h, h)}, "
                                 f"got {self.recurrent.shape}")
            recurrent = DenseGateMap(self.recurrent, "recurrent")
            self.gate_map, self.mode = InputOnlyGateMap(self.gate_map, recurrent), "input-only"

    def init_state(self) -> LstmState:
        return LstmState(np.zeros(self.hidden_size), np.zeros(self.hidden_size))

    def params(self) -> dict[str, np.ndarray]:
        p = self.gate_map.params()
        p["biases"] = self.biases
        if self.recurrent is not None:
            p["recurrent"] = p.pop("recurrent")  # after the biases, as the CSVs list them
        return p

    def step(self, x, state: LstmState) -> LstmState:
        return self.step_cached(x, state)

    def step_cached(self, x, state: LstmState) -> LstmState:
        """One recurrence step through the unprepared gate map's
        ``product`` (the plan for HT): ``_run_block`` over a block of one
        sequence and one step. ``check_frames`` checks ``x`` as a frame,
        read in place, and the state's h and c must each be (H,)."""
        xs = check_frames(np.asarray(x)[None, None], self.n_x, ndim=3)
        for name, value in (("h", state.h), ("c", state.c)):
            if np.shape(value) != (self.hidden_size,):
                raise ValueError(f"state {name} has shape {np.shape(value)}, "
                                 f"expected ({self.hidden_size},)")
        h, c = _run_block(self.gate_map, self, xs, state.h, state.c)
        return LstmState(h[0].copy(), c[0])  # not a view that holds the block

    def step_packed(self, frames, seq: Sequence, t: int):
        """Step t of the BPTT group ``seq``, which the prepared ``frames``
        opened: fill its (k, N) row with the step's frames (its h slices
        step t - 1 wrote), ``frames.forward(t)`` of that row, gate and
        update, all written into ``seq``."""
        seq.fill(t)
        _gate_forward(frames.forward(t), self.biases[:, None], seq.c[t],
                      seq.act[t], seq.c[t + 1], seq.tanh_c[t], seq.h)

    def step_backward(self, frames, seq: Sequence, t: int, dh, dc, grads):
        """Accumulate the gradients of step t of the group ``seq``, given
        its (k, H) ``dh`` and ``dc``: biases into ``grads``, the gate map
        into ``frames``. The group's row is filled with step t's inputs
        first, which the map reads. Returns (dh_prev, dc_prev, dx), each
        with one row per sequence: dh_prev the last H columns of the
        map's input cotangent, dx its first n_x, read from the row
        ``frames.start`` that ``prepare`` fixed: None unless it is 0. The
        gate stage reads ``seq.act[t]``, a row of the frames' own opened
        by ``begin``, then writes dz over it, so no dz of its own is alive
        while ``frames.backward`` moves it into place and runs its
        GEMMs."""
        seq.fill(t, backward=True)
        dz, dc_prev = _gate_backward(seq.act[t], seq.c[t], seq.tanh_c[t], dh, dc)
        grads["biases"] += np.add.reduce(dz, 1)
        d_packed = frames.backward(t, dz)
        dx = None if frames.start else d_packed[:, : self.n_x]
        return d_packed[:, -self.hidden_size:], dc_prev, dx


class DenseLstmCell(FdhtLstmCell):
    """The same cell over an explicit stacked (4H x N) weight matrix, used
    both as the training baseline and as the trajectory oracle vehicle."""

    gate_map_type = DenseGateMap


def _gate_forward(z, bias, c_prev, act, c, tanh_c, h):
    """Gates of one step on the stacked (4, ..., H) block: one bias add,
    the sigmoid over all four rows, then tanh over the candidate row,
    written into ``act`` (f, u, c_in, o), then the cell state ``c``,
    ``tanh_c`` and ``h``. ``z`` is gate-major in the gate map's own layout
    and ``bias`` broadcasts to ``act``: the cell's biases as a (4, 1, H)
    view over a group or a block of a split. Reshaping ``z`` to ``act``'s
    (4, k, H) copies it only when that layout is strided; a ufunc reading
    the strided layout costs more than that copy. ``z`` is read whole into
    the biased pre-activations before ``act`` is written, so the two may
    share memory, as in BPTT's rows."""
    a = z.reshape(act.shape) + bias
    sigmoid(a, act)
    np.tanh(a[2], act[2])
    f, u, c_in, o = act
    np.multiply(f, c_prev, c)
    c += u * c_in
    np.multiply(o, np.tanh(c, tanh_c), h)


def _run_block(frames, cell, xs, h, c):
    """Run the cell over the (b, steps, n_x) frames ``xs`` from the hidden
    and cell states ``h`` and ``c``, each (b, H) or broadcast to it, in
    one (b, N) packed block: each step writes its frames into the block,
    multiplies it by ``frames.product`` and runs the gate stage on
    (4, b, H), which writes the new cell states over its own copy of
    ``c`` and the new hidden states into the block's last H columns,
    where the next product reads them. Returns the final (b, H) hidden
    states, that view of the block, and cell states."""
    block = np.zeros((len(xs), cell.gate_map.in_size))
    hs = block[:, -cell.hidden_size:]
    hs[...] = h
    c = np.array(np.broadcast_to(c, hs.shape), dtype=np.float64)
    act, tanh_c = np.empty((GATES, *hs.shape)), np.empty(hs.shape)
    for t in range(xs.shape[1]):
        block[:, : cell.n_x] = xs[:, t]
        _gate_forward(frames.product(block), cell.biases[:, None], c, act, c, tanh_c, hs)
    return hs, c


def _gate_backward(act, c_prev, tanh_c, dh, dc):
    """Returns the (4, ..., H) pre-activation gradient dz and dc_prev of a
    step that ``_gate_forward`` ran, with dz written over ``act``, which
    is read in full before. Each gate row is (upstream * p) * q with
    p = act and q = 1 - act, except the candidate row, where p = 1 and
    q = 1 - c_in**2; keeping that order of products gives the bits of the
    per-gate formulas. q is formed in ``act`` itself, so the stage holds
    one (4, ..., H) block of its own, the upstream products."""
    f, u, c_in, o = act
    dc_total = np.square(tanh_c)
    np.subtract(_ONE, dc_total, dc_total)
    dc_total *= dh * o
    dc_total += dc
    up = np.empty(act.shape)
    np.multiply(dc_total, c_prev, up[0])
    np.multiply(dc_total, c_in, up[1])
    np.multiply(dc_total, u, up[2])
    np.multiply(dh, tanh_c, up[3])
    np.multiply(up[:2], act[:2], up[:2])
    np.multiply(up[3], o, up[3])
    dc_prev = dc_total * f
    np.square(c_in, c_in)
    np.subtract(_ONE, act, act)
    return np.multiply(up, act, act), dc_prev


def check_frames(xs, n_x: int, ndim: int = 2) -> np.ndarray:
    """``xs`` as a float64 array: a sequence of frames (``ndim`` 2) or a
    split of equal-length sequences (3), each frame a vector of ``n_x``
    numbers. Anything else is a one-line ValueError, that of the first
    sequence or frame at fault: an empty sequence, or a frame that is not
    a vector (a 0-D, 1-D or 3-D sequence) or has the wrong length."""
    try:
        a = np.asarray(xs, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        a = None
    if a is not None and a.ndim == ndim and a.shape[-1] == n_x and a.size:
        return a
    xs = [xs] if a is not None and a.ndim == 0 else xs  # a number: one frame of shape ()
    if len(xs) == 0:
        raise ValueError("cannot run an empty " + ("sequence" if ndim == 2 else "split"))
    for x in xs:
        if ndim == 3:
            check_frames(x, n_x)
            continue
        shape = np.shape(x)
        if len(shape) != 1:
            raise ValueError(f"input has shape {shape}, expected ({n_x},)")
        if shape[0] != n_x:
            raise ValueError(f"input has length {shape[0]}, expected {n_x}")
    raise ValueError("sequences of a split must have the same number of frames"
                     if ndim == 3 else "frames must hold numbers")


def check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def check_dropout(rate: float):
    """The dropout rule of ``bptt`` and ``TrainConfig``: a rate in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout_rate must be in [0, 1)")


def pad_length(n_x: int, hidden: int, in_size: int) -> int:
    """Zeros between x and h in the packed input; the packing bound,
    which also needs n_x >= 1."""
    if n_x < 1:
        raise ValueError(f"n_x must be >= 1, got {n_x}")
    if in_size < n_x + hidden:
        raise ValueError(f"gate map input length {in_size} too small: "
                         f"needs at least n_x + hidden = {n_x + hidden}")
    return in_size - n_x - hidden


def make_cell(n_x, n_shape, m_shape, leaf_rank, internal_rank,
              mode: str = "full", seed=0) -> FdhtLstmCell:
    """Build an FDHT cell: HT weight with root rank ``GATES``, zero biases
    except a forget-gate bias of 1, and zero-padding from n_x + hidden up
    to prod(n_shape)."""
    check_mode(mode)
    hidden = math.prod(m_shape)
    weight = init_ht_weight(m_shape, n_shape, leaf_rank, internal_rank, GATES, seed)
    recurrent = None
    if mode == "input-only":
        rng = np.random.default_rng((seed, 1))
        recurrent = rng.normal(0.0, hidden ** -0.5, size=(GATES * hidden, hidden))
    return FdhtLstmCell(weight, n_x, recurrent=recurrent)


def forward_sequence(cell, head: Head, xs) -> np.ndarray:
    """Run the cell over a sequence from the zero state and return the
    classifier logits on the final hidden state; ``check_frames`` rejects
    a sequence that is not (steps, n_x)."""
    state = cell.init_state()
    for x in check_frames(xs, cell.n_x):
        state = cell.step(x, state)
    return head.w @ state.h + head.b


def forward_split(cell, head: Head, xs) -> np.ndarray:
    """``forward_sequence`` over a split of equal-length sequences, the
    (B, steps, n_x) ``xs``, in blocks of the most sequences whose packed
    inputs and gate outputs, 8 (N + 4H) bytes each, fit ``SPLIT_BLOCK_BYTES``,
    or in input-only mode the recurrent matrix's bytes if that is larger.
    Each block runs through ``_run_block`` from the zero state, with the
    gate map's frames prepared once (``product``, no backward
    bookkeeping), then the head on (b, H). Returns (B, classes) logits."""
    xs = check_frames(xs, cell.n_x, ndim=3)
    size, h = cell.gate_map.in_size, cell.hidden_size
    frames = cell.gate_map.prepare()
    # an input-only step reads the whole recurrent matrix once per block
    budget = max(SPLIT_BLOCK_BYTES, 0 if cell.recurrent is None else cell.recurrent.nbytes)
    rows = max(1, budget // (8 * (size + GATES * h)))
    logits = np.empty((len(xs), head.b.size))
    for first in range(0, len(xs), rows):
        hs, _ = _run_block(frames, cell, xs[first:first + rows], 0.0, 0.0)
        logits[first:first + rows] = hs @ head.w.T + head.b
    return logits


def model_params(cell, head: Head) -> dict[str, np.ndarray]:
    """Every parameter block by name: ``cell.params()``, then the head's."""
    return {**cell.params(), "head.w": head.w, "head.b": head.b}


def zero_grads(cell, head: Head) -> dict[str, np.ndarray | None]:
    """Gradients named and ordered as ``model_params``: zeros for the
    blocks the steps add into, the biases' and the head's, and None for
    the gate map's, which its prepared frames set at ``finish``."""
    late = cell.gate_map.params()
    return {k: None if k in late else np.zeros(v.shape)
            for k, v in model_params(cell, head).items()}


def _head_pass(head: Head, h, labels, dropout_rate, rng, grads):
    """Dropout, logits, loss and dh of a BPTT group, once on its (k, H)
    final hidden states ``h``: one (k, H) draw of dropout masks, the same
    numbers as k draws of H, and the head's products as stacked GEMVs,
    so each row has the bits of its sequence run alone. Adds the head's
    gradients to ``grads`` sequence by sequence, in batch order,
    ``head.w``'s in blocks of rows of at most ``HEAD_BLOCK_BYTES``.
    Returns the k losses and the (k, H) dh; its other temporaries go on
    return, before the group's backward runs."""
    if dropout_rate > 0:
        mask = (rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
        h = h * mask
    logits = np.matmul(head.w, h[:, :, None])[:, :, 0]
    logits += head.b
    losses, dlogits = softmax_cross_entropy(logits, labels)
    rows = max(1, HEAD_BLOCK_BYTES // (8 * h.shape[1]))  # of head.w, per product
    for d, h_used in zip(dlogits, h):
        for r in range(0, len(d), rows):
            grads["head.w"][r:r + rows] += np.multiply.outer(d[r:r + rows], h_used)
        grads["head.b"] += d
    dh = np.matmul(dlogits[:, None, :], head.w)[:, 0]
    if dropout_rate > 0:
        dh *= mask
    return losses, dh


def bptt(cell, head: Head, batch, dropout_rate: float = 0.0, rng=None,
         return_input_grads: bool = False):
    """Mean softmax cross-entropy over a batch of (sequence, label) pairs
    and its gradients with respect to every cell, bias and head parameter.

    The gate map is prepared once for the batch (for HT, the root-children
    frames of the current factors) and finished once at the end, where the
    prepared map sets its gradients in the dict (``zero_grads`` leaves
    them None). The sequences run in lockstep groups of at most
    ``group_size(cell, steps)`` consecutive ones of equal length, in batch
    order, so that each forward and backward step serves the whole group;
    a change of length ends a group, and a group may hold one sequence.
    Each group gets its blocks once (``Sequence``), one (k, N) input row
    among them, which each step fills from the caller's frames before its
    forward and again before its backward; the frames open the group over
    that row with ``begin`` and close it with ``end``, where the dense
    maps add the group's weight gradient. Steps write into the group's
    blocks and keep no cache of their own. Step t's activations live in
    the frames' row t, between the gate map's output and the step's dz:
    the gate stage reads the output into its biased pre-activations before
    it writes them, and the step's backward reads them before it writes dz
    over them. A group's blocks are dropped when its backward is done,
    before ``end``, and the frames let go of the blocks their ``begin``
    allocated at ``end``, so the peak memory does not grow with the batch.
    The head, the loss and the dropout masks run once per group on its
    (k, H) final hidden states (``_head_pass``), each row with the bits and
    draws of its sequence run alone in batch order, so a sequence's loss
    and draws do not depend on its group; the head's gradients are added
    sequence by sequence, the weight's in blocks of rows of at most
    ``HEAD_BLOCK_BYTES``. The frames' input cotangent starts at row 0 with
    ``return_input_grads``, else at the h slice, the row's last H columns.
    A ``dropout_rate`` outside [0, 1) is a ValueError; dropout, when
    enabled, is applied to the final hidden state before the head
    (inverted scaling) and needs an ``rng``. Returns (loss, grads) or
    (loss, grads, input_grads) where input_grads[i][t] is dL/dx_t for
    example i, divided by the batch size as each step's backward returns
    it, so no step's whole input cotangent row is kept.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    check_dropout(dropout_rate)
    if dropout_rate > 0 and rng is None:
        raise ValueError("dropout needs an rng")
    grads = zero_grads(cell, head)
    b = float(len(batch))
    start = 0 if return_input_grads else cell.gate_map.in_size - cell.hidden_size
    frames = cell.gate_map.prepare(grads, start)
    total_loss, all_input_grads = 0.0, []

    def run_group(first):
        # runs the group that starts at batch[first] and returns its size;
        # its blocks and temporaries go with this call's locals
        nonlocal total_loss
        group = [check_frames(batch[first][0], cell.n_x)]
        steps = len(group[0])
        for xs, _ in batch[first + 1:first + group_size(cell, steps)]:
            xs = check_frames(xs, cell.n_x)
            if len(xs) != steps:
                break
            group.append(xs)
        k = len(group)
        seq = Sequence(cell, group, frames=frames)
        group = xs = None  # a sequence checked past the group goes now
        for t in range(steps):
            cell.step_packed(frames, seq, t)
        losses, dh = _head_pass(head, seq.h, [label for _, label in batch[first:first + k]],
                                dropout_rate, rng, grads)
        for loss in losses.tolist():
            total_loss += loss
        dc = np.zeros(dh.shape)
        if return_input_grads:
            input_grads = [[None] * steps for _ in range(k)]
            all_input_grads.extend(input_grads)
        for t in range(steps - 1, -1, -1):
            dh, dc, dx = cell.step_backward(frames, seq, t, dh, dc, grads)
            if return_input_grads:
                for j, dx_j in enumerate(dx / b):
                    input_grads[j][t] = dx_j
        del seq
        frames.end()  # with the group's blocks gone, before the next allocates its own
        return k

    first = 0
    while first < len(batch):
        first += run_group(first)
    frames.finish()

    for name in grads:
        grads[name] /= b
    loss = total_loss / b
    return (loss, grads, all_input_grads) if return_input_grads else (loss, grads)
