"""LSTM cells whose four gates come out of a single gate-stacked linear map.

One cell class owns the LSTM: it concatenates the input vector, zero
padding and previous hidden state to the map's input length, applies a
*gate map* once per time step, and splits the 4H pre-activations
gate-major in the order f, u, c, o. The gate map is the only part that
differs between the paper's cell and its baseline:

- ``HtGateMap`` (``FdhtLstmCell``) stores the stacked input-to-hidden and
  hidden-to-hidden matrices of all four gates in HT form with root rank
  ``GATES``, so the leading output mode selects the gate. A single step
  runs the contraction plan; BPTT prepares the root-children frames once
  per minibatch (``fdht.ht.RootFrames``) and runs two GEMMs per step,
  with the weight-gradient GEMMs of a whole sequence run when it ends.
- ``DenseGateMap`` (``DenseLstmCell``) is one explicit (4H x N) matrix and
  serves as its own frame.

In input-only mode the gate map sees [x | zeros] and a dense (4H x H)
recurrent matrix owned by the cell supplies the hidden-to-hidden terms.
The cell's bias is one (4, H) array ``biases``, rows f, u, c, o, held as
one block named ``biases`` in ``params()`` and in every gradient dict.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .ht import HTWeight, RootFrames, init_ht_weight, output_from_tape, run_plan
from .tensor import vectorize

MODES = ("full", "input-only")
GATE_ORDER = ("f", "u", "c", "o")
GATES = len(GATE_ORDER)  # the HT root rank: one output slice per gate


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


def sigmoid(z):
    """Logistic function without overflow, exp(min(z, 0)) / (1 + exp(-|z|)):
    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, the same two
    IEEE expressions as splitting z by sign, so the bits match that form.
    It runs in place in two buffers, one of them the result."""
    d = np.abs(z)
    np.exp(np.negative(d, out=d), out=d)
    d += 1.0
    s = np.minimum(z, 0.0)
    return np.divide(np.exp(s, out=s), d, out=s)


def softmax_cross_entropy(logits, label: int):
    """Mean-ready loss and dL/dlogits for one example."""
    if not 0 <= label < logits.size:
        raise ValueError(f"label {label} out of range for {logits.size} classes")
    shifted = logits - np.max(logits)
    log_z = np.log(np.sum(np.exp(shifted)))
    loss = log_z - shifted[label]
    dlogits = np.exp(shifted - log_z)
    dlogits[label] -= 1.0
    return float(loss), dlogits


class HtGateMap:
    """Gate map stored in HT form. One vector at a time (``forward``) it
    runs the contraction plan; for training, ``prepare`` builds the
    root-children frames once and every step is two GEMMs."""

    def __init__(self, weight: HTWeight):
        if weight.root_rank != GATES:
            raise ValueError(f"cell weight needs root rank {GATES}, got {weight.root_rank}")
        self.weight = weight
        self.in_size = weight.in_size
        self.hidden_size = math.prod(weight.m_shape)

    def params(self) -> dict[str, np.ndarray]:
        return {f"ht.{i}": f for i, f in enumerate(self.weight.factors)}

    def forward(self, packed):
        tape = run_plan(self.weight, packed.reshape(self.weight.n_shape))
        return vectorize(output_from_tape(self.weight, tape)), tape

    def prepare(self, grads) -> RootFrames:
        """Frames of the current factors, whose ``finish`` adds the factor
        gradients to ``grads``."""
        return RootFrames(self.weight, [grads[name] for name in self.params()])


class DenseGateMap:
    """Gate map as one explicit (4H x N) matrix. It is its own frame:
    ``prepare`` returns a copy whose ``grad`` is ``grads["w"]`` itself, so
    ``backward`` accumulates straight into it and ``begin`` and ``finish``
    have nothing to do."""

    def __init__(self, w):
        self.weight = np.asarray(w, dtype=np.float64)
        if self.weight.shape[0] % GATES:
            raise ValueError(
                f"weight rows must be a multiple of {GATES}, got {self.weight.shape[0]}")
        self.in_size = self.weight.shape[1]
        self.hidden_size = self.weight.shape[0] // GATES

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.weight}

    def forward(self, packed):
        return self.weight @ packed, packed

    def prepare(self, grads) -> DenseGateMap:
        frame = copy.copy(self)
        frame.grad = grads["w"]
        return frame

    def begin(self, steps: int):
        pass

    def backward(self, packed, dz, start=0):
        self.grad += np.outer(dz, packed)
        return self.weight[:, start:].T @ dz

    def finish(self):
        pass


class FdhtLstmCell:
    """LSTM cell over a gate map; by default the HT map, root rank ``GATES``.

    Without ``recurrent`` (mode "full") the gate map consumes
    [x | zeros(pad_len) | h]. With a dense (4H x H) ``recurrent`` matrix
    (mode "input-only") the gate map consumes only [x | zeros], and that
    matrix supplies the hidden-to-hidden terms, one H x H block per gate.
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
            raise ValueError(f"biases must have shape {(GATES, h)}, "
                             f"got {self.biases.shape}")
        self.recurrent = recurrent
        if recurrent is not None:
            self.recurrent = np.asarray(recurrent, dtype=np.float64)
            if self.recurrent.shape != (GATES * h, h):
                raise ValueError(f"recurrent matrix must be {(GATES * h, h)}, "
                                 f"got {self.recurrent.shape}")

    @property
    def mode(self) -> str:
        """``"input-only"`` exactly when the cell has a recurrent matrix."""
        return "full" if self.recurrent is None else "input-only"

    def init_state(self) -> LstmState:
        return LstmState(np.zeros(self.hidden_size), np.zeros(self.hidden_size))

    def params(self) -> dict[str, np.ndarray]:
        p = self.gate_map.params()
        p["biases"] = self.biases
        if self.recurrent is not None:
            p["recurrent"] = self.recurrent
        return p

    def step(self, x, state: LstmState) -> LstmState:
        return self.step_cached(x, state)[0]

    def step_cached(self, x, state: LstmState):
        """One recurrence step through the gate map's own forward (the
        plan for HT). Returns the new state and the step's cache."""
        return self.step_frames(self.gate_map, x, state)

    def step_frames(self, frames, x, state: LstmState):
        """One recurrence step: pack, apply ``frames.forward``, gate,
        update. Returns the new state and the cache ``step_backward``
        needs when ``frames`` came from ``gate_map.prepare``. Only the
        recurrent matrix reads h_prev from it: in full mode the packed
        input holds h."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.size != self.n_x:
            raise ValueError(f"input has length {x.size}, expected {self.n_x}")
        packed = np.empty(self.gate_map.in_size)
        packed[: self.n_x] = x
        packed[self.n_x: self.n_x + self.pad_len] = 0.0
        packed[self.n_x + self.pad_len:] = state.h if self.recurrent is None else 0.0
        z, saved = frames.forward(packed)
        if self.recurrent is not None:
            z = z + self.recurrent @ state.h
        new_state, gates = _gate_forward(z, self.biases, state.c)
        h_prev = None if self.recurrent is None else state.h
        return new_state, {"map": saved, "gates": gates, "h_prev": h_prev}

    def step_backward(self, frames, cache, dh, dc, grads, need_dx=True):
        """Accumulate the gradients of one ``step_frames(frames, ...)``
        step: biases and recurrent matrix into ``grads``, the gate map into
        ``frames``. Returns (dh_prev, dc_prev, dx), dx None unless
        ``need_dx``: the gate map then computes its input cotangent only
        from the h slice on (full mode) or not at all (input-only)."""
        dz, dc_prev = _gate_backward(cache["gates"], dh, dc)
        grads["biases"] += dz
        dz = dz.reshape(-1)
        h_start = self.n_x + self.pad_len
        start = (0 if need_dx else h_start if self.recurrent is None
                 else self.gate_map.in_size)
        d_packed = frames.backward(cache["map"], dz, start)
        dx = d_packed[: self.n_x] if need_dx else None
        if self.recurrent is None:
            dh_prev = d_packed[h_start - start:]
        else:
            grads["recurrent"] += np.outer(dz, cache["h_prev"])
            dh_prev = self.recurrent.T @ dz
        return dh_prev, dc_prev, dx


class DenseLstmCell(FdhtLstmCell):
    """The same cell over an explicit stacked (4H x N) weight matrix, used
    both as the training baseline and as the trajectory oracle vehicle."""

    gate_map_type = DenseGateMap

    def __init__(self, w: np.ndarray, n_x: int, biases=None):
        super().__init__(w, n_x, biases=biases)


def _gate_forward(z, bias, c_prev):
    """Gates of one step on the stacked (4, H) block: one bias add, the
    sigmoid over all four rows, then tanh over the candidate row. The
    cache is (act, c_prev, tanh_c), act holding f, u, c_in, o."""
    a = z.reshape(bias.shape) + bias
    act = sigmoid(a)
    act[2] = np.tanh(a[2])
    f, u, c_in, o = act
    c = f * c_prev + u * c_in
    tanh_c = np.tanh(c)
    return LstmState(o * tanh_c, c), (act, c_prev, tanh_c)


def _gate_backward(gates, dh, dc):
    """Returns the (4, H) pre-activation gradient and dc_prev. Each gate
    row is (upstream * p) * q with p = act and q = 1 - act, except the
    candidate row, where p = 1 and q = 1 - c_in**2; keeping that order of
    products gives the bits of the per-gate formulas."""
    act, c_prev, tanh_c = gates
    f, u, c_in, o = act
    dc_total = dc + dh * o * (1.0 - tanh_c ** 2)
    up = np.empty_like(act)
    np.multiply(dc_total, c_prev, out=up[0])
    np.multiply(dc_total, c_in, out=up[1])
    np.multiply(dc_total, u, out=up[2])
    np.multiply(dh, tanh_c, out=up[3])
    dz = up * act
    dz[2] = up[2]
    q = 1.0 - act
    q[2] = 1.0 - c_in ** 2
    dz *= q
    return dz, dc_total * f


def check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


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
    classifier logits on the final hidden state."""
    if len(xs) == 0:
        raise ValueError("cannot run an empty sequence")
    state = cell.init_state()
    for x in xs:
        state = cell.step(x, state)
    return head.w @ state.h + head.b


def zero_grads(cell, head: Head) -> dict[str, np.ndarray]:
    """Zero gradients named as ``cell.params()`` plus the head."""
    grads = {k: np.zeros_like(v) for k, v in cell.params().items()}
    grads["head.w"] = np.zeros_like(head.w)
    grads["head.b"] = np.zeros_like(head.b)
    return grads


def bptt(cell, head: Head, batch, dropout_rate: float = 0.0, rng=None,
         return_input_grads: bool = False):
    """Mean softmax cross-entropy over a batch of (sequence, label) pairs
    and its gradients with respect to every cell, bias and head parameter.

    The gate map is prepared once for the batch (for HT, the root-children
    frames of the current factors); sequences then run one at a time and
    its factor gradients are finished once at the end. Each sequence opens
    with ``frames.begin(steps)``, so the HT frames add the sequence's V
    cotangent after its backward, in at most one GEMM per gate. Each
    step cache is dropped as soon as its backward has run, so the caches
    are gone before those GEMMs and the peak memory does not grow with
    the batch. Unless ``return_input_grads`` is set, each step's backward
    computes only the h rows of the gate map's input cotangent (none in
    input-only mode). Dropout, when enabled, is applied to the final
    hidden state before the head (inverted scaling) and needs an
    ``rng``. Returns (loss, grads) or (loss, grads, input_grads) where
    input_grads[i][t] is dL/dx_t for example i.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    if dropout_rate > 0 and rng is None:
        raise ValueError("dropout needs an rng")
    grads = zero_grads(cell, head)
    frames = cell.gate_map.prepare(grads)
    total_loss = 0.0
    all_input_grads = []
    for xs, label in batch:
        if len(xs) == 0:
            raise ValueError("cannot run an empty sequence")
        frames.begin(len(xs))
        state = cell.init_state()
        caches = []
        for x in xs:
            state, cache = cell.step_frames(frames, x, state)
            caches.append(cache)
        h_final = state.h
        if dropout_rate > 0:
            mask = (rng.random(h_final.size) >= dropout_rate) / (1.0 - dropout_rate)
            h_used = h_final * mask
        else:
            mask = None
            h_used = h_final
        logits = head.w @ h_used + head.b
        loss, dlogits = softmax_cross_entropy(logits, label)
        total_loss += loss

        grads["head.w"] += np.outer(dlogits, h_used)
        grads["head.b"] += dlogits
        dh = head.w.T @ dlogits
        if mask is not None:
            dh = dh * mask
        dc = np.zeros_like(dh)
        input_grads = [None] * len(xs)
        for t in range(len(xs) - 1, -1, -1):
            dh, dc, input_grads[t] = cell.step_backward(
                frames, caches[t], dh, dc, grads, need_dx=return_input_grads)
            caches[t] = None
        if return_input_grads:
            all_input_grads.append(input_grads)
    frames.finish()

    b = float(len(batch))
    for k in grads:
        grads[k] /= b
    loss = total_loss / b
    if return_input_grads:
        return loss, grads, [[g / b for g in seq] for seq in all_input_grads]
    return loss, grads
