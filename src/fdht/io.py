"""Versioned binary container for FDHT cell checkpoints.

Layout: magic ``FDHT``, format version (u16 LE), then d, g, m_shape,
n_shape, node count and per-node ranks in preorder (all u32 LE), then
one factor payload per node in the same preorder as little-endian float64
with the last index varying fastest. A ``CELL`` section (the mode's index
in ``lstm.MODES``, input size, (GATES, hidden) biases, dense recurrent
matrix for input-only cells) and a ``HEAD`` section (classifier weights)
follow. The cell's rules (root rank, n_x + hidden within the input) are
``FdhtLstmCell``'s, and the weight's (d >= 2, mode lengths and ranks
>= 1) are ``build_dim_tree``'s and ``factor_shapes``'s; the reader
re-raises their ``ValueError`` as ``ShapeInconsistencyError``. Saving to
a file also writes a ``.json`` sidecar (``SIDECAR_SUFFIX``) duplicating
shapes and ranks for inspection, dimension sets 1-based as in the math.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .ht import HTWeight, build_dim_tree, factor_shapes
from .lstm import GATES, MODES, FdhtLstmCell, Head

MAGIC = b"FDHT"
VERSION = 1
_CELL_TAG = b"CELL"
_HEAD_TAG = b"HEAD"
SIDECAR_SUFFIX = ".json"


class FormatError(ValueError):
    """Base class for container parse failures."""


class BadMagicError(FormatError):
    pass


class VersionError(FormatError):
    pass


class TruncatedError(FormatError):
    pass


class ShapeInconsistencyError(FormatError):
    pass


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def need(self, n: int):
        if self.pos + n > len(self.data):
            raise TruncatedError(f"stream truncated: needed {n} bytes at offset "
                                 f"{self.pos}, have {len(self.data) - self.pos}")

    def take(self, n: int) -> bytes:
        self.need(n)
        out = self.data[self.pos: self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u32s(self, count: int):
        return list(struct.unpack(f"<{count}I", self.take(4 * count)))

    def f64s(self, shape) -> np.ndarray:
        # Python ints: header sizes up to 2^32 per axis must not wrap.
        offset = self.pos
        raw = self.take(8 * math.prod(shape))
        out = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(out)):
            raise FormatError(f"non-finite value in float64 payload at offset {offset}")
        return out

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _u32(v: int) -> bytes:
    return struct.pack("<I", v)


def _f64s(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def serialize(w: HTWeight) -> bytes:
    parts = [MAGIC, struct.pack("<H", VERSION)]
    parts.append(_u32(w.tree.d))
    parts.append(_u32(w.root_rank))
    parts.extend(_u32(m) for m in w.m_shape)
    parts.extend(_u32(n) for n in w.n_shape)
    parts.append(_u32(len(w.tree.nodes)))
    parts.extend(_u32(node.rank) for node in w.tree.nodes)
    parts.extend(_f64s(f) for f in w.factors)
    return b"".join(parts)


def _read_weight(r: _Reader) -> HTWeight:
    if r.take(4) != MAGIC:
        raise BadMagicError("not an FDHT container (bad magic bytes)")
    version = r.u16()
    if version != VERSION:
        raise VersionError(f"unsupported format version {version} (expected {VERSION})")
    d = r.u32()
    g = r.u32()
    m_shape = tuple(r.u32s(d))
    n_shape = tuple(r.u32s(d))
    r.need(4 + 12 * (2 * d - 1))  # node count, then a rank and an entry per node
    try:
        tree = build_dim_tree(d, 1, 1, 1)
    except ValueError as exc:
        raise ShapeInconsistencyError(str(exc)) from None
    n_nodes = r.u32()
    if n_nodes != len(tree.nodes):
        raise ShapeInconsistencyError(f"header declares {n_nodes} nodes, a {d}-mode "
                                      f"tree has {len(tree.nodes)}")
    ranks = r.u32s(n_nodes)
    if ranks[0] != g:
        raise ShapeInconsistencyError(f"root rank {ranks[0]} contradicts header "
                                      f"gate count {g}")
    for node, rank in zip(tree.nodes, ranks):
        node.rank = rank
    try:
        shapes = factor_shapes(tree, m_shape, n_shape)
    except ValueError as exc:
        raise ShapeInconsistencyError(str(exc)) from None
    return HTWeight(tree, m_shape, n_shape, [r.f64s(shape) for shape in shapes])


def serialize_checkpoint(cell: FdhtLstmCell, head: Head) -> bytes:
    parts = [serialize(cell.weight), _CELL_TAG,
             struct.pack("<B", MODES.index(cell.mode)), _u32(cell.n_x)]
    parts.append(_f64s(cell.biases))
    if cell.mode == "input-only":
        parts.append(_f64s(cell.recurrent))
    parts.append(_HEAD_TAG)
    parts.append(_u32(head.w.shape[0]))
    parts.append(_f64s(head.w))
    parts.append(_f64s(head.b))
    return b"".join(parts)


def deserialize_checkpoint(data: bytes):
    r = _Reader(data)
    weight = _read_weight(r)
    if r.take(4) != _CELL_TAG:
        raise FormatError("missing CELL section in checkpoint")
    mode_code = struct.unpack("<B", r.take(1))[0]
    if mode_code >= len(MODES):
        raise ShapeInconsistencyError(f"unknown cell mode code {mode_code}")
    n_x = r.u32()
    hidden = math.prod(weight.m_shape)
    biases = r.f64s((GATES, hidden))
    recurrent = None
    if MODES[mode_code] == "input-only":
        recurrent = r.f64s((GATES * hidden, hidden))
    try:
        cell = FdhtLstmCell(weight, n_x, biases=biases, recurrent=recurrent)
    except ValueError as exc:
        raise ShapeInconsistencyError(str(exc)) from None
    if r.take(4) != _HEAD_TAG:
        raise FormatError("missing HEAD section in checkpoint")
    classes = r.u32()
    if classes < 1:
        raise ShapeInconsistencyError("head must have at least one class")
    head = Head(r.f64s((classes, hidden)), r.f64s((classes,)))
    if not r.exhausted:
        raise FormatError(f"{len(r.data) - r.pos} unexpected trailing bytes after "
                          "checkpoint")
    return cell, head


def save_checkpoint(cell: FdhtLstmCell, head: Head, path):
    path = str(path)
    with open(path, "wb") as fh:
        fh.write(serialize_checkpoint(cell, head))
    w = cell.weight
    meta = {
        "format": "FDHT",
        "version": VERSION,
        "d": w.tree.d,
        "gates": w.root_rank,
        "m_shape": list(w.m_shape),
        "n_shape": list(w.n_shape),
        "nodes": [
            {"dims": [node.lo + 1, node.hi], "rank": node.rank}  # 1-based inclusive
            for node in w.tree.nodes
        ],
        "cell": {"mode": cell.mode, "n_x": cell.n_x,
                 "hidden_size": cell.hidden_size, "pad_len": cell.pad_len},
        "head_classes": int(head.w.shape[0]),
    }
    with open(path + SIDECAR_SUFFIX, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_checkpoint(path):
    with open(path, "rb") as fh:
        return deserialize_checkpoint(fh.read())
