"""Exact parameter counts for TT, TR, BT and HT factorized linear layers.

All four schemes factorize the same tensorized weight (d modes, output
lengths m_k, input lengths n_k) at a single uniform rank r, which makes
the counts directly comparable across schemes and reproduces the usual
rank-sweep comparison plots.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .ht import param_count_config

SCHEMES = ("tt", "tr", "bt", "ht")


@dataclass(frozen=True)
class FactorizationSpec:
    m_shape: tuple[int, ...]
    n_shape: tuple[int, ...]
    rank: int
    scheme: str

    def __post_init__(self):
        if len(self.m_shape) != len(self.n_shape) or len(self.m_shape) == 0:
            raise ValueError("m_shape and n_shape must be non-empty and equal length")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")

    @property
    def d(self) -> int:
        return len(self.m_shape)


def scheme_params(spec: FactorizationSpec) -> int:
    """Exact parameter count for one scheme at one uniform rank.

    tt: cores r_{k-1} x m_k x n_k x r_k with border ranks fixed at 1.
    tr: cores r x m_k x n_k x r all the way around the ring.
    bt: one block term, d factor matrices r x m_k x n_k plus an r^d core.
    ht: 3-way leaf frames r x m_k x n_k, internal transfer tensors r^3,
        root rank 1 (the scheme-fair setting for comparisons).
    """
    d, r = spec.d, spec.rank
    mn = [m * n for m, n in zip(spec.m_shape, spec.n_shape)]
    if spec.scheme == "tt":
        ranks = [1] + [r] * (d - 1) + [1]
        return sum(ranks[k] * mn[k] * ranks[k + 1] for k in range(d))
    if spec.scheme == "tr":
        return sum(r * mnk * r for mnk in mn)
    if spec.scheme == "bt":
        return sum(r * mnk for mnk in mn) + r ** d
    return param_count_config(spec.m_shape, spec.n_shape, r, r, 1)


def dense_lstm_params(n_x: int, hidden: int) -> tuple[int, int]:
    """Parameters of the dense LSTM with input size n_x and hidden size H:
    the four gate matrices, 4H(n_x + H), and that plus the 4H gate biases."""
    weights = 4 * hidden * (n_x + hidden)
    return weights, weights + 4 * hidden


def compression_ratio(dense_params: int, compressed_params: int) -> int:
    """dense_params / compressed_params rounded to the nearest integer,
    halves rounded up, in exact integer arithmetic."""
    return (2 * dense_params + compressed_params) // (2 * compressed_params)


def emit_rank_sweep(m_shape, n_shape, r_range) -> str:
    """CSV with one row per rank and one integer column per scheme, in the
    fixed order tt, tr, bt, ht."""
    r_range = list(r_range)
    if not r_range:
        raise ValueError("rank range must be non-empty")
    out = io.StringIO()
    out.write("rank,tt,tr,bt,ht\n")
    for r in r_range:
        counts = [
            scheme_params(FactorizationSpec(tuple(m_shape), tuple(n_shape), r, s))
            for s in SCHEMES
        ]
        out.write(f"{r}," + ",".join(str(c) for c in counts) + "\n")
    return out.getvalue()
