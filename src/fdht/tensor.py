"""The pairwise tensor contraction primitive and its VJP.

Tensors are plain ``numpy.ndarray`` objects in float64, laid out in
lexicographic (C) order with the last index varying fastest, so a flat
vector becomes a tensor and back by ``reshape`` alone. ``fdht.grad``
runs ``contract_vjp`` over the plan's tape; the kernels in ``fdht.ht``
call ``np.tensordot`` and ``np.dot`` themselves, and only the benchmark
and the tests call the checked ``contract``. Mode indices in this API are
0-based; written-out formulas elsewhere use the conventional 1-based
numbering.
"""

from __future__ import annotations

import numpy as np


def _check_axes(name, ndim, axes):
    axes = [int(a) for a in axes]
    if len(set(axes)) != len(axes):
        raise ValueError(f"repeated contraction mode in {name}: {axes}")
    for a in axes:
        if not 0 <= a < ndim:
            raise ValueError(f"mode {a} of {name} out of range for ndim {ndim}")
    return axes


def contract(a, b, a_modes, b_modes) -> np.ndarray:
    """Contract tensor ``a`` with tensor ``b`` over the paired mode lists.

    ``a_modes[k]`` of ``a`` is summed against ``b_modes[k]`` of ``b``.
    The result carries a's free modes (in order) followed by b's free
    modes (in order); each entry is the explicit nested sum over the
    matched indices.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_modes = _check_axes("A", a.ndim, a_modes)
    b_modes = _check_axes("B", b.ndim, b_modes)
    if len(a_modes) != len(b_modes):
        raise ValueError(
            f"mode lists differ in length: {len(a_modes)} vs {len(b_modes)}"
        )
    for ax, bx in zip(a_modes, b_modes):
        if a.shape[ax] != b.shape[bx]:
            raise ValueError(
                f"mode {ax} of A (length {a.shape[ax]}) does not match "
                f"mode {bx} of B (length {b.shape[bx]})"
            )
    return np.tensordot(a, b, axes=(a_modes, b_modes))


def contract_vjp(g, a, b, a_modes, b_modes):
    """Vector-Jacobian products of ``contract`` with respect to both operands.

    Given the cotangent ``g`` of ``c = contract(a, b, a_modes, b_modes)``,
    returns ``(ga, gb)`` with the shapes of ``a`` and ``b``. Used by the
    reverse pass to differentiate any contraction schedule step by step.
    ``a`` and ``b`` are read in C order (copied when stored otherwise), so
    the result does not depend on how they are laid out in memory.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    a_modes = [int(x) for x in a_modes]
    b_modes = [int(x) for x in b_modes]
    a_free = [ax for ax in range(a.ndim) if ax not in a_modes]
    b_free = [ax for ax in range(b.ndim) if ax not in b_modes]
    na_free = len(a_free)

    # Each raw tensordot result holds the operand's free axes, then the
    # axes paired with the other operand's summed ones, in that operand's
    # axis order; argsort inverts that axis map.
    ga = np.tensordot(g, b, axes=(list(range(na_free, g.ndim)), b_free))
    ga = ga.transpose(np.argsort(a_free + [ax for _, ax in sorted(zip(b_modes, a_modes))]))
    gb = np.tensordot(a, g, axes=(a_free, list(range(na_free))))
    gb = gb.transpose(np.argsort([bx for _, bx in sorted(zip(a_modes, b_modes))] + b_free))
    return ga, gb
