"""Dense multiway arrays and the pairwise tensor contraction primitive.

Tensors are plain ``numpy.ndarray`` objects in float64, laid out in
lexicographic (C) order with the last index varying fastest. Every other
module builds on the three operations here: ``contract``, ``tensorize``
and ``vectorize``. Mode indices in this API are 0-based; written-out
formulas elsewhere use the conventional 1-based numbering.
"""

from __future__ import annotations

import math

import numpy as np


def tensorize(v, shape) -> np.ndarray:
    """Reshape a flat vector into a tensor of the given mode lengths.

    The flat data is interpreted lexicographically (last index fastest),
    so ``tensorize([1,2,3,4,5,6], (2,3))`` has rows [1,2,3] and [4,5,6].
    """
    v = np.asarray(v, dtype=np.float64)
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s < 1 for s in shape):
        raise ValueError(f"invalid tensor shape {shape}: modes must be >= 1")
    n = math.prod(shape)
    if v.size != n:
        raise ValueError(
            f"cannot tensorize vector of length {v.size} to shape {shape} "
            f"(needs {n} entries)"
        )
    return v.reshape(shape)


def vectorize(t) -> np.ndarray:
    """Flatten a tensor to a vector; inverse of :func:`tensorize`."""
    return np.asarray(t, dtype=np.float64).reshape(-1)


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

    # d/da: contract g against b over b's free modes. The trailing axes of
    # the raw result are b's contracted modes in b-axis order; route each
    # back to its paired position in a.
    ga_raw = np.tensordot(g, b, axes=(list(range(na_free, g.ndim)), b_free))
    sorted_b = sorted(b_modes)
    src = [0] * a.ndim
    for i, ax in enumerate(a_free):
        src[ax] = i
    for k, ax in enumerate(a_modes):
        src[ax] = na_free + sorted_b.index(b_modes[k])
    ga = ga_raw.transpose(src)

    # d/db: contract a against g over a's free modes.
    gb_raw = np.tensordot(a, g, axes=(a_free, list(range(na_free))))
    sorted_a = sorted(a_modes)
    src = [0] * b.ndim
    for k, ax in enumerate(b_modes):
        src[ax] = sorted_a.index(a_modes[k])
    for i, ax in enumerate(b_free):
        src[ax] = len(a_modes) + i
    gb = gb_raw.transpose(src)
    return ga, gb
