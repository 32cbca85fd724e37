"""Reverse-mode gradients through the HT-structured layer.

The forward kernel is a fixed schedule of pairwise contractions, so the
backward pass walks that schedule in reverse, applying the contraction
vector-Jacobian product at every step. This yields exact gradients for
every leaf frame, every transfer tensor and the input vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ht import HTWeight, htl_forward, run_plan
from .tensor import contract_vjp, tensorize, vectorize

# Finite-difference entries whose analytic/numeric difference is at most
# this count as exact (the absolute floor of acceptance criterion 4).
ABS_FLOOR = 1e-8
FD_STEP = 1e-5  # the central-difference step


@dataclass(eq=False)
class HTGradients:
    """Gradient buffers mirroring an HTWeight: one array per tree node
    (preorder, same shapes as the factors) plus the input gradient."""

    factors: list[np.ndarray]
    input: np.ndarray


def backward_from_tape(w: HTWeight, values, dL_dy) -> HTGradients:
    """Reverse sweep over recorded forward intermediates.

    ``values`` is the slot dict produced by :func:`fdht.ht.run_plan`;
    ``dL_dy`` is the cotangent of the flattened gate-major output.
    """
    steps, out_perm = w.plan
    last = ("t", len(steps) - 1)
    out_shape = tuple(values[last].shape[ax] for ax in out_perm)
    g_out = np.asarray(dL_dy, dtype=np.float64).reshape(out_shape)
    cot = {last: g_out.transpose(np.argsort(out_perm))}
    # The plan is a tree: the input, every factor and every intermediate
    # feed exactly one step, so each cotangent is assigned exactly once.
    for k in range(len(steps) - 1, -1, -1):
        s = steps[k]
        cot[s.a], cot[s.b] = contract_vjp(cot.pop(("t", k)), values[s.a], values[s.b],
                                          list(s.a_axes), list(s.b_axes))
    return HTGradients([cot[("f", i)] for i in range(len(w.factors))],
                       vectorize(cot[("x",)]))


def htl_backward(w: HTWeight, x, dL_dy) -> HTGradients:
    """Gradients of a scalar loss with output-cotangent ``dL_dy`` with
    respect to every factor of ``w`` and the input ``x``."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != w.in_size:
        raise ValueError(f"input has length {x.size}, expected {w.in_size}")
    dL_dy = np.asarray(dL_dy, dtype=np.float64).reshape(-1)
    if dL_dy.size != w.out_size:
        raise ValueError(
            f"output cotangent has length {dL_dy.size}, expected {w.out_size}"
        )
    values = run_plan(w, tensorize(x, w.n_shape))
    return backward_from_tape(w, values, dL_dy)


def _rel_error(analytic: float, numeric: float) -> float:
    diff = abs(analytic - numeric)
    if diff <= ABS_FLOOR:
        return 0.0
    return diff / max(abs(analytic), abs(numeric))


def finite_diff_check(w: HTWeight, x, loss, *, loss_grad) -> float:
    """Worst relative discrepancy between htl_backward and central finite
    differences (step ``FD_STEP``) over every factor and input coordinate.

    ``loss`` maps the layer output y to a scalar and ``loss_grad`` maps y
    to dL/dy. Entries whose analytic/numeric difference is at most
    ``ABS_FLOOR`` count as exact (zero error).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    dL_dy = np.asarray(loss_grad(htl_forward(w, x)), dtype=np.float64).reshape(-1)
    analytic = htl_backward(w, x, dL_dy)

    worst = 0.0
    for arr, grad in zip([*w.factors, x], [*analytic.factors, analytic.input]):
        flat, a_flat = arr.reshape(-1), grad.reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + FD_STEP
            lp = loss(htl_forward(w, x))
            flat[ci] = orig - FD_STEP
            lm = loss(htl_forward(w, x))
            flat[ci] = orig
            worst = max(worst, _rel_error(a_flat[ci], (lp - lm) / (2 * FD_STEP)))
    return worst
