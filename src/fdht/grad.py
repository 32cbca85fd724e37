"""Reverse-mode gradients through the HT-structured layer.

The forward kernel is a fixed schedule of pairwise contractions, so the
backward pass walks that schedule in reverse, applying the contraction
vector-Jacobian product at every step. This yields exact gradients for
every leaf frame, every transfer tensor and the input vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ht import HTWeight, _get_plan, run_plan
from .tensor import contract_vjp, tensorize, vectorize


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
    steps, out_perm = _get_plan(w)
    last = ("t", len(steps) - 1)
    out_shape = tuple(values[last].shape[ax] for ax in out_perm)
    g_out = np.asarray(dL_dy, dtype=np.float64).reshape(out_shape)
    inv_perm = np.argsort(out_perm)
    cot = {last: g_out.transpose(inv_perm)}

    for k in range(len(steps) - 1, -1, -1):
        s = steps[k]
        g = cot.pop(("t", k), None)
        if g is None:
            continue
        ga, gb = contract_vjp(g, values[s.a], values[s.b], list(s.a_axes), list(s.b_axes))
        for slot, grad in ((s.a, ga), (s.b, gb)):
            if slot in cot:
                cot[slot] = cot[slot] + grad
            else:
                cot[slot] = grad

    factor_grads = []
    for i, f in enumerate(w.factors):
        factor_grads.append(cot.get(("f", i), np.zeros_like(f)))
    x_grad = cot.get(("x",))
    if x_grad is None:
        x_grad = np.zeros(w.in_size)
    return HTGradients(factor_grads, vectorize(x_grad))


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


def _rel_error(analytic: float, numeric: float, abs_floor: float) -> float:
    diff = abs(analytic - numeric)
    if diff <= abs_floor:
        return 0.0
    return diff / max(abs(analytic), abs(numeric))


def finite_diff_check(
    w: HTWeight,
    x,
    loss,
    step: float = 1e-5,
    loss_grad=None,
    analytic: HTGradients | None = None,
    abs_floor: float = 1e-8,
) -> float:
    """Worst relative discrepancy between htl_backward and central finite
    differences, over every factor coordinate and every input coordinate.

    ``loss`` maps the layer output y to a scalar. ``loss_grad`` maps y to
    dL/dy; if omitted it is approximated coordinate-wise by the same
    central difference. Entries whose analytic/numeric difference is below
    ``abs_floor`` count as exact (zero error). Passing ``analytic``
    overrides the computed gradients, which lets tests inject faults.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    from .ht import htl_forward

    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y0 = htl_forward(w, x)
    if loss_grad is not None:
        dL_dy = np.asarray(loss_grad(y0), dtype=np.float64).reshape(-1)
    else:
        dL_dy = np.zeros(y0.size)
        for i in range(y0.size):
            yp = y0.copy(); yp[i] += step
            ym = y0.copy(); ym[i] -= step
            dL_dy[i] = (loss(yp) - loss(ym)) / (2 * step)
    if analytic is None:
        analytic = htl_backward(w, x, dL_dy)

    worst = 0.0
    for fi, f in enumerate(w.factors):
        flat = f.reshape(-1)
        a_flat = analytic.factors[fi].reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + step
            lp = loss(htl_forward(w, x))
            flat[ci] = orig - step
            lm = loss(htl_forward(w, x))
            flat[ci] = orig
            worst = max(worst, _rel_error(a_flat[ci], (lp - lm) / (2 * step), abs_floor))
    for ci in range(x.size):
        orig = x[ci]
        x[ci] = orig + step
        lp = loss(htl_forward(w, x))
        x[ci] = orig - step
        lm = loss(htl_forward(w, x))
        x[ci] = orig
        worst = max(worst, _rel_error(analytic.input[ci], (lp - lm) / (2 * step), abs_floor))
    return worst
