"""Per-layer metrics: the HT contraction plan measured step by step, and
span statistics of a traced run, one group per ``fdht.*`` module.

Plan counts (FLOPs, bytes, intermediate sizes) are computed from operand
shapes, not measured, and repeat exactly. Times are medians of single
calls in ms; ``*_calls`` count calls per root unit of work.
"""

from __future__ import annotations

import statistics
import tracemalloc
from time import perf_counter

from fdht.ht import build_plan, run_plan
from fdht.tensor import contract

MAX_PLAN_STEPS = 7  # a 4-mode tree, the deepest reference geometry

PER_LAYER = (
    [("ht.run_plan_ms", "ms"), ("ht.run_plan_calls", "count")]
    + [(f"ht.step{k}.{m}", u) for k in range(MAX_PLAN_STEPS)
       for m, u in (("ms", "ms"), ("flops", "flop"), ("out_elems", "count"))]
    + [("ht.plan_flops", "flop"), ("ht.plan_bytes", "B"),
       ("ht.factor_only_flops_share", "share"), ("ht.transient_kib", "KiB"),
       ("grad.backward_ms", "ms"), ("grad.backward_calls", "count"),
       ("tensor.contract_vjp_ms", "ms"), ("tensor.contract_vjp_calls", "count"),
       ("lstm.step_ms", "ms"), ("lstm.step.self_ms", "ms"),
       ("lstm.step_calls", "count"),
       ("lstm.step_backward_ms", "ms"), ("lstm.step_backward.self_ms", "ms"),
       ("lstm.bptt_ms", "ms"),
       ("train.adam_step_ms", "ms"), ("train.evaluate_s", "s"),
       ("train.evaluate_share", "share"),
       ("io.load_ms", "ms"), ("io.save_ms", "ms"), ("io.checkpoint_bytes", "B"),
       ("config.load_ms", "ms"),
       ("trace.overhead_share", "share"), ("trace.root_self_share", "share")]
)

# span name -> (metric of the median call, metric of the calls per unit)
_CALL_METRICS = {
    "ht.run_plan": ("ht.run_plan_ms", "ht.run_plan_calls"),
    "grad.backward_from_tape": ("grad.backward_ms", "grad.backward_calls"),
    "tensor.contract_vjp": ("tensor.contract_vjp_ms", "tensor.contract_vjp_calls"),
    "lstm.step": ("lstm.step_ms", "lstm.step_calls"),
    "lstm.step_backward": ("lstm.step_backward_ms", None),
    "lstm.bptt": ("lstm.bptt_ms", None),
    "train.adam_step": ("train.adam_step_ms", None),
    "io.load_checkpoint": ("io.load_ms", None),
    "io.save_checkpoint": ("io.save_ms", None),
    "config.load_config": ("config.load_ms", None),
}


def _operand(w, tape, slot):
    return w.factors[slot[1]] if slot[0] == "f" else tape[slot]


def plan_counts(w, tape) -> list[dict]:
    """Shapes and computed costs of every plan step, from a recorded tape.

    FLOPs count a multiply and an add per term of each output entry;
    bytes are the float64 operands read plus the output written.
    """
    steps, _ = build_plan(w)
    out = []
    for k, s in enumerate(steps):
        a = _operand(w, tape, s.a)
        b = _operand(w, tape, s.b)
        c = tape[("t", k)]
        summed = 1
        for ax in s.a_axes:
            summed *= a.shape[ax]
        out.append({
            "step": k,
            "a": s.a, "b": s.b,
            "a_shape": a.shape, "b_shape": b.shape, "out_shape": c.shape,
            "flops": 2 * c.size * summed,
            "bytes": 8 * (a.size + b.size + c.size),
            "out_elems": c.size,
            "factor_only": s.a[0] == "f" and s.b[0] == "f",
        })
    return out


def _median_ms(fn, min_reps=15, min_seconds=0.02):
    times = []
    start = perf_counter()
    while len(times) < min_reps or perf_counter() - start < min_seconds:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def transient_bytes(fn) -> int:
    """tracemalloc peak above the starting level over one call of ``fn``
    (measured the way acceptance criterion 6 measures the forward)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def plan_metrics(w, x_tensor) -> tuple[dict, list[dict]]:
    """Computed plan counts, each step replayed through
    ``fdht.tensor.contract`` on a recorded tape, and the transient memory
    of one ``run_plan``."""
    tape = run_plan(w, x_tensor)
    counts = plan_counts(w, tape)
    steps, _ = build_plan(w)
    metrics = {}
    for row, s in zip(counts, steps):
        a = _operand(w, tape, s.a)
        b = _operand(w, tape, s.b)
        k = row["step"]
        metrics[f"ht.step{k}.ms"] = _median_ms(
            lambda: contract(a, b, s.a_axes, s.b_axes))
        metrics[f"ht.step{k}.flops"] = row["flops"]
        metrics[f"ht.step{k}.out_elems"] = row["out_elems"]
    total = sum(r["flops"] for r in counts)
    metrics["ht.plan_flops"] = total
    metrics["ht.plan_bytes"] = sum(r["bytes"] for r in counts)
    metrics["ht.factor_only_flops_share"] = (
        sum(r["flops"] for r in counts if r["factor_only"]) / total)
    metrics["ht.transient_kib"] = transient_bytes(lambda: run_plan(w, x_tensor)) / 1024
    return metrics, counts


def span_metrics(stats, root_name) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of a traced run, and the exact
    per-unit call counts they rest on."""
    metrics = {}
    calls = stats.calls_per_root(root_name)
    for span, (ms_name, calls_name) in _CALL_METRICS.items():
        durations = stats.durations(span)
        if durations:
            metrics[ms_name] = statistics.median(durations) * 1e3
        if calls_name and span in calls:
            metrics[calls_name] = statistics.median_low(calls[span])
    for span, name in (("lstm.step", "lstm.step.self_ms"),
                       ("lstm.step_backward", "lstm.step_backward.self_ms")):
        selfs = stats.self_times(span)
        if selfs:
            metrics[name] = statistics.median(selfs) * 1e3
    roots = stats.roots(root_name)
    root_total = sum(stats.duration[r] for r in roots)
    evaluate = stats.time_per_root(root_name, "train.evaluate")
    if any(evaluate):
        metrics["train.evaluate_s"] = statistics.median(evaluate)
        metrics["train.evaluate_share"] = sum(evaluate) / root_total
    self_by_name = stats.self_time_by_name(root_name)
    metrics["trace.root_self_share"] = self_by_name.get(root_name, 0.0) / root_total
    return metrics, calls


def fill(metrics: dict) -> dict:
    """Every per-layer metric, 0 for a layer that did no work here."""
    return {name: {"value": metrics.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}
