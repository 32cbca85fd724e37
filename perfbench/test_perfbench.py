"""Tests of the benchmark itself: its computed counts repeat exactly, its
tracer accounts for every span and leaves the package as it found it,
and BENCHMARK.json names the metrics the code reports.

    python3 -m pytest perfbench/test_perfbench.py
"""

import importlib
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as run.py sets it, before numpy loads

import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanStats, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_reported_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert names == {"setup_s", "unit_per_ref", "transient_mib"}


@pytest.mark.parametrize("config, steps", [
    ("synthetic.ini", 3), ("ucf11-direct.ini", 7), ("hmdb51-cnn.ini", 7)])
def test_plan_counts_repeat_exactly(config, steps):
    def counts(seed):
        cell, _ = workloads._cell_from(workloads._config(config, seed))
        w = cell.weight
        x = workloads._frames(seed, 0, (w.in_size,)).reshape(w.n_shape)
        return layers.plan_counts(w, importlib.import_module("fdht.ht").run_plan(w, x))

    first, second = counts(0), counts(1)
    assert first == second
    assert len(first) == steps
    assert all(row["flops"] > 0 and row["bytes"] > 0 for row in first)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_call_counts_repeat_exactly(name):
    # seconds=0: each workload runs its minimum number of units.
    first = workloads.run_workload(name, 0, 0, True)
    second = workloads.run_workload(name, 1, 0, True)
    assert first.failed == 0 and second.failed == 0, first.notes + second.notes
    assert set(first.e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert first.counts["calls_per_unit"]
    calls = {k: v[0] for k, v in first.counts["calls_per_unit"].items()}
    assert calls == {k: v[0] for k, v in second.counts["calls_per_unit"].items()}
    assert first.counts["plan"] == second.counts["plan"]
    exact = [m for m in first.per_layer
             if m.endswith(("_calls", ".flops", ".out_elems", "plan_flops", "plan_bytes"))]
    assert all(first.per_layer[m] == second.per_layer[m] for m in exact)


def test_self_times_add_up_to_the_root():
    spans = [("root", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0), ("a.child", 1, 2.0, 3.0),
             ("b", 0, 5.0, 9.0), ("root", -1, 20.0, 22.0), ("b", 4, 20.5, 21.0)]
    stats = SpanStats(spans)
    assert stats.self_time == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]
    assert sum(stats.self_time_by_name("root").values()) == 12.0
    assert stats.calls_per_root("root") == {"a": [1, 0], "a.child": [1, 0], "b": [1, 1]}
    assert stats.time_per_root("root", "b") == [4.0, 0.5]
    assert stats.nesting_violations() == 0
    assert SpanStats([("root", -1, 0.0, 1.0), ("a", 0, 0.5, 2.0)]).nesting_violations() == 1


def test_tracer_patches_every_binding_and_restores_them():
    fdht = importlib.import_module("fdht")
    ht = importlib.import_module("fdht.ht")
    lstm = importlib.import_module("fdht.lstm")
    train = importlib.import_module("fdht.train")
    originals = (ht.run_plan, lstm.run_plan, train.bptt, fdht.bptt, fdht.train,
                 lstm.FdhtLstmCell.__dict__["step_cached"])
    tracer = Tracer()
    with tracer.installed():
        assert lstm.run_plan is not originals[1] and ht.run_plan is lstm.run_plan
        assert train.bptt is not originals[2] and fdht.bptt is train.bptt
        assert fdht.train is originals[4]  # the re-exported function, untouched
        cell, head = workloads._cell_from(workloads._config("synthetic.ini", 0))
        with tracer.span("root"):
            lstm.forward_sequence(cell, head, [[0.0] * cell.n_x] * 2)
    assert (ht.run_plan, lstm.run_plan, train.bptt, fdht.bptt, fdht.train,
            lstm.FdhtLstmCell.__dict__["step_cached"]) == originals
    stats = tracer.analyze()
    assert stats.calls_per_root("root") == {
        "lstm.forward_sequence": [1], "lstm.step": [2], "ht.run_plan": [2]}
