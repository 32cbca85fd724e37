"""The three closed-loop, single-process workloads.

Each runs one caller that starts the next unit of work when the previous
one returns. Inputs come from the benchmark seed; the package receives
only the generated inputs and the configs' geometry. Calls that a trace
should see go through the ``fdht`` module attributes (``ftrain.bptt``,
``flstm.forward_sequence``, ...) so that the tracer's patches apply.

In a traced run, root units alternate between untraced and traced: the
untraced ones give the reference for the tracing overhead, the traced
ones the per-layer numbers.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import math
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
from tracing import Tracer

fconfig = importlib.import_module("fdht.config")
fht = importlib.import_module("fdht.ht")
fio = importlib.import_module("fdht.io")
flstm = importlib.import_module("fdht.lstm")
ftrain = importlib.import_module("fdht.train")

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench"

SETUP_REPS = (6, 6)     # set-ups timed before and after the timed loop
FORWARD_TOL = 1e-10     # fast kernel vs dense reconstruction, absolute
GRAD_RTOL = 1e-9        # HT vs dense-cell loss and gradients, relative
REPEAT_TOL = 1e-12      # a timed forward vs its checked reference
MIN_TEST_ACC = 0.9      # synthetic task after the config's epochs


class Run:
    """Measurements, unit counts and check outcomes of one workload run."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.side = {False: defaultdict(list), True: defaultdict(list)}
        self.report = {}    # every measured metric: name -> (value, unit, samples)
        self.e2e = {}       # the gated subset printed in the result line
        self.per_layer = {}  # values measured outside spans, then every per-layer metric
        self.counts = {}    # exact per-unit call counts of the traced run
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.root = None
        self.setup = None   # the workload's set-up, timed again at the end
        self.setup_times = []
        self.cleanup = []   # files the run writes and removes at its end
        self.ref = Reference()

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {label}: {detail}")

    def unit_failed(self, label, exc):
        self.check(label, False, f"{type(exc).__name__}: {exc}")

    @contextmanager
    def block(self, root_name, index=1):
        """A root unit of work; traced when tracing and ``index`` is odd.
        Yields the sample lists of the traced or untraced side."""
        traced = self.tracer is not None and index % 2 == 1
        if not traced:
            yield self.side[False]
            return
        with self.tracer.installed(), self.tracer.span(root_name):
            yield self.side[True]

    def reference(self):
        """Time the reference loop; inside a traced unit it gets a span
        of its own, so it is not counted as benchmark self time."""
        if self.tracer is not None and self.tracer.active:
            with self.tracer.span("bench.reference"):
                return self.ref.seconds()
        return self.ref.seconds()

    def metric(self, name, value, unit, samples=None, gated=False):
        self.report[name] = (value, unit, samples)
        if gated:
            self.e2e[name] = {"value": value, "unit": unit}


def timed_setup(run, reps):
    """Time ``reps`` runs of the workload's set-up and return the last
    result. Set-up is timed both before and after the timed loop, so its
    median spans the run and not one moment of the machine's load."""
    state = None
    for _ in range(reps):
        gc.collect()
        with run.block("bench.setup"):
            t0 = perf_counter()
            state = run.setup()
            run.setup_times.append(perf_counter() - t0)
    return state


class Reference:
    """A fixed reference loop timed after every gated unit: interpreter
    work and small BLAS calls, plus a 4 MiB array copy with ``copy`` for
    units that stream large arrays, so that it slows under the same
    interference as the units. It does not touch fdht, so no change to
    the package can move it; ``reps`` scales it to a few percent of a
    unit."""

    def __init__(self, reps=1, copy=True):
        rng = np.random.default_rng(0)
        self.reps = reps
        self.copy = copy
        self.small = rng.normal(size=(64, 64))
        self.src = rng.normal(size=2**19)
        self.dst = np.empty_like(self.src)

    def seconds(self):
        t0 = perf_counter()
        for _ in range(self.reps):
            acc = 0.0
            for i in range(3000):
                acc += i * 0.5
            for _ in range(60):
                b = self.small @ self.small[:, :8]
                np.tanh(b, out=b)
            if self.copy:
                np.copyto(self.dst, self.src)
        return perf_counter() - t0


def per_ref(units, refs):
    """Total unit time over the total time of the reference loops run
    right after the units."""
    return sum(units) / sum(refs)


def latency(run, name, seconds):
    """Per-unit latency in ms: the median, and the 10th and 90th
    percentiles when at least ten samples lie beyond each."""
    ms = [t * 1e3 for t in seconds]
    n = len(ms)
    run.metric(f"{name}.p50", statistics.median(ms), "ms", n)
    if n >= 100:
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        run.metric(f"{name}.p10", deciles[0], "ms", n)
        run.metric(f"{name}.p90", deciles[-1], "ms", n)


def gate(run, units, refs):
    """The gated unit time, in reference-loop times (see README.md)."""
    run.metric("unit_per_ref", per_ref(units, refs), "ratio", len(units), gated=True)
    run.metric("ref_ms.p50", statistics.median(refs) * 1e3, "ms", len(refs))


def _cell_from(cfg):
    m = cfg.model
    cell = flstm.make_cell(m.n_x, m.n_shape, m.m_shape, m.leaf_rank,
                           m.internal_rank, m.mode, m.seed)
    head = flstm.make_head(cfg.task.classes, cell.hidden_size, (m.seed, 2))
    return cell, head


def _config(name, seed):
    cfg = fconfig.load_config(CONFIGS / name)
    fconfig.apply_seed_override(cfg, seed)
    return cfg


def _frames(seed, tag, shape):
    """Unit-scale random frames: each has expected norm 1."""
    rng = np.random.default_rng([seed, tag])
    return rng.normal(size=shape) / shape[-1] ** 0.5


def _packed(cell, x, h):
    packed = np.zeros(cell.weight.in_size)
    packed[: cell.n_x] = x
    packed[cell.weight.in_size - cell.hidden_size:] = h
    return packed


def _params(cell, head):
    params = dict(cell.params())
    params["head.w"] = head.w
    params["head.b"] = head.b
    return params


def _minibatch_transient(run, cell, head, tc, batch):
    """``transient_mib`` of one minibatch (bptt + adam_step) on a cell
    that the timed loop does not use."""

    def one_minibatch():
        _, grads = ftrain.bptt(cell, head, batch, dropout_rate=tc.dropout_rate,
                               rng=np.random.default_rng(tc.seed))
        ftrain.adam_step(_params(cell, head), grads, ftrain.AdamState(), tc)

    run.metric("transient_mib", layers.transient_bytes(one_minibatch) / 2**20,
               "MiB", 1, gated=True)


def _rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


# ---------------------------------------------------------------------------
# synthetic-train

def synthetic_train(run):
    """ADAM epochs on the synthetic task as ``fdht train`` runs them:
    minibatch bptt + adam_step, then evaluate on train and test data each
    epoch, then save_checkpoint."""
    run.root = "bench.epoch"
    run.ref = Reference(copy=False)  # the units are interpreter-bound

    def setup():
        cfg = _config("synthetic.ini", run.seed)
        train_data, test_data = ftrain.generate_task(cfg.task)
        return (cfg, *_cell_from(cfg), train_data, test_data)

    run.setup = setup
    cfg, cell, head, train_data, test_data = timed_setup(run, SETUP_REPS[0])
    tc = cfg.train

    # Untimed passes on fresh cells: the package's own train() for one
    # epoch (the benchmark loop below must reproduce it exactly), and the
    # transient memory of one minibatch.
    _, ref_cell, ref_head, _, _ = setup()
    reference = ftrain.train(ref_cell, ref_head, train_data, test_data,
                             dataclasses.replace(tc, epochs=1))[0]
    _, mem_cell, mem_head, _, _ = setup()
    _minibatch_transient(run, mem_cell, mem_head, tc,
                         [(train_data.xs[i], int(train_data.labels[i]))
                          for i in range(tc.batch_size)])

    params = _params(cell, head)
    adam = ftrain.AdamState()
    rng = np.random.default_rng(tc.seed)
    history = []
    gc.collect()
    start = perf_counter()
    epoch = 0
    while epoch < tc.epochs or perf_counter() - start < run.seconds:
        with run.block(run.root, epoch) as side:
            t_epoch = perf_counter()
            order = rng.permutation(len(train_data))
            batches = -(-len(order) // tc.batch_size)
            loss_sum = ref_sum = 0.0
            for lo in range(0, len(order), tc.batch_size):
                idx = order[lo: lo + tc.batch_size]
                batch = [(train_data.xs[i], int(train_data.labels[i])) for i in idx]
                try:
                    t0 = perf_counter()
                    loss, grads = ftrain.bptt(cell, head, batch,
                                              dropout_rate=tc.dropout_rate, rng=rng)
                    ftrain.adam_step(params, grads, adam, tc)
                    side["minibatch_s"].append(perf_counter() - t0)
                except Exception as exc:  # counted, and the loop goes on
                    run.unit_failed(f"epoch {epoch} minibatch", exc)
                    continue
                side["ref_s"].append(run.reference())
                ref_sum += side["ref_s"][-1]
                side["train_seqs"].append(len(batch))
                run.check("minibatch loss is finite", math.isfinite(loss), repr(loss))
                loss_sum += loss
            t_eval = perf_counter()
            train_acc = ftrain.evaluate(cell, head, train_data)
            test_acc = ftrain.evaluate(cell, head, test_data)
            t_end = perf_counter()
            side["evaluate_s"].append(t_end - t_eval)
            side["eval_seqs"].append(len(train_data) + len(test_data))
            side["epoch_s"].append(t_end - t_epoch - ref_sum)
        history.append((loss_sum / batches, train_acc, test_acc))
        epoch += 1

    run.check("first epoch equals fdht.train.train",
              history[0] == (reference.train_loss, reference.train_acc, reference.test_acc),
              f"{history[0]} vs {reference}")
    test_acc = history[tc.epochs - 1][2]
    run.metric("test_acc", test_acc, "share", 1)
    run.metric("epochs", epoch, "count")
    run.check(f"test accuracy after {tc.epochs} epochs >= {MIN_TEST_ACC}",
              test_acc >= MIN_TEST_ACC, f"{test_acc}")

    WORK.mkdir(exist_ok=True)
    path = WORK / f"synthetic-{os.getpid()}.fdht"
    run.cleanup += [path, Path(f"{path}.json")]
    with run.block("bench.save"):
        t0 = perf_counter()
        fio.save_checkpoint(cell, head, path)
        save_s = perf_counter() - t0
    run.metric("save_ms", save_s * 1e3, "ms", 1)
    run.per_layer["io.checkpoint_bytes"] = path.stat().st_size
    loaded_cell, loaded_head = fio.load_checkpoint(path)
    same = _params(loaded_cell, loaded_head)
    run.check("checkpoint round-trips to identical parameters",
              same.keys() == params.keys()
              and all(np.array_equal(same[k], params[k]) for k in params)
              and (loaded_cell.mode, loaded_cell.n_x) == (cell.mode, cell.n_x))

    s = run.side[False]
    gate(run, s["minibatch_s"], s["ref_s"])
    latency(run, "bptt_batch_ms", s["minibatch_s"])
    run.metric("train_seq_per_s", sum(s["train_seqs"]) / sum(s["minibatch_s"]), "1/s",
               len(s["minibatch_s"]))
    run.metric("epoch_s", statistics.median(s["epoch_s"]), "s", len(s["epoch_s"]))
    run.metric("infer_seq_per_s", sum(s["eval_seqs"]) / sum(s["evaluate_s"]), "1/s",
               len(s["evaluate_s"]))
    x0 = train_data.xs[0][0]
    return cell, _packed(cell, x0, np.zeros(cell.hidden_size)), "minibatch_s"


# ---------------------------------------------------------------------------
# ucf11-infer

UCF11_SEQUENCES = 8


def ucf11_infer(run):
    """Forward-only inference at the UCF11 direct geometry from a loaded
    checkpoint. Sequences alternate between ``forward_sequence`` (sequence
    throughput) and the same recurrence stepped by hand (per-step
    latency)."""
    run.root = "bench.sequence"
    WORK.mkdir(exist_ok=True)
    path = WORK / f"ucf11-{os.getpid()}.fdht"
    run.cleanup += [path, Path(f"{path}.json")]
    cell, head = _cell_from(_config("ucf11-direct.ini", run.seed))
    fio.save_checkpoint(cell, head, path)
    run.per_layer["io.checkpoint_bytes"] = path.stat().st_size

    def setup():
        cfg = _config("ucf11-direct.ini", run.seed)
        xs = _frames(run.seed, 1, (UCF11_SEQUENCES, cfg.task.frames, cfg.model.n_x))
        return (xs, *fio.load_checkpoint(path))

    run.setup = setup
    xs, cell, head = timed_setup(run, SETUP_REPS[0])

    # Oracle: the dense matrix (~480 MiB) against the plan kernel on
    # sampled packed inputs, and a dense cell against the HT cell on every
    # sequence. The checked logits are the reference for the timed loop.
    dense = fht.reconstruct_dense(cell.weight)
    rng = np.random.default_rng([run.seed, 2])
    for t in range(3):
        packed = _packed(cell, xs[t][t], np.tanh(rng.normal(size=cell.hidden_size)))
        err = float(np.max(np.abs(fht.htl_forward(cell.weight, packed) - dense @ packed)))
        run.check("plan kernel matches reconstruct_dense", err <= FORWARD_TOL, f"{err:.3e}")
    dense_cell = flstm.DenseLstmCell(dense, cell.n_x, biases=cell.biases)
    reference = []
    for seq in xs:
        logits = flstm.forward_sequence(cell, head, seq)
        err = float(np.max(np.abs(logits - flstm.forward_sequence(dense_cell, head, seq))))
        run.check("HT cell logits match dense cell", err <= FORWARD_TOL, f"{err:.3e}")
        reference.append(logits)
    del dense, dense_cell

    x0 = xs[0][0]
    state0 = cell.init_state()
    run.metric("transient_mib", layers.transient_bytes(lambda: cell.step(x0, state0)) / 2**20,
               "MiB", 1, gated=True)

    gc.collect()
    start = perf_counter()
    i = 0
    while perf_counter() - start < run.seconds or i < 4:
        k = i % UCF11_SEQUENCES
        seq = xs[k]
        try:
            if i % 2 == 0:
                with run.block(run.root, i // 2) as side:
                    t0 = perf_counter()
                    logits = flstm.forward_sequence(cell, head, seq)
                    side["sequence_s"].append(perf_counter() - t0)
                side["ref_s"].append(run.reference())
            else:
                with run.block("bench.steps", i // 2) as side:
                    state = cell.init_state()
                    for x in seq:
                        t0 = perf_counter()
                        state = cell.step(x, state)
                        side["step_s"].append(perf_counter() - t0)
                    logits = head.w @ state.h + head.b
        except Exception as exc:  # counted, and the loop goes on
            run.unit_failed(f"sequence {i}", exc)
        else:
            err = float(np.max(np.abs(logits - reference[k])))
            run.check("timed logits repeat the checked reference", err <= REPEAT_TOL,
                      f"{err:.3e}")
        i += 1

    s = run.side[False]
    gate(run, s["sequence_s"], s["ref_s"])
    latency(run, "cell_step_ms", s["step_s"])
    run.metric("infer_seq_per_s", len(s["sequence_s"]) / sum(s["sequence_s"]), "1/s",
               len(s["sequence_s"]))
    return cell, _packed(cell, x0, np.zeros(cell.hidden_size)), "sequence_s"


# ---------------------------------------------------------------------------
# cnn-bptt

CNN_MINIBATCHES = 4
CNN_BATCH = 16


def cnn_bptt(run):
    """BPTT minibatches of 16 six-frame sequences at the HMDB51 CNN
    geometry, each followed by adam_step."""
    run.root = "bench.minibatch"
    run.ref = Reference(reps=32)  # ~30 ms after a ~1.7 s minibatch

    def setup():
        cfg = _config("hmdb51-cnn.ini", run.seed)
        k = cfg.task
        xs = _frames(run.seed, 3, (CNN_MINIBATCHES, CNN_BATCH, k.frames, cfg.model.n_x))
        labels = np.random.default_rng([run.seed, 4]).integers(
            k.classes, size=(CNN_MINIBATCHES, CNN_BATCH))
        batches = [[(xs[b, i], int(labels[b, i])) for i in range(CNN_BATCH)]
                   for b in range(CNN_MINIBATCHES)]
        return (cfg, *_cell_from(cfg), batches)

    run.setup = setup
    cfg, cell, head, batches = timed_setup(run, SETUP_REPS[0])
    tc = cfg.train
    _check_against_dense_cell(run, cell, head, batches[0], tc)

    _, mem_cell, mem_head, _ = setup()
    _minibatch_transient(run, mem_cell, mem_head, tc, batches[0])
    del mem_cell, mem_head

    params = _params(cell, head)
    adam = ftrain.AdamState()
    rng = np.random.default_rng(tc.seed)
    gc.collect()
    start = perf_counter()
    i = 0
    while perf_counter() - start < run.seconds or i < 2:
        batch = batches[i % CNN_MINIBATCHES]
        try:
            with run.block(run.root, i) as side:
                t0 = perf_counter()
                loss, grads = ftrain.bptt(cell, head, batch, dropout_rate=tc.dropout_rate,
                                          rng=rng)
                ftrain.adam_step(params, grads, adam, tc)
                side["minibatch_s"].append(perf_counter() - t0)
                side["train_seqs"].append(len(batch))
            side["ref_s"].append(run.reference())
        except Exception as exc:  # counted, and the loop goes on
            run.unit_failed(f"minibatch {i}", exc)
        else:
            run.check("minibatch loss is finite", math.isfinite(loss), repr(loss))
        i += 1

    s = run.side[False]
    gate(run, s["minibatch_s"], s["ref_s"])
    latency(run, "bptt_batch_ms", s["minibatch_s"])
    run.metric("train_seq_per_s", sum(s["train_seqs"]) / sum(s["minibatch_s"]), "1/s",
               len(s["minibatch_s"]))
    x0 = batches[0][0][0][0]
    return cell, _packed(cell, x0, np.zeros(cell.hidden_size)), "minibatch_s"


def _check_against_dense_cell(run, cell, head, batch, tc):
    """Loss and gradients of one minibatch against a DenseLstmCell built
    from the reconstructed matrix, both with the same dropout draws.

    The dense cell's gradient is with respect to the dense matrix W. HT
    reconstruction is linear in each factor separately, so for factor i
    and any direction V, <dL/dfactor_i, V> = <dL/dW, W(factor_i := V)>.
    """
    ht_loss, ht_grads, ht_dx = ftrain.bptt(
        cell, head, batch, dropout_rate=tc.dropout_rate,
        rng=np.random.default_rng([run.seed, 5]), return_input_grads=True)
    w = cell.weight
    dense_cell = flstm.DenseLstmCell(fht.reconstruct_dense(w), cell.n_x, biases=cell.biases)
    d_loss, d_grads, d_dx = ftrain.bptt(
        dense_cell, head, batch, dropout_rate=tc.dropout_rate,
        rng=np.random.default_rng([run.seed, 5]), return_input_grads=True)
    del dense_cell

    errs = {"loss": _rel_err(ht_loss, d_loss),
            "input": _rel_err(np.array(ht_dx), np.array(d_dx))}
    for name in d_grads:
        if name != "w":
            errs[name] = _rel_err(ht_grads[name], d_grads[name])
    rng = np.random.default_rng([run.seed, 6])
    for i in range(len(w.factors)):
        g = ht_grads[f"ht.{i}"]
        direction = g + np.linalg.norm(g) / g.size ** 0.5 * rng.normal(size=g.shape)
        factors = list(w.factors)
        factors[i] = direction
        wv = fht.reconstruct_dense(fht.HTWeight(w.tree, w.m_shape, w.n_shape, factors))
        errs[f"ht.{i}"] = _rel_err(np.vdot(g, direction), np.vdot(d_grads["w"], wv))
        del wv
    for name, err in errs.items():
        run.check(f"minibatch {name} gradient matches dense cell", err <= GRAD_RTOL,
                  f"{err:.3e}")


WORKLOADS = {
    "synthetic-train": synthetic_train,
    "ucf11-infer": ucf11_infer,
    "cnn-bptt": cnn_bptt,
}


def run_workload(name, seed, seconds, trace) -> Run:
    run = Run(name, seed, seconds, trace)
    try:
        cell, packed, unit_key = WORKLOADS[name](run)
        timed_setup(run, SETUP_REPS[1])
    finally:
        for path in run.cleanup:
            path.unlink(missing_ok=True)
    run.metric("setup_s", statistics.median(run.setup_times), "s",
               len(run.setup_times), gated=True)
    if trace:
        _trace_metrics(run, cell, packed, unit_key)
    return run


def _trace_metrics(run, cell, packed, unit_key):
    """Per-layer metrics of a traced run, with its consistency checks."""
    stats = run.tracer.analyze()
    metrics, calls = layers.span_metrics(stats, run.root)
    w = cell.weight
    plan, counts = layers.plan_metrics(w, packed.reshape(w.n_shape))
    metrics.update(plan)
    metrics.update(run.per_layer)
    untraced, traced = (per_ref(run.side[side][unit_key], run.side[side]["ref_s"])
                        for side in (False, True))
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    run.per_layer = layers.fill(metrics)
    self_time = stats.self_time_by_name(run.root)
    root_total = sum(stats.duration[r] for r in stats.roots(run.root))
    run.counts = {"calls_per_unit": calls, "plan": counts,
                  "self_share": {k: v / root_total for k, v in
                                 sorted(self_time.items(), key=lambda kv: -kv[1])}}

    run.check("every span lies inside its parent", stats.nesting_violations() == 0)
    self_total = sum(self_time.values())
    run.check("self times add up to the root spans",
              abs(self_total - root_total) <= 1e-9 * root_total,
              f"{self_total} vs {root_total}")
    for name, per_root in calls.items():
        run.check(f"{name} calls repeat in every unit", len(set(per_root)) == 1,
                  f"{per_root}")
    c = {k: v[0] for k, v in calls.items()}
    run.check("one run_plan per forward step",
              c.get("ht.run_plan", 0) == c.get("lstm.step", 0))
    run.check("one contract_vjp per plan step per backward",
              c.get("tensor.contract_vjp", 0)
              == c.get("grad.backward_from_tape", 0) * len(counts))
    run.metric("trace.overhead_share", metrics["trace.overhead_share"], "share",
               len(run.side[True][unit_key]))
    WORK.mkdir(exist_ok=True)
    run.tracer.write(WORK / f"trace-{run.workload}.json")
