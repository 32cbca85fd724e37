"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Compression ratios are the dense weight count over the HT count,
rounded to the nearest integer (criterion 2). Criterion 7b checks the
emitted rank sweep against closed-form per-scheme counts written out here,
under which the chain HT <= BT <= max(TT, TR) holds on exactly r in 2..4;
the fewest-parameters claim itself is criterion 7c.
"""

import time
import tracemalloc

import numpy as np

from fdht.cli import main as cli_main
from fdht.complexity import emit_rank_sweep, scheme_params
from fdht.grad import finite_diff_check
from fdht.ht import htl_forward, init_ht_weight, param_count_config, reconstruct_dense
from fdht.lstm import (DenseLstmCell, bptt, forward_sequence, make_cell,
                       make_head, softmax_cross_entropy)
from fdht.train import (SyntheticTask, TrainConfig, generate_task,
                        history_csv, train)
from oracles import fd_param_dict, make_dense_cell, max_rel_error

REFERENCE_CONFIGS = {
    # name: (m_shape, n_shape, leaf_rank, internal_rank, n_x, expected count,
    #        expected ratio)
    "ucf11-direct": ((4, 4, 4, 4), (16, 16, 16, 15), 14, 12, 57600, 8808, 6726),
    "youtube": ((4, 4, 4, 4), (16, 16, 16, 15), 14, 11, 57600, 8324, 7117),
    "ucf11-cnn": ((4, 8, 8, 8), (8, 8, 8, 8), 9, 6, 2048, 3132, 10713),
    "hmdb51-cnn": ((4, 8, 8, 8), (8, 8, 8, 8), 14, 12, 2048, 8416, 3987),
}
FIG5_M = (4, 4, 2, 4, 2)
FIG5_N = (8, 10, 10, 9, 8)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_exact_parameter_counts():
    details = []
    for name, (m, n, leaf, internal, _, expected, _) in REFERENCE_CONFIGS.items():
        t0 = time.perf_counter()
        got = param_count_config(m, n, leaf, internal, 4)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        details.append(f"{name}={got}")
        if got != expected:
            report(1, False, f"{name}: got {got}, expected {expected}")
    report(1, True, ", ".join(details) + " (all exact)")


def _params_report(capsys, n_x, n_shape, m_shape, leaf, internal, tmp_path, tag):
    cfg = tmp_path / f"{tag}.ini"
    cfg.write_text(
        f"[model]\nn_x = {n_x}\n"
        f"n_shape = {','.join(map(str, n_shape))}\n"
        f"m_shape = {','.join(map(str, m_shape))}\n"
        f"leaf_rank = {leaf}\ninternal_rank = {internal}\n"
        f"\n[task]\nframe_dim = {n_x}\n")
    assert cli_main(["params", "--config", str(cfg)]) == 0
    return capsys.readouterr().out


def test_criterion_2a_ratios_and_dense_totals(capsys, tmp_path):
    golden = {
        "ucf11-direct": ("compression_ratio = 6,726", "dense_total_params = 59,245,568"),
        "youtube": ("compression_ratio = 7,117", "dense_total_params = 59,245,568"),
        "ucf11-cnn": ("compression_ratio = 10,713", "dense_total_params = 33,562,624"),
        "hmdb51-cnn": ("dense_total_params = 33,562,624",),
    }
    for name, (m, n, leaf, internal, n_x, _, ratio) in REFERENCE_CONFIGS.items():
        out = _params_report(capsys, n_x, n, m, leaf, internal, tmp_path, name)
        for needle in golden[name]:
            if needle not in out:
                report("2a", False, f"{name}: expected '{needle}' in report:\n{out}")
    report("2a", True, "rounded ratios 6,726 / 7,117 / 10,713 and dense totals "
                       "59,245,568 / 33,562,624 all printed exactly")


def test_criterion_2b_hmdb51_ratio_golden_value(capsys, tmp_path):
    # 33,554,432 / 8,416 = 3,986.98, which rounds to the reference 3,987;
    # flooring would print 3,986. HMDB51 is the one reference config where
    # floor and round-to-nearest differ (the others are 6,726.22, 7,117.32
    # and 10,713.42).
    m, n, leaf, internal, n_x, _, _ = REFERENCE_CONFIGS["hmdb51-cnn"]
    out = _params_report(capsys, n_x, n, m, leaf, internal, tmp_path, "hmdb51-ratio")
    ok = "compression_ratio = 3,987" in out
    got = next(line for line in out.splitlines() if "compression_ratio" in line)
    report("2b", ok, f"hmdb51-cnn golden ratio 3,987 (33,554,432 / 8,416 = "
                     f"3,986.98 rounded to nearest); got '{got.strip()}'")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(120):
        d = int(rng.integers(2, 5))
        m = tuple(int(x) for x in rng.integers(1, 5, size=d))
        n = tuple(int(x) for x in rng.integers(1, 5, size=d))
        w = init_ht_weight(m, n, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                           int(rng.integers(1, 4)), seed=int(rng.integers(2**31)))
        x = rng.normal(size=w.in_size)
        err = float(np.max(np.abs(htl_forward(w, x) - reconstruct_dense(w) @ x)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report(3, ok, f"120 random configs, max |fast - dense@x| = {worst:.2e} "
                  f"(tol 1e-10), {elapsed:.1f}s")


def _bptt_fd_worst(cell, head, batch, step=1e-5):
    def batch_loss():
        return float(np.mean([
            softmax_cross_entropy(forward_sequence(cell, head, xs), lab)[0]
            for xs, lab in batch]))

    _, grads, input_grads = bptt(cell, head, batch, return_input_grads=True)
    params = dict(cell.params())
    params["head.w"] = head.w
    params["head.b"] = head.b
    for ei, (xs, _) in enumerate(batch):
        for t in range(len(xs)):
            params[f"x{ei}.{t}"] = xs[t]
            grads[f"x{ei}.{t}"] = input_grads[ei][t]
    numeric = fd_param_dict(params, batch_loss, step)
    return max(max_rel_error(grads[name], numeric[name]) for name in params)


def test_criterion_4_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_layer = 0.0
    for k in range(12):
        d = int(rng.integers(2, 4))
        m = tuple(int(x) for x in rng.integers(1, 4, size=d))
        n = tuple(int(x) for x in rng.integers(1, 4, size=d))
        w = init_ht_weight(m, n, int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                           int(rng.integers(1, 3)), seed=k)
        x = rng.normal(size=w.in_size)
        err = finite_diff_check(w, x)
        worst_layer = max(worst_layer, err)

    worst_bptt = 0.0
    for k in range(8):
        mode = "full" if k % 2 == 0 else "input-only"
        cell = make_cell(4, (3, 3), (2, 2), 2, 2, mode=mode, seed=100 + k)
        head = make_head(3, cell.hidden_size, seed=200 + k)
        batch = [([rng.normal(size=4) for _ in range(2)], int(rng.integers(0, 3)))
                 for _ in range(2)]
        worst_bptt = max(worst_bptt, _bptt_fd_worst(cell, head, batch))
    elapsed = time.perf_counter() - t0
    ok = worst_layer <= 1e-4 and worst_bptt <= 1e-4 and elapsed < 120.0
    report(4, ok, f"20 configs: bare-layer worst rel err {worst_layer:.2e}, "
                  f"BPTT(T=2, both modes) worst rel err {worst_bptt:.2e} "
                  f"(tol 1e-4), {elapsed:.1f}s")


def test_criterion_5_lstm_dense_oracle_trajectory():
    rng = np.random.default_rng(55)
    worst = 0.0
    configs = [
        (4, (3, 3), (2, 2), 2, 2),
        (6, (4, 3), (2, 3), 2, 2),
        (16, (5, 5), (2, 2), 3, 3),
        (30, (8, 6), (4, 4), 3, 3),
    ]
    for seed, (n_x, n_shape, m_shape, leaf, internal) in enumerate(configs):
        cell = make_cell(n_x, n_shape, m_shape, leaf, internal, seed=seed)
        dense = DenseLstmCell(reconstruct_dense(cell.weight), n_x=n_x,
                              biases=cell.biases)
        sf, sd = cell.init_state(), dense.init_state()
        for _ in range(8):
            x = rng.normal(size=n_x)
            sf = cell.step(x, sf)
            sd = dense.step(x, sd)
            worst = max(worst, float(np.max(np.abs(sf.h - sd.h))),
                        float(np.max(np.abs(sf.c - sd.c))))
    report(5, worst <= 1e-9,
           f"(h, c) trajectories over T=8 match dense oracle to {worst:.2e} "
           f"(tol 1e-9) on {len(configs)} configs")


def test_criterion_6_no_materialization():
    w = init_ht_weight((4, 4, 4, 4), (16, 16, 16, 15), 14, 12, 4, seed=0)
    x = np.random.default_rng(0).normal(size=w.in_size)
    htl_forward(w, x)  # warm up: plan construction, BLAS init

    t0 = time.perf_counter()
    htl_forward(w, x)
    elapsed = time.perf_counter() - t0

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    htl_forward(w, x)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    transient = peak - base
    limit = 10 * 1024 * 1024
    ok = elapsed < 1.0 and transient < limit
    report(6, ok, f"61,440 x 1,024 dense-equivalent forward in {elapsed*1e3:.1f} ms "
                  f"with {transient/2**20:.2f} MiB transient (< 10 MiB), "
                  f"dense matrix (480 MiB) never built")


def test_criterion_7a_ht_formula_reference_point():
    got = scheme_params(FIG5_M, FIG5_N, 2, "ht")
    report("7a", got == 316, f"HT exact count at r=2 is {got} (expected 316)")


def _fig5_closed_forms(r):
    # the d=5 shapes have sum(m_k * n_k) = 32 + 40 + 20 + 36 + 16 = 144;
    # TT border ranks 1 leave 32r + 16r for the end cores
    return {"tt": 48 * r + 96 * r ** 2,
            "tr": 144 * r ** 2,
            "bt": 144 * r + r ** 5,
            "ht": 144 * r + 3 * r ** 3 + r ** 2}


def _ordering_chain_holds(c):
    return c["ht"] <= c["bt"] <= max(c["tt"], c["tr"])


def test_criterion_7b_rank_sweep_ordering_chain():
    # The emitted sweep must equal the closed forms row by row, and the
    # chain HT <= BT <= max(TT, TR) must hold on exactly r in 2..4: at r=1
    # HT's three cubic terms put it 3 above BT (148 vs 145), and from r=5
    # BT's r^5 core exceeds TR's 144 r^2.
    ranks = range(1, 17)
    lines = emit_rank_sweep(FIG5_M, FIG5_N).splitlines()
    header, rows = lines[0], lines[1:]
    columns = header.split(",")[1:]
    expected = {r: _fig5_closed_forms(r) for r in ranks}
    emitted, offending = {}, []
    for row in rows:
        r, *counts = (int(v) for v in row.split(","))
        emitted[r] = dict(zip(columns, counts))
        if emitted[r] != expected.get(r):
            offending.append(row)
    expected_chain = {r for r in ranks if _ordering_chain_holds(expected[r])}
    emitted_chain = {r for r, c in emitted.items() if _ordering_chain_holds(c)}
    ok = (header == "rank,tt,tr,bt,ht" and sorted(emitted) == list(ranks)
          and not offending and expected_chain == {2, 3, 4}
          and emitted_chain == expected_chain)
    report("7b", ok,
           f"rank sweep r=1..16 against closed forms TT=48r+96r^2, TR=144r^2, "
           f"BT=144r+r^5, HT=144r+3r^3+r^2; header '{header}'; "
           f"offending rows (rank,tt,tr,bt,ht): {offending or 'none'}; "
           f"chain HT <= BT <= max(TT, TR) holds on {sorted(emitted_chain)} "
           f"(closed forms: {sorted(expected_chain)}, expected [2, 3, 4])")


def test_criterion_7c_fewest_parameters_claim():
    # the comparison's substantive claim, true from r=2 on
    for r in range(2, 17):
        c = {s: scheme_params(FIG5_M, FIG5_N, r, s)
             for s in ("tt", "tr", "bt", "ht")}
        if c["ht"] > min(c["tt"], c["tr"], c["bt"]):
            report("7c", False, f"HT not minimal at r={r}: {c}")
    report("7c", True, "HT has the fewest parameters of all four schemes "
                       "for every r in 2..16")


# --- criterion 8/9 shared procedure --------------------------------------

EPOCHS = 15  # all three models converge well before the 50-epoch budget
_learning_cache = {}


def _learning_run():
    task = SyntheticTask()  # defaults: 8 classes, 6 frames, 256 dims
    train_data, test_data = generate_task(task)
    cfg = TrainConfig(epochs=EPOCHS, seed=3)
    results = {}
    csvs = {}
    for name, make in (
        ("dense", lambda: make_dense_cell(256, 16, seed=1)),
        ("fdht-full", lambda: make_cell(256, (16, 17), (4, 4), 8, 8,
                                        mode="full", seed=1)),
        ("fdht-input-only", lambda: make_cell(256, (16, 17), (4, 4), 8, 8,
                                              mode="input-only", seed=1)),
    ):
        cell = make()
        head = make_head(task.classes, cell.hidden_size, seed=2)
        history = train(cell, head, train_data, test_data, cfg)
        results[name] = {
            "history": history,
            "params": int(sum(v.size for v in cell.params().values())),
            "first_90": next((r.epoch for r in history if r.train_acc >= 0.90), None),
        }
        csvs[f"metrics-{name}.csv"] = history_csv(history)

    paired = ["mode,params,final_train_acc,final_test_acc"]
    for name in ("fdht-full", "fdht-input-only"):
        r = results[name]
        last = r["history"][-1]
        paired.append(f"{name},{r['params']},{last.train_acc:.6f},{last.test_acc:.6f}")
    csvs["mode-comparison.csv"] = "\n".join(paired) + "\n"
    csvs["rank-sweep.csv"] = emit_rank_sweep(FIG5_M, FIG5_N)
    return results, csvs


def _learning_cached(run_id):
    if run_id not in _learning_cache:
        _learning_cache[run_id] = _learning_run()
    return _learning_cache[run_id]


def test_criterion_8_learning_property(tmp_path):
    t0 = time.perf_counter()
    results, csvs = _learning_cached(0)
    dense_hist = results["dense"]["history"]
    fdht_hist = results["fdht-full"]["history"]
    dense_90 = results["dense"]["first_90"]
    fdht_90 = results["fdht-full"]["first_90"]
    dense_test = dense_hist[-1].test_acc
    fdht_test = fdht_hist[-1].test_acc
    for fname, text in csvs.items():
        (tmp_path / fname).write_text(text)
    elapsed = time.perf_counter() - t0
    ok = (dense_90 is not None and dense_90 < 50
          and fdht_90 is not None and fdht_90 < 50
          and fdht_test >= dense_test - 0.05
          and elapsed < 600.0)
    report(8, ok,
           f"train acc >= 90% at epoch {dense_90} (dense) / {fdht_90} (FDHT); "
           f"test acc dense {dense_test:.3f} vs FDHT {fdht_test:.3f} "
           f"(within 5 points); paired full vs input-only report emitted "
           f"({csvs['mode-comparison.csv'].splitlines()[1]} | "
           f"{csvs['mode-comparison.csv'].splitlines()[2]}); {elapsed:.0f}s")


def test_criterion_9_determinism():
    _, csvs_a = _learning_cached(0)
    _, csvs_b = _learning_run()  # independent second run, same seeds
    mismatched = [k for k in csvs_a
                  if csvs_a[k].encode() != csvs_b[k].encode()]
    report(9, not mismatched,
           f"{len(csvs_a)} emitted CSVs byte-identical across repeated runs"
           + (f"; MISMATCH in {mismatched}" if mismatched else ""))
