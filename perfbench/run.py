"""fdht benchmark: closed-loop workloads over the reference geometries.

One workload run (its last stdout line is the JSON result):

    python3 perfbench/run.py --workload ucf11-infer --seed 1 --seconds 16 --trace 0

Every metric of every workload, untraced and traced:

    python3 perfbench/run.py --all

Run from the root of a source tree; the package is imported from its
``src/`` directory. See ``perfbench/README.md`` for the workloads, the
metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One process, one BLAS thread: set before numpy is imported so that the
# measured load never exceeds the two cores of the reference machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SECONDS = 16


def machine_record() -> dict:
    import ctypes
    import platform
    import subprocess

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                getattr(dll, fn).restype = ctypes.c_int
                threads = getattr(dll, fn)()
                break
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": commit,
    }


def _fmt(value):
    return repr(float(value)) if isinstance(value, float) else str(value)


def run_one(workload, seed, seconds, trace):
    import workloads

    run = workloads.run_workload(workload, seed, seconds, trace)
    machine = machine_record()
    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"machine {json.dumps(machine)}")
    for name, (value, unit, samples) in sorted(run.report.items()):
        n = "" if samples is None else f" (n={samples})"
        print(f"  {name} = {_fmt(value)} {unit}{n}")
    print(f"  failed_frac = {run.failed / max(run.attempted, 1)!r} share "
          f"(failed {run.failed} of {run.attempted} attempted)")
    if trace:
        print("per-layer (traced run; ms are medians of single calls, "
              "calls are per unit of work):")
        for name, m in run.per_layer.items():
            print(f"  {name} = {_fmt(m['value'])} {m['unit']}")
        print("self time by span, as a share of the root units:")
        for name, share in run.counts["self_share"].items():
            print(f"  {name} = {share!r} share")
    for note in run.notes[:20]:
        print(note)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.per_layer if trace else run.e2e,
    }
    workloads.WORK.mkdir(exist_ok=True)
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  machine=machine, report={k: list(v) for k, v in run.report.items()},
                  counts=run.counts, notes=run.notes,
                  samples={k: v for k, v in run.side[False].items()})
    out = workloads.WORK / f"result-{workload}-s{seed}-t{int(trace)}.json"
    out.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fdht" / "__init__.py").is_file():
        print(f"error: no fdht source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.all:
        results = [run_one(name, args.seed, args.seconds, trace)
                   for name in workloads.WORKLOADS for trace in (False, True)]
        print(json.dumps({"correct": all(r["correct"] for r in results)}))
        return 0 if all(r["correct"] for r in results) else 1
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
