"""Command-line entry point.

Subcommands: params, compare, gradcheck, verify, train, eval. Each takes
``--config <path>`` (INI file; defaults apply when omitted), ``--seed``
(rebases all seeds) and ``--print-config`` (echo the effective config and
exit). Exit codes: 0 success, 1 validation failure (bad config, an
unreadable path, a corrupt checkpoint or a check exceeding its
tolerance), 2 runtime error or, from argparse with its usage text, a
usage error. Other errors are single machine-parsable lines on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .complexity import compression_ratio, dense_lstm_params, emit_rank_sweep
from .config import (ConfigError, RunConfig, apply_seed_override, emit_config,
                     load_config)
from .grad import finite_diff_check
from .ht import (OracleSizeError, htl_forward, init_ht_weight, param_count_config,
                 reconstruct_dense)
from .io import load_checkpoint, save_checkpoint
from .lstm import make_cell, make_head
from .train import TrainingError, evaluate, generate_task, history_csv, train

GRADCHECK_TOL = 1e-4
VERIFY_TOL = 1e-10


def _model_weight(cfg: RunConfig):
    m = cfg.model
    return init_ht_weight(m.m_shape, m.n_shape, m.leaf_rank, m.internal_rank, 4, m.seed)


def cmd_params(cfg: RunConfig) -> int:
    """Print the HT and dense LSTM parameter counts and the compression ratio."""
    m = cfg.model
    ht = param_count_config(m.m_shape, m.n_shape, m.leaf_rank, m.internal_rank, 4)
    dense_weights, dense_total = dense_lstm_params(m.n_x, math.prod(m.m_shape))
    ratio = compression_ratio(dense_weights, ht)
    print(f"model: n_x={m.n_x} n_shape={','.join(map(str, m.n_shape))} "
          f"m_shape={','.join(map(str, m.m_shape))} "
          f"leaf_rank={m.leaf_rank} internal_rank={m.internal_rank} gates=4")
    print(f"ht_params = {ht:,}")
    print(f"dense_weight_params = {dense_weights:,}")
    print(f"dense_total_params = {dense_total:,}")
    print(f"compression_ratio = {ratio:,}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    """Print the TT/TR/BT/HT parameter counts over [compare] ranks as CSV."""
    c = cfg.compare
    csv = emit_rank_sweep(cfg.model.m_shape, cfg.model.n_shape,
                          range(c.rank_min, c.rank_max + 1))
    sys.stdout.write(csv)
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    """Check HT gradients against central finite differences (exit 1 above 1e-4)."""
    w = _model_weight(cfg)
    rng = np.random.default_rng(cfg.model.seed)
    x = rng.normal(size=w.in_size)
    err = finite_diff_check(w, x, lambda y: 0.5 * float(y @ y), step=1e-5,
                            loss_grad=lambda y: y)
    print(f"gradcheck max_relative_error = {err:.3e} (tolerance {GRADCHECK_TOL:.0e})")
    return 0 if err <= GRADCHECK_TOL else 1


def cmd_verify(cfg: RunConfig) -> int:
    """Check the HT kernel against the dense reconstruction (exit 1 above 1e-10)."""
    w = _model_weight(cfg)
    dense = reconstruct_dense(w)
    rng = np.random.default_rng(cfg.model.seed)
    err = 0.0
    for _ in range(5):
        x = rng.normal(size=w.in_size)
        err = max(err, float(np.max(np.abs(htl_forward(w, x) - dense @ x))))
    print(f"verify max_abs_error = {err:.3e} (tolerance {VERIFY_TOL:.0e})")
    return 0 if err <= VERIFY_TOL else 1


def _ensure_parent(path: str):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def cmd_train(cfg: RunConfig) -> int:
    """Train on the synthetic task; write the metrics CSV and a checkpoint."""
    m = cfg.model
    train_data, test_data = generate_task(cfg.task)
    cell = make_cell(m.n_x, m.n_shape, m.m_shape, m.leaf_rank, m.internal_rank,
                     m.mode, m.seed)
    head = make_head(cfg.task.classes, cell.hidden_size, (m.seed, 2))
    history = train(cell, head, train_data, test_data, cfg.train)
    _ensure_parent(cfg.paths.metrics)
    with open(cfg.paths.metrics, "w") as fh:
        fh.write(history_csv(history))
    _ensure_parent(cfg.paths.checkpoint)
    save_checkpoint(cell, head, cfg.paths.checkpoint)
    if history:
        last = history[-1]
        print(f"trained {len(history)} epochs: train_acc={last.train_acc:.6f} "
              f"test_acc={last.test_acc:.6f}")
    else:
        print("trained 0 epochs")
    print(f"metrics written to {cfg.paths.metrics}")
    print(f"checkpoint written to {cfg.paths.checkpoint}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    """Print the synthetic-task test accuracy of a checkpoint."""
    cell, head = load_checkpoint(cfg.paths.checkpoint)
    if cell.n_x != cfg.model.n_x:
        raise ConfigError(
            f"checkpoint n_x={cell.n_x} does not match config n_x={cfg.model.n_x}"
        )
    _, test_data = generate_task(cfg.task)
    acc = evaluate(cell, head, test_data)
    print(f"test_acc = {acc:.6f}")
    return 0


_COMMANDS = {
    "params": cmd_params,
    "compare": cmd_compare,
    "gradcheck": cmd_gradcheck,
    "verify": cmd_verify,
    "train": cmd_train,
    "eval": cmd_eval,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdht",
        description="Hierarchical Tucker decomposed LSTM toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="INI config file (defaults when omitted)")
        p.add_argument("--seed", type=int, help="rebase model/train/task seeds")
        p.add_argument("--print-config", action="store_true",
                       help="echo the effective config and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            apply_seed_override(cfg, args.seed)
        if args.print_config:
            sys.stdout.write(emit_config(cfg))
            return 0
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    except (OracleSizeError, TrainingError, MemoryError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
