"""Run configuration: an INI-style file with model / train / task /
compare / paths sections, strict about unknown keys, and echoable in a
form that re-parses to the identical configuration."""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields

from .lstm import MODES
from .train import SyntheticTask, TrainConfig


class ConfigError(ValueError):
    pass


# numpy sizes are int64: a product of mode lengths above this wraps in
# numpy arithmetic and can be no array's size.
INDEX_MAX = 2**63 - 1


@dataclass
class ModelConfig:
    n_x: int = 256
    n_shape: tuple[int, ...] = (16, 17)
    m_shape: tuple[int, ...] = (4, 4)
    leaf_rank: int = 8
    internal_rank: int = 8
    mode: str = "full"
    seed: int = 1


@dataclass
class CompareConfig:
    rank_min: int = 1
    rank_max: int = 16


@dataclass
class PathsConfig:
    checkpoint: str = "checkpoint.fdht"
    metrics: str = "metrics.csv"


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    task: SyntheticTask = field(default_factory=SyntheticTask)
    compare: CompareConfig = field(default_factory=CompareConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)


_SECTIONS = tuple(f.name for f in fields(RunConfig))


def _parse_value(raw: str, target_type, section: str, key: str):
    raw = raw.strip()
    try:
        if target_type is int:
            return int(raw)
        if target_type is str:
            return raw
        if target_type is not float:
            # tuple[int, ...]: comma separated
            return tuple(int(p) for p in raw.split(",") if p.strip() != "")
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r}: cannot parse as {target_type}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r}: must be finite")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate; any unknown section or key is an error, and
    so is ``[DEFAULT]``: no header can name the default section ""."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        known = {f.name: f for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            current = getattr(target, key)
            setattr(target, key, _parse_value(raw, type(current), section, key))
    validate_config(cfg)
    return cfg


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def validate_config(cfg: RunConfig):
    m = cfg.model
    if len(m.n_shape) != len(m.m_shape) or len(m.n_shape) < 2:
        raise ConfigError(
            "model n_shape and m_shape must have the same length >= 2"
        )
    if min(m.n_shape) < 1 or min(m.m_shape) < 1:
        raise ConfigError("model mode lengths must be >= 1")
    if m.leaf_rank < 1 or m.internal_rank < 1:
        raise ConfigError("model ranks must be >= 1")
    if m.mode not in MODES:
        raise ConfigError(f"model mode must be one of {MODES}, got {m.mode!r}")
    hidden, total = math.prod(m.m_shape), math.prod(m.n_shape)
    for name, size in (("m_shape", hidden), ("n_shape", total)):
        if size > INDEX_MAX:
            raise ConfigError(f"prod({name})={size} exceeds the largest numpy "
                              f"index {INDEX_MAX}")
    if total < m.n_x + hidden:
        raise ConfigError(
            f"prod(n_shape)={total} too small: needs at least "
            f"n_x + hidden = {m.n_x + hidden}"
        )
    t = cfg.train
    if not 0.0 <= t.dropout_rate < 1.0:
        raise ConfigError("train dropout_rate must be in [0, 1)")
    if t.batch_size < 1 or t.epochs < 0:
        raise ConfigError("train batch_size must be >= 1 and epochs >= 0")
    if t.learning_rate <= 0:
        raise ConfigError("train learning_rate must be positive")
    k = cfg.task
    if k.classes < 2 or k.frames < 1 or k.frame_dim < 1:
        raise ConfigError("task needs classes >= 2, frames >= 1, frame_dim >= 1")
    if k.train_per_class < 1 or k.test_per_class < 1:
        raise ConfigError("task per-class sample counts must be >= 1")
    if k.frame_dim != m.n_x:
        raise ConfigError(
            f"task frame_dim={k.frame_dim} must equal model n_x={m.n_x}"
        )
    c = cfg.compare
    if not 1 <= c.rank_min <= c.rank_max:
        raise ConfigError("compare needs 1 <= rank_min <= rank_max")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def emit_config(cfg: RunConfig) -> str:
    """Canonical INI text; parse_config(emit_config(cfg)) == cfg."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:
        target = getattr(cfg, section)
        parser[section] = {
            f.name: _format_value(getattr(target, f.name)) for f in fields(target)
        }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def apply_seed_override(cfg: RunConfig, seed: int):
    """--seed: rebase the model, train and task seeds deterministically."""
    cfg.model.seed = seed
    cfg.train.seed = seed + 1
    cfg.task.seed = seed + 2
