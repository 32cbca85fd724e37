"""Run configuration: an INI-style file with model / train / task /
paths sections, strict about unknown keys, and echoable in a form that
re-parses to the identical configuration."""

from __future__ import annotations

import configparser
import io
import math
import re
from dataclasses import dataclass, field, fields, replace

from .ht import param_count_config
from .lstm import GATES, check_mode, pad_length
from .train import SyntheticTask, TrainConfig, check_seed


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

    def __post_init__(self):
        # geometry first: its owner's message wins when several rules break
        param_count_config(self.m_shape, self.n_shape, self.leaf_rank,
                           self.internal_rank, GATES)
        check_mode(self.mode)
        hidden, total = math.prod(self.m_shape), math.prod(self.n_shape)
        for name, size in (("m_shape", hidden), ("n_shape", total)):
            if size > INDEX_MAX:
                raise ValueError(f"prod({name})={size} exceeds the largest numpy "
                                 f"index {INDEX_MAX}")
        pad_length(self.n_x, hidden, total)
        check_seed(self.seed)


@dataclass
class PathsConfig:
    checkpoint: str = "checkpoint.fdht"
    metrics: str = "metrics.csv"

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name):
                raise ValueError(f"{f.name} must not be empty")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    task: SyntheticTask = field(default_factory=SyntheticTask)
    paths: PathsConfig = field(default_factory=PathsConfig)


_SECTIONS = tuple(f.name for f in fields(RunConfig))


# what a value of each field type must look like, as error messages say it
_EXPECTED = {int: "an integer", float: "a number", tuple: "comma-separated integers"}


def _parse_value(raw: str, target_type, section: str, key: str):
    raw = raw.strip()
    try:
        if target_type is int:
            return int(raw)
        if target_type is str:
            return raw
        if target_type is not float:
            # tuple[int, ...]: comma separated, no empty item; "" is ()
            return tuple(int(p) for p in raw.split(",")) if raw else ()
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r}: expected "
                          f"{_EXPECTED[target_type]}") from None
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
        # configparser's text spans lines and writes "line: 1" or "[line  1]"
        message = " ".join(part.strip() for part in str(exc).splitlines())
        message = re.sub(r"\[?line:? +(\d+)\]?", r"line \1", message)
        raise ConfigError(f"config syntax error: {message}") from None

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
    """Each section's own rules, section name first, then frame_dim == n_x."""
    for section in _SECTIONS:
        try:
            replace(getattr(cfg, section))
        except ValueError as exc:
            raise ConfigError(f"{section} {exc}") from None
    if cfg.task.frame_dim != cfg.model.n_x:
        raise ConfigError(f"task frame_dim={cfg.task.frame_dim} must equal "
                          f"model n_x={cfg.model.n_x}")


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
    """--seed: rebase the model, train and task seeds, then validate."""
    cfg.model.seed = seed
    cfg.train.seed = seed + 1
    cfg.task.seed = seed + 2
    validate_config(cfg)
