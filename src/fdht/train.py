"""Desk-scale training harness: ADAM with additive L2, a deterministic
synthetic sequence-classification task, and the epoch loop tying the
cells, the classifier head and the optimizer together."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .lstm import Head, bptt, check_dropout, forward_split, model_params


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # ADAM's constants, Kingma & Ba's defaults


class TrainingError(RuntimeError):
    pass


def check_seed(seed: int):
    """The seed rule of every config section that holds one."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    l2_coeff: float = 0.001
    dropout_rate: float = 0.25
    batch_size: int = 16
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        check_dropout(self.dropout_rate)
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.l2_coeff >= 0:
            raise ValueError("l2_coeff must be >= 0")
        check_seed(self.seed)


@dataclass
class SyntheticTask:
    """Sequences whose class is a per-class template drifting over the
    frames, plus Gaussian noise. Stand-in for real sequence data."""

    classes: int = 8
    frames: int = 6
    frame_dim: int = 256
    noise: float = 0.5
    seed: int = 0
    train_per_class: int = 40
    test_per_class: int = 20

    def __post_init__(self):
        if self.classes < 2 or self.frames < 1 or self.frame_dim < 1:
            raise ValueError("needs classes >= 2, frames >= 1, frame_dim >= 1")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("train_per_class and test_per_class must be >= 1")
        check_seed(self.seed)


@dataclass(eq=False, repr=False)
class Dataset:
    xs: np.ndarray      # (count, frames, frame_dim)
    labels: np.ndarray  # (count,)

    def __len__(self):
        return len(self.labels)


def _clean_sequences(task: SyntheticTask, rng) -> np.ndarray:
    """The noiseless (classes, frames, frame_dim) sequences: class c moves
    linearly from a unit-norm base template to a unit-norm drifted one.
    Takes the first draws of ``rng``, ahead of any sample noise."""
    base = rng.standard_normal((task.classes, task.frame_dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    drift = rng.standard_normal((task.classes, task.frame_dim))
    drift /= np.linalg.norm(drift, axis=1, keepdims=True)
    t_frac = np.linspace(0.0, 1.0, task.frames)[:, None]
    return (1.0 - t_frac) * base[:, None, :] + t_frac * drift[:, None, :]


def _split_sampler(task: SyntheticTask):
    """The task's generator and a function drawing one class-balanced
    split from it, after the clean sequences. A noise that overflows the
    samples is a ValueError naming ``[task] noise``."""
    rng = np.random.default_rng(task.seed)
    clean = _clean_sequences(task, rng)

    # noise is scaled so that `noise` is the expected per-frame noise NORM
    # relative to the unit-norm templates, independent of frame_dim
    sigma = task.noise / task.frame_dim ** 0.5

    def sample_split(per_class):
        # one draw in (class, sample) order; each entry is clean + sigma * noise
        xs = rng.standard_normal((task.classes, per_class, task.frames, task.frame_dim))
        try:
            with np.errstate(over="raise"):
                xs *= sigma
        except FloatingPointError:
            raise ValueError(f"[task] noise = {task.noise!r} overflows the samples") from None
        xs += clean[:, None]
        return Dataset(xs.reshape(-1, task.frames, task.frame_dim),
                       np.repeat(np.arange(task.classes, dtype=np.int64), per_class))

    return rng, sample_split


def generate_task(task: SyntheticTask):
    """Deterministic class-balanced train/test datasets.

    Class c's clean sequence interpolates from a base template to a
    drifted one across the frames; every sample adds fresh Gaussian noise
    scaled by ``task.noise``. The test split's draws follow the train
    split's in one generator stream.
    """
    _, sample_split = _split_sampler(task)
    return sample_split(task.train_per_class), sample_split(task.test_per_class)


def generate_test_split(task: SyntheticTask) -> Dataset:
    """``generate_task(task)[1]`` without holding the train split: its
    noise is drawn one sample at a time into one reused buffer, which
    leaves the stream, and so the test split, bit-identical."""
    rng, sample_split = _split_sampler(task)
    skipped = np.empty((task.frames, task.frame_dim))
    for _ in range(task.classes * task.train_per_class):
        rng.standard_normal(out=skipped)
    return sample_split(task.test_per_class)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, np.ndarray], grads, state: AdamState,
              config: TrainConfig):
    """In-place ADAM update with bias correction; the L2 term
    l2_coeff * theta is added to each gradient before the moment update."""
    state.t += 1
    # the step's scalars, once per call, as 0-d operands (a ufunc takes
    # them faster than a Python float, same bits)
    l2, beta1, beta2, lr, eps, m_in, v_in, m_corr, v_corr = map(np.array, (
        config.l2_coeff, BETA1, BETA2, config.learning_rate, EPS, 1.0 - BETA1,
        1.0 - BETA2, 1.0 - BETA1 ** state.t, 1.0 - BETA2 ** state.t))
    for name, theta in params.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient in parameter block '{name}'")
        g = g + l2 * theta
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += m_in * g
        v *= beta2
        v += v_in * g * g
        theta -= lr * (m / m_corr) / (np.sqrt(v / v_corr) + eps)


def evaluate(cell, head: Head, data: Dataset) -> float:
    """Test-time accuracy; deterministic, no dropout. The whole split runs
    as one batch (``forward_split``); a non-finite logit is a TrainingError."""
    logits = forward_split(cell, head, data.xs)
    if not np.isfinite(logits).all():
        raise TrainingError("non-finite logits: the model overflows on this split")
    return int(np.sum(np.argmax(logits, axis=1) == data.labels)) / len(data)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    wall_s: float  # the epoch's minibatches and both evaluations
    grad_norm: dict[str, float]  # per parameter block, mean over minibatches


def train(cell, head: Head, train_data: Dataset, test_data: Dataset,
          config: TrainConfig, on_epoch=None) -> list[EpochRecord]:
    """Minibatch ADAM training; deterministic given config.seed.

    Dropout acts on the final hidden state before the head, during
    training only. One history record per epoch, also passed to
    ``on_epoch`` as soon as its epoch ends; epochs=0 returns an empty
    history and leaves all parameters untouched. A ``TrainingError``
    names its 0-based epoch and minibatch.
    """
    params = model_params(cell, head)
    state = AdamState()
    rng = np.random.default_rng(config.seed)
    history = []
    for epoch in range(config.epochs):
        start_s = time.perf_counter()
        order = rng.permutation(len(train_data))
        loss_sum = 0.0
        batch_count = 0
        norm_sums = dict.fromkeys(params, 0.0)
        for start in range(0, len(order), config.batch_size):
            idx = order[start: start + config.batch_size]
            batch = [(train_data.xs[i], int(train_data.labels[i])) for i in idx]
            try:
                loss, grads = bptt(cell, head, batch,
                                   dropout_rate=config.dropout_rate, rng=rng)
                adam_step(params, grads, state, config)
            except TrainingError as exc:
                raise TrainingError(f"epoch {epoch} minibatch {batch_count}: {exc}") from exc
            for name in norm_sums:  # adam_step has checked that they are finite
                norm_sums[name] += math.sqrt(np.vdot(grads[name], grads[name]))
            loss_sum += loss
            batch_count += 1
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / batch_count,
            train_acc=evaluate(cell, head, train_data),
            test_acc=evaluate(cell, head, test_data),
            wall_s=time.perf_counter() - start_s,
            grad_norm={name: s / batch_count for name, s in norm_sums.items()},
        )
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return history


def epoch_line(rec: EpochRecord) -> str:
    """One machine-parsable line of space-separated key=value fields: the
    epoch, its wall time, its mean minibatch loss and, per parameter block,
    its mean gradient norm."""
    fields = [f"epoch={rec.epoch}", f"wall_s={rec.wall_s:.6f}", f"loss={rec.train_loss:.6f}"]
    fields += [f"grad_norm.{name}={norm:.6e}" for name, norm in rec.grad_norm.items()]
    return " ".join(fields)


def history_csv(history) -> str:
    lines = ["epoch,train_loss,train_acc,test_acc"]
    for rec in history:
        lines.append(f"{rec.epoch},{rec.train_loss:.6f},{rec.train_acc:.6f},{rec.test_acc:.6f}")
    return "\n".join(lines) + "\n"
