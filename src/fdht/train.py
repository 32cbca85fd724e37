"""Desk-scale training harness: ADAM with additive L2, a deterministic
synthetic sequence-classification task, and the epoch loop tying the
cells, the classifier head and the optimizer together."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lstm import Head, bptt, forward_sequence


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    l2_coeff: float = 0.001
    dropout_rate: float = 0.25
    batch_size: int = 16
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


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
    base = rng.normal(size=(task.classes, task.frame_dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    drift = rng.normal(size=(task.classes, task.frame_dim))
    drift /= np.linalg.norm(drift, axis=1, keepdims=True)
    t_frac = np.linspace(0.0, 1.0, task.frames)[:, None]
    return (1.0 - t_frac) * base[:, None, :] + t_frac * drift[:, None, :]


def generate_task(task: SyntheticTask):
    """Deterministic class-balanced train/test datasets.

    Class c's clean sequence interpolates from a base template to a
    drifted one across the frames; every sample adds fresh Gaussian noise
    scaled by ``task.noise``.
    """
    rng = np.random.default_rng(task.seed)
    clean = _clean_sequences(task, rng)

    # noise is scaled so that `noise` is the expected per-frame noise NORM
    # relative to the unit-norm templates, independent of frame_dim
    sigma = task.noise / task.frame_dim ** 0.5

    def sample_split(per_class):
        count = per_class * task.classes
        xs = np.empty((count, task.frames, task.frame_dim))
        labels = np.empty(count, dtype=np.int64)
        i = 0
        for c in range(task.classes):
            for _ in range(per_class):
                xs[i] = clean[c] + sigma * rng.normal(size=clean[c].shape)
                labels[i] = c
                i += 1
        return Dataset(xs, labels)

    return sample_split(task.train_per_class), sample_split(task.test_per_class)


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
    t = state.t
    for name, theta in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in parameter block '{name}'")
        g = g + config.l2_coeff * theta
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1 ** t)
        v_hat = v / (1.0 - config.beta2 ** t)
        theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)


def evaluate(cell, head: Head, data: Dataset) -> float:
    """Test-time accuracy; deterministic, no dropout."""
    hits = 0
    for x, label in zip(data.xs, data.labels):
        logits = forward_sequence(cell, head, x)
        hits += int(np.argmax(logits) == label)
    return hits / len(data)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float


def train(cell, head: Head, train_data: Dataset, test_data: Dataset,
          config: TrainConfig) -> list[EpochRecord]:
    """Minibatch ADAM training; deterministic given config.seed.

    Dropout acts on the final hidden state before the head, during
    training only. One history record per epoch; epochs=0 returns an
    empty history and leaves all parameters untouched. A ``TrainingError``
    names its 0-based epoch and minibatch.
    """
    params = dict(cell.params())
    params["head.w"] = head.w
    params["head.b"] = head.b
    state = AdamState()
    rng = np.random.default_rng(config.seed)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_data))
        loss_sum = 0.0
        batch_count = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start: start + config.batch_size]
            batch = [(train_data.xs[i], int(train_data.labels[i])) for i in idx]
            try:
                loss, grads = bptt(cell, head, batch,
                                   dropout_rate=config.dropout_rate, rng=rng)
                adam_step(params, grads, state, config)
            except TrainingError as exc:
                raise TrainingError(f"epoch {epoch} minibatch {batch_count}: {exc}") from exc
            loss_sum += loss
            batch_count += 1
        history.append(EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / batch_count,
            train_acc=evaluate(cell, head, train_data),
            test_acc=evaluate(cell, head, test_data),
        ))
    return history


def history_csv(history) -> str:
    lines = ["epoch,train_loss,train_acc,test_acc"]
    for rec in history:
        lines.append(f"{rec.epoch},{rec.train_loss:.6f},{rec.train_acc:.6f},{rec.test_acc:.6f}")
    return "\n".join(lines) + "\n"
