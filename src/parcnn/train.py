"""Optimizer, schedules, the SGD training loop, evaluation and weight statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .arch import Model
from .data import Dataset, batch_indices, batches
from .errors import NumericalError
from .tensor import Tensor

# The one default batch: of training, distillation, the CLI's --batch and
# evaluation alike.
BATCH_SIZE = 64


class SGDMomentum:
    """Classical momentum SGD with coupled weight decay.

    Update rule:  v <- m * v + g + wd * theta;  theta <- theta - lr * v.
    """

    def __init__(self, params: list[tuple[str, Tensor]], momentum: float = 0.9,
                 weight_decay: float = 0.0):
        if not (0 <= momentum < math.inf and 0 <= weight_decay < math.inf):
            raise ValueError("momentum and weight decay must be finite and non-negative")
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for _, p in params]

    def step(self, lr: float) -> None:
        if not 0 <= lr < math.inf:
            raise ValueError(f"learning rate must be finite and non-negative, got {lr}")
        for (name, p), v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            if p.grad.shape != p.data.shape:
                raise ValueError(f"gradient shape mismatch on {name}")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= lr * v


def constant_schedule(lr: float) -> Callable[[int], float]:
    if not math.isfinite(lr):
        raise ValueError(f"learning rate must be finite, got {lr}")
    if lr <= 0:
        raise ValueError("learning rate must be positive")

    def schedule(step: int) -> float:
        if step < 0:
            raise ValueError("step must be non-negative")
        return lr

    return schedule


DECAY_FACTOR = 0.92
DECAY_EVERY = 4000


def step_decay_schedule(lr0: float, floor: float | None = None) -> Callable[[int], float]:
    """lr0 * DECAY_FACTOR ** (step // DECAY_EVERY), at least ``floor`` if given."""
    if not (0 < lr0 < math.inf and (floor is None or math.isfinite(floor))):
        raise ValueError("invalid schedule parameters")

    def schedule(step: int) -> float:
        if step < 0:
            raise ValueError("step must be non-negative")
        lr = lr0 * DECAY_FACTOR ** (step // DECAY_EVERY)
        if floor is not None:
            lr = max(lr, floor)
        return lr

    return schedule


@dataclass
class EvalResult:
    """Misclassified samples (``substitutions``) out of ``total``; ``cer`` is
    their share."""

    total: int
    substitutions: int

    def __post_init__(self):
        if min(self.total, self.substitutions) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def cer(self) -> float:
        return self.substitutions / self.total


def evaluate(model: Model, dataset: Dataset, batch_size: int = BATCH_SIZE) -> EvalResult:
    """Argmax classification error rate; ties break to the lowest class index.

    A run evaluates at the batch it trains with, so no forward-only pass of
    the run is larger than its training step and none sets its peak memory.
    The rate does not depend on ``batch_size``."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    wrong = 0
    with T.no_grad():
        for images, labels in batches(dataset, batch_size, shuffle_seed=None):
            logits = model.forward(images, training=False)
            pred = np.argmax(logits.data, axis=1)
            wrong += int((pred != labels).sum())
    return EvalResult(total=len(dataset), substitutions=wrong)


def _sgd_loop(model: Model, n: int, step, *, epochs, batch_size, seed, schedule,
              momentum, weight_decay, checkpoint_prefix=None, on_row=None,
              epoch_row=None) -> list[dict]:
    """Minibatch SGD over ``n`` samples in ``batch_indices`` order, for
    ``train_classifier`` and ``distill_train``. ``step(idx, epoch)`` returns
    a batch's loss and a function of (iteration, loss, lr) giving its metrics
    row; ``epoch_row(epoch, iteration)`` may add a row after each epoch. Each
    row is returned and passed to ``on_row`` as it is recorded. A NaN/Inf
    loss aborts with NumericalError, naming the per-epoch checkpoint left in
    place if this loop wrote one."""
    opt = SGDMomentum(model.params(), momentum=momentum, weight_decay=weight_decay)
    metrics: list[dict] = []

    def record(row: dict) -> None:
        metrics.append(row)
        if on_row is not None:
            on_row(row)

    kept = ""   # the checkpoint an abort leaves in place
    iteration = 0
    for epoch in range(epochs):
        for idx in batch_indices(n, batch_size, shuffle_seed=seed + epoch):
            loss, make_row = step(idx, epoch)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericalError(
                    f"training diverged at iteration {iteration} (loss={value}){kept}")
            model.zero_grad()
            loss.backward()
            lr = schedule(iteration)
            opt.step(lr)
            record(make_row(iteration, value, lr))
            iteration += 1
        if epoch_row is not None:
            record(epoch_row(epoch, iteration))
        if checkpoint_prefix is not None:
            model.save(checkpoint_prefix)
            kept = f"; checkpoint {checkpoint_prefix} of epoch {epoch} retained"
    return metrics


def train_classifier(model: Model, train_data: Dataset, epochs: int,
                     batch_size: int = BATCH_SIZE,
                     schedule: Callable[[int], float] | None = None,
                     momentum: float = 0.9, weight_decay: float = 1e-4,
                     seed: int = 0, eval_data: Dataset | None = None,
                     checkpoint_prefix=None,
                     on_row: Callable[[dict], None] | None = None) -> list[dict]:
    """Plain cross-entropy training; returns per-iteration metrics rows
    (epoch, iteration, loss, lr, test_error), plus a test-error row after
    each epoch if ``eval_data`` is given, evaluated at ``batch_size``.
    ``on_row`` gets each row as it is recorded, so the rows before a
    divergence abort can be kept; with ``checkpoint_prefix`` the model is
    saved after every epoch."""
    from .distill import cross_entropy  # local import to avoid a cycle

    def step(idx, epoch):
        logits = model.forward(train_data.images[idx], training=True)
        loss = cross_entropy(T.log_softmax(logits), train_data.labels[idx])
        return loss, lambda iteration, value, lr: {
            "epoch": epoch, "iteration": iteration, "loss": value, "lr": lr,
            "test_error": ""}

    def test_error_row(epoch, iteration):
        return {"epoch": epoch, "iteration": iteration, "loss": "", "lr": "",
                "test_error": evaluate(model, eval_data, batch_size).cer}

    return _sgd_loop(model, len(train_data), step, epochs=epochs,
                     batch_size=batch_size, seed=seed,
                     schedule=schedule or constant_schedule(0.01),
                     momentum=momentum, weight_decay=weight_decay,
                     checkpoint_prefix=checkpoint_prefix, on_row=on_row,
                     epoch_row=test_error_row if eval_data is not None else None)


def weight_histogram(model: Model, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of all conv/linear weights (biases and BN excluded).

    Returns (bin_edges, counts) with a symmetric range around zero.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    weights = [p.data.reshape(-1) for name, p in model.params()
               if name.endswith("weight") and p.ndim >= 2]
    if not weights:
        raise ValueError("model has no conv/linear weights")
    flat = np.concatenate(weights)
    limit = float(np.abs(flat).max())
    if limit == 0.0:
        limit = 1.0
    counts, edges = np.histogram(flat, bins=bins, range=(-limit, limit))
    return edges, counts


def histogram_csv(edges: np.ndarray, counts: np.ndarray) -> str:
    lines = ["bin_left,bin_right,count"]
    for i, c in enumerate(counts):
        lines.append(f"{edges[i]:.8g},{edges[i + 1]:.8g},{int(c)}")
    return "\n".join(lines) + "\n"
