"""Teacher-student distillation: the losses and the student's training step.

The objective combines three terms,

    loss = mu * soft_label_loss + beta * hard_label_loss + lambda * sp_loss

where the soft-label term is the cross entropy of the student's
log-posteriors against the frozen teacher's posteriors (the constant
teacher-entropy part of the KL divergence is dropped), the hard-label term
is the usual cross entropy against ground truth, and the solving-procedure
term compares Frobenius-normalized differences of attention maps taken at
matching points of the two networks.

All components are averaged over the minibatch so the weights are
batch-size independent; the logged component values are pre-weighting.
The teacher is frozen, so its outputs for a sample never change: its
posteriors and SPMs are computed once per training run, in eval mode and
without a graph, and every step reads them as constants (offline
distillation). No gradient ever reaches teacher parameters. The student
is trained by the same SGD loop as any classifier (``train._sgd_loop``);
only its per-batch loss differs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .arch import Model
from .data import Dataset, batches
from .errors import ArchError
from .tensor import Tensor
from .train import BATCH_SIZE, _sgd_loop, constant_schedule

ZERO_NORM_EPS = 1e-12
_NORM_TINY = 1e-30   # keeps sqrt differentiable at an all-zero map


def attention_map(feature: Tensor) -> Tensor:
    """Plain channel sum of a (N, C, H, W) feature map -> (N, H, W)."""
    if feature.ndim != 4:
        raise ValueError(f"attention_map expects a 4-D feature map, got {feature.shape}")
    return T.tsum(feature, axis=1)


def spm(a_i: Tensor, a_j: Tensor) -> Tensor:
    """Solving-procedure matrix: elementwise a_j - a_i for a tap pair (i, j)."""
    if a_i.shape != a_j.shape:
        raise ValueError(f"attention maps differ in shape: {a_i.shape} vs {a_j.shape}")
    return T.sub(a_j, a_i)


def _normalized(s: Tensor) -> tuple[Tensor, np.ndarray]:
    """Per-sample Frobenius-normalized map and the raw norms (constants)."""
    ssq = T.tsum(T.square(s), axis=(1, 2), keepdims=True)
    norm = T.sqrt(T.add(ssq, Tensor(np.asarray(_NORM_TINY, dtype=s.dtype))))
    return T.div(s, norm), np.sqrt(ssq.data)


def sp_loss(teacher_spms: list[Tensor], student_spms: list[Tensor]) -> Tensor:
    """Mean squared distance of normalized teacher/student solving procedures.

    Terms whose teacher or student map has Frobenius norm below 1e-12
    contribute zero for that sample/pair. The result is averaged over the
    minibatch and over the number of pairs.
    """
    if len(teacher_spms) != len(student_spms):
        raise ValueError(f"SPM list lengths differ: {len(teacher_spms)} vs "
                         f"{len(student_spms)}")
    n_pairs = len(teacher_spms)
    if n_pairs == 0:
        raise ValueError("need at least one SPM pair")
    total: Tensor | None = None
    batch = None
    for s_teacher, s_student in zip(teacher_spms, student_spms):
        if s_teacher.shape != s_student.shape:
            raise ValueError(f"SPM shapes differ: {s_teacher.shape} vs "
                             f"{s_student.shape}")
        if s_student.ndim != 3:
            raise ValueError("SPMs must be (batch, D, D)")
        batch = s_student.shape[0]
        t_ssq = (s_teacher.data.astype(s_student.dtype) ** 2).sum(
            axis=(1, 2), keepdims=True)
        t_hat = s_teacher.data / np.sqrt(t_ssq + _NORM_TINY)
        s_hat, s_norm = _normalized(s_student)
        mask = ((np.sqrt(t_ssq) >= ZERO_NORM_EPS) & (s_norm >= ZERO_NORM_EPS))
        diff = T.sub(s_hat, Tensor(t_hat))
        per_sample = T.tsum(T.square(diff), axis=(1, 2), keepdims=True)
        term = T.tsum(T.mul(per_sample, Tensor(mask.astype(s_student.dtype))))
        total = term if total is None else T.add(total, term)
    scale = Tensor(np.asarray(1.0 / (n_pairs * batch), dtype=total.dtype))
    return T.mul(total, scale)


def soft_cross_entropy(student_log_probs: Tensor, teacher_probs: Tensor | np.ndarray,
                       ) -> Tensor:
    """- mean_t sum_s p_teacher(s) * log p_student(s); teacher is constant."""
    probs = teacher_probs.data if isinstance(teacher_probs, Tensor) else \
        np.asarray(teacher_probs)
    if probs.shape != student_log_probs.shape:
        raise ValueError(f"shape mismatch: teacher {probs.shape} vs student "
                         f"{student_log_probs.shape}")
    row_sums = probs.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-4:
        raise ValueError("teacher posterior rows must sum to 1 (within 1e-4)")
    batch = student_log_probs.shape[0]
    weighted = T.mul(student_log_probs, Tensor(probs.astype(student_log_probs.dtype)))
    return T.mul(T.tsum(weighted),
                 Tensor(np.asarray(-1.0 / batch, dtype=student_log_probs.dtype)))


def cross_entropy(student_log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """- mean_t log p_student(label_t)."""
    labels = np.asarray(labels)
    batch, n_classes = student_log_probs.shape
    if labels.shape != (batch,):
        raise ValueError(f"labels must be ({batch},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels out of range [0, {n_classes})")
    onehot = np.zeros((batch, n_classes), dtype=student_log_probs.dtype)
    onehot[np.arange(batch), labels] = 1.0
    picked = T.mul(student_log_probs, Tensor(onehot))
    return T.mul(T.tsum(picked),
                 Tensor(np.asarray(-1.0 / batch, dtype=student_log_probs.dtype)))


def kd_loss(soft: Tensor, hard: Tensor, mu: float, beta: float) -> Tensor:
    """mu * soft + beta * hard, from the terms ``soft_cross_entropy`` and
    ``cross_entropy`` return."""
    if mu < 0 or beta < 0:
        raise ValueError("loss weights must be non-negative")
    if mu + beta <= 0:
        raise ValueError("mu + beta must be positive")
    return T.add(T.mul(soft, Tensor(np.asarray(mu, soft.dtype))),
                 T.mul(hard, Tensor(np.asarray(beta, hard.dtype))))


def total_loss(kd: Tensor, sp: Tensor, lam: float) -> Tensor:
    """kd + lambda * sp; differentiable through the student only."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return T.add(kd, T.mul(sp, Tensor(np.asarray(lam, sp.dtype))))


@dataclass
class DistillConfig:
    """Weights, tap pairs, optimizer settings and the seed for one run."""

    mu: float = 0.8
    beta: float = 0.2
    lam: float = 0.1
    tap_pairs: list[tuple[str, str]] | None = None   # None: derive from the arch
    epochs: int = 1
    batch_size: int = BATCH_SIZE
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("mu", "beta", "lam", "lr", "momentum", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu < 0 or self.beta < 0 or self.lam < 0:
            raise ValueError("loss weights must be non-negative")
        if self.mu + self.beta <= 0:
            raise ValueError("mu + beta must be positive")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid batch size or epoch count")


def resolve_tap_pairs(teacher: Model, student: Model,
                      config: DistillConfig) -> list[tuple[str, str]]:
    pairs = config.tap_pairs or teacher.arch.default_tap_pairs()
    if not pairs:
        raise ArchError("no tap pairs available; architectures carry no taps")
    t_shapes = teacher.arch.tap_shapes()
    s_shapes = student.arch.tap_shapes()
    for i, j in pairs:
        for name in (i, j):
            if name not in t_shapes:
                raise ArchError(f"teacher has no tap named {name!r}")
            if name not in s_shapes:
                raise ArchError(f"student has no tap named {name!r}")
            if t_shapes[name][1:] != s_shapes[name][1:]:
                raise ArchError(
                    f"tap {name!r} spatial mismatch: teacher {t_shapes[name]} vs "
                    f"student {s_shapes[name]}")
        if t_shapes[i][1:] != t_shapes[j][1:]:
            raise ArchError(f"tap pair ({i}, {j}) differs in spatial size")
    return list(pairs)


def spms_from_taps(taps: dict[str, Tensor],
                   pairs: list[tuple[str, str]]) -> list[Tensor]:
    return [spm(attention_map(taps[i]), attention_map(taps[j])) for i, j in pairs]


def _teacher_targets(teacher: Model, data: Dataset, pairs: list[tuple[str, str]],
                     batch_size: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The frozen teacher's softmax probabilities (N, classes) and one SPM
    array (N, H, W) per tap pair for every sample, in dataset order, from
    one eval-mode pass without a graph."""
    probs: list[np.ndarray] = []
    spms: list[list[np.ndarray]] = [[] for _ in pairs]
    with T.no_grad():
        for images, _ in batches(data, batch_size):
            taps: dict[str, Tensor] = {}
            probs.append(T.softmax(teacher.forward(images, training=False,
                                                   taps=taps)).data)
            for acc, s in zip(spms, spms_from_taps(taps, pairs)):
                acc.append(s.data)
    return np.concatenate(probs), [np.concatenate(acc) for acc in spms]


def distill_train(teacher: Model, student: Model, train_data: Dataset,
                  config: DistillConfig, checkpoint_prefix=None,
                  on_row: Callable[[dict], None] | None = None) -> list[dict]:
    """Minibatch SGD of the student against the frozen teacher, by the loop
    ``train_classifier`` uses (``train._sgd_loop``) with this loss.

    The teacher's targets are computed once, by ``_teacher_targets``, and
    each step indexes them; the teacher's parameters are left as they were.
    Returns one metrics row per iteration: iteration, kl, ce, sp, total, lr
    (component losses pre-weighting). ``checkpoint_prefix`` and ``on_row``
    act as in ``train_classifier``.
    """
    pairs = resolve_tap_pairs(teacher, student, config)
    n = len(train_data)
    if config.epochs >= 1 and n:
        t_probs, t_spms = _teacher_targets(teacher, train_data, pairs, config.batch_size)

    def step(idx, epoch):
        s_taps: dict[str, Tensor] = {}
        log_probs = T.log_softmax(student.forward(train_data.images[idx],
                                                  training=True, taps=s_taps))
        kl = soft_cross_entropy(log_probs, t_probs[idx])
        ce = cross_entropy(log_probs, train_data.labels[idx])
        sp = sp_loss([Tensor(s[idx]) for s in t_spms], spms_from_taps(s_taps, pairs))
        loss = total_loss(kd_loss(kl, ce, config.mu, config.beta), sp, config.lam)
        terms = {"kl": kl.item(), "ce": ce.item(), "sp": sp.item()}
        return loss, lambda iteration, value, lr: {
            "iteration": iteration, **terms, "total": value, "lr": lr}

    return _sgd_loop(student, n, step, epochs=config.epochs,
                     batch_size=config.batch_size, seed=config.seed,
                     schedule=constant_schedule(config.lr), momentum=config.momentum,
                     weight_decay=config.weight_decay,
                     checkpoint_prefix=checkpoint_prefix, on_row=on_row)
