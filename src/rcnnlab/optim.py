"""Cross-entropy loss, gradient clipping, and the three adaptive optimizers
offered for training (RMSprop is the default)."""

from __future__ import annotations

from types import EllipsisType

import numpy as np

from .autodiff import Variable, record
from .errors import ConfigError, DataError, ShapeError

LOSS_CLAMP = 1e-12  # probability floor before the log, keeps the loss finite


def cross_entropy_loss(probs: Variable, labels: np.ndarray) -> Variable:
    """Mean negative log probability of the true class."""
    if probs.value.ndim != 2:
        raise ShapeError(f"expected [batch, classes] probabilities, got {probs.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    batch, classes = probs.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")
    if (labels < 0).any() or (labels >= classes).any():
        bad = int(labels[(labels < 0) | (labels >= classes)][0])
        raise DataError(f"label {bad} outside [0, {classes})")
    picked = probs.value[np.arange(batch), labels]
    clamped = np.maximum(picked, LOSS_CLAMP)
    out = Variable(-np.mean(np.log(clamped)))

    def bw(g: np.ndarray) -> None:
        # d/dp of -log(max(p, clamp)) is -1/p above the clamp, 0 below it.
        grad = np.zeros_like(probs.value)
        active = picked >= LOSS_CLAMP
        grad[np.arange(batch), labels] = np.where(active, -1.0 / (batch * clamped), 0.0)
        probs.ensure_grad()[...] += float(g) * grad

    return record("cross_entropy", out, bw)


def _rows(p: Variable) -> tuple[np.ndarray, np.ndarray | EllipsisType]:
    """``p``'s gradient on the rows it may be nonzero on, and those rows: a
    compact one's row sums as they are, else ``ensure_grad()`` on all rows
    (``...``)."""
    return (p.row_sums, p.grad_rows) if p.row_sums is not None else (p.ensure_grad(), ...)


def clip_gradients(params: list[Variable], max_norm: float = 5.0) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. A compact gradient's row sums are scaled in
    place, so it stays compact. Every gradient's squares fill its rows (all
    of them, ``...``, for a dense one) of a zero array shaped like its
    parameter, so that np.sum adds the dense gradient's squares in their
    pairwise order and the norm keeps its bits; summing the U rows of a
    compact one alone would not.
    """
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    grads, total = [(p, *_rows(p)) for p in params], 0.0
    for p, g, rows in grads:
        squares = np.zeros_like(p.value)
        squares[rows] = g * g
        total += float(np.sum(squares))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for _, g, _ in grads:
            g *= scale
    return norm


class _Optimizer:
    def __init__(self, params: list[Variable]):
        self.params = list(params)

    def zero_grads(self) -> None:
        for p in self.params:
            p.zero_grad()


class RmsProp(_Optimizer):
    """cache <- rho*cache + (1-rho)*g^2;  p <- p - lr*g/(sqrt(cache)+eps).

    The decay runs over the whole cache; the rest runs on every row of a dense
    gradient, and only on the rows of a row-compact one (``Variable.grad_rows``),
    reading its row sums without building its dense array. That is
    bit-identical to the dense update: on a zero-gradient row it computes
    rho*c + 0.0 with c >= 0 and p - 0.0, which leave the bits as they are.
    """

    def __init__(self, params, lr: float = 1e-3, rho: float = 0.9, eps: float = 1e-8):
        super().__init__(params)
        self.lr, self.rho, self.eps = lr, rho, eps
        self.cache = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        for p, cache in zip(self.params, self.cache):
            g, rows = _rows(p)
            cache *= self.rho
            cache[rows] += (1.0 - self.rho) * g * g
            p.value[rows] -= self.lr * g / (np.sqrt(cache[rows]) + self.eps)


class Adam(_Optimizer):
    """Bias-corrected first/second moments:
    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    p <- p - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)

    The update stays dense: it moves every row whose first moment is
    nonzero, not only the rows the gradient touched.
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.ensure_grad()
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class Adadelta(_Optimizer):
    """Accumulate squared gradients and squared updates:
    ag <- rho*ag + (1-rho)*g^2
    delta = -sqrt(ad + eps)/sqrt(ag + eps) * g
    ad <- rho*ad + (1-rho)*delta^2;  p <- p + lr*delta

    As in :class:`RmsProp`, the decays run over the whole accumulators and the
    rest only on the gradient's rows. On a zero-gradient row delta is -0.0,
    and rho*a + 0.0 and p + (-0.0) leave the bits as they are.
    """

    def __init__(self, params, lr: float = 1.0, rho: float = 0.95, eps: float = 1e-6):
        super().__init__(params)
        self.lr, self.rho, self.eps = lr, rho, eps
        self.acc_grad = [np.zeros_like(p.value) for p in self.params]
        self.acc_delta = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        for p, ag, ad in zip(self.params, self.acc_grad, self.acc_delta):
            g, rows = _rows(p)
            ag *= self.rho
            ag[rows] += (1.0 - self.rho) * g * g
            delta = -np.sqrt(ad[rows] + self.eps) / np.sqrt(ag[rows] + self.eps) * g
            ad *= self.rho
            ad[rows] += (1.0 - self.rho) * delta * delta
            p.value[rows] += self.lr * delta


OPTIMIZERS = {"rmsprop": RmsProp, "adam": Adam, "adadelta": Adadelta}


def check_optimizer(name: str) -> None:
    """Raise ConfigError unless ``name`` is a key of ``OPTIMIZERS``."""
    if name not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {name!r}; choose from {sorted(OPTIMIZERS)}")


def make_optimizer(name: str, params: list[Variable], lr: float | None = None) -> _Optimizer:
    """The named optimizer; ``lr=None`` keeps its constructor's default rate."""
    check_optimizer(name)
    return OPTIMIZERS[name](params) if lr is None else OPTIMIZERS[name](params, lr=lr)
