"""Finite-difference verification suites over layers and a tiny end-to-end model.

A layer target draws its tensors as Variables and gives a loss over them;
``_worst`` differences each Variable in place in turn and keeps the largest
error. Random inputs are redrawn when they land within finite-difference
reach of a relu kink or a max-pool tie, or below its resolution, so the
checks are robust for any seed, not just the shipped defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import layers as L
from .autodiff import Tape, Variable, backward, finite_diff_check, mul, record, sigmoid, sum_all
from .data import EncodedBatch
from .errors import ConfigError
from .models import ModelSpec, build_model
from .optim import cross_entropy_loss

TOLERANCE = 1e-4
_KINK_MARGIN = 1e-3  # min distance from relu zero / max tie; FD steps are ~2e-5
_GRAD_FLOOR = 1e-5  # FD rounding on these losses is ~4e-10, so ~4e-5 relative at this floor


@dataclass
class CheckResult:
    name: str
    max_rel_error: float

    def passed(self, tolerance: float = TOLERANCE) -> bool:
        return self.max_rel_error <= tolerance


def _uniform(rng, *shape):
    return rng.uniform(-2.0, 2.0, shape)


def _worst(variables: list[Variable], loss) -> float:
    """Worst finite-difference error of the scalar ``loss()`` over each Variable,
    differenced in place while the others hold their values."""
    return max(finite_diff_check(lambda _v: loss(), v) for v in variables)


def _check_embed(rng) -> float:
    ids = np.array([[1, 4, 1], [2, 0, 3]])  # repeated id exercises scatter-add
    return finite_diff_check(lambda t: sum_all(sigmoid(L.embedding_lookup(t, ids))), _uniform(rng, 5, 3))


def _check_gru_cell(rng) -> float:
    batch, in_dim, hidden = 2, 2, 3
    p = L.GruParams.create(rng, in_dim, hidden)
    x, h = Variable(_uniform(rng, batch, in_dim)), Variable(_uniform(rng, batch, hidden))
    return _worst([x, h, *dict(p.named()).values()], lambda: sum_all(L.gru_cell_step(x, h, p)))


def _check_lstm_cell(rng) -> float:
    batch, in_dim, hidden = 2, 2, 3
    p = L.LstmParams.create(rng, in_dim, hidden)
    x, h, c = (Variable(_uniform(rng, batch, d)) for d in (in_dim, hidden, hidden))

    def loss():
        h_t, c_t = L.lstm_cell_step(x, (h, c), p)
        return sum_all(h_t) + sum_all(c_t)

    return _worst([x, h, c, *dict(p.named()).values()], loss)


def _scan_case(rng, cls, scan) -> float:
    batch, steps, in_dim, hidden = 2, 3, 2, 3
    p = cls.create(rng, in_dim, hidden)
    x = Variable(_uniform(rng, batch, steps, in_dim))
    return max(
        _worst([x, *dict(p.named()).values()], lambda d=direction: sum_all(scan(x, p, d)))
        for direction in ("forward", "backward")
    )


def _check_birnn_context(rng) -> float:
    batch, steps, embed, hidden = 2, 3, 2, 2

    def loss():
        return sum_all(sigmoid(L.birnn_context(x, *pair)))

    for _ in range(100):
        x = Variable(_uniform(rng, batch, steps, embed))
        pair = [L.GruParams.create(rng, embed, hidden) for _ in range(2)]  # forward, backward
        variables = [x] + [v for p in pair for _n, v in p.named()]
        if _resolvable(variables, loss, _GRAD_FLOOR):
            break
    return _worst(variables, loss)


def _check_highway(rng) -> float:
    batch, steps, d = 2, 3, 4
    for _ in range(100):
        p = L.HighwayParams.create(rng, d)
        x = _uniform(rng, batch, steps, d)
        preact = x.reshape(-1, d) @ p.w_h.value + p.b_h.value
        if np.abs(preact).min() >= _KINK_MARGIN:
            break
    x = Variable(x)
    return _worst([x, *dict(p.named()).values()], lambda: sum_all(L.highway_forward(x, p)))


def _conv_case(rng, window: int, pool: bool = False) -> float:
    """Redraws until every biased response, and with ``pool`` each
    (batch, filter)'s top-2 gap over time, is ``_KINK_MARGIN`` clear."""
    batch, steps, d, filters = 2, 4, 2, 3
    for _ in range(100):
        p = L.ConvParams.create(rng, window, d, filters)
        y = _uniform(rng, batch, steps, d)
        wins = [y[:, i : i + window, :].reshape(batch, -1) for i in range(steps - window + 1)]
        responses = np.stack([win @ p.filters.value.T + p.bias.value for win in wins], axis=1)
        top2 = np.sort(responses, axis=1)[:, -2:]
        if np.abs(responses).min() >= _KINK_MARGIN and (not pool or (top2[:, 1] - top2[:, 0]).min() >= _KINK_MARGIN):
            break
    y = Variable(y)
    return _worst([y, *dict(p.named()).values()], lambda: sum_all(L.conv1d_forward(y, p, pool=pool)))


def _check_maxpool(rng) -> float:
    batch, steps, filters = 2, 4, 3
    for _ in range(100):
        x = _uniform(rng, batch, steps, filters)
        top2 = np.sort(x, axis=1)[:, -2:, :]
        if (top2[:, 1, :] - top2[:, 0, :]).min() >= _KINK_MARGIN:
            break
    return finite_diff_check(lambda v: sum_all(L.maxpool_over_time(v)), x)


def _check_mean_over_time(rng) -> float:
    lengths = np.array([4, 2])
    return finite_diff_check(lambda v: sum_all(sigmoid(L.mean_over_time(v, lengths))), _uniform(rng, 2, 4, 3))


def _check_sum_over_time(rng) -> float:
    lengths = np.array([3, 1])
    return finite_diff_check(lambda v: sum_all(sigmoid(L.sum_over_time(v, lengths))), _uniform(rng, 2, 4, 3))


def _head_variables(rng) -> list[Variable]:
    """Input, weights and bias of the softmax head, drawn as w, b, x."""
    batch, d, classes = 3, 4, 3
    w = L.glorot_uniform(rng, d, classes)
    b = rng.uniform(-0.5, 0.5, classes)
    return [Variable(_uniform(rng, batch, d)), Variable(w), Variable(b)]


def _check_dense_softmax(rng) -> float:
    x, w, b = head = _head_variables(rng)
    return _worst(head, lambda: sum_all(mul(L.dense_softmax(x, w, b), L.dense_softmax(x, w, b))))


def _check_softmax_cross_entropy(rng) -> float:
    labels = np.array([0, 2, 1])
    x, w, b = head = _head_variables(rng)
    return _worst(head, lambda: cross_entropy_loss(L.dense_softmax(x, w, b), labels))


def _broken_square(v: Variable) -> Variable:
    """Squares ``v`` with a deliberately wrong backward rule."""
    out = Variable(v.value * v.value)

    def bw(g):
        v.ensure_grad()[...] += g  # should be g * 2 * v.value

    return record("broken_square", out, bw)


def _check_injected_bug(rng) -> float:
    """Negative control: an op whose backward rule is deliberately wrong."""
    return finite_diff_check(lambda v: sum_all(_broken_square(v)), _uniform(rng, 2, 3))


LAYER_TARGETS = [
    ("embed", _check_embed),
    ("gru_cell_step", _check_gru_cell),
    ("lstm_cell_step", _check_lstm_cell),
    ("birnn_context", _check_birnn_context),
    ("highway_forward", _check_highway),
    ("conv1d_forward_w1", partial(_conv_case, window=1)),
    ("conv1d_forward_w2", partial(_conv_case, window=2)),
    ("maxpool_over_time", _check_maxpool),
    ("mean_over_time", _check_mean_over_time),
    ("sum_over_time", _check_sum_over_time),
    ("dense_softmax", _check_dense_softmax),
    ("softmax_cross_entropy", _check_softmax_cross_entropy),
    # Appended, not inserted: a target's seeds derive from its index.
    ("gru_scan", partial(_scan_case, cls=L.GruParams, scan=L.gru_scan)),
    ("lstm_scan", partial(_scan_case, cls=L.LstmParams, scan=L.lstm_scan)),
    ("conv1d_pool_w1", partial(_conv_case, window=1, pool=True)),
    ("conv1d_pool_w2", partial(_conv_case, window=2, pool=True)),
]


def _check_base_seed(base_seed: int) -> None:
    if base_seed < 0:
        raise ConfigError(f"gradcheck seed must be >= 0, got {base_seed}")


def run_layer_checks(base_seed: int = 0, seeds: int = 5, inject_bug: bool = False) -> list[CheckResult]:
    """Max relative error per layer target across ``seeds`` random draws."""
    _check_base_seed(base_seed)
    targets = list(LAYER_TARGETS)
    if inject_bug:
        targets.append(("injected_bug", _check_injected_bug))
    results = []
    for idx, (name, fn) in enumerate(targets):
        worst = 0.0
        for k in range(seeds):
            worst = max(worst, fn(np.random.default_rng(base_seed + 1000 * k + idx)))
        results.append(CheckResult(name, worst))
    return results


def tiny_rcnn_hw_spec(seq_len: int = 3) -> ModelSpec:
    return ModelSpec(
        kind="rcnn-hw",
        vocab_size=5,
        seq_len=seq_len,
        embed_dim=2,
        hidden_dim=1,
        num_filters=2,
        highway_layers=1,
    )


def tiny_batch() -> EncodedBatch:
    return EncodedBatch(
        ids=np.array([[1, 2, 3], [4, 1, 0], [2, 2, 4], [3, 0, 0]]),
        lengths=np.array([3, 2, 3, 1]),
        labels=np.array([0, 1, 1, 0]),
    )


def _resolvable(variables: list[Variable], loss, floor: float) -> bool:
    """True when every gradient coordinate of ``loss()`` is structurally
    zero or at least ``floor``, which central differences resolve."""
    for v in variables:
        v.zero_grad()
    with Tape() as tape:
        out = loss()
    backward(tape, out)
    grads = [np.abs(v.grad) for v in variables if v.grad is not None]
    return not any(((a > 1e-12) & (a < floor)).any() for a in grads)


def run_model_checks(base_seed: int = 0, seeds: int = 5) -> list[CheckResult]:
    """End-to-end loss gradient check for every parameter of a tiny rcnn-hw.

    Parameters are redrawn uniform(-1, 1) at each seed; draws whose
    gradients fall below finite-difference resolution are retried.
    """
    _check_base_seed(base_seed)
    batch = tiny_batch()
    worst: dict[str, float] = {}
    for k in range(seeds):
        model = build_model(tiny_rcnn_hw_spec(), rng_seed=base_seed + k)
        for draw in range(100):
            rng = np.random.default_rng((base_seed + k) * 7919 + draw)
            for p in model.parameters():
                p.value[...] = rng.uniform(-1.0, 1.0, p.value.shape)
            if _resolvable(model.parameters(), lambda: cross_entropy_loss(model.forward(batch), batch.labels), 1e-7):
                break
        for name, p in model.params.items():
            err = finite_diff_check(lambda _v: cross_entropy_loss(model.forward(batch), batch.labels), p)
            worst[name] = max(worst.get(name, 0.0), err)
    return [CheckResult(name, err) for name, err in worst.items()]

