"""Finite-difference verification suites over layers and a tiny end-to-end model.

A layer target draws its tensors as Variables and gives the function of them
to check. The loss is that function's projection onto a random cotangent w,
<w, f(...)>, as in JAX's ``check_grads``: a transposed or misrouted backward
shows, where a uniform sum over the output can hide it. A function with
several outputs, such as an LSTM step's (h, c), gets one cotangent each.
``_redraw`` draws again while a draw lies within finite-difference reach of a
relu kink or a max-pool tie, or has a gradient below its resolution, and
``_worst`` differences each Variable of the draw in place in turn and keeps the
largest error. So the checks hold for any seed, not just the shipped defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable

import numpy as np

from . import layers as L
from .autodiff import Tape, Variable, backward, finite_diff_check, record
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


def _tensors(*containers) -> list[Variable]:
    return [v for p in containers for _name, v in p.named()]


def _clear_of_kinks(preact: np.ndarray) -> bool:
    return bool(np.abs(preact).min() >= _KINK_MARGIN)


def _clear_of_ties(a: np.ndarray) -> bool:
    """True when each maximum over axis 1 leads the runner-up by the margin."""
    top2 = np.sort(a, axis=1)[:, -2:]
    return bool((top2[:, 1] - top2[:, 0]).min() >= _KINK_MARGIN)


def _projection(outs: tuple[Variable, ...], ws: list[np.ndarray]) -> Variable:
    """The scalar sum of <w, out> over the outputs; its backward hands each its own cotangent w."""
    result = Variable(sum(np.sum(w * out.value) for w, out in zip(ws, outs)))

    def bw(g: np.ndarray) -> None:
        for w, out in zip(ws, outs):
            out.ensure_grad()[...] += g * w

    return record("projection", result, bw)


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


def _redraw(draw, floor: float) -> tuple[list[Variable], Callable[[], Variable]]:
    """The first of up to 100 draws ``draw() -> (variables, loss, clear)`` that
    is ``clear`` of kinks and ties and whose gradients are resolvable at
    ``floor``, or else the last one, as (variables, loss)."""
    for _ in range(100):
        variables, loss, clear = draw()
        if clear and _resolvable(variables, loss, floor):
            break
    return variables, loss


def _worst(variables: list[Variable], loss) -> float:
    """Worst finite-difference error of the scalar ``loss()`` over each Variable,
    differenced in place while the others hold their values."""
    return max(finite_diff_check(lambda _v: loss(), v) for v in variables)


def _check(target, rng: np.random.Generator) -> float:
    """Worst error of ``target(rng) -> (variables, f, clear)``, projected onto a
    standard normal cotangent for each output of f (a Variable, or a tuple of
    them), on its first resolvable draw. The cotangents come from a child of
    rng's seed, so they leave rng's own stream to the target's tensors."""
    cotangents = np.random.default_rng(rng.bit_generator.seed_seq.spawn(1)[0])

    def draw():
        variables, f, clear = target(rng)
        outs = f if isinstance(f(), tuple) else lambda: (f(),)
        ws = [cotangents.standard_normal(out.shape) for out in outs()]
        return variables, lambda: _projection(outs(), ws), clear

    return _worst(*_redraw(draw, _GRAD_FLOOR))


def _embed(rng, pool: bool = False):
    """A repeated id exercises the scatter-add; pooled, ids 0 and 3 lie only in padding."""
    batch = EncodedBatch(ids=np.array([[1, 4, 1], [2, 0, 3]]), lengths=np.array([3, 1]), labels=np.zeros(2))
    p = L.EmbeddingParams(Variable(_uniform(rng, 5, 3)))
    return [p.table], lambda: L.embed(batch, p, pool=pool), True


def _gru_cell(rng):
    batch, in_dim, hidden = 2, 2, 3
    p = L.GruParams.create(rng, in_dim, hidden)
    x, h = Variable(_uniform(rng, batch, in_dim)), Variable(_uniform(rng, batch, hidden))
    return [x, h, *_tensors(p)], lambda: L.gru_cell_step(x, h, p), True


def _lstm_cell(rng):
    batch, in_dim, hidden = 2, 2, 3
    p = L.LstmParams.create(rng, in_dim, hidden)
    x, h, c = (Variable(_uniform(rng, batch, d)) for d in (in_dim, hidden, hidden))
    return [x, h, c, *_tensors(p)], lambda: L.lstm_cell_step(x, (h, c), p), True


def _scan(rng, cls, scan):
    """Both directions of ``scan``, as two outputs."""
    batch, steps, in_dim, hidden = 2, 3, 2, 3
    p = cls.create(rng, in_dim, hidden)
    x = Variable(_uniform(rng, batch, steps, in_dim))
    return [x, *_tensors(p)], lambda: tuple(scan(x, p, d) for d in ("forward", "backward")), True


def _birnn_context(rng):
    batch, steps, embed, hidden = 2, 3, 2, 2
    x = Variable(_uniform(rng, batch, steps, embed))
    pair = [L.GruParams.create(rng, embed, hidden) for _ in range(2)]  # forward, backward
    return [x, *_tensors(*pair)], lambda: L.birnn_context(x, *pair), True


def _highway(rng, steps: int = 3):
    batch, d = 2, 4
    p = L.HighwayParams.create(rng, d)
    x = _uniform(rng, batch, steps, d)
    clear = _clear_of_kinks(x.reshape(-1, d) @ p.w_h.value + p.b_h.value)
    x = Variable(x)
    return [x, *_tensors(p)], lambda: L.highway_forward(x, p), clear


def _dense_relu(rng, steps: int = 3):
    batch, d, width = 2, 4, 3
    p = L.DenseParams.create(rng, d, width)
    x = _uniform(rng, batch, steps, d)
    clear = _clear_of_kinks(x.reshape(-1, d) @ p.w.value + p.b.value)
    x = Variable(x)
    return [x, *_tensors(p)], lambda: L.dense_relu_positions(x, p), clear


def _live(rng, block):
    """``block`` over six positions under a window-1 pooled convolution, which
    sends gradient to at most B·F = 4 of its 12 rows, so its backward gathers
    the live rows. Clear also when the convolution's responses are."""
    variables, f, clear = block(rng, steps=6)
    conv = L.ConvParams.create(rng, 1, f().shape[-1], 2)
    responses = f().value @ conv.filters.value.T + conv.bias.value
    clear = clear and _clear_of_kinks(responses) and _clear_of_ties(responses)
    return variables, lambda: L.conv1d_forward(f(), conv, pool=True), clear


def _conv(rng, window: int, pool: bool = False):
    """Clear when every biased response, and with ``pool`` each
    (batch, filter)'s maximum over time, is ``_KINK_MARGIN`` clear."""
    batch, steps, d, filters = 2, 4, 2, 3
    p = L.ConvParams.create(rng, window, d, filters)
    y = _uniform(rng, batch, steps, d)
    wins = [y[:, i : i + window, :].reshape(batch, -1) for i in range(steps - window + 1)]
    responses = np.stack([win @ p.filters.value.T + p.bias.value for win in wins], axis=1)
    clear = _clear_of_kinks(responses) and (not pool or _clear_of_ties(responses))
    y = Variable(y)
    return [y, *_tensors(p)], lambda: L.conv1d_forward(y, p, pool=pool), clear


def _maxpool(rng):
    x = _uniform(rng, 2, 4, 3)
    clear = _clear_of_ties(x)
    x = Variable(x)
    return [x], lambda: L.maxpool_over_time(x), clear


def _over_time(rng, reduce, lengths):
    x = Variable(_uniform(rng, 2, 4, 3))
    return [x], lambda: reduce(x, lengths), True


def _dense_softmax(rng):
    batch, d, classes = 3, 4, 3
    w = L.glorot_uniform(rng, d, classes)
    b = rng.uniform(-0.5, 0.5, classes)
    x, w, b = head = [Variable(_uniform(rng, batch, d)), Variable(w), Variable(b)]
    return head, lambda: L.dense_softmax(x, L.DenseParams(w, b)), True


def _softmax_cross_entropy(rng):
    head, probs, clear = _dense_softmax(rng)
    return head, lambda: cross_entropy_loss(probs(), np.array([0, 2, 1])), clear


def _broken_square(v: Variable) -> Variable:
    """Squares ``v`` with a deliberately wrong backward rule."""
    out = Variable(v.value * v.value)

    def bw(g):
        v.ensure_grad()[...] += g  # should be g * 2 * v.value

    return record("broken_square", out, bw)


def _injected_bug(rng):
    """Negative control: an op whose backward rule is deliberately wrong."""
    v = Variable(_uniform(rng, 2, 3))
    return [v], lambda: _broken_square(v), True


LAYER_TARGETS = [
    ("embed", _embed),
    ("gru_cell_step", _gru_cell),
    ("lstm_cell_step", _lstm_cell),
    ("birnn_context", _birnn_context),
    ("highway_forward", _highway),
    ("conv1d_forward_w1", partial(_conv, window=1)),
    ("conv1d_forward_w2", partial(_conv, window=2)),
    ("maxpool_over_time", _maxpool),
    ("mean_over_time", partial(_over_time, reduce=L.mean_over_time, lengths=np.array([4, 2]))),
    ("sum_over_time", partial(_over_time, reduce=L.sum_over_time, lengths=np.array([3, 1]))),
    ("dense_softmax", _dense_softmax),
    ("softmax_cross_entropy", _softmax_cross_entropy),
    # Appended, not inserted: a target's seeds derive from its index.
    ("gru_scan", partial(_scan, cls=L.GruParams, scan=L.gru_scan)),
    ("lstm_scan", partial(_scan, cls=L.LstmParams, scan=L.lstm_scan)),
    ("conv1d_pool_w1", partial(_conv, window=1, pool=True)),
    ("conv1d_pool_w2", partial(_conv, window=2, pool=True)),
    ("dense_relu_positions", _dense_relu),
    ("embed_pool", partial(_embed, pool=True)),
    ("highway_live", partial(_live, block=_highway)),
    ("dense_relu_live", partial(_live, block=_dense_relu)),
]


def _check_base_seed(base_seed: int) -> None:
    if base_seed < 0:
        raise ConfigError(f"gradcheck seed must be >= 0, got {base_seed}")


def run_layer_checks(base_seed: int = 0, seeds: int = 5, inject_bug: bool = False) -> list[CheckResult]:
    """Max relative error per layer target across ``seeds`` random draws."""
    _check_base_seed(base_seed)
    targets = list(LAYER_TARGETS)
    if inject_bug:
        targets.append(("injected_bug", _injected_bug))
    results = []
    for idx, (name, fn) in enumerate(targets):
        worst = 0.0
        for k in range(seeds):
            worst = max(worst, _check(fn, np.random.default_rng(base_seed + 1000 * k + idx)))
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
        draws = count((base_seed + k) * 7919)

        def loss():
            return cross_entropy_loss(model.forward(batch), batch.labels)

        def draw():
            rng = np.random.default_rng(next(draws))
            for p in model.parameters():
                p.value[...] = rng.uniform(-1.0, 1.0, p.value.shape)
            return model.parameters(), loss, True

        _redraw(draw, 1e-7)
        for name, p in model.params.items():
            worst[name] = max(worst.get(name, 0.0), finite_diff_check(lambda _v: loss(), p))
    return [CheckResult(name, err) for name, err in worst.items()]
