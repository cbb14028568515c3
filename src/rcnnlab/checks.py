"""Finite-difference verification suites over layers and a tiny end-to-end model.

Random inputs are redrawn when they land within finite-difference reach of
a relu kink or a max-pool tie, so the checks are robust for any seed, not
just the shipped defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers as L
from .autodiff import Variable, finite_diff_check, record, sum_all
from .data import EncodedBatch
from .errors import GradCheckError
from .models import ModelSpec, build_model
from .optim import cross_entropy_loss

TOLERANCE = 1e-4
_KINK_MARGIN = 1e-3  # min distance from relu zero / max tie; FD steps are ~2e-5


@dataclass
class CheckResult:
    name: str
    max_rel_error: float

    def passed(self, tolerance: float = TOLERANCE) -> bool:
        return self.max_rel_error <= tolerance


def _uniform(rng, *shape):
    return rng.uniform(-2.0, 2.0, shape)


def _check_embed(rng) -> float:
    table = _uniform(rng, 5, 3)
    ids = np.array([[1, 4, 1], [2, 0, 3]])  # repeated id exercises scatter-add

    def f(v):
        return sum_all(L.sigmoid(L.embedding_lookup(v, ids)))

    return finite_diff_check(f, table)


def _check_gru_cell(rng) -> float:
    batch, in_dim, hidden = 2, 2, 3
    p = L.GruParams.create(rng, in_dim, hidden)
    x = _uniform(rng, batch, in_dim)
    h = _uniform(rng, batch, hidden)
    tensors = [("x", x), ("h", h)] + [(n, v.value) for n, v in p.named()]
    worst = 0.0
    for name, base in tensors:
        def f(v, name=name):
            xs = Variable(x) if name != "x" else v
            hs = Variable(h) if name != "h" else v
            q = L.GruParams(*[v if n == name else Variable(pv.value) for n, pv in p.named()])
            return sum_all(L.gru_cell_step(xs, hs, q))

        worst = max(worst, finite_diff_check(f, base))
    return worst


def _check_lstm_cell(rng) -> float:
    batch, in_dim, hidden = 2, 2, 3
    p = L.LstmParams.create(rng, in_dim, hidden)
    x = _uniform(rng, batch, in_dim)
    h = _uniform(rng, batch, hidden)
    c = _uniform(rng, batch, hidden)
    tensors = [("x", x), ("h", h), ("c", c)] + [(n, v.value) for n, v in p.named()]
    worst = 0.0
    for name, base in tensors:
        def f(v, name=name):
            xs = v if name == "x" else Variable(x)
            hs = v if name == "h" else Variable(h)
            cs = v if name == "c" else Variable(c)
            q = L.LstmParams(*[v if n == name else Variable(pv.value) for n, pv in p.named()])
            h_t, c_t = L.lstm_cell_step(xs, (hs, cs), q)
            return sum_all(h_t) + sum_all(c_t)

        worst = max(worst, finite_diff_check(f, base))
    return worst


def _scan_case(rng, cls, scan) -> float:
    batch, steps, in_dim, hidden = 2, 3, 2, 3
    p = cls.create(rng, in_dim, hidden)
    x = _uniform(rng, batch, steps, in_dim)
    tensors = [("x", x)] + [(n, v.value) for n, v in p.named()]
    worst = 0.0
    for direction in ("forward", "backward"):
        for name, base in tensors:
            def f(v, name=name, direction=direction):
                xs = v if name == "x" else Variable(x)
                q = cls(*[v if n == name else Variable(pv.value) for n, pv in p.named()])
                return sum_all(scan(xs, q, direction))

            worst = max(worst, finite_diff_check(f, base))
    return worst


def _check_gru_scan(rng) -> float:
    return _scan_case(rng, L.GruParams, L.gru_scan)


def _check_lstm_scan(rng) -> float:
    return _scan_case(rng, L.LstmParams, L.lstm_scan)


def _check_birnn_context(rng) -> float:
    batch, steps, embed, hidden = 2, 3, 2, 2
    x = _uniform(rng, batch, steps, embed)
    fwd = _uniform(rng, batch, steps, hidden)
    bwd = _uniform(rng, batch, steps, hidden)
    worst = 0.0
    for name, base in (("x", x), ("fwd", fwd), ("bwd", bwd)):
        def f(v, name=name):
            parts = {"x": Variable(x), "fwd": Variable(fwd), "bwd": Variable(bwd)}
            parts[name] = v
            return sum_all(L.sigmoid(L.birnn_context(parts["x"], parts["fwd"], parts["bwd"])))

        worst = max(worst, finite_diff_check(f, base))
    return worst


def _check_highway(rng) -> float:
    batch, steps, d = 2, 3, 4
    for _ in range(100):
        p = L.HighwayParams.create(rng, d)
        x = _uniform(rng, batch, steps, d)
        preact = x.reshape(-1, d) @ p.w_h.value + p.b_h.value
        if np.abs(preact).min() >= _KINK_MARGIN:
            break
    tensors = [("x", x)] + [(n, v.value) for n, v in p.named()]
    worst = 0.0
    for name, base in tensors:
        def f(v, name=name):
            xs = v if name == "x" else Variable(x)
            q = L.HighwayParams(*[v if n == name else Variable(pv.value) for n, pv in p.named()])
            return sum_all(L.highway_forward(xs, q))

        worst = max(worst, finite_diff_check(f, base))
    return worst


def _conv_case(rng, window: int) -> float:
    batch, steps, d, filters = 2, 4, 2, 3
    for _ in range(100):
        p = L.ConvParams.create(rng, window, d, filters)
        y = _uniform(rng, batch, steps, d)
        margins = []
        for i in range(steps - window + 1):
            win = y[:, i : i + window, :].reshape(batch, -1)
            margins.append(np.abs(win @ p.filters.value.T + p.bias.value).min())
        if min(margins) >= _KINK_MARGIN:
            break
    tensors = [("y", y), ("filters", p.filters.value), ("bias", p.bias.value)]
    worst = 0.0
    for name, base in tensors:
        def f(v, name=name):
            ys = v if name == "y" else Variable(y)
            q = L.ConvParams(
                v if name == "filters" else Variable(p.filters.value),
                v if name == "bias" else Variable(p.bias.value),
                window,
            )
            return sum_all(L.conv1d_forward(ys, q))

        worst = max(worst, finite_diff_check(f, base))
    return worst


def _check_conv_w1(rng) -> float:
    return _conv_case(rng, 1)


def _check_conv_w2(rng) -> float:
    return _conv_case(rng, 2)


def _check_maxpool(rng) -> float:
    batch, steps, filters = 2, 4, 3
    for _ in range(100):
        x = _uniform(rng, batch, steps, filters)
        top2 = np.sort(x, axis=1)[:, -2:, :]
        if (top2[:, 1, :] - top2[:, 0, :]).min() >= _KINK_MARGIN:
            break

    def f(v):
        return sum_all(L.maxpool_over_time(v))

    return finite_diff_check(f, x)


def _check_mean_over_time(rng) -> float:
    x = _uniform(rng, 2, 4, 3)
    lengths = np.array([4, 2])

    def f(v):
        return sum_all(L.sigmoid(L.mean_over_time(v, lengths)))

    return finite_diff_check(f, x)


def _check_sum_over_time(rng) -> float:
    x = _uniform(rng, 2, 4, 3)
    lengths = np.array([3, 1])

    def f(v):
        return sum_all(L.sigmoid(L.sum_over_time(v, lengths)))

    return finite_diff_check(f, x)


def _check_dense_softmax(rng) -> float:
    batch, d, classes = 3, 4, 3
    w = L.glorot_uniform(rng, d, classes)
    b = rng.uniform(-0.5, 0.5, classes)
    x = _uniform(rng, batch, d)
    worst = 0.0
    for name, base in (("x", x), ("w", w), ("b", b)):
        def f(v, name=name):
            xs = v if name == "x" else Variable(x)
            ws = v if name == "w" else Variable(w)
            bs = v if name == "b" else Variable(b)
            return sum_all(L.mul(L.dense_softmax(xs, ws, bs), L.dense_softmax(xs, ws, bs)))

        worst = max(worst, finite_diff_check(f, base))
    return worst


def _check_softmax_cross_entropy(rng) -> float:
    batch, d, classes = 3, 4, 3
    w = L.glorot_uniform(rng, d, classes)
    b = rng.uniform(-0.5, 0.5, classes)
    x = _uniform(rng, batch, d)
    labels = np.array([0, 2, 1])
    worst = 0.0
    for name, base in (("x", x), ("w", w), ("b", b)):
        def f(v, name=name):
            xs = v if name == "x" else Variable(x)
            ws = v if name == "w" else Variable(w)
            bs = v if name == "b" else Variable(b)
            return cross_entropy_loss(L.dense_softmax(xs, ws, bs), labels)

        worst = max(worst, finite_diff_check(f, base))
    return worst


def _check_injected_bug(rng) -> float:
    """Negative control: an op whose backward rule is deliberately wrong."""
    x = _uniform(rng, 2, 3)

    def broken_square(v):
        out = Variable(v.value * v.value)

        def bw(g):
            v.ensure_grad()[...] += g  # should be g * 2 * v.value

        return record("broken_square", out, bw)

    def f(v):
        return sum_all(broken_square(v))

    return finite_diff_check(f, x)


LAYER_TARGETS = [
    ("embed", _check_embed),
    ("gru_cell_step", _check_gru_cell),
    ("lstm_cell_step", _check_lstm_cell),
    ("birnn_context", _check_birnn_context),
    ("highway_forward", _check_highway),
    ("conv1d_forward_w1", _check_conv_w1),
    ("conv1d_forward_w2", _check_conv_w2),
    ("maxpool_over_time", _check_maxpool),
    ("mean_over_time", _check_mean_over_time),
    ("sum_over_time", _check_sum_over_time),
    ("dense_softmax", _check_dense_softmax),
    ("softmax_cross_entropy", _check_softmax_cross_entropy),
    # Appended, not inserted: a target's seeds derive from its index.
    ("gru_scan", _check_gru_scan),
    ("lstm_scan", _check_lstm_scan),
]


def run_layer_checks(base_seed: int = 0, seeds: int = 5, inject_bug: bool = False) -> list[CheckResult]:
    """Max relative error per layer target across ``seeds`` random draws."""
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


def _grads_resolvable(model, batch: EncodedBatch) -> bool:
    """True when every gradient coordinate is either structurally zero or
    large enough for central differences to resolve at the 1e-4 tolerance."""
    from .autodiff import Tape, backward

    model.zero_grads()
    with Tape() as tape:
        loss = cross_entropy_loss(model.forward(batch), batch.labels)
    backward(tape, loss)
    for p in model.parameters():
        if p.grad is None:
            continue
        a = np.abs(p.grad)
        if ((a > 1e-12) & (a < 1e-7)).any():
            return False
    model.zero_grads()
    return True


def run_model_checks(base_seed: int = 0, seeds: int = 5) -> list[CheckResult]:
    """End-to-end loss gradient check for every parameter of a tiny rcnn-hw.

    Parameters are redrawn uniform(-1, 1) at each seed; draws whose
    gradients fall below finite-difference resolution are retried.
    """
    batch = tiny_batch()
    worst: dict[str, float] = {}
    for k in range(seeds):
        model = build_model(tiny_rcnn_hw_spec(), rng_seed=base_seed + k)
        for draw in range(100):
            rng = np.random.default_rng((base_seed + k) * 7919 + draw)
            for p in model.parameters():
                p.value[...] = rng.uniform(-1.0, 1.0, p.value.shape)
            if _grads_resolvable(model, batch):
                break
        for name in model.params:
            slot_obj, attr = model.param_slots[name]
            original = getattr(slot_obj, attr)

            def f(v, slot_obj=slot_obj, attr=attr, original=original):
                setattr(slot_obj, attr, v)
                try:
                    return cross_entropy_loss(model.forward(batch), batch.labels)
                finally:
                    setattr(slot_obj, attr, original)

            err = finite_diff_check(f, original.value)
            worst[name] = max(worst.get(name, 0.0), err)
    return [CheckResult(name, err) for name, err in worst.items()]


def verify(results: list[CheckResult], tolerance: float = TOLERANCE) -> None:
    failed = [r for r in results if not r.passed(tolerance)]
    if failed:
        lines = ", ".join(f"{r.name}={r.max_rel_error:.3e}" for r in failed)
        raise GradCheckError(f"gradient check failed: {lines}")
