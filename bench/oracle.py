"""Independent forward passes for the benchmark's correctness checks.

Plain numpy over a ``{name: array}`` parameter dict, written from the model
equations, not from the package: nothing here imports ``rcnnlab``. The
GRU hoists its input projections over all time steps and the convolution
uses a sliding-window view with one matmul, so the arithmetic is organised
differently from the package's per-step tape ops and agrees with them only
to rounding.

Relu and max-pool are the only places where the output is not smooth in the
parameters. Their choices (which relu inputs pass, which position each filter
keeps) go through a ``Selections`` object, which can record them on one pass
and replay them on later ones; see ``Selections``.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class Selections:
    """The piecewise choices of a forward pass, in the order they are made.

    A fresh instance records each choice: relu passes inputs above 0, and
    max-pool keeps each filter's first maximal position. One made with
    ``frozen=`` replays the choices of that earlier pass instead. With every
    choice fixed, the loss is smooth in the parameters, so central differences
    around the recorded point give its derivative even where a step would
    cross a kink: a relu input or a max-pool tie within the step of the
    boundary. The derivative is the one-sided one that these choices select,
    which is what the package's backward rules compute.
    """

    def __init__(self, frozen: Selections | None = None):
        self.choices = [] if frozen is None else frozen.choices
        self.replaying = frozen is not None
        self.used = 0

    def _choose(self, make):
        if not self.replaying:
            self.choices.append(make())
        choice = self.choices[self.used]
        self.used += 1
        return choice

    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.where(self._choose(lambda: x > 0.0), x, 0.0)

    def max(self, x: np.ndarray, axis: int) -> np.ndarray:
        idx = self._choose(lambda: np.argmax(x, axis=axis))
        return np.take_along_axis(x, np.expand_dims(idx, axis), axis=axis).squeeze(axis)


def _gru(p: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    """States of a GRU run left to right over x [B, T, d]."""
    batch, steps, _ = x.shape
    xr, xz, xh = (x @ p[f"{prefix}.w_{g}"] + p[f"{prefix}.b_{g}"] for g in "rzh")
    h = np.zeros((batch, p[f"{prefix}.b_r"].shape[0]))
    out = np.empty((batch, steps, h.shape[1]))
    for t in range(steps):
        r = _sigmoid(xr[:, t] + h @ p[f"{prefix}.u_r"])
        z = _sigmoid(xz[:, t] + h @ p[f"{prefix}.u_z"])
        cand = np.tanh(xh[:, t] + (r * h) @ p[f"{prefix}.u_h"])
        h = z * h + (1.0 - z) * cand
        out[:, t] = h
    return out


def _conv_maxpool(p: dict, prefix: str, x: np.ndarray, window: int, sel: Selections) -> np.ndarray:
    """relu(valid convolution) then max over positions: [B, T, d] -> [B, F]."""
    batch, steps, width = x.shape
    # [B, L, d, window] -> [B, L, window, d], flattened row-major per window.
    views = np.lib.stride_tricks.sliding_window_view(x, window, axis=1)
    cols = views.transpose(0, 1, 3, 2).reshape(batch, steps - window + 1, window * width)
    fmap = sel.relu(cols @ p[f"{prefix}.filters"].T + p[f"{prefix}.bias"])
    return sel.max(fmap, axis=1)


def forward(p: dict, kind: str, ids: np.ndarray, lengths: np.ndarray, cnn_windows=(), highway_layers: int = 0,
            selections: Selections | None = None) -> np.ndarray:
    """Class probabilities [B, classes] for one of the benchmarked kinds.
    ``selections`` records or replays the relu and max-pool choices."""
    sel = Selections() if selections is None else selections
    x = p["embedding.table"][ids]
    if kind == "cow":
        mask = np.arange(ids.shape[1])[None, :, None] < lengths[:, None, None]
        pooled = (x * mask).sum(axis=1)
    elif kind == "cnn":
        pooled = np.concatenate(
            [_conv_maxpool(p, f"convs{i}", x, w, sel) for i, w in enumerate(cnn_windows)], axis=1
        )
    elif kind == "rcnn-hw":
        fwd = _gru(p, "gru_fwd", x)
        bwd = _gru(p, "gru_bwd", x[:, ::-1])[:, ::-1]
        y = np.concatenate([bwd, x, fwd], axis=2)
        for k in range(highway_layers):
            gate = _sigmoid(y @ p[f"highway{k}.w_t"] + p[f"highway{k}.b_t"])
            y = gate * sel.relu(y @ p[f"highway{k}.w_h"] + p[f"highway{k}.b_h"]) + (1.0 - gate) * y
        pooled = _conv_maxpool(p, "conv", y, 1, sel)
    else:
        raise ValueError(f"no oracle for model kind {kind!r}")
    if sel.used != len(sel.choices):
        raise ValueError(f"replayed {sel.used} of {len(sel.choices)} recorded choices")
    logits = pooled @ p["head.w"] + p["head.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def loss(p: dict, kind: str, ids, lengths, labels, selections: Selections | None = None, **spec) -> float:
    """Mean negative log probability of the true class."""
    probs = forward(p, kind, ids, lengths, selections=selections, **spec)
    return float(-np.mean(np.log(probs[np.arange(len(labels)), labels])))
