"""Differentiable layers: embeddings, gated recurrent cells, highway blocks,
1-d convolution with max-over-time pooling, masked reductions, softmax head.

Layers are pure functions of (parameters, input); parameter containers are
plain dataclasses of Variables and may be shared read-only across threads.
Each layer is a kernel whose hand-written backward rule is registered
through ``autodiff.record``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

# concat is re-exported: models joins layer outputs through L.concat.
from .autodiff import Variable, _stable_sigmoid, concat, record, reshape
from .data import EncodedBatch
from .errors import ContractError, DataError, ShapeError


# ---------------------------------------------------------------------------
# Parameter containers and initialization
# ---------------------------------------------------------------------------

def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, (rows, cols))


def _draw(rng: np.random.Generator, shapes) -> list[Variable]:
    """In order, a Glorot-uniform matrix or a zero vector for each shape."""
    return [Variable(glorot_uniform(rng, *s) if len(s) == 2 else np.zeros(s)) for s in shapes]


@dataclass
class _Params:
    """Base of the parameter containers. Each declares its Variable fields
    and a ``shapes(*dims)`` that lists their shapes in the same order."""

    @classmethod
    def create(cls, rng, *dims):
        return cls(*_draw(rng, cls.shapes(*dims)))

    def named(self) -> list[tuple[str, Variable]]:
        return [(f.name, v) for f in fields(self) if isinstance(v := getattr(self, f.name), Variable)]


@dataclass
class EmbeddingParams(_Params):
    table: Variable  # [vocab_size, embed_dim]; row 0 = PAD, row 1 = UNK, both trainable

    @staticmethod
    def shapes(vocab_size: int, embed_dim: int):
        return [(vocab_size, embed_dim)]

    @classmethod
    def create(cls, rng, vocab_size: int, embed_dim: int) -> "EmbeddingParams":
        return cls(Variable(rng.uniform(-0.05, 0.05, (vocab_size, embed_dim))))


@dataclass
class GruParams(_Params):
    w_r: Variable
    w_z: Variable
    w_h: Variable
    u_r: Variable
    u_z: Variable
    u_h: Variable
    b_r: Variable
    b_z: Variable
    b_h: Variable

    @staticmethod
    def shapes(in_dim: int, hidden: int):
        return [(in_dim, hidden)] * 3 + [(hidden, hidden)] * 3 + [(hidden,)] * 3


@dataclass
class LstmParams(_Params):
    w_i: Variable
    w_f: Variable
    w_o: Variable
    w_c: Variable
    u_i: Variable
    u_f: Variable
    u_o: Variable
    u_c: Variable
    b_i: Variable
    b_f: Variable
    b_o: Variable
    b_c: Variable

    @staticmethod
    def shapes(in_dim: int, hidden: int):
        return [(in_dim, hidden)] * 4 + [(hidden, hidden)] * 4 + [(hidden,)] * 4


@dataclass
class HighwayParams(_Params):
    w_h: Variable  # [d, d] transform weights
    b_h: Variable
    w_t: Variable  # [d, d] transform-gate weights
    b_t: Variable

    @staticmethod
    def shapes(d: int):
        return [(d, d), (d,)] * 2


@dataclass
class ConvParams(_Params):
    filters: Variable  # [num_filters, window * in_dim], window slices flattened row-major
    bias: Variable  # [num_filters]
    window: int

    @staticmethod
    def shapes(window: int, in_dim: int, num_filters: int):
        return [(num_filters, window * in_dim), (num_filters,)]

    @classmethod
    def create(cls, rng, window: int, in_dim: int, num_filters: int) -> "ConvParams":
        if window < 1:
            raise ShapeError(f"conv window must be >= 1, got {window}")
        return cls(*_draw(rng, cls.shapes(window, in_dim, num_filters)), window)


@dataclass
class DenseParams(_Params):
    w: Variable
    b: Variable

    @staticmethod
    def shapes(in_dim: int, out_dim: int):
        return [(in_dim, out_dim), (out_dim,)]


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

def embedding_lookup(table: Variable, ids: np.ndarray) -> Variable:
    """Row gather; the gradient is a weighted count into looked-up rows, in np.add.at's order,
    hinted with those rows (``Variable.grad_rows``)."""
    vocab_size = table.shape[0]
    bad = (ids < 0) | (ids >= vocab_size)
    if bad.any():
        pos = tuple(int(v) for v in np.argwhere(bad)[0])
        raise DataError(f"token id {int(ids[pos])} at position {pos} outside vocabulary of size {vocab_size}")
    out = Variable(table.value[ids])

    def bw(g: np.ndarray) -> None:
        cells = (ids.reshape(-1, 1) * table.shape[1] + np.arange(table.shape[1])).reshape(-1)
        dt = np.bincount(cells, weights=g.reshape(-1), minlength=table.value.size).reshape(table.shape)
        rows = np.flatnonzero(np.bincount(ids.reshape(-1), minlength=vocab_size))
        if table.grad is None:
            table.grad, table.grad_rows = dt, rows
        else:
            np.add(table.grad, dt, out=table.grad)
            if table.grad_rows is not None:
                table.grad_rows = np.union1d(table.grad_rows, rows)

    return record("embedding_lookup", out, bw)


def embed(batch: EncodedBatch, params: EmbeddingParams) -> Variable:
    return embedding_lookup(params.table, batch.ids)


# ---------------------------------------------------------------------------
# Recurrent cells
# ---------------------------------------------------------------------------

# Each cell type has one fused kernel that runs a whole scan and records one
# tape node (Appleyard, Kočiský & Blunsom, arXiv 1604.01946). One matmul
# projects every step's input, each step adds its recurrent matmuls, and the
# hand-written backpropagation through time ends in one matmul or sum per
# weight, bias and input gradient, split back onto the per-gate Variables the
# forward read. Kernels run time-major in processing order: a backward scan
# reverses its input first, exactly as a forward scan of the reversed input.
# Cell steps are the T=1 case.

def _time_major(a: np.ndarray, reverse: bool) -> np.ndarray:
    """[B, T, k] in time order -> contiguous [T, B, k] in processing order."""
    return np.ascontiguousarray((a[:, ::-1] if reverse else a).transpose(1, 0, 2))


def _batch_major(a: np.ndarray, reverse: bool) -> np.ndarray:
    """Inverse of ``_time_major``, as a view."""
    a = a.transpose(1, 0, 2)
    return a[:, ::-1] if reverse else a


def _check_recurrent_shapes(name: str, cls, x: Variable, states: tuple[Variable, ...], params, hidden: int) -> None:
    """Each list in ``params`` has cls's shapes for x; each state is [B, len(params)·hidden]."""
    batch, _steps, width = x.shape
    if any([v.shape for v in vs] != cls.shapes(width, hidden) for vs in params):
        raise ShapeError(f"{name} parameters for input width {width} must have shapes {cls.shapes(width, hidden)}")
    for s in states:
        if s.shape != (batch, len(params) * hidden):
            raise ShapeError(f"{name} state must be [{batch}, {len(params) * hidden}], got {s.shape}")


def _gru_kernel(x: Variable, h0: Variable, dirs, out: np.ndarray) -> Callable[[np.ndarray], None]:
    """GRUs over [B, T, d] inputs, one per (GruParams, reverse, band) in
    ``dirs``, in one loop from the state h0 [B, k·h]; each writes its states
    [B, T, h] to ``out[:, :, band]``. Returns the backward, given d(out).

    r = sigmoid(x·W_r + h·U_r + b_r)
    z = sigmoid(x·W_z + h·U_z + b_z)
    cand = tanh(x·W_h + (r*h)·U_h + b_h)
    h' = z*h + (1-z)*cand        (the update gate keeps the OLD state)

    The state is [h_1 | ... | h_k] and the gates [r_1..r_k | z_1..z_k |
    cand_1..cand_k], under weights block-diagonal over the directions. Steps
    are feature-major, [features, B], so each gate is a contiguous block.
    """
    # Captured now: backward credits the Variables this forward read, even if
    # one of p's fields is swapped for another Variable before backward runs.
    params = [[v for _name, v in p.named()] for p, _reverse, _band in dirs]
    k, hidden = len(dirs), params[0][3].shape[0]
    n = k * hidden
    _check_recurrent_shapes("gru", GruParams, x, (h0,), params, hidden)
    batch, steps, width = x.shape
    w, u, b = np.zeros((k, width, 3, k, hidden)), np.zeros((k, hidden, 3, k, hidden)), np.empty((3, k, hidden))
    for j, vs in enumerate(params):
        w[j, :, :, j], u[j, :, :, j], b[:, j] = (np.stack([v.value for v in vs[i : i + 3]], axis=-2) for i in (0, 3, 6))
    w, u_t = w.reshape(k * width, 3 * n), np.ascontiguousarray(u.reshape(n, 3 * n).T)  # u_t = [U_rz | U_c]ᵀ

    # [T, B, k·d]: each direction's input in its processing order.
    xs = np.concatenate([_time_major(x.value, reverse) for _p, reverse, _band in dirs], axis=2)
    xw = np.matmul(w.T, xs.transpose(0, 2, 1))  # [T, 3n, B], biases folded in
    xw += b.reshape(3 * n, 1)
    hs = np.empty((steps + 1, n, batch))  # hs[t] is the state step t reads
    hs[0] = h0.value.T
    rz, rh, cand = np.empty((steps, 2 * n, batch)), np.empty((steps, n, batch)), np.empty((steps, n, batch))
    for t in range(steps):
        h, a, c, h_next = hs[t], rz[t], cand[t], hs[t + 1]
        np.matmul(u_t[: 2 * n], h, out=a)
        a += xw[t, : 2 * n]
        _stable_sigmoid(a, out=a)
        np.multiply(a[:n], h, out=rh[t])
        np.matmul(u_t[2 * n :], rh[t], out=c)
        c += xw[t, 2 * n :]
        np.tanh(c, out=c)
        np.subtract(h, c, out=h_next)  # h' = cand + z*(h - cand)
        h_next *= a[n:]
        h_next += c
    for j, (_p, reverse, band) in enumerate(dirs):
        out[:, :, band] = _batch_major(hs[1:, j * hidden : (j + 1) * hidden].transpose(0, 2, 1), reverse)

    def bw(g: np.ndarray) -> None:
        gs = np.concatenate([_time_major(g[:, :, band], reverse).transpose(0, 2, 1) for _p, reverse, band in dirs], 1)
        # Factors from dL/d(r*h) (for r) and dL/dh' (z, cand) to the pre-activations, scaled in place below.
        s = rz * (1.0 - rz)
        da = np.concatenate([s[:, :n] * hs[:-1], s[:, n:] * (hs[:-1] - cand), (1 - rz[:, n:]) * (1 - cand * cand)], 1)
        carry, mixed = np.zeros((2 * n, batch)), np.empty((2 * n, batch))  # carry is [dL/d(r*h); dL/dh]
        drh, dh = carry[:n], carry[n:]
        for t in range(steps - 1, -1, -1):
            dh += gs[t]
            da[t, 2 * n :] *= dh
            np.matmul(u_t[2 * n :].T, da[t, 2 * n :], out=drh)
            da[t, : 2 * n] *= carry
            np.multiply(carry, rz[t], out=mixed)  # [drh*r; dh*z]
            np.matmul(u_t[: 2 * n].T, da[t, : 2 * n], out=dh)
            dh += mixed[n:]
            dh += mixed[:n]
        flat, h_rows, rh_rows = (a.transpose(0, 2, 1).reshape(steps * batch, -1) for a in (da, hs[:-1], rh))
        du = np.concatenate([h_rows.T @ flat[:, : 2 * n], rh_rows.T @ flat[:, 2 * n :]], 1)
        dw = (xs.reshape(steps * batch, -1).T @ flat).reshape(k, width, 3, k, hidden)
        du, db = du.reshape(k, hidden, 3, k, hidden), flat.sum(axis=0).reshape(3, k, hidden)
        for j, vs in enumerate(params):
            for v, gv in zip(vs, [*dw[j, :, :, j].swapaxes(0, 1), *du[j, :, :, j].swapaxes(0, 1), *db[:, j]]):
                v.ensure_grad()[...] += gv
        dxs = (flat @ w.T).reshape(steps, batch, k, width)
        for j, (_p, reverse, _band) in enumerate(dirs):
            x.ensure_grad()[...] += _batch_major(dxs[:, :, j], reverse)
        h0.ensure_grad()[...] += dh.T

    return bw


def _lstm_kernel(
    x: Variable, h0: Variable, c0: Variable, p: LstmParams, reverse: bool
) -> tuple[Variable, Variable]:
    """Standard LSTM over [B, T, d] inputs from state (h0, c0): sigmoid
    input/forget/output gates, tanh candidate. Returns all hidden states
    [B, T, h] and the final cell state [B, h].

    The final cell state is a second tape node. Its backward only makes sure
    the kernel's node runs, which reads the cell gradient as the carry into
    the last step, so c receives gradient even when no h was used.
    """
    # Captured now: backward credits the Variables this forward read, even if
    # one of p's fields is swapped for another Variable before backward runs.
    params = [v for _name, v in p.named()]
    hidden = params[4].shape[0]
    _check_recurrent_shapes("lstm", LstmParams, x, (h0, c0), [params], hidden)
    batch, steps, width = x.shape
    w, u, b = (np.concatenate([v.value for v in params[i : i + 4]], axis=-1) for i in (0, 4, 8))

    xs = _time_major(x.value, reverse).reshape(steps * batch, width)
    xw = (xs @ w).reshape(steps, batch, 4 * hidden)
    hs = np.empty((steps + 1, batch, hidden))  # hs[t], cs[t]: the state step t reads
    cs = np.empty((steps + 1, batch, hidden))
    hs[0], cs[0] = h0.value, c0.value
    gates = np.empty((steps, batch, 4 * hidden))  # [i|f|o|cand]
    tc = np.empty((steps, batch, hidden))  # tanh of the new cell state
    for t in range(steps):
        a = xw[t] + hs[t] @ u + b
        gates[t, :, : 3 * hidden] = _stable_sigmoid(a[:, : 3 * hidden])
        np.tanh(a[:, 3 * hidden :], out=gates[t, :, 3 * hidden :])
        i, f, o, c = (gates[t, :, k * hidden : (k + 1) * hidden] for k in range(4))
        cs[t + 1] = f * cs[t] + i * c
        np.tanh(cs[t + 1], out=tc[t])
        np.multiply(o, tc[t], out=hs[t + 1])
    out = Variable(np.ascontiguousarray(_batch_major(hs[1:], reverse)))
    c_last = Variable(cs[steps].copy())

    def bw(g: np.ndarray) -> None:
        gs = _time_major(g, reverse)
        i, f, o, c = (gates[:, :, k * hidden : (k + 1) * hidden] for k in range(4))
        # Factors from dL/dh' (for o and c') or dL/dc' (the rest) to each
        # pre-activation, and to c' itself.
        k_i = c * i * (1.0 - i)
        k_f = cs[:-1] * f * (1.0 - f)
        k_o = tc * o * (1.0 - o)
        k_c = i * (1.0 - c * c)
        k_cell = o * (1.0 - tc * tc)
        da = np.empty((steps, batch, 4 * hidden))
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden)) if c_last.grad is None else c_last.grad.copy()
        for t in range(steps - 1, -1, -1):
            dh = dh + gs[t]
            dc = dc + dh * k_cell[t]
            np.multiply(dc, k_i[t], out=da[t, :, :hidden])
            np.multiply(dc, k_f[t], out=da[t, :, hidden : 2 * hidden])
            np.multiply(dh, k_o[t], out=da[t, :, 2 * hidden : 3 * hidden])
            np.multiply(dc, k_c[t], out=da[t, :, 3 * hidden :])
            dc = dc * f[t]
            dh = da[t] @ u.T
        flat = da.reshape(steps * batch, 4 * hidden)
        grads = (
            np.split(xs.T @ flat, 4, axis=1)
            + np.split(hs[:-1].reshape(-1, hidden).T @ flat, 4, axis=1)
            + np.split(flat.sum(axis=0), 4)
        )
        for v, gv in zip(params, grads):
            v.ensure_grad()[...] += gv
        x.ensure_grad()[...] += _batch_major((flat @ w.T).reshape(steps, batch, width), reverse)
        h0.ensure_grad()[...] += dh
        c0.ensure_grad()[...] += dc

    def bw_cell(_g: np.ndarray) -> None:
        out.ensure_grad()

    record("lstm_scan", out, bw)
    return out, record("lstm_cell_state", c_last, bw_cell)


def _scan_reverse(inputs: Variable, direction: str, name: str) -> bool:
    """Validate a scan's input and direction; True for the backward direction."""
    if inputs.value.ndim != 3:
        raise ShapeError(f"{name} expects [batch, T, d], got {inputs.shape}")
    if inputs.shape[1] < 1:
        raise ContractError(f"{name} needs at least one time step")
    if direction not in ("forward", "backward"):
        raise ContractError(f"unknown scan direction: {direction!r}")
    return direction == "backward"


def gru_scan(inputs: Variable, p: GruParams, direction: str = "forward") -> Variable:
    """GRU states [batch, T, h] over [batch, T, d] inputs from a zero state.

    The backward direction scans reversed time and stores outputs back at
    their original positions, so position t holds the state computed from
    the suffix t..T.
    """
    reverse = _scan_reverse(inputs, direction, "gru_scan")
    out = np.empty(inputs.shape[:2] + (p.u_r.shape[0],))
    h0 = Variable(np.zeros((inputs.shape[0], p.u_r.shape[0])))
    return record("gru_scan", Variable(out), _gru_kernel(inputs, h0, [(p, reverse, slice(None))], out))


def lstm_scan(inputs: Variable, p: LstmParams, direction: str = "forward") -> Variable:
    """LSTM hidden states [batch, T, h] from a zero state; directions as in ``gru_scan``."""
    reverse = _scan_reverse(inputs, direction, "lstm_scan")
    zeros = np.zeros((inputs.shape[0], p.u_i.shape[0]))
    return _lstm_kernel(inputs, Variable(zeros), Variable(zeros), p, reverse)[0]


def _as_one_step(x_t: Variable, name: str) -> Variable:
    if x_t.value.ndim != 2:
        raise ShapeError(f"{name} expects [batch, d], got {x_t.shape}")
    return reshape(x_t, (x_t.shape[0], 1, x_t.shape[1]))


def gru_cell_step(x_t: Variable, h_prev: Variable, p: GruParams) -> Variable:
    """One GRU step, [batch, d] -> [batch, h]: the scan kernel at T=1."""
    out = np.empty((x_t.shape[0], 1, p.u_r.shape[0]))
    bw = _gru_kernel(_as_one_step(x_t, "gru_cell_step"), h_prev, [(p, False, slice(None))], out)
    return record("gru_cell_step", Variable(out[:, 0]), lambda g: bw(g[:, None]))


def lstm_cell_step(x_t: Variable, state_prev: tuple[Variable, Variable], p: LstmParams) -> tuple[Variable, Variable]:
    """One LSTM step, returning (h_t, c_t): the scan kernel at T=1."""
    h_prev, c_prev = state_prev
    h, c_t = _lstm_kernel(_as_one_step(x_t, "lstm_cell_step"), h_prev, c_prev, p, reverse=False)
    return reshape(h, (h.shape[0], h.shape[2])), c_t


def birnn_context(x: Variable, p_fwd: GruParams, p_bwd: GruParams) -> Variable:
    """Per position [right-context-state | embedding | left-context-state],
    [batch, T, 2h+e]: the backward and forward GRU scans of the [batch, T, e]
    embeddings from zero states, run as one loop and one tape node.
    """
    _scan_reverse(x, "forward", "birnn_context")  # validates x
    (batch, steps, embed), hidden = x.shape, p_fwd.u_r.shape[0]
    mid = slice(hidden, hidden + embed)
    out = np.empty((batch, steps, 2 * hidden + embed))
    out[:, :, mid] = x.value
    dirs = [(p_fwd, False, slice(hidden + embed, None)), (p_bwd, True, slice(None, hidden))]
    bw = _gru_kernel(x, Variable(np.zeros((batch, 2 * hidden))), dirs, out)

    def backward(g: np.ndarray) -> None:
        bw(g)
        x.ensure_grad()[...] += g[:, :, mid]

    return record("birnn_context", Variable(out), backward)


# ---------------------------------------------------------------------------
# Highway and convolution
# ---------------------------------------------------------------------------

def highway_forward(x_tilde: Variable, p: HighwayParams) -> Variable:
    """Gated skip connection applied independently at every position.

    gate = sigmoid(x·W_t + b_t);  y = gate*relu(x·W_h + b_h) + (1-gate)*x.
    The gate and transform read the same full input, which the square
    parameter shapes require.

    One tape node (Srivastava, Greff & Schmidhuber, arXiv 1505.00387): the
    gate and the transform are one matmul each, so both are contiguous, and
    the backward is written by hand: it stacks their pre-activation
    gradients so that the weight and the input gradients are one matmul
    each, the latter over [W_t | W_h]. The mix keeps the order above, so
    the output matches the primitive graph bit for bit.
    """
    d = x_tilde.shape[-1]
    for name, w in (("transform", p.w_h), ("gate", p.w_t)):
        if w.shape != (d, d):
            raise ShapeError(f"highway {name} weights must be [{d},{d}], got {w.shape}")
    # Captured now, as in the scan kernels: backward credits these Variables.
    w_h, b_h, w_t, b_t = (v for _name, v in p.named())
    x = x_tilde.value.reshape(-1, d)
    gate = _stable_sigmoid(x @ w_t.value + b_t.value)
    transformed = np.maximum(x @ w_h.value + b_h.value, 0.0)
    out = Variable((gate * transformed + (1.0 - gate) * x).reshape(x_tilde.shape))

    def bw(g: np.ndarray) -> None:
        g = g.reshape(x.shape)
        da = np.empty((x.shape[0], 2 * d))  # [gate | transform] pre-activation gradients
        np.multiply(g * (transformed - x), gate * (1.0 - gate), out=da[:, :d])
        # Subgradient of the relu at exactly 0 is 0.
        np.multiply(g * gate, transformed > 0.0, out=da[:, d:])
        w = np.concatenate([w_t.value, w_h.value], axis=1)
        dw, db = x.T @ da, da.sum(axis=0)
        for v, gv in ((w_t, dw[:, :d]), (w_h, dw[:, d:]), (b_t, db[:d]), (b_h, db[d:])):
            v.ensure_grad()[...] += gv
        x_tilde.ensure_grad()[...] += (da @ w.T + g * (1.0 - gate)).reshape(x_tilde.shape)

    return record("highway_forward", out, bw)


def dense_relu_positions(x: Variable, p: DenseParams) -> Variable:
    """relu(x·W + b) applied independently at every (batch, position), as one
    tape node whose backward is written by hand."""
    d, width = p.w.shape[0], p.w.shape[1]
    if x.shape[-1] != d:
        raise ShapeError(f"dense block expects input width {d}, got {x.shape[-1]}")
    if p.b.shape != (width,):
        raise ShapeError(f"dense block bias must be [{width}], got {p.b.shape}")
    # Captured now, as in the scan kernels: backward credits these Variables.
    w, b = p.w, p.b
    rows = x.value.reshape(-1, d)
    y = rows @ w.value
    y += b.value
    np.maximum(y, 0.0, out=y)

    def bw(g: np.ndarray) -> None:
        # Subgradient of the relu at exactly 0 is 0.
        da = g.reshape(y.shape) * (y > 0.0)
        w.ensure_grad()[...] += rows.T @ da
        b.ensure_grad()[...] += da.sum(axis=0)
        x.ensure_grad()[...] += (da @ w.value.T).reshape(x.shape)

    return record("dense_relu_positions", Variable(y.reshape(x.shape[:-1] + (width,))), bw)


def _max_over_time(maps: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Each filter's maximum over the positions of [F, B, L] maps, as [B, F],
    and the (batch [B], position [B, F]) index of its first argmax, which
    routes the maximum's gradient. Both reduce the last, time axis."""
    at = maps.argmax(axis=2)
    pooled = np.take_along_axis(maps, at[:, :, None], axis=2)[:, :, 0]
    return np.ascontiguousarray(pooled.T), (np.arange(maps.shape[1]), at.T)


def conv1d_forward(y: Variable, p: ConvParams, *, pool: bool = False) -> Variable:
    """Valid (no-padding) 1-d convolution with a relu response.

    Output position i is relu(filters · flattened y[i : i+window] + bias),
    giving a feature map of length T - window + 1.

    One im2col kernel (Chellapilla, Puri & Simard, 2006) records one tape
    node: each window is a row of h·d columns, and one matmul, filters on the
    left, gives all responses filter-major, [F, B·L]; the map is the relu of
    their transpose, written as one copy. The backward adds each of the h
    window slots back onto the input as one strided slab.

    With ``pool``, the node instead takes each filter's maximum over time and
    returns [B, F], bit-equal to ``maxpool_over_time`` of the map: the same
    responses, and relu commutes with max. The first argmax of the biased
    responses along their contiguous time axis picks each (batch, filter)'s
    window, and the backward touches only those B·F windows: a filter's B
    windows lie in different examples, so plain indexed adds credit the
    filter and add onto the input's windows in place.
    """
    if y.value.ndim != 3:
        raise ShapeError(f"conv1d expects [batch, T, d], got {y.shape}")
    batch, steps, width = y.shape
    h = p.window
    if steps < h:
        raise ContractError(f"sequence length {steps} shorter than conv window {h}")
    if p.filters.shape[1] != h * width:
        raise ShapeError(f"filters expect flattened window of {p.filters.shape[1]}, input gives {h}*{width}")
    if p.bias.shape != (p.filters.shape[0],):
        raise ShapeError(f"conv bias must be [{p.filters.shape[0]}], got {p.bias.shape}")
    # Captured now, as in the scan kernels: backward credits these Variables.
    filters, bias = p.filters, p.bias
    length, num_filters = steps - h + 1, filters.shape[0]
    # [B, L, d, h] windows -> [B·L, h·d] rows, each window flattened row-major.
    cols = sliding_window_view(y.value, h, axis=1).transpose(0, 1, 3, 2).reshape(batch * length, h * width)
    responses = filters.value @ cols.T
    responses += bias.value[:, None]
    if pool:
        pooled, (rows, at) = _max_over_time(responses.reshape(num_filters, batch, length))
        np.maximum(pooled, 0.0, out=pooled)

        def bw_pooled(g: np.ndarray) -> None:
            da = g * (pooled > 0.0)  # subgradient of the relu at exactly 0 is 0
            bias.ensure_grad()[...] += da.sum(axis=0)
            dw, dy, kernels = filters.ensure_grad(), y.ensure_grad(), filters.value.reshape(-1, h, width)
            # dy's [h, d] window at each (batch, position): overlapping, written one filter at a time.
            windows = as_strided(dy, (batch, length, h, width), dy.strides[:2] + dy.strides[1:])
            rows_of = cols.reshape(batch, length, -1)
            for f in range(num_filters):
                dw[f] += da[:, f] @ rows_of[rows, at[:, f]]
                windows[rows, at[:, f]] += da[:, f, None, None] * kernels[f]

        return record("conv1d_forward", Variable(pooled), bw_pooled)
    fmap = np.maximum(responses.T, 0.0, out=np.empty((batch * length, num_filters)))
    out = Variable(fmap.reshape(batch, length, num_filters))

    def bw(g: np.ndarray) -> None:
        # Subgradient of the relu at exactly 0 is 0.
        da = g.reshape(fmap.shape) * (fmap > 0.0)
        filters.ensure_grad()[...] += (cols.T @ da).T
        bias.ensure_grad()[...] += da.sum(axis=0)
        dcols = (da @ filters.value).reshape(batch, length, h, width)
        dy = y.ensure_grad()
        for k in range(h):
            dy[:, k : k + length] += dcols[:, :, k]

    return record("conv1d_forward", out, bw)


def maxpool_over_time(feature_map: Variable) -> Variable:
    """Per-filter maximum over positions; gradient goes to the first argmax."""
    if feature_map.value.ndim != 3:
        raise ShapeError(f"maxpool expects [batch, L, filters], got {feature_map.shape}")
    if feature_map.shape[1] < 1:
        raise ContractError("maxpool over an empty time axis")
    pooled, (rows, at) = _max_over_time(feature_map.value.transpose(2, 0, 1))

    def bw(g: np.ndarray) -> None:
        feature_map.ensure_grad()[rows[:, None], at, np.arange(g.shape[1])] += g

    return record("maxpool_over_time", Variable(pooled), bw)


# ---------------------------------------------------------------------------
# Masked reductions over time
# ---------------------------------------------------------------------------

def _validate_lengths(x: Variable, lengths: np.ndarray) -> np.ndarray:
    if x.value.ndim != 3:
        raise ShapeError(f"time reduction expects [batch, T, d], got {x.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (x.shape[0],):
        raise ShapeError(f"lengths shape {lengths.shape} does not match batch {x.shape[0]}")
    if (lengths < 1).any() or (lengths > x.shape[1]).any():
        raise ContractError(f"lengths must lie in [1, {x.shape[1]}]")
    return lengths


def _weighted_time_sum(op: str, x: Variable, lengths: np.ndarray, weight: np.ndarray) -> Variable:
    """weight[b] times the sum of the first lengths[b] positions; padding is
    excluded. Summands are sorted first so the reduction is bit-exactly
    independent of token order."""
    mask = np.arange(x.shape[1])[None, :, None] < lengths[:, None, None]
    out = Variable(np.sort(np.where(mask, x.value, 0.0), axis=1).sum(axis=1) * weight[:, None])

    def bw(g: np.ndarray) -> None:
        x.ensure_grad()[...] += (g * weight[:, None])[:, None, :] * mask

    return record(op, out, bw)


def sum_over_time(x: Variable, lengths: np.ndarray) -> Variable:
    """Sum of the first lengths[b] positions; the weight 1.0 leaves every sum bit-exact."""
    lengths = _validate_lengths(x, lengths)
    return _weighted_time_sum("sum_over_time", x, lengths, np.ones(lengths.shape))


def mean_over_time(x: Variable, lengths: np.ndarray) -> Variable:
    """Mean over the TRUE length; positions beyond it are excluded."""
    lengths = _validate_lengths(x, lengths)
    return _weighted_time_sum("mean_over_time", x, lengths, 1.0 / lengths.astype(np.float64))


# ---------------------------------------------------------------------------
# Softmax head
# ---------------------------------------------------------------------------

def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of [batch, classes] logits, max-shifted so exp cannot overflow."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Jacobian-vector product of the row softmax p: dz = p * (g - <g, p>)."""
    return p * (g - np.sum(g * p, axis=1, keepdims=True))


def dense_softmax(x: Variable, w: Variable, b: Variable) -> Variable:
    """Class probabilities softmax(x·W + b), [batch, classes], as one tape node."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"classifier needs [batch, d] by [d, classes], got {x.shape} by {w.shape}")
    if w.shape[1] < 2:
        raise ContractError(f"classifier needs at least 2 classes, got {w.shape[1]}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"classifier bias must be [{w.shape[1]}], got {b.shape}")
    z = x.value @ w.value
    z += b.value
    p = _softmax(z)

    def bw(g: np.ndarray) -> None:
        dz = _softmax_grad(p, g)
        w.ensure_grad()[...] += x.value.T @ dz
        b.ensure_grad()[...] += dz.sum(axis=0)
        x.ensure_grad()[...] += dz @ w.value.T

    return record("dense_softmax", Variable(p), bw)
