"""Differentiable layers: embeddings, gated recurrent cells, highway blocks,
1-d convolution with max-over-time pooling, masked reductions, softmax head.

Layers are pure functions of (parameters, input); parameter containers are
plain dataclasses of Variables and may be shared read-only across threads.
Custom backward rules are registered through ``autodiff.record``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .autodiff import Variable, _stable_sigmoid, bias_add, concat, matmul, record, relu, reshape
from .data import EncodedBatch
from .errors import ContractError, DataError, ShapeError


# ---------------------------------------------------------------------------
# Parameter containers and initialization
# ---------------------------------------------------------------------------

def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, (rows, cols))


@dataclass
class EmbeddingParams:
    table: Variable  # [vocab_size, embed_dim]; row 0 = PAD, row 1 = UNK, both trainable

    @classmethod
    def create(cls, rng, vocab_size: int, embed_dim: int) -> "EmbeddingParams":
        return cls(Variable(rng.uniform(-0.05, 0.05, (vocab_size, embed_dim))))

    def named(self):
        return [("table", self.table)]


@dataclass
class GruParams:
    w_r: Variable
    w_z: Variable
    w_h: Variable
    u_r: Variable
    u_z: Variable
    u_h: Variable
    b_r: Variable
    b_z: Variable
    b_h: Variable

    @classmethod
    def create(cls, rng, in_dim: int, hidden: int) -> "GruParams":
        w = [Variable(glorot_uniform(rng, in_dim, hidden)) for _ in range(3)]
        u = [Variable(glorot_uniform(rng, hidden, hidden)) for _ in range(3)]
        b = [Variable(np.zeros(hidden)) for _ in range(3)]
        return cls(*w, *u, *b)

    def named(self):
        return [(k, getattr(self, k)) for k in ("w_r", "w_z", "w_h", "u_r", "u_z", "u_h", "b_r", "b_z", "b_h")]


@dataclass
class LstmParams:
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

    @classmethod
    def create(cls, rng, in_dim: int, hidden: int) -> "LstmParams":
        w = [Variable(glorot_uniform(rng, in_dim, hidden)) for _ in range(4)]
        u = [Variable(glorot_uniform(rng, hidden, hidden)) for _ in range(4)]
        b = [Variable(np.zeros(hidden)) for _ in range(4)]
        return cls(*w, *u, *b)

    def named(self):
        return [(k, getattr(self, k)) for k in ("w_i", "w_f", "w_o", "w_c", "u_i", "u_f", "u_o", "u_c", "b_i", "b_f", "b_o", "b_c")]


@dataclass
class HighwayParams:
    w_h: Variable  # [d, d] transform weights
    b_h: Variable
    w_t: Variable  # [d, d] transform-gate weights
    b_t: Variable

    @classmethod
    def create(cls, rng, d: int) -> "HighwayParams":
        return cls(
            Variable(glorot_uniform(rng, d, d)),
            Variable(np.zeros(d)),
            Variable(glorot_uniform(rng, d, d)),
            Variable(np.zeros(d)),
        )

    def named(self):
        return [(k, getattr(self, k)) for k in ("w_h", "b_h", "w_t", "b_t")]


@dataclass
class ConvParams:
    filters: Variable  # [num_filters, window * in_dim], window slices flattened row-major
    bias: Variable  # [num_filters]
    window: int

    @classmethod
    def create(cls, rng, window: int, in_dim: int, num_filters: int) -> "ConvParams":
        if window < 1:
            raise ShapeError(f"conv window must be >= 1, got {window}")
        return cls(
            Variable(glorot_uniform(rng, num_filters, window * in_dim)),
            Variable(np.zeros(num_filters)),
            window,
        )

    def named(self):
        return [("filters", self.filters), ("bias", self.bias)]


@dataclass
class DenseParams:
    w: Variable
    b: Variable

    @classmethod
    def create(cls, rng, in_dim: int, out_dim: int) -> "DenseParams":
        return cls(Variable(glorot_uniform(rng, in_dim, out_dim)), Variable(np.zeros(out_dim)))

    def named(self):
        return [("w", self.w), ("b", self.b)]


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

def embedding_lookup(table: Variable, ids: np.ndarray) -> Variable:
    """Row gather; the gradient scatter-adds into looked-up rows only."""
    vocab_size = table.shape[0]
    bad = (ids < 0) | (ids >= vocab_size)
    if bad.any():
        pos = tuple(int(v) for v in np.argwhere(bad)[0])
        raise DataError(f"token id {int(ids[pos])} at position {pos} outside vocabulary of size {vocab_size}")
    out = Variable(table.value[ids])

    def bw(g: np.ndarray) -> None:
        np.add.at(table.ensure_grad(), ids.reshape(-1), g.reshape(-1, table.shape[1]))

    return record("embedding_lookup", out, bw)


def embed(batch: EncodedBatch, params: EmbeddingParams) -> Variable:
    return embedding_lookup(params.table, batch.ids)


# ---------------------------------------------------------------------------
# Recurrent cells
# ---------------------------------------------------------------------------

# Each cell type has one fused kernel that runs a whole scan and records one
# tape node (Appleyard, Kočiský & Blunsom, arXiv 1604.01946). The input
# projection x·[W_*] of every step is a single matmul over the concatenated
# gate weights; each step adds one recurrent matmul over the concatenated
# U_* (two for the GRU, whose candidate reads r*h). Backpropagation through
# time is written by hand: the reverse loop does elementwise work and two
# small matmuls per step, and every weight, bias and input gradient is then
# one matmul or sum over all steps. The per-gate parameter tensors stay the
# stored form; they are concatenated once per forward, and the gradients
# are split back onto the Variables the forward read.
#
# Kernels work time-major in processing order: a backward scan reverses its
# input before the projection, so it computes exactly what a forward scan of
# the reversed input does. Cell steps are the T=1 case of the same kernels.

def _time_major(a: np.ndarray, reverse: bool) -> np.ndarray:
    """[B, T, k] in time order -> contiguous [T, B, k] in processing order."""
    return np.ascontiguousarray((a[:, ::-1] if reverse else a).transpose(1, 0, 2))


def _batch_major(a: np.ndarray, reverse: bool) -> np.ndarray:
    """Inverse of ``_time_major``, as a view."""
    a = a.transpose(1, 0, 2)
    return a[:, ::-1] if reverse else a


def _check_recurrent_shapes(name: str, x: Variable, states: tuple[Variable, ...], w: Variable, hidden: int) -> None:
    batch, _steps, width = x.shape
    if width != w.shape[0]:
        raise ShapeError(f"{name} input width {width} does not match input weights {w.shape}")
    for s in states:
        if s.shape != (batch, hidden):
            raise ShapeError(f"{name} state must be [{batch}, {hidden}], got {s.shape}")


def _gru_kernel(x: Variable, h0: Variable, p: GruParams, reverse: bool) -> Variable:
    """Gated recurrent unit over [B, T, d] inputs from state h0; all states [B, T, h].

    r = sigmoid(x·W_r + h·U_r + b_r)
    z = sigmoid(x·W_z + h·U_z + b_z)
    cand = tanh(x·W_h + (r*h)·U_h + b_h)
    h' = z*h + (1-z)*cand        (the update gate keeps the OLD state)
    """
    # Captured now: backward credits the Variables this forward read, even if
    # one of p's fields is swapped for another Variable before backward runs.
    params = [v for _name, v in p.named()]
    w_r, w_z, w_h, u_r, u_z, u_h, b_r, b_z, b_h = params
    hidden = u_r.shape[0]
    _check_recurrent_shapes("gru", x, (h0,), w_r, hidden)
    batch, steps, width = x.shape
    w = np.concatenate([w_r.value, w_z.value, w_h.value], axis=1)
    u_rz = np.concatenate([u_r.value, u_z.value], axis=1)
    u_c = u_h.value
    b_rz = np.concatenate([b_r.value, b_z.value])
    b_c = b_h.value

    xs = _time_major(x.value, reverse).reshape(steps * batch, width)
    xw = (xs @ w).reshape(steps, batch, 3 * hidden)
    hs = np.empty((steps + 1, batch, hidden))  # hs[t] is the state step t reads
    hs[0] = h0.value
    rz = np.empty((steps, batch, 2 * hidden))
    rh = np.empty((steps, batch, hidden))
    cand = np.empty((steps, batch, hidden))
    for t in range(steps):
        h = hs[t]
        rz[t] = _stable_sigmoid(xw[t, :, : 2 * hidden] + h @ u_rz + b_rz)
        z = rz[t, :, hidden:]
        np.multiply(rz[t, :, :hidden], h, out=rh[t])
        cand[t] = np.tanh(xw[t, :, 2 * hidden :] + rh[t] @ u_c + b_c)
        hs[t + 1] = z * h + (1.0 - z) * cand[t]
    out = Variable(np.ascontiguousarray(_batch_major(hs[1:], reverse)))

    def bw(g: np.ndarray) -> None:
        gs = _time_major(g, reverse)
        r, z = rz[:, :, :hidden], rz[:, :, hidden:]
        # Factors from dL/dh' (or dL/d(r*h) for r) to each gate pre-activation.
        k_r = hs[:-1] * r * (1.0 - r)
        k_z = (hs[:-1] - cand) * z * (1.0 - z)
        k_c = (1.0 - z) * (1.0 - cand * cand)
        da = np.empty((steps, batch, 3 * hidden))  # pre-activation gradients [r|z|cand]
        dh = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            dh = dh + gs[t]
            da_c = np.multiply(dh, k_c[t], out=da[t, :, 2 * hidden :])
            drh = da_c @ u_c.T
            np.multiply(drh, k_r[t], out=da[t, :, :hidden])
            np.multiply(dh, k_z[t], out=da[t, :, hidden : 2 * hidden])
            dh = dh * z[t] + drh * r[t] + da[t, :, : 2 * hidden] @ u_rz.T
        flat = da.reshape(steps * batch, 3 * hidden)
        du_rz = hs[:-1].reshape(-1, hidden).T @ flat[:, : 2 * hidden]
        grads = (
            np.split(xs.T @ flat, 3, axis=1)
            + np.split(du_rz, 2, axis=1)
            + [rh.reshape(-1, hidden).T @ flat[:, 2 * hidden :]]
            + np.split(flat.sum(axis=0), 3)
        )
        for v, gv in zip(params, grads):
            v.ensure_grad()[...] += gv
        x.ensure_grad()[...] += _batch_major((flat @ w.T).reshape(steps, batch, width), reverse)
        h0.ensure_grad()[...] += dh

    return record("gru_scan", out, bw)


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
    w_i, w_f, w_o, w_c, u_i, u_f, u_o, u_c, b_i, b_f, b_o, b_c = params
    hidden = u_i.shape[0]
    _check_recurrent_shapes("lstm", x, (h0, c0), w_i, hidden)
    batch, steps, width = x.shape
    w = np.concatenate([w_i.value, w_f.value, w_o.value, w_c.value], axis=1)
    u = np.concatenate([u_i.value, u_f.value, u_o.value, u_c.value], axis=1)
    b = np.concatenate([b_i.value, b_f.value, b_o.value, b_c.value])

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
    h0 = Variable(np.zeros((inputs.shape[0], p.u_r.shape[0])))
    return _gru_kernel(inputs, h0, p, reverse)


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
    h = _gru_kernel(_as_one_step(x_t, "gru_cell_step"), h_prev, p, reverse=False)
    return reshape(h, (h.shape[0], h.shape[2]))


def lstm_cell_step(x_t: Variable, state_prev: tuple[Variable, Variable], p: LstmParams) -> tuple[Variable, Variable]:
    """One LSTM step, returning (h_t, c_t): the scan kernel at T=1."""
    h_prev, c_prev = state_prev
    h, c_t = _lstm_kernel(_as_one_step(x_t, "lstm_cell_step"), h_prev, c_prev, p, reverse=False)
    return reshape(h, (h.shape[0], h.shape[2])), c_t


def birnn_context(x: Variable, fwd_out: Variable, bwd_out: Variable) -> Variable:
    """Per-position [right-context-state | embedding | left-context-state]."""
    if not (x.shape[:2] == fwd_out.shape[:2] == bwd_out.shape[:2]):
        raise ShapeError(
            f"batch/time dims disagree: {x.shape} vs {fwd_out.shape} vs {bwd_out.shape}"
        )
    return concat([bwd_out, x, fwd_out], axis=2)


# ---------------------------------------------------------------------------
# Highway and convolution
# ---------------------------------------------------------------------------

def highway_forward(x_tilde: Variable, p: HighwayParams) -> Variable:
    """Gated skip connection applied independently at every position.

    gate = sigmoid(x·W_t + b_t);  y = gate*relu(x·W_h + b_h) + (1-gate)*x.
    The gate and transform read the same full input, which the square
    parameter shapes require.

    One tape node (Srivastava, Greff & Schmidhuber, arXiv 1505.00387): a
    single matmul over [W_t | W_h] gives both pre-activations, and the
    backward is written by hand. The mix keeps the order above, so the
    output matches the primitive graph bit for bit.
    """
    d = x_tilde.shape[-1]
    for name, w in (("transform", p.w_h), ("gate", p.w_t)):
        if w.shape != (d, d):
            raise ShapeError(f"highway {name} weights must be [{d},{d}], got {w.shape}")
    # Captured now, as in the scan kernels: backward credits these Variables.
    w_h, b_h, w_t, b_t = (v for _name, v in p.named())
    x = x_tilde.value.reshape(-1, d)
    w = np.concatenate([w_t.value, w_h.value], axis=1)
    pre = x @ w  # [gate | transform] pre-activations
    pre += np.concatenate([b_t.value, b_h.value])
    gate = _stable_sigmoid(pre[:, :d])
    transformed = np.maximum(pre[:, d:], 0.0)
    out = Variable((gate * transformed + (1.0 - gate) * x).reshape(x_tilde.shape))

    def bw(g: np.ndarray) -> None:
        g = g.reshape(x.shape)
        da = np.empty((x.shape[0], 2 * d))  # [gate | transform] pre-activation gradients
        np.multiply(g * (transformed - x), gate * (1.0 - gate), out=da[:, :d])
        # Subgradient of the relu at exactly 0 is 0.
        np.multiply(g * gate, transformed > 0.0, out=da[:, d:])
        dw, db = x.T @ da, da.sum(axis=0)
        for v, gv in ((w_t, dw[:, :d]), (w_h, dw[:, d:]), (b_t, db[:d]), (b_h, db[d:])):
            v.ensure_grad()[...] += gv
        x_tilde.ensure_grad()[...] += (da @ w.T + g * (1.0 - gate)).reshape(x_tilde.shape)

    return record("highway_forward", out, bw)


def dense_relu_positions(x: Variable, p: DenseParams) -> Variable:
    """relu(x·W + b) applied independently at every (batch, position)."""
    d = x.shape[-1]
    if p.w.shape[0] != d:
        raise ShapeError(f"dense block expects input width {p.w.shape[0]}, got {d}")
    y = relu(bias_add(matmul(reshape(x, (x.value.size // d, d)), p.w), p.b))
    return reshape(y, x.shape[:-1] + (p.w.shape[1],))


def conv1d_forward(y: Variable, p: ConvParams) -> Variable:
    """Valid (no-padding) 1-d convolution with a relu response.

    Output position i is relu(filters · flattened y[i : i+window] + bias),
    giving a feature map of length T - window + 1.

    One im2col kernel (Chellapilla, Puri & Simard, 2006) records one tape
    node: every window becomes a row of h·d columns, and a single matmul
    against the filters gives all responses. At window 1 the rows are a view
    of the input. The backward adds each of the h window slots back onto
    the input as one strided slab.
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
    length = steps - h + 1
    # [B, L, d, h] windows -> [B·L, h·d] rows, each window flattened row-major.
    cols = sliding_window_view(y.value, h, axis=1).transpose(0, 1, 3, 2).reshape(batch * length, h * width)
    w = np.ascontiguousarray(filters.value.T)
    responses = cols @ w
    responses += bias.value
    np.maximum(responses, 0.0, out=responses)
    out = Variable(responses.reshape(batch, length, filters.shape[0]))

    def bw(g: np.ndarray) -> None:
        # Subgradient of the relu at exactly 0 is 0.
        da = g.reshape(responses.shape) * (responses > 0.0)
        filters.ensure_grad()[...] += (cols.T @ da).T
        bias.ensure_grad()[...] += da.sum(axis=0)
        dcols = (da @ w.T).reshape(batch, length, h, width)
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
    pooled, _idx = ad.max_over_axis(feature_map, axis=1)
    return pooled


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

def softmax_rows(logits: Variable) -> Variable:
    """Row softmax with max-subtraction; rows sum to 1."""
    if logits.value.ndim != 2:
        raise ShapeError(f"softmax expects [batch, classes], got {logits.shape}")
    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = Variable(p)

    def bw(g: np.ndarray) -> None:
        # Jacobian-vector product: dz = p * (g - <g, p>)
        inner = np.sum(g * p, axis=1, keepdims=True)
        logits.ensure_grad()[...] += p * (g - inner)

    return record("softmax_rows", out, bw)


def dense_softmax(x: Variable, w: Variable, b: Variable) -> Variable:
    if w.shape[1] < 2:
        raise ContractError(f"classifier needs at least 2 classes, got {w.shape[1]}")
    return softmax_rows(bias_add(matmul(x, w), b))
