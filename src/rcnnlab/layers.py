"""Differentiable layers: embeddings, gated recurrent cells, highway blocks,
1-d convolution with max-over-time pooling, masked reductions, softmax head.

Layers are pure functions of (parameters, input); parameter containers are
plain dataclasses of Variables and may be shared read-only across threads.
Each layer is a kernel whose hand-written backward rule is registered
through ``autodiff.record``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .autodiff import Variable, _stable_sigmoid, record, taping
from .data import EncodedBatch
from .errors import ContractError, DataError, ShapeError

# Forward block sizes, by medians (2-core Xeon, 1 BLAS thread). birnn_context [64, 500, 16], h=8: 42.6 / 42.1 / 45.4 / 45.2 ms at
# 16 / 32 / 64 steps / whole. highway_forward [16000, 32]: 12.1 / 11.9 / 12.0 / 12.5 / 16.3 ms at 256 / 512 / 1,024 / 2,048 rows / whole.
TIME_BLOCK = 32
ROW_BLOCK = 512
# OpenBLAS (0.3.31, SkylakeX) sends a GEMM of at most 1e6 multiply-adds to a small-matrix kernel that rounds unlike its
# general one, so row blocks above that are byte-equal to the whole product: every d = 1-130, [d, d] and [d, d+3], 1 and 2 threads.
GEMM_SMALL = 10**6
# The pooled convolution's forward block: a multiple of 8 examples holding about CONV_BLOCK responses (4 MiB), but at least
# CONV_COLUMNS windows and a GEMM above GEMM_SMALL. Such blocks gave the whole [F, B·L] product's bits (OpenBLAS 0.3.31, SkylakeX,
# 1, 2 and 4 threads); blocks of 4 examples at odd L, or of under about 200-400 columns, moved its last B·L mod 8 columns.
CONV_BLOCK, CONV_COLUMNS = 2**19, 1024


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

    def checked(self, *dims) -> list[Variable]:
        """The Variable fields in order, once each has its ``shapes(*dims)`` shape exactly. A kernel
        calls this first and credits what it returns, even if a field is swapped before backward.

        A dim given as None is free: it is read off the first field that declares it, once that
        field's rank is checked, and every field must then match it. So no dimension is read off a
        field of the wrong rank, 0-d included: that raises the ShapeError naming the field (a dim no
        field of the right rank declares shows as None in it)."""
        named = self.named()
        if None in dims:
            free = [object() if d is None else d for d in dims]
            bound = {}
            for (_name, v), shape in zip(named, self.shapes(*free)):
                if v.value.ndim == len(shape):
                    for d, n in zip(shape, v.shape):
                        bound.setdefault(d, n)
            dims = [bound.get(f) if d is None else d for d, f in zip(dims, free)]
        for (name, v), shape in zip(named, self.shapes(*dims), strict=True):
            if v.shape != shape:
                kind = "bias" if len(shape) == 1 else "matrix"
                raise ShapeError(f"{type(self).__name__}.{name} must be a {kind} of shape {shape}, got {v.shape}")
        return [v for _name, v in named]


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

def _check_ids(ids: np.ndarray, vocab_size: int) -> None:
    bad = (ids < 0) | (ids >= vocab_size)
    if bad.any():
        pos = tuple(int(v) for v in np.argwhere(bad)[0])
        raise DataError(f"token id {int(ids[pos])} at position {pos} outside vocabulary of size {vocab_size}")


def _rows_used(ids: np.ndarray, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted U table rows that ``ids`` use, and each id's index into them, with no sort."""
    used = np.bincount(ids.reshape(-1), minlength=vocab_size) > 0
    return np.flatnonzero(used), (np.cumsum(used) - 1)[ids]


def embed(batch: EncodedBatch, params: EmbeddingParams, *, pool: bool = False) -> Variable:
    """The batch's embeddings, [B, T, D], as a row gather whose gradient is a weighted count into
    the looked-up rows, in np.add.at's order: one bincount over the U·D cells of the U rows used.
    With ``pool``, their sum over each text's first lengths[b] positions, [B, D], as one node: an
    embedding bag (Joulin et al., arXiv 1607.01759) whose [B, U] counts of the U rows used give the
    output, counts @ table[rows], and the gradient, counts.T @ g. Neither depends on token order,
    so neither do the sums, bit for bit."""
    (table,) = params.checked(None, None)
    ids = batch.ids
    _check_ids(ids, table.shape[0])
    if not pool:
        def bw(g: np.ndarray) -> None:
            (rows, inverse), width = _rows_used(ids, table.shape[0]), table.shape[1]
            cells = (inverse.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
            sums = np.bincount(cells, weights=g.reshape(-1), minlength=rows.size * width)
            table.add_row_sums(rows, sums.reshape(rows.size, width))

        return record("embedding_lookup", Variable(table.value[ids]), bw)
    batch_size, steps = ids.shape
    valid = np.arange(steps) < _validate_lengths(batch.lengths, batch_size, steps)[:, None]
    rows, inverse = _rows_used(ids, table.shape[0])
    cells = (np.arange(batch_size)[:, None] * rows.size + inverse)[valid]
    counts = np.bincount(cells, minlength=batch_size * rows.size).reshape(batch_size, -1).astype(np.float64)
    bag = Variable(counts @ table.value[rows])
    return record("embedding_bag", bag, lambda g: table.add_row_sums(rows, counts.T @ g))


# ---------------------------------------------------------------------------
# Recurrent cells
# ---------------------------------------------------------------------------

# Both cells run on one layout, written once in ``_Recurrence`` (Appleyard,
# Kočiský & Blunsom, arXiv 1604.01946); a kernel writes only its cell's step
# and its hand-written BPTT, and a scan records one tape node. Kernels run
# time-major in processing order: a backward scan reverses its input first,
# exactly as a forward scan of the reversed input. Cell steps are the T=1 case.

def _sequence(x: Variable, name: str, steps: int = 1) -> tuple[int, int, int]:
    """The [batch, T, d] shape of ``name``'s input ``x``, once it has at least ``steps`` time steps."""
    if x.value.ndim != 3:
        raise ShapeError(f"{name} expects [batch, T, d], got {x.shape}")
    if x.shape[1] < steps:
        raise ContractError(f"{name} got {x.shape[1]} time steps, needs at least {steps}")
    return x.shape


def _time_major(a: np.ndarray, reverse: bool) -> np.ndarray:
    """[B, T, k] in time order -> [T, B, k] in processing order, as a view."""
    return (a[:, ::-1] if reverse else a).transpose(1, 0, 2)


def _kept(steps: int, *shape: int) -> np.ndarray:
    """A [steps, *shape] buffer that only a backward reads; untaped, one step's scratch seen at every step."""
    buf = np.empty((steps if taping() else 1, *shape))
    return as_strided(buf, (steps, *shape), (buf.strides[0] if taping() else 0, *buf.strides[1:]))


def _steps(a: np.ndarray) -> np.ndarray:
    """[B, T, k] as it is; a cell step's [B, k] as a [B, 1, k] view."""
    return a if a.ndim == 3 else a[:, None]


class _Recurrence:
    """k directions, one (checked fields, reverse, band) in ``dirs`` each, in one loop over
    inputs x [B, T, d] from states [B, n], n = k·h. The G gates of a cls cell
    stack gate-major and block-diagonal over the directions: W [k·d, G·n], Uᵀ
    [G·n, n], b tiled [G·n, B]. Steps are feature-major, [·, B]: a gate is rows."""

    def __init__(self, name: str, x: Variable, states: tuple[Variable, ...], dirs):
        (batch, steps, width), k = _steps(x.value).shape, len(dirs)
        self.params = [vs for vs, _reverse, _band in dirs]
        hidden = self.params[0][0].shape[-1]  # the first direction's W [d, h]; the kernel checked every direction against it
        self.x, self.states, self.dirs, gates, n = x, states, dirs, len(self.params[0]) // 3, k * hidden
        for s in states:
            if s.shape != (batch, n):
                raise ShapeError(f"{name} state must be [{batch}, {n}], got {s.shape}")
        w, u, b = np.zeros((k, width, gates, k, hidden)), np.zeros((k, hidden, gates, k, hidden)), np.empty((gates, k, hidden))
        for j, vs in enumerate(self.params):
            w[j, :, :, j], u[j, :, :, j], b[:, j] = (np.stack([v.value for v in vs[i : i + gates]], axis=-2) for i in (0, gates, 2 * gates))
        self.w, self.u_t = w.reshape(k * width, gates * n), np.ascontiguousarray(u.reshape(n, gates * n).T)
        # [T, B, k·d]: each direction's input in its processing order, copied once from views.
        self.xs = np.concatenate([_time_major(_steps(x.value), reverse) for _p, reverse, _band in dirs], axis=2)
        self.b, self.dims, self.steps, self.n, self.batch = np.tile(b.reshape(-1, 1), batch), (k, width, gates, hidden), steps, n, batch
        # Each state's buffer, [T+1, n, B]: [t] is the state step t reads.
        self.tracks = [np.empty((steps + 1, n, batch)) for _s in states]
        for a, s in zip(self.tracks, states):
            a[0] = s.value.T

    def project(self, *cuts: int):
        """Each step's x·W + b, its [G·n, B] rows split at ``cuts``: views into one reused time block."""
        xw = np.empty((min(TIME_BLOCK, self.steps), len(self.b), self.batch))
        for lo in range(0, self.steps, TIME_BLOCK):
            block = np.matmul(self.w.T, self.xs[lo : lo + TIME_BLOCK].transpose(0, 2, 1), out=xw[: self.steps - lo])
            block += self.b
            yield from zip(*np.split(block, cuts, axis=1))

    def write_bands(self, out: np.ndarray, hs: np.ndarray) -> None:
        """Each direction's states, hs[1:], into its band of out in time order, a time block at a time."""
        for lo in range(0, self.steps, TIME_BLOCK):
            for (_p, reverse, band), h in zip(self.dirs, np.split(hs[lo + 1 : lo + 1 + TIME_BLOCK], len(self.dirs), axis=1)):
                _time_major(_steps(out)[:, :, band], reverse)[lo : lo + TIME_BLOCK] = h.transpose(0, 2, 1)

    def read_bands(self, g: np.ndarray) -> np.ndarray:
        """d(out)'s bands, [T, n, B] in processing order."""
        return np.concatenate([_time_major(_steps(g)[:, :, band], reverse).transpose(0, 2, 1) for _p, reverse, band in self.dirs], 1)

    def credit(self, recurrent, *carries: np.ndarray):
        """Run a backward in reverse time blocks. Yields each block's steps, a slice in
        processing order, and a [t, G·n, B] buffer that the caller fills with their
        pre-activations' gradients da; then credits the block. dW and dU sum each
        step's product of da_t with its feature-major x_t or U operand, and db each
        da_t·1, over the block's stack of steps, so no [T·B, ·] rows are copied; dx
        is the stacked da_tᵀ·Wᵀ, byte-equal to one [T·B, ·] product, but the weight
        and bias sums round in another order than such a product's (about 1e-14
        relative). ``recurrent`` pairs, in gate order, each [T, n, B] right operand
        of U with the gates it feeds. Last, adds each carry [n, B], which the caller
        updates in place, onto its state."""
        (k, width, gates, hidden), n, steps = self.dims, self.n, self.steps
        buf, ones, x_grad = np.empty((min(TIME_BLOCK, steps), gates * n, self.batch)), np.ones(self.batch), _steps(self.x.ensure_grad())
        dw, du, db = np.zeros((gates * n, k * width)), np.zeros((gates * n, n)), np.zeros(gates * n)  # transposed: [G·n, ·]
        ends = np.cumsum([0] + [g * n for _a, g in recurrent])
        for lo in reversed(range(0, steps, TIME_BLOCK)):
            t = slice(lo, min(lo + TIME_BLOCK, steps))
            da = buf[: t.stop - lo]
            yield t, da
            dw += np.matmul(da, self.xs[t]).sum(axis=0)
            for (a, _g), lo_row, hi_row in zip(recurrent, ends, ends[1:]):
                du[lo_row:hi_row] += np.matmul(da[:, lo_row:hi_row], a[t].transpose(0, 2, 1)).sum(axis=0)
            db += np.matmul(da, ones).sum(axis=0)
            for (_p, reverse, _band), dx in zip(self.dirs, np.split(np.matmul(da.transpose(0, 2, 1), self.w.T), k, axis=2)):
                _time_major(x_grad, reverse)[t] += dx
        dw, du, db = dw.T.reshape(k, width, gates, k, hidden), du.T.reshape(k, hidden, gates, k, hidden), db.reshape(gates, k, hidden)
        for j, vs in enumerate(self.params):
            for v, gv in zip(vs, [*dw[j, :, :, j].swapaxes(0, 1), *du[j, :, :, j].swapaxes(0, 1), *db[:, j]]):
                v.ensure_grad()[...] += gv
        for s, carry in zip(self.states, carries):
            s.ensure_grad()[...] += carry.T


def _gru_kernel(x: Variable, h0: Variable, dirs, out: np.ndarray) -> Callable[[np.ndarray], None]:
    """GRUs on the ``_Recurrence`` layout from the state h0, each writing its
    states to its band of ``out``. Returns the backward, given d(out).

    r = sigmoid(x·W_r + h·U_r + b_r)
    z = sigmoid(x·W_z + h·U_z + b_z)
    cand = tanh(x·W_h + (r*h)·U_h + b_h)
    h' = z*h + (1-z)*cand        (the update gate keeps the OLD state)

    The gates are [r | z | cand], with the biases folded into the projection.
    """
    r = _Recurrence("gru", x, (h0,), dirs)
    n, u_t, steps, batch = r.n, r.u_t, r.steps, r.batch
    (hs,) = r.tracks
    rz, rh, cand = _kept(steps, 2 * n, batch), _kept(steps, n, batch), _kept(steps, n, batch)
    u_rz, u_c = u_t[: 2 * n], u_t[2 * n :]
    # Each step's views, built once: the loop is bound by per-call overhead at desk size.
    views = zip(hs[:-1], rz, rz[:, :n], rz[:, n:], rh, cand, hs[1:], r.project(2 * n))
    for h, a, r_t, z_t, rh_t, c, h_next, (xw_rz, xw_c) in views:
        np.matmul(u_rz, h, out=a)
        a += xw_rz
        _stable_sigmoid(a, out=a)
        np.multiply(r_t, h, out=rh_t)
        np.matmul(u_c, rh_t, out=c)
        c += xw_c
        np.tanh(c, out=c)
        np.subtract(h, c, out=h_next)  # h' = cand + z*(h - cand)
        h_next *= z_t
        h_next += c
    r.write_bands(out, hs)

    def bw(g: np.ndarray) -> None:
        gs = r.read_bands(g)
        carry, mixed = np.zeros((2 * n, batch)), np.empty((2 * n, batch))  # carry is [dL/d(r*h); dL/dh]
        drh, dh, u_rz_t, u_c_t = carry[:n], carry[n:], u_rz.T, u_c.T
        for t, da in r.credit([(hs[:-1], 2), (rh, 1)], dh):
            # Factors from dL/d(r*h) (for r) and dL/dh' (z, cand) to the pre-activations, scaled in place below:
            # [r*(1-r)*h | z*(1-z)*(h-cand) | (1-z)*(1-cand²)], in that order.
            h, rz_b, cand_b, da_rz, da_z, da_c = hs[t], rz[t], cand[t], da[:, : 2 * n], da[:, n : 2 * n], da[:, 2 * n :]
            np.multiply(np.subtract(1.0, rz_b, out=da_rz)[:, n:], np.subtract(1.0, cand_b * cand_b, out=da_c), out=da_c)
            np.multiply(rz_b, da_rz, out=da_rz)
            da[:, :n] *= h
            da_z *= h - cand_b
            for g_t, da_rz, da_c, rz_t in zip(gs[t][::-1], da[::-1, : 2 * n], da[::-1, 2 * n :], rz_b[::-1]):
                dh += g_t
                da_c *= dh
                np.matmul(u_c_t, da_c, out=drh)
                da_rz *= carry
                np.multiply(carry, rz_t, out=mixed)  # [drh*r; dh*z]
                np.matmul(u_rz_t, da_rz, out=dh)
                dh += mixed[n:]
                dh += mixed[:n]

    return bw


def _lstm_kernel(x: Variable, h0: Variable, c0: Variable, dirs, out: np.ndarray):
    """LSTMs on the ``_Recurrence`` layout from the states (h0, c0), each
    writing its hidden states to its band of ``out``. Returns the backward,
    given d(out), and the final cell state, whose gradient, if any, the
    backward reads as the cell carry into the last step.

    i, f, o = sigmoid(x·W + h·U + b), each with its own weights
    cand = tanh(x·W_c + h·U_c + b_c);  c' = f*c + i*cand;  h' = o*tanh(c')

    The gates are [i | f | o | cand], with the biases folded into the projection.
    """
    r = _Recurrence("lstm", x, (h0, c0), dirs)
    n, u_t, steps, batch = r.n, r.u_t, r.steps, r.batch
    hs, cs = r.tracks
    gates, tc = _kept(steps, 4 * n, batch), _kept(steps, n, batch)
    i, f, o, c = np.split(gates, 4, axis=1)
    views = zip(hs[:-1], cs[:-1], gates, r.project(), gates[:, : 3 * n], i, f, o, c, cs[1:], tc, hs[1:])  # as in the GRU
    for h, c_prev, a, (xw_t,), sig, i_t, f_t, o_t, c_t, c_next, tc_t, h_next in views:
        np.matmul(u_t, h, out=a)
        a += xw_t
        _stable_sigmoid(sig, out=sig)
        np.tanh(c_t, out=c_t)
        np.multiply(f_t, c_prev, out=c_next)
        c_next += i_t * c_t
        np.tanh(c_next, out=tc_t)
        np.multiply(o_t, tc_t, out=h_next)
    r.write_bands(out, hs)
    c_last = Variable(np.ascontiguousarray(cs[steps].T))

    def bw(g: np.ndarray) -> None:
        gs = r.read_bands(g)
        carry = np.zeros((4, n, batch))  # carry is [dc; dc; dh; dc]
        dc, dh, flat, u = carry[0], carry[2], carry.reshape(4 * n, batch), u_t.T
        if c_last.grad is not None:
            dc[...] = c_last.grad.T
        for t, da in r.credit([(hs[:-1], 4)], dh, dc):
            # Factors from dL/dc' (for i, f, cand) or dL/dh' (o, and c' itself) to each pre-activation, scaled in place below.
            i_b, f_b, o_b, c_b, tc_b = i[t], f[t], o[t], c[t], tc[t]
            factors = [c_b * i_b * (1.0 - i_b), cs[t] * f_b * (1.0 - f_b), tc_b * o_b * (1.0 - o_b), i_b * (1.0 - c_b * c_b)]
            np.concatenate(factors, 1, out=da)
            for g_t, k_cell_t, da_t, f_t in zip(gs[t][::-1], (o_b * (1.0 - tc_b * tc_b))[::-1], da[::-1], f_b[::-1]):
                dh += g_t
                dc += dh * k_cell_t
                carry[1::2] = dc
                da_t *= flat
                dc *= f_t
                np.matmul(u, da_t, out=dh)

    return bw, c_last


def _scan_reverse(inputs: Variable, direction: str, name: str) -> bool:
    """Validate a scan's input and direction; True for the backward direction."""
    _sequence(inputs, name)
    if direction not in ("forward", "backward"):
        raise ContractError(f"unknown scan direction: {direction!r}")
    return direction == "backward"


def _cell(p: GruParams | LstmParams, x: Variable) -> tuple[list[Variable], int]:
    """The cell ``p``'s fields, checked for inputs ``x`` of width d, and its state width, read off them."""
    vs = p.checked(x.shape[-1], None)
    return vs, vs[0].shape[-1]


def gru_scan(inputs: Variable, p: GruParams, direction: str = "forward") -> Variable:
    """GRU states [batch, T, h] over [batch, T, d] inputs from a zero state.

    The backward direction scans reversed time and stores outputs back at
    their original positions, so position t holds the state computed from
    the suffix t..T.
    """
    reverse, (vs, hidden) = _scan_reverse(inputs, direction, "gru_scan"), _cell(p, inputs)
    out, h0 = np.empty(inputs.shape[:2] + (hidden,)), Variable(np.zeros((inputs.shape[0], hidden)))
    return record("gru_scan", Variable(out), _gru_kernel(inputs, h0, [(vs, reverse, slice(None))], out))


def lstm_scan(inputs: Variable, p: LstmParams, direction: str = "forward") -> Variable:
    """LSTM hidden states [batch, T, h] from a zero state; directions as in ``gru_scan``."""
    reverse, (vs, hidden) = _scan_reverse(inputs, direction, "lstm_scan"), _cell(p, inputs)
    out, zeros = np.empty(inputs.shape[:2] + (hidden,)), np.zeros((inputs.shape[0], hidden))
    bw, _c = _lstm_kernel(inputs, Variable(zeros), Variable(zeros), [(vs, reverse, slice(None))], out)
    return record("lstm_scan", Variable(out), bw)


def _one_step(x_t: Variable, p: GruParams | LstmParams, name: str):
    """Validate a cell step's input; the cell's one direction, for ``dirs``, and the [batch, h] buffer for its new state."""
    if x_t.value.ndim != 2:
        raise ShapeError(f"{name} expects [batch, d], got {x_t.shape}")
    vs, hidden = _cell(p, x_t)
    return [(vs, False, slice(None))], np.empty((x_t.shape[0], hidden))


def gru_cell_step(x_t: Variable, h_prev: Variable, p: GruParams) -> Variable:
    """One GRU step, [batch, d] -> [batch, h]: the scan kernel at T=1, as one tape node."""
    dirs, out = _one_step(x_t, p, "gru_cell_step")
    return record("gru_cell_step", Variable(out), _gru_kernel(x_t, h_prev, dirs, out))


def lstm_cell_step(x_t: Variable, state_prev: tuple[Variable, Variable], p: LstmParams) -> tuple[Variable, Variable]:
    """One LSTM step, returning (h_t, c_t): the scan kernel at T=1 as one tape
    node, and c_t as a second, whose backward only makes sure the kernel's runs
    and reads c_t's gradient, so c gets gradient even when h_t was not used."""
    dirs, out = _one_step(x_t, p, "lstm_cell_step")
    bw, c_t = _lstm_kernel(x_t, *state_prev, dirs, out)
    h_t = record("lstm_cell_step", Variable(out), bw)
    return h_t, record("lstm_cell_state", c_t, lambda _g: h_t.ensure_grad())


def birnn_context(x: Variable, p_fwd: GruParams, p_bwd: GruParams) -> Variable:
    """Per position [right-context-state | embedding | left-context-state],
    [batch, T, 2h+e]: the backward and forward GRU scans of the [batch, T, e]
    embeddings from zero states, run as one loop and one tape node.
    """
    (batch, steps, embed), (fwd, hidden) = _sequence(x, "birnn_context"), _cell(p_fwd, x)
    mid = slice(hidden, hidden + embed)
    out = np.empty((batch, steps, 2 * hidden + embed))
    dirs = [(fwd, False, slice(hidden + embed, None)), (p_bwd.checked(embed, hidden), True, slice(None, hidden))]
    bw = _gru_kernel(x, Variable(np.zeros((batch, 2 * hidden))), dirs, out)
    out[:, :, mid] = x.value

    def backward(g: np.ndarray) -> None:
        bw(g)
        x.ensure_grad()[...] += g[:, :, mid]

    return record("birnn_context", Variable(out), backward)


# ---------------------------------------------------------------------------
# Highway and convolution
# ---------------------------------------------------------------------------

def _spans(n: int, size: int) -> list[slice]:
    """[0, n) in slices of ``size``, the last one taking the rest."""
    starts = range(0, max(n // size, 1) * size, size)
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


def _row_blocks(row_macs: int, *arrays: np.ndarray | None):
    """[N, ·] arrays in blocks, as views; a None is fresh scratch shaped as the first array's block. A block has ``ROW_BLOCK``
    rows or the fewest multiple of 64 whose GEMM, at ``row_macs`` multiply-adds a row, exceeds ``GEMM_SMALL``; the last, the rest."""
    for s in _spans(len(arrays[0]), max(ROW_BLOCK, (GEMM_SMALL // max(row_macs, 1) // 64 + 1) * 64)):
        yield tuple(np.empty_like(arrays[0][s]) if a is None else a[s] for a in arrays)


def _live_rows(g: np.ndarray, *factors: np.ndarray):
    """The live rows of a position-wise block's backward: an index ``at`` of the
    positions (g's leading axes) whose upstream gradient row is not all zero, and
    g and each [N, k] factor gathered on them as [n, k]. With half or more
    live, ``at`` is ``...`` and the gathers are views: the dense backward."""
    live = np.flatnonzero(g.any(axis=-1))
    few = 2 * live.size < g.size // g.shape[-1]
    rows, at = (live, np.unravel_index(live, g.shape[:-1])) if few else (slice(None), ...)
    return at, [a.reshape(-1, a.shape[-1])[rows] for a in (g, *factors)]


def highway_forward(x_tilde: Variable, p: HighwayParams) -> Variable:
    """Gated skip connection applied independently at every position.

    gate = sigmoid(x·W_t + b_t);  y = gate*relu(x·W_h + b_h) + (1-gate)*x.
    The gate and transform read the same full input, which the square
    parameter shapes require.

    One tape node (Srivastava, Greff & Schmidhuber, arXiv 1505.00387): the
    gate and the transform are one matmul each, so both are contiguous, and
    the backward is written by hand: it stacks their pre-activation
    gradients so that the weight and the input gradients are one matmul
    each, the latter over [W_t | W_h]. The mix forms the products above, so
    the output matches the primitive graph bit for bit. All of it, matmuls too, runs on
    ``_row_blocks``; untaped, the gate and transform are block scratch. Forward ms,
    matmuls whole / blocked: untaped 17.5/13.4 at [64, 500, 32], taped 8.5/7.5 at [32, 500, 32].

    The backward works on the live rows alone (``_live_rows``): under a
    window-1 pooled convolution at most B·F of the B·T positions get
    gradient. Dead rows' input gradient stays +0.0, so a highway layer below
    skips the same rows. The weight and bias gradients sum only the live
    rows, which a BLAS may group differently from the dense sum (about 1e-15
    relative). Under half live is the rule because gathering stops paying
    at 60-80% live: dense / gathered ms at 5, 50, 70, 98% live were 13.4/2.6,
    14.2/12.2, 15.9/16.3, 14.2/20.0 on 16,000 x 32 rows (2-core Xeon, 1 thread).
    """
    d = x_tilde.shape[-1]
    w_h, b_h, w_t, b_t = p.checked(d)
    x = x_tilde.value.reshape(-1, d)
    # The backward reads the gate and transform whole; untaped, each block gets scratch (None).
    gate, transformed, y = (np.empty_like(x) if keep else None for keep in (taping(), taping(), True))
    for xb, gb, tb, yb in _row_blocks(d * d, x, gate, transformed, y):
        _stable_sigmoid(np.add(np.matmul(xb, w_t.value, out=gb), b_t.value, out=gb), out=gb)
        np.maximum(np.add(np.matmul(xb, w_h.value, out=tb), b_h.value, out=tb), 0.0, out=tb)
        np.multiply(np.subtract(1.0, gb, out=yb), xb, out=yb)
        yb += gb * tb  # the mix's two products, summed in the other order: the same bits

    def bw(g: np.ndarray) -> None:
        at, (g, xs, gs, ts) = _live_rows(g, x, gate, transformed)
        da = np.empty((len(g), 2 * d))  # [gate | transform] pre-activation gradients
        np.multiply(g * (ts - xs), gs * (1.0 - gs), out=da[:, :d])
        # Subgradient of the relu at exactly 0 is 0.
        np.multiply(g * gs, ts > 0.0, out=da[:, d:])
        w = np.concatenate([w_t.value, w_h.value], axis=1)
        dw, db = xs.T @ da, da.sum(axis=0)
        for v, gv in ((w_t, dw[:, :d]), (w_h, dw[:, d:]), (b_t, db[:d]), (b_h, db[d:])):
            v.ensure_grad()[...] += gv
        dx = x_tilde.ensure_grad()
        dx[at] += (da @ w.T + g * (1.0 - gs)).reshape(dx[at].shape)

    return record("highway_forward", Variable(y.reshape(x_tilde.shape)), bw)


def dense_relu_positions(x: Variable, p: DenseParams) -> Variable:
    """relu(x·W + b) applied independently at every (batch, position), as one
    tape node whose backward is written by hand. Like ``highway_forward``'s,
    the backward works on the live rows alone, and is the dense one, bit for
    bit, when half the rows or more are live."""
    d = x.shape[-1]
    w, b = p.checked(d, None)
    width = w.shape[-1]
    rows = x.value.reshape(-1, d)
    y = np.empty((len(rows), width))
    for xb, yb in _row_blocks(d * width, rows, y):
        np.maximum(np.add(np.matmul(xb, w.value, out=yb), b.value, out=yb), 0.0, out=yb)

    def bw(g: np.ndarray) -> None:
        at, (g, xs, ys) = _live_rows(g, rows, y)
        # Subgradient of the relu at exactly 0 is 0.
        da = g * (ys > 0.0)
        w.ensure_grad()[...] += xs.T @ da
        b.ensure_grad()[...] += da.sum(axis=0)
        dx = x.ensure_grad()
        dx[at] += (da @ w.value.T).reshape(dx[at].shape)

    return record("dense_relu_positions", Variable(y.reshape(x.shape[:-1] + (width,))), bw)


def _max_over_time(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each filter's maximum over the positions of [F, B, L] maps, and the
    position of its first argmax, which routes the maximum's gradient: both
    [B, F] views. Both reduce the last, time axis."""
    at = maps.argmax(axis=2)
    return np.take_along_axis(maps, at[:, :, None], axis=2)[:, :, 0].T, at.T


def _example_blocks(batch: int, length: int, num_filters: int, row_width: int) -> list[slice]:
    """The pooled convolution's blocks of whole examples, ``CONV_BLOCK``'s rule; the last takes the rest. One filter's
    product is a matrix-vector one, which rounds by its cut into threads, so it runs whole."""
    least = max(-(-CONV_COLUMNS // length), GEMM_SMALL // (length * num_filters * row_width) + 1)
    examples = 8 * max(CONV_BLOCK // (8 * length * num_filters), -(-least // 8))
    return _spans(batch, batch if num_filters == 1 else examples)


def _windows(a: np.ndarray, h: int, writeable: bool = False) -> np.ndarray:
    """[B, T, d] -> every [h, d] window, [B, L, h, d], as a view in any memory layout."""
    return sliding_window_view(a, h, axis=1, writeable=writeable).transpose(0, 1, 3, 2)


def conv1d_forward(y: Variable, p: ConvParams, *, pool: bool = False) -> Variable:
    """Valid (no-padding) 1-d convolution with a relu response.

    Output position i is relu(filters · flattened y[i : i+window] + bias),
    giving a feature map of length T - window + 1.

    One im2col kernel (Chellapilla, Puri & Simard, 2006) records one tape
    node: the windows, a strided view of y, are copied as rows of h·d
    columns, and one matmul, filters on the left, gives the responses
    filter-major, [F, B·L]; the map is the relu of their transpose, written
    as one copy. The backward adds each of the h window slots back onto the
    input as one strided slab.

    With ``pool``, the node instead takes each filter's maximum over time and
    returns [B, F], bit-equal to ``maxpool_over_time`` of the map: the same
    responses, and relu commutes with max. Its product runs on blocks of
    whole examples (``_example_blocks``), each block's columns and responses
    scratch, and gives the whole product's bits; only each (batch, filter)'s
    maximum and the position of its first argmax are kept. The backward
    touches only those B·F windows, gathered from the view of y, so no
    im2col is kept: a filter's B windows lie in different examples, so plain
    indexed adds credit the filter and add onto the input's windows in place.
    """
    h = p.window
    batch, steps, width = _sequence(y, "conv1d_forward", h)
    filters, bias = p.checked(h, width, None)
    length, num_filters = steps - h + 1, filters.shape[0]
    windows = _windows(y.value, h)

    def block(examples: slice) -> tuple[np.ndarray, np.ndarray]:
        cols = windows[examples].reshape(-1, h * width)  # [b·L, h·d] rows, each window flattened row-major
        responses = filters.value @ cols.T
        responses += bias.value[:, None]
        return cols, responses

    if pool:
        pooled, at = np.empty((batch, num_filters)), np.empty((batch, num_filters), dtype=np.intp)
        for s in _example_blocks(batch, length, num_filters, h * width):
            pooled[s], at[s] = _max_over_time(block(s)[1].reshape(num_filters, -1, length))
        np.maximum(pooled, 0.0, out=pooled)

        def bw_pooled(g: np.ndarray) -> None:
            da = g * (pooled > 0.0)  # subgradient of the relu at exactly 0 is 0
            bias.ensure_grad()[...] += da.sum(axis=0)
            dw, kernels, rows = filters.ensure_grad(), filters.value.reshape(-1, h, width), np.arange(batch)
            # dy's windows overlap, so they are written one filter at a time.
            dy = _windows(y.ensure_grad(), h, writeable=True)
            for f in range(num_filters):
                dw[f] += da[:, f] @ windows[rows, at[:, f]].reshape(batch, -1)
                dy[rows, at[:, f]] += da[:, f, None, None] * kernels[f]

        return record("conv1d_forward", Variable(pooled), bw_pooled)
    cols, responses = block(slice(None))
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
    _sequence(feature_map, "maxpool_over_time")
    pooled, at = _max_over_time(feature_map.value.transpose(2, 0, 1))

    def bw(g: np.ndarray) -> None:
        feature_map.ensure_grad()[np.arange(g.shape[0])[:, None], at, np.arange(g.shape[1])] += g

    return record("maxpool_over_time", Variable(np.ascontiguousarray(pooled)), bw)


# ---------------------------------------------------------------------------
# Masked reductions over time
# ---------------------------------------------------------------------------

def _validate_lengths(lengths: np.ndarray, batch: int, steps: int) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,):
        raise ShapeError(f"lengths shape {lengths.shape} does not match batch {batch}")
    if (lengths < 1).any() or (lengths > steps).any():
        raise ContractError(f"lengths must lie in [1, {steps}]")
    return lengths


def _weighted_time_sum(op: str, x: Variable, lengths: np.ndarray, mean: bool) -> Variable:
    """The sum, or with ``mean`` the mean, of the first lengths[b] positions;
    padding is excluded. Summands are sorted first so the reduction is
    bit-exactly independent of token order."""
    lengths = _validate_lengths(lengths, *_sequence(x, op)[:2])
    weight = 1.0 / lengths if mean else np.ones(lengths.shape)
    mask = np.arange(x.shape[1])[None, :, None] < lengths[:, None, None]
    out = Variable(np.sort(np.where(mask, x.value, 0.0), axis=1).sum(axis=1) * weight[:, None])

    def bw(g: np.ndarray) -> None:
        x.ensure_grad()[...] += (g * weight[:, None])[:, None, :] * mask

    return record(op, out, bw)


def sum_over_time(x: Variable, lengths: np.ndarray) -> Variable:
    """Sum of the first lengths[b] positions; the weight 1.0 leaves every sum bit-exact.
    No model calls it (``cow`` pools in ``embed``). Like ``maxpool_over_time``, it stays:
    ``bench/tracer.py`` wraps it by name, summed over unpooled ``embed`` it is the embedding
    bag's test reference, and gradcheck checks it."""
    return _weighted_time_sum("sum_over_time", x, lengths, mean=False)


def mean_over_time(x: Variable, lengths: np.ndarray) -> Variable:
    """Mean over the TRUE length; positions beyond it are excluded."""
    return _weighted_time_sum("mean_over_time", x, lengths, mean=True)


# ---------------------------------------------------------------------------
# Joins and the softmax head
# ---------------------------------------------------------------------------

def concat(parts: Sequence[Variable], axis: int) -> Variable:
    """The parts joined along ``axis``; each part's gradient is its slab of the output's."""
    if not parts:
        raise ContractError("concat needs at least one part")
    try:
        out = Variable(np.concatenate([p.value for p in parts], axis=axis))
    except ValueError as exc:  # numpy's AxisError is a ValueError too
        raise ShapeError(f"concat along axis {axis}: {exc}") from exc
    bounds = np.cumsum([p.shape[axis] for p in parts[:-1]])

    def bw(g: np.ndarray) -> None:
        for p, slab in zip(parts, np.split(g, bounds, axis=axis)):
            p.ensure_grad()[...] += slab

    return record("concat", out, bw)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of [batch, classes] logits, max-shifted so exp cannot overflow."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Jacobian-vector product of the row softmax p: dz = p * (g - <g, p>)."""
    return p * (g - np.sum(g * p, axis=1, keepdims=True))


def dense_softmax(x: Variable, p: DenseParams) -> Variable:
    """Class probabilities softmax(x·W + b), [batch, classes], as one tape node. The weight's
    rank is checked before any of its dimensions is read."""
    if x.value.ndim != 2 or p.w.value.ndim != 2 or x.shape[1] != p.w.shape[0]:
        raise ShapeError(f"dense_softmax needs [batch, d] by DenseParams.w [d, classes], got {x.shape} by {p.w.shape}")
    if p.w.shape[1] < 2:
        raise ContractError(f"dense_softmax needs at least 2 classes, got {p.w.shape[1]}")
    w, b = p.checked(*p.w.shape)
    z = x.value @ w.value
    z += b.value
    probs = _softmax(z)

    def bw(g: np.ndarray) -> None:
        dz = _softmax_grad(probs, g)
        w.ensure_grad()[...] += x.value.T @ dz
        b.ensure_grad()[...] += dz.sum(axis=0)
        x.ensure_grad()[...] += dz @ w.value.T

    return record("dense_softmax", Variable(probs), bw)
