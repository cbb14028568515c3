"""Independent reference implementations used to verify the engine.

The forward oracles are written with plain numpy loops and explicit
arithmetic, deliberately avoiding the package's layers and autodiff
machinery. The taped graphs at the end are the exception: they build each
cell step, each convolution position, the highway block, the MLP block or
the softmax head from autodiff primitives, so their gradients come from the
primitives' backward rules and check the fused kernels' hand-written
backward passes. The primitives are defined first, for these graphs and the
engine tests, ``reshape`` among them; the engine itself defines no ops, and
the package records only kernels, ``layers.concat`` the one join.
"""

import numpy as np

from rcnnlab.autodiff import Variable, _stable_sigmoid, record
from rcnnlab.errors import ContractError, ShapeError
from rcnnlab.layers import _softmax, _softmax_grad, _steps, _time_major, concat


def matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs [m,k] by [k,n], got {a.shape} by {b.shape}")
    out = Variable(a.value @ b.value)

    def bw(g):
        # dA = dC·Bᵀ, dB = Aᵀ·dC
        a.ensure_grad()[...] += g @ b.value.T
        b.ensure_grad()[...] += a.value.T @ g

    return record("matmul", out, bw)


def _same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs identical shapes, got {a.shape} and {b.shape}")


def add(a, b):
    _same_shape(a, b, "add")
    out = Variable(a.value + b.value)

    def bw(g):
        a.ensure_grad()[...] += g
        b.ensure_grad()[...] += g

    return record("add", out, bw)


def mul(a, b):
    _same_shape(a, b, "mul")
    out = Variable(a.value * b.value)

    def bw(g):
        a.ensure_grad()[...] += g * b.value
        b.ensure_grad()[...] += g * a.value

    return record("mul", out, bw)


def sub(a, b):
    _same_shape(a, b, "sub")
    out = Variable(a.value - b.value)

    def bw(g):
        a.ensure_grad()[...] += g
        b.ensure_grad()[...] -= g

    return record("sub", out, bw)


def one_minus(a):
    out = Variable(1.0 - a.value)

    def bw(g):
        a.ensure_grad()[...] -= g

    return record("one_minus", out, bw)


def tanh(a):
    t = np.tanh(a.value)
    out = Variable(t)

    def bw(g):
        a.ensure_grad()[...] += g * (1.0 - t * t)

    return record("tanh", out, bw)


def sigmoid(a):
    s = _stable_sigmoid(a.value)
    out = Variable(s)

    def bw(g):
        a.ensure_grad()[...] += g * s * (1.0 - s)

    return record("sigmoid", out, bw)


def relu(a):
    out = Variable(np.maximum(a.value, 0.0))

    def bw(g):
        # Subgradient at exactly 0 is 0.
        a.ensure_grad()[...] += g * (a.value > 0.0)

    return record("relu", out, bw)


def bias_add(x, b):
    """Add a rank-1 bias over the trailing axis, broadcast over leading axes."""
    if b.value.ndim != 1 or x.value.ndim < 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"bias_add needs [..., d] plus [d], got {x.shape} and {b.shape}")
    out = Variable(x.value + b.value)

    def bw(g):
        x.ensure_grad()[...] += g
        b.ensure_grad()[...] += g.reshape(-1, b.shape[0]).sum(axis=0)

    return record("bias_add", out, bw)


def sum_all(x):
    out = Variable(np.sum(x.value))

    def bw(g):
        x.ensure_grad()[...] += g

    return record("sum_all", out, bw)


def reshape(x, shape):
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.value.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = Variable(x.value.reshape(shape))

    def bw(g):
        x.ensure_grad()[...] += g.reshape(x.shape)

    return record("reshape", out, bw)


def slice_axis(x, axis, start, stop):
    ndim = x.value.ndim
    if axis < 0 or axis >= ndim:
        raise ShapeError(f"slice axis {axis} out of range for rank {ndim}")
    if not (0 <= start < stop <= x.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}] invalid for axis of length {x.shape[axis]}")
    sl = [slice(None)] * ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = Variable(x.value[sl].copy())

    def bw(g):
        x.ensure_grad()[sl] += g

    return record("slice_axis", out, bw)


def max_over_axis(x: Variable, axis: int) -> tuple[Variable, np.ndarray]:
    """Per-slice maximum plus the index of its first occurrence.

    The backward rule routes the whole upstream gradient to the argmax
    position; first-occurrence tie-breaking keeps it deterministic.
    """
    ndim = x.value.ndim
    if axis < 0 or axis >= ndim:
        raise ShapeError(f"max axis {axis} out of range for rank {ndim}")
    if x.shape[axis] < 1:
        raise ContractError(f"max over empty axis {axis} of shape {x.shape}")
    idx = np.argmax(x.value, axis=axis)
    at = np.expand_dims(idx, axis)
    values = np.take_along_axis(x.value, at, axis=axis).squeeze(axis)
    out = Variable(values)

    def bw(g: np.ndarray) -> None:
        grad = x.ensure_grad()
        np.put_along_axis(grad, at, np.take_along_axis(grad, at, axis=axis) + np.expand_dims(g, axis), axis=axis)

    return record("max_over_axis", out, bw), idx


def conv_oracle(y: np.ndarray, filters: np.ndarray, bias: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window dot products evaluated position by position."""
    batch, steps, _d = y.shape
    num_filters = filters.shape[0]
    out = np.zeros((batch, steps - window + 1, num_filters))
    for b in range(batch):
        for i in range(steps - window + 1):
            flat = y[b, i : i + window, :].reshape(-1)
            for f in range(num_filters):
                out[b, i, f] = max(0.0, float(filters[f] @ flat + bias[f]))
    return out


def tiny_forward_oracle(params: dict, ids: np.ndarray, hidden: int = 1) -> np.ndarray:
    """Step-by-step evaluation of the tiny highway model, one example and one
    time step at a time."""

    def gru_seq(prefix: str, xs: list) -> list:
        h = np.zeros(hidden)
        states = []
        for x in xs:
            r = 1 / (1 + np.exp(-(x @ params[f"{prefix}.w_r"] + h @ params[f"{prefix}.u_r"] + params[f"{prefix}.b_r"])))
            z = 1 / (1 + np.exp(-(x @ params[f"{prefix}.w_z"] + h @ params[f"{prefix}.u_z"] + params[f"{prefix}.b_z"])))
            cand = np.tanh(x @ params[f"{prefix}.w_h"] + (r * h) @ params[f"{prefix}.u_h"] + params[f"{prefix}.b_h"])
            h = z * h + (1 - z) * cand
            states.append(h)
        return states

    out_rows = []
    for row in ids:
        xs = [params["embedding.table"][t] for t in row]
        fwd = gru_seq("gru_fwd", xs)
        bwd = gru_seq("gru_bwd", xs[::-1])[::-1]
        pooled = None
        for t in range(len(xs)):
            ctx = np.concatenate([bwd[t], xs[t], fwd[t]])
            tau = 1 / (1 + np.exp(-(ctx @ params["highway0.w_t"] + params["highway0.b_t"])))
            transformed = np.maximum(ctx @ params["highway0.w_h"] + params["highway0.b_h"], 0.0)
            y = tau * transformed + (1 - tau) * ctx
            feat = np.maximum(params["conv.filters"] @ y + params["conv.bias"], 0.0)
            pooled = feat if pooled is None else np.maximum(pooled, feat)
        logits = pooled @ params["head.w"] + params["head.b"]
        e = np.exp(logits - logits.max())
        out_rows.append(e / e.sum())
    return np.stack(out_rows)


def taped_gru_step(x_t, h_prev, p):
    r = sigmoid(bias_add(add(matmul(x_t, p.w_r), matmul(h_prev, p.u_r)), p.b_r))
    z = sigmoid(bias_add(add(matmul(x_t, p.w_z), matmul(h_prev, p.u_z)), p.b_z))
    cand = tanh(bias_add(add(matmul(x_t, p.w_h), matmul(mul(r, h_prev), p.u_h)), p.b_h))
    return add(mul(z, h_prev), mul(one_minus(z), cand))


def taped_lstm_step(x_t, state_prev, p):
    h_prev, c_prev = state_prev
    i = sigmoid(bias_add(add(matmul(x_t, p.w_i), matmul(h_prev, p.u_i)), p.b_i))
    f = sigmoid(bias_add(add(matmul(x_t, p.w_f), matmul(h_prev, p.u_f)), p.b_f))
    o = sigmoid(bias_add(add(matmul(x_t, p.w_o), matmul(h_prev, p.u_o)), p.b_o))
    cand = tanh(bias_add(add(matmul(x_t, p.w_c), matmul(h_prev, p.u_c)), p.b_c))
    c_t = add(mul(f, c_prev), mul(i, cand))
    return mul(o, tanh(c_t)), c_t


def taped_scan(inputs, step, init_state, direction):
    """Unroll ``step(x_t, state) -> (h_t, new_state)`` over [batch, T, d]
    inputs; the backward direction stores each state at its input's position."""
    batch, steps, width = inputs.shape
    order = range(steps) if direction == "forward" else range(steps - 1, -1, -1)
    outputs = [None] * steps
    state = init_state
    for t in order:
        x_t = reshape(slice_axis(inputs, 1, t, t + 1), (batch, width))
        h_t, state = step(x_t, state)
        outputs[t] = reshape(h_t, (batch, 1, h_t.shape[1]))
    return concat(outputs, axis=1)


def _zero_state(inputs, p):
    """Zeros [batch, h]; a cell's last named tensor is a bias of width h."""
    return Variable(np.zeros((inputs.shape[0], p.named()[-1][1].shape[0])))


def taped_gru_scan(inputs, p, direction):
    def step(x_t, h):
        h_t = taped_gru_step(x_t, h, p)
        return h_t, h_t

    return taped_scan(inputs, step, _zero_state(inputs, p), direction)


def taped_birnn_context(x, p_fwd, p_bwd):
    """The context stage as two taped scans around the embeddings."""
    return concat([taped_gru_scan(x, p_bwd, "backward"), x, taped_gru_scan(x, p_fwd, "forward")], axis=2)


def taped_lstm_scan(inputs, p, direction):
    def step(x_t, state):
        h_t, c_t = taped_lstm_step(x_t, state, p)
        return h_t, (h_t, c_t)

    return taped_scan(inputs, step, (_zero_state(inputs, p), _zero_state(inputs, p)), direction)


def whole_credit(self, recurrent, *carries):
    """``layers._Recurrence.credit`` as the recurrent kernels ran before their
    backward worked in time blocks: one block of all T steps, credited on whole
    arrays. da, x and each U operand are copied into [T·B, ·] rows; dW, each dU
    and dx are one matmul over them, and db their column sum. Patched in for
    ``credit``, it gives a kernel's gradients in their old bits."""
    (k, width, gates, hidden), n = self.dims, self.n
    da = np.empty((self.steps, gates * n, self.batch))
    yield slice(0, self.steps), da
    rows = [a.transpose(0, 2, 1).reshape(self.steps * self.batch, -1) for a in (da, *(a for a, _g in recurrent))]
    flat, ends = rows[0], np.cumsum([0] + [g * n for _a, g in recurrent])
    du = np.concatenate([r.T @ flat[:, lo:hi] for r, lo, hi in zip(rows[1:], ends, ends[1:])], 1)
    dw = (self.xs.reshape(len(flat), -1).T @ flat).reshape(k, width, gates, k, hidden)
    du, db = du.reshape(k, hidden, gates, k, hidden), flat.sum(axis=0).reshape(gates, k, hidden)
    for j, vs in enumerate(self.params):
        for v, gv in zip(vs, [*dw[j, :, :, j].swapaxes(0, 1), *du[j, :, :, j].swapaxes(0, 1), *db[:, j]]):
            v.ensure_grad()[...] += gv
    dxs = np.split((flat @ self.w.T).reshape(self.steps, self.batch, -1), k, axis=2)
    for (_p, reverse, _band), dx in zip(self.dirs, dxs):
        _time_major(_steps(self.x.ensure_grad()), reverse)[...] += dx
    for s, carry in zip(self.states, carries):
        s.ensure_grad()[...] += carry.T


def taped_transpose(x):
    out = Variable(x.value.T.copy())

    def bw(g):
        x.ensure_grad()[...] += g.T

    return record("transpose", out, bw)


def taped_conv(y, p):
    """Valid convolution one output position at a time: slice the window,
    flatten it, multiply by the transposed filters and add the bias; then
    concatenate the positions and apply the relu."""
    batch, steps, width = y.shape
    h = p.window
    weights = taped_transpose(p.filters)
    positions = []
    for i in range(steps - h + 1):
        window = reshape(slice_axis(y, 1, i, i + h), (batch, h * width))
        responses = bias_add(matmul(window, weights), p.bias)
        positions.append(reshape(responses, (batch, 1, p.bias.shape[0])))
    return relu(concat(positions, axis=1))


def taped_conv_pool(y, p):
    """``taped_conv`` max-pooled over time, gradient to the first argmax."""
    return max_over_axis(taped_conv(y, p), axis=1)[0]


def taped_highway(x_tilde, p):
    """The highway block as twelve primitive nodes: both affine maps, the
    sigmoid gate, the relu transform and the mix y = gate*relu + (1-gate)*x."""
    d = x_tilde.shape[-1]
    flat = reshape(x_tilde, (x_tilde.value.size // d, d))
    gate = sigmoid(bias_add(matmul(flat, p.w_t), p.b_t))
    transformed = relu(bias_add(matmul(flat, p.w_h), p.b_h))
    y = add(mul(gate, transformed), mul(one_minus(gate), flat))
    return reshape(y, x_tilde.shape)


def whole_highway(x_tilde, p):
    """The highway forward on whole arrays, one numpy pass over every row at a
    time, as the kernel ran before it worked in row blocks: the [N, d] rows,
    gate, transform and output."""
    x = x_tilde.reshape(-1, x_tilde.shape[-1])
    gate = _stable_sigmoid(x @ p.w_t.value + p.b_t.value)
    transformed = np.maximum(x @ p.w_h.value + p.b_h.value, 0.0)
    return x, gate, transformed, gate * transformed + (1.0 - gate) * x


def whole_dense_relu(x, p):
    """relu(x·W + b) over the [N, d] rows on whole arrays, as ``whole_highway``."""
    return np.maximum(x.reshape(-1, p.w.shape[0]) @ p.w.value + p.b.value, 0.0)


def dense_highway_grads(x_tilde, p, g):
    """The fused highway kernel's backward over every row, as it ran before it
    skipped zero-gradient rows: the gradients of <g, highway(x_tilde)> for
    x_tilde, w_h, b_h, w_t and b_t, as accumulated into fresh zero buffers.
    The stacked arithmetic rounds differently from ``taped_highway``."""
    d = x_tilde.shape[-1]
    x, gate, transformed, _y = whole_highway(x_tilde, p)
    g = g.reshape(x.shape)
    da = np.empty((x.shape[0], 2 * d))
    np.multiply(g * (transformed - x), gate * (1.0 - gate), out=da[:, :d])
    np.multiply(g * gate, transformed > 0.0, out=da[:, d:])
    w = np.concatenate([p.w_t.value, p.w_h.value], axis=1)
    dw, db = x.T @ da, da.sum(axis=0)
    dx = (da @ w.T + g * (1.0 - gate)).reshape(x_tilde.shape)
    return [0.0 + a for a in (dx, dw[:, d:], db[d:], dw[:, :d], db[:d])]


def taped_dense_relu(x, p):
    """The MLP block as five primitive nodes: relu(x·W + b) at every position."""
    d = x.shape[-1]
    y = relu(bias_add(matmul(reshape(x, (x.value.size // d, d)), p.w), p.b))
    return reshape(y, x.shape[:-1] + (p.w.shape[1],))


def softmax_rows(logits):
    """Row softmax with max-subtraction; rows sum to 1."""
    if logits.value.ndim != 2:
        raise ShapeError(f"softmax expects [batch, classes], got {logits.shape}")
    p = _softmax(logits.value)

    def bw(g):
        logits.ensure_grad()[...] += _softmax_grad(p, g)

    return record("softmax_rows", Variable(p), bw)


def taped_dense_softmax(x, w, b):
    """The softmax head as three nodes: matmul, bias_add and the row softmax."""
    return softmax_rows(bias_add(matmul(x, w), b))
