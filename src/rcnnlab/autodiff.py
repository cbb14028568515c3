"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are numpy float64 arrays wrapped in :class:`Variable`. Operations
compute eagerly and, when a :class:`Tape` is active, append a node holding
a backward closure. ``backward`` walks the tape in reverse construction
order, which is a valid topological order because every node's inputs
exist before the node is appended. Gradients accumulate in place, so a
Variable used twice receives the sum of both branch gradients.

There is no implicit broadcasting: binary ops require identical shapes,
except ``bias_add`` which broadcasts a rank-1 bias over leading axes.
This keeps every backward rule a direct transcription of the forward one.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, GradCheckError, ShapeError

_STATE = threading.local()


def _keep_freed_pages() -> None:
    """Keep freed heap pages in the process on glibc; elsewhere do nothing.

    glibc serves a multi-megabyte block from its own mmap and unmaps it on
    free, or trims the heap top back to the kernel, so each training step
    page-faults its temporaries in afresh. On a 2-core Xeon (glibc 2.36) a
    T=500 desk-size RCNN-HW benchmark run took 1.75M minor faults and 4.8 s
    of system time against 15 s of user time, and a sigmoid over [16000, 32]
    17.8 ms with 4,968 faults against 6.7 ms with none. Blocks up to 32 MiB
    (the 64-bit maximum of M_MMAP_THRESHOLD) now come from the heap, and up
    to 1 GiB of free heap top stays; a step reuses the pages of the last one.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no handle on the running program, as on Windows
        return
    # The option numbers are glibc's; gnu_get_libc_version exists only there.
    if hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_pages()


def _active_tape() -> "Tape | None":
    return getattr(_STATE, "tape", None)


class Variable:
    """A float64 tensor paired with a lazily allocated gradient buffer."""

    __slots__ = ("value", "grad", "node_id")

    def __init__(self, value, node_id: int | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        return self.grad

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Variable(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"

    # Sugar for same-shape arithmetic and matrix products; the named
    # functions below remain the full API.
    def __add__(self, other: "Variable") -> "Variable":
        return add(self, other)

    def __mul__(self, other: "Variable") -> "Variable":
        return mul(self, other)

    def __matmul__(self, other: "Variable") -> "Variable":
        return matmul(self, other)


class Tape:
    """Ordered record of operations for one forward pass.

    Used as a context manager; ops executed inside record themselves on
    the innermost active tape. A tape must only ever be mutated by the
    thread that opened it.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        # Each node: (op name, output Variable, backward closure).
        self.nodes: list[tuple[str, Variable, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        if not hasattr(_STATE, "stack"):
            _STATE.stack = []
        _STATE.stack.append(getattr(_STATE, "tape", None))
        _STATE.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _STATE.tape = _STATE.stack.pop()

    def __len__(self) -> int:
        return len(self.nodes)


def record(op: str, out: Variable, backward_fn: Callable[[np.ndarray], None]) -> Variable:
    """Register ``out`` on the active tape, if any.

    ``backward_fn`` receives the upstream gradient for ``out`` and must
    accumulate (+=) into the ``grad`` buffers of the inputs it closed
    over. This hook is also how layers define custom differentiable ops.
    """
    tape = _active_tape()
    if tape is not None:
        out.node_id = len(tape.nodes)
        tape.nodes.append((op, out, backward_fn))
    return out


def backward(tape: Tape, loss: Variable) -> None:
    """Populate gradients of everything reachable from a scalar loss."""
    if loss.value.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.value)
    for _op, out, backward_fn in reversed(tape.nodes):
        if out.grad is not None:
            backward_fn(out.grad)


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def matmul(a: Variable, b: Variable) -> Variable:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs [m,k] by [k,n], got {a.shape} by {b.shape}")
    out = Variable(a.value @ b.value)

    def bw(g: np.ndarray) -> None:
        # dA = dC·Bᵀ, dB = Aᵀ·dC
        a.ensure_grad()[...] += g @ b.value.T
        b.ensure_grad()[...] += a.value.T @ g

    return record("matmul", out, bw)


def _same_shape(a: Variable, b: Variable, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs identical shapes, got {a.shape} and {b.shape}")


def add(a: Variable, b: Variable) -> Variable:
    _same_shape(a, b, "add")
    out = Variable(a.value + b.value)

    def bw(g: np.ndarray) -> None:
        a.ensure_grad()[...] += g
        b.ensure_grad()[...] += g

    return record("add", out, bw)


def mul(a: Variable, b: Variable) -> Variable:
    _same_shape(a, b, "mul")
    out = Variable(a.value * b.value)

    def bw(g: np.ndarray) -> None:
        a.ensure_grad()[...] += g * b.value
        b.ensure_grad()[...] += g * a.value

    return record("mul", out, bw)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; it is exp(-x) on the non-negative side and
    # exp(x) on the negative one.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Variable) -> Variable:
    s = _stable_sigmoid(a.value)
    out = Variable(s)

    def bw(g: np.ndarray) -> None:
        a.ensure_grad()[...] += g * s * (1.0 - s)

    return record("sigmoid", out, bw)


def relu(a: Variable) -> Variable:
    out = Variable(np.maximum(a.value, 0.0))

    def bw(g: np.ndarray) -> None:
        # Subgradient at exactly 0 is 0.
        a.ensure_grad()[...] += g * (a.value > 0.0)

    return record("relu", out, bw)


def bias_add(x: Variable, b: Variable) -> Variable:
    """Add a rank-1 bias over the trailing axis, broadcast over leading axes.

    The single sanctioned broadcast in the engine.
    """
    if b.value.ndim != 1 or x.value.ndim < 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"bias_add needs [..., d] plus [d], got {x.shape} and {b.shape}")
    out = Variable(x.value + b.value)

    def bw(g: np.ndarray) -> None:
        x.ensure_grad()[...] += g
        b.ensure_grad()[...] += g.reshape(-1, b.shape[0]).sum(axis=0)

    return record("bias_add", out, bw)


def concat(parts: Sequence[Variable], axis: int) -> Variable:
    if not parts:
        raise ContractError("concat needs at least one part")
    ndim = parts[0].value.ndim
    if axis < -ndim or axis >= ndim:
        raise ShapeError(f"concat axis {axis} out of range for rank {ndim}")
    axis = axis % ndim
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != ndim or any(other[d] != base[d] for d in range(ndim) if d != axis):
            raise ShapeError(f"concat shapes incompatible off axis {axis}: {parts[0].shape} vs {p.shape}")
    out = Variable(np.concatenate([p.value for p in parts], axis=axis))
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def bw(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * ndim
            sl[axis] = slice(lo, hi)
            p.ensure_grad()[...] += g[tuple(sl)]

    return record("concat", out, bw)


def reshape(x: Variable, shape: Sequence[int]) -> Variable:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.value.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = Variable(x.value.reshape(shape))

    def bw(g: np.ndarray) -> None:
        x.ensure_grad()[...] += g.reshape(x.shape)

    return record("reshape", out, bw)


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


def sum_all(x: Variable) -> Variable:
    out = Variable(np.sum(x.value))

    def bw(g: np.ndarray) -> None:
        x.ensure_grad()[...] += g

    return record("sum_all", out, bw)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def finite_diff_check(
    f: Callable[[Variable], Variable],
    x: np.ndarray,
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Variable to a scalar Variable and must be deterministic.
    The analytic gradient comes from one taped forward/backward; numeric
    derivatives reevaluate ``f`` untaped at x ± h per coordinate, with h
    scaled relative to the coordinate's magnitude.
    """
    x = np.asarray(x, dtype=np.float64)
    var = Variable(x.copy())
    with Tape() as tape:
        loss = f(var)
    if loss.value.size != 1:
        raise ContractError(f"finite_diff_check target must return a scalar, got {loss.shape}")
    backward(tape, loss)
    analytic = np.zeros_like(x) if var.grad is None else var.grad.copy()

    flat = x.reshape(-1)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        h = epsilon * max(1.0, abs(flat[i]))
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        f_plus = float(f(Variable(bumped.reshape(x.shape))).value)
        bumped[i] = flat[i] - h
        f_minus = float(f(Variable(bumped.reshape(x.shape))).value)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise GradCheckError(f"non-finite function value at coordinate {i}")
        numeric[i] = (f_plus - f_minus) / (2.0 * h)

    a = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(a - numeric) / denom))
