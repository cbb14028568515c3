"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are numpy float64 arrays wrapped in :class:`Variable`. Operations
compute eagerly and, when a :class:`Tape` is active, append a node holding
a backward closure. ``backward`` walks the tape in reverse construction
order, which is a valid topological order because every node's inputs
exist before the node is appended. Gradients accumulate in place, so a
Variable used twice receives the sum of both branch gradients.

The engine defines no ops. Every differentiable op is a kernel in
``layers`` that computes its output with numpy and records one node whose
backward rule is written by hand (``record``). There is no implicit
broadcasting: each kernel checks its operands' shapes, a parameter container
through its ``checked``, before it records, and broadcasts a bias only over
the leading axes that its backward sums.

A gradient is none, dense (``grad``), or row-compact: ``grad_rows``, the
sorted rows of the first axis outside which it is exactly +0.0, and
``row_sums``, its [U, D] values there. Only the embedding's backward stores
a compact one (``add_row_sums``); clipping and the RMSprop and Adadelta steps
read its U rows as they are. Reading ``grad`` builds the dense array and
clears both compact fields, and assigning it clears them too, so ``grad_rows``
never sits beside a dense array. Every other op adds into a gradient through
``ensure_grad``, which reads ``grad``.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Callable

import numpy as np

from .errors import ContractError, GradCheckError

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


def taping() -> bool:
    """Whether a tape is recording, so that a backward may run on what a kernel keeps."""
    return getattr(_STATE, "tape", None) is not None


class Variable:
    """A float64 tensor paired with a lazily allocated gradient buffer."""

    __slots__ = ("value", "_grad", "grad_rows", "row_sums", "node_id")

    def __init__(self, value, node_id: int | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None  # and no compact form: grad_rows and row_sums are None too
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def grad(self) -> np.ndarray | None:
        """The dense gradient; a compact one is built into it, and its fields cleared."""
        if self.row_sums is not None:
            self._grad = np.zeros_like(self.value)
            self._grad[self.grad_rows] = self.row_sums
            self.grad_rows = self.row_sums = None
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad, self.grad_rows, self.row_sums = value, None, None

    def add_row_sums(self, rows: np.ndarray, sums: np.ndarray) -> None:
        """Add [U, D] ``sums`` into the gradient at the sorted ``rows``: a first
        gradient stays compact, and onto an existing one they add densely. A
        bincount or matmul sum is never -0.0, so dense zero rows stay +0.0."""
        if self._grad is None and self.row_sums is None:
            self.grad_rows, self.row_sums = rows, sums
        else:
            self.grad[rows] += sums

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        return self._grad

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Variable(shape={self.shape}, grad={'none' if self._grad is None and self.row_sums is None else 'set'})"


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
    tape = getattr(_STATE, "tape", None)
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


def _stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(x) as 0.5·tanh(x/2) + 0.5 in four in-place passes; ``out`` may be
    ``x``. tanh saturates without overflow or underflow at any x."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def finite_diff_check(
    f: Callable[[Variable], Variable],
    x: np.ndarray | Variable,
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Variable to a scalar Variable and must be deterministic.
    The analytic gradient comes from one taped forward/backward; numeric
    derivatives reevaluate ``f`` untaped at x ± h per coordinate, with h
    scaled relative to the coordinate's magnitude. A Variable ``x`` is
    perturbed in place, as an optimizer step changes it, and each coordinate
    is restored exactly even when ``f`` raises; an array is copied into a
    fresh Variable.
    """
    var = x if isinstance(x, Variable) else Variable(np.array(x, dtype=np.float64))
    var.zero_grad()
    with Tape() as tape:
        loss = f(var)
    if loss.value.size != 1:
        raise ContractError(f"finite_diff_check target must return a scalar, got {loss.shape}")
    backward(tape, loss)
    analytic = np.zeros(var.value.size) if var.grad is None else var.grad.reshape(-1)

    flat = var.value.flat  # writes through, where reshape(-1) may copy
    numeric = np.empty(var.value.size)
    for i in range(numeric.size):
        original = flat[i]
        h = epsilon * max(1.0, abs(original))
        try:
            flat[i] = original + h
            f_plus = float(f(var).value)
            flat[i] = original - h
            f_minus = float(f(var).value)
        finally:
            flat[i] = original
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise GradCheckError(f"non-finite function value at coordinate {i}")
        numeric[i] = (f_plus - f_minus) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
