"""Tests for the tensor engine: forward values, backward rules, the checker,
and the allocator setting made at import."""

import ast
import os
import platform
import subprocess
import sys
import textwrap
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    add, bias_add, matmul, max_over_axis, mul, one_minus, relu, reshape, sigmoid, slice_axis, sub, sum_all, tanh,
)

from rcnnlab import autodiff as ad
from rcnnlab.layers import concat
from rcnnlab.autodiff import Tape, Variable
from rcnnlab.errors import ContractError, GradCheckError, ShapeError


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force triple loop, independent of the engine's numpy path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        out = matmul(Variable([[1.0, 0.0], [0.0, 1.0]]), Variable([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[3.0], [4.0]])

    def test_row_times_column(self):
        out = matmul(Variable([[1.0, 2.0]]), Variable([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[11.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        out = matmul(Variable(a), Variable(b))
        np.testing.assert_allclose(out.value, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Variable(np.zeros((2, 3))), Variable(np.zeros((2, 3))))

    def test_backward_rule(self):
        rng = np.random.default_rng(1)
        a = Variable(rng.uniform(-1, 1, (3, 4)))
        b = Variable(rng.uniform(-1, 1, (4, 2)))
        with Tape() as tape:
            loss = sum_all(matmul(a, b))
        ad.backward(tape, loss)
        g = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, g @ b.value.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.value.T @ g, atol=1e-12)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Variable(np.zeros(3))).value == pytest.approx([0.5] * 3)

    def test_sigmoid_saturates_without_overflow(self):
        v = sigmoid(Variable(np.array([-1000.0, 1000.0]))).value
        np.testing.assert_allclose(v, [0.0, 1.0])

    def test_sigmoid_extremes_raise_no_floating_point_warning(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            v = ad._stable_sigmoid(np.array([-1000.0, 1000.0]))
        np.testing.assert_array_equal(v, [0.0, 1.0])

    def test_sigmoid_out_may_alias_its_input(self):
        x = np.linspace(-6.0, 6.0, 25)
        expected = ad._stable_sigmoid(x)
        y = x.copy()
        assert ad._stable_sigmoid(y, out=y) is y
        np.testing.assert_array_equal(y, expected)

    def test_sigmoid_matches_exponential_form(self):
        x = np.linspace(-40.0, 40.0, 160001)
        e = np.exp(-np.abs(x))
        reference = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.abs(ad._stable_sigmoid(x) - reference).max() <= 3e-16

    def test_tanh_at_zero(self):
        assert tanh(Variable(np.zeros(2))).value == pytest.approx([0.0, 0.0])

    def test_relu_definition(self):
        v = relu(Variable(np.array([-2.5, 0.0, 3.1]))).value
        np.testing.assert_array_equal(v, [0.0, 0.0, 3.1])

    def test_relu_gradient_zero_at_zero(self):
        x = Variable(np.array([-2.5, 0.0, 3.1]))
        with Tape() as tape:
            loss = sum_all(relu(x))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_one_minus(self):
        x = Variable(np.array([0.25, 1.5]))
        with Tape() as tape:
            loss = sum_all(one_minus(x))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(loss.value, np.sum([0.75, -0.5]))
        np.testing.assert_array_equal(x.grad, [-1.0, -1.0])

    def test_binary_shape_mismatch(self):
        for op in (add, sub, mul):
            with pytest.raises(ShapeError):
                op(Variable(np.zeros(2)), Variable(np.zeros(3)))


class TestBiasAdd:
    def test_broadcast_over_batch(self):
        x = Variable(np.zeros((2, 3)))
        b = Variable(np.array([1.0, 2.0, 3.0]))
        out = bias_add(x, b)
        np.testing.assert_array_equal(out.value, [[1, 2, 3], [1, 2, 3]])

    def test_bias_gradient_sums_over_batch(self):
        x = Variable(np.zeros((4, 2)))
        b = Variable(np.zeros(2))
        with Tape() as tape:
            loss = sum_all(bias_add(x, b))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(b.grad, [4.0, 4.0])

    def test_rejects_wrong_trailing_dim(self):
        with pytest.raises(ShapeError):
            bias_add(Variable(np.zeros((2, 3))), Variable(np.zeros(2)))


class TestConcat:
    """``layers.concat``, the join that models use; the engine defines no ops."""

    def test_simple(self):
        out = concat([Variable([[1.0, 2.0]]), Variable([[3.0]])], axis=-1)
        np.testing.assert_array_equal(out.value, [[1.0, 2.0, 3.0]])

    def test_dimension_arithmetic(self):
        parts = [Variable(np.zeros((5, 32))), Variable(np.zeros((5, 100))), Variable(np.zeros((5, 32)))]
        assert concat(parts, axis=1).shape == (5, 164)

    def test_round_trip_at_offsets(self):
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=(2, w)) for w in (3, 1, 4)]
        out = concat([Variable(a) for a in arrays], axis=1)
        offsets = [0, 3, 4, 8]
        for a, lo, hi in zip(arrays, offsets[:-1], offsets[1:]):
            np.testing.assert_array_equal(out.value[:, lo:hi], a)

    def test_backward_slices_gradient(self):
        a = Variable(np.zeros((2, 2)))
        b = Variable(np.zeros((2, 1)))
        with Tape() as tape:
            joined = concat([a, b], axis=1)
            loss = sum_all(mul(joined, Variable(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(a.grad, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(b.grad, [[3.0], [6.0]])

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            concat([Variable(np.zeros(2))], axis=3)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            concat([Variable(np.zeros((2, 2))), Variable(np.zeros((3, 2)))], axis=1)


class TestSliceReshape:
    def test_slice_values(self):
        x = Variable(np.arange(12.0).reshape(3, 4))
        out = slice_axis(x, 1, 1, 3)
        np.testing.assert_array_equal(out.value, x.value[:, 1:3])

    def test_slice_backward_hits_only_slab(self):
        x = Variable(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            loss = sum_all(slice_axis(x, 1, 0, 2))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [[1, 1, 0], [1, 1, 0]])

    def test_reshape_round_trip_gradient(self):
        x = Variable(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            loss = sum_all(reshape(reshape(x, (6,)), (3, 2)))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            reshape(Variable(np.zeros((2, 3))), (7,))


class TestMaxOverAxis:
    def test_basic(self):
        out, idx = max_over_axis(Variable(np.array([1.0, 3.0, 2.0])), axis=0)
        assert out.value == 3.0
        assert idx == 1

    def test_first_occurrence_tie_break(self):
        out, idx = max_over_axis(Variable(np.array([7.0, 7.0, 1.0])), axis=0)
        assert out.value == 7.0
        assert idx == 0

    def test_subgradient_routing(self):
        x = Variable(np.array([1.0, 3.0, 2.0]))
        with Tape() as tape:
            out, _ = max_over_axis(x, axis=0)
            loss = sum_all(out)
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_one_nonzero_gradient_per_slice(self):
        rng = np.random.default_rng(3)
        x = Variable(rng.normal(size=(4, 5, 3)))
        with Tape() as tape:
            out, _ = max_over_axis(x, axis=1)
            loss = sum_all(out)
        ad.backward(tape, loss)
        nonzero_per_slice = (x.grad != 0).sum(axis=1)
        np.testing.assert_array_equal(nonzero_per_slice, np.ones((4, 3)))

    def test_empty_axis_rejected(self):
        with pytest.raises(ContractError):
            max_over_axis(Variable(np.zeros((2, 0))), axis=1)


class TestBackward:
    def test_scalar_passthrough(self):
        x = Variable(np.array(2.0))
        with Tape() as tape:
            loss = sum_all(x)
        ad.backward(tape, loss)
        assert x.grad == 1.0

    def test_square_gradient(self):
        x = Variable(np.array([1.0, 2.0, 3.0]))
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_accumulation_across_reuse(self):
        x = Variable(np.array(5.0))
        with Tape() as tape:
            loss = add(x, x)
        ad.backward(tape, loss)
        assert x.grad == 2.0

    def test_non_scalar_loss_rejected(self):
        x = Variable(np.zeros(3))
        with Tape() as tape:
            y = relu(x)
        with pytest.raises(ContractError):
            ad.backward(tape, y)

    def test_taping_tells_whether_a_tape_records(self):
        assert not ad.taping()
        with Tape():
            assert ad.taping()
            with Tape():
                assert ad.taping()
            assert ad.taping()
        assert not ad.taping()

    def test_untaped_ops_do_not_record(self):
        tape = Tape()
        with tape:
            pass
        add(Variable(np.zeros(2)), Variable(np.zeros(2)))
        assert len(tape) == 0


def scaled(x: Variable, factor: float, seen: list[bool]):
    """x * factor as one node whose closure alone holds its saved factor array, and
    a weakref to that array. Its rule appends to ``seen`` whether the node's
    output value was already gone when the rule ran."""
    saved = np.full(x.shape, factor)
    value = x.value * saved
    output = weakref.ref(value)

    def bw(g: np.ndarray) -> None:
        seen.append(output() is None)
        x.ensure_grad()[...] += g * saved

    return ad.record("scaled", Variable(value), bw), weakref.ref(saved)


class TestTapeRelease:
    """``backward`` consumes its tape: each node is popped, its output let go
    before its rule runs, and its closure with everything it saved as soon as
    the rule returns."""

    def test_backward_leaves_no_node_and_no_saved_array(self):
        x, seen = Variable(np.array([1.0, 2.0])), []
        with Tape() as tape:
            y, saved = scaled(x, 3.0, seen)
            loss = sum_all(y)
        del y
        assert len(tape) == 2 and saved() is not None
        ad.backward(tape, loss)
        assert len(tape) == 0
        assert saved() is None
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_an_output_is_let_go_before_its_rule_runs(self):
        x, seen = Variable(np.ones(3)), []
        with Tape() as tape:
            loss = sum_all(scaled(x, 2.0, seen)[0])
        ad.backward(tape, loss)
        assert seen == [True]

    def test_second_backward_of_a_consumed_tape_raises(self):
        x = Variable(np.array([1.0, 2.0]))
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        ad.backward(tape, loss)
        with pytest.raises(ContractError, match="consumed"):
            ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_a_rejected_loss_leaves_the_tape_to_run(self):
        x = Variable(np.array([1.0, 2.0]))
        with Tape() as tape:
            y = relu(x)
            loss = sum_all(y)
        with pytest.raises(ContractError, match="scalar"):
            ad.backward(tape, y)
        assert len(tape) == 2
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])


class TestCompactGradient:
    """A row-compact gradient, ``grad_rows`` plus their ``row_sums``, and the
    dense array that reading ``grad`` builds from it, which keeps no rows."""

    @staticmethod
    def compact():
        v = Variable(np.ones((5, 2)))
        v.add_row_sums(np.array([1, 4]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        return v

    def test_repr_does_not_build_the_dense_array(self):
        v = self.compact()
        assert repr(v) == "Variable(shape=(5, 2), grad=set)"
        assert v.row_sums is not None

    def test_first_read_builds_the_dense_array_and_keeps_no_rows(self):
        v = self.compact()
        np.testing.assert_array_equal(v.grad_rows, [1, 4])
        dense = v.grad
        np.testing.assert_array_equal(dense, [[0, 0], [1, 2], [0, 0], [0, 0], [3, 4]])
        assert not np.signbit(dense).any()
        assert v.grad is dense and v.grad_rows is None and v.row_sums is None

    def test_assignment_drops_the_compact_form(self):
        v = self.compact()
        v.grad = np.full((5, 2), 7.0)
        assert v.grad_rows is None and v.row_sums is None
        np.testing.assert_array_equal(v.grad, np.full((5, 2), 7.0))

    def test_second_row_sums_are_added_densely_and_keep_no_rows(self):
        v = self.compact()
        v.add_row_sums(np.array([0, 4]), np.array([[5.0, 5.0], [1.0, 1.0]]))
        assert v.grad_rows is None and v.row_sums is None
        np.testing.assert_array_equal(v.grad, [[5, 5], [1, 2], [0, 0], [0, 0], [4, 5]])

    def test_ensure_grad_builds_then_clears_the_hint(self):
        v = self.compact()
        np.testing.assert_array_equal(v.ensure_grad()[[1, 4]], [[1, 2], [3, 4]])
        assert v.grad_rows is None and v.row_sums is None

    def test_zero_grad_clears_everything(self):
        v = self.compact()
        v.zero_grad()
        assert v.grad is None and v.grad_rows is None and v.row_sums is None
        assert repr(v) == "Variable(shape=(5, 2), grad=none)"


class TestFiniteDiffCheck:
    def test_sum_of_squares(self):
        def f(v):
            return sum_all(mul(v, v))

        err = ad.finite_diff_check(f, np.array([1.0, 2.0]))
        assert err <= 1e-7

    def test_sigmoid_sum(self):
        rng = np.random.default_rng(4)

        def f(v):
            return sum_all(sigmoid(v))

        err = ad.finite_diff_check(f, rng.uniform(-2, 2, 6))
        assert err <= 1e-6

    def test_wrong_backward_rule_is_caught(self):
        def buggy_exp(v):
            out = Variable(np.exp(v.value))

            def bw(g):
                v.ensure_grad()[...] += g * 0.5 * out.value  # deliberately halved

            return ad.record("buggy_exp", out, bw)

        def f(v):
            return sum_all(buggy_exp(v))

        err = ad.finite_diff_check(f, np.array([0.3, -0.7]))
        assert err > 1e-2

    def test_non_finite_output_reported(self):
        def f(v):
            out = Variable(np.array(np.inf))
            return ad.record("const_inf", out, lambda g: None)

        with pytest.raises(GradCheckError, match="coordinate"):
            ad.finite_diff_check(f, np.array([1.0]))


    def test_numeric_passes_run_untaped(self):
        """One taped pass for the analytic gradient, then two untaped per coordinate,
        so a layer gradcheck also checks a kernel's untaped forward against its taped one."""
        seen = []

        def f(v):
            seen.append(ad.taping())
            return sum_all(mul(v, v))

        assert ad.finite_diff_check(f, np.array([0.5, -1.5, 2.0])) <= 1e-7
        assert seen == [True] + [False] * 6

    def test_held_variable_differenced_in_place_and_restored(self):
        held = Variable(np.random.default_rng(5).uniform(-2, 2, (3, 4))[:, :2])  # reshape(-1) copies it
        before = held.value.tobytes()
        seen = []

        def f(v):
            assert v is held
            seen.append(float(v.value[1, 1]))
            return sum_all(mul(v, v))

        assert ad.finite_diff_check(f, held) <= 1e-7
        assert held.value.tobytes() == before
        assert len(set(seen)) == 3  # x, x + h and x - h: the bump reached the held value

    def test_held_variable_restored_when_loss_fails(self):
        held = Variable(np.array([1.0, -0.25, 3.0]))
        before = held.value.tobytes()

        def f(v):
            value = np.inf if v.value[1] != -0.25 else float(np.sum(v.value))
            return ad.record("maybe_inf", Variable(np.array(value)), lambda g: None)

        with pytest.raises(GradCheckError, match="coordinate 1"):
            ad.finite_diff_check(f, held)
        assert held.value.tobytes() == before

        def raising(v):
            if v.value[2] < 3.0:
                raise FloatingPointError("loss undefined below x = 3")
            return sum_all(v)

        with pytest.raises(FloatingPointError):
            ad.finite_diff_check(raising, held)
        assert held.value.tobytes() == before


OPS_FOR_RANDOM_CHECK = [
    ("matmul", lambda v, aux: sum_all(matmul(v, Variable(aux[:v.shape[1] * 2].reshape(v.shape[1], 2))))),
    ("add", lambda v, aux: sum_all(mul(add(v, Variable(aux[:v.value.size].reshape(v.shape))), Variable(aux[:v.value.size].reshape(v.shape))))),
    ("sub", lambda v, aux: sum_all(mul(sub(v, Variable(aux[:v.value.size].reshape(v.shape))), Variable(aux[:v.value.size].reshape(v.shape))))),
    ("mul", lambda v, aux: sum_all(mul(v, v))),
    ("one_minus", lambda v, aux: sum_all(mul(one_minus(v), one_minus(v)))),
    ("sigmoid", lambda v, aux: sum_all(sigmoid(v))),
    ("tanh", lambda v, aux: sum_all(tanh(v))),
    ("relu", lambda v, aux: sum_all(relu(v))),
    ("bias_add", lambda v, aux: sum_all(sigmoid(bias_add(v, Variable(aux[:v.shape[-1]]))))),
    ("concat", lambda v, aux: sum_all(sigmoid(concat([v, Variable(aux[:v.value.size].reshape(v.shape))], axis=1)))),
    ("slice", lambda v, aux: sum_all(tanh(slice_axis(v, 1, 1, 3)))),
    ("reshape", lambda v, aux: sum_all(sigmoid(reshape(v, (v.value.size,))))),
    ("max", lambda v, aux: sum_all(max_over_axis(v, 1)[0])),
]


@pytest.mark.parametrize("name,build", OPS_FOR_RANDOM_CHECK, ids=[n for n, _ in OPS_FOR_RANDOM_CHECK])
def test_every_op_matches_finite_differences(name, build):
    """Each registered op stays within 1e-4 of central differences on 5 seeds."""
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-2, 2, (3, 4))
        if name == "relu":
            # keep coordinates clear of the kink at 0
            x = np.sign(x) * (np.abs(x) + 0.05)
        aux = rng.uniform(-2, 2, 16)
        err = ad.finite_diff_check(lambda v: build(v, aux), x)
        assert err <= 1e-4, f"{name} seed {seed}: {err}"


def test_forward_ops_deterministic():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 6))
    b = rng.normal(size=(6, 3))
    first = matmul(Variable(a), Variable(b)).value
    second = matmul(Variable(a.copy()), Variable(b.copy())).value
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(sigmoid(Variable(a)).value, sigmoid(Variable(a)).value)


PRIMITIVE_ALGEBRA = ("matmul", "add", "mul", "_same_shape", "sigmoid", "relu", "bias_add", "sum_all")


def test_primitive_algebra_stays_out_of_the_package():
    """The package records only kernels, and the engine holds no ops: autodiff
    defines none of the primitives the oracles keep, nor concat or reshape,
    Variable has no arithmetic sugar, and no package module imports a primitive."""
    assert [n for n in (*PRIMITIVE_ALGEBRA, "concat", "reshape") if hasattr(ad, n)] == []
    assert [m for m in ("__add__", "__mul__", "__matmul__") if hasattr(Variable, m)] == []
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "autodiff":
                imported = {alias.name for alias in node.names}
                assert not imported & set(PRIMITIVE_ALGEBRA), f"{path.name} imports {imported & set(PRIMITIVE_ALGEBRA)}"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator is tuned on glibc only")
def test_freed_temporaries_do_not_fault_pages_in_again():
    """After import, a step-sized temporary reuses freed heap pages instead of
    faulting fresh ones in: about 5,000 minor faults per call untuned."""
    script = textwrap.dedent("""
        import resource
        import numpy as np
        import rcnnlab
        from rcnnlab.autodiff import _stable_sigmoid
        x = np.random.default_rng(0).uniform(-4, 4, (16000, 32))
        for _ in range(3):
            _stable_sigmoid(x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            _stable_sigmoid(x)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    assert float(run.stdout) < 100
