"""Layer tests: hand-evaluated oracles, carry regimes, scan symmetries,
masked reductions, and the finite-difference suite."""

import inspect
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from golden import same_blas
from oracles import (
    add, conv_oracle, dense_highway_grads, mul, sigmoid, softmax_rows, sum_all, taped_birnn_context, taped_conv,
    taped_conv_pool, taped_dense_relu, taped_dense_softmax, taped_gru_scan, taped_highway, taped_lstm_scan,
    taped_lstm_step, whole_credit, whole_dense_relu, whole_highway,
)

from rcnnlab import checks
from rcnnlab import layers as L
from rcnnlab.autodiff import Tape, Variable, backward
from rcnnlab.data import EncodedBatch
from rcnnlab.errors import ContractError, DataError, ShapeError


def sigma(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of calling ``fn``, and what it returned."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def make_batch(ids, lengths=None, labels=None):
    ids = np.asarray(ids, dtype=np.int64)
    n, t = ids.shape
    lengths = np.full(n, t, dtype=np.int64) if lengths is None else np.asarray(lengths)
    labels = np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels)
    return EncodedBatch(ids, lengths, labels)


class TestEmbedding:
    def test_repeated_lookup(self):
        table = Variable(np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
        out = L.embed(make_batch([[1, 1]]), L.EmbeddingParams(table))
        np.testing.assert_array_equal(out.value, [[[1.0, 2.0], [1.0, 2.0]]])

    def test_gradient_touches_only_referenced_rows(self):
        table = Variable(np.zeros((5, 2)))
        with Tape() as tape:
            loss = sum_all(L.embed(make_batch([[1, 3, 1]]), L.EmbeddingParams(table)))
        backward(tape, loss)
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1], [0, 0]])

    @pytest.mark.parametrize("ids_shape,vocab,width", [((2, 4), 5, 3), ((32, 200), 20000, 50), ((32, 500), 22, 16)])
    def test_gradient_matches_add_at_bit_for_bit(self, ids_shape, vocab, width):
        """Repeated ids add in np.add.at's order, and a -0.0 upstream entry
        leaves the same +0.0 bits, so the scatter is bit-identical to
        np.add.at into a zero table: +0.0 outside the compact gradient's rows,
        which are the ids looked up, and reading it keeps no rows. The pooled bag of the same ids, with ragged
        lengths, adds each text's upstream row once per valid position as
        count·g; that equals the repeated adds when every sum is exact, so
        its upstream entries are multiples of 1/64."""
        rng = np.random.default_rng(vocab)
        ids = rng.integers(0, vocab, ids_shape)
        ids[0, :2] = 1  # at least one repeated id
        g = rng.normal(size=ids_shape + (width,))
        g[-1, -1, 0] = -0.0  # 0.0 + -0.0 is +0.0
        table = Variable(rng.normal(size=(vocab, width)))

        def check(forward, upstream, at, rows_added):
            table.zero_grad()
            with Tape() as tape:
                loss = sum_all(mul(forward(), Variable(upstream)))
            backward(tape, loss)
            np.testing.assert_array_equal(table.grad_rows, np.unique(ids))
            expected = np.zeros((vocab, width))
            np.add.at(expected, at, rows_added)
            np.testing.assert_array_equal(table.grad.view(np.uint64), expected.view(np.uint64))
            assert table.grad_rows is None and table.row_sums is None

        check(lambda: L.embed(make_batch(ids), L.EmbeddingParams(table)), g, ids.reshape(-1), g.reshape(-1, width))
        lengths = rng.integers(1, ids_shape[1] + 1, ids_shape[0])
        valid = np.arange(ids_shape[1]) < lengths[:, None]
        bag_g = rng.integers(-64, 65, (ids_shape[0], width)) / 64.0
        bag_g[-1, 0] = -0.0
        check(lambda: L.embed(make_batch(ids, lengths), L.EmbeddingParams(table), pool=True),
              bag_g, ids[valid], np.repeat(bag_g, lengths, axis=0))

    def test_pooled_backward_builds_no_dense_table_gradient(self):
        """The bag's backward keeps its [U, D] row sums compact: at [32, 200]
        ids into 20,000 × 50 it peaks near 2 MiB, below the 7.6 MiB of the
        dense [V, D] gradient it used to zero-fill and scatter into."""
        rng = np.random.default_rng(46)
        table = Variable(rng.normal(size=(20000, 50)))
        batch = make_batch(rng.integers(0, 20000, (32, 200)), rng.integers(1, 201, 32))
        with Tape() as tape:
            loss = sum_all(mul(L.embed(batch, L.EmbeddingParams(table), pool=True), Variable(rng.normal(size=(32, 50)))))
        peak, _out = traced_peak(lambda: backward(tape, loss))
        assert peak < table.value.nbytes, f"peak {peak / 2**20:.2f} MiB"
        assert table.row_sums is not None

    def test_second_lookup_of_one_table_adds_densely(self):
        table = Variable(np.ones((6, 2)))
        with Tape() as tape:
            loss = add(sum_all(L.embed(make_batch([[3, 1]]), L.EmbeddingParams(table))),
                       sum_all(L.embed(make_batch([[4, 3]]), L.EmbeddingParams(table))))
        backward(tape, loss)
        assert table.grad_rows is None and table.row_sums is None
        np.testing.assert_array_equal(table.grad, [[0, 0], [1, 1], [0, 0], [2, 2], [1, 1], [0, 0]])

    @pytest.mark.parametrize("lookup_first", [True, False])
    def test_second_consumer_clears_the_row_hint(self, lookup_first):
        """Any other op that adds into the table's gradient makes it dense,
        whichever of the two backward rules runs first."""
        table = Variable(np.ones((6, 2)))
        with Tape() as tape:
            if lookup_first:
                looked_up, whole = sum_all(L.embed(make_batch([[3, 1]]), L.EmbeddingParams(table))), sum_all(table)
            else:
                whole, looked_up = sum_all(table), sum_all(L.embed(make_batch([[3, 1]]), L.EmbeddingParams(table)))
            loss = add(looked_up, whole)
        backward(tape, loss)
        assert table.grad_rows is None
        np.testing.assert_array_equal(table.grad, [[1, 1], [2, 2], [1, 1], [2, 2], [1, 1], [1, 1]])

    def test_zero_grad_clears_the_row_hint(self):
        table = Variable(np.ones((6, 2)))
        with Tape() as tape:
            loss = sum_all(L.embed(make_batch([[3, 1]]), L.EmbeddingParams(table)))
        backward(tape, loss)
        np.testing.assert_array_equal(table.grad_rows, [1, 3])
        table.zero_grad()
        assert table.grad is None and table.grad_rows is None

    def test_output_shape(self):
        params = L.EmbeddingParams.create(np.random.default_rng(0), 200, 50)
        out = L.embed(make_batch(np.zeros((32, 100))), params)
        assert out.shape == (32, 100, 50)

    def test_id_out_of_range_names_position(self):
        table = Variable(np.zeros((3, 2)))
        with pytest.raises(DataError, match=r"\(0, 1\)"):
            L.embed(make_batch([[1, 7]]), L.EmbeddingParams(table))


class TestEmbeddingBag:
    """``embed(..., pool=True)`` against the lookup and the masked time sum it replaces."""

    def test_one_tape_node_per_call(self):
        params = L.EmbeddingParams.create(np.random.default_rng(0), 9, 4)
        with Tape() as tape:
            out = L.embed(make_batch([[1, 3, 1, 0], [2, 8, 0, 0]], [3, 2]), params, pool=True)
        assert len(tape) == 1 and out.shape == (2, 4)

    def test_sums_only_the_true_length(self):
        table = np.array([[100.0], [1.0], [2.0], [4.0]])
        out = L.embed(make_batch([[1, 3, 1, 0], [2, 2, 3, 3]], [3, 1]), L.EmbeddingParams(Variable(table)), pool=True)
        np.testing.assert_array_equal(out.value, [[6.0], [2.0]])

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        batch=st.integers(1, 4), steps=st.integers(1, 6), vocab=st.integers(1, 6), width=st.integers(1, 3),
        other=st.sampled_from(["none", "before", "after"]), seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=1, steps=1, vocab=1, width=1, other="none", seed=0)
    @example(batch=4, steps=6, vocab=3, width=3, other="before", seed=1)
    @example(batch=4, steps=6, vocab=3, width=3, other="after", seed=1)
    def test_matches_lookup_then_sum_on_integers(self, batch, steps, vocab, width, other, seed):
        """Small integers make every sum exact, so the values, the table
        gradient's bits and its compact rows must match the two-node graph. An
        unpooled lookup of the same table, recorded before or after the
        pooled one, makes the gradient dense, with no rows."""
        rng = np.random.default_rng(seed)
        value = rng.integers(-3, 4, (vocab, width)).astype(float)
        b = make_batch(rng.integers(0, vocab, (batch, steps)), rng.integers(1, steps + 1, batch))
        w = rng.integers(-3, 4, (batch, width)).astype(float)
        other_ids = rng.integers(0, vocab, (2, 3))
        w_other = rng.integers(-3, 4, (2, 3, width)).astype(float)

        def run(pooled):
            table = Variable(value.copy())
            with Tape() as tape:
                unpooled = lambda: sum_all(mul(L.embed(make_batch(other_ids), L.EmbeddingParams(table)), Variable(w_other)))
                terms = [unpooled()] if other == "before" else []
                out = pooled(table)
                terms.append(sum_all(mul(out, Variable(w))))
                terms += [unpooled()] if other == "after" else []
                loss = terms[0] if len(terms) == 1 else add(*terms)
            backward(tape, loss)
            return out.value, table.grad_rows, table.grad  # the rows first: reading grad clears them

        got = run(lambda t: L.embed(b, L.EmbeddingParams(t), pool=True))
        ref = run(lambda t: L.sum_over_time(L.embed(make_batch(b.ids), L.EmbeddingParams(t)), b.lengths))
        np.testing.assert_array_equal(got[0].view(np.uint64), ref[0].view(np.uint64))
        np.testing.assert_array_equal(got[2].view(np.uint64), ref[2].view(np.uint64))
        if other == "none":
            np.testing.assert_array_equal(got[1], np.unique(b.ids))
            np.testing.assert_array_equal(ref[1], got[1])
        else:
            assert got[1] is None and ref[1] is None

    def test_id_out_of_range_raises_data_error(self):
        params = L.EmbeddingParams(Variable(np.zeros((3, 2))))
        with pytest.raises(DataError, match=r"\(1, 0\)"):
            L.embed(make_batch([[1, 2], [3, 0]], [2, 1]), params, pool=True)

    @pytest.mark.parametrize("lengths", [[0, 2], [2, 3], [2]])
    def test_bad_lengths_raise_as_sum_over_time_does(self, lengths):
        params = L.EmbeddingParams(Variable(np.zeros((3, 2))))
        ids = np.array([[1, 2], [2, 0]])
        with pytest.raises((ContractError, ShapeError)) as expected:
            L.sum_over_time(L.embed(make_batch(ids), params), np.array(lengths))
        with pytest.raises(expected.type):
            L.embed(EncodedBatch(ids, np.array(lengths), np.zeros(2, dtype=np.int64)), params, pool=True)


class TestGruCell:
    def params(self, wr, wz, wh, ur, uz, uh, br, bz, bh):
        return L.GruParams(
            *(Variable(np.array([[v]])) for v in (wr, wz, wh)),
            *(Variable(np.array([[v]])) for v in (ur, uz, uh)),
            *(Variable(np.array([v])) for v in (br, bz, bh)),
        )

    def test_all_zero_params_halve_state(self):
        p = self.params(0, 0, 0, 0, 0, 0, 0, 0, 0)
        h_prev = Variable(np.array([[0.8]]))
        out = L.gru_cell_step(Variable(np.array([[1.3]])), h_prev, p)
        # r = z = 0.5 and a zero candidate leave exactly half the old state
        np.testing.assert_allclose(out.value, [[0.4]], atol=1e-15)

    def test_saturated_update_gate_carries_state(self):
        p = self.params(0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.0, 30.0, 0.0)
        h_prev = np.array([[7.0]])
        out = L.gru_cell_step(Variable(np.array([[9.0]])), Variable(h_prev), p)
        assert np.abs(out.value - h_prev).max() <= 1e-9

    def test_scalar_hand_evaluation(self):
        wr, wz, wh, ur, uz, uh, br, bz, bh = 0.5, -0.3, 0.8, 0.2, 0.4, -0.6, 0.1, -0.2, 0.05
        x, h_prev = 0.7, -0.4
        r = sigma(wr * x + ur * h_prev + br)
        z = sigma(wz * x + uz * h_prev + bz)
        cand = math.tanh(wh * x + uh * (r * h_prev) + bh)
        expected = z * h_prev + (1 - z) * cand

        p = self.params(wr, wz, wh, ur, uz, uh, br, bz, bh)
        out = L.gru_cell_step(Variable(np.array([[x]])), Variable(np.array([[h_prev]])), p)
        np.testing.assert_allclose(out.value, [[expected]], atol=1e-12)

    def test_shape_mismatch(self):
        p = L.GruParams.create(np.random.default_rng(0), 3, 2)
        with pytest.raises(ShapeError):
            L.gru_cell_step(Variable(np.zeros((1, 4))), Variable(np.zeros((1, 2))), p)


class TestLstmCell:
    def params_scalar(self, values: dict):
        def var(key, shape):
            return Variable(np.full(shape, values.get(key, 0.0)))

        return L.LstmParams(
            var("w_i", (1, 1)), var("w_f", (1, 1)), var("w_o", (1, 1)), var("w_c", (1, 1)),
            var("u_i", (1, 1)), var("u_f", (1, 1)), var("u_o", (1, 1)), var("u_c", (1, 1)),
            var("b_i", (1,)), var("b_f", (1,)), var("b_o", (1,)), var("b_c", (1,)),
        )

    def test_saturated_gates_preserve_cell(self):
        p = self.params_scalar({"b_f": 30.0, "b_i": -30.0})
        c_prev = np.array([[0.6]])
        _h, c = L.lstm_cell_step(
            Variable(np.array([[2.0]])), (Variable(np.zeros((1, 1))), Variable(c_prev)), p
        )
        assert np.abs(c.value - c_prev).max() <= 1e-9

    def test_all_zero_everything_gives_zero_state(self):
        p = self.params_scalar({})
        h, c = L.lstm_cell_step(
            Variable(np.zeros((1, 1))), (Variable(np.zeros((1, 1))), Variable(np.zeros((1, 1)))), p
        )
        np.testing.assert_array_equal(h.value, [[0.0]])
        np.testing.assert_array_equal(c.value, [[0.0]])

    def test_scalar_hand_evaluation(self):
        vals = dict(
            w_i=0.3, w_f=-0.5, w_o=0.7, w_c=0.9,
            u_i=-0.2, u_f=0.6, u_o=0.1, u_c=-0.8,
            b_i=0.05, b_f=-0.1, b_o=0.2, b_c=0.15,
        )
        x, h_prev, c_prev = 0.4, -0.3, 0.25
        i = sigma(vals["w_i"] * x + vals["u_i"] * h_prev + vals["b_i"])
        f = sigma(vals["w_f"] * x + vals["u_f"] * h_prev + vals["b_f"])
        o = sigma(vals["w_o"] * x + vals["u_o"] * h_prev + vals["b_o"])
        cand = math.tanh(vals["w_c"] * x + vals["u_c"] * h_prev + vals["b_c"])
        c_expect = f * c_prev + i * cand
        h_expect = o * math.tanh(c_expect)

        p = self.params_scalar(vals)
        h, c = L.lstm_cell_step(
            Variable(np.array([[x]])), (Variable(np.array([[h_prev]])), Variable(np.array([[c_prev]]))), p
        )
        np.testing.assert_allclose(c.value, [[c_expect]], atol=1e-12)
        np.testing.assert_allclose(h.value, [[h_expect]], atol=1e-12)


class TestRecurrentScan:
    def test_backward_scan_is_reversed_forward_scan(self):
        rng = np.random.default_rng(5)
        p = L.GruParams.create(rng, 2, 3)
        x = rng.uniform(-1, 1, (2, 4, 2))
        bwd = L.gru_scan(Variable(x), p, "backward")
        fwd_on_reversed = L.gru_scan(Variable(x[:, ::-1, :].copy()), p, "forward")
        np.testing.assert_array_equal(bwd.value, fwd_on_reversed.value[:, ::-1, :])

    def test_single_step_directions_coincide(self):
        rng = np.random.default_rng(6)
        p = L.GruParams.create(rng, 2, 3)
        x = rng.uniform(-1, 1, (2, 1, 2))
        fwd = L.gru_scan(Variable(x), p, "forward")
        bwd = L.gru_scan(Variable(x), p, "backward")
        np.testing.assert_array_equal(fwd.value, bwd.value)

    def test_scan_matches_chained_cell_steps(self):
        rng = np.random.default_rng(7)
        p = L.GruParams.create(rng, 1, 1)
        x = rng.uniform(-1, 1, (1, 2, 1))
        scanned = L.gru_scan(Variable(x), p, "forward")
        h1 = L.gru_cell_step(Variable(x[:, 0, :]), Variable(np.zeros((1, 1))), p)
        h2 = L.gru_cell_step(Variable(x[:, 1, :]), h1, p)
        np.testing.assert_array_equal(scanned.value[:, 0, :], h1.value)
        np.testing.assert_array_equal(scanned.value[:, 1, :], h2.value)

    def test_empty_time_axis_rejected(self):
        p = L.GruParams.create(np.random.default_rng(0), 2, 3)
        with pytest.raises(ContractError):
            L.gru_scan(Variable(np.zeros((2, 0, 2))), p)

    def test_non_3d_input_rejected(self):
        p = L.GruParams.create(np.random.default_rng(0), 2, 3)
        with pytest.raises(ShapeError):
            L.gru_scan(Variable(np.zeros((2, 4))), p)

    def test_lstm_scan_bidirectional_consistency(self):
        rng = np.random.default_rng(8)
        p = L.LstmParams.create(rng, 2, 2)
        x = rng.uniform(-1, 1, (3, 5, 2))
        bwd = L.lstm_scan(Variable(x), p, "backward")
        fwd_on_reversed = L.lstm_scan(Variable(x[:, ::-1, :].copy()), p, "forward")
        np.testing.assert_array_equal(bwd.value, fwd_on_reversed.value[:, ::-1, :])


def random_params(cls, rng, in_dim, hidden):
    p = cls.create(rng, in_dim, hidden)
    for _n, v in p.named():
        v.value[...] = rng.uniform(-1, 1, v.shape)  # nonzero biases too
    return p


def weighted_grads(forward, p, inputs, weights):
    """Output and gradients of sum(weights * forward(inputs)) with respect to
    the inputs and every parameter tensor of ``p``, a container or a tuple
    of them."""
    tensors = [v for q in (p if isinstance(p, tuple) else (p,)) for _n, v in q.named()]
    for v in tensors:
        v.zero_grad()
    xs = [Variable(a) for a in inputs]
    with Tape() as tape:
        out = forward(*xs)
        loss = sum_all(mul(out, Variable(weights)))
    backward(tape, loss)
    wrt = xs + tensors
    return out.value, [np.zeros_like(v.value) if v.grad is None else v.grad.copy() for v in wrt]


def assert_rel_close(got, expected, tol=1e-12, floor=0.0):
    """Largest gap within ``tol`` of the largest expected magnitude, or of
    ``floor`` when that is larger."""
    scale = max(np.abs(expected).max(), floor)
    gap = np.abs(got - expected).max()
    assert gap <= tol * scale, f"gap {gap:.2e} against scale {scale:.2e}"


class TestFusedScans:
    """The fused kernels against the per-step graph of autodiff primitives."""

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("cls,scan,reference", [
        (L.GruParams, L.gru_scan, taped_gru_scan),
        (L.LstmParams, L.lstm_scan, taped_lstm_scan),
    ])
    def test_scan_matches_taped_reference(self, cls, scan, reference, direction):
        """At 7 steps, and at 33 and 65, which end one and two steps into a new time block."""
        batch, in_dim, hidden = 3, 4, 5
        rng = np.random.default_rng(40)
        p = random_params(cls, rng, in_dim, hidden)
        for steps in (7, L.TIME_BLOCK + 1, 2 * L.TIME_BLOCK + 1):
            x = rng.uniform(-1, 1, (batch, steps, in_dim))
            w = rng.normal(size=(batch, steps, hidden))
            out, grads = weighted_grads(lambda xs: scan(xs, p, direction), p, [x], w)
            ref, ref_grads = weighted_grads(lambda xs: reference(xs, p, direction), p, [x], w)
            assert_rel_close(out, ref)
            for g, rg in zip(grads, ref_grads):
                assert_rel_close(g, rg)

    def test_lstm_cell_state_alone_carries_gradient(self):
        rng = np.random.default_rng(42)
        p = random_params(L.LstmParams, rng, 2, 3)
        x, h, c = (rng.uniform(-1, 1, (2, w)) for w in (2, 3, 3))
        w = rng.normal(size=(2, 3))
        _c, grads = weighted_grads(lambda *v: L.lstm_cell_step(v[0], (v[1], v[2]), p)[1], p, [x, h, c], w)
        _r, ref_grads = weighted_grads(lambda *v: taped_lstm_step(v[0], (v[1], v[2]), p)[1], p, [x, h, c], w)
        for g, rg in zip(grads, ref_grads):
            assert_rel_close(g, rg)
        assert np.abs(grads[2]).max() > 0.0

    def test_lstm_backward_keeps_one_factor_array(self):
        """The backward works in time blocks, with its gate factors built into
        one reused block of da: the peak is about 18 MiB here. With the
        whole-array [T·B, ·] epilogue (``oracles.whole_credit``) patched in
        for ``credit`` it is 75 MiB, and a second [T, 4n, B] factor array
        would add 15.6 MiB."""
        rng = np.random.default_rng(45)
        p, x = L.LstmParams.create(rng, 50, 32), Variable(rng.uniform(-1, 1, (32, 500, 50)))
        with Tape() as tape:
            loss = sum_all(L.lstm_scan(x, p))
        peak, _out = traced_peak(lambda: backward(tape, loss))
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_one_tape_node_per_scan(self):
        """Each scan and the GRU step are one node; the LSTM step adds one for its cell state."""
        rng = np.random.default_rng(43)
        gru, lstm = L.GruParams.create(rng, 2, 3), L.LstmParams.create(rng, 2, 3)
        x, x_t, h = (Variable(rng.uniform(-1, 1, shape)) for shape in ((2, 9, 2), (2, 2), (2, 3)))
        calls = [
            (lambda: L.gru_scan(x, gru, "backward"), 1), (lambda: L.lstm_scan(x, lstm, "backward"), 1),
            (lambda: L.gru_cell_step(x_t, h, gru), 1), (lambda: L.lstm_cell_step(x_t, (h, h), lstm), 2),
        ]
        for call, nodes in calls:
            with Tape() as tape:
                call()
            assert len(tape) == nodes

    @pytest.mark.parametrize("cls,scan", [(L.GruParams, L.gru_scan), (L.LstmParams, L.lstm_scan)])
    def test_gradient_lands_on_the_forward_variables(self, cls, scan):
        """Swapping a parameter into its slot after the forward must not
        redirect the backward's gradient to the newcomer."""
        rng = np.random.default_rng(44)
        p = cls.create(rng, 2, 3)
        x = rng.uniform(-1, 1, (2, 4, 2))
        name, used = p.named()[0]
        with Tape() as tape:
            loss = sum_all(scan(Variable(x), p, "forward"))
        stranger = Variable(used.value.copy())
        setattr(p, name, stranger)
        backward(tape, loss)
        setattr(p, name, used)
        assert stranger.grad is None
        landed = used.grad
        _out, ref_grads = weighted_grads(lambda xs: scan(xs, p, "forward"), p, [x], np.ones((2, 4, 3)))
        np.testing.assert_array_equal(landed, ref_grads[1])


def gru_pair(rng, in_dim, hidden):
    """Forward and backward GRU parameters, every tensor drawn uniform(-1, 1)."""
    return random_params(L.GruParams, rng, in_dim, hidden), random_params(L.GruParams, rng, in_dim, hidden)


class TestBirnnContext:
    def test_per_position_width(self):
        p_fwd, p_bwd = gru_pair(np.random.default_rng(0), 100, 32)
        x = Variable(np.zeros((5, 7, 100)))
        assert L.birnn_context(x, p_fwd, p_bwd).shape == (5, 7, 164)

    def test_slicing_recovers_inputs(self):
        rng = np.random.default_rng(9)
        p_fwd, p_bwd = gru_pair(rng, 4, 2)
        x = rng.normal(size=(2, 3, 4))
        out = L.birnn_context(Variable(x), p_fwd, p_bwd).value
        np.testing.assert_array_equal(out[:, :, 0:2], L.gru_scan(Variable(x), p_bwd, "backward").value)
        np.testing.assert_array_equal(out[:, :, 2:6], x)
        np.testing.assert_array_equal(out[:, :, 6:8], L.gru_scan(Variable(x), p_fwd, "forward").value)

    def test_zero_embeddings_zero_middle_band(self):
        rng = np.random.default_rng(10)
        out = L.birnn_context(Variable(np.zeros((2, 3, 4))), *gru_pair(rng, 4, 2)).value
        np.testing.assert_array_equal(out[:, :, 2:6], np.zeros((2, 3, 4)))

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(11)
        p_fwd, p_bwd = gru_pair(rng, 4, 2)
        with pytest.raises(ShapeError):
            L.birnn_context(Variable(np.zeros((2, 3, 5))), p_fwd, p_bwd)
        with pytest.raises(ShapeError):
            L.birnn_context(Variable(np.zeros((2, 3, 4))), p_fwd, random_params(L.GruParams, rng, 4, 3))

    def test_matches_taped_reference(self):
        """At 7 steps, and at 33 and 65, which end one and two steps into a new time block."""
        batch, embed, hidden = 3, 4, 5
        rng = np.random.default_rng(45)
        pair = gru_pair(rng, embed, hidden)
        for steps in (7, L.TIME_BLOCK + 1, 2 * L.TIME_BLOCK + 1):
            x = rng.uniform(-1, 1, (batch, steps, embed))
            w = rng.normal(size=(batch, steps, 2 * hidden + embed))
            out, grads = weighted_grads(lambda xs: L.birnn_context(xs, *pair), pair, [x], w)
            ref, ref_grads = weighted_grads(lambda xs: taped_birnn_context(xs, *pair), pair, [x], w)
            assert len(grads) == 19
            assert_rel_close(out, ref)
            for g, rg in zip(grads, ref_grads):
                assert_rel_close(g, rg)

    @pytest.mark.parametrize("batch,steps,embed,hidden", [(32, 50, 16, 8), (3, 7, 5, 3)])
    def test_gru_bands_equal_single_direction_scans(self, batch, steps, embed, hidden):
        rng = np.random.default_rng(46)
        p_fwd, p_bwd = gru_pair(rng, embed, hidden)
        x = rng.uniform(-1, 1, (batch, steps, embed))
        out = L.birnn_context(Variable(x), p_fwd, p_bwd).value
        np.testing.assert_array_equal(out[:, :, :hidden], L.gru_scan(Variable(x), p_bwd, "backward").value)
        np.testing.assert_array_equal(out[:, :, hidden + embed :], L.gru_scan(Variable(x), p_fwd, "forward").value)

    def test_untaped_forward_keeps_no_gates(self):
        """rcnn-hw-long's eval shape. Untaped, r, z, r*h and cand live in one step's
        scratch; kept for every step, as for a backward, the peak was 36.0 MiB."""
        rng = np.random.default_rng(49)
        x, pair = Variable(rng.uniform(-1, 1, (64, 500, 16))), gru_pair(rng, 16, 8)
        peak, _out = traced_peak(lambda: L.birnn_context(x, *pair))
        assert peak < 24 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_backward_keeps_no_row_copies(self):
        """rcnn-hw-long's training shape. The backward holds one time block of da and
        credits it in place; with da, h and r*h copied into [T·B, ·] rows, the peak was 27.5 MiB."""
        rng = np.random.default_rng(51)
        x, pair = Variable(rng.uniform(-1, 1, (32, 500, 16))), gru_pair(rng, 16, 8)
        with Tape() as tape:
            loss = sum_all(L.birnn_context(x, *pair))
        peak, _out = traced_peak(lambda: backward(tape, loss))
        assert peak < 17 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_one_tape_node(self):
        rng = np.random.default_rng(47)
        with Tape() as tape:
            L.birnn_context(Variable(rng.uniform(-1, 1, (2, 9, 3))), *gru_pair(rng, 3, 2))
        assert len(tape) == 1

    def test_gradient_lands_on_the_forward_variables(self):
        """Swapping a parameter into its slot after the forward must not
        redirect the backward's gradient to the newcomer."""
        rng = np.random.default_rng(48)
        pair = gru_pair(rng, 2, 3)
        x = rng.uniform(-1, 1, (2, 4, 2))
        with Tape() as tape:
            loss = sum_all(L.birnn_context(Variable(x), *pair))
        used = [p.u_z for p in pair]
        strangers = [Variable(v.value.copy()) for v in used]
        for p, stranger in zip(pair, strangers):
            p.u_z = stranger
        backward(tape, loss)
        for p, v in zip(pair, used):
            p.u_z = v
        assert all(stranger.grad is None for stranger in strangers)
        landed = [v.grad for v in used]
        _out, ref_grads = weighted_grads(lambda xs: L.birnn_context(xs, *pair), pair, [x], np.ones((2, 4, 8)))
        np.testing.assert_array_equal(landed[0], ref_grads[1 + 4])  # x, then p_fwd's w_r w_z w_h u_r u_z
        np.testing.assert_array_equal(landed[1], ref_grads[1 + 9 + 4])


class TestBlockedBackward:
    """The recurrent backward, run and credited in time blocks, against the
    whole-array [T·B, ·] epilogue it replaced (``oracles.whole_credit``): x's
    gradient byte for byte, the weights' and biases' within 1e-12 relative, as
    the per-step products sum in another order."""

    @pytest.mark.parametrize("batch,steps,embed,hidden", [(4, 1, 5, 3), (12, 75, 16, 8), (16, 64, 16, 8), (32, 500, 16, 8)])
    @pytest.mark.parametrize("kernel", ["gru_scan forward", "gru_scan backward", "birnn_context", "lstm_scan forward"])
    def test_matches_whole_array_epilogue(self, kernel, batch, steps, embed, hidden, monkeypatch):
        rng = np.random.default_rng(52)
        name, *direction = kernel.split()
        if name == "birnn_context":
            p = gru_pair(rng, embed, hidden)
            forward = lambda xs: L.birnn_context(xs, *p)
        else:
            p = random_params(L.GruParams if name == "gru_scan" else L.LstmParams, rng, embed, hidden)
            forward = lambda xs: getattr(L, name)(xs, p, *direction)
        x = rng.uniform(-1, 1, (batch, steps, embed))
        w = rng.normal(size=forward(Variable(x)).shape)
        _out, grads = weighted_grads(forward, p, [x], w)
        monkeypatch.setattr(L._Recurrence, "credit", whole_credit)
        _out, whole = weighted_grads(forward, p, [x], w)
        np.testing.assert_array_equal(grads[0], whole[0])
        for g, wg in zip(grads[1:], whole[1:]):
            assert_rel_close(g, wg)


class TestKernelProperties:
    """The recurrent kernels, both GRU ones and the LSTM scan, against their
    taped references over random small shapes.

    A gradient whose terms nearly cancel (a bias summed over few positions)
    can be far smaller than the terms; its rounding is then measured against
    the unit scale of the loss's weights, not against itself.
    """

    @settings(max_examples=15, deadline=None, database=None)
    @given(
        batch=st.integers(1, 9), steps=st.integers(1, 9), in_dim=st.integers(1, 5), hidden=st.integers(1, 5),
        direction=st.sampled_from(["forward", "backward"]), seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=1, steps=1, in_dim=1, hidden=1, direction="backward", seed=0)
    @example(batch=9, steps=9, in_dim=5, hidden=5, direction="forward", seed=1)
    def test_recurrent_kernels_match_taped_references(self, batch, steps, in_dim, hidden, direction, seed):
        rng = np.random.default_rng(seed)
        pair = gru_pair(rng, in_dim, hidden)
        x = rng.uniform(-1, 1, (batch, steps, in_dim))
        lstm = random_params(L.LstmParams, rng, in_dim, hidden)
        cases = [
            (lambda xs: L.gru_scan(xs, pair[0], direction), lambda xs: taped_gru_scan(xs, pair[0], direction),
             pair[0], hidden),
            (lambda xs: L.birnn_context(xs, *pair), lambda xs: taped_birnn_context(xs, *pair), pair,
             2 * hidden + in_dim),
            (lambda xs: L.lstm_scan(xs, lstm, direction), lambda xs: taped_lstm_scan(xs, lstm, direction), lstm,
             hidden),
        ]
        for kernel, reference, params, width in cases:
            w = rng.normal(size=(batch, steps, width))
            out, grads = weighted_grads(kernel, params, [x], w)
            ref, ref_grads = weighted_grads(reference, params, [x], w)
            assert_rel_close(out, ref, floor=1.0)
            for g, rg in zip(grads, ref_grads):
                assert_rel_close(g, rg, floor=1.0)


class TestHighway:
    def test_negative_gate_bias_is_pure_carry(self):
        rng = np.random.default_rng(11)
        p = L.HighwayParams.create(rng, 4)
        p.w_t.value *= 0.1
        p.b_t.value[...] = -30.0
        x = rng.uniform(-2, 2, (2, 3, 4))
        y = L.highway_forward(Variable(x), p).value
        assert np.abs(y - x).max() <= 1e-9

    def test_positive_gate_bias_identity_transform(self):
        p = L.HighwayParams(
            Variable(np.eye(3)), Variable(np.zeros(3)),
            Variable(np.zeros((3, 3))), Variable(np.full(3, 30.0)),
        )
        x = np.random.default_rng(12).uniform(0.0, 2.0, (2, 2, 3))
        y = L.highway_forward(Variable(x), p).value
        assert np.abs(y - x).max() <= 1e-9

    def test_scalar_hand_evaluation(self):
        w_h, b_h, w_t, b_t, x = 0.5, 0.1, -0.7, 0.2, 0.8
        tau = sigma(x * w_t + b_t)
        expected = tau * max(0.0, x * w_h + b_h) + (1 - tau) * x
        p = L.HighwayParams(
            Variable(np.array([[w_h]])), Variable(np.array([b_h])),
            Variable(np.array([[w_t]])), Variable(np.array([b_t])),
        )
        y = L.highway_forward(Variable(np.array([[[x]]])), p).value
        np.testing.assert_allclose(y, [[[expected]]], atol=1e-12)

    def test_non_square_rejected(self):
        p = L.HighwayParams(
            Variable(np.zeros((3, 2))), Variable(np.zeros(2)),
            Variable(np.zeros((3, 3))), Variable(np.zeros(3)),
        )
        with pytest.raises(ShapeError):
            L.highway_forward(Variable(np.zeros((1, 2, 3))), p)

    @pytest.mark.parametrize("shape", [(3, 7, 5), (2, 50, 32), (32, 500, 32), (32, 50, 114)])
    def test_matches_taped_reference(self, shape):
        """The one-node kernel against the twelve-node graph of primitives, at
        shapes within one row block and, at rcnn-hw-long's and paper size, across many."""
        rng = np.random.default_rng(60)
        p = L.HighwayParams.create(rng, shape[-1])
        for _n, v in p.named():
            v.value[...] = rng.uniform(-1, 1, v.shape)  # nonzero biases too
        x = rng.uniform(-2, 2, shape)
        w = rng.normal(size=shape)
        out, grads = weighted_grads(lambda xs: L.highway_forward(xs, p), p, [x], w)
        ref, ref_grads = weighted_grads(lambda xs: taped_highway(xs, p), p, [x], w)
        np.testing.assert_array_equal(out, ref)
        for g, rg in zip(grads, ref_grads):
            assert_rel_close(g, rg)

    def test_forward_peak_memory_is_three_outputs(self):
        """The forward allocates its gate, transform and output, and otherwise
        only scratch the size of a row block: rcnn-hw-long's shape, traced."""
        rng = np.random.default_rng(63)
        p = randomized_highway(rng, 32)
        x = Variable(rng.uniform(-2, 2, (32, 500, 32)))
        tracemalloc.start()
        try:
            y = L.highway_forward(x, p)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * y.value.nbytes + 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_untaped_forward_keeps_one_output(self):
        """Untaped, the gate and transform are one row block's scratch, so the
        forward holds little beyond its output (kept whole, it peaked at 23.8 MiB)."""
        rng = np.random.default_rng(64)
        p, x = randomized_highway(rng, 32), Variable(rng.uniform(-2, 2, (64, 500, 32)))
        peak, y = traced_peak(lambda: L.highway_forward(x, p))
        assert peak < y.value.nbytes + 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(61)
        p = L.HighwayParams.create(rng, 4)
        with Tape() as tape:
            L.highway_forward(Variable(rng.uniform(-1, 1, (2, 9, 4))), p)
        assert len(tape) == 1

    @pytest.mark.parametrize("name", ["w_h", "b_h", "w_t", "b_t"])
    def test_gradient_lands_on_the_forward_variables(self, name):
        """Swapping a parameter into its slot after the forward must not
        redirect the backward's gradient to the newcomer."""
        rng = np.random.default_rng(62)
        p = L.HighwayParams.create(rng, 4)
        p.b_t.value[...] = rng.uniform(-1, 1, 4)
        y = rng.uniform(-1, 1, (2, 6, 4))
        used = getattr(p, name)
        with Tape() as tape:
            loss = sum_all(L.highway_forward(Variable(y), p))
        stranger = Variable(used.value.copy())
        setattr(p, name, stranger)
        backward(tape, loss)
        setattr(p, name, used)
        assert stranger.grad is None
        landed = used.grad
        _out, ref_grads = weighted_grads(lambda ys: L.highway_forward(ys, p), p, [y], np.ones((2, 6, 4)))
        np.testing.assert_array_equal(landed, ref_grads[1 + [n for n, _v in p.named()].index(name)])


class TestConv:
    def test_window1_identity_filter(self):
        p = L.ConvParams(Variable(np.array([[1.0]])), Variable(np.zeros(1)), 1)
        y = Variable(np.array([[[1.0], [-2.0], [3.0]]]))
        out = L.conv1d_forward(y, p)
        np.testing.assert_array_equal(out.value[0, :, 0], [1.0, 0.0, 3.0])

    def test_window2_sliding_sums(self):
        p = L.ConvParams(Variable(np.array([[1.0, 1.0]])), Variable(np.zeros(1)), 2)
        y = Variable(np.array([[[1.0], [2.0], [3.0]]]))
        out = L.conv1d_forward(y, p)
        np.testing.assert_array_equal(out.value[0, :, 0], [3.0, 5.0])

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    def test_against_sliding_window_oracle(self, window):
        rng = np.random.default_rng(13 + window)
        p = L.ConvParams.create(rng, window, 3, 4)
        y = rng.uniform(-2, 2, (2, 5, 3))
        out = L.conv1d_forward(Variable(y), p)
        expected = conv_oracle(y, p.filters.value, p.bias.value, window)
        np.testing.assert_allclose(out.value, expected, atol=1e-12)

    def test_sequence_shorter_than_window(self):
        p = L.ConvParams.create(np.random.default_rng(0), 4, 2, 3)
        with pytest.raises(ContractError, match="3.*4"):
            L.conv1d_forward(Variable(np.zeros((1, 3, 2))), p)

    def test_bias_must_match_filter_count(self):
        p = L.ConvParams(Variable(np.ones((3, 2))), Variable(np.zeros(1)), 1)
        with pytest.raises(ShapeError, match="bias"):
            L.conv1d_forward(Variable(np.zeros((1, 4, 2))), p)

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    def test_matches_taped_reference(self, window):
        """The im2col kernel against the per-position graph of primitives."""
        rng = np.random.default_rng(50 + window)
        p = L.ConvParams.create(rng, window, 3, 4)
        p.bias.value[...] = rng.uniform(-0.5, 0.5, 4)
        y = rng.uniform(-2, 2, (2, 7, 3))
        w = rng.normal(size=(2, 8 - window, 4))
        out, grads = weighted_grads(lambda ys: L.conv1d_forward(ys, p), p, [y], w)
        ref, ref_grads = weighted_grads(lambda ys: taped_conv(ys, p), p, [y], w)
        assert_rel_close(out, ref)
        for g, rg in zip(grads, ref_grads):
            assert_rel_close(g, rg)

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(56)
        p = L.ConvParams.create(rng, 3, 2, 4)
        with Tape() as tape:
            L.conv1d_forward(Variable(rng.uniform(-1, 1, (2, 9, 2))), p)
        assert len(tape) == 1

    @pytest.mark.parametrize("name", ["filters", "bias"])
    def test_gradient_lands_on_the_forward_variables(self, name):
        """Swapping a parameter into its slot after the forward must not
        redirect the backward's gradient to the newcomer."""
        rng = np.random.default_rng(57)
        p = L.ConvParams.create(rng, 2, 3, 4)
        y = rng.uniform(-1, 1, (2, 6, 3))
        used = getattr(p, name)
        with Tape() as tape:
            loss = sum_all(L.conv1d_forward(Variable(y), p))
        stranger = Variable(used.value.copy())
        setattr(p, name, stranger)
        backward(tape, loss)
        setattr(p, name, used)
        assert stranger.grad is None
        landed = used.grad
        _out, ref_grads = weighted_grads(lambda ys: L.conv1d_forward(ys, p), p, [y], np.ones((2, 5, 4)))
        np.testing.assert_array_equal(landed, ref_grads[1 + [n for n, _v in p.named()].index(name)])


class TestMaxpool:
    def test_single_filter(self):
        out = L.maxpool_over_time(Variable(np.array([[[1.0], [3.0], [2.0]]])))
        np.testing.assert_array_equal(out.value, [[3.0]])

    def test_all_equal_routes_gradient_to_first(self):
        x = Variable(np.full((1, 3, 1), 7.0))
        with Tape() as tape:
            loss = sum_all(L.maxpool_over_time(x))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad[0, :, 0], [1.0, 0.0, 0.0])
        assert loss.value == 7.0

    def test_time_permutation_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 6, 3))
        perm = rng.permutation(6)
        a = L.maxpool_over_time(Variable(x)).value
        b = L.maxpool_over_time(Variable(x[:, perm, :].copy())).value
        np.testing.assert_array_equal(a, b)

    def test_width1_conv_maxpool_composite_permutation_invariant(self):
        rng = np.random.default_rng(15)
        p = L.ConvParams.create(rng, 1, 3, 4)
        x = rng.uniform(-2, 2, (2, 7, 3))
        perm = rng.permutation(7)
        a = L.maxpool_over_time(L.conv1d_forward(Variable(x), p)).value
        b = L.maxpool_over_time(L.conv1d_forward(Variable(x[:, perm, :].copy()), p)).value
        np.testing.assert_array_equal(a, b)


class TestConvPool:
    """The pooled convolution against maxpool_over_time of the feature map."""

    @staticmethod
    def fused(p, y, w):
        return weighted_grads(lambda ys: L.conv1d_forward(ys, p, pool=True), p, [y], w)

    @pytest.mark.parametrize("window", [1, 3, 5])
    @pytest.mark.parametrize("batch,extra", [(4, 9), (4, 0), (1, 6)])  # extra = T - window = L - 1
    def test_matches_composite(self, window, batch, extra):
        rng = np.random.default_rng(60 + window + extra)
        p = L.ConvParams.create(rng, window, 3, 6)
        p.bias.value[...] = rng.uniform(-0.5, 0.5, 6)
        y = rng.uniform(-2, 2, (batch, window + extra, 3))
        w = rng.normal(size=(batch, 6))
        out, (dy, dfilters, dbias) = self.fused(p, y, w)
        ref, (ref_dy, ref_dfilters, ref_dbias) = weighted_grads(
            lambda ys: L.maxpool_over_time(L.conv1d_forward(ys, p)), p, [y], w)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(dbias, ref_dbias)
        assert_rel_close(dfilters, ref_dfilters)
        assert_rel_close(dy, ref_dy)

    @pytest.mark.parametrize("shape,filters,windows", [((32, 200, 50), 256, (3, 4, 5)), ((3, 7, 5), 4, (4, 5))])
    def test_modes_share_one_matmul_layout(self, shape, filters, windows):
        """On float inputs the pooled output and dbias equal maxpool of the
        map bit for bit. At [3, 7, 5] the im2col product with a contiguous
        copy of filtersᵀ on the right and filters·columnsᵀ round apart in a
        few responses, so the modes must share one layout."""
        rng = np.random.default_rng(70)
        y = rng.uniform(-2, 2, shape)
        for window in windows:
            p = L.ConvParams.create(rng, window, shape[2], filters)
            p.bias.value[...] = rng.uniform(-0.5, 0.5, filters)
            w = rng.normal(size=(shape[0], filters))
            out, (_dy, _dfilters, dbias) = self.fused(p, y, w)
            ref, (_ref_dy, _ref_dfilters, ref_dbias) = weighted_grads(
                lambda ys: L.maxpool_over_time(L.conv1d_forward(ys, p)), p, [y], w)
            np.testing.assert_array_equal(out, ref)
            np.testing.assert_array_equal(dbias, ref_dbias)

    def test_ties_route_to_first_position(self):
        p = L.ConvParams(Variable(np.array([[1.0, 1.0]])), Variable(np.zeros(1)), 2)
        y = np.array([[[2.0], [1.0], [2.0], [1.0]]])  # responses 3, 3, 3
        out, (dy, dfilters, dbias) = self.fused(p, y, np.ones((1, 1)))
        np.testing.assert_array_equal(out, [[3.0]])
        np.testing.assert_array_equal(dy[0, :, 0], [1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(dfilters, [[2.0, 1.0]])
        np.testing.assert_array_equal(dbias, [1.0])

    @pytest.mark.parametrize("peak", [0.0, -0.5])
    def test_nonpositive_maximum_sends_no_gradient(self, peak):
        p = L.ConvParams(Variable(np.array([[1.0], [-1.0]])), Variable(np.array([peak, 0.0])), 1)
        y = np.array([[[0.0], [-1.0], [-2.0]]])  # filter 0 peaks at `peak`, filter 1 at 2
        out, (dy, dfilters, dbias) = self.fused(p, y, np.ones((1, 2)))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])
        np.testing.assert_array_equal(dfilters, [[0.0], [-2.0]])
        np.testing.assert_array_equal(dbias, [0.0, 1.0])
        np.testing.assert_array_equal(dy[0, :, 0], [0.0, 0.0, -1.0])

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(66)
        p = L.ConvParams.create(rng, 3, 2, 4)
        with Tape() as tape:
            L.conv1d_forward(Variable(rng.uniform(-1, 1, (2, 9, 2))), p, pool=True)
        assert len(tape) == 1

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        batch=st.integers(1, 4), window=st.integers(1, 5), extra=st.integers(0, 6), width=st.integers(1, 3),
        filters=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=1, window=1, extra=0, width=1, filters=1, seed=0)
    @example(batch=4, window=5, extra=6, width=3, filters=4, seed=1)
    def test_matches_taped_composite_on_integers(self, batch, window, extra, width, filters, seed):
        """Small integers make every sum exact and ties frequent, so values,
        tie routing and gradients must all match bit for bit."""
        rng = np.random.default_rng(seed)
        p = L.ConvParams(Variable(rng.integers(-2, 3, (filters, window * width)).astype(float)),
                         Variable(rng.integers(-2, 3, filters).astype(float)), window)
        y = rng.integers(-2, 3, (batch, window + extra, width)).astype(float)
        w = rng.integers(-3, 4, (batch, filters)).astype(float)
        out, grads = weighted_grads(lambda ys: L.conv1d_forward(ys, p, pool=True), p, [y], w)
        ref, ref_grads = weighted_grads(lambda ys: taped_conv_pool(ys, p), p, [y], w)
        np.testing.assert_array_equal(out, ref)
        for g, rg in zip(grads, ref_grads):
            np.testing.assert_array_equal(g, rg)


class TestMaskedReductions:
    def test_mean_over_true_length(self):
        x = Variable(np.array([[[2.0], [4.0]]]))
        out = L.mean_over_time(x, np.array([2]))
        np.testing.assert_array_equal(out.value, [[3.0]])

    def test_padded_tail_ignored(self):
        x = Variable(np.array([[[2.0], [4.0], [99.0]]]))
        out = L.mean_over_time(x, np.array([2]))
        np.testing.assert_array_equal(out.value, [[3.0]])
        out = L.sum_over_time(x, np.array([2]))
        np.testing.assert_array_equal(out.value, [[6.0]])

    def test_sum_of_identical_rows(self):
        row = np.array([1.5, -2.0, 0.25])
        x = Variable(np.tile(row, (1, 4, 1)))
        out = L.sum_over_time(x, np.array([4]))
        np.testing.assert_allclose(out.value, [4 * row], atol=1e-15)

    def test_sum_exactly_permutation_invariant(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(3, 9, 4))
        perm = rng.permutation(9)
        a = L.sum_over_time(Variable(x), np.full(3, 9)).value
        b = L.sum_over_time(Variable(x[:, perm, :].copy()), np.full(3, 9)).value
        np.testing.assert_array_equal(a, b)

    def test_zero_length_rejected(self):
        with pytest.raises(ContractError):
            L.mean_over_time(Variable(np.zeros((1, 2, 1))), np.array([0]))

    def test_length_beyond_time_rejected(self):
        with pytest.raises(ContractError):
            L.sum_over_time(Variable(np.zeros((1, 2, 1))), np.array([3]))


class TestDenseSoftmax:
    def test_symmetric_logits(self):
        probs = softmax_rows(Variable(np.zeros((1, 2))))
        np.testing.assert_array_equal(probs.value, [[0.5, 0.5]])

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(4, 3))
        a = softmax_rows(Variable(logits)).value
        b = softmax_rows(Variable(logits + 100.0)).value
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_saturation(self):
        probs = softmax_rows(Variable(np.array([[30.0, 0.0]]))).value
        assert probs[0, 0] >= 1.0 - 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(18)
        x = Variable(rng.normal(size=(6, 4)))
        w = Variable(rng.normal(size=(4, 3)))
        b = Variable(rng.normal(size=3))
        probs = L.dense_softmax(x, L.DenseParams(w, b)).value
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            L.dense_softmax(Variable(np.zeros((1, 2))), L.DenseParams(Variable(np.zeros((2, 1))), Variable(np.zeros(1))))

    @pytest.mark.parametrize("batch,d,classes", [(32, 32, 2), (3, 4, 5)])  # rcnn-hw-long's head, then a small one
    def test_matches_taped_reference_bit_for_bit(self, batch, d, classes):
        """The one-node head against matmul, bias_add and softmax_rows."""
        rng = np.random.default_rng(80)
        p = random_params(L.DenseParams, rng, d, classes)
        x = rng.uniform(-2, 2, (batch, d))
        g = rng.normal(size=(batch, classes))
        out, grads = weighted_grads(lambda xs: L.dense_softmax(xs, p), p, [x], g)
        ref, ref_grads = weighted_grads(lambda xs: taped_dense_softmax(xs, p.w, p.b), p, [x], g)
        np.testing.assert_array_equal(out, ref)
        for got, expected in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, expected)

    def test_one_tape_node_per_call(self):
        with Tape() as tape:
            L.dense_softmax(Variable(np.ones((2, 3))), L.DenseParams(Variable(np.ones((3, 2))), Variable(np.zeros(2))))
        assert len(tape) == 1

    def test_mismatched_weight_rejected(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            L.dense_softmax(Variable(np.zeros((2, 3))), L.DenseParams(Variable(np.zeros((4, 2))), Variable(np.zeros(2))))
        with pytest.raises(ShapeError):
            L.dense_softmax(Variable(np.zeros((2, 1, 3))), L.DenseParams(Variable(np.zeros((3, 2))), Variable(np.zeros(2))))

    def test_mismatched_bias_rejected(self):
        with pytest.raises(ShapeError, match="bias"):
            L.dense_softmax(Variable(np.zeros((2, 3))), L.DenseParams(Variable(np.zeros((3, 2))), Variable(np.zeros(3))))

    def test_zero_d_weight_rejected_before_its_dimensions_are_read(self):
        with Tape() as tape:
            with pytest.raises(ShapeError, match=r"DenseParams\.w.*\(\)"):
                L.dense_softmax(Variable(np.zeros((2, 3))), L.DenseParams(Variable(np.float64(1.0)), Variable(np.zeros(2))))
        assert len(tape) == 0


class TestDenseRelu:
    @pytest.mark.parametrize("shape,width", [((32, 50, 32), 32), ((3, 7, 5), 4)])  # rcnn-hw-mlp's block, then a small one
    def test_matches_taped_reference_bit_for_bit(self, shape, width):
        """The one-node MLP block against reshape, matmul, bias_add and relu."""
        rng = np.random.default_rng(81)
        p = random_params(L.DenseParams, rng, shape[-1], width)
        x = rng.uniform(-2, 2, shape)
        g = rng.normal(size=shape[:-1] + (width,))
        out, grads = weighted_grads(lambda xs: L.dense_relu_positions(xs, p), p, [x], g)
        ref, ref_grads = weighted_grads(lambda xs: taped_dense_relu(xs, p), p, [x], g)
        assert (out == 0.0).any() and (out > 0.0).any()  # both sides of the kink
        np.testing.assert_array_equal(out, ref)
        for got, expected in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, expected)

    def test_one_tape_node_per_call(self):
        p = L.DenseParams.create(np.random.default_rng(82), 4, 3)
        with Tape() as tape:
            L.dense_relu_positions(Variable(np.ones((2, 5, 4))), p)
        assert len(tape) == 1

    def test_mismatched_input_width_rejected(self):
        p = L.DenseParams.create(np.random.default_rng(83), 4, 3)
        with pytest.raises(ShapeError, match="width 4, got 5"):
            L.dense_relu_positions(Variable(np.zeros((2, 5, 5))), p)

    def test_mismatched_bias_rejected(self):
        p = L.DenseParams(Variable(np.zeros((4, 3))), Variable(np.zeros(4)))
        with pytest.raises(ShapeError, match="bias"):
            L.dense_relu_positions(Variable(np.zeros((2, 5, 4))), p)


# Every kernel that takes a parameter container: the containers' classes and ``create``
# dimensions at input width 3 (hidden 2, 4 filters, window 2), and a call on [2, 3, 3] inputs.
X3 = np.linspace(-1.0, 1.0, 18).reshape(2, 3, 3)
CONTAINER_KERNELS = {
    "embed": ([(L.EmbeddingParams, (5, 3))], lambda p: L.embed(make_batch([[1, 2, 3], [4, 0, 1]]), p)),
    "embed_pooled": ([(L.EmbeddingParams, (5, 3))], lambda p: L.embed(make_batch([[1, 2, 3], [4, 0, 1]]), p, pool=True)),
    "gru_scan": ([(L.GruParams, (3, 2))], lambda p: L.gru_scan(Variable(X3), p, "backward")),
    "lstm_scan": ([(L.LstmParams, (3, 2))], lambda p: L.lstm_scan(Variable(X3), p)),
    "gru_cell_step": ([(L.GruParams, (3, 2))], lambda p: L.gru_cell_step(Variable(X3[:, 0]), Variable(np.zeros((2, 2))), p)),
    "lstm_cell_step": ([(L.LstmParams, (3, 2))],
                       lambda p: L.lstm_cell_step(Variable(X3[:, 0]), (Variable(np.zeros((2, 2))),) * 2, p)),
    "birnn_context": ([(L.GruParams, (3, 2))] * 2, lambda p_fwd, p_bwd: L.birnn_context(Variable(X3), p_fwd, p_bwd)),
    "highway_forward": ([(L.HighwayParams, (3,))], lambda p: L.highway_forward(Variable(X3), p)),
    "dense_relu_positions": ([(L.DenseParams, (3, 4))], lambda p: L.dense_relu_positions(Variable(X3), p)),
    "conv1d_forward": ([(L.ConvParams, (2, 3, 4))], lambda p: L.conv1d_forward(Variable(X3), p)),
    "conv1d_forward_pooled": ([(L.ConvParams, (2, 3, 4))], lambda p: L.conv1d_forward(Variable(X3), p, pool=True)),
    "dense_softmax": ([(L.DenseParams, (3, 4))], lambda p: L.dense_softmax(Variable(X3[:, 0]), p)),
}


def misshapen_fields():
    """(kernel, container index, field, shape) for each Variable field of each
    container a kernel takes, and four shapes the field must not have: two that
    numpy would broadcast against it, [1] and a leading 1, one with every axis
    a size too long, and one with a trailing axis added."""
    for kernel, (plan, _call) in CONTAINER_KERNELS.items():
        for i, (cls, dims) in enumerate(plan):
            for f, shape in zip(fields(cls), cls.shapes(*dims)):
                bad = {"1": (1,), "leading_1": (1, *shape), "longer": tuple(s + 1 for s in shape), "extra_axis": (*shape, 1)}
                if cls is L.EmbeddingParams:
                    del bad["longer"]  # embed reads the vocabulary and the width off the table: any [V, D] is one
                for label, bad_shape in bad.items():
                    yield pytest.param(kernel, i, f.name, bad_shape, id=f"{kernel}-{i}-{f.name}-{label}")


class TestContainerShapes:
    def test_every_kernel_that_takes_a_container_is_listed(self):
        """A public ``layers`` function with a parameter annotated as a container
        must be a key of ``CONTAINER_KERNELS``, so that its fields get the cases below."""
        takes_container = {
            name for name, fn in vars(L).items()
            if inspect.isfunction(fn) and fn.__module__ == L.__name__ and not name.startswith("_")
            and any(isinstance(a, type) and issubclass(a, L._Params)
                    for a in inspect.get_annotations(fn, eval_str=True).values())
        }
        assert "dense_softmax" in takes_container and "birnn_context" in takes_container
        assert takes_container - CONTAINER_KERNELS.keys() == set()

    def test_kernels_run_on_the_declared_shapes(self):
        for plan, call in CONTAINER_KERNELS.values():
            rng = np.random.default_rng(90)
            call(*(cls.create(rng, *dims) for cls, dims in plan))

    @pytest.mark.parametrize("kernel,index,field,bad_shape", list(misshapen_fields()))
    def test_misshapen_field_raises_naming_it_before_any_node(self, kernel, index, field, bad_shape):
        """Each field must have its ``shapes()`` shape exactly: no broadcasting
        of a [1] or [1, d] bias, no extra axis. The error names the container's
        field and the shape it got, and the tape stays empty."""
        plan, call = CONTAINER_KERNELS[kernel]
        rng = np.random.default_rng(91)
        containers = [cls.create(rng, *dims) for cls, dims in plan]
        containers[index] = replace(containers[index], **{field: Variable(np.full(bad_shape, 0.5))})
        name = re.escape(f"{plan[index][0].__name__}.{field}")
        with Tape() as tape:
            with pytest.raises(ShapeError, match=rf"\b{name}\b.*{re.escape(str(bad_shape))}"):
                call(*containers)
        assert len(tape) == 0


# Every kernel that takes a [batch, T, d] input: its name, a call on such an input x of width 3,
# and the fewest time steps it takes.
SEQUENCE_KERNELS = {
    "gru_scan": (lambda x, rng: L.gru_scan(x, L.GruParams.create(rng, 3, 2)), 1),
    "lstm_scan": (lambda x, rng: L.lstm_scan(x, L.LstmParams.create(rng, 3, 2), "backward"), 1),
    "birnn_context": (lambda x, rng: L.birnn_context(x, *(L.GruParams.create(rng, 3, 2) for _ in range(2))), 1),
    "conv1d_forward": (lambda x, rng: L.conv1d_forward(x, L.ConvParams.create(rng, 2, 3, 4)), 2),
    "conv1d_forward_pooled": (lambda x, rng: L.conv1d_forward(x, L.ConvParams.create(rng, 2, 3, 4), pool=True), 2),
    "maxpool_over_time": (lambda x, rng: L.maxpool_over_time(x), 1),
    "mean_over_time": (lambda x, rng: L.mean_over_time(x, np.ones(x.shape[0], dtype=np.int64)), 1),
    "sum_over_time": (lambda x, rng: L.sum_over_time(x, np.ones(x.shape[0], dtype=np.int64)), 1),
}


class TestSequenceInputs:
    @pytest.mark.parametrize("kernel", list(SEQUENCE_KERNELS))
    def test_bad_sequence_raises_naming_the_kernel_before_any_node(self, kernel):
        """A 2-d input is a ``ShapeError`` and one with too few time steps a
        ``ContractError``; each names the kernel and leaves the tape empty. At the
        fewest steps the kernel runs."""
        call, fewest = SEQUENCE_KERNELS[kernel]
        name = kernel.removesuffix("_pooled")
        for shape, error in (((2, 3), ShapeError), ((2, fewest - 1, 3), ContractError)):
            with Tape() as tape:
                with pytest.raises(error, match=rf"^{name}\b"):
                    call(Variable(np.zeros(shape)), np.random.default_rng(92))
            assert len(tape) == 0
        assert call(Variable(np.zeros((2, fewest, 3))), np.random.default_rng(92)).shape[0] == 2


LIVE_COUNTS = {  # live positions out of n
    "none": lambda n: 0,
    "one": lambda n: 1,
    "under_half": lambda n: (n - 1) // 2,  # the most the gathered backward takes
    "half": lambda n: (n + 1) // 2,  # the fewest the dense backward takes: exactly half when n is even
    "all": lambda n: n,
}


def masked_cotangent(rng, shape, live_count):
    """A standard normal cotangent whose rows outside a random set of
    ``live_count`` positions are +0.0, as a pooled convolution sends, and
    that set as a mask over the leading axes. About a third of the live rows'
    entries are +0.0 too, one column excepted, so a live row need not be
    nonzero throughout."""
    n = math.prod(shape[:-1])
    live = np.zeros(n, dtype=bool)
    live[rng.permutation(n)[:live_count]] = True
    live = live.reshape(shape[:-1])
    keep = rng.random(shape) < 0.7
    keep[..., rng.integers(shape[-1])] = True
    return np.where(live[..., None] & keep, rng.normal(size=shape), 0.0), live


def randomized_highway(rng, d):
    p = L.HighwayParams.create(rng, d)
    for _n, v in p.named():
        v.value[...] = rng.uniform(-1, 1, v.shape)  # nonzero biases too
    return p


class TestRowBlocks:
    """The position-wise forwards work in row blocks; their outputs must equal
    the whole-array passes byte for byte on either side of a block boundary."""

    @pytest.mark.parametrize("rows", [1, L.ROW_BLOCK - 1, L.ROW_BLOCK, L.ROW_BLOCK + 1, 1600, 16000])
    @pytest.mark.parametrize("d", [5, 12, 32, 50, 114])
    def test_outputs_equal_whole_array_passes(self, d, rows):
        rng = np.random.default_rng(d * rows)
        p, q = randomized_highway(rng, d), random_params(L.DenseParams, rng, d, d + 3)
        x = rng.uniform(-2, 2, (1, rows, d))
        np.testing.assert_array_equal(L.highway_forward(Variable(x), p).value.reshape(rows, d), whole_highway(x, p)[3])
        np.testing.assert_array_equal(L.dense_relu_positions(Variable(x), q).value.reshape(rows, -1), whole_dense_relu(x, q))


    @pytest.mark.parametrize("d", [*range(1, 65), 114])
    def test_gemm_blocks_equal_whole_products_at_every_width(self, d):
        """The matmuls run in the blocks too. OpenBLAS sends a product of at most
        1e6 multiply-adds to a small-matrix kernel that rounds unlike the whole
        array's, so 512-row blocks moved bits at d = 17-20, 25-28, 33-36 and
        41-44; a block must be the fewest multiple of 64 rows above that, the
        last one taking the rest. Bytes are required on the numpy, BLAS and CPU
        the golden digests were recorded on; elsewhere, 1e-12."""
        exact = same_blas()
        rng = np.random.default_rng(d)
        p, q = randomized_highway(rng, d), random_params(L.DenseParams, rng, d, d + 3)
        for kernel, whole, params, macs in ((L.highway_forward, lambda x: whole_highway(x, p)[3], p, d * d),
                                            (L.dense_relu_positions, lambda x: whole_dense_relu(x, q), q, d * (d + 3))):
            rows = max(512, (10**6 // macs // 64 + 1) * 64)
            inputs = rng.uniform(-2, 2, (max(2 * rows + 1, 16000), d))
            for n in (rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows + 1, 16000):
                out, ref = kernel(Variable(inputs[:n]), params).value, whole(inputs[:n])
                assert out.tobytes() == ref.tobytes() if exact else np.allclose(out, ref, 1e-12, 1e-12), (n, rows)


class TestLiveRowBackward:
    """The highway and dense+relu backward work only on the rows whose upstream
    gradient is not all zero. Dead rows' input gradient stays +0.0; live rows'
    and the parameters' gradients match the dense backward (a BLAS can round
    a product of fewer rows differently, so within 1e-12); and with half the
    rows or more live the backward is the dense one, byte for byte."""

    @staticmethod
    def check(grads, dense, taped, live):
        dead = grads[0][~live]
        assert not dead.any() and not np.signbit(dead).any()
        for got, expected, ref in zip(grads, dense, taped):
            assert_rel_close(got, expected)
            assert_rel_close(got, ref, floor=1.0)  # cancelling sums are judged on the loss's unit scale
        if 2 * live.sum() >= live.size:
            for got, expected in zip(grads, dense):
                np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=40, deadline=None, database=None)
    @given(batch=st.integers(1, 4), steps=st.integers(1, 8), d=st.integers(1, 5),
           live=st.sampled_from([*LIVE_COUNTS, "any"]), seed=st.integers(0, 2**32 - 1))
    @example(batch=2, steps=6, d=4, live="none", seed=0)
    @example(batch=2, steps=6, d=4, live="one", seed=1)
    @example(batch=2, steps=6, d=4, live="under_half", seed=2)
    @example(batch=2, steps=6, d=4, live="half", seed=3)
    @example(batch=3, steps=5, d=3, live="half", seed=4)
    @example(batch=2, steps=6, d=4, live="all", seed=5)
    def test_highway(self, batch, steps, d, live, seed):
        rng = np.random.default_rng(seed)
        p = randomized_highway(rng, d)
        x = rng.uniform(-2, 2, (batch, steps, d))
        count = LIVE_COUNTS[live](batch * steps) if live in LIVE_COUNTS else int(rng.integers(0, batch * steps + 1))
        g, mask = masked_cotangent(rng, x.shape, count)
        _out, grads = weighted_grads(lambda xs: L.highway_forward(xs, p), p, [x], g)
        _ref, taped = weighted_grads(lambda xs: taped_highway(xs, p), p, [x], g)
        self.check(grads, dense_highway_grads(x, p, g), taped, mask)

    @settings(max_examples=40, deadline=None, database=None)
    @given(batch=st.integers(1, 4), steps=st.integers(1, 8), d=st.integers(1, 5), width=st.integers(1, 5),
           live=st.sampled_from([*LIVE_COUNTS, "any"]), seed=st.integers(0, 2**32 - 1))
    @example(batch=2, steps=6, d=4, width=3, live="none", seed=0)
    @example(batch=2, steps=6, d=4, width=3, live="one", seed=1)
    @example(batch=2, steps=6, d=4, width=3, live="under_half", seed=2)
    @example(batch=2, steps=6, d=4, width=3, live="half", seed=3)
    @example(batch=3, steps=5, d=3, width=4, live="half", seed=4)
    @example(batch=2, steps=6, d=4, width=3, live="all", seed=5)
    def test_dense_relu(self, batch, steps, d, width, live, seed):
        """The five-node taped block is the dense backward, bit for bit."""
        rng = np.random.default_rng(seed)
        p = random_params(L.DenseParams, rng, d, width)
        x = rng.uniform(-2, 2, (batch, steps, d))
        count = LIVE_COUNTS[live](batch * steps) if live in LIVE_COUNTS else int(rng.integers(0, batch * steps + 1))
        g, mask = masked_cotangent(rng, (batch, steps, width), count)
        _out, grads = weighted_grads(lambda xs: L.dense_relu_positions(xs, p), p, [x], g)
        _ref, taped = weighted_grads(lambda xs: taped_dense_relu(xs, p), p, [x], g)
        self.check(grads, taped, taped, mask)

    @pytest.mark.parametrize("kernel,params", [
        (L.highway_forward, lambda rng: randomized_highway(rng, 4)),
        (L.dense_relu_positions, lambda rng: random_params(L.DenseParams, rng, 4, 4)),
    ], ids=["highway", "dense_relu"])
    def test_input_gradient_adds_to_what_is_there(self, kernel, params):
        """Two uses of one input: the second backward adds its live rows onto
        the first's gradient, so each gradient is exactly twice one use's."""
        rng = np.random.default_rng(64)
        p = params(rng)
        x = rng.uniform(-2, 2, (2, 6, 4))
        g, _mask = masked_cotangent(rng, x.shape, 3)
        _out, once = weighted_grads(lambda xs: kernel(xs, p), p, [x], g)
        _out, twice = weighted_grads(lambda xs: add(kernel(xs, p), kernel(xs, p)), p, [x], g)
        for a, b in zip(twice, once):
            np.testing.assert_array_equal(a, 2.0 * b)

    @pytest.mark.parametrize("live", list(LIVE_COUNTS))
    def test_two_highway_layers_stay_live_row(self, live):
        """The upper layer's dead rows give the lower one an all-zero upstream
        row, so the lower layer skips the same rows."""
        rng = np.random.default_rng(63)
        pair = randomized_highway(rng, 4), randomized_highway(rng, 4)
        x = rng.uniform(-2, 2, (3, 8, 4))
        g, mask = masked_cotangent(rng, x.shape, LIVE_COUNTS[live](24))
        _out, grads = weighted_grads(lambda xs: L.highway_forward(L.highway_forward(xs, pair[0]), pair[1]),
                                     pair, [x], g)
        _ref, taped = weighted_grads(lambda xs: taped_highway(taped_highway(xs, pair[0]), pair[1]), pair, [x], g)
        upper = dense_highway_grads(L.highway_forward(Variable(x), pair[0]).value, pair[1], g)
        lower = dense_highway_grads(x, pair[0], upper[0])
        self.check(grads, [*lower, *upper[1:]], taped, mask)


class TestGateRanges:
    def test_gates_strictly_inside_unit_interval(self):
        """Gate activations stay in (0,1) for bounded random inputs."""
        rng = np.random.default_rng(19)
        for _ in range(5):
            pre = rng.uniform(-30, 30, (4, 4))
            s = sigmoid(Variable(pre)).value
            assert np.all(s > 0.0) and np.all(s < 1.0)


class TestLayerGradients:
    def test_full_layer_suite_within_tolerance(self):
        """Every layer matches central differences on 5 seeds."""
        results = checks.run_layer_checks(base_seed=0, seeds=5)
        for r in results:
            assert r.passed(), f"{r.name}: {r.max_rel_error}"

    def test_worst_differences_every_named_tensor(self):
        """A backward rule wrong only for the second tensor still fails."""
        rng = np.random.default_rng(20)
        a, b = Variable(rng.uniform(-2, 2, (2, 3))), Variable(rng.uniform(-2, 2, (2, 3)))

        def loss(square_b):
            return lambda: add(sum_all(mul(a, a)), sum_all(square_b(b)))

        assert checks._worst([a, b], loss(lambda v: mul(v, v))) < 1e-6
        assert checks._worst([a, b], loss(checks._broken_square)) > 1e-2

    @pytest.mark.parametrize("base_seed", [891, 580, 299])
    def test_seeds_with_unresolvable_first_draws_pass(self, base_seed):
        """Seeds at which a check without the shared redraw loop drew a
        gradient coordinate below finite-difference resolution and failed a
        correct kernel: gru_cell_step at 891 under a uniform-sum loss, with
        a coordinate of 1.5e-8."""
        for r in checks.run_layer_checks(base_seed=base_seed, seeds=1):
            assert r.passed(), f"{r.name}: {r.max_rel_error}"

    def test_injected_bug_fails(self):
        results = checks.run_layer_checks(base_seed=0, seeds=1, inject_bug=True)
        bug = [r for r in results if r.name == "injected_bug"][0]
        assert bug.max_rel_error > 1e-2
