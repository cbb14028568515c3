"""Loss and optimizer tests with hand-evaluated first steps."""

import math

import numpy as np
import pytest

from rcnnlab.autodiff import Tape, Variable, backward
from rcnnlab.errors import ConfigError, DataError, ShapeError
from rcnnlab.layers import DenseParams, dense_softmax
from rcnnlab.optim import Adadelta, Adam, RmsProp, clip_gradients, cross_entropy_loss, make_optimizer


class TestCrossEntropy:
    def test_uniform_two_class(self):
        probs = Variable(np.full((4, 2), 0.5))
        loss = cross_entropy_loss(probs, np.array([0, 1, 0, 1]))
        assert loss.value == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction(self):
        probs = Variable(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = cross_entropy_loss(probs, np.array([0, 1]))
        assert loss.value == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        probs = Variable(np.array([[0.9, 0.1]]))
        loss = cross_entropy_loss(probs, np.array([0]))
        assert loss.value == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            cross_entropy_loss(Variable(np.full((1, 2), 0.5)), np.array([2]))

    def test_nonnegative_and_zero_only_at_certainty(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.uniform(0.01, 1, (3, 2))
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = rng.integers(0, 2, 3)
            loss = cross_entropy_loss(Variable(probs), labels)
            assert loss.value >= 0.0
            if loss.value == 0.0:
                assert np.all(probs[np.arange(3), labels] == 1.0)

    def test_clamp_keeps_loss_finite(self):
        probs = Variable(np.array([[0.0, 1.0]]))
        loss = cross_entropy_loss(probs, np.array([0]))
        assert np.isfinite(loss.value)

    def test_gradient_through_softmax(self):
        # d(-log softmax(z)_y)/dz = p - onehot(y), averaged over the batch
        rng = np.random.default_rng(1)
        x = Variable(rng.normal(size=(3, 4)))
        w = Variable(rng.normal(size=(4, 2)))
        b = Variable(np.zeros(2))
        labels = np.array([0, 1, 0])
        with Tape() as tape:
            probs = dense_softmax(x, DenseParams(w, b))
            loss = cross_entropy_loss(probs, labels)
        backward(tape, loss)
        p = probs.value.copy()
        p[np.arange(3), labels] -= 1.0
        expected_b = p.mean(axis=0)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-12)


class TestRmsProp:
    def test_zero_gradient_leaves_params_cache_decays(self):
        p = Variable(np.array([2.0]))
        opt = RmsProp([p])
        opt.cache[0][...] = 1.0
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_array_equal(p.value, [2.0])
        assert opt.cache[0][0] == pytest.approx(0.9)

    def test_first_step_hand_evaluation(self):
        p = Variable(np.array([1.0]))
        opt = RmsProp([p], lr=1e-3, rho=0.9, eps=1e-8)
        p.grad = np.ones(1)
        opt.step()
        cache = 0.1  # 0.9*0 + 0.1*1
        expected = 1.0 - 1e-3 * 1.0 / (math.sqrt(cache) + 1e-8)
        assert opt.cache[0][0] == pytest.approx(cache, abs=1e-15)
        assert p.value[0] == pytest.approx(expected, abs=1e-12)
        assert p.value[0] == pytest.approx(0.996838, abs=1e-6)

    def test_converges_on_quadratic(self):
        p = Variable(np.array([5.0]))
        opt = RmsProp([p], lr=0.02)
        for _ in range(500):
            p.grad = 2.0 * p.value
            opt.step()
        assert abs(p.value[0]) < 0.1

    def test_scale_awareness(self):
        def first_step_delta(g):
            p = Variable(np.array([0.0]))
            opt = RmsProp([p])
            p.grad = np.array([g])
            opt.step()
            return abs(p.value[0])

        small, large = first_step_delta(1.0), first_step_delta(1000.0)
        assert abs(large - small) / small < 0.01


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # eps limits the agreement: |dp| = lr*|g|/(|g|+eps), so |g| >= 0.05
        # keeps the deviation under 1e-9 at lr=1e-3
        for g in (3.7, -0.05, 250.0):
            p = Variable(np.array([1.0]))
            opt = Adam([p], lr=1e-3)
            p.grad = np.array([g])
            opt.step()
            assert abs(abs(p.value[0] - 1.0) - 1e-3) <= 1e-9

    def test_zero_gradient_no_change(self):
        p = Variable(np.array([1.5]))
        opt = Adam([p])
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_array_equal(p.value, [1.5])


class TestAdadelta:
    def test_first_step_from_stated_rule(self):
        rho, eps = 0.95, 1e-6
        p = Variable(np.array([1.0]))
        opt = Adadelta([p], lr=1.0, rho=rho, eps=eps)
        p.grad = np.ones(1)
        opt.step()
        # zero accumulators, g=1: delta = -sqrt(eps)/sqrt((1-rho)+eps)
        expected_delta = -math.sqrt(eps) / math.sqrt((1 - rho) * 1.0 + eps)
        assert p.value[0] == pytest.approx(1.0 + expected_delta, abs=1e-15)
        assert p.value[0] == pytest.approx(1.0 - 4.4720912343e-3, abs=1e-12)

    def test_second_step_reads_the_update_accumulator_before_its_decay(self):
        rho, eps = 0.95, 1e-6
        p = Variable(np.array([1.0]))
        opt = Adadelta([p], lr=1.0, rho=rho, eps=eps)
        expected, ag, ad = 1.0, 0.0, 0.0
        for g in (1.0, 2.0):
            p.grad = np.array([g])
            opt.step()
            ag = rho * ag + (1 - rho) * g * g
            delta = -math.sqrt(ad + eps) / math.sqrt(ag + eps) * g
            ad = rho * ad + (1 - rho) * delta * delta
            expected += delta
        assert p.value[0] == pytest.approx(expected, abs=1e-15)

    def test_zero_gradient_no_change(self):
        p = Variable(np.array([-0.3]))
        opt = Adadelta([p])
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_array_equal(p.value, [-0.3])


class TestRowHint:
    @pytest.mark.parametrize("cls,state", [(RmsProp, ("cache",)), (Adadelta, ("acc_grad", "acc_delta"))])
    def test_hinted_steps_match_dense_steps_bit_for_bit(self, cls, state):
        """A dense gradient is stepped on every row: ``grad_rows`` describes only
        a compact gradient's row sums, so a hint left beside a dense array, one
        that misses rows the gradient is nonzero on, changes no parameter or
        state bit. -0.0 entries and zero-gradient rows included."""
        rng = np.random.default_rng(90)
        value = rng.normal(size=(12, 3))
        value[[0, 5, 9], 1] = -0.0
        value[11] = -0.0  # a row no gradient touches
        hinted, dense = Variable(value.copy()), Variable(value.copy())
        opts = cls([hinted]), cls([dense])
        for _ in range(6):
            rows = np.sort(rng.choice(11, 4, replace=False))
            g = np.zeros_like(value)
            g[rows] = rng.normal(size=(4, 3))
            g[rows[0]] = 0.0
            hinted.grad, dense.grad = g.copy(), g.copy()
            hinted.grad_rows = rows[:2]  # misses rows[2:], which are nonzero
            for opt in opts:
                opt.step()
            np.testing.assert_array_equal(hinted.value.view(np.uint64), dense.value.view(np.uint64))
            for name in state:
                np.testing.assert_array_equal(getattr(opts[0], name)[0].view(np.uint64),
                                              getattr(opts[1], name)[0].view(np.uint64))
        assert not hinted.value[11].any() and np.signbit(hinted.value[11]).all()

    @pytest.mark.parametrize("cls,state", [(RmsProp, ("cache",)), (Adadelta, ("acc_grad", "acc_delta"))])
    def test_write_through_a_read_compact_gradient_reaches_the_step(self, cls, state):
        """Reading a compact gradient's ``grad`` leaves no rows behind, so a row
        written through that dense array outside the compact rows is updated
        by the step, bit for bit as from the same gradient stored densely."""
        rng = np.random.default_rng(93)
        rows, sums = np.array([1, 2, 6]), rng.normal(size=(3, 3))
        read, dense = Variable(np.ones((8, 3))), Variable(np.ones((8, 3)))
        opts = cls([read]), cls([dense])
        read.add_row_sums(rows, sums)
        read.grad[5] += 0.5
        dense.grad = np.zeros((8, 3))
        dense.grad[rows] = sums
        dense.grad[5] += 0.5
        for opt in opts:
            opt.step()
        assert (read.value[5] < 1.0).all()
        np.testing.assert_array_equal(read.value.view(np.uint64), dense.value.view(np.uint64))
        for name in state:
            np.testing.assert_array_equal(getattr(opts[0], name)[0].view(np.uint64),
                                          getattr(opts[1], name)[0].view(np.uint64))

    @pytest.mark.parametrize("cls,state", [(RmsProp, ("cache",)), (Adadelta, ("acc_grad", "acc_delta"))])
    def test_compact_steps_match_dense_steps_bit_for_bit(self, cls, state):
        """Steps on a row-compact gradient read its row sums as they are,
        build no dense array, and leave the same parameter and state bits as
        steps on the same gradient stored densely, with no hint."""
        rng = np.random.default_rng(91)
        value = rng.normal(size=(12, 3))
        value[[0, 5, 9], 1] = -0.0
        value[11] = -0.0  # a row no step uses
        compact, dense = Variable(value.copy()), Variable(value.copy())
        opts = cls([compact]), cls([dense])
        for _ in range(6):
            rows = np.sort(rng.choice(11, 4, replace=False))
            sums = rng.normal(size=(4, 3))
            sums[0] = 0.0
            compact.add_row_sums(rows, sums)
            dense.grad = np.zeros_like(value)
            dense.grad[rows] = sums
            for opt in opts:
                opt.step()
            assert compact.row_sums is sums
            np.testing.assert_array_equal(compact.value.view(np.uint64), dense.value.view(np.uint64))
            for name in state:
                np.testing.assert_array_equal(getattr(opts[0], name)[0].view(np.uint64),
                                              getattr(opts[1], name)[0].view(np.uint64))
            for opt in opts:
                opt.zero_grads()
        assert not compact.value[11].any() and np.signbit(compact.value[11]).all()


class TestClip:
    def test_norm_above_cap_scales(self):
        a = Variable(np.zeros(2))
        a.grad = np.array([6.0, 8.0])  # norm 10
        norm = clip_gradients([a], max_norm=5.0)
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(a.grad, [3.0, 4.0])

    def test_norm_below_cap_unchanged(self):
        a = Variable(np.zeros(1))
        a.grad = np.array([3.0])
        clip_gradients([a], max_norm=5.0)
        np.testing.assert_array_equal(a.grad, [3.0])

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            vs = [Variable(np.zeros(4)) for _ in range(3)]
            for v in vs:
                v.grad = rng.normal(scale=10, size=4)
            clip_gradients(vs, max_norm=5.0)
            total = math.sqrt(sum(float(np.sum(v.grad**2)) for v in vs))
            assert total <= 5.0 + 1e-9

    @pytest.mark.parametrize("max_norm", [0.5, 1e3])
    def test_compact_gradient_clips_as_its_dense_array(self, max_norm):
        """A row-compact gradient gives the same norm, bit for bit, and is
        scaled to the same bits as the same gradient stored densely with no
        hint; its row hint survives the scaling."""
        rng = np.random.default_rng(92)
        rows, sums = np.array([0, 3, 7, 8]), rng.normal(size=(4, 5))
        other = rng.normal(size=(6,))

        def variables(compact: bool):
            table, bias = Variable(np.zeros((10, 5))), Variable(np.zeros(6))
            if compact:
                table.add_row_sums(rows, sums.copy())
            else:
                table.grad = np.zeros((10, 5))
                table.grad[rows] = sums
            bias.grad = other.copy()
            return table, bias

        compact, dense = variables(True), variables(False)
        norm = clip_gradients(list(compact), max_norm)
        assert norm == clip_gradients(list(dense), max_norm) and norm > 1.0
        np.testing.assert_array_equal(compact[0].grad_rows, rows)
        assert compact[0].row_sums is not None
        assert dense[0].grad_rows is None
        for c, d in zip(compact, dense):
            np.testing.assert_array_equal(c.grad.view(np.uint64), d.grad.view(np.uint64))
        if norm > max_norm:
            np.testing.assert_array_equal(compact[0].grad[rows], sums * (max_norm / norm))

    def test_compact_norm_keeps_the_dense_sum_bits(self):
        """The norm of a compact gradient adds its zero rows' squares, in the
        dense array's pairwise order; the row sums' squares summed alone
        give another last bit here."""
        rng = np.random.default_rng(1)
        rows = np.sort(rng.choice(40, 13, replace=False))
        sums = rng.normal(size=(13, 3)) * 10.0 ** rng.integers(-3, 4, (13, 1))
        compact, dense = Variable(np.zeros((40, 3))), Variable(np.zeros((40, 3)))
        compact.add_row_sums(rows, sums)
        dense.grad = np.zeros((40, 3))
        dense.grad[rows] = sums
        assert np.sqrt(np.sum(sums * sums)) != np.sqrt(np.sum(dense.grad * dense.grad))
        assert clip_gradients([compact], 1e3) == clip_gradients([dense], 1e3)

    def test_invalid_cap(self):
        with pytest.raises(ConfigError):
            clip_gradients([], max_norm=0.0)


class TestToyTraining:
    def test_fifty_steps_halve_logistic_loss(self):
        x = Variable(np.array([[-2.0], [-1.0], [1.0], [2.0]]))
        labels = np.array([0, 0, 1, 1])
        w = Variable(np.zeros((1, 2)))
        b = Variable(np.zeros(2))
        opt = RmsProp([w, b], lr=0.05)
        losses = []
        for _ in range(50):
            opt.zero_grads()
            with Tape() as tape:
                loss = cross_entropy_loss(dense_softmax(x, DenseParams(w, b)), labels)
            backward(tape, loss)
            losses.append(float(loss.value))
            opt.step()
        assert losses[-1] < 0.5 * losses[0]


class TestFactory:
    def test_known_names(self):
        p = [Variable(np.zeros(1))]
        assert isinstance(make_optimizer("rmsprop", p), RmsProp)
        assert isinstance(make_optimizer("adam", p), Adam)
        assert isinstance(make_optimizer("adadelta", p), Adadelta)

    def test_default_learning_rates(self):
        p = [Variable(np.zeros(1))]
        assert make_optimizer("rmsprop", p).lr == 1e-3
        assert make_optimizer("adam", p).lr == 1e-3
        assert make_optimizer("adadelta", p).lr == 1.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_optimizer("sgd", [])

    def test_shape_guards(self):
        with pytest.raises(ShapeError):
            cross_entropy_loss(Variable(np.zeros((2, 2))), np.array([0]))
