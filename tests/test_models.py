"""Model builder tests: wiring, parameter counts, determinism, and a fully
independent step-by-step oracle for the tiny highway model."""

import inspect
from typing import get_type_hints

import numpy as np
import pytest
from oracles import taped_lstm_scan, tiny_forward_oracle

from rcnnlab import checks
from rcnnlab import layers as L
from rcnnlab.autodiff import Tape, Variable
from rcnnlab.data import EncodedBatch
from rcnnlab.errors import ConfigError, ContractError
from rcnnlab.models import ABLATION_VARIANTS, KINDS, ModelSpec, build_model, count_params, resolve_model


def make_batch(ids, lengths=None, labels=None):
    ids = np.asarray(ids, dtype=np.int64)
    n, t = ids.shape
    lengths = np.full(n, t, dtype=np.int64) if lengths is None else np.asarray(lengths)
    labels = np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels)
    return EncodedBatch(ids, lengths, labels)


def small_spec(kind: str, **overrides) -> ModelSpec:
    base = dict(kind=kind, vocab_size=12, seq_len=6, embed_dim=3, hidden_dim=2, num_filters=4)
    base.update(overrides)
    return ModelSpec(**base)


class TestResolveModel:
    def test_rcnn_hw_keeps_an_rcnn_hw_base(self):
        for overrides in ({"highway_layers": 2}, {"highway_layers": 0, "mlp_instead_of_highway": True}):
            base = small_spec("rcnn-hw", **overrides)
            assert resolve_model("rcnn-hw", base) == base

    def test_rcnn_hw_from_another_kind_gets_one_highway_layer(self):
        spec = resolve_model("rcnn-hw", small_spec("cnn"))
        assert (spec.kind, spec.highway_layers, spec.mlp_instead_of_highway) == ("rcnn-hw", 1, False)

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "rcnn-hw"])
    def test_other_kinds_drop_highway_fields(self, kind):
        spec = resolve_model(kind, small_spec("rcnn-hw", highway_layers=2, embed_dim=5))
        assert (spec.kind, spec.highway_layers, spec.mlp_instead_of_highway) == (kind, 0, False)
        assert spec.embed_dim == 5

    @pytest.mark.parametrize("name", list(ABLATION_VARIANTS))
    def test_ablation_names_set_their_fields(self, name):
        spec = resolve_model(name, small_spec("cow"))
        assert spec.kind == "rcnn-hw"
        for field, value in ABLATION_VARIANTS[name].items():
            assert getattr(spec, field) == value

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ConfigError, match="rcnn-hw-mlp"):
            resolve_model("bert", small_spec("cow"))


class TestModelSpec:
    def test_highway_width_and_filter_shape(self):
        spec = ModelSpec(kind="rcnn-hw", vocab_size=100, seq_len=50, embed_dim=100,
                         hidden_dim=32, num_filters=256, highway_layers=1)
        assert spec.context_dim == 164
        model = build_model(spec, rng_seed=0)
        assert model.blocks["highway"][0].w_h.shape == (164, 164)
        assert model.blocks["conv"].filters.shape == (256, 164)

    def test_highway_only_for_rcnn_hw(self):
        with pytest.raises(ConfigError):
            ModelSpec(kind="cnn", vocab_size=10, seq_len=5, highway_layers=1)
        with pytest.raises(ConfigError):
            ModelSpec(kind="rcnn", vocab_size=10, seq_len=5, mlp_instead_of_highway=True)

    def test_highway_and_mlp_exclusive(self):
        with pytest.raises(ConfigError):
            ModelSpec(kind="rcnn-hw", vocab_size=10, seq_len=5, highway_layers=1,
                      mlp_instead_of_highway=True)

    def test_unknown_kind_lists_valid(self):
        with pytest.raises(ConfigError, match="rcnn-hw"):
            ModelSpec(kind="transformer", vocab_size=10, seq_len=5)

    def test_default_highway_count(self):
        assert small_spec("rcnn-hw").highway_layers == 1
        assert small_spec("cow").highway_layers == 0

    def test_round_trip_dict(self):
        spec = small_spec("rcnn-hw", highway_layers=2)
        assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestForward:
    @pytest.mark.parametrize("kind", KINDS)
    def test_probabilities_valid(self, kind):
        model = build_model(small_spec(kind), rng_seed=1)
        batch = make_batch([[1, 2, 3, 4, 5, 6], [7, 8, 9, 0, 0, 0]], lengths=[6, 3])
        probs = model.forward(batch).value
        assert probs.shape == (2, 2)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_identical_examples_identical_rows(self, kind):
        model = build_model(small_spec(kind), rng_seed=2)
        row = [3, 1, 4, 1, 5, 9]
        probs = model.forward(make_batch([row, row], lengths=[6, 6])).value
        np.testing.assert_array_equal(probs[0], probs[1])

    def test_seq_len_mismatch_rejected(self):
        model = build_model(small_spec("cow"), rng_seed=0)
        with pytest.raises(ContractError):
            model.forward(make_batch([[1, 2, 3]]))

    def test_cow_token_order_invariance_exact(self):
        model = build_model(small_spec("cow"), rng_seed=3)
        rng = np.random.default_rng(0)
        ids = rng.integers(2, 12, size=6)
        perm = rng.permutation(6)
        a = model.forward(make_batch([ids])).value
        b = model.forward(make_batch([ids[perm]])).value
        np.testing.assert_array_equal(a, b)

    def test_rcnn_hw_sensitive_to_token_order(self):
        model = build_model(small_spec("rcnn-hw"), rng_seed=3)
        ids = np.array([2, 3, 4, 5, 6, 7])
        a = model.forward(make_batch([ids])).value
        b = model.forward(make_batch([ids[::-1].copy()])).value
        assert np.abs(a - b).max() > 0.0

    def test_rcnn_with_zero_recurrence_reduces_to_embedding_conv(self):
        """Zero recurrent blocks make the context bands vanish, so the model
        must agree with a window-1 conv over the embedding band alone."""
        spec = small_spec("rcnn")
        model = build_model(spec, rng_seed=4)
        for block in ("gru_fwd", "gru_bwd"):
            for _name, var in model.blocks[block].named():
                var.value[...] = 0.0
        batch = make_batch([[1, 5, 2, 8, 3, 0]], lengths=[5])
        probs = model.forward(batch).value

        emb = model.blocks["embedding"].table.value[batch.ids[0]]  # [T, E]
        filters = model.blocks["conv"].filters.value  # [F, 2H+E]
        mid = filters[:, spec.hidden_dim : spec.hidden_dim + spec.embed_dim]
        fmap = np.maximum(emb @ mid.T + model.blocks["conv"].bias.value, 0.0)
        pooled = fmap.max(axis=0)
        logits = pooled @ model.blocks["head"].w.value + model.blocks["head"].b.value
        e = np.exp(logits - logits.max())
        expected = e / e.sum()
        np.testing.assert_allclose(probs[0], expected, atol=1e-9)

    def test_bilstm_avg_scans_each_block_in_its_own_direction(self):
        """lstm_fwd reads left to right and lstm_bwd right to left, as the taped
        step-by-step reference scans do; the mean runs over each true length."""
        model = build_model(small_spec("bilstm-avg"), rng_seed=5)
        batch = make_batch([[1, 2, 3, 4, 5, 6], [7, 8, 9, 0, 0, 0]], lengths=[6, 3])
        blocks = model.blocks
        x = Variable(blocks["embedding"].table.value[batch.ids])
        fwd = taped_lstm_scan(x, blocks["lstm_fwd"], "forward").value
        bwd = taped_lstm_scan(x, blocks["lstm_bwd"], "backward").value
        pooled = np.stack([np.concatenate([f[:n], b[:n]], axis=1).mean(axis=0) for f, b, n in zip(fwd, bwd, batch.lengths)])
        logits = pooled @ blocks["head"].w.value + blocks["head"].b.value
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(model.forward(batch).value, e / e.sum(axis=1, keepdims=True), atol=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_bit_identical(self, kind):
        a = build_model(small_spec(kind), rng_seed=7)
        b = build_model(small_spec(kind), rng_seed=7)
        assert list(a.params) == list(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].value, b.params[name].value)
        batch = make_batch([[1, 2, 3, 4, 5, 6]])
        np.testing.assert_array_equal(a.forward(batch).value, b.forward(batch).value)


class TestTapedForward:
    """Untaped, the kernels keep nothing for a backward: the GRU and LSTM gates
    live in one step's scratch, the highway's gate and transform in one row
    block's. The output must not move by a bit."""

    # (T, embed, hidden, filters, batch): tests/golden.py's small and ragged sizes, and rcnn-hw-long's eval batch.
    @pytest.mark.parametrize("size", [(16, 6, 3, 5, 16), (75, 16, 8, 32, 16), (500, 16, 8, 32, 64)],
                             ids=["small", "ragged", "long-eval"])
    @pytest.mark.parametrize("name", [*KINDS, *ABLATION_VARIANTS])
    def test_taped_forward_equals_untaped(self, name, size):
        steps, embed, hidden, filters, batch_size = size
        base = ModelSpec(kind="cnn", vocab_size=40, seq_len=steps, embed_dim=embed, hidden_dim=hidden, num_filters=filters)
        model = build_model(resolve_model(name, base), rng_seed=3)
        rng = np.random.default_rng(steps)
        batch = make_batch(rng.integers(0, 40, (batch_size, steps)), lengths=rng.integers(1, steps + 1, batch_size))
        untaped = model.forward(batch).value
        with Tape():
            taped = model.forward(batch).value
        np.testing.assert_array_equal(taped, untaped)


_RCNN = {"embed", "birnn_context", "conv1d_forward", "dense_softmax"}
_LSTM_AVG = {"embed", "lstm_scan", "mean_over_time", "dense_softmax"}
LAYER_CALLS = {
    "cow": {"embed", "dense_softmax"},
    "lstm-avg": _LSTM_AVG,
    "bilstm-avg": _LSTM_AVG | {"concat"},
    "cnn": {"embed", "conv1d_forward", "concat", "dense_softmax"},
    "cnn-lstm": _LSTM_AVG | {"conv1d_forward"},
    "rcnn": _RCNN,
    "rcnn-hw": _RCNN | {"highway_forward"},
    "rcnn-hw-0": _RCNN,
    "rcnn-hw-1": _RCNN | {"highway_forward"},
    "rcnn-hw-2": _RCNN | {"highway_forward"},
    "rcnn-hw-mlp": _RCNN | {"dense_relu_positions"},
}


class TestLayerLookup:
    """A tracer may wrap the ``layers`` functions after a model is built, as
    ``bench/tracer.py`` does with ``setattr``. The forward must still call the
    wrappers, so that each tape node is recorded inside one of them."""

    @pytest.mark.parametrize("name", list(LAYER_CALLS))
    def test_every_tape_node_is_recorded_inside_a_wrapped_layer_call(self, name, monkeypatch):
        model = build_model(resolve_model(name, small_spec("cnn")), rng_seed=0)
        tape, called, owned, depth = Tape(), set(), 0, 0

        def wrap(fn_name, fn):
            def wrapped(*args, **kwargs):
                nonlocal owned, depth
                depth, before = depth + 1, len(tape)
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth -= 1
                    if depth == 0:  # the outermost call owns the nodes, as the tracer counts them
                        called.add(fn_name)
                        owned += len(tape) - before
            return wrapped

        for fn_name, fn in list(vars(L).items()):
            if inspect.isfunction(fn) and fn.__module__ == L.__name__ and not fn_name.startswith("_"):
                monkeypatch.setattr(L, fn_name, wrap(fn_name, fn))
        with tape:
            model.forward(make_batch([[1, 2, 3, 4, 5, 6], [7, 8, 9, 0, 0, 0]], lengths=[6, 3]))
        assert called == LAYER_CALLS[name]
        assert owned == len(tape) > 0

    def test_every_model_name_is_listed(self):
        assert set(LAYER_CALLS) == {*KINDS, *ABLATION_VARIANTS}


class TestCountParams:
    def test_cow_closed_form(self):
        spec = ModelSpec(kind="cow", vocab_size=10, seq_len=5, embed_dim=4, num_classes=2)
        assert count_params(spec) == 50  # 10*4 + 4*2 + 2

    def test_gru_cell_census(self):
        from rcnnlab.layers import GruParams

        p = GruParams.create(np.random.default_rng(0), 2, 3)
        total = sum(v.value.size for _n, v in p.named())
        assert total == 54  # 3 * (2*3 + 3*3 + 3)

    def test_highway_census(self):
        from rcnnlab.layers import HighwayParams

        p = HighwayParams.create(np.random.default_rng(0), 4)
        total = sum(v.value.size for _n, v in p.named())
        assert total == 40  # 2 * (4*4 + 4)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_live_traversal(self, kind):
        spec = small_spec(kind)
        assert count_params(spec) == build_model(spec, rng_seed=0).num_params()

    def test_ablation_variants_counted(self):
        for overrides in ({"highway_layers": 0}, {"highway_layers": 2},
                          {"highway_layers": 0, "mlp_instead_of_highway": True}):
            spec = small_spec("rcnn-hw", **overrides)
            assert count_params(spec) == build_model(spec, rng_seed=0).num_params()


CONTAINER_DIMS = [
    (L.EmbeddingParams, (11, 4)),
    (L.GruParams, (5, 3)),
    (L.LstmParams, (5, 3)),
    (L.HighwayParams, (6,)),
    (L.ConvParams, (3, 5, 4)),
    (L.DenseParams, (5, 2)),
]


@pytest.mark.parametrize("cls, dims", CONTAINER_DIMS, ids=[c.__name__ for c, _d in CONTAINER_DIMS])
class TestParamContainers:
    def test_created_shapes_follow_shapes(self, cls, dims):
        p = cls.create(np.random.default_rng(0), *dims)
        assert [v.shape for _n, v in p.named()] == cls.shapes(*dims)

    def test_named_lists_variable_fields_in_declaration_order(self, cls, dims):
        p = cls.create(np.random.default_rng(0), *dims)
        declared = [name for name, hint in get_type_hints(cls).items() if hint is Variable]
        assert [name for name, _v in p.named()] == declared
        assert all(v is getattr(p, name) for name, v in p.named())


class TestTinyModelOracle:
    def test_forward_matches_independent_evaluation(self):
        """Full pipeline agrees with an untaped per-step evaluation to 1e-10."""
        model = build_model(checks.tiny_rcnn_hw_spec(), rng_seed=123)
        batch = checks.tiny_batch()
        got = model.forward(batch).value
        expected = tiny_forward_oracle({k: v.value for k, v in model.params.items()}, batch.ids)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_end_to_end_gradients(self):
        results = checks.run_model_checks(base_seed=0, seeds=1)
        for r in results:
            assert r.passed(), f"{r.name}: {r.max_rel_error}"
