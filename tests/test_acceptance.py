"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances and thresholds are pinned here, not configurable.

Criterion 7's subset smoke run needs the full review dataset; it is skipped
unless RCNNLAB_IMDB_DIR points at a root/{train,test}/{pos,neg} tree.
"""

import json
import os
import time

import numpy as np
import pytest
from oracles import softmax_rows, tiny_forward_oracle

from rcnnlab import checks
from rcnnlab import layers as L
from rcnnlab.autodiff import Variable
from rcnnlab.cli import main
from rcnnlab.data import (
    EncodedBatch,
    build_vocab,
    gen_keyword_task,
    gen_longrange_task,
    gen_order_task,
    load_imdb_dir,
)
from rcnnlab.harness import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    run_model_comparison,
    run_seqlen_sweep,
    save_checkpoint,
    split_train_val,
    train,
    write_rows,
)
from rcnnlab.models import ABLATION_VARIANTS, KINDS, ModelSpec, REFERENCE_ACCURACY, build_model


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def desk_spec(kind: str, vocab_size: int, seq_len: int, **overrides) -> ModelSpec:
    base = dict(kind=kind, vocab_size=vocab_size, seq_len=seq_len,
                embed_dim=16, hidden_dim=8, num_filters=32,
                highway_layers=1 if kind == "rcnn-hw" else 0)
    base.update(overrides)
    return ModelSpec(**base)


class TestCriterion1LayerGradients:
    def test_layer_gradcheck_under_tolerance_and_time(self):
        required = {
            "embed", "gru_cell_step", "lstm_cell_step", "birnn_context",
            "highway_forward", "conv1d_forward_w1", "conv1d_forward_w2",
            "maxpool_over_time", "dense_softmax", "softmax_cross_entropy",
            "gru_scan", "lstm_scan", "conv1d_pool_w1", "conv1d_pool_w2", "embed_pool",
            "highway_live", "dense_relu_live",
        }
        started = time.perf_counter()
        results = checks.run_layer_checks(base_seed=0, seeds=5)
        elapsed = time.perf_counter() - started
        by_name = {r.name: r.max_rel_error for r in results}
        missing = required - set(by_name)
        worst = max(by_name.values())
        ok = not missing and all(by_name[n] <= 1e-4 for n in required) and elapsed < 60.0
        report(1, "layer gradients", ok,
               f"worst={worst:.2e}, {elapsed:.1f}s, targets={len(by_name)}")


class TestCriterion2EndToEnd:
    def test_tiny_model_gradients_every_tensor(self):
        results = checks.run_model_checks(base_seed=0, seeds=5)
        worst = max(r.max_rel_error for r in results)
        ok = len(results) == 27 and worst <= 1e-4
        report(2, "end-to-end gradient", ok, f"{len(results)} tensors, worst={worst:.2e}")

    def test_tiny_model_forward_matches_independent_evaluation(self):
        model = build_model(checks.tiny_rcnn_hw_spec(), rng_seed=123)
        batch = checks.tiny_batch()
        got = model.forward(batch).value
        expected = tiny_forward_oracle({k: v.value for k, v in model.params.items()}, batch.ids)
        gap = float(np.abs(got - expected).max())
        report(2, "end-to-end forward oracle", gap <= 1e-10, f"max gap={gap:.2e}")


class TestCriterion3EquationInvariants:
    def test_gru_carry(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            p = L.GruParams.create(rng, 2, 3)
            for _n, v in p.named():
                v.value *= 0.1  # bounded gate preactivations; the bias dominates
            p.b_z.value[...] = 30.0
            x = Variable(rng.uniform(-10, 10, (4, 2)))
            h_prev = rng.uniform(-10, 10, (4, 3))
            h_t = L.gru_cell_step(x, Variable(h_prev), p)
            worst = max(worst, float(np.abs(h_t.value - h_prev).max()))
        report(3, "gru carry", worst <= 1e-9, f"max deviation={worst:.2e}")

    def test_highway_carry(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(310 + seed)
            p = L.HighwayParams.create(rng, 6)
            p.w_t.value *= 0.1
            p.b_t.value[...] = -30.0
            x = rng.uniform(-2, 2, (3, 4, 6))
            y = L.highway_forward(Variable(x), p)
            worst = max(worst, float(np.abs(y.value - x).max()))
        report(3, "highway carry", worst <= 1e-9, f"max deviation={worst:.2e}")

    def test_conv1_maxpool_time_permutation_exact(self):
        ok = True
        for seed in range(5):
            rng = np.random.default_rng(320 + seed)
            p = L.ConvParams.create(rng, 1, 5, 7)
            x = rng.uniform(-2, 2, (3, 11, 5))
            perm = rng.permutation(11)
            a = L.maxpool_over_time(L.conv1d_forward(Variable(x), p)).value
            b = L.maxpool_over_time(L.conv1d_forward(Variable(x[:, perm, :].copy()), p)).value
            ok = ok and bool(np.array_equal(a, b))
        report(3, "conv+maxpool permutation invariance", ok, "bit-exact over 5 seeds")

    def test_fused_conv1_pool_time_permutation_exact(self):
        ok = True
        for seed in range(5):
            rng = np.random.default_rng(320 + seed)
            p = L.ConvParams.create(rng, 1, 5, 7)
            x = rng.uniform(-2, 2, (3, 11, 5))
            perm = rng.permutation(11)
            a = L.conv1d_forward(Variable(x), p, pool=True).value
            b = L.conv1d_forward(Variable(x[:, perm, :].copy()), p, pool=True).value
            ok = ok and bool(np.array_equal(a, b))
        report(3, "fused conv+pool permutation invariance", ok, "bit-exact over 5 seeds")

    def test_conv1_pool_time_permutation_exact_at_long_text_shape(self):
        """Both pooled paths at rcnn-hw-long's conv shape: [32, 500, 32], 32 filters, window 1."""
        ok = True
        for seed in range(3):
            rng = np.random.default_rng(330 + seed)
            p = L.ConvParams.create(rng, 1, 32, 32)
            p.bias.value[...] = rng.uniform(-0.5, 0.5, 32)
            x = rng.uniform(-2, 2, (32, 500, 32))
            xp = x[:, rng.permutation(500), :].copy()
            for pooled in (lambda v: L.conv1d_forward(v, p, pool=True),
                           lambda v: L.maxpool_over_time(L.conv1d_forward(v, p))):
                ok = ok and bool(np.array_equal(pooled(Variable(x)).value, pooled(Variable(xp)).value))
        report(3, "conv+pool permutation invariance at [32, 500, 32]", ok, "bit-exact over 3 seeds, both paths")

    def test_embedding_bag_time_permutation_exact_at_cow_shape(self):
        """The pooled embedding at cow-vocab20k's shape: [32, 200] ids into a
        20,000×50 table, each text's true positions shuffled on their own."""
        ok = True
        for seed in range(3):
            rng = np.random.default_rng(340 + seed)
            params = L.EmbeddingParams.create(rng, 20000, 50)
            ids = rng.integers(0, 20000, (32, 200))
            lengths = rng.integers(1, 201, 32)
            lengths[0] = 200
            shuffled = ids.copy()
            for b, n in enumerate(lengths):
                shuffled[b, :n] = ids[b, rng.permutation(n)]
            a, b = (L.embed(EncodedBatch(x, lengths, np.zeros(32, dtype=np.int64)), params, pool=True).value
                    for x in (ids, shuffled))
            ok = ok and bool(np.array_equal(a, b))
        report(3, "embedding bag permutation invariance at [32, 200] into 20000x50", ok, "bit-exact over 3 seeds")

    def test_softmax_rows_sum_to_one(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(330 + seed)
            logits = rng.uniform(-50, 50, (16, 4))
            probs = softmax_rows(Variable(logits)).value
            worst = max(worst, float(np.abs(probs.sum(axis=1) - 1.0).max()))
        report(3, "softmax row sums", worst <= 1e-12, f"max |sum-1|={worst:.2e}")


class TestCriterion4SeparableTask:
    def test_keyword_task_accuracy(self):
        started = time.perf_counter()
        train_ds = gen_keyword_task(2000, seq_len=50, seed=11)
        test_ds = gen_keyword_task(500, seq_len=50, seed=12)
        vocab = build_vocab(train_ds, min_freq=1)
        tr, val = split_train_val(train_ds, 0.1)
        cfg = TrainConfig(spec=desk_spec("rcnn-hw", len(vocab), 50),
                          epochs=10, init_seed=0, shuffle_seed=1, patience=3)
        model, run = train(cfg, tr, val, vocab)
        accuracy = evaluate(model, test_ds, vocab, 50)
        elapsed = time.perf_counter() - started
        ok = accuracy >= 0.98 and run.epochs_run <= 10 and elapsed < 300.0
        report(4, "separable-task learning", ok,
               f"test accuracy={accuracy:.4f} in {run.epochs_run} epochs, {elapsed:.0f}s")


class TestCriterion5OrderSensitivity:
    def test_cow_vs_rcnn_hw_on_order_task(self):
        train_ds = gen_order_task(4000, seq_len=50, seed=21)
        test_ds = gen_order_task(1000, seq_len=50, seed=22)
        vocab = build_vocab(train_ds, min_freq=1)
        tr, val = split_train_val(train_ds, 0.1)
        scores = {}
        model_hw = None
        for kind in ("cow", "rcnn-hw"):
            cfg = TrainConfig(spec=desk_spec(kind, len(vocab), 50),
                              epochs=8, init_seed=0, shuffle_seed=1, patience=3)
            model, _run = train(cfg, tr, val, vocab)
            scores[kind] = evaluate(model, test_ds, vocab, 50)
            if kind == "rcnn-hw":
                model_hw = model
        ok = scores["cow"] <= 0.60 and scores["rcnn-hw"] >= 0.90
        report(5, "order-sensitivity separation", ok,
               f"cow={scores['cow']:.4f}, rcnn-hw={scores['rcnn-hw']:.4f}")

        # the trained order model must actually react to token order
        from rcnnlab.data import encode_dataset

        encoded = encode_dataset(test_ds, vocab, 50)
        flipped = False
        for i in range(min(20, encoded.ids.shape[0])):
            ids = encoded.ids[i : i + 1]
            perm = np.random.default_rng(i).permutation(50)
            batch_a = type(encoded)(ids, encoded.lengths[i : i + 1], encoded.labels[i : i + 1])
            batch_b = type(encoded)(ids[:, perm], encoded.lengths[i : i + 1], encoded.labels[i : i + 1])
            if np.abs(model_hw.forward(batch_a).value - model_hw.forward(batch_b).value).max() > 0:
                flipped = True
                break
        report(5, "order model reacts to permutation", flipped)


class TestCriterion6SeqlenSweep:
    def test_longrange_sweep_gap(self, tmp_path):
        train_ds = gen_longrange_task(1200, (200, 400), seq_len=500, seed=31)
        test_ds = gen_longrange_task(400, (200, 400), seq_len=500, seed=32)
        vocab = build_vocab(train_ds, min_freq=1)
        tr, val = split_train_val(train_ds, 0.1)
        cfg = TrainConfig(spec=desk_spec("rcnn-hw", len(vocab), 500),
                          epochs=4, init_seed=0, shuffle_seed=1, patience=2)
        rows = run_seqlen_sweep(cfg, ["rcnn-hw"], tr, val, test_ds, vocab,
                                lengths=[100, 200, 300, 400, 500])
        write_rows(rows, tmp_path / "sweep.csv", tmp_path / "sweep.json")
        csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        by_len = {r["seq_len"]: r["test_accuracy"] for r in rows}
        gap = by_len[400] - by_len[100]
        ok = (len(csv_lines) == 6 and all(r["status"] == "ok" for r in rows) and gap >= 0.2)
        report(6, "sequence-length sweep", ok,
               f"acc@100={by_len[100]:.3f}, acc@400={by_len[400]:.3f}, gap={gap:.3f}")


class TestCriterion7ReferenceTables:
    def test_compare_emits_full_row_sets_with_reference_columns(self, tmp_path):
        train_ds = gen_keyword_task(240, vocab_size=40, seq_len=12, seed=71)
        test_ds = gen_keyword_task(80, vocab_size=40, seq_len=12, seed=72)
        vocab = build_vocab(train_ds, min_freq=1)
        tr, val = split_train_val(train_ds, 0.1)
        cfg = TrainConfig(
            spec=ModelSpec(kind="rcnn-hw", vocab_size=len(vocab), seq_len=12,
                           embed_dim=6, hidden_dim=3, num_filters=4, cnn_windows=(2, 3)),
            epochs=1, init_seed=0, shuffle_seed=1, patience=1,
        )
        names = list(KINDS) + list(ABLATION_VARIANTS)
        rows = run_model_comparison(cfg, names, tr, val, test_ds, vocab)
        write_rows(rows, tmp_path / "comparison.csv", tmp_path / "comparison.json")
        table = {r["model"]: r for r in rows}
        expected_refs = {
            "cow": 0.890, "lstm-avg": 0.885, "bilstm-avg": 0.881, "cnn-lstm": 0.890,
            "cnn": 0.895, "rcnn": 0.900, "rcnn-hw": 0.903,
            "rcnn-hw-0": 0.900, "rcnn-hw-1": 0.903, "rcnn-hw-2": 0.903, "rcnn-hw-mlp": 0.899,
        }
        ok = (
            len(rows) == 11
            and all(r["status"] == "ok" for r in rows)
            and all(table[m]["reference_accuracy"] == v for m, v in expected_refs.items())
            and REFERENCE_ACCURACY == expected_refs
        )
        report(7, "comparison tables with reference columns", ok,
               f"{len(rows)} rows, all trained")

    @pytest.mark.skipif(
        "RCNNLAB_IMDB_DIR" not in os.environ,
        reason="subset smoke run needs RCNNLAB_IMDB_DIR pointing at the review dataset",
    )
    def test_imdb_subset_smoke_run(self):
        started = time.perf_counter()
        train_full, test_full = load_imdb_dir(os.environ["RCNNLAB_IMDB_DIR"])
        rng = np.random.default_rng(73)
        train_idx = rng.permutation(len(train_full))[:2000]
        test_idx = rng.permutation(len(test_full))[:1000]
        train_ds = train_full.subset(train_idx)
        test_ds = test_full.subset(test_idx)
        vocab = build_vocab(train_ds)
        tr, val = split_train_val(train_ds, 0.1)
        cfg = TrainConfig(spec=desk_spec("rcnn-hw", len(vocab), 200, embed_dim=32),
                          epochs=6, init_seed=0, shuffle_seed=1, patience=2)
        model, _run = train(cfg, tr, val, vocab)
        accuracy = evaluate(model, test_ds, vocab, 200)
        elapsed = time.perf_counter() - started
        ok = accuracy >= 0.75 and elapsed < 1800.0
        report(7, "review-subset smoke run", ok, f"accuracy={accuracy:.4f}, {elapsed:.0f}s")


class TestCriterion8DeterminismPersistence:
    def test_identical_seeds_identical_reports(self):
        ds = gen_keyword_task(200, vocab_size=30, seq_len=10, seed=81)
        vocab = build_vocab(ds, min_freq=1)
        tr, val = split_train_val(ds, 0.1)
        blobs = []
        for _ in range(2):
            cfg = TrainConfig(
                spec=ModelSpec(kind="rcnn-hw", vocab_size=len(vocab), seq_len=10,
                               embed_dim=6, hidden_dim=3, num_filters=4),
                epochs=2, init_seed=6, shuffle_seed=7, patience=2,
            )
            _model, run = train(cfg, tr, val, vocab)
            blobs.append(json.dumps(run.deterministic_dict(), sort_keys=True))
        report(8, "seeded determinism", blobs[0] == blobs[1])

    def test_checkpoint_round_trip_and_eval_reproduction(self, tmp_path):
        ds = gen_keyword_task(200, vocab_size=30, seq_len=10, seed=82)
        vocab = build_vocab(ds, min_freq=1)
        tr, val = split_train_val(ds, 0.1)
        cfg = TrainConfig(
            spec=ModelSpec(kind="rcnn-hw", vocab_size=len(vocab), seq_len=10,
                           embed_dim=6, hidden_dim=3, num_filters=4),
            epochs=2, init_seed=6, shuffle_seed=7, patience=2,
        )
        model, _run = train(cfg, tr, val, vocab)
        path_a, path_b = tmp_path / "a.rchw", tmp_path / "b.rchw"
        save_checkpoint(model, path_a)
        loaded = load_checkpoint(path_a)
        save_checkpoint(loaded, path_b)
        bit_exact = path_a.read_bytes() == path_b.read_bytes()
        params_equal = all(
            np.array_equal(model.params[n].value, loaded.params[n].value) for n in model.params
        )
        acc_orig = evaluate(model, ds, vocab, 10)
        acc_loaded = evaluate(loaded, ds, vocab, 10)
        report(8, "checkpoint persistence", bit_exact and params_equal and acc_orig == acc_loaded,
               f"accuracy {acc_orig:.4f} reproduced exactly")


class TestCliGate:
    """The shipped gradcheck entry point agrees with the suite above."""

    def test_cli_gradcheck_exits_zero(self, capsys):
        assert main(["gradcheck", "--scope", "layer"]) == 0
        assert main(["gradcheck", "--scope", "model"]) == 0
        capsys.readouterr()
