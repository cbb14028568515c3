"""Harness tests: config validation, training determinism, evaluation
semantics, experiment drivers, and checkpoint round-trips."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from rcnnlab import harness
from rcnnlab.autodiff import backward
from rcnnlab.data import build_vocab, gen_keyword_task
from rcnnlab.errors import CheckpointError, ConfigError, ContractError, NumericError
from rcnnlab.harness import (
    CHECKPOINT_VERSION,
    RunReport,
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
from rcnnlab.models import ModelSpec, build_model, count_params, resolve_model
from rcnnlab.optim import OPTIMIZERS


@pytest.fixture(scope="module")
def task():
    ds = gen_keyword_task(240, vocab_size=40, seq_len=12, seed=51)
    vocab = build_vocab(ds, min_freq=1)
    train_set, val_set = split_train_val(ds, 0.15)
    test_set = gen_keyword_task(80, vocab_size=40, seq_len=12, seed=52)
    return train_set, val_set, test_set, vocab


def tiny_config(kind="rcnn-hw", vocab_size=44, **overrides):
    spec_kw = dict(kind=kind, vocab_size=vocab_size, seq_len=12, embed_dim=6,
                   hidden_dim=3, num_filters=8)
    if kind == "cnn":
        spec_kw["cnn_windows"] = (2, 3)
    cfg_kw = dict(epochs=3, batch_size=32, init_seed=4, shuffle_seed=5, patience=2)
    cfg_kw.update(overrides)
    return TrainConfig(spec=ModelSpec(**spec_kw), **cfg_kw)


class TestConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(epochs=0)

    @pytest.mark.parametrize("seed", ["init_seed", "shuffle_seed"])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match=seed):
            tiny_config(**{seed: -1})

    def test_bad_val_fraction_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(val_fraction=1.0)

    @pytest.mark.parametrize("lr", [-0.5, 0.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr"):
            tiny_config(lr=lr)

    def test_negative_clip_norm_rejected(self):
        with pytest.raises(ConfigError, match="clip_norm"):
            tiny_config(clip_norm=-1.0)

    def test_clip_default_by_kind(self):
        assert tiny_config("rcnn-hw").resolved_clip_norm() == 5.0
        assert tiny_config("cow").resolved_clip_norm() is None
        assert tiny_config("cow", clip_norm=2.5).resolved_clip_norm() == 2.5
        assert tiny_config("rcnn-hw", clip_norm=0).resolved_clip_norm() is None


class TestTrain:
    def test_same_seeds_bit_identical_reports(self, task):
        train_set, val_set, _test, vocab = task
        runs = []
        for _ in range(2):
            model, report = train(tiny_config(vocab_size=len(vocab)), train_set, val_set, vocab)
            runs.append((model, report))
        a, b = runs
        assert json.dumps(a[1].deterministic_dict()) == json.dumps(b[1].deterministic_dict())
        for name in a[0].params:
            np.testing.assert_array_equal(a[0].params[name].value, b[0].params[name].value)

    def test_best_model_selection(self, task):
        train_set, val_set, _test, vocab = task
        model, report = train(tiny_config(vocab_size=len(vocab)), train_set, val_set, vocab)
        assert report.best_val_accuracy == max(report.val_accuracy)
        restored = evaluate(model, val_set, vocab, 12)
        assert restored == report.best_val_accuracy
        assert report.epochs_run == len(report.val_accuracy) == len(report.epoch_seconds)

    def test_learns_separable_task(self, task):
        train_set, val_set, test_set, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=6, lr=0.01)
        model, report = train(cfg, train_set, val_set, vocab)
        assert evaluate(model, test_set, vocab, 12) >= 0.9

    def test_early_stopping_caps_epochs(self, task):
        train_set, val_set, _test, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=40, patience=2, lr=0.01)
        _model, report = train(cfg, train_set, val_set, vocab)
        assert report.epochs_run < 40
        assert report.epochs_run <= report.best_epoch + 1 + cfg.patience

    def test_non_finite_loss_aborts_with_diagnostics(self, task):
        train_set, val_set, _test, vocab = task
        cfg = tiny_config("cow", vocab_size=len(vocab), lr=1e200, clip_norm=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericError, match="epoch 0"):
                train(cfg, train_set, val_set, vocab)

    def test_non_finite_gradient_aborts_before_the_step_and_names_it(self, task, monkeypatch):
        """A NaN in two parameters' gradients stops training before the
        optimizer writes it anywhere, naming the first in parameter order."""
        train_set, val_set, _test, vocab = task
        built = []
        monkeypatch.setattr(harness, "build_model", lambda spec, seed: built.append(build_model(spec, seed)) or built[0])

        def poisoned(tape, loss):
            backward(tape, loss)
            for name in ("head.w", "conv.bias"):
                built[0].params[name].grad[0] = np.nan

        monkeypatch.setattr(harness, "backward", poisoned)
        cfg = tiny_config(vocab_size=len(vocab))
        with pytest.raises(NumericError, match=r"gradient norm nan at epoch 0, batch 0, first in conv\.bias$"):
            train(cfg, train_set, val_set, vocab)
        fresh = build_model(cfg.spec, cfg.init_seed)
        for name, p in built[0].params.items():
            np.testing.assert_array_equal(p.value, fresh.params[name].value)

    @pytest.mark.parametrize("optimizer", ["rmsprop", "adadelta"])
    def test_row_hinted_steps_train_bit_identically_to_dense_steps(self, optimizer, monkeypatch):
        """With a vocabulary several times one batch's 384 tokens, each step's
        embedding gradient is hinted with a strict subset of the table's rows;
        clearing every hint before the step changes no bit of the result."""
        ds = gen_keyword_task(240, vocab_size=2000, seq_len=12, seed=54)
        vocab = build_vocab(ds, min_freq=1)
        train_set, val_set = split_train_val(ds, 0.15)
        cls = OPTIMIZERS[optimizer]
        hinted_rows = []
        runs = []
        for dense in (False, True):
            def step(self, original=cls.step, dense=dense):
                for p in self.params:
                    if dense:
                        p.ensure_grad()
                    elif p.grad_rows is not None:
                        hinted_rows.append(len(p.grad_rows))
                original(self)

            monkeypatch.setattr(cls, "step", step)
            config = tiny_config("cow", vocab_size=len(vocab), optimizer=optimizer)
            runs.append(train(config, train_set, val_set, vocab))
            monkeypatch.undo()
        assert hinted_rows and max(hinted_rows) < len(vocab) / 3
        (hinted, hinted_report), (dense, dense_report) = runs
        assert json.dumps(hinted_report.deterministic_dict()) == json.dumps(dense_report.deterministic_dict())
        for name, p in hinted.params.items():
            np.testing.assert_array_equal(p.value.view(np.uint64), dense.params[name].value.view(np.uint64))


class TestEvaluate:
    def test_constant_model_on_balanced_set_is_half(self, task):
        _train, _val, _test, vocab = task
        from rcnnlab.data import TextDataset

        pool = gen_keyword_task(200, vocab_size=40, seq_len=12, seed=53).examples
        pos = [ex for ex in pool if ex[1] == 1][:40]
        neg = [ex for ex in pool if ex[1] == 0][:40]
        balanced = TextDataset(pos + neg)
        model = build_model(ModelSpec(kind="cow", vocab_size=len(vocab), seq_len=12, embed_dim=4), 0)
        for p in model.parameters():
            p.value[...] = 0.0
        assert evaluate(model, balanced, vocab, 12) == 0.5

    def test_repeated_evaluation_identical(self, task):
        train_set, _val, _test, vocab = task
        model = build_model(ModelSpec(kind="rcnn", vocab_size=len(vocab), seq_len=12,
                                      embed_dim=4, hidden_dim=2, num_filters=4), 9)
        a = evaluate(model, train_set, vocab, 12)
        b = evaluate(model, train_set, vocab, 12)
        assert a == b

    def test_empty_dataset_rejected(self, task):
        _train, _val, _test, vocab = task
        from rcnnlab.data import TextDataset

        model = build_model(ModelSpec(kind="cow", vocab_size=len(vocab), seq_len=12, embed_dim=4), 0)
        with pytest.raises(ContractError):
            evaluate(model, TextDataset([]), vocab, 12)


class TestSplit:
    def test_deterministic_partition(self, task):
        train_set, _val, _test, _vocab = task
        a1, b1 = split_train_val(train_set, 0.25)
        a2, b2 = split_train_val(train_set, 0.25)
        assert a1.examples == a2.examples and b1.examples == b2.examples
        assert len(a1) + len(b1) == len(train_set)
        merged = sorted(a1.examples + b1.examples)
        assert merged == sorted(train_set.examples)


class TestComparison:
    def test_complete_table_with_reference_column(self, task, tmp_path):
        train_set, val_set, test_set, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=2)
        rows = run_model_comparison(cfg, ["cow", "rcnn", "rcnn-hw"], train_set, val_set, test_set, vocab)
        assert [r["model"] for r in rows] == ["cow", "rcnn", "rcnn-hw"]
        assert all(r["status"] == "ok" for r in rows)
        assert rows[0]["reference_accuracy"] == 0.890
        assert rows[2]["reference_accuracy"] == 0.903
        assert all(0.0 <= r["test_accuracy"] <= 1.0 for r in rows)
        write_rows(rows, tmp_path / "c.csv", tmp_path / "c.json")
        header = (tmp_path / "c.csv").read_text().splitlines()[0]
        assert header.startswith("model,")
        assert json.loads((tmp_path / "c.json").read_text())[1]["model"] == "rcnn"

    def test_ablation_variants_have_expected_structure(self, task):
        train_set, val_set, test_set, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=1)
        names = ["rcnn-hw-0", "rcnn-hw-1", "rcnn-hw-2", "rcnn-hw-mlp"]
        rows = run_model_comparison(cfg, names, train_set, val_set, test_set, vocab)
        assert [r["reference_accuracy"] for r in rows] == [0.900, 0.903, 0.903, 0.899]
        assert all(r["status"] == "ok" for r in rows)
        counts = {r["model"]: r["trainable_params"] for r in rows}
        assert counts["rcnn-hw-2"] > counts["rcnn-hw-1"] > counts["rcnn-hw-0"]

    @pytest.mark.parametrize("overrides", [{"highway_layers": 2},
                                           {"highway_layers": 0, "mlp_instead_of_highway": True}])
    def test_rcnn_hw_keeps_the_base_highway_fields(self, task, overrides):
        train_set, val_set, test_set, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=1)
        cfg.spec = ModelSpec(**{**cfg.spec.to_dict(), **overrides})
        rows = run_model_comparison(cfg, ["rcnn-hw", "rcnn"], train_set, val_set, test_set, vocab)
        assert rows[0]["trainable_params"] == count_params(cfg.spec)
        assert rows[1]["trainable_params"] == count_params(resolve_model("rcnn", cfg.spec))

    def test_failing_model_recorded_without_stopping_others(self, task):
        train_set, val_set, test_set, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=1)
        cfg.spec = ModelSpec(**{**cfg.spec.to_dict(), "kind": "cnn",
                                "cnn_windows": (30,), "highway_layers": 0})
        rows = run_model_comparison(cfg, ["cnn", "cow"], train_set, val_set, test_set, vocab)
        assert rows[0]["status"] == "error"
        assert "30" in rows[0]["error"]
        assert rows[1]["status"] == "ok"

    def test_unknown_model_name(self, task):
        train_set, val_set, test_set, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=1)
        rows = run_model_comparison(cfg, ["mystery"], train_set, val_set, test_set, vocab)
        assert rows[0]["status"] == "error"

    def test_empty_model_list_rejected(self, task):
        train_set, val_set, test_set, vocab = task
        with pytest.raises(ConfigError):
            run_model_comparison(tiny_config(vocab_size=len(vocab)), [], train_set, val_set, test_set, vocab)


class TestSweep:
    def test_row_count_and_lengths(self, task, tmp_path):
        train_set, val_set, test_set, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=1)
        rows = run_seqlen_sweep(cfg, ["cow", "rcnn-hw"], train_set, val_set, test_set, vocab,
                                lengths=[4, 8, 12])
        assert len(rows) == 6
        assert [r["seq_len"] for r in rows] == [4, 8, 12, 4, 8, 12]
        assert all(r["status"] == "ok" for r in rows)
        write_rows(rows, tmp_path / "s.csv")
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 7

    def test_default_lengths_vector(self):
        import inspect

        sig = inspect.signature(run_seqlen_sweep)
        assert list(sig.parameters["lengths"].default) == [100, 200, 300, 400, 500]

    def test_descending_lengths_rejected(self, task):
        train_set, val_set, test_set, vocab = task
        with pytest.raises(ConfigError):
            run_seqlen_sweep(tiny_config(vocab_size=len(vocab)), ["cow"],
                             train_set, val_set, test_set, vocab, lengths=[200, 100])

    def test_unknown_model_recorded_without_stopping_others(self, task):
        train_set, val_set, test_set, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=1)
        rows = run_seqlen_sweep(cfg, ["mystery", "cow"], train_set, val_set, test_set, vocab,
                                lengths=[4, 8])
        assert [(r["model"], r["seq_len"], r["status"]) for r in rows] == [
            ("mystery", 4, "error"), ("mystery", 8, "error"), ("cow", 4, "ok"), ("cow", 8, "ok")]
        assert "mystery" in rows[0]["error"]

    def test_empty_model_list_rejected(self, task):
        train_set, val_set, test_set, vocab = task
        with pytest.raises(ConfigError):
            run_seqlen_sweep(tiny_config(vocab_size=len(vocab)), [],
                             train_set, val_set, test_set, vocab, lengths=[4])

    def test_one_length_sweep_matches_comparison(self, task):
        train_set, val_set, test_set, vocab = task
        cfg = tiny_config(vocab_size=len(vocab), epochs=2)
        compared = run_model_comparison(cfg, ["rcnn-hw"], train_set, val_set, test_set, vocab)
        swept = run_seqlen_sweep(cfg, ["rcnn-hw"], train_set, val_set, test_set, vocab,
                                 lengths=[cfg.spec.seq_len])
        for key in ("test_accuracy", "best_val_accuracy"):
            assert compared[0][key] == swept[0][key]


class TestCheckpoint:
    def build(self, vocab_size=44):
        spec = ModelSpec(kind="rcnn-hw", vocab_size=vocab_size, seq_len=12,
                         embed_dim=6, hidden_dim=3, num_filters=8)
        return build_model(spec, rng_seed=77)

    def test_round_trip_bit_exact(self, task, tmp_path):
        train_set, _val, _test, vocab = task
        model = self.build(len(vocab))
        path = tmp_path / "m.rchw"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].value, model.params[name].value)
        from rcnnlab.data import batches, encode_dataset

        batch = next(batches(encode_dataset(train_set, vocab, 12), batch_size=16))
        np.testing.assert_array_equal(model.forward(batch).value, loaded.forward(batch).value)

    def test_parameter_count_matches_spec(self, tmp_path):
        model = self.build()
        path = tmp_path / "m.rchw"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert sum(p.value.size for p in loaded.parameters()) == count_params(model.spec)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "m.rchw"
        save_checkpoint(self.build(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import struct

        path = tmp_path / "m.rchw"
        save_checkpoint(self.build(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", CHECKPOINT_VERSION + 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        import struct

        path = tmp_path / "m.rchw"
        save_checkpoint(self.build(), path)
        blob = path.read_bytes()
        header_len = struct.unpack("<I", blob[8:12])[0]
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
        header["tensors"][0]["shape"] = [1, 1]
        new_header = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len :])
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.rchw"
        save_checkpoint(self.build(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_spec_larger_than_payload_rejected_before_building(self, tmp_path):
        import struct

        path = tmp_path / "m.rchw"
        save_checkpoint(self.build(), path)
        blob = path.read_bytes()
        header_len = struct.unpack("<I", blob[8:12])[0]
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
        header["spec"]["vocab_size"] = 10**12
        new_header = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len :])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset, trailing", [(8, b""), (True, b""), (0, bytes(16))],
                             ids=["offset-shifted-8-bytes", "offset-true", "16-trailing-bytes"])
    def test_payload_outside_the_saved_layout_rejected(self, tmp_path, offset, trailing):
        import struct

        path = tmp_path / "m.rchw"
        save_checkpoint(self.build(), path)
        blob = path.read_bytes()
        header_len = struct.unpack("<I", blob[8:12])[0]
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
        header["tensors"][0]["offset"] = offset
        new_header = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len :] + trailing)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.rchw"
        good = self.build()
        save_checkpoint(good, path)
        saved = path.read_bytes()
        real_open = Path.open

        class FailsPartWay:
            """A file whose first write stores half its bytes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

        def open_failing(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return FailsPartWay(fh) if "w" in mode else fh

        monkeypatch.setattr(Path, "open", open_failing)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build_model(good.spec, rng_seed=78), path)
        monkeypatch.undo()
        assert path.read_bytes() == saved
        assert list(tmp_path.iterdir()) == [path]
        loaded = load_checkpoint(path)
        for name in good.params:
            np.testing.assert_array_equal(loaded.params[name].value, good.params[name].value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(tmp_path / "nope.rchw")


def test_public_api_surface():
    import rcnnlab

    for name in ("Variable", "Tape", "backward", "finite_diff_check", "ModelSpec",
                 "build_model", "count_params", "train", "evaluate", "save_checkpoint",
                 "load_checkpoint", "RmsProp", "Adam", "Adadelta", "tokenize",
                 "build_vocab", "gen_keyword_task"):
        assert hasattr(rcnnlab, name), name


def test_write_rows_refuses_empty(tmp_path):
    with pytest.raises(ContractError):
        write_rows([], tmp_path / "x.csv")


class TestRunReport:
    def test_deterministic_dict_excludes_timing(self):
        report = RunReport(model_kind="cow", config={}, epoch_seconds=[1.0])
        assert "epoch_seconds" not in report.deterministic_dict()
        assert "epoch_seconds" in report.to_dict()

    def test_save(self, tmp_path):
        report = RunReport(model_kind="cow", config={"epochs": 1})
        report.save(tmp_path / "r.json")
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["model_kind"] == "cow"
        assert loaded["version"]
