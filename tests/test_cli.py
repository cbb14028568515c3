"""CLI contract tests: exit codes, file outputs, machine-parseable stdout."""

import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from rcnnlab.cli import OPTIONS, main
from rcnnlab.data import Vocabulary
from rcnnlab.harness import TrainConfig
from rcnnlab.models import ModelSpec

# The defaults a run resolves to: ModelSpec's and TrainConfig's own, but for the
# CLI's seq_len 200, shuffle_seed 1 (--seed S shuffles with S+1, and S defaults
# to 0) and vocabulary caps.
RESOLVED_DEFAULTS = {
    **{f.name: f.default for cls in (ModelSpec, TrainConfig) for f in fields(cls) if f.default is not MISSING},
    "seq_len": 200, "shuffle_seed": 1, "max_vocab": 20000, "min_freq": 2,
}

# A config-file value of the wrong type for each option type: the JSON string
# or list a user might write in place of the number, name or switch.
WRONG_TYPED = {int: "3", float: "0.5", str: ["rmsprop"], bool: "true"}


@pytest.fixture()
def toy_tsv(tmp_path):
    path = tmp_path / "toy.tsv"
    assert main(["gen", "--task", "keyword", "--n", "120", "--seq-len", "10",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "rcnnlab", *argv], capture_output=True, text=True,
                          env=env, timeout=120)


def fast_flags():
    return ["--embed-dim", "6", "--hidden-dim", "3", "--num-filters", "4",
            "--seq-len", "10", "--epochs", "1", "--min-freq", "1"]


@pytest.fixture()
def blank_tsv(tmp_path):
    path = tmp_path / "blank.tsv"
    path.write_text("\n\n", encoding="utf-8")
    return path


def assert_rejected_before_training(capsys, source, out):
    """Exit 3 named the empty split, and nothing trained or was written."""
    err = capsys.readouterr().err
    assert f"no examples to evaluate on in {source}" in err
    assert "training" not in err and " of [" not in err
    assert not out.exists()


class TestTrain:
    def test_writes_report_checkpoint_vocab(self, toy_tsv, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", str(toy_tsv), "--model", "rcnn-hw",
                     "--out", str(out), "--seed", "1", *fast_flags()])
        assert code == 0
        assert (out / "model.rchw").is_file()
        assert (out / "vocab.txt").is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["model_kind"] == "rcnn-hw"
        assert report["config"]["spec"]["seq_len"] == 10
        stdout = capsys.readouterr().out
        assert "best_val_accuracy=" in stdout

    def test_train_ablation_variant(self, toy_tsv, tmp_path):
        out = tmp_path / "mlp"
        code = main(["train", "--data", str(toy_tsv), "--model", "rcnn-hw-mlp",
                     "--out", str(out), "--seed", "1", *fast_flags()])
        assert code == 0
        spec = json.loads((out / "report.json").read_text())["config"]["spec"]
        assert spec["mlp_instead_of_highway"] is True
        assert spec["highway_layers"] == 0

    def test_unknown_model_lists_valid_kinds(self, toy_tsv, capsys):
        code = main(["train", "--data", str(toy_tsv), "--model", "bert"])
        assert code == 2
        assert "rcnn-hw" in capsys.readouterr().err

    def test_missing_data_is_data_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.tsv"), "--model", "cow"])
        assert code == 3

    def test_numeric_abort_is_exit_four(self, toy_tsv, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["train", "--data", str(toy_tsv), "--model", "cow",
                         "--out", str(tmp_path / "overflow"), "--lr", "1e200",
                         "--clip-norm", "0", *fast_flags()])
        assert code == 4

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # clipping scales the inf by 0
    def test_non_finite_gradient_is_exit_four_naming_the_tensor(self, toy_tsv, tmp_path, monkeypatch, capsys):
        from rcnnlab import harness
        from rcnnlab.autodiff import backward
        from rcnnlab.models import build_model

        built = []
        monkeypatch.setattr(harness, "build_model", lambda spec, seed: built.append(build_model(spec, seed)) or built[0])

        def poisoned(tape, loss):
            backward(tape, loss)
            built[0].params["highway0.w_t"].grad[1, 2] = np.inf

        monkeypatch.setattr(harness, "backward", poisoned)
        code = main(["train", "--data", str(toy_tsv), "--model", "rcnn-hw", "--out", str(tmp_path / "run"),
                     *fast_flags()])
        assert code == 4
        assert "first in highway0.w_t" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--lr", "-0.5"), ("--lr", "0"), ("--lr", "nan"),
                                            ("--clip-norm", "-1")])
    def test_bad_rate_or_clip_is_config_error(self, toy_tsv, tmp_path, flag, value):
        out = tmp_path / "bad"
        code = main(["train", "--data", str(toy_tsv), "--model", "cow", "--out", str(out),
                     flag, value, *fast_flags()])
        assert code == 2
        assert not out.exists()

    def test_default_hyperparameters_echoed(self, toy_tsv, tmp_path):
        out = tmp_path / "defaults"
        code = main(["train", "--data", str(toy_tsv), "--model", "cow",
                     "--out", str(out), "--epochs", "1", "--min-freq", "1"])
        assert code == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["batch_size"] == 32
        assert config["spec"]["hidden_dim"] == 32
        assert config["spec"]["num_filters"] == 256
        # Every echoed option is its ModelSpec or TrainConfig default, but for the
        # CLI's own seq_len 200 and shuffle_seed 1, and the --epochs flag.
        spec = ModelSpec(kind="cow", vocab_size=config["spec"]["vocab_size"], seq_len=200)
        assert config == json.loads(json.dumps(TrainConfig(spec, epochs=1, shuffle_seed=1).to_dict()))

    def test_config_file_merging_and_flag_override(self, toy_tsv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "hidden_dim": 3, "embed_dim": 5,
                                   "num_filters": 4, "seq_len": 10, "min_freq": 1}))
        out = tmp_path / "merged"
        code = main(["train", "--data", str(toy_tsv), "--model", "cow",
                     "--config", str(cfg), "--out", str(out), "--epochs", "1"])
        assert code == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["epochs"] == 1  # flag beats file
        assert config["spec"]["embed_dim"] == 5  # file beats default

    def test_unknown_config_key_rejected(self, toy_tsv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dropout": 0.5}))
        assert main(["train", "--data", str(toy_tsv), "--model", "cow",
                     "--config", str(cfg)]) == 2

    def test_config_that_is_not_an_object_rejected(self, toy_tsv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("5")
        assert main(["train", "--data", str(toy_tsv), "--model", "cow",
                     "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("bad", [{"epochs": "ten"}, {"epochs": 2.5}, {"epochs": True},
                                     {"lr": "fast"}, {"optimizer": 3}, {"mlp_instead_of_highway": 1},
                                     {"seq_len": None},
                                     *({key: WRONG_TYPED[kind]} for key, (kind, _help) in OPTIONS.items()),
                                     *({key: None} for key in OPTIONS if RESOLVED_DEFAULTS[key] is not None)])
    def test_config_value_of_wrong_type_exits_two_without_traceback(self, toy_tsv, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        run = run_cli("train", "--data", str(toy_tsv), "--model", "cow",
                      "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert next(iter(bad)) in run.stderr

    @pytest.mark.parametrize("command,config", [
        (["train", "--model", "cow"], {"epochs": "ten"}),
        (["compare", "--models", "cow"], {"epochs": "ten"}),
        (["sweep", "--model", "cow", "--lengths", "5"], {"epochs": "ten"}),
        (["train", "--model", "cow"], {"optimizer": "sgd"}),
        (["compare", "--models", "cow,cnn"], {"optimizer": "sgd"}),
        (["sweep", "--model", "cow", "--lengths", "5"], {"optimizer": "sgd"}),
        (["train", "--model", "nosuch"], {}),
        (["compare", "--models", "cow,nosuch"], {}),
        (["sweep", "--model", "nosuch", "--lengths", "5"], {}),
    ], ids=["train", "compare", "sweep", "train-optimizer", "compare-optimizer", "sweep-optimizer",
            "train-model", "compare-model", "sweep-model"])
    def test_bad_config_exits_two_before_a_missing_data_file(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        run = run_cli(*command, "--data", str(tmp_path / "missing.tsv"), "--config", str(cfg),
                      "--out", str(tmp_path / "run"))
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert "config error" in run.stderr and "data error" not in run.stderr

    @pytest.mark.parametrize("model,flags,config", [
        ("cnn", ["--highway-layers", "2"], {}),
        ("rcnn-hw-0", ["--highway-layers", "2"], {}),
        ("rcnn", ["--mlp"], {}),
        ("rcnn-hw-1", [], {"mlp_instead_of_highway": True}),
        ("cow", [], {"highway_layers": 1}),
    ], ids=["cnn-flag", "ablation-flag", "rcnn-mlp-flag", "ablation-mlp-key", "cow-key"])
    def test_highway_option_the_model_cannot_take_exits_two(self, toy_tsv, tmp_path, model, flags, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        run = run_cli("train", "--data", str(toy_tsv), "--model", model, *flags, "--config", str(cfg),
                      "--out", str(out), *fast_flags())
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr and "config error" in run.stderr
        assert not out.exists()

    @pytest.mark.parametrize("model,flags", [("cnn", ["--highway-layers", "0"]), ("rcnn-hw-2", ["--highway-layers", "2"]),
                                             ("rcnn-hw-mlp", ["--mlp"]), ("rcnn-hw", ["--mlp"])])
    def test_highway_option_the_model_resolves_to_is_accepted(self, toy_tsv, tmp_path, model, flags):
        out = tmp_path / "run"
        assert main(["train", "--data", str(toy_tsv), "--model", model, *flags, "--out", str(out), *fast_flags()]) == 0
        spec = json.loads((out / "report.json").read_text())["config"]["spec"]
        assert spec["mlp_instead_of_highway"] is ("--mlp" in flags)

    def test_config_with_byte_order_mark_resolves_the_same(self, toy_tsv, tmp_path):
        text = json.dumps({"epochs": 1, "hidden_dim": 3, "embed_dim": 5, "num_filters": 4, "seq_len": 10, "min_freq": 1})
        echoed = []
        for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
            cfg = tmp_path / f"{name}.json"
            cfg.write_bytes(data)
            assert main(["train", "--data", str(toy_tsv), "--model", "cow", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            echoed.append(json.loads((tmp_path / name / "report.json").read_text())["config"])
        assert echoed[1] == echoed[0]

    def test_vocabulary_cap_below_reserved_ids_exits_two(self, toy_tsv, tmp_path):
        run = run_cli("train", "--data", str(toy_tsv), "--model", "cow", "--max-vocab", "0",
                      "--out", str(tmp_path / "run"), *fast_flags())
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert "got 0" in run.stderr
        assert not (tmp_path / "run" / "model.rchw").exists()

    def test_min_freq_below_one_exits_two(self, toy_tsv, tmp_path):
        run = run_cli("train", "--data", str(toy_tsv), "--model", "cow", "--out", str(tmp_path / "run"),
                      *fast_flags(), "--min-freq", "-3")
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert "config error" in run.stderr and "got -3" in run.stderr
        assert not (tmp_path / "run" / "model.rchw").exists()

    def test_config_int_accepted_for_float_and_null_for_defaulted_null(self, toy_tsv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1, "clip_norm": None, "val_fraction": 0.25}))
        out = tmp_path / "typed"
        assert main(["train", "--data", str(toy_tsv), "--model", "cow", "--config", str(cfg),
                     "--out", str(out), *fast_flags()]) == 0
        assert json.loads((out / "report.json").read_text())["config"]["lr"] == 1

    def test_data_file_that_is_not_utf8_exits_three_without_traceback(self, tmp_path):
        data = tmp_path / "latin1.tsv"
        data.write_bytes("1\tun film très beau\n0\tmauvais\n".encode("latin-1"))
        run = run_cli("train", "--data", str(data), "--model", "cow", "--out", str(tmp_path / "run"), *fast_flags())
        assert run.returncode == 3
        assert "Traceback" not in run.stderr
        assert f"non-UTF-8 file: {data}" in run.stderr

    def test_review_directory_with_empty_test_split_exits_three(self, tmp_path, capsys):
        root = tmp_path / "reviews"
        for split, sub in [("train", "pos"), ("train", "neg"), ("test", "pos"), ("test", "neg")]:
            (root / split / sub).mkdir(parents=True)
        for i in range(6):
            (root / "train" / ("pos" if i % 2 else "neg") / f"{i}.txt").write_text(f"a fine film {i}", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--data", str(root), "--model", "cow", "--out", str(out), *fast_flags()]) == 3
        assert_rejected_before_training(capsys, root / "test", out)


class TestEval:
    @pytest.fixture()
    def trained(self, toy_tsv, tmp_path):
        out = tmp_path / "trained"
        assert main(["train", "--data", str(toy_tsv), "--model", "cow",
                     "--out", str(out), "--seed", "1", *fast_flags()]) == 0
        return out

    def test_prints_accuracy_line(self, trained, toy_tsv, capsys):
        code = main(["eval", "--checkpoint", str(trained / "model.rchw"),
                     "--data", str(toy_tsv)])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("accuracy=")]
        assert len(lines) == 1
        assert 0.0 <= float(lines[0].split("=")[1]) <= 1.0

    def test_missing_checkpoint(self, toy_tsv, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "ghost.rchw"),
                     "--data", str(toy_tsv)]) == 3

    def test_vocabulary_of_another_size_is_data_error(self, trained, toy_tsv, tmp_path, capsys):
        lines = (trained / "vocab.txt").read_text(encoding="utf-8").splitlines()
        short = tmp_path / "short_vocab.txt"
        short.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        code = main(["eval", "--checkpoint", str(trained / "model.rchw"),
                     "--data", str(toy_tsv), "--vocab", str(short)])
        assert code == 3
        captured = capsys.readouterr()
        assert "accuracy=" not in captured.out
        sizes = [len(Vocabulary.load(v)) for v in (short, trained / "vocab.txt")]
        assert f"has {sizes[0]} entries" in captured.err
        assert f"trained with {sizes[1]}" in captured.err

    def test_vocabulary_that_is_not_utf8_exits_three_without_traceback(self, trained, toy_tsv, tmp_path):
        vocab = tmp_path / "latin1_vocab.txt"
        vocab.write_bytes((trained / "vocab.txt").read_bytes() + "très\n".encode("latin-1"))
        run = run_cli("eval", "--checkpoint", str(trained / "model.rchw"), "--data", str(toy_tsv), "--vocab", str(vocab))
        assert run.returncode == 3
        assert "Traceback" not in run.stderr
        assert f"non-UTF-8 file: {vocab}" in run.stderr
        assert "accuracy=" not in run.stdout

    def test_empty_data_is_data_error(self, trained, blank_tsv, capsys):
        code = main(["eval", "--checkpoint", str(trained / "model.rchw"), "--data", str(blank_tsv)])
        assert code == 3
        captured = capsys.readouterr()
        assert "accuracy=" not in captured.out
        assert f"no examples to evaluate on in {blank_tsv}" in captured.err

    def test_seq_len_conflict(self, trained, toy_tsv):
        assert main(["eval", "--checkpoint", str(trained / "model.rchw"),
                     "--data", str(toy_tsv), "--seq-len", "99"]) == 2

    @staticmethod
    def rewrite_header(path, edit):
        blob = path.read_bytes()
        header_len = struct.unpack("<I", blob[8:12])[0]
        header = json.loads(blob[12 : 12 + header_len])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + header_len :])

    def test_manifest_entry_without_offset_exits_three(self, trained, toy_tsv):
        path = trained / "model.rchw"
        self.rewrite_header(path, lambda h: h["tensors"][0].pop("offset"))
        run = run_cli("eval", "--checkpoint", str(path), "--data", str(toy_tsv))
        assert run.returncode == 3
        assert "Traceback" not in run.stderr
        assert "offset" in run.stderr

    def test_unknown_spec_kind_exits_three(self, trained, toy_tsv):
        path = trained / "model.rchw"
        self.rewrite_header(path, lambda h: h["spec"].update(kind="transformer"))
        run = run_cli("eval", "--checkpoint", str(path), "--data", str(toy_tsv))
        assert run.returncode == 3
        assert "Traceback" not in run.stderr
        assert "transformer" in run.stderr


class TestCompare:
    def test_model_list_rows(self, toy_tsv, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--data", str(toy_tsv), "--models", "cow,rcnn",
                     "--out", str(out), *fast_flags()])
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "rows=2" in capsys.readouterr().out

    def test_ablation_alias_expands_to_four_variants(self, toy_tsv, tmp_path):
        out = tmp_path / "abl"
        code = main(["compare", "--data", str(toy_tsv), "--models", "rcnn-hw-ablation",
                     "--out", str(out), *fast_flags()])
        assert code == 0
        rows = json.loads((out / "comparison.json").read_text())
        assert [r["model"] for r in rows] == ["rcnn-hw-0", "rcnn-hw-1", "rcnn-hw-2", "rcnn-hw-mlp"]

    @pytest.mark.parametrize("flags,variant", [(["--highway-layers", "2"], "rcnn-hw-2"),
                                               (["--mlp"], "rcnn-hw-mlp")])
    def test_highway_flags_reach_rcnn_hw(self, toy_tsv, tmp_path, flags, variant):
        out = tmp_path / "hw"
        code = main(["compare", "--data", str(toy_tsv), "--models", f"rcnn-hw,{variant}",
                     *flags, "--out", str(out), *fast_flags()])
        assert code == 0
        rows = json.loads((out / "comparison.json").read_text())
        assert rows[0]["trainable_params"] == rows[1]["trainable_params"]

    def test_config_optimizer_outside_the_table_exits_two_without_rows(self, toy_tsv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": "sgd"}))
        out = tmp_path / "cmp"
        run = run_cli("compare", "--data", str(toy_tsv), "--models", "cow,cnn", "--config", str(cfg),
                      "--out", str(out), *fast_flags())
        assert run.returncode == 2 and "Traceback" not in run.stderr
        assert "unknown optimizer 'sgd'" in run.stderr
        assert not (out / "comparison.csv").exists()

    def test_empty_model_list(self, toy_tsv, tmp_path):
        assert main(["compare", "--data", str(toy_tsv), "--models", ",",
                     "--out", str(tmp_path / "x")]) == 2

    def test_empty_test_data_exits_three_before_training(self, toy_tsv, blank_tsv, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--data", str(toy_tsv), "--test-data", str(blank_tsv), "--models", "cow,rcnn",
                     "--out", str(out), *fast_flags()])
        assert code == 3
        assert_rejected_before_training(capsys, blank_tsv, out)


class TestSweep:
    def test_single_length(self, toy_tsv, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep", "--data", str(toy_tsv), "--model", "cow",
                     "--lengths", "8", "--out", str(out), *fast_flags()])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_non_numeric_length(self, toy_tsv, tmp_path):
        assert main(["sweep", "--data", str(toy_tsv), "--model", "cow",
                     "--lengths", "ten", "--out", str(tmp_path / "x")]) == 2

    def test_empty_test_data_exits_three_before_training(self, toy_tsv, blank_tsv, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(["sweep", "--data", str(toy_tsv), "--test-data", str(blank_tsv), "--model", "cow",
                     "--lengths", "8", "--out", str(out), *fast_flags()])
        assert code == 3
        assert_rejected_before_training(capsys, blank_tsv, out)


class TestGradcheck:
    def test_layer_scope_passes_with_table(self, capsys):
        assert main(["gradcheck", "--scope", "layer"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "max_rel_error" in l]
        assert len(lines) == 20
        assert lines[0].startswith("embed")
        assert all("PASS" in l for l in lines)

    def test_fixed_output_order(self, capsys):
        main(["gradcheck", "--scope", "layer", "--seed", "7"])
        first = capsys.readouterr().out
        main(["gradcheck", "--scope", "layer", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_injected_bug_exits_five(self, capsys):
        assert main(["gradcheck", "--scope", "layer", "--inject-bug"]) == 5
        assert "FAIL" in capsys.readouterr().out

    def test_model_scope(self, capsys):
        assert main(["gradcheck", "--scope", "model"]) == 0
        out = capsys.readouterr().out
        assert "embedding.table" in out


class TestGen:
    def test_order_task_balanced(self, tmp_path):
        path = tmp_path / "order.tsv"
        assert main(["gen", "--task", "order", "--n", "100", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 100
        assert sum(int(l.split("\t")[0]) for l in lines) == 50

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for target in (a, b):
            assert main(["gen", "--task", "longrange", "--n", "40", "--seed", "9",
                         "--seq-len", "60", "--window", "20,40", "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_task_rejected(self, tmp_path):
        assert main(["gen", "--task", "parity", "--out", str(tmp_path / "x.tsv")]) == 2

    @pytest.mark.parametrize("flag", ["--vocab-size", "--n"])
    def test_zero_size_is_config_error(self, tmp_path, flag):
        run = run_cli("gen", "--task", "keyword", flag, "0", "--out", str(tmp_path / "x.tsv"))
        assert run.returncode == 2
        assert "Traceback" not in run.stderr

    def test_bad_window(self, tmp_path):
        assert main(["gen", "--task", "longrange", "--window", "abc",
                     "--out", str(tmp_path / "x.tsv")]) == 2


class TestNegativeSeedAndZeroLength:
    @pytest.mark.parametrize("argv,config", [
        (["gen", "--task", "keyword", "--seed", "-1"], None),
        (["gen", "--task", "keyword", "--seq-len", "0"], None),
        (["gen", "--task", "longrange", "--seq-len", "0"], None),
        (["train", "--data", "{data}", "--model", "cow", "--seed", "-1"], None),
        (["train", "--data", "{data}", "--model", "cow"], {"init_seed": -1}),
        (["train", "--data", "{data}", "--model", "cow"], {"shuffle_seed": -1}),
        (["compare", "--data", "{data}", "--models", "cow", "--seed", "-1"], None),
        (["sweep", "--data", "{data}", "--model", "cow", "--lengths", "5,10", "--seed", "-1"], None),
        (["gradcheck", "--scope", "layer", "--seed", "-1"], None),
        (["gradcheck", "--scope", "model", "--seed", "-1"], None),
    ], ids=["gen-seed", "gen-keyword-len0", "gen-longrange-len0", "train-seed", "config-init-seed",
            "config-shuffle-seed", "compare-seed", "sweep-seed", "gradcheck-layer-seed", "gradcheck-model-seed"])
    def test_exits_two_without_traceback_or_output(self, toy_tsv, tmp_path, argv, config):
        argv = [str(toy_tsv) if a == "{data}" else a for a in argv]
        out = tmp_path / "out"
        if argv[0] != "gradcheck":
            argv += ["--out", str(out)]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        run = run_cli(*argv)
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr
        assert "config error" in run.stderr
        assert not out.exists()


class TestHelp:
    @pytest.mark.parametrize("cmd", ["train", "eval", "compare", "sweep", "gradcheck", "gen"])
    def test_subcommand_help(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out

    @pytest.mark.parametrize("cmd", ["train", "compare", "sweep"])
    def test_training_flag_help_states_the_default_a_run_resolves_to(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        # one entry per option, from its flag to the next flag, whitespace folded
        entries = {e.split()[0]: " ".join(e.split()) for e in re.split(r"\n  (?=-)", capsys.readouterr().out)}
        flags = {"--seq-len": "seq_len", "--epochs": "epochs", "--optimizer": "optimizer", "--lr": "lr",
                 "--batch-size": "batch_size", "--val-fraction": "val_fraction", "--patience": "patience",
                 "--clip-norm": "clip_norm", "--embed-dim": "embed_dim", "--hidden-dim": "hidden_dim",
                 "--num-filters": "num_filters", "--highway-layers": "highway_layers",
                 "--mlp": "mlp_instead_of_highway", "--max-vocab": "max_vocab", "--min-freq": "min_freq"}
        for flag, key in flags.items():
            default = RESOLVED_DEFAULTS[key]
            # a None default resolves per model or optimizer, which the help says in words
            assert ("default" in entries[flag]) if default is None else (f"(default {default})" in entries[flag])
        assert "{rmsprop,adam,adadelta}" in entries["--optimizer"]
        assert f"(default {RESOLVED_DEFAULTS['init_seed']})" in entries["--seed"]
