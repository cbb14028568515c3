"""Command-line entry point.

Subcommands: train, eval, compare, sweep, gradcheck, gen. Machine-parseable
metrics go to stdout; progress and diagnostics go to stderr. Exit codes
partition failures: 2 config, 3 data/I-O, 4 numeric abort, 5 verification.

Option precedence: built-in defaults < JSON config file < command-line flags.
The fully resolved configuration is echoed into every run report.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import checks
from .data import (
    TextDataset,
    Vocabulary,
    build_vocab,
    gen_keyword_task,
    gen_longrange_task,
    gen_order_task,
    load_imdb_dir,
    load_tsv,
    write_tsv,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DataError,
    GradCheckError,
    NumericError,
    ShapeError,
)
from .harness import (
    SWEEP_LENGTHS,
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
from .models import ABLATION_VARIANTS, KINDS, ModelSpec, check_model_name, resolve_model
from .optim import OPTIMIZERS, check_optimizer

# Each training option once: its config-file type and its flag's help, or None
# for a key only a config file sets. A help whose default is None explains it.
OPTIONS = {
    "seq_len": (int, "input length"),
    "epochs": (int, "training epochs"),
    "optimizer": (str, "update rule"),
    "lr": (float, "learning rate (default per optimizer)"),
    "batch_size": (int, "examples per step"),
    "val_fraction": (float, "share of the training data held out for validation"),
    "patience": (int, "early-stop patience"),
    "clip_norm": (float, "gradient clip; default 5.0 for recurrent models, 0 disables"),
    "embed_dim": (int, "word embedding width"),
    "hidden_dim": (int, "recurrent state width"),
    "num_filters": (int, "convolution filters"),
    "highway_layers": (int, "0, 1 or 2 (rcnn-hw); default 1 for rcnn-hw without --mlp, else 0"),
    "mlp_instead_of_highway": (bool, "use a dense+relu block instead of highway layers, rcnn-hw only"),
    "max_vocab": (int, "vocabulary size cap, counting the two reserved ids"),
    "min_freq": (int, "minimum token count in the training split"),
    "init_seed": (int, None),
    "shuffle_seed": (int, None),
    "num_classes": (int, None),
}

# ModelSpec's and TrainConfig's defaults, then the CLI's own (--seed S shuffles with S+1).
DEFAULTS = {f.name: f.default for cls in (ModelSpec, TrainConfig) for f in fields(cls) if f.name in OPTIONS}
DEFAULTS |= {"seq_len": 200, "shuffle_seed": 1, "max_vocab": 20000, "min_freq": 2}


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _has_config_type(key: str, value) -> bool:
    """An int passes where a float is declared; a bool is never an int, and
    null is accepted only where the default itself is null."""
    expected = OPTIONS[key][0]
    if value is None:
        return DEFAULTS[key] is None
    if isinstance(value, bool):
        return expected is bool
    return isinstance(value, (int, float) if expected is float else expected)


def _resolve_options(args) -> dict:
    """defaults < JSON config file < explicit flags; a command calls it before it loads data."""
    options = dict(DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise DataError(f"missing config file: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8-sig"))
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: expected a JSON object of options")
        unknown = set(loaded) - set(OPTIONS)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        for key, value in loaded.items():
            if not _has_config_type(key, value):
                raise ConfigError(f"{path}: {key} must be {OPTIONS[key][0].__name__}, got {value!r}")
        check_optimizer(loaded.get("optimizer", DEFAULTS["optimizer"]))
        options.update(loaded)
    for key in OPTIONS:  # every flag's dest is its config key
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    if getattr(args, "seed", None) is not None:
        options["init_seed"] = args.seed
        options["shuffle_seed"] = args.seed + 1
    return options


def _evaluable(dataset: TextDataset, source) -> TextDataset:
    """A split a command evaluates on; an empty one is rejected before anything trains."""
    if len(dataset) == 0:
        raise DataError(f"no examples to evaluate on in {source}")
    return dataset


def _load_data(path_str: str) -> tuple[TextDataset, TextDataset | None]:
    """TSV file -> (dataset, None); review directory -> (train, test)."""
    path = Path(path_str)
    if path.is_dir():
        train_set, test_set = load_imdb_dir(path)
        return train_set, _evaluable(test_set, path / "test")
    return load_tsv(path), None


def _prepare_run(args, options: dict, hold_out_test: bool) -> tuple:
    """(config with an rcnn-hw base spec, train, val, test, vocabulary) for
    train, compare and sweep, from the resolved ``options``. With
    ``hold_out_test``, a missing test split is a fixed fifth of the data."""
    dataset, test_set = _load_data(args.data)
    if getattr(args, "test_data", None):
        test_set = _evaluable(load_tsv(args.test_data), args.test_data)
    if test_set is None and hold_out_test:
        dataset, test_set = split_train_val(dataset, 0.2, seed=29)
    train_set, val_set = split_train_val(dataset, options["val_fraction"])
    vocab = build_vocab(train_set, max_size=options["max_vocab"], min_freq=options["min_freq"])
    picked = {cls: {f.name: options[f.name] for f in fields(cls) if f.name in OPTIONS}
              for cls in (ModelSpec, TrainConfig)}
    spec = ModelSpec(kind="rcnn-hw", vocab_size=len(vocab), **picked[ModelSpec])
    return TrainConfig(spec=spec, **picked[TrainConfig]), train_set, val_set, test_set, vocab


def _expand_models(text: str) -> list[str]:
    """Comma list of model names; rcnn-hw-ablation expands to the four highway
    variants. Each name is checked here, so an unknown one is rejected before
    any data loads."""
    names = []
    for raw in text.split(","):
        name = raw.strip()
        if not name:
            continue
        if name == "rcnn-hw-ablation":
            names.extend(ABLATION_VARIANTS)
        else:
            check_model_name(name)
            names.append(name)
    if not names:
        raise ConfigError("model list is empty")
    return names


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    options = _resolve_options(args)
    check_model_name(args.model)
    config, train_set, val_set, test_set, vocab = _prepare_run(args, options, hold_out_test=False)
    config.spec = resolve_model(args.model, config.spec)
    for key in ("highway_layers", "mlp_instead_of_highway"):  # compare and sweep apply them to rcnn-hw entries only
        if options[key] != DEFAULTS[key] and getattr(config.spec, key) != options[key]:
            raise ConfigError(f"{args.model} takes {key}={getattr(config.spec, key)!r}, not {options[key]!r}")

    _log(f"training {args.model}: {len(train_set)} train / {len(val_set)} val examples, "
         f"vocab {len(vocab)}, seq_len {config.spec.seq_len}")
    model, report = train(config, train_set, val_set, vocab)
    if test_set is not None:
        report.final_test_accuracy = evaluate(model, test_set, vocab, config.spec.seq_len)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "model.rchw")
    vocab.save(out / "vocab.txt")
    report.save(out / "report.json")
    _log(f"wrote {out / 'model.rchw'}, {out / 'vocab.txt'}, {out / 'report.json'}")
    print(f"best_val_accuracy={report.best_val_accuracy:.6f}")
    if report.final_test_accuracy is not None:
        print(f"test_accuracy={report.final_test_accuracy:.6f}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if args.seq_len is not None and args.seq_len != model.spec.seq_len:
        raise ConfigError(
            f"--seq-len {args.seq_len} conflicts with checkpoint seq_len {model.spec.seq_len}"
        )
    vocab_path = Path(args.vocab) if args.vocab else Path(args.checkpoint).parent / "vocab.txt"
    if not vocab_path.is_file():
        raise DataError(f"missing vocabulary file: {vocab_path}")
    vocab = Vocabulary.load(vocab_path)
    if len(vocab) != model.spec.vocab_size:
        raise DataError(
            f"vocabulary {vocab_path} has {len(vocab)} entries, "
            f"but the checkpoint was trained with {model.spec.vocab_size}"
        )
    dataset, test_set = _load_data(args.data)
    target = test_set if test_set is not None else _evaluable(dataset, args.data)
    accuracy = evaluate(model, target, vocab, model.spec.seq_len)
    print(f"accuracy={accuracy:.6f}")
    return 0


def _run_grid_command(args, models: str, run, stem: str) -> int:
    """The body of compare and sweep: ``run`` is the harness driver, and the
    rows go to ``<out>/<stem>.csv`` and ``.json``."""
    options, names = _resolve_options(args), _expand_models(models)
    config, train_set, val_set, test_set, vocab = _prepare_run(args, options, hold_out_test=True)
    _log(f"{stem} of {names} on {len(train_set)} train / {len(test_set)} test examples")
    rows = run(config, names, train_set, val_set, test_set, vocab)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(rows, out / f"{stem}.csv", out / f"{stem}.json")
    for row in rows:
        label = f"{row['model']} T={row['seq_len']}" if "seq_len" in row else row["model"]
        acc = "n/a" if row["test_accuracy"] is None else f"{row['test_accuracy']:.4f}"
        _log(f"  {label:20s} {row['status']:5s} accuracy={acc}")
    print(f"rows={len(rows)}")
    print(f"csv={out / f'{stem}.csv'}")
    return 0


def cmd_compare(args) -> int:
    return _run_grid_command(args, args.models, run_model_comparison, "comparison")


def cmd_sweep(args) -> int:
    try:
        lengths = [int(v) for v in args.lengths.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--lengths must be comma-separated integers: {args.lengths!r}") from exc
    return _run_grid_command(args, args.model, partial(run_seqlen_sweep, lengths=lengths), "sweep")


def cmd_gradcheck(args) -> int:
    if args.scope == "layer":
        results = checks.run_layer_checks(base_seed=args.seed, inject_bug=args.inject_bug)
    else:
        results = checks.run_model_checks(base_seed=args.seed)
    for r in results:
        print(f"{r.name:28s} max_rel_error={r.max_rel_error:.3e} {'PASS' if r.passed() else 'FAIL'}")
    if not all(r.passed() for r in results):
        raise GradCheckError("one or more gradient checks exceeded tolerance 1e-4")
    return 0


def cmd_gen(args) -> int:
    seq_len = (500 if args.task == "longrange" else 50) if args.seq_len is None else args.seq_len
    if args.task == "longrange":
        try:
            lo, hi = (int(v) for v in args.window.split(","))
        except ValueError as exc:
            raise ConfigError(f"--window must be 'lo,hi' integers: {args.window!r}") from exc
        ds = gen_longrange_task(args.n, (lo, hi), seq_len=seq_len, seed=args.seed, vocab_size=args.vocab_size)
    else:
        gen = gen_keyword_task if args.task == "keyword" else gen_order_task
        ds = gen(args.n, vocab_size=args.vocab_size, seq_len=seq_len, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_tsv(ds, out)
    positives = sum(label for _t, label in ds.examples)
    _log(f"wrote {len(ds)} examples ({positives} positive) to {out}")
    print(f"examples={len(ds)}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common_train_flags(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--data", required=True, help="TSV file or review directory")
    p.add_argument("--out", default=f"runs/{command}", help="output directory")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, help=f"init seed S, shuffle seed S+1 (default {DEFAULTS['init_seed']})")
    for key, (kind, text) in OPTIONS.items():
        if text is None:
            continue
        help_ = text if DEFAULTS[key] is None else f"{text} (default {DEFAULTS[key]})"
        if kind is bool:
            p.add_argument("--mlp", dest=key, action="store_const", const=True, help=help_)
        else:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=help_,
                           choices=OPTIMIZERS if key == "optimizer" else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcnnlab",
        description="Train and probe recurrent-convolutional highway text classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model and write checkpoint + report")
    p.add_argument("--model", required=True, help=f"one of: {', '.join(KINDS)} or an ablation variant")
    _add_common_train_flags(p, "train")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint; prints accuracy=<value>")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", help="vocabulary file (default: vocab.txt beside the checkpoint)")
    p.add_argument("--seq-len", dest="seq_len", type=int, help="must match the checkpoint")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="train several architectures and tabulate accuracy")
    p.add_argument("--test-data", dest="test_data", help="optional held-out TSV")
    p.add_argument("--models", required=True,
                   help="comma list; rcnn-hw-ablation expands to the four highway variants")
    _add_common_train_flags(p, "compare")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="retrain over a range of input sequence lengths")
    p.add_argument("--test-data", dest="test_data", help="optional held-out TSV")
    p.add_argument("--model", required=True, help="model name or comma list")
    p.add_argument("--lengths", default=",".join(map(str, SWEEP_LENGTHS)))
    _add_common_train_flags(p, "sweep")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--scope", choices=["layer", "model"], default="layer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-bug", dest="inject_bug", action="store_true",
                   help="add a deliberately broken op (negative control)")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("gen", help="write a synthetic TSV dataset")
    p.add_argument("--task", required=True, choices=["keyword", "order", "longrange"])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seq-len", dest="seq_len", type=int, help="text length (default 50; 500 for longrange)")
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=100)
    p.add_argument("--window", default="200,400", help="longrange signal window 'lo,hi'")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, ShapeError) as exc:
        _log(f"config error: {exc}")
        return 2
    except (DataError, CheckpointError, OSError) as exc:
        _log(f"data error: {exc}")
        return 3
    except NumericError as exc:
        _log(f"numeric abort: {exc}")
        return 4
    except GradCheckError as exc:
        _log(f"verification failure: {exc}")
        return 5


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
