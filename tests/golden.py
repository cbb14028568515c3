"""Golden training digests: every model kind and ablation name, trained with
each optimizer on a generated keyword task, reduced to the SHA-256 of its
checkpoint bytes and of its report's ``deterministic_dict()``.

A few desk-size cases (T=64, embed 16, hidden 8, 32 filters) ride along,
because the smallest shapes can miss the BLAS paths where sums reorder. One
``rcnn-hw`` case at T=75 ends the forward's blocks early: its batches of
16·75 = 1,200 positions are no multiple of the highway's 512-row blocks, and
75 steps no multiple of the recurrence's 32-step time blocks. One
``rcnn-hw`` case clips: its clip norm of 0.05 lies below every step's
pre-clip norm, so every step scales its gradients, and its 400 filler words
are more than one batch looks up, so the table's gradient is row-compact on
a strict subset of its rows when it is scaled.

Float bits are not portable across numpy versions, BLAS builds, CPUs or
BLAS thread counts, so ``golden_digests.json`` records the configuration it
was made on and ``test_golden.py`` skips on any other. Digests are computed
in one child process with one BLAS thread, as ``bench/run.py`` trains, so
they do not depend on the host's core count. After a change that moves
training bits on purpose, regenerate the file and name the digests that
changed, and why, in CHANGES.md. Before that, the drift report trains every
case on this checkout's package and on the one at REV and says, case by case,
how far the parameters and losses moved; it fails if an accuracy or
``best_epoch`` changed or any tensor moved by more than ``DRIFT_BOUND`` of
its largest entry:

    PYTHONPATH=src python tests/golden.py --against REV
    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

from rcnnlab.data import build_vocab, gen_keyword_task
from rcnnlab.harness import TrainConfig, save_checkpoint, split_train_val, train
from rcnnlab.models import ABLATION_VARIANTS, KINDS, ModelSpec, resolve_model
from rcnnlab.optim import OPTIMIZERS

DIGESTS = Path(__file__).with_name("golden_digests.json")
ROOT = Path(__file__).resolve().parents[1]
# The largest max|Δ| / max|p| of any tensor that the drift report accepts. Changes that reordered
# float sums on purpose moved parameters by at most 1.9e-14 of their largest entry; a real bug moves
# them by far more than 1e-12 in the two epochs a case trains.
DRIFT_BOUND = 1e-12
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SIZES = {
    "small": {"seq_len": 16, "embed_dim": 6, "hidden_dim": 3, "num_filters": 5},
    "desk": {"seq_len": 64, "embed_dim": 16, "hidden_dim": 8, "num_filters": 32},
    "ragged": {"seq_len": 75, "embed_dim": 16, "hidden_dim": 8, "num_filters": 32},
    "clipped": {"seq_len": 16, "embed_dim": 6, "hidden_dim": 3, "num_filters": 5, "filler": 400, "clip_norm": 0.05},
}
DESK_NAMES = ("cnn", "rcnn", "rcnn-hw", "rcnn-hw-2", "rcnn-hw-mlp", "lstm-avg", "bilstm-avg", "cnn-lstm")

CASES = [f"{name}/{opt}/small" for name in (*KINDS, *ABLATION_VARIANTS) for opt in sorted(OPTIMIZERS)]
CASES += [f"{name}/rmsprop/desk" for name in DESK_NAMES]
CASES += ["rcnn-hw/rmsprop/ragged", "rcnn-hw/rmsprop/clipped"]


def configuration() -> dict:
    """What the float bits of a training run depend on besides the code."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "machine": platform.machine(),
        "simd": sorted(config.get("SIMD Extensions", {}).get("found", [])),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", 0)),  # 0: the BLAS default
    }


def same_blas() -> bool:
    """Whether numpy, its BLAS and the CPU are those the digests were recorded on, at any thread count."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["configuration"]
    return all(recorded[k] == v for k, v in configuration().items() if k != "blas_threads")


def trained(case: str):
    """Train ``case`` ("name/optimizer/size") for two epochs: the model and its report."""
    name, optimizer, size = case.split("/")
    dims = dict(SIZES[size])
    filler, clip_norm = dims.pop("filler", 30), dims.pop("clip_norm", None)  # None: the model kind's default
    dataset = gen_keyword_task(120, vocab_size=filler, seq_len=dims["seq_len"], seed=5)
    vocab = build_vocab(dataset, min_freq=1)
    train_set, val_set = split_train_val(dataset, 0.1)
    spec = resolve_model(name, ModelSpec(kind="cnn", vocab_size=len(vocab), **dims))
    config = TrainConfig(spec=spec, optimizer=optimizer, epochs=2, batch_size=16, init_seed=3, shuffle_seed=4,
                         clip_norm=clip_norm)
    return train(config, train_set, val_set, vocab)


def digest(model, report) -> dict:
    """The SHA-256 of a trained model's checkpoint bytes and of its report's ``deterministic_dict()``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.rchw"
        save_checkpoint(model, path)
        checkpoint = path.read_bytes()
    blob = json.dumps(report.deterministic_dict(), sort_keys=True).encode("utf-8")
    return {"checkpoint": hashlib.sha256(checkpoint).hexdigest(), "report": hashlib.sha256(blob).hexdigest()}


def outcome(case: str) -> dict:
    """``case``'s digests, its trained tensors flattened, and its report's ``deterministic_dict()``."""
    model, report = trained(case)
    tensors = {name: v.value.ravel().tolist() for name, v in model.params.items()}
    return {"digests": digest(model, report), "tensors": tensors, "report": report.deterministic_dict()}


def computed() -> dict:
    """The configuration and every case's digest, in this process."""
    return {"configuration": configuration(), "digests": {case: digest(*trained(case)) for case in CASES}}


def outcomes() -> dict:
    """Every case's ``outcome``, in this process."""
    return {case: outcome(case) for case in CASES}


def pinned(src: Path = ROOT / "src", call: str = "computed()") -> dict:
    """``golden.<call>`` in one child process with one BLAS thread, importing the package from ``src``."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(src), str(here), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    code = f"import json, golden; print(json.dumps(golden.{call}))"
    return json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout)


def extract_src(rev: str, into: Path) -> Path:
    """REV's ``src/`` from the local object store, with ``git archive``, under ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


ACCURACIES = ("train_accuracy", "val_accuracy", "best_val_accuracy", "final_test_accuracy")


def drift(base: dict, change: dict) -> tuple[list[str], bool]:
    """Compare two ``outcomes()`` case by case: the report's lines, and whether
    every accuracy and ``best_epoch`` is equal and no tensor moved by more than
    ``DRIFT_BOUND`` of its largest entry in ``base``."""
    lines, ok = [], True
    for case, old in base.items():
        new = change[case]
        if old["digests"] == new["digests"]:
            lines.append(f"{case}: equal")
            continue
        worst, rows = 0.0, []
        for name, values in old["tensors"].items():
            p, q = np.asarray(values), np.asarray(new["tensors"][name])
            delta = float(np.abs(q - p).max())
            if delta > 0.0:
                scale = float(np.abs(p).max())
                rel = delta / scale if scale > 0.0 else float("inf")
                worst = max(worst, rel)
                rows.append(f"    {name}: max|Δ| {delta:.2e}, max|Δ|/max|p| {rel:.2e}")
        a, b = old["report"], new["report"]
        loss = max(abs(x - y) for x, y in zip(a["train_loss"], b["train_loss"]))
        accuracies, best = all(a[key] == b[key] for key in ACCURACIES), a["best_epoch"] == b["best_epoch"]
        ok = ok and accuracies and best and worst <= DRIFT_BOUND
        moved = ", ".join(f"{key} {'equal' if old['digests'][key] == new['digests'][key] else 'moved'}"
                          for key in ("checkpoint", "report"))
        lines.append(f"{case}: {moved}; {len(rows)} of {len(old['tensors'])} tensors moved, max|Δ|/max|p| {worst:.2e}; "
                     f"train loss max|Δ| {loss:.2e}; accuracies {'equal' if accuracies else 'DIFFER'}; "
                     f"best_epoch {'equal' if best else 'DIFFERS'}")
        lines += rows
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record the golden digests, or report the drift from REV's package.")
    parser.add_argument("--against", metavar="REV", help="train every case on REV's package and on this one, and compare")
    args = parser.parse_args(argv)
    if args.against is None:
        DIGESTS.write_text(json.dumps(pinned(), indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(CASES)} digests to {DIGESTS}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        try:
            src = extract_src(args.against, Path(tmp))
        except subprocess.CalledProcessError as err:
            print(f"cannot extract {args.against}'s src/: {err.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        base = pinned(src, "outcomes()")
    lines, ok = drift(base, pinned(call="outcomes()"))
    moved = sum(not line.startswith(" ") and not line.endswith(": equal") for line in lines)
    print("\n".join(lines))
    print(f"{moved} of {len(base)} cases moved; {'within' if ok else 'OUTSIDE'} the drift bound {DRIFT_BOUND:g}, "
          f"accuracies and best_epoch")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
