"""Golden training digests: every model kind and ablation name, trained with
each optimizer on a generated keyword task, reduced to the SHA-256 of its
checkpoint bytes and of its report's ``deterministic_dict()``.

A few desk-size cases (T=64, embed 16, hidden 8, 32 filters) ride along,
because the smallest shapes can miss the BLAS paths where sums reorder. One
``rcnn-hw`` case at T=75 ends the forward's blocks early: its batches of
16·75 = 1,200 positions are no multiple of the highway's 512-row blocks, and
75 steps no multiple of the recurrence's 32-step time blocks.

Float bits are not portable across numpy versions, BLAS builds, CPUs or
BLAS thread counts, so ``golden_digests.json`` records the configuration it
was made on and ``test_golden.py`` skips on any other. Digests are computed
in one child process with one BLAS thread, as ``bench/run.py`` trains, so
they do not depend on the host's core count. After a change that moves
training bits on purpose, regenerate the file and name the digests that
changed, and why, in CHANGES.md:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from rcnnlab.data import build_vocab, gen_keyword_task
from rcnnlab.harness import TrainConfig, save_checkpoint, split_train_val, train
from rcnnlab.models import ABLATION_VARIANTS, KINDS, ModelSpec, resolve_model
from rcnnlab.optim import OPTIMIZERS

DIGESTS = Path(__file__).with_name("golden_digests.json")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SIZES = {
    "small": {"seq_len": 16, "embed_dim": 6, "hidden_dim": 3, "num_filters": 5},
    "desk": {"seq_len": 64, "embed_dim": 16, "hidden_dim": 8, "num_filters": 32},
    "ragged": {"seq_len": 75, "embed_dim": 16, "hidden_dim": 8, "num_filters": 32},
}
DESK_NAMES = ("cnn", "rcnn", "rcnn-hw", "rcnn-hw-2", "rcnn-hw-mlp", "lstm-avg", "bilstm-avg", "cnn-lstm")

CASES = [f"{name}/{opt}/small" for name in (*KINDS, *ABLATION_VARIANTS) for opt in sorted(OPTIMIZERS)]
CASES += [f"{name}/rmsprop/desk" for name in DESK_NAMES]
CASES += ["rcnn-hw/rmsprop/ragged"]


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


def digest(case: str) -> dict:
    """Train ``case`` ("name/optimizer/size") for two epochs and hash the result."""
    name, optimizer, size = case.split("/")
    dims = SIZES[size]
    dataset = gen_keyword_task(120, vocab_size=30, seq_len=dims["seq_len"], seed=5)
    vocab = build_vocab(dataset, min_freq=1)
    train_set, val_set = split_train_val(dataset, 0.1)
    spec = resolve_model(name, ModelSpec(kind="cnn", vocab_size=len(vocab), **dims))
    config = TrainConfig(spec=spec, optimizer=optimizer, epochs=2, batch_size=16, init_seed=3, shuffle_seed=4)
    model, report = train(config, train_set, val_set, vocab)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.rchw"
        save_checkpoint(model, path)
        checkpoint = path.read_bytes()
    blob = json.dumps(report.deterministic_dict(), sort_keys=True).encode("utf-8")
    return {"checkpoint": hashlib.sha256(checkpoint).hexdigest(), "report": hashlib.sha256(blob).hexdigest()}


def computed() -> dict:
    """The configuration and every case's digest, in this process."""
    return {"configuration": configuration(), "digests": {case: digest(case) for case in CASES}}


def pinned() -> dict:
    """``computed()`` in one child process with one BLAS thread."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    code = "import json, golden; print(json.dumps(golden.computed()))"
    return json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout)


def main() -> None:
    DIGESTS.write_text(json.dumps(pinned(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
