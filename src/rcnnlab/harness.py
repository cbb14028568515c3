"""Training loop, evaluation, experiment drivers, and checkpoint I/O.

A run is fully determined by (init seed, shuffle seed, config): batching,
initialization, and every update are seeded, so identical inputs give
bit-identical reports up to wall-clock timings.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import time
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import Tape, backward
from .data import TextDataset, Vocabulary, batches, encode_dataset
from .errors import CheckpointError, ConfigError, ContractError, NumericError
from .models import (
    Model,
    ModelSpec,
    RECURRENT_KINDS,
    REFERENCE_ACCURACY,
    build_model,
    count_params,
    resolve_model,
)
from .optim import clip_gradients, cross_entropy_loss, make_optimizer

EVAL_BATCH = 64


@dataclass
class TrainConfig:
    spec: ModelSpec
    optimizer: str = "rmsprop"
    lr: float | None = None
    epochs: int = 10
    batch_size: int = 32
    init_seed: int = 0
    shuffle_seed: int = 0
    val_fraction: float = 0.1
    patience: int = 3
    clip_norm: float | None = None  # None -> 5.0 for recurrent kinds, off otherwise

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.init_seed < 0 or self.shuffle_seed < 0:
            raise ConfigError(f"seeds must be >= 0, got init_seed {self.init_seed}, shuffle_seed {self.shuffle_seed}")
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a positive finite number, got {self.lr}")
        if self.clip_norm is not None and not self.clip_norm >= 0:
            raise ConfigError(f"clip_norm must be >= 0 (0 disables clipping), got {self.clip_norm}")

    def resolved_clip_norm(self) -> float | None:
        if self.clip_norm is not None:
            return self.clip_norm if self.clip_norm > 0 else None
        return 5.0 if self.spec.kind in RECURRENT_KINDS else None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["spec"] = self.spec.to_dict()
        return d


@dataclass
class RunReport:
    model_kind: str
    config: dict
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = 0.0
    final_test_accuracy: float | None = None
    version: str = __version__

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    def to_dict(self) -> dict:
        return asdict(self)

    def deterministic_dict(self) -> dict:
        """Report content excluding wall-clock timings, for reproducibility checks."""
        d = self.to_dict()
        d.pop("epoch_seconds")
        return d

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


def split_train_val(dataset: TextDataset, val_fraction: float, seed: int = 13) -> tuple[TextDataset, TextDataset]:
    """Deterministic shuffled split; val_fraction of the tail becomes validation."""
    n = len(dataset)
    order = np.arange(n)
    np.random.default_rng(seed).shuffle(order)
    n_val = int(round(n * val_fraction))
    return dataset.subset(order[: n - n_val], "train"), dataset.subset(order[n - n_val :], "val")


def evaluate(model: Model, dataset: TextDataset, vocab: Vocabulary, seq_len: int) -> float:
    """Argmax-class accuracy; prediction ties break toward the lower class."""
    if len(dataset) == 0:
        raise ContractError("cannot evaluate on an empty dataset")
    correct = 0
    for batch in batches(encode_dataset(dataset, vocab, seq_len), batch_size=EVAL_BATCH):
        probs = model.forward(batch).value
        predictions = np.argmax(probs, axis=1)
        correct += int(np.sum(predictions == batch.labels))
    return correct / len(dataset)


def train(
    config: TrainConfig,
    train_set: TextDataset,
    val_set: TextDataset,
    vocab: Vocabulary,
) -> tuple[Model, RunReport]:
    """Epoch loop: forward, loss, backward, clip, step; keeps the best
    validation parameters and stops early after ``patience`` stale epochs.
    A non-finite loss, or pre-clip gradient norm, aborts with NumericError
    before the step; it names the first parameter, or gradient, that holds a
    non-finite value."""
    model = build_model(config.spec, config.init_seed)
    optimizer = make_optimizer(config.optimizer, model.parameters(), lr=config.lr)
    clip_norm = config.resolved_clip_norm()
    seq_len = config.spec.seq_len
    encoded = encode_dataset(train_set, vocab, seq_len)
    report = RunReport(model_kind=config.spec.kind, config=config.to_dict())

    stale = 0
    for epoch in range(config.epochs):
        started = time.perf_counter()
        losses = []
        correct = 0
        seen = 0
        for batch_index, batch in enumerate(batches(encoded, config.batch_size, config.shuffle_seed + epoch)):
            optimizer.zero_grads()
            with Tape() as tape:
                probs = model.forward(batch)
                loss = cross_entropy_loss(probs, batch.labels)
            loss_value = float(loss.value)
            if not np.isfinite(loss_value):  # the scan runs only here, so a finite step pays nothing
                bad = next((n for n, p in model.params.items() if not np.isfinite(p.value).all()), None)
                raise NumericError(f"non-finite loss {loss_value} at epoch {epoch}, batch {batch_index}, "
                                   + (f"first non-finite parameter {bad}" if bad else "all parameters finite"))
            backward(tape, loss)
            # Clipping's pre-clip norm is free; without clipping a bad gradient shows as the next loss.
            if clip_norm is not None and not math.isfinite(norm := clip_gradients(model.parameters(), clip_norm)):
                bad = next((n for n, p in model.params.items() if p.grad is not None and not np.isfinite(p.grad).all()),
                           None)
                raise NumericError(f"non-finite gradient norm {norm} at epoch {epoch}, batch {batch_index}"
                                   + (f", first in {bad}" if bad else ", from finite gradients whose squares overflow"))
            optimizer.step()
            losses.append(loss_value)
            correct += int(np.sum(np.argmax(probs.value, axis=1) == batch.labels))
            seen += batch.size

        report.train_loss.append(float(np.mean(losses)))
        report.train_accuracy.append(correct / seen)
        val_accuracy = evaluate(model, val_set, vocab, seq_len) if len(val_set) else report.train_accuracy[-1]
        report.val_accuracy.append(val_accuracy)
        report.epoch_seconds.append(time.perf_counter() - started)

        if val_accuracy > report.best_val_accuracy or report.best_epoch < 0:
            report.best_val_accuracy = val_accuracy
            report.best_epoch = epoch
            best_snapshot = {name: p.value.copy() for name, p in model.params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    for name, p in model.params.items():
        p.value[...] = best_snapshot[name]
    return model, report


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

COMPARISON_COLUMNS = ("model", "status", "test_accuracy", "best_val_accuracy", "epochs_run",
                      "train_seconds", "trainable_params", "reference_accuracy", "error")
SWEEP_COLUMNS = ("model", "seq_len", "status", "test_accuracy", "best_val_accuracy", "train_seconds", "error")
SWEEP_LENGTHS = (100, 200, 300, 400, 500)


def _run_grid(
    config: TrainConfig,
    model_names: list[str],
    lengths: list[int],
    columns: tuple[str, ...],
    train_set: TextDataset,
    val_set: TextDataset,
    test_set: TextDataset,
    vocab: Vocabulary,
) -> list[dict]:
    """Train every (model, length) pair from scratch with the same data order
    and test it; one row of ``columns`` per pair, None where a value is
    missing. The i-th length initializes with ``init_seed + 101*i``, so the
    first keeps the config's seed. A failing pair is recorded in its row
    without stopping the rest."""
    if not model_names:
        raise ConfigError("model list is empty")
    rows = []
    for name in model_names:
        for index, seq_len in enumerate(lengths):
            row = {"model": name, "seq_len": seq_len, "status": "ok", "error": "",
                   "reference_accuracy": REFERENCE_ACCURACY.get(name)}
            try:
                spec = replace(resolve_model(name, config.spec), seq_len=seq_len)
                cfg = replace(config, spec=spec, init_seed=config.init_seed + 101 * index)
                started = time.perf_counter()
                model, report = train(cfg, train_set, val_set, vocab)
                row["train_seconds"] = round(time.perf_counter() - started, 3)
                row.update(test_accuracy=evaluate(model, test_set, vocab, seq_len),
                           best_val_accuracy=report.best_val_accuracy,
                           epochs_run=report.epochs_run, trainable_params=model.num_params())
            except Exception as exc:  # keep the remaining pairs running
                row.update(status="error", error=f"{type(exc).__name__}: {exc}")
            rows.append({key: row.get(key) for key in columns})
    return rows


def run_model_comparison(
    config: TrainConfig,
    model_names: list[str],
    train_set: TextDataset,
    val_set: TextDataset,
    test_set: TextDataset,
    vocab: Vocabulary,
) -> list[dict]:
    """Train each architecture with identical seeds and data order at the
    config's sequence length; one row per model."""
    return _run_grid(config, model_names, [config.spec.seq_len], COMPARISON_COLUMNS,
                     train_set, val_set, test_set, vocab)


def run_seqlen_sweep(
    config: TrainConfig,
    model_names: list[str],
    train_set: TextDataset,
    val_set: TextDataset,
    test_set: TextDataset,
    vocab: Vocabulary,
    lengths: list[int] = SWEEP_LENGTHS,
) -> list[dict]:
    """Retrain each model from scratch at every sequence length and record
    accuracy; one row per (model, length)."""
    lengths = [int(v) for v in lengths]
    if not lengths or any(v < 1 for v in lengths) or sorted(lengths) != lengths:
        raise ConfigError(f"lengths must be ascending positive integers, got {lengths}")
    return _run_grid(config, model_names, lengths, SWEEP_COLUMNS, train_set, val_set, test_set, vocab)


def write_rows(rows: list[dict], csv_path, json_path=None) -> None:
    """CSV with a header row, plus an identical-content JSON mirror."""
    if not rows:
        raise ContractError("no rows to write")
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    if json_path is not None:
        Path(json_path).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"RCHW"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: Model, path) -> None:
    """Binary container: magic, u32 version, u32 header length, JSON header
    (spec + tensor manifest with shapes and byte offsets), float64 LE payload."""
    manifest = []
    offset = 0
    chunks = []
    for name, p in model.params.items():
        raw = np.ascontiguousarray(p.value, dtype="<f8").tobytes()
        manifest.append({"name": name, "shape": list(p.value.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    header = json.dumps({"spec": model.spec.to_dict(), "tensors": manifest}).encode("utf-8")
    # Written beside the target and renamed over it, so a failed or
    # interrupted save leaves any previous checkpoint at ``path`` intact.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Model:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"missing checkpoint file: {path}")
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic bytes)")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    header_len = struct.unpack("<I", blob[8:12])[0]
    if len(blob) < 12 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    payload = blob[12 + header_len :]
    # Every lookup of a header-derived value sits in this block, so a header
    # that is valid JSON but not a valid checkpoint is a CheckpointError too.
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
        spec = ModelSpec.from_dict(header["spec"])
        # Checked before the model is built, so a corrupt size cannot allocate.
        size = count_params(spec) * 8
        if len(payload) != size:
            problem = "truncated" if len(payload) < size else "oversized"
            raise CheckpointError(f"{path}: {problem} payload for a {spec.kind} model ({len(payload)} of {size} bytes)")
        manifest = [(m["name"], tuple(m["shape"]), m["offset"]) for m in header["tensors"]]
        model = build_model(spec, rng_seed=0)
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from exc

    if [name for name, _shape, _offset in manifest] != list(model.params):
        raise CheckpointError(f"{path}: tensor manifest does not match the model's parameter set")
    # Tensors lie back to back, as saved; the payload length is checked above.
    expected = 0
    for name, shape, offset in manifest:
        p = model.params[name]
        if shape != p.value.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}: {shape} vs {p.value.shape}")
        if type(offset) is not int or offset != expected:
            raise CheckpointError(f"{path}: bad payload offset {offset!r} for {name}, expected {expected}")
        p.value[...] = np.frombuffer(payload, dtype="<f8", count=p.value.size, offset=offset).reshape(p.value.shape)
        expected += p.value.size * 8
    return model
