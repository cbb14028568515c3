"""Correctness checks run at the end of every workload run.

Each check returns ``(name, passed, detail)`` and counts as one operation.
The references are independent: ``oracle`` re-derives the forward pass in
plain numpy, and the gradient check differentiates that oracle's loss by
central differences, so neither compares against a saved copy of today's
output.
"""

from __future__ import annotations

import math

import numpy as np

import oracle
from rcnnlab import autodiff, data, harness, optim
from rcnnlab.models import ModelSpec, build_model

ORACLE_TOLERANCE = 1e-10  # max |p_package - p_oracle| over class probabilities
ROW_SUM_TOLERANCE = 1e-12
FD_TOLERANCE = 1e-4  # max relative error, analytic vs central difference
FD_BATCH = 4
FD_COORDS_PER_TENSOR = 2
FD_STEP = 1e-5  # relative to max(1, |coordinate|)
FD_FLOOR = 1e-6  # gradients below this are compared in absolute terms
FD_SEQ_LEN = 50


def _oracle_spec(model) -> dict:
    spec = model.spec
    return {"cnn_windows": spec.cnn_windows, "highway_layers": spec.highway_layers}


def _params(model) -> dict:
    return {name: p.value for name, p in model.params.items()}


def _same_params(a, b) -> bool:
    return list(a.params) == list(b.params) and all(
        a.params[k].value.tobytes() == p.value.tobytes() for k, p in b.params.items()
    )


def oracle_checks(model, encoded: data.EncodedBatch, test_accuracy: float) -> list[tuple[str, bool, str]]:
    """Package probabilities against the oracle on the first evaluation batch,
    and the oracle's accuracy over the whole test split against ``evaluate``."""
    kind, spec, params = model.spec.kind, _oracle_spec(model), _params(model)
    head = slice(0, harness.EVAL_BATCH)
    first = data.EncodedBatch(encoded.ids[head], encoded.lengths[head], encoded.labels[head])
    probs = model.forward(first).value
    gap = float(np.max(np.abs(probs - oracle.forward(params, kind, first.ids, first.lengths, **spec))))
    row_gap = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    correct = 0
    for start in range(0, encoded.size, harness.EVAL_BATCH):
        part = slice(start, start + harness.EVAL_BATCH)
        p = oracle.forward(params, kind, encoded.ids[part], encoded.lengths[part], **spec)
        correct += int(np.sum(np.argmax(p, axis=1) == encoded.labels[part]))
    oracle_accuracy = correct / encoded.size
    return [
        ("probs_match_oracle", gap <= ORACLE_TOLERANCE, f"max |dp| = {gap:.3e}"),
        ("rows_sum_to_one", row_gap <= ROW_SUM_TOLERANCE, f"max |sum - 1| = {row_gap:.3e}"),
        ("oracle_accuracy_matches_evaluate", oracle_accuracy == test_accuracy,
         f"oracle {oracle_accuracy} vs evaluate {test_accuracy}"),
    ]


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), FD_FLOOR)


def gradient_check(model, encoded: data.EncodedBatch, seed: int) -> tuple[str, bool, str]:
    """Analytic gradients of the package's loss against central differences of
    the oracle's loss, on sampled coordinates of every parameter tensor.

    The trained weights run on the first ``FD_SEQ_LEN`` tokens of a small
    batch; parameter shapes do not depend on the sequence length. The relu
    and max-pool choices of the unperturbed oracle pass are replayed in every
    perturbed one, so a step that crosses a kink still differences one smooth
    piece: trained models hold relu inputs and max-pool ties closer to their
    boundary than any usable step, often enough that every coordinate of a
    small tensor can sit at one.
    """
    seq_len = min(FD_SEQ_LEN, model.spec.seq_len)
    short = build_model(ModelSpec.from_dict({**model.spec.to_dict(), "seq_len": seq_len}), rng_seed=0)
    for name, p in short.params.items():
        p.value[...] = model.params[name].value
    pick = slice(0, FD_BATCH)
    batch = data.EncodedBatch(
        encoded.ids[pick, :seq_len], np.minimum(encoded.lengths[pick], seq_len), encoded.labels[pick]
    )
    with autodiff.Tape() as tape:
        loss = optim.cross_entropy_loss(short.forward(batch), batch.labels)
    autodiff.backward(tape, loss)

    kind, spec, params = short.spec.kind, _oracle_spec(short), _params(short)
    recorded = oracle.Selections()
    oracle.loss(params, kind, batch.ids, batch.lengths, batch.labels, selections=recorded, **spec)

    def central(name: str, index: int, step: float) -> float:
        values = []
        for sign in (1.0, -1.0):
            bumped = params[name].copy()
            bumped.flat[index] += sign * step
            values.append(oracle.loss({**params, name: bumped}, kind, batch.ids, batch.lengths, batch.labels,
                                      selections=oracle.Selections(frozen=recorded), **spec))
        return (values[0] - values[1]) / (2.0 * step)

    rng = np.random.default_rng(seed)
    worst, worst_at, checked = 0.0, "", 0
    for name, p in short.params.items():
        grad = np.zeros_like(p.value) if p.grad is None else p.grad
        flat = np.abs(grad).reshape(-1)
        # Coordinates whose gradient is within 100x of the tensor's largest.
        candidates = np.flatnonzero(flat >= 1e-2 * flat.max()) if flat.max() > 0 else np.arange(flat.size)
        for index in rng.permutation(candidates)[:FD_COORDS_PER_TENSOR]:
            step = FD_STEP * max(1.0, abs(float(p.value.flat[index])))
            error = _rel(float(grad.flat[index]), central(name, index, step))
            if error >= worst:
                worst, worst_at = error, f"{name}[{index}]"
            checked += 1
    return ("gradients_match_finite_differences", worst <= FD_TOLERANCE,
            f"max rel error {worst:.3e} at {worst_at}; {checked} coordinates")


def checkpoint_check(model, path, test_set, vocab, test_accuracy: float) -> tuple[str, bool, str]:
    harness.save_checkpoint(model, path)
    loaded = harness.load_checkpoint(path)
    same = _same_params(loaded, model)
    accuracy = harness.evaluate(loaded, test_set, vocab, model.spec.seq_len)
    return ("checkpoint_roundtrip", same and accuracy == test_accuracy,
            f"bit-identical={same}, accuracy {accuracy} vs {test_accuracy}")


def same_training(model, report, traced_model, traced_report) -> tuple[str, bool, str]:
    """The tracing wrappers must not change what training computes."""
    same = _same_params(traced_model, model)
    return ("tracing_leaves_training_unchanged", same and traced_report.train_loss == report.train_loss,
            f"bit-identical parameters: {same}")


def deterministic_evaluation(accuracies: list[float]) -> tuple[str, bool, str]:
    return ("evaluate_is_deterministic", len(set(accuracies)) == 1, f"{len(accuracies)} repeats agree")


def trace_accounts_for_step(m: dict, min_pct: float) -> tuple[str, bool, str]:
    """A traced step's timed parts cover its wall time, and every tape node
    was recorded inside a layer call."""
    pct, unowned = m["trace.accounted_pct"], m["unowned_nodes"]
    return ("trace_accounts_for_step", min_pct <= pct <= 100.0 and unowned == 0,
            f"{pct:.1f}% of a step's wall time in timed parts, {unowned} nodes outside layer calls")


def learning_checks(workload, report, test_accuracy: float) -> list[tuple[str, bool, str]]:
    final_loss = report.train_loss[-1]
    return [
        ("trained_every_epoch", report.epochs_run == workload.epochs,
         f"{report.epochs_run} of {workload.epochs} epochs"),
        ("accuracy_above_floor", test_accuracy > workload.accuracy_floor,
         f"test accuracy {test_accuracy} vs floor {workload.accuracy_floor}"),
        ("final_loss_below_ln2", final_loss < math.log(2.0), f"final loss {final_loss:.4f}"),
    ]
