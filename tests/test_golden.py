"""Seeded training is bit-exact against recorded digests (see ``golden.py``)."""

import hashlib
import json

import pytest
from golden import CASES, DIGESTS, DRIFT_BOUND, SIZES, drift, pinned, trained

from rcnnlab import harness

GOLDEN = json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def computed():
    return pinned()


def test_digest_file_lists_every_case():
    assert list(GOLDEN["digests"]) == CASES


@pytest.mark.parametrize("case", CASES)
def test_training_matches_golden_digest(case, computed):
    here, recorded = computed["configuration"], GOLDEN["configuration"]
    if here != recorded:
        differ = ", ".join(f"{k}: {recorded.get(k)!r} recorded, {here.get(k)!r} here"
                           for k in sorted(set(here) | set(recorded)) if here.get(k) != recorded.get(k))
        pytest.skip(f"digests were recorded on another configuration ({differ})")
    assert computed["digests"][case] == GOLDEN["digests"][case]


def test_clipped_case_scales_every_step_on_a_strict_subset_of_rows(monkeypatch):
    """The clipped case reaches clipping with the table's gradient row-compact
    on fewer rows than the table has, and every step's norm exceeds the cap."""
    calls, clip = [], harness.clip_gradients

    def counting(params, max_norm):
        table = params[0]
        calls.append((table.row_sums is not None and len(table.grad_rows) < len(table.value), clip(params, max_norm)))
        return calls[-1][1]

    monkeypatch.setattr(harness, "clip_gradients", counting)
    trained("rcnn-hw/rmsprop/clipped")
    assert len(calls) == 14  # two epochs of 7 batches: 108 training examples, 16 a batch
    assert all(compact and norm > SIZES["clipped"]["clip_norm"] for compact, norm in calls)


def fake_outcome(tensors, best_epoch=1, val_accuracy=0.5, loss=0.7):
    """An ``outcome()`` as the drift report reads it, with digests of its own content."""
    report = {"train_loss": [0.9, loss], "train_accuracy": [0.5, 0.75], "val_accuracy": [0.25, val_accuracy],
              "best_epoch": best_epoch, "best_val_accuracy": val_accuracy, "final_test_accuracy": None}
    digests = {key: hashlib.sha256(json.dumps(part, sort_keys=True).encode()).hexdigest()
               for key, part in (("checkpoint", tensors), ("report", report))}
    return {"digests": digests, "tensors": tensors, "report": report}


BASE = {"w": [0.5, -2.0, 1.0], "b": [0.0, 0.25]}


def test_drift_report_passes_equal_cases():
    lines, ok = drift({"a/x/small": fake_outcome(BASE)}, {"a/x/small": fake_outcome(dict(BASE))})
    assert ok and lines == ["a/x/small: equal"]


def test_drift_report_names_each_moved_tensor():
    """w moves by 2⁻⁵⁰ of its largest entry; b does not, and is not listed."""
    moved = {"w": [0.5, -2.0, 1.0 + 2.0**-49], "b": BASE["b"]}
    lines, ok = drift({"a/x/small": fake_outcome(BASE)}, {"a/x/small": fake_outcome(moved, loss=0.7 + 1e-16)})
    assert ok
    assert lines[0].startswith("a/x/small: checkpoint moved, report moved; 1 of 2 tensors moved, max|Δ|/max|p| 8.88e-16")
    assert "train loss max|Δ| 1.11e-16; accuracies equal; best_epoch equal" in lines[0]
    assert lines[1:] == ["    w: max|Δ| 1.78e-15, max|Δ|/max|p| 8.88e-16"]


@pytest.mark.parametrize("base,change", [
    (BASE, fake_outcome({"w": [0.5, -2.0, 1.0 + 4 * DRIFT_BOUND], "b": BASE["b"]})),
    ({"z": [0.0, 0.0]}, fake_outcome({"z": [0.0, 1e-300]})),
    (BASE, fake_outcome(BASE, best_epoch=0)),
    (BASE, fake_outcome(BASE, val_accuracy=0.75)),
], ids=["beyond-bound", "zero-tensor-moves", "best-epoch", "accuracy"])
def test_drift_report_fails(base, change):
    lines, ok = drift({"a/x/small": fake_outcome(base)}, {"a/x/small": change})
    assert not ok and lines[0] != "a/x/small: equal"
