"""Seeded training is bit-exact against recorded digests (see ``golden.py``)."""

import json

import pytest
from golden import CASES, DIGESTS, pinned

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
