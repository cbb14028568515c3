"""Smoke test of ``bench/tracer.py`` over the package: it wraps package
functions by name, so a renamed one fails here in under a second instead of in
every traced benchmark run."""

import importlib.util
import math
from pathlib import Path

import pytest

from rcnnlab import layers, optim
from rcnnlab.data import build_vocab, gen_keyword_task
from rcnnlab.harness import TrainConfig, split_train_val, train
from rcnnlab.models import ModelSpec

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind,nodes", [("cow", 3), ("rcnn-hw", 6), ("cnn", 7)])
def test_traced_epoch_times_every_step(tracing, kind, nodes):
    """One epoch of a tiny model under the tracer: every training step is
    timed, ``optim.step`` and the backward among its parts, every tape node
    has an owner, and the package's functions are restored afterwards."""
    ds = gen_keyword_task(96, vocab_size=40, seq_len=12, seed=55)
    vocab = build_vocab(ds, min_freq=1)
    train_set, val_set = split_train_val(ds, 0.25)
    spec = ModelSpec(kind=kind, vocab_size=len(vocab), seq_len=12, embed_dim=6, hidden_dim=3, num_filters=8)
    config = TrainConfig(spec=spec, epochs=1, batch_size=16, init_seed=4, shuffle_seed=5)
    originals = layers.embed, optim.RmsProp.step, optim.clip_gradients
    tracer = tracing.Tracer()
    with tracer.installed():
        train(config, train_set, val_set, vocab)
    assert (layers.embed, optim.RmsProp.step, optim.clip_gradients) == originals
    steps, _calls, counts = tracer.take()
    assert len(steps) == counts["optim.step"] == math.ceil(len(train_set) / 16)
    assert all(s["optim.step"] > 0 and s["autodiff.backward"] > 0 for s in steps)
    metrics = tracing.step_metrics(steps)
    assert metrics["autodiff.nodes_per_step"] == nodes and metrics["unowned_nodes"] == 0
