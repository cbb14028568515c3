"""Per-layer tracing from outside the package.

``Tracer.installed()`` swaps timing wrappers in for the public functions the
training path calls at each layer boundary, and puts the originals back on
exit. Nothing under ``src/`` knows about it. Spans are kept in memory:

- A training step runs from the moment ``data.batches`` hands ``harness.train``
  a training batch to the moment the loop asks for the next one. Everything
  timed inside that window is summed into the step's accumulator.
- ``layers.<fn>`` calls made by ``Model.forward`` own the tape nodes recorded
  while they run (the outermost call wins, so ``gru_scan``'s inner concats
  are charged to ``gru_scan``). Each node's backward closure is timed when
  ``autodiff.backward`` runs it and charged to the owner that recorded it.
- Calls outside a step (set-up, per-epoch encoding, evaluation) are kept as
  one duration per call.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from rcnnlab import autodiff, data, harness, layers, models, optim

# Layer functions Model.forward calls through ``L.*`` on the benchmark's
# workloads; each gets fwd/bwd/nodes.
LAYER_FNS = (
    "embed", "gru_scan", "birnn_context", "highway_forward", "conv1d_forward",
    "maxpool_over_time", "sum_over_time", "dense_softmax",
)
# The other ``L.*`` functions, timed so that a step's parts add up.
OTHER_LAYER_FNS = ("concat", "dense_relu_positions", "lstm_scan", "mean_over_time")
LOSS = "optim.cross_entropy"

now = time.perf_counter


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for fn in LAYER_FNS:
        names += [(f"layers.{fn}.fwd_ms", "ms"), (f"layers.{fn}.bwd_ms", "ms"), (f"layers.{fn}.nodes", "count")]
    names += [
        ("autodiff.nodes_per_step", "count"), ("autodiff.backward_ms", "ms"), ("autodiff.us_per_node", "us"),
        ("optim.cross_entropy_ms", "ms"), ("optim.clip_gradients_ms", "ms"), ("optim.step_ms", "ms"),
        ("models.forward_train_ms", "ms"), ("models.forward_eval_ms", "ms"),
        ("data.load_tsv_ms", "ms"), ("data.build_vocab_ms", "ms"),
        ("data.encode_dataset_ms", "ms"), ("data.encode_dataset_calls", "count"),
        ("harness.epoch_s", "s"), ("harness.val_eval_ms", "ms"), ("harness.final_loss", "nats"),
        ("trace.step_ms", "ms"), ("trace.accounted_pct", "%"), ("trace.overhead_pct", "%"),
    ]
    return names


class Tracer:
    def __init__(self):
        self.step: defaultdict | None = None  # accumulator of the training step in progress
        self.steps: list[dict] = []
        self.calls: defaultdict[str, list[float]] = defaultdict(list)  # durations outside steps
        self.counts: Counter = Counter()
        self._owner: str | None = None
        self._evaluating = 0
        self._restore: list[tuple[object, str, object]] = []

    def take(self) -> tuple[list[dict], dict, Counter]:
        """Hand over and clear everything recorded since the last take."""
        out = (self.steps, dict(self.calls), self.counts)
        self.steps, self.calls, self.counts = [], defaultdict(list), Counter()
        return out

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for target, attr, original in reversed(self._restore):
                setattr(target, attr, original)
            self._restore.clear()

    def _set(self, target, attr, replacement) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, replacement)

    def _replace(self, original, replacement) -> None:
        """Rebind every package-module name bound to ``original``: modules import
        these functions by name, so patching the defining module alone misses them."""
        for name, module in list(sys.modules.items()):
            if name == "rcnnlab" or name.startswith("rcnnlab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, replacement)

    def _install(self) -> None:
        for fn in LAYER_FNS + OTHER_LAYER_FNS:
            self._set(layers, fn, self._owned(f"layers.{fn}", getattr(layers, fn)))
        self._replace(optim.cross_entropy_loss, self._owned(LOSS, optim.cross_entropy_loss))
        self._replace(autodiff.record, self._record(autodiff.record))
        self._replace(autodiff.backward, self._timed("autodiff.backward", autodiff.backward))
        self._replace(optim.clip_gradients, self._timed("optim.clip_gradients", optim.clip_gradients))
        for cls in set(optim.OPTIMIZERS.values()):
            self._set(cls, "step", self._timed("optim.step", cls.step))
        self._replace(data.batches, self._batches(data.batches))
        for name in ("encode_dataset", "build_vocab", "load_tsv"):
            original = getattr(data, name)
            self._replace(original, self._timed(f"data.{name}", original))
        self._replace(harness.evaluate, self._evaluate(harness.evaluate))
        self._set(models.Model, "forward", self._forward(models.Model.forward))

    # -- wrappers ----------------------------------------------------------

    def _add(self, name: str, seconds: float) -> None:
        self.counts[name] += 1
        if self.step is not None:
            self.step[name] += seconds
        else:
            self.calls[name].append(seconds)

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            started = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, now() - started)
        return timed

    def _owned(self, name, fn):
        """Time a layer call and make it the owner of the tape nodes it records."""
        def owned(*args, **kwargs):
            if self._owner is not None or self.step is None:
                return fn(*args, **kwargs)
            self._owner = name
            started = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.step[name + ".fwd"] += now() - started
                self._owner = None
        return owned

    def _record(self, record):
        def traced_record(op, out, backward_fn):
            step = self.step
            if step is None:
                return record(op, out, backward_fn)
            owner = self._owner or "unowned"

            def timed_backward(g):
                started = now()
                backward_fn(g)
                step[owner + ".bwd"] += now() - started

            result = record(op, out, timed_backward)
            if out.node_id is not None:
                step[owner + ".nodes"] += 1
            return result
        return traced_record

    def _batches(self, batches):
        def traced_batches(*args, **kwargs):
            training = not self._evaluating
            for batch in batches(*args, **kwargs):
                if not training:
                    yield batch
                    continue
                self.step = defaultdict(float)
                started = now()
                try:
                    yield batch
                finally:
                    self.step["step"] = now() - started
                    self.steps.append(self.step)
                    self.step = None
        return traced_batches

    def _evaluate(self, evaluate):
        timed = self._timed("harness.evaluate", evaluate)

        def traced_evaluate(*args, **kwargs):
            self._evaluating += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._evaluating -= 1
        return traced_evaluate

    def _forward(self, forward):
        def traced_forward(model, batch):
            started = now()
            probs = forward(model, batch)
            taped = probs.node_id is not None
            self._add("models.forward_train" if taped else "models.forward_eval", now() - started)
            return probs
        return traced_forward


def median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def step_metrics(steps: list[dict]) -> dict[str, float]:
    """Per-step medians of a traced training run, plus the share of each step's
    wall time that its timed parts account for."""
    out = {}
    for fn in LAYER_FNS:
        key = f"layers.{fn}"
        out[f"{key}.fwd_ms"] = median_ms([s[key + ".fwd"] for s in steps])
        out[f"{key}.bwd_ms"] = median_ms([s[key + ".bwd"] for s in steps])
        out[f"{key}.nodes"] = statistics.median(s[key + ".nodes"] for s in steps) if steps else 0
    nodes = [sum(v for k, v in s.items() if k.endswith(".nodes")) for s in steps]
    out["autodiff.nodes_per_step"] = statistics.median(nodes)
    out["autodiff.backward_ms"] = median_ms([s["autodiff.backward"] for s in steps])
    out["optim.cross_entropy_ms"] = median_ms([s[LOSS + ".fwd"] for s in steps])
    out["optim.clip_gradients_ms"] = median_ms([s["optim.clip_gradients"] for s in steps])
    out["optim.step_ms"] = median_ms([s["optim.step"] for s in steps])
    out["models.forward_train_ms"] = median_ms([s["models.forward_train"] for s in steps])
    out["trace.step_ms"] = median_ms([s["step"] for s in steps])
    out["autodiff.us_per_node"] = 1000.0 * out["trace.step_ms"] / out["autodiff.nodes_per_step"]
    # Backward is counted whole: its closures are charged to layers above, and
    # the rest is the tape walk itself.
    accounted = [
        sum(v for k, v in s.items() if k.endswith(".fwd"))
        + s["autodiff.backward"] + s["optim.clip_gradients"] + s["optim.step"]
        for s in steps
    ]
    out["trace.accounted_pct"] = 100.0 * statistics.median(a / s["step"] for a, s in zip(accounted, steps))
    out["unowned_nodes"] = statistics.median(s["unowned.nodes"] for s in steps)
    return out
