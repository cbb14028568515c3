"""Training and evaluation benchmark for rcnnlab.

Run from the repository root:

    python3 bench/run.py --workload rcnn-hw-long --seed 1 --seconds 6 --trace 0
    python3 bench/run.py --workload cnn-paper --seed 1 --seconds 6 --trace 1
    python3 bench/run.py --repeat 10 --seed 1 --seconds 6 [--workload NAME]

One run generates the workload's inputs from ``--seed``, then drives the
package's public path: set-up (``load_tsv``, ``split_train_val``,
``build_vocab``, repeated, median reported), ``harness.train`` for a fixed
number of epochs, and ``harness.evaluate`` on a held-out test split, repeated
for ``--seconds`` in all, half before training on the initial model and half
after it on the trained one.
Correctness checks follow. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a second, traced training run
with ``--trace 1``. ``--repeat N`` runs each workload N times in fresh
processes with seeds seed..seed+N-1 and prints the median and quartiles of
every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The seed drives the inputs only; initialisation and batch order are fixed
# (the CLI's defaults), so runs differ by their data alone.
INIT_SEED, SHUFFLE_SEED = 0, 1
BATCH_SIZE = 32
MAX_VOCAB = 20000  # the CLI's default; cow-vocab20k fills it
# On a shared machine core speed drifts by up to +-20% over a few seconds, so
# set-up and evaluation, each well under two seconds long, are repeated and
# their median reported. Evaluation is timed in two windows, before and after
# training, so that its samples span the run rather than one stretch of drift.
MIN_SETUP_REPEATS, MAX_SETUP_REPEATS, SETUP_SECONDS = 3, 30, 1.5
MIN_EVAL_REPEATS, MAX_EVAL_REPEATS = 3, 100  # per window
# Share of a traced step's wall time that its timed parts must cover; the
# rest is loop bookkeeping and freeing the previous step's tape.
TRACE_ACCOUNTED_PCT = 85.0


def parse_args(argv):
    p = argparse.ArgumentParser(description="rcnnlab training/evaluation benchmark")
    p.add_argument("--workload", help="workload name; with --repeat, omit to run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=6.0, help="evaluation time, split over two windows")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="run each workload N times and summarise")
    return p.parse_args(argv)


class Operations:
    """Counts operations: training steps, evaluation batches and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, n: int) -> None:
        self.attempted += n

    def check(self, fn, *args) -> None:
        """Run a check returning one ``(name, passed, detail)`` or a list of them.
        A check that raises is one failed check, not a crashed run."""
        try:
            results = fn(*args)
        except Exception:  # noqa: BLE001 - reported and counted as a failure
            traceback.print_exc()
            results = (fn.__name__, False, "raised")
        for name, passed, detail in [results] if isinstance(results, tuple) else results:
            self.attempted += 1
            self.failed += not passed
            print(f"check {name}: {'ok' if passed else 'FAILED'} ({detail})", file=sys.stderr)


def repeat_until(minimum: int, maximum: int, keep_going, fn) -> tuple[list[float], object]:
    """Wall times of ``fn()``, run at least ``minimum`` times, then while
    ``keep_going(times)`` holds, up to ``maximum`` times; and its last result."""
    times, result = [], None
    while len(times) < minimum or (len(times) < maximum and keep_going(times)):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return times, result


def run_once(args) -> dict:
    from rcnnlab import data, harness, models
    import tracer as tracing
    import verify
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    ops = Operations()
    tracer = tracing.Tracer() if args.trace else None

    def traced():
        return tracer.installed() if tracer else nullcontext()

    work = WORK / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        pool, test_set = w.generate(args.seed)
        data.write_tsv(pool, work / "pool.tsv")

        def setup():
            train, val = harness.split_train_val(data.load_tsv(work / "pool.tsv"), w.val_fraction)
            return train, val, data.build_vocab(train, max_size=MAX_VOCAB)

        with traced():
            setup_times, (train_set, val_set, vocab) = repeat_until(
                MIN_SETUP_REPEATS, MAX_SETUP_REPEATS, lambda times: sum(times) < SETUP_SECONDS, setup
            )
        if (len(train_set), len(val_set), len(test_set)) != (w.n_train, w.n_val, w.n_test):
            raise SystemExit(f"{w.name}: split sizes {len(train_set)}/{len(val_set)}/{len(test_set)} are not as declared")
        setup_calls = tracer.take()[1] if tracer else {}

        config = harness.TrainConfig(
            spec=w.spec(len(vocab)), lr=w.lr, epochs=w.epochs, batch_size=BATCH_SIZE,
            init_seed=INIT_SEED, shuffle_seed=SHUFFLE_SEED, val_fraction=w.val_fraction,
            patience=w.epochs,
        )
        train_ops = w.epochs * (math.ceil(w.n_train / BATCH_SIZE) + math.ceil(w.n_val / harness.EVAL_BATCH))
        eval_ops = math.ceil(w.n_test / harness.EVAL_BATCH)

        def evaluate(m):
            return harness.evaluate(m, test_set, vocab, w.seq_len)

        def eval_window(fn):
            return repeat_until(MIN_EVAL_REPEATS, MAX_EVAL_REPEATS, lambda times: sum(times) < args.seconds / 2, fn)[0]

        # The first window evaluates the initial model that harness.train starts
        # from; the forward pass costs the same whatever the weights.
        initial = models.build_model(config.spec, INIT_SEED)
        eval_times = eval_window(lambda: evaluate(initial))
        del initial

        started = time.perf_counter()
        model, report = harness.train(config, train_set, val_set, vocab)
        train_s = time.perf_counter() - started
        ops.add(train_ops)

        if tracer:
            with tracer.installed():
                started = time.perf_counter()
                traced_model, traced_report = harness.train(config, train_set, val_set, vocab)
                traced_train_s = time.perf_counter() - started
            ops.add(train_ops)
            steps, train_calls, train_counts = tracer.take()
            ops.check(verify.same_training, model, report, traced_model, traced_report)

        accuracies = []
        with traced():
            eval_times += eval_window(lambda: accuracies.append(evaluate(model)))
        ops.add(eval_ops * len(eval_times))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        test_accuracy = accuracies[0]

        encoded = data.encode_dataset(test_set, vocab, w.seq_len)
        ops.check(verify.deterministic_evaluation, accuracies)
        ops.check(verify.oracle_checks, model, encoded, test_accuracy)
        ops.check(verify.gradient_check, model, encoded, args.seed)
        ops.check(verify.checkpoint_check, model, work / "model.rchw", test_set, vocab, test_accuracy)
        ops.add(eval_ops)
        ops.check(verify.learning_checks, w, report, test_accuracy)

        if not tracer:
            metrics = {
                "train_examples_per_s": (w.epochs * w.n_train / train_s, "examples/s"),
                "eval_examples_per_s": (w.n_test / statistics.median(eval_times), "examples/s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
                "test_accuracy": (test_accuracy, "fraction"),
            }
        else:
            m = tracing.step_metrics(steps)
            ops.check(verify.trace_accounts_for_step, m, TRACE_ACCOUNTED_PCT)
            eval_calls = tracer.take()[1]
            m.update({
                "models.forward_eval_ms": tracing.median_ms(eval_calls["models.forward_eval"]),
                "data.load_tsv_ms": tracing.median_ms(setup_calls["data.load_tsv"]),
                "data.build_vocab_ms": tracing.median_ms(setup_calls["data.build_vocab"]),
                "data.encode_dataset_ms": 1000.0 * sum(train_calls["data.encode_dataset"]) / w.epochs,
                "data.encode_dataset_calls": train_counts["data.encode_dataset"],
                "harness.epoch_s": statistics.median(traced_report.epoch_seconds),
                "harness.val_eval_ms": tracing.median_ms(train_calls["harness.evaluate"]),
                "harness.final_loss": traced_report.train_loss[-1],
                "trace.overhead_pct": 100.0 * (traced_train_s / train_s - 1.0),
            })
            metrics = {name: (m[name], unit) for name, unit in tracing.per_layer_names()}
        return {
            "correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def repeat(args, names) -> int:
    """Run each workload N times in fresh processes; print median and quartiles."""
    summary = {}
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append((wall, result))
            print(f"{name} seed {seed}: {wall:.1f}s {json.dumps(result)}", file=sys.stderr)
        rows = {}
        for metric, first in runs[0][1]["metrics"].items():
            values = [r["metrics"][metric]["value"] for _, r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[metric] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median if median else None, "values": values}
            spread = "n/a" if rows[metric]["spread"] is None else f"{rows[metric]['spread']:.3f}"
            print(f"{name:14s} {metric:34s} median {median:12.5g} {first['unit']:11s} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread}")
        walls = [wall for wall, _ in runs]
        summary[name] = {
            "runs": len(runs),
            "correct": all(r["correct"] for _, r in runs),
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "wall_s": {"median": statistics.median(walls), "max": max(walls)},
            "metrics": rows,
        }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rcnnlab" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread whatever the environment says: the machine has few cores
    # and thread scheduling would add spread. Set before numpy is imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import rcnnlab

    if Path(rcnnlab.__file__).resolve().parent != (SRC / "rcnnlab").resolve():
        print(f"error: imported rcnnlab from {rcnnlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args, [args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        print("error: --workload is required without --repeat", file=sys.stderr)
        return 2
    print(json.dumps(run_once(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
