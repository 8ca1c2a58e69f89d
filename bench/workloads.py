"""The three benchmark workloads, driven through eegid's public functions.

Each workload has an untimed preparation (`inputs.prepare`), a set-up
repeated `setup_repeats` times, and an operation repeated back to back by
one client (a closed loop) until the run's seconds are spent:

- enroll: the acceptance job. Set-up is `import eegid` in a fresh
  interpreter. One operation is load_dataset -> prepare_windows ->
  split_dataset (chronological 80/20) -> fit_pipeline (RBF C=100
  gamma=0.01) -> evaluate -> save_model. Features and dataset CSV parsing
  dominate it, with a little SMO.
- identify: the per-call path on short inputs. Set-up is load_model. One
  operation is one request: load_recording_csv -> identify on a 10 s
  segment that follows the model's training data. No SMO at all.
- sweep: what `eegid grid` does, on each of a few feature tables.
  Set-up is load_feature_table for all of them. One operation is, per
  table, the per-class chronological split, fit_standardizer and fit_pca
  on the training rows, then grid_search over the kernel-ordering grid.
  Almost all SMO, no features: the mirror image of identify.

With a tracer, operations alternate traced and untraced, so one run gives
the per-layer spans and the tracing overhead under the same conditions.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import (ACCURACY_FLOOR, FS, MAX_PASSES, OUT, SRC, TRAIN_FRACTION,
                    Size, rbf_kernel)


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # untraced operations
    traced_op_s: list[float] = field(default_factory=list)
    measure_s: float = 0.0  # wall time of the whole closed loop
    failed_ops: int = 0
    attempted: int = 0  # operations; grid cells for sweep
    failed: int = 0
    window_accuracy: float = 0.0  # stays 0 when no operation completed
    checks: list[str] = field(default_factory=list)  # failed correctness checks
    predictions_sha256: str = ""
    extra: dict = field(default_factory=dict)  # name -> (value, unit)


def _span(tracer, name: str, layer: str):
    """A span of the benchmark's own, recorded only while tracing is on."""
    if tracer is None or not tracer.active:
        return contextlib.nullcontext()
    return tracer.span(name, layer)


@contextlib.contextmanager
def _traced(tracer, root: str, request: int | None = None):
    """With a tracer, trace the block under one root span, then untrace."""
    if tracer is None:
        yield
        return
    tracer.install()
    tracer.request = request
    try:
        with tracer.span(root, "bench"):
            yield
    finally:
        tracer.uninstall()
        tracer.request = None


def _run_setup(out: Outcome, repeats: int, tracer, step):
    result = None
    for _ in range(repeats):
        with _traced(tracer, "bench.setup"):
            t0 = time.perf_counter()
            result = step()
            out.setup_s.append(time.perf_counter() - t0)
    return result


def _closed_loop(out: Outcome, seconds: float, min_ops: int, tracer, op,
                 failures: tuple) -> None:
    """Run op(i) back to back for `seconds` and at least `min_ops` times.

    An operation raising one of `failures` counts as failed; anything else
    is a defect in the benchmark or the library and propagates.
    """
    start = time.perf_counter()
    i = 0
    while True:
        # op 0 runs untraced, so first-call costs stay out of the spans
        traced = tracer is not None and i % 2 == 1
        with _traced(tracer if traced else None, "bench.op", i):
            t0 = time.perf_counter()
            try:
                op(i)
            except failures:
                out.failed_ops += 1
            dt = time.perf_counter() - t0
        (out.traced_op_s if traced else out.op_s).append(dt)
        i += 1
        if tracer is None:
            enough = len(out.op_s) >= min_ops
        else:  # medians on both sides; the traced run reports no percentiles
            enough = len(out.op_s) >= 2 and len(out.traced_op_s) >= 2
        if enough and time.perf_counter() - start >= seconds:
            break
    out.measure_s = time.perf_counter() - start
    out.attempted, out.failed = i, out.failed_ops


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def _vote(labels: np.ndarray) -> int:
    """Majority label, ties to the lowest label, as eegid.identify decides."""
    values, counts = np.unique(labels, return_counts=True)
    return int(values[np.argmax(counts)])


# ---------------------------------------------------------------------------
# enroll
# ---------------------------------------------------------------------------

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import eegid; "
                 "print(time.perf_counter() - t)")


def _fresh_import_s() -> float:
    done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


# Library functions are looked up on the `eegid` module at each call, so
# that a traced run sees the wrappers the tracer binds there.

def enroll(inputs: Path, size: Size, seconds: float, tracer=None) -> Outcome:
    import eegid

    out = Outcome(setup_s=[_fresh_import_s() for _ in range(size.import_repeats)])
    flags = eegid.PreprocessFlags()
    kernel = rbf_kernel()
    confusions = []
    last = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        model_path = Path(tmp) / "enroll.model"

        def op(i):
            ds = eegid.load_dataset(inputs / "dataset")
            windows = eegid.prepare_windows(ds, flags)
            train, test = eegid.split_dataset(
                windows, eegid.SplitSpec(train_fraction=TRAIN_FRACTION))
            pipe = eegid.fit_pipeline(train, kernel, flags=flags)
            report = eegid.evaluate(pipe, test)
            eegid.save_model(pipe, model_path)
            confusions.append(report.confusion)
            last.update(pipe=pipe, test=test, report=report)

        _closed_loop(out, seconds, 1, tracer, op, (eegid.errors.EegIdError,))
        if not last:
            out.checks.append("no enroll operation completed")
            return out
        report = last["report"]
        out.window_accuracy = report.accuracy
        if report.accuracy < ACCURACY_FLOOR:
            out.checks.append(f"enroll window accuracy {report.accuracy:.4f} "
                              f"< floor {ACCURACY_FLOOR}")
        if any(not np.array_equal(c, confusions[0]) for c in confusions):
            out.checks.append("enroll confusion matrix differs between operations")
        X, y, _ = eegid.extract_feature_matrix(last["test"])
        pipe = last["pipe"]
        preds = eegid.predict_batch(pipe.svm, pipe.transform(X))
        try:
            reloaded = eegid.load_model(model_path)
            same = np.array_equal(preds, eegid.predict_batch(reloaded.svm,
                                                             reloaded.transform(X)))
        except eegid.errors.EegIdError as e:
            out.checks.append(f"saved model does not reload: {e}")
        else:
            if not same:
                out.checks.append("reloaded model predicts differently from the in-memory model")
        if float(np.mean(preds == y)) != report.accuracy:
            out.checks.append("evaluate() accuracy disagrees with predict_batch()")
        out.predictions_sha256 = _sha256(preds)
        recordings = [_vote(preds[y == sid]) == sid for sid in np.unique(y)]
        out.extra["recording_accuracy"] = (float(np.mean(recordings)), "fraction")
        out.extra["model_bytes"] = (model_path.stat().st_size, "bytes")
        out.extra["test_windows"] = (int(y.size), "count")
    return out


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

def identify(inputs: Path, size: Size, seconds: float, tracer=None) -> Outcome:
    import eegid

    out = Outcome()
    model = _run_setup(out, size.setup_repeats, tracer,
                       lambda: eegid.load_model(inputs / "model.txt"))
    paths = sorted((inputs / "requests").glob("*.csv"))
    truth = [int(p.stem.split("_")[1]) for p in paths]
    first = {}  # path index -> window labels of its first request
    correct_windows = total_windows = correct_recordings = 0

    def op(i):
        nonlocal correct_windows, total_windows, correct_recordings
        k = i % len(paths)
        result = eegid.identify(model, eegid.load_recording_csv(paths[k], fs=FS))
        correct_windows += int(np.sum(result.window_labels == truth[k]))
        total_windows += result.window_labels.size
        correct_recordings += int(result.label == truth[k])
        if k not in first:
            first[k] = result.window_labels
        elif not np.array_equal(first[k], result.window_labels):
            out.checks.append(f"request {paths[k].name} predicted differently on repeat")

    _closed_loop(out, seconds, max(size.min_requests, len(paths)), tracer, op,
                 (eegid.errors.EegIdError,))
    completed = out.attempted - out.failed
    if completed == 0 or len(first) < len(paths):
        out.checks.append("not every request recording was identified")
        return out
    out.window_accuracy = correct_windows / total_windows
    out.predictions_sha256 = _sha256(*(first[k] for k in range(len(paths))))
    out.extra["recording_accuracy"] = (correct_recordings / completed, "fraction")
    latencies = out.op_s
    if len(latencies) >= 200:  # >= 10 samples beyond the 95th percentile
        p95 = statistics.quantiles(latencies, n=20, method="inclusive")[-1]
        out.extra["identify_p95_ms"] = (p95 * 1e3, "ms")
    out.extra["requests"] = (len(latencies), "count")
    return out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def kernel_grid():
    """The kernel-ordering grid of the acceptance tests."""
    from eegid import KernelSpec

    return {
        "poly": [KernelSpec("poly", c=1.0, gamma=g, degree=d)
                 for g, d in ((0.1, 2), (0.1, 3), (0.01, 2))],
        "linear": [KernelSpec("linear", c=c) for c in (0.1, 1.0, 10.0)],
        "rbf": [KernelSpec("rbf", c=100.0, gamma=g) for g in (1.0, 0.1, 0.01)],
    }


def sweep(inputs: Path, size: Size, seconds: float, tracer=None) -> Outcome:
    import eegid

    out = Outcome()
    paths = sorted(inputs.glob("features_*.csv"))
    tables = _run_setup(out, size.setup_repeats, tracer,
                        lambda: [eegid.load_feature_table(p) for p in paths])
    grid = kernel_grid()
    n_cells = len(tables) * sum(len(specs) for specs in grid.values())
    results = []

    def grid_cells(X, y, starts):
        order = np.lexsort((starts, y))
        Xs, ys = X[order], y[order]
        split = eegid.svm.RowSplit(train_fraction=TRAIN_FRACTION)
        train, _ = eegid.svm.split_rows(ys, split)
        std = eegid.fit_standardizer(Xs[train])
        with _span(tracer, "reduction.Standardizer.transform", "reduction"):
            Z = std.transform(Xs)
        pca = eegid.fit_pca(Z[train], 0.95)
        cells = eegid.grid_search(Z @ pca.components.T, ys, grid, split,
                                  max_passes=MAX_PASSES)
        return [(c.spec.describe(), c.accuracy, c.error) for c in cells]

    def op(i):
        results.append([cell for X, y, starts, _ in tables
                        for cell in grid_cells(X, y, starts)])

    # grid_search records failures in its cells; it raises nothing per cell
    _closed_loop(out, seconds, 1, tracer, op, ())
    cells = results[-1]
    out.attempted = n_cells * len(results)
    out.failed = sum(err is not None for _, _, err in cells) * len(results)
    for name, acc, err in cells:
        if (acc is None) == (err is None):
            out.checks.append(f"grid cell {name} has neither an accuracy nor an error")
    if len(cells) != n_cells:
        out.checks.append(f"grid returned {len(cells)} cells, expected {n_cells}")
    if any(r != cells for r in results):
        out.checks.append("grid results differ between operations")
    accuracies = [acc for _, acc, _ in cells if acc is not None]
    out.window_accuracy = float(np.mean(accuracies)) if accuracies else 0.0
    h = hashlib.sha256()
    for name, acc, err in cells:
        h.update(f"{name}|{acc!r}|{err}\n".encode())
    out.predictions_sha256 = h.hexdigest()
    out.extra["converged_cells"] = (len(accuracies), "count")
    return out


WORKLOADS = {"enroll": enroll, "identify": identify, "sweep": sweep}
