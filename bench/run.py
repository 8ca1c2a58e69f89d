"""eegid benchmark: one workload per run, from the root of a checkout.

    python3 bench/run.py --workload enroll|identify|sweep|all \\
        [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics instead, and the spans are written to
bench/out/trace-<workload>-seed<N>.json. Every run also writes its
result, with the environment it ran in, to
bench/out/result-<workload>-seed<N>-trace<T>.json. The exit status is 1
when a correctness check fails, 2 when the library sources are missing.
`--workload all` runs each workload in its own process.

The end-to-end metrics are shared by the three workloads:

    setup_s          median set-up time: a fresh-interpreter `import eegid`
                     (enroll), load_model (identify), load_feature_table
                     (sweep)
    p50_ms           median wall time of one operation: an enroll job, an
                     identify request, a grid sweep
    ops_per_s        completed operations per second of the closed loop
    window_accuracy  held-out windows (enroll), request windows (identify),
                     mean over converged grid cells (sweep)
    peak_rss_mb      peak resident memory of the measuring process
    success_rate     1 - failed / attempted (sweep: failed grid cells)

Seeds 0-9 are for development; CONFIRM_SEED is kept back for the
confirmation runs of a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, set before numpy loads. The library works on small
# matrices from Python loops; on a 2-core machine two OpenBLAS threads
# took 0.14 s for the 80x80 eigh in fit_pca against 0.002 s for one, and
# their timings follow whatever else runs on the second core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402

CONFIRM_SEED = 7919
WORKLOADS = ("enroll", "identify", "sweep")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "seed": seed,
        "confirm_seed": CONFIRM_SEED,
        "commit": _commit(),
    }


def _commit() -> str:
    head = inputs.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (inputs.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"  # not a git checkout


def end_to_end(out) -> dict:
    completed_ops = len(out.op_s) + len(out.traced_op_s) - out.failed_ops
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "p50_ms": (statistics.median(out.op_s) * 1e3, "ms"),
        "ops_per_s": (completed_ops / out.measure_s, "1/s"),
        "window_accuracy": (out.window_accuracy, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1 - out.failed / out.attempted, "fraction"),
    }


def run_one(args) -> int:
    inputs.use_source_tree()
    from tracing import Tracer, nesting_errors, per_layer, self_times
    from workloads import WORKLOADS as RUNNERS

    env = environment(args.seed)
    print(f"eegid bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    size = inputs.SIZES[args.size]
    data = inputs.prepare(args.workload, args.seed, args.size)
    inputs.OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    out = RUNNERS[args.workload](data, size, args.seconds, tracer)

    stem = f"{args.workload}-seed{args.seed}"
    if tracer is None:
        metrics = end_to_end(out)
    else:
        out.checks += nesting_errors(tracer.spans)
        metrics = per_layer(tracer.spans)
        overhead = (statistics.median(out.traced_op_s) - statistics.median(out.op_s))
        metrics["trace.overhead_s"] = (overhead, "s")
        selfs = self_times(tracer.spans)
        spans = [dict(s.as_dict(), self_s=t) for s, t in zip(tracer.spans, selfs)]
        (inputs.OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"env": env, "metrics": metrics, "spans": spans}))
    correct = not out.checks
    for name, (value, unit) in {**metrics, **out.extra}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops {len(out.op_s)} untraced, {len(out.traced_op_s)} traced; "
          f"attempted {out.attempted}, failed {out.failed}")
    print(f"predictions_sha256 {out.predictions_sha256}")
    for problem in out.checks:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (inputs.OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "env": env, "checks": out.checks,
         "predictions_sha256": out.predictions_sha256,
         "extra": {k: {"value": v, "unit": u} for k, (v, u) in out.extra.items()},
         "setup_s": out.setup_s, "op_s": out.op_s, "traced_op_s": out.traced_op_s}))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size])
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                    help="input size; 'tiny' is for the self-test")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
