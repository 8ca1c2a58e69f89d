"""Self-test of the benchmark at a tiny input size, about a minute on 2 cores.

    python3 bench/selftest.py

For every workload it makes one untraced run and two traced runs of one
seed, and checks that:

- each run exits 0 and reports exactly the end-to-end (--trace 0) or
  per-layer (--trace 1) metric names and units of BENCHMARK.json;
- the spans nest: each lies inside its parent in time and shares its
  request id, and no self time is negative;
- every count (unit count or bytes) repeats exactly between the two
  traced runs.

Finally it copies BENCHMARK.json and the benchmark alone into a temporary
directory and checks that the benchmark fails there without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from tracing import nesting_errors  # noqa: E402

WORKLOADS = ("enroll", "identify", "sweep")
SEED = 3


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str, str]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout, done.stderr


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            code, stdout, stderr = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if code != 0:
                problems.append(f"{tag}: exit {code}\n{stdout}{stderr}")
                continue
            metrics = result_of(stdout)["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != declared[trace]:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(declared[trace]))} "
                                f"or their units differ from BENCHMARK.json")
            if trace == 0:
                continue
            counts.append({k: m["value"] for k, m in metrics.items()
                           if m["unit"] in ("count", "bytes")})
            trace_file = BENCH / "out" / f"trace-{workload}-seed{SEED}.json"
            spans = [types.SimpleNamespace(**s)
                     for s in json.loads(trace_file.read_text())["spans"]]
            problems += [f"{tag}: {e}" for e in nesting_errors(spans)]
            problems += [f"{tag}: span {s.name} has self time {s.self_s}"
                         for s in spans if s.self_s < 0]
        if len(counts) == 2 and counts[0] != counts[1]:
            changed = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: counts {changed} differ between runs")
        print(f"{workload}: {'ok' if not problems else 'problems so far'}", flush=True)

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("cache", "out", "__pycache__"))
        code, stdout, _ = run("enroll", 0, cwd=bare)
        if code == 0 or '"correct"' in stdout:
            problems.append("benchmark ran without the library sources")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
