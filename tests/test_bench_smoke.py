"""The benchmark in bench/ runs against this library: every workload, at
its tiny size, in a copy of the checkout, exits 0. A rename of anything
the benchmark calls fails here rather than at benchmark time."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "bench", root / "bench",
                    ignore=shutil.ignore_patterns("cache", "out", "__pycache__"))
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


WORKLOADS = ("enroll", "identify", "sweep")


# traced runs also wrap every public call in spans, read the model's
# machines and inject step_hook, and check that the spans nest
@pytest.mark.parametrize("workload, trace", [
    *(pytest.param(w, "0", id=w) for w in WORKLOADS),
    *(pytest.param(w, "1", id=f"{w}-traced") for w in WORKLOADS)])
def test_bench_workload_runs(checkout, workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--size", "tiny",
         "--seconds", "0", "--trace", trace],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
