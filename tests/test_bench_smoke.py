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


@pytest.mark.parametrize("workload", ["enroll", "identify", "sweep"])
def test_bench_workload_runs(checkout, workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--size", "tiny",
         "--seconds", "0", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
