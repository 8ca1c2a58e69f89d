"""Every demo runs end to end as a user would start it, from the root of a
checkout, with numpy and without scipy. Each takes about 2 s."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("[0-9][0-9]_*.py"))

# lines a demo must print, beyond exiting 0
EXPECTED_STDOUT = {
    "01_synthetic_dataset": ("strongest non-DC component on channel FP2: 4.00 Hz",),
    "05_svm_training": ("grid results (best first):", "best linear:", "best rbf:"),
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # a demo's scratch files go under TMPDIR and are gone when it exits
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    # numpy alone: a stub scipy that fails to import comes first on the path
    stub = tmp_path / "no_scipy" / "scipy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise ImportError("scipy is not available")\n')
    path = os.pathsep.join([str(stub.parent), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    for line in EXPECTED_STDOUT.get(demo, ()):
        assert line in done.stdout
    assert list(tmp.iterdir()) == []
