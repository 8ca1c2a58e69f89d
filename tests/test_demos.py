"""The demo that trains both a single SVM pair and a one-vs-one ensemble
runs end to end as a user would start it, from the root of a checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_svm_training_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "05_svm_training.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "grid results (best first):" in done.stdout
    assert "best linear:" in done.stdout and "best rbf:" in done.stdout
