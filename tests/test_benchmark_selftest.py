"""The benchmark harness's own tests, run as part of the suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # the harness traces the engine's kernels by name, so a kernel change
    # that breaks the tracer shows up here
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
