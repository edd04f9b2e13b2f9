"""The benchmark's self-test, run as part of the test suite.

The tracer in `perfbench/` wraps engine functions by name, so renaming one of
them breaks traced benchmark runs; this test makes that show up here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
