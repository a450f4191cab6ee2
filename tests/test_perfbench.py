"""The benchmark's self-test, run as part of the tests.

``perfbench/tracing.py`` wraps solver entry points and reads solver caches
by name, so a refactor that renames one breaks only traced benchmark runs.
Its self-test traces sub-second K5 cases and fails on such a break.
"""

import subprocess
import sys

from conftest import ROOT


def test_perfbench_selftest_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.startswith("ok")
