"""The benchmark's self-test and answer checks, run as part of the tests.

``perfbench/tracing.py`` wraps solver entry points and reads solver caches
by name, so a refactor that renames one breaks only traced benchmark runs.
Its self-test traces sub-second K5 cases and fails on such a break.  The
benchmark's own checks pin answers a search change can break, such as the
node count of the unc(K7) prefix; they run here on the sub-second
workloads and on the sub-second cases of ``ucr_sweep``.
"""

import subprocess
import sys

import pytest

from conftest import ROOT

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench is not a package)


def test_perfbench_selftest_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.startswith("ok")


#: the sub-second ucr_sweep cases; the six-vertex decision sweep is left to
#: the oracle tests of test_solver.py
UCR_SWEEP_CASES = ("cr(K6)", "ucr(heavy cycle m=4)", "ucr(two-light K5 m=2)", "decide(5,18; c=2, k=3)")


@pytest.mark.parametrize("workload", ["unc_k7_prefix", "outer_k7", "ucr_sweep"])
def test_benchmark_cases_pass_their_checks(workload):
    cases = workloads.build(workload, 1)
    if workload == "ucr_sweep":
        cases = [case for case in cases if case.name in UCR_SWEEP_CASES]
        assert sorted(case.name for case in cases) == sorted(UCR_SWEEP_CASES)
    for case in cases:
        assert case.check(case.solve()) is None, case.name
