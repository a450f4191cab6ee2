"""Self-test of the benchmark's tracing, on sub-second K5 cases.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that a traced child returns the same answers as an untraced one,
that its cover-node counter equals the ``nodes`` unc(K5) returns, and that
every traced count repeats exactly across two traced children at one seed.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import run_child


def main() -> int:
    args = argparse.Namespace(workload="k5_selftest", seed=1)
    deadline = time.monotonic() + 120
    plain, traced_a, traced_b = (run_child(args, trace, deadline) for trace in (0, 1, 1))
    failures = []
    for child in (plain, traced_a, traced_b):
        if child.report is None:
            print(f"child failed: {child.error}", file=sys.stderr)
            return 1
        failures += [f"{c['name']}: {c['problem']}" for c in child.report["cases"] if c["problem"]]

    def answers(child):
        return [c["answer"] for c in child.report["cases"]]

    if not answers(plain) == answers(traced_a) == answers(traced_b):
        failures.append("traced and untraced answers differ")
    unc_nodes = answers(plain)[0][1]
    if traced_a.report["counts"]["covers.cover_search.nodes"] != unc_nodes:
        failures.append(f"traced cover nodes differ from the {unc_nodes} unc(K5) returns")
    if traced_a.report["counts"] != traced_b.report["counts"]:
        failures.append("traced counts differ between two runs at one seed")
    for why in failures:
        print(f"FAILED {why}", file=sys.stderr)
    if not failures:
        print(f"ok: {len(traced_a.report['counts'])} traced counts repeat; answers and cover nodes match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
