"""Outside-in benchmark of the exact solvers.

Run from the repository root::

    python3 perfbench/run.py --workload unc_k7_prefix --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

- ``unc_k7_prefix``: a fixed 2,000-node prefix of unc(K7); realizability
  and rotation enumeration, no drawing search.
- ``outer_k7``: outerthickness and thickness of K7; the cover engine with a
  cheap planarity predicate and the highest skeleton-cache miss rate.
- ``ucr_sweep``: the drawing search, on a six-vertex decision sweep checked
  against ``reference_oracle``, cr(K6), and ucr of two weighted families.

Every solve runs in a fresh child interpreter (``child.py``), one child at
a time.  With ``--trace 0`` the benchmark starts a few set-up-only children,
then full children for about ``--seconds`` seconds, and reports medians of
``setup_s``, ``solve_s`` and ``peak_rss_mb``.  With ``--trace 1`` it runs one
untraced child and then traced children, reports per-layer counts, self
times, ``src/`` line counts and the tracing overhead, and writes the span
table to ``perfbench/out/``.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A case
fails when its answer is wrong, its witness is rejected, it raises, or it
hits the child's memory cap; its failure ratio is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# the keys of workloads.WORKLOADS; the parent never imports the program
WORKLOADS = ("unc_k7_prefix", "outer_k7", "ucr_sweep", "k5_selftest")
SETUP_PROBES = 7
HARD_LIMIT_S = 170.0
LOC_MODULES = {
    "__init__": "init",
    "_lrtest": "lrtest",
    "bounds": "bounds",
    "cli": "cli",
    "core": "core",
    "covers": "covers",
    "files": "files",
    "instances": "instances",
    "planarity": "planarity",
    "render": "render",
    "solver": "solver",
}
HERE = Path(__file__).resolve().parent


@dataclass
class Child:
    """Outcome of one child process: its report, or why it has none."""

    report: dict | None
    error: str | None
    wall_s: float


def run_child(args, trace: int, deadline: float, setup_only: bool = False) -> Child:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    launched = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--launched", repr(launched),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Child(None, "timed out", time.monotonic() - launched)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - launched
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return Child(None, tail[0], wall)
    return Child(json.loads(lines[-1]), None, wall)


def src_loc() -> dict[str, float]:
    metrics = {}
    total = 0
    for path in sorted(Path("src").rglob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        if path.parent == Path("src/uncrossed") and path.stem in LOC_MODULES:
            metrics[f"{LOC_MODULES[path.stem]}.loc"] = lines
    out = {f"{name}.loc": 0 for name in LOC_MODULES.values()}
    out.update(metrics)
    out["src.loc"] = total
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not Path("src/uncrossed/__init__.py").is_file():
        print("run from the repository root: src/uncrossed is missing", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    print(
        f"# python {platform.python_version()}, networkx {importlib.metadata.version('networkx')}, "
        f"nproc {os.cpu_count()}, workload {args.workload}, seed {args.seed}, trace {args.trace}"
    )

    attempted = failed = 0
    problems: list[str] = []

    def fail(why: str) -> None:
        nonlocal failed
        failed += 1
        problems.append(why)

    def time_left(est: float) -> bool:
        elapsed = time.monotonic() - start
        return elapsed + est / 2 < args.seconds and time.monotonic() + est < deadline

    def full_child(trace: int) -> Child:
        nonlocal attempted
        child = run_child(args, trace, deadline)
        if child.report is None:
            attempted += 1
            fail(f"child: {child.error}")
            return child
        for case in child.report["cases"]:
            attempted += 1
            if case["problem"] is not None:
                fail(f"{case['name']}: {case['problem']}")
        print(
            f"# child trace={trace} wall {child.wall_s:.3f} s, setup {child.report['setup_s']:.4f} s, "
            f"solve {child.report['solve_s']:.4f} s (cpu {child.report['solve_cpu_s']:.4f} s), peak rss {child.report['peak_rss_mb']:.1f} MB"
        )
        return child

    untraced: list[Child] = []
    traced: list[Child] = []
    setups: list[float] = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            probe = run_child(args, 0, deadline, setup_only=True)
            if probe.report is None:
                attempted += 1
                fail(f"setup: {probe.error}")
            else:
                setups.append(probe.report["setup_s"])
        untraced.append(full_child(0))
        while untraced[-1].report and time_left(max(c.wall_s for c in untraced)):
            untraced.append(full_child(0))
    else:
        untraced.append(full_child(0))
        traced.append(full_child(1))
        while traced[-1].report and time_left(max(c.wall_s for c in traced)):
            traced.append(full_child(1))

    def agree(values: set, why: str) -> None:
        nonlocal attempted
        attempted += 1
        if len(values) > 1:
            fail(why)

    good = [c.report for c in untraced + traced if c.report is not None]
    good_traced = [c.report for c in traced if c.report is not None]
    agree(
        {json.dumps([case["answer"] for case in r["cases"]]) for r in good},
        "children at one seed returned different answers",
    )
    agree(
        {json.dumps(r["counts"], sort_keys=True) for r in good_traced},
        "traced children at one seed counted different work",
    )

    for why in problems:
        print(f"# FAILED {why}")
    metrics: dict[str, dict] = {}
    if args.trace == 0 and good:
        setups += [r["setup_s"] for r in good]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["solve_s"] = {"value": statistics.median(r["solve_s"] for r in good), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(r["peak_rss_mb"] for r in good), "unit": "MB"
        }
    elif good_traced and untraced[0].report:
        first = good_traced[0]
        for name, value in first["counts"].items():
            unit = "ratio" if name.endswith("_ratio") else "count"
            metrics[name] = {"value": value, "unit": unit}
        for name in first["times"]:
            metrics[name] = {
                "value": statistics.median(r["times"][name] for r in good_traced), "unit": "s"
            }
        for name, lines in src_loc().items():
            metrics[name] = {"value": lines, "unit": "lines"}
        overhead = statistics.median(r["solve_s"] for r in good_traced) / untraced[0].report["solve_s"]
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "python": platform.python_version(),
            "networkx": importlib.metadata.version("networkx"),
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "spans": first["spans"],
        }, indent=1) + "\n")
        print(f"# spans written to perfbench/out/{trace_file.name}")

    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
