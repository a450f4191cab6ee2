"""One benchmark child: set up, solve every case, check, report JSON.

Started by ``run.py`` in a fresh interpreter, one child at a time, because
``planarity._skeleton_cache`` is process-global: a second solve in the same
process would meet a warm cache and measure a different program.  The last
line of standard output is the child's JSON report.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

#: address-space cap per child, so a memory blow-up is a counted failure
MEMORY_CAP_BYTES = 2 << 30


def main() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from uncrossed import planarity  # setup_s covers this import

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)  # before workloads binds the traced names
    import workloads

    cases = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    results: list = []
    if tracer:
        tracer.enter("solve")
    start, start_cpu = time.perf_counter(), time.process_time()
    for case in cases:
        try:
            results.append((case.solve(), None))
        except Exception as exc:  # MemoryError from the address-space cap included
            results.append((None, f"{type(exc).__name__}: {exc}"))
    solve_s = time.perf_counter() - start
    solve_cpu_s = time.process_time() - start_cpu
    if tracer:
        tracer.exit()
    skeleton_entries = len(planarity._skeleton_cache)

    report_cases = []
    if tracer:
        tracer.enter("check")
    for case, (result, problem) in zip(cases, results):
        answer = None
        if problem is None:
            try:
                problem = case.check(result)
                answer = case.answer(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        report_cases.append({"name": case.name, "problem": problem, "answer": answer})
    if tracer:
        tracer.exit()

    report = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "solve_cpu_s": solve_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": report_cases,
    }
    if tracer:
        report["counts"] = tracing.layer_counts(tracer, skeleton_entries)
        report["times"] = tracing.layer_times(tracer)
        report["spans"] = tracer.table()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
