"""Command-line interface.

Commands: ``gen`` (instance generators), ``solve`` (exact solvers),
``verify`` (witness checking), ``bounds`` (closed-form bound calculators)
and ``render`` (SVG output).  Results print as stable ``key=value`` lines.

Exit codes: 0 success / yes / accept, 1 no / reject, 2 unknown (budget
or memory exhausted), 3 usage or parse errors and unusable file paths.  A
command whose standard output is closed early (``| head -1``) ends quietly
with exit 1, as the Python documentation advises for a broken pipe.  The
environment variable ``UNCROSSED_BUDGET`` supplies a default wall-clock
budget in seconds.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bounds as bounds_mod
from . import instances
from .core import CollectionWitness, PreconditionError
from .files import (
    ParseError,
    load_graph,
    load_witness,
    save_graph,
    save_witness,
    serialize_graph,
    witness_to_document,
)
from .render import render_collection
from .solver import (
    SearchBudget,
    collection_from_certificates,
    crossing_number,
    decide_uncrossed_cost,
    uncrossed_crossing_number,
    uncrossed_number,
    verify_collection,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def _emit(args, key, value):
    if args.table:
        print(f"{str(key) + ':':<24} {value}")
    else:
        print(f"{key}={value}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="uncrossed", description=__doc__)
    parser.add_argument(
        "--table", action="store_true",
        help="human-readable report instead of key=value lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance", add_help=True)
    gen.add_argument("family", choices=[
        "complete", "complete-bipartite", "heavy-cycle", "k5-two-light", "hex-grid",
    ])
    gen.add_argument("params", nargs="*", type=int)
    gen.add_argument("--out", help="write graph file here instead of stdout")

    solve = sub.add_parser("solve", help="run an exact solver")
    solve.add_argument("--mode", required=True, choices=[
        "cr", "unc", "ucr", "ucrk", "thickness", "outerthickness",
    ])
    solve.add_argument("--input", required=True)
    solve.add_argument("--c", type=int, help="drawing count for ucrk")
    solve.add_argument("--k", type=int, help="cost limit for ucrk")
    solve.add_argument("--budget", type=float, help="wall clock seconds")
    solve.add_argument("--max-nodes", type=int, help="search node limit")
    solve.add_argument("--witness", help="write the witness JSON here")

    ver = sub.add_parser("verify", help="check a witness against a graph")
    ver.add_argument("--input", required=True)
    ver.add_argument("--witness", required=True)

    bnd = sub.add_parser("bounds", help="closed-form bound report")
    bnd.add_argument("--input", required=True)

    ren = sub.add_parser("render", help="render a witness to SVG files")
    ren.add_argument("--witness", required=True)
    ren.add_argument("--out", required=True)
    return parser


def _cmd_gen(args) -> int:
    fam, params = args.family, args.params
    try:
        if fam == "complete":
            (n,) = params
            g = instances.complete(n)
        elif fam == "complete-bipartite":
            p, q = params
            g = instances.complete_bipartite(p, q)
        elif fam == "heavy-cycle":
            (m,) = params
            g = instances.heavy_cycle_with_diameters(m)
        elif fam == "k5-two-light":
            (m,) = params
            g = instances.k5_with_two_light_edges(m)
        else:
            (r,) = params
            g, cert = instances.hex_grid(r)
            rings = ",".join(str(len(ring)) for ring in cert.rings)
            if args.out:
                _emit(args, "rings", rings)
            else:  # a comment line, so the graph on stdout still parses
                sys.stdout.write(f"# rings={rings}\n")
    except ValueError:
        raise UsageError(f"wrong number of parameters for {fam}") from None
    if args.out:
        save_graph(args.out, g)
        _emit(args, "written", args.out)
    else:
        sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def _budget_from(args) -> SearchBudget:
    seconds = args.budget
    if seconds is None:
        env = os.environ.get("UNCROSSED_BUDGET")
        if env:
            try:
                seconds = float(env)
            except ValueError:
                raise UsageError(f"UNCROSSED_BUDGET is not a number: {env!r}") from None
    return SearchBudget(wall_clock_seconds=seconds, max_nodes=args.max_nodes)


def _bounds_lines(res) -> list:
    lines = [("lower_bound", res.lower_bound)]
    if res.upper_bound is not None:
        lines.append(("upper_bound", res.upper_bound))
    return lines


def _cmd_solve(args) -> int:
    g = load_graph(args.input)
    code, lines, witness, mode_info = _solve(args, g, _budget_from(args))
    if args.witness and witness is not None:
        # saved before any line prints, so an unusable path leaves stdout empty
        save_witness(args.witness, witness_to_document(witness, graph=g, mode=mode_info))
        lines.append(("witness", args.witness))
    for key, value in lines:
        _emit(args, key, value)
    return code


def _solve(args, g, budget):
    """Exit code, result lines, witness (or None) and witness mode of one
    ``solve``."""
    mode = args.mode
    lines = [("mode", mode)]
    if mode == "cr":
        res = crossing_number(g, budget)
        lines.append(("status", res.status))
        if res.status == "exact":
            lines.append(("cr", res.value))
            # a single drawing still travels as a collection document
            return EXIT_OK, lines, _single_drawing_collection(g, res.witness), {"mode": "cr"}
        return EXIT_UNKNOWN, lines + _bounds_lines(res), None, None
    if mode == "ucrk":
        if args.c is None or args.k is None:
            raise UsageError("--mode ucrk needs --c and --k")
        dec = decide_uncrossed_cost(g, args.c, args.k, budget)
        lines += [("c", args.c), ("k", args.k), ("verdict", dec.verdict)]
        if dec.verdict == "yes":
            lines.append(("cost", dec.witness.declared_cost))
            return EXIT_OK, lines, dec.witness, {"mode": "ucrk", "c": args.c, "k": args.k}
        return (EXIT_NO if dec.verdict == "no" else EXIT_UNKNOWN), lines, None, None
    if mode == "ucr":
        res = uncrossed_crossing_number(g, budget)
        lines.append(("status", res.status))
        if res.status == "exact":
            lines += [("ucr", res.ucr), ("ounc", res.ounc)]
            return EXIT_OK, lines, res.witness, {"mode": "ucr"}
        return EXIT_UNKNOWN, lines + _bounds_lines(res), None, None
    if mode == "unc":
        res = uncrossed_number(g, budget)
        lines.append(("status", res.status))
        if res.status == "exact":
            sizes = ",".join(str(len(c.edge_subset)) for c in res.certificates)
            lines += [("unc", res.value), ("cover_sizes", sizes)]
            collection = (
                collection_from_certificates(g, res.certificates) if args.witness else None
            )
            return EXIT_OK, lines, collection, {"mode": "unc"}
        return EXIT_UNKNOWN, lines + _bounds_lines(res), None, None
    # thickness / outerthickness
    fn = bounds_mod.thickness if mode == "thickness" else bounds_mod.outerthickness
    res = fn(g, budget)
    lines.append(("status", res.status))
    if res.status == "exact":
        lines.append((mode, res.value))
        return EXIT_OK, lines, None, None
    return EXIT_UNKNOWN, lines + _bounds_lines(res), None, None


def _single_drawing_collection(g, drawing):
    return CollectionWitness(drawings=(drawing,), declared_cost=drawing.cost(g))


def _cmd_verify(args) -> int:
    g = load_graph(args.input)
    witness, witness_graph = load_witness(args.witness)
    if witness_graph != g:
        raise UsageError("the witness is for a different graph than --input")
    res = verify_collection(g, witness)
    _emit(args, "verdict", "accept" if res.accepted else "reject")
    if not res.accepted:
        _emit(args, "rule", res.rule)
        _emit(args, "detail", res.detail)
        return EXIT_NO
    return EXIT_OK


def _cmd_bounds(args) -> int:
    g = load_graph(args.input)
    report = bounds_mod.ucr_lower_bound(g)
    for entry in report.entries:
        _emit(args, f"{entry.name}_applicable", str(entry.applicable).lower())
        if entry.applicable:
            _emit(args, entry.name, entry.rounded)
            _emit(args, f"{entry.name}_exact", entry.exact)
    n = g.n
    if n >= 5 and g.m == n * (n - 1) // 2 and len(g.skeleton()) == g.m:
        kb = bounds_mod.kn_bounds(n)
        _emit(args, "kn_refined_upper", kb.refined_upper_exact)
        _emit(args, "kn_coarse_upper", kb.coarse_upper_exact)
        _emit(args, "kn_upper_int", kb.upper_int)
    return EXIT_OK


def _cmd_render(args) -> int:
    witness, g = load_witness(args.witness)
    paths = render_collection(g, witness, args.out)
    _emit(args, "drawings", len(paths))
    _emit(args, "out", args.out)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that went away shows up here, not at exit
        return code
    except BrokenPipeError:  # an OSError, so it must come first
        # the reader of standard output closed it (``| head -1``): send the
        # rest to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_NO
    except (UsageError, ParseError, PreconditionError, OSError, UnicodeDecodeError) as exc:
        # OSError: a path that is missing, a directory, or an existing file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # the answer is unknown, not "no"
        print("error: out of memory", file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
