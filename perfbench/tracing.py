"""Spans and counters around the program's layer entry points.

:func:`install` replaces each traced function or method with a wrapper, on
every ``uncrossed`` module that bound the name (``skeleton_planar`` alone is
bound in planarity, covers, solver and bounds).  Nothing under ``src/``
changes; the wrappers live only in the traced child process.

A span is (name, start, end, parent).  Spans are kept in memory aggregated
by (name, parent name): calls, total seconds and the seconds covered by
child spans, so a layer's self time is total minus child time.  Generators
are timed inside each ``next()``.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child seconds]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total, child]
        self.counts: Counter = Counter()

    def enter(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        dur = perf_counter() - start
        parent = ""
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][0]
        agg = self.spans.get((name, parent))
        if agg is None:
            agg = self.spans[(name, parent)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += child

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(a[0] for (n, p), a in self.spans.items() if n == name and parent in (None, p))

    def self_s(self, name: str) -> float:
        return sum(a[1] - a[2] for (n, _), a in self.spans.items() if n == name)

    def table(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "calls": a[0], "total_s": a[1], "self_s": a[1] - a[2]}
            for (n, p), a in sorted(self.spans.items())
        ]


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before(args)`` and ``after(result, args)``
    update counters outside the timed body."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args)
        return result

    return wrapper


def rotation_candidates(g, vertices, edges, half: bool = False) -> int:
    """Rotation systems ``planar_rotations_of_component`` walks: the product
    over vertices of (deg - 1)!, halved at the anchor under ``half``."""
    deg = {v: 0 for v in vertices}
    for e in edges:
        u, v = g.endpoints(e)
        deg[u] += 1
        deg[v] += 1
    total = 1
    anchor_pending = half
    for v in vertices:
        d = deg[v]
        if d == 0:
            continue
        k = math.factorial(d - 1)
        if anchor_pending and d >= 3:
            k //= 2
            anchor_pending = False
        total *= k
    return total


def _rebind(original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "uncrossed" or mod_name.startswith("uncrossed."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of planarity, _lrtest, covers, solver,
    core and bounds."""
    from uncrossed import bounds, core, covers, planarity, solver

    counts = tracer.counts

    def wrap_function(module, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(module, attr)
        _rebind(original, _span(tracer, name, original, before, after))

    def wrap_method(cls, attr: str, name: str, before=None, after=None) -> None:
        setattr(cls, attr, _span(tracer, name, getattr(cls, attr), before, after))

    # -- planarity and _lrtest
    cache = planarity._skeleton_cache

    def skeleton_before(args) -> None:
        if args[0] in cache:
            counts["skeleton_cache.hits"] += 1

    wrap_function(planarity, "skeleton_planar", "planarity.skeleton_planar", skeleton_before)
    wrap_function(planarity, "lr_planar", "lrtest.lr_planar")
    wrap_function(planarity, "component_faces", "planarity.component_faces")

    rotations = planarity.planar_rotations_of_component

    def traced_rotations(g, vertices, edges, rotation_cap=None, half=False):
        counts["rotations.calls"] += 1
        counts["rotations.candidates"] += rotation_candidates(g, vertices, edges, half)
        gen = rotations(g, vertices, edges, rotation_cap=rotation_cap, half=half)
        while True:
            tracer.enter("planarity.rotations")
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.exit()
            counts["rotations.planar"] += 1
            yield item

    _rebind(rotations, traced_rotations)

    # -- covers
    def realizable_after(result, args) -> None:
        counts[f"realizable.{result.status}"] += 1

    def profiles_before(args) -> None:
        ctx, _, edges, _ = args
        if frozenset(edges) in ctx.profile_cache:
            counts["profiles.hits"] += 1

    def feasible_before(args) -> None:
        search, part = args
        if part in search.cache:
            counts["feasible.hits"] += 1

    ctx_cls = covers.RealizabilityContext
    wrap_method(ctx_cls, "realizable", "covers.realizable", after=realizable_after)
    wrap_method(ctx_cls, "profiles", "covers.profiles", profiles_before)
    wrap_method(ctx_cls, "pairs_insertable", "covers.pairs_insertable")
    wrap_method(covers.CoverSearch, "feasible_cached", "covers.feasible", feasible_before)

    cover_with = covers.CoverSearch.cover_with

    def traced_cover_with(search, c):
        before = search.nodes
        tracer.enter("covers.cover_with")
        try:
            return cover_with(search, c)
        finally:
            tracer.exit()
            counts["cover_search.nodes"] += search.nodes - before

    covers.CoverSearch.cover_with = traced_cover_with

    # -- solver
    search_cls = solver._DrawingSearch

    def planarizable_before(args) -> None:
        search, events = args
        if events in search.planarizable_cache:
            counts["planarizable.hits"] += 1

    def drawings_before(args) -> None:
        search, avoid, limit = args
        if (avoid, limit) in search.drawings_cache:
            counts["drawings_avoiding.hits"] += 1

    wrap_method(search_cls, "planarizable", "solver.planarizable", planarizable_before)
    wrap_method(search_cls, "drawings_avoiding", "solver.drawings_avoiding", drawings_before)
    wrap_method(search_cls, "min_drawing", "solver.min_drawing")
    wrap_method(search_cls, "cover", "solver.cover")
    for attr in (
        "crossing_number",
        "decide_uncrossed_cost",
        "uncrossed_crossing_number",
        "uncrossed_number",
        "reference_oracle",
        "verify_collection",
    ):
        wrap_function(solver, attr, f"solver.{attr}")

    # -- core and bounds
    wrap_function(core, "planarize", "core.planarize")
    wrap_function(bounds, "thickness", "bounds.thickness")
    wrap_function(bounds, "outerthickness", "bounds.outerthickness")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(tracer: Tracer, skeleton_entries: int) -> dict[str, float]:
    """Per-layer counts of one traced child; times are in :func:`layer_times`."""
    c = tracer.counts
    calls = tracer.calls
    return {
        "planarity.rotations.calls": c["rotations.calls"],
        "planarity.rotations.candidates": c["rotations.candidates"],
        "planarity.rotations.planar": c["rotations.planar"],
        "planarity.rotations.yield_ratio": _ratio(c["rotations.planar"], c["rotations.candidates"]),
        "covers.realizable.calls": calls("covers.realizable"),
        "covers.realizable.yes": c["realizable.yes"],
        "covers.realizable.no": c["realizable.no"],
        "covers.realizable.unknown": c["realizable.unknown"],
        "covers.profiles.calls": calls("covers.profiles"),
        "covers.profiles.cache_hit_ratio": _ratio(c["profiles.hits"], calls("covers.profiles")),
        "covers.pairs_insertable.calls": calls("covers.pairs_insertable"),
        "covers.cover_search.nodes": c["cover_search.nodes"],
        "covers.feasible.calls": calls("covers.feasible"),
        "covers.feasible.cache_hit_ratio": _ratio(c["feasible.hits"], calls("covers.feasible")),
        "planarity.skeleton_planar.calls": calls("planarity.skeleton_planar"),
        "planarity.skeleton_cache.hit_ratio": _ratio(
            c["skeleton_cache.hits"], calls("planarity.skeleton_planar")
        ),
        "planarity.skeleton_cache.entries": skeleton_entries,
        "lrtest.lr_planar.calls": calls("lrtest.lr_planar"),
        "planarity.component_faces.calls": calls("planarity.component_faces"),
        "solver.planarizable.calls": calls("solver.planarizable"),
        "solver.planarizable.cache_hit_ratio": _ratio(c["planarizable.hits"], calls("solver.planarizable")),
        "solver.planarizable.skeleton_checks": calls("planarity.skeleton_planar", "solver.planarizable"),
        "solver.drawings_avoiding.calls": calls("solver.drawings_avoiding"),
        "solver.drawings_avoiding.cache_hit_ratio": _ratio(
            c["drawings_avoiding.hits"], calls("solver.drawings_avoiding")
        ),
        "solver.min_drawing.calls": calls("solver.min_drawing"),
        "solver.cover.calls": calls("solver.cover"),
        "core.planarize.calls": calls("core.planarize"),
    }


#: metric name -> span name, for every reported self time
SELF_TIMES = {
    "planarity.rotations.self_s": "planarity.rotations",
    "covers.realizable.self_s": "covers.realizable",
    "covers.profiles.self_s": "covers.profiles",
    "covers.pairs_insertable.self_s": "covers.pairs_insertable",
    "covers.cover_with.self_s": "covers.cover_with",
    "planarity.skeleton_planar.self_s": "planarity.skeleton_planar",
    "lrtest.lr_planar.self_s": "lrtest.lr_planar",
    "planarity.component_faces.self_s": "planarity.component_faces",
    "solver.planarizable.self_s": "solver.planarizable",
    "solver.drawings_avoiding.self_s": "solver.drawings_avoiding",
    "solver.min_drawing.self_s": "solver.min_drawing",
    "solver.cover.self_s": "solver.cover",
    "solver.reference_oracle.self_s": "solver.reference_oracle",
    "solver.verify_collection.self_s": "solver.verify_collection",
    "core.planarize.self_s": "core.planarize",
}


def layer_times(tracer: Tracer) -> dict[str, float]:
    return {metric: tracer.self_s(span) for metric, span in SELF_TIMES.items()}
