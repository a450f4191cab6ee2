"""Seeded inputs, solve calls and answer checks for each workload.

A workload is a list of :class:`Case`.  ``solve`` is the only code inside
the timed interval; ``check`` runs afterwards and returns ``None`` for a
correct answer or a short reason.  Expected values never come from the
solver under test: they are the published values of the instances, the
budget arithmetic of the cover search, ``reference_oracle`` verdicts, and
networkx planarity tests of the returned parts and planarizations.

Every graph is relabelled from ``--seed``: its vertices are permuted and its
edge ids shuffled, so the program sees a different but isomorphic input.
All expected values are invariant under that relabelling.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from uncrossed.bounds import outerthickness, thickness
from uncrossed.core import CollectionWitness, WeightedMultigraph, expand_weights, planarize
from uncrossed.files import serialize_witness, witness_from_document, witness_to_document
from uncrossed.instances import complete, heavy_cycle_with_diameters
from uncrossed.solver import (
    SearchBudget,
    crossing_number,
    decide_uncrossed_cost,
    reference_oracle,
    uncrossed_crossing_number,
    uncrossed_number,
    verify_collection,
)

#: Cover nodes in the unc(K7) prefix.  The full solve visits about 63.5k.
UNC_PREFIX_NODES = 2000

#: (max_drawings, max_cost) points of the six-vertex decision sweep.  The
#: points (2,4), (3,4) and (4,4) would add about 50 s to every child.
SWEEP_GRID = ((1, 1), (2, 2), (2, 3), (3, 3))


@dataclass
class Case:
    name: str
    solve: Callable[[], Any]
    check: Callable[[Any], str | None]
    answer: Callable[[Any], Any]


def relabel(g: WeightedMultigraph, rng: random.Random) -> WeightedMultigraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], w) for u, v, w in g.edges]
    rng.shuffle(edges)
    return WeightedMultigraph(g.n, tuple(edges))


# -- independent checks -------------------------------------------------------


def _nx_planar(n: int, pairs) -> bool:
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(pairs)
    return nx.check_planarity(h)[0]


def _part_planar(g: WeightedMultigraph, part, outer: bool) -> bool:
    pairs = [g.endpoints(e) for e in part]
    if outer:  # outerplanar iff planar with an apex joined to every vertex
        pairs += [(v, g.n) for v in range(g.n)]
    return _nx_planar(g.n + 1, pairs)


def _witness_text(g: WeightedMultigraph, w: CollectionWitness) -> str:
    return serialize_witness(witness_to_document(w, graph=g))


def _collection_problem(g: WeightedMultigraph, w: CollectionWitness, cost: int | None) -> str | None:
    """Verify a yes-witness and its byte-identical file round trip."""
    if not verify_collection(g, w).accepted:
        return "witness rejected by verify_collection"
    if cost is not None and w.declared_cost != cost:
        return f"witness declares cost {w.declared_cost}, expected {cost}"
    text = _witness_text(g, w)
    w2, g2 = witness_from_document(json.loads(text))
    if w2 != w or g2 != g or _witness_text(g2, w2) != text:
        return "witness does not round-trip through the witness file format"
    return None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- unc_k7_prefix ------------------------------------------------------------


def _unc_prefix(rng: random.Random) -> list[Case]:
    g = relabel(complete(7), rng)

    def check(r) -> str | None:
        # max_nodes counts cover nodes: the budget trips on node N + 1
        if r.status != "unknown" or r.nodes != UNC_PREFIX_NODES + 1:
            return f"status {r.status}, nodes {r.nodes}; expected unknown, {UNC_PREFIX_NODES + 1}"
        return None

    return [
        Case(
            "unc(K7) prefix",
            lambda: uncrossed_number(g, SearchBudget(max_nodes=UNC_PREFIX_NODES)),
            check,
            lambda r: [r.status, r.nodes, r.sets_tested],
        )
    ]


# -- outer_k7 -----------------------------------------------------------------


def _cover_case(name: str, g: WeightedMultigraph, solve, value: int, outer: bool) -> Case:
    def check(r) -> str | None:
        if r.status != "exact" or r.value != value:
            return f"{r.status} {r.value}, expected exact {value}"
        if len(r.parts) != value or set().union(*r.parts) != set(range(g.m)):
            return "parts do not cover the edge set"
        if not all(_part_planar(g, p, outer) for p in r.parts):
            return "a part fails the networkx planarity test"
        return None

    return Case(name, lambda: solve(g), check, lambda r: [r.value, sorted(sorted(p) for p in r.parts)])


def _outer_k7(rng: random.Random) -> list[Case]:
    g = relabel(complete(7), rng)
    return [
        _cover_case("outerthickness(K7)", g, outerthickness, 3, outer=True),
        _cover_case("thickness(K7)", g, thickness, 2, outer=False),
    ]


# -- ucr_sweep ----------------------------------------------------------------


def sweep_graphs() -> list[WeightedMultigraph]:
    """The nonplanar graphs of at most six vertices and twelve edges."""
    out = []
    for h in graph_atlas_g():
        if 1 <= h.number_of_nodes() <= 6 and h.number_of_edges() <= 12 and not nx.check_planarity(h)[0]:
            out.append(WeightedMultigraph(h.number_of_nodes(), tuple((u, v, 1) for u, v in sorted(h.edges()))))
    if len(out) != 11:
        raise RuntimeError(f"expected 11 sweep graphs, the atlas gave {len(out)}")
    return out


def _decide_case(g: WeightedMultigraph, c: int, k: int, expected: bool | None = None) -> Case:
    """``expected`` None means: compare with ``reference_oracle``."""

    def check(d) -> str | None:
        want = reference_oracle(g, c, k) if expected is None else expected
        if (d.verdict == "yes") != want:
            return f"verdict {d.verdict}, expected {'yes' if want else 'no'}"
        return _collection_problem(g, d.witness, None) if d.verdict == "yes" else None

    def answer(d):
        return [d.verdict, _digest(_witness_text(g, d.witness)) if d.witness else None]

    return Case(f"decide({g.n},{g.m}; c={c}, k={k})", lambda: decide_uncrossed_cost(g, c, k), check, answer)


def _ucr_case(name: str, g: WeightedMultigraph, ucr: int) -> Case:
    def check(r) -> str | None:
        if r.status != "exact" or r.ucr != ucr:
            return f"{r.status} ucr={r.ucr}, expected exact {ucr}"
        return _collection_problem(g, r.witness, ucr)

    return Case(
        name,
        lambda: uncrossed_crossing_number(g),
        check,
        lambda r: [r.ucr, r.ounc, _digest(_witness_text(g, r.witness))],
    )


def _cr_case(name: str, g: WeightedMultigraph, value: int) -> Case:
    def check(r) -> str | None:
        if r.status != "exact" or r.value != value or r.witness.cost(g) != value:
            return f"{r.status} cr={r.value}, expected exact {value}"
        p = planarize(g, r.witness)
        if not _nx_planar(p.n, [p.endpoints(e) for e in range(p.m)]):
            return "the drawing witness does not planarize"
        return None

    return Case(name, lambda: crossing_number(g), check, lambda r: [r.value, repr(r.witness)])


def two_light_k5_m2() -> WeightedMultigraph:
    """K5 with light edges (0,1), (2,3) and every other edge of weight 2."""
    light = {(0, 1), (2, 3)}
    return WeightedMultigraph(
        5, tuple((i, j, 1 if (i, j) in light else 2) for i in range(5) for j in range(i + 1, 5))
    )


def _ucr_sweep(rng: random.Random) -> list[Case]:
    graphs = [relabel(g, rng) for g in sweep_graphs()]
    cases = [_decide_case(g, c, k) for c, k in SWEEP_GRID for g in graphs]
    cases.append(_cr_case("cr(K6)", relabel(complete(6), rng), 3))
    cases.append(_ucr_case("ucr(heavy cycle m=4)", relabel(heavy_cycle_with_diameters(4), rng), 12))
    weighted = relabel(two_light_k5_m2(), rng)
    cases.append(_ucr_case("ucr(two-light K5 m=2)", weighted, 4))
    # the expanded graph has parallel edges and the same ucr = 4, so no
    # collection of any size costs 3; its full ucr solve takes 10-14 s
    expanded = relabel(expand_weights(weighted)[0], rng)
    cases.append(_decide_case(expanded, 2, 3, expected=False))
    return cases


def _k5_selftest(rng: random.Random) -> list[Case]:
    """Sub-second cases for the self-test.  unc(K5) is its only cover search,
    so the traced node count must equal the ``nodes`` it returns."""
    g = relabel(complete(5), rng)
    return [
        Case("unc(K5)", lambda: uncrossed_number(g), lambda r: None if r.value == 2 else f"unc={r.value}",
             lambda r: [r.value, r.nodes, r.sets_tested]),
        _decide_case(g, 2, 2),
        _cr_case("cr(K5)", g, 1),
    ]


WORKLOADS = {
    "unc_k7_prefix": _unc_prefix,
    "outer_k7": _outer_k7,
    "ucr_sweep": _ucr_sweep,
    "k5_selftest": _k5_selftest,
}


def build(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
