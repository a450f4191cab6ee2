"""Graph and witness data model shared by every solver.

A :class:`WeightedMultigraph` is the universal input object: dense vertex ids
``0..n-1``, dense edge ids ``0..m-1``, positive integer weights, parallel
edges allowed, loops rejected.  Drawings are represented combinatorially:
a :class:`DrawingWitness` lists crossing events (pairs of independent edges)
together with the order in which each edge meets its events, which is enough
to planarize the drawing and check it against a plane graph.
:class:`SearchBudget` and its :class:`Ticker` bound every exact search.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction


class UncrossedError(Exception):
    """Base class for errors raised by this package."""


class PreconditionError(UncrossedError):
    """An operation was called outside its stated preconditions."""


class WitnessStructureError(UncrossedError):
    """A witness is structurally malformed (bad ids, inconsistent orders)."""


class ResourceExceededError(UncrossedError):
    """An enumeration exceeded its configured cap."""


class BudgetExhausted(Exception):
    """Internal signal that a search ran out of its budget."""


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for a solve; ``None`` means unlimited."""

    max_crossings: int | None = None
    max_drawings: int | None = None
    wall_clock_seconds: float | None = None
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.max_crossings is not None and self.max_crossings < 0:
            raise PreconditionError("max_crossings must be >= 0")
        if self.max_drawings is not None and self.max_drawings < 1:
            raise PreconditionError("max_drawings must be >= 1")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise PreconditionError("max_nodes must be >= 0")
        if self.wall_clock_seconds is not None and not self.wall_clock_seconds >= 0:
            raise PreconditionError("wall_clock_seconds must be >= 0")


NO_BUDGET = SearchBudget()


class Ticker:
    """Counts search nodes and raises :class:`BudgetExhausted` once the
    budget's node limit or wall clock runs out; with a wall clock set, every
    node reads the clock."""

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.deadline = (
            None
            if budget.wall_clock_seconds is None
            else time.monotonic() + budget.wall_clock_seconds
        )
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExhausted
        self.check_clock()

    def check_clock(self) -> None:
        """Raise :class:`BudgetExhausted` once the wall clock has run out,
        without counting a node; for long loops inside one node."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted


@dataclass(frozen=True)
class WeightedMultigraph:
    """A loopless multigraph with positive integer edge weights.

    ``edges[i]`` is ``(u, v, weight)`` and ``i`` is the edge id.  Instances
    are immutable and safe to share between concurrent workers.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        edges = tuple((int(u), int(v), int(w)) for u, v, w in self.edges)
        object.__setattr__(self, "edges", edges)
        for eid, (u, v, w) in enumerate(edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise PreconditionError(f"edge {eid}: endpoint out of range")
            if u == v:
                raise PreconditionError(f"edge {eid}: loops are not allowed")
            if w < 1:
                raise PreconditionError(f"edge {eid}: weight must be >= 1")

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, eid: int) -> tuple[int, int]:
        u, v, _ = self.edges[eid]
        return u, v

    def weight(self, eid: int) -> int:
        return self.edges[eid][2]

    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    def independent(self, e: int, f: int) -> bool:
        """True if edges e and f are distinct and share no endpoint."""
        if e == f:
            return False
        u1, v1, _ = self.edges[e]
        u2, v2, _ = self.edges[f]
        return len({u1, v1, u2, v2}) == 4

    def skeleton(self, edge_ids=None) -> frozenset[tuple[int, int]]:
        """Distinct endpoint pairs, each as ``(min, max)``, of every edge or
        of the edges ``edge_ids``."""
        edges = self.edges if edge_ids is None else [self.edges[e] for e in edge_ids]
        return frozenset((u, v) if u < v else (v, u) for u, v, _ in edges)

    def components(self, edge_ids=None):
        """Connected components of (V, edge_ids), all edges by default.

        Returns the components holding an edge, as (sorted vertex tuple,
        sorted edge-id tuple) in order of smallest vertex, and the sorted
        list of vertices no edge touches.
        """
        edges = self.edges
        ids = range(self.m) if edge_ids is None else sorted(edge_ids)
        parent: dict[int, int] = {}
        for e in ids:
            u, v, _ = edges[e]
            parent[u] = u
            parent[v] = v

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in ids:
            u, v, _ = edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for v in sorted(parent):
            groups.setdefault(find(v), ([], []))[0].append(v)
        for e in ids:
            groups[find(edges[e][0])][1].append(e)
        isolated = [v for v in range(self.n) if v not in parent]
        return [(tuple(vs), tuple(es)) for vs, es in groups.values()], isolated

    def spanning_subgraph(self, edge_ids) -> "WeightedMultigraph":
        """Subgraph on all n vertices keeping the given edges, re-numbered.

        Returns the subgraph; the i-th kept edge (in increasing original id)
        gets new id i.
        """
        kept = sorted(edge_ids)
        return WeightedMultigraph(self.n, tuple(self.edges[e] for e in kept))


def graph_from_edges(n: int, pairs, weights=None) -> WeightedMultigraph:
    """Convenience constructor from (u, v) pairs with optional weights."""
    pairs = list(pairs)
    if weights is None:
        weights = [1] * len(pairs)
    return WeightedMultigraph(n, tuple((u, v, w) for (u, v), w in zip(pairs, weights)))


@dataclass(frozen=True)
class CrossingEvent:
    """One crossing between two independent edges; costs the weight product."""

    first: int
    second: int

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise WitnessStructureError("a crossing event needs two distinct edges")

    def pair(self) -> tuple[int, int]:
        e, f = self.first, self.second
        return (e, f) if e < f else (f, e)


@dataclass(frozen=True)
class DrawingWitness:
    """A combinatorial drawing: crossing events plus per-edge event orders.

    ``edge_orders`` holds, for every edge that appears in at least one event,
    the event indices in traversal order starting from the edge's reference
    endpoint (the endpoint with the smaller vertex id).  The witness is valid
    for a graph G exactly when :func:`planarize` of (G, witness) is planar.
    """

    crossings: tuple[CrossingEvent, ...]
    edge_orders: tuple[tuple[int, tuple[int, ...]], ...]

    def orders_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.edge_orders)

    def cost(self, g: WeightedMultigraph) -> int:
        return sum(g.weight(ev.first) * g.weight(ev.second) for ev in self.crossings)

    def uncrossed_edges(self, g: WeightedMultigraph) -> frozenset[int]:
        touched = set()
        for ev in self.crossings:
            touched.add(ev.first)
            touched.add(ev.second)
        return frozenset(range(g.m)) - touched


@dataclass(frozen=True)
class CollectionWitness:
    """An ordered list of drawings claimed to form an uncrossed collection."""

    drawings: tuple[DrawingWitness, ...]
    declared_cost: int

    def __post_init__(self) -> None:
        if not self.drawings:
            raise WitnessStructureError("a collection needs at least one drawing")


def make_drawing(g: WeightedMultigraph, events, orders=None) -> DrawingWitness:
    """Build a drawing witness from edge-id pairs in canonical event order.

    ``events`` is an iterable of (e, f) pairs.  ``orders``, when given, maps
    edge id to the list of its events (as pairs) in traversal order from the
    reference endpoint; edges with a single event never need an entry.
    """
    pairs = sorted({(min(e, f), max(e, f)) for e, f in events})
    index = {p: i for i, p in enumerate(pairs)}
    crossings = tuple(CrossingEvent(e, f) for e, f in pairs)
    per_edge: dict[int, list[int]] = {}
    for i, (e, f) in enumerate(pairs):
        per_edge.setdefault(e, []).append(i)
        per_edge.setdefault(f, []).append(i)
    if orders is not None:
        for eid, seq in orders.items():
            want = [index[(min(e, f), max(e, f))] for e, f in seq]
            if sorted(want) != sorted(per_edge.get(eid, [])):
                raise WitnessStructureError(f"orders for edge {eid} do not match its events")
            per_edge[eid] = want
    edge_orders = tuple((eid, tuple(per_edge[eid])) for eid in sorted(per_edge))
    return DrawingWitness(crossings=crossings, edge_orders=edge_orders)


def chord_crossings(groups, parameter):
    """Crossing events and per-edge orders of chords drawn inside regions.

    Each group lists the chords that share one region as ``(eid, a, b,
    ref_at_b)``: the edge, the boundary positions of its two ends, and
    whether the edge's reference endpoint sits at ``b``.  Two chords of one
    group cross when their ends interleave.  ``parameter(a1, b1, a2, b2)``
    locates chord 1's crossing with chord 2, increasing from ``a1`` to
    ``b1``.  Exact ties, where three chords meet in one point, are broken
    by the same geometry with every position ``a`` moved to
    ``a + a^2/10^9``, which separates the three crossings consistently.
    Returns ``(events, orders)`` as :func:`make_drawing` takes them.
    """
    events = []
    along: dict[int, list] = {}
    ref_at_b = {}
    for chords in groups:
        for i, (e1, a1, b1, r1) in enumerate(chords):
            ref_at_b[e1] = r1
            lo1, hi1 = min(a1, b1), max(a1, b1)
            for e2, a2, b2, _ in chords[i + 1 :]:
                lo2, hi2 = min(a2, b2), max(a2, b2)
                if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                    events.append((e1, e2))
                    spot1, spot2 = (a1, b1, a2, b2), (a2, b2, a1, b1)
                    along.setdefault(e1, []).append((parameter(*spot1), spot1, e1, e2))
                    along.setdefault(e2, []).append((parameter(*spot2), spot2, e1, e2))
    orders = {}
    for eid, hits in along.items():
        if len(hits) < 2:
            continue
        hits.sort(key=lambda h: h[0])
        ordered = []
        for _, run in itertools.groupby(hits, key=lambda h: h[0]):
            run = list(run)
            if len(run) > 1:
                run.sort(key=lambda h: parameter(*(x + Fraction(x * x, 10**9) for x in h[1])))
            ordered += run
        if ref_at_b[eid]:
            ordered.reverse()
        orders[eid] = [(e, f) for _, _, e, f in ordered]
    return events, orders


def subdivide(g: WeightedMultigraph, s: int) -> WeightedMultigraph:
    """Replace every edge by a path with s new internal vertices.

    New edges inherit the original weight.  Original vertex ids are kept;
    the internal vertices of edge e are ``n + e*s .. n + e*s + s - 1``, in
    order from the edge's first stored endpoint.
    """
    if s < 0:
        raise PreconditionError("subdivision count must be nonnegative")
    if s == 0:
        return g
    new_edges: list[tuple[int, int, int]] = []
    for eid, (u, v, w) in enumerate(g.edges):
        inner = [g.n + eid * s + j for j in range(s)]
        chain = [u, *inner, v]
        for a, b in zip(chain, chain[1:]):
            new_edges.append((a, b, w))
    return WeightedMultigraph(g.n + s * g.m, tuple(new_edges))


def expand_weights(g: WeightedMultigraph) -> tuple[WeightedMultigraph, tuple[int, ...]]:
    """Replace every weight-t edge by t parallel weight-1 edges.

    Returns the expanded graph and, for each new edge id, the originating
    edge id.
    """
    new_edges: list[tuple[int, int, int]] = []
    origin: list[int] = []
    for eid, (u, v, w) in enumerate(g.edges):
        for _ in range(w):
            new_edges.append((u, v, 1))
            origin.append(eid)
    return WeightedMultigraph(g.n, tuple(new_edges)), tuple(origin)


def _check_witness_structure(g: WeightedMultigraph, d: DrawingWitness) -> dict[int, list[int]]:
    """Validate a drawing witness against g; returns per-edge event orders."""
    seen_pairs = set()
    for ev in d.crossings:
        if not (0 <= ev.first < g.m and 0 <= ev.second < g.m):
            raise WitnessStructureError("event references an unknown edge id")
        if not g.independent(ev.first, ev.second):
            raise WitnessStructureError(
                f"event ({ev.first}, {ev.second}) is not between independent edges"
            )
        if ev.pair() in seen_pairs:
            raise WitnessStructureError(f"duplicate event for edge pair {ev.pair()}")
        seen_pairs.add(ev.pair())

    per_edge: dict[int, list[int]] = {}
    for i, ev in enumerate(d.crossings):
        per_edge.setdefault(ev.first, []).append(i)
        per_edge.setdefault(ev.second, []).append(i)

    orders = d.orders_map()
    for eid in orders:
        if eid not in per_edge:
            raise WitnessStructureError(f"edge {eid} has an order but no events")
    result: dict[int, list[int]] = {}
    for eid, events in per_edge.items():
        if eid in orders:
            seq = list(orders[eid])
            if sorted(seq) != sorted(events):
                raise WitnessStructureError(
                    f"edge {eid}: order sequence does not list its events exactly once"
                )
        elif len(events) == 1:
            seq = events
        else:
            raise WitnessStructureError(f"edge {eid} has {len(events)} events but no order")
        result[eid] = seq
    return result


def edge_chains(g: WeightedMultigraph, d: DrawingWitness) -> dict[int, list[int]]:
    """Vertex path of every edge through its crossing dummies.

    Event i becomes vertex ``n + i``; the chain runs from the edge's
    reference endpoint (smaller vertex id) through its events in order.
    """
    per_edge = _check_witness_structure(g, d)
    chains: dict[int, list[int]] = {}
    for eid, (u, v, _) in enumerate(g.edges):
        ref, other = (u, v) if (u < v) else (v, u)
        mids = [g.n + i for i in per_edge.get(eid, [])]
        chains[eid] = [ref, *mids, other]
    return chains


def planarize(g: WeightedMultigraph, d: DrawingWitness) -> WeightedMultigraph:
    """Turn every crossing event into a new degree-4 vertex.

    The new vertex for event i is ``n + i``.  Each participating edge is
    split at the positions dictated by its order sequence; the drawing is a
    plane graph exactly when the result is planar.
    """
    chains = edge_chains(g, d)
    t = len(d.crossings)
    new_edges: list[tuple[int, int, int]] = []
    for eid in range(g.m):
        w = g.weight(eid)
        chain = chains[eid]
        for a, b in zip(chain, chain[1:]):
            new_edges.append((a, b, w))
    return WeightedMultigraph(g.n + t, tuple(new_edges))
