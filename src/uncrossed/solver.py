"""Exact solvers for crossing number, uncrossed collections and verification.

All searches are exhaustive over *normalized* combinatorial drawings: two
edges cross at most once per drawing, never at a shared endpoint, and never
themselves.  Standard redrawing arguments show the optima are unchanged by
normalization; :func:`reference_oracle` re-derives verdicts for tiny
instances without those assumptions and exists to guard them.

Budget exhaustion is a first-class "unknown" outcome carrying the best
proven bounds; it is never reported as a plain no.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    NO_BUDGET,
    BudgetExhausted,
    CollectionWitness,
    DrawingWitness,
    PreconditionError,
    SearchBudget,
    Ticker,
    WeightedMultigraph,
    WitnessStructureError,
    make_drawing,
    planarize,
    subdivide,
)
from .covers import (
    CoverResult,
    CoverSearch,
    RealizabilityContext,
    RealizabilityResult,
    UncrossedSetCertificate,
    certificate_drawing,
    realizable_uncrossed_set,
)
from .planarity import graph_planar, skeleton_planar

__all__ = [
    "SearchBudget",
    "CrossingNumberResult",
    "Decision",
    "UcrResult",
    "UncResult",
    "VerifyResult",
    "collection_from_certificates",
    "crossing_number",
    "decide_uncrossed_cost",
    "uncrossed_crossing_number",
    "uncrossed_number",
    "realizable_uncrossed_set",
    "reference_oracle",
    "verify_collection",
]


@dataclass(frozen=True)
class CrossingNumberResult:
    status: str  # "exact" | "unknown"
    value: int | None
    lower_bound: int
    upper_bound: int | None
    witness: DrawingWitness | None


@dataclass(frozen=True)
class Decision:
    verdict: str  # "yes" | "no" | "unknown"
    witness: CollectionWitness | None = None


@dataclass(frozen=True)
class UcrResult:
    status: str
    ucr: int | None
    ounc: int | None
    lower_bound: int
    upper_bound: int | None
    witness: CollectionWitness | None


@dataclass(frozen=True)
class UncResult:
    status: str
    value: int | None
    lower_bound: int
    upper_bound: int | None
    certificates: tuple[UncrossedSetCertificate, ...] | None
    sets_tested: int = 0
    nodes: int = 0


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    rule: str | None = None  # "structure" | "planarity" | "coverage" | "cost"
    detail: str = ""


def _euler_count_lb(g: WeightedMultigraph) -> int:
    """Minimum crossings of any drawing: skeleton edges beyond 3n-6."""
    if g.n < 3:
        return 0
    return max(0, len(g.skeleton()) - 3 * g.n + 6)


class _DrawingSearch:
    """Shared context: independent pairs, planarizability cache, budget.

    Every cache depends on g alone or carries its cost limit in its key,
    so one search serves any number of decisions.
    """

    def __init__(self, g: WeightedMultigraph, budget: SearchBudget):
        self.g = g
        self.ticker = Ticker(budget)
        # the independent pairs of edges, in lexicographic order, and their costs
        self.pair_cost = {
            (e, f): g.weight(e) * g.weight(f)
            for e in range(g.m)
            for f in range(e + 1, g.m)
            if g.independent(e, f)
        }
        # every cost is a multiple of step, and every drawing of the
        # nonplanar G crosses at least floor, a multiple of step too
        self.step = math.gcd(*self.pair_cost.values()) or 1
        self.floor = -(-max(1, _euler_count_lb(g)) // self.step) * self.step
        # per edge, its cheapest pair; inf for an edge in no pair
        self.cheapest_pair = [math.inf] * g.m
        for pair, cost in self.pair_cost.items():
            for e in pair:
                self.cheapest_pair[e] = min(self.cheapest_pair[e], cost)
        self.planarizable_cache: dict[frozenset, dict | None] = {}
        self.essential: frozenset[int] | None = None  # edges e with G - e nonplanar
        self.planar_without: dict[frozenset, bool] = {}  # removed edges -> G - R planar
        self.drawings_cache: dict[tuple, list] = {}
        self.layer = self.floor  # the cost layer the latest walk is in
        self.level = 2 * self.floor  # the collection cost least_plan is at

    # -- planarizability -------------------------------------------------

    def planarizable(self, events: frozenset) -> dict | None:
        """Orders making the planarization planar, or None.

        Orders map edge id to the tuple of its events (as pairs) in
        traversal order from the reference endpoint; the first planarizing
        assignment in lexicographic enumeration order is returned.
        """
        hit = self.planarizable_cache.get(events, "miss")
        if hit != "miss":
            return hit
        if not self._deletions_planar(events):
            self.planarizable_cache[events] = None
            return None
        per_edge: dict[int, list[tuple[int, int]]] = {}
        for e, f in sorted(events):
            per_edge.setdefault(e, []).append((e, f))
            per_edge.setdefault(f, []).append((e, f))
        multi = sorted(eid for eid, evs in per_edge.items() if len(evs) > 1)
        answer = None
        for combo in itertools.product(
            *(itertools.permutations(per_edge[eid]) for eid in multi)
        ):
            # trying the orders of one event set can outlast the whole budget
            self.ticker.check_clock()
            orders = dict(per_edge)
            for eid, perm in zip(multi, combo):
                orders[eid] = list(perm)
            if skeleton_planar(self._plan_skeleton(orders)):
                answer = {eid: tuple(seq) for eid, seq in orders.items()}
                break
        self.planarizable_cache[events] = answer
        return answer

    def _deletions_planar(self, events: frozenset) -> bool:
        """Necessary test for :meth:`planarizable`: G - R is planar for
        every R holding one edge of each pair in ``events``.

        Deleting R from a plane planarization leaves a plane subdivision of
        G - R, since every crossing loses an edge.  Deleting edges keeps
        planarity, so a choice holding an edge e with G - e planar passes:
        only essential edges (G - e nonplanar) are worth choosing, and a
        pair without one makes every choice pass.
        """
        if self.essential is None:
            self.essential = frozenset(
                e for e in range(self.g.m) if not self._planar_without(frozenset((e,)))
            )
        options = []
        for pair in events:
            kept = [e for e in pair if e in self.essential]
            if not kept:
                return True
            options.append(kept)
        for choice in itertools.product(*options):
            self.ticker.check_clock()
            if not self._planar_without(frozenset(choice)):
                return False
        return True

    def _planar_without(self, removed: frozenset) -> bool:
        hit = self.planar_without.get(removed)
        if hit is None:
            rest = [e for e in range(self.g.m) if e not in removed]
            hit = self.planar_without[removed] = skeleton_planar(self.g.skeleton(rest))
        return hit

    def _plan_skeleton(self, orders: dict) -> frozenset:
        g = self.g
        index: dict[tuple[int, int], int] = {}
        for seq in orders.values():
            for pair in seq:
                if pair not in index:
                    index[pair] = len(index)
        pairs = set()
        for eid, (u, v, _) in enumerate(g.edges):
            if eid not in orders:
                pairs.add((u, v) if u < v else (v, u))
                continue
            ref, other = (u, v) if u < v else (v, u)
            chain = [ref, *(g.n + index[p] for p in orders[eid]), other]
            for a, b in zip(chain, chain[1:]):
                pairs.add((a, b) if a < b else (b, a))
        return frozenset(pairs)

    # -- drawing enumeration ----------------------------------------------

    def _event_sets(self, avoid: frozenset, limit: int):
        """Every planarizable event set of cost <= limit not touching
        avoid, as (cost, events, orders, touched edges), lazily, in (cost,
        sorted events) order: the cost layers from :attr:`floor` up, by
        :attr:`step`, each walked depth first in lexicographic order.

        A planarizable set is not extended: a superset costs more (weights
        are >= 1) and crosses more edges, so no least plan holds one.  Such
        a prefix costs less than its layer, so its answer is cached when
        the lower layers were walked.  Every inclusion-minimal planarizable
        set is yielded.  ``self.layer`` is the layer being walked: every
        layer below it is exhausted.
        """
        lb = self.floor
        allowed = [
            p
            for p, cost in self.pair_cost.items()
            if p[0] not in avoid and p[1] not in avoid and cost <= limit
        ]

        def walk(idx: int, chosen: tuple, cost: int):
            self.ticker.tick()
            if cost >= lb:
                events = frozenset(chosen)
                orders = self.planarizable(events)
                if orders is not None and cost == layer:
                    yield cost, events, orders, frozenset(e for p in chosen for e in p)
                if orders is not None or cost == layer:
                    return
            for j in range(idx, len(allowed)):
                c2 = cost + self.pair_cost[allowed[j]]
                if c2 <= layer:
                    yield from walk(j + 1, chosen + (allowed[j],), c2)

        for layer in range(lb, limit + 1, self.step):
            self.layer = layer
            yield from walk(0, (), 0)

    def drawings_avoiding(self, avoid: frozenset, limit: int) -> list:
        """Every set of :meth:`_event_sets`, as a list."""
        key = (avoid, limit)
        hit = self.drawings_cache.get(key)
        if hit is None:
            hit = self.drawings_cache[key] = list(self._event_sets(avoid, limit))
        return hit

    def min_drawing(self, forced: frozenset, limit: int):
        """Cheapest planarizable event set avoiding ``forced`` entirely.

        Returns (cost, events, orders) with the lexicographically least
        event list among ties, or None if nothing fits the limit.  The walk
        stops at that set: every layer below its cost is exhausted first.
        """
        got = next(self._event_sets(forced, limit), None)
        return None if got is None else got[:3]

    # -- covering recursion ----------------------------------------------

    def least_plan(self, max_drawings: int, limit: int | None = None):
        """Least plan covering E(G) with <= max_drawings drawings, by cost.

        Deepens :attr:`level` by :attr:`step` from twice :attr:`floor` (a
        nonplanar G needs two drawings, each crossing) and returns the first
        :meth:`cover` found, or None once the level passes ``limit``.  Every
        level below :attr:`level` has no plan, so it is the proven lower bound.
        """
        everything = frozenset(range(self.g.m))
        self.level = 2 * self.floor
        while limit is None or self.level <= limit:
            self.ticker.tick()
            got = self.cover(everything, max_drawings, self.level)
            if got is not None:
                return got
            self.level += self.step
        return None

    def cover(self, uncovered: frozenset, c_left: int, k_left: int):
        """Min-cost plan covering ``uncovered`` (nonempty) with <= c_left
        (>= 1) drawings: (cost, plans) with plans a tuple of (events,
        orders), or None when impossible within k_left.  Among plans of
        least cost the one with the least :func:`_plans_key` wins, so the
        answer is the same for every k_left at or above that cost.

        Plans of two or more drawings branch on one uncovered edge x that a
        drawing within the trimmed limit can cross: every plan leaves x
        uncrossed in some drawing, which is taken first.  Whichever x is
        chosen, the least plan is reached, since its drawings are
        inclusion-minimal planarizable sets, which the walk lists whatever
        edge it avoids; an x that no such drawing crosses would rule out no
        first drawing.  When no uncovered edge is crossable, the first
        drawing of any longer plan leaves them all uncrossed and is cheaper
        on its own, so the one-drawing plan wins.
        """
        best = None  # (total, _plans_key, plans) of the least plan so far
        got = self.min_drawing(uncovered, k_left)  # the least one-drawing plan
        if got is not None:
            plans = ((got[1], got[2]),)
            best = (got[0], _plans_key(plans), plans)
        # a first drawing crossing an uncovered edge needs a further one,
        # and every drawing costs at least :attr:`floor`
        limit = k_left - self.floor
        crossable = [e for e in uncovered if self.cheapest_pair[e] <= limit]
        fits = c_left > 1 and limit >= self.floor and crossable
        firsts = self.drawings_avoiding(frozenset({min(crossable)}), limit) if fits else []
        for cost_d, events, orders, touched in firsts:
            if best is not None and cost_d > best[0]:
                break  # sorted by cost: nothing cheaper is left
            rest = uncovered & touched
            if not rest:
                continue  # a one-drawing plan, and min_drawing found the least
            sub = self.cover(rest, c_left - 1, k_left - cost_d)
            if sub is None:
                continue
            total = cost_d + sub[0]
            plans = ((events, orders), *sub[1])
            cand = (total, _plans_key(plans), plans)
            if best is None or cand[:2] < best[:2]:
                best = cand
        return None if best is None else (best[0], best[2])


def _plans_key(plans) -> tuple:
    return tuple(sorted(tuple(sorted(events)) for events, _ in plans))


def _witness_from_plans(g: WeightedMultigraph, plans) -> CollectionWitness:
    return _verified_collection(g, [make_drawing(g, *plan) for plan in plans])


def _verified_collection(g: WeightedMultigraph, drawings) -> CollectionWitness:
    """The collection of ``drawings`` sorted by crossings, at their summed
    cost; an AssertionError if :func:`verify_collection` rejects it."""
    drawings = sorted(drawings, key=lambda d: tuple(ev.pair() for ev in d.crossings))
    total = sum(d.cost(g) for d in drawings)
    witness = CollectionWitness(drawings=tuple(drawings), declared_cost=total)
    check = verify_collection(g, witness)
    if not check.accepted:
        raise AssertionError(f"solver produced an invalid collection: {check.rule}")
    return witness


def _trivial_planar_witness(g: WeightedMultigraph) -> CollectionWitness:
    return CollectionWitness(drawings=(make_drawing(g, []),), declared_cost=0)


def crossing_number(
    g: WeightedMultigraph, budget: SearchBudget = NO_BUDGET
) -> CrossingNumberResult:
    """Exact weighted crossing number with a drawing witness.

    One walk of the cost layers, up to a limit no event set exceeds, stops
    at its first set; every layer below the one being walked is exhausted,
    so a budget interruption still yields a proven lower bound.
    """
    if graph_planar(g):
        return CrossingNumberResult("exact", 0, 0, 0, make_drawing(g, []))
    search = _DrawingSearch(g, budget)
    try:
        cost, events, orders = search.min_drawing(
            frozenset(), sum(search.pair_cost.values())
        )
    except BudgetExhausted:
        return CrossingNumberResult("unknown", None, search.layer, None, None)
    return CrossingNumberResult("exact", cost, cost, cost, make_drawing(g, events, orders))


def decide_uncrossed_cost(
    g: WeightedMultigraph,
    max_drawings: int,
    max_cost: int,
    budget: SearchBudget = NO_BUDGET,
) -> Decision:
    """Is there an uncrossed collection of <= max_drawings drawings with
    total weighted cost <= max_cost?

    Yes-answers carry a verified witness, canonical across runs: the
    lexicographically least event structure among all optimal collections.
    It is the least plan within max_cost, so cost deepening stops at the
    optimum and never lists a drawing dearer than the optimum allows.
    """
    if max_drawings < 1 or max_cost < 0:
        raise PreconditionError("need max_drawings >= 1 and max_cost >= 0")
    if graph_planar(g):
        return Decision("yes", _trivial_planar_witness(g))
    if max_drawings == 1:
        return Decision("no")  # one drawing of a nonplanar graph always crosses
    search = _DrawingSearch(g, budget)
    try:
        got = search.least_plan(max_drawings, max_cost)
    except BudgetExhausted:
        return Decision("unknown")
    if got is None:
        return Decision("no")
    return Decision("yes", _witness_from_plans(g, got[1]))


def uncrossed_crossing_number(
    g: WeightedMultigraph, budget: SearchBudget = NO_BUDGET
) -> UcrResult:
    """Minimum total cost of an uncrossed collection, and the least number
    of drawings attaining it.

    The least plan with up to m drawings has the optimal cost k: m never
    binds, since every drawing of a plan leaves uncrossed an edge no
    earlier one did.  Then the drawing count shrinks at k while a cover
    with one drawing fewer exists; a nonplanar G needs two.
    """
    if graph_planar(g):
        return UcrResult("exact", 0, 1, 0, 0, _trivial_planar_witness(g))
    search = _DrawingSearch(g, budget)  # one budget and cache for every cover
    try:
        k, plans = search.least_plan(g.m)
    except BudgetExhausted:
        return UcrResult("unknown", None, None, search.level, None, None)
    witness = _witness_from_plans(g, plans)
    try:
        while len(witness.drawings) > 2 and (
            got := search.cover(frozenset(range(g.m)), len(witness.drawings) - 1, k)
        ):
            witness = _witness_from_plans(g, got[1])
    except BudgetExhausted:
        # optimal cost is proven but not the least drawing count
        return UcrResult("unknown", k, None, k, k, witness)
    return UcrResult("exact", k, len(witness.drawings), k, k, witness)


def uncrossed_number(g: WeightedMultigraph, budget: SearchBudget = NO_BUDGET) -> UncResult:
    """Least number of drawings in an uncrossed collection, by exact set
    covering with realizable uncrossed sets.

    Realizability is tested on every partial part, so the search abandons
    a part as soon as no superset of it can be realizable.  When the
    budget runs out, the lower bound is the least drawing count that no
    exhausted level has ruled out.  A planar G with edges is one part, E,
    taken without the search.  A cover whose certificates exceed the
    rotation budget or the wall clock is "unknown", with the cover's size
    as upper bound.
    """
    ctx = RealizabilityContext(g)
    cover = CoverSearch(g, ctx.feasible, budget)
    ctx.ticker = cover.ticker  # the certificates below read the same clock
    if g.m and graph_planar(g):
        out = CoverResult("exact", 1, 1, 1, (frozenset(range(g.m)),))
    else:
        out = cover.minimum()
    status, value, certificates = out.status, out.value, None
    if out.parts is not None:
        try:
            certs = [ctx.realizable(part, want_certificate=True) for part in out.parts]
        except BudgetExhausted:
            certs = [RealizabilityResult("unknown")]
        if any(res.status == "no" for res in certs):
            raise AssertionError("cover part lost realizability on recheck")
        if all(res.status == "yes" for res in certs):
            certificates = tuple(res.certificate for res in certs)
        else:
            # the cover is proven, but a certificate ran out of rotations or clock
            status, value = "unknown", None
    return UncResult(
        status,
        value,
        out.lower_bound,
        out.upper_bound,
        certificates,
        len(cover.cache),
        cover.nodes,
    )


def collection_from_certificates(
    g: WeightedMultigraph, certificates
) -> CollectionWitness:
    """Turn uncrossed-set certificates covering E(G) into explicit drawings,
    one :func:`~uncrossed.covers.certificate_drawing` each.  The result is
    not cost-optimal, only a valid uncrossed collection.
    """
    if not certificates:  # edgeless graph: one crossing-free drawing
        return _trivial_planar_witness(g)
    return _verified_collection(g, [certificate_drawing(g, cert) for cert in certificates])


# ---------------------------------------------------------------------------
# reference oracle


#: refuse instances larger than this: (vertices, edges, cost limit)
ORACLE_CAPS = (8, 12, 4)


def reference_oracle(g: WeightedMultigraph, max_drawings: int, max_cost: int) -> bool:
    """Exhaustive re-derivation of :func:`decide_uncrossed_cost` verdicts.

    Works on the graph with every edge subdivided ``max_cost`` times and
    enumerates crossing spots as pairs of subdivision vertices, identifying
    each chosen pair and testing planarity per drawing.  No normalization
    is assumed: self-crossings, adjacent-edge crossings and repeated
    crossings of one pair are all in the search space.  Tiny instances only.
    """
    n_cap, m_cap, k_cap = ORACLE_CAPS
    if g.n > n_cap or g.m > m_cap or max_cost > k_cap:
        raise PreconditionError(
            f"reference oracle refuses instances beyond {ORACLE_CAPS}"
        )
    if max_drawings < 1 or max_cost < 0:
        raise PreconditionError("need max_drawings >= 1 and max_cost >= 0")
    if graph_planar(g):
        return True
    if max_drawings == 1 or max_cost == 0:
        return False

    k = max_cost
    h = subdivide(g, k)

    def edge_of(vid: int) -> int:
        return (vid - g.n) // k

    svs = range(g.n, h.n)
    spots = []
    for a in svs:
        for b in svs:
            if a < b:
                cost = g.weight(edge_of(a)) * g.weight(edge_of(b))
                if cost <= k:
                    spots.append((a, b, cost))
    base_skel = [(u, v) for u, v, _ in h.edges]
    ident_cache: dict[frozenset, bool] = {}

    def identified_planar(group: frozenset) -> bool:
        hit = ident_cache.get(group)
        if hit is not None:
            return hit
        parent: dict[int, int] = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for a, b in group:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        pairs = set()
        for u, v in base_skel:
            ru, rv = find(u), find(v)
            if ru != rv:
                pairs.add((ru, rv) if ru < rv else (rv, ru))
        ans = skeleton_planar(frozenset(pairs))
        ident_cache[group] = ans
        return ans

    group_lb = max(1, _euler_count_lb(g))
    use_count: dict[int, int] = {}

    def spots_free(a: int, b: int) -> bool:
        # a subdivision vertex may serve as a crossing end at most twice
        if use_count.get(a, 0) >= 2 or use_count.get(b, 0) >= 2:
            return False
        return True

    def search(uncovered: frozenset, drawings_used: int, cost_left: int) -> bool:
        if not uncovered:
            return True
        if drawings_used == max_drawings:
            return False
        e_star = min(uncovered)
        banned = set(range(g.n + e_star * k, g.n + (e_star + 1) * k))
        allowed = [
            (a, b, c) for a, b, c in spots if a not in banned and b not in banned
        ]

        def build(idx: int, chosen: tuple, cost: int, touches: bool) -> bool:
            if len(chosen) >= group_lb:
                group = frozenset((a, b) for a, b, _ in chosen)
                if identified_planar(group):
                    touched_edges = frozenset(
                        edge_of(x) for a, b, _ in chosen for x in (a, b)
                    )
                    rest = uncovered & touched_edges
                    if search(rest, drawings_used + 1, cost_left - cost):
                        return True
            for j in range(idx, len(allowed)):
                a, b, c = allowed[j]
                t2 = touches or edge_of(a) in uncovered or edge_of(b) in uncovered
                # once an uncovered edge is crossed here, a further drawing
                # must cover it, costing at least group_lb
                reserve = group_lb if t2 else 0
                if cost + c + reserve > cost_left:
                    continue
                if not spots_free(a, b):
                    continue
                use_count[a] = use_count.get(a, 0) + 1
                use_count[b] = use_count.get(b, 0) + 1
                if build(j + 1, chosen + ((a, b, c),), cost + c, t2):
                    return True
                use_count[a] -= 1
                use_count[b] -= 1
            return False

        return build(0, (), 0, False)

    return search(frozenset(range(g.m)), 0, k)


# ---------------------------------------------------------------------------
# witness verification


def verify_collection(g: WeightedMultigraph, w: CollectionWitness) -> VerifyResult:
    """Accept iff every drawing planarizes to a plane graph, every edge is
    uncrossed somewhere, and the declared cost matches.

    Rejections name the first violated rule: structure, planarity,
    coverage, or cost.
    """
    planarizations = []
    for i, d in enumerate(w.drawings):
        try:
            planarizations.append(planarize(g, d))
        except WitnessStructureError as exc:
            return VerifyResult(False, "structure", f"drawing {i}: {exc}")
    for i, p in enumerate(planarizations):
        if not graph_planar(p):
            return VerifyResult(False, "planarity", f"drawing {i} does not planarize")
    covered: set[int] = set()
    for d in w.drawings:
        covered |= d.uncrossed_edges(g)
    missing = sorted(set(range(g.m)) - covered)
    if missing:
        return VerifyResult(False, "coverage", f"edges never uncrossed: {missing}")
    actual = sum(d.cost(g) for d in w.drawings)
    if actual != w.declared_cost:
        return VerifyResult(
            False, "cost", f"declared {w.declared_cost}, actual {actual}"
        )
    return VerifyResult(True)
