import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrossed.bounds import outerthickness, thickness
from uncrossed.core import (
    NO_BUDGET,
    CollectionWitness,
    CrossingEvent,
    DrawingWitness,
    PreconditionError,
    WeightedMultigraph,
    expand_weights,
    graph_from_edges,
    make_drawing,
    planarize,
)
from uncrossed.covers import certificate_is_valid
from uncrossed.instances import (
    Tile,
    complete,
    complete_bipartite,
    heavy_cycle_with_diameters,
    k5_with_two_light_edges,
    tile_crossing_number,
)
from uncrossed.solver import (
    SearchBudget,
    UcrResult,
    _DrawingSearch,
    _plans_key,
    _witness_from_plans,
    crossing_number,
    decide_uncrossed_cost,
    reference_oracle,
    uncrossed_crossing_number,
    uncrossed_number,
    verify_collection,
)

from conftest import atlas_graphs, edge_id_map, run_python


# -- crossing number ---------------------------------------------------------


def test_cr_examples(k4, k5):
    assert crossing_number(k4).value == 0
    assert crossing_number(k5).value == 1
    assert crossing_number(k5_with_two_light_edges(3)).value == 1
    assert crossing_number(k5_with_two_light_edges(4)).value == 1


def test_cr_k33_and_k6(k33, k6):
    assert crossing_number(k33).value == 1
    assert crossing_number(k6).value == 3


def test_cr_witness_planarizes(k5, k6):
    from uncrossed.core import planarize
    from uncrossed.planarity import graph_planar

    for g in (k5, k6):
        res = crossing_number(g)
        assert graph_planar(planarize(g, res.witness))
        assert res.witness.cost(g) == res.value


def test_cr_monotone_under_edge_addition():
    random.seed(3)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    for _ in range(6):
        subset = random.sample(pairs, 11)
        g_small = graph_from_edges(6, subset[:-1])
        g_big = graph_from_edges(6, subset)
        assert crossing_number(g_small).value <= crossing_number(g_big).value


def test_cr_walks_each_cost_layer_once(monkeypatch):
    # crossing_number is one min_drawing walk, so it tests exactly the sets
    # of that walk up to its answer, and finds the same witness
    g = complete_bipartite(3, 5)
    calls = []
    planarizable = _DrawingSearch.planarizable

    def counted(search, events):
        calls.append(events)
        return planarizable(search, events)

    monkeypatch.setattr(_DrawingSearch, "planarizable", counted)
    res = crossing_number(g)
    cr_calls = len(calls)
    calls.clear()
    cost, events, orders = _DrawingSearch(g, NO_BUDGET).min_drawing(frozenset(), 4)
    assert res.value == cost == 4
    assert cr_calls == len(calls)
    assert res.witness == make_drawing(g, events, orders)


def test_cr_budget_unknown(k6):
    res = crossing_number(k6, SearchBudget(max_nodes=5))
    assert res.status == "unknown"
    assert res.value is None
    assert res.lower_bound >= 1
    # above the Euler count of K3,5, 0: the walk has exhausted layers 0-2
    res = crossing_number(complete_bipartite(3, 5), SearchBudget(max_nodes=3000))
    assert (res.status, res.lower_bound) == ("unknown", 3)


# -- decide ------------------------------------------------------------------


def test_decide_planar_trivial(k4):
    dec = decide_uncrossed_cost(k4, 1, 0)
    assert dec.verdict == "yes"
    assert dec.witness.declared_cost == 0
    assert verify_collection(k4, dec.witness).accepted


def test_decide_k5_table(k5):
    assert decide_uncrossed_cost(k5, 1, 50).verdict == "no"
    assert decide_uncrossed_cost(k5, 2, 2).verdict == "yes"
    assert decide_uncrossed_cost(k5, 2, 1).verdict == "no"
    assert decide_uncrossed_cost(k5, 2, 0).verdict == "no"  # the deepening's first level


def test_decide_one_drawing_of_a_nonplanar_graph_is_no_at_once(k5):
    start = time.perf_counter()
    assert decide_uncrossed_cost(k5, 1, 10**9).verdict == "no"
    assert time.perf_counter() - start < 0.5


def test_decide_monotone_in_c_and_k(k5, k33):
    for g in (k5, k33):
        table = {}
        for c in (1, 2, 3):
            for k in (0, 1, 2, 3):
                table[c, k] = decide_uncrossed_cost(g, c, k).verdict == "yes"
        for c in (1, 2, 3):
            for k in (0, 1, 2, 3):
                if table[c, k]:
                    for c2 in range(c, 4):
                        for k2 in range(k, 4):
                            assert table[c2, k2]


def test_decide_witness_canonical_and_verified(k5):
    a = decide_uncrossed_cost(k5, 2, 2)
    b = decide_uncrossed_cost(k5, 2, 2)
    assert a.witness == b.witness
    assert verify_collection(k5, a.witness).accepted
    assert a.witness.declared_cost == 2


def test_decide_heavy_cycle(k5):
    g = heavy_cycle_with_diameters(3)
    assert decide_uncrossed_cost(g, 2, 3).verdict == "no"
    assert decide_uncrossed_cost(g, 3, 3).verdict == "yes"
    assert decide_uncrossed_cost(g, 3, 2).verdict == "no"


def test_cost_deepening_stops_at_the_optimum():
    # a yes at declared cost d is a no at d - 1, and every limit at or
    # above d gives the witness of d, which is also the one a single
    # cover at the full limit finds
    from uncrossed.planarity import graph_planar

    graphs = [g for g in atlas_graphs(6) if g.m <= 12 and not graph_planar(g)]
    assert len(graphs) == 11
    for g in [*graphs, complete(5), complete_bipartite(3, 3)]:
        for c, k in ((2, 2), (2, 3), (3, 3), (3, 4), (2, 5), (4, 6)):
            dec = decide_uncrossed_cost(g, c, k)
            if k <= 4:  # a single cover lists every drawing up to k
                got = _DrawingSearch(g, NO_BUDGET).cover(frozenset(range(g.m)), c, k)
                once = None if got is None else _witness_from_plans(g, got[1])
                assert once == dec.witness, (g.edges, c, k)
            if dec.verdict == "no":
                continue
            d = dec.witness.declared_cost
            if d >= 1:
                assert decide_uncrossed_cost(g, c, d - 1).verdict == "no", (g.edges, c, k)
            assert decide_uncrossed_cost(g, c, d).witness == dec.witness, (g.edges, c, k)


def test_k6_and_k34_are_exact_within_two_gib():
    # both values equal ounc * cr(G) = 2 * cr(G), a lower bound that does
    # not depend on the solver, and the witnesses verify; the child's
    # address space is capped so a regression fails instead of swapping
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from uncrossed.instances import complete, complete_bipartite
from uncrossed.solver import decide_uncrossed_cost, uncrossed_crossing_number, verify_collection
for g in (complete(6), complete_bipartite(3, 4)):
    res = uncrossed_crossing_number(g)
    print(res.status, res.ucr, res.ounc, len(res.witness.drawings), verify_collection(g, res.witness).accepted)
dec = decide_uncrossed_cost(complete(6), 3, 8)
print(dec.verdict, dec.witness.declared_cost, verify_collection(complete(6), dec.witness).accepted)
"""
    out = run_python(code, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines() == ["exact 6 2 2 True", "exact 4 2 2 True", "yes 6 True"]


def test_k35_and_k44_crossing_numbers_are_exact_within_two_gib():
    # cr(K3,5) = cr(K4,4) = 4 by Zarankiewicz's formula, which is proven at
    # these sizes; the planarizations are checked by networkx, and the
    # child's address space is capped so a regression fails instead of
    # swapping
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import networkx as nx
from uncrossed.core import planarize
from uncrossed.instances import complete_bipartite
from uncrossed.solver import crossing_number
for g in (complete_bipartite(3, 5), complete_bipartite(4, 4)):
    res = crossing_number(g)
    p = planarize(g, res.witness)
    h = nx.Graph()
    h.add_nodes_from(range(p.n))
    h.add_edges_from(p.endpoints(e) for e in range(p.m))
    print(res.status, res.value, res.witness.cost(g), nx.check_planarity(h)[0])
"""
    out = run_python(code, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines() == ["exact 4 4 True", "exact 4 4 True"]


def test_decide_preconditions(k5):
    with pytest.raises(PreconditionError):
        decide_uncrossed_cost(k5, 0, 1)
    with pytest.raises(PreconditionError):
        decide_uncrossed_cost(k5, 1, -1)


# -- ucr / ounc --------------------------------------------------------------


def test_ucr_planar(k4):
    res = uncrossed_crossing_number(k4)
    assert (res.ucr, res.ounc) == (0, 1)


def test_ucr_k5(k5):
    res = uncrossed_crossing_number(k5)
    assert (res.ucr, res.ounc) == (2, 2)
    assert verify_collection(k5, res.witness).accepted


def test_ucr_heavy_cycle():
    g = heavy_cycle_with_diameters(3)
    res = uncrossed_crossing_number(g)
    assert res.ucr == 3
    assert res.ounc == 3
    assert verify_collection(g, res.witness).accepted
    # the heavy rim stays uncrossed in every drawing of the witness
    rim = set(range(6))
    for d in res.witness.drawings:
        assert rim <= d.uncrossed_edges(g)


def _relabelled(g, seed):
    """``g`` with its vertices permuted and its edge ids shuffled."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], w) for u, v, w in g.edges]
    rng.shuffle(edges)
    return WeightedMultigraph(g.n, tuple(edges))


@pytest.mark.parametrize(
    "m, budget",
    [
        (3, NO_BUDGET),
        # 1,072 nodes at each seed; branching on a rim edge, which no
        # affordable drawing crosses, took 4,345 at seeds 4 and 5
        (4, SearchBudget(max_nodes=2000)),
        (5, SearchBudget(wall_clock_seconds=5)),
    ],
)
# seeds 0 and 1 give edge id 0 to a diameter, seeds 4 and 5 to a rim edge
@pytest.mark.parametrize("seed", [0, 1, 4, 5])
def test_ucr_heavy_cycle_closed_form(m, budget, seed):
    # a rim crossing costs m^3 > m * C(m - 1, 2); with the rim uncrossed two
    # diameters on one side of it interleave, so a drawing leaves at most
    # one diameter uncrossed and pays C(m - 1, 2) for the rest: one drawing
    # per diameter
    g = _relabelled(heavy_cycle_with_diameters(m), seed)
    res = uncrossed_crossing_number(g, budget)
    assert (res.status, res.ucr, res.ounc) == ("exact", m * (m - 1) * (m - 2) // 2, m)
    assert verify_collection(g, res.witness).accepted


def test_ucr_two_light_family():
    for m in (3, 4):
        g = k5_with_two_light_edges(m)
        res = uncrossed_crossing_number(g)
        assert res.ucr == 2 * m
        assert res.ounc == 2
        assert verify_collection(g, res.witness).accepted


def test_ucr_shrinks_the_drawing_count_at_the_optimum():
    # the least plan of cost 4 takes three drawings; ucr then finds one of
    # two drawings at the same cost
    g = WeightedMultigraph(7, (
        (0, 1, 4), (0, 3, 3), (0, 4, 3), (1, 2, 1), (1, 4, 1), (2, 3, 4), (2, 5, 3),
        (2, 6, 5), (3, 5, 1), (3, 6, 5), (4, 5, 3), (4, 6, 1), (5, 6, 1),
    ))
    least = decide_uncrossed_cost(g, 4, 4)
    assert least.verdict == "yes" and least.witness.declared_cost == 4
    assert len(least.witness.drawings) == 3
    assert decide_uncrossed_cost(g, 9, 3).verdict == "no"
    res = uncrossed_crossing_number(g)
    assert (res.status, res.ucr, res.ounc, res.lower_bound) == ("exact", 4, 2, 4)
    assert len(res.witness.drawings) == 2 and res.witness.declared_cost == 4
    assert verify_collection(g, res.witness).accepted


@pytest.mark.parametrize("nodes, lower_bound", [(50, 3), (3200, 4)])
def test_ucr_budget_keeps_the_proven_level(nodes, lower_bound):
    # ucr(K3,4) = 2 * cr(K3,4) = 4 (Zarankiewicz); every cost level below
    # the one the budget stops is proven empty
    res = uncrossed_crossing_number(complete_bipartite(3, 4), SearchBudget(max_nodes=nodes))
    assert (res.status, res.ucr, res.ounc) == ("unknown", None, None)
    assert res.lower_bound == lower_bound


def _weighted_k33():
    k33 = complete_bipartite(3, 3)
    return WeightedMultigraph(6, tuple((u, v, i % 3 + 1) for i, (u, v, _) in enumerate(k33.edges)))


@pytest.mark.parametrize(
    "g",
    [
        heavy_cycle_with_diameters(3),
        k5_with_two_light_edges(3),
        complete_bipartite(3, 3),
        complete(5),
        _weighted_k33(),
    ],
    ids=["heavy-cycle-3", "two-light-3", "k33", "k5", "weighted-k33"],
)
def test_ucr_witness_matches_fresh_decision(g):
    # ucr covers on one shared search; a fresh decision at its optimum must
    # report the same canonical witness
    res = uncrossed_crossing_number(g)
    assert res.status == "exact"
    assert decide_uncrossed_cost(g, res.ounc, res.ucr).witness == res.witness


def test_ucr_at_least_ounc_times_cr():
    for g in (complete(5), complete_bipartite(3, 3), heavy_cycle_with_diameters(3)):
        res = uncrossed_crossing_number(g)
        cr = crossing_number(g).value
        assert res.ucr >= res.ounc * cr


def test_weight_expansion_consistency():
    # the m=2 variant of the two-light-edges family, built inline because
    # the generator requires m >= 3
    light = {(0, 1), (2, 3)}
    edges = tuple(
        (i, j, 1 if (i, j) in light else 2)
        for i in range(5)
        for j in range(i + 1, 5)
    )
    weighted = WeightedMultigraph(5, edges)
    expanded, _ = expand_weights(weighted)
    a = uncrossed_crossing_number(weighted)
    b = uncrossed_crossing_number(expanded)
    assert a.ucr == b.ucr


# -- unc ---------------------------------------------------------------------


def test_unc_planar_is_one(k4):
    assert uncrossed_number(k4).value == 1


def test_unc_k5(k5):
    res = uncrossed_number(k5)
    assert res.value == 2
    assert all(certificate_is_valid(k5, c) for c in res.certificates)
    union = set()
    for c in res.certificates:
        union |= set(c.edge_subset)
    assert union == set(range(k5.m))


def test_unc_budget_unknown_keeps_proven_level(k5):
    # the one-drawing level is exhausted at cover node 6; node 17 trips the budget
    res = uncrossed_number(k5, SearchBudget(max_nodes=16))
    assert (res.status, res.lower_bound, res.nodes) == ("unknown", 2, 17)


def test_unc_k33_and_k6(k33, k6):
    assert uncrossed_number(k33).value == 2
    assert uncrossed_number(k6).value == 2


def test_unc_at_most_ounc(k5, k33):
    for g in (k5, k33, heavy_cycle_with_diameters(3)):
        unc = uncrossed_number(g).value
        res = uncrossed_crossing_number(g)
        assert unc <= res.ounc
        assert res.ounc <= g.m


def test_collection_from_certificates(k5, k6):
    from uncrossed.solver import collection_from_certificates

    for g in (k5, k6, heavy_cycle_with_diameters(3)):
        res = uncrossed_number(g)
        w = collection_from_certificates(g, res.certificates)
        assert len(w.drawings) == res.value
        assert verify_collection(g, w).accepted
        covered = set()
        for part, d in zip(res.certificates, w.drawings):
            covered |= d.uncrossed_edges(g)
        assert covered == set(range(g.m))


def test_collection_from_certificates_small_sweep():
    from uncrossed.solver import collection_from_certificates

    for g in atlas_graphs(5):
        res = uncrossed_number(g)
        w = collection_from_certificates(g, res.certificates)
        assert verify_collection(g, w).accepted


# -- reference oracle --------------------------------------------------------


def test_oracle_planar_and_trivial_cases(k4, k5):
    assert reference_oracle(k4, 1, 0) is True
    assert reference_oracle(k5, 1, 4) is False
    assert reference_oracle(k5, 2, 0) is False


def test_oracle_k5_locked_values(k5):
    assert reference_oracle(k5, 2, 2) is True
    assert reference_oracle(k5, 2, 1) is False


def test_oracle_matches_decide_on_k33(k33):
    for c, k in ((1, 1), (2, 2), (2, 1), (2, 3), (3, 3)):
        assert reference_oracle(k33, c, k) == (
            decide_uncrossed_cost(k33, c, k).verdict == "yes"
        )


def test_oracle_size_cap(k7):
    with pytest.raises(PreconditionError):
        reference_oracle(k7, 2, 2)  # 21 edges is beyond the cap


def test_oracle_weighted_heavy_cycle():
    g = heavy_cycle_with_diameters(3)
    assert reference_oracle(g, 3, 3) is True
    assert reference_oracle(g, 2, 3) is False
    assert reference_oracle(g, 3, 2) is False


def test_oracle_equivalence_six_vertex_nonplanar():
    # every nonplanar 6-vertex graph inside the oracle's size cap, up to
    # k = 4: the oracle searches non-normalized drawings (self-crossings,
    # adjacent crossings, repeats), so agreement here is the empirical
    # backing for the solver's normalized search space
    from uncrossed.planarity import graph_planar

    graphs = [
        g for g in atlas_graphs(6) if g.m <= 12 and not graph_planar(g)
    ]
    assert len(graphs) == 11
    for g in graphs:
        for c, k in ((1, 1), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)):
            assert reference_oracle(g, c, k) == (
                decide_uncrossed_cost(g, c, k).verdict == "yes"
            ), (g.edges, c, k)


@settings(max_examples=12)
@given(st.data())
def test_decide_matches_reference_oracle_on_weighted_multigraphs(data):
    # K5 or K3,3 with weights 1-2, at most one extra parallel edge, and the
    # edges shuffled so the solver sees varied edge ids
    base = data.draw(st.sampled_from([complete(5), complete_bipartite(3, 3)]))
    pairs = [(u, v) for u, v, _ in base.edges]
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=1))
    pairs = data.draw(st.permutations(pairs))
    weights = data.draw(st.lists(st.integers(1, 2), min_size=len(pairs), max_size=len(pairs)))
    g = WeightedMultigraph(base.n, tuple((u, v, w) for (u, v), w in zip(pairs, weights)))
    for c, k in ((2, 1), (2, 2), (2, 3), (3, 3)):
        verdict = decide_uncrossed_cost(g, c, k).verdict
        assert verdict in ("yes", "no")
        assert reference_oracle(g, c, k) == (verdict == "yes"), (g.edges, c, k)


def slow_planarizable(g, events):
    """First order assignment, in lexicographic order, whose planarization
    networkx finds planar, or None: every permutation of the events of each
    edge crossed more than once, edges by id and events sorted."""
    per_edge = {}
    for e, f in sorted(events):
        per_edge.setdefault(e, []).append((e, f))
        per_edge.setdefault(f, []).append((e, f))
    multi = sorted(eid for eid, evs in per_edge.items() if len(evs) > 1)
    for combo in itertools.product(*(itertools.permutations(per_edge[eid]) for eid in multi)):
        orders = {eid: tuple(evs) for eid, evs in per_edge.items()}
        orders.update(zip(multi, combo))
        p = planarize(g, make_drawing(g, events, orders))
        h = nx.Graph()
        h.add_nodes_from(range(p.n))
        h.add_edges_from(p.endpoints(e) for e in range(p.m))
        if nx.check_planarity(h)[0]:
            return orders
    return None


@st.composite
def drawing_search_graphs(draw):
    """K6; K3,3 plus up to two chords of its parts; or K5 with one parallel
    edge and weights 1-2; edge ids shuffled."""
    kind = draw(st.sampled_from(["K6", "K3,3", "K5"]))
    base = {"K6": complete(6), "K3,3": complete_bipartite(3, 3), "K5": complete(5)}[kind]
    edges = list(base.edges)
    if kind == "K3,3":
        chords = [(a, b, 1) for side in ((0, 1, 2), (3, 4, 5)) for a, b in itertools.combinations(side, 2)]
        edges += draw(st.lists(st.sampled_from(chords), max_size=2, unique=True))
    if kind == "K5":
        edges.append(draw(st.sampled_from(edges)))
        edges = [(u, v, draw(st.integers(1, 2))) for u, v, _ in edges]
    return WeightedMultigraph(base.n, tuple(draw(st.permutations(edges))))


@settings(max_examples=40)
@given(st.data())
def test_planarizable_matches_brute_force_orders(data):
    # the deletion test may only reject sets that no order planarizes, and
    # a set it passes must get the same first orders as plain enumeration
    g = data.draw(drawing_search_graphs())
    search = _DrawingSearch(g, NO_BUDGET)
    for _ in range(4):
        events = frozenset(data.draw(st.sets(st.sampled_from(list(search.pair_cost)), max_size=4)))
        want = slow_planarizable(g, events)
        if not search._deletions_planar(events):
            assert want is None, (g.edges, sorted(events))
        assert search.planarizable(events) == want, (g.edges, sorted(events))


def check_drawings_avoiding(g, avoid, limit):
    """Brute force over every event set within the limit, with a second
    search's planarizable as the oracle (checked against networkx above)."""
    search, oracle = _DrawingSearch(g, NO_BUDGET), _DrawingSearch(g, NO_BUDGET)
    allowed = [
        p for p in oracle.pair_cost
        if not avoid & set(p) and oracle.pair_cost[p] <= limit
    ]
    planarizable = {}  # events -> (cost, orders)
    for size in range(limit + 1):  # every pair costs at least 1
        for chosen in itertools.combinations(allowed, size):
            cost = sum(oracle.pair_cost[p] for p in chosen)
            orders = oracle.planarizable(frozenset(chosen)) if cost <= limit else None
            if orders is not None:
                planarizable[frozenset(chosen)] = (cost, orders)

    found = search.drawings_avoiding(avoid, limit)
    keys = [(cost, sorted(events)) for cost, events, _, _ in found]
    assert keys == sorted(keys), g.edges
    for cost, events, orders, touched in found:
        assert planarizable[events] == (cost, orders), (g.edges, sorted(events))
        assert touched == frozenset(e for p in events for e in p)
    listed = {events for _, events, _, _ in found}
    for events in planarizable:
        subsets = (frozenset(s) for r in range(len(events)) for s in itertools.combinations(events, r))
        if not any(s in planarizable for s in subsets):
            assert events in listed, (g.edges, sorted(events), sorted(avoid), limit)

    least = min(planarizable, key=lambda ev: (planarizable[ev][0], sorted(ev)), default=None)
    want = None if least is None else (planarizable[least][0], least, planarizable[least][1])
    fresh = _DrawingSearch(g, NO_BUDGET)  # apart from the list cache
    assert fresh.min_drawing(avoid, limit) == want, (g.edges, sorted(avoid), limit)
    if want is not None:
        # the walk stops at its answer: it tested no set that comes after it
        def rank(events):
            return sum(fresh.pair_cost[p] for p in events), sorted(events)

        late = [sorted(ev) for ev in fresh.planarizable_cache if rank(ev) > rank(least)]
        assert not late, (g.edges, sorted(avoid), limit, late[:3])


@settings(max_examples=30)
@given(st.data())
def test_drawings_avoiding_lists_every_minimal_planarizable_set(data):
    g = data.draw(drawing_search_graphs())
    avoid = frozenset(data.draw(st.sets(st.integers(0, g.m - 1), max_size=3)))
    limit = data.draw(st.integers(0, 3 if g.m == 15 else 4))  # K6 has 15 edges
    check_drawings_avoiding(g, avoid, limit)


@pytest.mark.parametrize("avoid", [frozenset(), frozenset({0})])
def test_drawings_avoiding_k6_at_its_crossing_number(avoid):
    # cr(K6) = 3, so every listed set of K6 sits at the limit itself
    check_drawings_avoiding(complete(6), avoid, 3)


def brute_least_plan(g, c, k):
    """Least plan covering E(G) with <= c drawings and total cost <= k, by
    (total, sorted event lists), over every combination of inclusion-minimal
    planarizable sets, with a second search's planarizable as the oracle."""
    oracle = _DrawingSearch(g, NO_BUDGET)
    allowed = [p for p, cost in oracle.pair_cost.items() if cost <= k]
    dominated = set()  # planarizable sets and their supersets
    minimal = []  # (cost, sorted events, orders, touched edges)
    for size in range(1, k + 1):  # every pair costs at least 1
        for chosen in itertools.combinations(allowed, size):
            events = frozenset(chosen)
            cost = sum(oracle.pair_cost[p] for p in chosen)
            if cost > k:
                continue
            if any(events - {p} in dominated for p in chosen):
                dominated.add(events)
            elif (orders := oracle.planarizable(events)) is not None:
                dominated.add(events)
                minimal.append((cost, sorted(events), orders, {e for p in events for e in p}))
    best = None
    for size in range(1, c + 1):
        for plan in itertools.combinations(minimal, size):
            total = sum(d[0] for d in plan)
            if total > k or any(all(e in d[3] for d in plan) for e in range(g.m)):
                continue
            key = tuple(sorted(tuple(d[1]) for d in plan))
            if best is None or (total, key) < best[:2]:
                best = (total, key, {tuple(d[1]): d[2] for d in plan})
    return best


@st.composite
def weighted_small_graphs(draw):
    """K5, K3,3 or the heavy cycle with three diameters, edge ids shuffled
    and weights from {1, 2, 5}: many edges are in no pair that fits."""
    base = draw(st.sampled_from([complete(5), complete_bipartite(3, 3), heavy_cycle_with_diameters(3)]))
    edges = [(u, v, draw(st.sampled_from([1, 2, 5]))) for u, v, _ in base.edges]
    return WeightedMultigraph(base.n, tuple(draw(st.permutations(edges))))


@settings(max_examples=150)
@given(st.data())
def test_cover_matches_brute_force_least_plan(data):
    # the branching edge may be any uncovered edge; the least plan must
    # not depend on which
    g = data.draw(weighted_small_graphs())
    c, k = data.draw(st.sampled_from([2, 3])), data.draw(st.integers(2, 6))
    want = brute_least_plan(g, c, k)
    got = _DrawingSearch(g, NO_BUDGET).cover(frozenset(range(g.m)), c, k)
    if got is not None:
        total, plans = got
        got = (total, _plans_key(plans), {tuple(sorted(ev)): orders for ev, orders in plans})
    assert got == want, (g.edges, c, k)


def test_deletion_test_rejects_two_pairs_of_k6():
    # deleting one edge of each of two pairs leaves K6 at least thirteen
    # edges, more than the twelve of a planar graph on six vertices
    g = complete(6)
    search = _DrawingSearch(g, NO_BUDGET)
    events = frozenset(list(search.pair_cost)[:2])
    assert not search._deletions_planar(events)
    assert search.essential == frozenset(range(g.m))
    assert search.planarizable(events) is None is slow_planarizable(g, events)


# -- verify ------------------------------------------------------------------


def test_verify_accepts_solver_output(k5):
    dec = decide_uncrossed_cost(k5, 2, 2)
    assert verify_collection(k5, dec.witness).accepted


def test_verify_rejects_uncovered_edge(k5):
    ids = edge_id_map(k5)
    d1 = make_drawing(k5, [(ids[(0, 1)], ids[(2, 3)])])
    w = CollectionWitness(drawings=(d1,), declared_cost=1)
    res = verify_collection(k5, w)
    assert not res.accepted and res.rule == "coverage"


def test_verify_rejects_wrong_cost(k5):
    dec = decide_uncrossed_cost(k5, 2, 2)
    w = CollectionWitness(drawings=dec.witness.drawings, declared_cost=99)
    res = verify_collection(k5, w)
    assert not res.accepted and res.rule == "cost"


def test_verify_rejects_broken_planarization(k6):
    # a multi-crossed edge whose event order is permuted until the
    # planarization stops being planar
    from uncrossed.core import planarize
    from uncrossed.planarity import graph_planar
    from uncrossed.instances import rotating_path_collection

    w = rotating_path_collection(6)
    g = complete(6)
    assert verify_collection(g, w).accepted
    broken = None
    for di, d in enumerate(w.drawings):
        orders = dict(d.edge_orders)
        multi = [e for e, seq in orders.items() if len(seq) >= 2]
        for e in multi:
            for perm in itertools.permutations(orders[e]):
                if list(perm) == list(orders[e]):
                    continue
                new_orders = dict(orders)
                new_orders[e] = tuple(perm)
                cand = DrawingWitness(
                    crossings=d.crossings,
                    edge_orders=tuple(sorted(new_orders.items())),
                )
                if not graph_planar(planarize(g, cand)):
                    drawings = list(w.drawings)
                    drawings[di] = cand
                    broken = CollectionWitness(
                        drawings=tuple(drawings), declared_cost=w.declared_cost
                    )
                    break
            if broken:
                break
        if broken:
            break
    assert broken is not None, "no order permutation broke planarity"
    res = verify_collection(g, broken)
    assert not res.accepted and res.rule == "planarity"


def test_verify_rejects_malformed_structure(k5):
    ids = edge_id_map(k5)
    from uncrossed.core import CrossingEvent

    # event between adjacent edges
    d = DrawingWitness(
        crossings=(CrossingEvent(ids[(0, 1)], ids[(0, 2)]),), edge_orders=()
    )
    w = CollectionWitness(drawings=(d, make_drawing(k5, [])), declared_cost=1)
    res = verify_collection(k5, w)
    assert not res.accepted and res.rule == "structure"


@pytest.mark.parametrize(
    "crossings, edge_orders, detail",
    [
        (((0, 10),), (), "unknown edge id"),  # K5 has edges 0..9
        (((0, 7), (7, 0)), (), "duplicate event"),
        (((0, 7),), ((0, (0,)), (7, (0,)), (8, (0,))), "edge 8 has an order but no events"),
        (((0, 7), (0, 8)), (), "edge 0 has 2 events but no order"),
    ],
    ids=["unknown-edge", "duplicate-pair", "order-of-uncrossed-edge", "missing-order"],
)
def test_verify_rejects_each_structure_fault(k5, crossings, edge_orders, detail):
    assert k5.independent(0, 7) and k5.independent(0, 8)
    d = DrawingWitness(
        crossings=tuple(CrossingEvent(e, f) for e, f in crossings), edge_orders=edge_orders
    )
    w = CollectionWitness(drawings=(d, make_drawing(k5, [])), declared_cost=1)
    res = verify_collection(k5, w)
    assert not res.accepted and res.rule == "structure" and detail in res.detail


def test_verify_accepts_omitted_orders_of_once_crossed_edges(k5):
    # an edge crossed once has one possible order, so a witness may omit it
    w = decide_uncrossed_cost(k5, 2, 2).witness
    bare = [DrawingWitness(crossings=d.crossings, edge_orders=()) for d in w.drawings]
    assert all(d.edge_orders for d in w.drawings)
    assert verify_collection(k5, CollectionWitness(tuple(bare), w.declared_cost)).accepted


def test_witness_permutation_keeps_uncrossed_property(k5):
    dec = decide_uncrossed_cost(k5, 2, 2)
    for perm in itertools.permutations(dec.witness.drawings):
        w = CollectionWitness(drawings=perm, declared_cost=dec.witness.declared_cost)
        assert verify_collection(k5, w).accepted


# -- budgets -----------------------------------------------------------------


def test_budget_validation():
    with pytest.raises(PreconditionError):
        SearchBudget(max_nodes=-1)
    with pytest.raises(PreconditionError):
        SearchBudget(wall_clock_seconds=-0.5)
    with pytest.raises(PreconditionError):
        SearchBudget(wall_clock_seconds=float("nan"))
    assert SearchBudget(max_nodes=0, wall_clock_seconds=0.0).max_nodes == 0


_ONE_NODE = SearchBudget(max_nodes=1)


@pytest.mark.parametrize(
    "solve, lower_bound",
    [
        (lambda g: crossing_number(g, _ONE_NODE), 3),
        (lambda g: uncrossed_crossing_number(g, _ONE_NODE), 6),
        (lambda g: uncrossed_number(g, _ONE_NODE), 1),
        (lambda g: thickness(g, _ONE_NODE), 1),
        (lambda g: outerthickness(g, _ONE_NODE), 1),
        (lambda g: tile_crossing_number(Tile(g, (0, 1, 2, 3)), _ONE_NODE), 3),
    ],
    ids=["cr", "ucr", "unc", "thickness", "outerthickness", "tcr"],
)
def test_one_node_budget_is_unknown_with_proven_bound(k6, solve, lower_bound):
    res = solve(k6)
    assert res.status == "unknown"
    assert res.lower_bound == lower_bound
    assert (res.ucr if isinstance(res, UcrResult) else res.value) is None


def test_ucr_budget_unknown(k33):
    res = uncrossed_crossing_number(k33, _ONE_NODE)
    assert res.status == "unknown"
    assert res.ucr is None


def test_one_node_budget_decision_is_unknown(k6):
    assert decide_uncrossed_cost(k6, 2, 6, _ONE_NODE).verdict == "unknown"


def test_unc_is_unknown_when_a_certificate_exceeds_the_rotation_budget():
    # the one part is outerplanar, but its certificate would enumerate the
    # rotations of a degree-11 vertex; the rim edge keeps it from being a tree
    star = [(0, v) for v in range(1, 12)]
    res = uncrossed_number(graph_from_edges(12, star + [(1, 2)]))
    assert (res.status, res.lower_bound, res.upper_bound, res.certificates) == (
        "unknown", 1, 1, None
    )
    # a tree has one face, so its certificate takes the enumerator's first
    # rotation and never reaches the hub's other cycles
    tree = graph_from_edges(12, star)
    res = uncrossed_number(tree)
    assert (res.status, res.value, len(res.certificates)) == ("exact", 1, 1)
    assert certificate_is_valid(tree, res.certificates[0])


def test_unc_certificates_respect_the_wall_clock():
    # the cover is one outerplanar part, found at once; its certificate
    # enumerates the rotations of the degree-10 hub, which takes seconds,
    # and the clock is read between every two of them
    star = [(0, v) for v in range(1, 11)]
    start = time.perf_counter()
    res = uncrossed_number(
        graph_from_edges(11, star + [(1, 2)]), SearchBudget(wall_clock_seconds=0.1)
    )
    assert time.perf_counter() - start < 0.5
    assert (res.status, res.value, res.lower_bound, res.upper_bound, res.certificates) == (
        "unknown", None, 1, 1, None
    )


def test_unc_budget_unknown(k6):
    res = uncrossed_number(k6, SearchBudget(max_nodes=3))
    assert res.status == "unknown"
    assert res.value is None


def _ucr_status(g, budget):
    return uncrossed_crossing_number(g, budget).status


def _cr_status(g, budget):
    # an unknown still carries the Euler count, 6 for K7, as its bound
    res = crossing_number(g, budget)
    return res.status if res.lower_bound >= 6 else f"lower bound {res.lower_bound}"


_K5_PAIRS = sorted(complete(5).skeleton())
# two K5s sharing vertex 4
_K5_ONE_SUM = graph_from_edges(9, _K5_PAIRS + [(u + 4, v + 4) for u, v in _K5_PAIRS])


@pytest.mark.parametrize(
    "g, solve",
    [
        # without a budget these two take about 3 s and 2 s, and the two
        # after them well over ten seconds
        (_K5_ONE_SUM, _ucr_status),
        (_K5_ONE_SUM, lambda g, budget: decide_uncrossed_cost(g, 3, 8, budget).verdict),
        (complete_bipartite(3, 5), _ucr_status),
        (complete(7), lambda g, budget: decide_uncrossed_cost(g, 3, 27, budget).verdict),
        # the lazy walk of cr's first level, C(105, 6) sets, reads it too
        (complete(7), _cr_status),
    ],
    ids=["ucr", "decide", "ucr-k35", "decide-k7", "cr-k7"],
)
def test_ucr_wall_clock_budget_stops_promptly(g, solve):
    start = time.perf_counter()
    assert solve(g, SearchBudget(wall_clock_seconds=0.05)) == "unknown"
    assert time.perf_counter() - start < 0.5


def test_unc_wall_clock_budget_stops_promptly(k7):
    # every cover node reads the clock, so the search overruns by one node
    start = time.perf_counter()
    res = uncrossed_number(k7, SearchBudget(wall_clock_seconds=0.05))
    assert res.status == "unknown"
    assert time.perf_counter() - start < 0.5
