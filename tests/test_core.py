import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrossed.core import (
    PreconditionError,
    WeightedMultigraph,
    WitnessStructureError,
    chord_drawing,
    expand_weights,
    graph_from_edges,
    make_drawing,
    planarize,
    subdivide,
)
from uncrossed.instances import _zigzag_path, complete, k5_with_two_light_edges, rotating_path_collection
from uncrossed.planarity import graph_planar

from conftest import edge_id_map


def test_graph_validation():
    with pytest.raises(PreconditionError):
        WeightedMultigraph(2, ((0, 0, 1),))  # loop
    with pytest.raises(PreconditionError):
        WeightedMultigraph(2, ((0, 1, 0),))  # weight < 1
    with pytest.raises(PreconditionError):
        WeightedMultigraph(2, ((0, 2, 1),))  # endpoint out of range


def test_parallel_edges_are_distinct():
    g = WeightedMultigraph(2, ((0, 1, 1), (0, 1, 1)))
    assert g.m == 2
    assert not g.independent(0, 1)


@st.composite
def graphs_with_edge_subsets(draw):
    """Multigraphs on at most 8 vertices and 14 edges, parallel edges
    included, with one subset of their edge ids."""
    n = draw(st.integers(2, 8))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=14))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, pairs), [e for e, k in enumerate(keep) if k]


@settings(max_examples=300)
@given(graphs_with_edge_subsets())
def test_components_match_networkx(case):
    g, part = case
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.endpoints(e) for e in part)
    groups = sorted(sorted(c) for c in nx.connected_components(h))
    comps, isolated = g.components(part)
    assert [vs for vs, _ in comps] == [tuple(c) for c in groups if len(c) > 1]
    assert [list(es) for _, es in comps] == [
        [e for e in part if g.endpoints(e)[0] in c] for c in groups if len(c) > 1
    ]
    assert isolated == [c[0] for c in groups if len(c) == 1]
    assert g.components() == g.components(range(g.m))


def test_subdivide_single_edge():
    g = graph_from_edges(2, [(0, 1)])
    s = subdivide(g, 1)
    assert s.n == 3 and s.m == 2
    assert set(s.edges) == {(0, 2, 1), (2, 1, 1)}


def test_subdivide_zero_is_identity():
    g = complete(4)
    assert subdivide(g, 0) is g


def test_subdivide_k3_twice():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    s = subdivide(g, 2)
    assert s.n == 9 and s.m == 9
    deg = [0] * s.n
    for u, v, _ in s.edges:
        deg[u] += 1
        deg[v] += 1
    assert all(deg[v] == 2 for v in range(3, 9))


def test_subdivide_counts_property():
    random.seed(0)
    for _ in range(25):
        n = random.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = random.randint(0, len(pairs))
        g = graph_from_edges(n, random.sample(pairs, m))
        s = random.randint(0, 3)
        h = subdivide(g, s)
        assert h.n == g.n + s * g.m
        assert h.m == (s + 1) * g.m


def test_subdivide_preserves_weights():
    g = k5_with_two_light_edges(3)
    h = subdivide(g, 2)
    assert sorted({w for _, _, w in h.edges}) == [1, 3]
    assert h.total_weight() == 3 * g.total_weight()


def test_expand_weights_identity_for_unit():
    g = complete(4)
    h, origin = expand_weights(g)
    assert h.edges == g.edges
    assert origin == tuple(range(g.m))


def test_expand_weights_triple():
    g = WeightedMultigraph(2, ((0, 1, 3),))
    h, origin = expand_weights(g)
    assert h.m == 3
    assert all(e == (0, 1, 1) for e in h.edges)
    assert origin == (0, 0, 0)


def test_expand_weights_heavy_k5_count():
    g = k5_with_two_light_edges(3)
    h, origin = expand_weights(g)
    assert h.m == 2 + 8 * 3 == 26
    assert all(w == 1 for _, _, w in h.edges)


def test_expand_weights_preserves_total_weight():
    random.seed(1)
    for _ in range(20):
        n = random.randint(2, 5)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = random.randint(1, len(pairs))
        weights = [random.randint(1, 4) for _ in range(m)]
        g = graph_from_edges(n, random.sample(pairs, m), weights)
        h, _ = expand_weights(g)
        assert h.m == g.total_weight()


def test_planarize_empty_drawing_is_identity():
    g = complete(4)
    d = make_drawing(g, [])
    p = planarize(g, d)
    assert p.edges == g.edges


def test_planarize_one_event_on_k5(k5):
    ids = edge_id_map(k5)
    d = make_drawing(k5, [(ids[(0, 1)], ids[(2, 3)])])
    p = planarize(k5, d)
    assert p.n == 6 and p.m == 12
    assert graph_planar(p)


def test_planarize_counts_property(k5):
    ids = edge_id_map(k5)
    events = [(ids[(0, 1)], ids[(2, 3)]), (ids[(0, 2)], ids[(1, 3)]),
              (ids[(0, 1)], ids[(2, 4)])]
    d = make_drawing(k5, events)
    p = planarize(k5, d)
    assert p.n == k5.n + 3
    assert p.m == k5.m + 2 * 3


def test_planarize_order_changes_result(k5):
    ids = edge_id_map(k5)
    e, f1, f2 = ids[(0, 1)], ids[(2, 3)], ids[(2, 4)]
    d_ab = make_drawing(k5, [(e, f1), (e, f2)], orders={e: [(e, f1), (e, f2)]})
    d_ba = make_drawing(k5, [(e, f1), (e, f2)], orders={e: [(e, f2), (e, f1)]})
    assert planarize(k5, d_ab).edges != planarize(k5, d_ba).edges


def test_planarize_rejects_bad_structure(k5):
    ids = edge_id_map(k5)
    # events for adjacent edges are not allowed
    with pytest.raises(WitnessStructureError):
        make_drawing(k5, [(ids[(0, 1)], ids[(0, 2)])])
        d = make_drawing(k5, [(ids[(0, 1)], ids[(0, 2)])])
        planarize(k5, d)
    # inconsistent orders: event missing from the edge's sequence
    from uncrossed.core import CrossingEvent, DrawingWitness

    d = DrawingWitness(
        crossings=(CrossingEvent(ids[(0, 1)], ids[(2, 3)]),
                   CrossingEvent(ids[(0, 1)], ids[(2, 4)])),
        edge_orders=((ids[(0, 1)], (0,)),),
    )
    with pytest.raises(WitnessStructureError):
        planarize(k5, d)


def test_drawing_cost_uses_weight_products():
    g = k5_with_two_light_edges(3)
    ids = edge_id_map(g)
    d = make_drawing(g, [(ids[(0, 1)], ids[(2, 3)])])
    assert d.cost(g) == 1
    d = make_drawing(g, [(ids[(0, 2)], ids[(1, 3)])])
    assert d.cost(g) == 9
    assert len(d.uncrossed_edges(g)) == g.m - 2


# -- chord drawings: the semicircle rule against straight parabola chords ------


def _parabola_key(ref, other, c, d):
    """Parameter, from ``ref``, of the point where the straight chord of the
    parabola x -> (x, x^2) from position ``ref`` to ``other`` meets the chord
    on ``c, d``: exact, then with every position a moved to a + a^2/10^9."""

    def along(p, q, r, s):
        dx, dy = q - p, q * q - p * p
        ex, ey = s - r, s * s - r * r
        return ((r - p) * ey - (r * r - p * p) * ex) / (dx * ey - dy * ex)

    spot = [Fraction(x) for x in (ref, other, c, d)]
    return along(*spot), along(*(x + x * x / 10**9 for x in spot))


def _check_against_parabolas(g, regions):
    """Along every chord, from its reference endpoint, the drawing's events
    follow the parabola model's order.  Only chords on equal positions may
    stay tied there, and every chord crossing such copies meets them in one
    nesting order, read from its end inside their interval.  Returns the
    drawing."""
    d = chord_drawing(g, regions)
    met = {
        e: [d.crossings[i].first + d.crossings[i].second - e for i in seq]
        for e, seq in d.orders_map().items()
    }
    for chords in regions:
        span = {e: (min(a, b), max(a, b)) for e, a, b in chords}

        def cross(e, f):
            (lo1, hi1), (lo2, hi2) = span[e], span[f]
            return lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1

        ends = {e: (a, b) if g.endpoints(e)[0] < g.endpoints(e)[1] else (b, a) for e, a, b in chords}
        for e in span:
            keys = {f: _parabola_key(*ends[e], *span[f]) for f in span if cross(e, f)}
            got = met.get(e, [])
            assert sorted(got) == sorted(keys)
            assert [keys[f] for f in got] == sorted(keys.values()), e
            assert all(span[f] == span[h] for f, h in zip(got, got[1:]) if keys[f] == keys[h])
        for lo, hi in set(span.values()):
            copies = {f for f in span if span[f] == (lo, hi)}
            nestings = set()
            for e in span:
                if e not in copies and cross(e, min(copies)):
                    seq = [f for f in met[e] if f in copies]
                    nestings.add(tuple(seq if lo < ends[e][0] < hi else seq[::-1]))
            assert len(nestings) <= 1, (lo, hi, nestings)
    return d


def _random_chord_region(rng):
    """A k-gon with shuffled vertex labels, its boundary cycle, and up to 9
    chords on a few position pairs (so some repeat and some share an end),
    each stored with either endpoint first and listed in random order."""
    k = rng.randint(4, 8)
    label = rng.sample(range(k), k)
    edges = [(label[i], label[(i + 1) % k], 1) for i in range(k)]
    pairs = list(itertools.combinations(range(k), 2))
    pool = rng.sample(pairs, rng.randint(2, min(6, len(pairs))))
    chords = []
    for _ in range(rng.randint(2, 9)):
        p, q = rng.choice(pool)[:: rng.choice((1, -1))]
        chords.append((len(edges), p, q))
        edges.append((label[p], label[q], 1))
    rng.shuffle(chords)
    return WeightedMultigraph(k, tuple(edges)), chords


def test_chord_drawing_matches_parabolas_on_random_regions():
    rng = random.Random(28)
    for _ in range(400):
        g, chords = _random_chord_region(rng)
        d = _check_against_parabolas(g, [chords])
        # the chords stay inside the boundary cycle, so the drawing is plane
        assert graph_planar(planarize(g, d))


@pytest.mark.parametrize("n", range(13, 17))
def test_chord_drawing_matches_parabolas_on_rotating_pages(n):
    # from n = 13 on, the pages hold triple points that only the nudge separates
    g = complete(n)
    drawings = []
    for s in range(-(-n // 2)):
        pos = {(v + s) % n: i + 1 for i, v in enumerate(_zigzag_path(n))}
        pages = ([], [])
        for e, (u, v, _) in enumerate(g.edges):
            if abs(pos[u] - pos[v]) > 1:
                pages[min(pos[u], pos[v]) % 2].append((e, pos[u], pos[v]))
        drawings.append(_check_against_parabolas(g, pages))
    assert tuple(drawings) == rotating_path_collection(n).drawings
