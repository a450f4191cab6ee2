import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

from uncrossed import planarity
from uncrossed.bounds import outerthickness
from uncrossed.core import ResourceExceededError, WeightedMultigraph, graph_from_edges
from uncrossed.covers import RealizabilityContext
from uncrossed.instances import complete, complete_bipartite, hex_grid
from uncrossed.planarity import (
    components_of,
    enumerate_embeddings,
    faces,
    graph_planar,
    is_outerplanar,
    is_planar,
    kuratowski_is_valid,
    planar_rotations_of_component,
    skeleton_outerplanar,
)

from conftest import atlas_graphs, brute_planar, cycle, edge_id_map, run_python, wheel


def test_k4_planar(k4):
    assert is_planar(k4).planar


def test_k5_nonplanar_with_full_witness(k5):
    res = is_planar(k5)
    assert not res.planar
    assert res.kuratowski == frozenset(range(10))
    assert kuratowski_is_valid(k5, res.kuratowski)


def test_hex_grid_planar():
    g, _ = hex_grid(3)
    assert is_planar(g).planar


def test_kuratowski_witness_minimal_and_nonplanar(k33, k6):
    for g in (k33, k6):
        res = is_planar(g)
        assert not res.planar
        assert kuratowski_is_valid(g, res.kuratowski)


def test_agrees_with_brute_force_on_small_graphs():
    for g in atlas_graphs(6):
        assert graph_planar(g) == brute_planar(g), g.edges


def test_multigraph_planarity():
    g = WeightedMultigraph(3, ((0, 1, 1), (0, 1, 1), (1, 2, 1), (0, 2, 1)))
    assert is_planar(g).planar
    # parallel edges do not create Kuratowski subgraphs
    doubled_k5 = WeightedMultigraph(
        5, tuple((i, j, 1) for i in range(5) for j in range(i + 1, 5)) * 2
    )
    res = is_planar(doubled_k5)
    assert not res.planar
    assert kuratowski_is_valid(doubled_k5, res.kuratowski)


def test_embedding_euler_formula():
    for g in atlas_graphs(5):
        if not graph_planar(g):
            continue
        res = is_planar(g)
        emb = res.embedding
        comps = len(emb.components)
        assert g.n - g.m + len(emb.faces) == 1 + comps


def test_faces_triangle(triangle):
    emb = is_planar(triangle).embedding
    fs = faces(emb)
    assert len(fs) == 2
    assert all(f.vertices == frozenset({0, 1, 2}) for f in fs)


def test_faces_k4(k4):
    emb = is_planar(k4).embedding
    fs = faces(emb)
    assert len(fs) == 4
    assert all(len(f.vertices) == 3 for f in fs)


def test_faces_hex_grid_2():
    g, _ = hex_grid(2)
    emb = is_planar(g).embedding
    lengths = sorted(sum(len(w) for w in f.walks) for f in emb.faces)
    assert lengths == [6] * 7 + [18]


def test_rotation_lists_cover_incident_darts(k4):
    emb = is_planar(k4).embedding
    seen = sorted(d for cycle_ in emb.rotation for d in cycle_)
    assert seen == list(range(2 * k4.m))


def test_outerplanar_examples(k4):
    assert is_outerplanar(cycle(5))
    assert not is_outerplanar(k4)
    assert not is_outerplanar(complete_bipartite(2, 3))


def test_outerplanar_iff_apex_planar():
    for g in atlas_graphs(7):
        apex = g.n
        edges = list(g.edges) + [(v, apex, 1) for v in range(g.n)]
        apexed = WeightedMultigraph(g.n + 1, tuple(edges))
        assert is_outerplanar(g) == graph_planar(apexed)


def apex_planar(pairs) -> bool:
    """Outerplanarity the slow way: networkx planarity of the graph plus an
    apex joined to every vertex an edge touches."""
    h = nx.Graph(pairs)
    apex = object()
    h.add_edges_from((apex, v) for v in list(h))
    return nx.check_planarity(h)[0]


def test_outerplanar_reduction_matches_apex_on_atlas():
    for h in graph_atlas_g():
        pairs = frozenset(tuple(sorted(e)) for e in h.edges())
        assert skeleton_outerplanar(pairs) == apex_planar(pairs), sorted(pairs)


@st.composite
def near_outerplanar_or_random(draw):
    """A simple graph on at most 12 vertices: half of them a triangulated
    polygon with some edges dropped, 0-2 random edges added and shuffled
    labels; the other half random."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not draw(st.booleans()):
        return frozenset(p for p in pairs if draw(st.booleans()))
    edges = {(i, (i + 1) % n) for i in range(n)}
    polygons = [list(range(n))]
    while polygons:
        vs = polygons.pop()
        if len(vs) >= 4:
            k = draw(st.integers(2, len(vs) - 2))
            edges.add((vs[0], vs[k]))
            polygons += [vs[: k + 1], [vs[0]] + vs[k:]]
    edges = {e for e in edges if draw(st.integers(0, 4))}  # drop about one in five
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    label = draw(st.permutations(range(n)))
    return frozenset(tuple(sorted((label[u], label[v]))) for u, v in edges)


@settings(max_examples=300, deadline=None)
@given(near_outerplanar_or_random())
def test_outerplanar_reduction_matches_apex_on_random_graphs(pairs):
    assert skeleton_outerplanar(pairs) == apex_planar(pairs)


# two triangles on edge 2-3 plus three pendant edges: deleting a degree-2
# vertex before the pendant ones, with no cut-vertex case, rejects it
TRIANGLES_WITH_PENDANTS = ((0, 2), (0, 3), (1, 2), (2, 3), (2, 5), (3, 4), (3, 5), (5, 6))
# K2,3 plus the edge between its poles 0 and 1: without the saturation test
# the reduction accepts it
K23_WITH_POLE_EDGE = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))
# edge 0-1 with two triangles on it, a triangle at 1, and a bridge 0-6 to a
# triangle: in about one labelling in twelve, 0 has degree 2 with 0-1
# saturated while both triangles are still there (the cut-vertex case)
SATURATED_CUT_VERTEX = (
    (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (4, 5), (1, 5),
    (0, 6), (6, 7), (7, 8), (6, 8),
)


@pytest.mark.parametrize("pairs, outer", [
    (TRIANGLES_WITH_PENDANTS, True),
    (K23_WITH_POLE_EDGE, False),
    (SATURATED_CUT_VERTEX, True),
    (tuple(itertools.combinations(range(4), 2)), False),
    (tuple((u, v) for u in range(2) for v in range(2, 5)), False),
    (((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)), True),
    ((), True),
    (((0, 1),), True),
])
def test_outerplanar_named_cases_under_many_labellings(pairs, outer):
    """The reduction order follows the labels, so each case runs under
    the identity and 1,000 seeded random relabellings."""
    assert apex_planar(pairs) == outer
    vertices = sorted({v for p in pairs for v in p})
    rng = random.Random(0)
    for i in range(1001):
        perm = vertices[:]
        if i:
            rng.shuffle(perm)
        label = dict(zip(vertices, perm))
        relabelled = frozenset(tuple(sorted((label[u], label[v]))) for u, v in pairs)
        assert skeleton_outerplanar(relabelled) == outer, relabelled


def test_outerplanar_takes_any_vertex_labels():
    # outerplanar; an apex labelled -1 used to merge with vertex -1
    assert skeleton_outerplanar(frozenset({(-1, 2), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}))
    big = 10**30
    fan = {(big, big + i) for i in range(1, 6)} | {(big + i, big + i + 1) for i in range(1, 5)}
    assert skeleton_outerplanar(frozenset(fan))
    assert not skeleton_outerplanar(frozenset(fan | {(big + 1, big + 5)}))
    k4 = frozenset(itertools.combinations("abcd", 2))
    assert not skeleton_outerplanar(k4)
    assert skeleton_outerplanar(k4 - {("a", "c")})
    mixed = frozenset({(-1, "x"), ("x", big), (big, -1), (-1, (0, 1))})
    assert skeleton_outerplanar(mixed) == apex_planar(mixed) is True


def test_outerplanarity_runs_no_planarity_test(monkeypatch):
    calls = []
    lr_planar = planarity.lr_planar
    monkeypatch.setattr(planarity, "lr_planar", lambda s: calls.append(s) or lr_planar(s))
    entries = len(planarity._skeleton_cache)
    k7 = complete(7)
    assert outerthickness(k7).value == 3
    assert calls == [] and len(planarity._skeleton_cache) == entries
    # one realizability query on a set that is not outerplanar: at most the
    # planarity check of (V, S)
    k5 = complete(5)
    ids = edge_id_map(k5)
    k23 = [ids[u, v] for u in range(2) for v in range(2, 5)]
    assert RealizabilityContext(k5).realizable(k23).status == "yes"
    assert len(calls) <= 1


def test_enumerate_embeddings_counts(triangle):
    assert len(list(enumerate_embeddings(triangle))) == 1
    single_edge = graph_from_edges(2, [(0, 1)])
    assert len(list(enumerate_embeddings(single_edge))) == 1
    # locked regression values for the canonical form used here
    two_triangles = graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert len(list(enumerate_embeddings(two_triangles))) == 6
    assert len(list(enumerate_embeddings(complete(4)))) == 4
    # each component is reflected on its own: 112, where one global
    # reflection of the full rotation product would leave 224
    k4_edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    two_k4s = graph_from_edges(8, k4_edges + [(u + 4, v + 4) for u, v in k4_edges])
    assert len(list(enumerate_embeddings(two_k4s))) == 112


@pytest.mark.parametrize("k", range(4, 8))
def test_a_wheel_has_one_embedding_per_outer_face(k):
    # W_k is 3-connected, so it has one embedding up to mirror image
    # (Whitney); the embeddings differ only in their outer face, of which
    # it has k + 1
    assert len(list(enumerate_embeddings(wheel(k)))) == k + 1


@pytest.mark.parametrize("q", range(3, 7))
def test_k2q_has_q_factorial_over_two_embeddings(q):
    # the q paths between the poles in any cyclic order, up to reflection:
    # (q-1)!/2 rotations, each with q faces to put outside
    assert len(list(enumerate_embeddings(complete_bipartite(2, q)))) == math.factorial(q) // 2


def test_enumerate_embeddings_deterministic(k4):
    a = [e.rotation for e in enumerate_embeddings(k4)]
    b = [e.rotation for e in enumerate_embeddings(k4)]
    assert a == b


def test_enumerate_embeddings_faces_satisfy_euler():
    g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    count = 0
    for emb in enumerate_embeddings(g):
        count += 1
        comps = len(emb.components)
        assert g.n - g.m + len(emb.faces) == 1 + comps
        lookup = emb.face_of_dart()
        assert sorted(lookup) == list(range(2 * g.m))
    assert count > 0


def test_enumerate_embeddings_cap():
    g = complete(6)  # nonplanar: precondition error
    with pytest.raises(Exception):
        next(enumerate_embeddings(g))
    big, _ = hex_grid(2)  # 30 edges > default cap
    with pytest.raises(ResourceExceededError):
        next(enumerate_embeddings(big))


def test_nonplanar_rotation_rejected(k4):
    from uncrossed.planarity import build_embedding
    from uncrossed.core import PreconditionError

    emb = is_planar(k4).embedding
    rot = list(emb.rotation)
    # swapping two darts at a degree-3 vertex flips the genus
    rot[0] = (rot[0][0], rot[0][2], rot[0][1])
    changed = tuple(rot)
    if changed != emb.rotation:
        with pytest.raises(PreconditionError):
            build_embedding(k4, changed)


def _reference_rotations(g, vertices, edges, half):
    """Every genus-zero rotation system of one component, by brute force:
    the full product of per-vertex cycles, each leaf traced completely."""
    if not edges:
        return [[0] * (2 * g.m)]
    darts = {v: [] for v in vertices}
    for e in edges:
        u, v = g.endpoints(e)
        darts[u].append(2 * e)
        darts[v].append(2 * e + 1)
    per_vertex = []
    flipped = False
    for v in vertices:
        ds = sorted(darts[v])
        cycles = [(ds[0], *rest) for rest in itertools.permutations(ds[1:])]
        if half and not flipped and len(ds) >= 3:
            cycles = [c for c in cycles if c[1] < c[-1]]
            flipped = True
        per_vertex.append(cycles)
    out = []
    for choice in itertools.product(*per_vertex):
        succ = [0] * (2 * g.m)
        for cycle in choice:
            for j, d in enumerate(cycle):
                succ[d] = cycle[(j + 1) % len(cycle)]
        seen, walks = set(), 0
        for start in sorted(d for ds in darts.values() for d in ds):
            if start not in seen:
                walks += 1
                d = start
                while d not in seen:
                    seen.add(d)
                    d = succ[d ^ 1]
        if walks == 2 - len(vertices) + len(edges):
            out.append(succ)
    return out


def _product_size(g, vertices, edges, half):
    deg = {v: 0 for v in vertices}
    for e in edges:
        for v in g.endpoints(e):
            deg[v] += 1
    size = math.prod(math.factorial(max(d - 1, 0)) for d in deg.values())
    return size // 2 if half and max(deg.values()) >= 3 else size


@st.composite
def small_multigraphs(draw):
    """Multigraphs on at most 7 vertices and 12 edges, parallel edges included."""
    n = draw(st.integers(2, 7))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=12))
    return graph_from_edges(n, pairs)


@settings(max_examples=250)
@given(small_multigraphs(), st.booleans())
def test_pruned_rotations_match_full_product(g, half):
    cap = 5000  # larger products are checked for the cap only
    for vs, es in components_of(g):
        size = _product_size(g, vs, es, half)
        if size > cap:
            with pytest.raises(ResourceExceededError):
                next(planar_rotations_of_component(g, vs, es, rotation_cap=cap, half=half))
            continue
        rotations = planar_rotations_of_component(g, vs, es, rotation_cap=size, half=half)
        got = [list(s) for s in rotations]
        assert got == _reference_rotations(g, vs, es, half)
        if es:
            with pytest.raises(ResourceExceededError):
                next(planar_rotations_of_component(g, vs, es, rotation_cap=size - 1, half=half))


def test_star_yields_its_first_rotation_at_once():
    # the hub of K1,12 has 11! cyclic orders, built one at a time, so the
    # first rotation (every vertex's darts in sorted order) needs none of
    # the others; the child's address space is capped so a regression fails
    # instead of swapping
    code = """
import resource
import time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from uncrossed.core import graph_from_edges
from uncrossed.planarity import components_of, planar_rotations_of_component, rotation_from_succ
g = graph_from_edges(13, [(0, v) for v in range(1, 13)])
[(vs, es)] = components_of(g)
start = time.perf_counter()
succ = next(planar_rotations_of_component(g, vs, es))
took = time.perf_counter() - start
cycles = rotation_from_succ(g, vs, es, succ).values()
print(took < 1, len(cycles), all(list(c) == sorted(c) for c in cycles))
"""
    out = run_python(code, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["True", "13", "True"]
