import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrossed.core import ResourceExceededError, WeightedMultigraph, graph_from_edges
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
)

from conftest import atlas_graphs, brute_planar, cycle, run_python


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
    for g in atlas_graphs(5):
        apex = g.n
        edges = list(g.edges) + [(v, apex, 1) for v in range(g.n)]
        apexed = WeightedMultigraph(g.n + 1, tuple(edges))
        assert is_outerplanar(g) == graph_planar(apexed)


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
        return [{}]
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
        got = [
            list(s) if es else s
            for s in planar_rotations_of_component(g, vs, es, rotation_cap=size, half=half)
        ]
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
