import itertools
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from uncrossed.core import WeightedMultigraph, graph_from_edges
from uncrossed.covers import (
    MAX_LABELLINGS,
    CoverSearch,
    RealizabilityContext,
    certificate_is_valid,
    realizable_uncrossed_set,
)
from uncrossed.instances import complete, complete_bipartite
from uncrossed.planarity import enumerate_embeddings, graph_planar

from conftest import atlas_graphs, cycle, edge_id_map, run_python


def hosting_oracle(g, s):
    """Realizability by brute embedding enumeration of the subgraph."""
    sub = g.spanning_subgraph(s)
    if not graph_planar(sub):
        return False
    pairs = g.skeleton() - g.skeleton(s)
    for emb in enumerate_embeddings(sub, max_edges=30):
        face_sets = [f.vertices for f in emb.faces]
        if all(any(u in fv and v in fv for fv in face_sets) for u, v in pairs):
            return True
    return False


def test_full_edge_set_of_planar_graph(k4):
    res = realizable_uncrossed_set(k4, range(k4.m))
    assert res.status == "yes"
    assert certificate_is_valid(k4, res.certificate)


def test_k5_minus_one_edge_not_realizable(k5):
    assert realizable_uncrossed_set(k5, range(1, 10)).status == "no"


def test_k5_minus_two_disjoint_edges_realizable(k5):
    ids = edge_id_map(k5)
    s = [e for e in range(10) if e not in (ids[(0, 1)], ids[(2, 3)])]
    res = realizable_uncrossed_set(k5, s)
    assert res.status == "yes"
    assert certificate_is_valid(k5, res.certificate)


def test_empty_set_realizable(k5):
    res = realizable_uncrossed_set(k5, [])
    assert res.status == "yes"
    assert certificate_is_valid(k5, res.certificate)


def test_shown_face_other_than_first():
    # the pendant vertex 6 lies on one face of the triangle 4-5-7 only, and
    # the pairs (2, 6), (3, 6), (3, 4) need that face turned towards K4
    s_pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    s_pairs += [(4, 5), (4, 6), (4, 7), (5, 7)]
    hosted = [(2, 6), (3, 6), (3, 4)]
    g = WeightedMultigraph(8, tuple((u, v, 1) for u, v in s_pairs + hosted))
    res = realizable_uncrossed_set(g, range(len(s_pairs)))
    assert res.status == "yes"
    assert certificate_is_valid(g, res.certificate)


def test_agrees_with_embedding_enumeration_oracle(k7):
    random.seed(5)
    checked = 0
    while checked < 80:
        s = frozenset(random.sample(range(21), random.choice([4, 5, 6, 7, 8, 9])))
        if not graph_planar(k7.spanning_subgraph(s)):
            continue
        fast = realizable_uncrossed_set(k7, s, want_certificate=False).status == "yes"
        assert fast == hosting_oracle(k7, s), sorted(s)
        checked += 1


def test_certificates_on_random_yes_instances(k7):
    random.seed(11)
    produced = 0
    while produced < 40:
        s = frozenset(random.sample(range(21), random.choice([6, 8, 10])))
        res = realizable_uncrossed_set(k7, s)
        if res.status != "yes":
            continue
        assert certificate_is_valid(k7, res.certificate)
        assert res.certificate.edge_subset == tuple(sorted(s))
        produced += 1


def test_downward_closure(k7):
    random.seed(23)
    for _ in range(40):
        s = frozenset(random.sample(range(21), 9))
        if realizable_uncrossed_set(k7, s, want_certificate=False).status != "yes":
            continue
        smaller = frozenset(random.sample(sorted(s), 6))
        assert (
            realizable_uncrossed_set(k7, smaller, want_certificate=False).status
            == "yes"
        )


def test_outerplanar_sets_always_realizable():
    # outerplanar (V, S) has every vertex on one face, so for ANY host graph
    from uncrossed.planarity import is_outerplanar

    for g in atlas_graphs(5, connected=True):
        for size in range(0, min(4, g.m) + 1):
            for s in itertools.combinations(range(g.m), size):
                if is_outerplanar(g.spanning_subgraph(s)):
                    assert (
                        realizable_uncrossed_set(g, s, want_certificate=False).status
                        == "yes"
                    )


def test_cover_search_partition_symmetry(k5):
    cover = CoverSearch(k5, RealizabilityContext(k5).feasible)
    assert cover.cover_with(1) is None
    parts = cover.cover_with(2)
    assert parts is not None
    assert frozenset().union(*parts) == frozenset(range(10))


def test_cover_minimum_on_edgeless_graph():
    from uncrossed.core import WeightedMultigraph

    g = WeightedMultigraph(3, ())
    cover = CoverSearch(g, lambda part: True)
    out = cover.minimum()
    assert out.status == "exact" and out.value == 1


def test_high_degree_component_is_unknown_before_enumerating():
    # one vertex of degree 12 would list 11! rotation cycles; the child's
    # address space is capped so a regression fails instead of swapping
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from uncrossed.core import WeightedMultigraph
from uncrossed.covers import realizable_uncrossed_set
g = WeightedMultigraph(2, tuple((0, 1, 1) for _ in range(12)))
print(realizable_uncrossed_set(g, range(12), want_certificate=True).status)
"""
    out = run_python(code, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["unknown"]


# -- answers per Aut(G) orbit --------------------------------------------------

_STATUS = {"yes": True, "no": False, "unknown": None}

# graphs with nontrivial automorphisms; the doubled K4 edges have unequal weights
_SYMMETRIC = {
    "K5": complete(5),
    "K3,3": complete_bipartite(3, 3),
    "C6+chords": graph_from_edges(6, [*cycle(6).skeleton(), (0, 2), (3, 5), (1, 4)]),
    "K4 doubled": WeightedMultigraph(
        4, tuple((u, v, 1) for u, v in complete(4).skeleton()) + ((0, 1, 2), (2, 3, 2))
    ),
}


def _pair_colours(g, part) -> dict:
    """Sorted (weight, in part) list per vertex pair, computed from scratch."""
    colours: dict = {}
    for e, (u, v, w) in enumerate(g.edges):
        colours.setdefault((min(u, v), max(u, v)), []).append((w, e in part))
    return {pair: tuple(sorted(c)) for pair, c in colours.items()}


def _brute_form(g, part) -> tuple:
    """Least relabelled pair colouring over all n! vertex permutations."""
    colours = _pair_colours(g, part).items()
    return min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v]), c) for (u, v), c in colours))
        for p in itertools.permutations(range(g.n))
    )


def _image(g, part, perm):
    """The part moved by a vertex permutation keeping G's pair colours, or
    None; parallel edges go to parallel edges in (weight, id) order."""
    by_pair: dict = {}
    for e, (u, v, w) in enumerate(g.edges):
        by_pair.setdefault((min(u, v), max(u, v)), []).append((w, e))
    moved = set()
    for (u, v), es in by_pair.items():
        target = by_pair.get((min(perm[u], perm[v]), max(perm[u], perm[v])), [])
        if sorted(w for w, _ in es) != sorted(w for w, _ in target):
            return None
        for (_, e), (_, f) in zip(sorted(es), sorted(target)):
            if e in part:
                moved.add(f)
    return frozenset(moved)


def test_orbit_key_is_exact_on_small_graphs():
    # equal keys exactly when some permutation keeping every pair colour
    # maps one part onto the other, checked over all n! permutations
    rng = random.Random(3)
    for name, g in _SYMMETRIC.items():
        if g.m <= 9:
            parts = [frozenset(s) for r in range(g.m + 1) for s in itertools.combinations(range(g.m), r)]
        else:
            parts = [frozenset(rng.sample(range(g.m), rng.randint(0, g.m))) for _ in range(150)]
        ctx = RealizabilityContext(g)
        keys = [ctx.orbit_key(p) for p in parts]
        forms = [_brute_form(g, p) for p in parts]
        assert all(key[0] for key in keys), name  # no part hit the labelling bound
        assert len(set(keys)) == len(set(forms)) == len(set(zip(keys, forms))), name


@settings(max_examples=60)
@given(st.sampled_from(sorted(_SYMMETRIC)), st.data())
def test_feasible_matches_fresh_realizable(name, data):
    g = _SYMMETRIC[name]
    ctx = RealizabilityContext(g)
    edge_sets = st.frozensets(st.integers(0, g.m - 1), min_size=g.m // 2)
    parts = data.draw(st.lists(edge_sets, min_size=1, max_size=24))
    perms = data.draw(st.lists(st.permutations(range(g.n)), min_size=1, max_size=3))
    images = [_image(g, p, perm) for p in parts for perm in perms]
    for part in parts + [q for q in images if q is not None]:
        assert ctx.feasible(part) == _STATUS[RealizabilityContext(g).realizable(part).status]
    assert None not in ctx.orbit_memo.values()


def test_trivial_automorphism_group_builds_no_key():
    g = WeightedMultigraph(3, ((0, 1, 1), (1, 2, 2), (0, 2, 3)))
    ctx = RealizabilityContext(g)
    assert ctx.orbit_key(frozenset({0})) is None
    assert ctx.feasible(frozenset({0, 1})) is True
    assert ctx.orbit_memo == {}


def test_labelling_bound_keys_by_the_part():
    g = complete(12)
    ctx = RealizabilityContext(g)
    part = frozenset({0})
    start = time.perf_counter()
    key = ctx.orbit_key(part)
    assert time.perf_counter() - start < 0.05
    assert 2 * 3628800 > MAX_LABELLINGS  # cells of 2 and 10 vertices
    assert key == (False, part)
    assert ctx.feasible(part) is True
