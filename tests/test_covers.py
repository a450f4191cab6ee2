import itertools
import random

from uncrossed.core import WeightedMultigraph
from uncrossed.covers import (
    CoverSearch,
    RealizabilityContext,
    certificate_is_valid,
    realizable_uncrossed_set,
)
from uncrossed.planarity import enumerate_embeddings, graph_planar

from conftest import atlas_graphs, edge_id_map


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
    ctx = RealizabilityContext(k5)

    def feasible(part):
        return {"yes": True, "no": False, "unknown": None}[
            ctx.realizable(part).status
        ]

    cover = CoverSearch(k5, feasible)
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
