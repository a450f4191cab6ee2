import itertools

import pytest

from uncrossed.core import PreconditionError, WeightedMultigraph, graph_from_edges
from uncrossed.instances import (
    GridCertificate,
    Tile,
    complete,
    complete_bipartite,
    delete_innermost_edge,
    doubled_tile_gadget,
    edge_disjoint_path_count,
    heavy_cycle_with_diameters,
    hex_grid,
    invert_tile,
    is_hexagonal_grid,
    k5_with_two_light_edges,
    per_drawing_crossing_bound,
    perfectly_connected,
    principal_rings,
    rotating_path_collection,
    tile_crossing_number,
    validate_certificate,
)
from uncrossed.planarity import graph_planar
from uncrossed.solver import decide_uncrossed_cost, uncrossed_number, verify_collection


def chain_tile() -> Tile:
    """Three a-c paths through x1-x2-x3, b hanging on x3, d on x1."""
    edges = [(0, 4), (4, 2), (0, 5), (5, 2), (0, 6), (6, 2), (4, 5), (5, 6), (1, 6), (3, 4)]
    return Tile(graph_from_edges(7, edges), (0, 1, 2, 3))


def doubled_path_tile() -> Tile:
    """A weight-2 a-c path plus a light one; inverting costs exactly one."""
    edges = ((0, 4, 2), (2, 4, 2), (0, 5, 1), (2, 5, 1), (4, 5, 1), (1, 5, 1), (3, 4, 1))
    return Tile(WeightedMultigraph(6, edges), (0, 1, 2, 3))


# -- basic generators --------------------------------------------------------


def test_complete_and_bipartite_counts():
    assert complete(5).n == 5 and complete(5).m == 10
    assert complete(1).n == 1 and complete(1).m == 0
    kb = complete_bipartite(3, 3)
    assert kb.m == 9
    assert all({u < 3, v < 3} == {True, False} for u, v, _ in kb.edges)


def test_heavy_cycle_structure():
    for m in (3, 5):
        g = heavy_cycle_with_diameters(m)
        assert g.n == 2 * m and g.m == 3 * m
        weights = sorted({w for _, _, w in g.edges})
        assert weights == [1, m**3]
        assert sum(1 for _, _, w in g.edges if w == m**3) == 2 * m
    with pytest.raises(PreconditionError):
        heavy_cycle_with_diameters(2)


def test_heavy_cycle_unc():
    assert uncrossed_number(heavy_cycle_with_diameters(3)).value == 2


def test_two_light_structure():
    g = k5_with_two_light_edges(4)
    light = [(u, v) for u, v, w in g.edges if w == 1]
    assert light == [(0, 1), (2, 3)]
    assert sum(1 for _, _, w in g.edges if w == 4) == 8
    with pytest.raises(PreconditionError):
        k5_with_two_light_edges(2)


# -- rotating path collections -----------------------------------------------


@pytest.mark.parametrize("n", [*range(5, 18), 20])  # the goldens stop at 16
def test_rotating_path_collection_valid(n):
    w = rotating_path_collection(n)
    g = complete(n)
    assert len(w.drawings) == -(-n // 2)
    assert verify_collection(g, w).accepted
    covered = set()
    for d in w.drawings:
        covered |= d.uncrossed_edges(g)
    assert covered == set(range(g.m))
    bound = per_drawing_crossing_bound(n)
    assert all(d.cost(g) <= bound for d in w.drawings)


def test_rotating_path_total_below_coarse_bound():
    for n in range(5, 10):
        w = rotating_path_collection(n)
        assert 96 * w.declared_cost <= n**5


# -- hexagonal grids ----------------------------------------------------------


def test_hex_grid_1_is_hexagon():
    g, cert = hex_grid(1)
    assert g.n == 6 and g.m == 6
    assert cert.rings == (tuple(cert.rings[0]),)
    assert len(cert.rings[0]) == 6
    assert is_hexagonal_grid(g, cert)


def test_hex_grid_2_structure():
    g, cert = hex_grid(2)
    assert graph_planar(g)
    assert is_hexagonal_grid(g, cert)
    # locked regression counts for the generator
    assert (g.n, g.m) == (24, 30)


def test_hex_grid_certificates_up_to_12():
    for r in range(1, 13):
        g, cert = hex_grid(r)
        assert g.n == 6 * r * r
        assert g.m == 6 * r * r + 3 * r * (r - 1)
        rings = cert.rings
        assert [len(c) for c in rings] == [6 * (2 * i - 1) for i in range(1, r + 1)]
        seen = set()
        for ring in rings:
            assert not (seen & set(ring))
            seen |= set(ring)
        assert seen == set(range(g.n))
        assert graph_planar(g)


def test_hex_grid_structural_predicate_r3():
    g, cert = hex_grid(3)
    assert is_hexagonal_grid(g, cert)
    assert validate_certificate(g, cert)


def test_hex_grid_rings_out_of_order_rejected():
    # C1 and C2 touch without crossing C3, so the nesting check fails
    g, cert = hex_grid(4)
    c1, c2, c3, c4 = cert.rings
    assert not is_hexagonal_grid(g, GridCertificate((c1, c3, c2, c4)))


def test_delete_innermost_edge_preconditions():
    g, cert = hex_grid(3)
    with pytest.raises(PreconditionError):
        delete_innermost_edge(g, cert, 0)  # needs 4k+4 = 4 rings
    g4, cert4 = hex_grid(4)
    bad = GridCertificate(rings=((0, 1, 2),) + cert4.rings[1:])
    with pytest.raises(PreconditionError):
        delete_innermost_edge(g4, bad, 0)


def test_delete_innermost_edge_k0():
    g, cert = hex_grid(4)
    smaller, note = delete_innermost_edge(g, cert, 0)
    assert smaller.m == g.m - 1
    assert note.flatness_assumed
    assert graph_planar(smaller) == graph_planar(g)


def test_delete_innermost_edge_on_subdivided_grid():
    from uncrossed.core import subdivide

    g, cert = hex_grid(4)
    gs = subdivide(g, 1)
    assert validate_certificate(gs, cert)
    smaller, note = delete_innermost_edge(gs, cert, 0)
    assert smaller.m == gs.m - 1


def test_principal_rings_r6_k0():
    g, cert = hex_grid(6)
    rings = principal_rings(g, cert, 0)
    assert len(rings) == 1 and rings[0].index == 2
    assert rings[0].vertices == frozenset(cert.rings[1]) | frozenset(cert.rings[2])


def test_principal_rings_r8_k1_disjoint():
    g, cert = hex_grid(8)
    rings = principal_rings(g, cert, 1)
    assert [r.index for r in rings] == [2, 4, 6]
    for a, b in itertools.combinations(rings, 2):
        assert not (a.vertices & b.vertices)
    c1 = frozenset(cert.rings[0])
    assert all(not (c1 & r.vertices) for r in rings)


def test_principal_rings_attached_components():
    g, cert = hex_grid(8)
    # a pendant component on C2 joins ring R2 and only R2
    c2_vertex = cert.rings[1][0]
    edges = g.edges + ((c2_vertex, g.n, 1), (g.n, g.n + 1, 1))
    host = WeightedMultigraph(g.n + 2, edges)
    rings = principal_rings(host, cert, 1)
    assert {g.n, g.n + 1} <= rings[0].vertices
    assert all(not ({g.n, g.n + 1} & r.vertices) for r in rings[1:])
    # one hanging inside the innermost hexagon stays out of every ring
    c1_vertex = cert.rings[0][0]
    edges = g.edges + ((c1_vertex, g.n, 1),)
    host = WeightedMultigraph(g.n + 1, edges)
    rings = principal_rings(host, cert, 1)
    assert all(g.n not in r.vertices for r in rings)


# -- tiles ---------------------------------------------------------------------


def test_invert_twice_is_identity():
    t = chain_tile()
    assert invert_tile(invert_tile(t)) == t
    assert invert_tile(t).corners == (0, 1, 3, 2)


def test_perfectly_connected_examples():
    assert perfectly_connected(chain_tile())
    # corner-corner edge disqualifies
    bad = Tile(graph_from_edges(5, [(0, 1), (0, 4), (1, 4), (2, 4), (3, 4)]), (0, 1, 2, 3))
    assert not perfectly_connected(bad)
    # interior falls apart without corners
    loose = Tile(
        graph_from_edges(7, [(0, 4), (4, 2), (0, 5), (5, 2), (0, 6), (6, 2), (1, 6), (3, 4)]),
        (0, 1, 2, 3),
    )
    assert not perfectly_connected(loose)


def test_tcr_planar_tile_is_zero():
    assert tile_crossing_number(chain_tile()).value == 0
    assert tile_crossing_number(doubled_path_tile()).value == 0


def test_tcr_locked_values():
    # locked after the first exhaustive computation
    assert tile_crossing_number(invert_tile(chain_tile())).value == 2
    assert tile_crossing_number(invert_tile(doubled_path_tile())).value == 1


def test_tcr_mirror_invariance():
    for t in (chain_tile(), doubled_path_tile()):
        a, b, c, d = t.corners
        mirrored = Tile(t.graph, (d, c, b, a))
        assert (
            tile_crossing_number(t).value == tile_crossing_number(mirrored).value
        )
        ti = invert_tile(t)
        a, b, c, d = ti.corners
        mirrored_i = Tile(ti.graph, (d, c, b, a))
        assert (
            tile_crossing_number(ti).value
            == tile_crossing_number(mirrored_i).value
        )


def test_edge_disjoint_paths():
    assert edge_disjoint_path_count(chain_tile().graph, 0, 2) == 3
    assert edge_disjoint_path_count(doubled_path_tile().graph, 0, 2) == 3


def test_edge_disjoint_path_count_direct():
    assert edge_disjoint_path_count(complete(4), 0, 3) == 3
    assert edge_disjoint_path_count(WeightedMultigraph(2, ((0, 1, 3),)), 0, 1) == 3
    assert edge_disjoint_path_count(WeightedMultigraph(4, ((0, 1, 2), (2, 3, 1))), 0, 3) == 0
    for s, t in [(0, 0), (0, 4), (-1, 2)]:
        with pytest.raises(PreconditionError):
            edge_disjoint_path_count(complete(4), s, t)


def test_gadget_structure():
    g, info = doubled_tile_gadget(chain_tile(), 1)
    assert info.cost_target == 2
    heavy = [(u, v) for u, v, w in g.edges if w == 3]
    assert len(heavy) == 4
    # c and d are shared between the two copies
    assert info.copy_of[2] == 2 and info.copy_of[3] == 3


def test_gadget_rejects_bad_tiles():
    # no edge of H may join two corners
    bad = Tile(graph_from_edges(5, [(0, 1), (0, 4), (1, 4), (2, 4), (3, 4)]), (0, 1, 2, 3))
    with pytest.raises(PreconditionError):
        doubled_tile_gadget(bad, 1)
    # not enough edge-disjoint a-c paths for k = 2
    with pytest.raises(PreconditionError):
        doubled_tile_gadget(chain_tile(), 2)
    # d of degree 2 disqualifies
    t = chain_tile()
    extra = WeightedMultigraph(7, t.graph.edges + ((3, 5, 1),))
    with pytest.raises(PreconditionError):
        doubled_tile_gadget(Tile(extra, t.corners), 1)


def test_gadget_equivalence_both_tiles():
    for tile in (chain_tile(), doubled_path_tile()):
        g, info = doubled_tile_gadget(tile, 1)
        tcr_inv = tile_crossing_number(invert_tile(tile)).value
        dec = decide_uncrossed_cost(g, 2, info.cost_target)
        assert (dec.verdict == "yes") == (tcr_inv <= info.k)
