"""The left-right planarity kernel against networkx's planarity test."""

import itertools
import sys

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrossed._lrtest import lr_planar
from uncrossed.planarity import skeleton_planar


def _stacked_triangulation(draw, n: int) -> list[tuple[int, int]]:
    """The edges of a triangulation that grows by putting each new vertex
    into a drawn face and joining it to that face's corners."""
    faces = [(0, 1, 2), (0, 2, 1)]
    edges = [(0, 1), (1, 2), (0, 2)]
    for k in range(3, n):
        a, b, c = faces.pop(draw(st.integers(0, len(faces) - 1)))
        faces += [(a, b, k), (b, c, k), (c, a, k)]
        edges += [(a, k), (b, k), (c, k)]
    return edges


@st.composite
def labelled_simple_graphs(draw):
    """Edge lists of simple graphs on 3 to 12 vertices, with vertex labels
    drawn from 0..999 and shuffled pair order and orientation.

    The edges are a subset of all pairs, or of a planar triangulation plus
    up to two other pairs, which makes planar and barely nonplanar graphs
    common.  Subsets run from empty up to just past the 3n - 6 edges of a
    triangulation and shrink towards dense.
    """
    n = 12 - draw(st.integers(0, 9))
    slots = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        edges = _stacked_triangulation(draw, n)
        extra = [p for p in slots if p not in edges]
        if extra:
            slots = edges + draw(st.lists(st.sampled_from(extra), max_size=2, unique=True))
        else:
            slots = edges
    most = min(len(slots), 3 * n - 4)
    m = most - draw(st.integers(0, most))
    chosen = draw(st.permutations(slots))[:m]
    labels = draw(st.lists(st.integers(0, 999), min_size=n, max_size=n, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return [
        (labels[v], labels[u]) if flip else (labels[u], labels[v])
        for (u, v), flip in zip(chosen, flips)
    ]


@settings(max_examples=400)
@given(labelled_simple_graphs())
def test_lr_planar_matches_networkx(pairs):
    assert lr_planar(pairs) == nx.check_planarity(nx.Graph(pairs))[0]


def test_skeleton_planar_deep_inputs():
    """A 3,000-vertex strip of triangles is planar; a K3,3 hung on its far
    end is not.  Neither input may touch the recursion limit."""
    n = 3000
    strip = {(i, i + 1) for i in range(n - 1)} | {(i, i + 2) for i in range(n - 2)}
    k33 = {(a, b) for a in (n - 1, n, n + 1) for b in (n + 2, n + 3, n + 4)}
    limit = sys.getrecursionlimit()
    for skeleton, planar in ((frozenset(strip), True), (frozenset(strip | k33), False)):
        assert nx.check_planarity(nx.Graph(list(skeleton)))[0] is planar
        assert skeleton_planar(skeleton) is planar
    assert sys.getrecursionlimit() == limit
