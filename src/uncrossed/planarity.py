"""Planarity and outerplanarity decision, embeddings and face enumeration.

The planarity verdict comes from the iterative left-right kernel in
``_lrtest``, the outerplanarity verdict from a 2-reduction over vertices of
degree at most two (``skeleton_outerplanar``); networkx only supplies the
embeddings and Kuratowski witnesses of ``is_planar`` and the one rotation of
a simple 3-connected component (``forced_rotation``).
Everything combinatorial on top of them (rotation systems, face walks,
nesting of components, exhaustive embedding enumeration, and the walk over
partial plane embeddings that realizability queries use) lives here.  A
rotation system is written either as per-vertex dart cycles or as a
``succ`` list mapping each dart to the next dart at its vertex; ``succ_of``
turns the first into the second.

Darts: edge e contributes darts ``2e`` (incident at ``endpoints(e)[0]``) and
``2e+1`` (at ``endpoints(e)[1]``); ``d ^ 1`` is the opposite dart.  A face
walk is recorded as the cyclic sequence of outgoing darts along its boundary.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import networkx as nx

from ._lrtest import lr_planar
from .core import (
    PreconditionError,
    ResourceExceededError,
    WeightedMultigraph,
)

#: Enumeration refuses subgraphs with more edges than this unless overridden.
DEFAULT_EDGE_CAP = 16

#: Largest rotation product (systems before pruning) one component may have
#: during embedding enumeration.
EMBEDDING_ROTATION_CAP = 2_000_000

_skeleton_cache: dict[frozenset[tuple[int, int]], bool] = {}


def skeleton_planar(skeleton: frozenset[tuple[int, int]]) -> bool:
    """Planarity of a simple graph given as a set of endpoint pairs."""
    hit = _skeleton_cache.get(skeleton)
    if hit is None:
        hit = _skeleton_cache[skeleton] = lr_planar(skeleton)
    return hit


def graph_planar(g: WeightedMultigraph) -> bool:
    """Fast planarity verdict (parallel edges cannot change it)."""
    return skeleton_planar(g.skeleton())


def skeleton_outerplanar(skeleton: frozenset[tuple]) -> bool:
    """Outerplanarity of a simple graph given as a set of endpoint pairs.

    Vertex labels may be any hashables.  A 2-reduction (Mitchell, IPL 1979;
    Wiegers, WG 1986) deletes vertices of degree <= 1 first, then a vertex v
    of degree 2 with neighbours u, w, raising t(uw), the triangles reduced
    onto uw; t(uw) = 3 is a K2,3 minor.  A saturated edge (t = 2) at v is a
    K2,3 minor too when u and w are still joined without v; otherwise v is a
    cut vertex and the saturated edge is dropped.  The graph is outerplanar
    iff the reduction deletes every vertex.
    """
    adj: defaultdict = defaultdict(dict)
    for u, v in skeleton:
        adj[u][v] = 0
        adj[v][u] = 0
    if adj and sum(map(len, adj.values())) > 4 * len(adj) - 6:  # m > 2n - 3
        return False
    ones = [v for v, nb in adj.items() if len(nb) == 1]
    twos = [v for v, nb in adj.items() if len(nb) == 2]

    def settle(x):
        """File x again after it lost an edge."""
        d = len(adj[x])
        if d < 2:
            ones.append(x)
        elif d == 2:
            twos.append(x)

    while ones or twos:
        v = (ones or twos).pop()
        nb = adj.get(v)
        if nb is None:
            continue
        if len(nb) < 2:
            for u in nb:
                del adj[u][v]
                settle(u)
            del adj[v]
            continue
        (u, tu), (w, tw) = nb.items()
        if tu == 2 or tw == 2:
            if _joined(adj, u, w, v):
                return False
            for x, t in ((u, tu), (w, tw)):
                if t == 2:
                    del nb[x], adj[x][v]
                    settle(x)
            settle(v)
            continue
        del adj[v], adj[u][v], adj[w][v]
        t = adj[u].get(w)
        if t == 2:  # a third triangle on uw
            return False
        adj[u][w] = adj[w][u] = 1 if t is None else t + 1
        if t is not None:  # u and w each lost an edge
            settle(u)
            settle(w)
    return not adj


def _joined(adj, u, w, cut) -> bool:
    """Whether u reaches w in the graph ``adj`` without the vertex ``cut``."""
    seen = {u, cut}
    stack = [u]
    while stack:
        for x in adj[stack.pop()]:
            if x == w:
                return True
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return False


@dataclass(frozen=True)
class Face:
    """A face of a plane embedding.

    ``walks`` holds one boundary walk per component touching the face (a
    merged face of a disconnected embedding has several); each walk is a
    cyclic tuple of outgoing darts.  ``vertices`` includes the vertices of
    every boundary walk plus isolated vertices placed inside the face.
    """

    id: int
    walks: tuple[tuple[int, ...], ...]
    vertices: frozenset[int]


@dataclass(frozen=True)
class Embedding:
    """Rotation system plus outer-face and component-nesting choices.

    ``rotation[v]`` is the cyclic order of darts incident at v.  ``nesting``
    maps each connected component (by index into ``components``) to the id
    of the face of the remainder that directly contains it; root components
    map to the outer face.
    """

    graph: WeightedMultigraph
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[Face, ...]
    outer_face: int
    components: tuple[tuple[int, ...], ...]
    nesting: tuple[int, ...]

    def face_of_dart(self) -> dict[int, int]:
        lookup: dict[int, int] = {}
        for face in self.faces:
            for walk in face.walks:
                for d in walk:
                    lookup[d] = face.id
        return lookup


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    embedding: Embedding | None
    kuratowski: frozenset[int] | None


def dart_vertex(g: WeightedMultigraph, d: int) -> int:
    return g.endpoints(d >> 1)[d & 1]


def components_of(g: WeightedMultigraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components as (vertices, edges), isolated vertices included.

    Components are sorted by smallest vertex id.
    """
    comps, isolated = g.components()
    return sorted(comps + [((v,), ()) for v in isolated])


def _darts_at(g: WeightedMultigraph, vertices, edges) -> dict[int, list[int]]:
    """Darts of one component at each of its vertices."""
    at_vertex: dict[int, list[int]] = {v: [] for v in vertices}
    for eid in edges:
        u, v, _ = g.edges[eid]
        at_vertex[u].append(2 * eid)
        at_vertex[v].append(2 * eid + 1)
    return at_vertex


def rotation_from_succ(g: WeightedMultigraph, vertices, edges, succ) -> dict[int, tuple[int, ...]]:
    """Per-vertex dart cycles of one component's dart -> next-dart map.

    Each cycle starts at the vertex's smallest dart; vertices without
    darts are left out.
    """
    rotation = {}
    for v, ds in _darts_at(g, vertices, edges).items():
        if ds:
            cycle = [min(ds)]
            while len(cycle) < len(ds):
                cycle.append(succ[cycle[-1]])
            rotation[v] = tuple(cycle)
    return rotation


def succ_of(cycles, size: int) -> list[int]:
    """The ``succ`` list of length ``size`` of a rotation given as dart
    cycles; 0 at every dart in no cycle."""
    succ = [0] * size
    for cycle in cycles:
        for d, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            succ[d] = nxt
    return succ


def forced_rotation(g: WeightedMultigraph, vertices, edges) -> list[int]:
    """The ``succ`` list of the one plane rotation, up to mirror image, of a
    tree or of a simple 3-connected component (Whitney, 1932).

    A tree takes every vertex's darts in increasing order (any rotation of
    a tree is plane); anything else takes networkx's LR embedding.
    """
    if len(edges) == len(vertices) - 1:
        return succ_of(map(sorted, _darts_at(g, vertices, edges).values()), 2 * g.m)
    dart_to = {}  # (v, w) -> the dart at v of the edge vw
    h = nx.Graph()
    h.add_nodes_from(vertices)
    for e in edges:
        u, v, _ = g.edges[e]
        h.add_edge(u, v)
        dart_to[u, v], dart_to[v, u] = 2 * e, 2 * e + 1
    ok, cert = nx.check_planarity(h, counterexample=False)
    if not ok:
        raise AssertionError("forced_rotation() called on a nonplanar component")
    order = cert.get_data()
    return succ_of(([dart_to[v, w] for w in order.get(v, [])] for v in vertices), 2 * g.m)


def _orbit_walks(darts: list[int], succ: list[int]) -> list[tuple[int, ...]]:
    """Orbits of d -> succ[d ^ 1], i.e. the face walks of a rotation.  With
    ``darts`` sorted, each walk starts at its least dart."""
    seen: set[int] = set()
    walks = []
    for start in darts:
        if start not in seen:
            walk = [d := start]
            while (d := succ[d ^ 1]) != start:
                walk.append(d)
            seen.update(walk)
            walks.append(tuple(walk))
    return walks


def planar_rotations_of_component(
    g: WeightedMultigraph,
    vertices: tuple[int, ...],
    edges: tuple[int, ...],
    rotation_cap: int | None = None,
    half: bool = False,
):
    """Yield every genus-zero rotation system of one connected component.

    A rotation system is presented as an array mapping dart -> next dart at
    the same vertex; the yielded array is reused in place, so callers must
    copy it if they keep it past the next step.  With ``half`` the systems
    come up to reflection (the cyclic order at one anchor vertex is fixed
    in one direction), which is enough whenever only face vertex sets
    matter.  ``rotation_cap`` bounds the size of the rotation product; a
    larger product raises ResourceExceededError before anything is yielded.

    This is the plain product, the slow reference for
    :func:`hosting_rotations`: vertices take their cyclic orders in
    ``vertices`` order, each as (least dart, *rest) with ``rest`` in
    ``itertools.permutations`` order and built only when it is tried, and a
    system is yielded when it has the 2 - n + m faces Euler's formula asks
    for.  So the first system (every vertex's darts in sorted order, when
    genus zero) needs none of the others.
    """
    at_vertex = _darts_at(g, vertices, edges)
    if not edges:
        yield [0] * (2 * g.m)
        return

    anchor = next((v for v in vertices if len(at_vertex[v]) >= 3), None)
    total = 1
    for v in vertices:
        total *= math.factorial(len(at_vertex[v]) - 1) // (2 if half and v == anchor else 1)
        if rotation_cap is not None and total > rotation_cap:
            raise ResourceExceededError(
                f"rotation enumeration would try {total} systems (cap {rotation_cap})"
            )

    def cycles(v: int):
        first, *later = sorted(at_vertex[v])
        for rest in itertools.permutations(later):
            if not (half and v == anchor and rest[0] > rest[-1]):  # else a kept one's mirror
                yield (first, *rest)

    darts = [d for ds in at_vertex.values() for d in ds]
    target = 2 - len(vertices) + len(edges)  # faces required by Euler's formula
    succ: list[int] = [0] * (2 * g.m)
    tried = [cycles(vertices[0])]  # per assigned vertex, its cycles not yet tried
    while tried:
        cycle = next(tried[-1], None)
        if cycle is None:
            tried.pop()
            continue
        for d, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            succ[d] = nxt
        if len(tried) < len(vertices):
            tried.append(cycles(vertices[len(tried)]))
        elif len(_orbit_walks(darts, succ)) == target:
            yield succ


def component_faces(
    g: WeightedMultigraph,
    vertices: tuple[int, ...],
    edges: tuple[int, ...],
    succ: list[int],
) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """Face walks of one component's rotation, with their vertex sets."""
    if not edges:
        return [((), frozenset(vertices))]
    return _faces(g, sorted(2 * e + k for e in edges for k in (0, 1)), succ)


def _faces(g: WeightedMultigraph, darts: list[int], succ: list[int]) -> list:
    """:func:`component_faces` of the component with these sorted darts."""
    walks = sorted(_orbit_walks(darts, succ))
    return [(walk, frozenset(dart_vertex(g, d) for d in walk)) for walk in walks]


def _insertion_order(g: WeightedMultigraph, edges) -> list[int]:
    """Edges of one connected component, the least id first; then the least
    id joining two placed vertices, else the least id touching one."""
    rest = sorted(edges)
    order = [rest.pop(0)]
    placed = set(g.edges[order[0]][:2])
    while rest:
        e = next((e for e in rest if g.edges[e][0] in placed and g.edges[e][1] in placed), None)
        if e is None:
            e = next(e for e in rest if g.edges[e][0] in placed or g.edges[e][1] in placed)
        rest.remove(e)
        order.append(e)
        placed.update(g.edges[e][:2])
    return order


def hosting_rotations(g: WeightedMultigraph, vertices, edges, within, visit):
    """Plane rotation systems of a connected component with a cycle that
    put both ends of every pair of ``within`` on one face: for each face
    vertex-set family, the system that
    ``planar_rotations_of_component(..., half=True)`` yields first, as
    (succ, faces) in that order.  ``succ`` is a fresh dart -> next-dart
    list, 0 at darts of other components; faces are as in
    :func:`component_faces`.  ``visit()`` runs at every node of the walk and
    ends it, returning None, when it is false.

    The walk inserts the edges one at a time in :func:`_insertion_order`.
    An edge with one end placed goes into any corner of that end; one with
    both ends placed goes into two corners of one face, which it splits.
    Every plane embedding of the component arises exactly once this way.
    The corner after dart c at its vertex lies on the face of ``succ[c]``.
    Faces only split or grow, so a subtree whose partial embedding has a
    placed pair on no common face is skipped.  A leaf is written as each
    vertex's dart cycle from its least dart, in ``vertices`` order; the
    enumerator yields these keys in increasing order.  The least key of a
    family reads ``rest[0] < rest[-1]`` at the anchor (the first vertex of
    degree three or more), or its mirror image, which has the same faces
    and differs first there, would be less.  So ``half`` keeps it, and it
    is the family's first system there.
    """
    size = 2 * g.m
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    vbit = [0] * size  # the bit of the vertex a dart leaves
    for e in edges:
        u, v, _ = g.edges[e]
        vbit[2 * e], vbit[2 * e + 1] = bit[u], bit[v]
    darts = sorted(2 * e + k for e in edges for k in (0, 1))
    least_at: dict[int, int] = {}
    for d in darts:
        least_at.setdefault(vbit[d], d)
    least = [least_at[bit[v]] for v in vertices]
    pairs = [bit[u] | bit[v] for u, v in within]

    # per insertion after the first: its darts (at a placed end first), and
    # the pair bits the new vertex's face must hold when it places one,
    # else the pairs with both ends placed
    order = _insertion_order(g, edges)
    first = 2 * order[0]
    placed = vbit[first] | vbit[first + 1]
    steps = []
    for e in order[1:]:
        da, db = (2 * e, 2 * e + 1) if vbit[2 * e] & placed else (2 * e + 1, 2 * e)
        new = vbit[db] & ~placed
        placed |= new
        ready = [pm for pm in pairs if pm & placed == pm]
        if new:
            need = 0
            for pm in ready:
                if pm & new:
                    need |= pm
            steps.append((da, db, True, need))
        else:
            steps.append((da, db, False, ready))

    succ = [0] * size
    face = [0] * size  # the face whose walk leaves along a dart
    at: dict[int, list[int]] = {b: [] for b in bit.values()}  # placed darts
    succ[first], succ[first + 1] = first, first + 1
    at[vbit[first]].append(first)
    at[vbit[first + 1]].append(first + 1)
    fmask = [vbit[first] | vbit[first + 1]]
    best: dict[tuple, tuple] = {}

    def record() -> None:
        cycles = []
        for d0 in least:
            cycle = [d0]
            d = succ[d0]
            while d != d0:
                cycle.append(d)
                d = succ[d]
            cycles.append(tuple(cycle))
        key = tuple(cycles)
        family = tuple(sorted(fmask))
        if family not in best or key < best[family]:
            best[family] = key

    def corners(k: int):
        da, db, pendant, _ = steps[k]
        if pendant:
            return iter(at[vbit[da]][:])
        return iter([
            (c, c2) for c in at[vbit[da]] for c2 in at[vbit[db]] if face[succ[c]] == face[succ[c2]]
        ])

    if not visit():
        return None
    last = len(steps) - 1
    options: list = [None] * len(steps)  # per step, the corners not yet tried
    undo: list = [None] * len(steps)  # per step, how to take its edge out
    k = 0
    options[0] = corners(0)
    while k >= 0:
        da, db, pendant, test = steps[k]
        back = undo[k]
        if back is not None:  # take the last insertion out
            undo[k] = None
            at[vbit[da]].pop()
            at[vbit[db]].pop()
            if pendant:
                c, f, old = back
                succ[c] = succ[da]
            else:
                c, c2, f, old, moved = back
                succ[c] = succ[da]
                succ[c2] = succ[db]
                for d in moved:
                    face[d] = f
                fmask.pop()
            fmask[f] = old
        choice = next(options[k], None)
        if choice is None:
            k -= 1
            continue
        if not visit():
            return None
        at[vbit[da]].append(da)
        at[vbit[db]].append(db)
        if pendant:
            c = choice
            f = face[succ[c]]
            succ[da] = succ[c]
            succ[c] = da
            succ[db] = db
            face[da] = face[db] = f
            old = fmask[f]
            fmask[f] = old | vbit[db]
            undo[k] = (c, f, old)
            ok = fmask[f] & test == test
        else:
            c, c2 = choice
            f = face[succ[c]]
            succ[da] = succ[c]
            succ[c] = da
            succ[db] = succ[c2]
            succ[c2] = db
            # the walk from da becomes a new face; the one from db keeps f
            new_face = len(fmask)
            moved = []
            split = 0
            d = da
            while True:
                moved.append(d)
                face[d] = new_face
                split |= vbit[d]
                d = succ[d ^ 1]
                if d == da:
                    break
            rest = vbit[db]
            face[db] = f
            d = succ[db ^ 1]
            while d != db:
                rest |= vbit[d]
                d = succ[d ^ 1]
            old = fmask[f]
            fmask[f] = rest
            fmask.append(split)
            undo[k] = (c, c2, f, old, moved)
            ok = all(any(fm & pm == pm for fm in fmask) for pm in test if pm & old == pm)
        if not ok:
            continue
        if k == last:
            record()
            continue
        k += 1
        options[k] = corners(k)

    rotations = [succ_of(key, size) for key in sorted(best.values())]
    return [(rot, _faces(g, darts, rot)) for rot in rotations]


def _nx_incidence_graph(g: WeightedMultigraph) -> nx.Graph:
    """Simple graph with every edge subdivided once (handles multi-edges)."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for eid, (u, v, _) in enumerate(g.edges):
        mid = ("e", eid)
        h.add_edge(u, mid)
        h.add_edge(mid, v)
    return h


def is_planar(g: WeightedMultigraph) -> PlanarityResult:
    """Planarity verdict with an embedding or a Kuratowski witness.

    The witness is a set of edge ids of g whose union forms a subdivision of
    K5 or K33 and is minimal: removing any one edge makes it planar.
    """
    h = _nx_incidence_graph(g)
    planar, cert = nx.check_planarity(h, counterexample=True)
    if not planar:
        witness = set()
        for a, b in cert.edges():
            mid = a if isinstance(a, tuple) else b
            witness.add(mid[1])
        return PlanarityResult(False, None, frozenset(witness))

    rotation: list[tuple[int, ...]] = []
    order = cert.get_data()
    for v in range(g.n):
        darts = []
        for mid in order.get(v, []):
            eid = mid[1]
            u0, _, _ = g.edges[eid]
            darts.append(2 * eid + (0 if u0 == v else 1))
        rotation.append(tuple(darts))
    embedding = build_embedding(g, tuple(rotation))
    return PlanarityResult(True, embedding, None)


def is_outerplanar(g: WeightedMultigraph) -> bool:
    """True iff some planar embedding has every vertex on one face."""
    return skeleton_outerplanar(g.skeleton())


def faces(embedding: Embedding) -> tuple[Face, ...]:
    return embedding.faces


def build_embedding(
    g: WeightedMultigraph,
    rotation: tuple[tuple[int, ...], ...],
    outer_choice: tuple[int, ...] | None = None,
    parents: tuple[tuple[int, int] | None, ...] | None = None,
) -> Embedding:
    """Assemble an Embedding from a planar rotation system.

    ``outer_choice[i]`` picks which local face of component i faces its
    surroundings; ``parents[i]`` is None for components drawn in the shared
    unbounded region, or ``(j, f)`` to draw component i inside local face f
    of component j (f must not be j's outer choice).  Defaults put every
    component side by side with its first face outward.
    """
    comps = components_of(g)
    succ = succ_of(rotation, 2 * g.m)
    local: list[list[tuple[tuple[int, ...], frozenset[int]]]] = []
    for vs, es in comps:
        faces_c = component_faces(g, vs, es, succ)
        if es and len(vs) - len(es) + len(faces_c) != 2:
            raise PreconditionError("rotation system is not a plane embedding")
        local.append(faces_c)
    if outer_choice is None:
        outer_choice = tuple(0 for _ in comps)
    if parents is None:
        parents = tuple(None for _ in comps)
    for p in parents:
        if p is not None and p[1] == outer_choice[p[0]]:
            raise PreconditionError("cannot nest a component in an outer face")

    # the unbounded region, then one per (component, non-outer local face):
    # its own walk plus the outer walks of the components drawn inside it
    keys = [None] + [
        (i, fi) for i in range(len(comps)) for fi in range(len(local[i])) if fi != outer_choice[i]
    ]
    regions = {}
    for key in keys:
        pieces = [local[i][outer_choice[i]] for i, p in enumerate(parents) if p == key]
        if key is not None:
            pieces.append(local[key[0]][key[1]])
        walks = tuple(sorted(w for w, _ in pieces if w))
        regions[key] = (walks, frozenset().union(*(vs for _, vs in pieces)))

    # canonical face ids: sort by walk structure, vertices as tiebreak
    order = sorted(keys, key=lambda k: (regions[k][0], sorted(regions[k][1])))
    new_id = {key: i for i, key in enumerate(order)}
    return Embedding(
        graph=g,
        rotation=tuple(rotation),
        faces=tuple(Face(i, *regions[key]) for i, key in enumerate(order)),
        outer_face=new_id[None],
        components=tuple(vs for vs, _ in comps),
        nesting=tuple(new_id[p] for p in parents),
    )


def _embedding_key(e: Embedding):
    face_shape = tuple((f.walks, tuple(sorted(f.vertices))) for f in e.faces)
    return (e.rotation, face_shape, e.outer_face, e.nesting)


def _reflect_rotation(rotation: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    out = []
    for cycle in rotation:
        if len(cycle) <= 1:
            out.append(cycle)
        else:
            out.append((cycle[0], *reversed(cycle[1:])))
    return tuple(out)


def enumerate_embeddings(g: WeightedMultigraph, max_edges: int = DEFAULT_EDGE_CAP):
    """Yield every combinatorial embedding of planar g, up to reflecting
    each component on its own.

    Covers all rotation systems, all outer-face choices and all nestings of
    components and isolated vertices, in a deterministic order.  Each
    component's rotations are taken up to its own mirror image, so two or
    more components with a vertex of degree >= 3 yield fewer embeddings
    than "up to one global reflection" would (two disjoint K4s: 112, not
    224); face vertex sets and nestings are all still covered.  Raises
    PreconditionError on nonplanar input and ResourceExceededError beyond
    the configured caps.
    """
    if g.m > max_edges:
        raise ResourceExceededError(f"embedding enumeration capped at {max_edges} edges")
    if not graph_planar(g):
        raise PreconditionError("embedding enumeration needs a planar graph")
    comps = components_of(g)
    per_comp_rotations = [
        [
            rotation_from_succ(g, vs, es, succ)
            for succ in planar_rotations_of_component(
                g, vs, es, rotation_cap=EMBEDDING_ROTATION_CAP, half=True
            )
        ]
        for vs, es in comps
    ]

    seen: set = set()
    for rots in itertools.product(*per_comp_rotations):
        rotation: list[tuple[int, ...]] = [() for _ in range(g.n)]
        for cycles in rots:
            for v, cycle in cycles.items():
                rotation[v] = cycle
        rotation_t = tuple(rotation)
        succ = succ_of(rotation_t, 2 * g.m)
        local = [component_faces(g, vs, es, succ) for vs, es in comps]
        # the mirror image: each local face maps to the mirrored face that
        # walks its first dart backwards (an isolated vertex's face to itself)
        rotation_r = _reflect_rotation(rotation_t)
        succ_r = succ_of(rotation_r, 2 * g.m)
        image = []
        for (vs, es), lf in zip(comps, local):
            where = {
                d: fi
                for fi, (walk, _) in enumerate(component_faces(g, vs, es, succ_r))
                for d in walk
            }
            image.append([where[walk[0] ^ 1] if walk else 0 for walk, _ in lf])

        for outers in itertools.product(*(range(len(lf)) for lf in local)):
            slot_lists = []
            for ci in range(len(comps)):
                slots: list[tuple[int, int] | None] = [None]
                for cj in range(len(comps)):
                    if cj == ci:
                        continue
                    for fi in range(len(local[cj])):
                        if fi != outers[cj]:
                            slots.append((cj, fi))
                slot_lists.append(slots)
            for parents in itertools.product(*slot_lists):
                if not _acyclic(parents):
                    continue
                emb = build_embedding(g, rotation_t, tuple(outers), parents)
                key = _embedding_key(emb)
                if key in seen:
                    continue
                mirror = build_embedding(
                    g,
                    rotation_r,
                    tuple(image[ci][fi] for ci, fi in enumerate(outers)),
                    tuple(None if p is None else (p[0], image[p[0]][p[1]]) for p in parents),
                )
                mirror_key = _embedding_key(mirror)
                seen.add(key)
                seen.add(mirror_key)
                yield emb


def _acyclic(parents) -> bool:
    for start in range(len(parents)):
        steps = 0
        cur = parents[start]
        while cur is not None:
            cur_i = cur[0]
            steps += 1
            if steps > len(parents):
                return False
            cur = parents[cur_i]
    return True


def kuratowski_is_valid(g: WeightedMultigraph, witness: frozenset[int]) -> bool:
    """Check a Kuratowski witness: nonplanar, minimal under edge deletion."""
    sub = g.spanning_subgraph(witness)
    if graph_planar(sub):
        return False
    ids = sorted(witness)
    for drop in range(len(ids)):
        rest = g.spanning_subgraph(ids[:drop] + ids[drop + 1 :])
        if not graph_planar(rest):
            return False
    return True
