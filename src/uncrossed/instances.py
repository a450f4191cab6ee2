"""Instance generators: classic graphs, weighted gadget families, rotating-
path collections for complete graphs, hexagonal grids with ring
certificates, and tiles with an exact tile-crossing-number oracle.

All generators number vertices and edges canonically so that regression
files stay stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from .core import (
    NO_BUDGET,
    CollectionWitness,
    PreconditionError,
    SearchBudget,
    WeightedMultigraph,
    chord_crossings,
    make_drawing,
)
from .planarity import is_planar
from .solver import crossing_number


def complete(n: int) -> WeightedMultigraph:
    """K_n with unit weights; edges in lexicographic endpoint order."""
    if n < 1:
        raise PreconditionError("complete graph needs n >= 1")
    return WeightedMultigraph(
        n, tuple((i, j, 1) for i in range(n) for j in range(i + 1, n))
    )


def complete_bipartite(p: int, q: int) -> WeightedMultigraph:
    """K_{p,q}: left part 0..p-1, right part p..p+q-1."""
    if p < 1 or q < 1:
        raise PreconditionError("complete bipartite graph needs p, q >= 1")
    return WeightedMultigraph(
        p + q, tuple((i, p + j, 1) for i in range(p) for j in range(q))
    )


def heavy_cycle_with_diameters(m: int) -> WeightedMultigraph:
    """C_{2m} with edge weight m^3 plus the m diameters joining opposite
    vertices, weight 1.

    The heavy rim forces every optimal collection to keep the cycle
    uncrossed; only the diameters can afford to cross.  Edge ids: cycle
    edges (i, i+1 mod 2m) first, then diameters (i, i+m).
    """
    if m < 3:
        raise PreconditionError("heavy_cycle_with_diameters needs m >= 3")
    n = 2 * m
    edges = [(i, (i + 1) % n, m**3) for i in range(n)]
    edges += [(i, i + m, 1) for i in range(m)]
    edges = [(min(u, v), max(u, v), w) for u, v, w in edges]
    return WeightedMultigraph(n, tuple(edges))


def k5_with_two_light_edges(m: int) -> WeightedMultigraph:
    """K_5 with the two disjoint edges (0,1) and (2,3) of weight 1 and every
    other edge heavy of weight m.

    A single crossing between the two light edges is optimal for one
    drawing, but an uncrossed collection must pay ~2m.
    """
    if m < 3:
        raise PreconditionError("k5_with_two_light_edges needs m >= 3")
    light = {(0, 1), (2, 3)}
    edges = tuple(
        (i, j, 1 if (i, j) in light else m)
        for i in range(5)
        for j in range(i + 1, 5)
    )
    return WeightedMultigraph(5, edges)


# ---------------------------------------------------------------------------
# rotating-path collections for complete graphs


def _zigzag_path(n: int) -> list[int]:
    """Spanning path 0, 1, n-1, 2, n-2, ... (0-based vertex labels)."""
    seq = [0, 1]
    lo, hi = 2, n - 1
    while len(seq) < n:
        seq.append(hi)
        hi -= 1
        if len(seq) < n:
            seq.append(lo)
            lo += 1
    return seq


def rotating_path_collection(n: int) -> CollectionWitness:
    """Uncrossed collection for K_n from rotated zigzag spanning paths.

    Each drawing lays one path on a horizontal line and draws every other
    edge as a semicircle above or below it, the page chosen by the parity
    of the left endpoint's position.  Rotating the path ceil(n/2) times
    covers every edge, and crossings follow combinatorially from the
    two-page layout (orders from exact arc-intersection coordinates).
    From n = 13 on, three semicircles can pass through one point; such
    triple points are resolved by moving every foot at position a to
    a + a^2/10^9, as :func:`~uncrossed.core.chord_crossings` does.
    """
    if n < 5:
        raise PreconditionError("rotating_path_collection needs n >= 5")
    g = complete(n)
    eid = {
        (i, j): k
        for k, (i, j, _) in enumerate(g.edges)
    }
    base = _zigzag_path(n)
    drawings = []
    for s in range(-(-n // 2)):
        spine = [(v + s) % n for v in base]
        pos = {v: i + 1 for i, v in enumerate(spine)}  # 1-based positions
        pages: tuple[list, list] = ([], [])  # chords above and below the spine
        for (u, v), e in eid.items():
            pu, pv = pos[u], pos[v]
            if pu > pv:
                pu, pv = pv, pu
            if pv == pu + 1:
                continue  # spine edge, drawn on the line
            # x runs along the semicircle from its left foot
            pages[pu % 2].append((e, pu, pv, pos[min(u, v)] != pu))
        events, orders = chord_crossings(pages, _arc_crossing_x)
        drawings.append(make_drawing(g, events, orders))
    total = sum(d.cost(g) for d in drawings)
    return CollectionWitness(drawings=tuple(drawings), declared_cost=total)


def _arc_crossing_x(a1, b1, a2, b2) -> Fraction:
    c1, r1 = Fraction(a1 + b1, 2), Fraction(b1 - a1, 2)
    c2, r2 = Fraction(a2 + b2, 2), Fraction(b2 - a2, 2)
    return (r1 * r1 - r2 * r2 - c1 * c1 + c2 * c2) / (2 * (c2 - c1))


def per_drawing_crossing_bound(n: int) -> int:
    """The two-page layout's combinatorial crossing-count bound per drawing."""
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total += -(-(j - i - 1) // 2) * (n - j)
    return total


# ---------------------------------------------------------------------------
# hexagonal grids


@dataclass(frozen=True)
class GridCertificate:
    """Principal cycles of a hexagonal grid, innermost first, as vertex
    sequences.  The cycles are pairwise disjoint and cover every vertex."""

    rings: tuple[tuple[int, ...], ...]

    @property
    def ring_count(self) -> int:
        return len(self.rings)


_HEX_CORNERS = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))


def _hex_cells(radius: int):
    cells = []
    for q in range(-radius, radius + 1):
        for rr in range(-radius, radius + 1):
            if (abs(q) + abs(rr) + abs(q + rr)) // 2 <= radius:
                cells.append((q, rr))
    return cells


def _cell_corners(q: int, rr: int):
    cx, cy = 3 * q, 2 * rr + q
    return [(cx + dx, cy + dy) for dx, dy in _HEX_CORNERS]


def _patch_boundary(cells) -> list[tuple[int, int]]:
    """Outer boundary cycle (as coordinate list) of a set of hex cells."""
    edge_count: dict[tuple, int] = {}
    for q, rr in cells:
        cs = _cell_corners(q, rr)
        for i in range(6):
            a, b = cs[i], cs[(i + 1) % 6]
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    boundary = [k for k, cnt in edge_count.items() if cnt == 1]
    nbr: dict[tuple, list] = {}
    for a, b in boundary:
        nbr.setdefault(a, []).append(b)
        nbr.setdefault(b, []).append(a)
    start = min(nbr)
    walk = [start, min(nbr[start])]
    while walk[-1] != start:
        prev, cur = walk[-2], walk[-1]
        nxt = [x for x in nbr[cur] if x != prev]
        walk.append(nxt[0])
    return walk[:-1]


def hex_grid(r: int) -> tuple[WeightedMultigraph, GridCertificate]:
    """The hexagonal r-grid (wall of hexagons) with its principal cycles.

    Built from the hexagonal tiling patch of radius r-1 around one cell;
    the i-th principal cycle is the boundary of the radius-(i-1) sub-patch.
    Unique up to isomorphism; vertices numbered by sorted coordinates.
    """
    if r < 1:
        raise PreconditionError("hex_grid needs r >= 1")
    cells = _hex_cells(r - 1)
    corner_set = set()
    edge_set = set()
    for q, rr in cells:
        cs = _cell_corners(q, rr)
        corner_set.update(cs)
        for i in range(6):
            a, b = cs[i], cs[(i + 1) % 6]
            edge_set.add((min(a, b), max(a, b)))
    coords = sorted(corner_set)
    index = {c: i for i, c in enumerate(coords)}
    edges = tuple(
        (min(index[a], index[b]), max(index[a], index[b]), 1)
        for a, b in sorted(edge_set)
    )
    g = WeightedMultigraph(len(coords), edges)
    rings = []
    for radius in range(r):
        walk = _patch_boundary(_hex_cells(radius))
        ring = tuple(index[c] for c in walk)
        # canonical orientation: start at the smallest id, smaller neighbor next
        k = ring.index(min(ring))
        ring = ring[k:] + ring[:k]
        if ring[1] > ring[-1]:
            ring = (ring[0],) + tuple(reversed(ring[1:]))
        rings.append(ring)
    cert = GridCertificate(rings=tuple(rings))
    return g, cert


def is_hexagonal_grid(g: WeightedMultigraph, cert: GridCertificate) -> bool:
    """Structural check: hexagonal plane graph plus valid nested rings."""
    degs = [0] * g.n
    for u, v, _ in g.edges:
        degs[u] += 1
        degs[v] += 1
    if any(d not in (2, 3) for d in degs):
        return False
    res = is_planar(g)
    if not res.planar:
        return False
    lengths = sorted(sum(len(w) for w in f.walks) for f in res.embedding.faces)
    n_hex = sum(1 for L in lengths if L == 6)
    if len(lengths) - n_hex > 1:
        return False  # at most the outer face may be longer
    if len(lengths) - n_hex == 1:
        big = max(lengths)
        big_face = next(
            f for f in res.embedding.faces if sum(len(w) for w in f.walks) == big
        )
        if any(degs[v] == 2 and v not in big_face.vertices for v in range(g.n)):
            return False
    seen: set[int] = set()
    for ring in cert.rings:
        if seen & set(ring):
            return False
        seen |= set(ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if not any({a, b} == set(g.endpoints(e)) for e in range(g.m)):
                return False
    if seen != set(range(g.n)):
        return False
    if len(cert.rings[0]) != 6:
        return False
    # the innermost ring must bound a hexagonal face
    c1 = set(cert.rings[0])
    if not any(
        f.vertices == c1 and sum(len(w) for w in f.walks) == 6
        for f in res.embedding.faces
    ):
        return False
    # nesting: removing ring i separates ring i-1 from ring i+1
    for i in range(1, len(cert.rings) - 1):
        if _connects_avoiding(g, cert.rings[i - 1], cert.rings[i + 1], cert.rings[i]):
            return False
    return True


def _connects_avoiding(g, side_a, side_b, blocked) -> bool:
    blocked = set(blocked)
    a, b = set(side_a) - blocked, set(side_b) - blocked
    comps, _ = g.components(e for e in range(g.m) if not blocked & set(g.endpoints(e)))
    return bool(a & b) or any(a.intersection(vs) and b.intersection(vs) for vs, _ in comps)


def _find_path_edge(g: WeightedMultigraph, a: int, b: int) -> list[int] | None:
    """Direct edge a-b, or the first edge of the unique degree-2 path."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in range(g.m):
        u, v, _ = g.edges[e]
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    for v, e in sorted(adj.get(a, [])):
        if v == b:
            return [e]
    # subdivision support: walk through internal degree-2 vertices
    for v, e in sorted(adj.get(a, [])):
        path = [e]
        prev, cur = a, v
        while cur != b and len(adj.get(cur, [])) == 2:
            (n1, e1), (n2, e2) = adj[cur]
            nxt, ne = (n1, e1) if n1 != prev else (n2, e2)
            path.append(ne)
            prev, cur = cur, nxt
        if cur == b:
            return path
    return None


def validate_certificate(g: WeightedMultigraph, cert: GridCertificate) -> bool:
    """The certificate's cycles exist in g (possibly subdivided) and are
    pairwise vertex-disjoint."""
    seen: set[int] = set()
    for ring in cert.rings:
        if set(ring) & seen:
            return False
        seen |= set(ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if _find_path_edge(g, a, b) is None:
                return False
    return True


def _require_rings(g: WeightedMultigraph, cert: GridCertificate, k: int) -> None:
    """At least 4k+4 rings, and a certificate matching g."""
    if cert.ring_count < 4 * k + 4:
        raise PreconditionError(
            f"need at least {4 * k + 4} rings for k={k}, got {cert.ring_count}"
        )
    if not validate_certificate(g, cert):
        raise PreconditionError("certificate does not match the graph")


@dataclass(frozen=True)
class DeletionNote:
    """Record of the irrelevant-edge step.

    For a flat grid with at least 4k+4 rings, deleting an innermost-cycle
    edge preserves min(Ucr_c, k+1) for every c; flatness itself is the
    caller's responsibility and is recorded as an unchecked assumption.
    """

    removed_edge: int
    k: int
    flatness_assumed: bool = True


def delete_innermost_edge(
    g: WeightedMultigraph, cert: GridCertificate, k: int
) -> tuple[WeightedMultigraph, DeletionNote]:
    """Remove one edge of the innermost principal cycle, deterministically.

    Requires at least 4k+4 rings and a certificate matching g."""
    _require_rings(g, cert, k)
    ring = cert.rings[0]
    path = _find_path_edge(g, ring[0], ring[1])
    removed = path[0]
    remaining = tuple(
        g.edges[e] for e in range(g.m) if e != removed
    )
    return WeightedMultigraph(g.n, remaining), DeletionNote(removed_edge=removed, k=k)


@dataclass(frozen=True)
class PrincipalRing:
    index: int
    vertices: frozenset[int]
    edges: tuple[int, ...]


def principal_rings(
    g: WeightedMultigraph, cert: GridCertificate, k: int
) -> list[PrincipalRing]:
    """Rings R_i for even i <= 4k+2: the subgraph induced by cycles C_i and
    C_{i+1}, plus components of G minus the grid hanging onto the region
    inside C_{i+2} but not inside C_i."""
    _require_rings(g, cert, k)
    grid_vertices = {v for ring in cert.rings for v in ring}
    adj = [[] for _ in range(g.n)]
    for e in range(g.m):
        u, v, _ = g.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    joined, isolated = g.components(
        e for e in range(g.m) if not grid_vertices & set(g.endpoints(e))
    )
    comps = [set(vs) for vs, _ in joined]
    comps += [{v} for v in isolated if v not in grid_vertices]

    def interior(j: int) -> set[int]:
        return {v for ring in cert.rings[: j - 1] for v in ring}

    rings_out = []
    i = 2
    while i <= 4 * k + 2:
        verts = set(cert.rings[i - 1]) | set(cert.rings[i])
        inner_allowed = interior(i + 2)
        inner_banned = interior(i)
        for comp in comps:
            nbrs = {y for x in comp for y in adj[x] if y in grid_vertices}
            if nbrs & inner_allowed and not nbrs & inner_banned:
                verts |= comp
        edge_ids = tuple(
            e
            for e in range(g.m)
            if g.endpoints(e)[0] in verts and g.endpoints(e)[1] in verts
        )
        rings_out.append(PrincipalRing(index=i, vertices=frozenset(verts), edges=edge_ids))
        i += 2
    return rings_out


# ---------------------------------------------------------------------------
# tiles and the doubled-tile gadget


@dataclass(frozen=True)
class Tile:
    """A graph with four distinguished corners drawn on the unit square in
    the order upper-left, lower-left, lower-right, upper-right."""

    graph: WeightedMultigraph
    corners: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(set(self.corners)) != 4:
            raise PreconditionError("tile corners must be four distinct vertices")
        if not all(0 <= v < self.graph.n for v in self.corners):
            raise PreconditionError("tile corner out of range")


def invert_tile(t: Tile) -> Tile:
    """Swap the last two corners: (a, b, c, d) becomes (a, b, d, c)."""
    a, b, c, d = t.corners
    return Tile(graph=t.graph, corners=(a, b, d, c))


def perfectly_connected(t: Tile) -> bool:
    """Connected, still connected without the corners, and no edge joins
    two corners."""
    g = t.graph
    corner_set = set(t.corners)
    for u, v, _ in g.edges:
        if u in corner_set and v in corner_set:
            return False
    if not _connected(g, set(range(g.n))):
        return False
    rest = set(range(g.n)) - corner_set
    return _connected(g, rest)


def _connected(g: WeightedMultigraph, verts: set[int]) -> bool:
    comps, isolated = g.components(e for e in range(g.m) if set(g.endpoints(e)) <= verts)
    return len(comps) + len(verts.intersection(isolated)) == 1


def tile_crossing_number(t: Tile, budget: SearchBudget = NO_BUDGET):
    """Exact minimum crossings over tile drawings.

    Adds a boundary cycle through the corners whose weight exceeds any
    possible interior cost, so optimal drawings keep it uncrossed and it
    pins the corners to the square boundary in order (mirror images cost
    the same).  Returns the crossing_number result; its value is tcr.
    """
    g = t.graph
    w = g.total_weight() ** 2 + 1
    a, b, c, d = t.corners
    frame = [(a, b, w), (b, c, w), (c, d, w), (d, a, w)]
    framed = WeightedMultigraph(
        g.n, g.edges + tuple((min(u, v), max(u, v), ww) for u, v, ww in frame)
    )
    return crossing_number(framed, budget)


def edge_disjoint_path_count(g: WeightedMultigraph, s: int, t: int) -> int:
    """Maximum number of edge-disjoint s-t paths (weights count as
    parallel copies): the s-t max flow with each vertex pair's capacity
    its summed weight."""
    if s == t or not (0 <= s < g.n and 0 <= t < g.n):
        raise PreconditionError(f"need two distinct vertices below {g.n}, got {s} and {t}")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for u, v, w in g.edges:
        if h.has_edge(u, v):
            h[u][v]["capacity"] += w
        else:
            h.add_edge(u, v, capacity=w)
    return nx.maximum_flow_value(h, s, t)


@dataclass(frozen=True)
class GadgetInfo:
    cost_target: int  # the collection cost 2k matching tcr(inverted) <= k
    k: int
    copy_of: tuple[int, ...]  # gadget vertex id of each original tile vertex's twin


def doubled_tile_gadget(t: Tile, k: int) -> tuple[WeightedMultigraph, GadgetInfo]:
    """Two mirrored copies of a planar tile glued along c and d, wrapped in
    a 4-cycle of weight 2k+1 through a, b and their twins.

    The collection cost of the result is tied to the inverted tile: the
    gadget admits an uncrossed collection of 2 drawings with cost <= 2k
    exactly when tcr of the inverted tile is <= k.  Preconditions checked:
    perfectly connected, planar as a tile, 2k+1 edge-disjoint a-c paths,
    and corner d of degree 1.
    """
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    g = t.graph
    a, b, c, d = t.corners
    if not perfectly_connected(t):
        raise PreconditionError("tile is not perfectly connected")
    deg_d = sum(1 for u, v, _ in g.edges if d in (u, v))
    if deg_d != 1:
        raise PreconditionError("corner d must have degree 1")
    paths = edge_disjoint_path_count(g, a, c)
    if paths < 2 * k + 1:
        raise PreconditionError(
            f"need {2 * k + 1} edge-disjoint a-c paths, found {paths}"
        )
    tcr = tile_crossing_number(t)
    if tcr.value != 0:
        raise PreconditionError("tile must be planar as a tile (tcr = 0)")

    copy_of = [0] * g.n
    next_id = g.n
    for v in range(g.n):
        if v in (c, d):
            copy_of[v] = v
        else:
            copy_of[v] = next_id
            next_id += 1
    edges = list(g.edges)
    for u, v, w in g.edges:
        edges.append((copy_of[u], copy_of[v], w))
    heavy = 2 * k + 1
    a2, b2 = copy_of[a], copy_of[b]
    for u, v in ((a, b), (b, a2), (a2, b2), (b2, a)):
        edges.append((min(u, v), max(u, v), heavy))
    gadget = WeightedMultigraph(next_id, tuple(edges))
    return gadget, GadgetInfo(cost_target=2 * k, k=k, copy_of=tuple(copy_of))
