"""Realizable uncrossed sets and the exact edge-cover engine.

An edge set S is a *realizable uncrossed set* of G when some drawing of G
leaves every edge of S crossing-free.  Combinatorially: some plane embedding
of the spanning subgraph (V, S) must host, for every edge outside S, a face
whose boundary contains both of its endpoints (the edge can then be drawn
inside that face, crossing only other non-S edges).

The cover engine answers "can E(G) be covered by c feasible sets" for a
pluggable feasibility predicate; with predicate = realizable it computes the
uncrossed number, with planarity / outerplanarity it computes thickness and
outerthickness.  Every predicate used here is closed under taking subsets,
so searching partitions of E(G) is enough, and a part that fails a necessary
condition can be abandoned immediately.

:class:`RealizabilityContext` carries per-graph caches: face profiles are
memoized per connected component (in original edge ids), which is what makes
the exhaustive covering searches affordable.  A component's profile comes
from one walk over its partial plane embeddings
(:func:`~uncrossed.planarity.hosting_rotations`), which abandons a branch
as soon as a required pair shares no face.  Its :meth:`~RealizabilityContext.feasible`
answers each orbit of a part under Aut(G) once, keyed by a canonical
labelling of G with the part's edges coloured (the colour refinement and
cell-wise labelling search of McKay & Piperno, "Practical graph isomorphism
II", J. Symb. Comput. 60, 2014, without search-tree pruning).  The same
labelling, applied to partial partitions (:class:`PairColours`), lets
:class:`CoverSearch` skip subtrees equivalent under Aut(G) to an exhausted
one (isomorph rejection as in McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).  The search grows each part one edge at a time, so
the context derives most parts' labellings from their parent's, as in that
paper's canonical augmentation.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .core import (
    NO_BUDGET,
    BudgetExhausted,
    DrawingWitness,
    PreconditionError,
    SearchBudget,
    Ticker,
    WeightedMultigraph,
    chord_drawing,
    planarize,
)
from .planarity import (
    Embedding,
    build_embedding,
    component_faces,
    components_of,
    dart_vertex,
    forced_rotation,
    graph_planar,
    hosting_rotations,
    rotation_from_succ,
    skeleton_outerplanar,
    skeleton_planar,
)

#: Nodes of the hosting walk (partial plane embeddings) one context may visit
#: before its answers turn "unknown"; the one rotation of a tree or a
#: 3-connected component counts as one node.
ROTATION_BUDGET = 5_000_000

#: Vertex labellings one canonical form may try; 7! covers every part of K7.
#: A labelled G whose refined cells allow more gets no form.
MAX_LABELLINGS = 5040

_ANSWER = {"yes": True, "no": False, "unknown": None}


def _three_connected(g: WeightedMultigraph, vertices, edges) -> bool:
    """No separator of size <= 2: at least four vertices, and G - a is
    connected without a cut vertex for every vertex a."""
    if len(vertices) < 4:
        return False
    adj = {v: [] for v in vertices}
    for e in edges:
        u, v, _ = g.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    return all(_biconnected_without(adj, a) for a in vertices)


def _biconnected_without(adj, a) -> bool:
    """Whether the graph ``adj`` minus the vertex ``a`` is connected and has
    no cut vertex, by one iterative lowpoint DFS (Hopcroft & Tarjan, 1973):
    a non-root v is a cut vertex iff some child's subtree reaches no vertex
    found before v, and the root iff it has two children."""
    root = next(v for v in adj if v != a)
    found = {a: -1, root: 0}  # discovery index; a is never entered
    low = {root: 0}
    stack = [(root, iter(adj[root]))]
    root_children = 0
    while stack:
        v, rest = stack[-1]
        for w in rest:
            if w not in found:
                found[w] = low[w] = len(found) - 1
                stack.append((w, iter(adj[w])))
                break
            if w != a and found[w] < low[v]:
                low[v] = found[w]
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if parent == root:
                    root_children += 1
                elif low[v] >= found[parent]:
                    return False
                low[parent] = min(low[parent], low[v])
    return root_children == 1 and len(found) == len(adj)


@dataclass(frozen=True)
class UncrossedSetCertificate:
    """Witness that S can be left entirely uncrossed in one drawing.

    ``embedding`` is a plane embedding of the spanning subgraph (V, S) with
    S renumbered in increasing original-id order; ``hosting`` assigns to
    every edge outside S a face id whose boundary contains both endpoints.
    """

    edge_subset: tuple[int, ...]
    embedding: Embedding
    hosting: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RealizabilityResult:
    status: str  # "yes" | "no" | "unknown"
    certificate: UncrossedSetCertificate | None = None


def certificate_is_valid(g: WeightedMultigraph, cert: UncrossedSetCertificate) -> bool:
    """Independent check of an uncrossed-set certificate.

    ``edge_subset`` must be sorted, distinct edge ids of g, the embedding
    must be of the spanning subgraph they keep, every other edge, and only
    those, must be hosted once, on a face holding both its ends, the face
    walks may hold darts of kept edges only, and the
    :func:`certificate_drawing` must be plane.  The last test does not trust
    the faces: a plane drawing whose chords are the hosted edges leaves
    ``edge_subset`` uncrossed.
    """
    s = set(cert.edge_subset)
    kept = list(cert.edge_subset)
    if kept != sorted(s & set(range(g.m))) or cert.embedding.graph != g.spanning_subgraph(kept):
        return False
    if sorted(eid for eid, _ in cert.hosting) != sorted(set(range(g.m)) - s):
        return False
    face_verts = {f.id: f.vertices for f in cert.embedding.faces}
    for eid, fid in cert.hosting:
        if not set(g.endpoints(eid)) <= face_verts.get(fid, frozenset()):
            return False
    walks = [walk for f in cert.embedding.faces for walk in f.walks]
    if not all(0 <= d < 2 * len(kept) for walk in walks for d in walk):
        return False
    return graph_planar(planarize(g, certificate_drawing(g, cert)))


def certificate_drawing(g: WeightedMultigraph, cert: UncrossedSetCertificate) -> DrawingWitness:
    """The drawing a certificate describes: its embedding as-is, and every
    hosted edge a chord of its face, whose boundary (the walks' vertices,
    then the other vertices placed in it) is laid out in convex position
    (:func:`~uncrossed.core.chord_drawing`).  Chords cross exactly when their
    ends interleave, so the drawing of a true certificate is plane."""
    sub = cert.embedding.graph
    face_seq: dict[int, list[int]] = {}
    for f in cert.embedding.faces:
        seq = [dart_vertex(sub, d) for walk in f.walks for d in walk]
        face_seq[f.id] = seq + sorted(f.vertices - set(seq))
    chords: dict[int, list] = {}
    for eid, fid in cert.hosting:
        seq = face_seq[fid]
        u, v, _ = g.edges[eid]
        chords.setdefault(fid, []).append((eid, seq.index(u), seq.index(v)))
    return chord_drawing(g, chords.values())


def _refine(mat: list[list[int]], cells: list[list[int]]) -> list[list[int]]:
    """Split cells in rounds by their members' sorted rows of (pair colour +
    colour of the other vertex), until a round splits none or every vertex
    has its own.

    A vertex's colour is its cell's index; pair colours are multiples of n,
    so each sum names one such combination.  A round splits every cell but
    singletons by the colours it started with, into sub-cells in sorted-row
    order that keep the cell's member order.  So cell indices are the ranks
    of (colour, sorted row), which an isomorphism of the pair matrices keeps.
    """
    n = len(mat)
    while len(cells) < n:
        colour = [0] * n
        for c, cell in enumerate(cells):
            for v in cell:
                colour[v] = c
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            rows: dict[tuple, list[int]] = {}
            for v in cell:
                rows.setdefault(tuple(sorted(map(operator.add, mat[v], colour))), []).append(v)
            split.extend(rows[row] for row in sorted(rows))
        if len(split) == len(cells):
            break
        cells = split
    return cells


def _twins(mat: list[list[int]], cell: list[int]) -> bool:
    """Whether every two members of ``cell`` have equal rows outside their
    own two positions, so every permutation of the cell keeps ``mat``.
    As ``mat`` is symmetric, testing each member against the first is enough.
    """
    first, *rest = cell
    for v in rest:
        row = mat[v][:]
        row[first], row[v] = row[v], row[first]
        if row != mat[first]:
            return False
    return True


class PairColours:
    """Canonical forms of G with its edges labelled, under Aut(G).

    A labelling maps edge ids to positive labels; every other edge has
    label 0.  A vertex pair is coloured by the sorted (weight, label) tuple
    over its parallel edges, stored as n times an id fixed for this object
    (no edge is id 0), so two labellings get equal forms exactly when some
    vertex permutation keeping every pair colour of G maps one onto the
    other.  :meth:`form` alone decides when there is no key.
    """

    def __init__(self, g: WeightedMultigraph):
        self.g = g
        self._pair_of = [(min(u, v), max(u, v)) for u, v, _ in g.edges]
        self._pair_edges: dict[tuple[int, int], list[int]] = {}
        for e, pair in enumerate(self._pair_of):
            self._pair_edges.setdefault(pair, []).append(e)
        # a pair's labels as one number: label times radix ** (index among parallels)
        self._radix = g.m + 1
        self._place = [
            self._radix ** self._pair_edges[pair].index(e) for e, pair in enumerate(self._pair_of)
        ]
        self._colour_ids: dict[tuple, int] = {}
        self._pair_colour: dict[tuple[int, int, int], int] = {}
        # a vertex order is bytes, so above 256 vertices there are no forms
        # and no n x n matrix, as for a trivial Aut(G)
        self._symmetric = False
        if g.n <= 256:
            self.matrix = [[0] * g.n for _ in range(g.n)]  # 0: no edge joins the pair
            self.matrix = self._recoloured(dict.fromkeys(self._pair_edges, 0))
            self.cells = _refine(self.matrix, [list(range(g.n))])
            # refinement separating every vertex means Aut(G) is trivial
            self._symmetric = len(self.cells) < g.n

    def _recoloured(self, marks: dict[tuple[int, int], int]) -> list[list[int]]:
        """A copy of :attr:`matrix` recoloured at each pair of ``marks``,
        which holds the labels of the pair's parallel edges as one number."""
        edges, ids, radix = self.g.edges, self._colour_ids, self._radix
        mat = [row[:] for row in self.matrix]
        for (u, v), mark in marks.items():
            colour = self._pair_colour.get((u, v, mark))
            if colour is None:
                parallel = self._pair_edges[(u, v)]
                key = tuple(sorted((edges[e][2], mark // self._place[e] % radix) for e in parallel))
                colour = self.g.n * ids.setdefault(key, len(ids) + 1)
                self._pair_colour[(u, v, mark)] = colour
            mat[u][v] = mat[v][u] = colour
        return mat

    def form(self, labels: dict[int, int]) -> tuple[tuple, tuple] | None:
        """(form, order): the least pair-colour matrix of the labelled G and
        a vertex order reading it off, so entry (i, j) of the form is the
        pair colour of ``order[i]`` and ``order[j]``.  None when Aut(G) is
        trivial (no other labelling can be equivalent), G has more than 256
        vertices or the refined cells allow more than :data:`MAX_LABELLINGS`
        labellings.

        Vertex colours are refined from G's until they stop splitting; the
        minimum runs over every labelling that keeps the cells in order.  A
        discrete refinement is read off as it is.  A cell of twins
        (:func:`_twins`) keeps only its own order: every permutation of it
        maps the labelled G onto itself, and its own order comes first.
        """
        return self._labelled(labels.items())

    def _labelled(self, labelled) -> tuple[tuple, tuple] | None:
        """:meth:`form` of G with the (edge, label) pairs of ``labelled``."""
        if not self._symmetric:
            return None
        marks: dict[tuple[int, int], int] = {}
        for e, label in labelled:
            pair = self._pair_of[e]
            marks[pair] = marks.get(pair, 0) + label * self._place[e]
        mat = self._recoloured(marks)
        cells = _refine(mat, self.cells)

        def code(labelling) -> tuple:
            pick = operator.itemgetter(*itertools.chain.from_iterable(labelling))
            return tuple(map(pick, pick(mat)))

        if len(cells) < len(mat):
            if math.prod(math.factorial(len(cell)) for cell in cells) > MAX_LABELLINGS:
                return None
            free = [len(cell) > 1 and not _twins(mat, cell) for cell in cells]
            if any(free):
                perms = [itertools.permutations(c) if f else (c,) for c, f in zip(cells, free)]
                cells = min(itertools.product(*perms), key=code)
        order = tuple(itertools.chain.from_iterable(cells))
        return code((order,)), order

    def partition_key(self, parts) -> tuple | None:
        """Canonical key of a partial partition of E(G), or None.

        Parts are labelled 1, 2, ... in order of size and the key is the
        least :meth:`form` over the orders of equal-sized parts, so equal
        keys mean some automorphism of G maps the parts of one onto the
        parts of the other (and unplaced edges onto unplaced edges).  None
        at the first :meth:`form` that is None.
        """
        groups = [list(same) for _, same in itertools.groupby(sorted(parts, key=len), key=len)]
        forms = []
        for order in itertools.product(*map(itertools.permutations, groups)):
            numbered = enumerate(itertools.chain.from_iterable(order), 1)
            found = self._labelled((e, label) for label, part in numbered for e in part)
            if found is None:
                return None
            forms.append(found[0])
        return min(forms)


class RealizabilityContext:
    """Per-graph state for realizability queries.

    Face profiles (the hosting rotation systems of one component and
    their face vertex sets) are cached by the component's edge set, so
    covering searches that revisit the same component pay for its walk
    once.  Yes/no answers of :meth:`feasible` are memoized by
    the part's :meth:`PairColours.form`, so parts that an automorphism of G
    maps onto each other share one query.  Every node of the walk reads the
    clock of :attr:`ticker`, which a caller may share with its search.
    """

    def __init__(self, g: WeightedMultigraph):
        self.g = g
        self.ticker = Ticker(NO_BUDGET)
        self.nodes_spent = 0
        self.profile_cache: dict[frozenset[int], list | None] = {}
        self.g_pairs = g.skeleton()
        self.orbit_memo: dict[tuple, bool] = {}
        self.colours = PairColours(g)
        # (form, vertex order) of each part :meth:`feasible` did not answer False
        self.known: dict[frozenset[int], tuple] = {}
        # (parent form, positions of the added edge's ends in the parent's
        # order, its weight) -> (child form, child order as parent positions)
        self.steps: dict[tuple, tuple] = {}
        # each edge's place in the order CoverSearch places edges in
        self.placed_at = {e: i for i, e in enumerate(dense_first_order(g))}

    def feasible(self, part: frozenset[int]) -> bool | None:
        """Realizability of ``part`` as True, False or None (unknown).

        One :meth:`realizable` query answers a whole Aut(G) orbit, keyed by
        the form of G with the part's edges labelled 1.  A part without a
        form is not memoized here (:attr:`CoverSearch.cache` holds it), and
        an unknown never is, so a later member of its orbit asks again.
        The form of a part one edge larger than a part answered before comes
        from :attr:`steps` where it can (see :meth:`_form`).
        """
        found = self._form(part)
        key = None if found is None else found[0]
        ans = self.orbit_memo.get(key)
        if ans is None:
            ans = _ANSWER[self.realizable(part).status]
            if key is not None and ans is not None:
                self.orbit_memo[key] = ans
        if key is not None and ans is not False:
            self.known[part] = found
        return ans

    def _form(self, part: frozenset[int]):
        """:meth:`PairColours.form` of ``part`` labelled 1 with the order
        as bytes, or None; read from :attr:`steps` when ``part - {e}`` is known.

        Canonical augmentation (McKay 1998): the orders of two parents with
        one form differ by an automorphism of G carrying one parent onto the
        other.  It carries an edge added at the same order positions, with
        the same weight, onto the other's, so both children have one form,
        and the image of one child's order reads it off the other.  Edges
        are tried last-placed first, so a part :class:`CoverSearch` grew
        finds its parent at once.
        """
        parent_order = step = None
        for e in sorted(part, key=self.placed_at.__getitem__, reverse=True):
            parent = self.known.get(part - {e})
            if parent is not None:
                parent_form, parent_order = parent
                u, v, w = self.g.edges[e]
                step = (parent_form, *sorted((parent_order.index(u), parent_order.index(v))), w)
                break
        if step not in self.steps:
            found = self.colours.form(dict.fromkeys(part, 1))
            if found is not None:
                form, order = found
                found = form, bytes(order if step is None else map(parent_order.index, order))
            if step is None:
                return found
            self.steps[step] = found  # the child's order as positions in the parent's
        found = self.steps[step]
        if found is None:
            return None
        return found[0], bytes(map(parent_order.__getitem__, found[1]))

    # -- cheap necessary conditions ------------------------------------

    def pairs_insertable(self, skel, pairs, comp_of) -> bool:
        """Every required pair inside one component embeds planarly on its own.

        ``skel`` is the planar skeleton of a part, ``pairs`` its sorted
        required pairs and ``comp_of`` maps each vertex an edge of the part
        touches to its component.  Sound for pruning partial parts: if any
        superset of the part is realizable, each pair here is either inside
        the superset (still planar) or hosted on a face, hence addable.
        Pairs joining different components are always addable (draw the
        components side by side with the endpoints outward), so only pairs
        inside one component are tested, in sorted order.
        """
        for u, v in pairs:
            cu = comp_of.get(u)
            if cu is not None and cu == comp_of.get(v) and not skeleton_planar(skel | {(u, v)}):
                return False
        return True

    # -- face profiles -------------------------------------------------

    def profiles(self, vertices, edges, within):
        """Rotations of one component hosting all its required pairs.

        Entries are (succ, faces), one per face vertex-set family.  Trees
        and simple 3-connected components have one plane embedding up to
        mirror image, so one family, and take the one rotation of
        :func:`~uncrossed.planarity.forced_rotation`.  Any other component takes
        :func:`~uncrossed.planarity.hosting_rotations`, which walks its
        partial plane embeddings and keeps, per family, the system that
        the reference product ``planar_rotations_of_component(...,
        half=True)`` yields first, in that order; so entries, arrangements
        and certificates are those of the rotation product.  Every node of the
        walk reads the clock and counts against :data:`ROTATION_BUDGET`;
        past it the result is None.  A component for the walk is None at
        once when a vertex of degree d has d * (d-1)! > ROTATION_BUDGET, a rule kept
        from the rotation product: a bundle of d parallel edges alone has
        (d-1)! plane embeddings.  ``within`` must equal the required pairs
        inside this component, which only depend on the edge set, so
        results are cached by the edge set.
        """
        key = frozenset(edges)
        if key in self.profile_cache:
            return self.profile_cache[key]
        g = self.g
        tree = len(edges) == len(vertices) - 1
        degree = Counter(v for e in edges for v in g.edges[e][:2])
        out = None
        if tree or (len(edges) == len(g.skeleton(edges)) and _three_connected(g, vertices, edges)):
            if self._visit():
                succ = forced_rotation(g, vertices, edges)
                faces = component_faces(g, vertices, edges, succ)
                hosted = all(any(u in verts and v in verts for _, verts in faces) for u, v in within)
                out = [(succ, faces)] if hosted else []
        elif max(d * math.factorial(d - 1) for d in degree.values()) <= ROTATION_BUDGET:
            out = hosting_rotations(g, vertices, edges, within, self._visit)
        self.profile_cache[key] = out
        return out

    def _visit(self) -> bool:
        """Read the clock and count one node against
        :data:`ROTATION_BUDGET`; false once the budget is spent."""
        self.ticker.check_clock()
        self.nodes_spent += 1
        return self.nodes_spent <= ROTATION_BUDGET

    # -- the decision ----------------------------------------------------

    def realizable(self, edge_ids, want_certificate: bool = False) -> RealizabilityResult:
        """Whether some drawing of G leaves the edges ``edge_ids`` uncrossed.

        Cheap tests first: unless a certificate is wanted, (V, S)
        outerplanar is yes outright (an outerplanar graph is planar); then
        (V, S) must be planar.  Then each component's :meth:`profiles` host
        its inside pairs, and :func:`_arrange_components` looks for one
        choice per component and a nesting that meets the :func:`_needs`
        of the pairs between components and of the isolated vertices.
        A component :meth:`profiles` leaves undecided (the degree rule or
        the walk's node budget) is "no" when :meth:`pairs_insertable`
        fails, and "unknown" otherwise.
        """
        g = self.g
        s = frozenset(edge_ids)
        skel = g.skeleton(s)
        if not want_certificate and skeleton_outerplanar(skel):
            return RealizabilityResult("yes")
        if not skeleton_planar(skel):
            return RealizabilityResult("no")
        pairs = sorted(self.g_pairs - skel)
        comps, isolated = g.components(s)
        comp_of = {v: ci for ci, (vs, _) in enumerate(comps) for v in vs}

        within: list[list[tuple[int, int]]] = [[] for _ in comps]
        cross: list[tuple[int, int]] = []
        for u, v in pairs:
            cu, cv = comp_of.get(u), comp_of.get(v)
            if cu is not None and cu == cv:
                within[cu].append((u, v))
            else:
                cross.append((u, v))

        profiles = []
        for (vs, es), inside in zip(comps, within):
            found = self.profiles(vs, es, inside)
            if found is None:
                if not self.pairs_insertable(skel, pairs, comp_of):
                    return RealizabilityResult("no")
                return RealizabilityResult("unknown")
            if not found:
                return RealizabilityResult("no")
            profiles.append(found)

        solution = _arrange_components(profiles, _needs(g.n, cross, isolated))
        if solution is None:
            return RealizabilityResult("no")
        if not want_certificate:
            return RealizabilityResult("yes")
        return RealizabilityResult("yes", _build_certificate(g, s, comps, *solution))


def realizable_uncrossed_set(
    g: WeightedMultigraph, edge_ids, want_certificate: bool = True
) -> RealizabilityResult:
    """Decide whether some drawing of G leaves every edge of S uncrossed.

    Enumerates plane embeddings of (V, S) component by component: a pair of
    vertices inside one component must share one of its faces, and pairs
    across components constrain the outer-face choices and the nesting.
    An outerplanar (V, S) is realizable outright: draw it with every vertex
    on the outer face and route all other edges out there.  Raises
    PreconditionError for an edge id outside 0..m-1.
    """
    ids = list(edge_ids)
    if not set(ids) <= set(range(g.m)):
        raise PreconditionError(f"edge ids must lie in 0..{g.m - 1}")
    return RealizabilityContext(g).realizable(ids, want_certificate=want_certificate)


def _needs(n, cross, isolated):
    """The regions the arrangement must provide, as one list.

    Each need is (vertex set, isolated vertices placed with it): some region
    must hold the set, and the members are drawn in the first one that does.
    A pair joining two components is a need with no members.  Isolated
    vertices that pairs join, directly or through each other, must share a
    region: they are one need, whose set is every component vertex paired
    with a member.  Cross pairs come first.
    """
    partners: dict[int, set[int]] = {v: set() for v in isolated}
    same_region = []
    needs = []
    for u, v in cross:
        if u in partners and v in partners:
            same_region.append((u, v, 1))
        elif u in partners:
            partners[u].add(v)
        elif v in partners:
            partners[v].add(u)
        else:
            needs.append(({u, v}, ()))
    joined, alone = WeightedMultigraph(n, tuple(same_region)).components()
    groups = [vs for vs, _ in joined] + [[v] for v in alone if v in partners]
    needs.extend((set().union(*map(partners.get, members)), members) for members in groups)
    return needs


def _arrange_components(profiles, needs):
    """Search rotations, shown faces and nestings that meet every need.

    ``profiles`` lists each component's entries of
    :meth:`RealizabilityContext.profiles`.  Returns (entry, shown face index
    and parent per component, region of each isolated vertex) for the first
    arrangement found, or None.  A parent or region of None is the
    unbounded region; ``(comp, face)`` is an inner face of that component.
    Any number of components works, zero and one included.  A lone
    component tries shown face 0 only: every shown face gives it the same
    region sets, so if face 0 fails, all fail.
    """
    for chosen in itertools.product(*profiles):
        faces_of = [faces for _, faces in chosen]
        lone = len(faces_of) == 1
        for shown in itertools.product(*(range(1 if lone else len(faces)) for faces in faces_of)):
            slot_lists = [
                [None] + [
                    (cj, fi)
                    for cj, faces in enumerate(faces_of) if cj != ci
                    for fi in range(len(faces)) if fi != shown[cj]
                ]
                for ci in range(len(faces_of))
            ]
            for parents in itertools.product(*slot_lists):
                if not _parents_acyclic(parents):
                    continue
                regions = _regions(faces_of, shown, parents)
                placement = {}
                for verts, members in needs:
                    home = next((key for key, region in regions if verts <= region), False)
                    if home is False:
                        break
                    placement.update(dict.fromkeys(members, home))
                else:
                    return chosen, shown, parents, placement
    return None


def _parents_acyclic(parents: tuple) -> bool:
    for cur in parents:
        steps = 0
        while cur is not None:
            steps += 1
            if steps > len(parents):
                return False
            cur = parents[cur[0]]
    return True


def _regions(faces_of, shown, parents):
    """(key, vertex set) per region; key None is the unbounded region."""
    out = [(None, set())]
    for cj, faces in enumerate(faces_of):
        out += [((cj, fi), set(verts)) for fi, (_, verts) in enumerate(faces) if fi != shown[cj]]
    region = dict(out)  # the same sets, by key
    for ci, parent in enumerate(parents):
        region[parent] |= faces_of[ci][shown[ci]][1]
    return out


def _build_certificate(g, s, comps, chosen, shown, parents, placement):
    """Assemble the (V, S) Embedding and per-edge hosting faces.

    ``chosen`` carries rotations in original dart ids; the certificate's
    embedding lives on the renumbered spanning subgraph, so darts are
    translated on the way.
    """
    kept = sorted(s)
    sub = g.spanning_subgraph(kept)
    new_id = {orig: i for i, orig in enumerate(kept)}

    def tr(d: int) -> int:
        return 2 * new_id[d >> 1] + (d & 1)

    rotation: list[tuple[int, ...]] = [() for _ in range(sub.n)]
    for ci, (succ, _) in enumerate(chosen):
        for v, cycle in rotation_from_succ(g, *comps[ci], succ).items():
            rotation[v] = tuple(tr(d) for d in cycle)

    # build_embedding's component slots, isolated vertices included
    slots = components_of(sub)
    comp_at = {vs[0]: ci for ci, (vs, _) in enumerate(comps)}
    slot_of = {comp_at[vs[0]]: i for i, (vs, es) in enumerate(slots) if es}
    outer_choice = []
    parent_list = []
    for vs, es in slots:
        if es:
            ci = comp_at[vs[0]]
            outer_choice.append(shown[ci])
            parent = parents[ci]
        else:
            outer_choice.append(0)
            parent = placement[vs[0]]
        parent_list.append(None if parent is None else (slot_of[parent[0]], parent[1]))
    emb = build_embedding(sub, tuple(rotation), tuple(outer_choice), tuple(parent_list))

    hosting = []
    for eid in sorted(set(range(g.m)) - s):
        u, v, _ = g.edges[eid]
        fid = next((f.id for f in emb.faces if u in f.vertices and v in f.vertices), None)
        if fid is None:
            raise AssertionError("certificate construction lost a hosted pair")
        hosting.append((eid, fid))
    return UncrossedSetCertificate(
        edge_subset=tuple(kept), embedding=emb, hosting=tuple(hosting)
    )


# ---------------------------------------------------------------------------
# exact cover engine


def dense_first_order(g: WeightedMultigraph) -> list[int]:
    """Edges among low vertices first, so constraints bite early in covers."""
    return sorted(range(g.m), key=lambda e: (max(g.endpoints(e)), min(g.endpoints(e))))


@dataclass(frozen=True)
class CoverResult:
    status: str  # "exact" | "unknown"
    value: int | None
    lower_bound: int
    upper_bound: int | None
    parts: tuple[frozenset[int], ...] | None


class CoverSearch:
    """Minimum number of feasible edge sets covering all of E(G).

    ``feasible(part)`` must be exact (True / False / None for unknown) and
    closed under subsets; it runs on every partial part, so a part no
    superset of which is feasible is abandoned at once.  A part it is
    asked about is one edge larger than a part it did not answer False, or
    a single edge, which :meth:`RealizabilityContext.feasible` uses to key
    it by a one-edge step.  Edges are placed in :func:`dense_first_order`.
    ``lower_bound`` is the least part count not yet ruled out by an
    exhausted level, also after the budget interrupts :meth:`minimum` or
    the DFS, one frame per placed edge, outgrows the recursion limit.

    With a ``keyer`` (such as :meth:`PairColours.partition_key`),
    :meth:`cover_with` skips every subtree whose partial partition an
    automorphism of G maps onto one it has exhausted.  Every node at one
    depth has placed the same edges, and ``feasible`` must be invariant
    under Aut(G), so such a subtree holds no cover either.  Only partitions
    of two or more parts are keyed: the placed edges have one partition
    into fewer, so no other node at that depth can match it.  A subtree is
    remembered only when it found nothing and :attr:`unknowns` did not
    grow inside it, so the first cover found is the one the full search
    finds; a skipped subtree counts as one node.  The uncrossed number
    passes no keyer yet: its benchmark prefix is pinned to the node count
    of the full search.
    """

    def __init__(
        self, g: WeightedMultigraph, feasible, budget: SearchBudget = NO_BUDGET, keyer=None
    ):
        self.g = g
        self.feasible = feasible
        self.keyer = keyer
        self.ticker = Ticker(budget)
        self.edge_order = dense_first_order(g)
        self.cache: dict[frozenset[int], bool | None] = {}
        self.unknowns = 0  # lookups answered unknown, repeats included
        self.lower_bound = 1

    @property
    def nodes(self) -> int:
        return self.ticker.nodes

    def feasible_cached(self, part: frozenset[int]):
        if part in self.cache:
            ans = self.cache[part]
        else:
            ans = self.feasible(part)
            self.cache[part] = ans
        if ans is None:
            self.unknowns += 1
        return ans

    def cover_with(self, c: int) -> tuple[frozenset[int], ...] | None:
        """First partition of E into at most c feasible parts, else None."""
        m = self.g.m
        order = self.edge_order
        tick = self.ticker.tick
        keyer = self.keyer
        parts: list[set[int]] = []
        exhausted: set = set()  # keys of subtrees that found no cover and saw no unknown

        def place(depth: int):
            tick()
            if depth == m:
                final = [frozenset(p) for p in parts]
                if all(self.feasible_cached(p) is True for p in final):
                    return tuple(final)
                return None
            key = None if keyer is None or len(parts) < 2 else keyer(parts)
            if key is not None and key in exhausted:
                return None
            unknowns = self.unknowns
            eid = order[depth]
            for i in range(min(len(parts) + 1, c)):
                opened = i == len(parts)
                if opened:
                    parts.append(set())
                parts[i].add(eid)
                if self.feasible_cached(frozenset(parts[i])) is not False:
                    got = place(depth + 1)
                    if got is not None:
                        return got
                parts[i].discard(eid)
                if opened:
                    parts.pop()
            if key is not None and self.unknowns == unknowns:
                exhausted.add(key)
            return None

        return place(0)

    def minimum(self) -> CoverResult:
        """Least part count, or "unknown" with the proven lower bound once
        the budget's node limit or wall clock or the recursion limit runs out."""
        try:
            for c in range(1, max(1, self.g.m) + 1):
                got = self.cover_with(c)
                if got is not None:
                    if self.lower_bound == c:
                        return CoverResult("exact", c, c, c, got)
                    return CoverResult("unknown", None, self.lower_bound, c, got)
                if not self.unknowns:
                    self.lower_bound = c + 1
        except (BudgetExhausted, RecursionError):
            pass
        return CoverResult("unknown", None, self.lower_bound, None, None)
