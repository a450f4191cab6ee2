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
the exhaustive covering searches affordable.  Its :meth:`~RealizabilityContext.feasible`
answers each orbit of a part under Aut(G) once, keyed by a canonical
labelling of G with the part's edges coloured (the colour refinement and
cell-wise labelling search of McKay & Piperno, "Practical graph isomorphism
II", J. Symb. Comput. 60, 2014, without search-tree pruning).  The same
labelling, applied to partial partitions (:class:`PairColours`), lets
:class:`CoverSearch` skip subtrees equivalent under Aut(G) to an exhausted
one (isomorph rejection as in McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

import networkx as nx

from .core import (
    NO_BUDGET,
    BudgetExhausted,
    PreconditionError,
    SearchBudget,
    Ticker,
    WeightedMultigraph,
)
from .planarity import (
    Embedding,
    _darts_at,
    build_embedding,
    component_faces,
    components_of,
    planar_rotations_of_component,
    rotation_from_succ,
    skeleton_outerplanar,
    skeleton_planar,
)

#: Genus-zero rotation systems one context may take from the enumerator (pruned
#: subtrees do not count) before its answers turn "unknown".
ROTATION_BUDGET = 5_000_000

#: Vertex labellings one canonical form may try; 7! covers every part of K7.
#: A labelled G whose refined cells allow more gets no form.
MAX_LABELLINGS = 5040

_ANSWER = {"yes": True, "no": False, "unknown": None}


def _three_connected(g: WeightedMultigraph, vertices, edges) -> bool:
    """No separator of size <= 2; brute force over vertex pairs."""
    if len(vertices) < 4:
        return False
    adj = {v: [] for v in vertices}
    for e in edges:
        u, v, _ = g.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    vs = list(vertices)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            a, b = vs[i], vs[j]
            start = next(v for v in vs if v != a and v != b)
            seen = {a, b, start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) != len(vs):
                return False
    return True


def _single_lr_rotation(g: WeightedMultigraph, vertices, edges) -> list[int]:
    """The unique (up to reflection) embedding of a 3-connected component."""
    eid_of = {}
    h = nx.Graph()
    h.add_nodes_from(vertices)
    for e in edges:
        u, v, _ = g.edges[e]
        h.add_edge(u, v)
        eid_of[(u, v)] = e
        eid_of[(v, u)] = e
    ok, cert = nx.check_planarity(h, counterexample=False)
    if not ok:
        raise AssertionError("profiles() called on a nonplanar component")
    order = cert.get_data()
    succ = [0] * (2 * g.m)
    for v in vertices:
        darts = []
        for w in order.get(v, []):
            e = eid_of[(v, w)]
            darts.append(2 * e + (0 if g.edges[e][0] == v else 1))
        for i, d in enumerate(darts):
            succ[d] = darts[(i + 1) % len(darts)]
    return succ


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

    ``edge_subset`` must be sorted, distinct edge ids of g, and the
    embedding must be of the spanning subgraph they keep.
    """
    s = set(cert.edge_subset)
    kept = list(cert.edge_subset)
    if kept != sorted(s & set(range(g.m))) or cert.embedding.graph != g.spanning_subgraph(kept):
        return False
    hosted = dict(cert.hosting)
    face_verts = {f.id: f.vertices for f in cert.embedding.faces}
    for eid in range(g.m):
        if eid in s:
            continue
        u, v, _ = g.edges[eid]
        if eid not in hosted or not {u, v} <= face_verts.get(hosted[eid], frozenset()):
            return False
    return True


def _refine(mat: list[list[int]], colour: list[int]) -> list[int]:
    """Split vertex colours by their multiset of (pair colour, colour of the
    other vertex) until the number of colours stops growing or every
    vertex has its own.

    Pair colours are multiples of n and vertex colours are below n, so each
    sum names one such combination.  New colours are ranks of sorted
    signatures, so an isomorphism of the pair matrices keeps colours.
    """
    count = len(set(colour))
    while count < len(colour):
        sigs = [(c, *sorted(map(operator.add, row, colour))) for c, row in zip(colour, mat)]
        distinct = sorted(set(sigs))
        if len(distinct) == count:
            break
        rank = {sig: i for i, sig in enumerate(distinct)}
        colour = [rank[sig] for sig in sigs]
        count = len(distinct)
    return colour


class PairColours:
    """Canonical forms of G with its edges labelled, under Aut(G).

    A labelling maps edge ids to positive labels; every other edge has
    label 0.  A vertex pair is coloured by the sorted (weight, label) tuple
    over its parallel edges, stored as n times an id fixed for this object
    (no edge is id 0), so two labellings get equal :meth:`form` exactly when
    some vertex permutation keeping every pair colour of G maps one onto
    the other.  :meth:`form` alone decides when there is no key.
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
        self.matrix = [[0] * g.n for _ in range(g.n)]  # 0: no edge joins the pair
        self.matrix = self._recoloured(dict.fromkeys(self._pair_edges, 0))
        self.colour = _refine(self.matrix, [0] * g.n)
        # refinement separating every vertex means Aut(G) is trivial
        self._symmetric = len(set(self.colour)) < g.n

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

    def form(self, labels: dict[int, int]) -> tuple | None:
        """Least pair-colour matrix of the labelled G, or None when Aut(G)
        is trivial (no other labelling can be equivalent) or the refined
        cells allow more than :data:`MAX_LABELLINGS` labellings.

        Vertex colours are refined from G's until they stop splitting; the
        minimum runs over every labelling that keeps the cells in order.
        """
        if not self._symmetric:
            return None
        marks: dict[tuple[int, int], int] = {}
        for e, label in labels.items():
            pair = self._pair_of[e]
            marks[pair] = marks.get(pair, 0) + label * self._place[e]
        mat = self._recoloured(marks)
        colour = _refine(mat, self.colour)
        cells: list[list[int]] = [[] for _ in range(max(colour) + 1)]
        for v, c in enumerate(colour):
            cells[c].append(v)
        if math.prod(math.factorial(len(cell)) for cell in cells) > MAX_LABELLINGS:
            return None

        def code(labelling) -> tuple:
            pick = operator.itemgetter(*itertools.chain.from_iterable(labelling))
            return tuple(map(pick, pick(mat)))

        return min(map(code, itertools.product(*map(itertools.permutations, cells))))

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
            form = self.form({e: label for label, part in numbered for e in part})
            if form is None:
                return None
            forms.append(form)
        return min(forms)


class RealizabilityContext:
    """Per-graph state for realizability queries.

    Face profiles (the surviving rotation systems of one component and
    their face vertex sets) are cached by the component's edge set, so
    covering searches that revisit the same component pay for its rotation
    enumeration once.  Yes/no answers of :meth:`feasible` are memoized by
    the part's :meth:`PairColours.form`, so parts that an automorphism of G
    maps onto each other share one query.
    """

    def __init__(self, g: WeightedMultigraph):
        self.g = g
        self.rotations_spent = 0
        self.profile_cache: dict[frozenset[int], list | None] = {}
        self.g_pairs = g.skeleton()
        self.orbit_memo: dict[tuple, bool] = {}
        self.colours = PairColours(g)

    def feasible(self, part: frozenset[int]) -> bool | None:
        """Realizability of ``part`` as True, False or None (unknown).

        One :meth:`realizable` query answers a whole Aut(G) orbit, keyed by
        the form of G with the part's edges labelled 1.  A part without a
        form is not memoized here (:attr:`CoverSearch.cache` holds it), and
        an unknown never is, so a later member of its orbit asks again.
        """
        key = self.colours.form(dict.fromkeys(part, 1))
        ans = self.orbit_memo.get(key)
        if ans is None:
            ans = _ANSWER[self.realizable(part).status]
            if key is not None and ans is not None:
                self.orbit_memo[key] = ans
        return ans

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
        if len(skel) + 1 <= 8:
            return True  # any single addition stays too small to matter
        for u, v in pairs:
            cu = comp_of.get(u)
            if cu is not None and cu == comp_of.get(v) and not skeleton_planar(skel | {(u, v)}):
                return False
        return True

    # -- face profiles -------------------------------------------------

    def profiles(self, vertices, edges, within):
        """Rotations of one component hosting all its required pairs.

        Entries are (succ copy, faces); rotations repeating an earlier face
        vertex-set family are dropped.  Returns None when the rotation cap
        is exhausted, or at once when one vertex's cycle list alone would
        exceed it.  ``within`` must equal the required pairs inside this
        component, which only depend on the edge set, so results are cached
        by the edge set.  Trees and simple 3-connected components have one
        face vertex-set family and skip the enumeration: a tree takes the
        enumerator's first rotation (every vertex's darts in sorted order).
        """
        key = frozenset(edges)
        if key in self.profile_cache:
            return self.profile_cache[key]
        g = self.g
        candidates = None
        if len(edges) == len(vertices) - 1:
            succ = [0] * (2 * g.m)
            for darts in _darts_at(g, vertices, edges).values():
                darts.sort()
                for d, nxt in zip(darts, darts[1:] + darts[:1]):
                    succ[d] = nxt
            candidates = [succ]
        elif len(edges) == len(g.skeleton(edges)):
            if _three_connected(g, vertices, edges):
                succ = _single_lr_rotation(g, vertices, edges)
                candidates = [succ]
        out = []
        seen_families = set()
        count = 0
        exceeded = False
        budget = None
        if candidates is None:
            # a degree-d vertex alone lists d * (d-1)! darts of cycles
            degree = Counter(v for e in edges for v in g.edges[e][:2])
            if max(d * math.factorial(d - 1) for d in degree.values()) > ROTATION_BUDGET:
                candidates, exceeded = (), True
            else:
                budget = ROTATION_BUDGET - self.rotations_spent
                candidates = planar_rotations_of_component(g, vertices, edges, half=True)
        for succ in candidates:
            count += 1
            if budget is not None and count > budget:
                exceeded = True
                break
            faces = component_faces(g, vertices, edges, succ)
            ok = True
            for u, v in within:
                if not any(u in verts and v in verts for _, verts in faces):
                    ok = False
                    break
            if not ok:
                continue
            family = tuple(sorted(tuple(sorted(verts)) for _, verts in faces))
            if family in seen_families:
                continue
            seen_families.add(family)
            out.append((list(succ), faces))
        self.rotations_spent += count
        result = None if exceeded else out
        self.profile_cache[key] = result
        return result

    # -- the decision ----------------------------------------------------

    def realizable(self, edge_ids, want_certificate: bool = False) -> RealizabilityResult:
        g = self.g
        s = frozenset(edge_ids)
        skel = g.skeleton(s)
        if not skeleton_planar(skel):
            return RealizabilityResult("no")
        if not want_certificate and skeleton_outerplanar(skel, g.n):
            return RealizabilityResult("yes")
        pairs = sorted(self.g_pairs - skel)
        comps, isolated = g.components(s)
        comp_of = {}
        for ci, (vs, _) in enumerate(comps):
            for v in vs:
                comp_of[v] = ci
        if not self.pairs_insertable(skel, pairs, comp_of):
            return RealizabilityResult("no")

        within: dict[int, list[tuple[int, int]]] = {ci: [] for ci in range(len(comps))}
        cross: list[tuple[int, int]] = []
        for u, v in pairs:
            cu, cv = comp_of.get(u), comp_of.get(v)
            if cu is not None and cu == cv:
                within[cu].append((u, v))
            else:
                cross.append((u, v))
        groups, group_req, hard_cross = _iso_groups(g.n, cross, isolated)

        profiles: dict[int, list] = {}
        for ci, (vs, es) in enumerate(comps):
            found = self.profiles(vs, es, within[ci])
            if found is None:
                return RealizabilityResult("unknown")
            if not found:
                return RealizabilityResult("no")
            profiles[ci] = found

        solution = _arrange_components(
            list(range(len(comps))), profiles, hard_cross, groups, group_req
        )
        if solution is None:
            return RealizabilityResult("no")
        if not want_certificate:
            return RealizabilityResult("yes")
        chosen, shown, parents, iso_placement = solution
        cert = _build_certificate(self, s, comps, chosen, shown, parents, iso_placement)
        return RealizabilityResult("yes", cert)


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


def _iso_groups(n, cross, isolated):
    """Group isolated vertices forced into one region, with their needs.

    Returns (groups: root vertex -> member vertices, group_req: root -> set
    of component vertices one region boundary must contain, remaining cross
    pairs between nontrivial components).
    """
    iso_set = set(isolated)
    iso_partner: dict[int, set[int]] = {v: set() for v in isolated}
    same_region: list[tuple[int, int]] = []
    hard_cross: list[tuple[int, int]] = []
    for u, v in cross:
        u_iso, v_iso = u in iso_set, v in iso_set
        if u_iso and v_iso:
            same_region.append((u, v))
        elif u_iso:
            iso_partner[u].add(v)
        elif v_iso:
            iso_partner[v].add(u)
        else:
            hard_cross.append((u, v))

    joined, alone = WeightedMultigraph(n, tuple((a, b, 1) for a, b in same_region)).components()
    groups = {vs[0]: list(vs) for vs, _ in joined}
    groups.update((v, [v]) for v in alone if v in iso_set)
    group_req = {
        root: set().union(*(iso_partner[v] for v in members))
        for root, members in groups.items()
    }
    return groups, group_req, hard_cross


def _arrange_components(nontrivial, profiles, hard_cross, groups, group_req):
    """Search shown faces and nestings hosting every cross-component pair.

    Returns (profile per comp, shown face index per comp, parent per comp,
    isolated-vertex placements) or None.  A parent of None is the unbounded
    region; ``(comp, face)`` is an inner face of that component.  Any
    number of components works, zero and one included.
    """
    for combo in itertools.product(*(range(len(profiles[ci])) for ci in nontrivial)):
        chosen = {ci: profiles[ci][idx] for ci, idx in zip(nontrivial, combo)}
        faces_of = {ci: chosen[ci][1] for ci in nontrivial}
        for shown_combo in itertools.product(
            *(range(len(faces_of[ci])) for ci in nontrivial)
        ):
            shown = dict(zip(nontrivial, shown_combo))
            slot_lists = []
            for ci in nontrivial:
                slots: list = [None]
                for cj in nontrivial:
                    if cj == ci:
                        continue
                    slots.extend(
                        (cj, fi)
                        for fi in range(len(faces_of[cj]))
                        if fi != shown[cj]
                    )
                slot_lists.append(slots)
            for parent_combo in itertools.product(*slot_lists):
                parents = dict(zip(nontrivial, parent_combo))
                if not _parents_acyclic(parents):
                    continue
                regions = _regions(nontrivial, faces_of, shown, parents)
                if not all(
                    any(u in verts and v in verts for _, verts in regions)
                    for u, v in hard_cross
                ):
                    continue
                iso_placement = {}
                ok = True
                for root, members in groups.items():
                    home = next(
                        (key for key, verts in regions if group_req[root] <= verts),
                        "none",
                    )
                    if home == "none":
                        ok = False
                        break
                    for w in members:
                        iso_placement[w] = home
                if ok:
                    return chosen, shown, parents, iso_placement
    return None


def _parents_acyclic(parents: dict) -> bool:
    for start in parents:
        cur = parents[start]
        steps = 0
        while cur is not None:
            steps += 1
            if steps > len(parents):
                return False
            cur = parents[cur[0]]
    return True


def _regions(nontrivial, faces_of, shown, parents):
    """(key, vertexset) per region; key None is the unbounded region."""
    out = []
    root_verts = set()
    for ci in nontrivial:
        if parents[ci] is None:
            root_verts |= faces_of[ci][shown[ci]][1]
    out.append((None, root_verts))
    for cj in nontrivial:
        for fi in range(len(faces_of[cj])):
            if fi == shown[cj]:
                continue
            verts = set(faces_of[cj][fi][1])
            for ci in nontrivial:
                if parents[ci] == (cj, fi):
                    verts |= faces_of[ci][shown[ci]][1]
            out.append(((cj, fi), verts))
    return out


def _build_certificate(ctx, s, comps, chosen, shown, parents, iso_placement):
    """Assemble the (V, S) Embedding and per-edge hosting faces.

    ``chosen`` carries rotations in original dart ids; the certificate's
    embedding lives on the renumbered spanning subgraph, so darts are
    translated on the way.
    """
    g = ctx.g
    kept = sorted(s)
    sub = g.spanning_subgraph(kept)
    new_id = {orig: i for i, orig in enumerate(kept)}

    def tr(d: int) -> int:
        return 2 * new_id[d >> 1] + (d & 1)

    rotation: list[tuple[int, ...]] = [() for _ in range(sub.n)]
    for ci, (succ, _) in chosen.items():
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
            parent = iso_placement[vs[0]]
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
    superset of which is feasible is abandoned at once.  Edges are placed
    in :func:`dense_first_order`.  ``lower_bound`` is the least part count
    not yet ruled out by an exhausted level, also after the budget
    interrupts :meth:`minimum`.

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
        self.max_parts = budget.max_drawings
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
            got = branch(depth)
            if got is None and key is not None and self.unknowns == unknowns:
                exhausted.add(key)
            return got

        def branch(depth: int):
            eid = order[depth]
            limit = min(len(parts) + 1, c)
            for i in range(limit):
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
            return None

        return place(0)

    def minimum(self) -> CoverResult:
        """Least part count, or "unknown" with the proven lower bound once
        the budget's drawing cap, node limit or wall clock runs out."""
        top = max(1, self.g.m)
        if self.max_parts is not None:
            top = min(top, self.max_parts)
        try:
            for c in range(1, top + 1):
                got = self.cover_with(c)
                if got is not None:
                    if self.lower_bound == c:
                        return CoverResult("exact", c, c, c, got)
                    return CoverResult("unknown", None, self.lower_bound, c, got)
                if not self.unknowns:
                    self.lower_bound = c + 1
        except BudgetExhausted:
            pass
        return CoverResult("unknown", None, self.lower_bound, None, None)
