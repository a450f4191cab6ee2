import dataclasses
import itertools
import random
import sys
import time
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncrossed import covers
from uncrossed.bounds import outerthickness, thickness
from uncrossed.core import PreconditionError, WeightedMultigraph, graph_from_edges
from uncrossed.covers import (
    MAX_LABELLINGS,
    CoverSearch,
    PairColours,
    RealizabilityContext,
    certificate_is_valid,
    dense_first_order,
    realizable_uncrossed_set,
)
from uncrossed.instances import complete, complete_bipartite
from uncrossed.planarity import (
    component_faces,
    enumerate_embeddings,
    graph_planar,
    planar_rotations_of_component,
    skeleton_outerplanar,
)
from uncrossed.solver import SearchBudget, uncrossed_number

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


@pytest.mark.parametrize("ids", [[-1], [10], [0, 10]])
def test_out_of_range_edge_ids_are_rejected(k5, ids):
    with pytest.raises(PreconditionError):
        realizable_uncrossed_set(k5, ids)


def test_forged_certificates_are_rejected(k5):
    empty = realizable_uncrossed_set(k5, []).certificate
    # edge 9 is hosted, so an edge id that aliases it must not pass as kept
    assert not certificate_is_valid(k5, dataclasses.replace(empty, edge_subset=(-1,)))
    assert not certificate_is_valid(k5, dataclasses.replace(empty, edge_subset=(10,)))
    # the embedding must be of the kept edges
    assert not certificate_is_valid(k5, dataclasses.replace(empty, edge_subset=(9,)))
    one = realizable_uncrossed_set(k5, [0, 1]).certificate
    assert certificate_is_valid(k5, one)
    for forged in [(1, 0), (0, 0, 1), (0, 2)]:
        assert not certificate_is_valid(k5, dataclasses.replace(one, edge_subset=forged))


def test_certificates_with_bad_hosting_are_rejected(k5):
    ids = edge_id_map(k5)
    s = [e for e in range(10) if e not in (ids[(0, 1)], ids[(2, 3)])]
    cert = realizable_uncrossed_set(k5, s).certificate
    assert certificate_is_valid(k5, cert)
    # every edge outside S needs a hosting entry
    assert not certificate_is_valid(k5, dataclasses.replace(cert, hosting=cert.hosting[1:]))
    # and the hosting face must hold both of its endpoints
    eid, _ = cert.hosting[0]
    u, v, _ = k5.edges[eid]
    lacking = next(f.id for f in cert.embedding.faces if not {u, v} <= f.vertices)
    moved = ((eid, lacking), *cert.hosting[1:])
    assert not certificate_is_valid(k5, dataclasses.replace(cert, hosting=moved))


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


def test_lone_component_tries_one_shown_face(monkeypatch):
    # four paths 0-a-1 (K2,4) have three face families, each of four faces
    # {0, 1, a, b}; the isolated vertex 6 needs a face holding 2, 3, 4, 5
    s_pairs = [(e, a) for a in range(2, 6) for e in (0, 1)]
    hosted = [(a, 6) for a in range(2, 6)]
    g = WeightedMultigraph(7, tuple((u, v, 1) for u, v in s_pairs + hosted))
    ctx = RealizabilityContext(g)
    entries = []
    real_profiles, real_regions = ctx.profiles, covers._regions

    def profiles(*args):
        found = real_profiles(*args)
        entries.append([len(faces) for _, faces in found])
        return found

    calls = []

    def regions(*args):
        calls.append(args)
        return real_regions(*args)

    monkeypatch.setattr(ctx, "profiles", profiles)
    monkeypatch.setattr(covers, "_regions", regions)
    assert ctx.realizable(range(len(s_pairs))).status == "no"
    assert entries == [[4, 4, 4]]
    assert len(calls) == 3  # one per entry, not one per face of each entry


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


@settings(max_examples=300)
@given(st.data())
def test_agrees_with_embedding_enumeration_oracle_on_weighted_multigraphs(data):
    # parallel copies, weights and edge ids must not change realizability;
    # a vertex of degree above 6 is skipped, as the oracle's rotation
    # enumeration refuses it
    base = data.draw(st.sampled_from([complete(5), complete(6), complete_bipartite(3, 4), complete(7)]))
    pairs = [(u, v) for u, v, _ in base.edges]
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=2))
    pairs = data.draw(st.permutations(pairs))
    weights = data.draw(st.lists(st.integers(1, 3), min_size=len(pairs), max_size=len(pairs)))
    g = WeightedMultigraph(base.n, tuple((u, v, w) for (u, v), w in zip(pairs, weights)))
    s = frozenset(data.draw(st.sets(st.integers(0, g.m - 1), min_size=4, max_size=10)))
    degrees = Counter(v for e in s for v in g.endpoints(e))
    if max(degrees.values()) > 6:
        return
    want = hosting_oracle(g, s)
    res = realizable_uncrossed_set(g, s)
    assert res.status == ("yes" if want else "no"), (g.edges, sorted(s))
    assert realizable_uncrossed_set(g, s, want_certificate=False).status == res.status
    if want:
        assert certificate_is_valid(g, res.certificate)


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


@pytest.mark.parametrize("m, status, value", [(700, "exact", 1), (1200, "unknown", None)])
def test_cover_search_deeper_than_the_recursion_limit_is_unknown(m, status, value):
    # one frame per placed edge: 700 edges fit under the default limit of
    # 1,000, and 1,200 end unknown with the bound proven so far
    limit = sys.getrecursionlimit()
    path = WeightedMultigraph(m + 1, tuple((i, i + 1, 1) for i in range(m)))
    out = CoverSearch(path, lambda part: True).minimum()
    assert (out.status, out.value, out.lower_bound) == (status, value, 1)
    assert sys.getrecursionlimit() == limit


def _restricted_growth_strings(m: int, c: int, prefix=()):
    """Every partition of m ordered items into at most c blocks, as block
    indices in lexicographic order; a block opens only after the ones
    before it."""
    if len(prefix) == m:
        yield prefix
        return
    for i in range(min(max(prefix, default=-1) + 2, c)):
        yield from _restricted_growth_strings(m, c, prefix + (i,))


def _nx_part_ok(g, part, outer: bool) -> bool:
    """networkx planarity of the part, or of the part plus an apex joined to
    every vertex (outerplanarity)."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n + 1))
    h.add_edges_from(g.endpoints(e) for e in part)
    if outer:
        h.add_edges_from((v, g.n) for v in range(g.n))
    return nx.check_planarity(h)[0]


def _first_cover(g, outer: bool):
    """Least c and the lexicographically first partition of
    :func:`dense_first_order` into at most c parts that all pass."""
    order = dense_first_order(g)
    verdicts: dict = {}
    for c in itertools.count(1):
        for rgs in _restricted_growth_strings(g.m, c):
            parts = tuple(
                frozenset(e for e, b in zip(order, rgs) if b == i) for i in range(len(set(rgs)))
            )
            for p in parts:
                if p not in verdicts:
                    verdicts[p] = _nx_part_ok(g, p, outer)
            if all(verdicts[p] for p in parts):
                return c, parts


@st.composite
def small_multigraphs(draw):
    """Weighted multigraphs of at most 8 edges: distinct vertex pairs first,
    then parallel copies of some of them."""
    n = draw(st.integers(3, 5))
    all_pairs = list(itertools.combinations(range(n), 2))
    k = draw(st.integers(0, min(8, len(all_pairs))))
    pairs = draw(st.lists(st.sampled_from(all_pairs), min_size=k, max_size=k, unique=True))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=8 - k))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(pairs), max_size=len(pairs)))
    return WeightedMultigraph(n, tuple((u, v, w) for (u, v), w in zip(pairs, weights)))


@settings(max_examples=300)
@given(small_multigraphs())
def test_cover_parts_match_first_restricted_growth_string(g):
    for solve, outer in ((thickness, False), (outerthickness, True)):
        r = solve(g)
        assert (r.status, r.value, r.parts) == ("exact", *_first_cover(g, outer))


def test_high_degree_component_is_unknown_before_enumerating():
    # one vertex of degree 12 has 11! rotation cycles, which the enumerator
    # may walk between two rotations without reading the clock, so the
    # component is unknown before any is tried; the child's address space
    # is capped so a regression fails instead of swapping
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


def _pair_colours(g, labels) -> dict:
    """Sorted (weight, label) list per vertex pair, computed from scratch;
    edges missing from ``labels`` have label 0."""
    colours: dict = {}
    for e, (u, v, w) in enumerate(g.edges):
        colours.setdefault((min(u, v), max(u, v)), []).append((w, labels.get(e, 0)))
    return {pair: tuple(sorted(c)) for pair, c in colours.items()}


def _automorphisms(g) -> list:
    """Vertex permutations keeping every pair colour of G, by brute force
    over all n!.  Only these can map one labelled colouring of G onto
    another, since a pair's labelled colour holds its unlabelled one."""
    colours = _pair_colours(g, {})
    return [
        p
        for p in itertools.permutations(range(g.n))
        if all(colours.get((min(p[u], p[v]), max(p[u], p[v]))) == c for (u, v), c in colours.items())
    ]


def _brute_form(g, labels, automorphisms) -> tuple:
    """Least relabelled pair colouring over ``automorphisms`` of G."""
    colours = _pair_colours(g, labels).items()
    return min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v]), c) for (u, v), c in colours))
        for p in automorphisms
    )


def _brute_partition_form(g, parts, automorphisms) -> tuple:
    """Least :func:`_brute_form` over every numbering of the parts."""
    return min(
        _brute_form(g, {e: label for label, part in zip(order, parts) for e in part}, automorphisms)
        for order in itertools.permutations(range(1, len(parts) + 1))
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
    # maps one part onto the other, found among all n! permutations
    rng = random.Random(3)
    for name, g in _SYMMETRIC.items():
        if g.m <= 9:
            parts = [frozenset(s) for r in range(g.m + 1) for s in itertools.combinations(range(g.m), r)]
        else:
            parts = [frozenset(rng.sample(range(g.m), rng.randint(0, g.m))) for _ in range(150)]
        colours, automorphisms = PairColours(g), _automorphisms(g)
        found = [colours.form(dict.fromkeys(p, 1)) for p in parts]
        assert None not in found, name  # no part hit the labelling bound
        keys = [key for key, _ in found]
        forms = [_brute_form(g, dict.fromkeys(p, 1), automorphisms) for p in parts]
        assert len(set(keys)) == len(set(forms)) == len(set(zip(keys, forms))), name


def test_partition_key_is_exact_on_small_graphs():
    # partial partitions of random edge sets into 2-3 parts, plus their
    # images under random vertex permutations with the parts reordered:
    # equal keys exactly when some automorphism maps parts onto parts
    rng = random.Random(5)
    for name, g in _SYMMETRIC.items():
        partitions = []
        while len(partitions) < 40:
            placed = rng.sample(range(g.m), rng.randint(2, g.m))
            k = rng.randint(2, 3)
            blocks = [rng.randrange(k) for _ in placed]
            parts = [{e for e, b in zip(placed, blocks) if b == i} for i in range(k)]
            parts = [p for p in parts if p]
            if len(parts) < 2:
                continue
            partitions.append(parts)
            perm = rng.sample(range(g.n), g.n)
            images = [_image(g, p, perm) for p in parts]
            if None not in images:
                partitions.append(rng.sample(images, len(images)))
        colours, automorphisms = PairColours(g), _automorphisms(g)
        keys = [colours.partition_key(p) for p in partitions]
        forms = [_brute_partition_form(g, p, automorphisms) for p in partitions]
        assert None not in keys, name
        assert len(set(keys)) == len(set(forms)) == len(set(zip(keys, forms))), name
        assert len(set(keys)) < len(keys), name  # some images were found


def test_partition_key_skips_what_cannot_recur():
    asymmetric = WeightedMultigraph(3, ((0, 1, 1), (1, 2, 2), (0, 2, 3)))
    assert PairColours(asymmetric).partition_key([{0}, {1}]) is None
    # edges 0 and 1 share vertex 0, leaving a cell of 9 vertices: 9! labellings
    assert PairColours(complete(12)).partition_key([{0}, {1}]) is None


@pytest.mark.parametrize("name", sorted(_SYMMETRIC))
def test_cover_search_keys_only_two_or_more_parts(name):
    # fewer parts have one partition of the placed edges, so no other node
    # at the same depth can share their key
    g = _SYMMETRIC[name]
    colours = PairColours(g)
    sizes = []

    def spy(parts):
        sizes.append(len(parts))
        return colours.partition_key(parts)

    keyed = CoverSearch(g, _outerplanar(g), keyer=spy).minimum()
    assert keyed == CoverSearch(g, _outerplanar(g)).minimum()
    assert sizes and min(sizes) == 2


def _outerplanar(g):
    return lambda part: skeleton_outerplanar(g.skeleton(part))


def test_keyed_cover_search_of_k7_visits_few_nodes(k7):
    # the failing level 2 alone visits 59,640 nodes without the keyer
    search = CoverSearch(k7, _outerplanar(k7), keyer=PairColours(k7).partition_key)
    out = search.minimum()
    assert (out.status, out.value) == ("exact", 3)
    assert search.nodes <= 1000


@pytest.mark.parametrize("name", sorted(_SYMMETRIC))
@pytest.mark.parametrize("unknowns", [1, 4, 16, 64])
def test_keyed_cover_search_forgets_subtrees_that_saw_unknown(name, unknowns):
    # the first distinct parts asked are unknown and later ones are not, so
    # an image of a subtree that saw an unknown may still hold a cover
    g = _SYMMETRIC[name]
    outerplanar = _outerplanar(g)

    def search(keyer):
        asked = set()

        def feasible(part):
            if len(asked) < unknowns:
                asked.add(part)
                return None
            return outerplanar(part)

        return CoverSearch(g, feasible, keyer=keyer).minimum()

    keyed = search(PairColours(g).partition_key)
    assert keyed == search(None)
    # the first part asked is unknown, so level 1 is not ruled out
    assert (keyed.status, keyed.lower_bound, keyed.upper_bound) == ("unknown", 1, 2)


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


def _spy(obj, name: str, seen: list):
    """Wrap ``obj.name`` on the instance so each result lands in ``seen``."""
    inner = getattr(obj, name)

    def spy(*args):
        seen.append(inner(*args))
        return seen[-1]

    setattr(obj, name, spy)


def test_feasible_keys_each_one_edge_step_by_its_form():
    # parts grown one edge at a time: the key feasible uses, read from the
    # step table where the smaller part was answered, is the part's form
    rng = random.Random(11)
    for name, g in _SYMMETRIC.items():
        ctx = RealizabilityContext(g)
        form = ctx.colours.form  # unwrapped: the check below counts no form
        keys, computed = [], []
        _spy(ctx, "_form", keys)
        _spy(ctx.colours, "form", computed)
        growths = [rng.sample(range(g.m), g.m) for _ in range(30)]
        if name == "K4 doubled":
            # one parent, then the weight-1 and the weight-2 edge of pair
            # 01: equal positions in the parent's order, unequal forms
            light, heavy = (
                next(e for e, (u, v, w) in enumerate(g.edges) if {u, v} == {0, 1} and w == weight)
                for weight in (1, 2)
            )
            rim = next(e for e, (u, v, w) in enumerate(g.edges) if {u, v} == {2, 3} and w == 1)
            growths[:0] = [[rim, light], [rim, heavy]]
        for growth in growths:
            for size in range(1, len(growth) + 1):
                part = frozenset(growth[:size])
                fresh = _STATUS[RealizabilityContext(g).realizable(part).status]
                assert ctx.feasible(part) == fresh, (name, sorted(part))
                assert keys[-1][0] == form(dict.fromkeys(part, 1))[0], (name, growth, size)
                if fresh is False:
                    break  # as in the cover search, which extends no such part
        assert len(computed) < len(keys), name  # some keys came from steps


def test_unc_prefix_computes_few_forms(k7, monkeypatch):
    # the 2,000-node unc(K7) prefix asks feasible 3,979 times; one-edge
    # steps leave few full forms and keep every orbit-memo key and answer
    contexts, asked, computed = [], [], []
    feasible = RealizabilityContext.feasible
    form = PairColours.form

    def count_feasible(self, part):
        contexts.append(self)
        asked.append(part)
        return feasible(self, part)

    def count_forms(self, labels):
        computed.append(labels)
        return form(self, labels)

    monkeypatch.setattr(RealizabilityContext, "feasible", count_feasible)
    monkeypatch.setattr(PairColours, "form", count_forms)
    out = uncrossed_number(k7, SearchBudget(max_nodes=2000))
    assert (out.status, out.nodes, out.sets_tested) == ("unknown", 2001, 3979)
    assert len(asked) == 3979 and len(computed) < len(asked) / 4
    ctx = contexts[0]
    assert len(ctx.orbit_memo) == 257
    forms = {form(ctx.colours, dict.fromkeys(part, 1))[0] for part in asked}
    assert set(ctx.orbit_memo) <= forms


def test_trivial_automorphism_group_builds_no_key():
    g = WeightedMultigraph(3, ((0, 1, 1), (1, 2, 2), (0, 2, 3)))
    ctx = RealizabilityContext(g)
    assert ctx.colours.form({0: 1}) is None
    assert ctx.feasible(frozenset({0, 1})) is True
    assert ctx.orbit_memo == {}


def test_labelling_bound_keys_by_the_part():
    g = complete(12)
    ctx = RealizabilityContext(g)
    part = frozenset({0})
    start = time.perf_counter()
    key = ctx.colours.form(dict.fromkeys(part, 1))
    assert time.perf_counter() - start < 0.05
    assert 2 * 3628800 > MAX_LABELLINGS  # cells of 2 and 10 vertices
    assert key is None
    assert ctx.feasible(part) is True
    assert ctx.orbit_memo == {}  # CoverSearch.cache holds parts without a form


# -- the hosting walk of profiles -----------------------------------------------


def _first_hosting_systems(g, vertices, edges, within) -> list:
    """What ``profiles`` must return, from the rotation product: the first
    system of each face vertex-set family among those hosting every pair."""
    out, families = [], set()
    for succ in planar_rotations_of_component(g, vertices, edges, half=True):
        faces = component_faces(g, vertices, edges, succ)
        if not all(any({u, v} <= verts for _, verts in faces) for u, v in within):
            continue
        family = tuple(sorted(tuple(sorted(verts)) for _, verts in faces))
        if family not in families:
            families.add(family)
            out.append((list(succ), faces))
    return out


@st.composite
def walk_components(draw):
    """(g, vertices, edges, within): one connected planar component of g on
    4-7 vertices, a random tree (pendant paths, cut vertices) plus chords
    and parallel copies, after an edge of another component so its darts do
    not start at 0; vertices in a random order and random required pairs."""
    n = draw(st.integers(4, 7))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    all_pairs = list(itertools.combinations(range(n), 2))
    pairs += draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=4, unique=True))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=2))
    pairs = draw(st.permutations(pairs))
    g = WeightedMultigraph(n + 2, ((n, n + 1, 1), *((u, v, 1) for u, v in pairs)))
    edges = tuple(range(1, g.m))
    vertices = tuple(draw(st.permutations(range(n))))
    within = draw(st.lists(st.sampled_from(all_pairs), max_size=5, unique=True))
    return g, vertices, edges, within


def _walk_cases(g, s) -> list:
    """(vertices, edges, required pairs) of each component of s with edges."""
    pairs = sorted(g.skeleton() - g.skeleton(s))
    return [
        (vs, es, [(u, v) for u, v in pairs if u in vs and v in vs])
        for vs, es in g.components(s)[0]
    ]


@settings(max_examples=80)
@given(walk_components(), st.sampled_from(sorted(_SYMMETRIC)), st.data())
def test_profiles_walk_matches_first_systems_of_the_rotation_product(comp, name, data):
    # entries of components with a cycle come from the walk, and must be the
    # product's first hosting system of each family, succ lists and faces
    # alike; a tree's one entry is the product's first system too
    cases = []
    g, vertices, edges, within = comp
    if graph_planar(g):
        cases.append((g, vertices, edges, within))
    sym = _SYMMETRIC[name]
    s = data.draw(st.frozensets(st.integers(0, sym.m - 1), min_size=4, max_size=8))
    if graph_planar(sym.spanning_subgraph(s)):
        cases += [(sym, *case) for case in _walk_cases(sym, s)]
    for g, vertices, edges, within in cases:
        if len(edges) == len(g.skeleton(edges)) and covers._three_connected(g, vertices, edges):
            continue  # the one entry is the LR rotation
        want = _first_hosting_systems(g, vertices, edges, within)
        assert RealizabilityContext(g).profiles(vertices, edges, within) == want


def test_walk_past_the_rotation_budget_is_unknown(monkeypatch):
    # the walk decides this "no" of K7 in 44 nodes; under a budget of 30
    # (the degree rule allows 4 * 3! = 24) it runs out and must answer
    # unknown, and a cover search whose answers run out keeps unc(K6) = 2
    k7 = complete(7)
    s = [0, 8, 9, 10, 12, 15, 16, 17, 18]
    ctx = RealizabilityContext(k7)
    assert ctx.realizable(s).status == "no"
    assert ctx.nodes_spent == 44
    monkeypatch.setattr(covers, "ROTATION_BUDGET", 30)
    assert RealizabilityContext(k7).realizable(s).status == "unknown"
    k6 = complete(6)
    for budget in (1, 10, 30):
        monkeypatch.setattr(covers, "ROTATION_BUDGET", budget)
        search = CoverSearch(k6, RealizabilityContext(k6).feasible)
        res = search.minimum()
        assert search.unknowns > 0
        assert (res.status, res.value, res.lower_bound) == ("exact", 2, 2)
