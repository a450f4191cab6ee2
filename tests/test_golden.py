"""Byte-level golden set: witnesses, SVG renders, certificates, embeddings.

Small documents are kept whole in ``tests/golden/``; bulk outputs are kept
as SHA-256 digests in ``tests/golden/MANIFEST.sha256``.  Every comparison
is on exact bytes, so any change to a verdict, value, witness, certificate,
embedding or SVG shows up here.  Rewrite the set with::

    PYTHONPATH=src python tests/test_golden.py

and only when a change is meant to alter output; name the entries that
changed.  SVG bytes depend on networkx's planar layout (written with
networkx 3.6.1).
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from uncrossed.bounds import outerthickness, thickness
from uncrossed.core import WeightedMultigraph, graph_from_edges
from uncrossed.covers import RealizabilityContext
from uncrossed.files import serialize_witness, witness_to_document
from uncrossed.instances import (
    complete,
    complete_bipartite,
    heavy_cycle_with_diameters,
    k5_with_two_light_edges,
    rotating_path_collection,
)
from uncrossed.planarity import enumerate_embeddings
from uncrossed.render import render_drawing_svg
from uncrossed.solver import (
    collection_from_certificates,
    decide_uncrossed_cost,
    uncrossed_crossing_number,
    uncrossed_number,
)

from conftest import atlas_graphs

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "MANIFEST.sha256"


def _k6_cover_collection():
    g = complete(6)
    return g, collection_from_certificates(g, uncrossed_number(g).certificates)


def _ucr(g):
    return g, uncrossed_crossing_number(g).witness


#: collections kept as full witness JSON plus one SVG per drawing
COLLECTIONS = {
    "ucrk_k5_c2_k2": lambda: (complete(5), decide_uncrossed_cost(complete(5), 2, 2).witness),
    "ucr_two_light_3": lambda: _ucr(k5_with_two_light_edges(3)),
    "ucr_heavy_cycle_3": lambda: _ucr(heavy_cycle_with_diameters(3)),
    "unc_k6_collection": _k6_cover_collection,
}


def collection_files(case: str) -> dict[str, str]:
    g, w = COLLECTIONS[case]()
    files = {f"{case}.json": serialize_witness(witness_to_document(w, graph=g))}
    for i, d in enumerate(w.drawings):
        files[f"{case}_drawing_{i:03d}.svg"] = render_drawing_svg(g, d)
    return files


# -- canonical text of certificates and embeddings -----------------------------


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def embedding_json(emb) -> dict:
    return {
        "graph": [emb.graph.n, [list(e) for e in emb.graph.edges]],
        "rotation": [list(c) for c in emb.rotation],
        "faces": [[f.id, [list(w) for w in f.walks], sorted(f.vertices)] for f in emb.faces],
        "outer_face": emb.outer_face,
        "components": [list(c) for c in emb.components],
        "nesting": list(emb.nesting),
    }


def certificate_json(cert) -> dict:
    return {
        "edge_subset": list(cert.edge_subset),
        "embedding": embedding_json(cert.embedding),
        "hosting": [list(h) for h in cert.hosting],
    }


def triangular_prism():
    return graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def realizable_text(g) -> str:
    """One line per edge subset (bit e of the mask selects edge e): its
    status and, for yes, its certificate."""
    ctx = RealizabilityContext(g)
    lines = []
    for mask in range(1 << g.m):
        s = [e for e in range(g.m) if mask >> e & 1]
        res = ctx.realizable(s, want_certificate=True)
        cert = _canonical(certificate_json(res.certificate)) if res.certificate else "-"
        lines.append(f"{mask} {res.status} {cert}\n")
    return "".join(lines)


def embeddings_text(g) -> str:
    return "".join(_canonical(embedding_json(e)) + "\n" for e in enumerate_embeddings(g))


def _witness_text(n: int) -> str:
    return serialize_witness(witness_to_document(rotating_path_collection(n), graph=complete(n)))


def relabelled(g, seed: int) -> WeightedMultigraph:
    """``g`` with its vertices permuted and its edge ids shuffled."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], w) for u, v, w in g.edges]
    rng.shuffle(edges)
    return WeightedMultigraph(g.n, tuple(edges))


def covers_text(solve, graphs) -> str:
    """One line per graph: status, value and the parts found, each sorted."""
    lines = []
    for g in graphs:
        r = solve(g)
        lines.append(f"{r.status} {r.value} {sorted(sorted(p) for p in r.parts)}\n")
    return "".join(lines)


def atlas_with_edges():
    """Every graph of the networkx atlas (up to seven vertices) with an edge."""
    return [g for g in atlas_graphs(7) if g.m]


def k7_relabelled():
    return [relabelled(complete(7), seed) for seed in (1, 2, 3)]


#: bulk outputs kept as digests only
BULK = {
    **{f"rotating_path_collection/n={n:02d}": (lambda n=n: _witness_text(n)) for n in range(5, 17)},
    "realizable/K5": lambda: realizable_text(complete(5)),
    "realizable/K3,3": lambda: realizable_text(complete_bipartite(3, 3)),
    "realizable/prism": lambda: realizable_text(triangular_prism()),
    "thickness/atlas": lambda: covers_text(thickness, atlas_with_edges()),
    "outerthickness/atlas": lambda: covers_text(outerthickness, atlas_with_edges()),
    "thickness/K7 relabelled": lambda: covers_text(thickness, k7_relabelled()),
    "outerthickness/K7 relabelled": lambda: covers_text(outerthickness, k7_relabelled()),
    "enumerate_embeddings/K4": lambda: embeddings_text(complete(4)),
    "enumerate_embeddings/2K3+K1": lambda: embeddings_text(
        graph_from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    ),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_manifest() -> dict[str, str]:
    out = {}
    for line in MANIFEST.read_text().splitlines():
        sha, name = line.split("  ", 1)
        out[name] = sha
    return out


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(COLLECTIONS))
def test_golden_collection_bytes(case):
    files = collection_files(case)
    on_disk = {p.name for p in GOLDEN.glob(f"{case}*") if p.name[len(case)] in "._"}
    assert on_disk == set(files)
    for name, text in files.items():
        assert (GOLDEN / name).read_bytes() == text.encode(), name


def test_golden_manifest_lists_every_bulk_case():
    assert set(read_manifest()) == set(BULK)


@pytest.mark.parametrize("entry", sorted(BULK))
def test_golden_bulk_digest(entry):
    assert digest(BULK[entry]()) == read_manifest()[entry]


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(COLLECTIONS):
        for name, text in collection_files(case).items():
            (GOLDEN / name).write_text(text)
    MANIFEST.write_text("".join(f"{digest(BULK[k]())}  {k}\n" for k in sorted(BULK)))


if __name__ == "__main__":
    write_golden()
