"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own machinery:
planarity via Wagner's theorem (K5/K33 minors, brute force) and
realizability via exhaustive embedding enumeration.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from uncrossed.core import WeightedMultigraph, graph_from_edges
from uncrossed.instances import complete, complete_bipartite

# one derandomized profile for every property test: runs repeat exactly,
# nothing is stored between runs, and slow examples are not failures
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str, timeout: float, cwd=ROOT) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, working in ``cwd``, that imports
    the package from ``src``; a hang or a crash there fails only the
    calling test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.fixture
def k4():
    return complete(4)


@pytest.fixture
def k5():
    return complete(5)


@pytest.fixture
def k6():
    return complete(6)


@pytest.fixture
def k7():
    return complete(7)


@pytest.fixture
def k33():
    return complete_bipartite(3, 3)


@pytest.fixture
def triangle():
    return graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])


def cycle(n: int) -> WeightedMultigraph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def wheel(k: int) -> WeightedMultigraph:
    """W_k: the hub 0 joined to every vertex of the rim cycle 1..k."""
    rim = [(v, v % k + 1) for v in range(1, k + 1)]
    return graph_from_edges(k + 1, [(0, v) for v in range(1, k + 1)] + rim)


def edge_id_map(g: WeightedMultigraph) -> dict:
    return {(u, v): eid for eid, (u, v, _) in enumerate(g.edges)}


def brute_planar(g: WeightedMultigraph) -> bool:
    """Wagner's theorem by brute force; only sensible for <= 6 vertices."""
    pairs = g.skeleton()
    if len(pairs) <= 8:
        return True
    adj = {v: set() for v in range(g.n)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)

    def clique(vs):
        return all(b in adj[a] for a, b in itertools.combinations(vs, 2))

    # K5 minor: five singleton branch sets, or one merged adjacent pair
    for five in itertools.combinations(range(g.n), 5):
        if clique(five):
            return False
    for u, v in pairs:
        merged = (adj[u] | adj[v]) - {u, v}
        rest = [x for x in range(g.n) if x not in (u, v)]
        for four in itertools.combinations(rest, 4):
            if all(x in merged for x in four) and clique(four):
                return False
    # K33 minor on <= 6 vertices: only singleton branch sets fit
    if g.n >= 6:
        for six in itertools.combinations(range(g.n), 6):
            for left in itertools.combinations(six, 3):
                right = tuple(x for x in six if x not in left)
                if all(b in adj[a] for a in left for b in right):
                    return False
    return True


def atlas_graphs(max_nodes: int, max_edges: int | None = None, connected: bool | None = None):
    """Small graphs up to isomorphism, as WeightedMultigraph instances."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for h in graph_atlas_g():
        n = h.number_of_nodes()
        if n < 1 or n > max_nodes:
            continue
        if max_edges is not None and h.number_of_edges() > max_edges:
            continue
        if connected is True and not nx.is_connected(h):
            continue
        out.append(
            WeightedMultigraph(n, tuple((u, v, 1) for u, v in sorted(h.edges())))
        )
    return out
