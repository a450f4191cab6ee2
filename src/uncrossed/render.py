"""SVG rendering of verified collections of drawings.

Each drawing is planarized (crossings become degree-4 dummies), laid out
with a straight-line planar embedding, and written as one SVG document per
drawing.  Uncrossed edges are thick and dark, crossed edges thin; crossing
points get a marker.  Output bytes are deterministic for fixed input.
"""

from __future__ import annotations

from pathlib import Path

import networkx as nx
from networkx.algorithms.planar_drawing import combinatorial_embedding_to_pos

from .core import (
    CollectionWitness,
    DrawingWitness,
    PreconditionError,
    WeightedMultigraph,
    edge_chains,
)
from .solver import verify_collection

_SVG_SIZE = 640
_MARGIN = 40


def _layout(nodes, segments):
    """Deterministic straight-line planar positions for the given graph.

    Parallel segments are routed through a phantom midpoint, so bends only
    appear when the planarization itself is a multigraph.
    """
    seen = set()
    parallel = set()
    for a, b in segments:
        key = (min(a, b), max(a, b))
        if key in seen:
            parallel.add(key)
        seen.add(key)
    h = nx.Graph()
    h.add_nodes_from(nodes)
    bends: dict[tuple, object] = {}
    for idx, (a, b) in enumerate(segments):
        key = (min(a, b), max(a, b))
        if key in parallel:
            mid = ("bend", idx)
            h.add_edge(a, mid)
            h.add_edge(mid, b)
            bends[idx] = mid
        else:
            h.add_edge(a, b)
    ok, embedding = nx.check_planarity(h, counterexample=False)
    if not ok:
        raise PreconditionError("drawing does not planarize; refusing to render")
    pos = combinatorial_embedding_to_pos(embedding)
    return pos, bends


def _scaler(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1)
    scale = (_SVG_SIZE - 2 * _MARGIN) / span

    def to_screen(p):
        x = _MARGIN + (p[0] - x0) * scale
        y = _SVG_SIZE - _MARGIN - (p[1] - y0) * scale
        return f"{x:.2f}", f"{y:.2f}"

    return to_screen


def render_drawing_svg(g: WeightedMultigraph, d: DrawingWitness) -> str:
    """One SVG document for one combinatorial drawing of g."""
    chains = edge_chains(g, d)
    t = len(d.crossings)
    nodes = list(range(g.n + t))
    segments = []
    seg_owner = []
    for eid in range(g.m):
        chain = chains[eid]
        for a, b in zip(chain, chain[1:]):
            segments.append((a, b))
            seg_owner.append(eid)
    pos, bends = _layout(nodes, segments)
    to_screen = _scaler(list(pos.values()))

    uncrossed = d.uncrossed_edges(g)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for eid in range(g.m):
        pts = []
        for idx, (a, b) in enumerate(segments):
            if seg_owner[idx] != eid:
                continue
            if not pts:
                pts.append(pos[a])
            if idx in bends:
                pts.append(pos[bends[idx]])
            pts.append(pos[b])
        coords = " ".join(",".join(to_screen(p)) for p in pts)
        if eid in uncrossed:
            style = 'stroke="#1a1a1a" stroke-width="3.2"'
        else:
            style = 'stroke="#9090a0" stroke-width="1.2"'
        parts.append(f'<polyline points="{coords}" fill="none" {style}/>')
    for i in range(t):
        x, y = to_screen(pos[g.n + i])
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="3.5" fill="none" '
            f'stroke="#c03030" stroke-width="1.2"/>'
        )
    for v in range(g.n):
        x, y = to_screen(pos[v])
        parts.append(f'<circle cx="{x}" cy="{y}" r="6" fill="#3060c0"/>')
        parts.append(
            f'<text x="{x}" y="{y}" font-size="8" fill="white" '
            f'text-anchor="middle" dy="2.8">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_collection(
    g: WeightedMultigraph, w: CollectionWitness, out_dir
) -> list[Path]:
    """Write one SVG per drawing into out_dir; refuses invalid witnesses."""
    check = verify_collection(g, w)
    if not check.accepted:
        raise PreconditionError(f"witness rejected ({check.rule}): {check.detail}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, d in enumerate(w.drawings):
        path = out / f"drawing_{i:03d}.svg"
        path.write_text(render_drawing_svg(g, d))
        paths.append(path)
    return paths
