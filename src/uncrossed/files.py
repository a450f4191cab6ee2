"""Text and JSON file formats for graphs and collection witnesses.

Graph files: first line ``n m``, then m lines ``u v w`` (0-based endpoints,
weight >= 1); lines starting with ``#`` are comments.  Witness files are
JSON documents with normative field names: ``graph`` (inline ``{"n",
"edges"}``) or ``graph_ref`` (path), ``drawings`` (array of ``{"crossings":
[{"e", "f"}], "edge_orders": {edge id: [event indices]}}``),
``declared_cost`` and ``mode``.  Serialization is canonical (sorted keys,
fixed separators) so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import (
    CollectionWitness,
    CrossingEvent,
    DrawingWitness,
    UncrossedError,
    WeightedMultigraph,
    WitnessStructureError,
)


class ParseError(UncrossedError):
    """Malformed graph or witness file; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def parse_graph_text(text: str) -> WeightedMultigraph:
    """Parse the ``n m`` / ``u v w`` format, rejecting loops and bad weights."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped))
    if not rows:
        raise ParseError("empty graph file")
    head_line, head = rows[0]
    fields = head.split()
    if len(fields) != 2:
        raise ParseError("expected header 'n m'", head_line)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError("header values must be integers", head_line) from None
    if n < 0 or m < 0:
        raise ParseError("header values must be nonnegative", head_line)
    if len(rows) - 1 != m:
        raise ParseError(
            f"expected {m} edge lines, found {len(rows) - 1}", head_line
        )
    edges = []
    for lineno, row in rows[1:]:
        fields = row.split()
        if len(fields) != 3:
            raise ParseError("expected edge line 'u v w'", lineno)
        try:
            u, v, w = (int(x) for x in fields)
        except ValueError:
            raise ParseError("edge fields must be integers", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range 0..{n - 1}", lineno)
        if u == v:
            raise ParseError("loops are not allowed", lineno)
        if w < 1:
            raise ParseError("weight must be >= 1", lineno)
        edges.append((u, v, w))
    return WeightedMultigraph(n, tuple(edges))


def serialize_graph(g: WeightedMultigraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v} {w}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"


def load_graph(path) -> WeightedMultigraph:
    return parse_graph_text(Path(path).read_text(encoding="utf-8"))


def save_graph(path, g: WeightedMultigraph) -> None:
    Path(path).write_text(serialize_graph(g))


def witness_to_document(
    w: CollectionWitness,
    graph: WeightedMultigraph | None = None,
    graph_ref: str | None = None,
    mode: dict | None = None,
) -> dict:
    if (graph is None) == (graph_ref is None):
        raise ValueError("exactly one of graph or graph_ref is required")
    doc: dict = {}
    if graph is not None:
        doc["graph"] = {"n": graph.n, "edges": [[u, v, ww] for u, v, ww in graph.edges]}
    else:
        doc["graph_ref"] = graph_ref
    doc["drawings"] = [
        {
            "crossings": [{"e": ev.first, "f": ev.second} for ev in d.crossings],
            "edge_orders": {
                str(eid): list(seq) for eid, seq in d.edge_orders
            },
        }
        for d in w.drawings
    ]
    doc["declared_cost"] = w.declared_cost
    doc["mode"] = mode if mode is not None else {}
    return doc


def _number(value) -> int:
    """A document number, an int that is not a bool: ``int()`` would cut
    2.9 to 2, read ``true`` as 1 and overflow on the infinity JSON makes
    of 1e400."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"expected an integer, got {type(value).__name__} {value!r:.40}")
    return value


def _edge_key(key: str) -> int:
    """An ``edge_orders`` key, which must read as the decimal that ``str``
    prints for its edge id: ``int()`` alone would take " +0 " as 0, "1_0"
    as 10 and non-ASCII digits."""
    eid = int(key)
    if str(eid) != key:
        raise ParseError(f"edge order key {key!r:.40} is not an edge id")
    return eid


def witness_from_document(doc: dict, base_dir=None):
    """Returns (CollectionWitness, WeightedMultigraph).

    ``graph_ref`` paths resolve relative to ``base_dir``.  A document with
    missing fields, wrongly typed values or an inconsistent structure
    raises :class:`ParseError`.
    """
    if not isinstance(doc, dict):
        raise ParseError("witness document must be a JSON object")
    if "declared_cost" not in doc:
        raise ParseError("witness document needs 'declared_cost'")
    try:
        if "graph" in doc:
            gd = doc["graph"]
            graph = WeightedMultigraph(
                _number(gd["n"]),
                tuple((_number(u), _number(v), _number(w)) for u, v, w in gd["edges"]),
            )
        elif "graph_ref" in doc:
            ref = Path(doc["graph_ref"])
            if base_dir is not None and not ref.is_absolute():
                ref = Path(base_dir) / ref
            graph = load_graph(ref)
        else:
            raise ParseError("witness document needs 'graph' or 'graph_ref'")
        drawings = []
        for dd in doc.get("drawings", []):
            crossings = tuple(
                CrossingEvent(_number(c["e"]), _number(c["f"]))
                for c in dd.get("crossings", [])
            )
            orders = tuple(
                sorted(
                    (_edge_key(eid), tuple(_number(i) for i in seq))
                    for eid, seq in dd.get("edge_orders", {}).items()
                )
            )
            drawings.append(DrawingWitness(crossings=crossings, edge_orders=orders))
        witness = CollectionWitness(
            drawings=tuple(drawings), declared_cost=_number(doc["declared_cost"])
        )
    except KeyError as exc:
        raise ParseError(f"witness document is missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, WitnessStructureError) as exc:
        raise ParseError(f"malformed witness document: {exc}") from None
    return witness, graph


def serialize_witness(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_witness(path, doc: dict) -> None:
    Path(path).write_text(serialize_witness(doc))


def load_witness(path):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    return witness_from_document(doc, base_dir=Path(path).parent)
