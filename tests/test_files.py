import json

import pytest

from uncrossed.cli import main
from uncrossed.files import (
    ParseError,
    load_graph,
    load_witness,
    parse_graph_text,
    save_graph,
    save_witness,
    serialize_graph,
    serialize_witness,
    witness_from_document,
    witness_to_document,
)
from uncrossed.instances import complete, heavy_cycle_with_diameters
from uncrossed.solver import decide_uncrossed_cost, verify_collection


def test_parse_k5():
    text = "5 10\n" + "\n".join(
        f"{i} {j} 1" for i in range(5) for j in range(i + 1, 5)
    )
    g = parse_graph_text(text)
    assert g == complete(5)


def test_parse_comments_and_blanks():
    text = "# a complete graph\n3 3\n0 1 1\n\n# middle comment\n1 2 1\n0 2 1\n"
    g = parse_graph_text(text)
    assert g.n == 3 and g.m == 3


def test_loop_rejected_with_line_number():
    with pytest.raises(ParseError) as err:
        parse_graph_text("2 1\n0 0 1\n")
    assert err.value.line == 2


def test_bad_weight_and_range():
    with pytest.raises(ParseError):
        parse_graph_text("2 1\n0 1 0\n")
    with pytest.raises(ParseError):
        parse_graph_text("2 1\n0 2 1\n")
    with pytest.raises(ParseError):
        parse_graph_text("2 2\n0 1 1\n")  # wrong edge count


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# only a comment\n\n", None, "empty graph file"),
        ("3\n", 1, "expected header"),
        ("# K3\n3 x\n", 2, "header values must be integers"),
        ("3 -1\n", 1, "header values must be nonnegative"),
        ("3 1\n0 1\n", 2, "expected edge line"),
        ("3 2\n0 1 1\n\n1 2 heavy\n", 4, "edge fields must be integers"),
    ],
    ids=["empty", "header-fields", "header-not-integer", "header-negative",
         "edge-fields", "edge-not-integer"],
)
def test_malformed_graph_file(tmp_path, capsys, text, line, message):
    # a ParseError at its line, and exit 3 with one error line from solve
    with pytest.raises(ParseError, match=message) as err:
        parse_graph_text(text)
    assert err.value.line == line
    (tmp_path / "g.txt").write_text(text)
    assert main(["solve", "--mode", "cr", "--input", str(tmp_path / "g.txt")]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {err.value}\n" and captured.out == ""


def test_graph_round_trip(tmp_path):
    g = heavy_cycle_with_diameters(3)
    assert parse_graph_text(serialize_graph(g)) == g
    path = tmp_path / "g.txt"
    save_graph(path, g)
    assert load_graph(path) == g


def test_witness_round_trip_inline(tmp_path, k5):
    dec = decide_uncrossed_cost(k5, 2, 2)
    doc = witness_to_document(dec.witness, graph=k5, mode={"mode": "ucrk", "c": 2, "k": 2})
    path = tmp_path / "w.json"
    save_witness(path, doc)
    witness, graph = load_witness(path)
    assert graph == k5
    assert witness == dec.witness
    assert verify_collection(graph, witness).accepted


def test_witness_round_trip_graph_ref(tmp_path, k5):
    dec = decide_uncrossed_cost(k5, 2, 2)
    save_graph(tmp_path / "k5.txt", k5)
    doc = witness_to_document(dec.witness, graph_ref="k5.txt")
    save_witness(tmp_path / "w.json", doc)
    witness, graph = load_witness(tmp_path / "w.json")
    assert graph == k5 and witness == dec.witness


def test_witness_serialization_is_canonical(k5):
    dec = decide_uncrossed_cost(k5, 2, 2)
    doc = witness_to_document(dec.witness, graph=k5, mode={"mode": "ucrk"})
    assert serialize_witness(doc) == serialize_witness(
        witness_to_document(dec.witness, graph=k5, mode={"mode": "ucrk"})
    )


def test_witness_normative_fields(k5):
    dec = decide_uncrossed_cost(k5, 2, 2)
    doc = witness_to_document(dec.witness, graph=k5, mode={})
    assert set(doc) == {"graph", "drawings", "declared_cost", "mode"}
    assert set(doc["graph"]) == {"n", "edges"}
    for dd in doc["drawings"]:
        assert set(dd) == {"crossings", "edge_orders"}
        for c in dd["crossings"]:
            assert set(c) == {"e", "f"}


def test_witness_document_errors(k5):
    with pytest.raises(ParseError):
        witness_from_document({"drawings": [], "declared_cost": 0})
    with pytest.raises(ParseError):
        witness_from_document({"graph": {"n": 2, "edges": []}, "drawings": [
            {"crossings": [], "edge_orders": {}}
        ]})


@pytest.mark.parametrize("value", [2.9, float("inf"), True, "2", None])
def test_witness_numbers_must_be_integers(k5, value):
    # int() would read 2.9 as 2, true as 1 and "2" as 2, and raise
    # OverflowError on the infinity that JSON makes of 1e400
    doc = witness_to_document(decide_uncrossed_cost(k5, 2, 2).witness, graph=k5)
    places = [
        lambda d: d.__setitem__("declared_cost", value),
        lambda d: d["graph"].__setitem__("n", value),
        lambda d: d["graph"]["edges"][0].__setitem__(2, value),
        lambda d: d["drawings"][0]["crossings"][0].__setitem__("e", value),
        lambda d: next(iter(d["drawings"][0]["edge_orders"].values())).__setitem__(0, value),
    ]
    for corrupt in places:
        bad = json.loads(json.dumps(doc))
        corrupt(bad)
        with pytest.raises(ParseError):
            witness_from_document(bad)


def test_deeply_nested_witness_file_is_a_parse_error(tmp_path):
    path = tmp_path / "w.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ParseError):
        load_witness(path)


@pytest.mark.parametrize("key", [" +0 ", "1_0", "٠", "00", "0.0"])
def test_edge_order_keys_must_be_plain_decimals(k5, key):
    # int() would read " +0 " and "٠" (an Arabic-Indic zero) as edge 0
    # and "1_0" as edge 10
    doc = witness_to_document(decide_uncrossed_cost(k5, 2, 2).witness, graph=k5)
    orders = doc["drawings"][0]["edge_orders"]
    orders[key] = orders.pop(next(iter(orders)))
    with pytest.raises(ParseError):
        witness_from_document(doc)
