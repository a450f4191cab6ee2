import json
import os
import subprocess
import sys

import pytest

from uncrossed.cli import main
from uncrossed.files import load_graph, parse_graph_text, save_graph
from uncrossed.instances import complete, hex_grid

from conftest import ROOT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, dict(
        line.split("=", 1) for line in out.strip().splitlines() if "=" in line
    )


def _crossing_without_f(doc):
    del doc["drawings"][0]["crossings"][0]["f"]


def _crossing_of_one_edge(doc):
    c = doc["drawings"][0]["crossings"][0]
    c["f"] = c["e"]


def _no_drawings(doc):
    doc["drawings"] = []


def _text_cost(doc):
    doc["declared_cost"] = "x"


def _graph_without_edges(doc):
    del doc["graph"]["edges"]


@pytest.mark.parametrize(
    "corrupt",
    [_crossing_without_f, _crossing_of_one_edge, _no_drawings, _text_cost, _graph_without_edges],
)
def test_verify_malformed_witness_exits_3(tmp_path, capsys, corrupt):
    k5 = str(tmp_path / "k5.txt")
    w = tmp_path / "w.json"
    run(capsys, "gen", "complete", "5", "--out", k5)
    run(capsys, "solve", "--mode", "ucrk", "--c", "2", "--k", "2", "--input", k5, "--witness", str(w))
    doc = json.loads(w.read_text())
    corrupt(doc)
    w.write_text(json.dumps(doc))
    assert main(["verify", "--input", k5, "--witness", str(w)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_verify_witness_of_other_graph_exits_3(tmp_path, capsys):
    k5, k6 = str(tmp_path / "k5.txt"), str(tmp_path / "k6.txt")
    w = str(tmp_path / "w.json")
    run(capsys, "gen", "complete", "5", "--out", k5)
    run(capsys, "gen", "complete", "6", "--out", k6)
    run(capsys, "solve", "--mode", "ucrk", "--c", "2", "--k", "2", "--input", k5, "--witness", w)
    assert main(["verify", "--input", k6, "--witness", w]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "different graph" in err[0]
    assert "verdict=" not in captured.out


def test_gen_solve_verify_render_pipeline(tmp_path, capsys):
    k5 = str(tmp_path / "k5.txt")
    code, kv = run(capsys, "gen", "complete", "5", "--out", k5)
    assert code == 0
    assert load_graph(k5) == complete(5)

    code, kv = run(capsys, "solve", "--mode", "cr", "--input", k5)
    assert code == 0 and kv["cr"] == "1"

    w = str(tmp_path / "w.json")
    code, kv = run(capsys, "solve", "--mode", "ucrk", "--c", "2", "--k", "2",
                   "--input", k5, "--witness", w)
    assert code == 0 and kv["verdict"] == "yes" and kv["cost"] == "2"

    code, kv = run(capsys, "verify", "--input", k5, "--witness", w)
    assert code == 0 and kv["verdict"] == "accept"

    out_dir = str(tmp_path / "svg")
    code, kv = run(capsys, "render", "--witness", w, "--out", out_dir)
    assert code == 0 and kv["drawings"] == "2"

    # a corrupted witness gets rejected with the violated rule and exit 1
    doc = json.loads((tmp_path / "w.json").read_text())
    doc["declared_cost"] = 5
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, kv = run(capsys, "verify", "--input", k5, "--witness", str(tmp_path / "bad.json"))
    assert code == 1 and kv["rule"] == "cost"


def test_exit_code_matrix(tmp_path, capsys):
    k5 = str(tmp_path / "k5.txt")
    run(capsys, "gen", "complete", "5", "--out", k5)
    # no verdict -> 1
    code, kv = run(capsys, "solve", "--mode", "ucrk", "--c", "1", "--k", "5", "--input", k5)
    assert code == 1 and kv["verdict"] == "no"
    # unknown (budget) -> 2
    code, kv = run(capsys, "solve", "--mode", "ucr", "--input", k5, "--max-nodes", "2")
    assert code == 2 and kv["status"] == "unknown"
    # usage errors -> 3
    assert main(["solve", "--mode", "ucrk", "--input", k5]) == 3
    assert main(["solve", "--mode", "nope", "--input", k5]) == 3
    assert main(["solve", "--mode", "cr", "--input", str(tmp_path / "missing.txt")]) == 3
    # parse errors -> 3
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0 1\n")
    assert main(["solve", "--mode", "cr", "--input", str(bad)]) == 3


def test_solve_modes(tmp_path, capsys):
    k5 = str(tmp_path / "k5.txt")
    run(capsys, "gen", "complete", "5", "--out", k5)
    code, kv = run(capsys, "solve", "--mode", "unc", "--input", k5)
    assert code == 0 and kv["unc"] == "2"
    code, kv = run(capsys, "solve", "--mode", "ucr", "--input", k5)
    assert code == 0 and (kv["ucr"], kv["ounc"]) == ("2", "2")
    code, kv = run(capsys, "solve", "--mode", "thickness", "--input", k5)
    assert code == 0 and kv["thickness"] == "2"
    code, kv = run(capsys, "solve", "--mode", "outerthickness", "--input", k5)
    assert code == 0 and kv["outerthickness"] == "2"


def test_gen_families(tmp_path, capsys):
    code, kv = run(capsys, "gen", "heavy-cycle", "3", "--out", str(tmp_path / "g.txt"))
    assert code == 0
    g = load_graph(tmp_path / "g.txt")
    assert g.n == 6 and g.m == 9

    code, kv = run(capsys, "gen", "hex-grid", "2", "--out", str(tmp_path / "h.txt"))
    assert code == 0 and kv["rings"] == "6,18"

    code, kv = run(capsys, "gen", "complete-bipartite", "3", "3",
                   "--out", str(tmp_path / "b.txt"))
    assert code == 0
    assert load_graph(tmp_path / "b.txt").m == 9

    assert main(["gen", "complete"]) == 3  # missing parameter


def test_gen_to_stdout_reads_back_as_a_graph(capsys):
    # hex-grid's ring sizes go to a comment line, not before the header
    assert main(["gen", "hex-grid", "2"]) == 0
    assert parse_graph_text(capsys.readouterr().out) == hex_grid(2)[0]


def test_bounds_command(tmp_path, capsys):
    k15 = str(tmp_path / "k15.txt")
    save_graph(k15, complete(15))
    code, kv = run(capsys, "bounds", "--input", k15)
    assert code == 0
    assert kv["ucr_quartic"] == "414"
    assert kv["drawings_count"] == "3"
    assert "kn_refined_upper" in kv


def test_budget_env_variable(tmp_path, capsys, monkeypatch):
    k6 = str(tmp_path / "k6.txt")
    save_graph(k6, complete(6))
    monkeypatch.setenv("UNCROSSED_BUDGET", "0.000001")
    code, kv = run(capsys, "solve", "--mode", "ucr", "--input", k6)
    assert code == 2 and kv["status"] == "unknown"


def _solve_k5_exit(tmp_path, capsys, *extra):
    k5 = str(tmp_path / "k5.txt")
    save_graph(k5, complete(5))
    code = main(["solve", "--mode", "ucr", "--input", k5, *extra])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return code


def test_malformed_budget_env_variable_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UNCROSSED_BUDGET", "abc")
    assert _solve_k5_exit(tmp_path, capsys) == 3


@pytest.mark.parametrize(
    "extra",
    [("--max-nodes", "-3"), ("--budget", "-1"), ("--budget", "nan")],
    ids=["negative-nodes", "negative-seconds", "nan-seconds"],
)
def test_negative_budget_limits_exit_3(tmp_path, capsys, extra):
    assert _solve_k5_exit(tmp_path, capsys, *extra) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--input", "k5.txt", "--witness", "five.json"],
        ["verify", "--input", "k5.txt", "--witness", "null.json"],
        ["solve", "--mode", "cr", "--input", "latin1.txt"],
        ["verify", "--input", "k5.txt", "--witness", "latin1.txt"],
        ["solve", "--mode", "cr", "--input", "dir"],
        ["verify", "--input", "k5.txt", "--witness", "dir"],
        ["gen", "complete", "5", "--out", "dir"],
        ["solve", "--mode", "ucrk", "--c", "2", "--k", "2", "--input", "k5.txt", "--witness", "dir"],
        ["render", "--witness", "w.json", "--out", "k5.txt"],
    ],
    ids=[
        "witness-number", "witness-null", "input-not-utf8", "witness-not-utf8", "input-dir",
        "verify-witness-dir", "gen-out-dir", "solve-witness-dir", "render-out-file",
    ],
)
def test_unusable_path_exits_3(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "complete", "5", "--out", "k5.txt")
    run(capsys, "solve", "--mode", "ucrk", "--c", "2", "--k", "2", "--input", "k5.txt", "--witness", "w.json")
    (tmp_path / "five.json").write_text("5")
    (tmp_path / "null.json").write_text("null")
    (tmp_path / "latin1.txt").write_bytes("5 0\n# K\xf6nig\n".encode("latin-1"))
    (tmp_path / "dir").mkdir()
    assert main(argv) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert captured.out == ""  # solve saves its witness before any result line


def test_solve_witness_line_comes_last(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "complete", "5", "--out", "k5.txt")
    assert main(["solve", "--mode", "ucrk", "--c", "2", "--k", "2", "--input", "k5.txt", "--witness", "w.json"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "mode=ucrk", "c=2", "k=2", "verdict=yes", "cost=2", "witness=w.json"
    ]


def test_unc_witness_pipeline(tmp_path, capsys):
    k5 = str(tmp_path / "k5.txt")
    run(capsys, "gen", "complete", "5", "--out", k5)
    w = str(tmp_path / "cover.json")
    code, kv = run(capsys, "solve", "--mode", "unc", "--input", k5, "--witness", w)
    assert code == 0 and kv["witness"] == w
    code, kv = run(capsys, "verify", "--input", k5, "--witness", w)
    assert code == 0 and kv["verdict"] == "accept"


def test_table_flag(tmp_path, capsys):
    k5 = str(tmp_path / "k5.txt")
    run(capsys, "gen", "complete", "5", "--out", k5)
    code = main(["--table", "solve", "--mode", "cr", "--input", k5])
    out = capsys.readouterr().out
    assert code == 0
    assert "cr:" in out and "=" not in out.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, unbuffered, first, codes",
    [
        # 200 kB of graph text: the pipe fills, so a write after the close
        # is certain to fail
        (["gen", "complete", "200"], "", b"200 19900\n", (1,)),
        # each line is written at once, so a line after the first may meet
        # the closed pipe
        (["solve", "--mode", "cr", "--input", "k6.txt"], "1", b"mode=cr\n", (0, 1)),
    ],
    ids=["gen", "solve"],
)
def test_closed_stdout_pipe_exits_without_traceback(tmp_path, argv, unbuffered, first, codes):
    save_graph(tmp_path / "k6.txt", complete(6))
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "uncrossed.cli", *argv], cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read().decode()
    code = proc.wait(timeout=60)
    proc.stderr.close()
    assert "Traceback" not in err and code in codes, (code, err)
