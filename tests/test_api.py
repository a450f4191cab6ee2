import ast
import dataclasses
import importlib
import inspect
import pathlib

import uncrossed
import uncrossed.core
import uncrossed.solver


def test_package_names_resolve():
    tree = ast.parse(inspect.getsource(uncrossed))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("solver", "uncrossed_crossing_number") in imported
    for module, name in imported:
        source = importlib.import_module(f"uncrossed.{module}")
        assert getattr(uncrossed, name) is getattr(source, name), name


def test_solver_all_resolves():
    for name in uncrossed.solver.__all__:
        assert hasattr(uncrossed.solver, name), name
    assert "BudgetExhausted" not in uncrossed.solver.__all__


def test_search_budget_is_one_type():
    assert uncrossed.solver.SearchBudget is uncrossed.core.SearchBudget
    assert uncrossed.SearchBudget is uncrossed.core.SearchBudget


def test_search_budget_has_only_the_limits_the_cli_sets():
    # cli._budget_from sets exactly these from --budget/UNCROSSED_BUDGET and --max-nodes
    names = [f.name for f in dataclasses.fields(uncrossed.core.SearchBudget)]
    assert names == ["wall_clock_seconds", "max_nodes"]


def test_every_import_is_used():
    # names a module imports but never reads, __all__ re-exports exempt;
    # the package __init__ only re-exports
    package = pathlib.Path(uncrossed.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(importlib.import_module(f"uncrossed.{path.stem}"), "__all__", ()))
        assert imported - read - exported == set(), path.name


def test_only_planarity_instances_and_render_import_networkx():
    # planarity for embeddings and Kuratowski witnesses, instances for max
    # flow, render for layout; every other module works on dart ids alone
    package = pathlib.Path(uncrossed.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "networkx" for name in names):
                importers.add(path.stem)
    assert importers <= {"planarity", "instances", "render"}
    assert "planarity" in importers


def test_no_module_sets_the_recursion_limit():
    # the limit is process-global state: a search deeper than it ends unknown
    package = pathlib.Path(uncrossed.__file__).parent
    for path in sorted(package.glob("*.py")):
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert "setrecursionlimit" not in names, path.name


def test_no_module_rebinds_a_module_global():
    # process-global state stays bounded: what a call needs travels with it
    package = pathlib.Path(uncrossed.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name


def _private_definitions(tree):
    """Top-level functions and classes, and their methods, named _x but not __x__."""
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *inner]:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if d.name.startswith("_") and not d.name.endswith("__"):
                    yield d.name


def test_no_private_helper_is_dead():
    # a private helper that no module reads, as a name or an attribute, is dead
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(pathlib.Path(uncrossed.__file__).parent.glob("*.py"))
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    private = [(name, d) for name, tree in trees.items() for d in _private_definitions(tree)]
    assert len(private) > 40
    assert [(name, d) for name, d in private if d not in read] == []
