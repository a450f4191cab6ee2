import ast
import dataclasses
import importlib
import inspect

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
