import ast
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
