from fractions import Fraction

import pytest

from uncrossed.bounds import kn_bounds, outerthickness, thickness, ucr_lower_bound
from uncrossed.core import PreconditionError, WeightedMultigraph
from uncrossed.instances import complete
from uncrossed.planarity import graph_planar, is_outerplanar
from uncrossed.solver import SearchBudget, uncrossed_number

from conftest import atlas_graphs, cycle


def test_thickness_examples(k4, k5, k7):
    assert thickness(k4).value == 1
    assert thickness(k5).value == 2
    assert thickness(k7).value == 2


def test_thickness_parts_are_planar(k7):
    res = thickness(k7)
    for part in res.parts:
        assert graph_planar(k7.spanning_subgraph(part))
    assert frozenset().union(*res.parts) == frozenset(range(k7.m))


def test_outerthickness_examples(k5, k7):
    assert outerthickness(cycle(6)).value == 1
    assert outerthickness(k5).value == 2
    assert outerthickness(k7).value == 3


def test_cover_value_one_iff_predicate_holds():
    for g in atlas_graphs(5, connected=True):
        assert (thickness(g).value == 1) == graph_planar(g)
        assert (outerthickness(g).value == 1) == is_outerplanar(g)


def test_thickness_budget_unknown(k7):
    res = thickness(k7, SearchBudget(max_nodes=2))
    assert res.status == "unknown" and res.lower_bound == 1
    # one planar part is ruled out before the budget trips
    assert thickness(k7, SearchBudget(max_nodes=10)).lower_bound == 2


def test_sandwich_chain_on_small_graphs(k5, k33):
    for g in (k5, k33, complete(6)):
        th = thickness(g).value
        un = uncrossed_number(g).value
        ot = outerthickness(g).value
        assert th <= un <= ot <= 2 * th


def test_ucr_lower_bound_k15():
    report = ucr_lower_bound(complete(15))
    entry = report.get("ucr_quartic")
    assert entry.applicable
    assert entry.exact == Fraction(105**4, 87 * 15**3)
    assert entry.rounded == 414


def test_ucr_lower_bound_guard(k7):
    report = ucr_lower_bound(k7)
    assert not report.get("ucr_quartic").applicable
    assert report.get("drawings_count").rounded == 2  # ceil(21 / 15)


def test_ucr_lower_bound_rejects_weighted_and_parallel():
    g = WeightedMultigraph(16, tuple((i, j, 2) for i in range(16) for j in range(i + 1, 16)))
    assert not ucr_lower_bound(g).get("ucr_quartic").applicable


def test_kn_bounds_closed_forms():
    kb = kn_bounds(5, cr_kn=1)
    assert kb.lower_exact == Fraction(5, 6)
    assert kb.lower_int == 1
    assert kb.refined_upper_exact == Fraction(15, 2)
    assert kb.coarse_upper_exact == Fraction(3125, 96)
    assert kn_bounds(7).refined_upper_exact == 70


def test_kn_bounds_counting_form():
    kb = kn_bounds(6, cr_lower=3)
    assert kb.lower_exact == Fraction(15, 12) * 3


def test_kn_bounds_consistency_sweep():
    for n in range(5, 51):
        kb = kn_bounds(n, cr_kn=1)
        assert kb.refined_upper_exact <= kb.coarse_upper_exact
        assert kb.lower_exact <= kb.upper_exact


def test_kn_bounds_precondition():
    with pytest.raises(PreconditionError):
        kn_bounds(4)
