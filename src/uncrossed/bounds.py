"""Baseline invariants (thickness, outerthickness) and closed-form bounds.

The cover computations reuse the exact set-cover engine with planarity or
outerplanarity as the part predicate.  Closed-form bounds are evaluated in
exact rational arithmetic and reported both as fractions and as integers
(ceiling for lower bounds, floor for upper bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import NO_BUDGET, PreconditionError, SearchBudget, WeightedMultigraph
from .covers import CoverResult, CoverSearch, PairColours
from .planarity import skeleton_outerplanar, skeleton_planar


@dataclass(frozen=True)
class BoundEntry:
    name: str
    applicable: bool
    kind: str  # "lower" | "upper"
    exact: Fraction | None
    rounded: int | None
    provenance: str


@dataclass(frozen=True)
class BoundReport:
    entries: tuple[BoundEntry, ...]

    def get(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def thickness(g: WeightedMultigraph, budget: SearchBudget = NO_BUDGET) -> CoverResult:
    """Least number of planar subgraphs whose union is all of G, exactly."""

    def planar_part(part: frozenset[int]) -> bool:
        return skeleton_planar(g.skeleton(part))

    return CoverSearch(g, planar_part, budget, PairColours(g).partition_key).minimum()


def outerthickness(g: WeightedMultigraph, budget: SearchBudget = NO_BUDGET) -> CoverResult:
    """Least number of outerplanar subgraphs covering G, exactly.

    Each part is tested by :func:`~uncrossed.planarity.skeleton_outerplanar`,
    a 2-reduction that runs no planarity test (vertices outside the part are
    irrelevant).
    """

    def outerplanar_part(part: frozenset[int]) -> bool:
        return skeleton_outerplanar(g.skeleton(part))

    return CoverSearch(g, outerplanar_part, budget, PairColours(g).partition_key).minimum()


def _lower(name: str, value: Fraction | None, provenance: str, needs: str) -> BoundEntry:
    """A lower-bound entry, rounded up, or an inapplicable one when value is None."""
    if value is None:
        return BoundEntry(name, False, "lower", None, None, needs)
    return BoundEntry(name, True, "lower", value, math.ceil(value), provenance)


def ucr_lower_bound(g: WeightedMultigraph) -> BoundReport:
    """Density lower bounds on the uncrossed crossing number.

    The quartic bound requires a simple unweighted graph with m >= 7n and
    reads ceil(m^4 / (87 n^3)); alongside it the report carries the bound
    ceil(m / (3n - 6)) on how many drawings any uncrossed collection needs.
    """
    n, m = g.n, g.m
    simple = len(g.skeleton()) == m and all(w == 1 for _, _, w in g.edges)
    quartic = Fraction(m**4, 87 * n**3) if simple and n >= 1 and m >= 7 * n else None
    per = Fraction(m, 3 * n - 6) if simple and n >= 3 and m > 0 else None
    return BoundReport((
        _lower("ucr_quartic", quartic,
               "m^4/(87 n^3) for simple graphs with m >= 7n", "needs simple, m >= 7n"),
        _lower("drawings_count", per,
               "any plane drawing leaves at most 3n-6 edges uncrossed", "needs simple, n >= 3"),
    ))


@dataclass(frozen=True)
class KnBounds:
    n: int
    lower_exact: Fraction
    lower_int: int
    refined_upper_exact: Fraction
    coarse_upper_exact: Fraction
    upper_exact: Fraction
    upper_int: int


def kn_bounds(n: int, cr_kn: int | None = None, cr_lower: int = 0) -> KnBounds:
    """Bounds on the uncrossed crossing number of the complete graph K_n.

    Lower: (n/6) * cr(K_n) when the crossing number is supplied, otherwise
    the counting form C(n,2)/(3n-6) times a caller-supplied lower bound on
    cr(K_n).  Upper: the rotating-path collection's closed form
    (n^4/48 - n^3/8 + 11 n^2/48 - n/8) * (n+1)/2, capped by n^5/96.
    """
    if n < 5:
        raise PreconditionError("kn_bounds needs n >= 5")
    if cr_kn is not None:
        lower = Fraction(n, 6) * cr_kn
    else:
        lower = Fraction(n * (n - 1), 2) / (3 * n - 6) * cr_lower
    refined = (
        Fraction(n**4, 48) - Fraction(n**3, 8) + Fraction(11 * n**2, 48) - Fraction(n, 8)
    ) * (Fraction(n, 2) + Fraction(1, 2))
    coarse = Fraction(n**5, 96)
    upper = min(refined, coarse)
    return KnBounds(
        n=n,
        lower_exact=lower,
        lower_int=math.ceil(lower),
        refined_upper_exact=refined,
        coarse_upper_exact=coarse,
        upper_exact=upper,
        upper_int=math.floor(upper),
    )
