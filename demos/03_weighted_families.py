"""Two weighted families that pull the invariants apart.

The heavy even cycle with diameters keeps its uncrossed number at 2 while
the number of drawings needed for the cheapest collection grows like m:
no rim edge is crossed, so two diameters on one side of the rim cross, each
drawing leaves at most one diameter uncrossed, and ucr = m * C(m-1, 2) with
ounc = m.
The K5 variant with two light disjoint edges has crossing number 1 but
uncrossed crossing number 2m: a collection cannot reuse the one cheap
crossing, so it pays for two expensive ones.
"""

from math import comb

from uncrossed import (
    crossing_number,
    uncrossed_crossing_number,
    uncrossed_number,
)
from uncrossed.instances import heavy_cycle_with_diameters, k5_with_two_light_edges

print("heavy even cycle with diameters, m = 3")
g = heavy_cycle_with_diameters(3)
print("  rim weight:", max(w for _, _, w in g.edges))
print("  unc  =", uncrossed_number(g).value)
res = uncrossed_crossing_number(g)
print("  ucr  =", res.ucr, " needing", res.ounc, "drawings")
for i, d in enumerate(res.witness.drawings):
    print(f"    drawing {i} crosses diameters {[ev.pair() for ev in d.crossings]}")

print()
print("ucr against the closed form m * C(m-1, 2), with ounc = m")
for m in (3, 4, 5):
    res = uncrossed_crossing_number(heavy_cycle_with_diameters(m))
    print(f"  m={m}: ucr={res.ucr}  ounc={res.ounc}"
          f"  (closed form {m * comb(m - 1, 2)}, {m})")

print()
print("K5 with two light disjoint edges, heavy weight m")
for m in (3, 4):
    g = k5_with_two_light_edges(m)
    cr = crossing_number(g).value
    res = uncrossed_crossing_number(g)
    print(f"  m={m}: cr={cr}  ucr={res.ucr}  ounc={res.ounc}"
          f"  (gap ucr/cr = {res.ucr / cr:.0f})")
