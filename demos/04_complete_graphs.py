"""Complete graphs: rotating-path collections, bounds, and unc(K7) = 3.

The rotating-path construction lays a zigzag spanning path on a line, puts
every other edge on one of two pages, and rotates the path to cover all
edges.  It witnesses ucr(K_n) = O(n^5); exact counts come out far below the
closed-form bound for small n.

The K7 computation exhausts all 2-covers by realizable uncrossed sets to
certify unc(K7) > 2, then finds a 3-cover.  It took about 2 s on a 2-vCPU
host with CPython 3.11.7.
"""

import time

from uncrossed import uncrossed_number, verify_collection
from uncrossed.bounds import kn_bounds, outerthickness, thickness, ucr_lower_bound
from uncrossed.instances import complete, per_drawing_crossing_bound, rotating_path_collection

for n in range(5, 10):
    g = complete(n)
    w = rotating_path_collection(n)
    counts = [d.cost(g) for d in w.drawings]
    kb = kn_bounds(n)
    print(f"K{n}: {len(w.drawings)} drawings, per-drawing {counts[0]} "
          f"(bound {per_drawing_crossing_bound(n)}), total {w.declared_cost} "
          f"<= n^5/96 = {float(kb.coarse_upper_exact):.1f}, "
          f"verified {verify_collection(g, w).accepted}")

print()
print("density bound: K15 has m = 7n, so ucr(K15) >=",
      ucr_lower_bound(complete(15)).get("ucr_quartic").rounded)

print()
k7 = complete(7)
print("thickness(K7) =", thickness(k7).value)
print("outerthickness(K7) =", outerthickness(k7).value)
t0 = time.time()
res = uncrossed_number(k7)
print(f"unc(K7) = {res.value}  ({time.time() - t0:.0f}s, "
      f"{res.sets_tested} edge sets tested, cover sizes "
      f"{[len(c.edge_subset) for c in res.certificates]})")
