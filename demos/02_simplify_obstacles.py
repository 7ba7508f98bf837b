"""Obstacle simplification with auditable growth bounds.

Fattened cavity obstacles arrive in droves and every obstacle facet later
becomes a branching decision in the packing search, so fewer facets means a
smaller search tree.  Simplification must only ever grow the forbidden set:
a packing found in the simplified region must still be valid in the original
one.  This demo runs both simplification passes on a hand-built region and
prints the audit log that certifies each accepted step:

* merge: replace two touching obstacles by their convex hull when the
  volume overshoot stays inside a relative/absolute budget and the facet
  count strictly drops;
* drop: delete a single obstacle facet when the forbidden set inside the
  hull grows by at most a distance bound (decided exactly, LP as a filter).

Run:  python3 demos/02_simplify_obstacles.py
"""

from trunkpack.freespace import Region
from trunkpack.geometry import axis_aligned_box, convex_hull
from trunkpack.simplify import (MergeParams, contractiveness_violations,
                                drop_facets, merge_obstacles)


def chamfered_cube(lo, edge, cut, id):
    (x0, y0, z0) = lo
    (x1, y1, z1) = (x0 + edge, y0 + edge, z0 + edge)
    corners = [(x, y, z) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]
    corners.remove((x1, y1, z1))
    corners += [(x1 - cut, y1, z1), (x1, y1 - cut, z1), (x1, y1, z1 - cut)]
    return convex_hull(corners, id=id)


def build_region():
    hull = axis_aligned_box((0, 0, 0), (300, 300, 300), id="hull")
    obstacles = [
        # Two boxes sharing a face: their hull is the exact union (growth 0).
        axis_aligned_box((20, 20, 20), (60, 60, 60), id="a0"),
        axis_aligned_box((60, 20, 20), (100, 60, 60), id="a1"),
        # Two overlapping boxes: the hull overshoots the union by a known
        # volume, still inside the budget.
        axis_aligned_box((120, 120, 120), (160, 160, 160), id="a2"),
        axis_aligned_box((150, 130, 120), (190, 170, 160), id="a3"),
        # A cube with a 15 mm corner chamfer: restoring the corner moves the
        # boundary 15/sqrt(3) ~ 8.7 mm, inside a 10 mm drop budget.
        chamfered_cube((200, 200, 200), 50, 15, "a4"),
    ]
    return Region("demo", "xyz", hull, obstacles, volume_mm3=0.0,
                  volume_stderr_mm3=0.0, samples=100000, seed=917)


def main():
    region = build_region()
    print(f"before: {len(region.obstacles)} obstacles, "
          f"{region.facet_count()} facets total")

    merged, merge_log = merge_obstacles(
        region, MergeParams(rel_bound_pct=25.0, abs_bound_mm3=50000.0,
                            rng_seed=3))
    print(f"\nmerge pass: {len(merge_log)} merges")
    for e in merge_log:
        print(f"  {' + '.join(e['merged'])} -> {e['id']}: "
              f"growth {e['growth_mm3']:.0f} mm3 "
              f"({e['facets_before']} -> {e['facets_after']} facets)")

    final, drop_log = drop_facets(merged, max_growth_mm=10.0)
    print(f"\ndrop pass: {len(drop_log)} facet drops")
    for e in drop_log:
        n = e["facet"]["n"]
        print(f"  obstacle {e['obstacle']}: facet n={n} "
              f"growth {e['growth_mm']:.2f} mm (bound {e['bound_mm']:.0f})")

    print(f"\nafter: {len(final.obstacles)} obstacles, "
          f"{final.facet_count()} facets total")

    check = contractiveness_violations(region, final)
    print(f"soundness: {check['violations']} of {check['checked']} sampled "
          f"centers freed that were forbidden before (must be 0)")


if __name__ == "__main__":
    main()
