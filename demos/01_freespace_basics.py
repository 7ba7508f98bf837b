"""Free-space construction, step by step.

A box of a given type and orientation fits inside a trunk exactly when its
center lies in the trunk hull eroded by the box — minus a fattened obstacle
per trunk cavity.  This demo builds a toy trunk (a cuboid shell with one
wheel-arch-like cavity), erodes it for one box orientation, and prints the
exact extents and Monte Carlo volume of the resulting feasible region.

Run:  python3 demos/01_freespace_basics.py
"""

from trunkpack.catalog import BoxType, distinct_orientations, oriented_extents
from trunkpack.freespace import compute_feasible_region, parse_convex_json


def build_trunk():
    # Shell: 1200 x 1000 x 500 mm cuboid.  One cavity bites a 300 x 1000
    # x 200 mm corner out of the floor, like an intruding wheel arch.
    obj = {
        "shell": {"halfspaces": [
            {"n": [-1, 0, 0], "d": 0}, {"n": [1, 0, 0], "d": 1200},
            {"n": [0, -1, 0], "d": 0}, {"n": [0, 1, 0], "d": 1000},
            {"n": [0, 0, -1], "d": 0}, {"n": [0, 0, 1], "d": 500},
        ]},
        "cavities": [
            {"vertices": [[x, y, z]
                          for x in (900, 1200)
                          for y in (0, 1000)
                          for z in (0, 200)]},
        ],
    }
    return parse_convex_json(obj)


def main():
    trunk = build_trunk()
    box = BoxType("demo", (600, 400, 300), max_count=2)
    print(f"trunk shell: {len(trunk.shell.halfspaces)} facets, "
          f"{len(trunk.cavities)} cavity")
    print(f"box type {box.id}: {box.dims_mm} mm, "
          f"orientations {distinct_orientations(box)}")
    print()

    for orientation in distinct_orientations(box):
        ext = oriented_extents(box.dims_mm, orientation)
        region = compute_feasible_region(trunk, box, orientation,
                                         samples=50000, seed=7)
        if region is None:
            print(f"{orientation}: extents {ext} mm -> no feasible center")
            continue
        lo, hi = region.hull.bbox()
        spans = ", ".join(
            f"{axis}=[{float(lo[k]):.1f}, {float(hi[k]):.1f}]"
            for k, axis in enumerate("xyz"))
        print(f"{orientation}: extents {ext} mm")
        print(f"  eroded hull: {len(region.hull.halfspaces)} facets, "
              f"center bbox {spans}")
        print(f"  obstacles: {len(region.obstacles)} "
              f"({sum(len(o.halfspaces) for o in region.obstacles)} facets)")
        print(f"  feasible volume ~ {region.volume_mm3 / 1e6:.2f} dm3 "
              f"(stderr {region.volume_stderr_mm3 / 1e6:.2f} dm3)")
    print()
    print("Every extent above is exact; only the volume estimates are "
          "Monte Carlo.")


if __name__ == "__main__":
    main()
