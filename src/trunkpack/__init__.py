"""trunkpack: exact-geometry toolkit for packing rigid boxes into
polyhedral trunks.

The package is organised bottom-up:

- :mod:`trunkpack.geometry`  exact rational points, halfspaces, hulls
- :mod:`trunkpack.catalog`   the box catalog and orientation handling
- :mod:`trunkpack.freespace` feasible placement regions inside a trunk
- :mod:`trunkpack.simplify`  obstacle merging and facet dropping
- :mod:`trunkpack.lp`        placement linear programs and a simplex solver
- :mod:`trunkpack.search`    branch-and-bound packing enumeration
- :mod:`trunkpack.pipeline`  staged end-to-end runs and the CLI
"""

from trunkpack.geometry import (
    ConvexPolytope,
    DegenerateInput,
    GeometryError,
    Halfspace,
    Point3,
    Triangle3,
    ZeroDirection,
    axis_aligned_box,
    convex_hull,
    intersect_halfspaces,
    minkowski_sum_convex,
    polytopes_touch,
)

__version__ = "0.1.0"

__all__ = [
    "ConvexPolytope",
    "DegenerateInput",
    "GeometryError",
    "Halfspace",
    "Point3",
    "Triangle3",
    "ZeroDirection",
    "axis_aligned_box",
    "convex_hull",
    "intersect_halfspaces",
    "minkowski_sum_convex",
    "polytopes_touch",
    "__version__",
]
