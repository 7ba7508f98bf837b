"""Tests for feasible-region construction.

Oracles: erosion of axis boxes reduces to interval arithmetic per axis, so
expected hulls are written out by hand.  Sampling-based estimates are
compared against closed-form volumes within 3 standard errors.  Mesh parity
is checked against hand-placed inside/outside/on-surface points.
"""

import collections
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from trunkpack import freespace, geometry
from trunkpack.catalog import (FULL_CATALOG, ORIENTATIONS, BoxType,
                               half_extents, oriented_extents)
from trunkpack.freespace import (
    DEFAULT_SEED,
    LATTICE_DEN,
    ConvexTrunk,
    DegenerateTrunk,
    LatticePoints,
    MeshTrunk,
    Region,
    TrunkFormatError,
    _AxisSweep,
    _cut,
    _sample_box,
    classify_feasible,
    clip_obstacle,
    compute_feasible_region,
    describe_region,
    enlarged_hull,
    erode_hull,
    estimate_volume,
    format_region_report,
    halfspace_signs,
    halfspaces_bounded,
    inverted_box,
    load_trunk,
    parse_convex_json,
    parse_mesh_json,
    parse_stl_text,
    point_in_mesh,
    raw_feasible_region,
    region_from_dict,
    region_json,
    region_report_rows,
    region_seed,
    region_to_dict,
    sample_lattice_points,
    soundness_check_convex,
    soundness_check_mesh,
)
from trunkpack.geometry import (
    ConvexPolytope,
    GeometryError,
    Halfspace,
    Point3,
    Triangle3,
    _degenerate_from_points,
    axis_aligned_box,
    convex_hull,
    cutting_rows,
    fm_feasible,
    minkowski_sum_convex,
    minkowski_sums,
)
from trunkpack.simplify import MergeParams, drop_facets, merge_obstacles

F = Fraction

BOX_A = next(b for b in FULL_CATALOG if b.id == "A")
BOX_B = next(b for b in FULL_CATALOG if b.id == "B")
BOX_E = next(b for b in FULL_CATALOG if b.id == "E")

DATA_DIR = Path(__file__).parent / "data"


def box_polytope(lo, hi):
    return axis_aligned_box(lo, hi)


def cube_mesh(edge, origin=(0, 0, 0)):
    """Watertight 12-triangle axis cube."""
    ox, oy, oz = origin
    v = [Point3(ox + x * edge, oy + y * edge, oz + z * edge)
         for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    # index bit layout: (x << 2) | (y << 1) | z
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5),  # x = 0, x = edge
        (0, 4, 5, 1), (2, 3, 7, 6),  # y = 0, y = edge
        (0, 2, 6, 4), (1, 5, 7, 3),  # z = 0, z = edge
    ]
    tris = []
    for (a, b, c, d) in quads:
        tris.append(Triangle3(v[a], v[b], v[c]))
        tris.append(Triangle3(v[a], v[c], v[d]))
    return MeshTrunk(tris, Point3(ox + F(edge, 2), oy + F(edge, 2), oz + F(edge, 2)))


# ---------------------------------------------------------------------------
# inverted box and erosion


def test_inverted_box_extents_and_symmetry():
    b = inverted_box(BOX_A, "xyz")
    assert b.bbox() == ((-305, F(-483, 2), F(-229, 2)),
                        (305, F(483, 2), F(229, 2)))
    assert b.volume() == BOX_A.volume_mm3()
    negated = {Point3(-v.x, -v.y, -v.z) for v in b.vertices}
    assert negated == set(b.vertices)


def test_minkowski_triangle_box_support():
    tri = _degenerate_from_points(
        [Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0)])
    box = box_polytope((-1, -1, -1), (1, 1, 1))
    s = minkowski_sum_convex(box, tri)
    assert s.support((1, 0, 0)) == 2


def test_erode_box_by_box_interval_arithmetic():
    outer = box_polytope((0, 0, 0), (1000, 600, 500))
    eroded = erode_hull(outer, inverted_box(BOX_A, "xyz"))
    assert not eroded.degenerate
    assert eroded.bbox() == ((305, F(483, 2), F(229, 2)),
                             (695, F(717, 2), F(771, 2)))
    assert eroded.volume() == 390 * 117 * 271


def test_erode_by_point_is_identity():
    outer = box_polytope((0, 0, 0), (7, 5, 3))
    point = _degenerate_from_points([Point3(0, 0, 0)])
    eroded = erode_hull(outer, point)
    assert {h.key() for h in eroded.halfspaces} == \
           {h.key() for h in outer.halfspaces}
    assert set(eroded.vertices) == set(outer.vertices)


def test_erode_box_too_large_gives_none():
    outer = box_polytope((0, 0, 0), (1, 1, 1))
    big = box_polytope((-1, -1, -1), (1, 1, 1))
    assert erode_hull(outer, big) is None


def test_erode_exact_fit_gives_flat_polytope_with_exact_extents():
    outer = box_polytope((0, 0, 0), (458, 483, 610))
    eroded = erode_hull(outer, inverted_box(BOX_A, "zyx"))
    assert eroded.degenerate
    assert eroded.bbox() == ((F(229, 2), F(483, 2), 305),
                             (F(687, 2), F(483, 2), 305))
    assert eroded.extent(0) == 229
    assert eroded.extent(1) == 0 and eroded.extent(2) == 0


def test_erosion_random_cuboids_exact():
    rng = random.Random(11)
    for _ in range(25):
        ext = [rng.randint(100, 1500) for _ in range(3)]
        outer = box_polytope((0, 0, 0), tuple(ext))
        box = rng.choice(FULL_CATALOG)
        orient = rng.choice(["xyz", "zyx", "yzx"])
        oriented = oriented_extents(box.dims_mm, orient)
        eroded = erode_hull(outer, inverted_box(box, orient))
        if any(oriented[k] > ext[k] for k in range(3)):
            assert eroded is None
        else:
            assert eroded is not None
            for k in range(3):
                assert eroded.extent(k) == ext[k] - oriented[k]


# ---------------------------------------------------------------------------
# regions from convex trunks


def shell_json(lo, hi, cavities=()):
    hs = []
    for axis, name in enumerate("xyz"):
        n_pos = [0, 0, 0]
        n_pos[axis] = 1
        n_neg = [0, 0, 0]
        n_neg[axis] = -1
        hs.append({"n": n_pos, "d": hi[axis]})
        hs.append({"n": n_neg, "d": -lo[axis]})
    return {"shell": {"halfspaces": hs},
            "cavities": [{"vertices": list(c)} for c in cavities]}


def test_raw_region_exact_fit_is_fattened():
    trunk = parse_convex_json(shell_json((0, 0, 0), (458, 483, 610)))
    raw = raw_feasible_region(trunk, BOX_A, "zyx")
    assert raw.fattened
    assert not raw.hull.degenerate
    lo, hi = raw.hull.bbox()
    assert (lo[0], hi[0]) == (F(229, 2), F(687, 2))
    assert hi[1] - lo[1] == F(1, 512)
    assert hi[2] - lo[2] == F(1, 512)
    assert raw.obstacles == []


def test_region_volume_matches_exact_difference():
    # free set by construction: [0,10]^3 hull minus half-space slab obstacle
    hull = box_polytope((0, 0, 0), (10, 10, 10))
    obstacle = box_polytope((0, 0, 0), (10, 10, 5))
    raw = Region("X", "xyz", hull, [obstacle])
    region = describe_region(raw, samples=50000, seed=7)
    est = region.volume_mm3
    stderr = region.volume_stderr_mm3
    assert abs(est - 500.0) <= 3 * stderr
    assert region.facet_count() == 6 + 6


def test_region_without_obstacles_matches_hull_volume():
    hull = box_polytope((0, 0, 0), (40, 30, 20))
    region = describe_region(Region("X", "xyz", hull, []),
                             samples=20000, seed=3)
    # bbox equals hull here, so every sample hits: exact agreement
    assert region.volume_mm3 == pytest.approx(24000.0)
    assert region.volume_stderr_mm3 == 0.0


def test_obstacles_outside_hull_are_discarded():
    hull = box_polytope((0, 0, 0), (100, 100, 100))
    far = box_polytope((500, 500, 500), (600, 600, 600))
    touching = box_polytope((100, 0, 0), (150, 100, 100))
    inside = box_polytope((10, 10, 10), (90, 90, 90))
    raw = Region("X", "xyz", hull, [far, touching, inside])
    region = describe_region(raw, samples=5000, seed=1)
    kept_ids = [o.id for o in region.obstacles]
    assert len(region.obstacles) == 2  # far one dropped
    # boundary-touching obstacle stays, forbids nothing inside
    est_free = region.volume_mm3
    assert abs(est_free - (100 ** 3 - 80 ** 3)) <= 4 * region.volume_stderr_mm3


def test_compute_feasible_region_with_cavity():
    # shell 400^3 with a 200x400x160 cavity along one wall
    trunk = parse_convex_json(shell_json(
        (0, 0, 0), (400, 400, 400),
        cavities=[[(0, 0, 0), (200, 0, 0), (0, 400, 0), (200, 400, 0),
                   (0, 0, 160), (200, 0, 160), (0, 400, 160), (200, 400, 160)]]))
    small = BoxType("S", (100, 100, 100), 1)
    region = compute_feasible_region(trunk, small, "xyz", samples=40000, seed=5)
    # hull: centers [50,350]^3; obstacle: cavity + centered box
    assert region.hull.bbox() == ((50, 50, 50), (350, 350, 350))
    assert len(region.obstacles) == 1
    # free volume: 300^3 minus obstacle part inside hull
    # obstacle spans x<=250, z<=210 within the hull
    blocked = (250 - 50) * 300 * (210 - 50)
    expect = 300 ** 3 - blocked
    assert abs(region.volume_mm3 - expect) <= 4 * region.volume_stderr_mm3


def test_region_empty_when_box_never_fits():
    trunk = parse_convex_json(shell_json((0, 0, 0), (300, 300, 300)))
    assert raw_feasible_region(trunk, BOX_A, "xyz") is None
    assert compute_feasible_region(trunk, BOX_A, "xyz", samples=1000, seed=1) is None


# ---------------------------------------------------------------------------
# regions from mesh trunks


def test_mesh_cube_region_matches_erosion_formula():
    trunk = cube_mesh(1000)
    for orient in ("xyz", "zyx"):
        ext = oriented_extents(BOX_A.dims_mm, orient)
        region = compute_feasible_region(trunk, BOX_A, orient,
                                         samples=30000, seed=9)
        expect = (1000 - ext[0]) * (1000 - ext[1]) * (1000 - ext[2])
        lo, hi = region.hull.bbox()
        for k in range(3):
            assert hi[k] - lo[k] == 1000 - ext[k]
        assert abs(region.volume_mm3 - expect) <= 4 * region.volume_stderr_mm3


def test_point_in_mesh_oracle():
    trunk = cube_mesh(1000)
    assert point_in_mesh(Point3(1, 1, 1), trunk)
    assert point_in_mesh(Point3(999, 500, 500), trunk)
    assert not point_in_mesh(Point3(-1, 500, 500), trunk)
    assert not point_in_mesh(Point3(500, 500, 1001), trunk)
    # on a face, an edge, a corner: closed containment
    assert point_in_mesh(Point3(0, 300, 300), trunk)
    assert point_in_mesh(Point3(0, 0, 250), trunk)
    assert point_in_mesh(Point3(1000, 1000, 1000), trunk)
    # on the plane of a face but outside the cube
    assert not point_in_mesh(Point3(0, 2000, 500), trunk)
    assert not point_in_mesh(Point3(2000, 0, 0), trunk)


def test_wheel_housing_trunk_fixture():
    """The paper's setting: a 1000 x 1000 x 550 mm box with two
    400 x 200 x 300 mm wheel housings cut from the floor of the side walls
    (x 300-700, y 0-200 and 800-1000, z 0-300), two outward triangles per
    cell face on the grid x {0, 300, 700, 1000}, y {0, 200, 800, 1000},
    z {0, 300, 550}."""
    trunk = load_trunk(str(DATA_DIR / "wheel_housing_trunk.json"),
                       "mesh-json")
    assert len(trunk.triangles) == 92 and trunk.dropped_triangles == 0
    corners = [tuple((v.x, v.y, v.z) for v in tri.vertices())
               for tri in trunk.triangles]
    # closed: every edge is met once in each direction
    edges = collections.Counter((t[i], t[(i + 1) % 3]) for t in corners
                                for i in range(3))
    assert all(n == 1 and edges[(q, p)] == 1 for (p, q), n in edges.items())
    # the exact enclosed volume, by the divergence theorem: six times it is
    # the sum of a . (b x c), an integer on integer corners
    six_volume = sum(a[0] * (b[1] * c[2] - b[2] * c[1])
                     - a[1] * (b[0] * c[2] - b[2] * c[0])
                     + a[2] * (b[0] * c[1] - b[1] * c[0])
                     for a, b, c in corners)
    assert six_volume == 6 * 502_000_000
    assert trunk.seed == Point3(500, 500, 400)
    assert point_in_mesh(trunk.seed, trunk)
    for housing in ((500, 100, 150), (500, 900, 150)):
        assert not point_in_mesh(Point3(*housing), trunk)


def test_mesh_soundness_no_violations_on_cube():
    trunk = cube_mesh(1000)
    region = compute_feasible_region(trunk, BOX_B, "xyz", samples=4000, seed=2)
    pts = sample_lattice_points(region.hull.bbox(), 4000, seed=21)
    mask = classify_feasible(pts, region.hull, region.obstacles)
    feas = pts.subset(mask)
    stats = soundness_check_mesh(trunk, feas, BOX_B, "xyz")
    assert stats["checked"] == int(mask.sum()) > 0
    assert stats["violations"] == 0


def l_prism_mesh():
    """20-triangle prism over the L-shaped polygon (0,0) (600,0) (600,300)
    (300,300) (300,600) (0,600), 300 mm tall: the square x, y > 300 is
    cut away."""
    poly = [(0, 0), (600, 0), (600, 300), (300, 300), (300, 600), (0, 600)]
    lo = [Point3(x, y, 0) for x, y in poly]
    hi = [Point3(x, y, 300) for x, y in poly]
    tris = []
    for a, b, c in ((0, 1, 2), (0, 2, 3), (0, 3, 5), (3, 4, 5)):
        tris += [Triangle3(lo[a], lo[b], lo[c]), Triangle3(hi[a], hi[b], hi[c])]
    for i in range(6):
        j = (i + 1) % 6
        tris += [Triangle3(lo[i], lo[j], hi[j]), Triangle3(lo[i], hi[j], hi[i])]
    return MeshTrunk(tris, Point3(100, 100, 100))


@pytest.mark.parametrize("sampler", ["lattice", "grid"])
def test_mesh_soundness_matches_point_in_mesh_on_l_prism(sampler):
    # centers from the hull's bounding box, so corners land in the cut-away
    # square and outside the walls; on the 50 mm grid they also land exactly
    # on triangle planes and edges, which takes the exact fallback
    trunk = l_prism_mesh()
    box = BoxType("S", (100, 100, 100), 1)
    if sampler == "lattice":
        centers = sample_lattice_points(((0, 0, 0), (600, 600, 300)), 300,
                                        seed=5)
    else:
        rng = np.random.default_rng(5)
        num = rng.integers(0, 13, size=(300, 3), dtype=np.int64) * 50
        num[:, 2] //= 2
        centers = LatticePoints(num * LATTICE_DEN)
    hx, hy, hz = half_extents(box, "xyz")
    ok = np.ones(len(centers), dtype=bool)
    for off in [(sx * hx, sy * hy, sz * hz) for sx in (-1, 1)
                for sy in (-1, 1) for sz in (-1, 1)]:
        corners = centers.translated(off)
        ok &= [point_in_mesh(corners.point(i), trunk)
               for i in range(len(corners))]
    stats = soundness_check_mesh(trunk, centers, box, "xyz")
    assert 0 < stats["violations"] == int((~ok).sum()) < len(centers)
    if sampler == "grid":
        assert stats["exact_fallbacks"] > 0


def test_convex_soundness_flags_missing_obstacle():
    trunk = parse_convex_json(shell_json(
        (0, 0, 0), (400, 400, 400),
        cavities=[[(150, 150, 0), (250, 150, 0), (150, 250, 0), (250, 250, 0),
                   (150, 150, 400), (250, 150, 400), (150, 250, 400),
                   (250, 250, 400)]]))
    small = BoxType("S", (100, 100, 100), 1)
    region = compute_feasible_region(trunk, small, "xyz", samples=4000, seed=4)
    pts = sample_lattice_points(region.hull.bbox(), 4000, seed=31)
    good = pts.subset(classify_feasible(pts, region.hull, region.obstacles))
    assert soundness_check_convex(trunk, good, small, "xyz")["violations"] == 0
    # drop the obstacle: the checker must notice centers clashing the cavity
    bad = pts.subset(classify_feasible(pts, region.hull, []))
    assert soundness_check_convex(trunk, bad, small, "xyz")["violations"] > 0


# ---------------------------------------------------------------------------
# trunk parsing


def test_parse_convex_rejects_unbounded_shell():
    obj = {"shell": {"halfspaces": [{"n": [1, 0, 0], "d": 10}]}}
    with pytest.raises(TrunkFormatError):
        parse_convex_json(obj)


def test_parse_convex_rejects_cavity_outside_shell():
    obj = shell_json((0, 0, 0), (10, 10, 10),
                     cavities=[[(0, 0, 0), (20, 0, 0), (0, 5, 0), (0, 0, 5)]])
    with pytest.raises(TrunkFormatError):
        parse_convex_json(obj)


def test_parse_convex_rejects_flat_cavity():
    obj = shell_json((0, 0, 0), (10, 10, 10),
                     cavities=[[(0, 0, 0), (5, 0, 0), (0, 5, 0), (5, 5, 0)]])
    with pytest.raises(DegenerateTrunk):
        parse_convex_json(obj)


def test_parse_mesh_json_drops_degenerate_triangles():
    obj = {
        "triangles": [
            [[0, 0, 0], [1, 0, 0], [2, 0, 0]],  # collinear: dropped
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            [[0, 0, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        ],
        "seed": [0.25, 0.25, 0.25],
    }
    trunk = parse_mesh_json(obj)
    assert trunk.dropped_triangles == 1
    assert len(trunk.triangles) == 4
    assert trunk.seed == Point3(F(1, 4), F(1, 4), F(1, 4))


def test_parse_mesh_rejects_seed_on_triangle():
    obj = {
        "triangles": [
            [[0, 0, 0], [4, 0, 0], [0, 4, 0]],
            [[0, 0, 0], [4, 0, 0], [0, 0, 4]],
            [[0, 0, 0], [0, 4, 0], [0, 0, 4]],
            [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
        ],
        "seed": [1, 1, 0],
    }
    with pytest.raises(TrunkFormatError):
        parse_mesh_json(obj)


def test_parse_stl_round_trip(tmp_path):
    trunk = cube_mesh(10)
    lines = ["solid cube"]
    for tri in trunk.triangles:
        lines.append(" facet normal 0 0 0")
        lines.append("  outer loop")
        for v in tri.vertices():
            lines.append(f"   vertex {float(v.x)} {float(v.y)} {float(v.z)}")
        lines.append("  endloop")
        lines.append(" endfacet")
    lines.append("endsolid cube")
    path = tmp_path / "cube.stl"
    path.write_text("\n".join(lines))
    loaded = load_trunk(str(path), "stl", seed_point=(5, 5, 5))
    assert len(loaded.triangles) == 12
    assert loaded.seed == Point3(5, 5, 5)
    assert point_in_mesh(Point3(9, 9, 9), loaded)
    assert not point_in_mesh(Point3(11, 5, 5), loaded)


def test_stl_requires_seed():
    with pytest.raises(TrunkFormatError):
        parse_stl_text("solid x\nendsolid x", None)


def test_halfspaces_bounded():
    cube = box_polytope((0, 0, 0), (1, 1, 1))
    assert halfspaces_bounded(cube.halfspaces)
    assert not halfspaces_bounded(cube.halfspaces[:-1])


def test_halfspaces_bounded_matches_fourier_motzkin():
    # reference: the recession cone {Ax <= 0} is {0} exactly when no ray
    # x with x_axis = +-1 satisfies it, decided by exact elimination
    def fm_bounded(hs):
        rows = [((h.a, h.b, h.c), 0) for h in hs]
        for axis in range(3):
            for sign in (1, -1):
                ray = [0, 0, 0]
                ray[axis] = -sign
                if fm_feasible(rows + [(tuple(ray), -1)], 3):
                    return False
        return True

    rng = random.Random(20100817)
    verdicts = set()
    for _ in range(400):
        m = rng.randint(1, 9)
        hs = []
        while len(hs) < m:
            n = [rng.randint(-3, 3) for _ in range(3)]
            if any(n):
                hs.append(Halfspace(n, rng.randint(-5, 5)))
        expected = fm_bounded(hs)
        assert halfspaces_bounded(hs) == expected, hs
        verdicts.add(expected)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# sampling machinery


def test_lattice_points_inside_bbox_and_exact():
    bbox = ((F(1, 2), -3, 0), (F(7, 2), 5, F(1, 4)))
    pts = sample_lattice_points(bbox, 500, seed=42)
    assert len(pts) == 500
    for idx in range(0, 500, 50):
        x, y, z = pts.exact(idx)
        assert F(1, 2) < x < F(7, 2)
        assert -3 < y < 5
        assert 0 < z < F(1, 4)
    largest = max(abs(v) for idx in range(500) for v in pts.exact(idx))
    assert pts.max_abs == float(largest)


def test_lattice_sampling_deterministic():
    bbox = ((0, 0, 0), (10, 10, 10))
    a = sample_lattice_points(bbox, 100, seed=5)
    b = sample_lattice_points(bbox, 100, seed=5)
    assert (a.num == b.num).all()
    c = sample_lattice_points(bbox, 100, seed=6)
    assert (a.num != c.num).any()


def test_lattice_samples_of_dyadic_box_unchanged():
    # a box on the 2^-10 mm grid is sampled as it is: these coordinates were
    # recorded from the per-axis lattice that sampled the exact box
    bbox = ((F(-3, 2), 0, F(-1, 1024)), (600, F(301, 4), F(1025, 1024)))
    pts = sample_lattice_points(bbox, 4, seed=2026)
    assert [pts.exact(i) for i in range(4)] == [
        (F(2142823533, 4194304), F(112951153, 8388608),
         F(27372137, 1073741824)),
        (F(1608128529, 4194304), F(230705363, 8388608),
         F(501657053, 1073741824)),
        (F(195103977, 4194304), F(233875495, 8388608),
         F(691201319, 1073741824)),
        (F(889119489, 4194304), F(524601161, 8388608),
         F(849421805, 1073741824)),
    ]
    assert freespace._sample_volume(bbox) == F(1203, 2) * F(301, 4) * F(513, 512)


def test_sample_box_rounds_outward_to_grid():
    bbox = ((F(-1, 3), F(2, 3), 7), (F(10, 3), F(31, 3), F(22, 3)))
    lo, hi = _sample_box(bbox)
    step = F(1, 1024)
    for k in range(3):
        assert isinstance(lo[k], int) and isinstance(hi[k], int)
        assert 0 <= bbox[0][k] - lo[k] * step < step
        assert 0 <= hi[k] * step - bbox[1][k] < step
    # z = 7 is on the grid and stays; the thirds grow by less than a step
    assert lo[2] * step == 7
    pts = sample_lattice_points(bbox, 200, seed=1)
    for i in range(len(pts)):
        assert all(lo[k] * step < c < hi[k] * step
                   for k, c in enumerate(pts.exact(i)))


def _one_draw(bbox, n, seed):
    """The numerators of one n-row draw from ``default_rng(seed)``, made
    as the sampler made them before it drew in blocks."""
    lo, hi = _sample_box(bbox)
    num = np.random.default_rng(seed).integers(0, freespace._LATTICE, (n, 3),
                                               dtype=np.int64)
    for axis, (a, b) in enumerate(zip(lo, hi)):
        col = num[:, axis]
        col *= 2
        col += 1
        col *= b - a
        col += a * 2 * freespace._LATTICE
    return num


@pytest.mark.parametrize("n, block", [
    (200000, 16383),  # 3 * 16383 draws of 32 bits: an odd count per block
    (1000, None),     # below one block of the module's size
])
def test_lattice_blocks_continue_one_draw(monkeypatch, n, block):
    if block is not None:
        monkeypatch.setattr(freespace, "_SAMPLE_BLOCK", block)
    bbox = ((F(-3, 2), 0, F(-1, 1024)), (600, F(301, 4), F(1025, 1024)))
    blocks = list(freespace._lattice_blocks(bbox, n, 77))
    assert [len(b) for b in blocks[:-1]] == \
        [freespace._SAMPLE_BLOCK] * (len(blocks) - 1)
    assert len(blocks) == -(-n // freespace._SAMPLE_BLOCK)
    expect = _one_draw(bbox, n, 77)
    assert (np.concatenate(blocks) == expect).all()
    assert (sample_lattice_points(bbox, n, 77).num == expect).all()


# the seeds of the paper-catalog regions at the default seed, and seeds
# with one, two and three 32-bit entropy words
_STREAM_SEEDS = sorted({region_seed(DEFAULT_SEED, box.id, orient)
                        for box in FULL_CATALOG for orient in ORIENTATIONS}
                       | {0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3})


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_bulk_draws_equal_numpys_stream(seed):
    for n in (1, 2, 16383, 16384, 16385, 200000):
        expect = np.random.default_rng(seed).integers(
            0, freespace._LATTICE, (n, 3), dtype=np.int64)
        got = freespace._Pcg64(seed).bounded(3 * n, freespace._LATTICE)
        assert got.dtype == np.int64
        assert (got.reshape(n, 3) == expect).all(), n


@pytest.mark.parametrize("seed", [0, 1000, 1001, 1040, 2 ** 32, 2 ** 64 + 3])
def test_scalar_draws_equal_numpys_stream(seed):
    # the anchor range, one that rejects a quarter of its 32-bit draws, the
    # full 32-bit range and a one-integer range (no draw), interleaved; then
    # bulk and scalar draws in turn on one stream
    ours = freespace._Pcg64(seed)
    numpys = np.random.default_rng(seed)
    ranges = [(-64, 65), (0, 3 * 2 ** 30), (-64, 65), (0, 2 ** 32), (7, 8)]
    for i in range(1100):
        low, high = ranges[i % len(ranges)]
        assert ours.integers(low, high) == numpys.integers(low, high)
    for n in (5, 1, 8192 * 2 + 3, 4, 2):
        got = ours.bounded(n, 2 ** 20)
        assert (got == numpys.integers(0, 2 ** 20, n, dtype=np.int64)).all()
        assert ours.integers(-64, 65) == numpys.integers(-64, 65)


def test_stream_refuses_what_numpy_refuses():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        freespace._Pcg64(-1)
    rng = freespace._Pcg64(1)
    for span in (1, 3, 2 ** 20 + 1, 2 ** 33):
        with pytest.raises(ValueError):
            rng.bounded(10, span)


def test_sampler_checks_its_overflow_bound_before_drawing(monkeypatch):
    # x and y are near the origin; only z, the last axis converted, is far
    # enough out for its numerators to overflow int64
    far = 1 << 41
    hull = box_polytope((0, 0, far), (1, 1, far + 1))

    def no_draws(seed):
        raise AssertionError("drew samples for a box that cannot be sampled")

    monkeypatch.setattr(freespace, "_Pcg64", no_draws)
    with pytest.raises(GeometryError,
                       match="lattice numerators would overflow int64"):
        sample_lattice_points(hull.bbox(), 10, seed=1)
    with pytest.raises(GeometryError,
                       match="lattice numerators would overflow int64"):
        estimate_volume(hull, [], 10, seed=1)


def l_trunk():
    """A shell with one corner cavity, which reaches into the eroded hull
    of box E (``xyz``)."""
    cavity = [(x, y, z) for x in (210, 800) for y in (0, 230)
              for z in (210, 1000)]
    return parse_convex_json(shell_json((0, 0, 0), (800, 230, 1000),
                                        cavities=[cavity]))


def _l_trunk_region():
    return compute_feasible_region(l_trunk(), BOX_E, "xyz", samples=3000,
                                   seed=6)


def test_streamed_volume_matches_one_classification(monkeypatch):
    mesh = compute_feasible_region(cube_mesh(1000), BOX_B, "xyz",
                                   samples=500, seed=2)
    trunk = _l_trunk_region()
    # a slanted facet far from the origin: the float screen's band is wider
    # than the lattice step, so some signs are decided exactly
    far = 1 << 28
    slanted = convex_hull([(far, far, far), (far + 2, far, far),
                           (far, far + 2, far), (far, far, far + 2)])
    cube = box_polytope((0, 0, 0), (10, 10, 10))
    flat = _degenerate_from_points([Point3(0, 0, 0), Point3(10, 0, 10),
                                    Point3(0, 10, 10)])
    cases = [(mesh.hull, mesh.obstacles), (trunk.hull, trunk.obstacles),
             (slanted, []), (cube, [flat, box_polytope((2, 2, 2), (6, 6, 6))])]
    exact_reads = []
    real_exact = LatticePoints.exact

    def counted(self, idx):
        exact_reads.append(idx)
        return real_exact(self, idx)

    n = 3 * freespace._SAMPLE_BLOCK + 1234
    for hull, obstacles in cases:
        whole = classify_feasible(sample_lattice_points(hull.bbox(), n, 9),
                                  hull, obstacles)
        assert 0 < whole.sum() <= n
        monkeypatch.setattr(LatticePoints, "exact", counted)
        exact_reads.clear()
        got = estimate_volume(hull, obstacles, n, seed=9)
        monkeypatch.undo()
        assert got == freespace._hit_volume(
            freespace._sample_volume(hull.bbox()), int(whole.sum()), n)
        if hull is slanted:
            assert exact_reads
    assert mesh.obstacles and len(trunk.obstacles) == 1


def _traced_peak(fn, *args) -> int:
    """The peak of the memory ``tracemalloc`` traced while fn(*args) ran,
    over what was traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_volume_estimate_memory_does_not_grow_with_samples():
    # the L-trunk region builds the sweep's sort index, the largest
    # per-sample structure
    region = _l_trunk_region()
    estimate_volume(region.hull, region.obstacles, 1000, 1)  # warm caches
    small, large = (_traced_peak(estimate_volume, region.hull,
                                 region.obstacles, n, 1)
                    for n in (40000, 400000))
    assert large <= 1.5 * small, (small, large)


def test_classify_matches_pure_fraction_predicate():
    hull = box_polytope((0, 0, 0), (10, 10, 10))
    obstacle = box_polytope((2, 2, 2), (6, 6, 6))
    pts = sample_lattice_points(((-1, -1, -1), (11, 11, 11)), 400, seed=17)
    mask = classify_feasible(pts, hull, [obstacle])
    for idx in range(len(pts)):
        p = pts.point(idx)
        expect = all(h.contains(p) for h in hull.halfspaces) and not all(
            h.strictly_inside(p) for h in obstacle.halfspaces)
        assert bool(mask[idx]) == expect


def _brute_force_mask(pts, hull, obstacles):
    return np.array([hull.contains(p)
                     and not any(o.strictly_contains(p) for o in obstacles)
                     for p in map(pts.point, range(len(pts)))])


def test_classify_culled_matches_brute_force_predicate():
    # points exactly on obstacle facets and bounding-box faces, and one or
    # three lattice steps off them; two far points widen the float screen's
    # exact-recheck band past those steps
    den = LATTICE_DEN
    hull = box_polytope((0, 0, 0), (12, 12, 12))
    obstacles = [
        # intruding into the hull, oblique facets
        convex_hull([Point3(8, 8, 8), Point3(15, 9, 9), Point3(9, 15, 9),
                     Point3(9, 9, 15)]),
        # overlapping each other
        box_polytope((2, 2, 2), (6, 6, 6)),
        box_polytope((4, 3, 4), (8, 7, 7)),
        # touching the hull only at its boundary
        box_polytope((12, 3, 3), (15, 6, 6)),
        # wholly outside the hull and the lattice range
        box_polytope((20, 20, 20), (25, 25, 25)),
        # reaching far past the lattice range on both sides
        box_polytope((-10 ** 9, 9, 1), (3, 10 ** 9, 2)),
        # flat, oblique
        _degenerate_from_points([Point3(1, 1, 2), Point3(11, 1, 12),
                                 Point3(1, 11, 12)]),
    ]
    rng = random.Random(4)
    base = [-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15,
            F(9, 2), F(17, 2)]
    values = [b + F(s, den) for b in base for s in (-3, -1, 0, 1, 3)]
    points = [[rng.choice(values) for _ in range(3)] for _ in range(1500)]
    for poly in [hull] + obstacles[:4]:
        for (pa, pb, pc) in poly._triangles:
            for k in range(8):
                # on the facet, or (the last two) on its plane beyond it
                if k < 6:
                    wa = F(rng.randint(0, 8), 8)
                    wb = (1 - wa) * F(rng.randint(0, 8), 8)
                else:
                    wa, wb = F(rng.randint(-4, 12), 8), F(rng.randint(-4, 12), 8)
                q = [wa * a + wb * b + (1 - wa - wb) * c
                     for a, b, c in zip(pa, pb, pc)]
                points.append(q)
                q = list(q)
                q[rng.randrange(3)] += F(rng.choice((-3, -1, 1, 3)), den)
                points.append(q)
    # the hull-feasible extremes on x and y, strictly inside the box that
    # reaches past the lattice range
    points += [(0, 10, F(3, 2)), (2, 12, F(3, 2))]
    points += [(-(1 << 24), 0, 0), (0, 1 << 24, 0)]
    num = np.array([[int(c * den) for c in p] for p in points], dtype=np.int64)
    pts = LatticePoints(num)
    expect = _brute_force_mask(pts, hull, obstacles)
    assert expect.any() and not expect.all()
    assert (classify_feasible(pts, hull, obstacles) == expect).all()


def test_sweep_in_box_matches_fraction_comparison():
    # box corners with denominators that do not divide the lattice's, so the
    # integer floor and ceil thresholds fall strictly between lattice points
    rng = random.Random(12)
    den = LATTICE_DEN
    boxes = []
    for _ in range(25):
        lo = [F(rng.randint(-40, 30), rng.choice((1, 3, 7, 11))) for _ in range(3)]
        hi = [a + F(rng.randint(1, 40), rng.choice((1, 2, 9, 13))) for a in lo]
        boxes.append(axis_aligned_box(lo, hi).int_bbox())
    rows = [[rng.randint(-50 * den, 80 * den) for _ in range(3)]
            for _ in range(400)]
    for (lo, hi, w) in boxes:
        # the lattice points next to each face, on both sides, with the
        # other coordinates inside the box's range
        span = [(math.floor(F(lo[k] * den, w)),
                 math.ceil(F(hi[k] * den, w))) for k in range(3)]
        for k in range(3):
            for edge in span[k]:
                for step in (-1, 0, 1):
                    row = [rng.randint(a, b) for (a, b) in span]
                    row[k] = edge + step
                    rows.append(row)
    num = np.array(rows, dtype=np.int64)
    subset = np.array(sorted(rng.sample(range(len(rows)), 3 * len(rows) // 4)))
    sweep = _AxisSweep(num, subset)
    found = 0
    for (lo, hi, w) in boxes:
        expect = [i for i in subset
                  if all(F(lo[k], w) < F(int(num[i, k]), den) < F(hi[k], w)
                         for k in range(3))]
        assert sorted(sweep.in_box((lo, hi, w)).tolist()) == expect
        found += len(expect)
    assert found


def test_axis_rows_match_fraction_predicates():
    # rows a * x_k <= d with a in +-1, +-2, +-3 and odd d: the lattice points
    # on the plane (a = +-1, +-2) or on either side of it (a = +-3), and one
    # and two steps beyond, at negative and positive coordinates; every
    # sign is decided by the integer comparison, no float and no Fraction
    den = LATTICE_DEN
    rows, planes = [], []
    for k in range(3):
        for a in (1, -1, 2, -2, 3, -3):
            for d in (-7, -1, 1, 5, 601):
                normal = [0, 0, 0]
                normal[k] = a
                h = Halfspace(normal, d)
                assert h.axis() == (k, a) and (h.a, h.b, h.c, h.d)[k] == a
                planes.append(h)
                t = F(d * den, a)
                for base in {math.floor(t), math.ceil(t)}:
                    for step in (-2, -1, 0, 1, 2):
                        row = [-3 * den + 5, 2 * den, -1]
                        row[k] = base + step
                        rows.append(row)
    pts = LatticePoints(np.array(rows, dtype=np.int64))
    for h in planes:
        signs = halfspace_signs(h, pts)
        picked = np.arange(0, len(pts), 3)
        assert (halfspace_signs(h, pts, picked) == signs[picked]).all()
        for i in range(len(pts)):
            p = pts.point(i)
            v = h.value(p)
            assert signs[i] == (v > 0) - (v < 0)
            assert (signs[i] <= 0) == h.contains(p)  # hull: a . x <= d
            assert (signs[i] < 0) == h.strictly_inside(p)  # obstacle: < d
    assert {int(v) for h in planes for v in halfspace_signs(h, pts)} == \
        {-1, 0, 1}


def test_axis_row_thresholds_beyond_int64():
    # planes far past the points: the floor and ceil thresholds are clamped
    # to one step past the points' range, so they fit int64
    den = LATTICE_DEN
    pts = LatticePoints(np.array([[-5 * den, 0, 7], [3, -(1 << 40), 9 * den]],
                                 dtype=np.int64))
    far = 1 << 80
    assert _cut(far + 1, 3, -pts.bound, pts.bound) == (pts.bound + 1,) * 2
    assert _cut(far + 1, -3, -pts.bound, pts.bound) == (-pts.bound - 1,) * 2
    assert _cut(-7, 3, -(1 << 40), 1 << 40) == (
        math.floor(F(-7 * den, 3)), math.ceil(F(-7 * den, 3)))
    for a in (1, -1, 2, -3):
        for d in (far + 1, -far - 1):
            for k in range(3):
                normal = [0, 0, 0]
                normal[k] = a
                h = Halfspace(normal, d)
                expect = [1 if h.value(pts.point(i)) > 0 else -1
                          for i in range(len(pts))]
                assert halfspace_signs(h, pts).tolist() == expect


def _sweeps_built(monkeypatch, trunk, box, orientation):
    """The region of the box in the trunk and the subset size of every
    ``_AxisSweep`` its describe stage built."""
    built = []
    real = freespace._AxisSweep

    def counting(num, subset):
        built.append(len(subset))
        return real(num, subset)

    monkeypatch.setattr(freespace, "_AxisSweep", counting)
    region = compute_feasible_region(trunk, box, orientation, samples=3000,
                                     seed=6)
    monkeypatch.undo()
    return region, built


def test_sweep_index_built_only_when_an_obstacle_meets_the_samples(
        monkeypatch):
    # the mesh cube's triangle obstacles only touch its eroded hull's
    # boundary: no sort index is built
    region, built = _sweeps_built(monkeypatch, cube_mesh(1000), BOX_B, "xyz")
    assert region.obstacles and built == []
    # the L-trunk's corner cavity reaches into the hull: one index, over
    # every sample inside the hull
    region, built = _sweeps_built(monkeypatch, l_trunk(), BOX_E, "xyz")
    assert len(region.obstacles) == 1 and built == [3000]


def test_flat_obstacle_forbids_nothing():
    hull = box_polytope((0, 0, 0), (10, 10, 10))
    flat = _degenerate_from_points([Point3(0, 0, 0), Point3(10, 0, 10),
                                    Point3(0, 10, 10)])
    pts = sample_lattice_points(hull.bbox(), 1000, seed=8)
    assert classify_feasible(pts, hull, [flat]).all()
    assert not any(flat.strictly_contains(pts.point(i)) for i in range(10))


def _count_obstacle_evaluations(monkeypatch, pts, hull, obstacles):
    """classify_feasible's mask and the number of (point, obstacle
    halfspace) sign evaluations it made."""
    hull_rows = {id(h) for h in hull.halfspaces}
    count = [0]

    def counting(h, pts, idx=None):
        signs = halfspace_signs(h, pts, idx)
        if id(h) not in hull_rows:
            count[0] += len(signs)
        return signs

    monkeypatch.setattr("trunkpack.freespace.halfspace_signs", counting)
    mask = classify_feasible(pts, hull, obstacles)
    monkeypatch.undo()
    return mask, count[0]


def test_classify_skips_obstacles_touching_only_the_boundary(monkeypatch):
    region = compute_feasible_region(cube_mesh(1000), BOX_B, "xyz",
                                     samples=2000, seed=2)
    assert region.obstacles
    pts = sample_lattice_points(region.hull.bbox(), 4000, seed=21)
    mask, evaluations = _count_obstacle_evaluations(
        monkeypatch, pts, region.hull, region.obstacles)
    assert mask.all()
    assert evaluations == 0


def test_classify_tests_cavity_only_on_its_bbox_candidates(monkeypatch):
    trunk = parse_convex_json(shell_json(
        (0, 0, 0), (400, 400, 400),
        cavities=[[(150, 150, 0), (250, 150, 0), (150, 250, 0), (250, 250, 0),
                   (150, 150, 400), (250, 150, 400), (150, 250, 400),
                   (250, 250, 400)]]))
    small = BoxType("S", (100, 100, 100), 1)
    region = compute_feasible_region(trunk, small, "xyz", samples=2000, seed=4)
    [cavity] = region.obstacles
    pts = sample_lattice_points(region.hull.bbox(), 4000, seed=31)
    lo, hi = cavity.bbox()
    candidates = sum(
        region.hull.contains(pts.point(i))
        and all(lo[k] < x < hi[k] for k, x in enumerate(pts.exact(i)))
        for i in range(len(pts)))
    mask, evaluations = _count_obstacle_evaluations(
        monkeypatch, pts, region.hull, region.obstacles)
    assert (mask == _brute_force_mask(pts, region.hull, [cavity])).all()
    assert 0 < candidates < len(pts)
    assert candidates <= evaluations <= candidates * len(cavity.halfspaces)


def test_region_seed_is_stable_and_distinct():
    s1 = region_seed(12345, "A", "xyz")
    assert s1 == region_seed(12345, "A", "xyz")
    assert s1 != region_seed(12345, "A", "zyx")
    assert s1 != region_seed(54321, "A", "xyz")


# ---------------------------------------------------------------------------
# interchange and report


def test_region_json_round_trip_byte_exact():
    hull = box_polytope((0, 0, 0), (100, 80, 60))
    obstacle = box_polytope((0, 0, 0), (30, 80, 60))
    region = describe_region(Region("B", "xzy", hull, [obstacle]),
                             samples=2000, seed=8)
    text = region_json(region)
    reloaded = region_from_dict(json.loads(text))
    assert reloaded.volume_mm3 == region.volume_mm3
    assert region_json(reloaded) == text
    assert reloaded.facet_count() == region.facet_count()
    assert {h.key() for h in reloaded.hull.halfspaces} == \
           {h.key() for h in region.hull.halfspaces}


def test_raw_region_json_round_trip():
    hull = box_polytope((0, 0, 0), (50, 50, 50))
    obstacle = box_polytope((40, 0, 0), (80, 50, 50))  # sticks out of hull
    raw = Region("C", "yzx", hull, [obstacle], fattened=False)
    text = region_json(raw)
    reloaded = region_from_dict(json.loads(text))
    assert reloaded.volume_mm3 is None
    assert region_json(reloaded) == text
    assert reloaded.obstacles[0].bbox() == ((40, 0, 0), (80, 50, 50))


def test_region_json_is_the_sorted_indented_dump():
    def dumped(region):
        return json.dumps(region_to_dict(region), sort_keys=True,
                          indent=1) + "\n"

    cavity = [(x, y, z) for x in (210, 800) for y in (0, 230)
              for z in (210, 1000)]
    l_trunk = parse_convex_json(shell_json((0, 0, 0), (800, 230, 1000),
                                           cavities=[cavity]))
    raw = raw_feasible_region(l_trunk, BOX_E, "zyx")
    feasible = describe_region(raw, samples=2000, seed=3)
    merged, _ = merge_obstacles(
        feasible, MergeParams(rng_seed=region_seed(DEFAULT_SEED, "E", "zyx")))
    simplified, _ = drop_facets(merged)
    mesh = compute_feasible_region(cube_mesh(1000, origin=(-40, 3, -900)),
                                   BOX_B, "yzx", samples=2000, seed=5)
    fattened = compute_feasible_region(
        parse_convex_json(shell_json((0, 0, 0), (458, 483, 610))), BOX_A,
        "zyx", samples=1000, seed=1)
    free = compute_feasible_region(
        parse_convex_json(shell_json((-7, 0, 0), (900, 700, 800))), BOX_A,
        "xyz", samples=1000, seed=2)
    regions = [raw, feasible, simplified, mesh, fattened, free]
    assert fattened.fattened and not free.obstacles and mesh.obstacles
    assert raw.volume_mm3 is None and simplified.volume_mm3 is not None
    for region in regions:
        assert region_json(region) == dumped(region)
    assert region_json(None, "A", "xyz") == json.dumps(
        {"box": "A", "orientation": "xyz", "empty": True}, sort_keys=True,
        indent=1) + "\n"


def test_repeated_obstacles_decode_once_each(monkeypatch):
    hull = box_polytope((0, 0, 0), (100, 80, 60))
    shapes = [box_polytope((0, 0, 0), (30, 80, 60)),
              convex_hull([(F(1, 2), 0, 0), (20, 0, 0), (0, 20, 0),
                           (0, 0, F(40, 3))]),
              box_polytope((70, 0, 0), (100, 10, 60))]
    order = [0, 1, 0, 2, 1, 1, 0, 2]
    region = describe_region(
        Region("B", "xzy", hull, [shapes[k] for k in order]),
        samples=500, seed=3)
    text = region_json(region)
    obj = json.loads(text)
    calls = []

    def counted(rows, id=None, _real=freespace._polytope_from_rows):
        calls.append(1)
        return _real(rows, id=id)

    monkeypatch.setattr(freespace, "_polytope_from_rows", counted)
    reloaded = region_from_dict(obj)
    # the hull and each distinct obstacle are enumerated once
    assert len(calls) == 1 + len(shapes)
    assert region_json(reloaded) == text
    assert [o.id for o in reloaded.obstacles] == \
           [f"o{i}" for i in range(len(order))]
    for i, (got, stored) in enumerate(zip(reloaded.obstacles,
                                          obj["obstacles"])):
        # a decode with nothing remembered from the other obstacles
        alone = freespace._polytope_from_halfspaces(stored, f"o{i}", {})
        assert [h.key() for h in got.halfspaces] == \
               [h.key() for h in alone.halfspaces]
        assert got.vertices == alone.vertices
        assert got.volume() == alone.volume()
    first = reloaded.obstacles[0]
    assert reloaded.obstacles[2].vertices is first.vertices
    assert reloaded.obstacles[2] is not first


def test_boundedness_checked_once_per_normal_set(monkeypatch):
    # boxes of three sizes share the six axis normals, and a tetrahedron and
    # its translate share four: two normal sets over five distinct row lists
    tet = [(0, 0, 0), (20, 0, 0), (0, 20, 0), (0, 0, 20)]
    shapes = [box_polytope((0, 0, 0), (30, 80, 60)),
              convex_hull(tet),
              box_polytope((70, 0, 0), (100, 10, 60)),
              convex_hull([(x + 50, y + 10, z + 5) for x, y, z in tet]),
              box_polytope((0, 0, 0), (30, 80, 60))]
    hull = box_polytope((0, 0, 0), (100, 80, 60))
    obj = region_to_dict(Region("B", "xzy", hull, shapes))
    stored = [obj["hull"]] + obj["obstacles"]
    normal_sets = {frozenset(tuple(h["n"]) for h in p["halfspaces"])
                   for p in stored}
    assert len(normal_sets) == 2
    calls = []

    def counted(rows, _real=freespace.halfspaces_bounded):
        calls.append(1)
        return _real(rows)

    monkeypatch.setattr(freespace, "halfspaces_bounded", counted)
    reloaded = region_from_dict(obj)
    assert len(calls) == len(normal_sets)
    assert region_json(reloaded) == region_json(Region(
        "B", "xzy", hull, shapes))
    # a flat box shares the axis normals with the good boxes before it, and
    # is still refused at its own index
    flat = {"halfspaces": [dict(h, d=-10) if h["n"] == [-1, 0, 0]
                           else dict(h, d=10) if h["n"] == [1, 0, 0] else h
                           for h in obj["obstacles"][0]["halfspaces"]]}
    bad = dict(obj, obstacles=obj["obstacles"] + [flat])
    with pytest.raises(GeometryError, match="'o5' is empty or flat"):
        region_from_dict(bad)


def test_empty_region_marker():
    text = region_json(None, box_id="A", orientation="xyz")
    assert json.loads(text) == {"box": "A", "orientation": "xyz", "empty": True}
    assert region_from_dict(json.loads(text)) is None


def test_region_report_layout():
    hull = box_polytope((0, 0, 0), (200, 100, 100))
    r1 = describe_region(Region("A", "xyz", hull, []), samples=1000, seed=1)
    r2 = describe_region(Region("A", "zyx", hull, []), samples=1000, seed=1)
    rows = region_report_rows([r1, r2])
    text = format_region_report(rows, ("zyx", "zxy", "yzx", "xzy", "yxz", "xyz"))
    assert "box A" in text
    assert "volume [dm3]" in text
    assert "facets [10^3]" in text
    # canonical column order puts zyx before xyz
    assert text.index("zyx") < text.index("xyz")


def test_enlarged_hull_margin_at_least_1mm():
    hull = box_polytope((0, 0, 0), (10, 10, 10))
    margin = enlarged_hull(hull)
    assert margin.bbox() == ((-1, -1, -1), (11, 11, 11))
    oblique = ConvexPolytope(
        [Halfspace((1, 1, 1), 3), Halfspace((-1, 0, 0), 0),
         Halfspace((0, -1, 0), 0), Halfspace((0, 0, -1), 0)],
        [Point3(0, 0, 0), Point3(3, 0, 0), Point3(0, 3, 0), Point3(0, 0, 3)])
    grown = enlarged_hull(oblique)
    # the oblique face moves out by 3/|n| = sqrt(3) mm >= 1
    assert grown.support((1, 1, 1)) == 6


def _subdivided_cube_mesh(edge, cells, offset=(0, 0, 0)):
    """A cube mesh whose faces are cut into cells x cells squares of two
    triangles each, moved by ``offset``."""
    step = F(edge, cells)
    tris = []
    for axis in range(3):
        u, v = [k for k in range(3) if k != axis]
        for side in (0, edge):
            def at(i, j):
                p = [0, 0, 0]
                p[axis], p[u], p[v] = side, i * step, j * step
                return Point3(*(c + t for c, t in zip(p, offset)))
            for i in range(cells):
                for j in range(cells):
                    tris.append(Triangle3(at(i, j), at(i + 1, j),
                                          at(i + 1, j + 1)))
                    tris.append(Triangle3(at(i, j), at(i + 1, j + 1),
                                          at(i, j + 1)))
    return MeshTrunk(tris, Point3(*(edge // 2 + t for t in offset)))


def _triangle_sources(mesh):
    return [_degenerate_from_points(list(tri.vertices()))
            for tri in mesh.triangles]


def _as_ints(p):
    return ([h.key() for h in p.halfspaces], [v._h for v in p.vertices],
            [[q._h for q in tri] for tri in p._triangles], p.degenerate)


@pytest.mark.parametrize("offset", [(0, 0, 0), (F(1, 2), F(-7, 2), F(5, 2))],
                         ids=["origin", "half-integer"])
def test_translated_sums_equal_their_own_hulls(monkeypatch, offset):
    # 768 triangles on a grid of 87.5 mm cells: per axis, translates of the
    # two halves of one cell
    sources = _triangle_sources(_subdivided_cube_mesh(700, 8, offset))
    box = inverted_box(BOX_A, "xyz")
    built = []

    def counted(p, q, id=None, _real=minkowski_sum_convex):
        built.append(id)
        return _real(p, q, id=id)

    monkeypatch.setattr(geometry, "minkowski_sum_convex", counted)
    ids = [f"o{i}" for i in range(len(sources))]
    sums = minkowski_sums(sources, box, ids)
    assert len(sources) == 768 and len(built) == 6
    for src, got, id in zip(sources, sums, ids):
        want = minkowski_sum_convex(src, box, id=id)
        assert got.id == id
        assert _as_ints(got) == _as_ints(want)
        assert got.volume() == want.volume()


def test_a_tampered_offset_fails_the_sum_self_check(monkeypatch):
    sources = _triangle_sources(_subdivided_cube_mesh(700, 2))
    real = ConvexPolytope.translated
    nudge = Point3(0, 0, F(1, 1024))
    monkeypatch.setattr(ConvexPolytope, "translated",
                        lambda self, t, id=None: real(self, t + nudge, id))
    with pytest.raises(GeometryError, match="self-check"):
        minkowski_sums(sources, inverted_box(BOX_A, "xyz"),
                       [f"o{i}" for i in range(len(sources))])


@pytest.mark.parametrize("case", ["mesh-cube", "l-trunk", "slanted"])
def test_clips_on_cutting_rows_equal_clips_on_all_rows(case):
    # the 8 x 8 mesh cube (half-integer cells), the L-trunk's cavity, and a
    # slanted hull whose cavity reaches past the margin
    if case == "mesh-cube":
        raw = raw_feasible_region(_subdivided_cube_mesh(700, 8), BOX_A, "xyz")
    elif case == "l-trunk":
        raw = raw_feasible_region(l_trunk(), BOX_E, "xyz")
    else:
        rng = random.Random(7)
        shell = convex_hull([(rng.randint(0, 1200), rng.randint(0, 1200),
                              rng.randint(0, 1200)) for _ in range(40)])
        cavity = [v for v in shell.vertices[:6]] + [Point3(600, 600, 600)]
        raw = raw_feasible_region(ConvexTrunk(shell, [convex_hull(cavity)]),
                                  BOX_E, "xyz")
    margin = enlarged_hull(raw.hull)
    kinds = set()
    for obs in raw.obstacles:
        rows = cutting_rows(obs.halfspaces, margin)
        got = clip_obstacle(rows, margin, id="c")
        want = clip_obstacle(obs.halfspaces, margin, id="c")
        assert (got is None) == (want is None)
        if got is None:
            kinds.add("empty")
            continue
        assert got.degenerate == want.degenerate
        assert [v._h for v in got.vertices] == [v._h for v in want.vertices]
        assert [h.key() for h in got.halfspaces] == \
            [h.key() for h in want.halfspaces]
        kinds.add("flat" if got.degenerate
                  else "cut" if len(rows) < len(obs.halfspaces) else "all")
    assert "cut" in kinds
