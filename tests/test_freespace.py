"""Tests for feasible-region construction.

Oracles: erosion of axis boxes reduces to interval arithmetic per axis, so
expected hulls are written out by hand.  Sampling-based estimates are
compared against closed-form volumes within 3 standard errors.  Mesh parity
is checked against hand-placed inside/outside/on-surface points.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from trunkpack.catalog import FULL_CATALOG, BoxType, oriented_extents
from trunkpack.freespace import (
    ConvexTrunk,
    DegenerateTrunk,
    FeasibleRegion,
    MeshTrunk,
    RawRegion,
    TrunkFormatError,
    classify_feasible,
    compute_feasible_region,
    describe_region,
    enlarged_hull,
    erode_hull,
    format_region_report,
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
    Halfspace,
    Point3,
    Triangle3,
    _affine_rank,
    _degenerate_from_points,
    axis_aligned_box,
    fm_feasible,
    minkowski_sum_convex,
    support,
    volume,
)

F = Fraction

BOX_A = next(b for b in FULL_CATALOG if b.id == "A")
BOX_B = next(b for b in FULL_CATALOG if b.id == "B")
BOX_E = next(b for b in FULL_CATALOG if b.id == "E")


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
    assert volume(b) == BOX_A.volume_mm3()
    negated = {Point3(-v.x, -v.y, -v.z) for v in b.vertices}
    assert negated == set(b.vertices)


def test_minkowski_triangle_box_support():
    tri = _degenerate_from_points(
        [Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0)], 2)
    box = box_polytope((-1, -1, -1), (1, 1, 1))
    s = minkowski_sum_convex(box, tri)
    assert support(s, (1, 0, 0)) == 2


def test_erode_box_by_box_interval_arithmetic():
    outer = box_polytope((0, 0, 0), (1000, 600, 500))
    eroded = erode_hull(outer, inverted_box(BOX_A, "xyz"))
    assert not eroded.degenerate
    assert eroded.bbox() == ((305, F(483, 2), F(229, 2)),
                             (695, F(717, 2), F(771, 2)))
    assert volume(eroded) == 390 * 117 * 271


def test_erode_by_point_is_identity():
    outer = box_polytope((0, 0, 0), (7, 5, 3))
    point = _degenerate_from_points([Point3(0, 0, 0)], 0)
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
    raw = RawRegion("X", "xyz", hull, [obstacle])
    region = describe_region(raw, samples=50000, seed=7)
    est = region.volume_mm3
    stderr = region.volume_stderr_mm3
    assert abs(est - 500.0) <= 3 * stderr
    assert region.facet_count() == 6 + 6


def test_region_without_obstacles_matches_hull_volume():
    hull = box_polytope((0, 0, 0), (40, 30, 20))
    region = describe_region(RawRegion("X", "xyz", hull, []),
                             samples=20000, seed=3)
    # bbox equals hull here, so every sample hits: exact agreement
    assert region.volume_mm3 == pytest.approx(24000.0)
    assert region.volume_stderr_mm3 == 0.0


def test_obstacles_outside_hull_are_discarded():
    hull = box_polytope((0, 0, 0), (100, 100, 100))
    far = box_polytope((500, 500, 500), (600, 600, 600))
    touching = box_polytope((100, 0, 0), (150, 100, 100))
    inside = box_polytope((10, 10, 10), (90, 90, 90))
    raw = RawRegion("X", "xyz", hull, [far, touching, inside])
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


def test_mesh_soundness_no_violations_on_cube():
    trunk = cube_mesh(1000)
    region = compute_feasible_region(trunk, BOX_B, "xyz", samples=4000, seed=2)
    pts = sample_lattice_points(region.hull.bbox(), 4000, seed=21)
    mask = classify_feasible(pts, region.hull, region.obstacles)
    feas = pts.subset(mask)
    stats = soundness_check_mesh(trunk, feas, BOX_B, "xyz")
    assert stats["checked"] == int(mask.sum()) > 0
    assert stats["violations"] == 0


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
        assert abs(float(x) - pts.coords[idx, 0]) < 1e-9


def test_lattice_sampling_deterministic():
    bbox = ((0, 0, 0), (10, 10, 10))
    a = sample_lattice_points(bbox, 100, seed=5)
    b = sample_lattice_points(bbox, 100, seed=5)
    assert (a.num == b.num).all()
    c = sample_lattice_points(bbox, 100, seed=6)
    assert (a.num != c.num).any()


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
    region = describe_region(RawRegion("B", "xzy", hull, [obstacle]),
                             samples=2000, seed=8)
    text = region_json(region)
    reloaded = region_from_dict(json.loads(text))
    assert isinstance(reloaded, FeasibleRegion)
    assert region_json(reloaded) == text
    assert reloaded.facet_count() == region.facet_count()
    assert {h.key() for h in reloaded.hull.halfspaces} == \
           {h.key() for h in region.hull.halfspaces}


def test_raw_region_json_round_trip():
    hull = box_polytope((0, 0, 0), (50, 50, 50))
    obstacle = box_polytope((40, 0, 0), (80, 50, 50))  # sticks out of hull
    raw = RawRegion("C", "yzx", hull, [obstacle], fattened=False)
    text = region_json(raw)
    reloaded = region_from_dict(json.loads(text))
    assert isinstance(reloaded, RawRegion)
    assert region_json(reloaded) == text
    assert reloaded.obstacles[0].bbox() == ((40, 0, 0), (80, 50, 50))


def test_empty_region_marker():
    text = region_json(None, box_id="A", orientation="xyz")
    assert json.loads(text) == {"box": "A", "orientation": "xyz", "empty": True}
    assert region_from_dict(json.loads(text)) is None


def test_region_report_layout():
    hull = box_polytope((0, 0, 0), (200, 100, 100))
    r1 = describe_region(RawRegion("A", "xyz", hull, []), samples=1000, seed=1)
    r2 = describe_region(RawRegion("A", "zyx", hull, []), samples=1000, seed=1)
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
    assert support(grown, (1, 1, 1)) == 6
