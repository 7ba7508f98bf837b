"""Unit tests for the exact geometry core.

Expected values below are either worked out by hand (cube/simplex volumes,
support values, plane coefficients) or checked against an independent
identity (support additivity under Minkowski sums, hull invariance under
interior points).  Everything is exact, so comparisons use == on Fractions.
"""

import math
import random
from fractions import Fraction

import pytest

from trunkpack import geometry
from trunkpack.geometry import (
    ConvexPolytope,
    DegenerateInput,
    GeometryError,
    Halfspace,
    Point3,
    ZeroDirection,
    _polytope_from_rows,
    _row_vertices,
    axis_aligned_box,
    convex_hull,
    cutting_rows,
    fm_feasible,
    intersect_halfspaces,
    minkowski_sum_convex,
    polytopes_touch,
    to_fraction,
)

F = Fraction


# ---------------------------------------------------------------------------
# scalar coercion


def test_to_fraction_float_uses_decimal_reading():
    assert to_fraction(241.5) == F(483, 2)
    assert to_fraction(0.1) == F(1, 10)
    assert to_fraction(-2.75) == F(-11, 4)


def test_to_fraction_strings():
    assert to_fraction("3/4") == F(3, 4)
    assert to_fraction("1.5") == F(3, 2)
    assert to_fraction("2.5e2") == F(250)


def test_to_fraction_rejects_bool():
    with pytest.raises(TypeError):
        to_fraction(True)


@pytest.mark.parametrize("bad", ["abc", "1/0", "inf", "-Infinity", "nan", "",
                                 float("inf"), float("-inf"), float("nan")])
def test_to_fraction_rejects_non_finite_or_malformed(bad):
    with pytest.raises(ValueError):
        to_fraction(bad)


# ---------------------------------------------------------------------------
# halfspaces


def test_halfspace_canonical_integers():
    h = Halfspace((F(1, 2), F(1, 3), 0), F(5, 6))
    # multiply by 6 -> (3, 2, 0, 5), already coprime
    assert (h.a, h.b, h.c, h.d) == (3, 2, 0, 5)


def test_halfspace_proportional_forms_compare_equal():
    h1 = Halfspace((2, 4, 6), 8)
    h2 = Halfspace((1, 2, 3), 4)
    h3 = Halfspace((F(1, 2), 1, F(3, 2)), 2)
    assert h1 == h2 == h3
    assert len({h1, h2, h3}) == 1
    # opposite direction is a different halfspace
    assert Halfspace((-1, -2, -3), -4) != h1


def test_halfspace_membership_and_value():
    h = Halfspace((1, 0, 0), 2)
    assert h.contains(Point3(2, 5, -1))
    assert not h.strictly_inside(Point3(2, 5, -1))
    assert h.strictly_inside(Point3(F(199, 100), 0, 0))
    assert not h.contains(Point3(F(201, 100), 0, 0))
    assert h.value(Point3(3, 0, 0)) == 1
    assert h.value(Point3(F(3, 2), 0, 0)) == F(-1, 2)


def test_halfspace_dict_round_trip():
    h = Halfspace((3, -2, 7), -11)
    assert Halfspace.from_dict(h.as_dict()) == h
    assert h.as_dict() == {"n": [3, -2, 7], "d": -11}


def test_halfspace_shifted_moves_boundary():
    h = Halfspace((0, 0, 2), 4)  # canonical form z <= 2
    g = h.shifted(F(-1, 2))  # shift applies to the canonical normal: z <= 3/2
    assert g.contains(Point3(0, 0, F(3, 2)))
    assert not g.contains(Point3(0, 0, F(31, 20)))


def test_halfspace_zero_normal_rejected():
    with pytest.raises(GeometryError):
        Halfspace((0, 0, 0), 1)


def test_integer_input_builds_no_fraction(monkeypatch):
    # the integer rows of a region file and integer coordinates skip
    # to_fraction, with the same canonical result as Fraction input
    calls = []

    def counted(value, _real=geometry.to_fraction):
        calls.append(value)
        return _real(value)

    monkeypatch.setattr(geometry, "to_fraction", counted)
    h = Halfspace((2, -4, 6), 8)
    p = Point3(-3, 0, 12)
    assert calls == []
    assert h.key() == (1, -2, 3, 4) and p._h == (-3, 0, 12, 1)
    assert h == Halfspace((F(1, 2), -1, F(3, 2)), F(2))
    assert p == Point3(F(-6, 2), 0.0, "12")
    assert calls  # the mixed inputs did go through to_fraction


@pytest.mark.parametrize("build", [
    lambda: Point3(True, 0, 0),
    lambda: Point3(1, 2, False),
    lambda: Halfspace((1, 0, 0), True),
    lambda: Halfspace((True, 0, 0), 1),
])
def test_bool_coordinates_still_rejected(build):
    with pytest.raises(TypeError):
        build()


# ---------------------------------------------------------------------------
# convex hull


def unit_cube():
    return axis_aligned_box((0, 0, 0), (1, 1, 1))


def test_unit_cube_hull_shape():
    cube = unit_cube()
    assert len(cube.halfspaces) == 6
    assert len(cube.vertices) == 8
    assert cube.volume() == 1
    keys = {h.key() for h in cube.halfspaces}
    assert keys == {
        (1, 0, 0, 1), (-1, 0, 0, 0),
        (0, 1, 0, 1), (0, -1, 0, 0),
        (0, 0, 1, 1), (0, 0, -1, 0),
    }


def test_hull_discards_interior_and_boundary_points():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
           (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1),
           (F(1, 2), F(1, 2), F(1, 2)),   # interior
           (F(1, 2), F(1, 2), 0),         # facet interior
           (F(1, 2), 0, 0)]               # edge interior
    hull = convex_hull(pts)
    assert len(hull.vertices) == 8
    assert hull.volume() == 1
    assert all(v.x in (0, 1) and v.y in (0, 1) and v.z in (0, 1)
               for v in hull.vertices)


def test_hull_insertion_order_invariance():
    base = [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 5), (2, 3, 5),
            (2, 3, 0), (2, 0, 5), (0, 3, 5), (1, 1, 1)]
    rng = random.Random(7)
    ref = convex_hull(base)
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        h = convex_hull(shuffled)
        assert {hs.key() for hs in h.halfspaces} == {hs.key() for hs in ref.halfspaces}
        assert set(h.vertices) == set(ref.vertices)
        assert h.volume() == ref.volume()


def test_hull_coplanar_input_raises():
    with pytest.raises(DegenerateInput):
        convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0)])


def _brute_force_vertices(pts):
    """Vertices of the hull of integer points, from first principles: the
    points on three or more supporting planes whose normals span 3-space.
    A supporting plane passes through three non-collinear points and has
    every point on one side."""
    pts = sorted(set(pts))

    def sub(p, q):
        return tuple(a - b for a, b in zip(p, q))

    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0])

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    normals = set()
    n_pts = len(pts)
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            for k in range(j + 1, n_pts):
                nrm = cross(sub(pts[j], pts[i]), sub(pts[k], pts[i]))
                if nrm == (0, 0, 0):
                    continue
                sides = {(dot(nrm, sub(p, pts[i])) > 0)
                         - (dot(nrm, sub(p, pts[i])) < 0) for p in pts}
                if sides <= {0, 1}:
                    nrm = tuple(-c for c in nrm)
                elif not sides <= {0, -1}:
                    continue
                normals.add((nrm, dot(nrm, pts[i])))
    verts = []
    for p in pts:
        on = [nrm for (nrm, d) in normals if dot(nrm, p) == d]
        if any(dot(cross(a, b), c) for a in on for b in on for c in on):
            verts.append(Point3(*p))
    return verts


def _random_cloud(rng):
    """Integer points on and in a small box: most of its corners, points on
    its edges and faces (collinear and coplanar boundary points), interior
    points, and repeats."""
    hi = [rng.randint(2, 6) for _ in range(3)]
    pts = []
    for _ in range(rng.randint(4, 14)):
        p = [rng.randint(0, h) for h in hi]
        for axis in rng.sample(range(3), rng.randint(0, 3)):
            p[axis] = rng.choice((0, hi[axis]))
        pts.append(tuple(p))
    pts += [(x, y, z) for x in (0, hi[0]) for y in (0, hi[1])
            for z in (0, hi[2]) if rng.random() < 0.6]
    pts += rng.sample(pts, 3)
    return pts


def test_hull_vertices_match_brute_force():
    rng = random.Random(31)
    # non-vertex points by the number of hull facets they lie on: 0 for
    # interior points, 1 in a facet, 2 in an edge
    on_facets = set()
    for _ in range(40):
        pts = _random_cloud(rng)
        hull = convex_hull(pts)
        expect = _brute_force_vertices(pts)
        assert hull.vertices == sorted(expect, key=lambda p: (p.x, p.y, p.z))
        for p in {Point3(*p) for p in pts} - set(hull.vertices):
            on_facets.add(sum(h.value(p) == 0 for h in hull.halfspaces))
    assert on_facets == {0, 1, 2}


@pytest.mark.parametrize("rows, expect", [
    # the unit cube cut by x + y + z <= 0: its corner at the origin
    ([((1, 1, 1), 0)], [(0, 0, 0)]),
    # cut by x + y >= 2: the edge x = y = 1
    ([((-1, -1, 0), -2)], [(1, 1, 0), (1, 1, 1)]),
    # squeezed onto the plane x + y + z = 1: a triangle
    ([((1, 1, 1), 1), ((-1, -1, -1), -1)], [(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
    # squeezed onto x = z: a rectangle
    ([((1, 0, -1), 0), ((-1, 0, 1), 0)],
     [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)]),
])
def test_flat_intersections_are_points_segments_polygons(rows, expect):
    hs = [Halfspace(n, d) for n, d in rows] + unit_cube().halfspaces
    flat = _polytope_from_rows(hs)
    assert flat.degenerate and flat.halfspaces == [] and flat.volume() == 0
    assert flat.vertices == [Point3(*v) for v in expect]


def test_hull_fractional_coordinates_exact():
    # tetrahedron scaled by 1/3: volume (1/6)*(1/27)
    s = F(1, 3)
    hull = convex_hull([(0, 0, 0), (s, 0, 0), (0, s, 0), (0, 0, s)])
    assert hull.volume() == F(1, 6) / 27


def test_simplex_volume():
    hull = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert hull.volume() == F(1, 6)
    assert len(hull.halfspaces) == 4
    assert Halfspace((1, 1, 1), 1) in hull.halfspaces


def test_volume_sums_determinants_over_one_denominator():
    # the per-triangle Fraction sum the volume used to be built from
    rng = random.Random(31)
    dens = (1, 2, 3, 5, 7, 12, 1024)
    for _ in range(12):
        pts = [tuple(F(rng.randint(-40, 40), rng.choice(dens))
                     for _ in range(3)) for _ in range(rng.randint(6, 24))]
        hull = convex_hull(pts)
        expect = Fraction(0)
        for (pa, pb, pc) in hull._triangles:
            expect += (pa.x * (pb.y * pc.z - pb.z * pc.y)
                       - pa.y * (pb.x * pc.z - pb.z * pc.x)
                       + pa.z * (pb.x * pc.y - pb.y * pc.x))
        assert len({p._h[3] for t in hull._triangles for p in t}) > 1
        assert hull.volume() == expect / 6 > 0


def test_hull_of_two_cubes():
    # cubes [0,1]^3 and [2,0..1,0..1] union hull = box [0,3]x[0,1]x[0,1]
    pts = ([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
           + [(x, y, z) for x in (2, 3) for y in (0, 1) for z in (0, 1)])
    hull = convex_hull(pts)
    assert hull.volume() == 3
    assert len(hull.vertices) == 8


def test_axis_aligned_box_rejects_flat():
    with pytest.raises(DegenerateInput):
        axis_aligned_box((0, 0, 0), (1, 1, 0))


def test_hull_closed_oriented_surface():
    # every directed edge of the triangulated boundary appears exactly once
    rng = random.Random(99)
    pts = [(F(rng.randint(-50, 50), rng.randint(1, 4)),
            F(rng.randint(-50, 50), rng.randint(1, 4)),
            F(rng.randint(-50, 50), rng.randint(1, 4))) for _ in range(40)]
    hull = convex_hull(pts)
    seen = {}
    for (a, b, c) in hull._triangles:
        for (u, v) in ((a, b), (b, c), (c, a)):
            key = (u.astuple(), v.astuple())
            seen[key] = seen.get(key, 0) + 1
    for (u, v), count in seen.items():
        assert count == 1
        assert seen.get((v, u)) == 1


def _reference_hull(points):
    """The hull kernel as it was before its tests moved to integer
    coordinates over one denominator: every plane reduced by its gcd as it
    is made, every point tested in its own homogeneous coordinates.
    Returns (halfspace keys, vertex quadruples, triangle quadruples)."""
    pts = list(dict.fromkeys(geometry._as_point(raw) for raw in points))
    H = [p._h for p in pts]
    i0, i1, i2, i3 = geometry._affine_basis(H)
    rx, ry, rz, rw = (pts[i0] + pts[i1] + pts[i2] + pts[i3])._h
    ref = (rx, ry, rz, 4 * rw)

    def oriented(a, b, c):
        pl = geometry._plane_ints(H[a], H[b], H[c])
        if geometry._plane_eval(pl, ref) > 0:
            return (a, c, b, (-pl[0], -pl[1], -pl[2], -pl[3]))
        return (a, b, c, pl)

    facets = [oriented(i0, i1, i2), oriented(i0, i1, i3),
              oriented(i0, i2, i3), oriented(i1, i2, i3)]
    for k in range(len(pts)):
        if k in (i0, i1, i2, i3):
            continue
        visible = [f for f in facets if geometry._plane_eval(f[3], H[k]) > 0]
        if not visible:
            continue
        facets = [f for f in facets if f not in visible]
        edges = {e for (a, b, c, _pl) in visible
                 for e in ((a, b), (b, c), (c, a))}
        for (u, v) in sorted(e for e in edges if e[::-1] not in edges):
            facets.append(oriented(u, v, k))
    point_planes = {}
    for (a, b, c, pl) in facets:
        for idx in (a, b, c):
            point_planes.setdefault(idx, set()).add(pl)
    vertices = geometry._sorted_points(
        pts[i] for i, pls in point_planes.items() if len(pls) >= 3)
    return (sorted({pl for (_a, _b, _c, pl) in facets}),
            [v._h for v in vertices],
            [(H[a], H[b], H[c]) for (a, b, c, _pl) in facets])


def _hull_cases():
    """Seeded point sets: integer and half-integer clouds (small ranges,
    so many points lie on shared facet planes), integer grids whose facets
    are all coplanar triangle pairs, and the 24 points of a triangle plus
    the corners of a box, the raw obstacles of a mesh trunk."""
    rng = random.Random(2023)
    cases = []
    for unit in (1, F(1, 2)):
        for _ in range(12):
            span = rng.randint(2, 6)
            cases.append([tuple(unit * rng.randint(-span, span)
                                for _ in range(3))
                          for _ in range(rng.randint(5, 40))])
        for _ in range(3):
            size = [rng.randint(1, 3) for _ in range(3)]
            cases.append([(unit * x, unit * y, unit * z)
                          for x in range(size[0] + 1)
                          for y in range(size[1] + 1)
                          for z in range(size[2] + 1)])
    for _ in range(12):
        unit = rng.choice((1, F(1, 2)))
        tri = [[unit * rng.randint(-20, 20) for _ in range(3)]
               for _ in range(3)]
        if rng.random() < 0.5:  # a triangle in an axis plane
            for corner in tri:
                corner[2] = tri[0][2]
        half = [F(rng.randint(1, 40), 2) for _ in range(3)]
        cases.append([tuple(c + s * h for c, s, h in zip(corner, signs, half))
                      for corner in tri
                      for signs in [(sx, sy, sz) for sx in (-1, 1)
                                    for sy in (-1, 1) for sz in (-1, 1)]])
    return cases


def test_hull_matches_the_reduce_as_you_go_kernel():
    coplanar_facets = 0
    for k, points in enumerate(_hull_cases()):
        expect = _reference_hull(points)
        hull = convex_hull(points)
        assert [h.key() for h in hull.halfspaces] == expect[0], k
        assert [v._h for v in hull.vertices] == expect[1], k
        assert [tuple(p._h for p in t) for t in hull._triangles] == expect[2], k
        coplanar_facets += len(hull._triangles) > len(hull.halfspaces)
    # most hulls have a facet made of several coplanar triangles
    assert coplanar_facets > 30


# ---------------------------------------------------------------------------
# support function


def test_cube_support_oracle():
    cube = axis_aligned_box((-1, -2, -3), (4, 5, 6))
    assert cube.support((1, 0, 0)) == 4
    assert cube.support((-1, 0, 0)) == 1
    assert cube.support((0, 1, 0)) == 5
    assert cube.support((0, -1, 0)) == 2
    assert cube.support((0, 0, 1)) == 6
    assert cube.support((0, 0, -1)) == 3
    assert cube.support((1, 1, 1)) == 15
    assert cube.support((-2, 1, -1)) == 2 + 5 + 3


def test_support_zero_direction_raises():
    with pytest.raises(ZeroDirection):
        unit_cube().support((0, 0, 0))


# ---------------------------------------------------------------------------
# Minkowski sums


def test_minkowski_cube_cube():
    a = axis_aligned_box((0, 0, 0), (1, 2, 3))
    b = axis_aligned_box((0, 0, 0), (4, 5, 6))
    s = minkowski_sum_convex(a, b)
    assert s.volume() == 5 * 7 * 9
    assert s.bbox() == ((0, 0, 0), (5, 7, 9))


def test_minkowski_with_point_translates():
    cube = unit_cube()
    # a single point as a degenerate intersection
    point = intersect_halfspaces(
        [Halfspace((1, 0, 0), 2), Halfspace((-1, 0, 0), -2),
         Halfspace((0, 1, 0), 3), Halfspace((0, -1, 0), -3),
         Halfspace((0, 0, 1), 4), Halfspace((0, 0, -1), -4)],
        axis_aligned_box((-10, -10, -10), (10, 10, 10)))
    assert point.degenerate
    assert point.vertices == [Point3(2, 3, 4)]
    moved = minkowski_sum_convex(cube, point)
    assert moved.volume() == 1
    assert moved.bbox() == ((2, 3, 4), (3, 4, 5))


def test_minkowski_tetra_segment():
    tetra = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    segment = intersect_halfspaces(
        [Halfspace((1, 0, 0), 0), Halfspace((-1, 0, 0), 0),
         Halfspace((0, 1, 0), 0), Halfspace((0, -1, 0), 0)],
        axis_aligned_box((-1, -1, 0), (1, 1, 2)))
    assert segment.degenerate
    assert set(segment.vertices) == {Point3(0, 0, 0), Point3(0, 0, 2)}
    prism = minkowski_sum_convex(tetra, segment)
    # volume = tetra swept by length 2 along z: integral of slice areas
    # slice area of tetra at height t is (1-t)^2/2, sweep adds prism volume
    # exact value: V(tetra) + 2 * area(shadow in z) = 1/6 + 2 * 1/2
    assert prism.volume() == F(1, 6) + 1


def test_support_additivity_random():
    rng = random.Random(20260825)
    for _ in range(20):
        pa = [(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
              for _ in range(8)]
        pb = [(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
              for _ in range(8)]
        try:
            a = convex_hull(pa)
            b = convex_hull(pb)
        except DegenerateInput:
            continue
        s = minkowski_sum_convex(a, b)
        for _ in range(20):
            d = (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            if d == (0, 0, 0):
                continue
            assert s.support(d) == a.support(d) + b.support(d)


# ---------------------------------------------------------------------------
# halfspace intersection


def test_intersect_cuts_cube_in_half():
    half = intersect_halfspaces([Halfspace((1, 0, 0), F(1, 2))], unit_cube())
    assert not half.degenerate
    assert half.volume() == F(1, 2)
    assert half.bbox() == ((0, 0, 0), (F(1, 2), 1, 1))


def test_intersect_empty_returns_none():
    assert intersect_halfspaces([Halfspace((1, 0, 0), -1)], unit_cube()) is None


def test_intersect_flat_returns_degenerate_polygon():
    flat = intersect_halfspaces([Halfspace((1, 0, 0), 0)], unit_cube())
    assert flat.degenerate
    assert flat.volume() == 0
    assert set(flat.vertices) == {
        Point3(0, 0, 0), Point3(0, 1, 0), Point3(0, 0, 1), Point3(0, 1, 1)}


def test_intersect_single_vertex_degenerate():
    corner = intersect_halfspaces(
        [Halfspace((-1, 0, 0), -1), Halfspace((0, -1, 0), -1),
         Halfspace((0, 0, -1), -1)],
        unit_cube())
    assert corner.degenerate
    assert corner.vertices == [Point3(1, 1, 1)]


def test_intersect_oblique_corner_cut():
    # slice off the corner of the unit cube at x+y+z <= 1/2
    cut = intersect_halfspaces([Halfspace((1, 1, 1), F(1, 2))], unit_cube())
    assert cut.volume() == F(1, 6) * F(1, 8)


def test_intersect_redundant_halfspaces_removed():
    poly = intersect_halfspaces(
        [Halfspace((1, 0, 0), 5), Halfspace((2, 0, 0), 20)], unit_cube())
    assert poly.volume() == 1
    assert len(poly.halfspaces) == 6


def test_parallel_rows_keep_the_tightest_whatever_their_scale():
    # 2x <= 1 and 3x <= 2 are tighter than x <= 1 though their offsets are
    # not smaller, and 4x <= 3 is looser than 2x <= 1 with a larger scale
    cube = unit_cube().halfspaces
    for extra, tight_x in [([Halfspace((2, 0, 0), 1)], F(1, 2)),
                           ([Halfspace((3, 0, 0), 2)], F(2, 3)),
                           ([Halfspace((2, 0, 0), 1), Halfspace((4, 0, 0), 3)],
                            F(1, 2)),
                           ([Halfspace((4, 0, 0), 3), Halfspace((2, 0, 0), 1)],
                            F(1, 2))]:
        for rows in (cube + extra, extra + cube):
            poly = _polytope_from_rows(rows)
            assert poly.volume() == tight_x
            assert len(poly.halfspaces) == 6
            assert max(v.x for v in poly.vertices) == tight_x


def test_intersect_membership_consistency():
    rng = random.Random(4242)
    region = intersect_halfspaces(
        [Halfspace((1, 1, 0), 1), Halfspace((0, 1, 1), 1)], unit_cube())
    for _ in range(200):
        p = Point3(F(rng.randint(0, 64), 64), F(rng.randint(0, 64), 64),
                   F(rng.randint(0, 64), 64))
        inside = all(h.contains(p) for h in region.halfspaces)
        assert inside == region.contains(p)


# ---------------------------------------------------------------------------
# touching


def test_touch_overlapping():
    a = axis_aligned_box((0, 0, 0), (2, 2, 2))
    b = axis_aligned_box((1, 1, 1), (3, 3, 3))
    assert polytopes_touch(a, b)


def test_touch_shared_face_edge_vertex():
    a = axis_aligned_box((0, 0, 0), (1, 1, 1))
    assert polytopes_touch(a, axis_aligned_box((1, 0, 0), (2, 1, 1)))    # face
    assert polytopes_touch(a, axis_aligned_box((1, 1, 0), (2, 2, 1)))    # edge
    assert polytopes_touch(a, axis_aligned_box((1, 1, 1), (2, 2, 2)))    # vertex
    assert not polytopes_touch(a, axis_aligned_box((1, 1, F(1001, 1000)),
                                                   (2, 2, 2)))


def test_touch_disjoint_bbox_overlap():
    # bounding boxes overlap but the bodies are separated by an oblique plane
    a = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    b = convex_hull([(2, 2, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1)])
    assert not polytopes_touch(a, b)


def test_touch_cross_without_contained_vertices():
    # two long bars crossing: intersection nonempty, no vertex inside the
    # other body, exercising the exact feasibility fallback
    a = axis_aligned_box((-10, -1, -1), (10, 1, 1))
    b = axis_aligned_box((-1, -10, -1), (1, 10, 1))
    assert not any(all(h.contains(v) for h in b.halfspaces) for v in a.vertices)
    assert polytopes_touch(a, b)


def test_touch_oblique_kiss():
    # tetrahedra meeting at exactly one shared point on oblique faces
    a = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    b = convex_hull([(2, 2, 2), (F(2, 3), F(2, 3), F(2, 3)), (2, 2, 0),
                     (0, 2, 2)])
    assert polytopes_touch(a, b)


def test_integer_bbox_matches_fraction_bbox():
    # thirds, halves and sevenths: the common denominator is 42
    bodies = [axis_aligned_box((F(1, 3), F(-1, 2), F(2, 7)),
                               (F(1, 2), F(1, 7), 1)),
              convex_hull([(F(1, 3), 0, 0), (0, F(1, 2), 0), (0, 0, F(1, 7)),
                           (F(-1, 7), F(-1, 3), F(-1, 2))]),
              axis_aligned_box((0, 0, 0), (F(1, 3), F(2, 3), 1))]
    for body in bodies:
        lo, hi, w = body.int_bbox()
        assert w > 0
        assert body.bbox() == (tuple(F(n, w) for n in lo),
                               tuple(F(n, w) for n in hi))
    assert bodies[0].int_bbox() == ((14, -21, 12), (21, 6, 42), 42)
    assert bodies[1].int_bbox() == ((-6, -14, -21), (14, 21, 6), 42)
    assert bodies[2].int_bbox() == ((0, 0, 0), (1, 2, 3), 3)


def test_touch_on_integer_boxes_with_mixed_denominators():
    left = axis_aligned_box((0, 0, 0), (F(1, 3), F(1, 2), 1))
    # meets ``left`` exactly at x = 1/3 (boxes over 6 and 21)
    flush = axis_aligned_box((F(1, 3), 0, 0), (F(5, 7), 1, F(1, 2)))
    assert polytopes_touch(left, flush) and polytopes_touch(flush, left)
    # x <= 2/7 against x >= 1/3: 1/21 apart, rejected on the boxes alone
    short = axis_aligned_box((0, 0, 0), (F(2, 7), F(1, 2), 1))
    assert not polytopes_touch(short, flush)
    assert not polytopes_touch(flush, short)


def _tetra_pair(rng, gap):
    """Two tetrahedra, each spanned by a top and a bottom edge at right
    angles.  The top edge of the first (along x at z = 1) and the bottom
    edge of the second (along y at z = 1 + gap) pass each other: they cross
    at gap 0, overlap below it and are disjoint above it, and in every case
    no vertex of either lies in the other and no facet plane of either
    separates them.  An integer shear makes their bounding boxes overlap."""
    big, m = rng.randint(4, 9), rng.randint(2, 6)
    p = [(-big, 0, 1), (big, 0, 1), (0, -big, -m), (0, big, -m)]
    q = [(0, -big, 1 + gap), (0, big, 1 + gap),
         (-big, 0, 1 + gap + m), (big, 0, 1 + gap + m)]
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    shift = [rng.randint(-20, 20) for _ in range(3)]
    tilt = [rng.choice((-2, -1, 1, 2)) for _ in range(2)]

    def place(pts):
        sheared = [(x, y, z + tilt[0] * x + tilt[1] * y) for x, y, z in pts]
        return convex_hull([tuple(signs[a] * v[perm[a]] + shift[a]
                                  for a in range(3)) for v in sheared])

    return place(p), place(q)


def _random_touch_pairs(rng):
    pairs = []
    for gap in (-1, 0, 0, 1, F(1, 3), 2):
        for _ in range(6):
            pairs.append(_tetra_pair(rng, gap))
    for _ in range(40):
        # random small bodies, overlapping, disjoint or apart
        p = convex_hull([(rng.randint(0, 6), rng.randint(0, 6),
                          rng.randint(0, 6)) for _ in range(8)]
                        + [(0, 0, 0), (6, 0, 0), (0, 6, 0), (0, 0, 6)])
        t = [rng.randint(-5, 5) for _ in range(3)]
        q = convex_hull([(rng.randint(0, 5) + t[0], rng.randint(0, 5) + t[1],
                          rng.randint(0, 5) + t[2]) for _ in range(6)]
                        + [(t[0], t[1], t[2]), (t[0] + 1, t[1], t[2]),
                           (t[0], t[1] + 1, t[2]), (t[0], t[1], t[2] + 1)])
        pairs.append((p, q))
    for _ in range(15):
        # boxes sharing a face, an edge or a vertex
        lo = [rng.randint(-3, 3) for _ in range(3)]
        hi = [a + rng.randint(1, 4) for a in lo]
        a = axis_aligned_box(lo, hi)
        axes = rng.sample(range(3), rng.randint(1, 3))
        lo2 = [rng.randint(lo[k], hi[k] - 1) for k in range(3)]
        for k in axes:
            lo2[k] = hi[k]
        hi2 = [c + rng.randint(1, 4) for c in lo2]
        pairs.append((a, axis_aligned_box(lo2, hi2)))
    return pairs


def test_touch_matches_fourier_motzkin(monkeypatch):
    outcomes = []

    def counted(halfspaces, _real=geometry._row_vertices):
        vertices = _real(halfspaces)
        outcomes.append(bool(vertices))
        return vertices

    monkeypatch.setattr(geometry, "_row_vertices", counted)
    verdicts = []
    for p, q in _random_touch_pairs(random.Random(57)):
        rows = [((h.a, h.b, h.c), h.d) for h in p.halfspaces + q.halfspaces]
        got = polytopes_touch(p, q)
        assert got == fm_feasible(rows, 3)
        assert got == polytopes_touch(q, p)
        verdicts.append(got)
    assert True in verdicts and False in verdicts
    # the last resort, vertex enumeration of the combined system, decided
    # every tetrahedron pair (18 each way, in both orders)
    assert outcomes.count(True) >= 36 and outcomes.count(False) >= 36


def test_fm_feasible_direct():
    # x >= 1 and x <= 0 is infeasible; x in [0,1], y in [0,1] feasible
    assert not fm_feasible([((1, 0), 0), ((-1, 0), -1)], 2)
    assert fm_feasible([((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)], 2)
    # rational data
    assert fm_feasible([((F(1, 3), 0, 0), F(1, 7)), ((-1, 0, 0), 0)], 3)
    assert not fm_feasible([((F(1, 3), 0, 0), F(-1, 7)), ((-1, 0, 0), F(-1, 2))], 3)


def test_point_cache_matches_fractions():
    p = Point3(F(3, 4), F(-2, 5), 7)
    hx, hy, hz, w = p._h
    assert w > 0
    assert F(hx, w) == F(3, 4)
    assert F(hy, w) == F(-2, 5)
    assert F(hz, w) == 7


# ---------------------------------------------------------------------------
# the integer point: checked against Fraction arithmetic


def _seeded_rationals(rng, n):
    """n rationals with mixed denominators, negatives and zeros."""
    dens = (1, 1, 2, 3, 4, 7, 10, 12, 35, 1024)
    return [F(rng.randint(-60, 60), rng.choice(dens)) for _ in range(n)]


def _canonical(p):
    x, y, z, w = p._h
    return w > 0 and math.gcd(x, y, z, w) == 1


def test_integer_point_agrees_with_fractions():
    rng = random.Random(8)
    values = _seeded_rationals(rng, 240)
    assert F(0) in values and any(v < 0 for v in values)
    assert len({v.denominator for v in values}) >= 6
    pts = [Point3(*values[i:i + 3]) for i in range(0, len(values), 3)]
    others = rng.sample(pts, len(pts))
    for p, q in zip(pts, others):
        assert _canonical(p)
        assert all(isinstance(c, Fraction) for c in p.astuple())
        x, y, z, w = p._h
        for k in (1, 2, 6, 35, -1, -12):
            same = Point3._from_h(k * x, k * y, k * z, k * w)
            assert same == p and hash(same) == hash(p) and same._h == p._h
        rebuilt = Point3(str(p.x), p.y, float(p.z) if p.z.denominator == 1
                         else p.z)
        assert rebuilt == p and hash(rebuilt) == hash(p)
        for got, expect in [
                (p + q, [a + b for a, b in zip(p, q)]),
                (p - q, [a - b for a, b in zip(p, q)]),
                (-p, [-a for a in p])]:
            assert _canonical(got)
            assert list(got) == expect
        assert (p == q) == (p.astuple() == q.astuple())
    assert len(set(pts + [Point3(*p) for p in pts])) == len(set(pts))


def test_integer_vertex_order_matches_fraction_order():
    rng = random.Random(9)
    values = _seeded_rationals(rng, 300)
    pts = [Point3(*values[i:i + 3]) for i in range(0, len(values), 3)]
    pts += rng.sample(pts, 20)      # repeats
    # ties on x and on (x, y)
    pts += [Point3(pts[0].x, v, w) for v, w in zip(values[:8], values[8:16])]
    pts += [Point3(pts[1].x, pts[1].y, v) for v in values[16:24]]
    rng.shuffle(pts)
    expect = sorted(pts, key=lambda p: (p.x, p.y, p.z))
    assert [p.astuple() for p in geometry._sorted_points(pts)] == \
        [p.astuple() for p in expect]


def _fraction_flat_extremes(points):
    """The extreme points of a flat point set, on Fraction coordinates: the
    two ends of a collinear set along its direction, or the corners of a
    coplanar set by a monotone chain on its projection."""
    coords = sorted({p.astuple() for p in points})

    def sub(a, b):
        return tuple(s - t for s, t in zip(a, b))

    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0])

    if len(coords) == 1:
        return coords
    p0 = coords[0]
    d = sub(coords[1], p0)
    normal = next((n for n in (cross(d, sub(c, p0)) for c in coords)
                   if any(n)), None)
    if normal is None:
        along = sorted(coords, key=lambda c: sum(s * t for s, t in
                                                 zip(sub(c, p0), d)))
        return sorted({along[0], along[-1]})
    drop = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != drop]
    flat = sorted(coords, key=lambda c: (c[keep[0]], c[keep[1]]))

    def turn(o, a, b):
        return ((a[keep[0]] - o[keep[0]]) * (b[keep[1]] - o[keep[1]])
                - (a[keep[1]] - o[keep[1]]) * (b[keep[0]] - o[keep[0]]))

    chain = []
    for seq in (flat, flat[::-1]):
        part = []
        for c in seq:
            while len(part) >= 2 and turn(part[-2], part[-1], c) <= 0:
                part.pop()
            part.append(c)
        chain += part[:-1]
    return sorted(set(chain))


def _fraction_satisfies(h, v):
    return F(h.a) * v.x + F(h.b) * v.y + F(h.c) * v.z <= F(h.d)


def test_flat_intersection_vertices_are_extreme_points():
    # a flat row system's vertex list is kept as it is: every point where
    # three independent rows are tight and all rows hold is a vertex, so it
    # must already equal its own extreme points in (x, y, z) order
    rng = random.Random(10)
    box = axis_aligned_box((-10, -10, -10), (10, 10, 10))

    def normal():
        n = [rng.randint(-3, 3) for _ in range(3)]
        return n if any(n) else [1, 0, 0]

    def offset(n, p, slack=0):
        return sum(a * c for a, c in zip(n, p)) + slack

    kinds = set()
    for trial in range(90):
        planes = trial % 3 + 1
        p0 = [F(rng.randint(-80, 80), rng.choice((1, 2, 3, 7, 8))) / 10
              for _ in range(3)]
        rows = []
        for _ in range(planes):
            n = normal()
            # the plane n . x = n . p0, written as two opposite rows
            rows += [Halfspace(n, offset(n, p0)),
                     Halfspace([-a for a in n], -offset(n, p0))]
        if planes == 1:
            for _ in range(rng.randint(1, 6)):
                n = normal()
                rows.append(Halfspace(n, offset(n, p0, F(rng.randint(0, 40),
                                                         rng.randint(1, 4)))))
        rng.shuffle(rows)
        flat = intersect_halfspaces(rows, box)
        assert flat.degenerate and flat.volume() == 0
        got = [v.astuple() for v in flat.vertices]
        assert got == _fraction_flat_extremes(flat.vertices)
        for h in rows + box.halfspaces:
            assert all(_fraction_satisfies(h, v) for v in flat.vertices)
        kinds.add(min(len(got), 3))
    assert kinds == {1, 2, 3}


# ---------------------------------------------------------------------------
# one Minkowski hull per source shape, and rows that cut a body


def test_translated_polytope_reduces_and_resorts_its_rows():
    # x + 2y <= 1 moved by (1/2, 0, 0) is 2x + 4y <= 3; moved by (1, 0, 0)
    # it is x + 2y <= 2, so the rows of a body can change order
    tet = convex_hull([(0, 0, 0), (1, 0, 0), (0, F(1, 2), 0), (0, 0, 1)])
    for t in ((F(1, 2), 0, 0), (1, -3, 2), (F(-5, 3), F(7, 2), F(1, 6))):
        moved = tet.translated(Point3(*t), id="m")
        want = convex_hull([v + Point3(*t) for v in tet.vertices], id="m")
        assert [h.key() for h in moved.halfspaces] == \
            [h.key() for h in want.halfspaces]
        assert moved.vertices == want.vertices
        assert moved.volume() == tet.volume()


def _full_rows(p, q):
    return p.halfspaces + q.halfspaces


def test_touch_and_overlap_on_cutting_rows_match_all_rows():
    rng = random.Random(29)
    pairs = _random_touch_pairs(rng)
    # a slanted hull against boxes inside it, across it and around it
    slanted = convex_hull([(rng.randint(-40, 40), rng.randint(-40, 40),
                            rng.randint(-40, 40)) for _ in range(30)])
    pairs += [(slanted, axis_aligned_box((a, a, a), (a + 9, a + 9, a + 9)))
              for a in (-60, -20, -4, 10, 35)]
    pairs.append((slanted, axis_aligned_box((-99,) * 3, (99,) * 3)))
    culled = 0
    for p, q in pairs:
        for a, b in ((p, q), (q, p)):
            rows = cutting_rows(a.halfspaces, b)
            assert set(rows) <= set(a.halfspaces)
            culled += len(a.halfspaces) - len(rows)
            got = _polytope_from_rows(rows + b.halfspaces)
            want = _polytope_from_rows(_full_rows(a, b))
            assert (got is None) == (want is None)
            if got is not None:
                assert got.degenerate == want.degenerate
                assert got.vertices == want.vertices
                assert got.halfspaces == want.halfspaces
                assert got.volume() == want.volume()
            assert bool(_row_vertices(rows + b.halfspaces)) == \
                bool(_row_vertices(_full_rows(a, b)))
    assert culled > 0


def test_cutting_rows_of_a_body_around_another_are_none():
    outer = axis_aligned_box((0, 0, 0), (10, 10, 10))
    inner = axis_aligned_box((2, 2, 2), (3, 3, 3))
    assert cutting_rows(outer.halfspaces, inner) == []
    assert intersect_halfspaces([], inner).vertices == inner.vertices
    # a face contact gives a flat clip, a gap an empty one, whichever rows
    flush = axis_aligned_box((3, 2, 2), (5, 3, 3))
    rows = cutting_rows(flush.halfspaces, inner)
    assert len(rows) == 1
    flat = intersect_halfspaces(rows, inner)
    assert flat.degenerate
    assert flat.vertices == intersect_halfspaces(flush.halfspaces,
                                                 inner).vertices
    apart = axis_aligned_box((4, 2, 2), (5, 3, 3))
    assert intersect_halfspaces(cutting_rows(apart.halfspaces, inner),
                                inner) is None
