"""Exact rational convex geometry in three dimensions.

Points, halfspaces and convex polytopes are exact, so every predicate in
this module is decided exactly: a point is on a plane, strictly inside, or
strictly outside, never "within epsilon".  Floating point is deliberately
absent here; callers that want floats convert at the boundary.

Everything is stored as integers.  A point is a homogeneous integer quadruple
``(x, y, z, w)`` with ``w > 0`` and gcd 1, and a halfspace stores integer
coefficients ``a*x + b*y + c*z <= d`` reduced to gcd 1, so the predicates,
hulls and vertex enumeration are plain integer arithmetic.  ``Fraction``
appears only at the edges: parsing, coordinate reads, ``bbox()``, volumes
and support values.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, float, str, Fraction]


class GeometryError(Exception):
    """Base class for geometric failures."""


class DegenerateInput(GeometryError):
    """Raised when an operation needs a full-dimensional input but the
    supplied data is collinear, coplanar, or otherwise flat."""


class ZeroDirection(GeometryError):
    """Raised when a direction vector is the zero vector."""


def to_fraction(value: Rational) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats are read through their shortest ``repr`` (decimal semantics), so a
    JSON value such as ``241.5`` becomes 483/2 rather than a 53-bit binary
    expansion.  Strings may be decimal ("1.5"), rational ("3/4"), or use an
    exponent ("2.5e2").  A string or float that is not a finite rational
    ("abc", "1/0", "inf", NaN) raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        number = decimal.Decimal(repr(value))
    elif isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
        try:
            number = decimal.Decimal(value)
        except decimal.InvalidOperation:
            number = None
    else:
        raise TypeError(f"cannot interpret {value!r} as a rational number")
    if number is None or not number.is_finite():
        raise ValueError(f"{value!r} is not a finite rational number")
    return Fraction(number)


def _scaled_ints(values: Sequence[Rational]) -> tuple:
    """Rationals as integers over their least common denominator w > 0:
    (list of numerators, w).  Plain ints pass through with w = 1."""
    if all(type(v) is int for v in values):  # not bool, which must raise
        return list(values), 1
    fs = [to_fraction(v) for v in values]
    w = lcm(*(f.denominator for f in fs))
    return [f.numerator * (w // f.denominator) for f in fs], w


class Point3:
    """A point (or displacement) with exact rational coordinates, stored as
    the homogeneous integer quadruple ``_h = (x, y, z, w)``: the point is
    (x/w, y/w, z/w), with w > 0 and gcd(x, y, z, w) = 1, so equal points
    have equal quadruples."""

    __slots__ = ("_h",)

    def __init__(self, x: Rational, y: Rational, z: Rational):
        (hx, hy, hz), w = _scaled_ints((x, y, z))
        self._h = (hx, hy, hz, w)  # gcd 1: each coordinate is reduced

    @classmethod
    def _from_h(cls, x: int, y: int, z: int, w: int) -> "Point3":
        """The point (x/w, y/w, z/w) from integers with w != 0."""
        if w < 0:
            x, y, z, w = -x, -y, -z, -w
        g = gcd(x, y, z, w)
        obj = object.__new__(cls)
        obj._h = (x // g, y // g, z // g, w // g)
        return obj

    # read-only Fraction coordinates
    x = property(lambda self: Fraction(self._h[0], self._h[3]))
    y = property(lambda self: Fraction(self._h[1], self._h[3]))
    z = property(lambda self: Fraction(self._h[2], self._h[3]))

    def __add__(self, other: "Point3") -> "Point3":
        ax, ay, az, aw = self._h
        bx, by, bz, bw = other._h
        return Point3._from_h(ax * bw + bx * aw, ay * bw + by * aw,
                              az * bw + bz * aw, aw * bw)

    def __sub__(self, other: "Point3") -> "Point3":
        ax, ay, az, aw = self._h
        bx, by, bz, bw = other._h
        return Point3._from_h(ax * bw - bx * aw, ay * bw - by * aw,
                              az * bw - bz * aw, aw * bw)

    def __neg__(self) -> "Point3":
        x, y, z, w = self._h
        return Point3._from_h(-x, -y, -z, w)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point3):
            return NotImplemented
        return self._h == other._h

    def __hash__(self) -> int:
        return hash(self._h)

    def astuple(self) -> tuple:
        return (self.x, self.y, self.z)

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"Point3({self.x}, {self.y}, {self.z})"


def dot3(u: Point3, v: Point3) -> Fraction:
    ux, uy, uz, uw = u._h
    vx, vy, vz, vw = v._h
    return Fraction(ux * vx + uy * vy + uz * vz, uw * vw)


def cross3(u: Point3, v: Point3) -> Point3:
    ux, uy, uz, uw = u._h
    vx, vy, vz, vw = v._h
    return Point3._from_h(uy * vz - uz * vy, uz * vx - ux * vz,
                          ux * vy - uy * vx, uw * vw)


@dataclass(frozen=True)
class Triangle3:
    """A triangle given by its three corners."""

    a: Point3
    b: Point3
    c: Point3

    def is_degenerate(self) -> bool:
        return _plane_ints(self.a._h, self.b._h, self.c._h) is None

    def vertices(self) -> tuple:
        return (self.a, self.b, self.c)


class Halfspace:
    """The closed halfspace {x : normal . x <= offset}.

    Coefficients are stored as integers with gcd 1, preserving the direction
    of the inequality, so proportional (same-sign) normal/offset pairs compare
    equal and hash identically.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, normal: Sequence[Rational], offset: Rational):
        self._assign(*_scaled_ints((*normal, offset))[0])

    @classmethod
    def _from_ints(cls, a: int, b: int, c: int, d: int) -> "Halfspace":
        obj = object.__new__(cls)
        obj._assign(a, b, c, d)
        return obj

    def _assign(self, a: int, b: int, c: int, d: int) -> None:
        if a == 0 and b == 0 and c == 0:
            raise GeometryError("halfspace normal must be nonzero")
        g = gcd(a, b, c, d)
        self.a = a // g
        self.b = b // g
        self.c = c // g
        self.d = d // g

    @property
    def normal(self) -> tuple:
        return (self.a, self.b, self.c)

    def key(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def axis(self) -> Optional[tuple]:
        """(axis, coefficient) when the normal lies on one axis, None for a
        slanted halfspace."""
        a, b, c = self.a, self.b, self.c
        if b == 0 and c == 0:
            return 0, a
        if a == 0 and c == 0:
            return 1, b
        if a == 0 and b == 0:
            return 2, c
        return None

    def contains(self, p: Point3) -> bool:
        hx, hy, hz, w = p._h
        return self.a * hx + self.b * hy + self.c * hz <= self.d * w

    def strictly_inside(self, p: Point3) -> bool:
        hx, hy, hz, w = p._h
        return self.a * hx + self.b * hy + self.c * hz < self.d * w

    def value(self, p: Point3) -> Fraction:
        """normal . p - offset (negative strictly inside)."""
        hx, hy, hz, w = p._h
        return Fraction(self.a * hx + self.b * hy + self.c * hz - self.d * w, w)

    def shifted(self, delta: Rational) -> "Halfspace":
        """Translate the boundary plane: {x : normal . x <= offset + delta},
        where normal/offset are the stored canonical integers."""
        return Halfspace((self.a, self.b, self.c), Fraction(self.d) + to_fraction(delta))

    def as_dict(self) -> dict:
        return {"n": [self.a, self.b, self.c], "d": self.d}

    @classmethod
    def from_dict(cls, obj: dict) -> "Halfspace":
        return cls(obj["n"], obj["d"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Halfspace):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Halfspace(({self.a}, {self.b}, {self.c}), {self.d})"


class ConvexPolytope:
    """A bounded convex polytope with both descriptions kept in sync.

    ``halfspaces`` is an irredundant list of supporting halfspaces and
    ``vertices`` the exact extreme points.  Instances are produced by
    :func:`convex_hull`, :func:`intersect_halfspaces`,
    :func:`minkowski_sum_convex` and :func:`axis_aligned_box`; they should be
    treated as immutable.

    A *degenerate* polytope (flat: a polygon, segment or point) keeps only its
    extreme points; it has volume zero and no halfspace description.  Such
    objects appear when a halfspace intersection is nonempty but not
    full-dimensional, and they support only vertex-based queries.
    """

    # _unit_rows and _float_bbox: the float rows and bounding box
    # trunkpack.lp derives from ``halfspaces`` and ``int_bbox()``, and
    # _float_facets the float facets trunkpack.search measures depths
    # with, cached here (filled on first use) like _volume and _ibox
    __slots__ = ("halfspaces", "vertices", "id", "degenerate", "_triangles",
                 "_volume", "_ibox", "_unit_rows", "_float_bbox",
                 "_float_facets")

    def __init__(self, halfspaces, vertices, triangles=None, degenerate=False,
                 id: Optional[str] = None):
        self.halfspaces = list(halfspaces)
        self.vertices = list(vertices)
        self._triangles = triangles
        self.degenerate = degenerate
        self.id = id
        self._volume = None
        self._ibox = None
        self._unit_rows = None
        self._float_bbox = None
        self._float_facets = None

    def with_id(self, id: Optional[str]) -> "ConvexPolytope":
        """The same polytope under another id: it shares this one's lists
        and cached values, which neither copy may modify."""
        obj = object.__new__(ConvexPolytope)
        for name in ConvexPolytope.__slots__:
            setattr(obj, name, getattr(self, name))
        obj.id = id
        return obj

    def translated(self, offset: Point3,
                   id: Optional[str] = None) -> "ConvexPolytope":
        """This polytope moved by ``offset``.  The vertices and boundary
        triangles keep their order, which translation does not change; each
        halfspace n . x <= d becomes n . x <= d + n . offset, reduced again
        (its gcd includes the offset) and sorted again, as ``convex_hull``
        sorts its rows."""
        tx, ty, tz, tw = offset._h
        moved = {}
        for p in (*self.vertices, *(q for tri in self._triangles for q in tri)):
            if p not in moved:
                x, y, z, w = p._h
                moved[p] = Point3._from_h(x * tw + tx * w, y * tw + ty * w,
                                          z * tw + tz * w, w * tw)
        rows = [Halfspace._from_ints(h.a * tw, h.b * tw, h.c * tw,
                                     h.d * tw + h.a * tx + h.b * ty + h.c * tz)
                for h in self.halfspaces]
        return ConvexPolytope(sorted(rows, key=Halfspace.key),
                              [moved[p] for p in self.vertices],
                              [(moved[a], moved[b], moved[c])
                               for (a, b, c) in self._triangles],
                              self.degenerate, id)

    def volume(self) -> Fraction:
        """Exact volume, from the divergence theorem over the boundary
        triangulation: the triangles' integer determinants summed over one
        common denominator.  Zero for degenerate polytopes."""
        if self._volume is None:
            if self.degenerate:
                self._volume = Fraction(0)
            else:
                dets = []
                dens = []
                for (pa, pb, pc) in self._triangles:
                    ax, ay, az, aw = pa._h
                    bx, by, bz, bw = pb._h
                    cx, cy, cz, cw = pc._h
                    dets.append(ax * (by * cz - bz * cy)
                                - ay * (bx * cz - bz * cx)
                                + az * (bx * cy - by * cx))
                    dens.append(aw * bw * cw)
                w = lcm(*dens)
                total = sum(det * (w // den) for det, den in zip(dets, dens))
                self._volume = Fraction(total, 6 * w)
        return self._volume

    def support(self, direction: Sequence[Rational]) -> Fraction:
        """max of direction . v over the polytope (exact)."""
        (dx, dy, dz), dw = _scaled_ints(direction)
        if dx == 0 and dy == 0 and dz == 0:
            raise ZeroDirection("support direction must be nonzero")
        coords, w = _int_coords(self.vertices)
        return Fraction(max(dx * x + dy * y + dz * z for (x, y, z) in coords),
                        w * dw)

    def contains(self, p: Point3) -> bool:
        if self.degenerate:
            raise GeometryError("containment is not defined on a degenerate polytope")
        return all(h.contains(p) for h in self.halfspaces)

    def strictly_contains(self, p: Point3) -> bool:
        if self.degenerate:
            return False
        return all(h.strictly_inside(p) for h in self.halfspaces)

    def bbox(self) -> tuple:
        """((minx, miny, minz), (maxx, maxy, maxz)) as Fractions: the view
        of ``int_bbox()`` for callers outside the exact kernel."""
        lo, hi, w = self.int_bbox()
        return (tuple(Fraction(n, w) for n in lo),
                tuple(Fraction(n, w) for n in hi))

    def int_bbox(self) -> tuple:
        """The bounding box as integers over one common denominator:
        ((minx, miny, minz), (maxx, maxy, maxz), w) with w > 0 the least
        common denominator of the six corner coordinates."""
        if self._ibox is None:
            coords, w = _int_coords(self.vertices)
            lo = tuple(map(min, zip(*coords)))
            hi = tuple(map(max, zip(*coords)))
            g = gcd(w, *lo, *hi)
            self._ibox = (tuple(n // g for n in lo), tuple(n // g for n in hi),
                          w // g)
        return self._ibox

    def extent(self, axis: int) -> Fraction:
        lo, hi = self.bbox()
        return hi[axis] - lo[axis]

    def facet_triangles(self):
        """Triangles of the boundary, grouped by canonical facet plane."""
        groups = {}
        for tri in self._triangles:
            pl = _plane_ints(tri[0]._h, tri[1]._h, tri[2]._h)
            groups.setdefault(pl, []).append(tri)
        return groups

    def __repr__(self) -> str:
        tag = " degenerate" if self.degenerate else ""
        return (f"ConvexPolytope(|H|={len(self.halfspaces)}, "
                f"|V|={len(self.vertices)}{tag})")


# ---------------------------------------------------------------------------
# plane and rank primitives on homogeneous integer coordinates


def _plane_ints(P, Q, R):
    """Supporting plane through three homogeneous points, as reduced integers
    (a, b, c, d) meaning a*x + b*y + c*z <= d with the normal along
    (Q-P) x (R-P).  None if the points are collinear."""
    px, py, pz, pw = P
    qx, qy, qz, qw = Q
    rx, ry, rz, rw = R
    ux = qx * pw - px * qw
    uy = qy * pw - py * qw
    uz = qz * pw - pz * qw
    vx = rx * pw - px * rw
    vy = ry * pw - py * rw
    vz = rz * pw - pz * rw
    ax = uy * vz - uz * vy
    ay = uz * vx - ux * vz
    az = ux * vy - uy * vx
    if ax == 0 and ay == 0 and az == 0:
        return None
    a = ax * pw
    b = ay * pw
    c = az * pw
    d = ax * px + ay * py + az * pz
    g = gcd(a, b, c, d)
    return (a // g, b // g, c // g, d // g)


def _int_coords(points) -> tuple:
    """The points' (x, y, z) as integers over their least common
    denominator w: (list of integer triples, w).  One positive scale for
    all points keeps their order and orientation."""
    H = [p._h for p in points]
    w = lcm(*(h[3] for h in H))
    return [(x * (w // pw), y * (w // pw), z * (w // pw))
            for (x, y, z, pw) in H], w


def _sorted_points(points) -> list:
    """The points in (x, y, z) order, compared as integers."""
    pts = list(points)
    keys = _int_coords(pts)[0]
    return [pts[i] for i in sorted(range(len(pts)), key=keys.__getitem__)]


def _plane_eval(plane, H):
    a, b, c, d = plane
    hx, hy, hz, w = H
    return a * hx + b * hy + c * hz - d * w


def _affine_basis(H) -> list:
    """Indices of affinely independent points among the homogeneous integer
    points ``H``: the first point, then each next point off the affine span
    of those already chosen, up to four.  Its length is the dimension of
    the points' affine hull plus one (empty for no points)."""
    if not H:
        return []
    basis = [0]
    x0, y0, z0, w0 = H[0]
    for k in range(1, len(H)):
        x, y, z, w = H[k]
        v = (x * w0 - x0 * w, y * w0 - y0 * w, z * w0 - z0 * w)
        if len(basis) == 1:
            if v != (0, 0, 0):
                basis.append(k)
                u = v
        elif len(basis) == 2:
            n = (u[1] * v[2] - u[2] * v[1],
                 u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
            if n != (0, 0, 0):
                basis.append(k)
        elif n[0] * v[0] + n[1] * v[1] + n[2] * v[2]:
            basis.append(k)
            break
    return basis


# ---------------------------------------------------------------------------
# convex hull


def _as_point(p) -> Point3:
    if isinstance(p, Point3):
        return p
    return Point3(*p)


def convex_hull(points: Iterable, id: Optional[str] = None) -> ConvexPolytope:
    """Exact convex hull of a full-dimensional point set.

    Incremental insertion with exact orientation tests.  Only strictly
    visible facets are replaced, so interior and boundary-interior points are
    discarded; coplanar facet triangles are merged by their canonical plane
    when the halfspace list is assembled.  Raises DegenerateInput when all
    points are coplanar.
    """
    pts = list(dict.fromkeys(_as_point(raw) for raw in points))
    H = [p._h for p in pts]
    n = len(pts)
    basis = _affine_basis(H)
    if len(basis) < 4:
        raise DegenerateInput("all points are coplanar")
    i0, i1, i2, i3 = basis
    # the tests run on integer coordinates over one common denominator w
    # and on unreduced planes; only the facets that survive are reduced
    X, w = _int_coords(pts)

    # strictly interior reference point: four times the average of the
    # initial simplex
    ref = [X[i0][k] + X[i1][k] + X[i2][k] + X[i3][k] for k in range(3)]

    def oriented(a, b, c):
        """Facet (a, b, c) with its plane n . X <= d, n = (B - A) x (C - A)
        up to sign, wound so that the reference point is inside."""
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = X[a], X[b], X[c]
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        nx = uy * vz - uz * vy
        ny = uz * vx - ux * vz
        nz = ux * vy - uy * vx
        if nx == 0 and ny == 0 and nz == 0:
            raise GeometryError("degenerate facet in hull construction")
        d = nx * ax + ny * ay + nz * az
        s = nx * ref[0] + ny * ref[1] + nz * ref[2] - 4 * d
        if s == 0:
            raise GeometryError("hull reference point on facet plane")
        if s > 0:
            return (a, c, b, (-nx, -ny, -nz, -d))
        return (a, b, c, (nx, ny, nz, d))

    facets = [
        oriented(i0, i1, i2),
        oriented(i0, i1, i3),
        oriented(i0, i2, i3),
        oriented(i1, i2, i3),
    ]

    simplex = {i0, i1, i2, i3}
    for k in range(n):
        if k in simplex:
            continue
        x, y, z = X[k]
        visible = []
        rest = []
        for f in facets:
            a, b, c, d = f[3]
            if a * x + b * y + c * z > d:
                visible.append(f)
            else:
                rest.append(f)
        if not visible:
            continue
        vis_edges = set()
        for (a, b, c, _pl) in visible:
            vis_edges.add((a, b))
            vis_edges.add((b, c))
            vis_edges.add((c, a))
        horizon = sorted((u, v) for (u, v) in vis_edges if (v, u) not in vis_edges)
        for (u, v) in horizon:
            rest.append(oriented(u, v, k))
        facets = rest

    # n . X <= d is (w n) . x <= d in the points' own coordinates
    plane_groups = {}
    point_planes = {}
    for (a, b, c, (nx, ny, nz, d)) in facets:
        nx, ny, nz = nx * w, ny * w, nz * w
        g = gcd(nx, ny, nz, d)
        pl = (nx // g, ny // g, nz // g, d // g)
        plane_groups.setdefault(pl, []).append((a, b, c))
        for idx in (a, b, c):
            point_planes.setdefault(idx, set()).add(pl)

    halfspaces = [Halfspace._from_ints(*pl) for pl in sorted(plane_groups)]
    # a point on three distinct facet planes of a convex polytope is a vertex
    extremes = [idx for idx, pls in point_planes.items() if len(pls) >= 3]
    vertices = [pts[i] for i in sorted(extremes, key=X.__getitem__)]
    triangles = [(pts[a], pts[b], pts[c]) for (a, b, c, _pl) in facets]

    for hs in halfspaces:
        ha, hb, hc, hd = hs.a, hs.b, hs.c, hs.d
        for ph in H:
            if ha * ph[0] + hb * ph[1] + hc * ph[2] > hd * ph[3]:
                raise GeometryError("hull self-check failed: input point outside hull")

    return ConvexPolytope(halfspaces, vertices, triangles=triangles, id=id)


def axis_aligned_box(min_corner, max_corner, id: Optional[str] = None) -> ConvexPolytope:
    """Axis-aligned box from opposite corners (exclusive of flat boxes)."""
    lo, hi = _as_point(min_corner), _as_point(max_corner)
    if not all(a < b for a, b in zip(lo, hi)):
        raise DegenerateInput("axis_aligned_box needs strictly positive extents")
    return convex_hull([(x, y, z) for x in (lo.x, hi.x) for y in (lo.y, hi.y)
                        for z in (lo.z, hi.z)], id=id)


def minkowski_sum_convex(p: ConvexPolytope, q: ConvexPolytope,
                         id: Optional[str] = None) -> ConvexPolytope:
    """Minkowski sum of two convex polytopes.

    The sum of convex sets is the hull of pairwise vertex sums.  Degenerate
    operands (flat polytopes with a vertex list) are allowed; DegenerateInput
    propagates only when the sum itself is not full-dimensional.
    """
    verts = [a + b for a in p.vertices for b in q.vertices]
    return convex_hull(verts, id=id)


def minkowski_sums(sources: Sequence[ConvexPolytope], b: ConvexPolytope,
                   ids: Iterable[str]) -> list:
    """``minkowski_sum_convex(s, b, id=i)`` for each source ``s`` and id
    ``i``, building one hull per source shape.

    A sum commutes with translation, (S + t) + B = (S + B) + t, so a source
    whose sorted vertices are an earlier source's moved by t gets that
    source's sum moved by t (``ConvexPolytope.translated``).  The moved sum
    then passes the self-check ``convex_hull`` makes: every sum of a vertex
    of its own source and a vertex of ``b`` satisfies every moved halfspace.
    That is decided in integers per halfspace n . x <= d, as
    max n . s + max n . v <= d over the source's vertices s and b's v.
    """
    ids = list(ids)
    first = {}  # shape: vertices less the first one -> (index, first one, sum)
    shapes = []
    for k, (src, id) in enumerate(zip(sources, ids)):
        v0 = src.vertices[0]
        shape = tuple((v - v0)._h for v in src.vertices[1:])
        if shape not in first:
            first[shape] = (k, v0, minkowski_sum_convex(src, b, id=id))
        shapes.append(shape)
    # the translates are made in a pass of their own, after every hull: a
    # pass that mixed them with the hulls' garbage raised the peak resident
    # size of the later stages by a megabyte on a 768-triangle mesh
    B, bw = _int_coords(b.vertices)
    sums = []
    for k, (src, id, shape) in enumerate(zip(sources, ids, shapes)):
        index, u0, hull = first[shape]
        if k == index:
            sums.append(hull)
            continue
        moved = hull.translated(src.vertices[0] - u0, id=id)
        S, sw = _int_coords(src.vertices)
        for h in moved.halfspaces:
            top_s, top_b = (max(h.a * x + h.b * y + h.c * z for (x, y, z) in X)
                            for X in (S, B))
            if top_s * bw + top_b * sw > h.d * sw * bw:
                raise GeometryError("translated sum self-check failed: a "
                                    "vertex sum lies outside")
        sums.append(moved)
    return sums


# ---------------------------------------------------------------------------
# halfspace intersection (vertex enumeration)


def _dedupe_dominated(halfspaces):
    """Drop exact duplicates and, among parallel same-direction halfspaces,
    keep only the tightest one."""
    best = {}
    for h in halfspaces:
        # h is g * (unit-content normal) . x <= d: its offset there is d/g
        g = gcd(h.a, h.b, h.c)
        norm = (h.a // g, h.b // g, h.c // g)
        cur = best.get(norm)
        if cur is None or h.d * cur[0] < cur[1].d * g:
            best[norm] = (g, h)
    return [h for (_g, h) in sorted(best.values(), key=lambda t: t[1].key())]


def _vertex_candidates(rows) -> list:
    """All distinct feasible intersection points of plane triples."""
    cands = {}
    m = len(rows)
    for i in range(m):
        ai, bi, ci, di = rows[i]
        for j in range(i + 1, m):
            aj, bj, cj, dj = rows[j]
            for k in range(j + 1, m):
                ak, bk, ck, dk = rows[k]
                mbc = bj * ck - cj * bk
                mac = aj * ck - cj * ak
                mab = aj * bk - bj * ak
                det = ai * mbc - bi * mac + ci * mab
                if det == 0:
                    continue
                mdc = dj * ck - cj * dk
                mdb = dj * bk - bj * dk
                mad = aj * dk - dj * ak
                mbd = bj * dk - dj * bk
                X = di * mbc - bi * mdc + ci * mdb
                Y = ai * mdc - di * mac + ci * mad
                Z = ai * mbd - bi * mad + di * mab
                if det < 0:
                    X, Y, Z, det = -X, -Y, -Z, -det
                for (a, b, c, d) in rows:
                    if a * X + b * Y + c * Z > d * det:
                        break
                else:
                    cands[Point3._from_h(X, Y, Z, det)] = True
    return list(cands)


def _row_vertices(halfspaces) -> list:
    """The vertices of a *bounded* halfspace system, empty when it is
    infeasible.  Every point where three rows with independent normals are
    tight and every row holds is a basic feasible solution, hence a vertex
    (Bertsimas & Tsitsiklis 1997, Thm 2.3), so nothing needs a hull to
    weed out non-extreme points, flat systems included."""
    return _vertex_candidates([h.key() for h in _dedupe_dominated(halfspaces)])


def _degenerate_from_points(points, id=None) -> ConvexPolytope:
    """Flat polytope (point, segment, or polygon) from its extreme points."""
    return ConvexPolytope([], _sorted_points(points), triangles=[],
                          degenerate=True, id=id)


def _polytope_from_rows(halfspaces, id=None):
    """Intersection of a *bounded* halfspace list: the hull of its vertices
    when they span space, else a degenerate polytope holding them, or None
    when empty.  The caller guarantees boundedness."""
    points = _row_vertices(halfspaces)
    if not points:
        return None
    if len(_affine_basis([p._h for p in points])) == 4:
        return convex_hull(points, id=id)
    return _degenerate_from_points(points, id=id)


def intersect_halfspaces(halfspaces: Iterable[Halfspace],
                         bounding: ConvexPolytope,
                         id: Optional[str] = None):
    """Polytope of all points of ``bounding`` satisfying every halfspace.

    Returns a ConvexPolytope, a degenerate (flat) polytope when the
    intersection is nonempty but not full-dimensional, or None when empty.
    """
    if bounding.degenerate:
        raise GeometryError("bounding polytope must be full-dimensional")
    combined = list(halfspaces) + list(bounding.halfspaces)
    return _polytope_from_rows(combined, id=id)


def polytopes_touch(p: ConvexPolytope, q: ConvexPolytope) -> bool:
    """True when the closed polytopes share at least one point.

    Integer bounding boxes (compared by cross-multiplying their common
    denominators), vertex containment and separating facet planes settle
    most pairs; the rest are decided exactly by vertex enumeration of q's
    rows and the rows of p that cut q.
    """
    if p.degenerate or q.degenerate:
        raise GeometryError("touch test needs full-dimensional polytopes")
    plo, phi, pw = p.int_bbox()
    qlo, qhi, qw = q.int_bbox()
    for axis in range(3):
        if phi[axis] * qw < qlo[axis] * pw or qhi[axis] * pw < plo[axis] * qw:
            return False
    for v in p.vertices:
        if all(h.contains(v) for h in q.halfspaces):
            return True
    for v in q.vertices:
        if all(h.contains(v) for h in p.halfspaces):
            return True
    # a facet plane of one body strictly separating the other proves disjoint
    for h in p.halfspaces:
        if all(not h.contains(v) for v in q.vertices):
            return False
    for h in q.halfspaces:
        if all(not h.contains(v) for v in p.vertices):
            return False
    # the system of q's rows and p's rows that cut q is bounded and has the
    # same solutions as both bodies' rows, so it is feasible exactly when it
    # has a vertex
    return bool(_row_vertices(cutting_rows(p.halfspaces, q) + q.halfspaces))


def cutting_rows(halfspaces: Iterable[Halfspace],
                 other: ConvexPolytope) -> list:
    """The halfspaces, in their order, that some vertex of the bounded
    polytope ``other`` lies strictly outside of.  Every other halfspace holds
    all of ``other``, so dropping it leaves the intersection with ``other``
    unchanged: P meets Q in the points of Q that satisfy P's cutting rows."""
    X, w = _int_coords(other.vertices)
    return [h for h in halfspaces
            if max(h.a * x + h.b * y + h.c * z for (x, y, z) in X) > h.d * w]


# ---------------------------------------------------------------------------
# exact feasibility of linear inequality systems (Fourier-Motzkin): the
# independent reference the tests check the vertex-enumeration kernel and
# the float simplex against; library code does not call it


def _reduce_row(coeffs, rhs):
    g = gcd(*coeffs, rhs)
    return tuple(c // g for c in coeffs), rhs // g


def fm_feasible(rows, nvars: int) -> bool:
    """Exact feasibility of {x : coeffs . x <= rhs for every row}.

    ``rows`` is an iterable of (coeffs, rhs) with integer or Fraction
    entries.  Eliminates variables one at a time (Fourier-Motzkin), choosing
    at each step the variable with the fewest pairings.  Intended for small
    systems (a handful of variables).  Kept as a reference that shares no
    code with vertex enumeration or the simplex.
    """
    work = set()
    for coeffs, rhs in rows:
        (*ics, ir), _ = _scaled_ints((*coeffs, rhs))
        if all(c == 0 for c in ics):
            if ir < 0:
                return False
            continue
        red = _reduce_row(ics, ir)
        work.add(red)

    live = list(range(nvars))
    while live:
        best_var = None
        best_cost = None
        for vi, _v in enumerate(live):
            pos = sum(1 for (cs, _r) in work if cs[vi] > 0)
            neg = sum(1 for (cs, _r) in work if cs[vi] < 0)
            cost = pos * neg + pos + neg
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_var = vi
        vi = best_var
        pos, neg, zero = [], [], set()
        for (cs, r) in work:
            if cs[vi] > 0:
                pos.append((cs, r))
            elif cs[vi] < 0:
                neg.append((cs, r))
            else:
                zero.add((cs[:vi] + cs[vi + 1:], r))
        new = zero
        for (ucs, ur) in pos:
            uk = ucs[vi]
            for (lcs, lr) in neg:
                lk = -lcs[vi]
                coeffs = tuple(lk * ucs[t] + uk * lcs[t]
                               for t in range(len(ucs)) if t != vi)
                rhs = lk * ur + uk * lr
                if all(c == 0 for c in coeffs):
                    if rhs < 0:
                        return False
                    continue
                new.add(_reduce_row(coeffs, rhs))
        # among parallel rows keep the tightest to curb growth
        tight = {}
        for (cs, r) in new:
            cur = tight.get(cs)
            if cur is None or r < cur:
                tight[cs] = r
        work = {(cs, r) for cs, r in tight.items()}
        live.pop(vi)
    return True
