"""Feasible placement regions for boxes inside a polyhedral trunk.

For a box in a fixed orientation, the set of feasible center positions is
computed as an eroded convex hull minus a list of convex obstacles:

- the hull is the erosion of the trunk's outer convex body by the centered
  box (each supporting halfspace moves inward by the box's support value);
- each concavity of the trunk (a cavity polytope, or a boundary triangle of
  a mesh) contributes one obstacle: its Minkowski sum with the centered box.

A center is feasible when it lies in the hull and is not strictly inside any
obstacle.  All polytopes are exact; the Monte Carlo volume estimate and its
reporting are the only float quantities.

Obstacles are clipped for storage against a slightly enlarged hull (every
hull halfspace pushed outward by at least 1 mm).  Within the true hull the
clipped obstacle forbids exactly the same centers as the unclipped one, and
the margin keeps obstacles that touch the hull only at its boundary
full-dimensional instead of collapsing them to flat slivers.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from trunkpack.catalog import BoxType, half_extents, oriented_extents
from trunkpack.geometry import (
    ConvexPolytope,
    DegenerateInput,
    GeometryError,
    Halfspace,
    Point3,
    Triangle3,
    _affine_rank,
    _degenerate_from_points,
    _polytope_from_rows,
    axis_aligned_box,
    convex_hull,
    intersect_halfspaces,
    minkowski_sum_convex,
    polytopes_touch,
    to_fraction,
)

FATTEN_EPS = Fraction(1, 1024)
DEFAULT_MC_SAMPLES = 200000
DEFAULT_SEED = 12345
_LATTICE = 1 << 20
# float screening: trust a sign when |value| exceeds magnitude_bound * 2^-40
# (true rounding error is below magnitude_bound * 2^-49); smaller values are
# re-evaluated exactly
_CERT = 2.0 ** -40


class TrunkFormatError(Exception):
    """Unparseable or structurally invalid trunk input."""


class DegenerateTrunk(GeometryError):
    """Trunk geometry too flat to build a full-dimensional hull."""


# ---------------------------------------------------------------------------
# trunk models


@dataclass
class MeshTrunk:
    triangles: List[Triangle3]
    seed: Point3
    dropped_triangles: int = 0


@dataclass
class ConvexTrunk:
    shell: ConvexPolytope
    cavities: List[ConvexPolytope] = field(default_factory=list)


def _parse_number(v) -> Fraction:
    return to_fraction(v)


def _json_loads_exact(text: str):
    # floats in trunk files are read with decimal semantics
    return json.loads(text, parse_float=lambda s: Fraction(s) if "/" in s
                      else to_fraction(s))


def parse_mesh_json(obj: dict, seed_override: Optional[Sequence] = None) -> MeshTrunk:
    if "triangles" not in obj:
        raise TrunkFormatError("mesh JSON needs a 'triangles' array")
    tris = []
    dropped = 0
    for raw in obj["triangles"]:
        if len(raw) != 3:
            raise TrunkFormatError("each triangle needs exactly 3 vertices")
        pts = [Point3(*[_parse_number(c) for c in v]) for v in raw]
        tri = Triangle3(*pts)
        if tri.is_degenerate():
            dropped += 1
            continue
        tris.append(tri)
    seed_raw = seed_override if seed_override is not None else obj.get("seed")
    if seed_raw is None:
        raise TrunkFormatError("mesh trunk needs a seed point (file key 'seed' "
                               "or --seed-point)")
    seed = Point3(*[_parse_number(c) for c in seed_raw])
    trunk = MeshTrunk(tris, seed, dropped)
    _validate_mesh(trunk)
    return trunk


def parse_stl_text(text: str, seed_point: Sequence) -> MeshTrunk:
    """ASCII STL reader.  Binary STL is rejected."""
    if "facet" not in text.split("\n", 1)[0] and not text.lstrip().startswith("solid"):
        raise TrunkFormatError("only ASCII STL is supported (file must start "
                               "with 'solid')")
    verts = []
    tris = []
    dropped = 0
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "vertex":
            if len(parts) != 4:
                raise TrunkFormatError(f"bad vertex line: {line.strip()!r}")
            verts.append(Point3(*[to_fraction(p) for p in parts[1:4]]))
        elif parts[0] == "endfacet":
            if len(verts) != 3:
                raise TrunkFormatError("facet without exactly 3 vertices")
            tri = Triangle3(*verts)
            if tri.is_degenerate():
                dropped += 1
            else:
                tris.append(tri)
            verts = []
    if verts:
        raise TrunkFormatError("dangling vertices after last endfacet")
    if seed_point is None:
        raise TrunkFormatError("STL trunks need --seed-point")
    seed = Point3(*[to_fraction(c) for c in seed_point])
    trunk = MeshTrunk(tris, seed, dropped)
    _validate_mesh(trunk)
    return trunk


def parse_convex_json(obj: dict) -> ConvexTrunk:
    try:
        rows = [Halfspace(h["n"], h["d"]) for h in obj["shell"]["halfspaces"]]
    except (KeyError, TypeError) as exc:
        raise TrunkFormatError(f"bad shell description: {exc}") from exc
    if not halfspaces_bounded(rows):
        raise TrunkFormatError("shell halfspaces describe an unbounded set")
    shell = _polytope_from_rows(rows, id="shell")
    if shell is None or shell.degenerate:
        raise DegenerateTrunk("shell is empty or not full-dimensional")
    cavities = []
    for i, cav in enumerate(obj.get("cavities", [])):
        pts = [Point3(*[_parse_number(c) for c in v]) for v in cav["vertices"]]
        for p in pts:
            if not shell.contains(p):
                raise TrunkFormatError(f"cavity {i} vertex outside the shell")
        try:
            poly = convex_hull(pts, id=f"cavity{i}")
        except DegenerateInput as exc:
            raise DegenerateTrunk(f"cavity {i} is not full-dimensional") from exc
        cavities.append(poly)
    return ConvexTrunk(shell, cavities)


def load_trunk(path: str, fmt: str, seed_point: Optional[Sequence] = None):
    """Read a trunk model.  fmt: 'stl', 'mesh-json', or 'convex-json'."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "stl":
        return parse_stl_text(text, seed_point)
    if fmt == "mesh-json":
        return parse_mesh_json(_json_loads_exact(text), seed_point)
    if fmt == "convex-json":
        return parse_convex_json(_json_loads_exact(text))
    raise TrunkFormatError(f"unknown trunk format {fmt!r}")


def halfspaces_bounded(halfspaces: Sequence[Halfspace]) -> bool:
    """True when the intersection of the halfspaces has no recession ray,
    i.e. it is bounded (possibly empty).

    The recession cone {x : n_i . x <= 0} is {0} exactly when the normals
    positively span space, i.e. when the origin lies strictly inside their
    convex hull; flat (or too few) normals leave a ray."""
    try:
        hull = convex_hull([h.normal for h in halfspaces])
    except DegenerateInput:
        return False
    return hull.strictly_contains(Point3(0, 0, 0))


def _point_on_triangle(p: Point3, tri: Triangle3) -> bool:
    pl = _tri_plane(tri)
    if _eval_plane(pl, p) != 0:
        return False
    return _coplanar_point_in_triangle(p, tri)


def _validate_mesh(trunk: MeshTrunk) -> None:
    if len(trunk.triangles) < 4:
        raise TrunkFormatError("mesh needs at least 4 non-degenerate triangles")
    for tri in trunk.triangles:
        if _point_on_triangle(trunk.seed, tri):
            raise TrunkFormatError("seed point lies on a mesh triangle")


# ---------------------------------------------------------------------------
# regions


@dataclass
class RawRegion:
    """Stage-1 product: eroded hull plus unclipped Minkowski obstacles."""

    box_id: str
    orientation: str
    hull: ConvexPolytope
    obstacles: List[ConvexPolytope]
    fattened: bool = False


@dataclass
class FeasibleRegion:
    """A box's feasible center set: hull minus obstacle interiors."""

    box_id: str
    orientation: str
    hull: ConvexPolytope
    obstacles: List[ConvexPolytope]
    volume_mm3: float
    volume_stderr_mm3: float
    samples: int
    seed: int
    fattened: bool = False

    def facet_count(self) -> int:
        return len(self.hull.halfspaces) + sum(len(o.halfspaces) for o in self.obstacles)

    def volume_dm3(self) -> float:
        return self.volume_mm3 / 1e6


def inverted_box(box: BoxType, orientation: str) -> ConvexPolytope:
    """The box as a centered polytope.  The reflection through the origin of
    a centered cuboid is itself, so this serves as the inverted body in all
    Minkowski constructions."""
    hx, hy, hz = half_extents(box, orientation)
    return axis_aligned_box((-hx, -hy, -hz), (hx, hy, hz),
                            id=f"box:{box.id}:{orientation}")


def erode_hull(outer: ConvexPolytope, b: ConvexPolytope):
    """Centers at which b (centered at the origin) fits inside outer.

    Every supporting halfspace of outer moves inward by the support value of
    b along its normal.  Returns a full-dimensional polytope, a degenerate
    (flat) polytope carrying exact extents when the fit is exact in some
    direction, or None when b does not fit at all.
    """
    rows = []
    for h in outer.halfspaces:
        s = b.support((h.a, h.b, h.c))
        rows.append(h.shifted(-s))
    return _polytope_from_rows(rows, id=(outer.id or "hull"))


def _fatten_hull(flat: ConvexPolytope, id: Optional[str] = None) -> ConvexPolytope:
    """Blow a lower-dimensional hull up to full dimension by +-FATTEN_EPS.

    Axes with zero extent get the offset, matching the exact-fit reading of
    a flat hull.  A hull that is flat in an oblique direction (no zero axis
    extent) falls back to offsetting all three axes.
    """
    lo, hi = flat.bbox()
    deficient = [axis for axis in range(3) if lo[axis] == hi[axis]]
    if not deficient:
        deficient = [0, 1, 2]
    offsets = [Point3(0, 0, 0)]
    for axis in deficient:
        step = [0, 0, 0]
        step[axis] = FATTEN_EPS
        offsets = [p + Point3(*step) for p in offsets] + \
                  [p - Point3(*step) for p in offsets]
    pts = [v + o for v in flat.vertices for o in offsets]
    try:
        return convex_hull(pts, id=id)
    except DegenerateInput:
        # oblique segment or point: pad every axis
        offsets = [Point3(sx * FATTEN_EPS, sy * FATTEN_EPS, sz * FATTEN_EPS)
                   for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        pts = [v + o for v in flat.vertices for o in offsets]
        return convex_hull(pts, id=id)


def _triangle_polytope(tri: Triangle3, id: str) -> ConvexPolytope:
    pts = list(tri.vertices())
    return _degenerate_from_points(pts, _affine_rank(pts), id=id)


def raw_feasible_region(trunk, box: BoxType, orientation: str) -> Optional[RawRegion]:
    """Stage 1: eroded hull (fattened if flat) plus per-concavity obstacles,
    not yet clipped.  None when the box cannot fit inside the outer hull."""
    b = inverted_box(box, orientation)
    if isinstance(trunk, ConvexTrunk):
        outer = trunk.shell
        sources = trunk.cavities
    elif isinstance(trunk, MeshTrunk):
        pts = [p for tri in trunk.triangles for p in tri.vertices()]
        try:
            outer = convex_hull(pts, id="mesh-hull")
        except DegenerateInput as exc:
            raise DegenerateTrunk("mesh vertices are coplanar") from exc
        sources = [_triangle_polytope(tri, f"tri{i}")
                   for i, tri in enumerate(trunk.triangles)]
    else:
        raise TypeError(f"not a trunk model: {trunk!r}")

    region_id = f"{box.id}:{orientation}"
    hull = erode_hull(outer, b)
    if hull is None:
        return None
    fattened = False
    if hull.degenerate:
        hull = _fatten_hull(hull, id=f"{region_id}:hull")
        fattened = True
    else:
        hull.id = f"{region_id}:hull"
    obstacles = [minkowski_sum_convex(src, b, id=f"o{i}")
                 for i, src in enumerate(sources)]
    return RawRegion(box.id, orientation, hull, obstacles, fattened)


def enlarged_hull(hull: ConvexPolytope) -> ConvexPolytope:
    """The hull with every halfspace offset outward by its coefficient
    1-norm; contains the hull dilated by a unit cube, so the boundary margin
    is at least 1 mm everywhere."""
    rows = [Halfspace._from_ints(h.a, h.b, h.c,
                                 h.d + abs(h.a) + abs(h.b) + abs(h.c))
            for h in hull.halfspaces]
    grown = _polytope_from_rows(rows, id=(hull.id or "hull") + ":margin")
    if grown is None or grown.degenerate:
        raise GeometryError("enlarged hull construction failed")
    return grown


def clip_obstacle(obstacle_halfspaces: Iterable[Halfspace],
                  margin: ConvexPolytope, id: Optional[str] = None):
    """Intersect an obstacle's halfspaces with the enlarged hull."""
    return intersect_halfspaces(obstacle_halfspaces, margin, id=id)


def describe_region(raw: RawRegion, samples: int = DEFAULT_MC_SAMPLES,
                    seed: int = DEFAULT_SEED) -> Optional[FeasibleRegion]:
    """Stage 2: clip obstacles, discard the ones that miss the hull, and
    estimate the free volume.  Returns None when no sampled center is free
    (the emptiness probe) — exact emptiness is not decided."""
    margin = enlarged_hull(raw.hull)
    kept = []
    for obs in raw.obstacles:
        clipped = clip_obstacle(obs.halfspaces, margin, id=obs.id)
        if clipped is None or clipped.degenerate or \
                not polytopes_touch(clipped, raw.hull):
            # discarding must not change the represented set
            assert not polytopes_touch(obs, raw.hull), \
                "discard filter would drop an obstacle that meets the hull"
            continue
        kept.append(clipped)
    pts = sample_lattice_points(raw.hull.bbox(), samples, seed)
    feasible = classify_feasible(pts, raw.hull, kept)
    hits = int(feasible.sum())
    if hits == 0:
        return None
    bbox_vol = float(_bbox_volume(raw.hull.bbox()))
    p = hits / samples
    vol = bbox_vol * p
    stderr = bbox_vol * (p * (1.0 - p) / samples) ** 0.5
    return FeasibleRegion(raw.box_id, raw.orientation, raw.hull, kept,
                          vol, stderr, samples, seed, raw.fattened)


def compute_feasible_region(trunk, box: BoxType, orientation: str,
                            samples: int = DEFAULT_MC_SAMPLES,
                            seed: int = DEFAULT_SEED) -> Optional[FeasibleRegion]:
    raw = raw_feasible_region(trunk, box, orientation)
    if raw is None:
        return None
    return describe_region(raw, samples=samples, seed=seed)


def region_seed(global_seed: int, box_id: str, orientation: str) -> int:
    """Deterministic per-region sampling seed."""
    return zlib.crc32(f"{box_id}:{orientation}".encode()) ^ (global_seed & 0xFFFFFFFF)


# ---------------------------------------------------------------------------
# exact lattice sampling


class LatticePoints:
    """Random sample points stored exactly.

    Coordinates on axis k are num[:, k] / dens[k] with positive integer
    denominators; a float view is kept for vectorized screening.  All
    classifications are certified: float comparisons are trusted only
    outside a conservative error bound and re-done exactly inside it.
    """

    __slots__ = ("num", "dens", "coords")

    def __init__(self, num, dens):
        if num.dtype != np.int64:
            raise GeometryError("lattice numerators must be int64")
        self.num = num
        self.dens = dens
        self.coords = num / np.array([float(d) for d in dens])

    def __len__(self) -> int:
        return self.num.shape[0]

    def exact(self, idx: int) -> Tuple[Fraction, Fraction, Fraction]:
        return tuple(Fraction(int(self.num[idx, k]), self.dens[k]) for k in range(3))

    def point(self, idx: int) -> Point3:
        return Point3(*self.exact(idx))

    def subset(self, mask) -> "LatticePoints":
        return LatticePoints(self.num[mask], self.dens)

    def translated(self, offset: Sequence[Fraction]) -> "LatticePoints":
        """Shift all points by an exact offset (offset*den must be integral)."""
        num = self.num.copy()
        for k in range(3):
            shift = to_fraction(offset[k]) * self.dens[k]
            if shift.denominator != 1:
                raise GeometryError("offset is not representable on the lattice")
            step = int(shift)
            if num.shape[0] and \
                    int(np.max(np.abs(num[:, k]))) + abs(step) >= 2 ** 62:
                raise GeometryError("translated numerators would overflow int64")
            num[:, k] = num[:, k] + step
        return LatticePoints(num, self.dens)


def sample_lattice_points(bbox, n: int, seed: int,
                          grid: int = _LATTICE) -> LatticePoints:
    """n random points on a (2*grid)^3 lattice inside the box, exact."""
    (lo, hi) = bbox
    rng = np.random.default_rng(seed)
    r = rng.integers(0, grid, size=(n, 3), dtype=np.int64)
    num = np.empty((n, 3), dtype=np.int64)
    dens = []
    for axis in range(3):
        lo_a = to_fraction(lo[axis])
        span = to_fraction(hi[axis]) - lo_a
        if span < 0:
            raise GeometryError("empty bounding box")
        d = _lcm(lo_a.denominator, span.denominator)
        a_int = int(lo_a * d)
        b_int = int(span * d)
        # x = (A*2*grid + (2r+1)*B) / (D*2*grid)
        bound = abs(a_int) * 2 * grid + (2 * grid + 1) * abs(b_int)
        if bound >= 2 ** 62:
            raise GeometryError("lattice numerators would overflow int64")
        num[:, axis] = a_int * 2 * grid + (2 * r[:, axis] + 1) * b_int
        dens.append(d * 2 * grid)
    return LatticePoints(num, tuple(dens))


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def _bbox_volume(bbox) -> Fraction:
    (lo, hi) = bbox
    v = Fraction(1)
    for axis in range(3):
        v *= to_fraction(hi[axis]) - to_fraction(lo[axis])
    return v


def halfspace_signs(h: Halfspace, pts: LatticePoints) -> np.ndarray:
    """Certified sign of (normal . p - offset) per point: -1, 0, +1."""
    coef = np.array([h.a / pts.dens[0], h.b / pts.dens[1], h.c / pts.dens[2]],
                    dtype=np.float64)
    vals = pts.num @ coef - float(h.d)
    max_abs = float(np.max(np.abs(pts.coords), initial=0.0))
    bound = (abs(h.a) + abs(h.b) + abs(h.c)) * max(max_abs, 1.0) + abs(h.d)
    tau = bound * _CERT
    signs = np.zeros(len(pts), dtype=np.int8)
    signs[vals > tau] = 1
    signs[vals < -tau] = -1
    for idx in np.nonzero(np.abs(vals) <= tau)[0]:
        x, y, z = pts.exact(int(idx))
        v = h.a * x + h.b * y + h.c * z - h.d
        signs[idx] = 0 if v == 0 else (1 if v > 0 else -1)
    return signs


def classify_feasible(pts: LatticePoints, hull: ConvexPolytope,
                      obstacles: Sequence[ConvexPolytope]) -> np.ndarray:
    """Feasibility mask: inside the closed hull and not strictly inside any
    obstacle."""
    feasible = np.ones(len(pts), dtype=bool)
    for h in hull.halfspaces:
        feasible &= halfspace_signs(h, pts) <= 0
        if not feasible.any():
            return feasible
    for obs in obstacles:
        inside = np.ones(len(pts), dtype=bool)
        for h in obs.halfspaces:
            inside &= halfspace_signs(h, pts) < 0
            if not inside.any():
                break
        feasible &= ~inside
    return feasible


# ---------------------------------------------------------------------------
# soundness checks (do sampled placements really stay inside the trunk?)


_CORNER_SIGNS = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]


def _corner_offsets(box: BoxType, orientation: str):
    hx, hy, hz = half_extents(box, orientation)
    return [(sx * hx, sy * hy, sz * hz) for (sx, sy, sz) in _CORNER_SIGNS]


def soundness_check_convex(trunk: ConvexTrunk, centers: LatticePoints,
                           box: BoxType, orientation: str) -> dict:
    """For each center: all 8 box corners inside the shell and no corner
    strictly inside any cavity.  Exact."""
    n = len(centers)
    ok = np.ones(n, dtype=bool)
    for off in _corner_offsets(box, orientation):
        corners = centers.translated(off)
        for h in trunk.shell.halfspaces:
            ok &= halfspace_signs(h, corners) <= 0
        for cav in trunk.cavities:
            inside = np.ones(n, dtype=bool)
            for h in cav.halfspaces:
                inside &= halfspace_signs(h, corners) < 0
                if not inside.any():
                    break
            ok &= ~inside
    return {"checked": n, "violations": int((~ok).sum())}


# --- mesh parity ----------------------------------------------------------

def _tri_plane(tri: Triangle3):
    from trunkpack.geometry import _plane_ints
    pl = _plane_ints(tri.a._h, tri.b._h, tri.c._h)
    if pl is None:
        raise GeometryError("degenerate triangle")
    return pl


def _eval_plane(pl, p: Point3) -> int:
    a, b, c, d = pl
    hx, hy, hz, w = p._h
    return a * hx + b * hy + c * hz - d * w


def _coplanar_point_in_triangle(p: Point3, tri: Triangle3) -> bool:
    """p known to lie on the triangle's plane; closed containment test."""
    from trunkpack.geometry import cross3, dot3
    n = cross3(tri.b - tri.a, tri.c - tri.a)
    for (u, v) in ((tri.a, tri.b), (tri.b, tri.c), (tri.c, tri.a)):
        edge_n = cross3(v - u, n)
        if dot3(edge_n, p - u) > 0:
            return False
    return True


def _orient3d(p0: Point3, p1: Point3, p2: Point3, p3: Point3) -> int:
    """Sign of det[p1-p0, p2-p0, p3-p0], exact."""
    h0, h1, h2, h3 = p0._h, p1._h, p2._h, p3._h
    rows = []
    for h in (h1, h2, h3):
        rows.append((h[0] * h0[3] - h0[0] * h[3],
                     h[1] * h0[3] - h0[1] * h[3],
                     h[2] * h0[3] - h0[2] * h[3]))
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = rows
    det = (ax * (by * cz - bz * cy)
           - ay * (bx * cz - bz * cx)
           + az * (bx * cy - by * cx))
    return 0 if det == 0 else (1 if det > 0 else -1)


def _segment_triangle_crossing(a: Point3, b: Point3, tri: Triangle3) -> str:
    """'none' | 'proper' | 'degenerate' for the open segment (a, b).

    Assumes neither endpoint lies on the triangle's plane; callers handle
    the on-plane cases separately.
    """
    sa = _orient3d(a, tri.a, tri.b, tri.c)
    sb = _orient3d(b, tri.a, tri.b, tri.c)
    if sa == 0 or sb == 0:
        return "degenerate"
    if sa == sb:
        return "none"
    s1 = _orient3d(a, b, tri.a, tri.b)
    s2 = _orient3d(a, b, tri.b, tri.c)
    s3 = _orient3d(a, b, tri.c, tri.a)
    if 0 in (s1, s2, s3):
        return "degenerate"
    return "proper" if s1 == s2 == s3 else "none"


def point_in_mesh(p: Point3, trunk: MeshTrunk, _anchor: Optional[Point3] = None,
                  _depth: int = 0) -> bool:
    """Closed containment: p is inside the surface (crossing parity of the
    segment seed->p is even) or exactly on a triangle.  Exact."""
    anchor = _anchor if _anchor is not None else trunk.seed
    crossings = 0
    for tri in trunk.triangles:
        pl = _tri_plane(tri)
        ep = _eval_plane(pl, p)
        if ep == 0:
            if _coplanar_point_in_triangle(p, tri):
                return True
            continue  # endpoint on plane but off the triangle: no crossing
        ea = _eval_plane(pl, anchor)
        if ea == 0:
            # anchor on the plane: no crossing unless the anchor itself sits
            # on the triangle, which a valid anchor never does
            if _coplanar_point_in_triangle(anchor, tri):
                raise GeometryError("parity anchor lies on a mesh triangle")
            continue
        if (ea > 0) == (ep > 0):
            continue
        state = _segment_triangle_crossing(anchor, p, tri)
        if state == "degenerate":
            return point_in_mesh(p, trunk, _fresh_anchor(trunk, _depth),
                                 _depth + 1)
        if state == "proper":
            crossings += 1
    return crossings % 2 == 0


def _fresh_anchor(trunk: MeshTrunk, depth: int) -> Point3:
    """An alternate anchor provably in the same component as the seed: the
    connecting segment must cross no triangle and meet no degeneracy, and
    the anchor must avoid every triangle plane."""
    if depth > 40:
        raise GeometryError("could not find a clean parity anchor")
    rng = np.random.default_rng(1000 + depth)
    for _ in range(50):
        off = Point3(*[Fraction(int(rng.integers(-64, 65)) * 2 + 1, 1 << 14)
                       for _ in range(3)])
        cand = trunk.seed + off
        clean = True
        for tri in trunk.triangles:
            pl = _tri_plane(tri)
            ec = _eval_plane(pl, cand)
            es = _eval_plane(pl, trunk.seed)
            if ec == 0:
                clean = False  # insist on anchors off every plane
                break
            if es == 0:
                # seed on the plane but never on the triangle (validated at
                # load): the open segment cannot meet this triangle
                continue
            if _segment_triangle_crossing(trunk.seed, cand, tri) != "none":
                clean = False
                break
        if clean:
            return cand
    return _fresh_anchor(trunk, depth + 1)


def soundness_check_mesh(trunk: MeshTrunk, centers: LatticePoints,
                         box: BoxType, orientation: str,
                         chunk: int = 20000) -> dict:
    """For each center: all 8 box corners inside the mesh by exact crossing
    parity from the seed.  Vectorized float screening with exact fallback."""
    planes = [_tri_plane(tri) for tri in trunk.triangles]
    seed_side = [_eval_plane(pl, trunk.seed) for pl in planes]
    if any(s == 0 for s in seed_side):
        raise TrunkFormatError("seed lies on a triangle plane; pick another seed")
    tri_pts = trunk.triangles
    n = len(centers)
    ok = np.ones(n, dtype=bool)
    exact_fallbacks = 0

    for off in _corner_offsets(box, orientation):
        corners = centers.translated(off)
        # parity accumulates over triangles; corners flagged 'hard' drop to
        # the scalar exact path
        parity = np.zeros(n, dtype=np.int64)
        hard = np.zeros(n, dtype=bool)
        on_surface = np.zeros(n, dtype=bool)
        for t_idx, tri in enumerate(tri_pts):
            pl = planes[t_idx]
            signs = halfspace_signs(Halfspace._from_ints(*pl), corners)
            on_plane = signs == 0
            if on_plane.any():
                for idx in np.nonzero(on_plane)[0]:
                    if _coplanar_point_in_triangle(corners.point(int(idx)), tri):
                        on_surface[idx] = True
                    # off-triangle on-plane endpoints produce no crossing
            opposite = np.nonzero((signs == (-1 if seed_side[t_idx] > 0 else 1))
                                  & ~on_plane)[0]
            if opposite.size == 0:
                continue
            res = _edge_tests(trunk.seed, corners, opposite, tri)
            parity[opposite] += res["crossing"]
            if res["degenerate"].any():
                hard[opposite[res["degenerate"]]] = True
        inside = on_surface | (parity % 2 == 0)
        for idx in np.nonzero(hard & ~on_surface)[0]:
            exact_fallbacks += 1
            inside[idx] = point_in_mesh(corners.point(int(idx)), trunk)
        ok &= inside
    return {"checked": n, "violations": int((~ok).sum()),
            "exact_fallbacks": exact_fallbacks}


def _edge_tests(seed: Point3, corners: LatticePoints, idx: np.ndarray,
                tri: Triangle3) -> dict:
    """Vectorized wedge test: does segment seed->corner pass through the
    triangle?  Returns per-candidate crossing (0/1) and degeneracy flags."""
    fs = np.array([float(seed.x), float(seed.y), float(seed.z)])
    cpts = corners.coords[idx]
    tri_f = [np.array([float(v.x), float(v.y), float(v.z)])
             for v in tri.vertices()]
    max_c = max(float(np.max(np.abs(cpts), initial=1.0)),
                float(np.max(np.abs(fs))),
                max(float(np.max(np.abs(t))) for t in tri_f))
    tau = 48.0 * (2.0 * max_c) ** 3 * _CERT
    m = idx.size
    signs = np.zeros((3, m), dtype=np.int8)
    needs_exact = np.zeros(m, dtype=bool)
    edges = [(tri_f[0], tri_f[1]), (tri_f[1], tri_f[2]), (tri_f[2], tri_f[0])]
    for e_i, (p, q) in enumerate(edges):
        u = cpts - fs
        v = p - fs
        w = q - fs
        det = (u[:, 0] * (v[1] * w[2] - v[2] * w[1])
               - u[:, 1] * (v[0] * w[2] - v[2] * w[0])
               + u[:, 2] * (v[0] * w[1] - v[1] * w[0]))
        s = np.zeros(m, dtype=np.int8)
        s[det > tau] = 1
        s[det < -tau] = -1
        near = np.abs(det) <= tau
        needs_exact |= near
        signs[e_i] = s
    tri_v = list(tri.vertices())
    edge_pairs = [(tri_v[0], tri_v[1]), (tri_v[1], tri_v[2]), (tri_v[2], tri_v[0])]
    for j in np.nonzero(needs_exact)[0]:
        corner = corners.point(int(idx[j]))
        for e_i, (p, q) in enumerate(edge_pairs):
            signs[e_i, j] = _orient3d(seed, corner, p, q)
    degenerate = (signs == 0).any(axis=0)
    crossing = ((signs[0] == signs[1]) & (signs[1] == signs[2])
                & (signs[0] != 0)).astype(np.int64)
    crossing[degenerate] = 0
    return {"crossing": crossing, "degenerate": degenerate}


# ---------------------------------------------------------------------------
# interchange and reports


def _polytope_to_dict(p: ConvexPolytope) -> dict:
    return {"halfspaces": [h.as_dict() for h in p.halfspaces]}


def _polytope_from_halfspaces(obj: dict, id: Optional[str] = None) -> ConvexPolytope:
    """Rebuild a stored polytope.  Stored halfspace lists are complete (they
    were emitted from bounded polytopes), so no extra bounding is needed."""
    rows = [Halfspace(h["n"], h["d"]) for h in obj["halfspaces"]]
    if not halfspaces_bounded(rows):
        raise GeometryError(f"stored polytope {id!r} is unbounded")
    poly = _polytope_from_rows(rows, id=id)
    if poly is None or poly.degenerate:
        raise GeometryError(f"stored polytope {id!r} is empty or flat")
    return poly


def region_to_dict(region) -> dict:
    out = {
        "box": region.box_id,
        "orientation": region.orientation,
        "hull": _polytope_to_dict(region.hull),
        "obstacles": [_polytope_to_dict(o) for o in region.obstacles],
        "fattened": region.fattened,
    }
    if isinstance(region, FeasibleRegion):
        out["volume_mm3"] = region.volume_mm3
        out["volume_stderr_mm3"] = region.volume_stderr_mm3
        out["samples"] = region.samples
        out["seed"] = region.seed
    return out


def empty_region_dict(box_id: str, orientation: str) -> dict:
    return {"box": box_id, "orientation": orientation, "empty": True}


def region_from_dict(obj: dict):
    """Rebuild a RawRegion or FeasibleRegion (None for an empty marker)."""
    if obj.get("empty"):
        return None
    hull = _polytope_from_halfspaces(
        obj["hull"], id=f"{obj['box']}:{obj['orientation']}:hull")
    obstacles = [_polytope_from_halfspaces(o, id=f"o{i}")
                 for i, o in enumerate(obj["obstacles"])]
    if "volume_mm3" in obj:
        return FeasibleRegion(obj["box"], obj["orientation"], hull, obstacles,
                              float(obj["volume_mm3"]),
                              float(obj.get("volume_stderr_mm3", 0.0)),
                              int(obj["samples"]), int(obj["seed"]),
                              bool(obj.get("fattened", False)))
    return RawRegion(obj["box"], obj["orientation"], hull, obstacles,
                     bool(obj.get("fattened", False)))


def region_json(region_or_none, box_id: str = None, orientation: str = None) -> str:
    if region_or_none is None:
        obj = empty_region_dict(box_id, orientation)
    else:
        obj = region_to_dict(region_or_none)
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def region_report_rows(regions: Sequence[FeasibleRegion]) -> list:
    """One row per non-empty region: box, orientation, volume dm3, facets
    in thousands."""
    rows = []
    for r in regions:
        rows.append({
            "box": r.box_id,
            "orientation": r.orientation,
            "volume_dm3": r.volume_mm3 / 1e6,
            "facets_k": r.facet_count() / 1e3,
        })
    return rows


def format_region_report(rows: Sequence[dict], orientation_order: Sequence[str]) -> str:
    """Text table in the grouped style of the volume/facet survey: one block
    per box, orientation columns, volume and facet rows."""
    by_box = {}
    for row in rows:
        by_box.setdefault(row["box"], {})[row["orientation"]] = row
    lines = []
    for box_id in sorted(by_box):
        cells = by_box[box_id]
        orients = [o for o in orientation_order if o in cells]
        width = max(8, *(len(o) + 2 for o in orients)) if orients else 8
        lines.append(f"box {box_id}")
        lines.append("  " + " ".join(f"{o:>{width}}" for o in orients))
        lines.append("  volume [dm3]   " +
                     " ".join(f"{cells[o]['volume_dm3']:>{width}.1f}" for o in orients))
        lines.append("  facets [10^3]  " +
                     " ".join(f"{cells[o]['facets_k']:>{width}.1f}" for o in orients))
        lines.append("")
    return "\n".join(lines)


def region_report_csv(rows: Sequence[dict]) -> str:
    out = ["box,orientation,volume_dm3,facets_k"]
    for r in rows:
        out.append(f"{r['box']},{r['orientation']},"
                   f"{r['volume_dm3']:.1f},{r['facets_k']:.1f}")
    return "\n".join(out) + "\n"
