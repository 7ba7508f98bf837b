"""Feasible placement regions for boxes inside a polyhedral trunk.

For a box in a fixed orientation, the set of feasible center positions is
computed as an eroded convex hull minus a list of convex obstacles:

- the hull is the erosion of the trunk's outer convex body by the centered
  box (each supporting halfspace moves inward by the box's support value);
- each concavity of the trunk (a cavity polytope, or a boundary triangle of
  a mesh) contributes one obstacle: its Minkowski sum with the centered box.

A center is feasible when it lies in the hull and is not strictly inside any
obstacle.  All polytopes are exact; the Monte Carlo volume estimate
(``estimate_volume``) and its reporting are the only float quantities.  The
estimate classifies exact lattice points (``classify_feasible``): an
axis-aligned halfspace is decided by integer comparisons of one numerator
column with a floor and a ceiling threshold, and a slanted one by a
certified float screen, re-evaluated exactly near zero.  An integer
sort-and-sweep over the points' coordinates, built only once an obstacle's
bounding box meets the points inside the hull, culls each obstacle to the
points strictly inside its bounding box.  A flat obstacle has no interior and
forbids nothing.  The estimate draws and classifies its points a fixed-size
block at a time, so its memory does not grow with the sample count.  The
draws are numpy's ``default_rng(seed)`` PCG64 stream, computed in this
module (``_draws``) so that no run imports numpy's random module, and pinned
to numpy's own draws by the tests.

Obstacles are clipped for storage against a slightly enlarged hull (every
hull halfspace pushed outward by at least 1 mm).  Within the true hull the
clipped obstacle forbids exactly the same centers as the unclipped one, and
the margin keeps obstacles that touch the hull only at its boundary
full-dimensional instead of collapsing them to flat slivers.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from trunkpack.catalog import BoxType, half_extents
from trunkpack.geometry import (
    ConvexPolytope,
    DegenerateInput,
    GeometryError,
    Halfspace,
    Point3,
    Triangle3,
    _degenerate_from_points,
    _plane_eval,
    _plane_ints,
    _polytope_from_rows,
    axis_aligned_box,
    convex_hull,
    cross3,
    cutting_rows,
    dot3,
    intersect_halfspaces,
    minkowski_sums,
    polytopes_touch,
    to_fraction,
)

FATTEN_EPS = Fraction(1, 1024)
DEFAULT_MC_SAMPLES = 200000
DEFAULT_SEED = 12345
_GRID = FATTEN_EPS  # sample boxes are rounded outward to this grid
_LATTICE_BITS = 20
_LATTICE = 1 << _LATTICE_BITS
LATTICE_DEN = 2 * _LATTICE * _GRID.denominator  # denominator of every sample
_SAMPLE_BLOCK = 1 << 14  # sample rows drawn and classified at a time
_LANES = 1 << 13  # generator states advanced at a time
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


def _json_loads_exact(text: str):
    # floats in trunk files are read with decimal semantics
    return json.loads(text, parse_float=to_fraction)


def _mesh_trunk(triangles: Sequence[Triangle3], seed: Sequence) -> MeshTrunk:
    """Drop degenerate triangles, then build and validate the trunk."""
    kept = [tri for tri in triangles if not tri.is_degenerate()]
    trunk = MeshTrunk(kept, Point3(*seed), len(triangles) - len(kept))
    _validate_mesh(trunk)
    return trunk


def parse_mesh_json(obj: dict, seed_override: Optional[Sequence] = None) -> MeshTrunk:
    if "triangles" not in obj:
        raise TrunkFormatError("mesh JSON needs a 'triangles' array")
    tris = []
    for raw in obj["triangles"]:
        if len(raw) != 3:
            raise TrunkFormatError("each triangle needs exactly 3 vertices")
        tris.append(Triangle3(*[Point3(*v) for v in raw]))
    seed = seed_override if seed_override is not None else obj.get("seed")
    if seed is None:
        raise TrunkFormatError("mesh trunk needs a seed point (file key 'seed' "
                               "or --seed-point)")
    return _mesh_trunk(tris, seed)


def parse_stl_text(text: str, seed_point: Sequence) -> MeshTrunk:
    """ASCII STL reader.  Binary STL is rejected."""
    if "facet" not in text.split("\n", 1)[0] and not text.lstrip().startswith("solid"):
        raise TrunkFormatError("only ASCII STL is supported (file must start "
                               "with 'solid')")
    verts = []
    tris = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "vertex":
            if len(parts) != 4:
                raise TrunkFormatError(f"bad vertex line: {line.strip()!r}")
            verts.append(Point3(*parts[1:4]))
        elif parts[0] == "endfacet":
            if len(verts) != 3:
                raise TrunkFormatError("facet without exactly 3 vertices")
            tris.append(Triangle3(*verts))
            verts = []
    if verts:
        raise TrunkFormatError("dangling vertices after last endfacet")
    if seed_point is None:
        raise TrunkFormatError("STL trunks need --seed-point")
    return _mesh_trunk(tris, seed_point)


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
        if "vertices" not in cav:
            raise TrunkFormatError(f"cavity {i} needs a 'vertices' array")
        pts = [Point3(*v) for v in cav["vertices"]]
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
    if _plane_eval(pl, p._h) != 0:
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
class Region:
    """A box's feasible center set: hull minus obstacle interiors.  The
    volume estimate fields stay None until the describe stage fills them."""

    box_id: str
    orientation: str
    hull: ConvexPolytope
    obstacles: List[ConvexPolytope]
    fattened: bool = False
    volume_mm3: Optional[float] = None
    volume_stderr_mm3: Optional[float] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def facet_count(self) -> int:
        return len(self.hull.halfspaces) + sum(len(o.halfspaces) for o in self.obstacles)


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
    return _degenerate_from_points(list(tri.vertices()), id=id)


def raw_feasible_region(trunk, box: BoxType, orientation: str) -> Optional[Region]:
    """Stage 1: eroded hull (fattened if flat) plus per-concavity obstacles,
    not yet clipped.  None when the box cannot fit inside the outer hull.
    The obstacles are built by ``minkowski_sums``: one hull per concavity
    shape, moved to each concavity of that shape (a mesh's triangles are
    translates of few shapes)."""
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
    obstacles = minkowski_sums(sources, b,
                               [f"o{i}" for i in range(len(sources))])
    return Region(box.id, orientation, hull, obstacles, fattened)


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


def describe_region(raw: Region, samples: int = DEFAULT_MC_SAMPLES,
                    seed: int = DEFAULT_SEED) -> Optional[Region]:
    """Stage 2: clip obstacles, discard the ones that miss the hull, and
    estimate the free volume.  Each obstacle is clipped with only its rows
    that cut the margin (``cutting_rows``; the others hold the whole
    margin), once per distinct list of such rows.  The kept obstacles are
    named ``o<i>`` in order; those of one clipped shape (the same vertices)
    are copies of the first under their own ids, sharing its lists as
    ``region_from_dict`` shares a decoded file's.  Returns None when no
    sampled center is free (the emptiness probe) — exact emptiness is not
    decided."""
    margin = enlarged_hull(raw.hull)
    kept = []
    clips = {}  # cutting rows -> their clip
    shapes = {}  # vertex content -> the first kept obstacle of that shape
    for obs in raw.obstacles:
        rows = tuple(cutting_rows(obs.halfspaces, margin))
        if rows not in clips:
            clips[rows] = clip_obstacle(rows, margin, id=f"o{len(kept)}")
        clipped = clips[rows]
        key = (None if clipped is None
               else tuple(v._h for v in clipped.vertices))
        if key in shapes:
            kept.append(shapes[key].with_id(f"o{len(kept)}"))
            continue
        if clipped is None or clipped.degenerate or \
                not polytopes_touch(clipped, raw.hull):
            # discarding must not change the represented set
            if polytopes_touch(obs, raw.hull):
                raise GeometryError("discard filter would drop an obstacle "
                                    "that meets the hull")
            continue
        kept.append(shapes.setdefault(key, clipped))
    vol, stderr = estimate_volume(raw.hull, kept, samples, seed)
    if vol == 0.0:
        return None
    return Region(raw.box_id, raw.orientation, raw.hull, kept, raw.fattened,
                  vol, stderr, samples, seed)


def compute_feasible_region(trunk, box: BoxType, orientation: str,
                            samples: int = DEFAULT_MC_SAMPLES,
                            seed: int = DEFAULT_SEED) -> Optional[Region]:
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

    Coordinates are num / LATTICE_DEN with int64 numerators below 2**62 in
    magnitude; ``bound`` is the largest numerator magnitude and ``max_abs``,
    the largest coordinate magnitude rounded to a float, bounds the
    vectorized float screen.  All classifications are certified: float
    comparisons are trusted only outside a conservative error bound and
    re-done exactly inside it.
    """

    __slots__ = ("num", "bound", "max_abs")

    def __init__(self, num):
        if num.dtype != np.int64:
            raise GeometryError("lattice numerators must be int64")
        self.num = num
        self.bound = max(-int(num.min(initial=0)), int(num.max(initial=0)))
        if self.bound >= 2 ** 62:
            raise GeometryError("lattice numerators would overflow int64")
        self.max_abs = self.bound / LATTICE_DEN

    def __len__(self) -> int:
        return self.num.shape[0]

    def exact(self, idx: int) -> Tuple[Fraction, Fraction, Fraction]:
        return tuple(Fraction(int(self.num[idx, k]), LATTICE_DEN) for k in range(3))

    def point(self, idx: int) -> Point3:
        return Point3(*self.exact(idx))

    def subset(self, mask) -> "LatticePoints":
        return LatticePoints(self.num[mask])

    def translated(self, offset: Sequence[Fraction]) -> "LatticePoints":
        """Shift all points by an exact offset on the lattice."""
        num = self.num.copy()
        for k in range(3):
            shift = to_fraction(offset[k]) * LATTICE_DEN
            if shift.denominator != 1:
                raise GeometryError("offset is not representable on the lattice")
            step = int(shift)
            if num.shape[0] and \
                    int(np.max(np.abs(num[:, k]))) + abs(step) >= 2 ** 62:
                raise GeometryError("translated numerators would overflow int64")
            num[:, k] = num[:, k] + step
        return LatticePoints(num)


def _sample_box(bbox) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The box rounded outward to the _GRID grid, each side grown by less
    than one step, as integer corners (lo, hi) counted in grid steps."""
    lo, hi = (tuple(map(to_fraction, corner)) for corner in bbox)
    if any(a > b for a, b in zip(lo, hi)):
        raise GeometryError("empty bounding box")
    return (tuple(math.floor(a / _GRID) for a in lo),
            tuple(math.ceil(b / _GRID) for b in hi))


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier


def _seed_state(seed: int) -> Tuple[int, int]:
    """PCG64's (state, increment) for ``SeedSequence(seed)``, seed >= 0:
    the seed's little-endian 32-bit words hashed into a pool of 4 words,
    ``generate_state(4, uint64)`` read off the pool, and PCG64's
    ``srandom_r`` on its two 128-bit halves."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = []
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    state0, state1, seq0, seq1 = (out[i] | out[i + 1] << 32
                                  for i in range(0, 8, 2))
    inc = ((seq0 << 64 | seq1) << 1 | 1) & _MASK128
    state = (inc + (state0 << 64 | state1)) & _MASK128  # one step from 0
    return (state * _PCG_MULT + inc) & _MASK128, inc


def _affine(hi, lo, a: int, c: int):
    """(a * s + c) mod 2**128 for the 128-bit states s = hi * 2**64 + lo
    (uint64 arrays), as (hi, lo): 64-bit products wrap, and the high half
    of lo times a's low word is summed from 32-bit halves."""
    m0, m1 = np.uint64(a & _MASK32), np.uint64(a >> 32 & _MASK32)
    c_lo = np.uint64(c & _MASK64)
    low = lo & _MASK32
    high = lo >> 32
    p01 = low * m1
    p10 = high * m0
    low *= m0
    low >>= 32
    low += p01 & _MASK32
    low += p10 & _MASK32
    low >>= 32  # the carry out of the low word's middle
    high *= m1
    high += p01 >> 32
    high += p10 >> 32
    high += low  # the high half of lo * (a mod 2**64)
    new_lo = lo * np.uint64(a & _MASK64)
    new_lo += c_lo
    high += new_lo < c_lo
    high += hi * np.uint64(a & _MASK64)
    high += lo * np.uint64(a >> 64)
    high += np.uint64(c >> 64)
    return high, new_lo


def _pcg64_outputs(seed: int):
    """The PCG64 XSL-RR (O'Neill 2014) outputs of numpy's ``default_rng``,
    ``_LANES`` at a time as little-endian uint64 arrays: the first lanes by
    doubling (the first k states stepped k times are the next k), then each
    lane moved on by one LCG jump of ``_LANES`` steps (Brown 1994)."""
    state, inc = _seed_state(seed)
    state = (state * _PCG_MULT + inc) & _MASK128
    hi, lo = np.empty((2, _LANES), dtype=np.uint64)
    hi[0], lo[0] = state >> 64, state & _MASK64
    a, c = _PCG_MULT, inc  # the k-step map s -> a s + c
    k = 1
    while k < _LANES:
        hi[k:2 * k], lo[k:2 * k] = _affine(hi[:k], lo[:k], a, c)
        a, c = a * a & _MASK128, (a * c + c) & _MASK128
        k *= 2
    while True:
        rot = hi >> 58
        out = hi ^ lo
        x = out >> rot
        np.negative(rot, out=rot)
        rot &= 63
        out <<= rot
        out |= x
        del rot, x  # freed while the caller works on the outputs
        yield out.astype("<u8", copy=False)
        hi, lo = _affine(hi, lo, a, c)


def _draws(seed: int, counts: Iterable[int], bits: int):
    """numpy's ``default_rng(seed).integers(0, 2**bits, n)`` as int64 for
    each n of ``counts`` in turn, 1 <= bits <= 32: the top bits of 32-bit
    draws (Lemire's method (2019) rejects none for a power-of-two range),
    each 64-bit output's low half and then its high half, so an odd count
    leaves a half over for the next n, as PCG64's ``has_uint32`` does."""
    if not 1 <= bits <= 32:
        raise ValueError("draws need a range of 2**1 to 2**32 integers")
    outputs = _pcg64_outputs(seed)
    words = np.empty(0, dtype="<u4")
    for n in counts:
        out = np.empty(n, dtype=np.int64)
        done = 0
        while done < n:
            if not len(words):
                words = next(outputs).view("<u4")
            take = min(n - done, len(words))
            out[done:done + take] = words[:take] >> (32 - bits)
            words = words[take:]
            done += take
        yield out


def _lattice_blocks(bbox, n: int, seed: int):
    """The numerators of n random points inside the box rounded outward to
    the grid (``_sample_box``), exact: 2*_LATTICE lattice positions per
    axis.  The draws are those of numpy's ``default_rng(seed).integers(0,
    _LATTICE, (n, 3))``, computed in-package (``_draws``) and pinned to
    numpy's by the tests.  They come as consecutive int64 blocks of at most
    _SAMPLE_BLOCK rows from one stream, so the blocks continue one n-row
    draw exactly.  The numerator bound depends on the box only and is
    checked before any draw."""
    lo, hi = _sample_box(bbox)
    for a, b in zip(lo, hi):
        if abs(a) * 2 * _LATTICE + (2 * _LATTICE + 1) * (b - a) >= 2 ** 62:
            raise GeometryError("lattice numerators would overflow int64")
    counts = (3 * min(_SAMPLE_BLOCK, n - start)
              for start in range(0, n, _SAMPLE_BLOCK))
    for num in _draws(seed, counts, _LATTICE_BITS):
        num = num.reshape(-1, 3)
        for axis, (a, b) in enumerate(zip(lo, hi)):
            # x = (a*2*_LATTICE + (2r+1)*(b-a)) / LATTICE_DEN, in place over
            # the draws r
            col = num[:, axis]
            col *= 2
            col += 1
            col *= b - a
            col += a * 2 * _LATTICE
        yield num


def sample_lattice_points(bbox, n: int, seed: int) -> LatticePoints:
    """All n points of ``_lattice_blocks(bbox, n, seed)`` at once."""
    num = np.empty((n, 3), dtype=np.int64)
    for start, block in zip(range(0, n, _SAMPLE_BLOCK),
                            _lattice_blocks(bbox, n, seed)):
        num[start:start + len(block)] = block
    return LatticePoints(num)


def _sample_volume(bbox) -> Fraction:
    """Volume of the box the samples of ``bbox`` are drawn from."""
    lo, hi = _sample_box(bbox)
    return math.prod(b - a for a, b in zip(lo, hi)) * _GRID ** 3


def _cut(num: int, den: int, first: int, last: int) -> Tuple[int, int]:
    """floor and ceil of t = num * LATTICE_DEN / den (den != 0), each
    clamped to [first - 1, last + 1].  For an integer n in [first, last],
    n > t exactly when n > floor and n < t exactly when n < ceil, and both
    thresholds fit int64 when the range does."""
    t = num * LATTICE_DEN
    return (min(max(t // den, first - 1), last + 1),
            min(max(-(-t // den), first - 1), last + 1))


def halfspace_signs(h: Halfspace, pts: LatticePoints,
                    idx: Optional[np.ndarray] = None) -> np.ndarray:
    """Certified sign of (normal . p - offset) per point: -1, 0, +1.  With
    ``idx``, only for the points at those indices, in that order.

    An axis-aligned row a * x_k <= d is decided exactly on the one
    numerator column: a * x_k - d has the sign of a * (num_k - t) with
    t = d * LATTICE_DEN / a, and num_k > t, num_k < t are integer
    comparisons with floor(t) and ceil(t) (``_cut``).  A slanted row gets
    a float screen, re-evaluated in Fractions near zero."""
    rows = slice(None) if idx is None else idx
    found = h.axis()
    if found is not None:
        k, a = found
        below, above = _cut(h.d, a, -pts.bound, pts.bound)
        col = pts.num[rows, k]
        more = (col > below).view(np.int8)
        less = (col < above).view(np.int8)
        return more - less if a > 0 else less - more
    vals = pts.num[rows, 0] * (h.a / LATTICE_DEN)
    vals += pts.num[rows, 1] * (h.b / LATTICE_DEN)
    vals += pts.num[rows, 2] * (h.c / LATTICE_DEN)
    vals -= float(h.d)
    bound = (abs(h.a) + abs(h.b) + abs(h.c)) * max(pts.max_abs, 1.0) + abs(h.d)
    tau = bound * _CERT
    signs = np.zeros(len(vals), dtype=np.int8)
    signs[vals > tau] = 1
    signs[vals < -tau] = -1
    for j in np.nonzero(np.abs(vals) <= tau)[0]:
        x, y, z = pts.exact(int(j if idx is None else idx[j]))
        v = h.a * x + h.b * y + h.c * z - h.d
        signs[j] = 0 if v == 0 else (1 if v > 0 else -1)
    return signs


class _AxisSweep:
    """Sort-and-sweep broad phase over a subset of lattice points: per axis,
    the subset's indices ordered by numerator, and the sorted numerators."""

    def __init__(self, num: np.ndarray, subset: np.ndarray):
        self.num = num
        self.order = []
        self.keys = []
        for k in range(3):
            col = num[subset, k]
            perm = np.argsort(col)
            self.order.append(subset[perm])
            self.keys.append(col[perm])
            del col, perm  # before the next axis allocates its own
        self.ranges = [(int(keys[0]), int(keys[-1])) for keys in self.keys]

    def in_box(self, int_bbox) -> np.ndarray:
        """Indices of the subset's points strictly inside the integer box
        (lo, hi, w) of ``ConvexPolytope.int_bbox()`` (``_box_limits``).
        Binary search on the axis with the fewest points in range, then a
        filter on the other two."""
        limits = _box_limits(int_bbox, self.ranges)
        if limits is None:
            return self.order[0][:0]
        spans = [(np.searchsorted(self.keys[k], limits[k][0], side="right"),
                  np.searchsorted(self.keys[k], limits[k][1], side="left"))
                 for k in range(3)]
        axis = min(range(3), key=lambda k: spans[k][1] - spans[k][0])
        cand = self.order[axis][spans[axis][0]:spans[axis][1]]
        for k in range(3):
            if k != axis and cand.size:
                v = self.num[cand, k]
                cand = cand[(v > limits[k][0]) & (v < limits[k][1])]
        return cand


def _box_limits(int_bbox, ranges) -> Optional[list]:
    """Per axis k, the integer thresholds (below, above) between which a
    numerator in ``ranges[k]`` = (first, last) lies strictly inside the
    integer box (lo, hi, w) of ``ConvexPolytope.int_bbox()``: for an
    integer numerator, lo_k/w < num_k/D < hi_k/w (D = LATTICE_DEN) is
    exactly floor(lo_k*D/w) < num_k < ceil(hi_k*D/w), with the thresholds
    clamped to the range (``_cut``).  None when on some axis no numerator
    in range lies strictly inside."""
    lo, hi, w = int_bbox
    limits = []
    for k, (first, last) in enumerate(ranges):
        below = _cut(lo[k], w, first, last)[0]
        above = _cut(hi[k], w, first, last)[1]
        if below >= above - 1:
            return None
        limits.append((below, above))
    return limits


def classify_feasible(pts: LatticePoints, hull: ConvexPolytope,
                      obstacles: Sequence[ConvexPolytope]) -> np.ndarray:
    """Feasibility mask: inside the closed hull and not strictly inside any
    obstacle.

    The hull halfspaces are tested on whole columns while every point is
    still inside the hull, then each only on the points still inside.  An
    obstacle is tested only on the still-feasible points strictly inside
    its bounding box, found by an exact integer sort-and-sweep over the
    lattice numerators, and each of its halfspaces only on the points
    strictly inside the ones before.  The sweep's sort index is built when
    the first obstacle's bounding box meets the range of the points inside
    the hull; an obstacle that only touches the hull's boundary never needs
    it.  Every sign is certified (``halfspace_signs``; exact integer
    comparisons on axis-aligned rows).  A flat (degenerate) obstacle has no
    interior and forbids nothing.  The masks, index subsets and sort index
    take a few bytes per point; ``estimate_volume`` passes one block of
    samples at a time."""
    inside = None  # every point, until a hull row leaves one out
    for h in hull.halfspaces:
        keep = halfspace_signs(h, pts, inside) <= 0
        if inside is None:
            if keep.all():
                continue
            inside = np.arange(len(pts), dtype=np.int32)
        inside = inside[keep]
        if inside.size == 0:
            break
    feasible = np.full(len(pts), inside is None)
    if inside is not None:
        feasible[inside] = True
    solid = [obs for obs in obstacles if not obs.degenerate]
    if not solid or not feasible.any():
        return feasible
    rows = slice(None) if inside is None else inside
    ranges = [(int(pts.num[rows, k].min()), int(pts.num[rows, k].max()))
              for k in range(3)]
    sweep = None
    for obs in solid:
        if sweep is None:
            if _box_limits(obs.int_bbox(), ranges) is None:
                continue
            if inside is None:
                inside = np.arange(len(pts), dtype=np.int32)
            sweep = _AxisSweep(pts.num, inside)
        cand = sweep.in_box(obs.int_bbox())
        cand = cand[feasible[cand]]
        for h in obs.halfspaces:
            if cand.size == 0:
                break
            cand = cand[halfspace_signs(h, pts, cand) < 0]
        feasible[cand] = False
    return feasible


def estimate_volume(hull: ConvexPolytope, obstacles: Sequence[ConvexPolytope],
                    samples: int, seed: int) -> Tuple[float, float]:
    """Monte Carlo free volume of hull minus obstacles, with its standard
    error: the volume of the hull's bounding box rounded out to the grid
    times the share of ``samples`` seeded lattice points in it that are free.

    The points of ``sample_lattice_points`` are classified a block at a
    time (``_lattice_blocks``) and only their hits are kept, so memory does
    not grow with ``samples``.  Obstacles that are flat, or whose bounding
    box holds no lattice point of the hull's strictly inside, forbid no
    sample; they are dropped once, before the first block."""
    lo, hi, w = hull.int_bbox()
    ranges = [(-(-lo[k] * LATTICE_DEN // w), hi[k] * LATTICE_DEN // w)
              for k in range(3)]
    solid = [obs for obs in obstacles if not obs.degenerate
             and _box_limits(obs.int_bbox(), ranges) is not None]
    hits = sum(int(classify_feasible(LatticePoints(num), hull, solid).sum())
               for num in _lattice_blocks(hull.bbox(), samples, seed))
    return _hit_volume(_sample_volume(hull.bbox()), hits, samples)


def _hit_volume(bbox_volume: Fraction, hits: int,
                samples: int) -> Tuple[float, float]:
    """Volume and standard error estimated from ``hits`` of ``samples``
    uniform points in a box of volume ``bbox_volume``."""
    vol = float(bbox_volume)
    p = hits / samples
    return vol * p, vol * (p * (1.0 - p) / samples) ** 0.5


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
    ok = np.ones(len(centers), dtype=bool)
    for off in _corner_offsets(box, orientation):
        ok &= classify_feasible(centers.translated(off), trunk.shell,
                                trunk.cavities)
    return {"checked": len(centers), "violations": int((~ok).sum())}


# --- mesh parity ----------------------------------------------------------

def _tri_plane(tri: Triangle3):
    pl = _plane_ints(tri.a._h, tri.b._h, tri.c._h)
    if pl is None:
        raise GeometryError("degenerate triangle")
    return pl


def _coplanar_point_in_triangle(p: Point3, tri: Triangle3) -> bool:
    """p known to lie on the triangle's plane; closed containment test."""
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
        ep = _plane_eval(pl, p._h)
        if ep == 0:
            if _coplanar_point_in_triangle(p, tri):
                return True
            continue  # endpoint on plane but off the triangle: no crossing
        ea = _plane_eval(pl, anchor._h)
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
    the anchor must avoid every triangle plane.  Each depth up to 40 tries
    50 odd offsets of at most 127/2**14 mm per axis from stream 1000+depth."""
    for depth in range(depth, 41):
        draws = next(_draws(1000 + depth, [150], 7)).reshape(50, 3)
        for off in draws * 2 - 127:
            cand = trunk.seed + Point3(*(Fraction(int(v), 1 << 14)
                                         for v in off))
            for tri in trunk.triangles:
                pl = _tri_plane(tri)
                if _plane_eval(pl, cand._h) == 0:
                    break  # insist on anchors off every plane
                # a seed on the plane is never on the triangle (validated
                # at load): the open segment cannot meet this triangle
                if (_plane_eval(pl, trunk.seed._h) != 0
                        and _segment_triangle_crossing(trunk.seed, cand,
                                                       tri) != "none"):
                    break
            else:
                return cand
    raise GeometryError("could not find a clean parity anchor")


def soundness_check_mesh(trunk: MeshTrunk, centers: LatticePoints,
                         box: BoxType, orientation: str) -> dict:
    """For each center: all 8 box corners inside the mesh by exact crossing
    parity from the seed.  Vectorized float screening with exact fallback."""
    planes = [_tri_plane(tri) for tri in trunk.triangles]
    seed_side = [_plane_eval(pl, trunk.seed._h) for pl in planes]
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
    triangle?  Per edge (p, q), orient3d(seed, corner, p, q) is the side of
    the plane through seed, p and q that the corner lies on, signed by
    ``halfspace_signs``; 0 when the seed is collinear with the edge.
    Returns per-candidate crossing (0/1) and degeneracy flags."""
    a, b, c = tri.vertices()
    signs = np.zeros((3, idx.size), dtype=np.int8)
    for e_i, (p, q) in enumerate(((a, b), (b, c), (c, a))):
        plane = _plane_ints(seed._h, p._h, q._h)
        if plane is not None:
            signs[e_i] = halfspace_signs(Halfspace._from_ints(*plane),
                                         corners, idx)
    degenerate = (signs == 0).any(axis=0)
    crossing = ((signs[0] == signs[1]) & (signs[1] == signs[2])
                & ~degenerate).astype(np.int64)
    return {"crossing": crossing, "degenerate": degenerate}


# ---------------------------------------------------------------------------
# interchange and reports


def _polytope_to_dict(p: ConvexPolytope) -> dict:
    return {"halfspaces": [h.as_dict() for h in p.halfspaces]}


def _polytope_from_halfspaces(obj: dict, id: str,
                              memo: dict) -> ConvexPolytope:
    """Rebuild a stored polytope.  Stored halfspace lists are complete (they
    were emitted from bounded polytopes), so no extra bounding is needed.

    ``memo`` maps canonical row lists to polytopes already rebuilt: a
    repeated list becomes a copy of the earlier polytope under ``id``, since
    its vertices depend on the rows only.  It also maps each set of normals
    to its boundedness verdict, which depends on the normals only (the
    recession cone is {x : n . x <= 0})."""
    rows = [Halfspace(h["n"], h["d"]) for h in obj["halfspaces"]]
    key = tuple(h.key() for h in rows)
    if key in memo:
        return memo[key].with_id(id)
    normals = frozenset(h.normal for h in rows)
    if normals not in memo:
        memo[normals] = halfspaces_bounded(rows)
    if not memo[normals]:
        raise GeometryError(f"stored polytope {id!r} is unbounded")
    poly = _polytope_from_rows(rows, id=id)
    if poly is None or poly.degenerate:
        raise GeometryError(f"stored polytope {id!r} is empty or flat")
    memo[key] = poly
    return poly


def region_to_dict(region) -> dict:
    out = {
        "box": region.box_id,
        "orientation": region.orientation,
        "hull": _polytope_to_dict(region.hull),
        "obstacles": [_polytope_to_dict(o) for o in region.obstacles],
        "fattened": region.fattened,
    }
    if region.volume_mm3 is not None:
        out["volume_mm3"] = region.volume_mm3
        out["volume_stderr_mm3"] = region.volume_stderr_mm3
        out["samples"] = region.samples
        out["seed"] = region.seed
    return out


def empty_region_dict(box_id: str, orientation: str) -> dict:
    return {"box": box_id, "orientation": orientation, "empty": True}


def region_from_dict(obj: dict):
    """Rebuild a Region, with its volume estimate when one is stored (None
    for an empty marker).

    Each distinct stored obstacle is decoded and enumerated once per call,
    and each distinct set of normals bounds-checked once; a repeat becomes
    its own polytope ``o<i>`` sharing the first one's lists, so a bad
    obstacle is still reported at its first index.  A stored sample count
    must be an int of at least 1, a seed an int of at least 0, a volume
    and its standard error finite numbers of at least 0, and a stored
    ``fattened`` flag a bool (absent, it is false); anything else raises
    ValueError."""
    if obj.get("empty"):
        return None
    fattened = obj.get("fattened", False)
    if type(fattened) is not bool:
        raise ValueError(f"stored fattened must be a bool, not {fattened!r}")
    memo = {}
    hull = _polytope_from_halfspaces(
        obj["hull"], f"{obj['box']}:{obj['orientation']}:hull", memo)
    obstacles = [_polytope_from_halfspaces(o, f"o{i}", memo)
                 for i, o in enumerate(obj["obstacles"])]
    region = Region(obj["box"], obj["orientation"], hull, obstacles,
                    fattened)
    if "volume_mm3" in obj:
        region.volume_mm3, region.volume_stderr_mm3 = (
            float(_stored(obj, key, 0, (int, float)))
            for key in ("volume_mm3", "volume_stderr_mm3"))
        region.samples = _stored(obj, "samples", 1)
        region.seed = _stored(obj, "seed", 0)
    return region


def _stored(obj: dict, key: str, least: int, kinds=(int,)):
    """``obj[key]``, of a type in ``kinds`` (a bool is none of them), from
    ``least`` up to the largest float: anything else, NaN and the
    infinities included, raises ValueError."""
    value = obj[key]
    if type(value) not in kinds or not least <= value <= sys.float_info.max:
        raise ValueError(f"stored {key} must be a finite "
                         f"{kinds[-1].__name__} >= {least}, not {value!r}")
    return value


def _list_json(items: Sequence[str], depth: int) -> str:
    """A list of written items, its opening bracket at nesting depth
    ``depth``, laid out as ``json.dumps(indent=1)`` does."""
    if not items:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * depth + "]"


def _polytope_json(p: ConvexPolytope, depth: int) -> str:
    """``_polytope_to_dict(p)`` as ``json.dumps(indent=1)`` writes it with
    its opening brace at nesting depth ``depth``: one ``%d`` template for
    every halfspace."""
    pad = [" " * (depth + i) for i in range(5)]
    row = ("{\n" + pad[3] + '"d": %d,\n' + pad[3] + '"n": [\n'
           + pad[4] + "%d,\n" + pad[4] + "%d,\n" + pad[4] + "%d\n"
           + pad[3] + "]\n" + pad[2] + "}")
    rows = [row % (h.d, h.a, h.b, h.c) for h in p.halfspaces]
    return ("{\n" + pad[1] + '"halfspaces": ' + _list_json(rows, depth + 1)
            + "\n" + pad[0] + "}")


def region_json(region_or_none, box_id: str = None, orientation: str = None) -> str:
    """The region file: ``json.dumps(obj, sort_keys=True, indent=1)`` plus a
    newline, for obj the empty marker (None) or ``region_to_dict(region)``,
    written directly: every halfspace through one template, scalars
    through ``json.dumps``, keys in sorted order."""
    if region_or_none is None:
        return json.dumps(empty_region_dict(box_id, orientation),
                          sort_keys=True, indent=1) + "\n"
    r = region_or_none
    fields = [("box", json.dumps(r.box_id)),
              ("fattened", json.dumps(r.fattened)),
              ("hull", _polytope_json(r.hull, 1)),
              ("obstacles", _list_json(
                  [_polytope_json(o, 2) for o in r.obstacles], 1)),
              ("orientation", json.dumps(r.orientation))]
    if r.volume_mm3 is not None:
        fields += [("samples", json.dumps(r.samples)),
                   ("seed", json.dumps(r.seed)),
                   ("volume_mm3", json.dumps(r.volume_mm3)),
                   ("volume_stderr_mm3", json.dumps(r.volume_stderr_mm3))]
    return ("{\n" + ",\n".join(f' "{key}": {text}' for key, text in fields)
            + "\n}\n")


def region_report_rows(regions: Sequence[Region]) -> list:
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
