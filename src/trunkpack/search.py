"""Branch-and-bound enumeration of box packings.

A pattern is a multiset of (box type, orientation) placements kept in a
canonical order (descending box volume, then type id, then orientation
rank), so every multiset is explored exactly once.  Each search node carries
the pattern plus a set of disjunction choices: box-box order constraints
(which axis separates a pair, and in which order) and box-obstacle
constraints (which obstacle facet a center must stay outside of).  The node
LP maximizes the shared separation slack; a feasible assignment either
certifies an intersection-free packing or exposes a conflict to branch on:

* an overlapping box pair branches into 6 children (3 axes x 2 orders);
* a center strictly inside an obstacle branches into one child per facet.

The search is one sequential depth-first pass over an explicit stack.
Intersection-free nodes replace the incumbent when their volume is larger,
or equal with a smaller node identity, and are then extended by one more
placement with a key no smaller than the last one.  An exact integer upper bound (placed volume plus all
still-addable box volumes) prunes hopeless subtrees; pruning never changes
the final result, only the node count.

LP numerical failures are counted and treated conservatively: the node is
neither recorded nor branched on, but its extensions are still explored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from trunkpack.catalog import ORIENTATIONS, oriented_extents
from trunkpack.geometry import Point3
from trunkpack.lp import NumericalFailure, build_lp, solve

_DEPTH_TOL = 1e-9
SNAP_GRID = 2048
FLOAT_TOL_MM = 1e-6


@dataclass(frozen=True)
class Candidate:
    """One placeable (box type, orientation), with its canonical sort key."""

    box: object
    orientation: str

    @property
    def key(self) -> tuple:
        return (-self.box.volume_mm3(), self.box.id,
                ORIENTATIONS.index(self.orientation))


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs.  ``root_parallelism`` is kept for callers that still
    pass it; the search is sequential, so only 1 is accepted."""

    time_limit_s: Optional[float] = None
    prune_enabled: bool = True
    root_parallelism: int = 1

    def __post_init__(self):
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        if self.root_parallelism != 1:
            raise ValueError("root_parallelism must be 1: the search is "
                             "sequential")


@dataclass
class SearchStats:
    nodes: int = 0
    lp_calls: int = 0
    lp_failures: int = 0
    bb_branches: int = 0
    bo_branches: int = 0
    arity_violations: int = 0
    improvements: int = 0
    pruned: int = 0
    wall_time_s: float = 0.0
    timed_out: bool = False

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "lp_calls": self.lp_calls,
            "lp_failures": self.lp_failures,
            "bb_branches": self.bb_branches,
            "bo_branches": self.bo_branches,
            "arity_violations": self.arity_violations,
            "improvements": self.improvements,
            "pruned": self.pruned,
            "wall_time_s": self.wall_time_s,
            "timed_out": self.timed_out,
        }


@dataclass
class Placement:
    box: object
    orientation: str
    center_mm: Tuple[float, float, float]

    def as_dict(self) -> dict:
        return {"box": self.box.id, "orientation": self.orientation,
                "center_mm": [float(v) for v in self.center_mm]}


@dataclass
class PackingResult:
    placements: List[Placement]
    volume_mm3: int
    stats: SearchStats
    timed_out: bool = False

    def volume_dm3(self) -> float:
        return self.volume_mm3 / 1e6

    def as_dict(self) -> dict:
        return {
            "placements": [p.as_dict() for p in self.placements],
            "volume_mm3": self.volume_mm3,
            "volume_dm3": self.volume_dm3(),
            "stats": self.stats.as_dict(),
            "timed_out": self.timed_out,
        }


def candidate_list(regions: Dict[tuple, object], catalog: Sequence) -> List[Candidate]:
    """All placeable (box, orientation) pairs that have a region, in
    canonical key order."""
    out = []
    for box in catalog:
        for orientation in ORIENTATIONS:
            region = regions.get((box.id, orientation))
            if region is None:
                continue
            out.append(Candidate(box, orientation))
    out.sort(key=lambda c: c.key)
    return out


# ---------------------------------------------------------------------------
# conflict detection


def detect_intersections(placed: Sequence[Candidate], centers: np.ndarray,
                         regions: Dict[tuple, object],
                         skip_bb=(), skip_bo=(), tol: float = _DEPTH_TOL):
    """Find box-box overlaps and centers strictly inside obstacles.

    Returns (bb_conflicts, bo_conflicts), sorted by decreasing measure with
    index ties broken ascending.  A box pair conflicts when the boxes
    overlap on every axis; its measure is the overlap volume (the product
    of the per-axis overlaps).  A box-obstacle pair conflicts when the
    center satisfies every obstacle facet strictly; its measure is the
    penetration depth (distance to the nearest facet plane).  The two kinds
    are never compared against each other.  bb entries are (volume, i, j);
    bo entries are (depth, i, obstacle).  Pairs listed in ``skip_bb`` /
    ``skip_bo`` (already separated by a constraint) are ignored.
    """
    n = len(placed)
    extents = [oriented_extents(c.box.dims_mm, c.orientation) for c in placed]
    bb = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in skip_bb:
                continue
            volume = 1.0
            for k in range(3):
                overlap = ((extents[i][k] + extents[j][k]) / 2.0
                           - abs(centers[i][k] - centers[j][k]))
                if overlap <= tol:
                    volume = 0.0
                    break
                volume *= overlap
            if volume > 0.0:
                bb.append((volume, i, j))
    bb.sort(key=lambda t: (-t[0], t[1], t[2]))
    bo = []
    for i, cand in enumerate(placed):
        region = regions[(cand.box.id, cand.orientation)]
        for obstacle in region.obstacles:
            if (i, obstacle.id) in skip_bo:
                continue
            depth = None
            for h in obstacle.halfspaces:
                norm = float(np.sqrt(h.a * h.a + h.b * h.b + h.c * h.c))
                dist = (float(h.d) - (h.a * centers[i][0] + h.b * centers[i][1]
                                      + h.c * centers[i][2])) / norm
                depth = dist if depth is None else min(depth, dist)
                if depth <= tol:
                    break
            if depth is not None and depth > tol:
                bo.append((depth, i, obstacle))
    bo.sort(key=lambda t: (-t[0], t[1], t[2].id or ""))
    return bb, bo


# ---------------------------------------------------------------------------
# search


class PartialPattern:
    """One search node: candidate indices of the placed multiset (canonical,
    non-decreasing), the separation constraints chosen so far, and the index
    floor for further extensions."""

    __slots__ = ("indices", "bb", "bo", "floor")

    def __init__(self, indices, bb, bo, floor):
        self.indices = indices
        self.bb = bb
        self.bo = bo
        self.floor = floor


def branch(pattern: PartialPattern, bb_conflicts, bo_conflicts):
    """Children resolving the largest conflict.

    Box-box conflicts take strict priority: the largest one yields exactly
    six children (three axes times two orders).  Otherwise the largest
    box-obstacle conflict yields one child per obstacle facet.  Returns
    (children, kind) with kind in {"bb", "bo", None}.
    """
    if bb_conflicts:
        _, i, j = bb_conflicts[0]
        children = [
            PartialPattern(pattern.indices, pattern.bb + ((i, j, axis, order),),
                           pattern.bo, pattern.floor)
            for axis in (0, 1, 2) for order in (1, -1)]
        return children, "bb"
    if bo_conflicts:
        _, i, obstacle = bo_conflicts[0]
        children = [
            PartialPattern(pattern.indices, pattern.bb,
                           pattern.bo + ((i, obstacle.id, f),), pattern.floor)
            for f in range(len(obstacle.halfspaces))]
        return children, "bo"
    return [], None


def upper_bound(placed: Sequence[Candidate], catalog: Sequence,
                addable_type_ids=None) -> int:
    """Volume bound in mm^3: placed volume plus every still-addable box at
    its full count (container capacity deliberately ignored).  When
    ``addable_type_ids`` is given, only those types count as addable."""
    used: Dict[str, int] = {}
    total = 0
    for c in placed:
        used[c.box.id] = used.get(c.box.id, 0) + 1
        total += c.box.volume_mm3()
    for box in catalog:
        if addable_type_ids is not None and box.id not in addable_type_ids:
            continue
        total += (box.max_count - used.get(box.id, 0)) * box.volume_mm3()
    return total


def _suffix_types(candidates: Sequence[Candidate]) -> List[dict]:
    """suffix_types[i]: {type id: volume} for types placeable at index >= i."""
    out = [dict() for _ in range(len(candidates) + 1)]
    for i in range(len(candidates) - 1, -1, -1):
        acc = dict(out[i + 1])
        acc[candidates[i].box.id] = candidates[i].box.volume_mm3()
        out[i] = acc
    return out


def enumerate_patterns(regions: Dict[tuple, object], catalog: Sequence,
                       config: Optional[SearchConfig] = None) -> PackingResult:
    """Exhaustive depth-first search for the best packing over the regions.

    ``regions`` maps (box id, orientation) to a feasible region; pairs with
    no region are unplaceable.  ``catalog`` supplies volumes and per-type
    count limits.  ``config`` defaults to ``SearchConfig()``.

    The incumbent is replaced by a larger volume, or by an equal volume
    whose discrete node identity (indices, bb, bo) is smaller, so the result
    is the least such node of maximum volume.
    """
    config = config or SearchConfig()
    started = time.monotonic()
    candidates = candidate_list(regions, catalog)
    max_counts = {box.id: box.max_count for box in catalog}
    suffix = _suffix_types(candidates)
    stats = SearchStats()
    deadline = (started + config.time_limit_s) if config.time_limit_s else None
    best_volume = 0
    best_key = None
    best_placements: List[Placement] = []
    stack = [PartialPattern((k,), (), (), k) for k in range(len(candidates))]

    while stack:
        if deadline is not None and time.monotonic() > deadline:
            stats.timed_out = True
            break
        node = stack.pop()
        stats.nodes += 1
        placed = [candidates[k] for k in node.indices]

        # strictly below the incumbent: the subtree can neither improve nor
        # tie, so skipping it cannot change the (tie-broken) result
        if config.prune_enabled and upper_bound(
                placed, catalog, suffix[node.floor]) < best_volume:
            stats.pruned += 1
            continue

        try:
            lp = build_lp([(c.box, c.orientation) for c in placed], regions,
                          node.bb, node.bo)
            stats.lp_calls += 1
            outcome = solve(lp)
        except NumericalFailure:
            stats.lp_failures += 1
            outcome = None

        if outcome is not None and not outcome.feasible:
            continue

        if outcome is not None:
            centers = outcome.assignment[:3 * len(placed)].reshape(-1, 3)
            skip_bb = {(min(i, j), max(i, j)) for (i, j, _, _) in node.bb}
            skip_bo = {(i, oid) for (i, oid, _) in node.bo}
            bb_conf, bo_conf = detect_intersections(placed, centers, regions,
                                                    skip_bb, skip_bo)
            children, kind = branch(node, bb_conf, bo_conf)
            if kind == "bb":
                stats.bb_branches += 1
                if len(children) != 6:
                    stats.arity_violations += 1
                stack.extend(reversed(children))
                continue
            if kind == "bo":
                stats.bo_branches += 1
                if len(children) != len(bo_conf[0][2].halfspaces):
                    stats.arity_violations += 1
                stack.extend(reversed(children))
                continue
            # intersection-free: record, then extend
            volume = sum(c.box.volume_mm3() for c in placed)
            node_key = (node.indices, node.bb, node.bo)
            if volume > best_volume or (volume == best_volume
                                        and best_key is not None
                                        and node_key < best_key):
                if volume > best_volume:
                    stats.improvements += 1
                best_volume = volume
                best_key = node_key
                best_placements = [
                    Placement(c.box, c.orientation,
                              tuple(map(float, centers[i])))
                    for i, c in enumerate(placed)]

        used: Dict[str, int] = {}
        for c in placed:
            used[c.box.id] = used.get(c.box.id, 0) + 1
        children = []
        for k in range(node.floor, len(candidates)):
            cand = candidates[k]
            if used.get(cand.box.id, 0) >= max_counts[cand.box.id]:
                continue
            children.append(PartialPattern(node.indices + (k,), node.bb,
                                           node.bo, k))
        stack.extend(reversed(children))

    stats.wall_time_s = time.monotonic() - started
    return PackingResult(best_placements, best_volume, stats,
                         timed_out=stats.timed_out)


# ---------------------------------------------------------------------------
# independent validation


def _snap(value: float) -> Fraction:
    return Fraction(round(value * SNAP_GRID), SNAP_GRID)


def _check_exact(placements: Sequence[Placement], regions: Dict[tuple, object],
                 centers: List[tuple]) -> List[str]:
    problems = []
    extents = [tuple(Fraction(e) for e in
                     oriented_extents(p.box.dims_mm, p.orientation))
               for p in placements]
    for i, p in enumerate(placements):
        region = regions[(p.box.id, p.orientation)]
        point = Point3(*centers[i])
        if not region.hull.contains(point):
            problems.append(f"placement {i} center outside hull")
        for obstacle in region.obstacles:
            if obstacle.strictly_contains(point):
                problems.append(f"placement {i} center inside obstacle "
                                f"{obstacle.id}")
    for i in range(len(placements)):
        for j in range(i + 1, len(placements)):
            separated = any(
                abs(centers[i][k] - centers[j][k])
                >= (extents[i][k] + extents[j][k]) / 2
                for k in range(3))
            if not separated:
                problems.append(f"placements {i} and {j} overlap")
    return problems


def _check_float(placements: Sequence[Placement], regions: Dict[tuple, object],
                 tol: float) -> List[str]:
    problems = []
    extents = [oriented_extents(p.box.dims_mm, p.orientation)
               for p in placements]
    for i, p in enumerate(placements):
        region = regions[(p.box.id, p.orientation)]
        c = p.center_mm
        for h in region.hull.halfspaces:
            norm = float(np.sqrt(h.a * h.a + h.b * h.b + h.c * h.c))
            if (h.a * c[0] + h.b * c[1] + h.c * c[2] - h.d) / norm > tol:
                problems.append(f"placement {i} outside hull by more than {tol}")
                break
        for obstacle in region.obstacles:
            inside = True
            for h in obstacle.halfspaces:
                norm = float(np.sqrt(h.a * h.a + h.b * h.b + h.c * h.c))
                if (h.a * c[0] + h.b * c[1] + h.c * c[2] - h.d) / norm >= -tol:
                    inside = False
                    break
            if inside:
                problems.append(f"placement {i} inside obstacle {obstacle.id}")
    for i in range(len(placements)):
        for j in range(i + 1, len(placements)):
            separated = any(
                abs(placements[i].center_mm[k] - placements[j].center_mm[k])
                >= (extents[i][k] + extents[j][k]) / 2.0 - tol
                for k in range(3))
            if not separated:
                problems.append(f"placements {i} and {j} overlap")
    return problems


def validate_packing(placements: Sequence[Placement],
                     regions: Dict[tuple, object],
                     tol_mm: float = FLOAT_TOL_MM) -> dict:
    """Independent check of a packing against the regions it was built from.

    First the centers are snapped to the 1/2048 mm grid and every condition
    (hull membership, centers outside obstacle interiors, pairwise axis
    separation) is verified in exact arithmetic.  If the snapped centers
    fail — LP vertices need not be grid rationals — the raw floating-point
    centers are checked against the same conditions with a documented
    tolerance of ``tol_mm`` (default 1e-6 mm).
    """
    snapped = [tuple(_snap(v) for v in p.center_mm) for p in placements]
    exact_problems = _check_exact(placements, regions, snapped)
    if not exact_problems:
        return {"valid": True, "mode": "exact", "violations": []}
    float_problems = _check_float(placements, regions, tol_mm)
    return {"valid": not float_problems, "mode": "float",
            "violations": float_problems}
