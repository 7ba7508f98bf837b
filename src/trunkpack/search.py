"""Branch-and-bound enumeration of box packings.

A pattern is a multiset of (box type, orientation) placements kept in a
canonical order (descending box volume, then type id, then orientation
rank), so every multiset is explored exactly once.  Each search node carries
the pattern plus a set of disjunction choices: box-box order constraints
(which axis separates a pair, and in which order) and box-obstacle
constraints (which obstacle facet a center must stay outside of).  A node
differs from the node it was made from by one delta (one box, one box-box
order or one box-obstacle facet) and builds its state from its parent's by
that delta alone.  Its box-box order constraints are decided first, exactly
and without an LP (``order_chains_feasible``); only a box-box delta can
rule a node out, by an overrun or a cycle on its one axis.  A node they rule
out is skipped like one with an infeasible LP, together with its subtree,
whose nodes keep the constraints.  Otherwise the node LP, its parent's
extended by the delta (``lp.add_box``, ``lp.add_bb``, ``lp.add_bo``),
maximizes the shared separation slack; it is warm-started from the
parent's final tableau.  A root's LP extends the pattern LP of no box,
built once per search, and a node below a failed LP extends the failed
one; both are solved cold.  The node's constraints are those its LP
records (``LinearProgram.pattern``).  A feasible assignment either
certifies an intersection-free packing or exposes a conflict to branch on.
The answer is the LP's canonical point (see ``trunkpack.lp``), the same
from any start, so the tree does not depend on the solver's path:

* an overlapping box pair branches into 6 children (3 axes x 2 orders);
* a center strictly inside an obstacle branches into one child per facet.

The search is one sequential depth-first pass over an explicit stack that
pops the largest boxes first, at the roots as in every extension.  An
intersection-free node replaces the incumbent only when its volume is
larger, so the result is the first packing of maximum volume in visiting
order; the node is then extended by one more placement with a key no
smaller than its last one.  An exact integer upper bound (placed volume
plus all still-addable box volumes) prunes every subtree whose bound is at
most the incumbent.  Until the first maximum-volume node is found the
incumbent is below the maximum and that node's bound is at least the
maximum, so pruning never skips it and never reorders the nodes it keeps:
the result is the same with pruning on or off, only the node count moves.

LP numerical failures are counted and treated conservatively: the node is
neither recorded nor branched on, but its extensions are still explored;
their LPs extend the failed one and are solved cold.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from trunkpack.catalog import ORIENTATIONS, oriented_extents
from trunkpack.lp import (NumericalFailure, add_bb, add_bo, add_box,
                          build_lp, solve)

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

    @cached_property
    def extents(self) -> Tuple[int, int, int]:
        """The box's extents along x, y and z in this orientation."""
        return oriented_extents(self.box.dims_mm, self.orientation)


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs.  ``root_parallelism`` is kept for callers that still
    pass it; the search is sequential, so only 1 is accepted."""

    time_limit_s: Optional[float] = None
    prune_enabled: bool = True
    root_parallelism: int = 1

    def __post_init__(self):
        if self.time_limit_s is not None and not self.time_limit_s > 0:
            raise ValueError("time_limit_s must be positive")
        if self.root_parallelism != 1:
            raise ValueError("root_parallelism must be 1: the search is "
                             "sequential")


@dataclass
class SearchStats:
    """Search counters.  ``lp_calls`` counts the node LPs actually built and
    solved: nodes pruned by the bound or ruled out by their order chains
    make none.  ``pivots`` counts their dual simplex pivots, warm starts
    included (a failed LP's are not counted)."""

    nodes: int = 0
    lp_calls: int = 0
    pivots: int = 0
    lp_failures: int = 0
    bb_branches: int = 0
    bo_branches: int = 0
    improvements: int = 0
    pruned: int = 0
    wall_time_s: float = 0.0
    timed_out: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


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
    canonical key order; a type with ``max_count`` below 1 has none."""
    out = []
    for box in catalog:
        if box.max_count < 1:
            continue
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
                         skip_bb=(), skip_bo=()):
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
    extents = [c.extents for c in placed]
    # Python floats: the same IEEE arithmetic, without a numpy scalar per
    # operation
    centers = centers.tolist()
    bb = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in skip_bb:
                continue
            volume = 1.0
            for k in range(3):
                overlap = ((extents[i][k] + extents[j][k]) / 2.0
                           - abs(centers[i][k] - centers[j][k]))
                if overlap <= _DEPTH_TOL:
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
                norm = math.sqrt(h.a * h.a + h.b * h.b + h.c * h.c)
                dist = (float(h.d) - (h.a * centers[i][0] + h.b * centers[i][1]
                                      + h.c * centers[i][2])) / norm
                depth = dist if depth is None else min(depth, dist)
                if depth <= _DEPTH_TOL:
                    break
            if depth is not None and depth > _DEPTH_TOL:
                bo.append((depth, i, obstacle))
    bo.sort(key=lambda t: (-t[0], t[1], t[2].id or ""))
    return bb, bo


# ---------------------------------------------------------------------------
# search


class PartialPattern(NamedTuple):
    """One search node, one step on an LP that already exists.

    ``indices`` are the candidate indices of the placed multiset
    (canonical, non-decreasing; extensions start at the last one).
    ``base`` is the LP the node's own extends by ``delta`` (("box",
    candidate index), ("bb", order constraint) or ("bo", facet
    constraint)): the LP of the node it was made from, or at a root the
    pattern LP of no box.  ``parent`` is the outcome of solving ``base``,
    None at a root and below a failed LP, where the node's LP is solved
    cold.  ``earliest`` holds the node's order chains (see
    ``order_chains_feasible``), None when they rule the node out.  The
    node's constraints are those of its LP's ``pattern``."""

    indices: tuple
    base: object
    parent: object
    delta: object
    earliest: object


def branch(bb_conflicts, bo_conflicts):
    """The constraints resolving the largest conflict, one per child.

    Box-box conflicts take strict priority: the largest one yields exactly
    six order constraints (three axes times two orders).  Otherwise the
    largest box-obstacle conflict yields one facet constraint per obstacle
    facet.  Returns (constraints, kind) with kind in {"bb", "bo", None}.
    """
    if bb_conflicts:
        _, i, j = bb_conflicts[0]
        return [(i, j, axis, order)
                for axis in (0, 1, 2) for order in (1, -1)], "bb"
    if bo_conflicts:
        _, i, obstacle = bo_conflicts[0]
        return [(i, obstacle.id, f)
                for f in range(len(obstacle.halfspaces))], "bo"
    return [], None


def _add_chain(earliest, limit):
    """The order chains with one more box, unconstrained: at the lower
    corner of its hull's bounding box on every axis."""
    (lo, _, w), _ = limit
    return tuple(positions + ((2 * lo[axis], w),)
                 for axis, positions in enumerate(earliest))


def _add_order(earliest, bb, constraint, limits):
    """The order chains after one more constraint, or None when they become
    infeasible.

    ``bb`` holds the constraints already in ``earliest``.  Only the
    constraint's axis moves: its later box is raised to the earlier box's
    position plus the gap, and each raised box raises its own successors in
    turn (incremental longest paths; Ramalingam & Reps, J. Algorithms 21,
    1996).  Every raised position is checked against its box's upper
    bound.  A raise that reaches the earlier box again closes a cycle: the
    chains were acyclic and held, so that happens exactly when the new
    constraint lies on a cycle."""
    i, j, axis, order = constraint
    first, second = (i, j) if order == 1 else (j, i)
    succ = {first: [second]}
    for (a, b, a_axis, a_order) in bb:
        if a_axis == axis:
            u, v = (a, b) if a_order == 1 else (b, a)
            succ.setdefault(u, []).append(v)
    positions = list(earliest[axis])
    work = [first]
    while work:
        u = work.pop()
        num, den = positions[u]
        for v in succ.get(u, ()):
            start = num + (limits[u][1][axis] + limits[v][1][axis]) * den
            v_num, v_den = positions[v]
            if start * v_den <= v_num * den:
                continue
            (_, hi, w), _ = limits[v]
            if v == first or start * w > 2 * hi[axis] * den:
                return None
            positions[v] = (start, den)
            work.append(v)
    return earliest[:axis] + (tuple(positions),) + earliest[axis + 1:]


def order_chains_feasible(placements: Sequence, regions: Dict[tuple, object],
                          bb_constraints: Sequence[Tuple[int, int, int, int]]
                          ) -> bool:
    """Decide the box-box order constraints alone, exactly.

    ``placements`` and ``bb_constraints`` are as for ``lp.build_lp``.  Every
    constraint is a difference constraint ``c_lo + gap <= c_hi`` on one axis
    (gap: the half-extent sum), so each center has an earliest position on
    each axis: the longest path to it from the lower corners of the region
    hulls' bounding boxes (Cormen et al., Introduction to Algorithms,
    24.4).  These positions are the order chains, in doubled coordinates
    (integer gaps), each an exact (num, den) with den > 0.  They are folded
    one constraint at a time, as the search builds them along a branch
    (``_add_order``).  Returns False when some earliest position lies
    strictly beyond the box's upper bound, or when the constraints on an
    axis form a cycle (every gap is positive).  Then the pattern LP, which
    adds the hull rows, the slack and the obstacle rows to these
    constraints, is infeasible too, and so is every extension of the node.
    An exact fit (no overrun) is left to the LP.
    """
    limits = [(regions[(box.id, orientation)].hull.int_bbox(),
               oriented_extents(box.dims_mm, orientation))
              for box, orientation in placements]
    earliest = ((), (), ())
    for limit in limits:
        earliest = _add_chain(earliest, limit)
    for t, constraint in enumerate(bb_constraints):
        earliest = _add_order(earliest, bb_constraints[:t], constraint,
                              limits)
        if earliest is None:
            return False
    return True


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


def _node_lp(node: PartialPattern, candidates: Sequence[Candidate],
             regions: Dict[tuple, object]):
    """The node's LP: its base extended by the delta."""
    step, item = node.delta
    if step == "box":
        return add_box(node.base, regions, candidates[item].box,
                       candidates[item].orientation)
    if step == "bb":
        return add_bb(node.base, item)
    return add_bo(node.base, item)


def _child(node: PartialPattern, lp, outcome, delta, limits) -> PartialPattern:
    """The node's child by one step ``delta`` on the node's LP ``lp``,
    solved to ``outcome`` (None when it failed), with its order chains: a
    box child adds the box's chains, a box-box child raises what its one
    new constraint pushes, a box-obstacle child keeps the node's."""
    step, item = delta
    indices, earliest = node.indices, node.earliest
    if step == "box":
        indices, earliest = indices + (item,), _add_chain(earliest,
                                                         limits[item])
    elif step == "bb":
        earliest = _add_order(earliest, lp.pattern.bb, item,
                              [limits[k] for k in indices])
    return PartialPattern(indices, lp, outcome, delta, earliest)


def enumerate_patterns(regions: Dict[tuple, object], catalog: Sequence,
                       config: Optional[SearchConfig] = None) -> PackingResult:
    """Exhaustive depth-first search for the best packing over the regions.

    ``regions`` maps (box id, orientation) to a feasible region; pairs with
    no region are unplaceable.  ``catalog`` supplies volumes and per-type
    count limits.  ``config`` defaults to ``SearchConfig()``.

    The result is the first packing of maximum volume the search visits:
    only a larger volume replaces the incumbent.
    """
    config = config or SearchConfig()
    started = time.monotonic()
    candidates = candidate_list(regions, catalog)
    max_counts = {box.id: box.max_count for box in catalog}
    suffix = _suffix_types(candidates)
    stats = SearchStats()
    deadline = (started + config.time_limit_s) if config.time_limit_s else None
    best_volume = 0
    best_placements: List[Placement] = []
    limits = [(regions[(c.box.id, c.orientation)].hull.int_bbox(), c.extents)
              for c in candidates]
    # the node before every root: no box, on the pattern LP of no box
    origin = PartialPattern((), None, None, None, ((), (), ()))
    empty = build_lp([], regions)
    stack = [_child(origin, empty, None, ("box", k), limits)
             for k in reversed(range(len(candidates)))]

    while stack:
        if deadline is not None and time.monotonic() > deadline:
            stats.timed_out = True
            break
        node = stack.pop()
        stats.nodes += 1
        placed = [candidates[k] for k in node.indices]

        # at most the incumbent: the subtree cannot replace it
        if config.prune_enabled and upper_bound(
                placed, catalog, suffix[node.indices[-1]]) <= best_volume:
            stats.pruned += 1
            continue

        # a node its order chains rule out is skipped like an infeasible LP
        if node.earliest is None:
            continue

        lp = _node_lp(node, candidates, regions)
        stats.lp_calls += 1
        try:
            outcome = solve(lp, node.parent)
            stats.pivots += outcome.pivots
        except NumericalFailure:
            stats.lp_failures += 1
            outcome = None

        if outcome is not None and not outcome.feasible:
            continue

        if outcome is not None:
            centers = outcome.assignment[:3 * len(placed)].reshape(-1, 3)
            skip_bb = {(min(i, j), max(i, j))
                       for (i, j, _, _) in lp.pattern.bb}
            skip_bo = {(i, oid) for (i, oid, _) in lp.pattern.bo}
            bb_conf, bo_conf = detect_intersections(placed, centers, regions,
                                                    skip_bb, skip_bo)
            constraints, kind = branch(bb_conf, bo_conf)
            if kind is not None:
                if kind == "bb":
                    stats.bb_branches += 1
                else:
                    stats.bo_branches += 1
                stack.extend(_child(node, lp, outcome, (kind, c), limits)
                             for c in reversed(constraints))
                continue
            # intersection-free: record, then extend
            volume = sum(c.box.volume_mm3() for c in placed)
            if volume > best_volume:
                stats.improvements += 1
                best_volume = volume
                best_placements = [
                    Placement(c.box, c.orientation,
                              tuple(map(float, centers[i])))
                    for i, c in enumerate(placed)]

        used: Dict[str, int] = {}
        for c in placed:
            used[c.box.id] = used.get(c.box.id, 0) + 1
        addable = [k for k in range(node.indices[-1], len(candidates))
                   if used.get(candidates[k].box.id, 0)
                   < max_counts[candidates[k].box.id]]
        stack.extend(_child(node, lp, outcome, ("box", k), limits)
                     for k in reversed(addable))

    stats.wall_time_s = time.monotonic() - started
    return PackingResult(best_placements, best_volume, stats,
                         timed_out=stats.timed_out)


# ---------------------------------------------------------------------------
# validation


def _snap(value: float) -> Fraction:
    return Fraction(round(value * SNAP_GRID), SNAP_GRID)


def _violations(placements: Sequence[Placement], regions: Dict[tuple, object],
                centers: Sequence[tuple], tol: Fraction) -> List[str]:
    """The packing's violations, decided exactly for exact rational
    ``centers`` within a tolerance ``tol`` >= 0 (mm): a center outside its
    hull by more than tol, a center deeper than tol inside an obstacle that
    is not flat, or two boxes overlapping by more than tol on every axis."""
    def past(h, c, side):
        # more than tol beyond the facet plane on ``side`` (1: outside,
        # -1: inside), compared squared: v^2 > tol^2 |n|^2
        v = side * (h.a * c[0] + h.b * c[1] + h.c * c[2] - h.d)
        return v > 0 and v * v > tol * tol * (h.a * h.a + h.b * h.b
                                              + h.c * h.c)

    problems = []
    extents = [oriented_extents(p.box.dims_mm, p.orientation)
               for p in placements]
    for i, (p, c) in enumerate(zip(placements, centers)):
        region = regions[(p.box.id, p.orientation)]
        if any(past(h, c, 1) for h in region.hull.halfspaces):
            problems.append(f"placement {i} outside hull by more than "
                            f"{float(tol)}")
        for obstacle in region.obstacles:
            if not obstacle.degenerate and all(
                    past(h, c, -1) for h in obstacle.halfspaces):
                problems.append(f"placement {i} inside obstacle "
                                f"{obstacle.id}")
    for i in range(len(placements)):
        for j in range(i + 1, len(placements)):
            if all(abs(centers[i][k] - centers[j][k])
                   < Fraction(extents[i][k] + extents[j][k], 2) - tol
                   for k in range(3)):
                problems.append(f"placements {i} and {j} overlap")
    return problems


def validate_packing(placements: Sequence[Placement],
                     regions: Dict[tuple, object]) -> dict:
    """Check a packing against the regions it was built from, exactly.

    The centers are snapped to the 1/2048 mm grid and the three conditions
    (hull membership, centers outside obstacle interiors, pairwise axis
    separation) are decided on them with no tolerance: mode "exact".  If
    that fails (LP vertices need not be grid rationals), the LP's own float
    centers, converted exactly, are decided within ``FLOAT_TOL_MM``
    (1e-6 mm): mode "float", with its violations.
    """
    snapped = [tuple(_snap(v) for v in p.center_mm) for p in placements]
    if not _violations(placements, regions, snapped, Fraction(0)):
        return {"valid": True, "mode": "exact", "violations": []}
    problems = _violations(placements, regions,
                           [tuple(map(Fraction, p.center_mm))
                            for p in placements], Fraction(FLOAT_TOL_MM))
    return {"valid": not problems, "mode": "float", "violations": problems}
