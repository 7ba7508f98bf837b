"""Branch-and-bound enumeration of box packings.

A pattern is a multiset of (box type, orientation) placements kept in a
canonical order (descending box volume, then type id, then orientation
rank), so every multiset is explored exactly once.  Identical boxes are
ordered too: a box with the (box type, orientation) of the box before it
lies no further left, ``x_{i-1} <= x_i`` (``Pattern.tied``).  Any packing
can be relabelled to meet that, so no packing is lost, and a packing of k
identical boxes is searched once rather than once per relabelling (a
symmetry-breaking order; Margot, "Symmetry in integer linear programming",
in 50 Years of Integer Programming, 2010).  Each search node carries
the pattern plus a set of disjunction choices: box-box order constraints
(which axis separates a pair, and in which order) and box-obstacle
constraints (which obstacle facet a center must stay outside of), as an
``lp.Pattern`` without LP arrays: the one record of what the node places
and constrains, with the set of its constrained (box, box) and (box,
obstacle) pairs.  A node differs from the node it was made from by one step
(one box with its tie, one box-box order or one box-obstacle facet),
checked once when the node is made, and builds its state from its parent's
by that step alone: the step adds its pair to the parent's sets and its
order edge, if any, to the parent's edge lists, and shares the rest.

Every node asks one question: can its pattern be realized, and where?  The
answer is the node LP's canonical point (see ``trunkpack.lp``): the largest
separation slack up to ``DELTA_MM``, then the least centers.  It is the same
from any start, so the tree does not depend on how it is computed.  On
axis-aligned rows (box-box orders, ties, hull and obstacle facets normal
to an axis) the node splits per axis into difference constraints, and its
order chains (``order_chains_feasible``), kept at slack 0 and at
``DELTA_MM`` with each box's outgoing order and tie edges per axis, decide
and answer it exactly:

* chains that fail at slack 0 (an overrun or a cycle) rule the node out,
  together with its subtree, whose nodes keep the constraints;
* a node whose rows are all axis-aligned and whose chains hold at
  ``DELTA_MM`` is answered by them: each center its earliest position, the
  exact rational rounded to a float, kept as Python floats;
* one whose chains fail there is answered by Newton steps on its longest
  paths (``_exact_answer``), which find the largest slack s* < ``DELTA_MM``.

Slanted rows are left out of the chains, which keeps them a relaxation.  A
node with a slanted row is answered by its LP: its parent's extended by the
node's pattern (``lp.add_step``) and warm-started from the parent's final
tableau when the parent was answered by an LP, else assembled whole from
the node's placements and constraints (``lp.build_lp``) and solved cold.
A feasible answer either certifies an intersection-free packing or exposes
a conflict to branch on, which ``detect_intersections`` reads off the
pattern's boxes, skipping its constrained pairs:

* an overlapping box pair branches into 6 children (3 axes x 2 orders);
* a center strictly inside an obstacle branches into one child per facet.

The search is one sequential depth-first pass over an explicit stack that
pops the largest boxes first, at the roots as in every extension.  An
intersection-free node replaces the incumbent only when its volume is
larger, so the result is the first packing of maximum volume in visiting
order; the node is then extended by one more placement with a key no
smaller than its last one.  An exact integer bound read off the node
(``_bound``) prunes every subtree whose bound is at most the incumbent.
Until the first maximum-volume node is found the incumbent is below the
maximum and that node's bound is at least the maximum, so pruning never
skips it and never reorders the nodes it keeps: the result is the same
with pruning on or off, only the node count moves.

LP numerical failures are counted and treated conservatively: the node is
neither recorded nor branched on, but its extensions are still explored;
their LPs are assembled whole and solved cold.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from trunkpack.catalog import ORIENTATIONS, oriented_extents
from trunkpack.lp import (DELTA_MM, NumericalFailure, Pattern, add_step,
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
    solved: only nodes with a slanted row make one, and nodes pruned by the
    bound or ruled out by their order chains make none; a node whose rows
    are all axis-aligned is answered by its chains.  ``pivots`` counts the
    LPs' dual simplex pivots, warm starts included (a failed LP's are not
    counted).  ``bound_mm3`` bounds the optimum: every popped node is
    pruned, ruled out or expanded onto the stack, so it is the largest of
    the best volume, the bounds left on the stack and the placed volume of
    a node whose LP failed (its own pattern is never decided)."""

    nodes: int = 0
    lp_calls: int = 0
    pivots: int = 0
    lp_failures: int = 0
    bb_branches: int = 0
    bo_branches: int = 0
    improvements: int = 0
    pruned: int = 0
    bound_mm3: int = 0
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


def _float_facets(poly) -> list:
    """(a, b, c, d, norm) of each of the polytope's facets as floats, the
    norm that of the exact integer normal; computed once per polytope and
    cached on it."""
    if poly._float_facets is None:
        poly._float_facets = [
            (float(h.a), float(h.b), float(h.c), float(h.d),
             math.sqrt(h.a * h.a + h.b * h.b + h.c * h.c))
            for h in poly.halfspaces]
    return poly._float_facets


def detect_intersections(pattern: Pattern, centers: Sequence):
    """Find the pattern's box-box overlaps and centers strictly inside
    obstacles, with ``centers`` one [x, y, z] list of floats per box.

    Returns (bb_conflicts, bo_conflicts), sorted by decreasing measure with
    index ties broken ascending.  A box pair conflicts when the boxes
    overlap on every axis; its measure is the overlap volume (the product
    of the per-axis overlaps).  A box-obstacle pair conflicts when the
    center satisfies every obstacle facet strictly; its measure is the
    penetration depth (distance to the nearest facet plane).  The two kinds
    are never compared against each other.  bb entries are (volume, i, j);
    bo entries are (depth, i, obstacle).  Pairs a constraint of the
    pattern already separates (``Pattern.bb_pairs`` and ``bo_pairs``) are
    ignored.
    """
    extents = pattern.extents
    n = len(extents)
    skip_bb, skip_bo = pattern.bb_pairs, pattern.bo_pairs
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
    for i, region in enumerate(pattern.regions):
        x, y, z = centers[i]
        for obstacle in region.obstacles:
            if (i, obstacle.id) in skip_bo:
                continue
            depth = None
            for a, b, c, d, norm in _float_facets(obstacle):
                dist = (d - (a * x + b * y + c * z)) / norm
                depth = dist if depth is None else min(depth, dist)
                if depth <= _DEPTH_TOL:
                    break
            if depth is not None and depth > _DEPTH_TOL:
                bo.append((depth, i, obstacle))
    bo.sort(key=lambda t: (-t[0], t[1], t[2].id or ""))
    return bb, bo


# ---------------------------------------------------------------------------
# order chains: the axis-aligned rows of a node, decided and solved exactly

# the slacks the chains are kept at, in doubled coordinates (the unit is
# half a millimetre, so every gap is an integer): none, and DELTA_MM (1 mm)
_SLACKS = (0, round(2 * DELTA_MM))
# the chains of no box at one slack: (positions, upper bounds, edges) per
# axis
_NO_BOX = (((), (), ()),) * 3


def _with_box(chain, lo, hi, w):
    """The chains at one slack with one more box, unconstrained: at the
    lower corner of its hull's bounding box on every axis, bounded by the
    upper corner, with no edge out of it."""
    positions, uppers, edges = chain
    return (tuple(p + ((2 * v, w),) for p, v in zip(positions, lo)),
            tuple(u + ((2 * v, w),) for u, v in zip(uppers, hi)),
            tuple(e + ((),) for e in edges))


def _with_edge(chain, axis, u, v, weight):
    """The chains at one slack with the edge u -> v of that weight added on
    ``axis``: every other box's edges are the parent's tuples, shared."""
    positions, uppers, edges = chain
    out = list(edges[axis])
    out[u] += ((v, weight),)
    return positions, uppers, edges[:axis] + (tuple(out),) + edges[axis + 1:]


def _raise(chain, axis, box, num, den, stop=-1):
    """The chains at one slack with ``box`` raised to at least num / den on
    ``axis``, or None when that makes them infeasible.

    The chains carry, per axis, each box's edges to its later boxes: for
    an order constraint the half-extent sum plus the slack, for a tie (x
    only, ``Pattern.tied``) 0.  Each raised box raises its successors in
    turn, by the edge's weight (incremental longest paths; Ramalingam &
    Reps, J. Algorithms 21, 1996).  Every raised position is
    checked against its box's upper bound, and a raise that reaches
    ``stop`` fails: for a new order constraint, its earlier box, which the
    raise of its later box reaches again exactly when the new constraint
    closes a cycle."""
    positions, uppers, edges = chain
    moved = list(positions[axis])
    upper = uppers[axis]
    succ = edges[axis]
    work = [(box, num, den)]
    while work:
        u, num, den = work.pop()
        u_num, u_den = moved[u]
        if num * u_den <= u_num * den:
            continue
        hi_num, hi_den = upper[u]
        if u == stop or num * hi_den > hi_num * den:
            return None
        moved[u] = (num, den)
        for v, weight in succ[u]:
            work.append((v, num + weight * den, den))
    return (positions[:axis] + (tuple(moved),) + positions[axis + 1:], uppers,
            edges)


def _cap(chain, axis, box, num, den):
    """The chains at one slack with ``box``'s upper bound on ``axis``
    lowered to num / den, or None when its position lies beyond it."""
    positions, uppers, edges = chain
    hi_num, hi_den = uppers[axis][box]
    if num * hi_den >= hi_num * den:
        return chain
    p_num, p_den = positions[axis][box]
    if p_num * den > num * p_den:
        return None
    capped = list(uppers[axis])
    capped[box] = (num, den)
    return (positions, uppers[:axis] + (tuple(capped),) + uppers[axis + 1:],
            edges)


def _extend(pattern: Pattern, chains, aligned: bool, regions, step, item):
    """One pattern step (("box", (box, orientation)), ("bb", order
    constraint) or ("bo", facet constraint)), checked by the ``Pattern``
    step, with its effect on the order chains at both slacks and on
    whether every row is axis-aligned.  Returns (pattern, chains,
    aligned).

    A box adds its hull's bounding box and no edge out of it, and a box
    tied to the box before it (``Pattern.tied``) adds the weight-0 edge
    from that box on x and is raised to that box's x; it has no successors
    yet, so nothing else moves.  A box-box order raises its later box to
    the earlier one's position plus the gap and the slack; only that axis
    moves, the raise follows the order and tie edges on it, and the order
    then adds its own edge.  A facet on one axis,
    a * c_k >= d + slack * |a|, raises the box's lower bound (a > 0) or
    lowers its upper bound (a < 0) on that axis, and adds no edge.  A
    slanted facet or hull row is left out, so the chains stay a relaxation
    of the node's rows."""
    if step == "box":
        new = pattern.with_box(regions, *item)
        hull = new.regions[-1].hull
        lo, hi, w = hull.int_bbox()
        chains = tuple(c and _with_box(c, lo, hi, w) for c in chains)
        last = len(new.regions) - 1
        if new.tied(last):
            chains = tuple(c and _raise(_with_edge(c, 0, last - 1, last, 0),
                                        0, last, *c[0][0][last - 1])
                           for c in chains)
        return (new, chains,
                aligned and all(h.axis() for h in hull.halfspaces))
    at = []
    if step == "bb":
        new = pattern.with_bb(item)
        i, j, axis, order = item
        first, second = (i, j) if order == 1 else (j, i)
        gap = new.extents[first][axis] + new.extents[second][axis]
        for chain, slack in zip(chains, _SLACKS):
            if chain is not None:
                num, den = chain[0][axis][first]
                chain = _raise(chain, axis, second,
                               num + (gap + slack) * den, den, first)
                chain = chain and _with_edge(chain, axis, first, second,
                                             gap + slack)
            at.append(chain)
        return new, tuple(at), aligned
    new = pattern.with_bo(item)
    i, obstacle_id, facet = item
    h = new.obstacle(i, obstacle_id).halfspaces[facet]
    found = h.axis()
    if found is None:
        return new, chains, False
    axis, a = found
    for chain, slack in zip(chains, _SLACKS):
        if chain is not None:
            num = 2 * h.d + slack * abs(a)
            chain = (_raise(chain, axis, i, num, a) if a > 0
                     else _cap(chain, axis, i, -num, -a))
        at.append(chain)
    return new, tuple(at), aligned


def order_chains_feasible(placements: Sequence, regions: Dict[tuple, object],
                          bb_constraints: Sequence[Tuple[int, int, int, int]],
                          bo_constraints: Sequence[Tuple[int, str, int]] = ()
                          ) -> bool:
    """Decide the order chains of a pattern, exactly.

    The arguments are as for ``lp.build_lp``.  Every order constraint is a
    difference constraint ``c_lo + gap <= c_hi`` on one axis (gap: the
    half-extent sum), so is every tie ``x_{i-1} <= x_i`` of a box with the
    (box id, orientation) of the box before it (gap 0, on x, no slack;
    ``Pattern.tied``), and every box-obstacle constraint on an axis-aligned
    facet a lower or an upper bound on one coordinate, so each center has
    an earliest position on each axis: the longest path to it from its
    lower bounds, which start at the lower corner of its region hull's
    bounding box (Cormen et al., Introduction to Algorithms, 24.4).  These
    positions are the order chains, in doubled coordinates (integer gaps),
    each an exact (num, den) with den > 0.  They are folded one constraint
    at a time, as the search builds them along a branch (``_extend``).
    Returns False when some earliest position lies strictly beyond its
    box's upper bound (the hull's upper corner, or an axis-aligned facet),
    or when the constraints on an axis form a cycle (an order gap is
    positive, a tie's is 0, and ties only run from box i - 1 to box i, so
    every cycle holds an order and has positive weight): then the pattern
    LP, which adds the slanted rows and the slack to these constraints, is
    infeasible too, and so is every extension of the node.  On a pattern
    whose rows are all axis-aligned the chains are the whole LP at slack 0,
    so True means it is feasible.
    """
    pattern, chains, aligned = Pattern(), (_NO_BOX,), True
    steps = ([("box", p) for p in placements]
             + [("bb", c) for c in bb_constraints]
             + [("bo", c) for c in bo_constraints])
    for step, item in steps:
        pattern, chains, aligned = _extend(pattern, chains, aligned, regions,
                                           step, item)
    return chains[0] is not None


def _exact_answer(pattern: Pattern):
    """The pattern LP's canonical answer when every row is axis-aligned and
    the pattern is feasible at slack 0, in exact arithmetic: (s*, centers),
    s* the largest slack up to DELTA_MM, centers the least point at s*
    (3 per box, rounded to floats).

    At slack s each coordinate's earliest position is a longest path, the
    largest of linear functions of s, and its upper bound the least of
    others.  Newton's method on their concave difference (Dinkelbach,
    Management Science 13, 1967) starts at s = DELTA_MM: where some
    coordinate overruns, the two active functions meet at a slack no
    smaller than s*, the least such slack is the next s, and the first s
    where nothing overruns is s*.  Each step takes a new linear piece, so
    it stops after a few."""
    n = len(pattern.regions)
    # per coordinate 3 * box + axis: its lower and its upper bounds, each a
    # (value at slack 0, slope in the slack)
    lows, ups = [[] for _ in range(3 * n)], [[] for _ in range(3 * n)]
    for i, region in enumerate(pattern.regions):
        lo, hi, w = region.hull.int_bbox()
        for axis in range(3):
            lows[3 * i + axis].append((Fraction(lo[axis], w), 0))
            ups[3 * i + axis].append((Fraction(hi[axis], w), 0))
    for (i, obstacle_id, facet) in pattern.bo:
        h = pattern.obstacle(i, obstacle_id).halfspaces[facet]
        axis, a = h.axis()
        if a > 0:
            lows[3 * i + axis].append((Fraction(h.d, a), 1))
        else:
            ups[3 * i + axis].append((Fraction(h.d, a), -1))
    # (from, to, gap, slope in the slack): the orders, then the ties on x
    edges = []
    for (i, j, axis, order) in pattern.bb:
        first, second = (i, j) if order == 1 else (j, i)
        edges.append((3 * first + axis, 3 * second + axis,
                      Fraction(pattern.extents[first][axis]
                               + pattern.extents[second][axis], 2), 1))
    edges += [(3 * (i - 1), 3 * i, 0, 0) for i in range(1, n)
              if pattern.tied(i)]
    s = Fraction(DELTA_MM)
    while True:
        # (value at s, value at 0, slope) of each coordinate's longest path;
        # a path has fewer than n edges, so n rounds settle them
        point = [max((v + k * s, v, k) for v, k in low) for low in lows]
        for _ in range(n):
            changed = False
            for u, v, gap, k in edges:
                value, base, slope = point[u]
                if value + gap + k * s > point[v][0]:
                    point[v] = (value + gap + k * s, base + gap, slope + k)
                    changed = True
            if not changed:
                break
        roots = []
        for (value, base, slope), up in zip(point, ups):
            top, top_base, top_slope = min((v + k * s, v, k) for v, k in up)
            if value > top:
                roots.append((top_base - base) / (slope - top_slope))
        if not roots:
            return s, [float(value) for value, _, _ in point]
        s = min(roots)


# ---------------------------------------------------------------------------
# search


class PartialPattern(NamedTuple):
    """One search node.

    ``indices`` are the candidate indices of the placed multiset
    (canonical, non-decreasing; extensions start at the last one).
    ``volume`` (mm^3, placed) and ``room`` (boxes of the last placed type
    still addable) are set by the box step that makes the node.
    ``pattern`` holds the node's boxes and constraints (``lp.Pattern``),
    one step past the pattern of the node it was made from.  ``parent`` is
    the outcome of that node's LP when it was solved by one and feasible;
    the node's LP, if it needs one, then extends it by the node's pattern
    and is warm-started from it, and otherwise is assembled whole and
    solved cold.  ``chains`` are the node's order chains at slack 0
    and at DELTA_MM (see ``order_chains_feasible``), each None when it
    rules the node out at that slack, else (positions, upper bounds,
    edges) per axis: the edges are each box's outgoing order and tie edges
    at that slack, a tuple per box shared with the parent unless the
    node's step added to it.  ``aligned`` tells whether every row of the
    node is axis-aligned, so that its chains answer it."""

    indices: tuple
    volume: int
    room: int
    pattern: Pattern
    parent: object
    chains: tuple
    aligned: bool


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


def _type_blocks(candidates: Sequence[Candidate]) -> List[tuple]:
    """Per candidate index: (end of its type's block, its box volume, every
    later type's volume at full count); each type's block is contiguous."""
    blocks = []
    end, later = len(candidates), 0
    for k in reversed(range(len(candidates))):
        box = candidates[k].box
        if k + 1 < len(candidates) and candidates[k + 1].box.id != box.id:
            nxt = candidates[k + 1].box
            end, later = k + 1, later + nxt.max_count * nxt.volume_mm3()
        blocks.append((end, box.volume_mm3(), later))
    return blocks[::-1]


def _bound(node: PartialPattern, blocks: Sequence[tuple]) -> int:
    """Placed volume plus every box the subtree can still add, in mm^3
    (container capacity deliberately ignored)."""
    _, unit, later = blocks[node.indices[-1]]
    return node.volume + node.room * unit + later


def _extensions(node: PartialPattern, blocks: Sequence[tuple]) -> range:
    """Candidates from the node's last on, skipping a full type's block."""
    last = node.indices[-1]
    return range(last if node.room else blocks[last][0], len(blocks))


def _node_lp(node: PartialPattern, candidates: Sequence[Candidate],
             regions: Dict[tuple, object]):
    """The node's LP: its parent's extended by the node's pattern when the
    parent was solved by an LP, else assembled whole."""
    if node.parent is None:
        return build_lp([(candidates[k].box, candidates[k].orientation)
                         for k in node.indices], regions,
                        node.pattern.bb, node.pattern.bo)
    return add_step(node.parent.lp, node.pattern)


def _answer(node: PartialPattern, candidates: Sequence[Candidate],
            regions: Dict[tuple, object], stats: SearchStats):
    """The node's canonical answer, (centers, outcome): centers one
    [x, y, z] list of Python floats per box, None when the node is
    infeasible; outcome the node's LP outcome, None when no LP answered it.

    The slack-0 chains rule a node out exactly.  A node whose rows are all
    axis-aligned is answered from its chains, with no array: at DELTA_MM
    when they hold there, each center the exact num / (2 den) rounded to a
    float, else by ``_exact_answer``.  A node with a slanted row is
    answered by its LP, whose NumericalFailure propagates, and its
    assignment converted to lists once."""
    at_zero, at_delta = node.chains
    if at_zero is None:
        return None, None
    if node.aligned:
        if at_delta is not None:
            return [[num / (2 * den) for num, den in box]
                    for box in zip(*at_delta[0])], None
        flat = _exact_answer(node.pattern)[1]
        return [flat[k:k + 3] for k in range(0, len(flat), 3)], None
    lp = _node_lp(node, candidates, regions)
    stats.lp_calls += 1
    outcome = solve(lp, node.parent)
    stats.pivots += outcome.pivots
    if not outcome.feasible:
        return None, None
    return (outcome.assignment[:3 * len(node.indices)].reshape(-1, 3)
            .tolist(), outcome)


def _child(node: PartialPattern, outcome, step: str, item,
           candidates: Sequence[Candidate],
           regions: Dict[tuple, object]) -> PartialPattern:
    """The node's child by one step: ("box", candidate index), ("bb",
    order constraint) or ("bo", facet constraint).  ``outcome``, the
    node's own LP outcome (None when no LP answered it, or its LP failed),
    is the child's ``parent``."""
    indices, volume, room = node.indices, node.volume, node.room
    if step == "box":
        box = candidates[item].box
        if not indices or candidates[indices[-1]].box.id != box.id:
            room = box.max_count
        indices, volume, room = (indices + (item,),
                                 volume + box.volume_mm3(), room - 1)
        item = (box, candidates[item].orientation)
    pattern, chains, aligned = _extend(node.pattern, node.chains,
                                       node.aligned, regions, step, item)
    return PartialPattern(indices, volume, room, pattern, outcome, chains,
                          aligned)


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
    blocks = _type_blocks(candidates)
    stats = SearchStats()
    deadline = (started + config.time_limit_s) if config.time_limit_s else None
    best_volume = failed_volume = 0
    best_placements: List[Placement] = []
    # the node before every root: no box
    origin = PartialPattern((), 0, 0, Pattern(), None, (_NO_BOX, _NO_BOX),
                            True)
    stack = [_child(origin, None, "box", k, candidates, regions)
             for k in reversed(range(len(candidates)))]

    while stack:
        if deadline is not None and time.monotonic() > deadline:
            stats.timed_out = True
            break
        node = stack.pop()
        stats.nodes += 1

        # at most the incumbent: the subtree cannot replace it
        if config.prune_enabled and _bound(node, blocks) <= best_volume:
            stats.pruned += 1
            continue

        try:
            centers, outcome = _answer(node, candidates, regions, stats)
        except NumericalFailure:
            stats.lp_failures += 1
            failed_volume = max(failed_volume, node.volume)
            centers = outcome = None
        else:
            # infeasible: skipped with its subtree
            if centers is None:
                continue

        if centers is not None:
            bb_conf, bo_conf = detect_intersections(node.pattern, centers)
            constraints, kind = branch(bb_conf, bo_conf)
            if kind is not None:
                if kind == "bb":
                    stats.bb_branches += 1
                else:
                    stats.bo_branches += 1
                stack.extend(_child(node, outcome, kind, c, candidates,
                                    regions)
                             for c in reversed(constraints))
                continue
            # intersection-free: record, then extend
            if node.volume > best_volume:
                stats.improvements += 1
                best_volume = node.volume
                best_placements = [
                    Placement(candidates[k].box, candidates[k].orientation,
                              tuple(centers[i]))
                    for i, k in enumerate(node.indices)]

        stack.extend(_child(node, outcome, "box", k, candidates, regions)
                     for k in reversed(_extensions(node, blocks)))

    stats.bound_mm3 = max([best_volume, failed_volume]
                          + [_bound(node, blocks) for node in stack])
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
