"""Obstacle-description simplification.

Feasible regions carry one convex obstacle per trunk concavity; realistic
trunks produce hundreds of small obstacles with many facets each, and the
packing search branches on every obstacle facet.  This module shrinks the
description while only ever *growing* the forbidden set (so any packing
found afterwards is still valid in the original region):

* ``merge_obstacles`` replaces touching obstacle pairs by their convex hull
  when the hull's volume overshoot stays under an absolute (mm^3) or
  relative (percent) budget and the facet count strictly decreases.  Touch
  verdicts (an int8 matrix over shape numbers), candidate hulls and overlap
  volumes are kept per distinct obstacle shape for the length of the call,
  so each is decided once, and the overlap volume only when the budget
  test needs it, on the rows of one obstacle that cut the other.  A sweep's
  touching pairs are two int32 index arrays, read off the matrix a row at a
  time and visited in seeded shuffled order (``random.Random.shuffle``'s
  loop, inlined) without a list of pair tuples; pairs whose obstacles have
  merged are dropped a chunk at a time.
* ``drop_facets`` removes individual obstacle facets when the forbidden set
  inside the trunk hull grows by at most a given distance (mm), measured as
  the optimum of a small LP and confirmed in exact arithmetic.

All growth decisions are taken in exact rational arithmetic; floating point
appears only in the drop-facet LP used as a fast filter, and an LP failure
always retains the facet.  Every accepted merge and drop is logged with the
exact quantities so the bounds can be re-verified independently.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from trunkpack.freespace import (_sample_volume, classify_feasible,
                                 enlarged_hull, sample_lattice_points)
from trunkpack.geometry import (ConvexPolytope, Halfspace, convex_hull,
                                cross3, cutting_rows, intersect_halfspaces,
                                polytopes_touch, to_fraction,
                                _polytope_from_rows, _row_vertices)
from trunkpack.lp import NumericalFailure, maximize_direction

DEFAULT_REL_PCT = 10.0
DEFAULT_ABS_MM3 = 10000.0
DEFAULT_DROP_MM = 1.0
_LP_FILTER_SLOP = 1e-6
# touch verdicts of content pairs in merge_obstacles, and the number of
# pairs it makes at a time from a sweep's shuffled pair order
_UNDECIDED, _APART, _TOUCH = 0, 1, 2
_CHUNK = 4096


@dataclass(frozen=True)
class MergeParams:
    """Budgets for pairwise obstacle merging.

    ``rel_bound_pct``: merge allowed when hull volume exceeds the union
    bookkeeping volume by at most this percentage of it.
    ``abs_bound_mm3``: ... or by at most this many cubic millimetres.
    ``rng_seed`` drives the pair-visit order (merging is order dependent;
    the seed makes runs reproducible).
    """

    rel_bound_pct: float = DEFAULT_REL_PCT
    abs_bound_mm3: float = DEFAULT_ABS_MM3
    rng_seed: int = 0

    def __post_init__(self):
        if to_fraction(self.rel_bound_pct) < 0 or to_fraction(self.abs_bound_mm3) < 0:
            raise ValueError("merge bounds must be non-negative")


@dataclass
class MergedObstacle:
    """Bookkeeping for an obstacle built out of original obstacles."""

    polytope: ConvexPolytope
    base_volume_mm3: Fraction
    member_ids: Tuple[str, ...]
    base_approximate: bool = False


def _pairwise_intersection_volume(a: ConvexPolytope, b: ConvexPolytope) -> Fraction:
    inter = _polytope_from_rows(cutting_rows(a.halfspaces, b) + b.halfspaces)
    return Fraction(0) if inter is None else inter.volume()


def _touching_pairs(verdicts: np.ndarray, contents: np.ndarray):
    """The index pairs (i, j), i < j, of live obstacles whose contents
    ``verdicts`` marks as touching, as two int32 arrays in row-major order.
    Each row is read off its content's matrix row, so no live x live
    temporary is made."""
    rows = [(np.flatnonzero(verdicts[c, contents[i + 1:]] == _TOUCH)
             + (i + 1)).astype(np.int32) for i, c in enumerate(contents)]
    left = np.repeat(np.arange(len(rows), dtype=np.int32),
                     [len(row) for row in rows])
    right = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)
    return left, right


def _shuffle(rng: random.Random, items) -> None:
    """``rng.shuffle(items)`` for a ``random.Random``, inlined: CPython's
    Fisher-Yates loop (Durstenfeld, CACM 7(7), 1964) drawing each index
    below i + 1 by rejection from ``getrandbits`` of its bit length, so the
    permutation and the generator's state afterwards are the same."""
    getrandbits = rng.getrandbits
    top = len(items) - 1
    while top > 0:
        # the indices i whose i + 1 has k bits run down to 2^(k-1) - 1
        k = (top + 1).bit_length()
        stop = (1 << (k - 1)) - 2
        for i in range(top, stop, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        top = stop


def _shuffled_pairs(rng: random.Random, left: np.ndarray, right: np.ndarray,
                    alive: bytearray):
    """The pairs ``zip(left, right)`` in the order ``rng.shuffle`` puts a
    list of them, less those with a slot that ``alive`` marks dead.  The
    shuffle permutes an index sequence of the same length, which draws the
    same numbers.  The pairs are made a chunk at a time, so no list of them
    is ever held, and each chunk drops its dead pairs in one array step;
    a pair whose slot dies during its chunk is still yielded."""
    order = array("i", range(len(left)))
    _shuffle(rng, order)
    order = np.frombuffer(order, dtype=np.intc)
    live = np.frombuffer(alive, dtype=np.bool_)
    for start in range(0, len(order), _CHUNK):
        chunk = order[start:start + _CHUNK]
        i, j = left[chunk], right[chunk]
        keep = live[i] & live[j]
        yield from zip(i[keep].tolist(), j[keep].tolist())


def merge_obstacles(region, params: MergeParams):
    """Greedy randomized merging of touching obstacle pairs.

    Returns ``(region_with_merged_obstacles, log_entries)``.  Sweeps visit
    all currently-touching pairs in seeded random order, merging any pair
    whose hull passes both the volume-growth budget and a strict facet-count
    decrease; sweeps repeat until none merges.  Only geometrically touching
    pairs are ever considered.  The union volume of chains that overlapped
    before merging is tracked approximately (inclusion-exclusion on the
    recorded pair only) and flagged ``base_approximate``.

    Each exact question is decided once per distinct shape.  An obstacle's
    content is its vertex list (sorted, so canonical, in every hull and
    row-built polytope), interned to a number when it enters the live list.
    Touch verdicts are kept in an int8 matrix indexed by content number,
    overlap volumes per unordered content pair and candidate hulls per
    ordered pair (so a repeat has the same triangulation).  A sweep runs
    the touch test only on the undecided content pairs among its live
    obstacles, reads its touching pairs off the matrix a live obstacle's
    row at a time into two int32 index arrays (``_touching_pairs``) and
    walks them in shuffled order without a list of pair tuples, marking
    merged slots dead in ``alive`` so that each chunk of pairs drops its
    dead ones at once (``_shuffled_pairs``).  An input obstacle's volume
    is computed once per content.  The overlap is computed only for a hull
    that passes the budget at overlap zero: a larger overlap raises the
    growth and lowers the base.  The budget test is not kept, since base
    volumes are bookkeeping, not content.  Each accepted hull is a fresh
    ``m<k>`` copy of the kept one.
    """
    rel = to_fraction(params.rel_bound_pct)
    abs_bound = to_fraction(params.abs_bound_mm3)
    rng = random.Random(params.rng_seed)

    def within_budget(growth: Fraction, base: Fraction) -> bool:
        return growth <= abs_bound or growth * 100 <= rel * base

    # live holds (obstacle, content number) in pair-list order: the
    # survivors of a sweep in their order, then its merged hulls.  Touch
    # verdicts sit in an int8 matrix indexed by content numbers, the other
    # memos key a pair of content numbers (a, b) as the int a << 32 | b,
    # smaller than a tuple; an unordered pair puts the smaller number first.
    interned = {}
    verdicts = np.zeros((0, 0), dtype=np.int8)
    hull_memo = {}
    overlap_memo = {}

    def content(polytope: ConvexPolytope) -> int:
        return interned.setdefault(tuple(v._h for v in polytope.vertices),
                                   len(interned))

    # an input obstacle's volume is read off the first of its shape
    firsts = {}
    live = []
    for i, o in enumerate(region.obstacles):
        c = content(o)
        live.append((MergedObstacle(o, firsts.setdefault(c, o).volume(),
                                    (o.id or f"o{i}",)), c))
    log: List[dict] = []
    next_id = 0
    while True:
        if len(verdicts) < len(interned):
            grown = np.zeros((2 * len(interned),) * 2, dtype=np.int8)
            grown[:len(verdicts), :len(verdicts)] = verdicts
            verdicts = grown
        contents = np.array([c for _, c in live], dtype=np.intp)
        # the undecided content pairs among the live obstacles: two shapes,
        # or one shape that two of them share; each tested on its first slots
        shapes, slot, count = np.unique(contents, return_index=True,
                                        return_counts=True)
        undecided = np.triu(verdicts[np.ix_(shapes, shapes)] == _UNDECIDED)
        undecided[np.diag_indices_from(undecided)] &= count > 1
        for a, b in zip(*np.nonzero(undecided)):
            ci, cj = shapes[a], shapes[b]
            verdicts[ci, cj] = verdicts[cj, ci] = (
                _TOUCH if polytopes_touch(live[slot[a]][0].polytope,
                                          live[slot[b]][0].polytope)
                else _APART)
        alive = bytearray(b"\x01") * len(live)
        merged = []
        for (i, j) in _shuffled_pairs(rng, *_touching_pairs(verdicts, contents),
                                      alive):
            if not (alive[i] and alive[j]):
                continue
            (first, ci), (second, cj) = live[i], live[j]
            hull = hull_memo.get(ci << 32 | cj)
            if hull is None:
                hull = hull_memo[ci << 32 | cj] = convex_hull(
                    first.polytope.vertices + second.polytope.vertices)
            if len(hull.halfspaces) >= (len(first.polytope.halfspaces)
                                        + len(second.polytope.halfspaces)):
                continue
            bases = first.base_volume_mm3 + second.base_volume_mm3
            if not within_budget(hull.volume() - bases, bases):
                continue
            key = ci << 32 | cj if ci <= cj else cj << 32 | ci
            overlap = overlap_memo.get(key)
            if overlap is None:
                overlap = overlap_memo[key] = _pairwise_intersection_volume(
                    first.polytope, second.polytope)
            base = bases - overlap
            growth = hull.volume() - base
            if not within_budget(growth, base):
                continue
            hull = hull.with_id(f"m{next_id}")
            approximate = (first.base_approximate or second.base_approximate
                           or (overlap > 0 and (len(first.member_ids) > 1
                                                or len(second.member_ids) > 1)))
            members = tuple(sorted(first.member_ids + second.member_ids))
            log.append({
                "id": hull.id,
                "merged": sorted([first.polytope.id or first.member_ids[0],
                                  second.polytope.id or second.member_ids[0]]),
                "members": list(members),
                "base_mm3": float(base),
                "base_exact": str(base),
                "hull_mm3": float(hull.volume()),
                "hull_exact": str(hull.volume()),
                "growth_mm3": float(growth),
                "growth_exact": str(growth),
                "facets_before": len(first.polytope.halfspaces)
                                 + len(second.polytope.halfspaces),
                "facets_after": len(hull.halfspaces),
                "base_approximate": approximate,
            })
            merged.append((MergedObstacle(hull, base, members, approximate),
                           content(hull)))
            alive[i] = alive[j] = 0
            next_id += 1
        if not merged:
            break
        live = [e for e, a in zip(live, alive) if a] + merged
    obstacles = [m.polytope for m, _ in live]
    return dataclasses.replace(region, obstacles=obstacles), log


# ---------------------------------------------------------------------------
# facet dropping


def _facet_area_sq(groups: dict, plane_key: tuple) -> Fraction:
    """Squared area of the facet lying on the given canonical plane, from a
    ``facet_triangles()`` grouping (zero when the plane carries no facet)."""
    tris = groups.get(plane_key)
    if not tris:
        return Fraction(0)
    sx = sy = sz = Fraction(0)
    for (pa, pb, pc) in tris:
        n = cross3(pb - pa, pc - pa)
        sx += n.x
        sy += n.y
        sz += n.z
    return (sx * sx + sy * sy + sz * sz) / 4


def _exact_growth(candidate: Halfspace, remaining: Sequence[Halfspace],
                  hull_rows: Sequence[Halfspace]):
    """Exact optimum of (n.x - d)/|n| over the intersection of the remaining
    facets with the trunk hull: how far the forbidden set can now reach past
    the dropped facet plane.  Returns (numerator Fraction, |n|^2 int) with
    growth = numerator / sqrt(|n|^2), or None when the intersection is empty.
    """
    vertices = _row_vertices(list(remaining) + list(hull_rows))
    if not vertices:
        return None
    nn = candidate.a ** 2 + candidate.b ** 2 + candidate.c ** 2
    return max(map(candidate.value, vertices)), nn


def _growth_within(numerator: Fraction, norm_sq: int, bound: Fraction) -> bool:
    """numerator / sqrt(norm_sq) <= bound, decided exactly."""
    if numerator <= 0:
        return True
    if bound <= 0:
        return False
    return numerator * numerator <= bound * bound * norm_sq


def drop_facets(region, max_growth_mm=DEFAULT_DROP_MM):
    """Remove obstacle facets whose removal grows the forbidden set inside
    the hull by at most ``max_growth_mm`` (a distance past the facet plane).

    Returns ``(region_with_simplified_obstacles, log_entries)``.  Per
    obstacle, candidate facets are visited by ascending exact facet area;
    after each removal the obstacle is recomputed and the candidate scan
    restarts.  A fast floating-point LP rejects clearly-too-large growths;
    every removal is confirmed in exact arithmetic.  If the LP fails
    numerically the facet is kept and the failure logged.
    """
    bound = to_fraction(max_growth_mm)
    if bound < 0:
        raise ValueError("max_growth_mm must be non-negative")
    bound_float = float(bound)
    margin = enlarged_hull(region.hull)
    hull_rows = list(region.hull.halfspaces)
    log: List[dict] = []
    new_obstacles = []
    for obs in sorted(region.obstacles, key=lambda o: o.id or ""):
        rows = list(obs.halfspaces)
        poly = obs
        failed_keys = set()
        while True:
            groups = poly.facet_triangles()
            order = sorted(range(len(rows)),
                           key=lambda k: (_facet_area_sq(groups, rows[k].key()),
                                          rows[k].key()))
            dropped = False
            for idx in order:
                candidate = rows[idx]
                if candidate.key() in failed_keys:
                    continue
                remaining = rows[:idx] + rows[idx + 1:]
                norm = math.sqrt(candidate.a ** 2 + candidate.b ** 2
                                 + candidate.c ** 2)
                try:
                    out = maximize_direction(
                        [candidate.a / norm, candidate.b / norm,
                         candidate.c / norm],
                        remaining, region.hull)
                except NumericalFailure as exc:
                    log.append({"obstacle": obs.id, "status": "lp_failure",
                                "facet": candidate.as_dict(),
                                "error": str(exc)})
                    failed_keys.add(candidate.key())
                    continue
                if out.feasible:
                    opt = out.value - float(candidate.d) / norm
                    if opt > bound_float + _LP_FILTER_SLOP:
                        continue
                exact = _exact_growth(candidate, remaining, hull_rows)
                if exact is not None:
                    numerator, norm_sq = exact
                    if not _growth_within(numerator, norm_sq, bound):
                        continue
                    growth_mm = float(numerator) / math.sqrt(norm_sq)
                    growth_exact = {"num": str(numerator), "norm_sq": norm_sq}
                else:
                    growth_mm = 0.0
                    growth_exact = {"num": "0", "norm_sq": 1}
                rows = remaining
                poly = intersect_halfspaces(rows, margin, id=obs.id)
                log.append({"obstacle": obs.id, "status": "dropped",
                            "facet": candidate.as_dict(),
                            "growth_mm": growth_mm,
                            "growth_exact": growth_exact,
                            "bound_mm": float(bound)})
                dropped = True
                break
            if not dropped:
                break
        new_obstacles.append(poly)
    return dataclasses.replace(region, obstacles=new_obstacles), log


# ---------------------------------------------------------------------------
# reporting


def shared_sample_volumes(before, after, samples: Optional[int] = None,
                          seed: Optional[int] = None):
    """Monte Carlo free-volume estimates of two descriptions of the same
    region from one shared sample set.  Returns (points, mask_before,
    mask_after, bbox_volume)."""
    samples = samples if samples is not None else before.samples
    seed = seed if seed is not None else before.seed
    if samples is None or seed is None:
        raise ValueError("sample count and seed are required when the region "
                         "carries no sampling metadata")
    bbox = before.hull.bbox()
    pts = sample_lattice_points(bbox, samples, seed)
    mask_before = classify_feasible(pts, before.hull, before.obstacles)
    mask_after = classify_feasible(pts, after.hull, after.obstacles)
    return pts, mask_before, mask_after, _sample_volume(bbox)


def contractiveness_violations(before, after, samples: Optional[int] = None,
                               seed: Optional[int] = None) -> dict:
    """Count sampled centers free in the simplified description but not in
    the original.  Simplification only ever grows the forbidden set, so any
    such center is a soundness violation."""
    _, mask_b, mask_a, _ = shared_sample_volumes(before, after, samples, seed)
    return {"checked": int(len(mask_b)),
            "violations": int(np.count_nonzero(mask_a & ~mask_b))}


def format_log(entries: Sequence[dict]) -> str:
    """Merge/drop log entries as JSONL text, one sorted-key object per
    line."""
    return "".join(json.dumps(entry, sort_keys=True) + "\n"
                   for entry in entries)


def read_log(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
