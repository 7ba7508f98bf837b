"""Branch-and-bound search tests.

Oracles:

* exact-fit shell 458 x 483 x 610 with box A (610 x 483 x 229): only the
  orientation mapping 610->z, 483->y, 229->x fits; the center region is the
  segment x in [114.5, 343.5] (fattened in y, z), so the best packing is
  exactly two boxes at x = 114.5 and x = 343.5 with total volume
  2 * 67470270 = 134940540 mm^3 = 134.94 dm^3.
* a region whose single obstacle strictly covers the whole hull admits no
  placement; the search must branch once per obstacle facet and come back
  empty.
* pruning with the exact placed+addable volume bound never changes the
  result, only the node count.
* a 700 mm cube holds all six boxes of A, B and E at two each
  (2 * (67470270 + 24883650 + 17711547) = 220130934 mm^3): the two A
  stand side by side (458 x 483 x 610), each E lies beyond one of them in
  y (483 + 203 <= 700), and the two B stand next to them in x
  (458 + 165 <= 700, 2 * 330 <= 700).
* box-box order constraints alone are difference constraints: on box hulls
  their exact verdict (Fourier-Motzkin on each axis) is the order-chain
  test's, and the node LP agrees with it whenever a chain overruns by more
  than 1e-3 mm; an exact fit (overrun 0) is feasible with slack 0.
* three 20 mm cubes in a row on x, after a wall at x = 30 and before the
  hull's x = 71, leave 1 mm of room for 3 slacks: s* = 1/3, with the least
  centres 30 + 1/3, 50 + 2/3 and 71; two cubes in a row from the hull's
  x = 10 to a wall at x = 31 leave s* = 1/2.  Newton steps find both
  exactly, and the LP agrees within its tolerance.
* a box with the (box id, orientation) of the box before it lies no
  further left on x.  Box 0 right of a wall at x = 30 and its copy box 1
  left of a wall at x = 31 leave s* = 1/2, both centres at x = 30.5; with
  the walls at 30 and 29 the tie overruns.  Ties lose no packing: searches
  with and without them find the same best volume.
* a search whose only slanted row is one obstacle facet visits the same
  tree, and finds the same packing, as one in which every node is answered
  by its LP.
* norms of halfspaces with coefficients near 2^40 (sums of squares past
  int64) are computed without overflow.
* validation decides in exact arithmetic in both modes: a flat obstacle
  holds no centre, and a float centre 1.001e-6 mm past a slanted hull facet
  is outside by more than the 1e-6 mm tolerance, one 0.999e-6 mm past it
  is not.
"""

import collections
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import trunkpack.search as search_mod
from trunkpack.catalog import BoxType, default_catalog, distinct_orientations
from trunkpack.freespace import (Region, compute_feasible_region,
                                 parse_convex_json, raw_feasible_region)
from trunkpack.geometry import (Halfspace, Point3, _degenerate_from_points,
                                axis_aligned_box, convex_hull, fm_feasible,
                                intersect_halfspaces)
from trunkpack.lp import (DELTA_MM, FEAS_TOL, NumericalFailure, Pattern,
                          build_lp, solve)
from trunkpack.search import (PackingResult, Placement,
                              SearchConfig, branch, candidate_list,
                              detect_intersections, enumerate_patterns,
                              order_chains_feasible, validate_packing)
from trunkpack.simplify import drop_facets

F = Fraction


def region(hull, obstacles, box_id, orientation="zyx"):
    return Region(box_id, orientation, hull, list(obstacles))


def cube_type(id="K", edge=20, max_count=2):
    return BoxType(id, (edge, edge, edge), max_count)


def exact_fit_regions():
    trunk = parse_convex_json({
        "shell": {"halfspaces": [
            {"n": [1, 0, 0], "d": 458}, {"n": [-1, 0, 0], "d": 0},
            {"n": [0, 1, 0], "d": 483}, {"n": [0, -1, 0], "d": 0},
            {"n": [0, 0, 1], "d": 610}, {"n": [0, 0, -1], "d": 0}]},
        "cavities": []})
    box = next(b for b in default_catalog() if b.id == "A")
    regions = {}
    for orientation in ("zyx", "zxy", "yzx", "xzy", "yxz", "xyz"):
        raw = raw_feasible_region(trunk, box, orientation)
        if raw is not None:
            regions[(box.id, orientation)] = raw
    return box, regions


def test_exact_fit_packs_exactly_two_boxes():
    box, regions = exact_fit_regions()
    assert set(regions) == {("A", "zyx")}
    result = enumerate_patterns(regions, [box])
    assert result.volume_mm3 == 134940540
    assert result.volume_dm3() == pytest.approx(134.94, abs=0.05)
    assert len(result.placements) == 2
    xs = sorted(p.center_mm[0] for p in result.placements)
    assert xs[0] == pytest.approx(114.5, abs=1e-6)
    assert xs[1] == pytest.approx(343.5, abs=1e-6)
    assert not result.timed_out
    assert result.stats.bb_branches >= 1
    check = validate_packing(result.placements, regions)
    assert check["valid"], check
    assert check["mode"] == "exact"


def test_covered_hull_places_nothing_and_branches_per_facet():
    hull = axis_aligned_box((40, 40, 40), (60, 60, 60), id="hull")
    blocker = axis_aligned_box((39, 39, 39), (61, 61, 61), id="o0")
    box = cube_type()
    regions = {("K", "zyx"): region(hull, [blocker], "K")}
    result = enumerate_patterns(regions, [box])
    assert result.placements == []
    assert result.volume_mm3 == 0
    # the one box-obstacle branch fans out over all six facets of the
    # blocker: the root and its six children are visited, and each child's
    # chains rule it out without an LP (its facet bound passes the hull)
    assert result.stats.bo_branches == 1
    assert result.stats.nodes == 1 + 6
    assert result.stats.lp_calls == 0


def _pillar_instance(max_count=2, slanted=False):
    """Cubes around a pillar in an axis-aligned hull, or with ``slanted``
    in that hull cut by x + y + z <= 260 near its far corner, so that every
    node has a slanted row and is answered by its LP."""
    hull = axis_aligned_box((10, 10, 10), (90, 90, 90), id="hull")
    if slanted:
        hull = intersect_halfspaces([Halfspace((1, 1, 1), 260)], hull,
                                    id="hull")
    pillar = axis_aligned_box((20, 20, 10), (80, 80, 90), id="o0")
    box = cube_type(max_count=max_count)
    return box, {("K", "zyx"): region(hull, [pillar], "K")}


def test_pillar_instance_places_two_cubes():
    box, regions = _pillar_instance()
    result = enumerate_patterns(regions, [box])
    assert result.volume_mm3 == 2 * 8000
    assert len(result.placements) == 2
    assert result.stats.bb_branches >= 1
    check = validate_packing(result.placements, regions)
    assert check["valid"], check


def _same_lp(a, b) -> bool:
    """Bit for bit the same rows, bounds and objective."""
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.A, b.A), (a.b, b.b), (a.lower, b.lower),
                            (a.upper, b.upper), (a.objective, b.objective)))


def _one_step(pattern, base) -> bool:
    """Whether ``pattern`` is ``base`` plus one box or one constraint."""
    parts = [(pattern.regions, base.regions), (pattern.bb, base.bb),
             (pattern.bo, base.bo)]
    return (all(grown[:len(part)] == part for grown, part in parts)
            and sum(len(grown) - len(part) for grown, part in parts) == 1)


def _failing_search(monkeypatch, box, regions, fail_at, config=None):
    """Run the search with its ``fail_at``-th LP solve (counting from 0)
    raising NumericalFailure.  Returns the result, every (lp, parent) pair
    solved, and the failed LP's children: the solved LPs whose pattern is
    the failed one's plus one step, each checked to start cold and to equal
    the LP ``build_lp`` assembles whole from its pattern."""
    real_solve = search_mod.solve
    solved = []

    def failing_solve(lp, parent=None):
        solved.append((lp, parent))
        if len(solved) == fail_at + 1:
            raise NumericalFailure("injected")
        return real_solve(lp, parent)

    monkeypatch.setattr(search_mod, "solve", failing_solve)
    result = enumerate_patterns(regions, [box], config=config)
    assert result.stats.lp_failures == 1
    failed = solved[fail_at][0]
    children = [(lp, parent) for lp, parent in solved
                if _one_step(lp.pattern, failed.pattern)]
    for lp, parent in children:
        assert parent is None
        pattern = lp.pattern
        whole = build_lp([(box, "zyx")] * len(pattern.regions), regions,
                         pattern.bb, pattern.bo)
        assert _same_lp(lp, whole)
    check = validate_packing(result.placements, regions)
    assert check["valid"] and check["mode"] == "exact", check
    return result, solved, children


def test_failed_root_lp_leaves_its_children_to_cold_starts(monkeypatch):
    box, regions = _pillar_instance(slanted=True)
    result, solved, children = _failing_search(monkeypatch, box, regions, 0)
    # the root's one child (two cubes) has no LP outcome to extend, so its
    # LP is assembled whole and solved cold; the nodes below it warm-start
    # from their parents
    assert len(children) == 1 and children[0][0] is solved[1][0]
    assert solved[1][0].num_vars == 7
    assert all(parent is not None for _, parent in solved[2:])
    assert len(solved) > 2
    assert result.volume_mm3 == 2 * 8000


def test_failed_lp_below_the_root_leaves_its_children_to_cold_starts(
        monkeypatch):
    box, regions = _pillar_instance(max_count=3, slanted=True)
    result, solved, children = _failing_search(
        monkeypatch, box, regions, 1, SearchConfig(prune_enabled=False))
    # the failed two-cube node is not branched on: its one child adds the
    # third cube to it
    assert solved[1][0].num_vars == 7
    assert [lp.num_vars for lp, _ in children] == [10]
    assert result.volume_mm3 == 3 * 8000


def test_max_count_limits_placements():
    box, regions = _pillar_instance(max_count=1)
    result = enumerate_patterns(regions, [box])
    assert len(result.placements) == 1
    assert result.volume_mm3 == 8000


def test_zero_count_type_is_never_placed():
    # a 300 mm cube fits in the region, but its type allows none: with
    # pruning on or off the packing is the same, and empty
    box = cube_type(edge=300, max_count=0)
    hull = axis_aligned_box((150, 150, 150), (550, 550, 550), id="hull")
    regions = {("K", "zyx"): region(hull, [], "K")}
    assert candidate_list(regions, [box]) == []
    for prune in (True, False):
        result = enumerate_patterns(regions, [box],
                                    config=SearchConfig(prune_enabled=prune))
        assert result.placements == [] and result.volume_mm3 == 0


def _two_type_pillar():
    """(regions, catalog): the pillar instance with 10 mm cubes too."""
    big, regions = _pillar_instance()
    small = cube_type(id="L", edge=10, max_count=2)
    hull = regions[("K", "zyx")].hull
    pillar = regions[("K", "zyx")].obstacles[0]
    regions[("L", "zyx")] = region(hull, [pillar], "L")
    return regions, [big, small]


def test_prune_toggle_preserves_results():
    regions, catalog = _two_type_pillar()
    with_prune = enumerate_patterns(regions, catalog,
                                    config=SearchConfig(prune_enabled=True))
    without = enumerate_patterns(regions, catalog,
                                 config=SearchConfig(prune_enabled=False))
    assert with_prune.volume_mm3 == 2 * 8000 + 2 * 1000
    assert with_prune.volume_mm3 == without.volume_mm3
    assert [p.as_dict() for p in with_prune.placements] \
        == [p.as_dict() for p in without.placements]
    assert with_prune.stats.nodes <= without.stats.nodes
    assert with_prune.stats.pruned > 0
    assert without.stats.pruned == 0


def _abe_cube():
    """(regions, catalog): boxes A, B and E at two each in a 700 mm cube,
    which holds them all (220,130,934 mm^3)."""
    trunk = parse_convex_json({"shell": {"halfspaces": [
        {"n": [-1, 0, 0], "d": 0}, {"n": [1, 0, 0], "d": 700},
        {"n": [0, -1, 0], "d": 0}, {"n": [0, 1, 0], "d": 700},
        {"n": [0, 0, -1], "d": 0}, {"n": [0, 0, 1], "d": 700}]}})
    catalog = [dataclasses.replace(b, max_count=2)
               for b in default_catalog() if b.id in "ABE"]
    regions = {}
    for box in catalog:
        for orientation in distinct_orientations(box):
            found = compute_feasible_region(trunk, box, orientation,
                                            samples=200, seed=1)
            if found is not None:
                regions[(box.id, orientation)] = found
    return regions, catalog


def test_many_box_types_finish_with_every_box_placed():
    # the paper's setting: several box types in one search.  A 700 mm cube
    # holds two each of A, B and E (220,130,934 mm^3, the whole catalog);
    # the first-found rule proves it without visiting every equal packing
    regions, catalog = _abe_cube()
    result = enumerate_patterns(regions, catalog,
                                config=SearchConfig(time_limit_s=20))
    assert not result.timed_out
    assert result.volume_mm3 == 220130934
    assert result.stats.bound_mm3 == result.volume_mm3
    assert len(result.placements) == 6
    check = validate_packing(result.placements, regions)
    assert check["valid"] and check["mode"] == "exact", check


def _recounted_bound(placed, catalog, addable_type_ids):
    """The node bound as the search once recounted it at every node: the
    placed volume plus every box of the addable types not yet placed."""
    used = collections.Counter(c.box.id for c in placed)
    return (sum(c.box.volume_mm3() for c in placed)
            + sum((box.max_count - used[box.id]) * box.volume_mm3()
                  for box in catalog if box.id in addable_type_ids))


# (nodes, pruned, nodes extended, volume) of the A/B/E cube, the L-trunk
# and the two-type pillar; the nodes, prunes and packings are as they were
# with the bound recounted at every node
_BOUND_TALLIES = [(191, 100, 6, 220130934), (110, 8, 5, 70846188),
                  (30, 22, 4, 18000)]


def test_node_bounds_and_extensions_equal_the_recounted_ones(monkeypatch):
    """On the prune-on searches (the A/B/E cube, the L-trunk and the
    two-type pillar), every popped node's bound is the one recounted from
    its placed boxes over the types at or after its last candidate, and its
    extensions are the candidates from its last on whose type has room."""
    real_bound, real_extensions = search_mod._bound, search_mod._extensions
    l_regions, l_box, _ = _l_trunk_search()
    tallies = []
    for regions, catalog in (_abe_cube(), (l_regions, [l_box]),
                             _two_type_pillar()):
        candidates = candidate_list(regions, catalog)
        counts = {box.id: box.max_count for box in catalog}
        seen = collections.Counter()

        def bound(node, blocks):
            got = real_bound(node, blocks)
            placed = [candidates[k] for k in node.indices]
            later = {c.box.id for c in candidates[node.indices[-1]:]}
            assert got == _recounted_bound(placed, catalog, later)
            seen["bounds"] += 1
            return got

        def extensions(node, blocks):
            got = real_extensions(node, blocks)
            used = collections.Counter(candidates[k].box.id
                                       for k in node.indices)
            assert list(got) == [
                k for k in range(node.indices[-1], len(candidates))
                if used[candidates[k].box.id] < counts[candidates[k].box.id]]
            seen["extensions"] += 1
            return got

        monkeypatch.setattr(search_mod, "_bound", bound)
        monkeypatch.setattr(search_mod, "_extensions", extensions)
        result = enumerate_patterns(regions, catalog)
        # finished: every bound read was a popped node's
        assert seen["bounds"] == result.stats.nodes
        assert result.stats.bound_mm3 == result.volume_mm3
        tallies.append((result.stats.nodes, result.stats.pruned,
                        seen["extensions"], result.volume_mm3))
    assert tallies == _BOUND_TALLIES
    # one A of the default catalog placed: 4 A + 4 B + 2 (C + D + E + F)
    # are still counted
    boxes = default_catalog()
    blocks = search_mod._type_blocks(
        candidate_list({(b.id, "xyz"): object() for b in boxes}, boxes))
    root = search_mod.PartialPattern((0,), boxes[0].volume_mm3(), 3, None,
                                     None, None, True)
    assert real_bound(root, blocks) == 700341734


class _TickingClock:
    """A stand-in for ``search.time`` whose clock ticks one second per
    reading, so that a time limit of n seconds is a budget of n nodes."""

    def __init__(self):
        self.now = 0

    def monotonic(self):
        self.now += 1
        return self.now


def test_search_cut_short_bounds_the_optimum(monkeypatch):
    # the A/B/E cube's proven optimum is 220,130,934 mm^3 (the whole
    # catalog): every cut-short search must report a bound of at least that
    regions, catalog = _abe_cube()
    for budget in (1, 20, 100):
        monkeypatch.setattr(search_mod, "time", _TickingClock())
        result = enumerate_patterns(regions, catalog,
                                    config=SearchConfig(time_limit_s=budget))
        assert result.timed_out and result.stats.nodes == budget
        assert result.stats.bound_mm3 >= 220130934 >= result.volume_mm3


def test_failed_lp_counts_its_placed_volume_in_the_bound(monkeypatch):
    # the one-cube root's LP fails and its full type has no extension:
    # nothing is packed, but the root's own pattern was never decided, so
    # the bound keeps its cube
    box, regions = _pillar_instance(max_count=1, slanted=True)
    result, _, children = _failing_search(monkeypatch, box, regions, 0)
    assert result.volume_mm3 == 0 and children == []
    assert result.stats.bound_mm3 == 8000


def test_search_is_deterministic():
    box, regions = _pillar_instance()
    a = enumerate_patterns(regions, [box]).as_dict()
    b = enumerate_patterns(regions, [box]).as_dict()
    a["stats"].pop("wall_time_s")
    b["stats"].pop("wall_time_s")
    assert a == b


def test_timeout_flag_and_empty_result():
    box, regions = _pillar_instance()
    result = enumerate_patterns(regions, [box],
                                config=SearchConfig(time_limit_s=1e-9))
    assert result.timed_out
    assert result.stats.timed_out
    assert result.placements == []


def test_candidate_order_descending_volume_then_id():
    boxes = default_catalog()
    regions = {}
    hull = axis_aligned_box((0, 0, 0), (500, 500, 500), id="hull")
    for b in boxes:
        for orientation in ("zyx", "xyz"):
            regions[(b.id, orientation)] = region(hull, [], b.id, orientation)
    cands = candidate_list(regions, boxes)
    vols = [c.box.volume_mm3() for c in cands]
    assert vols == sorted(vols, reverse=True)
    # within one box the canonical orientation rank orders the pair
    a_orients = [c.orientation for c in cands if c.box.id == "A"]
    assert a_orients == ["zyx", "xyz"]
    # None regions are not placeable
    regions[("A", "zyx")] = None
    cands = candidate_list(regions, boxes)
    assert ("A", "zyx") not in {(c.box.id, c.orientation) for c in cands}


def test_detect_intersections_measures_and_order():
    box = cube_type()
    hull = axis_aligned_box((0, 0, 0), (100, 100, 100), id="hull")
    reg = region(hull, [axis_aligned_box((40, 40, 40), (60, 60, 60), id="o0")],
                 "K")
    regions = {("K", "zyx"): reg}
    placed = [(box, "zyx")] * 3
    centers = [[50.0, 50.0, 50.0],   # inside obstacle
               [52.0, 50.0, 50.0],   # inside obstacle, overlaps 0
               [10.0, 10.0, 10.0]]   # clear
    bb, bo = detect_intersections(_pattern_of(placed, regions, (), ()),
                                  centers)
    assert [(i, j) for _, i, j in bb] == [(0, 1)]
    # overlap volume: (20 - 2) * 20 * 20
    assert bb[0][0] == pytest.approx(18.0 * 20.0 * 20.0)
    assert [i for _, i, _ in bo] == [0, 1]
    assert bo[0][0] == pytest.approx(10.0)  # center to the nearest facet
    assert bo[1][0] == pytest.approx(8.0)
    # pairs the pattern's constraints separate are skipped
    constrained = _pattern_of(placed, regions, [(1, 0, 0, -1)],
                              [(0, "o0", 0), (1, "o0", 3)])
    bb2, bo2 = detect_intersections(constrained, centers)
    assert bb2 == [] and bo2 == []


def test_unit_boxes_half_apart_overlap_half():
    unit = BoxType("U", (1, 1, 1), 2)
    hull = axis_aligned_box((0, 0, 0), (10, 10, 10), id="hull")
    regions = {("U", "zyx"): region(hull, [], "U")}
    pattern = _pattern_of([(unit, "zyx")] * 2, regions, (), ())
    centers = [[2.0, 2.0, 2.0], [2.5, 2.0, 2.0]]
    bb, _ = detect_intersections(pattern, centers)
    assert bb[0][0] == pytest.approx(0.5)


def test_branch_children_shapes():
    obstacle = axis_aligned_box((0, 0, 0), (1, 1, 1), id="o0")
    constraints, kind = branch([(5.0, 0, 1)], [(2.0, 0, obstacle)])
    assert kind == "bb" and len(constraints) == 6
    assert {c[:2] for c in constraints} == {(0, 1)}
    assert {c[2:] for c in constraints} \
        == {(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)}
    constraints, kind = branch([], [(2.0, 0, obstacle)])
    assert kind == "bo"
    assert constraints == [(0, "o0", f) for f in range(6)]
    assert branch([], []) == ([], None)


def test_search_config_validation_and_use():
    SearchConfig()
    with pytest.raises(ValueError):
        SearchConfig(time_limit_s=0)
    # the search is sequential: root_parallelism accepts only 1
    SearchConfig(root_parallelism=1)
    with pytest.raises(ValueError):
        SearchConfig(root_parallelism=0)
    with pytest.raises(ValueError, match="sequential"):
        SearchConfig(root_parallelism=2)
    box, regions = _pillar_instance()
    res = enumerate_patterns(regions, [box],
                             config=SearchConfig(prune_enabled=False))
    assert res.volume_mm3 == 2 * 8000
    assert res.stats.wall_time_s > 0


def test_validate_packing_rejects_bad_placements():
    box = cube_type()
    hull = axis_aligned_box((10, 10, 10), (90, 90, 90), id="hull")
    obstacle = axis_aligned_box((40, 40, 40), (60, 60, 60), id="o0")
    regions = {("K", "zyx"): region(hull, [obstacle], "K")}

    good = [Placement(box, "zyx", (15.0, 15.0, 15.0)),
            Placement(box, "zyx", (35.0, 15.0, 15.0))]
    assert validate_packing(good, regions)["valid"]

    overlapping = [Placement(box, "zyx", (15.0, 15.0, 15.0)),
                   Placement(box, "zyx", (30.0, 15.0, 15.0))]
    out = validate_packing(overlapping, regions)
    assert not out["valid"] and "overlap" in out["violations"][0]

    inside = [Placement(box, "zyx", (50.0, 50.0, 50.0))]
    out = validate_packing(inside, regions)
    assert not out["valid"] and "obstacle" in out["violations"][0]

    outside = [Placement(box, "zyx", (5.0, 15.0, 15.0))]
    out = validate_packing(outside, regions)
    assert not out["valid"] and "hull" in out["violations"][0]

    touching = [Placement(box, "zyx", (15.0, 15.0, 15.0)),
                Placement(box, "zyx", (35.0000000001, 15.0, 15.0))]
    out = validate_packing(touching, regions)
    assert out["valid"]  # snaps to the 1/2048 grid and passes exactly


def test_float_fallback_ignores_flat_obstacles():
    # the snap moves the boxes almost 1/2048 mm closer, so they overlap and
    # the exact check fails; the LP's float centres are 0.9e-6 mm too close,
    # within the tolerance.  A flat obstacle holds no centre in either mode.
    box = cube_type()
    hull = axis_aligned_box((10, 10, 10), (90, 90, 90), id="hull")
    flat = _degenerate_from_points(
        [Point3(70, 70, 70), Point3(80, 70, 70), Point3(70, 80, 70)], id="o0")
    regions = {("K", "zyx"): region(hull, [flat], "K")}
    x = 15 + 0.501 / 2048
    placements = [Placement(box, "zyx", (x, 15.0, 15.0)),
                  Placement(box, "zyx", (x + 20 - 0.9e-6, 15.0, 15.0))]
    assert validate_packing(placements, regions) == {
        "valid": True, "mode": "float", "violations": []}


@pytest.mark.parametrize("past_mm, valid", [(1.001e-6, False),
                                            (0.999e-6, True)])
def test_float_fallback_tolerance_on_slanted_facet(past_mm, valid):
    # the facet x + y <= 100.0005 lies off the 1/2048 grid: a centre just
    # past it snaps further out, so the float centre decides, at 1e-6 mm
    # measured along the facet's normal (|n| = 2000 sqrt 2)
    box = cube_type()
    facet = Halfspace((2000, 2000, 0), 200001)
    hull = intersect_halfspaces([facet],
                                axis_aligned_box((0, 0, 0), (100, 100, 100)),
                                id="hull")
    regions = {("K", "zyx"): region(hull, [], "K")}
    y = 50.00025
    x = 50.00025 + past_mm * 2 ** 0.5
    assert (2000 * x + 2000 * y - 200001) / (2000 * 2 ** 0.5) == \
        pytest.approx(past_mm, abs=1e-12)
    out = validate_packing([Placement(box, "zyx", (x, y, 50.0))], regions)
    assert out == {"valid": valid, "mode": "float", "violations": (
        [] if valid else ["placement 0 outside hull by more than 1e-06"])}


# ---------------------------------------------------------------------------
# order chains: box-box order constraints decided without an LP


def _axis_rows(placements, regions, bb, axis, slack_mm=0, bounded=True,
               tied=True):
    """The order constraints on one axis, with ``tied`` the ties on x (a
    box with the (box id, orientation) of the box before it lies no further
    left), plus the hull-box bounds of every center (upper bounds raised by
    ``slack_mm``), as exact rows."""
    n = len(placements)
    rows = []
    for k in range(1, n):
        (box, orientation), (before, before_orientation) = \
            placements[k], placements[k - 1]
        if tied and axis == 0 and (box.id, orientation) == (
                before.id, before_orientation):
            coeffs = [0] * n
            coeffs[k - 1], coeffs[k] = 1, -1
            rows.append((coeffs, 0))
    for (i, j, a, order) in bb:
        if a == axis:
            lo, hi = (i, j) if order == 1 else (j, i)
            coeffs = [0] * n
            coeffs[lo], coeffs[hi] = 1, -1
            gap = F(placements[lo][0].dims_mm[axis]
                    + placements[hi][0].dims_mm[axis], 2)
            rows.append((coeffs, -gap))
    for k, (box, orientation) in enumerate(placements):
        low, high = regions[(box.id, orientation)].hull.bbox()
        unit = [int(t == k) for t in range(n)]
        if bounded:
            rows.append((unit, high[axis] + slack_mm))
            rows.append(([-u for u in unit], -low[axis]))
    return rows


def _chain_instance(rng, trial):
    """2-5 box types (orientation xyz), each in its own axis-aligned hull
    with 1/8 mm corners, and a random set of order constraints; every fourth
    set gets a three-box cycle, and every third a near fit: the first
    constrained pair's later box is given exactly the room it needs, or
    1e-4 mm less.  In every fifth set from the second on, box 1 is box 0
    again, tied to it on x, and in every other one of those the pair gets
    the order on x against the tie."""
    n = int(rng.integers(2, 6))
    placements, regions = [], {}
    for k in range(n):
        box = BoxType(f"B{k}", tuple(int(v) for v in
                                     rng.integers(10, 120, size=3)), 1)
        lo = [F(int(v), 8) for v in rng.integers(0, 800, size=3)]
        hi = [a + F(int(v), 8) for a, v in zip(lo, rng.integers(1, 2400,
                                                                size=3))]
        if k == 1 and trial % 5 == 1:
            box = placements[0][0]
        else:
            regions[(box.id, "xyz")] = [lo, hi]
        placements.append((box, "xyz"))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    bb = {(i, j): (i, j, int(rng.integers(3)), int(rng.choice([-1, 1])))
          for (i, j) in pairs[:int(rng.integers(1, len(pairs) + 1))]}
    if trial % 4 == 0 and n >= 3:
        a, b, c = sorted(rng.choice(n, size=3, replace=False).tolist())
        axis = int(rng.integers(3))
        bb[(a, b)] = (a, b, axis, 1)
        bb[(b, c)] = (b, c, axis, 1)
        bb[(a, c)] = (a, c, axis, -1)
    if trial % 10 == 1:
        # box 1 before its copy, box 0, on x: a cycle through the tie
        bb[(0, 1)] = (0, 1, 0, -1)
    bb = list(bb.values())
    if trial % 3 == 0:
        i, j, axis, order = bb[0]
        first, later = (i, j) if order == 1 else (j, i)
        gap = F(placements[first][0].dims_mm[axis]
                + placements[later][0].dims_mm[axis], 2)
        room = regions[(placements[first][0].id, "xyz")][0][axis] + gap
        room -= F(1, 10000) * int(rng.integers(2))
        later_lo, later_hi = regions[(placements[later][0].id, "xyz")]
        later_hi[axis] = max(room, later_lo[axis] + F(1, 8))
    for key, (lo, hi) in regions.items():
        regions[key] = region(axis_aligned_box(lo, hi, id="hull"), [],
                              key[0], "xyz")
    return placements, regions, bb


def test_order_chains_match_exact_elimination_and_the_lp():
    rng = np.random.default_rng(20261018)
    seen = {"cycle": 0, "overrun": 0, "near_fit": 0, "feasible": 0}
    prefixes = {True: 0, False: 0}
    tie_decides = 0
    for trial in range(400):
        placements, regions, bb = _chain_instance(rng, trial)
        n = len(placements)
        # every prefix, as the search adds the constraints along a branch:
        # the fold of the one-constraint step decides each one exactly
        for t in range(len(bb)):
            verdict = order_chains_feasible(placements, regions, bb[:t])
            assert verdict == all(
                fm_feasible(_axis_rows(placements, regions, bb[:t], axis), n)
                for axis in range(3)), (trial, bb[:t])
            prefixes[verdict] += 1
        chains = order_chains_feasible(placements, regions, bb)
        exact = all(fm_feasible(_axis_rows(placements, regions, bb, axis), n)
                    for axis in range(3))
        assert chains == exact, (trial, bb)
        # a tied instance that only its tie rules out
        tie_decides += not exact and fm_feasible(
            _axis_rows(placements, regions, bb, 0, tied=False), n) and all(
            fm_feasible(_axis_rows(placements, regions, bb, axis), n)
            for axis in (1, 2))
        cycle = not all(fm_feasible(_axis_rows(placements, regions, bb, axis,
                                               bounded=False), n)
                        for axis in range(3))
        overrun = not all(fm_feasible(_axis_rows(placements, regions, bb,
                                                 axis, F(1, 1000)), n)
                          for axis in range(3))
        try:
            out = solve(build_lp(placements, regions, bb))
        except NumericalFailure:
            out = None
        if overrun:
            # more than 1e-3 mm over: the LP agrees with the chain test
            assert not chains and out is not None and not out.feasible
        elif not chains:
            seen["near_fit"] += 1
        else:
            # on box hulls without obstacles the chains are the whole LP
            assert out is not None and out.feasible, (trial, bb)
        seen["cycle"] += cycle
        seen["overrun"] += overrun and not cycle
        seen["feasible"] += chains
    assert min(seen.values()) >= 20, seen
    assert min(prefixes.values()) >= 200, prefixes
    assert tie_decides >= 10


def test_exact_fit_chain_is_left_to_the_lp():
    box, regions = exact_fit_regions()
    two = [(box, "zyx")] * 2
    assert order_chains_feasible(two, regions, [(0, 1, 0, 1)])
    out = solve(build_lp(two, regions, [(0, 1, 0, 1)]))
    assert out.feasible and abs(out.value) < 1e-6
    # the search answers it exactly, by Newton steps down to slack 0: the
    # LP's answer
    slack, centers = search_mod._exact_answer(
        _pattern_of(two, regions, [(0, 1, 0, 1)], []))
    assert slack == 0 and centers == out.assignment[:-1].tolist()
    # a third box in the same chain overruns by a whole box length
    three = [(box, "zyx")] * 3
    assert not order_chains_feasible(three, regions,
                                     [(0, 1, 0, 1), (1, 2, 0, 1)])
    assert not solve(build_lp(three, regions,
                              [(0, 1, 0, 1), (1, 2, 0, 1)])).feasible


def test_norms_of_huge_coefficients_do_not_overflow():
    # facets whose squared normal length passes int64, cutting one corner of
    # the hull and one of the obstacle
    big = 2 ** 40
    hull = intersect_halfspaces(
        [Halfspace((big, big + 1, 0), big * 1900)],
        axis_aligned_box((0, 0, 0), (1000, 1000, 1000)), id="hull")
    obstacle = intersect_halfspaces(
        [Halfspace((big + 1, big, 0), (big + 1) * 590 + big * 600)],
        axis_aligned_box((400, 400, 400), (600, 600, 600)), id="o0")
    assert any(abs(h.a) >= big for h in hull.halfspaces)
    assert any(abs(h.a) >= big for h in obstacle.halfspaces)
    box = cube_type()
    regions = {("K", "zyx"): region(hull, [obstacle], "K")}

    _, bo = detect_intersections(_pattern_of([(box, "zyx")], regions, (), ()),
                                 [[500.0, 500.0, 500.0]])
    assert [(i, o.id) for (_, i, o) in bo] == [(0, "o0")]
    assert bo[0][0] == pytest.approx(100.0)

    out = validate_packing([Placement(box, "zyx", (500.0, 500.0, 500.0))],
                           regions)
    assert out == {"valid": False, "mode": "float",
                   "violations": ["placement 0 inside obstacle o0"]}

    _, log = drop_facets(regions[("K", "zyx")], max_growth_mm=20)
    dropped = [e for e in log if e["status"] == "dropped"]
    assert [e["facet"]["n"][:2] for e in dropped] == [[big + 1, big]]
    # the corner it cut off reaches 10 * 2^40 / |n| (about 7.07 mm) past it
    assert dropped[0]["growth_mm"] == pytest.approx(10 / 2 ** 0.5, rel=1e-6)


# ---------------------------------------------------------------------------
# exact node answers: the largest slack below DELTA_MM, by Newton steps


def _row_instance(hull_hi_x, obstacles):
    """Three 20 mm cubes in the hull [10, hull_hi_x] x [10, 90] x [10, 90]
    with the given obstacles."""
    box = cube_type(max_count=3)
    hull = axis_aligned_box((10, 10, 10), (hull_hi_x, 90, 90), id="hull")
    return box, {("K", "zyx"): region(hull, obstacles, "K")}


def _facet(obstacle, normal):
    """The index of the obstacle's facet with that normal."""
    return next(f for f, h in enumerate(obstacle.halfspaces)
                if h.normal == normal)


def _flat(centers):
    """A node's answer, one [x, y, z] list per box, as one list."""
    return [v for center in centers for v in center]


def _pattern_of(placements, regions, bb, bo):
    pattern = Pattern()
    for box, orientation in placements:
        pattern = pattern.with_box(regions, box, orientation)
    for c in bb:
        pattern = pattern.with_bb(c)
    for c in bo:
        pattern = pattern.with_bo(c)
    return pattern


def _exact_rows(pattern):
    """The pattern's rows at slack 0 in exact arithmetic: each box's hull
    rows and its tie to the box before it (x_{i-1} <= x_i when both have
    one (box id, orientation)), the orders and the facets."""
    nv = 3 * len(pattern.regions)
    rows = []
    for i, reg in enumerate(pattern.regions):
        for h in reg.hull.halfspaces:
            full = [0] * nv
            full[3 * i:3 * i + 3] = h.a, h.b, h.c
            rows.append((full, h.d))
        before = pattern.regions[i - 1] if i else None
        if before is not None and (before.box_id, before.orientation) \
                == (reg.box_id, reg.orientation):
            full = [0] * nv
            full[3 * (i - 1)], full[3 * i] = 1, -1
            rows.append((full, 0))
    for (i, j, axis, order) in pattern.bb:
        first, second = (i, j) if order == 1 else (j, i)
        full = [0] * nv
        full[3 * first + axis], full[3 * second + axis] = 1, -1
        rows.append((full, -F(pattern.extents[first][axis]
                              + pattern.extents[second][axis], 2)))
    for (i, obstacle_id, facet) in pattern.bo:
        h = pattern.obstacle(i, obstacle_id).halfspaces[facet]
        full = [0] * nv
        full[3 * i:3 * i + 3] = -h.a, -h.b, -h.c
        rows.append((full, -h.d))
    return rows, nv


def _check_slack_below_delta(regions, placements, bb, bo, slack, centers):
    """The pattern's largest slack and least centers, exactly: from Newton
    steps, from the search's own chains (which fail at DELTA_MM), and
    within FEAS_TOL from the LP; its verdict is Fourier-Motzkin's."""
    pattern = _pattern_of(placements, regions, bb, bo)
    assert order_chains_feasible(placements, regions, bb, bo)
    assert fm_feasible(*_exact_rows(pattern))
    assert search_mod._exact_answer(pattern) == (slack, centers)
    out = solve(build_lp(placements, regions, bb, bo))
    assert out.feasible
    assert out.value == pytest.approx(float(slack), abs=FEAS_TOL)
    assert np.allclose(out.assignment[:-1], centers, rtol=0.0, atol=FEAS_TOL)
    steps = ([("box", p) for p in placements] + [("bb", c) for c in bb]
             + [("bo", c) for c in bo])
    folded, chains, aligned = Pattern(), (search_mod._NO_BOX,) * 2, True
    for step, item in steps:
        folded, chains, aligned = search_mod._extend(
            folded, chains, aligned, regions, step, item)
    assert folded == pattern
    assert aligned and chains[0] is not None and chains[1] is None
    node = search_mod.PartialPattern(tuple(range(len(placements))), 0, 0,
                                     pattern, None, chains, aligned)
    got, outcome = search_mod._answer(node, None, regions,
                                      search_mod.SearchStats())
    assert outcome is None and _flat(got) == centers


def test_largest_slack_below_delta_is_exact():
    # box 0 stays right of the wall x <= 30 (c0 >= 30 + s), boxes 1 and 2
    # follow it on x 20 mm apart (+ s each), and box 2 ends at the hull's
    # x <= 71: 30 + 40 + 3 s <= 71, so s* = 1/3 < DELTA_MM, and the least
    # point is c0 = 30 + 1/3, c1 = 50 + 2/3, c2 = 71 (y = z = 10)
    wall = axis_aligned_box((-40, 0, 0), (30, 100, 100), id="o0")
    box, regions = _row_instance(71, [wall])
    _check_slack_below_delta(
        regions, [(box, "zyx")] * 3, [(0, 1, 0, 1), (1, 2, 0, 1)],
        [(0, "o0", _facet(wall, (1, 0, 0)))], F(1, 3),
        [float(F(91, 3)), 10.0, 10.0, float(F(152, 3)), 10.0, 10.0,
         71.0, 10.0, 10.0])


def test_largest_slack_below_delta_under_an_upper_facet():
    # box 1 follows box 0 (from the hull's x >= 10) by 20 mm + s on x and
    # stays left of the wall x >= 31 (c1 <= 31 - s): 30 + s <= 31 - s, so
    # s* = 1/2, with c0 = 10 and c1 = 30.5
    wall = axis_aligned_box((31, 0, 0), (200, 100, 100), id="o0")
    box, regions = _row_instance(90, [wall])
    _check_slack_below_delta(
        regions, [(box, "zyx")] * 2, [(0, 1, 0, 1)],
        [(1, "o0", _facet(wall, (-1, 0, 0)))], F(1, 2),
        [10.0, 10.0, 10.0, 30.5, 10.0, 10.0])


@pytest.mark.parametrize("case", ["overrun", "capped", "cycle"])
def test_slack_zero_overrun_and_cycle_are_ruled_out(case):
    wall = axis_aligned_box((-40, 0, 0), (30, 100, 100), id="o0")
    right = axis_aligned_box((29, 0, 0), (200, 100, 100), id="o1")
    # the cycle's hull is long enough that no raise around it overruns
    hull_hi_x = {"overrun": 69, "capped": 90, "cycle": 1000}[case]
    box, regions = _row_instance(hull_hi_x, [wall, right])
    placements = [(box, "zyx")] * 3
    if case == "overrun":
        # 30 + 40 > 69: the wall's lower bound pushes box 2 past the hull
        bb = [(0, 1, 0, 1), (1, 2, 0, 1)]
        bo = [(0, "o0", _facet(wall, (1, 0, 0)))]
    elif case == "capped":
        # box 1 must stay left of x >= 29 (c1 <= 29), but follows box 0 by
        # 20 mm from the hull's x >= 10
        bb = [(0, 1, 0, 1)]
        bo = [(1, "o1", _facet(right, (-1, 0, 0)))]
    else:
        bb = [(0, 1, 0, 1), (1, 2, 0, 1), (0, 2, 0, -1)]
        bo = [(0, "o0", _facet(wall, (1, 0, 0)))]
    assert not order_chains_feasible(placements, regions, bb, bo)
    assert not fm_feasible(*_exact_rows(_pattern_of(placements, regions, bb,
                                                    bo)))
    assert not solve(build_lp(placements, regions, bb, bo)).feasible


# ---------------------------------------------------------------------------
# mixed trees: exact answers where every row is axis-aligned, LPs elsewhere


def _mixed_instance():
    """Three 20 mm cubes in an axis-aligned hull whose low corner lies in
    a pillar (x, y <= 50, every z) with its edge at x = y = 50 cut by the
    slanted facet x + y <= 80."""
    box = cube_type(max_count=3)
    hull = axis_aligned_box((10, 10, 10), (90, 90, 90), id="hull")
    pillar = intersect_halfspaces(
        [Halfspace((1, 1, 0), 80)],
        axis_aligned_box((0, 0, 0), (50, 50, 100)), id="o0")
    assert any(h.axis() is None for h in pillar.halfspaces)
    return box, {("K", "zyx"): region(hull, [pillar], "K")}


def test_mixed_tree_equals_the_lp_only_tree(monkeypatch):
    box, regions = _mixed_instance()
    config = SearchConfig(prune_enabled=False)
    solved = []
    real_solve = search_mod.solve

    def counted_solve(lp, parent=None):
        solved.append(parent is not None)
        return real_solve(lp, parent)

    monkeypatch.setattr(search_mod, "solve", counted_solve)
    mixed = enumerate_patterns(regions, [box], config=config)
    mixed_solved = list(solved)
    # the LP-only run: no row counts as axis-aligned, so every node is
    # answered by its LP and its chains keep only the hull boxes and orders
    monkeypatch.setattr(Halfspace, "axis", lambda h: None)
    solved.clear()
    lp_only = enumerate_patterns(regions, [box], config=config)

    def tree(result):
        stats = result.stats
        return (stats.nodes, stats.bb_branches, stats.bo_branches,
                stats.improvements, result.volume_mm3)

    assert tree(mixed) == tree(lp_only)
    assert [p.as_dict() for p in mixed.placements] \
        == [p.as_dict() for p in lp_only.placements]
    assert len(mixed.placements) == 3
    check = validate_packing(mixed.placements, regions)
    assert check["valid"] and check["mode"] == "exact", check
    # the mixed tree solves LPs only below the slanted facet, the first of
    # them cold and their children warm
    assert 0 < mixed.stats.lp_calls < lp_only.stats.lp_calls
    assert len(solved) == lp_only.stats.lp_calls
    assert False in mixed_solved and True in mixed_solved


def _sphere_hull(seed, points, radius):
    """The hull of integer points near a sphere: every facet slanted."""
    rng = np.random.default_rng(seed)
    pts = set()
    while len(pts) < points:
        v = rng.normal(size=3)
        pts.add(tuple(int(round(t)) for t in v / np.linalg.norm(v) * radius))
    return convex_hull(sorted(pts), id="hull")


def _tableau_assignment(outcome):
    """The assignment a feasible outcome's final tableau holds: each
    variable at its origin, moved by its basic value."""
    tableau = outcome.tableau
    m, n = len(tableau.basis), len(tableau.cost)
    shifted = np.zeros(n + m)
    shifted[tableau.basis] = tableau.T[:m, -1]
    return tableau.origin + tableau.sign * shifted[:n]


def _slanted_instance():
    """Three 140 mm cubes in a slanted hull; the obstacle is centred on the
    hull's vertex (-52, -246, 68), where the first box's LP puts it."""
    box = cube_type(edge=140, max_count=3)
    obstacle = axis_aligned_box((-112, -306, 8), (8, -186, 128), id="o0")
    return box, {("K", "zyx"): region(_sphere_hull(20261019, 10, 260),
                                      [obstacle], "K")}


def test_slanted_search_lps_warm_start_to_the_cold_answer(monkeypatch):
    """Every node LP of a search over a slanted hull: the LP the search
    makes from its parent's by one step is the LP ``build_lp`` assembles
    whole from the node's pattern, bit for bit, and its warm-started answer
    is the cold one (within 1e-9 mm: on slanted rows the pivot path moves
    the last bits).  Only roots start cold.  Every feasible outcome's final
    tableau holds its answer bit for bit."""
    box, regions = _slanted_instance()
    real_node_lp = search_mod._node_lp
    made, feasible = [], []
    compared = collections.Counter()

    def compared_node_lp(node, candidates, regions):
        lp = real_node_lp(node, candidates, regions)
        placements = [(candidates[k].box, candidates[k].orientation)
                      for k in node.indices]
        pattern = node.pattern
        assert lp.pattern == pattern
        whole = build_lp(placements, regions, pattern.bb, pattern.bo)
        assert _same_lp(lp, whole), (node.indices, pattern.bb, pattern.bo)
        made.append((lp, whole, node))
        return lp

    def compared_solve(lp, parent=None):
        made_lp, whole, node = made[-1]
        assert made_lp is lp and node.parent is parent
        outcome = solve(lp, parent)
        if parent is not None:
            cold = solve(whole)
            assert outcome.feasible == cold.feasible
            if cold.feasible:
                # the pivot paths differ, so the last bits may too
                assert np.allclose(outcome.assignment, cold.assignment,
                                   rtol=0.0, atol=1e-9)
                assert outcome.value == pytest.approx(cold.value, abs=1e-9)
                compared["warm"] += 1
        if outcome.feasible:
            feasible.append(outcome)
        return outcome

    monkeypatch.setattr(search_mod, "_node_lp", compared_node_lp)
    monkeypatch.setattr(search_mod, "solve", compared_solve)
    result = enumerate_patterns(regions, [box],
                                config=SearchConfig(prune_enabled=False))
    assert result.stats.lp_failures == 0
    assert len(made) == result.stats.lp_calls
    cold = [node for _, _, node in made if node.parent is None]
    assert all(len(node.indices) == 1 for node in cold)
    assert all(_tableau_assignment(o).tobytes() == o.assignment.tobytes()
               for o in feasible)
    # the root's LP is the only cold one, and it is feasible
    assert compared["warm"] == len(feasible) - 1
    assert (len(made), len(cold), len(feasible), result.stats.pivots) \
        == (651, 1, 584, 2514)
    assert (result.stats.nodes, result.stats.bb_branches,
            result.stats.bo_branches, len(result.placements)) \
        == (804, 88, 39, 3)


def test_each_node_checks_its_pattern_step_once(monkeypatch):
    """Over the slanted search, the ``Pattern`` steps run once per child
    made, and again only where an LP is assembled whole (``build_lp``
    checks every step of its pattern): a warm-started LP keeps its node's
    pattern object instead of stepping a copy of it."""
    box, regions = _slanted_instance()
    seen = collections.Counter()

    def counting(name):
        real = getattr(Pattern, name)

        def counted(self, *args):
            seen["steps"] += 1
            return real(self, *args)
        monkeypatch.setattr(Pattern, name, counted)

    for name in ("with_box", "with_bb", "with_bo"):
        counting(name)
    real_child, real_node_lp = search_mod._child, search_mod._node_lp

    def counted_child(*args):
        seen["children"] += 1
        return real_child(*args)

    def checked_node_lp(node, candidates, regions):
        lp = real_node_lp(node, candidates, regions)
        if node.parent is None:
            pattern = node.pattern
            seen["cold"] += 1
            seen["cold steps"] += (len(pattern.regions) + len(pattern.bb)
                                   + len(pattern.bo))
        else:
            assert lp.pattern is node.pattern
            seen["warm"] += 1
        return lp

    monkeypatch.setattr(search_mod, "_child", counted_child)
    monkeypatch.setattr(search_mod, "_node_lp", checked_node_lp)
    result = enumerate_patterns(regions, [box],
                                config=SearchConfig(prune_enabled=False))
    assert seen["children"] == result.stats.nodes == 804
    assert (seen["warm"], seen["cold"], seen["cold steps"]) == (650, 1, 1)
    assert seen["steps"] == seen["children"] + seen["cold steps"]


# ---------------------------------------------------------------------------
# conflict detection on cached facet floats


def _reference_detect_intersections(extents, box_regions, centers,
                                    skip_bb=(), skip_bo=()):
    """``detect_intersections`` as it was before the facet floats were
    cached, on each box's extents and region: each facet's norm recomputed
    from its integers per call."""
    n = len(extents)
    bb = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in skip_bb:
                continue
            volume = 1.0
            for k in range(3):
                overlap = ((extents[i][k] + extents[j][k]) / 2.0
                           - abs(centers[i][k] - centers[j][k]))
                if overlap <= 1e-9:
                    volume = 0.0
                    break
                volume *= overlap
            if volume > 0.0:
                bb.append((volume, i, j))
    bb.sort(key=lambda t: (-t[0], t[1], t[2]))
    bo = []
    for i, reg in enumerate(box_regions):
        for obstacle in reg.obstacles:
            if (i, obstacle.id) in skip_bo:
                continue
            depth = None
            for h in obstacle.halfspaces:
                norm = math.sqrt(h.a * h.a + h.b * h.b + h.c * h.c)
                dist = (float(h.d) - (h.a * centers[i][0]
                                      + h.b * centers[i][1]
                                      + h.c * centers[i][2])) / norm
                depth = dist if depth is None else min(depth, dist)
                if depth <= 1e-9:
                    break
            if depth is not None and depth > 1e-9:
                bo.append((depth, i, obstacle))
    bo.sort(key=lambda t: (-t[0], t[1], t[2].id or ""))
    return bb, bo


def _cuboid(dims, cavities=()):
    return parse_convex_json({"shell": {"halfspaces": [
        {"n": [-1, 0, 0], "d": 0}, {"n": [1, 0, 0], "d": dims[0]},
        {"n": [0, -1, 0], "d": 0}, {"n": [0, 1, 0], "d": dims[1]},
        {"n": [0, 0, -1], "d": 0}, {"n": [0, 0, 1], "d": dims[2]}]},
        "cavities": [{"vertices": c} for c in cavities]})


def _regions_of(trunk, box, samples, seed):
    found = {}
    for orientation in distinct_orientations(box):
        reg = compute_feasible_region(trunk, box, orientation,
                                      samples=samples, seed=seed)
        if reg is not None:
            found[(box.id, orientation)] = reg
    return found


def _l_trunk_search():
    """(regions, box, prune) of criterion 09's L-trunk ``double_stack``."""
    e = BoxType("E", (381, 229, 203), 4)
    cavity = [[x, y, z] for x in (210, 800) for y in (0, 230)
              for z in (210, 1000)]
    return (_regions_of(_cuboid((800, 230, 1000), [cavity]), e, 10000, 4242),
            e, True)


def _criterion_09_searches():
    """(regions, box, prune) of the three criterion-09 searches: the J and
    K cubes and the L-trunk ``double_stack``."""
    j, k = BoxType("J", (88, 88, 88), 5), BoxType("K", (95, 87, 80), 3)
    return [(_regions_of(_cuboid((200, 200, 200)), j, 2000, 5), j, False),
            (_regions_of(_cuboid((210, 210, 210)), k, 2000, 5), k, False),
            _l_trunk_search()]


def test_detect_intersections_matches_the_per_call_norms(monkeypatch):
    real = search_mod.detect_intersections
    calls = collections.Counter()

    def compared(pattern, centers):
        got = real(pattern, centers)
        # the pairs the pattern's constraints separate
        skip_bb = {(min(i, j), max(i, j)) for (i, j, _, _) in pattern.bb}
        skip_bo = {(i, oid) for (i, oid, _) in pattern.bo}
        want = _reference_detect_intersections(
            pattern.extents, pattern.regions, centers, skip_bb, skip_bo)
        assert got[0] == want[0]
        assert [(d, i, o.id) for d, i, o in got[1]] \
            == [(d, i, o.id) for d, i, o in want[1]]
        assert all(a[2] is b[2] for a, b in zip(got[1], want[1]))
        calls["bo" if got[1] else "bb" if got[0] else "free"] += 1
        return got

    monkeypatch.setattr(search_mod, "detect_intersections", compared)
    cases = _criterion_09_searches()
    hull = axis_aligned_box((40, 40, 40), (60, 60, 60), id="hull")
    blocker = axis_aligned_box((39, 39, 39), (61, 61, 61), id="o0")
    cases.append(({("K", "zyx"): region(hull, [blocker], "K")}, cube_type(),
                  True))
    box, regions = _pillar_instance()
    cases.append((regions, box, True))
    tuples = []
    for regions, box, prune in cases:
        result = enumerate_patterns(regions, [box],
                                    config=SearchConfig(prune_enabled=prune))
        tuples.append((result.stats.nodes, result.stats.bb_branches,
                       result.stats.bo_branches, result.volume_mm3))
    # criterion 09's searches, as that criterion pins them
    assert tuples[:3] == [(3063, 482, 0, 3407360), (5196, 809, 0, 1983600),
                          (110, 7, 10, 70846188)]
    assert calls["bo"] >= 10 and calls["bb"] >= 1000 and calls["free"] >= 10


def _successors(pattern, axis, slack) -> dict:
    """Each box's later boxes on ``axis`` at one slack, rebuilt from every
    constraint of the pattern, with the weight of the edge to each (doubled
    coordinates): for an order constraint the half-extent sum plus the
    slack, for a tie (x only, ``Pattern.tied``) 0.  The reference for the
    edges the search's chains carry from node to node."""
    succ = {}
    for (a, b, a_axis, a_order) in pattern.bb:
        if a_axis == axis:
            u, v = (a, b) if a_order == 1 else (b, a)
            succ.setdefault(u, []).append(
                (v, pattern.extents[u][axis] + pattern.extents[v][axis]
                 + slack))
    if axis == 0:
        for v in range(1, len(pattern.regions)):
            if pattern.tied(v):
                succ.setdefault(v - 1, []).append((v, 0))
    return succ


def test_carried_edges_and_pairs_match_a_rebuild(monkeypatch):
    """Every node of criterion 09's searches and of the slanted-hull search:
    at both slacks, each live chain's carried edges are the ones rebuilt
    from the node's pattern (``_successors``), as a multiset per box and
    axis, and the pattern's pair sets are the pairs of its constraints.
    A child shares its parent's edge tuples, all but the one its order
    step adds to."""
    real_child = search_mod._child
    seen = collections.Counter()

    def checked_child(parent, *args):
        node = real_child(parent, *args)
        pattern = node.pattern
        assert pattern.bb_pairs == {(min(i, j), max(i, j))
                                    for (i, j, _, _) in pattern.bb}
        assert pattern.bo_pairs == {(i, oid) for (i, oid, _) in pattern.bo}
        assert len(pattern.bb_pairs) == len(pattern.bb)
        assert len(pattern.bo_pairs) == len(pattern.bo)
        n = len(pattern.regions)
        for chain, before, slack in zip(node.chains, parent.chains,
                                        search_mod._SLACKS):
            if chain is None:
                seen["dead chains"] += 1
                continue
            edges = chain[2]
            assert len(edges) == 3
            for axis in range(3):
                succ = _successors(pattern, axis, slack)
                assert len(edges[axis]) == n
                for u in range(n):
                    assert collections.Counter(edges[axis][u]) \
                        == collections.Counter(succ.get(u, ()))
                    seen["edges"] += len(edges[axis][u])
            # the parent's tuples, shared, but for the one the step grew
            grown = [(axis, u) for axis in range(3)
                     for u in range(len(before[2][axis]))
                     if edges[axis][u] is not before[2][axis][u]]
            assert len(grown) <= 1
            seen["grown"] += len(grown)
        seen["nodes"] += 1
        seen["bo pairs"] += len(pattern.bo_pairs)
        return node

    monkeypatch.setattr(search_mod, "_child", checked_child)
    cases = _criterion_09_searches()
    box, regions = _slanted_instance()
    cases.append((regions, box, False))
    nodes = 0
    for regions, box, prune in cases:
        result = enumerate_patterns(regions, [box],
                                    config=SearchConfig(prune_enabled=prune))
        nodes += result.stats.nodes
    assert seen["nodes"] == nodes == 3063 + 5196 + 110 + 804
    assert min(seen["dead chains"], seen["edges"], seen["grown"],
               seen["bo pairs"]) > 0, seen


def test_exact_answers_match_the_lp_on_random_axis_aligned_patterns():
    # 2-5 boxes, each in its own hull with half-millimetre corners, random
    # orders and random facets of two axis-aligned obstacles; in every other
    # pattern the first order's later box is left 0 to 2 mm of room beyond
    # its gap, so that the largest slack often falls below DELTA_MM (to a
    # power-of-two fraction of a millimetre here).  The chains' verdict is
    # the LP's, and so is the answer, bit for bit; folded as the search
    # folds them, the chains give the same answer
    rng = np.random.default_rng(20261019)
    obstacles = [axis_aligned_box((100, 50, 40), (180, 140, 120), id="o0"),
                 axis_aligned_box((-60, -30, -20), (40, 60, 30), id="o1")]
    seen = collections.Counter()
    for trial in range(500):
        placements, corners = [], []
        for k in range(int(rng.integers(2, 6))):
            box = BoxType(f"B{k}", tuple(int(v) for v in
                                         rng.integers(30, 200, size=3)), 1)
            placements.append((box, "xyz"))
            lo = [F(int(v), 2) for v in rng.integers(-200, 200, size=3)]
            corners.append((lo, [a + F(int(v), 2) for a, v in
                                 zip(lo, rng.integers(1, 800, size=3))]))
        n = len(placements)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        bb = [(i, j, int(rng.integers(3)), int(rng.choice([-1, 1])))
              for (i, j) in pairs[:int(rng.integers(0, len(pairs) + 1))]]
        bo = [(i, f"o{int(rng.integers(2))}", int(rng.integers(6)))
              for i in range(n) if rng.random() < 0.3]
        bo = list({(i, o): (i, o, f) for (i, o, f) in bo}.values())
        if trial % 2 == 0 and bb:
            i, j, axis, order = bb[0]
            first, later = (i, j) if order == 1 else (j, i)
            lo, hi = corners[later]
            hi[axis] = (corners[first][0][axis] + F(int(rng.integers(17)), 8)
                        + F(placements[first][0].dims_mm[axis]
                            + placements[later][0].dims_mm[axis], 2))
            lo[axis] = min(lo[axis], hi[axis] - F(1, 2))
        regions = {(box.id, "xyz"): Region(box.id, "xyz",
                                           axis_aligned_box(lo, hi,
                                                            id="hull"),
                                           obstacles)
                   for (box, _), (lo, hi) in zip(placements, corners)}
        lp = solve(build_lp(placements, regions, bb, bo))
        verdict = order_chains_feasible(placements, regions, bb, bo)
        assert verdict == lp.feasible, (trial, bb, bo)
        if not verdict:
            seen["infeasible"] += 1
            continue
        pattern = _pattern_of(placements, regions, bb, bo)
        slack, centers = search_mod._exact_answer(pattern)
        assert lp.value == slack
        assert lp.assignment[:-1].tolist() == centers, trial
        seen["delta" if slack == DELTA_MM else "below"] += 1
        chains = (search_mod._NO_BOX,) * 2
        folded, aligned = Pattern(), True
        steps = ([("box", p) for p in placements] + [("bb", c) for c in bb]
                 + [("bo", c) for c in bo])
        for step, item in steps:
            folded, chains, aligned = search_mod._extend(
                folded, chains, aligned, regions, step, item)
        assert folded == pattern and aligned
        node = search_mod.PartialPattern(tuple(range(n)), 0, 0, folded,
                                         None, chains, aligned)
        got, _ = search_mod._answer(node, None, regions,
                                    search_mod.SearchStats())
        assert _flat(got) == centers
    # a non-dyadic s* is test_largest_slack_below_delta_is_exact's case
    assert min(seen["infeasible"], seen["delta"], seen["below"]) >= 20, seen


# ---------------------------------------------------------------------------
# ties: a box with the (box id, orientation) of the box before it lies no
# further left on x, so a packing of identical boxes is searched once


def _untied(monkeypatch):
    """Remove the tie step from the pattern, the chains and the LP."""
    monkeypatch.setattr(Pattern, "tied", lambda self, i: False)


def _folded_answer(regions, steps):
    """The search's answer of the pattern folded from ``steps``, in that
    order, as its nodes fold them: (chains, centers)."""
    pattern, chains, aligned = Pattern(), (search_mod._NO_BOX,) * 2, True
    for step, item in steps:
        pattern, chains, aligned = search_mod._extend(
            pattern, chains, aligned, regions, step, item)
    node = search_mod.PartialPattern(tuple(range(len(pattern.regions))), 0, 0,
                                     pattern, None, chains, aligned)
    centers, _ = search_mod._answer(node, None, regions,
                                    search_mod.SearchStats())
    return chains, centers


def test_a_tie_raises_the_boxes_after_it_in_the_delta_chains(monkeypatch):
    # box 0 stays right of the wall x <= 30 (c0 >= 31 at DELTA_MM); boxes
    # 1 and 2 are box 0 again, so they start no further left: x = 31 for
    # all three, whether the wall comes before the later boxes (the box
    # step raises them) or after them (the wall's raise follows the ties)
    wall = axis_aligned_box((-40, 0, 0), (30, 100, 100), id="o0")
    box, regions = _row_instance(90, [wall])
    placements = [(box, "zyx")] * 3
    bo = [(0, "o0", _facet(wall, (1, 0, 0)))]
    want = [31.0, 10.0, 10.0] * 3
    for steps in ([("box", p) for p in placements] + [("bo", bo[0])],
                  [("box", placements[0]), ("bo", bo[0])]
                  + [("box", p) for p in placements[1:]]):
        chains, centers = _folded_answer(regions, steps)
        assert chains[1] is not None
        assert _flat(centers) == want
    out = solve(build_lp(placements, regions, (), bo))
    assert out.value == DELTA_MM and out.assignment[:-1].tolist() == want
    assert fm_feasible(*_exact_rows(_pattern_of(placements, regions, (),
                                                bo)))
    # untied, the later boxes stay at the hull's corner
    _untied(monkeypatch)
    _, centers = _folded_answer(regions, [("box", p) for p in placements]
                                + [("bo", bo[0])])
    assert [x for x, _, _ in centers] == [31.0, 10.0, 10.0]


def test_a_tie_below_delta_is_answered_exactly(monkeypatch):
    # box 0 right of x <= 30 (c0 >= 30 + s), its copy box 1 left of
    # x >= 31 (c1 <= 31 - s), and c0 <= c1: 30 + s <= 31 - s, so s* = 1/2
    # and both centers lie at x = 30.5.  Newton steps find it, and the LP
    # and Fourier-Motzkin agree
    wall = axis_aligned_box((-40, 0, 0), (30, 100, 100), id="o0")
    right = axis_aligned_box((31, 0, 0), (200, 100, 100), id="o1")
    box, regions = _row_instance(90, [wall, right])
    placements = [(box, "zyx")] * 2
    bo = [(0, "o0", _facet(wall, (1, 0, 0))),
          (1, "o1", _facet(right, (-1, 0, 0)))]
    _check_slack_below_delta(regions, placements, [], bo, F(1, 2),
                             [30.5, 10.0, 10.0, 30.5, 10.0, 10.0])
    # untied, both walls keep 1 mm: c0 = 31, c1 = 10
    _untied(monkeypatch)
    assert search_mod._exact_answer(
        _pattern_of(placements, regions, [], bo)) \
        == (F(DELTA_MM), [31.0, 10.0, 10.0, 10.0, 10.0, 10.0])


@pytest.mark.parametrize("case", ["overrun", "cycle"])
def test_a_tie_that_closes_an_overrun_or_a_cycle_is_ruled_out(case,
                                                              monkeypatch):
    wall = axis_aligned_box((-40, 0, 0), (30, 100, 100), id="o0")
    right = axis_aligned_box((29, 0, 0), (200, 100, 100), id="o1")
    box, regions = _row_instance(1000, [wall, right])
    placements = [(box, "zyx")] * 2
    if case == "overrun":
        # c0 >= 30 and its copy c1 <= 29: the tie c0 <= c1 overruns
        bb = []
        bo = [(0, "o0", _facet(wall, (1, 0, 0))),
              (1, "o1", _facet(right, (-1, 0, 0)))]
    else:
        # box 1 before box 0 on x, c1 + 20 <= c0, against the tie
        bb, bo = [(0, 1, 0, -1)], []
    steps = ([("box", p) for p in placements] + [("bb", c) for c in bb]
             + [("bo", c) for c in bo])
    pattern = _pattern_of(placements, regions, bb, bo)
    chains, centers = _folded_answer(regions, steps)
    assert chains[0] is None and centers is None
    assert not order_chains_feasible(placements, regions, bb, bo)
    assert not fm_feasible(*_exact_rows(pattern))
    assert not solve(build_lp(placements, regions, bb, bo)).feasible
    # untied, the pattern is feasible
    _untied(monkeypatch)
    assert order_chains_feasible(placements, regions, bb, bo)
    assert solve(build_lp(placements, regions, bb, bo)).feasible


def test_a_tie_holds_in_the_lp_on_a_slanted_hull(monkeypatch):
    """On the slanted hull the tie row holds at the LP's answer: for two
    or three copies of one cube ordered on z, and at every feasible node LP
    of the slanted search.  Untied, the ordered pattern's answer puts box 0
    right of box 1."""
    box, regions = _slanted_instance()
    for n in (2, 3):
        out = solve(build_lp([(box, "zyx")] * n, regions, [(0, 1, 2, 1)]))
        assert out.feasible and out.value == pytest.approx(DELTA_MM)
        xs = out.assignment[:-1:3]
        assert all(a <= b + FEAS_TOL for a, b in zip(xs, xs[1:])), xs
    real_solve = search_mod.solve
    checked = collections.Counter()

    def checked_solve(lp, parent=None):
        outcome = real_solve(lp, parent)
        if outcome.feasible:
            xs = outcome.assignment[:-1:3]
            assert all(a <= b + FEAS_TOL for a, b in zip(xs, xs[1:])), xs
            checked[len(xs)] += 1
        return outcome

    monkeypatch.setattr(search_mod, "solve", checked_solve)
    result = enumerate_patterns(regions, [box],
                                config=SearchConfig(prune_enabled=False))
    assert len(result.placements) == 3
    # the feasible LPs of test_slanted_search_lps_warm_start_to_the_cold_
    # answer, by their number of boxes
    assert checked == {1: 6, 2: 45, 3: 533}
    monkeypatch.undo()
    _untied(monkeypatch)
    xs = solve(build_lp([(box, "zyx")] * 2, regions,
                        [(0, 1, 2, 1)])).assignment[:-1:3]
    assert xs[0] > xs[1] + 100


def test_no_packing_is_lost_to_the_ties(monkeypatch):
    """Prune-off searches of the J and K cubes, the L-trunk and the
    two-type pillar, and the A/B/E cube with pruning on (off, it visits
    13.5 million nodes; the result is the same either way), find the same
    best volume and box count with and without the ties, in fewer nodes
    with them."""
    cases = [(regions, [box], False)
             for regions, box, _ in _criterion_09_searches()]
    cases += [(*_two_type_pillar(), False), (*_abe_cube(), True)]
    found = []
    for untie in (False, True):
        if untie:
            _untied(monkeypatch)
        found.append([
            (r.volume_mm3, len(r.placements), r.stats.nodes, r.timed_out)
            for r in (enumerate_patterns(
                regions, catalog, config=SearchConfig(prune_enabled=prune))
                for regions, catalog, prune in cases)])
    tied, untied = found
    assert [t[:2] for t in tied] == [u[:2] for u in untied] == [
        (3407360, 5), (1983600, 3), (70846188, 4), (18000, 4),
        (220130934, 6)]
    assert all(t[2] < u[2] for t, u in zip(tied, untied))
    assert not any(t[3] or u[3] for t, u in zip(tied, untied))


def test_each_packing_of_the_j_cubes_repeats_less(monkeypatch):
    """The J cube of criterion 09, prune off: the conflict-free nodes with
    all five cubes placed, their distinct labelled placements and their
    distinct sets of centers.  Untied, each set of centers is reached by
    200 nodes (up to 5! relabellings of each); tied, by 19."""
    regions, box, _ = _criterion_09_searches()[0]
    real = search_mod.detect_intersections
    counts = []

    def counted(pattern, centers):
        bb, bo = real(pattern, centers)
        if len(pattern.regions) == 5 and not bb and not bo:
            placed = tuple(map(tuple, centers))
            seen["nodes"] += 1
            seen["labelled"].add(placed)
            seen["sets"].add(tuple(sorted(placed)))
        return bb, bo

    monkeypatch.setattr(search_mod, "detect_intersections", counted)
    for untie in (False, True):
        if untie:
            _untied(monkeypatch)
        seen = {"nodes": 0, "labelled": set(), "sets": set()}
        enumerate_patterns(regions, [box],
                           config=SearchConfig(prune_enabled=False))
        counts.append((seen["nodes"], len(seen["labelled"]),
                       len(seen["sets"])))
    assert counts == [(532, 296, 28), (4800, 2004, 24)]
