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
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from trunkpack.catalog import BoxType, default_catalog
from trunkpack.freespace import RawRegion, parse_convex_json, raw_feasible_region
from trunkpack.geometry import axis_aligned_box
from trunkpack.search import (Candidate, PackingResult, PartialPattern,
                              Placement, SearchConfig, branch, candidate_list,
                              detect_intersections, enumerate_patterns,
                              upper_bound, validate_packing)

F = Fraction


def region(hull, obstacles, box_id, orientation="zyx"):
    return RawRegion(box_id, orientation, hull, list(obstacles))


def cube_type(id="K", edge=20, max_count=2):
    return BoxType(id, (edge, edge, edge), max_count, "primary")


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
    assert result.stats.arity_violations == 0
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
    assert result.stats.bo_branches >= 1
    assert result.stats.arity_violations == 0
    # every box-obstacle branch fans out over all six facets of the blocker
    assert result.stats.lp_calls >= 6


def _pillar_instance(max_count=2):
    hull = axis_aligned_box((10, 10, 10), (90, 90, 90), id="hull")
    pillar = axis_aligned_box((20, 20, 10), (80, 80, 90), id="o0")
    box = cube_type(max_count=max_count)
    return box, {("K", "zyx"): region(hull, [pillar], "K")}


def test_pillar_instance_places_two_cubes():
    box, regions = _pillar_instance()
    result = enumerate_patterns(regions, [box])
    assert result.volume_mm3 == 2 * 8000
    assert len(result.placements) == 2
    assert result.stats.bb_branches >= 1
    assert result.stats.arity_violations == 0
    check = validate_packing(result.placements, regions)
    assert check["valid"], check


def test_max_count_limits_placements():
    box, regions = _pillar_instance(max_count=1)
    result = enumerate_patterns(regions, [box])
    assert len(result.placements) == 1
    assert result.volume_mm3 == 8000


def test_prune_toggle_preserves_results():
    big, regions = _pillar_instance()
    small = cube_type(id="L", edge=10, max_count=2)
    hull = regions[("K", "zyx")].hull
    pillar = regions[("K", "zyx")].obstacles[0]
    regions[("L", "zyx")] = region(hull, [pillar], "L")
    catalog = [big, small]
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
    placed = [Candidate(box, "zyx")] * 3
    centers = np.array([[50.0, 50.0, 50.0],   # inside obstacle
                        [52.0, 50.0, 50.0],   # inside obstacle, overlaps 0
                        [10.0, 10.0, 10.0]])  # clear
    bb, bo = detect_intersections(placed, centers, regions)
    assert [(i, j) for _, i, j in bb] == [(0, 1)]
    # overlap volume: (20 - 2) * 20 * 20
    assert bb[0][0] == pytest.approx(18.0 * 20.0 * 20.0)
    assert [i for _, i, _ in bo] == [0, 1]
    assert bo[0][0] == pytest.approx(10.0)  # center to the nearest facet
    assert bo[1][0] == pytest.approx(8.0)
    # already-constrained pairs are skipped
    bb2, bo2 = detect_intersections(placed, centers, regions,
                                    skip_bb={(0, 1)},
                                    skip_bo={(0, "o0"), (1, "o0")})
    assert bb2 == [] and bo2 == []


def test_unit_boxes_half_apart_overlap_half():
    unit = BoxType("U", (1, 1, 1), 2, "primary")
    hull = axis_aligned_box((0, 0, 0), (10, 10, 10), id="hull")
    regions = {("U", "zyx"): region(hull, [], "U")}
    placed = [Candidate(unit, "zyx")] * 2
    centers = np.array([[2.0, 2.0, 2.0], [2.5, 2.0, 2.0]])
    bb, _ = detect_intersections(placed, centers, regions)
    assert bb[0][0] == pytest.approx(0.5)


def test_upper_bound_full_catalog_example():
    boxes = default_catalog()
    # 4*A + 4*B + 2*(C + D + E + F), every box addable
    assert upper_bound([], boxes) == 700341734
    a = next(b for b in boxes if b.id == "A")
    placed = [Candidate(a, "zyx")]
    assert upper_bound(placed, boxes) == 700341734
    assert upper_bound(placed, boxes, addable_type_ids={"A"}) \
        == 4 * a.volume_mm3()
    exhausted = [Candidate(a, "zyx")] * 4
    assert upper_bound(exhausted, boxes, addable_type_ids=set()) \
        == 4 * a.volume_mm3()


def test_branch_children_shapes():
    pattern = PartialPattern((0,), (), (), 0)
    obstacle = axis_aligned_box((0, 0, 0), (1, 1, 1), id="o0")
    children, kind = branch(pattern, [(5.0, 0, 1)], [(2.0, 0, obstacle)])
    assert kind == "bb" and len(children) == 6
    assert {c.bb[0][2:] for c in children} \
        == {(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)}
    children, kind = branch(pattern, [], [(2.0, 0, obstacle)])
    assert kind == "bo" and len(children) == 6
    assert [c.bo[0] for c in children] == [(0, "o0", f) for f in range(6)]
    children, kind = branch(pattern, [], [])
    assert children == [] and kind is None


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
