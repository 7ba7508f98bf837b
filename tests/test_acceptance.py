"""Whole-package acceptance suite.

One test function per advertised guarantee, so ``pytest -v`` prints a single
pass/fail line for each.  Every expected number is either derived in closed
form at the point of use or cross-checked against an independent brute-force
oracle implemented in this file; nothing is read back from the library under
test.  Related criteria share one cached run (simplification soundness and
its log audit; packing counts and the prune-equivalence check) so the suite
stays fast without weakening any check.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import trunkpack.search as search_mod
from trunkpack.catalog import (FULL_CATALOG, ORIENTATIONS, BoxType,
                               distinct_orientations, oriented_extents)
from trunkpack.freespace import (FeasibleRegion, classify_feasible,
                                 compute_feasible_region, describe_region,
                                 erode_hull, format_region_report,
                                 inverted_box, parse_convex_json,
                                 parse_mesh_json, raw_feasible_region,
                                 region_report_csv, sample_lattice_points)
from trunkpack.geometry import (DegenerateInput, Halfspace, axis_aligned_box,
                                convex_hull, minkowski_sum_convex, support)
from trunkpack.lp import maximize_direction
from trunkpack.pipeline import format_simplify_report, simplify_report_csv
from trunkpack.search import SearchConfig, enumerate_patterns, validate_packing
from trunkpack.simplify import (MergeParams, contractiveness_violations,
                                drop_facets, facet_count, merge_obstacles)

DATA_DIR = Path(__file__).parent / "data"


def _within_budget(t0: float, limit_s: float, label: str) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < limit_s, f"{label}: {elapsed:.1f}s exceeds {limit_s:.0f}s budget"


def _cuboid_hull(dims, id=None):
    return axis_aligned_box((0, 0, 0), dims, id=id)


# ---------------------------------------------------------------------------
# criterion 1: exact volumes and Minkowski support additivity


def _random_polytope(rng: random.Random):
    while True:
        pts = [tuple(rng.randint(-20, 20) for _ in range(3))
               for _ in range(rng.randint(4, 8))]
        try:
            return convex_hull(pts)
        except DegenerateInput:
            continue


def test_criterion_01_exact_volume_and_minkowski_support():
    t0 = time.monotonic()

    cube = convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert cube.volume() == Fraction(1)
    simplex = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert simplex.volume() == Fraction(1, 6)

    # Support-function additivity h_{A+B}(d) = h_A(d) + h_B(d) characterizes
    # the Minkowski sum of convex bodies; with integer inputs both sides are
    # exact rationals, so the comparison has no tolerance at all.
    rng = random.Random(20260825)
    violations = 0
    for _ in range(100):
        a = _random_polytope(rng)
        b = _random_polytope(rng)
        s = minkowski_sum_convex(a, b)
        for _ in range(100):
            d = tuple(rng.randint(-9, 9) for _ in range(3))
            if d == (0, 0, 0):
                d = (1, 0, 0)
            if support(s, d) != support(a, d) + support(b, d):
                violations += 1
    assert violations == 0
    _within_budget(t0, 60.0, "criterion 1")


# ---------------------------------------------------------------------------
# criterion 2: erosion of a cuboid container is exact on every axis


def test_criterion_02_cuboid_erosion_exact():
    t0 = time.monotonic()
    rng = random.Random(987654321)
    cases = []
    for _ in range(50):
        dims = tuple(rng.randint(150, 900) for _ in range(3))
        cases.append((dims, rng.choice(FULL_CATALOG), rng.choice(ORIENTATIONS)))
    # Deterministic boundary cases around an exact fit on one axis.
    box_a = next(b for b in FULL_CATALOG if b.id == "A")
    cases.append(((500, 483, 700), box_a, "zyx"))  # oriented y extent == 483
    cases.append(((500, 482, 700), box_a, "zyx"))  # exceeds by 1 mm -> empty

    fits_seen = empty_seen = 0
    for dims, box, orientation in cases:
        container = _cuboid_hull(dims)
        ext = oriented_extents(box.dims_mm, orientation)
        eroded = erode_hull(container, inverted_box(box, orientation))
        if all(ext[k] <= dims[k] for k in range(3)):
            fits_seen += 1
            assert eroded is not None
            for k in range(3):
                assert eroded.extent(k) == dims[k] - ext[k]
        else:
            empty_seen += 1
            assert eroded is None
    assert fits_seen > 0 and empty_seen > 0
    _within_budget(t0, 60.0, "criterion 2")


# ---------------------------------------------------------------------------
# criterion 3: triangle-mesh free space is sound (no sampled center lets the
# box poke out of the solid)


def _notched_cube_mesh() -> dict:
    """Unit-testable solid: the cube [0,600]^3 minus the open channel
    y in (250,350), z in (450,600) running the full x extent.  The boundary
    decomposes into 25 axis-aligned rectangles, triangulated into exactly 50
    triangles; extra patch splits keep the mesh irregular enough to exercise
    obstacle clipping and deduplication."""

    def rz(z, x0, x1, y0, y1):  # rectangle at constant z
        return [(x0, y0, z), (x1, y0, z), (x1, y1, z), (x0, y1, z)]

    def ry(y, x0, x1, z0, z1):  # rectangle at constant y
        return [(x0, y, z0), (x1, y, z0), (x1, y, z1), (x0, y, z1)]

    def rx(x, y0, y1, z0, z1):  # rectangle at constant x
        return [(x, y0, z0), (x, y1, z0), (x, y1, z1), (x, y0, z1)]

    patches = [
        # floor
        rz(0, 0, 300, 0, 300), rz(0, 0, 300, 300, 600), rz(0, 300, 600, 0, 600),
        # outer side walls
        ry(0, 0, 300, 0, 600), ry(0, 300, 600, 0, 600),
        ry(600, 0, 300, 0, 600), ry(600, 300, 600, 0, 600),
        # top plate, split around the channel opening
        rz(600, 0, 300, 0, 250), rz(600, 300, 600, 0, 250),
        rz(600, 0, 300, 350, 600), rz(600, 300, 600, 350, 600),
        # channel floor and walls
        rz(450, 0, 300, 250, 350), rz(450, 300, 600, 250, 350),
        ry(250, 0, 300, 450, 600), ry(250, 300, 600, 450, 600),
        ry(350, 0, 300, 450, 600), ry(350, 300, 600, 450, 600),
        # x = 0 end cap (channel cross-section removed)
        rx(0, 0, 300, 0, 450), rx(0, 300, 600, 0, 450),
        rx(0, 0, 250, 450, 600), rx(0, 350, 600, 450, 600),
        # x = 600 end cap
        rx(600, 0, 300, 0, 450), rx(600, 300, 600, 0, 450),
        rx(600, 0, 250, 450, 600), rx(600, 350, 600, 450, 600),
    ]
    assert len(patches) == 25
    triangles = []
    for c0, c1, c2, c3 in patches:
        triangles.append([list(c0), list(c1), list(c2)])
        triangles.append([list(c0), list(c2), list(c3)])
    return {"triangles": triangles, "seed": [305, 125, 223]}


def test_criterion_03_mesh_freespace_soundness():
    t0 = time.monotonic()
    mesh = _notched_cube_mesh()
    assert len(mesh["triangles"]) == 50
    trunk = parse_mesh_json(mesh)
    box = BoxType("N", (250, 200, 150), 1)
    raw = raw_feasible_region(trunk, box, "xyz")
    assert raw is not None
    region = describe_region(raw, samples=1000, seed=7)
    assert region is not None

    # 150k bbox samples leave comfortably more than 100k feasible centers,
    # every one of which is checked below.
    pts = sample_lattice_points(region.hull.bbox(), 150000, seed=20260825)
    mask = classify_feasible(pts, region.hull, region.obstacles)
    assert int(mask.sum()) >= 100000

    # Exact integer arithmetic on the sampled centers: coordinates are
    # num/dens per axis, so corner and interval tests multiply through by
    # 2*dens and stay in int64 (numerators are bounded by 600*dens and
    # dens ~ 4e6 here).
    ext = np.array(oriented_extents(box.dims_mm, "xyz"), dtype=np.int64)
    dens = np.array([int(d) for d in pts.dens], dtype=np.int64)
    sel = pts.num[mask]
    lo2 = 2 * sel - ext * dens          # 2 * dens * (corner low)
    hi2 = 2 * sel + ext * dens          # 2 * dens * (corner high)
    inside_cube = (lo2 >= 0).all(axis=1) & (hi2 <= 1200 * dens).all(axis=1)

    # A box corner strictly inside the channel (open region) would stick out
    # of the solid.
    corner_in_channel = np.zeros(len(sel), dtype=bool)
    for sy in (-1, 1):
        y2 = 2 * sel[:, 1] + sy * ext[1] * dens[1]
        in_y = (y2 > 500 * dens[1]) & (y2 < 700 * dens[1])
        for sz in (-1, 1):
            z2 = 2 * sel[:, 2] + sz * ext[2] * dens[2]
            in_z = (z2 > 900 * dens[2]) & (z2 < 1200 * dens[2])
            corner_in_channel |= in_y & in_z
    corners_outside = int((~inside_cube).sum()) + int(corner_in_channel.sum())
    assert corners_outside == 0

    # Stronger than the corner test: the box interior must not intersect the
    # channel interior at all (a box spanning across the opening has all
    # corners in the solid but still pokes into the channel).
    cross = ((lo2[:, 1] < 700 * dens[1]) & (hi2[:, 1] > 500 * dens[1])
             & (lo2[:, 2] < 1200 * dens[2]) & (hi2[:, 2] > 900 * dens[2]))
    assert int(cross.sum()) == 0
    _within_budget(t0, 300.0, "criterion 3")


# ---------------------------------------------------------------------------
# criteria 4 and 5: simplification soundness and its audit log
#
# Three synthetic regions inside the hull [0,300]^3 with obstacles kept at
# least 15 mm away from the hull, so a 10 mm growth budget can never open an
# obstacle toward the hull boundary:
#   mixed:     a flush box pair (hull growth exactly 0), an overlapping box
#              pair (hull 140000 mm^3 vs union 116000 mm^3: growth 24000 mm^3
#              accepted under the 100000 mm^3 absolute bound), a chamfered
#              cube whose 15 mm corner cut sits 15/sqrt(3) ~ 8.66 mm from the
#              restored corner (dropped under the 10 mm bound), and one
#              isolated box.
#   chamfers:  disjoint chamfered cubes with cuts of 15, 15, 15 and 20 mm;
#              20/sqrt(3) ~ 11.55 mm exceeds the bound, so that facet stays.
#   flush_mix: a flush pair, a 12 mm chamfer (6.93 mm, dropped), an isolated
#              box.

_SIMPLIFY_SAMPLES = 100000
_SIMPLIFY_RUNS: dict = {}


def _chamfered_cube(lo, edge, cut, id):
    """Cube with one corner cut off: the plane through the three cut points
    sits cut/sqrt(3) mm from the removed corner."""
    (x0, y0, z0) = lo
    (x1, y1, z1) = (x0 + edge, y0 + edge, z0 + edge)
    corners = [(x, y, z) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]
    corners.remove((x1, y1, z1))
    corners += [(x1 - cut, y1, z1), (x1, y1 - cut, z1), (x1, y1, z1 - cut)]
    return convex_hull(corners, id=id)


def _simplify_instance(name: str) -> FeasibleRegion:
    hull = axis_aligned_box((0, 0, 0), (300, 300, 300), id="hull")
    if name == "mixed":
        obstacles = [
            axis_aligned_box((20, 20, 20), (60, 60, 60), id="a0"),
            axis_aligned_box((60, 20, 20), (100, 60, 60), id="a1"),
            axis_aligned_box((120, 120, 120), (160, 160, 160), id="a2"),
            axis_aligned_box((150, 130, 120), (190, 170, 160), id="a3"),
            _chamfered_cube((200, 200, 200), 50, 15, "a4"),
            axis_aligned_box((80, 200, 200), (120, 240, 240), id="a5"),
        ]
        seed = 917
    elif name == "chamfers":
        obstacles = [
            _chamfered_cube((20, 20, 20), 50, 15, "b0"),
            _chamfered_cube((120, 20, 20), 50, 15, "b1"),
            _chamfered_cube((220, 20, 20), 50, 15, "b2"),
            _chamfered_cube((20, 120, 120), 50, 20, "b3"),
        ]
        seed = 431
    elif name == "flush_mix":
        obstacles = [
            axis_aligned_box((30, 30, 30), (80, 80, 80), id="c0"),
            axis_aligned_box((80, 30, 30), (130, 80, 80), id="c1"),
            _chamfered_cube((150, 150, 150), 50, 12, "c2"),
            axis_aligned_box((220, 220, 220), (260, 260, 260), id="c3"),
        ]
        seed = 608
    else:  # pragma: no cover - guard against typos in the test body
        raise KeyError(name)
    return FeasibleRegion("sim", "xyz", hull, obstacles, 0.0, 0.0,
                          samples=_SIMPLIFY_SAMPLES, seed=seed)


_SIMPLIFY_NAMES = ("mixed", "chamfers", "flush_mix")


def _simplification_run(name: str):
    if name not in _SIMPLIFY_RUNS:
        region = _simplify_instance(name)
        merged, merge_log = merge_obstacles(
            region, MergeParams(rel_bound_pct=80.0, abs_bound_mm3=100000.0,
                                rng_seed=31))
        final, drop_log = drop_facets(merged, max_growth_mm=10.0)
        _SIMPLIFY_RUNS[name] = (region, merged, final, merge_log, drop_log)
    return _SIMPLIFY_RUNS[name]


def test_criterion_04_simplification_never_frees_forbidden_space():
    t0 = time.monotonic()
    merges = drops = 0
    for name in _SIMPLIFY_NAMES:
        region, _, final, merge_log, drop_log = _simplification_run(name)
        check = contractiveness_violations(region, final,
                                           samples=_SIMPLIFY_SAMPLES)
        assert check["checked"] == _SIMPLIFY_SAMPLES
        assert check["violations"] == 0
        if merge_log or drop_log:
            assert facet_count(final) < facet_count(region)
        merges += len(merge_log)
        drops += len([e for e in drop_log if e["status"] == "dropped"])
    assert merges >= 3
    assert drops >= 4
    _within_budget(t0, 300.0, "criterion 4")


def test_criterion_05_simplification_log_audit():
    rel = Fraction(80)
    abs_bound = Fraction(100000)
    checked_merges = checked_drops = 0
    for name in _SIMPLIFY_NAMES:
        _, merged, _, merge_log, drop_log = _simplification_run(name)
        for e in merge_log:
            growth = Fraction(e["growth_exact"])
            base = Fraction(e["base_exact"])
            assert growth <= abs_bound or growth * 100 <= rel * base
            assert e["facets_after"] < e["facets_before"]
            checked_merges += 1

        # Replay every drop from the post-merge obstacle descriptions and
        # re-solve the growth LP independently: how far can the forbidden
        # set now reach past the removed facet plane inside the hull?
        rows_by_id = {o.id: list(o.halfspaces) for o in merged.obstacles}
        hull_rows = list(merged.hull.halfspaces)
        for e in drop_log:
            if e["status"] != "dropped":
                continue
            rows = rows_by_id[e["obstacle"]]
            facet = Halfspace(e["facet"]["n"], e["facet"]["d"])
            idx = next(i for i, h in enumerate(rows) if h.key() == facet.key())
            cand = rows.pop(idx)
            norm_sq = cand.a ** 2 + cand.b ** 2 + cand.c ** 2
            norm = math.sqrt(norm_sq)
            out = maximize_direction(
                [cand.a / norm, cand.b / norm, cand.c / norm],
                rows + hull_rows)
            if out.feasible:
                growth_mm = out.value - float(cand.d) / norm
                assert growth_mm <= e["bound_mm"] + 1e-6
            num = Fraction(e["growth_exact"]["num"])
            bound = Fraction(str(e["bound_mm"]))
            assert num <= 0 or num * num <= bound * bound * Fraction(
                e["growth_exact"]["norm_sq"])
            checked_drops += 1
    assert checked_merges >= 3
    assert checked_drops >= 4


# ---------------------------------------------------------------------------
# criterion 6: an exact-fit container packs two catalog-A boxes


def _convex_cuboid_trunk(dims, cavities=()):
    obj = {"shell": {"halfspaces": [
        {"n": [-1, 0, 0], "d": 0}, {"n": [1, 0, 0], "d": dims[0]},
        {"n": [0, -1, 0], "d": 0}, {"n": [0, 1, 0], "d": dims[1]},
        {"n": [0, 0, -1], "d": 0}, {"n": [0, 0, 1], "d": dims[2]}]}}
    if cavities:
        obj["cavities"] = [{"vertices": [list(v) for v in c]} for c in cavities]
    return parse_convex_json(obj)


def _region_map(trunk, box, samples, seed):
    regions = {}
    for orientation in distinct_orientations(box):
        region = compute_feasible_region(trunk, box, orientation,
                                         samples=samples, seed=seed)
        if region is not None:
            regions[(box.id, orientation)] = region
    return regions


def test_criterion_06_exact_fit_container_packs_two():
    t0 = time.monotonic()
    trunk = _convex_cuboid_trunk((458, 483, 610))
    box_a = next(b for b in FULL_CATALOG if b.id == "A")
    regions = _region_map(trunk, box_a, samples=20000, seed=99)
    assert regions, "the 458x483x610 container admits at least one orientation"
    result = enumerate_patterns(regions, [box_a])
    assert len(result.placements) == 2
    assert validate_packing(result.placements, regions)["valid"]
    expected_mm3 = 2 * box_a.volume_mm3()
    assert result.volume_mm3 == expected_mm3
    assert abs(result.volume_dm3() - 134.9) <= 0.05
    _within_budget(t0, 60.0, "criterion 6")


# ---------------------------------------------------------------------------
# criteria 7 and 8: packing counts certified by a lattice oracle, and prune
# on/off equivalence
#
# Each instance is an axis-aligned L-shaped trunk: a cuboid shell minus one
# open corner cavity that runs to the shell boundary.  On these trunks an
# optimal packing can always be translated onto the 10 mm lattice (all
# geometry is a multiple of 10 mm and boxes can slide to the low corner), so
# a depth-first search over lattice positions is a true oracle for the best
# achievable count, capped by the catalog's per-type limit.

_PACK_INSTANCES = (
    # name, shell dims, cavity low corner, box type, expected count
    ("tall_arm_pair", (800, 230, 600), (210, 0, 210),
     BoxType("E", (381, 229, 203), 4), 3),
    ("wide_slab", (2000, 500, 700), (1000, 0, 400),
     BoxType("E", (381, 229, 203), 2), 2),
    ("double_stack", (800, 230, 1000), (210, 0, 210),
     BoxType("E", (381, 229, 203), 4), 4),
    ("beam_and_post", (940, 335, 900), (170, 0, 170),
     BoxType("B", (457, 330, 165), 4), 3),
    ("snug_corner", (540, 460, 760), (220, 0, 220),
     BoxType("D", (533, 457, 216), 4), 2),
)

_PACK_REGIONS: dict = {}
_PACK_RESULTS: dict = {}


def _l_trunk(shell, cavity_lo):
    corners = [(x, y, z)
               for x in (cavity_lo[0], shell[0])
               for y in (cavity_lo[1], shell[1])
               for z in (cavity_lo[2], shell[2])]
    return _convex_cuboid_trunk(shell, cavities=[corners])


def _pack_regions(name: str) -> dict:
    if name not in _PACK_REGIONS:
        shell, cavity_lo, box, _ = _pack_params(name)
        trunk = _l_trunk(shell, cavity_lo)
        _PACK_REGIONS[name] = _region_map(trunk, box, samples=10000, seed=4242)
    return _PACK_REGIONS[name]


def _pack_params(name: str):
    for inst, shell, cavity_lo, box, expected in _PACK_INSTANCES:
        if inst == name:
            return shell, cavity_lo, box, expected
    raise KeyError(name)  # pragma: no cover


def _pack_result(name: str, prune: bool):
    key = (name, prune)
    if key not in _PACK_RESULTS:
        _, _, box, _ = _pack_params(name)
        _PACK_RESULTS[key] = enumerate_patterns(
            _pack_regions(name), [box],
            config=SearchConfig(prune_enabled=prune))
    return _PACK_RESULTS[key]


def _lattice_positions(shell, cavity_lo, box, step=10):
    """All (low corner, extents) lattice placements inside the L-solid."""
    extents = sorted({oriented_extents(box.dims_mm, o)
                      for o in distinct_orientations(box)})
    out = []
    for ext in extents:
        for x in range(0, shell[0] - ext[0] + 1, step):
            for y in range(0, shell[1] - ext[1] + 1, step):
                for z in range(0, shell[2] - ext[2] + 1, step):
                    pos = (x, y, z)
                    hits_cavity = all(pos[k] < shell[k]
                                      and pos[k] + ext[k] > cavity_lo[k]
                                      for k in range(3))
                    if not hits_cavity:
                        out.append((pos, ext))
    return out


def _overlaps(a, b):
    (pa, ea), (pb, eb) = a, b
    return all(pa[k] < pb[k] + eb[k] and pb[k] < pa[k] + ea[k]
               for k in range(3))


def _oracle_count(positions, cap: int) -> int:
    """Best number of pairwise-disjoint placements, exhaustive up to cap."""
    best = 0
    n = len(positions)

    def dfs(start: int, placed: list) -> bool:
        nonlocal best
        best = max(best, len(placed))
        if best >= cap:
            return True
        for i in range(start, n):
            cand = positions[i]
            if any(_overlaps(cand, p) for p in placed):
                continue
            placed.append(cand)
            if dfs(i + 1, placed):
                return True
            placed.pop()
        return False

    dfs(0, [])
    return best


def test_criterion_07_packing_counts_match_lattice_oracle():
    t0 = time.monotonic()
    for name, shell, cavity_lo, box, expected in _PACK_INSTANCES:
        result = _pack_result(name, prune=True)
        assert len(result.placements) == expected, name
        assert validate_packing(result.placements, _pack_regions(name))["valid"], name
        positions = _lattice_positions(shell, cavity_lo, box)
        oracle = _oracle_count(positions, cap=box.max_count)
        assert oracle == expected, name
        assert result.volume_mm3 == expected * box.volume_mm3(), name
    _within_budget(t0, 1800.0, "criterion 7")


def test_criterion_08_prune_does_not_change_best_volume():
    for name, _, _, _, _ in _PACK_INSTANCES:
        with_prune = _pack_result(name, prune=True)
        without = _pack_result(name, prune=False)
        assert with_prune.volume_mm3 == without.volume_mm3, name
        assert len(with_prune.placements) == len(without.placements), name
        assert not with_prune.timed_out and not without.timed_out, name


# ---------------------------------------------------------------------------
# criterion 9: branching arity, instrumented at the branch call itself


def test_criterion_09_branch_arity(monkeypatch):
    real_branch = search_mod.branch
    seen = {"bb": 0, "bo": 0}

    def checked_branch(pattern, bb_conflicts, bo_conflicts):
        children, kind = real_branch(pattern, bb_conflicts, bo_conflicts)
        if kind == "bb":
            assert len(children) == 6
            seen["bb"] += 1
        elif kind == "bo":
            obstacle = bo_conflicts[0][2]
            assert len(children) == len(obstacle.halfspaces)
            seen["bo"] += 1
        else:
            assert kind is None and children == []
        return children, kind

    monkeypatch.setattr(search_mod, "branch", checked_branch)

    total_nodes = 0
    # Two cavity-free cubes sized so many equal boxes collide repeatedly
    # (box-box churn), plus one L-trunk rerun for box-obstacle branching.
    churn = [
        (_convex_cuboid_trunk((200, 200, 200)), BoxType("J", (88, 88, 88), 5)),
        (_convex_cuboid_trunk((210, 210, 210)), BoxType("K", (95, 87, 80), 3)),
    ]
    for trunk, box in churn:
        regions = _region_map(trunk, box, samples=2000, seed=5)
        result = enumerate_patterns(regions, [box],
                                    config=SearchConfig(prune_enabled=False))
        assert result.stats.arity_violations == 0
        total_nodes += result.stats.nodes

    shell, cavity_lo, box, expected = _pack_params("double_stack")
    result = enumerate_patterns(_pack_regions("double_stack"), [box])
    assert result.stats.arity_violations == 0
    assert len(result.placements) == expected
    total_nodes += result.stats.nodes

    assert seen["bb"] > 0 and seen["bo"] > 0
    assert total_nodes >= 10000


# ---------------------------------------------------------------------------
# criterion 10: report formatting against golden files (volumes in dm^3 and
# percentages both rendered to one decimal)

_GOLDEN_REGION_ROWS = (
    {"box": "P", "orientation": "zyx", "volume_dm3": 52.327, "facets_k": 0.118},
    {"box": "P", "orientation": "zxy", "volume_dm3": 48.06, "facets_k": 0.24},
    {"box": "P", "orientation": "xyz", "volume_dm3": 7.94, "facets_k": 2.349},
    {"box": "Q", "orientation": "zyx", "volume_dm3": 110.26, "facets_k": 12.04},
    {"box": "Q", "orientation": "yxz", "volume_dm3": 0.72, "facets_k": 0.049},
)

_GOLDEN_SIMPLIFY_ROWS = (
    {"box": "P", "orientation": "zyx", "volume_ratio_pct": 99.94,
     "facet_ratio_pct": 62.5, "facets_before": 48, "facets_after": 30,
     "merges": 2, "drops": 3},
    {"box": "P", "orientation": "zxy", "volume_ratio_pct": 97.26,
     "facet_ratio_pct": 100 * 10 / 24, "facets_before": 24,
     "facets_after": 10, "merges": 1, "drops": 4},
    {"box": "Q", "orientation": "xyz", "volume_ratio_pct": 86.08,
     "facet_ratio_pct": 100.0, "facets_before": 6, "facets_after": 6,
     "merges": 0, "drops": 0},
)


def test_criterion_10_report_golden_files():
    produced = {
        "golden_region_report.txt":
            format_region_report(list(_GOLDEN_REGION_ROWS), ORIENTATIONS),
        "golden_region_report.csv":
            region_report_csv(list(_GOLDEN_REGION_ROWS)),
        "golden_simplify_report.txt":
            format_simplify_report(list(_GOLDEN_SIMPLIFY_ROWS)),
        "golden_simplify_report.csv":
            simplify_report_csv(list(_GOLDEN_SIMPLIFY_ROWS)),
    }
    for filename, text in produced.items():
        golden = (DATA_DIR / filename).read_text()
        assert text == golden, filename
