"""Tests for the placement LP builder and the embedded simplex solver.

Expected values stated up front:

* one variable, rows x <= 1 and -x <= -2: infeasible (x >= 2 and x <= 1).
* Chebyshev-style LP on the unit cube: variables x, y, z, s with rows
  +-axis + s <= 1 or 0 and objective s -> optimum s = 0.5 at the center
  (0.5, 0.5, 0.5).
* two boxes of extents 229 along x inside a hull whose center interval is
  x in [114.5, 343.5] (y, z pinned): ordering row c0.x - c1.x + s <= -229
  is feasible exactly at c0.x = 114.5, c1.x = 343.5 with slack 0; shrinking
  the interval to [114.5, 343.4] makes it infeasible.
* random systems with integer data: whenever the float solver reports
  infeasible, exact Fourier-Motzkin elimination must agree.
"""

import collections
import fractions
import hashlib
import math

import numpy as np
import pytest

from trunkpack.catalog import BoxType, default_catalog
from trunkpack.freespace import (Region, compute_feasible_region,
                                 describe_region, parse_convex_json,
                                 raw_feasible_region)
from trunkpack.geometry import (Halfspace, axis_aligned_box, convex_hull,
                                fm_feasible)
from trunkpack.lp import (DELTA_MM, FEAS_TOL, InvalidConstraintReference,
                          LinearProgram, LpOutcome, NumericalFailure,
                          UnknownRegion, build_lp, maximize_direction, solve)

F = fractions.Fraction


def _lp(rows, rhs, obj):
    return LinearProgram(len(obj), np.array(rows, dtype=float),
                         np.array(rhs, dtype=float), np.array(obj, dtype=float))


def test_one_var_contradiction_is_infeasible():
    out = solve(_lp([[1.0], [-1.0]], [1.0, -2.0], [0.0]))
    assert not out.feasible


def test_unit_cube_chebyshev_slack_half():
    rows = []
    rhs = []
    for axis in range(3):
        hi = [0.0, 0.0, 0.0, 1.0]
        hi[axis] = 1.0
        lo = [0.0, 0.0, 0.0, 1.0]
        lo[axis] = -1.0
        rows += [hi, lo]
        rhs += [1.0, 0.0]
    out = solve(_lp(rows, rhs, [0.0, 0.0, 0.0, 1.0]))
    assert out.feasible
    assert out.value == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(out.assignment[:3], [0.5, 0.5, 0.5], atol=1e-9)


def test_pivot_count_covers_both_phases():
    # 2 <= x <= 3: no pivot when the slack basis is already optimal; one
    # phase-1 pivot makes x basic at 2, maximizing x takes one more to 3
    assert solve(_lp([[1.0], [-1.0]], [1.0, 0.0], [0.0])).pivots == 0
    assert solve(_lp([[1.0], [-1.0]], [3.0, -2.0], [0.0])).pivots == 1
    assert solve(_lp([[1.0], [-1.0]], [3.0, -2.0], [1.0])).pivots == 2
    # an infeasible outcome reports its phase-1 pivots too
    assert solve(_lp([[1.0], [-1.0]], [1.0, -2.0], [0.0])).pivots == 1


def _slab_region(x_lo, x_hi):
    """Feasible region stand-in whose hull pins y and z and bounds x."""
    hull = axis_aligned_box((F(x_lo), F("241.4"), F("304.9")),
                            (F(x_hi), F("241.6"), F("305.1")), id="hull")

    class Region:
        pass

    r = Region()
    r.hull = hull
    r.obstacles = []
    r.box_id = "A"
    r.orientation = "zyx"
    return r


def _box_a():
    return next(b for b in default_catalog() if b.id == "A")


def test_two_box_ordering_exact_fit_slack_zero():
    box = _box_a()
    regions = {("A", "zyx"): _slab_region("114.5", "343.5")}
    lp = build_lp([(box, "zyx"), (box, "zyx")], regions,
                  bb_constraints=[(0, 1, 0, 1)])
    out = solve(lp)
    assert out.feasible
    assert out.slack == 0.0
    assert out.assignment[0] == pytest.approx(114.5, abs=1e-6)
    assert out.assignment[3] == pytest.approx(343.5, abs=1e-6)


def test_two_box_ordering_narrower_interval_infeasible():
    box = _box_a()
    regions = {("A", "zyx"): _slab_region("114.5", "343.4")}
    lp = build_lp([(box, "zyx"), (box, "zyx")], regions,
                  bb_constraints=[(0, 1, 0, 1)])
    assert not solve(lp).feasible


def test_exact_fit_shell_via_freespace_round_trip():
    trunk = parse_convex_json({
        "shell": {"halfspaces": [
            {"n": [1, 0, 0], "d": 458}, {"n": [-1, 0, 0], "d": 0},
            {"n": [0, 1, 0], "d": 483}, {"n": [0, -1, 0], "d": 0},
            {"n": [0, 0, 1], "d": 610}, {"n": [0, 0, -1], "d": 0}]},
        "cavities": []})
    box = _box_a()
    region = describe_region(raw_feasible_region(trunk, box, "zyx"),
                             samples=2000, seed=7)
    assert region.fattened
    regions = {("A", "zyx"): region}
    lp = build_lp([(box, "zyx"), (box, "zyx")], regions,
                  bb_constraints=[(0, 1, 0, 1)])
    out = solve(lp)
    assert out.feasible
    assert out.assignment[0] == pytest.approx(114.5, abs=2e-3)
    assert out.assignment[3] == pytest.approx(343.5, abs=2e-3)


def test_build_lp_row_structure():
    box = _box_a()
    region = _slab_region("114.5", "343.5")
    region.obstacles = [axis_aligned_box((150, 200, 280), (200, 280, 330),
                                         id="o0")]
    regions = {("A", "zyx"): region}
    lp = build_lp([(box, "zyx"), (box, "zyx")], regions,
                  bb_constraints=[(0, 1, 0, 1)],
                  bo_constraints=[(1, "o0", 0)])
    # rows in build_lp's documented order: hull rows per box, box-box rows,
    # box-obstacle rows, slack cap, slack floor
    s = 6
    k = len(region.hull.halfspaces)
    bb, bo, cap, floor = 2 * k, 2 * k + 1, 2 * k + 2, 2 * k + 3
    assert lp.A.shape == (2 * k + 4, 7)
    for i in range(2 * k):
        box_cols = slice(3 * (i // k), 3 * (i // k) + 3)
        assert lp.A[i, s] == 0.0
        assert np.linalg.norm(lp.A[i, box_cols]) == pytest.approx(1.0)
        assert np.count_nonzero(lp.A[i]) == np.count_nonzero(lp.A[i, box_cols])
    assert lp.A[bb, s] == lp.A[bo, s] == 1.0
    assert lp.A[cap, s] == 1.0 and lp.b[cap] == DELTA_MM
    assert lp.A[floor, s] == -1.0 and lp.b[floor] == 0.0
    assert lp.A[bb, 0] == 1.0 and lp.A[bb, 3] == -1.0
    assert lp.b[bb] == pytest.approx(-229.0)
    facet = region.obstacles[0].halfspaces[0]
    norm = math.sqrt(facet.a ** 2 + facet.b ** 2 + facet.c ** 2)
    assert lp.b[bo] == pytest.approx(-float(facet.d) / norm)
    assert np.allclose(lp.A[bo, 3:6],
                       [-facet.a / norm, -facet.b / norm, -facet.c / norm])


def test_build_lp_reference_validation():
    box = _box_a()
    regions = {("A", "zyx"): _slab_region("114.5", "343.5")}
    with pytest.raises(UnknownRegion):
        build_lp([(box, "xyz")], regions)
    with pytest.raises(InvalidConstraintReference):
        build_lp([(box, "zyx")], regions, bb_constraints=[(0, 0, 0, 1)])
    with pytest.raises(InvalidConstraintReference):
        build_lp([(box, "zyx"), (box, "zyx")], regions,
                 bb_constraints=[(0, 1, 3, 1)])
    with pytest.raises(InvalidConstraintReference):
        build_lp([(box, "zyx")], regions, bo_constraints=[(0, "nope", 0)])
    region = _slab_region("114.5", "343.5")
    region.obstacles = [axis_aligned_box((150, 241, 304), (200, 242, 306),
                                         id="o0")]
    with pytest.raises(InvalidConstraintReference):
        build_lp([(box, "zyx")], {("A", "zyx"): region},
                 bo_constraints=[(0, "o0", 99)])


def test_random_infeasible_agrees_with_exact_elimination():
    rng = np.random.default_rng(20260825)
    checked_infeasible = 0
    for trial in range(200):
        nv = int(rng.integers(2, 5))
        nr = int(rng.integers(nv + 1, nv + 7))
        A = rng.integers(-5, 6, size=(nr, nv)).astype(float)
        A[np.all(A == 0, axis=1), 0] = 1.0
        b = rng.integers(-8, 9, size=nr).astype(float)
        out = solve(_lp(A.tolist(), b.tolist(), [0.0] * nv))
        rows = [(tuple(F(int(v)) for v in row), F(int(r)))
                for row, r in zip(A, b)]
        exact = fm_feasible(rows, nv)
        if not out.feasible:
            checked_infeasible += 1
            assert not exact, f"trial {trial}: solver infeasible, exact feasible"
        else:
            assert exact, f"trial {trial}: solver feasible, exact infeasible"
            resid = (A @ out.assignment - b).max()
            assert resid <= FEAS_TOL * max(1.0, float(np.abs(b).max()))
    assert checked_infeasible >= 20


def test_adding_rows_never_unlocks_feasibility():
    rng = np.random.default_rng(7)
    for _ in range(50):
        nv = 3
        A = rng.integers(-4, 5, size=(6, nv)).astype(float)
        A[np.all(A == 0, axis=1), 0] = 1.0
        b = rng.integers(-6, 7, size=6).astype(float)
        base = solve(_lp(A.tolist(), b.tolist(), [0.0] * nv))
        extra_A = np.vstack([A, rng.integers(-4, 5, size=(2, nv)).astype(float)])
        extra_A[np.all(extra_A == 0, axis=1), 0] = 1.0
        extra_b = np.concatenate([b, rng.integers(-6, 7, size=2).astype(float)])
        extended = solve(_lp(extra_A.tolist(), extra_b.tolist(), [0.0] * nv))
        if not base.feasible:
            assert not extended.feasible


def test_solver_is_deterministic():
    box = _box_a()
    regions = {("A", "zyx"): _slab_region("114.5", "400")}
    lp = build_lp([(box, "zyx"), (box, "zyx")], regions,
                  bb_constraints=[(0, 1, 0, 1)])
    first = solve(lp)
    second = solve(lp)
    assert first.feasible and second.feasible
    assert first.value == second.value
    assert np.array_equal(first.assignment, second.assignment)


def test_slack_capped_at_delta():
    box = _box_a()
    regions = {("A", "zyx"): _slab_region("0", "2000")}
    lp = build_lp([(box, "zyx"), (box, "zyx")], regions,
                  bb_constraints=[(0, 1, 0, 1)])
    out = solve(lp)
    assert out.feasible
    assert out.value == pytest.approx(DELTA_MM, abs=1e-9)


def test_maximize_direction_over_halfspaces():
    cube = axis_aligned_box((0, 0, 0), (10, 10, 10))
    out = maximize_direction([1.0, 0.0, 0.0], cube.halfspaces)
    assert out.feasible and out.value == pytest.approx(10.0, abs=1e-8)
    out = maximize_direction([1.0, 1.0, 1.0],
                             cube.halfspaces + [Halfspace((1, 0, 0), 4)])
    assert out.value == pytest.approx(24.0, abs=1e-8)


def test_degenerate_ties_do_not_cycle():
    # many redundant copies of the same facet force degenerate pivots
    rows = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
            [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, 1.0]]
    rhs = [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0]
    out = solve(_lp(rows, rhs, [1.0, 1.0]))
    assert out.feasible and out.value == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# bit-identical solver outcomes over seeded build_lp and 3-variable LPs

# SHA-256 over the (feasible, assignment bytes, value) of every LP below, as
# the row-by-row Bland simplex computes them.  The pivot sequence and every
# floating-point operation of the solver must reproduce it exactly.
_REFERENCE_OUTCOME_DIGEST = (
    "f1e20bb35463658c74a749d42cd0ae7ed173f75c4096dd4b43755abcb4033b56")


def _sphere_hull(rng, points, radius, id):
    pts = set()
    while len(pts) < points:
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * radius
        pts.add(tuple(int(round(t)) for t in v))
    return convex_hull(sorted(pts), id=id)


def _hash_outcome(digest, solve_call):
    try:
        out = solve_call()
    except NumericalFailure:
        digest.update(b"numerical-failure")
        return "failure"
    digest.update(b"F" if out.feasible else b"I")
    if out.feasible:
        digest.update(out.assignment.tobytes())
        digest.update(np.float64(out.value).tobytes())
    return "feasible" if out.feasible else "infeasible"


def test_solver_outcomes_match_reference_digest():
    rng = np.random.default_rng(20261018)
    hulls = [axis_aligned_box((0, 0, 0), (400, 300, 250), id="box"),
             axis_aligned_box((F(1, 2), -40, 7), (F(521, 2), 180, 230),
                              id="halves"),
             _sphere_hull(rng, 10, 260, "sphere10"),
             _sphere_hull(rng, 30, 300, "sphere30")]
    obstacles = [axis_aligned_box((100, 50, 40), (180, 140, 120), id="o0"),
                 axis_aligned_box((-60, -30, -20), (40, 60, 30), id="o1")]
    digest = hashlib.sha256()
    seen = collections.Counter()
    for trial in range(300):
        n_boxes = int(rng.integers(2, 6))
        hull = hulls[trial % len(hulls)]
        placements, regions = [], {}
        for k in range(n_boxes):
            box = BoxType(f"B{k}", tuple(int(v) for v in
                                         rng.integers(30, 200, size=3)), 1)
            placements.append((box, "xyz"))
            regions[(box.id, "xyz")] = Region(box.id, "xyz", hull,
                                              list(obstacles))
        pairs = [(i, j) for i in range(n_boxes) for j in range(i + 1, n_boxes)]
        rng.shuffle(pairs)
        bb = [(i, j, int(rng.integers(3)), int(rng.choice([-1, 1])))
              for (i, j) in pairs[:int(rng.integers(0, len(pairs) + 1))]]
        bo = [(i, obstacles[int(rng.integers(2))].id, int(rng.integers(6)))
              for i in range(n_boxes) if rng.random() < 0.3]
        bo = list({(i, o): (i, o, f) for (i, o, f) in bo}.values())
        lp = build_lp(placements, regions, bb, bo)
        seen[_hash_outcome(digest, lambda: solve(lp))] += 1
    for trial in range(200):
        hull = hulls[trial % len(hulls)]
        direction = rng.normal(size=3).tolist()
        extra = [(rng.integers(-5, 6, size=3).tolist(),
                  float(rng.integers(-300, 300)))
                 for _ in range(int(rng.integers(0, 4)))]
        extra = [(c, r) for (c, r) in extra if any(c)]
        # the rows maximize_direction builds, plus the extra raw rows
        rows = [[float(h.a), float(h.b), float(h.c)] for h in hull.halfspaces]
        rhs = [float(h.d) for h in hull.halfspaces]
        lp = _lp(rows + [c for c, _ in extra], rhs + [r for _, r in extra],
                 direction)
        seen[_hash_outcome(digest, lambda: solve(lp))] += 1
    assert seen["feasible"] >= 300 and seen["infeasible"] >= 80
    assert digest.hexdigest() == _REFERENCE_OUTCOME_DIGEST
