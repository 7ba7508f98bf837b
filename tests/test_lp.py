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
import re

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
                          Pattern, UnknownRegion, add_step, build_lp,
                          extend_lp, maximize_direction, solve)

F = fractions.Fraction


def _lp(rows, rhs, obj, bound=1e6):
    """The LP over the given rows plus rows -bound <= x_k <= bound, so that
    the rows imply the LP's bounds."""
    n = len(obj)
    A = np.vstack([np.array(rows, dtype=float).reshape(-1, n), np.eye(n),
                   -np.eye(n)])
    b = np.concatenate([np.array(rhs, dtype=float), np.full(2 * n, bound)])
    return LinearProgram(n, A, b, np.array(obj, dtype=float),
                         np.full(n, -bound), np.full(n, bound))


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


def _interval_lp(lower, upper, cost, rhs=(3.0, -2.0), extra=()):
    """One variable, rows x <= rhs[0] and -x <= rhs[1], then ``extra``
    rows x <= r."""
    rows = [[1.0], [-1.0]] + [[1.0]] * len(extra)
    return LinearProgram(1, np.array(rows), np.array(rhs + tuple(extra)),
                         np.array([cost]), np.array([lower]),
                         np.array([upper]))


def _tableau_assignment(outcome):
    """The assignment a feasible outcome's final tableau holds: each
    variable at its origin, moved by its basic value."""
    tableau = outcome.tableau
    m, n = len(tableau.basis), len(tableau.cost)
    shifted = np.zeros(n + m)
    shifted[tableau.basis] = tableau.T[:m, -1]
    return tableau.origin + tableau.sign * shifted[:n]


def test_pivot_count_dual_simplex():
    # 2 <= x <= 3: x starts at the bound its cost prefers (lower for a cost
    # <= 0, upper for > 0), which is optimal, so no pivot
    assert solve(_interval_lp(2.0, 3.0, 0.0)).pivots == 0
    assert solve(_interval_lp(2.0, 3.0, 1.0)).pivots == 0
    # from looser bounds one dual pivot moves x onto the violated row
    assert solve(_interval_lp(-10.0, 10.0, 0.0)).pivots == 1
    assert solve(_interval_lp(-10.0, 10.0, 1.0)).pivots == 1
    # an infeasible outcome reports its pivots too: x moves to 2, and then
    # row x <= 1 has no negative entry left
    out = solve(_interval_lp(-10.0, 10.0, 0.0, rhs=(1.0, -2.0)))
    assert not out.feasible and out.pivots == 1
    # a warm start counts only the pivots after the parent's: none when the
    # new row holds at the parent's answer, one when it cuts it off
    base = _interval_lp(-10.0, 10.0, 1.0)
    parent = solve(base)
    same = solve(extend_lp(base, 2, [[1.0]], [4.0]), parent)
    assert same.pivots == 0 and same.assignment[0] == 3.0
    child = solve(extend_lp(base, 2, [[1.0]], [2.5]), parent)
    assert child.pivots == 1 and child.assignment[0] == 2.5
    # each outcome's final tableau holds its answer
    for outcome in (parent, same, child):
        assert _tableau_assignment(outcome).tobytes() \
            == outcome.assignment.tobytes()
    # minimize x + y over x + y >= 0 and x - 3y >= 3 in [-4, 4]^2, then
    # y >= 0: the first pivot on the new row leaves x - 3y >= 3 violated, so
    # the child pivots again, to (3, 0)
    base = _lp([[-1.0, -1.0], [-1.0, 3.0]], [0.0, -3.0], [-1.0, -1.0],
               bound=4.0)
    parent = solve(base)
    lp = extend_lp(base, 4, [[0.0, -1.0]], [0.0])
    child = solve(lp, parent)
    cold = solve(LinearProgram(2, lp.A, lp.b, lp.objective, lp.lower,
                               lp.upper))
    assert child.pivots == 2
    assert child.assignment.tolist() == cold.assignment.tolist() == [3.0, 0.0]
    assert _tableau_assignment(child).tobytes() == child.assignment.tobytes()


def test_warm_start_needs_an_extension_of_the_parent():
    base = _interval_lp(-10.0, 10.0, 1.0)
    parent = solve(base)
    with pytest.raises(ValueError):
        solve(_interval_lp(-10.0, 10.0, 1.0, rhs=(3.0, -1.0)), parent)
    with pytest.raises(ValueError):
        solve(_interval_lp(-10.0, 10.0, 0.0, extra=(2.5,)), parent)
    # the same rows, but assembled whole or extended from another LP
    with pytest.raises(ValueError):
        solve(_interval_lp(-10.0, 10.0, 1.0, extra=(2.5,)), parent)
    with pytest.raises(ValueError):
        solve(extend_lp(_interval_lp(-10.0, 10.0, 1.0), 2, [[1.0]], [2.5]),
              parent)
    # a grandchild extends the child's LP, not the parent's
    child = extend_lp(base, 2, [[1.0]], [2.5])
    with pytest.raises(ValueError):
        solve(extend_lp(child, 3, [[-1.0]], [0.0]), parent)
    assert solve(extend_lp(child, 3, [[-1.0]], [0.0]),
                 solve(child, parent)).assignment[0] == 2.5
    # new variables go before the last one, which must not be a zero-cost
    # variable: its tie-break weight would move with its index
    with pytest.raises(ValueError):
        extend_lp(_interval_lp(-10.0, 10.0, 0.0), 0, np.zeros((0, 2)), [],
                  [0.0], [1.0])
    # an infeasible outcome has no tableau to start from
    with pytest.raises(ValueError):
        solve(extend_lp(base, 2, [[1.0]], [2.5]),
              solve(_interval_lp(-10.0, 10.0, 0.0, rhs=(1.0, -2.0))))


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
    assert abs(out.value) < 1e-6
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
    # rows in build_lp's documented order: hull rows per box, the second
    # box's tie to the first (the same box and orientation), box-box rows,
    # box-obstacle rows, slack cap, slack floor
    s = 6
    k = len(region.hull.halfspaces)
    tie, bb, bo, cap, floor = 2 * k, 2 * k + 1, 2 * k + 2, 2 * k + 3, 2 * k + 4
    assert lp.A.shape == (2 * k + 5, 7)
    for i in range(2 * k):
        box_cols = slice(3 * (i // k), 3 * (i // k) + 3)
        assert lp.A[i, s] == 0.0
        assert np.linalg.norm(lp.A[i, box_cols]) == pytest.approx(1.0)
        assert np.count_nonzero(lp.A[i]) == np.count_nonzero(lp.A[i, box_cols])
    # x_0 - x_1 <= 0, with no slack
    assert lp.A[tie].tolist() == [1.0, 0, 0, -1.0, 0, 0, 0]
    assert lp.b[tie] == 0.0
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
    # a pair constrained twice, in either order: box-box pairs are
    # unordered, box-obstacle pairs keyed by (box, obstacle id)
    two = [(box, "zyx"), (box, "zyx")]
    for again in ((0, 1, 2, -1), (1, 0, 0, 1), (1, 0, 2, -1)):
        with pytest.raises(InvalidConstraintReference,
                           match=re.escape("duplicate box-box pair (0, 1)")):
            build_lp(two, regions, bb_constraints=[(0, 1, 0, 1), again])
    for again in ((0, "o0", 0), (0, "o0", 3)):
        with pytest.raises(InvalidConstraintReference, match=re.escape(
                "duplicate box-obstacle pair (0, 'o0')")):
            build_lp([(box, "zyx")], {("A", "zyx"): region},
                     bo_constraints=[(0, "o0", 0), again])
    pattern = Pattern().with_box(regions, box, "zyx").with_box(
        regions, box, "zyx").with_bb((1, 0, 2, -1))
    assert pattern.bb_pairs == {(0, 1)} and pattern.bo_pairs == frozenset()


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
    out = maximize_direction([1.0, 0.0, 0.0], [], cube)
    assert out.feasible and out.value == pytest.approx(10.0, abs=1e-8)
    out = maximize_direction([1.0, 1.0, 1.0], [Halfspace((1, 0, 0), 4)],
                             cube)
    assert out.value == pytest.approx(24.0, abs=1e-8)


def test_degenerate_ties_do_not_cycle():
    # many redundant copies of the same facet force degenerate pivots
    rows = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
            [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, 1.0]]
    rhs = [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0]
    out = solve(_lp(rows, rhs, [1.0, 1.0]))
    assert out.feasible and out.value == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# canonical solver outcomes over seeded build_lp and 3-variable LPs


def _sphere_hull(rng, points, radius, id):
    pts = set()
    while len(pts) < points:
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * radius
        pts.add(tuple(int(round(t)) for t in v))
    return convex_hull(sorted(pts), id=id)


def _hulls(rng):
    """The four test hulls: two axis-aligned ("box", "halves", with
    half-millimetre corners) and two slanted point-set hulls."""
    return [axis_aligned_box((0, 0, 0), (400, 300, 250), id="box"),
            axis_aligned_box((F(1, 2), -40, 7), (F(521, 2), 180, 230),
                             id="halves"),
            _sphere_hull(rng, 10, 260, "sphere10"),
            _sphere_hull(rng, 30, 300, "sphere30")]


_OBSTACLES = [axis_aligned_box((100, 50, 40), (180, 140, 120), id="o0"),
              axis_aligned_box((-60, -30, -20), (40, 60, 30), id="o1")]


def _add_box(rng, hull, placements, regions):
    box = BoxType(f"B{len(placements)}",
                  tuple(int(v) for v in rng.integers(30, 200, size=3)), 1)
    placements.append((box, "xyz"))
    regions[(box.id, "xyz")] = Region(box.id, "xyz", hull, list(_OBSTACLES))


def _pattern(rng, hull, max_boxes=5):
    """A seeded pattern over ``hull``: (placements, regions, bb, bo) for
    build_lp, with random box-box orders and box-obstacle facets."""
    placements, regions = [], {}
    for _ in range(int(rng.integers(2, max_boxes + 1))):
        _add_box(rng, hull, placements, regions)
    n_boxes = len(placements)
    pairs = [(i, j) for i in range(n_boxes) for j in range(i + 1, n_boxes)]
    rng.shuffle(pairs)
    bb = [(i, j, int(rng.integers(3)), int(rng.choice([-1, 1])))
          for (i, j) in pairs[:int(rng.integers(0, len(pairs) + 1))]]
    bo = [(i, _OBSTACLES[int(rng.integers(2))].id, int(rng.integers(6)))
          for i in range(n_boxes) if rng.random() < 0.3]
    bo = list({(i, o): (i, o, f) for (i, o, f) in bo}.values())
    return placements, regions, bb, bo


# SHA-256 over the (feasible, assignment, value) of every LP below, the
# floats rounded to 2^-20 mm.  It pins the canonical answers, which do not
# depend on the pivot path, and not the last bits a path leaves on the
# slanted hulls' rows.
_REFERENCE_OUTCOME_DIGEST = (
    "73f466622d9d0304aec9247d7c3ca6a4201b8ebd9cc6dfd6eafd78def7ba08df")


def _hash_outcome(digest, solve_call):
    try:
        out = solve_call()
    except NumericalFailure:
        digest.update(b"numerical-failure")
        return "failure"
    digest.update(b"F" if out.feasible else b"I")
    if out.feasible:
        values = np.append(out.assignment, out.value)
        digest.update(np.rint(values * 2 ** 20).astype(np.int64).tobytes())
    return "feasible" if out.feasible else "infeasible"


def test_solver_outcomes_match_reference_digest():
    rng = np.random.default_rng(20261018)
    hulls = _hulls(rng)
    digest = hashlib.sha256()
    seen = collections.Counter()
    for trial in range(300):
        lp = build_lp(*_pattern(rng, hulls[trial % len(hulls)]))
        seen[_hash_outcome(digest, lambda: solve(lp))] += 1
    for trial in range(200):
        hull = hulls[trial % len(hulls)]
        direction = rng.normal(size=3).tolist()
        extra = [(rng.integers(-5, 6, size=3).tolist(),
                  int(rng.integers(-300, 300)))
                 for _ in range(int(rng.integers(0, 4)))]
        extra = [Halfspace(c, r) for (c, r) in extra if any(c)]
        seen[_hash_outcome(
            digest, lambda: maximize_direction(direction, extra, hull))] += 1
    assert seen["feasible"] >= 300 and seen["infeasible"] >= 80
    assert digest.hexdigest() == _REFERENCE_OUTCOME_DIGEST


def _child(rng, hull, placements, regions, bb, bo):
    """One child of the pattern as the search makes them: one more box-box
    order, one more box-obstacle facet, or one more box."""
    placements, regions, bb, bo = (list(placements), dict(regions), list(bb),
                                   list(bo))
    n = len(placements)
    free = [(i, j) for i in range(n) for j in range(i + 1, n)
            if not any({i, j} == {a, b} for (a, b, _, _) in bb)]
    kind = int(rng.integers(3))
    if kind == 0 and free:
        i, j = free[int(rng.integers(len(free)))]
        bb.append((i, j, int(rng.integers(3)), int(rng.choice([-1, 1]))))
    elif kind == 1:
        i = int(rng.integers(n))
        obstacle = _OBSTACLES[int(rng.integers(2))].id
        if all((a, o) != (i, obstacle) for (a, o, _) in bo):
            bo.append((i, obstacle, int(rng.integers(6))))
    else:
        _add_box(rng, hull, placements, regions)
    return placements, regions, bb, bo


def _extended(lp, pattern, child):
    """The child pattern's LP made from the parent's LP by its one step,
    checked by the ``Pattern`` step, or None when the child adds
    nothing."""
    placements, _, bb, bo = pattern
    child_placements, child_regions, child_bb, child_bo = child
    if len(child_placements) > len(placements):
        step = lp.pattern.with_box(child_regions, *child_placements[-1])
    elif len(child_bb) > len(bb):
        step = lp.pattern.with_bb(child_bb[-1])
    elif len(child_bo) > len(bo):
        step = lp.pattern.with_bo(child_bo[-1])
    else:
        return None
    child_lp = add_step(lp, step)
    assert child_lp.pattern is step
    return child_lp


def _same_lp(a, b):
    """Bit for bit the same rows, bounds and objective."""
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.A, b.A), (a.b, b.b), (a.lower, b.lower),
                            (a.upper, b.upper), (a.objective, b.objective)))


def _assert_same_answer(hull, warm, cold):
    """Bit for bit on the dyadic hulls, within 1e-9 mm on the spheres."""
    if hull.id in ("box", "halves"):
        assert np.array_equal(warm.assignment, cold.assignment)
        assert warm.value == cold.value
    else:
        assert np.allclose(warm.assignment, cold.assignment, rtol=0.0,
                           atol=1e-9)
        assert warm.value == pytest.approx(cold.value, abs=1e-9)


def test_warm_start_gives_the_cold_answer():
    rng = np.random.default_rng(20261019)
    hulls = _hulls(rng)
    compared = collections.Counter()
    chained = collections.Counter()
    for trial in range(240):
        hull = hulls[trial % len(hulls)]
        pattern = _pattern(rng, hull, max_boxes=4)
        parent = solve(build_lp(*pattern))
        if not parent.feasible:
            continue
        for _ in range(3):
            child = _child(rng, hull, *pattern)
            lp = _extended(parent.lp, pattern, child)
            if lp is None:
                continue
            # one step from the parent's LP is the child's LP assembled whole
            cold_lp = build_lp(*child)
            assert _same_lp(lp, cold_lp)
            warm, cold = solve(lp, parent), solve(cold_lp)
            assert warm.feasible == cold.feasible
            if not cold.feasible:
                continue
            compared[hull.id] += 1
            _assert_same_answer(hull, warm, cold)
        # a chain of up to four steps, each warm-started from the last
        # outcome; a step from a warm outcome counts as chained
        outcome = parent
        for _ in range(4):
            child = _child(rng, hull, *pattern)
            lp = _extended(outcome.lp, pattern, child)
            if lp is None:
                continue
            warm, cold = solve(lp, outcome), solve(build_lp(*child))
            chained[hull.id] += outcome is not parent
            assert warm.feasible == cold.feasible
            if not cold.feasible:
                break
            _assert_same_answer(hull, warm, cold)
            pattern, outcome = child, warm
        # the last outcome's tableau holds its answer
        assert _tableau_assignment(outcome).tobytes() \
            == outcome.assignment.tobytes()
    assert min(compared.values()) >= 40, compared
    assert min(chained.values()) >= 20, chained


def _least_centers(placements, hull, bb, bo, slack):
    """The least centers (componentwise) of an axis-aligned pattern at the
    given slack, in exact arithmetic.  Each center starts at the hull's
    lower corner, a box-obstacle facet with a positive normal raises one
    coordinate's lower bound, and the box-box orders are difference
    constraints, settled by longest paths (n rounds of relaxation)."""
    lo, _ = hull.bbox()
    centers = [list(lo) for _ in placements]
    obstacles = {o.id: o for o in _OBSTACLES}
    for (i, obstacle_id, facet) in bo:
        h = obstacles[obstacle_id].halfspaces[facet]
        for axis, a in enumerate((h.a, h.b, h.c)):
            # a unit axis normal: outside the facet is a x >= d + slack
            if a > 0:
                centers[i][axis] = max(centers[i][axis], F(h.d) / a + slack)
    extents = [box.dims_mm for box, _ in placements]
    for _ in placements:
        for (i, j, axis, order) in bb:
            first, second = (i, j) if order == 1 else (j, i)
            gap = F(extents[first][axis] + extents[second][axis], 2)
            centers[second][axis] = max(centers[second][axis],
                                        centers[first][axis] + gap + slack)
    return [float(v) for c in centers for v in c]


def test_axis_aligned_answer_is_the_least_element():
    rng = np.random.default_rng(20261020)
    hulls = _hulls(rng)[:2]
    checked = 0
    for trial in range(200):
        hull = hulls[trial % 2]
        placements, regions, bb, bo = _pattern(rng, hull)
        out = solve(build_lp(placements, regions, bb, bo))
        if not out.feasible or out.value != DELTA_MM:
            continue
        least = _least_centers(placements, hull, bb, bo, F(DELTA_MM))
        assert out.assignment[:-1].tolist() == least
        checked += 1
    assert checked >= 60


def _exact_rows(placements, hull, bb, bo):
    """The pattern's rows in exact arithmetic at slack 0 (every separation
    row carries the slack on its left side, so a pattern is feasible for
    some slack in [0, DELTA_MM] exactly when it is at slack 0)."""
    nv = 3 * len(placements)
    rows = []

    def row(coeffs, rhs):
        full = [0] * nv
        for k, v in coeffs.items():
            full[k] = v
        rows.append((full, rhs))

    for i in range(len(placements)):
        for h in hull.halfspaces:
            row({3 * i: h.a, 3 * i + 1: h.b, 3 * i + 2: h.c}, h.d)
    extents = [box.dims_mm for box, _ in placements]
    for (i, j, axis, order) in bb:
        first, second = (i, j) if order == 1 else (j, i)
        row({3 * first + axis: 1, 3 * second + axis: -1},
            -F(extents[first][axis] + extents[second][axis], 2))
    obstacles = {o.id: o for o in _OBSTACLES}
    for (i, obstacle_id, facet) in bo:
        h = obstacles[obstacle_id].halfspaces[facet]
        row({3 * i: -h.a, 3 * i + 1: -h.b, 3 * i + 2: -h.c}, -h.d)
    return rows, nv


def test_infeasible_verdicts_agree_with_exact_elimination():
    # Fourier-Motzkin's rows multiply with every elimination, so the slanted
    # hull takes only two boxes, and sphere30 (56 facets) none
    rng = np.random.default_rng(20261021)
    hulls = _hulls(rng)[:3]
    infeasible = collections.Counter()
    for trial in range(450):
        hull = hulls[trial % 3]
        pattern = _pattern(rng, hull, max_boxes=2 if trial % 3 == 2 else 4)
        if not solve(build_lp(*pattern)).feasible:
            placements, _, bb, bo = pattern
            assert not fm_feasible(*_exact_rows(placements, hull, bb, bo))
            infeasible[hull.id] += 1
    assert min(infeasible.values()) >= 5, infeasible
