"""Linear programs for placement feasibility.

The only floating-point corner of the package.  `build_lp` assembles the
feasibility LP of a partial packing pattern: three center coordinates per
placed box plus one shared slack variable, maximized.  Hull-membership rows
carry no slack; every separation row (box-box order, box-obstacle facet)
includes the slack, so a positive optimum certifies a placement with that
many millimetres of clearance in every separating constraint.  The slack is
capped (DELTA_MM) to keep the LP bounded and non-negative so that a feasible
outcome always corresponds to a genuinely non-overlapping placement.  Every
LP also carries `lower` and `upper` bounds that its rows imply: for a
center, its region hull's bounding box rounded outward to floats; for the
slack, [0, DELTA_MM].

Each polytope's unit-norm float rows and float bounding box are computed
once and cached on the polytope, so a search node only copies them into its
LP.

**One canonical answer.**  `solve` maximizes the objective and, among its
maximizers, minimizes sum w_k x_k over the variables the objective leaves
at zero, by adding -EPS * w_k to their costs (EPS = 2^-20, w_k = 1 + k/1024,
both exact in binary).  For a pattern LP the solved objective is
s - EPS * sum w_k x_k over the centers: the answer is the least point of
the face where the slack is largest.  On axis-aligned rows (box-box order
rows are difference constraints, axis-aligned hull and obstacle rows bound
one coordinate) the centers at a fixed slack form a lattice, and its least
element is the unique minimizer of every positive weighting, so the answer
is exact and unique.  On slanted hulls it is unique for generic weights (a
tie needs w to be orthogonal to an edge of the optimal face).  EPS is small
enough that no center movement pays for lost slack: along an edge, a
millimetre of slack would have to move the weighted centers by about 2^20
mm.  A unique optimum is reached by every pivot path, so the answer does not
depend on where the solver starts.

**The solver** is a dense dual simplex (Chvátal, Linear Programming, 1983,
ch. 10) on one tableau of m + 1 rows: the constraint rows, whose last
column is x_b, and the reduced costs.  Each variable is measured from the
bound that is best for its cost, x = lower + x' when its cost is <= 0 and
x = upper - x' otherwise, with x' >= 0; the rows imply the other bound, so
it needs no row of its own.  Every reduced cost is then -|cost| <= 0, so
the all-slack basis is dual feasible from the start and one phase
suffices, with no artificial columns.  Bland's rule for the
dual: the infeasible row whose basic variable has the lowest index leaves;
the column with the smallest d_j / a_rj over a_rj < -_PIVOT_EPS enters,
ties to the lowest index.  A violated row with no negative entry proves
the LP infeasible.  A pivot divides the pivot row, then updates every other
row, x_b and the reduced costs included, with one dense rank-1 elimination.

Each row enters the tableau divided by the least power of two above its
norm: exact, so on dyadic data (axis-aligned hulls, half-millimetre extents)
every tableau entry stays exact and warm and cold solves give bit-identical
answers.  A residual check against the unit-norm rows after solving guards
against silent numerical drift (NumericalFailure, never misreported as
infeasible).

**Warm start.**  A search node's LP is its parent's plus one box-box or
box-obstacle row, or plus one box's three center columns and its hull
rows.  `solve(lp, parent)` copies the parent's final tableau into the
child's layout, gives each new column its own reduced cost (<= 0: it is
zero in every old row), expresses each new row in the parent's basis, and
continues the dual simplex from that dual feasible basis (Bertsimas &
Tsitsiklis, Introduction to Linear Optimization, 1997, sec. 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

FEAS_TOL = 1e-7
SLACK_ZERO = 1e-6
DELTA_MM = 1.0
_PIVOT_EPS = 1e-10
_PRIMAL_EPS = 1e-9
_TIE_EPS = 2.0 ** -20
_MAX_ITER = 20000


class LpError(Exception):
    pass


class NumericalFailure(LpError):
    """Solver gave up (cycling, iteration cap, or residual check failed).
    Callers must treat the node as unknown, never as infeasible."""


class UnknownRegion(LpError):
    pass


class InvalidConstraintReference(LpError):
    pass


@dataclass
class LinearProgram:
    """maximize objective . x  subject to  A x <= b.  The rows must imply
    lower <= x <= upper: the solver measures each variable from one of
    them and enters neither as a row."""

    num_vars: int
    A: np.ndarray
    b: np.ndarray
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class LpOutcome:
    """``value`` is objective . assignment, without the tie-break terms."""

    feasible: bool
    assignment: Optional[np.ndarray] = None
    value: float = 0.0
    pivots: int = 0
    # a feasible outcome's final tableau, which a child LP warm-starts from
    tableau: Optional["_Tableau"] = field(default=None, repr=False,
                                          compare=False)

    @property
    def slack(self) -> float:
        """Objective value read as the uniform separation slack; values
        below SLACK_ZERO count as zero."""
        return 0.0 if abs(self.value) < SLACK_ZERO else self.value


def _unit_rows(poly) -> Tuple[np.ndarray, np.ndarray]:
    """(normals, offsets) of the polytope's halfspaces as float arrays, each
    row divided by its normal's Euclidean norm; computed once per polytope
    and cached on it."""
    if poly._unit_rows is None:
        normals = np.array([[h.a, h.b, h.c] for h in poly.halfspaces],
                           dtype=float)
        norms = [float(np.linalg.norm(n)) for n in normals]
        poly._unit_rows = (
            normals / np.array(norms)[:, None],
            np.array([h.d / norm for h, norm in zip(poly.halfspaces, norms)],
                     dtype=float))
    return poly._unit_rows


def _outward(num: int, den: int, up: bool) -> float:
    """num / den (den > 0) rounded to a float: up when ``up``, else
    down."""
    value = num / den
    p, q = value.as_integer_ratio()
    if up and p * den < num * q:
        return math.nextafter(value, math.inf)
    if not up and p * den > num * q:
        return math.nextafter(value, -math.inf)
    return value


def _float_bbox(poly) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper) corners of the polytope's bounding box, rounded
    outward to floats; computed once per polytope and cached on it."""
    if poly._float_bbox is None:
        lo, hi, w = poly.int_bbox()
        poly._float_bbox = (np.array([_outward(v, w, False) for v in lo]),
                            np.array([_outward(v, w, True) for v in hi]))
    return poly._float_bbox


def build_lp(placements: Sequence, regions: dict,
             bb_constraints: Sequence[Tuple[int, int, int, int]] = (),
             bo_constraints: Sequence[Tuple[int, str, int]] = ()) -> LinearProgram:
    """Assemble the pattern-feasibility LP.

    placements: list of (BoxType, orientation) in pattern order.
    regions: {(box_id, orientation): Region}.
    bb_constraints: (i, j, axis, order); order +1 places box i before box j
    along the axis (center_i + half-extents + slack <= center_j), order -1
    the reverse.
    bo_constraints: (i, obstacle_id, facet_index) keeping box i's center
    outside that facet of that obstacle, with slack.

    Rows, in order: each box's hull rows (boxes in pattern order, facets in
    hull order), the box-box rows and the box-obstacle rows as given, then
    the slack cap and the slack floor.  Bounds: each center's region hull's
    bounding box, the slack's [0, DELTA_MM].
    """
    from trunkpack.catalog import oriented_extents

    n_boxes = len(placements)
    nv = 3 * n_boxes + 1
    s = 3 * n_boxes

    region_of = []
    extents = []
    for i, (box, orientation) in enumerate(placements):
        key = (box.id, orientation)
        if key not in regions:
            raise UnknownRegion(f"no feasible region for {key}")
        region_of.append(regions[key])
        extents.append(oriented_extents(box.dims_mm, orientation))

    hulls = [_unit_rows(region.hull) for region in region_of]
    m = (sum(len(d) for _, d in hulls) + len(bb_constraints)
         + len(bo_constraints) + 2)
    A = np.zeros((m, nv))
    b = np.empty(m)

    r = 0
    for i, (normals, offsets) in enumerate(hulls):
        k = len(offsets)
        A[r:r + k, 3 * i:3 * i + 3] = normals
        b[r:r + k] = offsets
        r += k

    seen_bb = set()
    for (i, j, axis, order) in bb_constraints:
        if not (0 <= i < n_boxes and 0 <= j < n_boxes) or i == j \
                or axis not in (0, 1, 2) or order not in (-1, 1):
            raise InvalidConstraintReference(f"bad box-box constraint "
                                             f"{(i, j, axis, order)}")
        lo, hi = (i, j) if order == 1 else (j, i)
        pair = (min(i, j), max(i, j))
        if pair in seen_bb:
            raise InvalidConstraintReference(f"duplicate box-box pair {pair}")
        seen_bb.add(pair)
        A[r, 3 * lo + axis] = 1.0
        A[r, 3 * hi + axis] = -1.0
        A[r, s] = 1.0
        b[r] = -(extents[lo][axis] + extents[hi][axis]) / 2.0
        r += 1

    seen_bo = set()
    for (i, obstacle_id, facet_idx) in bo_constraints:
        if not 0 <= i < n_boxes:
            raise InvalidConstraintReference(f"bad box index {i}")
        region = region_of[i]
        obstacle = next((o for o in region.obstacles if o.id == obstacle_id), None)
        if obstacle is None:
            raise InvalidConstraintReference(
                f"region {region.box_id}:{region.orientation} has no obstacle "
                f"{obstacle_id!r}")
        if not 0 <= facet_idx < len(obstacle.halfspaces):
            raise InvalidConstraintReference(
                f"obstacle {obstacle_id} has no facet {facet_idx}")
        if (i, obstacle_id) in seen_bo:
            raise InvalidConstraintReference(
                f"duplicate box-obstacle pair {(i, obstacle_id)}")
        seen_bo.add((i, obstacle_id))
        normals, offsets = _unit_rows(obstacle)
        A[r, 3 * i:3 * i + 3] = -normals[facet_idx]
        A[r, s] = 1.0
        b[r] = -offsets[facet_idx]
        r += 1

    A[r, s] = 1.0
    b[r] = DELTA_MM
    A[r + 1, s] = -1.0
    b[r + 1] = 0.0

    objective = np.zeros(nv)
    objective[s] = 1.0
    lower = np.empty(nv)
    upper = np.empty(nv)
    for i, region in enumerate(region_of):
        lower[3 * i:3 * i + 3], upper[3 * i:3 * i + 3] = _float_bbox(
            region.hull)
    lower[s], upper[s] = 0.0, DELTA_MM
    return LinearProgram(nv, A, b, objective, lower, upper)


# ---------------------------------------------------------------------------
# solver


class _Tableau:
    """A solved LP's final tableau: the rows (x_b last) and the reduced
    costs, the basic variable of each row, and the costs and origins the
    variables are measured with."""

    __slots__ = ("lp", "T", "basis", "cost", "origin")

    def __init__(self, lp, T, basis, cost, origin):
        self.lp = lp
        self.T = T
        self.basis = basis
        self.cost = cost
        self.origin = origin


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, col: int) -> None:
    row = T[r]
    row /= row[col]
    # the outer product is a K=1 matrix product: each entry is still one
    # rounded product, and it runs about twice as fast as a broadcast
    f = T[:, col, None].copy()
    f[r] = 0.0
    T -= np.dot(f, row[None])
    basis[r] = col


def _dual_simplex(T: np.ndarray, basis: np.ndarray):
    """Run the dual simplex from a dual feasible tableau, in place.  Returns
    (status, pivots), status in {'optimal', 'infeasible', 'stalled'}."""
    m = len(basis)
    x_b = T[:m, -1]
    reduced = T[m, :-1]
    for pivots in range(_MAX_ITER):
        rows = (x_b < -_PRIMAL_EPS).nonzero()[0]
        if not rows.size:
            return "optimal", pivots
        # Bland for the dual: the lowest-index basic variable leaves ...
        r = int(rows[basis[rows].argmin()])
        row = T[r, :-1]
        cols = (row < -_PIVOT_EPS).nonzero()[0]
        if not cols.size:
            return "infeasible", pivots
        # ... and the smallest ratio enters, ties to the lowest index (a
        # reduced cost is <= 0 up to rounding)
        ratios = np.minimum(reduced[cols], 0.0) / row[cols]
        _pivot(T, basis, r, int(cols[ratios.argmin()]))
    return "stalled", _MAX_ITER


def _cold_tableau(rows, rhs, sign, cost):
    """The all-slack tableau: dual feasible, since every reduced cost is
    -|cost|."""
    m, n = rows.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = rows * sign
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:m, -1] = rhs
    T[m, :n] = -np.abs(cost)
    return T, np.arange(n, n + m)


def _warm_tableau(parent: _Tableau, lp: LinearProgram, rows, rhs, sign, cost,
                  origin):
    """The parent's final tableau in the child's layout.

    The child must extend the parent: its variables are the parent's with
    any new ones inserted just before the last (build_lp's slack), and its
    rows, so mapped, are the parent's with one block of new rows inserted.
    Raises ValueError otherwise."""
    old = parent.lp
    m0, n0 = old.A.shape
    m, n = lp.A.shape
    k = m - m0
    if k < 0 or n < n0:
        raise ValueError("the LP does not extend its parent's")
    cols = np.arange(n0)
    cols[-1] = n - 1
    mapped = np.zeros((m0, n))
    mapped[:, cols] = old.A
    same = (lp.A[:m0] == mapped).all(axis=1) & (lp.b[:m0] == old.b)
    p = m0 if same.all() else int(same.argmin())
    if not ((lp.A[p + k:] == mapped[p:]).all()
            and (lp.b[p + k:] == old.b[p:]).all()
            and (cost[cols] == parent.cost).all()
            and (origin[cols] == parent.origin).all()):
        raise ValueError("the LP does not extend its parent's")

    # old rows (the cost row last) and variables in the child's numbering
    rows_to = np.arange(m0 + 1)
    rows_to[p:] += k
    vars_to = np.concatenate([cols, n + rows_to])
    T = np.zeros((m + 1, n + m + 1))
    T[rows_to[:, None], vars_to] = parent.T
    old_rows = rows_to[:-1]
    basis = np.empty(m, dtype=int)
    basis[old_rows] = vars_to[parent.basis]
    new_cols = np.arange(n0 - 1, n - 1)
    T[m, new_cols] = -np.abs(cost[new_cols])

    # the new rows, each with its own slack basic, in the current basis
    new = T[p:p + k]
    new[:, :n] = rows[p:p + k] * sign
    new[np.arange(k), n + p + np.arange(k)] = 1.0
    new[:, -1] = rhs[p:p + k]
    basis[p:p + k] = n + p + np.arange(k)
    new -= np.dot(new[:, basis[old_rows]], T[old_rows])
    return T, basis


def solve(lp: LinearProgram, parent: Optional["LpOutcome"] = None
          ) -> LpOutcome:
    """Solve the LP, warm-started from ``parent`` (a feasible outcome of an
    LP that this one extends) when given.  The result is checked against
    the unit-scaled rows and NumericalFailure is raised rather than ever
    guessing."""
    m, n = lp.A.shape
    norm = np.sqrt((lp.A * lp.A).sum(axis=1))
    norm[norm == 0] = 1.0
    cost = np.where(lp.objective != 0, lp.objective,
                    -_TIE_EPS * (1.0 + np.arange(n) / 1024))
    up = cost > 0
    origin = np.where(up, lp.upper, lp.lower)
    sign = np.where(up, -1.0, 1.0)
    shift = -np.frexp(norm)[1]
    rows = np.ldexp(lp.A, shift[:, None])
    rhs = np.ldexp(lp.b, shift) - rows @ origin
    if parent is None:
        T, basis = _cold_tableau(rows, rhs, sign, cost)
    else:
        T, basis = _warm_tableau(parent.tableau, lp, rows, rhs, sign, cost,
                                 origin)
    status, pivots = _dual_simplex(T, basis)
    if status == "stalled":
        raise NumericalFailure("simplex stalled")
    if status == "infeasible":
        return LpOutcome(False, pivots=pivots)
    shifted = np.zeros(n + m)
    shifted[basis] = T[:m, -1]
    x = origin + sign * shifted[:n]
    residual = float(((lp.A @ x - lp.b) / norm).max(initial=0.0))
    if residual > FEAS_TOL:
        raise NumericalFailure(f"residual {residual:.3e} exceeds {FEAS_TOL}")
    return LpOutcome(True, x, float(lp.objective @ x), pivots,
                     _Tableau(lp, T, basis, cost, origin))


def maximize_direction(direction: Sequence[float], halfspaces,
                       bounding) -> LpOutcome:
    """Maximize direction . x over exact halfspaces (Halfspace objects)
    inside the ``bounding`` polytope, in 3 variables; the bounds are its
    bounding box."""
    rows = list(halfspaces) + list(bounding.halfspaces)
    lower, upper = _float_bbox(bounding)
    lp = LinearProgram(
        3, np.array([[float(h.a), float(h.b), float(h.c)] for h in rows]),
        np.array([float(h.d) for h in rows]),
        np.array([float(d) for d in direction]), lower, upper)
    return solve(lp)
