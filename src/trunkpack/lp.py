"""Linear programs for placement feasibility.

The only floating-point corner of the package.  `build_lp` assembles the
feasibility LP of a partial packing pattern: three center coordinates per
placed box plus one shared slack variable, maximized.  Hull-membership rows
and the tie rows of identical boxes (``Pattern.tied``) carry no slack; every
separation row (box-box order, box-obstacle facet) includes the slack, so a
positive optimum certifies a placement with that many millimetres of
clearance in every separating constraint.  The slack is
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
and tie rows are difference constraints, axis-aligned hull and obstacle
rows bound one coordinate) the centers at a fixed slack form a lattice, and
its least element is the unique minimizer of every positive weighting, so
the answer is exact and unique; `trunkpack.search` computes it exactly
from its order chains and builds an LP only for a node with a slanted row.
On slanted hulls it is unique for generic weights (a tie needs w to be
orthogonal to an edge of the optimal face).  EPS is small
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
suffices, with no artificial columns.  A cold solve is the warm start
(below) from the LP with no rows, whose tableau is the one reduced-cost
row -|cost| with an empty basis: every row of the LP is new, inserted at
row 0, and their slacks make the all-slack basis.  Bland's rule for the
dual: the infeasible row whose basic variable has the lowest index leaves;
the column with the smallest d_j / a_rj over a_rj < -_PIVOT_EPS enters,
ties to the lowest index.  A violated row with no negative entry proves
the LP infeasible.  A pivot divides the pivot row, then updates every other
row, x_b and the reduced costs included, with one dense rank-1 elimination.

Each row enters the tableau divided by the least power of two above its
norm: exact, so on dyadic data (axis-aligned hulls, half-millimetre extents)
every tableau entry stays exact and solves from any parent give
bit-identical answers.  A residual check against the unit-norm rows after
solving guards against silent numerical drift (NumericalFailure, never
misreported as infeasible).

**Warm start.**  A search node's LP is its parent's plus one box-box or
box-obstacle row, or plus one box's three center columns, its hull rows and
its tie row, if any: one extension step (`extend_lp`: k rows inserted at
row p, 0 or 3 columns just before the slack; `add_step` places them for a
pattern checked one step further, and `build_lp` is its fold).  The child
records its base and p, so `solve(lp, parent)` checks by identity that
`lp` extends the parent outcome's LP (ValueError otherwise) and continues
the dual simplex from the parent's final basis, which stays dual
feasible (Bertsimas & Tsitsiklis, Introduction to Linear Optimization,
1997, sec. 5.1).  The starting tableau is the parent's, copied into the
child's layout in contiguous blocks, with the new columns' reduced costs
(<= 0: a new column is zero in every old row) and the new rows, scaled
(only they are) and expressed in the parent's basis.  The old rows hold at
the parent's answer, so only new rows can be violated.  Every solve, cold
or warm, builds its starting tableau this way and keeps its final one,
which its children start from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from trunkpack.catalog import oriented_extents

FEAS_TOL = 1e-7
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
    them and enters neither as a row.

    An LP made by ``extend_lp`` records the LP it extends (``base``) and
    where its inserted rows start (``at``); the shapes give how many rows
    and variables were inserted.  A pattern LP also carries its
    ``pattern``, the one ``add_step`` extends.  An LP is not
    modified once returned, so an extension shares the arrays it leaves
    unchanged."""

    num_vars: int
    A: np.ndarray
    b: np.ndarray
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    base: Optional["LinearProgram"] = field(default=None, repr=False,
                                            compare=False)
    at: int = 0
    pattern: Optional["Pattern"] = field(default=None, repr=False,
                                         compare=False)


class Pattern(NamedTuple):
    """A packing pattern: each box's region and oriented extents, in
    pattern order, and the box-box and box-obstacle constraints, in row
    order.  It is what a pattern LP's rows stand for, and what a search
    node carries without an LP.  The pattern steps ``with_box``,
    ``with_bb`` and ``with_bo`` check what they add; ``add_step`` reads
    the checked step off the pattern into an LP's rows.  ``bb_pairs``
    holds the (i, j), i < j, of every box-box constraint and ``bo_pairs``
    the (box, obstacle id) of every box-obstacle constraint: the steps grow
    them, check duplicates against them, and the conflict test skips
    them."""

    regions: tuple = ()
    extents: tuple = ()
    bb: tuple = ()
    bo: tuple = ()
    bb_pairs: frozenset = frozenset()
    bo_pairs: frozenset = frozenset()

    def with_box(self, regions: dict, box, orientation: str) -> "Pattern":
        """The pattern with one more box, in its region for (box id,
        orientation)."""
        key = (box.id, orientation)
        if key not in regions:
            raise UnknownRegion(f"no feasible region for {key}")
        return Pattern(self.regions + (regions[key],),
                       self.extents + (oriented_extents(box.dims_mm,
                                                        orientation),),
                       self.bb, self.bo, self.bb_pairs, self.bo_pairs)

    def with_bb(self, constraint: Tuple[int, int, int, int]) -> "Pattern":
        """The pattern with one more box-box order (i, j, axis, order)."""
        i, j, axis, order = constraint
        n_boxes = len(self.regions)
        if not (0 <= i < n_boxes and 0 <= j < n_boxes) or i == j \
                or axis not in (0, 1, 2) or order not in (-1, 1):
            raise InvalidConstraintReference(f"bad box-box constraint "
                                             f"{(i, j, axis, order)}")
        pair = (min(i, j), max(i, j))
        if pair in self.bb_pairs:
            raise InvalidConstraintReference(f"duplicate box-box pair {pair}")
        return Pattern(self.regions, self.extents, self.bb + (constraint,),
                       self.bo, self.bb_pairs | {pair}, self.bo_pairs)

    def tied(self, i: int) -> bool:
        """Whether box i has the (box id, orientation) of box i - 1.  Then
        the pattern ties them, ``x_{i-1} <= x_i``: any packing can be
        relabelled to meet that, so a packing of identical boxes is one
        pattern, not one per relabelling."""
        if i == 0:
            return False
        a, b = self.regions[i - 1], self.regions[i]
        return (a.box_id, a.orientation) == (b.box_id, b.orientation)

    def obstacle(self, i: int, obstacle_id: str):
        """Box i's obstacle with that id."""
        if not 0 <= i < len(self.regions):
            raise InvalidConstraintReference(f"bad box index {i}")
        region = self.regions[i]
        obstacle = next((o for o in region.obstacles if o.id == obstacle_id),
                        None)
        if obstacle is None:
            raise InvalidConstraintReference(
                f"region {region.box_id}:{region.orientation} has no "
                f"obstacle {obstacle_id!r}")
        return obstacle

    def with_bo(self, constraint: Tuple[int, str, int]) -> "Pattern":
        """The pattern with one more box-obstacle facet (i, obstacle id,
        facet index)."""
        i, obstacle_id, facet_idx = constraint
        if not 0 <= facet_idx < len(self.obstacle(i,
                                                  obstacle_id).halfspaces):
            raise InvalidConstraintReference(
                f"obstacle {obstacle_id} has no facet {facet_idx}")
        pair = (i, obstacle_id)
        if pair in self.bo_pairs:
            raise InvalidConstraintReference(
                f"duplicate box-obstacle pair {pair}")
        return Pattern(self.regions, self.extents, self.bb,
                       self.bo + (constraint,), self.bb_pairs,
                       self.bo_pairs | {pair})


@dataclass
class LpOutcome:
    """``value`` is objective . assignment, without the tie-break terms.
    A feasible outcome keeps ``lp``, the LP it solved (the one its
    children's LPs extend), and its final ``tableau``, which a child LP
    warm-starts from."""

    feasible: bool
    assignment: Optional[np.ndarray] = None
    value: float = 0.0
    pivots: int = 0
    lp: Optional[LinearProgram] = field(default=None, repr=False,
                                        compare=False)
    tableau: Optional["_Tableau"] = field(default=None, repr=False,
                                          compare=False)


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


def extend_lp(lp: LinearProgram, at: int, rows, rhs, lower=(),
              upper=()) -> LinearProgram:
    """One extension step: ``lp`` with the rows ``rows . x <= rhs`` inserted
    before its row ``at`` and, for each of ``lower``/``upper``, one new
    variable with those bounds and objective 0 inserted just before its
    last variable (``rows`` span the new variable count).  The last
    variable keeps its index relative to the end, so when variables are
    inserted its objective must be nonzero (a zero-cost variable's
    tie-break weight depends on its index).  The result records ``lp`` as
    its base, and ``solve`` warm-starts it from ``lp``'s outcome."""
    A, objective = lp.A, lp.objective
    c = len(lower)
    if c:
        if objective[-1] == 0:
            raise ValueError("new variables need a last variable with a "
                             "nonzero objective")
        A = np.concatenate((A[:, :-1], np.zeros((len(A), c)), A[:, -1:]),
                           axis=1)
        objective = np.concatenate((objective[:-1], np.zeros(c),
                                    objective[-1:]))
        lower = np.concatenate((lp.lower[:-1], lower, lp.lower[-1:]))
        upper = np.concatenate((lp.upper[:-1], upper, lp.upper[-1:]))
    else:
        lower, upper = lp.lower, lp.upper
    return LinearProgram(len(objective),
                         np.concatenate((A[:at], rows, A[at:])),
                         np.concatenate((lp.b[:at], rhs, lp.b[at:])),
                         objective, lower, upper, base=lp, at=at)


def add_step(lp: LinearProgram, pattern: Pattern) -> LinearProgram:
    """The LP of ``pattern``, a checked pattern one step past
    ``lp.pattern`` (``Pattern.with_box``, ``with_bb`` or ``with_bo``),
    which it keeps as its ``pattern``.  A new box adds three center columns
    before the slack, bounded by its region hull's bounding box, and its
    hull rows after the other boxes' hull rows, followed by its tie row
    ``x_prev - x_new <= 0`` (no slack) when it is tied to the box before it
    (``Pattern.tied``); a new box-box order (i, j, axis, order) or
    box-obstacle facet (i, obstacle id, facet index) adds its row after the
    other rows of its kind."""
    old = lp.pattern
    if len(pattern.regions) > len(old.regions):
        hull = pattern.regions[-1].hull
        normals, offsets = _unit_rows(hull)
        n = lp.num_vars + 3
        rows = np.zeros((len(offsets), n))
        rows[:, n - 4:n - 1] = normals
        if pattern.tied(len(old.regions)):
            # the tie x_prev - x_new <= 0, with no slack
            tie = np.zeros((1, n))
            tie[0, n - 7], tie[0, n - 4] = 1.0, -1.0
            rows, offsets = np.vstack((rows, tie)), np.append(offsets, 0.0)
        child = extend_lp(lp, len(lp.b) - 2 - len(old.bb) - len(old.bo),
                          rows, offsets, *_float_bbox(hull))
    elif len(pattern.bb) > len(old.bb):
        i, j, axis, order = pattern.bb[-1]
        lo, hi = (i, j) if order == 1 else (j, i)
        row = np.zeros((1, lp.num_vars))
        row[0, 3 * lo + axis] = 1.0
        row[0, 3 * hi + axis] = -1.0
        row[0, -1] = 1.0
        gap = -(pattern.extents[lo][axis] + pattern.extents[hi][axis]) / 2.0
        child = extend_lp(lp, len(lp.b) - 2 - len(old.bo), row, [gap])
    else:
        i, obstacle_id, facet_idx = pattern.bo[-1]
        normals, offsets = _unit_rows(pattern.obstacle(i, obstacle_id))
        row = np.zeros((1, lp.num_vars))
        row[0, 3 * i:3 * i + 3] = -normals[facet_idx]
        row[0, -1] = 1.0
        child = extend_lp(lp, len(lp.b) - 2, row, [-offsets[facet_idx]])
    child.pattern = pattern
    return child


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
    hull order), each followed by the box's tie row when it has the (box
    id, orientation) of the box before it (``Pattern.tied``; no slack), the
    box-box and the box-obstacle rows as given, then the slack cap and the
    slack floor.  Bounds: each center's region hull's bounding box, the
    slack's [0, DELTA_MM].

    The LP is the fold of ``add_step`` over the pattern's steps, each
    checked by its ``Pattern`` step, from the pattern LP of no box, so it
    equals, entry for entry, any LP those steps reach with the same
    placements and constraints.  It is assembled whole: it records no base
    to warm-start from.
    """
    # the pattern LP of no box: the slack alone, with its cap and floor
    lp = LinearProgram(1, np.array([[1.0], [-1.0]]),
                       np.array([DELTA_MM, 0.0]), np.array([1.0]),
                       np.array([0.0]), np.array([DELTA_MM]),
                       pattern=Pattern())
    for box, orientation in placements:
        lp = add_step(lp, lp.pattern.with_box(regions, box, orientation))
    for constraint in bb_constraints:
        lp = add_step(lp, lp.pattern.with_bb(constraint))
    for constraint in bo_constraints:
        lp = add_step(lp, lp.pattern.with_bo(constraint))
    lp.base, lp.at = None, 0
    return lp


# ---------------------------------------------------------------------------
# solver


class _Tableau:
    """A solved LP's final tableau: the rows (x_b last) and the reduced
    costs, the basic variable of each row, the costs, origins and signs the
    variables are measured with, and the norms of the LP's rows."""

    __slots__ = ("T", "basis", "cost", "origin", "sign", "norm")

    def __init__(self, T, basis, cost, origin, sign, norm):
        self.T = T
        self.basis = basis
        self.cost = cost
        self.origin = origin
        self.sign = sign
        self.norm = norm


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, col: int) -> None:
    row = T[r]
    row /= row[col]
    # the outer product is a K=1 matrix product: each entry is still one
    # rounded product, and it runs about twice as fast as a broadcast
    f = T[:, col, None].copy()
    f[r] = 0.0
    T -= np.dot(f, row[None])
    basis[r] = col


def _entering(row: np.ndarray, reduced: np.ndarray) -> Optional[int]:
    """Bland's entering column for a leaving row: the smallest ratio
    d_j / a_rj over a_rj < -_PIVOT_EPS, ties to the lowest index (a reduced
    cost is <= 0 up to rounding); None when the row has no negative entry,
    which proves the LP infeasible."""
    cols = (row < -_PIVOT_EPS).nonzero()[0]
    if not cols.size:
        return None
    ratios = np.minimum(reduced[cols], 0.0) / row[cols]
    return int(cols[ratios.argmin()])


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
        # Bland for the dual: the lowest-index basic variable leaves
        r = int(rows[basis[rows].argmin()])
        col = _entering(T[r, :-1], reduced)
        if col is None:
            return "infeasible", pivots
        _pivot(T, basis, r, col)
    return "stalled", _MAX_ITER


def _costs(lp: LinearProgram):
    """(cost, origin, sign) of every variable: the objective, or the
    tie-break cost where it is zero; the bound it is measured from; -1 when
    measured down from its upper bound, else +1."""
    n = len(lp.objective)
    cost = np.where(lp.objective != 0, lp.objective,
                    -_TIE_EPS * (1.0 + np.arange(n) / 1024))
    up = cost > 0
    return cost, np.where(up, lp.upper, lp.lower), np.where(up, -1.0, 1.0)


def _scaled(A, b, origin):
    """(rows, rhs, norm): each row and its right-hand side divided by the
    least power of two above the row's norm, the right-hand side measured
    from ``origin``, and the norms."""
    norm = np.sqrt((A * A).sum(axis=1))
    norm[norm == 0] = 1.0
    shift = -np.frexp(norm)[1]
    rows = np.ldexp(A, shift[:, None])
    return rows, np.ldexp(b, shift) - rows @ origin, norm


def _extended(parent: _Tableau, lp: LinearProgram, p: int) -> _Tableau:
    """The dual feasible starting tableau of ``lp``, which extends the
    parent's LP by one step (k rows inserted at row p, c variables just
    before the last one): the parent's tableau in the child's layout, and
    the new rows, scaled and expressed in the parent's basis.  Each new
    column gets its own reduced cost, -|cost| (<= 0: it is zero in every old
    row).  Each new row, with its own slack basic, is zero in every other
    slack's column, so only the rows whose basic variable is one of the LP's
    own contribute."""
    T0, m0, n0 = parent.T, len(parent.basis), len(parent.cost)
    m, n = lp.A.shape
    k, c = m - m0, n - n0
    if c:
        cost, origin, sign = _costs(lp)
    else:
        cost, origin, sign = parent.cost, parent.origin, parent.sign
    # the parent's columns in three contiguous blocks: the variables before
    # the last; the last with the slacks of rows before p; the other slacks
    # with x_b.  The new variables' and slacks' columns go between them,
    # the new rows at row p.
    T = np.concatenate((T0[:, :n0 - 1], np.zeros((m0 + 1, c)),
                        T0[:, n0 - 1:n0 + p], np.zeros((m0 + 1, k)),
                        T0[:, n0 + p:]), axis=1)
    T = np.concatenate((T[:p], np.zeros((k, n + m + 1)), T[p:]))
    old = parent.basis.copy()
    if c:
        T[m, n0 - 1:n - 1] = -np.abs(cost[n0 - 1:n - 1])
        old[old >= n0 - 1] += c  # the last variable and the slacks
    old[old >= n + p] += k  # the slacks of rows p on
    basis = np.concatenate((old[:p], np.arange(n + p, n + p + k), old[p:]))
    rows, rhs, norm = _scaled(lp.A[p:p + k], lp.b[p:p + k], origin)
    new = T[p:p + k]  # a view: the new rows are filled in place
    np.multiply(rows, sign, out=new[:, :n])
    new[:, n + p:n + p + k] = np.eye(k)  # each row's slack
    new[:, -1] = rhs
    # rows with a structural basic variable: old rows only
    structural = (basis < n).nonzero()[0]
    new -= np.dot(new[:, basis[structural]], T[structural])
    return _Tableau(T, basis, cost, origin, sign,
                    np.concatenate((parent.norm[:p], norm, parent.norm[p:])))


def solve(lp: LinearProgram, parent: Optional["LpOutcome"] = None
          ) -> LpOutcome:
    """Solve the LP, warm-started from ``parent`` when given: the feasible
    outcome of the LP that ``lp`` extends by one step (``extend_lp``);
    ValueError for any other LP.  Without a parent it starts from the LP
    with no rows.  The starting tableau is that one extended by ``lp``'s
    new rows and columns; the dual simplex runs on it, and the outcome
    keeps it as its final tableau.  The result is checked against the
    unit-scaled rows and NumericalFailure is raised rather than ever
    guessing."""
    m, n = lp.A.shape
    if parent is None:
        # the LP with no rows: its tableau is the reduced-cost row alone
        cost, origin, sign = _costs(lp)
        start = _Tableau(np.append(-np.abs(cost), 0.0)[None],
                         np.zeros(0, dtype=int), cost, origin, sign,
                         np.zeros(0))
        at = 0
    else:
        if parent.lp is None or lp.base is not parent.lp:
            raise ValueError("the LP does not extend its parent's")
        start, at = parent.tableau, lp.at
    final = _extended(start, lp, at)
    status, pivots = _dual_simplex(final.T, final.basis)
    if status == "stalled":
        raise NumericalFailure("simplex stalled")
    if status == "infeasible":
        return LpOutcome(False, pivots=pivots)
    shifted = np.zeros(n + m)
    shifted[final.basis] = final.T[:m, -1]
    x = final.origin + final.sign * shifted[:n]
    residual = float(((lp.A @ x - lp.b) / final.norm).max(initial=0.0))
    if residual > FEAS_TOL:
        raise NumericalFailure(f"residual {residual:.3e} exceeds {FEAS_TOL}")
    return LpOutcome(True, x, float(lp.objective @ x), pivots, lp, final)


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
