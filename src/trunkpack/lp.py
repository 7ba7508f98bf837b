"""Linear programs for placement feasibility.

The only floating-point corner of the package.  `build_lp` assembles the
feasibility LP of a partial packing pattern: three center coordinates per
placed box plus one shared slack variable, maximized.  Hull-membership rows
carry no slack; every separation row (box-box order, box-obstacle facet)
includes the slack, so a positive optimum certifies a placement with that
many millimetres of clearance in every separating constraint.  The slack is
capped (DELTA_MM) to keep the LP bounded and non-negative so that a feasible
outcome always corresponds to a genuinely non-overlapping placement.

Each polytope's unit-norm float rows are computed once and cached on the
polytope, so a search node only copies them into its LP.

The solver is a dense two-phase simplex with Bland's rule (Bland 1977) on
the textbook single tableau (Chvátal, Linear Programming, 1983, ch. 2-3):
tiny problems, deterministic behaviour, no external dependency.  The
tableau has m + 1 rows and one column per structural, slack and artificial
variable plus one: its last column is x_b and its last row the reduced
costs, computed once per phase.  A pivot divides the pivot row, then
updates every other row, x_b and the reduced costs included, with one
dense rank-1 elimination.  The lowest-index column with a positive reduced
cost enters; the smallest ratio over the rows whose pivot-column entry
exceeds _PIVOT_EPS leaves, ties to the lowest basis index.

This gives the pivot sequence and the tableau floats of a solver that
eliminates row by row and recomputes the reduced costs from the basis at
each step.  Elimination is elementwise: an entry becomes t - f * p, one
product and one subtraction, whichever rows are updated together, and a
row with f = 0 keeps its value (only a zero's sign may differ).  Reduced
costs only decide which columns are eligible, never a tableau value, and
a basic column's reduced cost stays exactly zero.  Rows are normalized to
unit coefficient norm; a residual check after solving guards against
silent numerical drift (NumericalFailure, never misreported as
infeasible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

FEAS_TOL = 1e-7
SLACK_ZERO = 1e-6
DELTA_MM = 1.0
_PIVOT_EPS = 1e-10
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
    """maximize objective . x  subject to  A x <= b  (x unrestricted)."""

    num_vars: int
    A: np.ndarray
    b: np.ndarray
    objective: np.ndarray


@dataclass
class LpOutcome:
    feasible: bool
    assignment: Optional[np.ndarray] = None
    value: float = 0.0
    pivots: int = 0

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
    the slack cap and the slack floor.
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
    return LinearProgram(nv, A, b, objective)


# ---------------------------------------------------------------------------
# solver


def _simplex_leq(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """maximize c.x st A x <= b, x >= 0 via two-phase tableau with Bland's
    rule.  Returns (status, x, pivots): status in {'optimal', 'infeasible',
    'unbounded', 'stalled'}, pivots counts both phases and the removal of
    leftover artificials."""
    m, n = A.shape
    flip = b < 0
    # rows: m constraints | reduced costs
    # columns: n structural | m slack (+1 unflipped, -1 flipped) |
    # artificials | x_b
    art_rows = flip.nonzero()[0]
    n_art = len(art_rows)
    ncols = n + m + n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = np.where(flip[:, None], -A, A)
    T[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    T[art_rows, n + m + np.arange(n_art)] = 1.0
    T[:m, -1] = np.where(flip, -b, b)
    x_b = T[:m, -1]
    basis = list(range(n, n + m))
    for k, r in enumerate(art_rows.tolist()):
        basis[r] = n + m + k
    pivots = 0

    def pivot(r, col):
        nonlocal pivots
        pivots += 1
        row = T[r]
        row /= row[col]
        # the outer product is a K=1 matrix product: each entry is still one
        # rounded product, and it runs about twice as fast as a broadcast
        f = T[:, col, None].copy()
        f[r] = 0.0
        T[...] -= np.dot(f, row[None])
        basis[r] = col

    def run_phase(cost: np.ndarray, allow_cols: int):
        # reduced costs once per phase; pivots keep them up to date
        T[m] = -(cost[basis] @ T[:m])
        T[m, :ncols] += cost
        reduced = T[m, :allow_cols]
        for _ in range(_MAX_ITER):
            # Bland: the lowest-index improving column enters (a basic
            # column's reduced cost is exactly zero) ...
            eligible = reduced > _PIVOT_EPS
            entering = int(eligible.argmax())
            if not eligible[entering]:
                return "optimal"
            column = T[:m, entering]
            rows = (column > _PIVOT_EPS).nonzero()[0]
            if not rows.size:
                return "unbounded"
            # ... and the smallest ratio leaves, ties to the lowest basis index
            ratios = x_b[rows] / column[rows]
            ties = rows[ratios == ratios[ratios.argmin()]].tolist()
            pivot(min(ties, key=basis.__getitem__), entering)
        return "stalled"

    if n_art:
        cost1 = np.zeros(ncols)
        cost1[n + m:] = -1.0
        if run_phase(cost1, ncols) != "optimal":
            return ("stalled", None, pivots)
        if -float(cost1[basis] @ x_b) > 1e2 * FEAS_TOL * (1.0 + abs(b).max()):
            return ("infeasible", None, pivots)
        # force remaining artificials out of the basis
        for r in range(m):
            if basis[r] >= n + m:
                nonzero = (np.abs(T[r, :n + m]) > _PIVOT_EPS).nonzero()[0]
                if nonzero.size:
                    pivot(r, int(nonzero[0]))
                else:
                    x_b[r] = 0.0  # redundant row; harmless to keep

    cost2 = np.zeros(ncols)
    cost2[:n] = c
    status = run_phase(cost2, n + m)
    if status != "optimal":
        return (status, None, pivots)
    x = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = x_b[r]
    return ("optimal", x, pivots)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve the LP.  Free variables are split into positive parts; the
    result is checked against the unit-scaled rows and NumericalFailure is
    raised rather than ever guessing."""
    m, n = lp.A.shape
    scale = np.linalg.norm(lp.A, axis=1)
    scale[scale == 0] = 1.0
    A_scaled = lp.A / scale[:, None]
    b_scaled = lp.b / scale
    A2 = np.hstack([A_scaled, -A_scaled])
    c2 = np.concatenate([lp.objective, -lp.objective])
    status, x2, pivots = _simplex_leq(A2, b_scaled, c2)
    if status in ("stalled", "unbounded"):
        raise NumericalFailure(f"simplex {status}")
    if status == "infeasible":
        return LpOutcome(False, pivots=pivots)
    x = x2[:n] - x2[n:]
    residual = float((A_scaled @ x - b_scaled).max(initial=0.0))
    if residual > FEAS_TOL:
        raise NumericalFailure(f"residual {residual:.3e} exceeds {FEAS_TOL}")
    return LpOutcome(True, x, float(lp.objective @ x), pivots)


def maximize_direction(direction: Sequence[float], halfspaces) -> LpOutcome:
    """Convenience: maximize direction . x over exact halfspaces (given as
    Halfspace objects), in 3 variables."""
    rows = [[float(h.a), float(h.b), float(h.c)] for h in halfspaces]
    rhs = [float(h.d) for h in halfspaces]
    lp = LinearProgram(3, np.array(rows, dtype=float), np.array(rhs, dtype=float),
                       np.array([float(d) for d in direction]))
    return solve(lp)
