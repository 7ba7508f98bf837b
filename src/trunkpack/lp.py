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

The solver is a dense two-phase simplex with Bland's rule: tiny problems,
deterministic behaviour, no external dependency.  Each pivot works on whole
arrays (entering column, ratio test with ties to the lowest basis index, and
elimination on the rows with a nonzero pivot-column entry only), with the
same pivot sequence and the same floats as a row-by-row loop.  Rows are
normalized to unit coefficient norm; a residual check after solving guards
against silent numerical drift (NumericalFailure, never misreported as
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
    rule.  Returns (status, x) with status in {'optimal', 'infeasible',
    'unbounded', 'stalled'}."""
    m, n = A.shape
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    # columns: n structural | m slack (+1 unflipped, -1 flipped) | artificials
    art_rows = flip.nonzero()[0]
    n_art = len(art_rows)
    ncols = n + m + n_art
    T = np.zeros((m, ncols))
    T[:, :n] = A
    T[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    T[art_rows, n + m + np.arange(n_art)] = 1.0
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)
    nonbasic = np.ones(ncols, dtype=bool)
    nonbasic[basis] = False
    x_b = b.astype(float)

    def pivot(r, col):
        piv = T[r, col]
        T[r] /= piv
        x_b[r] /= piv
        # eliminate col from the other rows; rows with a zero entry stay as
        # they are (bit for bit, signed zeros included)
        rows = T[:, col].nonzero()[0]
        rows = rows[rows != r]
        f = T[rows, col]
        T[rows] -= f[:, None] * T[r]
        x_b[rows] -= f * x_b[r]
        nonbasic[basis[r]] = True
        nonbasic[col] = False
        basis[r] = col

    def run_phase(cost: np.ndarray, allow_cols: int):
        cost_allowed = cost[:allow_cols]
        T_allowed = T[:, :allow_cols]
        nonbasic_allowed = nonbasic[:allow_cols]
        for _ in range(_MAX_ITER):
            reduced = cost_allowed - cost[basis] @ T_allowed
            # Bland: the lowest-index improving nonbasic column enters ...
            eligible = (reduced > _PIVOT_EPS) & nonbasic_allowed
            entering = eligible.argmax()
            if not eligible[entering]:
                return "optimal"
            column = T[:, entering]
            rows = (column > _PIVOT_EPS).nonzero()[0]
            if not rows.size:
                return "unbounded"
            # ... and the smallest ratio leaves, ties to the lowest basis index
            ratios = x_b[rows] / column[rows]
            ties = rows[ratios == ratios[ratios.argmin()]]
            r = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
            pivot(r, entering)
        return "stalled"

    if n_art:
        cost1 = np.zeros(ncols)
        cost1[n + m:] = -1.0
        status = run_phase(cost1, ncols)
        if status != "optimal":
            return ("stalled", None)
        if -float(cost1[basis] @ x_b) > 1e2 * FEAS_TOL * (1.0 + abs(b).max()):
            return ("infeasible", None)
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
    if status == "stalled":
        return ("stalled", None)
    if status == "unbounded":
        return ("unbounded", None)
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = x_b[structural]
    return ("optimal", x)


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
    status, x2 = _simplex_leq(A2, b_scaled.copy(), c2)
    if status in ("stalled", "unbounded"):
        raise NumericalFailure(f"simplex {status}")
    if status == "infeasible":
        return LpOutcome(False)
    x = x2[:n] - x2[n:]
    residual = float((A_scaled @ x - b_scaled).max(initial=0.0))
    if residual > FEAS_TOL:
        raise NumericalFailure(f"residual {residual:.3e} exceeds {FEAS_TOL}")
    return LpOutcome(True, x, float(lp.objective @ x))


def maximize_direction(direction: Sequence[float], halfspaces) -> LpOutcome:
    """Convenience: maximize direction . x over exact halfspaces (given as
    Halfspace objects), in 3 variables."""
    rows = [[float(h.a), float(h.b), float(h.c)] for h in halfspaces]
    rhs = [float(h.d) for h in halfspaces]
    lp = LinearProgram(3, np.array(rows, dtype=float), np.array(rhs, dtype=float),
                       np.array([float(d) for d in direction]))
    return solve(lp)
