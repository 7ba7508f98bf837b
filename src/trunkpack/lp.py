"""Linear programs for placement feasibility.

The only floating-point corner of the package.  `build_lp` assembles the
feasibility LP of a partial packing pattern: three center coordinates per
placed box plus one shared slack variable, maximized.  Hull-membership rows
carry no slack; every separation row (box-box order, box-obstacle facet)
includes the slack, so a positive optimum certifies a placement with that
many millimetres of clearance in every separating constraint.  The slack is
capped (DELTA_MM) to keep the LP bounded and non-negative so that a feasible
outcome always corresponds to a genuinely non-overlapping placement.

The solver is a dense two-phase simplex with Bland's rule: tiny problems,
deterministic behaviour, no external dependency.  Rows are normalized to
unit coefficient norm; a residual check after solving guards against silent
numerical drift (NumericalFailure, never misreported as infeasible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
    row_labels: List[str] = field(default_factory=list)
    var_labels: List[str] = field(default_factory=list)


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


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise LpError("zero row in LP construction")
    return v / n


def build_lp(placements: Sequence, regions: dict,
             bb_constraints: Sequence[Tuple[int, int, int, int]] = (),
             bo_constraints: Sequence[Tuple[int, str, int]] = ()) -> LinearProgram:
    """Assemble the pattern-feasibility LP.

    placements: list of (BoxType, orientation) in pattern order.
    regions: {(box_id, orientation): FeasibleRegion}.
    bb_constraints: (i, j, axis, order); order +1 places box i before box j
    along the axis (center_i + half-extents + slack <= center_j), order -1
    the reverse.
    bo_constraints: (i, obstacle_id, facet_index) keeping box i's center
    outside that facet of that obstacle, with slack.
    """
    from trunkpack.catalog import oriented_extents

    n_boxes = len(placements)
    nv = 3 * n_boxes + 1
    s = 3 * n_boxes
    rows: List[np.ndarray] = []
    rhs: List[float] = []
    labels: List[str] = []

    region_of = []
    extents = []
    for i, (box, orientation) in enumerate(placements):
        key = (box.id, orientation)
        if key not in regions:
            raise UnknownRegion(f"no feasible region for {key}")
        region_of.append(regions[key])
        extents.append(oriented_extents(box.dims_mm, orientation))

    for i, region in enumerate(region_of):
        for h_idx, h in enumerate(region.hull.halfspaces):
            n = np.array([h.a, h.b, h.c], dtype=float)
            norm = float(np.linalg.norm(n))
            row = np.zeros(nv)
            row[3 * i:3 * i + 3] = n / norm
            rows.append(row)
            rhs.append(h.d / norm)
            labels.append(f"hull:{i}:{h_idx}")

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
        gap = (extents[lo][axis] + extents[hi][axis]) / 2.0
        row = np.zeros(nv)
        row[3 * lo + axis] = 1.0
        row[3 * hi + axis] = -1.0
        row[s] = 1.0
        rows.append(row)
        rhs.append(-gap)
        labels.append(f"bb:{lo}<{hi}:{'xyz'[axis]}")

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
        h = obstacle.halfspaces[facet_idx]
        n = np.array([h.a, h.b, h.c], dtype=float)
        norm = float(np.linalg.norm(n))
        row = np.zeros(nv)
        row[3 * i:3 * i + 3] = -n / norm
        row[s] = 1.0
        rows.append(row)
        rhs.append(-h.d / norm)
        labels.append(f"bo:{i}:{obstacle_id}:{facet_idx}")

    cap = np.zeros(nv)
    cap[s] = 1.0
    rows.append(cap)
    rhs.append(DELTA_MM)
    labels.append("slack-cap")
    nonneg = np.zeros(nv)
    nonneg[s] = -1.0
    rows.append(nonneg)
    rhs.append(0.0)
    labels.append("slack-nonneg")

    objective = np.zeros(nv)
    objective[s] = 1.0
    var_labels = [f"c{i}.{a}" for i in range(n_boxes) for a in "xyz"] + ["s"]
    return LinearProgram(nv, np.array(rows), np.array(rhs), objective,
                         labels, var_labels)


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
    slack = np.diag(np.where(flip, -1.0, 1.0))
    art_rows = np.nonzero(flip)[0]
    n_art = len(art_rows)
    art = np.zeros((m, n_art))
    for k, r in enumerate(art_rows):
        art[r, k] = 1.0
    T = np.hstack([A, slack, art])
    ncols = T.shape[1]
    basis = np.empty(m, dtype=int)
    for r in range(m):
        if flip[r]:
            basis[r] = n + m + int(np.nonzero(art_rows == r)[0][0])
        else:
            basis[r] = n + r
    x_b = b.astype(float).copy()

    def pivot(r, col):
        piv = T[r, col]
        T[r] /= piv
        x_b[r] /= piv
        for rr in range(m):
            if rr != r and abs(T[rr, col]) > 0:
                f = T[rr, col]
                T[rr] -= f * T[r]
                x_b[rr] -= f * x_b[r]
        basis[r] = col

    def run_phase(cost: np.ndarray, allow_cols: int):
        for _ in range(_MAX_ITER):
            y = cost[basis]
            reduced = cost[:allow_cols] - y @ T[:, :allow_cols]
            entering = -1
            for j in range(allow_cols):
                if reduced[j] > _PIVOT_EPS and j not in basis_set():
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            ratios = []
            for r in range(m):
                if T[r, entering] > _PIVOT_EPS:
                    ratios.append((x_b[r] / T[r, entering], basis[r], r))
            if not ratios:
                return "unbounded"
            ratios.sort(key=lambda t: (t[0], t[1]))
            pivot(ratios[0][2], entering)
        return "stalled"

    def basis_set():
        return set(basis.tolist())

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
                done = False
                for j in range(n + m):
                    if abs(T[r, j]) > _PIVOT_EPS:
                        pivot(r, j)
                        done = True
                        break
                if not done:
                    x_b[r] = 0.0  # redundant row; harmless to keep

    cost2 = np.zeros(ncols)
    cost2[:n] = c
    status = run_phase(cost2, n + m)
    if status == "stalled":
        return ("stalled", None)
    if status == "unbounded":
        return ("unbounded", None)
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = x_b[r]
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


def maximize_direction(direction: Sequence[float], halfspaces,
                       extra_rows: Sequence = ()) -> LpOutcome:
    """Convenience: maximize direction . x over exact halfspaces (given as
    Halfspace objects) plus optional raw (coeffs, rhs) rows, in 3 variables."""
    rows = []
    rhs = []
    labels = []
    for i, h in enumerate(halfspaces):
        rows.append([float(h.a), float(h.b), float(h.c)])
        rhs.append(float(h.d))
        labels.append(f"h{i}")
    for i, (coeffs, r) in enumerate(extra_rows):
        rows.append([float(v) for v in coeffs])
        rhs.append(float(r))
        labels.append(f"x{i}")
    lp = LinearProgram(3, np.array(rows, dtype=float), np.array(rhs, dtype=float),
                       np.array([float(d) for d in direction]), labels,
                       ["x", "y", "z"])
    return solve(lp)


# ---------------------------------------------------------------------------
# debug dump


def to_lp_format(lp: LinearProgram, name: str = "pattern") -> str:
    """Emit the LP in the common text LP format for external cross-checks."""
    def term(coef: float, var: str, first: bool) -> str:
        sign = "-" if coef < 0 else ("" if first else "+")
        mag = abs(coef)
        return f" {sign} {mag:.12g} {var}" if not first else f"{sign}{mag:.12g} {var}"

    vars_ = lp.var_labels or [f"v{i}" for i in range(lp.num_vars)]
    out = [f"\\ {name}", "Maximize", " obj:"]
    parts = []
    first = True
    for j, coef in enumerate(lp.objective):
        if coef != 0:
            parts.append(term(float(coef), vars_[j], first))
            first = False
    out[-1] += " " + ("0" if not parts else "".join(parts))
    out.append("Subject To")
    for i in range(lp.A.shape[0]):
        label = lp.row_labels[i] if i < len(lp.row_labels) else f"r{i}"
        parts = []
        first = True
        for j, coef in enumerate(lp.A[i]):
            if coef != 0:
                parts.append(term(float(coef), vars_[j], first))
                first = False
        body = "".join(parts) if parts else "0 " + vars_[0]
        out.append(f" {label.replace(':', '_')}: {body} <= {float(lp.b[i]):.12g}")
    out.append("Bounds")
    for v in vars_:
        out.append(f" {v} free")
    out.append("End")
    return "\n".join(out) + "\n"
