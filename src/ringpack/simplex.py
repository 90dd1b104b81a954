"""Dense revised-simplex LP engine for >=-row minimization problems.

Small, dependency-light (numpy only), and built for the access pattern of
column generation: rows are laid down once, columns stream in, previously
used columns get fixed to zero, and each re-solve wants the last basis back.
Capacity targets are desk scale (a few thousand columns, tens of rows), so
the basis inverse is kept explicitly and refactorized on a pivot counter.

Solving is two-phase primal simplex with Dantzig pricing, an automatic
switch to Bland's rule after a degeneracy streak, and a KKT audit of every
claimed optimum (primal feasibility, dual feasibility, duality gap).  A
failed audit triggers one full re-solve under Bland's rule from scratch
before NumericalFailure is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"

REFACTOR_EVERY = 50
DEGENERATE_STREAK = 60
KKT_REL = 1e-7
# pivot and zero threshold of the simplex, and of every caller's test on
# reduced costs and LP values: anything within it of zero counts as zero
ZERO_TOL = 1e-9


class NumericalFailure(RuntimeError):
    """Optimality claimed by the pivot loop but rejected by the KKT audit."""


class UnknownColumn(KeyError):
    pass


@dataclass(frozen=True)
class LpResult:
    status: str
    primal: dict[int, float] = field(default_factory=dict)
    duals: dict[int, float] = field(default_factory=dict)
    objective: float = float("nan")


class LinearProgram:
    """Minimize c.x subject to rows A x >= b and x >= 0.

    Columns fixed to zero stay in the id space but leave the model; fixing
    is irreversible within a run.  The last optimal basis is remembered and
    reused when it is still structurally valid.
    """

    def __init__(self) -> None:
        self.obj: list[float] = []
        self.col_rows: list[dict[int, float]] = []
        self.rhs: list[float] = []
        self.fixed: set[int] = set()
        self._basis: list[tuple[str, int]] | None = None

    @property
    def column_count(self) -> int:
        return len(self.obj)

    @property
    def row_count(self) -> int:
        return len(self.rhs)

    def add_row(self, coefs: dict[int, float], rhs: float) -> int:
        for j in coefs:
            if not (0 <= j < self.column_count):
                raise UnknownColumn(j)
        row_id = len(self.rhs)
        self.rhs.append(float(rhs))
        for j, a in coefs.items():
            if a:
                self.col_rows[j][row_id] = float(a)
        self._basis = None  # dimension change invalidates any stored basis
        return row_id

    def add_column(self, objective: float, coefs: dict[int, float] | None = None) -> int:
        coefs = coefs or {}
        for i in coefs:
            if not (0 <= i < self.row_count):
                raise UnknownColumn(f"row {i}")
        col_id = len(self.obj)
        self.obj.append(float(objective))
        self.col_rows.append({i: float(a) for i, a in coefs.items() if a})
        return col_id

    def fix_column_zero(self, col_id: int) -> None:
        if not (0 <= col_id < self.column_count):
            raise UnknownColumn(col_id)
        self.fixed.add(col_id)
        if self._basis is not None and ("c", col_id) in self._basis:
            self._basis = None

    def copy(self) -> "LinearProgram":
        clone = LinearProgram()
        clone.obj = list(self.obj)
        clone.col_rows = [dict(d) for d in self.col_rows]
        clone.rhs = list(self.rhs)
        clone.fixed = set(self.fixed)
        clone._basis = list(self._basis) if self._basis else None
        return clone

    def solve(self) -> LpResult:
        return solve_lp(self)


def _dense(lp: LinearProgram):
    """Equality system E y = d over active structural plus surplus columns.

    Rows with negative rhs are sign-flipped so d >= 0; the flip is undone on
    the reported duals.
    """
    active = [j for j in range(lp.column_count) if j not in lp.fixed]
    m = lp.row_count
    n = len(active)
    E = np.zeros((m, m + n))
    d = np.array(lp.rhs, dtype=float)
    flip = np.ones(m)
    for pos, j in enumerate(active):
        for i, a in lp.col_rows[j].items():
            E[i, pos] = a
    for i in range(m):
        E[i, n + i] = -1.0  # surplus turns >= into =
    for i in range(m):
        if d[i] < 0:
            E[i, :] *= -1.0
            d[i] = -d[i]
            flip[i] = -1.0
    cost = np.zeros(m + n)
    for pos, j in enumerate(active):
        cost[pos] = lp.obj[j]
    return active, E, d, cost, flip


class _Pivoter:
    """One simplex run over the equality system; explicit basis inverse."""

    def __init__(self, E, d):
        self.E = E
        self.d = d
        self.m = E.shape[0]
        self.basis: list[int] = []
        self.binv: np.ndarray | None = None
        self.pivots_since_refactor = 0

    def set_basis(self, basis: list[int]) -> bool:
        B = self.E[:, basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(self.binv)):
            return False
        self.basis = list(basis)
        self.pivots_since_refactor = 0
        return True

    def xb(self) -> np.ndarray:
        return self.binv @ self.d

    def refactor(self) -> bool:
        return self.set_basis(self.basis)

    def pivot(self, entering: int, leaving_pos: int) -> bool:
        col = self.binv @ self.E[:, entering]
        piv = col[leaving_pos]
        if abs(piv) < 1e-11:
            return False
        self.basis[leaving_pos] = entering
        if self.pivots_since_refactor >= REFACTOR_EVERY:
            return self.refactor()
        # product-form update of the explicit inverse
        eta = -col / piv
        eta[leaving_pos] = 1.0 / piv
        row = self.binv[leaving_pos, :].copy()
        self.binv += np.outer(eta, row)
        self.binv[leaving_pos, :] = row / piv
        self.pivots_since_refactor += 1
        return True

    def run(self, cost: np.ndarray, allowed: np.ndarray, bland_from_start: bool):
        """Minimize cost over the current basis; returns final status string.

        `allowed` masks columns permitted to enter (used to ban artificials
        in phase 2).
        """
        n_all = self.E.shape[1]
        tol = ZERO_TOL
        degenerate_run = 0
        bland = bland_from_start
        iteration_cap = 20000 + 200 * n_all
        for _ in range(iteration_cap):
            y = cost[self.basis] @ self.binv
            rc = cost - y @ self.E
            candidates = np.where(allowed & (rc < -tol))[0]
            if candidates.size == 0:
                return "optimal"
            if bland:
                entering = int(candidates[0])
            else:
                entering = int(candidates[np.argmin(rc[candidates])])
            direction = self.binv @ self.E[:, entering]
            xb = self.xb()
            ratios = np.full(self.m, np.inf)
            positive = direction > 1e-11
            ratios[positive] = xb[positive] / direction[positive]
            leaving_pos = int(np.argmin(ratios))
            if not np.isfinite(ratios[leaving_pos]):
                return "unbounded"
            if ratios[leaving_pos] <= tol:
                degenerate_run += 1
                if degenerate_run >= DEGENERATE_STREAK:
                    bland = True
            else:
                degenerate_run = 0
                if not bland_from_start:
                    bland = False
            if not self.pivot(entering, leaving_pos):
                if not self.refactor():
                    return "singular"
                continue
        return "cycling"


def _warm_positions(lp: LinearProgram, active: list[int], m: int):
    """Positions in the equality system of the stored basis, or None when
    there is none or it no longer names m distinct live columns."""
    if lp._basis is None or len(lp._basis) != m:
        return None
    pos_of = {j: pos for pos, j in enumerate(active)}
    cols = []
    for kind, ident in lp._basis:
        if kind == "c":
            if ident not in pos_of:
                return None
            cols.append(pos_of[ident])
        elif 0 <= ident < m:
            cols.append(len(active) + ident)
        else:
            return None
    return cols if len(set(cols)) == m else None


def _attempt(lp: LinearProgram, bland: bool):
    active, E, d, cost, flip = _dense(lp)
    m, n_total = E.shape
    n = len(active)
    piv = _Pivoter(E, d)

    cols = _warm_positions(lp, active, m)
    if cols is None or not piv.set_basis(cols) or not np.all(piv.xb() >= -1e-7):
        # phase 1 with one artificial per row
        E = np.hstack([E, np.eye(m)])
        piv = _Pivoter(E, d)
        piv.set_basis(list(range(n_total, n_total + m)))
        cost1 = np.zeros(n_total + m)
        cost1[n_total:] = 1.0
        status = piv.run(cost1, np.ones(n_total + m, dtype=bool), bland)
        if status in ("singular", "cycling"):
            return None
        phase1_value = float(cost1[piv.basis] @ piv.xb())
        if phase1_value > 1e-7:
            return LpResult(INFEASIBLE)
        # drive basic artificials out where possible
        for pos in range(m):
            if piv.basis[pos] >= n_total:
                row = piv.binv[pos, :] @ E[:, :n_total]
                pivot_col = next(
                    (jj for jj in range(n_total) if abs(row[jj]) > 1e-9), None
                )
                if pivot_col is not None:
                    piv.pivot(pivot_col, pos)
        cost = np.concatenate([cost, np.zeros(m)])

    # phase 2; after a cold start the artificials may not re-enter
    status = piv.run(cost, np.arange(E.shape[1]) < n_total, bland)
    if status in ("singular", "cycling"):
        return None
    if status == "unbounded":
        return LpResult(UNBOUNDED)

    xb = piv.xb()
    x = np.zeros(E.shape[1])
    x[piv.basis] = xb
    y = cost[piv.basis] @ piv.binv

    # KKT audit: primal feasibility, dual feasibility, duality gap
    if np.any(x[:n_total] < -1e-7):
        return None
    if np.any(np.abs(x[n_total:]) > 1e-7):
        return None  # an artificial kept a nonzero value past phase 1
    residual = E[:, :n_total] @ x[:n_total]
    scale = 1.0 + float(np.max(np.abs(d))) if m else 1.0
    if m and np.max(np.abs(residual - d)) > 1e-7 * scale:
        return None
    rc = cost - y @ E
    if np.any(rc[: n_total] < -1e-6):
        return None
    obj = float(cost @ x)
    dual_obj = float(y @ d)
    if abs(obj - dual_obj) > KKT_REL * (1.0 + abs(obj)):
        return None

    primal = {j: 0.0 for j in range(lp.column_count)}
    for pos, j in enumerate(active):
        primal[j] = float(x[pos]) if abs(x[pos]) > ZERO_TOL else 0.0
    duals = {}
    for i in range(m):
        value = float(y[i] * flip[i])
        duals[i] = value if abs(value) > ZERO_TOL else 0.0

    tags: list[tuple[str, int]] = []
    for b in piv.basis:
        if b < n:
            tags.append(("c", active[b]))
        elif b < n_total:
            tags.append(("s", b - n))
        else:
            tags.append(("s", b - n_total))  # artificial stuck at zero: remember its row slack
    lp._basis = tags
    return LpResult(OPTIMAL, primal, duals, obj)


def solve_lp(lp: LinearProgram) -> LpResult:
    """Solve to proven optimality, infeasibility, or unboundedness.

    Tries a warm start from the stored basis, then a cold two-phase run,
    then a cold run under Bland's rule; NumericalFailure if all three fail
    the audit.
    """
    if lp.row_count == 0:
        return LpResult(OPTIMAL, {j: 0.0 for j in range(lp.column_count)}, {}, 0.0)
    for bland in (False, False, True):
        result = _attempt(lp, bland)
        if result is not None:
            return result
        lp._basis = None
    raise NumericalFailure("simplex failed the optimality audit")
