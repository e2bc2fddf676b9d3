"""Bounded-variable primal simplex on dense numpy arrays.

Solves   min c @ x   s.t.  A x {<=,>=,==} b,  lb <= x <= ub.

Each row gets a logical (slack) column so the working system is
[A | I] v = b with bound intervals encoding the row sense:

    <=  row:  slack in [0, +inf)
    >=  row:  slack in (-inf, 0]
    ==  row:  slack fixed at 0

The basis inverse is kept explicitly as a dense C-ordered m x m array.  A
pivot applies the rank-one update  binv -= outer(w, row)  in place, only on
the columns where the pivot row is nonzero.  The skipped entries would
subtract an exact zero, so the update is bit-identical to the full one (up to
the sign of a zero).  The inverse is
rebuilt from scratch every REFACTOR_INTERVAL pivots.  Phase 1 minimizes the
total bound violation of basic variables (no artificial columns), which lets
any starting basis act as a warm start: after adding a cut row or tightening
a branching bound the previous basis is simply reloaded and re-optimized.
State edits (`reset_basis`, `load_state`, `add_row`, `set_bound`) only touch
the basis and the statuses; the primal values are recomputed once, when
`solve` starts.

Determinism: Dantzig pricing with lowest-index tie-breaks, switching to
Bland's rule after a run of degenerate steps; no randomness, no wall-clock
dependence.  Identical inputs replay the identical pivot sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DUAL_TOL, FEAS_TOL, PIVOT_TOL, REFACTOR_INTERVAL

ST_LOWER, ST_UPPER, ST_BASIC, ST_FREE = 0, 1, 2, 3

_DEGEN_STREAK = 40  # degenerate pivots tolerated before switching to Bland


class SimplexStall(RuntimeError):
    """Raised when the iteration cap is hit without reaching optimality."""


@dataclass
class LpProblem:
    """Dense LP data.  Senses are '<=', '>=' or '=='."""

    c: np.ndarray
    A: np.ndarray
    senses: list
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        self.A = np.asarray(self.A, dtype=float).reshape(-1, n)
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        self.lb = np.atleast_1d(np.asarray(self.lb, dtype=float))
        self.ub = np.atleast_1d(np.asarray(self.ub, dtype=float))
        self.senses = list(self.senses)
        if len(self.senses) != self.A.shape[0] or self.b.size != self.A.shape[0]:
            raise ValueError("row count mismatch")
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound length mismatch")
        for s in self.senses:
            if s not in ("<=", ">=", "=="):
                raise ValueError(f"unknown sense {s!r}")

    @property
    def num_rows(self):
        return self.A.shape[0]

    @property
    def num_cols(self):
        return self.c.size


@dataclass
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray = None
    objective: float = math.nan
    duals: np.ndarray = None
    reduced_costs: np.ndarray = None
    iterations: int = 0
    basis: np.ndarray = None
    var_status: np.ndarray = None
    ray: np.ndarray = None
    farkas: np.ndarray = None


def _pick_row(w, allowed, tol):
    """First position with the largest |w| among `allowed`, if above `tol`."""
    score = np.where(allowed, np.abs(w), 0.0)
    i = int(np.argmax(score))
    return i if score[i] > tol else -1


def _slack_bounds(sense):
    if sense == "<=":
        return 0.0, math.inf
    if sense == ">=":
        return -math.inf, 0.0
    return 0.0, 0.0


class SimplexSolver:
    """Stateful solver: supports warm starts, row addition and bound edits."""

    def __init__(self, problem: LpProblem, record_pivots: bool = False):
        self.m = problem.num_rows
        self.n = problem.num_cols
        self.A = np.array(problem.A, dtype=float, order="F")
        self.b = problem.b.copy()
        self.c = problem.c.copy()
        nt = self.n + self.m
        self.lb = np.empty(nt)
        self.ub = np.empty(nt)
        self.lb[: self.n] = problem.lb
        self.ub[: self.n] = problem.ub
        for i, sense in enumerate(problem.senses):
            self.lb[self.n + i], self.ub[self.n + i] = _slack_bounds(sense)
        self.record_pivots = record_pivots
        self.pivot_log = []
        self.total_pivots = 0
        self._pivots_since_refactor = 0
        self.reset_basis()

    # -- state management ---------------------------------------------------

    @property
    def nt(self):
        return self.n + self.m

    def reset_basis(self):
        """Cold start: all slacks basic, structurals at a finite bound."""
        self.basis = np.arange(self.n, self.n + self.m)
        self.stat = self._settled(np.full(self.nt, ST_BASIC, dtype=np.int8))
        self.binv = np.eye(self.m)
        self._pivots_since_refactor = 0

    def _settled(self, stat):
        """`stat` made consistent with the basis and the bounds.

        Basic columns get ST_BASIC.  Any other column keeps its status when
        that bound is finite (ST_FREE only when both are infinite); otherwise
        it rests at its lower bound, else its upper bound, else free.
        """
        in_basis = np.zeros(self.nt, dtype=bool)
        in_basis[self.basis] = True
        lo, hi = np.isfinite(self.lb), np.isfinite(self.ub)
        keep = (((stat == ST_LOWER) & lo) | ((stat == ST_UPPER) & hi)
                | ((stat == ST_FREE) & ~(lo | hi)))
        resting = np.where(lo, ST_LOWER, np.where(hi, ST_UPPER, ST_FREE))
        return np.where(in_basis, ST_BASIC, np.where(keep, stat, resting)).astype(np.int8)

    def _column(self, j):
        if j < self.n:
            return self.A[:, j]
        col = np.zeros(self.m)
        col[j - self.n] = 1.0
        return col

    def _recompute_values(self):
        stat = self.stat
        self.xval = np.where(stat == ST_LOWER, self.lb,
                             np.where(stat == ST_UPPER, self.ub, 0.0))
        rhs = self.b.copy()
        vals = self.xval[: self.n]
        cols = np.flatnonzero((stat[: self.n] != ST_BASIC) & (vals != 0.0))
        if cols.size:
            rhs -= self.A[:, cols] @ vals[cols]
        # nonbasic slacks always rest at 0, so they drop out of the rhs
        self.xval[self.basis] = self.binv @ rhs

    def get_state(self):
        return self.basis.copy(), self.stat.copy()

    def load_state(self, basis, stat):
        """Warm start from a stored (basis, status) pair.

        Statuses are normalized against the current bounds, so the caller may
        have tightened bounds since the state was captured.  If the stored
        basis differs from the current one the inverse is retargeted with
        rank-one pivots rather than rebuilt.
        """
        basis = np.asarray(basis, dtype=int)
        stat = np.asarray(stat, dtype=np.int8)
        if stat.size < self.nt:
            # rows were appended after this state was captured; their slacks
            # join the basis, exactly as add_row would have left them
            m_then = stat.size - self.n
            if m_then < 0 or basis.size != m_then:
                raise ValueError("stored basis does not match solver shape")
            extra = np.arange(self.n + m_then, self.nt)
            basis = np.concatenate([basis, extra])
            stat = np.concatenate([stat, np.full(extra.size, ST_BASIC, dtype=np.int8)])
        elif stat.size != self.nt:
            raise ValueError("stored status vector does not match solver shape")
        if basis.size != self.m:
            raise ValueError("stored basis does not match solver shape")
        if not np.array_equal(basis, self.basis):
            self._retarget_basis(basis)
        # columns we could not make basic fall back to a bound
        self.stat = self._settled(stat)

    def _normalize_status(self, j, s):
        """`_settled` for one nonbasic column, without the array overhead."""
        lo, hi = math.isfinite(self.lb[j]), math.isfinite(self.ub[j])
        if (s == ST_LOWER and lo) or (s == ST_UPPER and hi) or (s == ST_FREE and not (lo or hi)):
            return s
        return ST_LOWER if lo else ST_UPPER if hi else ST_FREE

    def _retarget_basis(self, target):
        in_target = np.zeros(self.nt, dtype=bool)
        in_target[target] = True
        in_current = np.zeros(self.nt, dtype=bool)
        in_current[self.basis] = True
        missing = target[~in_current[target]]
        replaceable = ~in_target[self.basis]  # by basis position
        for col in missing:
            if not replaceable.any():
                break
            w = self.binv @ self._column(int(col))
            pick = _pick_row(w, replaceable, PIVOT_TOL)
            if pick < 0:
                continue  # dependent column; keep the incumbent basic there
            self._update_binv(w, pick)
            self.basis[pick] = int(col)
            replaceable[pick] = False
            self._count_pivot()

    def _update_binv(self, w, row_out):
        row = self.binv[row_out] / w[row_out]
        # columns where the pivot row is zero would subtract w * 0: skip them
        nz = np.flatnonzero(row)
        self.binv[:, nz] -= np.outer(w, row[nz])
        self.binv[row_out] = row

    def _count_pivot(self):
        self.total_pivots += 1
        self._pivots_since_refactor += 1
        if self._pivots_since_refactor >= REFACTOR_INTERVAL:
            self._refactor()

    def _refactor(self):
        cols = np.zeros((self.m, self.m))
        struct = self.basis < self.n
        cols[:, struct] = self.A[:, self.basis[struct]]
        slack = np.flatnonzero(~struct)
        cols[self.basis[slack] - self.n, slack] = 1.0
        try:
            self.binv = np.linalg.inv(cols)
        except np.linalg.LinAlgError:
            self._repair_basis()
        self._pivots_since_refactor = 0
        self._recompute_values()

    def _repair_basis(self):
        """Rebuild a nonsingular basis greedily, keeping as many of the
        current basic columns as possible (slacks fill the gaps)."""
        wanted = list(self.basis)
        self.basis = np.arange(self.n, self.n + self.m)
        self.binv = np.eye(self.m)
        taken = np.zeros(self.m, dtype=bool)
        for col in wanted:
            if col >= self.n:
                idx = col - self.n
                if not taken[idx] and int(self.basis[idx]) == col:
                    taken[idx] = True
                continue
            w = self.binv @ self._column(int(col))
            pick = _pick_row(w, ~taken, 1e-7)
            if pick < 0:
                continue
            self._update_binv(w, pick)
            self.basis[pick] = int(col)
            taken[pick] = True
        self.stat = self._settled(self.stat)

    # -- mutations ----------------------------------------------------------

    def set_bound(self, j, lb, ub):
        if j >= self.n:
            raise IndexError("cannot rebound a slack column")
        self.lb[j] = lb
        self.ub[j] = ub
        if self.stat[j] != ST_BASIC:
            self.stat[j] = self._normalize_status(j, self.stat[j])

    def add_row(self, coefs, sense, rhs):
        """Append one row; its slack joins the basis, preserving warm state.

        `coefs` is a dense length-n vector or a sparse iterable of
        (index, value) pairs.
        """
        dense = np.zeros(self.n)
        arr = np.asarray(coefs, dtype=float)
        if arr.ndim == 1 and arr.size == self.n:
            dense = arr.copy()
        elif arr.ndim == 2 and arr.shape[1] == 2:
            for j, val in arr:
                dense[int(j)] += float(val)
        else:
            raise ValueError("coefs must be a dense length-n vector or (index, value) pairs")
        slo, shi = _slack_bounds(sense)
        m_old = self.m
        self.A = np.asfortranarray(np.vstack([self.A, dense[None, :]]))
        self.b = np.append(self.b, float(rhs))
        self.lb = np.append(self.lb, slo)
        self.ub = np.append(self.ub, shi)
        self.stat = np.append(self.stat, np.int8(ST_BASIC))
        self.m = m_old + 1
        # the appended row needs its coefficient on every current basic column
        a_basic = np.zeros(m_old)
        struct = self.basis < self.n
        a_basic[struct] = dense[self.basis[struct]]
        new_binv = np.zeros((self.m, self.m))
        new_binv[:m_old, :m_old] = self.binv
        new_binv[m_old, :m_old] = -a_basic @ self.binv
        new_binv[m_old, m_old] = 1.0
        self.binv = new_binv
        self.basis = np.append(self.basis, self.n + m_old)

    # -- solve --------------------------------------------------------------

    def _infeasibility(self):
        xb = self.xval[self.basis]
        lo = self.lb[self.basis]
        hi = self.ub[self.basis]
        return np.sum(np.maximum(0.0, lo - xb)) + np.sum(np.maximum(0.0, xb - hi))

    def _price(self, costs):
        yb = costs[self.basis] @ self.binv
        d = np.empty(self.nt)
        d[: self.n] = costs[: self.n] - yb @ self.A
        d[self.n:] = costs[self.n:] - yb
        return yb, d

    def _eligible_entering(self, d, bland):
        stat = self.stat
        rng = self.ub - self.lb
        can_up = (stat == ST_LOWER) | (stat == ST_FREE)
        can_dn = (stat == ST_UPPER) | (stat == ST_FREE)
        movable = rng > 0
        up = can_up & movable & (d < -DUAL_TOL)
        dn = can_dn & movable & (d > DUAL_TOL)
        elig = up | dn
        if not np.any(elig):
            return -1, 0
        if bland:
            q = int(np.argmax(elig))  # first True = lowest index
        else:
            score = np.where(elig, np.abs(d), -1.0)
            q = int(np.argmax(score))
        sigma = 1 if up[q] else -1
        return q, sigma

    def solve(self, max_iter=None) -> LpSolution:
        if max_iter is None:
            max_iter = max(5000, 60 * (self.m + self.n))
        iters = 0
        bland = False
        degen_streak = 0
        self._recompute_values()

        phase_one = self._infeasibility() > FEAS_TOL
        while True:
            if iters > max_iter:
                raise SimplexStall(f"iteration cap {max_iter} exceeded")
            iters += 1

            if phase_one:
                infeas = self._infeasibility()
                if infeas <= FEAS_TOL:
                    phase_one = False
                    bland = False
                    degen_streak = 0
                    continue
                costs = np.zeros(self.nt)
                xb = self.xval[self.basis]
                below = xb < self.lb[self.basis] - FEAS_TOL
                above = xb > self.ub[self.basis] + FEAS_TOL
                costs[self.basis[below]] = -1.0
                costs[self.basis[above]] = 1.0
            else:
                costs = np.zeros(self.nt)
                costs[: self.n] = self.c

            yb, d = self._price(costs)
            q, sigma = self._eligible_entering(d, bland)
            if q < 0:
                if phase_one:
                    return self._infeasible_solution(yb, iters)
                return self._optimal_solution(yb, d, iters)

            w = self.binv @ self._column(q)
            step, pos, to_upper, flip = self._ratio(q, sigma, w, phase_one, bland)
            if step is None:
                # no blocking event
                if phase_one:
                    raise SimplexStall("phase-1 ratio test found no block")
                return self._unbounded_solution(q, sigma, w, iters)

            if step <= 1e-11:
                degen_streak += 1
                if degen_streak > _DEGEN_STREAK:
                    bland = True
            else:
                degen_streak = 0
                if not phase_one:
                    bland = False

            if flip:
                # entering variable runs to its opposite bound
                self.xval[self.basis] -= sigma * step * w
                if self.stat[q] == ST_LOWER:
                    self.stat[q] = ST_UPPER
                    self.xval[q] = self.ub[q]
                else:
                    self.stat[q] = ST_LOWER
                    self.xval[q] = self.lb[q]
                continue

            leaving = int(self.basis[pos])
            self.xval[self.basis] -= sigma * step * w
            self.xval[q] = self._entering_value(q, sigma, step)
            self.xval[leaving] = self.ub[leaving] if to_upper else self.lb[leaving]
            self.stat[leaving] = ST_UPPER if to_upper else ST_LOWER
            self.stat[q] = ST_BASIC
            self.basis[pos] = q
            if self.record_pivots:
                self.pivot_log.append((q, leaving))
            self._update_binv(w, pos)
            self._count_pivot()

    def _entering_value(self, q, sigma, step):
        if self.stat[q] == ST_LOWER:
            return self.lb[q] + step
        if self.stat[q] == ST_UPPER:
            return self.ub[q] - step
        return sigma * step  # free variables rest at zero

    def _ratio(self, q, sigma, w, phase_one, bland=False):
        """Blocking step for the entering variable.

        Returns (step, position, leaving_to_upper, bound_flip); step is None
        when nothing blocks.
        """
        xb = self.xval[self.basis]
        lo = self.lb[self.basis]
        hi = self.ub[self.basis]
        delta = sigma * w
        steps = np.full(self.m, math.inf)
        to_upper = np.zeros(self.m, dtype=bool)
        dec = delta > PIVOT_TOL
        inc = delta < -PIVOT_TOL
        if phase_one:
            below = xb < lo - FEAS_TOL
            above = xb > hi + FEAS_TOL
            inside = ~(below | above)
            sel = dec & inside & np.isfinite(lo)
            steps[sel] = (xb[sel] - lo[sel]) / delta[sel]
            sel2 = dec & above & np.isfinite(hi)
            steps[sel2] = (xb[sel2] - hi[sel2]) / delta[sel2]
            to_upper[sel2] = True
            sel3 = inc & inside & np.isfinite(hi)
            steps[sel3] = (hi[sel3] - xb[sel3]) / (-delta[sel3])
            to_upper[sel3] = True
            sel4 = inc & below & np.isfinite(lo)
            steps[sel4] = (lo[sel4] - xb[sel4]) / (-delta[sel4])
        else:
            sel = dec & np.isfinite(lo)
            steps[sel] = (xb[sel] - lo[sel]) / delta[sel]
            sel2 = inc & np.isfinite(hi)
            steps[sel2] = (hi[sel2] - xb[sel2]) / (-delta[sel2])
            to_upper[sel2] = True
        steps = np.maximum(steps, 0.0)
        smin = float(np.min(steps)) if steps.size else math.inf
        own_range = self.ub[q] - self.lb[q]
        if own_range <= smin:
            if not math.isfinite(own_range):
                return None, -1, False, False
            return own_range, -1, False, True
        if not math.isfinite(smin):
            return None, -1, False, False
        near = steps <= smin + 1e-12
        idxs = np.flatnonzero(near)
        if len(idxs) == 1:
            pos = int(idxs[0])
        elif bland:
            # pure lowest-variable-index tie-break (anti-cycling)
            pos = int(idxs[np.argmin(self.basis[idxs])])
        else:
            wb = np.abs(w[idxs])
            best = wb.max()
            cand = idxs[wb >= best - 1e-12]
            # prefer the largest pivot element, then the lowest variable index
            pos = int(cand[np.argmin(self.basis[cand])])
        return smin, pos, bool(to_upper[pos]), False

    # -- terminal states ----------------------------------------------------

    def _structural_solution(self):
        return self.xval[: self.n].copy()

    def _optimal_solution(self, yb, d, iters):
        x = self._structural_solution()
        return LpSolution(
            status="optimal",
            x=x,
            objective=float(self.c @ x),
            duals=yb.copy(),
            reduced_costs=d[: self.n].copy(),
            iterations=iters,
            basis=self.basis.copy(),
            var_status=self.stat.copy(),
        )

    def _infeasible_solution(self, yb, iters):
        return LpSolution(
            status="infeasible",
            iterations=iters,
            farkas=yb.copy(),
            basis=self.basis.copy(),
            var_status=self.stat.copy(),
        )

    def _unbounded_solution(self, q, sigma, w, iters):
        ray = np.zeros(self.nt)
        ray[q] = sigma
        ray[self.basis] = -sigma * w
        return LpSolution(
            status="unbounded",
            x=self._structural_solution(),
            iterations=iters,
            ray=ray[: self.n].copy(),
            basis=self.basis.copy(),
            var_status=self.stat.copy(),
        )


def solve_lp(problem: LpProblem, warm=None, record_pivots=False) -> LpSolution:
    solver = SimplexSolver(problem, record_pivots=record_pivots)
    if warm is not None:
        solver.load_state(*warm)
    sol = solver.solve()
    if record_pivots:
        sol.pivots = list(solver.pivot_log)
    return sol
