"""Bounded-variable dual and primal simplex on dense numpy arrays.

Solves   min c @ x   s.t.  A x {<=,>=,==} b,  lb <= x <= ub.

Each row gets a logical (slack) column so the working system is
[A | I] v = b with bound intervals encoding the row sense:

    <=  row:  slack in [0, +inf)
    >=  row:  slack in (-inf, 0]
    ==  row:  slack fixed at 0

Only the structural part of the basis inverse is stored.  A basic slack
covers its own row: the inverse's column of that row is the unit vector at
the slack's basis position, so it is never stored.  With the k rows that
have no basic slack in `rows_s`, the inverse is kept as `binv_s`, its m x k
block of those rows' columns, next to `slack_pos`, the basis position of
each row's slack (-1 when it is not basic).  Every product with the inverse
(pricing, the dual ratio row, FTRAN, the basic values) and every pivot then
costs O(m k) instead of O(m^2), and a DR-CCP basis is mostly slacks.  A
pivot applies the rank-one update  binv_s -= outer(w, row)  in place.
Before it, a leaving slack's row stores its unit column, which the update
makes dense, and an entering slack's row drops its column, which the update
would make a unit vector (the last column moves into the hole, since the
order of `rows_s` is free).  Every REFACTOR_INTERVAL pivots the block is
rebuilt from the basis's structural block: only the k x k block of the k
basic structurals on `rows_s` is inverted, at O(k^3 + (m - k) k^2) instead
of O(m^3).  A block whose inverse misses the identity by more than
FACTOR_TOL counts as singular.

A basic variable counts as violating when it lies more than FEAS_TOL
outside a bound.  `solve` starts with the bounded dual simplex when some
basic violates a bound and the starting basis is dual feasible (no column
prices in under the phase-2 reduced costs).  That is the state a branching
bound or an appended cut row leaves the previous optimal basis in, so a
node or a post-cut re-solve reloads it and runs dual iterations: the most
violating basic leaves at the bound it violates, and the entering column
keeps the reduced costs dual feasible.  A row with no entering column
beyond PIVOT_TOL proves the LP infeasible and is returned as the Farkas row.

The primal loop then confirms optimality, and it is the whole solve for a
start that is not dual feasible or that violates no bound; it also cleans
up after more than _DEGEN_STREAK degenerate dual steps in a row.  Its one
violation test per iteration starts and ends phase 1, gives the phase-1
costs (-1 below, +1 above) and tells the ratio test which bound each basic
blocks at; with no violating basic the iteration is a phase-2 one.  Phase 1
minimizes the total bound violation of basic variables (no artificial
columns), so any starting basis is a valid warm start.  Both loops change
the basis through one `_pivot` routine and draw on one budget of
`max_iter` iterations; at the cap they raise SimplexStall.

A warm start installs its stored basis directly: `load_state` sets the basis
and builds the inverse from its structural block, as above, with no pivots
towards it; the solve that follows recomputes the primal values.  A
singular basis, whether installed or found at a periodic refactorization,
is rebuilt from the slack basis by greedy pivots that keep as many of its
columns as possible.

Each iteration makes few numpy calls, since at these sizes their overhead,
not the arithmetic, sets the time.  The entering choices of both loops read
two move masks (nonbasics that may rise, nonbasics that may fall), which
`solve` computes once and then updates one entry per status change.  The
primal ratio test is one blocking-bound formula over all basics, and the
FTRAN column of a slack is read straight from `binv_s`.

State edits (`reset_basis`, `load_state`, `add_row`, `set_bound`) only touch
the basis, the statuses and the bounds.  `solve` settles every status
against the bounds and recomputes the primal values once, when it starts,
so `set_bound` only writes the bounds.

Determinism: Dantzig pricing and the dual ratio test break ties by pivot
size, then by lowest index; the primal loop switches to Bland's rule after a
run of degenerate steps; no randomness, no wall-clock dependence.
Identical inputs replay the identical pivot sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DUAL_PIVOT_TOL, DUAL_TOL, FACTOR_TOL, FEAS_TOL, PIVOT_TOL, REFACTOR_INTERVAL

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
            _slack_bounds(s)

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
    iterations: int = 0  # primal and dual
    dual_iterations: int = 0
    basis: np.ndarray = None
    ray: np.ndarray = None
    farkas: np.ndarray = None


def _slack_bounds(sense):
    """Bounds of the slack s = b - a x of a row with this sense."""
    if sense == "<=":
        return 0.0, math.inf
    if sense == ">=":
        return -math.inf, 0.0
    if sense == "==":
        return 0.0, 0.0
    raise ValueError(f"unknown sense {sense!r}")


class SimplexSolver:
    """Stateful solver: supports warm starts, row addition and bound edits."""

    def __init__(self, problem: LpProblem):
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
        self.total_pivots = 0
        self._pivots_since_refactor = 0
        self._binv_buf = np.empty((self.m, 0), order="F")  # binv_s and room to grow
        self._rows_buf = np.empty(self.m, dtype=np.intp)  # rows_s and room to grow
        self._set_k(0)
        self.reset_basis()

    # -- state management ---------------------------------------------------

    @property
    def nt(self):
        return self.n + self.m

    def reset_basis(self):
        """Cold start: all slacks basic, structurals at a finite bound."""
        self.basis = np.arange(self.n, self.n + self.m)
        self.stat = self._settled(np.full(self.nt, ST_BASIC, dtype=np.int8))
        self._factor()

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

    def _set_k(self, k):
        """Point `binv_s` and `rows_s` at the first k stored columns."""
        self.binv_s = self._binv_buf[:, :k]
        self.rows_s = self._rows_buf[:k]

    def _binv_times(self, v):
        """B^-1 @ v: the stored columns times v on rows_s, plus v on each
        covered row at its slack's position."""
        at_slack = np.zeros(self.m + 1)
        at_slack[self.slack_pos] = v  # rows_s land on the last entry, dropped
        w = self.binv_s @ v[self.rows_s]
        w += at_slack[:-1]
        return w

    def _btran(self, cb):
        """cb @ B^-1: a covered row takes the entry of its slack's position."""
        y = cb[self.slack_pos]  # rows_s read cb[-1] here and are overwritten
        y[self.rows_s] = cb @ self.binv_s
        return y

    def _col(self, row):
        """Index of the stored column of a row without a basic slack."""
        return int((self.rows_s == row).argmax())

    def _ftran(self, j):
        """B^-1 @ (column j of [A | I]): a slack's is its row's column of
        the inverse, stored unless the slack is basic."""
        if j < self.n:
            return self._binv_times(self.A[:, j])
        pos = self.slack_pos[j - self.n]
        if pos < 0:
            return self.binv_s[:, self._col(j - self.n)].copy()
        w = np.zeros(self.m)
        w[pos] = 1.0
        return w

    def _moves(self):
        """Masks of the nonbasic columns with room to rise (at a lower bound
        or free) and to fall (at an upper bound or free)."""
        movable, stat = self.ub - self.lb > 0, self.stat
        self._up = movable & ((stat == ST_LOWER) | (stat == ST_FREE))
        self._dn = movable & ((stat == ST_UPPER) | (stat == ST_FREE))

    def _set_stat(self, j, s):
        """Set one status and its entries of the move masks."""
        self.stat[j] = s
        movable = self.ub[j] - self.lb[j] > 0
        self._up[j] = movable and s in (ST_LOWER, ST_FREE)
        self._dn[j] = movable and s in (ST_UPPER, ST_FREE)

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
        self.xval[self.basis] = self._binv_times(rhs)

    def get_state(self):
        return self.basis.copy(), self.stat.copy()

    def load_state(self, basis, stat):
        """Warm start from a stored (basis, status) pair.

        The state must have the solver's current shape: one captured before
        `add_row` is rejected with a ValueError, and nothing changes.
        Statuses are normalized against the current bounds, so the caller may
        have tightened bounds since the state was captured.  A stored basis
        that differs from the current one is installed as it is, its inverse
        built by one block refactorization (`_factor`) with no pivots; the
        basic values are left to the next `solve`, which recomputes them.
        """
        basis = np.array(basis, dtype=int)  # a copy: pivots edit self.basis in place
        stat = np.asarray(stat, dtype=np.int8)
        if basis.size != self.m or stat.size != self.nt:
            raise ValueError("stored basis does not match solver shape")
        if not np.array_equal(basis, self.basis):
            self.basis = basis
            self._factor()
        # columns the repair of a singular basis left out rest at a bound
        self.stat = self._settled(stat)

    def _update_binv(self, w, pos, q):
        """Column q, with FTRAN column w, replaces the basic at `pos`.

        An entering slack's row drops its stored column, which the pivot
        turns into the unit vector at `pos`; a leaving slack's row stores its
        unit column e_pos, which the pivot turns dense.  Then every stored
        column takes the rank-one update.
        """
        k = self.rows_s.size
        if q >= self.n:
            c, k = self._col(q - self.n), k - 1
            self._binv_buf[:, c] = self._binv_buf[:, k]
            self._rows_buf[c] = self._rows_buf[k]
            self._set_k(k)
            self.slack_pos[q - self.n] = pos
        leaving = int(self.basis[pos])
        if leaving >= self.n:
            self._reserve(k + 1)
            self._binv_buf[:, k] = 0.0
            self._binv_buf[pos, k] = 1.0
            self._rows_buf[k] = leaving - self.n
            self._set_k(k + 1)
            self.slack_pos[leaving - self.n] = -1
        row = self.binv_s[pos] / w[pos]
        # outer(row, w).T is laid out like binv_s, columns contiguous
        self.binv_s -= np.multiply.outer(row, w).T
        self.binv_s[pos] = row
        self.basis[pos] = q

    def _reserve(self, k):
        """Room for k stored columns, keeping the current ones: a full
        buffer is replaced by one of twice the room, up to m columns.  (A
        reallocation per added column ran slower on the grid workloads.)"""
        if self._binv_buf.shape[1] >= k:
            return
        buf = np.empty((self.m, min(self.m, max(2 * k, 8))), order="F")
        kept = self.rows_s.size
        buf[:, :kept] = self.binv_s
        self._binv_buf = buf
        self._set_k(kept)

    def _count_pivot(self):
        self.total_pivots += 1
        self._pivots_since_refactor += 1
        if self._pivots_since_refactor >= REFACTOR_INTERVAL:
            self._refactor()

    def _refactor(self):
        """Rebuild the inverse (`_factor`) and recompute the primal values."""
        self._factor()
        self._recompute_values()

    def _factor(self):
        """Build `binv_s` from the structural block of the basis.

        With the positions S of the k basic structurals, the positions L of
        the basic slacks and their rows R_L, the basis is block triangular
        after a permutation; the rows R_S without a basic slack carry the
        k x k block A[R_S, cols_S], and only that block is inverted.  The
        inverse's columns of R_S are that inverse on S and
        -A[R_L, cols_S] @ inv on L, and they are stored as `binv_s` as they
        are computed; the columns of R_L are unit vectors and are not.  A
        block that `inv` rejects, or whose inverse misses the identity by
        more than FACTOR_TOL, is singular and hands the basis to
        `_repair_basis`.
        """
        struct = self.basis < self.n
        pos_s, pos_l = np.flatnonzero(struct), np.flatnonzero(~struct)
        rows_l = self.basis[pos_l] - self.n
        slack_pos = np.full(self.m, -1)
        slack_pos[rows_l] = pos_l
        rows_s = np.flatnonzero(slack_pos < 0)
        a_s = self.A[:, self.basis[pos_s]]
        a_ss = a_s[rows_s]
        try:
            inv_ss = np.linalg.inv(a_ss)
        except np.linalg.LinAlgError:
            inv_ss = None
        k = rows_s.size
        if inv_ss is None or (k and np.abs(a_ss @ inv_ss - np.eye(k)).max() > FACTOR_TOL):
            self._repair_basis()
        else:
            self.slack_pos = slack_pos
            self._reserve(k)
            self._binv_buf[pos_s, :k] = inv_ss
            self._binv_buf[pos_l, :k] = a_s[rows_l] @ -inv_ss
            self._rows_buf[:k] = rows_s
            self._set_k(k)
        self._pivots_since_refactor = 0

    def _repair_basis(self):
        """Replace a singular basis by a nonsingular one that keeps as many
        of its columns as possible, slacks in the gaps.

        From the slack basis, each basic structural in turn pivots in on the
        free slack position with the largest pivot (above 1e-7); one with no
        such pivot depends on those already in and stays out.  A slack that
        was basic keeps its own row.  The pivots count in `total_pivots` but
        never trigger a refactorization, as the statuses are not settled
        until the repair ends.
        """
        wanted = self.basis.copy()
        self.basis = np.arange(self.n, self.n + self.m)
        self._factor()  # the slack basis stores no column
        replaceable = np.ones(self.m, dtype=bool)  # by basis position
        replaceable[wanted[wanted >= self.n] - self.n] = False
        for col in wanted[wanted < self.n]:
            if not replaceable.any():
                break
            w = self._ftran(int(col))
            score = np.where(replaceable, np.abs(w), 0.0)
            pick = int(score.argmax())
            if score[pick] <= 1e-7:
                continue
            self._update_binv(w, pick, int(col))
            replaceable[pick] = False
            self.total_pivots += 1
        self.stat = self._settled(self.stat)
        self._moves()

    # -- mutations ----------------------------------------------------------

    def set_bound(self, j, lb, ub):
        """New bounds on structural column j.  NaN, lb > ub and an infinite
        fixed value (lb = +inf or ub = -inf) are rejected."""
        if j >= self.n:
            raise IndexError("cannot rebound a slack column")
        if not lb <= ub or lb == math.inf or ub == -math.inf:
            raise ValueError(f"invalid bounds [{lb}, {ub}] on column {j}")
        self.lb[j] = lb
        self.ub[j] = ub

    def add_row(self, coefs, sense, rhs):
        """Append one row, given as a dense length-n vector; its slack joins
        the basis, preserving warm state.  An unknown sense or a non-finite
        coefficient or rhs is rejected before anything changes.

        The new row is covered by its slack, so the inverse gains no stored
        column: `binv_s` gains the row -(a_B @ binv_s), where a_B holds the
        row's coefficients on the basic columns."""
        dense = np.array(coefs, dtype=float)
        if dense.shape != (self.n,):
            raise ValueError("coefs must be a dense length-n vector")
        if not (np.isfinite(dense).all() and math.isfinite(rhs)):
            raise ValueError("row coefficients and rhs must be finite")
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
        k = self.rows_s.size
        buf = np.empty((self.m, self._binv_buf.shape[1]), order="F")
        buf[:m_old, :k] = self.binv_s
        buf[m_old, :k] = -(a_basic @ self.binv_s)
        self._binv_buf = buf
        self._rows_buf = np.append(self._rows_buf, 0)
        self._set_k(k)
        self.slack_pos = np.append(self.slack_pos, m_old)
        self.basis = np.append(self.basis, self.n + m_old)

    # -- solve --------------------------------------------------------------

    def _eligible_entering(self, d, bland):
        """Entering column and direction (+1 rises, -1 falls), or (-1, 0).

        The score of a column is the reduced-cost gain of its allowed moves,
        |d| exactly for every eligible column and at most DUAL_TOL for the
        rest: Dantzig takes the first largest, Bland the first eligible.
        """
        score = np.maximum(np.where(self._up, -d, 0.0), np.where(self._dn, d, 0.0))
        q = int((score > DUAL_TOL if bland else score).argmax())
        if score[q] <= DUAL_TOL:
            return -1, 0
        return q, 1 if d[q] < 0 else -1

    def solve(self, max_iter=None) -> LpSolution:
        """Optimize from the current basis: the dual loop first, when it
        applies, then the primal loop, on one budget of `max_iter`
        iterations between them."""
        if max_iter is None:
            max_iter = max(5000, 60 * (self.m + self.n))
        self.stat = self._settled(self.stat)
        self._recompute_values()
        self._moves()
        c_pad = np.concatenate([self.c, np.zeros(self.m)])
        dual_iters, sol = self._dual(c_pad, max_iter)
        if sol is None:
            sol = self._primal(c_pad, max_iter, dual_iters)
        sol.dual_iterations = dual_iters
        return sol

    def _dual(self, c_pad, max_iter):
        """Bounded dual simplex, run while some basic violates a bound and
        the starting basis is dual feasible.

        Each iteration the basic with the largest violation (the first, on
        ties) leaves at the bound it violates.  `y` is its row of the
        inverse, negated when it lies below its lower bound, so that raising
        column j of [A | I] moves it toward that bound exactly when
        y @ a_j > 0: the phase-1 pricing of this one violation.  A column
        that may rise is eligible where y @ a_j > DUAL_PIVOT_TOL, one that
        may fall where y @ a_j < -DUAL_PIVOT_TOL.  The entering column keeps
        the reduced costs dual feasible: the least |d_j| / |y @ a_j|, ties to
        the largest |y @ a_j|, then the lowest index.  With no column beyond
        PIVOT_TOL the basic cannot reach its bound and `y` certifies the LP
        infeasible; with some, but none beyond DUAL_PIVOT_TOL, the row is
        priced again from a refactorized inverse, where PIVOT_TOL suffices.

        Returns (iterations, solution).  The solution is None when the
        primal loop takes over: the basis is primal feasible (the primal
        loop confirms optimality), the start is not dual feasible, or more
        than _DEGEN_STREAK dual steps in a row were degenerate.
        """
        iters = degen_streak = 0
        while self.m:  # a basis of no rows violates nothing
            xb = self.xval[self.basis]
            lo, hi = self.lb[self.basis], self.ub[self.basis]
            viol = np.maximum(lo - xb, xb - hi)
            r = int(viol.argmax())
            if viol[r] <= FEAS_TOL:
                break
            yb = self._btran(c_pad[self.basis])
            d = np.concatenate([self.c - yb @ self.A, -yb])
            if iters == 0 and self._eligible_entering(d, False)[0] >= 0:
                break
            if iters > max_iter:
                raise SimplexStall(f"iteration cap {max_iter} exceeded")
            iters += 1

            below = xb[r] < lo[r]
            e_r = np.zeros(self.m)
            e_r[r] = -1.0 if below else 1.0
            y = self._btran(e_r)
            gamma = np.concatenate([y @ self.A, y])
            score = np.maximum(np.where(self._up, gamma, 0.0), np.where(self._dn, -gamma, 0.0))
            eligible = score > DUAL_PIVOT_TOL
            if not eligible.any():
                eligible = score > PIVOT_TOL
                if not eligible.any():
                    return iters, self._infeasible_solution(y, iters)
                if self._pivots_since_refactor:
                    # the tiny entries may be drift in the updated inverse
                    self._refactor()
                    continue
            ratios = np.full(self.nt, math.inf)
            np.divide(np.abs(d), score, out=ratios, where=eligible)
            tmin = ratios.min()
            q = int(np.where(ratios <= tmin + 1e-12, score, 0.0).argmax())
            degen_streak = degen_streak + 1 if tmin <= 1e-11 else 0

            w = self._ftran(q)
            bound = lo[r] if below else hi[r]
            self._pivot(q, r, w, (xb[r] - bound) / w[r], not below)
            if degen_streak > _DEGEN_STREAK:
                break
        return iters, None

    def _primal(self, c_pad, max_iter, iters):
        """Primal simplex from the current basis, phase 1 while some basic
        violates a bound; `iters` iterations of the budget are spent."""
        bland = False
        degen_streak = 0
        phase_one = False
        while True:
            if iters > max_iter:
                raise SimplexStall(f"iteration cap {max_iter} exceeded")
            iters += 1

            xb = self.xval[self.basis]
            lo, hi = self.lb[self.basis], self.ub[self.basis]
            below, above = xb < lo - FEAS_TOL, xb > hi + FEAS_TOL
            if below.any() or above.any():
                # phase-1 costs are zero off the basis; basic columns are
                # never eligible, so their entries of d do not matter
                phase_one = True
                yb = self._btran(above.astype(float) - below)
                d = -np.concatenate([yb @ self.A, yb])
            elif phase_one:
                phase_one = False
                bland = False
                degen_streak = 0
                continue
            else:
                yb = self._btran(c_pad[self.basis])
                d = np.concatenate([self.c - yb @ self.A, -yb])

            q, sigma = self._eligible_entering(d, bland)
            if q < 0:
                if phase_one:
                    return self._infeasible_solution(yb, iters)
                return self._optimal_solution(yb, d, iters)

            w = self._ftran(q)
            step, pos, to_upper, flip = self._ratio(q, sigma, w, xb, lo, hi, below, above, bland)
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
                at_lower = self.stat[q] == ST_LOWER
                self._set_stat(q, ST_UPPER if at_lower else ST_LOWER)
                self.xval[q] = self.ub[q] if at_lower else self.lb[q]
                continue
            self._pivot(q, pos, w, sigma * step, to_upper)

    def _pivot(self, q, pos, w, theta, to_upper):
        """Column q enters the basis at `pos`, its value moved by `theta` and
        the basics by -theta * w; the leaving column rests at its upper bound
        if `to_upper`, else at its lower one."""
        leaving = int(self.basis[pos])
        self.xval[self.basis] -= theta * w
        self.xval[q] += theta
        self.xval[leaving] = self.ub[leaving] if to_upper else self.lb[leaving]
        self._set_stat(leaving, ST_UPPER if to_upper else ST_LOWER)
        self._set_stat(q, ST_BASIC)
        self._update_binv(w, pos, q)
        self._count_pivot()

    def _ratio(self, q, sigma, w, xb, lo, hi, below, above, bland):
        """Blocking step for the entering variable, given this iteration's
        basic values `xb`, their bounds and violation masks.  A violating
        basic blocks where it reaches the bound it violates, any other where
        it leaves its bounds.

        Returns (step, position, leaving_to_upper, bound_flip); step is None
        when nothing blocks.
        """
        delta = sigma * w
        dec, inc = delta > PIVOT_TOL, delta < -PIVOT_TOL
        if below.any() or above.any():
            # a violating basic keeps only the bound it violates (finite)
            lo, hi = (np.where(above, hi, np.where(below, -math.inf, lo)),
                      np.where(below, lo, np.where(above, math.inf, hi)))
        # a falling basic blocks at lo, a rising one at hi (+inf if infinite)
        steps = np.full(self.m, math.inf)
        np.divide(xb - np.where(dec, lo, hi), delta, out=steps, where=dec | inc)
        np.maximum(steps, 0.0, out=steps)
        smin = float(steps.min()) if steps.size else math.inf
        own_range = self.ub[q] - self.lb[q]
        if own_range <= smin:
            if not math.isfinite(own_range):
                return None, -1, False, False
            return own_range, -1, False, True
        if not math.isfinite(smin):
            return None, -1, False, False
        idxs = (steps <= smin + 1e-12).nonzero()[0]
        if len(idxs) == 1:
            pos = int(idxs[0])
        elif bland:
            # pure lowest-variable-index tie-break (anti-cycling)
            pos = int(idxs[self.basis[idxs].argmin()])
        else:
            wb = np.abs(w[idxs])
            best = wb.max()
            cand = idxs[wb >= best - 1e-12]
            # prefer the largest pivot element, then the lowest variable index
            pos = int(cand[self.basis[cand].argmin()])
        return smin, pos, bool(above[pos] if dec[pos] else not below[pos]), False

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
        )

    def _infeasible_solution(self, yb, iters):
        return LpSolution(
            status="infeasible",
            iterations=iters,
            farkas=yb.copy(),
            basis=self.basis.copy(),
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
        )


def solve_lp(problem: LpProblem) -> LpSolution:
    return SimplexSolver(problem).solve()
