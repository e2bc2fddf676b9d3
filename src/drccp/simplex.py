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
each row's slack (-1 when it is not basic), `col_of`, the stored column of
each row (-1 when it is covered), and `a_s`, the k rows of A on `rows_s` in
the same order.  Every product with the inverse (pricing, FTRAN, the basic
values) and every pivot then costs O(m k) instead of
O(m^2), and a DR-CCP basis is mostly slacks.  Slacks cost nothing, so the
phase-2 duals are zero on every covered row: the reduced costs are
c - (cb @ binv_s) @ a_s, and the dual ratio row is a row of `binv_s` priced
through `a_s` (plus one row of A when the leaving basic is a slack), so
neither multiplies all m rows of A.  A pivot applies the rank-one
update  binv_s -= outer(w, row)  in place, written only on the rows where
the FTRAN column w is nonzero or only on the columns where `row` is
nonzero, whichever is fewer entries, as every other entry would keep its
value; on DR-CCP bases both are mostly zeros.  Before it, a leaving
slack's row stores its unit column, which the update makes dense, and its
row of A; an entering slack's row drops both, as the update would make its
column a unit vector (the last column moves into the hole, since the order
of `rows_s` is free).
`binv_s`, `rows_s` and `a_s` are views of buffers allocated once per row
count, at the min(m, n) columns that no basis exceeds, so no pivot or
refactorization allocates.  A refactorization rebuilds the block from the
basis's structural block: only the k x k block of the k basic structurals
on `rows_s` is inverted, at O(k^3 + (m - k) k^2) instead of O(m^3).  A
block whose inverse misses the identity by more than FACTOR_TOL counts as
singular.  Both loops rebuild the inverse only when it has drifted, a
measured trigger in place of a fixed interval (Koberstein 2005): once it
is REFACTOR_INTERVAL pivots old, each row priced through it is tested on
the basic columns (`_drifted`), where an exact inverse gives known
values.  The dual ratio row for the basic at position r is
sign * (row r of B^-1) @ [A | I], so sign * e_r there; the primal reduced
costs are 0 there in phase 2 and minus the phase-1 costs in phase 1.  An
entry off by more than FACTOR_TOL repeats the iteration from a rebuilt
inverse, which is 0 pivots old again, so no drift test rebuilds more often
than every REFACTOR_INTERVAL pivots.  `LpSolution.refactorizations` counts
the rebuilds of one solve.  Phase 1 of the primal loop prices over all m
rows, as its costs sit on covered rows too.

A basic variable counts as violating when it lies more than FEAS_TOL
outside a bound.  `solve` starts with the bounded dual simplex when some
basic violates a bound and the starting basis is dual feasible (no column
prices in under the phase-2 reduced costs).  That is the state a branching
bound or an appended cut row leaves the previous optimal basis in, so a
node or a post-cut re-solve reloads it and runs dual iterations: the most
violating basic leaves at the bound it violates, and the entering column
keeps the reduced costs dual feasible.  A row with no entering column
beyond PIVOT_TOL proves the LP infeasible and is returned as the Farkas row.

A solve that starts from `load_state` (a warm node re-solve) runs its dual
loop on costs shifted by COST_SHIFT along each structural's move direction
`_dir`, against dual degeneracy (Koberstein 2005): every nonbasic that can
move starts strictly dual feasible, and slacks keep cost 0.  Node LPs then
end at other optimal vertices; the true costs decide the optimum (the primal
loop prices them) and a cutoff (below).  Cold solves keep them: shifted, the
`basic` seed LP of a 553-row grid cell took 212 dual iterations against 41
dual and 131 primal ones.

A basis that violates no bound goes to the primal loop, whose first
phase-2 iteration prices the true costs afresh: with no column to enter the
basis is optimal, and the solution, built from that price, counts it as one
iteration.  The primal loop is also the whole solve for a start that is
not dual feasible, and it cleans up after more than _DEGEN_STREAK
degenerate dual steps in a row.  Its one violation test per iteration
starts and ends phase 1 and gives the phase-1 costs (-1 below, +1 above);
with no violating basic the iteration is a phase-2 one.  Phase 1
minimizes the total bound violation of basic variables (no artificial
columns), so any starting basis is a valid warm start.  Its ratio test
takes the long step (Wolfe 1965; Maros 1986): a violating basic that moves
toward the bound it violates is a breakpoint, passed while the total
violation still falls, not a block, so one pivot repairs every row its
entering column fixes; under Bland's rule it stops at the first
breakpoint.  `LpSolution.phase_one_iterations` counts the phase-1
iterations.  Like the dual loop, it proves infeasibility only when no
column gains beyond PIVOT_TOL from a fresh inverse.  Both loops change the
basis through one `_pivot` routine and draw on one budget of max(5000,
60 (m + n)) iterations; at the cap they raise SimplexStall, and
`solve_or_restart`, the warm re-solve of branch and cut and of the
referees, retries once from the slack basis.

`solve` takes a `cutoff` (default +inf, which never stops a solve).  The
dual loop carries the objective of its dual feasible basis, a lower bound on
the optimum: summed afresh whenever it prices afresh, and moved by
d_q * theta at each pivot.  Once it reaches cutoff + 1e-7 * max(1, |cutoff|)
the solve ends with status 'cutoff', that bound as its objective and no x;
on shifted costs it first prices the basis under the true costs, and stops
only if it is dual feasible there with a true objective still that high.
Branch and cut passes its incumbent on warm node re-solves, so a node whose
bound has passed it stops there instead of being solved to optimality.

A warm start installs its stored basis directly: `load_state` sets the basis
and the statuses and builds the inverse from the basis's structural block,
as above, with no pivots towards it; the solve that follows settles the
statuses and recomputes the primal values.  The inverse depends only on A
and the basis, so a copy of the last one `load_state` built is kept until
`add_row`, and a later load of that basis restores it.  A singular basis,
whether installed or found at a refactorization, is rebuilt from
the slack basis by greedy pivots that keep as many of its columns as
possible, and nothing is kept for it.

Each iteration makes few numpy calls, since at these sizes their overhead,
not the arithmetic, sets the time, and it carries its working state instead
of rebuilding it.  The basic values `xb` and their bounds `lb_B` and `ub_B`
are kept by basis position: `_recompute_values` builds them, a pivot moves
`xb` by -theta * w and writes the entering column's value and bounds at its
position, and a bound flip moves `xb` alone.  `xval` holds the nonbasic
values and takes `xb` only where a solution is read.  The entering choices
of both loops read one move-direction vector `_dir`: +1 for a nonbasic that
may rise, -1 for one that may fall, 0 for a basic or fixed column; a free
nonbasic may do both, is listed in `_free` and is scored by |.|.  `solve`
settles the statuses and derives `_dir` by one table lookup per column,
keyed by its status and its bound code (which bounds are finite, and
whether it can move), and each status change updates one entry.  The dual
loop prices once when it starts and again only after a refactorization; in
between, each pivot updates the reduced costs from its ratio row,
d -= (d_q / gamma_q) gamma.  The primal loop prices afresh every
iteration, so the optimality test and the reported duals and reduced costs
come from a fresh price.  The primal ratio test is one hard-block formula
over all basics plus, in phase 1, one sort of the breakpoints; the dual one
divides only over the columns eligible to enter.  The FTRAN column of a
slack is read straight from `binv_s`.

State edits (`reset_basis`, `load_state`, `add_row`, `set_bound`) only touch
the basis, the statuses and the bounds, with each column's bound code.
`solve` settles every status against the bounds and recomputes the primal
values once, when it starts, so `set_bound` only writes one column's bounds
and code.

Determinism: Dantzig pricing and the dual ratio test break ties by pivot
size, then by lowest index; the primal loop switches to Bland's rule after a
run of degenerate steps; no randomness, no wall-clock dependence.
Identical inputs replay the identical pivot sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (COST_SHIFT, DUAL_PIVOT_TOL, DUAL_TOL, FACTOR_TOL, FEAS_TOL, PIVOT_TOL,
                        REFACTOR_INTERVAL)

ST_LOWER, ST_UPPER, ST_BASIC, ST_FREE = 0, 1, 2, 3

_DEGEN_STREAK = 40  # degenerate pivots tolerated before switching to Bland

# The nonbasic status by (status, lb finite, ub finite), at index
# status * 4 + 2 * isfinite(lb) + isfinite(ub); the rows are ST_LOWER,
# ST_UPPER, ST_BASIC and ST_FREE.  A column keeps its status when that bound
# is finite (ST_FREE only when both are infinite); otherwise it rests at its
# lower bound, else its upper bound, else free.
_NONBASIC = np.array([ST_FREE, ST_UPPER, ST_LOWER, ST_LOWER,
                      ST_FREE, ST_UPPER, ST_LOWER, ST_UPPER,
                      ST_FREE, ST_UPPER, ST_LOWER, ST_LOWER,
                      ST_FREE, ST_UPPER, ST_LOWER, ST_LOWER], dtype=np.int8)
# A column's bound code is 2 * (2 * isfinite(lb) + isfinite(ub)) + (ub > lb),
# kept current by `set_bound` and `add_row`.  `_settle` reads each column's
# settled status and move direction at key status * 8 + code, and a basic's
# at _BASIC_KEY: +1 for a nonbasic with room to rise (at its lower bound),
# -1 for one with room to fall (at its upper bound), 0 for a basic or fixed
# one and for a free one, which is scored through `_free`.
_BASIC_KEY = 32
_KEY = np.arange(_BASIC_KEY)
_SETTLE = np.append(_NONBASIC[_KEY // 8 * 4 + _KEY % 8 // 2], ST_BASIC).astype(np.int8)
_STEP = np.array([1.0, -1.0, 0.0, 0.0])  # the move direction of a movable column by status
_DIRECTION = np.append(np.where(_KEY % 2 == 1, _STEP[_SETTLE[:-1]], 0.0), 0.0)


def _bound_code(lb, ub):
    return (2 * (2 * np.isfinite(lb) + np.isfinite(ub)) + (ub > lb)).astype(np.int8)


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
    # 'optimal' | 'infeasible' | 'unbounded' | 'cutoff' (the dual loop's
    # objective reached the cutoff: `objective` is that lower bound, x is None)
    status: str
    x: np.ndarray = None
    objective: float = math.nan
    duals: np.ndarray = None
    reduced_costs: np.ndarray = None
    iterations: int = 0  # primal and dual
    dual_iterations: int = 0
    phase_one_iterations: int = 0  # primal iterations with a violating basic
    refactorizations: int = 0  # inverse rebuilds (`_refactor`) inside this solve
    basis: np.ndarray = None
    ray: np.ndarray = None
    farkas: np.ndarray = None


def _subtract_outer(binv, w, row):
    """binv -= outer(w, row) in place, written only where it changes:
    on the rows where w is nonzero, or on the columns where row is nonzero,
    whichever is fewer entries.  Any other entry would take x - 0 and keep
    its value, so both write the same values (up to the sign of a zero)."""
    wr, nz = w.nonzero()[0], row.nonzero()[0]
    if wr.size * row.size < w.size * nz.size:
        binv[wr] -= np.multiply.outer(w[wr], row)
    else:
        # outer(row[nz], w).T is laid out like binv, columns contiguous
        binv[:, nz] -= np.multiply.outer(row[nz], w).T


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
    """Stateful solver: supports warm starts, row addition and bound edits.
    It keeps `problem.A` itself when that is Fortran-ordered floats, as
    `MipModel.to_dense` builds it, and never writes A in place."""

    def __init__(self, problem: LpProblem):
        self.m = problem.num_rows
        self.n = problem.num_cols
        self.A = np.asarray(problem.A, dtype=float, order="F")
        self.b = problem.b.copy()
        self.c = problem.c.copy()
        nt = self.n + self.m
        self.lb = np.empty(nt)
        self.ub = np.empty(nt)
        self.lb[: self.n] = problem.lb
        self.ub[: self.n] = problem.ub
        for i, sense in enumerate(problem.senses):
            self.lb[self.n + i], self.ub[self.n + i] = _slack_bounds(sense)
        self._code = _bound_code(self.lb, self.ub)
        self.total_pivots = 0
        self._pivots_since_refactor = 0
        self._refactors = 0  # `_refactor` calls in the current solve
        self._loaded = False  # `load_state` ran since the last solve started
        self._c_pad = np.concatenate([self.c, np.zeros(self.m)])
        self._kept = None  # (basis, binv_s, rows_s, slack_pos, col_of) of load_state's last _factor
        self._alloc(self.m)
        self.reset_basis()

    # -- state management ---------------------------------------------------

    @property
    def nt(self):
        return self.n + self.m

    def reset_basis(self):
        """Cold start: all slacks basic; `solve` rests the structurals at a bound."""
        self.basis = np.arange(self.n, self.n + self.m)
        self.stat = np.full(self.nt, ST_BASIC, dtype=np.int8)
        self._loaded = False
        self._factor()

    def _settle(self):
        """Make the statuses consistent with the basis and the bounds, and
        derive the move-direction vector `_dir` from them: one lookup in
        `_SETTLE` and `_DIRECTION` at each column's key (see there).  A free
        nonbasic may move both ways: its `_dir` entry is 0 and `_free` lists
        it, so `_gain` scores it by |.|."""
        key = self.stat * 8 + self._code
        key[self.basis] = _BASIC_KEY
        self.stat = _SETTLE[key]
        self._dir = _DIRECTION[key]
        self._free = (self.stat == ST_FREE).nonzero()[0]

    def _alloc(self, m):
        """Buffers for `binv_s`, `rows_s` and `a_s` of an m-row LP, at the
        most stored columns a basis can have, min(m, n): one per basic
        structural.  Columns past k are never written, so they cost virtual
        memory only."""
        room = min(m, self.n)
        self._binv_buf = np.empty((m, room), order="F")
        self._rows_buf = np.empty(room, dtype=np.intp)
        self._a_buf = np.empty((room, self.n))

    def _set_k(self, k):
        """Point `binv_s`, `rows_s` and `a_s` at the first k stored columns."""
        self.binv_s = self._binv_buf[:, :k]
        self.rows_s = self._rows_buf[:k]
        self.a_s = self._a_buf[:k]

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

    def _price(self, cb, c=None):
        """Reduced costs d of [A | I] against the structural costs `c` (the
        true ones by default, or `_dual`'s shifted ones) under the phase-2
        duals y = cb @ B^-1, which are -d on the slacks.

        A basic slack costs nothing, so y is zero on every covered row, and
        y @ A is the k duals on `rows_s` times `a_s`."""
        y_s = cb @ self.binv_s
        d = np.empty(self.nt)
        d[self.n:] = -0.0  # -y on the slacks, so -d[n:] is y with +0.0 off rows_s
        d[self.n:][self.rows_s] = -y_s
        np.subtract(self.c if c is None else c, y_s @ self.a_s, out=d[: self.n])
        return d

    def _dual_row(self, r, sign):
        """y = sign * (row r of B^-1) and the dual ratio row y @ [A | I].

        On `rows_s`, y is the signed row r of `binv_s`, priced through
        `a_s`.  On a covered row it is zero unless that row's slack is the
        basic at r, where it is `sign`, and that row of A is added."""
        y_s = sign * self.binv_s[r]
        gamma = np.zeros(self.nt)
        gamma_a, y = gamma[: self.n], gamma[self.n:]
        y[self.rows_s] = y_s
        np.matmul(y_s, self.a_s, out=gamma_a)
        if self.basis[r] >= self.n:
            covered = self.basis[r] - self.n
            y[covered] = sign
            gamma_a += sign * self.A[covered]
        return y, gamma

    def _col(self, row):
        """Index of the stored column of a row without a basic slack."""
        return int(self.col_of[row])

    def _ftran(self, j):
        """B^-1 @ (column j of [A | I]) for a nonbasic column j: a slack's is
        its row's stored column of the inverse."""
        if j < self.n:
            return self._binv_times(self.A[:, j])
        return self.binv_s[:, self._col(j - self.n)].copy()

    def _set_stat(self, j, s):
        """Set one status (never ST_FREE) and its entry of `_dir`."""
        self.stat[j] = s
        self._dir[j] = _STEP[s] if self._code[j] & 1 else 0.0

    def _gain(self, v):
        """v * `_dir`, with |v| on the free nonbasics: for each column, the
        gain in v of its best allowed move, at most 0 where none gains."""
        g = v * self._dir
        free = self._free
        if free.size:
            free = free[self.stat[free] == ST_FREE]  # some may have entered the basis
            g[free] = np.abs(v[free])
        return g

    def _recompute_values(self):
        """The nonbasic values `xval` from the statuses, and the basic values
        `xb` and bounds `lb_B`, `ub_B` by basis position."""
        stat = self.stat
        self.xval = np.where(stat == ST_LOWER, self.lb,
                             np.where(stat == ST_UPPER, self.ub, 0.0))
        rhs = self.b.copy()
        vals = self.xval[: self.n]
        cols = ((stat[: self.n] != ST_BASIC) & (vals != 0.0)).nonzero()[0]
        if cols.size:
            rhs -= self.A[:, cols] @ vals[cols]
        # nonbasic slacks always rest at 0, so they drop out of the rhs
        self.xb = self._binv_times(rhs)
        self.lb_B, self.ub_B = self.lb[self.basis], self.ub[self.basis]

    def get_state(self):
        return self.basis.copy(), self.stat.copy()

    def load_state(self, basis, stat):
        """Warm start from a stored (basis, status) pair.

        The state must have the solver's current shape, basis indices in
        [0, n + m) and statuses from ST_LOWER to ST_FREE: any other (one
        captured before `add_row`, say) is rejected with a ValueError, and
        nothing changes.  A
        stored basis that differs from the current one is installed as it
        is, its inverse built by one block refactorization (`_factor`) with
        no pivots, or copied from the one kept of the last basis this method
        factored, if it is that basis.  The statuses are installed as given:
        the next `solve` settles them against the basis and the current
        bounds (which may be tighter than at capture) and recomputes the
        basic values.
        """
        basis = np.array(basis, dtype=int)  # a copy: pivots edit self.basis in place
        stat = np.asarray(stat)
        if basis.size != self.m or stat.size != self.nt:
            raise ValueError("stored basis does not match solver shape")
        if basis.size and not (basis.min() >= 0 and basis.max() < self.nt):
            raise ValueError(f"stored basis has an index outside [0, {self.nt})")
        if not ((stat >= ST_LOWER) & (stat <= ST_FREE)).all():
            raise ValueError("stored statuses hold a code outside ST_LOWER..ST_FREE")
        stat = stat.astype(np.int8)  # a copy: the caller keeps its state as stored
        if not np.array_equal(basis, self.basis):
            self.basis = basis
            kept = self._kept
            if kept is not None and np.array_equal(basis, kept[0]):
                _, binv_s, rows_s, slack_pos, col_of = kept
                k = rows_s.size
                self._binv_buf[:, :k], self._rows_buf[:k] = binv_s, rows_s
                self._a_buf[:k] = self.A[rows_s]
                self._set_k(k)
                self.slack_pos, self.col_of = slack_pos.copy(), col_of.copy()
                self._pivots_since_refactor = 0
            elif self._factor():
                self._kept = (basis.copy(), self.binv_s.copy("F"), self.rows_s.copy(),
                              self.slack_pos.copy(), self.col_of.copy())
        self.stat = stat
        self._loaded = True

    def _update_binv(self, w, pos, q):
        """Column q, with FTRAN column w, replaces the basic at `pos`.

        An entering slack's row drops its stored column and its row of
        `a_s`, which the pivot turns into the unit vector at `pos`; a leaving
        slack's row stores its unit column e_pos, which the pivot turns
        dense, and its row of A.  Then the stored columns take the rank-one
        update (`_subtract_outer`), and row `pos` becomes the pivot row.
        The pivot counts in `total_pivots` and in the inverse's age.
        """
        k0 = k = self.rows_s.size
        if q >= self.n:
            c, k = self._col(q - self.n), k - 1
            moved = self._rows_buf[k]
            self._binv_buf[:, c] = self._binv_buf[:, k]
            self._rows_buf[c] = moved
            self._a_buf[c] = self._a_buf[k]
            self.col_of[moved] = c
            self.col_of[q - self.n] = -1  # after the line above: moved is q's row when c == k
            self.slack_pos[q - self.n] = pos
        leaving = int(self.basis[pos]) - self.n
        if leaving >= 0:
            self._binv_buf[:, k] = 0.0
            self._binv_buf[pos, k] = 1.0
            self._rows_buf[k] = leaving
            self._a_buf[k] = self.A[leaving]
            self.col_of[leaving] = k
            self.slack_pos[leaving] = -1
            k += 1
        if k != k0:
            self._set_k(k)
        row = self.binv_s[pos] / w[pos]
        _subtract_outer(self.binv_s, w, row)
        self.binv_s[pos] = row
        self.basis[pos] = q
        self.total_pivots += 1
        self._pivots_since_refactor += 1

    def _drifted(self, v, target):
        """Whether the inverse has drifted: it is REFACTOR_INTERVAL or more
        pivots old, and `v`, a row priced through it, misses `target` (by
        basis position) on the basic columns by more than FACTOR_TOL."""
        return (self._pivots_since_refactor >= REFACTOR_INTERVAL
                and np.abs(v.take(self.basis) - target).max() > FACTOR_TOL)

    def _refactor(self):
        """Rebuild the inverse (`_factor`) and recompute the primal values."""
        self._refactors += 1
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
        are computed, with A[R_S] as `a_s`; the columns of R_L are unit
        vectors and are not stored.  A block that `inv` rejects, or whose
        inverse misses the identity by more than FACTOR_TOL, is singular and
        hands the basis to `_repair_basis`.  Returns False after a repair,
        True when the basis itself was factored.
        """
        struct = self.basis < self.n
        pos_s, pos_l = struct.nonzero()[0], (~struct).nonzero()[0]
        rows_l = self.basis[pos_l] - self.n
        slack_pos = np.full(self.m, -1)
        slack_pos[rows_l] = pos_l
        rows_s = (slack_pos < 0).nonzero()[0]
        a_b = self.A[:, self.basis[pos_s]]
        a_ss = a_b[rows_s]
        try:
            inv_ss = np.linalg.inv(a_ss)
        except np.linalg.LinAlgError:
            inv_ss = None
        k = rows_s.size
        ok = inv_ss is not None and not (
            k and np.abs(a_ss @ inv_ss - np.eye(k)).max() > FACTOR_TOL)
        if not ok:
            self._repair_basis()
        else:
            self.slack_pos = slack_pos
            self.col_of = np.full(self.m, -1)
            self.col_of[rows_s] = np.arange(k)
            self._binv_buf[pos_s, :k] = inv_ss
            self._binv_buf[pos_l, :k] = a_b[rows_l] @ -inv_ss
            self._rows_buf[:k] = rows_s
            self._a_buf[:k] = self.A[rows_s]
            self._set_k(k)
        self._pivots_since_refactor = 0
        return ok

    def _repair_basis(self):
        """Replace a singular basis by a nonsingular one that keeps as many
        of its columns as possible, slacks in the gaps.

        From the slack basis, each basic structural in turn pivots in on the
        free slack position with the largest pivot (above 1e-7); one with no
        such pivot depends on those already in and stays out.  A slack that
        was basic keeps its own row.  The pivots count in `total_pivots`;
        the inverse they leave is 0 pivots old, as the repair runs inside
        `_factor`.
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
        self._settle()

    # -- mutations ----------------------------------------------------------

    def set_bound(self, j, lb, ub):
        """New bounds on structural column j.  NaN, lb > ub and an infinite
        fixed value (lb = +inf or ub = -inf) are rejected."""
        if not 0 <= j < self.n:
            raise IndexError(f"column {j} is not a structural column: cannot rebound a slack")
        if not lb <= ub or lb == math.inf or ub == -math.inf:
            raise ValueError(f"invalid bounds [{lb}, {ub}] on column {j}")
        self.lb[j] = lb
        self.ub[j] = ub
        self._code[j] = 2 * (2 * math.isfinite(lb) + math.isfinite(ub)) + (ub > lb)  # `_bound_code`

    def add_row(self, coefs, sense, rhs):
        """Append one row, given as a dense length-n vector; its slack joins
        the basis, preserving warm state.  An unknown sense or a non-finite
        coefficient or rhs is rejected before anything changes.

        The new row is covered by its slack, so the inverse gains no stored
        column and `rows_s` and `a_s` stay as they are: `binv_s` gains the
        row -(a_B @ binv_s), where a_B holds the row's coefficients on the
        basic columns."""
        dense = np.array(coefs, dtype=float)
        if dense.shape != (self.n,):
            raise ValueError("coefs must be a dense length-n vector")
        if not (np.isfinite(dense).all() and math.isfinite(rhs)):
            raise ValueError("row coefficients and rhs must be finite")
        slo, shi = _slack_bounds(sense)
        m_old = self.m
        grown = np.empty((m_old + 1, self.n), order="F")  # one copy of A, not two
        grown[:m_old] = self.A
        grown[m_old] = dense
        self.A = grown
        self.b = np.append(self.b, float(rhs))
        self.lb = np.append(self.lb, slo)
        self.ub = np.append(self.ub, shi)
        self._code = np.append(self._code, _bound_code(slo, shi))
        self.stat = np.append(self.stat, np.int8(ST_BASIC))
        self.m = m_old + 1
        # the appended row needs its coefficient on every current basic column
        a_basic = np.zeros(m_old)
        struct = self.basis < self.n
        a_basic[struct] = dense[self.basis[struct]]
        binv_s, rows_s, a_s = self.binv_s, self.rows_s, self.a_s
        k = rows_s.size
        self._alloc(self.m)
        self._binv_buf[:m_old, :k] = binv_s
        self._binv_buf[m_old, :k] = -(a_basic @ binv_s)
        self._rows_buf[:k] = rows_s
        self._a_buf[:k] = a_s
        self._set_k(k)
        self.slack_pos = np.append(self.slack_pos, m_old)
        self.col_of = np.append(self.col_of, -1)
        self.basis = np.append(self.basis, self.n + m_old)
        self._c_pad = np.append(self._c_pad, 0.0)
        self._kept = None  # A changed: the kept inverse no longer fits

    # -- solve --------------------------------------------------------------

    def _eligible_entering(self, d, bland, tol=DUAL_TOL):
        """Entering column and direction (+1 rises, -1 falls), or (-1, 0).

        The score of a column is the reduced-cost gain of its allowed moves,
        |d| exactly for every eligible column and at most `tol` for the
        rest: Dantzig takes the first largest, Bland the first eligible.  A
        negative score never reaches a maximum above `tol`.
        """
        score = self._gain(-d)
        q = int((score > tol if bland else score).argmax())
        if score[q] <= tol:
            return -1, 0
        return q, 1 if d[q] < 0 else -1

    def solve(self, cutoff=math.inf) -> LpSolution:
        """Optimize from the current basis: the dual loop first, when it
        applies, on shifted costs after `load_state` (module docstring), then
        the primal loop on the true costs, on one budget of max(5000,
        60 (m + n)) iterations.  The dual loop stops with status 'cutoff'
        once its true objective, a lower bound on the optimum, reaches
        `cutoff` (see `_dual`); the default never stops it.  Either loop
        rebuilds the inverse only when a row it prices through it drifts
        (`_drifted`), never on the pivot count alone."""
        max_iter = max(5000, 60 * (self.m + self.n))
        shifted, self._loaded = self._loaded, False
        self._refactors = 0
        # this also rests the columns a singular-basis repair left out
        self._settle()
        self._recompute_values()
        c_pad = self._c_pad if not shifted else np.append(
            self.c + COST_SHIFT * self._dir[: self.n], self._c_pad[self.n:])
        dual_iters, sol = self._dual(c_pad, max_iter, cutoff)
        if sol is None:
            sol = self._primal(self._c_pad, max_iter, dual_iters)
        sol.dual_iterations = dual_iters
        sol.refactorizations = self._refactors
        return sol

    def solve_or_restart(self, cutoff=math.inf) -> LpSolution:
        """`solve` from the current basis; on a SimplexStall, `reset_basis`
        and solve again from the slack basis and the current bounds.  A
        stale warm basis can walk in circles after many bound flips and
        appended cut rows, and the cold restart resolves it
        deterministically.  A stall in the cold retry propagates."""
        try:
            return self.solve(cutoff=cutoff)
        except SimplexStall:
            self.reset_basis()
            return self.solve(cutoff=cutoff)

    def _dual(self, c_pad, max_iter, cutoff):
        """Bounded dual simplex, run while some basic violates a bound and
        the starting basis is dual feasible.

        Each iteration the basic with the largest violation (the first, on
        ties) leaves at the bound it violates.  `y` is its row of the
        inverse, negated when it lies below its lower bound, so that raising
        column j of [A | I] moves it toward that bound exactly when
        y @ a_j > 0: the phase-1 pricing of this one violation.  `_dual_row`
        gives y and that ratio row gamma, and `_price` the reduced costs d;
        neither multiplies all m rows of A.  d is priced when the loop
        starts and after each refactorization; each other pivot carries it
        forward from the ratio row, d -= (d_q / gamma_q) gamma, which zeroes
        the entering column's entry.  A column that may rise is
        eligible where y @ a_j > DUAL_PIVOT_TOL, one that may fall where
        y @ a_j < -DUAL_PIVOT_TOL.  The entering column keeps the reduced
        costs dual feasible: the least |d_j| / |y @ a_j| over the eligible
        columns, ties to the largest |y @ a_j|, then the lowest index.  With
        no column beyond PIVOT_TOL the basic cannot reach its bound and `y`
        certifies the LP infeasible; with some, but none beyond
        DUAL_PIVOT_TOL, the row is priced again from a refactorized inverse,
        where PIVOT_TOL suffices.  The row is also the drift test
        (`_drifted`) of an inverse REFACTOR_INTERVAL or more pivots old: on
        the basic columns it must be sign * e_r, and an entry off by more
        than FACTOR_TOL repeats the iteration from a refactorized inverse.

        `c_pad` holds the costs it prices, shifted after `load_state`.  The
        loop carries `obj`, the objective of the dual feasible basis under
        them: with the nonbasics at their bounds, a lower bound on that LP's
        optimum.  It is summed afresh whenever d is priced afresh (`xval` is
        0 on the basics then), and each pivot adds d_q * theta, with d_q
        taken before the reduced-cost update.  Once it reaches
        cutoff + 1e-7 * max(1, |cutoff|), the loop returns a 'cutoff'
        solution if the costs are the true ones; shifted costs give way to
        them first, priced afresh, from a basis that must be dual feasible.

        Returns (iterations, solution).  The solution is None when the
        primal loop takes over: on a basis that violates no bound, whose
        first phase-2 iteration prices afresh and finds it optimal or enters
        a column; on one not dual feasible at the start or under the true
        costs; or after more than _DEGEN_STREAK degenerate steps in a row.
        """
        iters = degen_streak = 0
        d = None
        check = True  # test the basis for dual feasibility once d is priced
        limit = cutoff + 1e-7 * max(1.0, abs(cutoff))
        while self.m:  # a basis of no rows violates nothing
            xb, lo, hi = self.xb, self.lb_B, self.ub_B
            viol = np.maximum(lo - xb, xb - hi)
            r = int(viol.argmax())
            if viol[r] <= FEAS_TOL:
                break
            if d is None or not self._pivots_since_refactor:
                cb = c_pad[self.basis]
                d = self._price(cb, c_pad[: self.n])
                obj = float(cb @ xb + c_pad @ self.xval)
            if check and self._eligible_entering(d, False)[0] >= 0:
                break
            check = False
            if obj >= limit:
                if c_pad is not self._c_pad:  # shifted costs: price the true ones
                    c_pad, d, check = self._c_pad, None, True
                    self.xval[self.basis] = 0.0  # as the sum of `obj` reads it
                    continue
                return iters, LpSolution(status="cutoff", objective=obj, iterations=iters,
                                         basis=self.basis.copy())
            if iters > max_iter:
                raise SimplexStall(f"iteration cap {max_iter} exceeded")
            iters += 1

            below = xb[r] < lo[r]
            sign = -1.0 if below else 1.0
            y, gamma = self._dual_row(r, sign)
            # on the basic columns gamma is sign * (row r of B^-1) @ B
            unit = np.zeros(self.m)
            unit[r] = sign
            if self._drifted(gamma, unit):
                self._refactor()
                continue
            score = self._gain(gamma)
            cand = (score > DUAL_PIVOT_TOL).nonzero()[0]
            if not cand.size:
                cand = (score > PIVOT_TOL).nonzero()[0]
                if not cand.size:
                    return iters, self._infeasible_solution(y, iters)
                if self._pivots_since_refactor:
                    # the tiny entries may be drift in the updated inverse
                    self._refactor()
                    continue
            score = score[cand]
            ratios = np.abs(d[cand]) / score
            tmin = ratios.min()
            q = int(cand[np.where(ratios <= tmin + 1e-12, score, 0.0).argmax()])
            degen_streak = degen_streak + 1 if tmin <= 1e-11 else 0

            d_q = d[q]
            d -= (d_q / gamma[q]) * gamma
            w = self._ftran(q)
            bound = lo[r] if below else hi[r]
            theta = (xb[r] - bound) / w[r]
            obj += d_q * theta
            self._pivot(q, r, w, theta, not below)
            if degen_streak > _DEGEN_STREAK:
                break
        return iters, None

    def _primal(self, c_pad, max_iter, iters):
        """Primal simplex from the current basis, phase 1 while some basic
        violates a bound; `iters` iterations of the budget are spent.  The
        solution counts the phase-1 iterations (those that found a violating
        basic) in `phase_one_iterations`.  Each fresh price is also the drift
        test (`_drifted`) of an inverse REFACTOR_INTERVAL or more pivots old:
        on the basic columns d is 0 in phase 2 and minus the phase-1 costs in
        phase 1, and an entry off by more than FACTOR_TOL repeats the
        iteration from a refactorized inverse."""
        bland = False
        degen_streak = phase_one_iters = 0
        phase_one = False
        while True:
            if iters > max_iter:
                raise SimplexStall(f"iteration cap {max_iter} exceeded")
            iters += 1

            xb, lo, hi = self.xb, self.lb_B, self.ub_B
            below, above = xb < lo - FEAS_TOL, xb > hi + FEAS_TOL
            cost = above.astype(float) - below  # the phase-1 costs, all 0 in phase 2
            if cost.any():
                # phase-1 costs are zero off the basis; basic columns are
                # never eligible, so their entries of d do not matter
                phase_one = True
                phase_one_iters += 1
                yb = self._btran(cost)
                d = -np.concatenate([yb @ self.A, yb])
            elif phase_one:
                phase_one = False
                bland = False
                degen_streak = 0
                continue
            else:
                d = self._price(c_pad[self.basis])
            if self._drifted(d, -cost):  # d on the basic columns is -cost
                self._refactor()
                continue

            q, sigma = self._eligible_entering(d, bland)
            if q < 0 and phase_one:
                # as in `_dual`: infeasible only if no gain clears PIVOT_TOL from a fresh inverse
                q, sigma = self._eligible_entering(d, bland, PIVOT_TOL)
                if q >= 0 and self._pivots_since_refactor:
                    self._refactor()
                    continue
            if q < 0:
                sol = (self._infeasible_solution(yb, iters) if phase_one
                       else self._optimal_solution(d, iters))
                break

            w = self._ftran(q)
            step, pos, to_upper, flip = self._ratio(q, sigma, w, xb, lo, hi, below, above, bland)
            if step is None:
                # no blocking event
                if phase_one:
                    raise SimplexStall("phase-1 ratio test found no block")
                sol = self._unbounded_solution(q, sigma, w, iters)
                break

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
                xb -= sigma * step * w
                at_lower = self.stat[q] == ST_LOWER
                self._set_stat(q, ST_UPPER if at_lower else ST_LOWER)
                self.xval[q] = self.ub[q] if at_lower else self.lb[q]
                continue
            self._pivot(q, pos, w, sigma * step, to_upper)
        sol.phase_one_iterations = phase_one_iters
        return sol

    def _pivot(self, q, pos, w, theta, to_upper):
        """Column q enters the basis at `pos`, its value moved by `theta` and
        the basics by -theta * w; the leaving column rests at its upper bound
        if `to_upper`, else at its lower one.  `xb`, `lb_B` and `ub_B` take
        q's value and bounds at `pos`."""
        leaving = int(self.basis[pos])
        xb = self.xb
        xb -= theta * w
        xb[pos] = self.xval[q] + theta
        self.lb_B[pos], self.ub_B[pos] = self.lb[q], self.ub[q]
        self.xval[leaving] = self.ub[leaving] if to_upper else self.lb[leaving]
        self._set_stat(leaving, ST_UPPER if to_upper else ST_LOWER)
        self._set_stat(q, ST_BASIC)
        self._update_binv(w, pos, q)

    def _ratio(self, q, sigma, w, xb, lo, hi, below, above, bland):
        """Step for the entering variable, given this iteration's basic
        values `xb`, their bounds and violation masks.

        A hard block ends the step: a feasible basic leaving its bounds, a
        violating basic reaching its far bound, or the entering column's own
        range (a bound flip).  A violating basic that moves toward the bound
        it violates is a breakpoint where it reaches that bound: past it,
        the total violation's slope along the step rises by |sigma * w_i|.
        In phase 1 the step is the long one (Wolfe 1965; Maros 1986): the
        breakpoints are passed in order of step while the slope stays below
        0, so the step stops at the first one where the slope, which starts
        at the column's phase-1 gain, reaches 0 or more, or at the first
        hard block if that comes earlier.  The slope is summed here from the
        same masks the phase-1 pricing used, with the breakpoints in order,
        so that it is exactly 0 or more past the last of them.  Under Bland's
        rule the step stops at the first breakpoint.  A passed basic stays
        basic, now within its bounds.  Ties within 1e-12 of the step go to
        the largest |w|, then the lowest variable index (Bland: the lowest
        index).

        Returns (step, position, leaving_to_upper, bound_flip); step is None
        when nothing blocks.
        """
        delta = sigma * w
        dec, inc = delta > PIVOT_TOL, delta < -PIVOT_TOL
        bp = None  # the breakpoint steps by basis position, -inf off them
        if below.any() or above.any():
            toward = (below & inc) | (above & dec)
            if toward.any():
                bp = np.full(self.m, -math.inf)
                np.divide(xb - np.where(above, hi, lo), delta, out=bp, where=toward)
                toward = toward.nonzero()[0]
            # a violating basic hard-blocks only at its far bound, so one
            # moving away from its bounds never blocks
            lo, hi = np.where(below, -math.inf, lo), np.where(above, math.inf, hi)
        # a falling basic hard-blocks at lo, a rising one at hi (+inf if infinite)
        steps = np.full(self.m, math.inf)
        np.divide(xb - np.where(dec, lo, hi), delta, out=steps, where=dec | inc)
        np.maximum(steps, 0.0, out=steps)
        t = float(steps.min()) if steps.size else math.inf
        if bp is not None:
            stop = toward[0]
            if toward.size > 1:
                order = toward[np.argsort(bp[toward], kind="stable")]
                stop = order[0]
                if not bland:
                    # the slope past the k-th breakpoint is passed[k] - passed[-1] + away
                    passed = np.cumsum(np.abs(delta[order]))
                    away = np.abs(delta[(below & dec) | (above & inc)]).sum()
                    stop = order[(passed >= passed[-1] - away).argmax()]
            t = min(t, float(bp[stop]))
        own_range = self.ub[q] - self.lb[q]
        if own_range <= t:
            if not math.isfinite(own_range):
                return None, -1, False, False
            return own_range, -1, False, True
        if not math.isfinite(t):
            return None, -1, False, False
        if bp is not None:
            # a breakpoint not passed ends at its violated bound, any other
            # basic at its hard block
            steps = np.where(bp >= t, bp, steps)
        idxs = (steps <= t + 1e-12).nonzero()[0]
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
        at_bp = bp is not None and bp[pos] >= t
        return t, pos, bool(above[pos] if at_bp else inc[pos]), False

    # -- terminal states ----------------------------------------------------

    def _structural_solution(self):
        self.xval[self.basis] = self.xb
        return self.xval[: self.n].copy()

    def _optimal_solution(self, d, iters):
        x = self._structural_solution()
        return LpSolution(
            status="optimal",
            x=x,
            objective=float(self.c @ x),
            duals=-d[self.n:],
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
