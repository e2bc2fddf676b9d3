"""Shared numeric tolerances.

The thresholds that several modules must agree on (margin signs, cut
violation, simplex feasibility and pivots, integrality) live here; the
default gap tolerance is `bnc.BncConfig`'s.  Some local thresholds are still
literals: `bnc` uses 1e-9 for pruning against the incumbent, as the least
distance a pseudo-cost gain is divided by and as the floor of each factor
of a branching score, and 1e-7 to detect a bound inversion; `simplex` uses
1e-11 and 1e-12 in its ratio tests, 1e-7 in basis repair, and stops the
dual loop once its objective reaches the cutoff plus
1e-7 * max(1, |cutoff|).
"""

MARGIN_TOL = 1e-9         # margin sign tests, oracle comparisons, cut validity
CUT_VIOLATION_TOL = 1e-6  # minimum violation before a cut is emitted
FEAS_TOL = 1e-7           # simplex primal feasibility
DUAL_TOL = 1e-7           # simplex reduced-cost (dual feasibility) threshold
PIVOT_TOL = 1e-9          # smallest acceptable pivot element
DUAL_PIVOT_TOL = 1e-7     # smallest dual-simplex pivot element from an updated inverse (simplex._dual)
INT_TOL = 1e-6            # integrality test on binary variables
K_NUDGE = 1e-12           # tolerance on eps*N in both discard counts (model.py)
# pivots between block refactorizations of the simplex basis inverse: it
# governs cold solves, re-solves after add_row or set_bound alone and every
# primal loop; the dual loop of a solve started by load_state (a warm node
# re-solve) tests an inverse past this age for drift (FACTOR_TOL) and
# refactorizes only when it finds some
REFACTOR_INTERVAL = 50
# largest |A_SS @ inv - I| entry of a nonsingular structural block, and the
# largest drift of a dual ratio row from sign * e_r on the basic columns
FACTOR_TOL = 1e-6
