"""Shared numeric tolerances.

The thresholds that several modules must agree on (margin signs, cut
violation, simplex feasibility and pivots, integrality) live here, with the
simplex's warm cost shift; the default gap tolerance is `bnc.BncConfig`'s.
Some local thresholds are still literals: `bnc` uses 1e-9 for pruning
against the incumbent, as the least distance a pseudo-cost gain is divided
by and as the floor of each factor of a branching score, and 1e-7 to detect
a bound inversion; `simplex` uses 1e-11 and 1e-12 in its ratio tests, 1e-7
in basis repair, and stops the dual loop once its objective under the true
costs reaches the cutoff plus 1e-7 * max(1, |cutoff|).
"""

MARGIN_TOL = 1e-9         # margin sign tests, oracle comparisons, cut validity
CUT_VIOLATION_TOL = 1e-6  # minimum violation before a cut is emitted
FEAS_TOL = 1e-7           # simplex primal feasibility
DUAL_TOL = 1e-7           # simplex reduced-cost (dual feasibility) threshold
PIVOT_TOL = 1e-9          # smallest acceptable pivot element
DUAL_PIVOT_TOL = 1e-7     # smallest dual-simplex pivot element from an updated inverse (simplex._dual)
COST_SHIFT = 1e-7         # cost shift along each move direction in a warm dual loop (simplex.solve)
INT_TOL = 1e-6            # integrality test on binary variables
K_NUDGE = 1e-12           # tolerance on eps*N in both discard counts (model.py)
# age, in pivots, from which both simplex loops test the basis inverse for
# drift (FACTOR_TOL) on each row they price through it, and rebuild it by a
# block refactorization only when they find some (simplex._drifted)
REFACTOR_INTERVAL = 50
# largest |A_SS @ inv - I| entry of a nonsingular structural block, and the
# largest drift of a priced row on the basic columns: a dual ratio row from
# sign * e_r, primal reduced costs from 0 (phase 2) or minus the phase-1 costs
FACTOR_TOL = 1e-6
