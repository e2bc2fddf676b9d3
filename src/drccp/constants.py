"""Shared numeric tolerances.

The thresholds that several modules must agree on (margin signs, cut
violation, simplex feasibility and pivots, integrality) live here; the
default gap tolerance is `bnc.BncConfig`'s.  Some local thresholds are still
literals: `bnc` uses 1e-9 for pruning against the incumbent and in
pseudo-costs, and 1e-7 to detect a bound inversion; `simplex` uses 1e-11 and
1e-12 in its ratio tests and 1e-7 in basis repair.
"""

MARGIN_TOL = 1e-9         # margin sign tests, oracle comparisons, cut validity
CUT_VIOLATION_TOL = 1e-6  # minimum violation before a cut is emitted
FEAS_TOL = 1e-7           # simplex primal feasibility
DUAL_TOL = 1e-7           # simplex reduced-cost (dual feasibility) threshold
PIVOT_TOL = 1e-9          # smallest acceptable pivot element
DUAL_PIVOT_TOL = 1e-7     # smallest dual-simplex pivot element from an updated inverse (simplex._dual)
INT_TOL = 1e-6            # integrality test on binary variables
K_NUDGE = 1e-12           # tolerance on eps*N in both discard counts (model.py)
REFACTOR_INTERVAL = 50    # pivots between block refactorizations of the simplex basis inverse
FACTOR_TOL = 1e-6         # largest |A_SS @ inv - I| entry of a nonsingular structural block
