"""Certificates and reference answers for the chance-constrained program.

The worst-case probability comes from a one-dimensional breakpoint scan and
the superquantile check from sorting; neither touches the MIP formulations.
The two referees enumerate discard supports instead: `enumerate_optimal`
finds the exact optimum over the `basic` preset and `check_cut_validity`
decides whether a cut holds over the `knapsack` preset, each by fixing z on
every support and solving the LP relaxation with the in-package simplex.
The supports are solved in order on one solver, each warm from the previous
support's basis, as a branch-and-cut node is, with a cold restart on a
stall.  They share the formulation builder and the simplex with the solver
stack they check, so the tests cross-check them against scipy and each warm
support solve against a cold one.  Every referee
counts discards with floor(eps*N), never with the one fewer that the
distance-based models allow when eps*N is an integer, so it checks that
count too.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cuts, formulations
from .bnc import model_to_lp, refix
from .constants import FEAS_TOL, MARGIN_TOL
from .model import DrccpInstance, distance_profile, floor_frac_count
from .simplex import SimplexSolver


def _distances(distances) -> np.ndarray:
    """A distance profile as a nonempty float vector, with round-off below
    zero (down to -MARGIN_TOL) clamped to 0.  NaN is rejected: comparisons
    and sorts would pass it over silently."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("distances must be a nonempty vector")
    if np.isnan(d).any():
        raise ValueError("distances must not be NaN")
    if np.any(d < -MARGIN_TOL):
        raise ValueError("distances must be nonnegative")
    return np.maximum(d, 0.0)


def _check_budget(theta, epsilon=None):
    """Reject a NaN or negative radius and an epsilon outside (0, 1)."""
    if not theta >= 0.0:
        raise ValueError("theta must be nonnegative")
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


def worst_case_prob(distances, theta: float) -> float:
    """Largest violation probability over all distributions within
    transport cost theta of the empirical one.

    distances[i] is the distance from sample i to the unsafe region (zero
    means already unsafe).  The supremum equals

        min over t > 0 of  theta / t + mean(max(0, 1 - d_i / t)),

    capped at 1; the minimum is attained at one of the positive distance
    values, or in the t -> infinity limit.  With theta = 0 it reduces to the
    empirical violation frequency.  After one sort, the mean at a breakpoint
    t is (cnt - S / t) / n with cnt the number of d_i < t and S their sum,
    so the scan is O(N log N).
    """
    d = _distances(distances)
    _check_budget(theta)
    d = np.sort(d)
    n = d.size
    if theta == 0.0:
        return float(np.count_nonzero(d == 0.0)) / n
    t = np.unique(d[d > 0.0])
    cnt = np.searchsorted(d, t)  # d_i < t; d_i = t adds nothing
    prefix = np.concatenate([[0.0], np.cumsum(d)])
    vals = theta / t + (cnt - prefix[cnt] / t) / n
    # t -> infinity moves every point for free rate 0, prob -> 1
    return min(float(vals.min(initial=1.0)), 1.0)


@dataclass(frozen=True)
class CvarResult:
    """Superquantile value with matching primal and dual certificates.

    primal = t + mean(max(0, v - t)) / epsilon evaluated at the optimal
    threshold t; dual = (1 / (epsilon * n)) * sum(y * v) for the extreme
    weight vector y.  The two agree exactly, not just within tolerance.
    """

    value: float
    dual_value: float
    t: float
    y: np.ndarray
    r: np.ndarray


def cvar(values, epsilon: float) -> CvarResult:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty vector")
    if np.isnan(v).any():
        raise ValueError("values must not be NaN")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    n = v.size
    k = floor_frac_count(epsilon, n)
    order = np.argsort(-v, kind="stable")
    t = float(v[order[k]])
    r = np.maximum(0.0, v - t)
    y = np.zeros(n)
    y[order[:k]] = 1.0
    y[order[k]] = min(1.0, max(0.0, epsilon * n - k))
    primal = t + float(np.sum(r)) / (epsilon * n)
    dual = float(np.dot(y, v)) / (epsilon * n)
    return CvarResult(value=primal, dual_value=dual, t=t, y=y, r=r)


@dataclass(frozen=True)
class FeasibilityCertificate:
    feasible: bool
    t: float
    r: np.ndarray
    budget_slack: float  # epsilon * t - theta - mean(r); feasible iff >= 0 at t > 0


def lemma_certificate(distances, epsilon: float, theta: float) -> FeasibilityCertificate:
    """Feasibility witness for the distance profile of a candidate point.

    The point is robustly feasible iff for some t >= 0 the shortfalls
    r_i = max(0, t - d_i) satisfy epsilon * t >= theta + mean(r).  The left
    side minus the right is concave piecewise linear in t with breakpoints
    at the distances and slope epsilon - j/n past the j-th smallest, so the
    (k+1)-th smallest distance maximizes the slack (k = floor(epsilon * n));
    evaluating there decides feasibility.  Feasibility also needs t > 0: at
    t = 0 every term of the slack vanishes, yet a (k+1)-th smallest distance
    of 0 leaves more than epsilon * n samples already unsafe.  When that
    distance is infinite, the m <= k finite ones end in a last piece of
    slope epsilon - m/n >= 0: t starts at the largest finite distance and,
    on a positive slope, moves on to where the slack reaches zero.  With
    theta = 0 and no positive finite distance, t = 1, as the slack is
    slope * t >= 0 at every t.
    """
    d = _distances(distances)
    _check_budget(theta, epsilon)
    n = d.size
    k = floor_frac_count(epsilon, n)
    t = float(np.sort(d)[k])
    if math.isinf(t):
        finite = d[np.isfinite(d)]
        t = float(finite.max(initial=0.0))
        slope = epsilon - finite.size / n
        deficit = theta + float(np.mean(np.maximum(0.0, t - d))) - epsilon * t
        if deficit > 0.0 and slope > 0.0:
            t += deficit / slope
        elif t == 0.0 and theta == 0.0:
            t = 1.0
    r = np.maximum(0.0, t - d)
    slack = epsilon * t - theta - float(np.mean(r))
    return FeasibilityCertificate(feasible=t > 0.0 and slack >= -FEAS_TOL, t=t, r=r,
                                  budget_slack=slack)


@dataclass(frozen=True)
class EnumerationResult:
    status: str  # 'optimal' or 'infeasible'
    objective: float | None
    x: np.ndarray | None
    support: tuple | None
    supports_tried: int


def _solved_supports(model, instance: DrccpInstance, max_supports: int, what: str,
                     objective=None):
    """Solve the model's LP relaxation once per discard support.

    Yields (support, solution) for every set of at most k scenarios, in
    itertools.combinations order, with z fixed to 1 on the set and to 0
    elsewhere.  `objective` replaces the model's cost vector.  A support is
    an int8 vector over z, zeros with 1 on its samples, and `bnc.refix`
    re-sets only the z bounds that differ from the previous support's; each
    solve starts warm from the basis the previous one ended with: an
    optimal basis stays dual feasible under new bounds, so the dual simplex
    re-optimizes it in a few pivots.  A stall restarts that support cold.
    Raises before solving anything when the support count exceeds
    max_supports; `what` names the caller in that message.
    """
    n, k = instance.n, instance.k
    total = sum(math.comb(n, j) for j in range(k + 1))
    if total > max_supports:
        raise ValueError(
            f"{what} would try {total} supports, over the budget of {max_supports}"
        )
    prob, _ = model_to_lp(model)
    if objective is not None:
        prob.c = objective
    solver = SimplexSolver(prob)
    z_idx = np.asarray(model.block_indices("z"))
    held = np.full(z_idx.size, -1, dtype=np.int8)
    for size in range(k + 1):
        for support in itertools.combinations(range(n), size):
            fixed = np.zeros_like(held)
            fixed[list(support)] = 1
            refix(solver, model, z_idx, fixed, held)
            held = fixed
            yield support, solver.solve_or_restart()


def enumerate_optimal(instance: DrccpInstance, big_m: float | None = None,
                      max_supports: int = 200000) -> EnumerationResult:
    """Reference optimum by brute force over discard sets.

    For every subset of at most k = floor(eps*N) scenarios, fix z on that
    subset and solve the continuous relaxation of the basic formulation; the
    best LP value over all subsets is the exact mixed-integer optimum.  The
    basic model has no knapsack row, so when eps*N is an integer the subsets
    of size k, which the solver's models leave out at a positive radius,
    are tried too (their LPs are infeasible).  Errors out when the subset
    count exceeds max_supports, and, as branch and cut does, when a
    support's LP is unbounded.
    """
    model = formulations.build_basic(instance, big_m=big_m)
    x_idx = model.block_indices("x")
    best_obj = math.inf
    best_x = None
    best_support = None
    tried = 0
    for support, sol in _solved_supports(model, instance, max_supports, "enumeration"):
        tried += 1
        if sol.status == "unbounded":
            raise ValueError("relaxation is unbounded; the domain must be compact")
        if sol.status == "optimal" and sol.objective < best_obj:
            best_obj = sol.objective
            best_x = sol.x[x_idx].copy()
            best_support = support
    if best_x is None:
        return EnumerationResult("infeasible", None, None, None, tried)
    return EnumerationResult("optimal", float(best_obj), best_x, best_support, tried)


def check_cut_validity(cut: cuts.Cut, instance: DrccpInstance, big_m: float | None = None,
                       max_supports: int = 20000) -> bool:
    """True iff the cut holds at every point of the exact feasible region.

    Enumerates all discard supports of size at most k = floor(eps*N); for
    each, fixes z and minimizes the cut's left-hand side over the
    knapsack-strengthened continuous region, with the knapsack row at k too.
    The cut is valid when no support reaches a value below rhs - MARGIN_TOL.
    """
    quant = formulations.compute_quantiles(instance, k=instance.k)
    model = formulations.build_formulation(instance, "knapsack", big_m=big_m, quant=quant)
    lhs, _ = cuts.cut_row(cut, model)
    for _, sol in _solved_supports(model, instance, max_supports, "validity check",
                                   objective=lhs):
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal" or sol.objective < cut.rhs - MARGIN_TOL:
            return False
    return True
