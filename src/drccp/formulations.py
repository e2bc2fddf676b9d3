"""Mixed-integer formulations of the chance-constrained program.

One builder emits every model over one variable layout: the x block, the z
block, then the r block and t in the distance-based presets, and theta in the
radius-maximization variant.  z_i and r_i belong to sample i; the model
records the sample id of each z/r column (`MipModel.sample_ids`, with
`MipModel.num_samples` = N), and `MipModel.sample_columns` maps sample ids
back to columns.  A preset picks which row families appear; they always come
in this order:

    domain -> budget -> indicator -> knapsack -> scenario -> scenario_saa
           -> quantile_bound

* domain          -- G x <= g (every preset).
* budget          -- the Wasserstein budget row eps*t >= theta + mean(r).
* indicator       -- r_i >= t - M (1 - z_i), big-M on the shortfall.
* knapsack        -- sum(z) <= k'; k' = ceil(eps*N) - 1 (`quant.k`) in the
                     distance-based presets, k = floor(eps*N) in saa.
* scenario        -- sample i is either discarded (z_i = 1) or its distance
                     to the unsafe region reaches t - r_i, one row per (i, p).
* scenario_saa    -- the radius-zero scenario rows reusing the same z.
* quantile_bound  -- one row per p forcing the (k'+1)-th smallest margin to
                     reach t.

Two discard counts appear.  The distance-based presets discard at most
k' = `model.distance_discard_count`: a discarded sample has r_i >= t, so
the budget row gives t * (eps - |U|/N) >= theta > 0 and |U| < eps*N.  That
is one fewer than floor(eps*N) when eps*N is an integer and floor(eps*N)
otherwise.  The radius-maximization variant uses k' too: every point with
a positive radius obeys it, so a positive maximum does not move.  The saa
preset at radius zero keeps k = floor(eps*N) (`DrccpInstance.k`).

The presets:

* ``saa``       -- knapsack + scenario_saa: the empirical (radius-zero)
                   baseline, at most k scenarios violated.
* ``basic``     -- budget + indicator + scenario with big-M z coefficients.
* ``knapsack``  -- basic plus the knapsack and scenario_saa rows.
* ``reduced``   -- knapsack without scenario_saa, every scenario z
                   coefficient the quantile-shifted constant h[i, p]; big-M
                   survives only in the indicator rows.
* ``compact``   -- reduced, keeping scenario rows only for samples above the
                   per-row quantile, plus the quantile_bound rows.  z_i, r_i
                   and the indicator row exist only for the samples above the
                   quantile in some row (the union of `surviving`, at most
                   k'*P samples): any other sample has no scenario row, the
                   quantile_bound rows keep t <= M, so z_i = r_i = 0 is always
                   as good.  The budget row keeps the -1/N weight on each
                   remaining r_i, with N the full sample count.

Every row coefficient that depends on the safety rows comes from one
`QuantileData` record (computed here when none is given), the same record
the separators in `cuts` read, so the model rows and the cuts share every
bit of their scaled data.  Callers pick a preset with
`build_formulation(instance, kind)`.  theta must be positive for the
distance-based models; the saa preset is the radius-zero baseline.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import MARGIN_TOL
from .model import (
    BINARY,
    CONTINUOUS,
    DrccpInstance,
    MipModel,
    distance_discard_count,
    row_scaling,
)
from .simplex import LpProblem, solve_lp

@dataclass(frozen=True)
class QuantileData:
    """The per-row data that the builder and both separators read, scaled
    by the dual norm scale[p] = ||b_p||_* of each safety row.

    k is the discard count, by default ceil(eps*N) - 1; the knapsack row of
    every distance-based preset reads it.  a[p] = a_p / scale[p] (P x L)
    and bxi[i, p] = (b_p @ xi_i + d_p) / scale[p] (N x P), so the scaled
    margin of sample i in row p is bxi[i, p] - a[p] @ x.  q[p] is the
    (k+1)-th largest value of -b_p @ xi_i over the N samples (duplicates
    counted separately), so the quantile margin of row p is the (k+1)-th
    smallest sample margin.  h[i, p] = (-b_p @ xi_i - q[p]) / scale[p], and
    surviving[p] lists the scenario indices with -b_p @ xi_i strictly above
    q[p]; there are never more than k of them.  g0 is the constant of the
    quantile margin g*_p(x) = g0[p] - a[p] @ x.
    """

    k: int
    q: np.ndarray
    h: np.ndarray
    surviving: tuple
    scale: np.ndarray
    d: np.ndarray
    a: np.ndarray
    bxi: np.ndarray

    @property
    def g0(self) -> np.ndarray:
        return (self.d - self.q) / self.scale


def compute_quantiles(instance: DrccpInstance, k: int | None = None) -> QuantileData:
    """The scaled row data at discard count k, by default
    `distance_discard_count` (the count every distance-based model uses)."""
    if k is None:
        k = distance_discard_count(instance.epsilon, instance.n)
    n, p_count = instance.n, instance.p
    scales, products = row_scaling(instance)
    d = np.array([row.d for row in instance.rows])
    q = np.empty(p_count)
    h = np.empty((n, p_count))
    surviving = []
    for p in range(p_count):
        v = -products[:, p]
        order = np.argsort(-v, kind="stable")
        q[p] = v[order[k]]
        h[:, p] = (v - q[p]) / scales[p]
        surviving.append(np.flatnonzero(v > q[p]))
    return QuantileData(k=k, q=q, h=h, surviving=tuple(surviving), scale=scales, d=d,
                        a=np.array([row.a for row in instance.rows]) / scales[:, None],
                        bxi=(products + d) / scales)


def compute_big_m(instance: DrccpInstance) -> float:
    """Smallest symmetric bound on all scaled margins over the domain.

    For every row the margin (b_p @ xi_i + d_p - a_p @ x) / ||b_p||_* is
    bracketed by solving min and max of a_p @ x over X (two LPs per row,
    skipped when a_p = 0).  The result is the max of the absolute bracket
    ends over all rows and samples.  Requires a bounded, nonempty domain.
    """
    dom = instance.domain
    scales, products = row_scaling(instance)
    big = 0.0
    for p, row in enumerate(instance.rows):
        bxi = products[:, p] + row.d
        if np.any(row.a != 0.0):
            amin, amax = _linear_range(dom, row.a)
        else:
            amin = amax = 0.0
        lo = (bxi.min() - amax) / scales[p]
        hi = (bxi.max() - amin) / scales[p]
        big = max(big, abs(lo), abs(hi))
    return big


def _linear_range(dom, a):
    base = LpProblem(
        c=a, A=dom.G, senses=["<="] * dom.G.shape[0], b=dom.g, lb=dom.lb, ub=dom.ub
    )
    low = solve_lp(base)
    if low.status == "unbounded":
        raise ValueError("domain is not compact: big-M undefined")
    if low.status == "infeasible":
        raise ValueError("domain is empty")
    neg = LpProblem(
        c=-a, A=dom.G, senses=["<="] * dom.G.shape[0], b=dom.g, lb=dom.lb, ub=dom.ub
    )
    high = solve_lp(neg)
    if high.status == "unbounded":
        raise ValueError("domain is not compact: big-M undefined")
    return low.objective, -high.objective


# Row families after the domain rows, and the z coefficient of the scenario
# rows: "big_m", "h" (quantile-shifted), or "h_surviving" (h, keeping only the
# scenario rows of samples above the quantile, and z, r and the indicator row
# only for samples above it in some row).
_PRESETS = {
    "saa": (("knapsack", "scenario_saa"), None),
    "basic": (("budget", "indicator", "scenario"), "big_m"),
    "knapsack": (("budget", "indicator", "knapsack", "scenario", "scenario_saa"), "big_m"),
    "reduced": (("budget", "indicator", "knapsack", "scenario"), "h"),
    "compact": (("budget", "indicator", "knapsack", "scenario", "quantile_bound"),
                "h_surviving"),
}
FORMULATION_KINDS = tuple(_PRESETS)
THETA_MATRICES = ("basic", "knapsack", "compact")


def _build(instance: DrccpInstance, kind: str, big_m=None, quant=None,
           max_theta: bool = False) -> MipModel:
    """The one formulation builder.  With max_theta the radius becomes a
    variable and the objective is max theta; otherwise min cost @ x."""
    families, z_rule = _PRESETS[kind]
    with_rt = "budget" in families
    if with_rt and not max_theta and instance.theta <= 0.0:
        raise ValueError(
            "theta must be positive for distance-based formulations; "
            "use the saa formulation for radius zero"
        )
    if big_m is None:
        big_m = compute_big_m(instance)
    if quant is None:
        quant = compute_quantiles(instance)
    n, p_count, dom = instance.n, instance.p, instance.domain
    # scenario-type rows come one per (i, p) pair, i-major; `keep` marks the
    # pairs that get a row and `ids` the samples that get z, r and an
    # indicator row: in compact, those above the quantile in some row
    keep = slice(None)
    ids = np.arange(n)
    if z_rule == "h_surviving":
        surviving = np.zeros((n, p_count), dtype=bool)
        for p, s in enumerate(quant.surviving):
            surviving[s, p] = True
        keep = surviving.ravel()
        ids = np.flatnonzero(surviving.any(axis=1))

    m = MipModel()
    x = m.add_vars([f"x[{j}]" for j in range(instance.dim_x)], CONTINUOUS,
                   dom.lb, dom.ub, "x")
    z = m.add_vars([f"z[{i}]" for i in ids.tolist()], BINARY, 0.0, 1.0, "z")
    if with_rt:
        r = m.add_vars([f"r[{i}]" for i in ids.tolist()], CONTINUOUS, 0.0, math.inf, "r")
        t = m.add_var("t", CONTINUOUS, 0.0, math.inf, "t")
    if max_theta:
        theta = m.add_var("theta", CONTINUOUS, 0.0, math.inf, "theta")
    m.num_samples, m.sample_ids = n, ids
    # z and r column of each kept sample; the r block follows the z block
    z_of = np.empty(n, dtype=np.intp)
    z_of[ids] = z
    r_of = z_of + ids.size

    x_coefs, bxi = -quant.a, quant.bxi
    row_i = np.repeat(np.arange(n), p_count)
    row_p = np.tile(np.arange(p_count), n)

    m.add_rows(x, dom.G, "<=", dom.g, "domain")
    if "budget" in families:
        cols = np.concatenate([[t], r, [theta] if max_theta else []])
        vals = np.concatenate([[instance.epsilon], np.full(ids.size, -1.0 / n),
                               [-1.0] if max_theta else []])
        m.add_rows(cols, vals, ">=", 0.0 if max_theta else instance.theta, "budget")
    if "indicator" in families:
        m.add_rows(np.column_stack([z, np.full(ids.size, t), r]), [-big_m, -1.0, 1.0], ">=",
                   -big_m, "indicator")
    if "knapsack" in families and ids.size:  # with no z the row would be empty
        m.add_rows(z, 1.0, "<=", float(quant.k if with_rt else instance.k), "knapsack")
    if "scenario" in families:
        si, sp = row_i[keep], row_p[keep]
        if z_rule == "big_m":
            z_coef = np.full(si.size, float(big_m))
        else:
            z_coef = quant.h[si, sp]
        cols = np.column_stack([np.broadcast_to(x, (si.size, x.size)), z_of[si],
                                np.full(si.size, t), r_of[si]])
        vals = np.column_stack([x_coefs[sp], z_coef, np.full(si.size, -1.0),
                                np.ones(si.size)])
        m.add_rows(cols, vals, ">=", -bxi[si, sp], "scenario")
    if "scenario_saa" in families:
        cols = np.column_stack([np.broadcast_to(x, (row_i.size, x.size)), z_of[row_i]])
        vals = np.column_stack([x_coefs[row_p], np.full(row_i.size, float(big_m))])
        m.add_rows(cols, vals, ">=", -bxi[row_i, row_p], "scenario_saa")
    if "quantile_bound" in families:
        m.add_rows(np.append(x, t), np.column_stack([x_coefs, np.full(p_count, -1.0)]),
                   ">=", (quant.q - quant.d) / quant.scale, "quantile_bound")

    if max_theta:
        m.set_objective([(theta, 1.0)], "max")
    else:
        m.set_objective(zip(x, instance.cost), "min")
    return m.validate()


def build_basic(instance: DrccpInstance, big_m: float | None = None) -> MipModel:
    return _build(instance, "basic", big_m)


def build_formulation(instance, kind, big_m=None, quant=None) -> MipModel:
    if kind not in _PRESETS:
        raise ValueError(f"unknown formulation kind {kind!r}")
    return _build(instance, kind, big_m, quant)


# ---------------------------------------------------------------------------
# Radius ceiling
# ---------------------------------------------------------------------------

def build_theta_variant(instance: DrccpInstance, matrix: str = "compact",
                        big_m: float | None = None) -> MipModel:
    """The radius-maximization model: theta becomes a variable, objective
    max theta, all other rows taken from the chosen formulation matrix."""
    if matrix not in THETA_MATRICES:
        raise ValueError(f"unsupported theta-variant matrix {matrix!r}")
    return _build(instance, matrix, big_m, max_theta=True)


def theta_max(instance: DrccpInstance, matrix: str = "compact", config=None) -> float:
    """Largest Wasserstein radius that keeps the instance feasible.

    Solves the radius-maximization MIP and returns the incumbent objective,
    which is a certified-feasible radius.  The search's first incumbent is
    the CVaR radius (the LP with every z at 0), so it prunes from the root
    on and returns that radius unless it finds one larger by more than its
    prune tolerance.  When the search stops before it proves the radius
    largest (a node or time limit), a RuntimeWarning names the status and
    the gap.  A ValueError says when no positive radius is feasible (the
    search proves radius zero largest, or the model is infeasible), and
    when a limit stops the search before it finds a positive radius.  The
    default constraint matrix is the compact one; the basic and knapsack
    matrices give the same optimum and are available for cross-checks.
    """
    from . import bnc

    result = bnc.solve(build_theta_variant(instance, matrix=matrix), config=config)
    # no positive radius is feasible when the search proves radius zero
    # largest or the model infeasible (the compact and knapsack matrices
    # allow only ceil(eps*N) - 1 discards); a search stopped by a limit
    # before a positive incumbent proves neither
    positive = result.objective is not None and result.objective > MARGIN_TOL
    if result.status == "infeasible" or (result.status == "optimal" and not positive):
        raise ValueError("no positive feasible radius: every point has at least eps*N "
                         "samples at distance zero")
    if not positive:
        raise ValueError(f"radius maximization ended {result.status!r} before it found "
                         "a positive radius")
    if result.status != "optimal":
        warnings.warn(
            f"radius maximization ended {result.status!r} at a {result.gap_pct}% gap: "
            "the returned radius is feasible but not proven largest",
            RuntimeWarning, stacklevel=2,
        )
    return float(result.objective)


def theta_grid(theta_max_value: float) -> list:
    """Ten-point radius grid: 0.001 then (j-1)/10 * theta_max for j=2..10."""
    return [0.001] + [(j - 1) / 10.0 * theta_max_value for j in range(2, 11)]
