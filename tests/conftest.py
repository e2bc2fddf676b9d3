"""Shared instance builders for the test suite.

Everything here is deterministic: fixed seeds, fixed literals.  Expected
values frozen in the tests were produced by the independent oracles in
drccp.oracles (breakpoint scans, support enumeration) or by hand algebra on
tiny cases, never by the code under test.
"""
import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from drccp.model import DrccpInstance, Polyhedron, SafetyRow, SampleSet
from drccp import transport


def line_instance(values, epsilon, theta, lo=0.0, hi=10.0):
    """One decision x in [lo, hi], cost +1, single safety row x > xi.

    The sample margins are x - xi, so with x fixed the distance profile is
    max(0, x - xi) and everything is checkable by hand.
    """
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    return DrccpInstance(
        cost=[1.0],
        domain=Polyhedron(G=np.zeros((0, 1)), g=[], lb=[lo], ub=[hi]),
        rows=(SafetyRow(a=[-1.0], b=[-1.0], d=0.0),),
        samples=SampleSet(values),
        epsilon=epsilon,
        theta=theta,
    )


def box_instance(seed, n=8, dim=2, rows=2, epsilon=0.25, theta=0.05):
    """Random small instance on a box domain with `rows` safety rows.

    Samples are drawn positive and the rows are xi_j > offset - x_j style,
    so the problem is feasible for large x and the chance constraint binds
    as x shrinks (cost minimizes the sum of coordinates).
    """
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.5, 2.0, size=(n, dim))
    safety = []
    for p in range(rows):
        b = np.zeros(dim)
        b[p % dim] = 1.0
        a = -rng.uniform(0.5, 1.5, size=dim)
        safety.append(SafetyRow(a=a, b=b, d=-rng.uniform(0.5, 1.0)))
    return DrccpInstance(
        cost=np.ones(dim),
        domain=Polyhedron(G=np.zeros((0, dim)), g=[], lb=np.zeros(dim), ub=np.full(dim, 5.0)),
        rows=tuple(safety),
        samples=SampleSet(samples),
        epsilon=epsilon,
        theta=theta,
    )


def small_transport(seed=7, factories=2, centers=3, n=10, epsilon=0.2, theta=0.05):
    tp = transport.generate(factories, centers, n, seed=seed, epsilon=epsilon)
    return tp, transport.to_drccp(tp, theta=theta)


def milp_minimum(model, c=None):
    """Minimum of `c` (default: the model's objective, negated for a max
    model) over the model's mixed-binary region, by scipy's MILP solver;
    +inf when the region is empty."""
    model_c, A, senses, b, lb, ub = model.to_dense()
    senses = np.asarray(senses)
    for presolve in (True, False):
        res = milp(
            model_c if c is None else c,
            integrality=model.binary.astype(int),
            bounds=Bounds(lb, ub),
            constraints=LinearConstraint(A, np.where(senses == "<=", -np.inf, b),
                                         np.where(senses == ">=", np.inf, b)),
            options={"mip_rel_gap": 1e-9, "presolve": presolve},
        )
        if res.status != 4:  # HiGHS presolve fails on a few tiny models
            break
    if res.status == 2:
        return math.inf
    assert res.status == 0, res.message
    return res.fun


def cvar_solution(model):
    """A fresh solver's solution of the model's LP with every binary fixed
    at 0: no sample is discarded, the CVaR plan (the CVaR radius in the
    theta variant) that `bnc.solve` seeds its search with."""
    from drccp.bnc import model_to_lp
    from drccp.simplex import SimplexSolver

    solver = SimplexSolver(model_to_lp(model)[0])
    for j in np.flatnonzero(model.binary).tolist():
        solver.set_bound(j, 0.0, 0.0)
    return solver.solve()


def assert_supports_solve_as_cold(model, instance, objective=None):
    """Every support LP of the referees' warm generator ends with the status
    of a fresh solver's cold solve of that support, and an optimum within
    1e-9 relative (absolute below 1).  Returns the statuses by support
    size and the iterations of the warm and of the cold solves."""
    from drccp.bnc import model_to_lp
    from drccp.oracles import _solved_supports
    from drccp.simplex import SimplexSolver

    prob, _ = model_to_lp(model)
    if objective is not None:
        prob.c = objective
    z_idx = model.block_indices("z")
    statuses = {}
    iterations = [0, 0]
    for support, warm in _solved_supports(model, instance, 10**5, "test", objective):
        cold_solver = SimplexSolver(prob)
        for pos, j in enumerate(z_idx):
            val = 1.0 if pos in support else 0.0
            cold_solver.set_bound(j, val, val)
        cold = cold_solver.solve()
        assert warm.status == cold.status, support
        if cold.status == "optimal":
            assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        statuses.setdefault(len(support), []).append(warm.status)
        iterations[0] += warm.iterations
        iterations[1] += cold.iterations
    return statuses, *iterations


@pytest.fixture
def tiny_line():
    return line_instance([0.1, 0.2, 0.3, 0.4, 0.5], epsilon=0.2, theta=0.01)
