"""LP solver: agreement with an independent solver, duality, certificates,
the feasibility tolerance, anti-cycling, determinism, warm starts, the dual
loop of warm re-solves, basis repair, the stored structural block of the
inverse, and the per-iteration selection rules and state."""
import contextlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from conftest import box_instance
from drccp import bnc, simplex
from drccp.bench import ExperimentConfig, cell_seed
from drccp.bnc import BncConfig
from drccp.constants import COST_SHIFT, DUAL_PIVOT_TOL, DUAL_TOL, FACTOR_TOL, FEAS_TOL, PIVOT_TOL
from drccp.cuts import MixingSeparator
from drccp.formulations import build_formulation, compute_quantiles, theta_grid, theta_max
from drccp.simplex import (
    ST_BASIC,
    ST_FREE,
    ST_LOWER,
    ST_UPPER,
    LpProblem,
    SimplexSolver,
    SimplexStall,
    solve_lp,
)
from drccp.transport import generate, to_drccp, transport_big_m

TOL = 1e-7


@contextlib.contextmanager
def recorded_pivots():
    """Log (entering, leaving) of every pivot the simplex takes in the block.

    Both solve loops, primal and dual, pivot through `_pivot`; the leaving
    column is `basis[pos]` when it is called.  `load_state` installs a basis
    by refactorization and takes no pivots; the pivots of `_repair_basis`
    do not go through `_pivot` and are not logged.
    """
    log = []
    pivot = SimplexSolver._pivot

    def spy(self, q, pos, *args):
        log.append((int(q), int(self.basis[pos])))
        return pivot(self, q, pos, *args)

    SimplexSolver._pivot = spy
    try:
        yield log
    finally:
        SimplexSolver._pivot = pivot


def cap_iterations(patch, cap):
    """Run both solve loops on one budget of `cap` iterations in place of
    the one `solve` computes; `patch` is a pytest MonkeyPatch."""
    for name in ("_dual", "_primal"):
        inner = getattr(SimplexSolver, name)

        def capped(self, c_pad, max_iter, *rest, inner=inner):
            return inner(self, c_pad, cap, *rest)

        patch.setattr(SimplexSolver, name, capped)


def random_problem(rng, allow_equalities=True):
    n = rng.integers(2, 9)
    m = rng.integers(1, 13)
    A = np.round(rng.normal(size=(m, n)) * 3.0, 3)
    c = np.round(rng.normal(size=n) * 2.0, 3)
    kinds = ["<=", ">="] + (["=="] if allow_equalities else [])
    senses = [kinds[rng.integers(len(kinds))] for _ in range(m)]
    # Pick a reference point inside the box so most instances are feasible,
    # then set each rhs on the feasible side of it (equalities exactly).
    lb = np.where(rng.random(n) < 0.8, np.round(rng.uniform(-3, 0, n), 3), -math.inf)
    ub = np.where(rng.random(n) < 0.8, np.round(rng.uniform(0.5, 4, n), 3), math.inf)
    ref = np.where(np.isfinite(lb), lb, -1.0) * 0.3 + np.where(np.isfinite(ub), ub, 2.0) * 0.3
    b = A @ ref
    for i, s in enumerate(senses):
        if s == "<=":
            b[i] += abs(rng.normal()) * 0.5
        elif s == ">=":
            b[i] -= abs(rng.normal()) * 0.5
    return LpProblem(c=c, A=A, senses=senses, b=np.round(b, 3), lb=lb, ub=ub)


def scipy_solve(p):
    rows_ub, rhs_ub, rows_eq, rhs_eq = [], [], [], []
    for row, s, bi in zip(p.A, p.senses, p.b):
        if s == "<=":
            rows_ub.append(row)
            rhs_ub.append(bi)
        elif s == ">=":
            rows_ub.append(-row)
            rhs_ub.append(-bi)
        else:
            rows_eq.append(row)
            rhs_eq.append(bi)
    return linprog(
        p.c,
        A_ub=np.array(rows_ub) if rows_ub else None,
        b_ub=np.array(rhs_ub) if rhs_ub else None,
        A_eq=np.array(rows_eq) if rows_eq else None,
        b_eq=np.array(rhs_eq) if rhs_eq else None,
        bounds=list(zip(p.lb, p.ub)),
        method="highs",
    )


class TestAgainstReference:
    def test_random_lps_match_reference(self):
        rng = np.random.default_rng(20240814)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(120):
            prob = random_problem(rng)
            ours = solve_lp(prob)
            ref = scipy_solve(prob)
            statuses[ours.status] += 1
            if ref.status == 0:
                assert ours.status == "optimal"
                scale = max(1.0, abs(ref.fun))
                assert abs(ours.objective - ref.fun) <= 1e-7 * scale
                np.testing.assert_allclose(prob.c @ ours.x, ours.objective, atol=1e-9)
            elif ref.status == 2:
                assert ours.status == "infeasible"
            elif ref.status == 3:
                assert ours.status == "unbounded"
        # The generator must actually exercise every outcome.
        assert statuses["optimal"] > 60
        assert statuses["infeasible"] > 0
        assert statuses["unbounded"] > 0

    def test_solution_feasibility(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            prob = random_problem(rng)
            sol = solve_lp(prob)
            if sol.status != "optimal":
                continue
            x = sol.x
            assert np.all(x >= prob.lb - 1e-7) and np.all(x <= prob.ub + 1e-7)
            act = prob.A @ x
            for i, s in enumerate(prob.senses):
                if s == "<=":
                    assert act[i] <= prob.b[i] + 1e-7
                elif s == ">=":
                    assert act[i] >= prob.b[i] - 1e-7
                else:
                    assert abs(act[i] - prob.b[i]) <= 1e-7


class TestDuality:
    def test_reduced_costs_and_sign_conditions(self):
        rng = np.random.default_rng(5150)
        checked = 0
        for _ in range(60):
            prob = random_problem(rng)
            sol = solve_lp(prob)
            if sol.status != "optimal":
                continue
            checked += 1
            d = prob.c - prob.A.T @ sol.duals
            np.testing.assert_allclose(sol.reduced_costs, d, atol=1e-7)
            basic_structurals = set(j for j in sol.basis if j < prob.num_cols)
            for j in range(prob.num_cols):
                if j in basic_structurals:
                    assert abs(d[j]) <= 1e-6
                elif abs(sol.x[j] - prob.lb[j]) <= 1e-7:
                    assert d[j] >= -1e-6  # raising from lower cannot improve a min
                elif abs(sol.x[j] - prob.ub[j]) <= 1e-7:
                    assert d[j] <= 1e-6
        assert checked > 30

    def test_strong_duality_identity(self):
        # c@x = y@b + d@x holds at optimality for the bounded-variable form.
        rng = np.random.default_rng(88)
        checked = 0
        for _ in range(40):
            prob = random_problem(rng)
            sol = solve_lp(prob)
            if sol.status != "optimal":
                continue
            checked += 1
            d = sol.reduced_costs
            lhs = prob.c @ sol.x
            rhs = sol.duals @ (prob.A @ sol.x) + d @ sol.x
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))
        assert checked > 20


@st.composite
def tiny_feasible_problems(draw):
    """An LP with a known feasible point, its rhs of size 1e-9 to 1e-6.

    At that size each bound violation of the starting basis can lie within
    FEAS_TOL while their sum does not.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    coef = st.floats(-3.0, 3.0).map(lambda v: round(v, 2))
    A = np.array(draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=m, max_size=m)))
    c = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
    senses = draw(st.lists(st.sampled_from(["<=", ">=", "=="]), min_size=m, max_size=m))
    ub = np.array(draw(st.lists(st.one_of(st.floats(0.5, 2.0), st.just(math.inf)),
                                min_size=n, max_size=n)))
    share = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    gap = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    point = share * np.where(np.isfinite(ub), ub, 1.0)
    b = A @ point + np.select([np.array(senses) == "<=", np.array(senses) == ">="], [gap, -gap])
    peak = np.abs(b).max()
    scale = draw(st.floats(1e-9, 1e-6)) / (peak if peak > 0 else 1.0)
    prob = LpProblem(c=c, A=A, senses=senses, b=b * scale, lb=np.zeros(n), ub=ub * scale)
    return prob, point * scale


class TestFeasibilityTolerance:
    @pytest.mark.parametrize("m, rhs", [(2, 6e-8), (3, 5e-8)])
    def test_violations_within_tolerance_are_feasible(self, m, rhs):
        # each slack of the cold basis violates its bound by rhs <= FEAS_TOL,
        # their sum exceeds it
        prob = LpProblem(c=np.ones(m), A=np.eye(m), senses=[">="] * m, b=np.full(m, rhs),
                         lb=np.zeros(m), ub=np.full(m, math.inf))
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert abs(sol.objective - m * rhs) <= 1e-6

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tiny_feasible_problems())
    def test_feasible_by_construction_is_never_infeasible(self, drawn):
        prob, point = drawn
        solver = SimplexSolver(prob)
        assert solver.solve().status != "infeasible"
        state = solver.get_state()
        solver.set_bound(0, point[0], point[0])  # the known point stays feasible
        solver.load_state(*state)
        assert solver.solve().status != "infeasible"


class TestPhaseOneScaling:
    """Phase 1 of the primal loop ends infeasible only when no column gains
    beyond PIVOT_TOL, priced from a fresh inverse, as the dual loop does."""

    def test_badly_scaled_row_is_not_infeasible(self):
        # the cold slack basis violates the >= row and is not dual feasible
        # (x prices in), so phase 1 runs; the row's only entry, 5e-8, gains
        # within DUAL_TOL but beyond PIVOT_TOL
        assert PIVOT_TOL < 5e-8 <= DUAL_TOL
        prob = LpProblem(c=[-1.0], A=[[5e-8]], senses=[">="], b=[2.5e-6],
                         lb=[0.0], ub=[100.0])
        sol = solve_lp(prob)
        ref = scipy_solve(prob)
        assert sol.status == "optimal" and sol.dual_iterations == 0 and ref.status == 0
        assert abs(sol.objective + 100.0) <= 1e-9 and abs(sol.x[0] - 100.0) <= 1e-9
        assert abs(sol.objective - ref.fun) <= TOL
        # the infeasible twin: x reaches at most 5e-8 * 100 = 5e-6 < 1e-5
        prob.b[0] = 1e-5
        sol = solve_lp(prob)
        assert sol.status == "infeasible" and certificate_refutes(prob, sol.farkas)
        assert scipy_solve(prob).status == 2

    def test_tiny_gains_after_updates_refactorize_first(self, monkeypatch):
        # x0 enters first and fixes row 0; row 1's only gain, 5e-8, is then
        # priced again from a refactorized inverse before x1 enters
        prob = LpProblem(c=[-1.0, -1.0], A=[[1.0, 0.0], [0.0, 5e-8]],
                         senses=[">=", ">="], b=[1.0, 2.5e-6],
                         lb=[0.0, 0.0], ub=[10.0, 100.0])
        refactors = []
        refactor = SimplexSolver._refactor

        def spy(self):
            refactors.append(self._pivots_since_refactor)
            return refactor(self)

        monkeypatch.setattr(SimplexSolver, "_refactor", spy)
        sol = solve_lp(prob)
        assert sol.status == "optimal" and sol.dual_iterations == 0
        assert abs(sol.objective + 110.0) <= 1e-9
        assert refactors == [1]


def certificate_refutes(prob, y):
    """True if y proves infeasibility: the aggregated row cannot be met by
    any point of the box.  Tries both sign orientations."""
    for sign in (1.0, -1.0):
        yy = sign * y
        ok = True
        for yi, s in zip(yy, prob.senses):
            if s == "<=" and yi > 1e-9:
                ok = False
            if s == ">=" and yi < -1e-9:
                ok = False
        if not ok:
            continue
        u = prob.A.T @ yy
        drop = 1e-9 * max(1.0, float(np.abs(yy).sum() * np.abs(prob.A).max()))
        u[np.abs(u) <= drop] = 0.0
        best = 0.0
        for j in range(prob.num_cols):
            if u[j] > 0:
                best += u[j] * prob.ub[j]
            elif u[j] < 0:
                best += u[j] * prob.lb[j]
            if not math.isfinite(best):
                break
        if math.isfinite(best) and yy @ prob.b - best > 1e-9:
            return True
    return False


class TestCertificates:
    def test_farkas_on_random_infeasible(self):
        rng = np.random.default_rng(321)
        seen = 0
        for _ in range(400):
            prob = random_problem(rng)
            sol = solve_lp(prob)
            if sol.status != "infeasible":
                continue
            seen += 1
            assert sol.farkas is not None
            assert certificate_refutes(prob, sol.farkas)
            if seen >= 10:
                break
        assert seen >= 10

    def test_farkas_hand_case(self):
        # x <= 1 (box) but row demands x >= 2.
        prob = LpProblem(c=[1.0], A=[[1.0]], senses=[">="], b=[2.0], lb=[0.0], ub=[1.0])
        sol = solve_lp(prob)
        assert sol.status == "infeasible"
        assert certificate_refutes(prob, sol.farkas)

    def test_unbounded_ray(self):
        prob = LpProblem(
            c=[-1.0, 0.0],
            A=[[1.0, -1.0]],
            senses=["<="],
            b=[0.0],
            lb=[0.0, 0.0],
            ub=[math.inf, math.inf],
        )
        sol = solve_lp(prob)
        assert sol.status == "unbounded"
        ray = sol.ray
        assert prob.c @ ray < -1e-9
        act = prob.A @ ray
        assert act[0] <= 1e-9
        assert np.all(ray >= -1e-9)


class TestAntiCycling:
    def test_beale_example(self):
        # Classic degenerate LP on which naive Dantzig pricing cycles.
        prob = LpProblem(
            c=[-0.75, 150.0, -0.02, 6.0],
            A=[
                [0.25, -60.0, -1.0 / 25.0, 9.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            senses=["<=", "<=", "<="],
            b=[0.0, 0.0, 1.0],
            lb=np.zeros(4),
            ub=np.full(4, math.inf),
        )
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert abs(sol.objective - (-0.05)) <= 1e-9
        np.testing.assert_allclose(sol.x, [1.0 / 25.0, 0.0, 1.0, 0.0], atol=1e-9)

    def test_bland_rule_matches_reference(self, monkeypatch):
        # with no degenerate streak tolerated, Bland's rule takes over at the
        # first degenerate step; many zero-rhs rows make most steps degenerate
        # and leave ties in the ratio test
        monkeypatch.setattr(simplex, "_DEGEN_STREAK", 0)
        bland_calls = {"entering": 0, "ratio": 0}
        eligible, ratio = SimplexSolver._eligible_entering, SimplexSolver._ratio

        def eligible_spy(self, d, bland):
            bland_calls["entering"] += bland
            return eligible(self, d, bland)

        def ratio_spy(self, q, sigma, w, xb, lo, hi, below, above, bland):
            bland_calls["ratio"] += bland
            return ratio(self, q, sigma, w, xb, lo, hi, below, above, bland)

        monkeypatch.setattr(SimplexSolver, "_eligible_entering", eligible_spy)
        monkeypatch.setattr(SimplexSolver, "_ratio", ratio_spy)
        rng = np.random.default_rng(31337)
        for _ in range(8):
            m, n = 14, 7
            A = np.round(rng.normal(size=(m, n)), 2)
            b = np.where(np.arange(m) < 10, 0.0, np.round(rng.uniform(1, 3, m), 2))
            prob = LpProblem(c=np.round(rng.normal(size=n), 2), A=A, senses=["<="] * m, b=b,
                             lb=np.zeros(n), ub=np.round(rng.uniform(1, 4, n), 2))
            sol = solve_lp(prob)
            ref = scipy_solve(prob)
            assert sol.status == "optimal" and ref.status == 0
            assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
        assert bland_calls["entering"] > 0 and bland_calls["ratio"] > 0

    def test_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(9)
        prob = random_problem(rng)
        solver = SimplexSolver(prob)
        cap_iterations(monkeypatch, 1)
        with pytest.raises(SimplexStall):
            solver.solve()


class TestDeterminism:
    def test_pivot_replay_identical(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            prob = random_problem(rng)
            with recorded_pivots() as p1:
                s1 = solve_lp(prob)
            with recorded_pivots() as p2:
                s2 = solve_lp(prob)
            assert s1.status == s2.status
            assert p1 == p2
            if s1.status == "optimal":
                assert s1.objective == s2.objective
                np.testing.assert_array_equal(s1.x, s2.x)


class TestWarmStart:
    def test_add_row_warm_equals_cold(self):
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(30):
            prob = random_problem(rng, allow_equalities=False)
            solver = SimplexSolver(prob)
            first = solver.solve()
            if first.status != "optimal":
                continue
            # Cut off the current optimum with a fresh row.
            row = np.round(rng.normal(size=prob.num_cols), 3)
            rhs = row @ first.x - 0.25
            solver.add_row(row, "<=", rhs)
            warm = solver.solve()
            cold = solve_lp(
                LpProblem(
                    c=prob.c,
                    A=np.vstack([prob.A, row]),
                    senses=prob.senses + ["<="],
                    b=np.append(prob.b, rhs),
                    lb=prob.lb,
                    ub=prob.ub,
                )
            )
            assert warm.status == cold.status
            if warm.status == "optimal":
                hits += 1
                assert abs(warm.objective - cold.objective) <= 1e-7 * max(1.0, abs(cold.objective))
        assert hits > 10

    def test_set_bound_and_state_reload(self):
        rng = np.random.default_rng(4242)
        prob = random_problem(rng, allow_equalities=False)
        solver = SimplexSolver(prob)
        base = solver.solve()
        assert base.status == "optimal"
        state = solver.get_state()
        # Fix the first structural to its upper bound and re-solve warm.
        solver.set_bound(0, prob.ub[0] if math.isfinite(prob.ub[0]) else 1.0,
                         prob.ub[0] if math.isfinite(prob.ub[0]) else 1.0)
        fixed_warm = solver.solve()
        lb2, ub2 = prob.lb.copy(), prob.ub.copy()
        lb2[0] = ub2[0] = prob.ub[0] if math.isfinite(prob.ub[0]) else 1.0
        fixed_cold = solve_lp(LpProblem(c=prob.c, A=prob.A, senses=prob.senses,
                                        b=prob.b, lb=lb2, ub=ub2))
        assert fixed_warm.status == fixed_cold.status
        if fixed_warm.status == "optimal":
            assert abs(fixed_warm.objective - fixed_cold.objective) <= 1e-7
        # Restore the original bound and basis: the original optimum returns.
        solver.set_bound(0, prob.lb[0], prob.ub[0])
        solver.load_state(*state)
        again = solver.solve()
        assert again.status == "optimal"
        assert abs(again.objective - base.objective) <= 1e-9 * max(1.0, abs(base.objective))

    def test_load_state_rejects_state_from_before_add_row(self):
        prob = LpProblem(
            c=[1.0, 2.0],
            A=[[1.0, 1.0]],
            senses=[">="],
            b=[1.0],
            lb=[0.0, 0.0],
            ub=[5.0, 5.0],
        )
        solver = SimplexSolver(prob)
        first = solver.solve()
        assert first.status == "optimal"
        state = solver.get_state()
        solver.add_row([0.0, 1.0], ">=", 0.25)
        with pytest.raises(ValueError, match="does not match solver shape"):
            solver.load_state(*state)  # captured before the row existed
        sol = solver.solve()  # warm from the basis add_row extended
        assert sol.status == "optimal"
        assert abs(sol.objective - 1.25) <= 1e-9  # x = (0.75, 0.25)

    def test_load_state_shape_mismatch_rejected(self):
        prob = LpProblem(c=[1.0], A=[[1.0]], senses=["<="], b=[1.0], lb=[0.0], ub=[2.0])
        solver = SimplexSolver(prob)
        solver.solve()
        basis, stat = solver.get_state()
        with pytest.raises(ValueError, match="basis"):
            solver.load_state(basis[:0], stat)

    def test_load_state_rejects_indices_and_codes_it_cannot_use(self):
        # a basis index outside [0, n + m) or a status code outside
        # ST_LOWER..ST_FREE is rejected before anything changes; -1 used to
        # wrap to the last slack and end `optimal` at 0.0
        prob = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0], [1.0, -1.0]], senses=[">=", "<="],
                         b=[1.0, 0.5], lb=[0.0, 0.0], ub=[10.0, 10.0])
        solved = SimplexSolver(prob)
        assert abs(solved.solve().objective - 1.0) <= 1e-12
        basis, stat = solved.get_state()
        solver = SimplexSolver(prob)
        before = solver.get_state()
        for bad_basis, bad_stat in (([-1, 1], stat), ([0, 9], stat), ([0, 4], stat),
                                    (basis, np.where(stat == ST_BASIC, stat, 7)),
                                    (basis, np.where(stat == ST_BASIC, stat, -1))):
            with pytest.raises(ValueError, match="outside"):
                solver.load_state(bad_basis, bad_stat)
            assert all(np.array_equal(a, b) for a, b in zip(solver.get_state(), before))
        solver.load_state(basis, stat)
        sol = solver.solve()
        assert sol.status == "optimal" and abs(sol.objective - 1.0) <= 1e-12

    def test_set_bound_rejects_slack_index(self):
        prob = LpProblem(c=[1.0], A=[[1.0]], senses=["<="], b=[1.0], lb=[0.0], ub=[2.0])
        solver = SimplexSolver(prob)
        with pytest.raises(IndexError):
            solver.set_bound(1, 0.0, 0.0)
        # a negative index would count back from the last row's slack
        prob = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], senses=[">="], b=[1.0],
                         lb=[0.0, 0.0], ub=[5.0, 5.0])
        solver = SimplexSolver(prob)
        with pytest.raises(IndexError):
            solver.set_bound(-1, 3.0, 4.0)
        np.testing.assert_array_equal(solver.lb, [0.0, 0.0, -math.inf])
        np.testing.assert_array_equal(solver.ub, [5.0, 5.0, 0.0])
        sol = solver.solve()
        assert sol.status == "optimal" and sol.objective == 1.0

    @pytest.mark.parametrize("lb, ub", [
        (math.inf, math.inf), (-math.inf, -math.inf), (math.nan, 1.0), (0.0, math.nan),
        (math.nan, math.nan), (2.0, 1.0), (math.inf, 1.0), (0.0, -math.inf),
    ])
    def test_set_bound_rejects_invalid_bounds(self, lb, ub):
        prob = LpProblem(c=[1.0], A=[[1.0]], senses=["<="], b=[1.0], lb=[0.0], ub=[2.0])
        solver = SimplexSolver(prob)
        with pytest.raises(ValueError, match="invalid bounds"):
            solver.set_bound(0, lb, ub)
        # the rejected call leaves the bounds as they were
        assert (solver.lb[0], solver.ub[0]) == (0.0, 2.0)
        sol = solver.solve()
        assert sol.status == "optimal" and sol.objective == 0.0

    @pytest.mark.parametrize("lb, ub", [(-math.inf, math.inf), (1.0, 1.0), (-math.inf, -3.0),
                                        (5.0, math.inf)])
    def test_set_bound_accepts_valid_bounds(self, lb, ub):
        prob = LpProblem(c=[0.0], A=[[1.0]], senses=["<="], b=[10.0], lb=[0.0], ub=[2.0])
        solver = SimplexSolver(prob)
        solver.set_bound(0, lb, ub)
        assert solver.solve().status == "optimal"

    @pytest.mark.parametrize("coefs, sense, rhs, match", [
        ([1.0, 0.0], "=>", 0.5, "unknown sense"),
        ([1.0, 0.0], "=", 0.5, "unknown sense"),
        ([1.0, math.nan], ">=", 0.5, "finite"),
        ([math.inf, 0.0], "<=", 0.5, "finite"),
        ([1.0, 0.0], ">=", math.nan, "finite"),
        ([1.0, 0.0], "<=", -math.inf, "finite"),
    ])
    def test_add_row_rejects_bad_rows(self, coefs, sense, rhs, match):
        prob = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], senses=[">="], b=[1.0],
                         lb=[0.0, 0.0], ub=[2.0, 2.0])
        solver = SimplexSolver(prob)
        solver.solve()
        m, A, basis = solver.m, solver.A.copy(), solver.basis.copy()
        with pytest.raises(ValueError, match=match):
            solver.add_row(coefs, sense, rhs)
        # the rejected row leaves the solver as it was
        assert solver.m == m
        assert np.array_equal(solver.A, A)
        assert np.array_equal(solver.basis, basis)
        assert solver.lb.size == solver.ub.size == solver.stat.size == solver.nt
        sol = solver.solve()
        assert sol.status == "optimal" and sol.objective == pytest.approx(1.0)

    def test_lp_problem_and_add_row_share_the_sense_check(self):
        with pytest.raises(ValueError, match="unknown sense '=>'"):
            LpProblem(c=[1.0], A=[[1.0]], senses=["=>"], b=[1.0], lb=[0.0], ub=[2.0])
        for sense in ("<=", ">=", "=="):
            prob = LpProblem(c=[1.0], A=[[1.0]], senses=[sense], b=[1.0], lb=[0.0], ub=[2.0])
            solver = SimplexSolver(prob)
            solver.add_row([1.0], sense, 1.0)
            assert solver.m == 2

    def test_the_solver_keeps_the_models_a_and_never_writes_it(self):
        # to_dense builds A in the solver's Fortran order, so the solver
        # holds model_to_lp's array itself; add_row grows a copy
        model = build_formulation(box_instance(3, n=12), "knapsack")
        prob = bnc.model_to_lp(model)[0]
        before = prob.A.copy()
        solver = SimplexSolver(prob)
        assert np.shares_memory(solver.A, prob.A)
        assert solver.solve().status == "optimal"
        solver.add_row(np.ones(solver.n), ">=", -1.0)
        solver.set_bound(int(np.flatnonzero(model.binary)[0]), 1.0, 1.0)
        assert solver.solve().status == "optimal"
        assert not np.shares_memory(solver.A, prob.A)
        assert np.array_equal(solver.A[:-1], before) and solver.A.flags.f_contiguous
        assert prob.A.tobytes() == before.tobytes() and prob.A.flags.f_contiguous


# -- warm re-solves through the dual loop -------------------------------------

def warm_child(prob, fixes, cuts, cap=None):
    """Solve `prob`, fix columns (j, value) and append rows (coefs, sense,
    offset) that cut its optimum x off by `offset`, then re-solve, on a
    budget of `cap` iterations if one is given, warm from the optimal basis, which `add_row` extends by the
    new rows' slacks.  Returns the solver, the first and the warm solutions
    and the child LP as one problem, for a cold reference solve."""
    solver = SimplexSolver(prob)
    first = solver.solve()
    assert first.status == "optimal"
    lb, ub = prob.lb.copy(), prob.ub.copy()
    for j, value in fixes:
        solver.set_bound(j, value, value)
        lb[j] = ub[j] = value
    rows, senses, rhs = [prob.A], list(prob.senses), [prob.b]
    for coefs, sense, offset in cuts:
        cut = coefs @ first.x + (offset if sense == ">=" else -offset)
        solver.add_row(coefs, sense, cut)
        rows.append(coefs[None, :])
        senses.append(sense)
        rhs.append([cut])
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            cap_iterations(patch, cap)
        warm = solver.solve()
    child = LpProblem(c=prob.c, A=np.vstack(rows), senses=senses, b=np.concatenate(rhs),
                      lb=lb, ub=ub)
    return solver, first, warm, child


def random_edits(rng, prob, x):
    """Up to two fixes (at a bound or in between) and up to two cuts, at
    least one edit in all."""
    n = prob.num_cols
    fixes, cuts = [], []
    for _ in range(rng.integers(0, 3)):
        j = int(rng.integers(n))
        lo = prob.lb[j] if math.isfinite(prob.lb[j]) else x[j] - 2.0
        hi = prob.ub[j] if math.isfinite(prob.ub[j]) else x[j] + 2.0
        fixes.append((j, float(np.round(lo + rng.choice([0.0, 1.0, rng.random()]) * (hi - lo), 3))))
    for _ in range(rng.integers(0 if fixes else 1, 3)):
        cuts.append((np.round(rng.normal(size=n), 3), str(rng.choice(["<=", ">="])),
                     float(np.round(rng.uniform(0.05, 2.0), 3))))
    return fixes, cuts


@st.composite
def bounded_lps_with_edits(draw):
    """A boxed LP with mixed senses, feasible at a drawn point of the box,
    plus the fixes and cuts (at least one edit) of one warm child."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    coef = st.integers(-30, 30).map(lambda v: v / 10)
    A = np.array(draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=m, max_size=m)))
    c = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
    lb = np.array(draw(st.lists(st.integers(-3, 0), min_size=n, max_size=n)), dtype=float)
    ub = lb + np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    senses = draw(st.lists(st.sampled_from(["<=", ">=", "=="]), min_size=m, max_size=m))
    share = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    gap = np.array(draw(st.lists(st.integers(0, 10), min_size=m, max_size=m))) / 10
    b = A @ (lb + share * (ub - lb)) + np.select(
        [np.array(senses) == "<=", np.array(senses) == ">="], [gap, -gap])
    prob = LpProblem(c=c, A=A, senses=senses, b=b, lb=lb, ub=ub)
    shares = st.sampled_from([0.0, 1.0, 0.25])
    fixes = [(j, float(lb[j] + f * (ub[j] - lb[j])))
             for j, f in draw(st.lists(st.tuples(st.integers(0, n - 1), shares), max_size=2))]
    cut = st.tuples(st.lists(coef, min_size=n, max_size=n).map(np.array),
                    st.sampled_from(["<=", ">="]), st.integers(1, 20).map(lambda v: v / 10))
    cuts = draw(st.lists(cut, min_size=0 if fixes else 1, max_size=2))
    return prob, fixes, cuts


def row_certifies_infeasible(solver, y):
    """True if the row y @ [A | I] v = y @ b, which gives one basic column
    in terms of the nonbasic ones, cannot put that basic within its bounds:
    its reachable range over the nonbasic bounds misses them."""
    alpha = np.concatenate([y @ solver.A, y])
    alpha[np.abs(alpha) <= 1e-12] = 0.0  # rounding of exact zeros
    pos = int(np.abs(alpha[solver.basis]).argmax())
    r = solver.basis[pos]
    others = np.delete(alpha[solver.basis], pos)
    assert abs(abs(alpha[r]) - 1.0) <= 1e-9 and np.all(np.abs(others) <= 1e-9)
    nonbasic = np.flatnonzero(alpha != 0.0)
    nonbasic = nonbasic[~np.isin(nonbasic, solver.basis)]
    a = alpha[nonbasic]
    lo, hi = solver.lb[nonbasic], solver.ub[nonbasic]
    # alpha_r v_r = y @ b - sum over nonbasics of a_j v_j
    least = y @ solver.b - np.where(a > 0, a * hi, a * lo).sum()
    most = y @ solver.b - np.where(a > 0, a * lo, a * hi).sum()
    if alpha[r] < 0:
        least, most = -most, -least
    return most < solver.lb[r] or least > solver.ub[r]


class TestDualSimplex:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bounded_lps_with_edits())
    def test_warm_children_match_reference(self, drawn):
        prob, fixes, cuts = drawn
        solver, _, warm, child = warm_child(prob, fixes, cuts)
        ref = scipy_solve(child)
        assert ref.status in (0, 2)  # bounded by construction
        if ref.status == 2:
            assert warm.status == "infeasible"
        else:
            assert warm.status == "optimal"
            assert abs(warm.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
        assert_fresh_moves(solver)

    def test_dual_infeasibility_row_is_a_certificate(self):
        rng = np.random.default_rng(2005)
        certified = dual_optimal = 0
        for _ in range(80):
            prob = random_problem(rng)
            first = solve_lp(prob)
            if first.status != "optimal":
                continue
            solver, _, warm, child = warm_child(prob, *random_edits(rng, prob, first.x))
            dual_optimal += warm.status == "optimal" and warm.dual_iterations > 0
            if warm.status == "infeasible" and warm.iterations == warm.dual_iterations:
                assert row_certifies_infeasible(solver, warm.farkas)
                assert scipy_solve(child).status == 2
                certified += 1
        assert certified >= 20 and dual_optimal >= 10

    def test_warm_resolve_counts_dual_iterations(self):
        prob = boxed_problem(np.random.default_rng(1), 15, 20)
        solver, first, warm, _ = warm_child(prob, [(13, 0.0)], [])
        assert first.dual_iterations == 0 and first.iterations > 0
        assert warm.status == "optimal"
        assert 0 < warm.dual_iterations < warm.iterations
        again = solver.solve()  # the basis is optimal already
        assert again.dual_iterations == 0 and again.iterations == 1

    def test_warm_resolve_prices_twice(self, monkeypatch):
        # the dual loop prices once when it starts and then carries the
        # reduced costs through its pivots; the primal loop's one iteration
        # prices again to confirm optimality
        prob = boxed_problem(np.random.default_rng(1), 15, 20)
        solver = SimplexSolver(prob)
        assert solver.solve().status == "optimal"
        solver.set_bound(13, 0.0, 0.0)
        with counted(monkeypatch, "_price") as prices, counted(monkeypatch, "_factor") as factors:
            warm = solver.solve()
        assert warm.status == "optimal" and warm.dual_iterations >= 3
        assert warm.iterations == warm.dual_iterations + 1
        assert not factors and len(prices) == 2

    def test_carried_reduced_costs_match_a_fresh_price(self, monkeypatch):
        # at every dual iteration, carried or priced, `_dual`'s reduced costs
        # lie within 1e-9 * max(1, |d|) of a fresh price of the current basis
        price, dual_row = SimplexSolver._price, SimplexSolver._dual_row
        seen = {"carried": 0, "checked": 0}

        def spy(self, r, sign):
            caller = sys._getframe(1).f_locals  # `_dual`'s frame
            d, fresh = caller["d"], price(self, self._c_pad[self.basis])
            assert (np.abs(d - fresh) <= 1e-9 * np.maximum(1.0, np.abs(fresh))).all()
            seen["carried"] += caller["iters"] > 1 and self._pivots_since_refactor > 0
            seen["checked"] += 1
            return dual_row(self, r, sign)

        monkeypatch.setattr(SimplexSolver, "_dual_row", spy)
        rng = np.random.default_rng(1729)
        for prob in [basic_transport_lp()] + [boxed_problem(rng, 15, 20) for _ in range(5)]:
            for _ in warm_resolves(prob):
                pass
        assert seen["carried"] >= 20 and seen["checked"] > seen["carried"]

    def test_cold_dual_infeasible_start_is_primal(self):
        # the slack basis violates the >= row and x0 prices in (c0 < 0)
        prob = LpProblem(c=[-1.0, 2.0], A=[[1.0, 1.0]], senses=[">="], b=[1.0],
                         lb=[0.0, 0.0], ub=[3.0, 3.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal" and sol.objective == -3.0
        assert sol.dual_iterations == 0 and sol.iterations > 0

    def test_cold_dual_feasible_start_is_dual(self):
        prob = LpProblem(c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, -1.0]], senses=[">=", "<="],
                         b=[1.0, -0.5], lb=[0.0, 0.0], ub=[3.0, 3.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal" and abs(sol.objective - 1.75) <= 1e-12
        assert sol.dual_iterations == 2 and sol.iterations == 3

    def test_iteration_cap_is_shared_with_the_dual_loop(self):
        prob = boxed_problem(np.random.default_rng(1), 15, 20)

        def resolve(cap):
            return warm_child(prob, [(13, 0.0)], [], cap)[2]

        full = resolve(None)
        k = full.dual_iterations
        assert k >= 2 and full.iterations == k + 1
        with pytest.raises(SimplexStall):
            resolve(1)
        # after k dual iterations a cap of k leaves the primal loop one
        assert resolve(k).objective == full.objective
        with pytest.raises(SimplexStall):
            resolve(k - 1)

    def test_degenerate_hand_off_reaches_the_optimum(self, monkeypatch):
        # with the streak at -1 every dual run hands its basis to the primal
        # loop after one step; warm re-solves after set_bound and after
        # add_row still end at the cold optimum, which scipy confirms
        monkeypatch.setattr(simplex, "_DEGEN_STREAK", -1)
        rng = np.random.default_rng(1616)
        handed_off = {"set_bound": 0, "add_row": 0}
        for _ in range(80):
            prob = random_problem(rng, allow_equalities=False)
            first = solve_lp(prob)
            if first.status != "optimal":
                continue
            fixes, cuts = random_edits(rng, prob, first.x)
            for edit, edits in (("set_bound", (fixes, [])), ("add_row", ([], cuts))):
                if not any(edits):
                    continue
                _, _, warm, child = warm_child(prob, *edits)
                cold, ref = solve_lp(child), scipy_solve(child)
                assert warm.status == cold.status
                assert warm.dual_iterations <= 1
                if warm.status == "infeasible":
                    assert ref.status == 2
                    continue
                assert warm.status == "optimal" and ref.status == 0
                scale = max(1.0, abs(ref.fun))
                assert abs(warm.objective - cold.objective) <= 1e-7 * scale
                assert abs(warm.objective - ref.fun) <= 1e-7 * scale
                handed_off[edit] += warm.dual_iterations == 1 < warm.iterations
        assert min(handed_off.values()) >= 5

    def test_dual_stall_in_branch_and_cut_is_contained(self, monkeypatch):
        # node 1's warm re-solve takes several dual iterations; capped at one
        # it stalls in the dual loop, and the cold restart hides the stall
        # (eps*N = 2.4, so the model may discard 2 samples and branches)
        model = build_formulation(box_instance(50, epsilon=0.3), "compact")
        expected = bnc.solve(model)
        seen = {"calls": 0, "dual_iterations": [], "dual_stalls": 0}
        solve, dual = SimplexSolver.solve, SimplexSolver._dual

        def solve_spy(self, cutoff=math.inf):
            seen["calls"] += 1
            with pytest.MonkeyPatch.context() as patch:
                if seen["calls"] == 2:
                    cap_iterations(patch, 1)
                sol = solve(self, cutoff)
            seen["dual_iterations"].append(sol.dual_iterations)
            return sol

        def dual_spy(self, *args):
            try:
                return dual(self, *args)
            except SimplexStall:
                seen["dual_stalls"] += 1
                raise

        monkeypatch.setattr(SimplexSolver, "solve", solve_spy)
        monkeypatch.setattr(SimplexSolver, "_dual", dual_spy)
        res = bnc.solve(model)
        assert seen["dual_stalls"] == 1
        assert seen["dual_iterations"][0] > 0  # the root: a dual feasible cold start
        assert res.status == "optimal"
        assert abs(res.objective - expected.objective) <= 1e-9 * max(1.0, abs(expected.objective))

    def test_tiny_dual_pivot_from_a_fresh_inverse_is_taken(self):
        # the cold slack basis violates the >= row and is dual feasible; the
        # row's only entry, 5e-8, lies between PIVOT_TOL and DUAL_PIVOT_TOL,
        # and with no pivot since the last factorization the dual loop
        # pivots on it: a badly scaled row is not a Farkas certificate
        assert PIVOT_TOL < 5e-8 < DUAL_PIVOT_TOL
        prob = LpProblem(c=[1.0], A=[[5e-8]], senses=[">="], b=[2.5e-6],
                         lb=[0.0], ub=[100.0])
        with recorded_pivots() as log:
            sol = solve_lp(prob)
        assert sol.status == "optimal" and sol.dual_iterations == 1
        assert abs(sol.objective - 50.0) <= 1e-9 and abs(sol.x[0] - 50.0) <= 1e-9
        assert len(log) == 1
        # at or below PIVOT_TOL the dual loop certifies infeasibility itself
        prob.A[0, 0] = 5e-10
        sol = solve_lp(prob)
        assert sol.status == "infeasible" and sol.iterations == sol.dual_iterations == 1

    def test_tiny_dual_pivots_after_updates_refactorize_first(self, monkeypatch):
        # a row whose entries all lie within DUAL_PIVOT_TOL once pivots have
        # updated the inverse is priced again from a refactorized one
        prob = LpProblem(c=[1.0, 1.0], A=[[1.0, 0.0], [0.0, 5e-8]],
                         senses=[">=", ">="], b=[1.0, 2.5e-6],
                         lb=[0.0, 0.0], ub=[10.0, 100.0])
        solver = SimplexSolver(prob)
        refactors = []
        refactor = SimplexSolver._refactor

        def spy(self):
            refactors.append(self._pivots_since_refactor)
            return refactor(self)

        monkeypatch.setattr(SimplexSolver, "_refactor", spy)
        sol = solver.solve()
        assert sol.status == "optimal" and abs(sol.objective - 51.0) <= 1e-9
        assert refactors == [1]

    def test_dual_pivots_stay_above_the_dual_pivot_tolerance(self, monkeypatch):
        # on this transport cell the dual loop used to pivot on elements
        # down to exactly 0.0 and carry inf/NaN until the next refactorization
        tp = generate(5, 10, 50, cell_seed(20240801, 5, 10, 50, 0), 0.1)
        tmax = theta_max(to_drccp(tp, theta=0.001), config=BncConfig(node_limit=4000))
        inst = to_drccp(tp, theta=theta_grid(tmax)[9])
        elements = []
        pivot = SimplexSolver._pivot

        def spy(self, q, pos, w, *args):
            elements.append(abs(w[pos]))
            return pivot(self, q, pos, w, *args)

        monkeypatch.setattr(SimplexSolver, "_pivot", spy)
        res = bnc.solve(build_formulation(inst, "compact", big_m=transport_big_m(tp)))
        assert res.status == "optimal"
        assert abs(res.objective - 313.92868384229604) <= 1e-6
        assert elements and min(elements) > DUAL_PIVOT_TOL


@st.composite
def lps_with_tightened_bounds(draw):
    """A boxed LP feasible at a drawn point (as `bounded_lps_with_edits`
    draws it), one to three columns with a drawn sub-interval of their box
    as new bounds, and a cutoff offset from the first optimum."""
    prob, _, _ = draw(bounded_lps_with_edits())
    bounds = []
    for j in draw(st.lists(st.integers(0, prob.num_cols - 1), min_size=1, max_size=3)):
        lo, hi = sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                      min_size=2, max_size=2)))
        span = prob.ub[j] - prob.lb[j]
        bounds.append((j, prob.lb[j] + lo * span, prob.lb[j] + hi * span))
    offset = draw(st.sampled_from([-1.0, 0.0, 1e-8, 1e-3, 0.1, 0.5, 1.0, 3.0]))
    return prob, bounds, offset


def tightened_resolve(prob, bounds, **cutoff):
    """Solve `prob`, set `bounds` and re-solve warm: (first, re-solve)."""
    solver = SimplexSolver(prob)
    first = solver.solve()
    for j, lo, hi in bounds:
        solver.set_bound(j, lo, hi)
    return first, solver.solve(**cutoff)


def assert_same_bits(a, b):
    assert (a.status, a.iterations, a.dual_iterations) == (b.status, b.iterations, b.dual_iterations)
    assert float(a.objective).hex() == float(b.objective).hex()
    for field in ("x", "duals", "reduced_costs", "basis", "ray", "farkas"):
        u, v = getattr(a, field), getattr(b, field)
        assert (u is None) == (v is None), field
        if u is not None:
            assert u.tobytes() == v.tobytes(), field


class TestCutoff:
    """The dual loop stops once its objective, a lower bound on the
    optimum, reaches the cutoff; below it nothing changes."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lps_with_tightened_bounds())
    def test_a_cutoff_stops_only_past_the_optimum(self, drawn):
        prob, bounds, offset = drawn
        first, full = tightened_resolve(prob, bounds)
        assert first.status == "optimal"  # bounded and feasible by construction
        assert_same_bits(tightened_resolve(prob, bounds, cutoff=math.inf)[1], full)
        cutoff = first.objective + offset
        stopped = tightened_resolve(prob, bounds, cutoff=cutoff)[1]
        if stopped.status != "cutoff":
            assert_same_bits(stopped, full)
            return
        assert stopped.x is None and stopped.objective >= cutoff
        assert full.status in ("optimal", "infeasible")
        if full.status == "optimal":
            assert full.objective >= cutoff - 1e-9
            # the objective it stopped at is a lower bound on the optimum
            assert stopped.objective <= full.objective + 1e-9 * max(1.0, abs(full.objective))
            assert stopped.iterations <= full.iterations

    def test_stops_at_the_first_dual_objective_past_the_cutoff(self):
        # the cold slack basis is dual feasible and violates all three rows;
        # each dual pivot repairs one and raises the objective by 1, so the
        # objective runs 0, 1, 2, 3, and 3 is optimal
        prob = LpProblem(c=[1.0, 1.0, 1.0], A=np.eye(3), senses=[">="] * 3, b=[1.0, 1.0, 1.0],
                         lb=np.zeros(3), ub=np.full(3, 10.0))
        for cutoff, objective, iterations in ((0.5, 1.0, 1), (1.0, 2.0, 2), (1.5, 2.0, 2)):
            sol = SimplexSolver(prob).solve(cutoff=cutoff)
            assert (sol.status, sol.objective, sol.iterations) == ("cutoff", objective, iterations)
            assert sol.x is None and sol.dual_iterations == iterations
        # a basis that turns primal feasible is optimal, past the cutoff too
        for cutoff in (2.0, 2.5, math.inf):
            sol = SimplexSolver(prob).solve(cutoff=cutoff)
            assert (sol.status, sol.objective, sol.iterations) == ("optimal", 3.0, 4)

    def test_solve_or_restart_passes_the_cutoff_to_the_cold_retry(self, monkeypatch):
        prob = LpProblem(c=[1.0, 1.0, 1.0], A=np.eye(3), senses=[">="] * 3, b=[1.0, 1.0, 1.0],
                         lb=np.zeros(3), ub=np.full(3, 10.0))
        solver = SimplexSolver(prob)
        calls = []
        solve = SimplexSolver.solve

        def stall_once(self, cutoff=math.inf):
            calls.append(cutoff)
            if len(calls) == 1:
                raise SimplexStall("synthetic stall for testing")
            return solve(self, cutoff)

        monkeypatch.setattr(SimplexSolver, "solve", stall_once)
        sol = solver.solve_or_restart(0.5)
        assert calls == [0.5, 0.5] and sol.status == "cutoff" and sol.objective == 1.0


# -- shifted costs in warm re-solves -------------------------------------------

@st.composite
def zero_cost_lps(draw):
    """`lps_with_tightened_bounds`'s LP with its cost on the first one or two
    columns only, as in the `basic` model, where only x costs: most
    structurals and every slack cost nothing."""
    prob, bounds, _ = draw(lps_with_tightened_bounds())
    prob.c[draw(st.integers(1, 2)):] = 0.0
    return prob, bounds


def warm_and_cold(prob, bounds, cutoff=math.inf):
    """Re-solve `prob` after each of `bounds` in turn, warm from the last
    optimal basis by `load_state`, as a node of branch and cut, and cold
    from a fresh solver: the pairs (warm, cold, child LP), up to the first
    child that is not optimal."""
    solver = SimplexSolver(prob)
    assert solver.solve().status == "optimal"  # bounded and feasible by construction
    lb, ub = prob.lb.copy(), prob.ub.copy()
    out = []
    for j, lo, hi in bounds:
        state = solver.get_state()
        solver.set_bound(j, lo, hi)
        lb[j], ub[j] = lo, hi
        solver.load_state(*state)
        child = LpProblem(c=prob.c, A=prob.A, senses=prob.senses, b=prob.b, lb=lb.copy(),
                          ub=ub.copy())
        out.append((solver.solve(cutoff=cutoff), solve_lp(child), child))
        if out[-1][0].status != "optimal":
            break
    return out


def assert_feasible(prob, x):
    assert np.all(x >= prob.lb - FEAS_TOL) and np.all(x <= prob.ub + FEAS_TOL)
    excess = np.select([np.array(prob.senses) == "<=", np.array(prob.senses) == ">="],
                       [prob.A @ x - prob.b, prob.b - prob.A @ x], np.abs(prob.A @ x - prob.b))
    assert np.all(excess <= FEAS_TOL)


class TestCostShift:
    """A solve after `load_state` runs its dual loop on the costs shifted by
    COST_SHIFT along each nonbasic's move direction; its statuses, optima
    and cutoffs are those of the true costs."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(zero_cost_lps())
    def test_warm_resolves_end_as_cold_ones(self, drawn):
        prob, bounds = drawn
        for warm, cold, child in warm_and_cold(prob, bounds):
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
                assert warm.objective == float(prob.c @ warm.x)
                assert_feasible(child, warm.x)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(zero_cost_lps(), st.sampled_from([-1.0, -0.1, -1e-3, 0.0, 1e-3, 0.1, 1.0]))
    def test_the_true_costs_decide_a_warm_cutoff(self, drawn, offset):
        prob, bounds = drawn
        (_, cold, _), = warm_and_cold(prob, bounds[:1])
        assume(cold.status == "optimal")
        cutoff = cold.objective + offset
        (warm, _, _), = warm_and_cold(prob, bounds[:1], cutoff)
        tol = 1e-9 * max(1.0, abs(cold.objective))
        if offset >= 0.0:
            assert warm.status == "optimal" and abs(warm.objective - cold.objective) <= tol
        elif warm.status == "cutoff":
            assert cutoff <= warm.objective <= cold.objective + tol and warm.x is None
        else:
            assert warm.status == "optimal" and abs(warm.objective - cold.objective) <= tol

    def test_a_shifted_objective_past_the_cutoff_is_priced_again(self):
        # nothing costs, so every point is optimal at 0; the nonbasics rest
        # at 500 and 1000, where the shift alone puts the dual loop's
        # objective at 1.5e-4, past a cutoff of 0
        prob = LpProblem(c=[0.0, 0.0], A=[[1.0, 1.0]], senses=[">="], b=[2000.0],
                         lb=[1000.0, 1000.0], ub=[2000.0, 2000.0])
        for cutoff, status in ((0.0, "optimal"), (-1.0, "cutoff")):
            solver = SimplexSolver(prob)
            assert solver.solve().status == "optimal"
            state = solver.get_state()
            solver.set_bound(0, 500.0, 2000.0)  # the row's basic slack now violates it
            solver.load_state(*state)
            sol = solver.solve(cutoff=cutoff)
            assert (sol.status, sol.objective) == (status, 0.0)

    def test_only_a_solve_after_load_state_shifts_its_costs(self, monkeypatch):
        seen = []
        dual = SimplexSolver._dual

        def spy(self, c_pad, *rest):
            if c_pad is self._c_pad:
                seen.append("true")
            else:
                shifted = self._c_pad.copy()
                shifted[: self.n] += COST_SHIFT * self._dir[: self.n]
                assert c_pad.tobytes() == shifted.tobytes()
                seen.append("shifted")
            return dual(self, c_pad, *rest)

        monkeypatch.setattr(SimplexSolver, "_dual", spy)
        prob = random_problem(np.random.default_rng(5), allow_equalities=False)
        solver = SimplexSolver(prob)
        solver.solve()
        state = solver.get_state()
        solver.add_row(np.ones(prob.num_cols), "<=", 100.0)
        solver.solve()
        solver.load_state(*solver.get_state())
        solver.solve()
        solver.set_bound(0, prob.lb[0], prob.ub[0])
        solver.solve()
        solver.load_state(*solver.get_state())
        solver.reset_basis()
        solver.solve()
        assert len(state[0]) == prob.num_rows
        assert seen == ["true", "true", "shifted", "true", "true"]
        # in branch and cut: the seed, the cold root and its cut rounds
        # price the true costs, and every node after them loads a state
        loaded = []
        solve = SimplexSolver.solve

        def solve_spy(self, cutoff=math.inf):
            loaded.append("shifted" if self._loaded else "true")
            return solve(self, cutoff)

        monkeypatch.setattr(SimplexSolver, "solve", solve_spy)
        del seen[:]
        inst = box_instance(47, n=12, epsilon=0.255)
        res = bnc.solve(build_formulation(inst, "basic"), [MixingSeparator(inst)])
        assert res.status == "optimal" and res.cuts and res.nodes > 1
        cold = loaded.index("shifted")  # the seed, the root and at least one cut round
        assert seen == loaded and cold >= 3 and set(loaded[:cold]) == {"true"}
        assert loaded[cold:] == ["shifted"] * (res.nodes - 1)


def basis_matrix(solver):
    """The basis as an explicit m x m matrix: basic columns of [A | I]."""
    return np.hstack([solver.A, np.eye(solver.m)])[:, solver.basis]


def dense_inverse(solver):
    """The basis inverse as an explicit m x m matrix: the stored columns
    `binv_s` on the rows `rows_s`, and on each row covered by a basic slack
    the unit vector at that slack's basis position."""
    binv = np.zeros((solver.m, solver.m))
    binv[:, solver.rows_s] = solver.binv_s
    covered = np.flatnonzero(solver.slack_pos >= 0)
    binv[solver.slack_pos[covered], covered] = 1.0
    return binv


def violating(solver):
    """Whether some basic lies more than FEAS_TOL outside a bound."""
    return bool((np.maximum(solver.lb_B - solver.xb, solver.xb - solver.ub_B) > FEAS_TOL).any())


@contextlib.contextmanager
def forced_drift():
    """In the block, add 1e-4 to every entry of `binv_s` after each pivot
    that leaves the inverse REFACTOR_INTERVAL pivots old, so that the next
    drift test, in either loop, rebuilds it where a rebuild every
    REFACTOR_INTERVAL pivots would have.  Yields the `total_pivots` of each
    perturbation."""
    perturbed = []
    pivot = SimplexSolver._pivot

    def spy(self, *args):
        pivot(self, *args)
        if self._pivots_since_refactor == simplex.REFACTOR_INTERVAL:
            self.binv_s += 1e-4
            perturbed.append(self.total_pivots)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimplexSolver, "_pivot", spy)
        yield perturbed


class TestRefactor:
    @pytest.mark.parametrize("basis", [
        [12, 10, 8, 11, 9],  # k = 0: slacks only, not on their own positions
        [10, 3, 12, 0, 6],   # 0 < k < m: slacks of rows 2 and 4 at positions 0 and 2
        [4, 0, 7, 2, 5],     # k = m: structurals only
    ])
    def test_inverse_of_every_block_shape(self, basis):
        rng = np.random.default_rng(606)
        prob = LpProblem(c=rng.normal(size=8), A=rng.normal(size=(5, 8)), senses=["<="] * 5,
                         b=np.ones(5), lb=np.zeros(8), ub=np.ones(8))
        solver = SimplexSolver(prob)
        solver.basis = np.array(basis)
        solver._settle()
        solver._refactor()
        np.testing.assert_allclose(dense_inverse(solver) @ basis_matrix(solver), np.eye(5), atol=1e-9)

    def test_singular_structural_block_is_repaired(self, monkeypatch):
        # columns 0 and 1 are equal, so any basis holding both is singular
        prob = LpProblem(c=[-1.0, -2.0, -1.0], A=[[1.0, 1.0, 2.0], [2.0, 2.0, 1.0], [1.0, 1.0, 1.0]],
                         senses=["<=", "<=", "<="], b=[4.0, 5.0, 3.0],
                         lb=np.zeros(3), ub=np.full(3, 10.0))
        repairs = []
        repair = SimplexSolver._repair_basis

        def spy(self):
            repairs.append(self.basis.copy())
            repair(self)

        monkeypatch.setattr(SimplexSolver, "_repair_basis", spy)
        solver = SimplexSolver(prob)
        solver.basis = np.array([0, 1, 5])
        solver._settle()
        solver._refactor()
        assert len(repairs) == 1
        np.testing.assert_allclose(dense_inverse(solver) @ basis_matrix(solver), np.eye(3), atol=1e-9)
        sol = solver.solve()
        ref = scipy_solve(prob)
        assert sol.status == "optimal" and ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))

    def test_long_solves_through_refactors_match_reference(self, monkeypatch):
        # each forced drift is seen by the next iteration, which rebuilds
        # the inverse before it pivots again
        refactors = []
        refactor = SimplexSolver._refactor

        def spy(self):
            refactors.append(self.total_pivots)
            refactor(self)

        monkeypatch.setattr(SimplexSolver, "_refactor", spy)
        rng = np.random.default_rng(2024)
        for _ in range(3):
            m, n = 50, 80
            A = np.round(rng.normal(size=(m, n)), 3)
            lb = np.where(rng.random(n) < 0.9, 0.0, -math.inf)
            ub = np.where(rng.random(n) < 0.9, np.round(rng.uniform(1, 5, n), 3), math.inf)
            senses = list(rng.choice(["<=", ">=", "=="], size=m, p=[0.45, 0.45, 0.1]))
            gap = np.abs(rng.normal(size=m))
            side = np.select([np.array(senses) == "<=", np.array(senses) == ">="], [gap, -gap])
            prob = LpProblem(c=np.round(rng.normal(size=n), 3), A=A, senses=senses,
                             b=A @ (np.where(np.isfinite(ub), ub, 2.0) * 0.3) + side,
                             lb=lb, ub=ub)
            del refactors[:]
            solver = SimplexSolver(prob)
            with forced_drift() as perturbed:
                sol = solver.solve()
            ref = scipy_solve(prob)
            assert solver.total_pivots >= 150 and len(perturbed) >= 3
            assert refactors == perturbed and sol.refactorizations == len(refactors)
            assert sol.status == "optimal" and ref.status == 0
            assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))

    def test_repair_keeps_a_basic_slack_on_its_row(self):
        # columns 0 and 1 are equal and largest on row 2, whose slack
        # (column 5) is basic: the repair must not hand row 2 to column 0
        prob = LpProblem(c=[-1.0, -2.0, -1.0], A=[[1.0, 1.0, 2.0], [2.0, 2.0, 1.0], [3.0, 3.0, 1.0]],
                         senses=["<=", "<=", "<="], b=[4.0, 5.0, 3.0],
                         lb=np.zeros(3), ub=np.full(3, 10.0))
        solver = SimplexSolver(prob)
        solver.basis = np.array([0, 1, 5])
        solver._settle()
        solver._refactor()
        assert solver.basis[2] == 5 and 0 in solver.basis
        assert solver.total_pivots == 1  # the repair's pivot is counted
        np.testing.assert_allclose(dense_inverse(solver) @ basis_matrix(solver), np.eye(3), atol=1e-9)
        sol = solver.solve()
        ref = scipy_solve(prob)
        assert sol.status == "optimal" and ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))


    @staticmethod
    def twin_columns_install():
        """70 `<=` rows, columns 0 and 1 equal, and a stored basis of columns
        0-59 plus the slacks of rows 60-69: its structural block is singular,
        but `np.linalg.inv` returns an inverse for it without raising."""
        A = np.random.default_rng(1).normal(size=(70, 80))
        A[:, 1] = A[:, 0]
        prob = LpProblem(c=-np.ones(80), A=A, senses=["<="] * 70, b=np.ones(70),
                         lb=np.zeros(80), ub=np.ones(80))
        basis = np.concatenate([np.arange(60), 80 + np.arange(60, 70)])
        stat = np.full(150, ST_LOWER, dtype=np.int8)
        stat[basis] = ST_BASIC
        return prob, basis, stat

    def test_singular_block_that_inv_accepts_is_repaired(self, monkeypatch):
        prob, basis, stat = self.twin_columns_install()
        a_ss = prob.A[:60, :60]
        inv = np.linalg.inv(a_ss)  # does not raise
        assert np.abs(a_ss @ inv - np.eye(60)).max() > FACTOR_TOL
        repairs = []
        repair = SimplexSolver._repair_basis

        def spy(self):
            repairs.append(self.basis.copy())
            repair(self)

        monkeypatch.setattr(SimplexSolver, "_repair_basis", spy)
        solver = SimplexSolver(prob)
        solver.load_state(basis, stat)
        assert len(repairs) == 1 and np.array_equal(repairs[0], basis)
        np.testing.assert_allclose(dense_inverse(solver) @ basis_matrix(solver), np.eye(70),
                                   atol=1e-9)
        sol = solver.solve()
        ref = scipy_solve(prob)
        assert sol.status == "optimal" and ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))

    def test_repair_pivots_never_trigger_a_refactor(self, monkeypatch):
        # the repair brings in 59 structurals, more than REFACTOR_INTERVAL
        prob, basis, stat = self.twin_columns_install()
        refactors = []
        refactor = SimplexSolver._refactor

        def spy(self):
            refactors.append(self.total_pivots)
            refactor(self)

        monkeypatch.setattr(SimplexSolver, "_refactor", spy)
        solver = SimplexSolver(prob)
        solver.load_state(basis, stat)
        assert solver.total_pivots == 59 > simplex.REFACTOR_INTERVAL
        assert refactors == []
        assert solver._pivots_since_refactor == 0


def tightened_warm_start(seed):
    """A node re-solve of a (60, 80) `boxed_problem`: a fresh solver takes
    the upper bound of every basic structural inside its box halfway down
    from its optimal value, then `load_state` installs the optimal basis,
    which the dual loop re-solves in 145 to 216 pivots on seeds 0-4.
    Returns the LP, the solver, ready to solve, and the edited bounds."""
    prob = boxed_problem(np.random.default_rng(seed), 60, 80)
    first = SimplexSolver(prob)
    x, state = first.solve().x, first.get_state()
    basic = first.basis[first.basis < first.n]
    edits = [(int(j), prob.lb[j], (prob.lb[j] + x[j]) / 2)
             for j in basic if prob.lb[j] + 1e-3 < x[j] < prob.ub[j]]
    solver = SimplexSolver(prob)
    for j, lo, hi in edits:
        solver.set_bound(j, lo, hi)
    solver.load_state(*state)
    return prob, solver, edits


class TestDriftRefactor:
    """Both loops rebuild an inverse REFACTOR_INTERVAL or more pivots old
    only when a row priced through it drifts on the basic columns: the dual
    ratio row from sign * e_r, the primal reduced costs from 0 in phase 2
    and from minus the phase-1 costs in phase 1.  Nothing rebuilds on the
    pivot count alone.  `LpSolution.refactorizations` counts the rebuilds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drifted_inverse_is_rebuilt(self, seed):
        _, solver, _ = tightened_warm_start(seed)
        leaving = []
        dual_row = SimplexSolver._dual_row

        def spy(self, r, sign):
            leaving.append((r, self._pivots_since_refactor))
            return dual_row(self, r, sign)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SimplexSolver, "_dual_row", spy)
            clean = solver.solve()
        assert clean.status == "optimal" and clean.refactorizations == 0
        # a row that leaves once the inverse is old enough to be tested
        r = next(r for r, age in leaving if age >= simplex.REFACTOR_INTERVAL)
        _, solver, _ = tightened_warm_start(seed)
        j = int(np.abs(solver.binv_s[r]).argmax())
        solver.binv_s[r, j] *= 1 + 1e-5
        drifted = solver.solve()
        assert drifted.refactorizations >= 1
        assert drifted.status == clean.status
        assert abs(drifted.objective - clean.objective) <= 1e-9 * max(1.0, abs(clean.objective))

    def test_warm_dual_loop_skips_the_periodic_refactorization(self):
        # neither the warm nor the cold solve rebuilds on the pivot count; a
        # forced drift makes the cold one rebuild once per REFACTOR_INTERVAL
        # pivots, and it ends where the warm one does
        prob, solver, edits = tightened_warm_start(0)
        pivots = solver.total_pivots
        warm = solver.solve()
        assert solver.total_pivots - pivots > simplex.REFACTOR_INTERVAL
        assert warm.iterations == warm.dual_iterations + 1  # the final pricing
        assert warm.status == "optimal" and warm.refactorizations == 0
        for drift in (False, True):
            cold = SimplexSolver(prob)
            for j, lo, hi in edits:
                cold.set_bound(j, lo, hi)
            pivots = cold.total_pivots
            with forced_drift() if drift else contextlib.nullcontext([]) as perturbed:
                ref = cold.solve()
            steps = (cold.total_pivots - pivots) // simplex.REFACTOR_INTERVAL
            assert steps >= 1 and ref.refactorizations == len(perturbed) == (steps if drift else 0)
            assert ref.status == "optimal"
            assert abs(ref.objective - warm.objective) <= 1e-9 * max(1.0, abs(ref.objective))

    def test_cold_basic_root_on_200_samples_never_rebuilds(self):
        # 201 pivots through an inverse that never drifts: the rebuild every
        # REFACTOR_INTERVAL pivots took 4
        prob = cold_root_lp("basic", 200)
        solver = SimplexSolver(prob)
        sol = solver.solve()
        ref = scipy_solve(prob)
        assert solver.total_pivots > 4 * simplex.REFACTOR_INTERVAL
        assert sol.refactorizations == 0
        assert sol.status == "optimal" and ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))

    @staticmethod
    def drift_in_primal(monkeypatch, prob, phase_one):
        """Solve `prob` cold, adding 1e-4 to every entry of `binv_s` once:
        after the first primal pivot that leaves the inverse
        REFACTOR_INTERVAL or more pivots old with some basic violating a
        bound (`phase_one`) or none.  Returns the solution, the
        `total_pivots` of the perturbation, and for each rebuild its
        `total_pivots` and whether some basic violated a bound."""
        primal, pivot, refactor = SimplexSolver._primal, SimplexSolver._pivot, SimplexSolver._refactor
        seen = {"primal": False, "perturbed": None, "rebuilds": []}

        def primal_spy(self, *args):
            seen["primal"] = True
            return primal(self, *args)

        def pivot_spy(self, *args):
            pivot(self, *args)
            if (seen["primal"] and seen["perturbed"] is None
                    and self._pivots_since_refactor >= simplex.REFACTOR_INTERVAL
                    and violating(self) == phase_one):
                self.binv_s += 1e-4
                seen["perturbed"] = self.total_pivots

        def refactor_spy(self):
            seen["rebuilds"].append((self.total_pivots, violating(self)))
            refactor(self)

        monkeypatch.setattr(SimplexSolver, "_primal", primal_spy)
        monkeypatch.setattr(SimplexSolver, "_pivot", pivot_spy)
        monkeypatch.setattr(SimplexSolver, "_refactor", refactor_spy)
        sol = SimplexSolver(prob).solve()
        return sol, seen["perturbed"], seen["rebuilds"]

    def test_primal_phase_one_rebuilds_a_drifted_inverse(self, monkeypatch):
        # the cold basic root on (2,10,200): 41 dual pivots, then 160 in
        # phase 1, so the inverse turns REFACTOR_INTERVAL pivots old in phase 1
        prob = cold_root_lp("basic", 200)
        sol, perturbed, rebuilds = self.drift_in_primal(monkeypatch, prob, phase_one=True)
        assert perturbed is not None and rebuilds == [(perturbed, True)]
        ref = scipy_solve(prob)
        assert sol.status == "optimal" and ref.status == 0 and sol.refactorizations == 1
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_primal_phase_two_rebuilds_a_drifted_inverse(self, monkeypatch, seed):
        # a (60, 80) `boxed_problem` is not dual feasible at its slack basis
        # and takes 38-47 phase-1 and some 200-330 phase-2 pivots
        prob = boxed_problem(np.random.default_rng(seed), 60, 80)
        sol, perturbed, rebuilds = self.drift_in_primal(monkeypatch, prob, phase_one=False)
        assert sol.dual_iterations == 0
        assert perturbed is not None and rebuilds == [(perturbed, False)]
        ref = scipy_solve(prob)
        assert sol.status == "optimal" and ref.status == 0 and sol.refactorizations == 1
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))


class TestInstall:
    """`load_state` installs a stored basis by one block refactorization:
    no pivots, an exact inverse, and the repair for a singular one."""

    @staticmethod
    def moved_away(rng):
        """Solve a boxed LP, then force a third of its columns up and
        re-solve, so the basis moves away from the first optimum; the bounds
        are restored.  Returns the problem, the solver, the first solution,
        its state and the pivots taken since."""
        prob = boxed_problem(rng, 20, 30)
        solver = SimplexSolver(prob)
        first = solver.solve()
        assert first.status == "optimal"
        state = solver.get_state()
        pivots = solver.total_pivots
        for j in range(0, prob.num_cols, 3):
            solver.set_bound(j, prob.ub[j] if math.isfinite(prob.ub[j]) else 1.0, math.inf)
        solver.solve()
        for j in range(0, prob.num_cols, 3):
            solver.set_bound(j, prob.lb[j], prob.ub[j])
        return prob, solver, first, state, solver.total_pivots - pivots

    def test_earlier_basis_installs_without_pivots(self):
        prob, solver, first, state, moved = self.moved_away(np.random.default_rng(515))
        assert moved >= 10 and not np.array_equal(solver.basis, state[0])
        before = solver.total_pivots
        solver.load_state(*state)
        assert solver.total_pivots == before
        np.testing.assert_array_equal(solver.basis, state[0])
        np.testing.assert_allclose(dense_inverse(solver) @ basis_matrix(solver), np.eye(solver.m),
                                   atol=1e-9)
        again = solver.solve()
        assert again.status == "optimal" and solver.total_pivots == before
        assert abs(again.objective - first.objective) <= 1e-9 * max(1.0, abs(first.objective))

    def test_state_from_before_add_row_is_rejected(self):
        # every stored state has the LP's final row count: one captured
        # before a row was appended is refused and the solver keeps its basis
        prob, solver, _, state, _ = self.moved_away(np.random.default_rng(616))
        for _ in range(2):
            solver.add_row(np.ones(prob.num_cols), "<=", 1e3)
        solver.solve()
        basis, stat = solver.get_state()
        inverse = dense_inverse(solver)
        with pytest.raises(ValueError, match="does not match solver shape"):
            solver.load_state(*state)
        np.testing.assert_array_equal(solver.basis, basis)
        np.testing.assert_array_equal(solver.stat, stat)
        np.testing.assert_array_equal(dense_inverse(solver), inverse)

    def test_singular_stored_basis_is_repaired(self, monkeypatch):
        # every column has an equal twin: a stored basis holding a basic
        # structural and its twin is singular
        repairs = []
        repair = SimplexSolver._repair_basis

        def spy(self):
            repairs.append(self.basis.copy())
            repair(self)

        monkeypatch.setattr(SimplexSolver, "_repair_basis", spy)
        rng = np.random.default_rng(717)
        half = np.round(rng.normal(size=(12, 8)), 3)
        prob = boxed_problem(rng, 12, 16, A=np.hstack([half, half]))
        solver = SimplexSolver(prob)
        assert solver.solve().status == "optimal"
        basis, stat = solver.get_state()
        pos_s, pos_l = np.flatnonzero(basis < solver.n), np.flatnonzero(basis >= solver.n)
        assert pos_s.size and pos_l.size
        basis[pos_l[0]] = (basis[pos_s[0]] + solver.n // 2) % solver.n
        stat[basis[pos_l[0]]] = ST_BASIC
        solver.reset_basis()
        solver.load_state(basis, stat)
        assert len(repairs) == 1 and np.array_equal(repairs[0], basis)
        np.testing.assert_allclose(dense_inverse(solver) @ basis_matrix(solver), np.eye(solver.m),
                                   atol=1e-9)
        # the statuses are installed as given; the next solve settles them,
        # so the left-out columns rest at a bound
        left_out = np.setdiff1d(basis, solver.basis)
        assert left_out.size and np.all(solver.stat[left_out] == ST_BASIC)
        sol = solver.solve()
        still_out = np.setdiff1d(left_out, solver.basis)
        assert still_out.size and np.all(solver.stat[still_out] != ST_BASIC)
        ref = scipy_solve(prob)
        assert sol.status == "optimal" and ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))


@contextlib.contextmanager
def counted(monkeypatch, name):
    """Count the calls of one SimplexSolver method in the block."""
    calls = []
    method = getattr(SimplexSolver, name)

    def spy(self, *args):
        calls.append(self.basis.copy())
        return method(self, *args)

    monkeypatch.setattr(SimplexSolver, name, spy)
    yield calls


def factored_block(solver):
    """Copies of everything `_factor` writes for the current basis."""
    return [solver.binv_s.copy(), solver.rows_s.copy(), solver.a_s.copy(),
            solver.slack_pos.copy(), solver.col_of.copy()]


class TestKeptInverse:
    """`load_state` keeps the inverse of the last basis it factored; a later
    load of that basis restores it instead of factoring again."""

    @staticmethod
    def move_away(solver, prob):
        """Force a third of the columns up, re-solve, restore the bounds."""
        for j in range(0, prob.num_cols, 3):
            solver.set_bound(j, prob.ub[j] if math.isfinite(prob.ub[j]) else 1.0, math.inf)
        solver.solve()
        for j in range(0, prob.num_cols, 3):
            solver.set_bound(j, prob.lb[j], prob.ub[j])

    def test_reload_restores_what_factor_builds(self, monkeypatch):
        # the first solve's basic values come through a rebuild, as the
        # reload's do, so its objective is the same to the last bit
        with forced_drift() as perturbed:
            prob, solver, first, state, _ = TestInstall.moved_away(np.random.default_rng(816))
        assert perturbed
        solver.load_state(*state)  # factored and kept
        self.move_away(solver, prob)
        assert not np.array_equal(solver.basis, state[0])
        with counted(monkeypatch, "_factor") as factors:
            solver.load_state(*state)
        assert factors == [] and solver._pivots_since_refactor == 0
        np.testing.assert_array_equal(solver.basis, state[0])
        restored = factored_block(solver)
        assert solver._factor()
        for got, fresh in zip(restored, factored_block(solver)):
            assert np.array_equal(got, fresh)
        pivots = solver.total_pivots
        again = solver.solve()
        assert again.status == "optimal" and solver.total_pivots == pivots
        assert again.objective == first.objective

    def test_load_after_add_row_factors(self, monkeypatch):
        prob, solver, _, state, _ = TestInstall.moved_away(np.random.default_rng(919))
        solver.load_state(*state)
        solver.add_row(np.ones(prob.num_cols), "<=", 1e3)
        grown = solver.get_state()  # the kept basis plus the new row's slack
        self.move_away(solver, prob)
        assert not np.array_equal(solver.basis, grown[0])
        with counted(monkeypatch, "_factor") as factors:
            solver.load_state(*grown)
        assert len(factors) == 1
        np.testing.assert_allclose(dense_inverse(solver) @ basis_matrix(solver), np.eye(solver.m),
                                   atol=1e-9)

    def test_singular_basis_is_repaired_on_every_load(self, monkeypatch):
        rng = np.random.default_rng(717)
        half = np.round(rng.normal(size=(12, 8)), 3)
        prob = boxed_problem(rng, 12, 16, A=np.hstack([half, half]))
        solver = SimplexSolver(prob)
        assert solver.solve().status == "optimal"
        basis, stat = solver.get_state()
        pos_s, pos_l = np.flatnonzero(basis < solver.n), np.flatnonzero(basis >= solver.n)
        basis[pos_l[0]] = (basis[pos_s[0]] + solver.n // 2) % solver.n  # a twin: singular
        stat[basis[pos_l[0]]] = ST_BASIC
        blocks = []
        with counted(monkeypatch, "_repair_basis") as repairs:
            for _ in range(2):
                solver.reset_basis()
                solver.load_state(basis, stat)
                blocks.append(factored_block(solver) + [solver.basis.copy()])
        assert len(repairs) == 2 and all(np.array_equal(b, basis) for b in repairs)
        assert all(np.array_equal(a, b) for a, b in zip(*blocks))

    def test_fixed_search_factors_less(self, monkeypatch):
        """`improved` at the first radius of the bench's (2,3,50) cell: the
        same nodes and LP iterations as when every load factors its basis,
        from about half the `_factor` calls.  The iterations and calls
        include the search's seed LP and the cold reset after it."""
        config = ExperimentConfig()
        tp = generate(2, 3, 50, cell_seed(config.base_seed, 2, 3, 50, 0), config.epsilon)
        base = to_drccp(tp, theta=0.001)
        quant = compute_quantiles(base)
        tmax = theta_max(base, config=BncConfig(gap_tol=config.gap_tol,
                                                node_limit=config.theta_max_node_limit))
        inst = to_drccp(tp, theta=theta_grid(tmax)[0])
        model = build_formulation(inst, "compact", big_m=transport_big_m(tp), quant=quant)
        search = BncConfig(gap_tol=config.gap_tol, node_limit=config.node_limit)
        with counted(monkeypatch, "_factor") as factors:
            res = bnc.solve(model, (), search)
        kept = len(factors)
        load = SimplexSolver.load_state

        def forgetful(self, basis, stat):
            self._kept = None  # nothing kept: every new basis is factored
            load(self, basis, stat)

        monkeypatch.setattr(SimplexSolver, "load_state", forgetful)
        with counted(monkeypatch, "_factor") as every:
            ref = bnc.solve(model, (), search)
        assert (res.status, res.nodes, res.iterations) == ("optimal", 179, 630)
        assert (ref.status, ref.nodes, ref.iterations) == (res.status, res.nodes, res.iterations)
        assert (kept, len(every)) == (91, 175)


# -- the fused selection rules against their mask-by-mask originals ---------

def reference_entering(solver, d, bland):
    """Entering choice written mask by mask: eligible columns are those with
    room to move whose reduced cost improves the objective past DUAL_TOL."""
    stat = solver.stat
    rng = solver.ub - solver.lb
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


def total_violation(xb, lo, hi, counted):
    """Sum of max(0, lo - x, x - hi) over the `counted` basics, exactly (as
    a Fraction) for float inputs; infinite bounds never count."""
    total = Fraction(0)
    for x, a, b in zip(np.asarray(xb, dtype=object)[counted], lo[counted], hi[counted]):
        x = Fraction(x)
        if math.isfinite(a) and x < Fraction(a):
            total += Fraction(a) - x
        if math.isfinite(b) and x > Fraction(b):
            total += x - Fraction(b)
    return total


def reference_long_step(solver, q, sigma, w, xb, lo, hi, below, above):
    """The phase-1 step by total violation, in exact arithmetic.

    A basic whose |sigma * w_i| is above PIVOT_TOL moves by -t * sigma * w_i
    along the step t; the others stand still, as the ratio test treats them.
    The steps tried are every breakpoint (a violating basic reaching the
    bound it violates) up to the first hard block (a feasible basic leaving
    its bounds, a violating one reaching its far bound, the entering
    column's own range), and that block.  The step is the one with the least
    total violation of the basics that violate a bound at its start (the
    phase-1 objective that the masks price), the earliest on ties; the
    feasible basics stay within their bounds up to the first hard block.
    The step is then returned as a float,
    with the leaving basic chosen among the events within 1e-12 of it by the
    largest |w|, then the lowest variable index."""
    delta = sigma * w
    moving = np.abs(delta) > PIVOT_TOL
    events = []  # (exact step, float step, position or -1 for the flip, breakpoint?)
    own_range = solver.ub[q] - solver.lb[q]
    if math.isfinite(own_range):
        events.append((Fraction(own_range), own_range, -1, False))
    for i in np.flatnonzero(moving):
        falls = delta[i] > 0
        toward = (below[i] and not falls) or (above[i] and falls)
        if toward:
            bound = hi[i] if above[i] else lo[i]
            events.append(((Fraction(xb[i]) - Fraction(bound)) / Fraction(delta[i]),
                           (xb[i] - bound) / delta[i], int(i), True))
        elif below[i] or above[i]:
            continue  # moving away from its bounds: never blocks
        far = lo[i] if falls else hi[i]
        if math.isfinite(far):
            exact = max((Fraction(xb[i]) - Fraction(far)) / Fraction(delta[i]), Fraction(0))
            events.append((exact, max((xb[i] - far) / delta[i], 0.0), int(i), False))
    hard = [e for e in events if not e[3]]
    first_hard = min(e[0] for e in hard) if hard else None
    tried = [e for e in events if first_hard is None or e[0] <= first_hard]
    if not tried:
        return None, -1, False, False
    moved = np.where(moving, delta, 0.0)

    def violation_at(event):
        t = event[0]
        return total_violation([Fraction(x) - t * Fraction(d) for x, d in zip(xb, moved)],
                               lo, hi, below | above)

    # least violation, then earliest; at one step a flip comes first
    best = min(tried, key=lambda e: (violation_at(e), e[0], e[2] >= 0))
    step = best[1]
    if best[2] < 0:
        return own_range, -1, False, True
    # every basic's float event: a breakpoint not passed, else its hard block
    near, to_upper = [], {}
    for exact, t, i, at_bp in events:
        if i < 0 or not step <= t <= step + 1e-12:
            continue
        if not at_bp and any(e[2] == i and e[3] and e[1] >= step for e in events):
            continue  # its breakpoint is the earlier event
        near.append(i)
        to_upper[i] = bool(above[i]) if at_bp else bool(delta[i] < 0)
    near = np.array(sorted(set(near)))
    wb = np.abs(w[near])
    cand = near[wb >= wb.max() - 1e-12]
    pos = int(cand[np.argmin(solver.basis[cand])])
    return step, pos, to_upper[pos], False


def reference_ratio(solver, q, sigma, w, xb, lo, hi, below, above, bland):
    """Ratio test written as one masked formula per (direction, violation)
    case, each with its own leaving bound; phase 1 outside Bland's rule is
    `reference_long_step`."""
    if not bland and (below.any() or above.any()):
        return reference_long_step(solver, q, sigma, w, xb, lo, hi, below, above)
    delta = sigma * w
    steps = np.full(solver.m, math.inf)
    to_upper = np.zeros(solver.m, dtype=bool)
    dec = delta > PIVOT_TOL
    inc = delta < -PIVOT_TOL
    inside = ~(below | above)
    sel = dec & inside & np.isfinite(lo)
    steps[sel] = (xb[sel] - lo[sel]) / delta[sel]
    sel2 = dec & above  # a violated bound is finite
    steps[sel2] = (xb[sel2] - hi[sel2]) / delta[sel2]
    to_upper[sel2] = True
    sel3 = inc & inside & np.isfinite(hi)
    steps[sel3] = (hi[sel3] - xb[sel3]) / (-delta[sel3])
    to_upper[sel3] = True
    sel4 = inc & below
    steps[sel4] = (lo[sel4] - xb[sel4]) / (-delta[sel4])
    steps = np.maximum(steps, 0.0)
    smin = float(np.min(steps)) if steps.size else math.inf
    own_range = solver.ub[q] - solver.lb[q]
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
        pos = int(idxs[np.argmin(solver.basis[idxs])])
    else:
        wb = np.abs(w[idxs])
        best = wb.max()
        cand = idxs[wb >= best - 1e-12]
        pos = int(cand[np.argmin(solver.basis[cand])])
    return smin, pos, bool(to_upper[pos]), False


INF = math.inf
BOUND_PAIRS = [(0.0, 1.0), (0.0, INF), (-INF, 0.0), (-INF, INF), (-1.0, 2.0),
               (1.0, 1.0), (0.0, 0.0), (-2.0, -0.5)]
# values on a coarse grid (exact ties) plus the thresholds themselves
REDUCED_COSTS = [0.0, DUAL_TOL, -DUAL_TOL, 2 * DUAL_TOL, -2 * DUAL_TOL, 0.5, -0.5, 1.0, -1.0, 3.0]
COLUMN_ENTRIES = [0.0, PIVOT_TOL, -PIVOT_TOL, 2e-9, -2e-9, 0.25, -0.25, 0.5, -0.5, 1.0, -2.0]
BASIC_VALUES = [-3.0, -1.0, -0.5, 0.0, 1e-8, -1e-8, 0.5, 1.0, 1.0 + 2 * FEAS_TOL, 2.0, 4.0]


def set_drawn_moves(solver):
    """`_dir` and `_free` of the drawn statuses as they stand, which need not
    be settled: +1 (-1) for a column at its lower (upper) bound with room to
    move, and `_free` lists the free columns with room."""
    movable = solver.ub - solver.lb > 0
    solver._dir = np.select([movable & (solver.stat == ST_LOWER),
                             movable & (solver.stat == ST_UPPER)], [1.0, -1.0])
    solver._free = np.flatnonzero(movable & (solver.stat == ST_FREE))


@st.composite
def selection_states(draw):
    """A solver with drawn bounds, statuses and basis, a reduced-cost vector,
    and one ratio-test call: entering column, direction, FTRAN column and
    basic values (violating ones too)."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    nt = n + m
    pairs = draw(st.lists(st.sampled_from(BOUND_PAIRS), min_size=nt, max_size=nt))
    solver = SimplexSolver(LpProblem(c=np.zeros(n), A=np.zeros((m, n)), senses=["<="] * m,
                                     b=np.zeros(m), lb=np.zeros(n), ub=np.ones(n)))
    solver.lb = np.array([p[0] for p in pairs])
    solver.ub = np.array([p[1] for p in pairs])
    solver.basis = np.array(draw(st.permutations(range(nt)))[:m])
    solver.stat = np.array(draw(st.lists(st.sampled_from([ST_LOWER, ST_UPPER, ST_FREE]),
                                         min_size=nt, max_size=nt)), dtype=np.int8)
    solver.stat[solver.basis] = ST_BASIC
    set_drawn_moves(solver)
    d = np.array(draw(st.lists(st.sampled_from(REDUCED_COSTS), min_size=nt, max_size=nt)))
    q = draw(st.sampled_from(sorted(set(range(nt)) - set(solver.basis.tolist()))))
    sigma = draw(st.sampled_from([1, -1]))
    w = np.array(draw(st.lists(st.sampled_from(COLUMN_ENTRIES), min_size=m, max_size=m)))
    xb = np.array(draw(st.lists(st.sampled_from(BASIC_VALUES), min_size=m, max_size=m)))
    return solver, d, q, sigma, w, xb, draw(st.booleans())


class TestSelectionRules:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(selection_states())
    def test_entering_matches_mask_by_mask_rule(self, drawn):
        solver, d, _, _, _, _, bland = drawn
        assert solver._eligible_entering(d, bland) == reference_entering(solver, d, bland)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(selection_states())
    def test_ratio_matches_mask_by_mask_rule(self, drawn):
        solver, _, q, sigma, w, xb, bland = drawn
        lo, hi = solver.lb[solver.basis], solver.ub[solver.basis]
        below, above = xb < lo - FEAS_TOL, xb > hi + FEAS_TOL
        args = (q, sigma, w, xb, lo, hi, below, above, bland)
        assert solver._ratio(*args) == reference_ratio(solver, *args)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(selection_states())
    def test_phase_one_step_keeps_feasible_basics_and_never_raises_the_violation(self, drawn):
        """A phase-1 step of an entering column whose phase-1 gain is
        negative (one that pricing could pick) keeps every feasible basic the
        ratio test sees move within its bounds (FEAS_TOL, as at the start),
        and the violating basics' total violation does not rise."""
        solver, _, q, sigma, w, xb, _ = drawn
        lo, hi = solver.lb[solver.basis], solver.ub[solver.basis]
        below, above = xb < lo - FEAS_TOL, xb > hi + FEAS_TOL
        delta = np.where(np.abs(sigma * w) > PIVOT_TOL, sigma * w, 0.0)
        assume((below | above).any() and delta[below].sum() - delta[above].sum() < 0)
        step, _, _, _ = solver._ratio(q, sigma, w, xb, lo, hi, below, above, False)
        assume(step is not None)
        x = [Fraction(v) - Fraction(step) * Fraction(d) for v, d in zip(xb, delta)]
        for i in np.flatnonzero(~(below | above)):
            if math.isfinite(lo[i]):
                assert x[i] >= Fraction(lo[i]) - Fraction(FEAS_TOL)
            if math.isfinite(hi[i]):
                assert x[i] <= Fraction(hi[i]) + Fraction(FEAS_TOL)
        assert total_violation(x, lo, hi, below | above) <= total_violation(xb, lo, hi, below | above)


def cold_root_lp(kind, n):
    """The root LP of the (2,10,n) cell at radius 0.01."""
    tp = generate(2, 10, n, cell_seed(20240801, 2, 10, n, 0), 0.1)
    model = build_formulation(to_drccp(tp, theta=0.01), kind, big_m=transport_big_m(tp))
    return bnc.model_to_lp(model)[0]


def cold_root(kind, n):
    """The slack-basis solve of the (2,10,n) cell's root LP at radius 0.01."""
    return SimplexSolver(cold_root_lp(kind, n)).solve()


class TestColdRoots:
    """The long phase-1 step on the cold roots of the paper's transport
    cells: one entering column repairs the violated scenario rows of a
    sample together, instead of one pivot per row."""

    def test_basic_root_on_200_samples(self, monkeypatch):
        # every phase-1 step ends where a violating basic reaches the bound
        # it violates, none at a hard block
        ratio = SimplexSolver._ratio
        ends = []

        def spy(self, q, sigma, w, xb, lo, hi, below, above, bland):
            step, pos, to_upper, flip = ratio(self, q, sigma, w, xb, lo, hi, below, above, bland)
            if below.any() or above.any():
                ends.append(not flip and (below | above)[pos] and to_upper == above[pos])
            return step, pos, to_upper, flip

        monkeypatch.setattr(SimplexSolver, "_ratio", spy)
        sol = cold_root("basic", 200)
        assert sol.status == "optimal" and sol.objective == 0.0
        assert sol.iterations <= 210  # 2,216 with the first-breakpoint step
        assert sol.phase_one_iterations == len(ends) == 160 and all(ends)

    def test_compact_root_on_500_samples(self):
        sol = cold_root("compact", 500)
        assert sol.status == "optimal"
        assert abs(sol.objective - 353.661819793) <= 1e-9 * 353.661819793
        assert sol.iterations < 864  # 864 with the first-breakpoint step


def reference_settle(solver, stat):
    """The settled statuses, rule by rule: a basic column is ST_BASIC; a
    nonbasic at its upper bound keeps it when it is finite; any other rests
    at its lower bound if finite, else its upper bound if finite, else free."""
    lo, hi = np.isfinite(solver.lb), np.isfinite(solver.ub)
    out = np.where(lo, ST_LOWER, np.where(hi, ST_UPPER, ST_FREE)).astype(np.int8)
    out[(stat == ST_UPPER) & hi] = ST_UPPER
    out[solver.basis] = ST_BASIC
    return out


class TestSettle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_settle_matches_the_rule_after_bound_edits(self, data):
        n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        solver = SimplexSolver(LpProblem(c=np.zeros(n), A=np.ones((m, n)),
                                         senses=data.draw(st.lists(st.sampled_from(["<=", ">=", "=="]),
                                                                   min_size=m, max_size=m)),
                                         b=np.zeros(m), lb=np.zeros(n), ub=np.ones(n)))
        for _ in range(data.draw(st.integers(0, 2))):
            solver.add_row(np.ones(n), data.draw(st.sampled_from(["<=", ">=", "=="])), 1.0)
        for j, (lo, hi) in enumerate(data.draw(st.lists(st.sampled_from(BOUND_PAIRS),
                                                        min_size=n, max_size=n))):
            solver.set_bound(j, lo, hi)
        np.testing.assert_array_equal(solver._code, simplex._bound_code(solver.lb, solver.ub))
        nt = solver.nt
        solver.basis = np.array(data.draw(st.permutations(range(nt)))[:solver.m])
        stat = np.array(data.draw(st.lists(st.sampled_from([ST_LOWER, ST_UPPER, ST_BASIC, ST_FREE]),
                                           min_size=nt, max_size=nt)), dtype=np.int8)
        solver.stat = stat.copy()
        solver._settle()
        np.testing.assert_array_equal(solver.stat, reference_settle(solver, stat))
        assert solver.stat.dtype == np.int8
        assert_fresh_moves(solver)


# -- state the solve keeps per iteration -------------------------------------

def assert_fresh_moves(solver):
    """The move-direction vector equals a fresh recompute from the statuses
    and bounds (+1 may rise, -1 may fall, 0 otherwise), and `_free` lists
    exactly the free nonbasics with room to move (after dropping those that
    have entered the basis since it was made)."""
    movable = solver.ub - solver.lb > 0
    direction = np.select([movable & (solver.stat == ST_LOWER),
                           movable & (solver.stat == ST_UPPER)], [1.0, -1.0])
    np.testing.assert_array_equal(solver._dir, direction)
    free = solver._free[solver.stat[solver._free] == ST_FREE]
    np.testing.assert_array_equal(free, np.flatnonzero(movable & (solver.stat == ST_FREE)))


def assert_fresh_positions(solver):
    """`lb_B` and `ub_B` are the bounds of the basis, and `xb` lies within
    1e-9 of the basic values recomputed from the nonbasic ones in `xval`."""
    np.testing.assert_array_equal(solver.lb_B, solver.lb[solver.basis])
    np.testing.assert_array_equal(solver.ub_B, solver.ub[solver.basis])
    nonbasic = np.ones(solver.nt, dtype=bool)
    nonbasic[solver.basis] = False
    full = np.hstack([solver.A, np.eye(solver.m)])
    rhs = solver.b - full[:, nonbasic] @ solver.xval[nonbasic]
    np.testing.assert_allclose(solver.xb, solver._binv_times(rhs), rtol=0, atol=1e-9)


@contextlib.contextmanager
def checked_moves(monkeypatch):
    """Assert at every pricing of the block that the move-direction vector
    equals a fresh recompute, and at every pricing and after every pivot
    and refactorization that the basic values and bounds kept by position
    do; count the pivots and bound flips that preceded them.  A bound flip
    is followed by a pricing, so the state it leaves is checked there."""
    seen = {"checks": 0, "pivots": 0, "flips": 0}
    eligible, ratio = SimplexSolver._eligible_entering, SimplexSolver._ratio
    pivot, refactor = SimplexSolver._pivot, SimplexSolver._refactor

    def eligible_spy(self, d, bland):
        assert_fresh_moves(self)
        assert_fresh_positions(self)
        seen["checks"] += 1
        return eligible(self, d, bland)

    def pivot_spy(self, *args):
        pivot(self, *args)
        assert_fresh_moves(self)
        assert_fresh_positions(self)

    def refactor_spy(self):
        refactor(self)
        assert_fresh_positions(self)

    def ratio_spy(self, *args):
        step, pos, to_upper, flip = ratio(self, *args)
        if step is not None:
            seen["flips" if flip else "pivots"] += 1
        return step, pos, to_upper, flip

    monkeypatch.setattr(SimplexSolver, "_eligible_entering", eligible_spy)
    monkeypatch.setattr(SimplexSolver, "_ratio", ratio_spy)
    monkeypatch.setattr(SimplexSolver, "_pivot", pivot_spy)
    monkeypatch.setattr(SimplexSolver, "_refactor", refactor_spy)
    yield seen


def boxed_problem(rng, m, n, A=None):
    """Random LP with mixed senses, most columns boxed so bound flips occur."""
    A = np.round(rng.normal(size=(m, n)), 3) if A is None else A
    ub = np.where(rng.random(n) < 0.9, np.round(rng.uniform(0.2, 2, n), 3), math.inf)
    senses = list(rng.choice(["<=", ">="], size=m))
    gap = np.abs(rng.normal(size=m))
    side = np.where(np.array(senses) == "<=", gap, -gap)
    return LpProblem(c=np.round(rng.normal(size=n), 3), A=A, senses=senses,
                     b=A @ (np.where(np.isfinite(ub), ub, 2.0) * 0.3) + side,
                     lb=np.zeros(n), ub=ub)


class TestMoveMasks:
    def test_masks_follow_every_pivot_flip_and_refactor(self, monkeypatch):
        monkeypatch.setattr(simplex, "REFACTOR_INTERVAL", 5)  # forced drift every 5 pivots
        refactors = []
        refactor = SimplexSolver._refactor

        def spy(self):
            refactors.append(self.total_pivots)
            refactor(self)

        monkeypatch.setattr(SimplexSolver, "_refactor", spy)
        rng = np.random.default_rng(808)
        with checked_moves(monkeypatch) as seen, forced_drift():
            for _ in range(4):
                prob = boxed_problem(rng, 20, 30)
                solver = SimplexSolver(prob)
                sol = solver.solve()
                ref = scipy_solve(prob)
                assert sol.status == "optimal" and ref.status == 0
                assert abs(sol.objective - ref.fun) <= TOL * max(1.0, abs(ref.fun))
                assert_fresh_moves(solver)
        assert seen["pivots"] > 0 and seen["flips"] > 0 and len(refactors) > 0

    def test_masks_recomputed_after_repair(self, monkeypatch):
        # every column has an equal twin; at the first refactorization (a
        # forced drift after 3 pivots) a basic slack is swapped for the twin
        # of a basic structural, so the basis is singular and
        # `_repair_basis` re-settles the statuses
        monkeypatch.setattr(simplex, "REFACTOR_INTERVAL", 3)
        repairs = []
        refactor, repair = SimplexSolver._refactor, SimplexSolver._repair_basis

        def refactor_spy(self):
            if not repairs:
                pos_s = np.flatnonzero(self.basis < self.n)
                pos_l = np.flatnonzero(self.basis >= self.n)
                if pos_s.size and pos_l.size:
                    twin = (self.basis[pos_s[0]] + self.n // 2) % self.n
                    self.basis[pos_l[0]] = twin
            refactor(self)

        def repair_spy(self):
            before = self.stat.copy()
            repair(self)
            repairs.append(not np.array_equal(before, self.stat))

        monkeypatch.setattr(SimplexSolver, "_refactor", refactor_spy)
        monkeypatch.setattr(SimplexSolver, "_repair_basis", repair_spy)
        rng = np.random.default_rng(910)
        half = np.round(rng.normal(size=(12, 8)), 3)
        prob = boxed_problem(rng, 12, 16, A=np.hstack([half, half]))
        with checked_moves(monkeypatch) as seen, forced_drift():
            sol = SimplexSolver(prob).solve()
        ref = scipy_solve(prob)
        assert repairs and repairs[0]  # the repair changed some statuses
        assert seen["pivots"] > 0 and seen["checks"] > seen["pivots"]
        assert sol.status == "optimal" and ref.status == 0
        assert abs(sol.objective - ref.fun) <= TOL * max(1.0, abs(ref.fun))


class TestFtran:
    def test_slack_column_is_read_from_the_inverse(self):
        rng = np.random.default_rng(4242)
        prob = boxed_problem(rng, 15, 20)
        solver = SimplexSolver(prob)
        assert solver.solve().status == "optimal" and solver.total_pivots > 5
        # only a nonbasic column enters, and a nonbasic slack's row stores
        # its column of the inverse
        eye, binv = np.eye(solver.m), dense_inverse(solver)
        nonbasic_slacks = np.flatnonzero(solver.slack_pos < 0)
        assert nonbasic_slacks.size > 0
        for i in nonbasic_slacks:
            w = solver._ftran(solver.n + i)
            assert np.array_equal(w, binv @ eye[:, i])
            assert not np.shares_memory(w, solver.binv_s)
        # a structural's FTRAN is the k stored columns times its entries on
        # rows_s, plus its entry on each covered row at that slack's position;
        # the dense product sums the same terms in another order
        assert solver.rows_s.size > 0
        covered = np.flatnonzero(solver.slack_pos >= 0)
        for j in range(solver.n):
            w = solver._ftran(j)
            exp = solver.binv_s @ solver.A[solver.rows_s, j]
            exp[solver.slack_pos[covered]] += solver.A[covered, j]
            assert np.array_equal(w, exp)
            np.testing.assert_allclose(w, binv @ solver.A[:, j], rtol=0, atol=1e-12)


def basic_transport_lp(n=50):
    """The LP relaxation of the basic model of a small transport cell with n
    samples: a mostly-slack basis whose pivot rows of `binv_s` are mostly
    zero."""
    tp = generate(2, 3, n, cell_seed(20240801, 2, 3, n, 0), 0.1)
    model = build_formulation(to_drccp(tp, theta=0.01), "basic", big_m=transport_big_m(tp))
    return bnc.model_to_lp(model)[0]


def warm_resolves(prob):
    """Solve cold, then twice warm, each time from a basis the last optimum
    left violating: the finite upper bound of the last basic structural
    inside its bounds moves halfway down from its value (it leaves first,
    in the dual loop), then a row joins that the optimum violates (c @ x at
    least the optimum plus 0.1; its basic slack leaves first).  Yields the
    solver and the solution of each solve."""
    solver = SimplexSolver(prob)
    sol = solver.solve()
    yield solver, sol
    inner = [j for j in solver.basis[solver.basis < solver.n]
             if solver.lb[j] + 1e-3 < sol.x[j] < solver.ub[j] < math.inf]
    if sol.status == "optimal" and inner:
        j = int(max(inner))
        solver.set_bound(j, solver.lb[j], (solver.lb[j] + sol.x[j]) / 2)
        sol = solver.solve()
        yield solver, sol
    if sol.status == "optimal":
        solver.add_row(prob.c, ">=", sol.objective + 0.1)
        yield solver, solver.solve()


class TestRowPricing:
    """Phase-2 pricing and the dual ratio row run on the k rows of `rows_s`
    through `a_s`, and the rank-one update skips the rows where the FTRAN
    column is zero or the columns where the pivot row is zero."""

    def test_column_sparse_update_keeps_the_inverse(self, monkeypatch):
        update = SimplexSolver._update_binv
        pivots = skipped = 0

        def spy(self, w, pos, q):
            nonlocal pivots, skipped
            update(self, w, pos, q)
            pivots += 1
            # binv_s[pos] is now the pivot row: its zeros are the skipped columns
            skipped += self.rows_s.size - np.count_nonzero(self.binv_s[pos])
            np.testing.assert_allclose(
                self.binv_s, np.linalg.inv(basis_matrix(self))[:, self.rows_s], rtol=0, atol=1e-9)

        monkeypatch.setattr(SimplexSolver, "_update_binv", spy)
        sols = [sol for _, sol in warm_resolves(basic_transport_lp(100))]
        assert skipped > 0 and pivots > 80
        assert [s.status for s in sols] == ["optimal"] * 3
        assert sols[1].dual_iterations > 0 and sols[2].dual_iterations > 0

    def test_inverse_buffers_are_allocated_once_per_row_count(self, monkeypatch):
        """`binv_s`, `rows_s` and `a_s` stay views of the buffers that
        `__init__` allocates, min(m, n) columns wide, through a cold solve and
        a warm re-solve that grow k; only `add_row` replaces them."""
        update = SimplexSolver._update_binv
        seen = {}  # row count -> (buffers, every k after a pivot)

        def spy(self, w, pos, q):
            update(self, w, pos, q)
            bufs, ks = seen.setdefault(self.m, ((self._binv_buf, self._rows_buf, self._a_buf), []))
            assert all(now is buf for now, buf in zip((self._binv_buf, self._rows_buf, self._a_buf), bufs))
            assert (self.binv_s.base is bufs[0] and self.rows_s.base is bufs[1]
                    and self.a_s.base is bufs[2])
            ks.append(self.rows_s.size)

        monkeypatch.setattr(SimplexSolver, "_update_binv", spy)
        solves = warm_resolves(basic_transport_lp())
        solver, _ = next(solves)
        first, m = solver._binv_buf, solver.m
        solver, _ = next(solves)
        assert solver._binv_buf is first
        k_warm = solver.rows_s.size
        solver, sol = next(solves)  # a row joins: add_row, then a warm re-solve
        assert solver.m == m + 1 and solver._binv_buf is not first and sol.dual_iterations > 0
        assert sorted(seen) == [m, m + 1] and seen[m + 1][0][0] is solver._binv_buf
        assert seen[m][1][0] == 1 and max(seen[m + 1][1]) > k_warm  # both solves grew k
        for rows, (bufs, ks) in seen.items():
            width = min(rows, solver.n)
            assert bufs[0].shape == (rows, width) and bufs[0].flags.f_contiguous
            assert bufs[1].shape == (width,) and bufs[2].shape == (width, solver.n)
            assert max(ks) <= width

    def test_phase_two_duals_vanish_on_covered_rows(self):
        rng = np.random.default_rng(2718)
        problems = [basic_transport_lp()] + [boxed_problem(rng, 15, 20) for _ in range(5)]
        checked = 0
        for prob in problems:
            for solver, sol in warm_resolves(prob):
                if sol.status != "optimal":
                    continue
                covered = solver.slack_pos >= 0
                assert covered.any() and (sol.duals[covered] == 0.0).all()
                np.testing.assert_allclose(sol.reduced_costs, solver.c - sol.duals @ solver.A,
                                           rtol=0, atol=1e-12)
                checked += 1
        assert checked >= 8

    def test_dual_row_of_a_leaving_slack(self, monkeypatch):
        seen = {"slack": 0, "structural": 0}
        dual_row = SimplexSolver._dual_row

        def spy(self, r, sign):
            exp_y = sign * dense_inverse(self)[r]
            exp = exp_y @ np.hstack([self.A, np.eye(self.m)])
            y, gamma = dual_row(self, r, sign)
            assert np.array_equal(y, exp_y)
            np.testing.assert_allclose(gamma, exp, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(exp).max()))
            seen["slack" if self.basis[r] >= self.n else "structural"] += 1
            return y, gamma

        monkeypatch.setattr(SimplexSolver, "_dual_row", spy)
        rng = np.random.default_rng(1618)
        for prob in [basic_transport_lp()] + [boxed_problem(rng, 15, 20) for _ in range(5)]:
            for _ in warm_resolves(prob):
                pass
        assert seen["slack"] > 0 and seen["structural"] > 0


class TestRankOneUpdate:
    """`_subtract_outer` writes binv -= outer(w, row) only on the rows where
    the FTRAN column w is nonzero or only on the columns where the pivot row
    is nonzero, whichever is fewer entries."""

    @staticmethod
    @contextlib.contextmanager
    def checked_updates():
        """Check every update in the block against both restricted forms,
        computed here on copies (== also equates +0.0 and -0.0), and count
        the updates whose w is sparse enough for the row form."""
        seen = {"rows": 0, "columns": 0}
        update = simplex._subtract_outer

        def spy(binv, w, row):
            wr, nz = w.nonzero()[0], row.nonzero()[0]
            by_rows, by_cols = binv.copy(), binv.copy()
            by_rows[wr] -= np.multiply.outer(w[wr], row)
            by_cols[:, nz] -= np.multiply.outer(w, row[nz])
            update(binv, w, row)
            assert (by_rows == by_cols).all() and (binv == by_rows).all()
            seen["rows" if wr.size * row.size < w.size * nz.size else "columns"] += 1

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simplex, "_subtract_outer", spy)
            yield seen

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(bounded_lps_with_edits())
    def test_row_and_column_forms_agree_on_drawn_states(self, drawn):
        with self.checked_updates():
            warm_child(*drawn)

    def test_sparse_and_dense_columns_take_both_forms(self):
        """The transport LP's FTRAN columns are mostly sparse, a dense
        random LP's mostly dense: between them both forms run."""
        with self.checked_updates() as seen:
            for _ in warm_resolves(basic_transport_lp()):
                pass
            tightened_warm_start(0)[1].solve()
        assert seen["rows"] > 0 and seen["columns"] > 0


@st.composite
def lps_with_steps(draw):
    """A boxed LP with integer data, feasible at a drawn point of the box
    (m = 0 and all-`==` rows included), and a sequence of solver steps that
    keep that point feasible: `solve`, `set_bound` to a sub-interval that
    holds it, `add_row` with it on the feasible side and `load_state` of a
    state captured at an earlier solve (rejected if rows came since)."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    coef = st.integers(-5, 5).map(float)
    A = np.array(draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=m,
                               max_size=m))).reshape(m, n)
    c = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
    lb = np.array(draw(st.lists(st.integers(-3, 0), min_size=n, max_size=n)), dtype=float)
    ub = lb + np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    quarters = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    point = lb + np.array(draw(st.lists(quarters, min_size=n, max_size=n))) * (ub - lb)
    kinds = ["=="] if draw(st.booleans()) else ["<=", ">=", "=="]
    senses = draw(st.lists(st.sampled_from(kinds), min_size=m, max_size=m))
    gap = np.array(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))) / 2
    b = A @ point + np.select([np.array(senses) == "<=", np.array(senses) == ">="],
                              [gap, -gap]) if m else np.zeros(0)
    prob = LpProblem(c=c, A=A, senses=senses, b=b, lb=lb, ub=ub)
    halves = st.sampled_from([0.0, 0.5, 1.0])
    step = st.one_of(
        st.just(("solve",)),
        st.tuples(st.just("bound"), st.integers(0, n - 1), halves, halves),
        st.tuples(st.just("row"), st.lists(coef, min_size=n, max_size=n),
                  st.sampled_from(["<=", ">=", "=="]), st.integers(0, 4)),
        st.tuples(st.just("load"), st.integers(0, 5)),
    )
    return prob, point, draw(st.lists(step, min_size=1, max_size=10))


class TestStructuralInverse:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lps_with_steps())
    def test_inverse_and_optima_through_every_step(self, drawn):
        """After every step the inverse assembled from `binv_s`, `rows_s`
        and `slack_pos` inverts the basis, `a_s` holds A's rows on `rows_s`,
        and every solve is optimal and agrees with scipy on the LP as edited
        so far."""
        prob, point, steps = drawn
        A, senses, b = prob.A, list(prob.senses), prob.b
        lb, ub = prob.lb.copy(), prob.ub.copy()
        solver = SimplexSolver(prob)
        states = [solver.get_state()]
        for op in steps + [("solve",)]:
            if op[0] == "solve":
                sol = solver.solve()
                ref = scipy_solve(LpProblem(c=prob.c, A=A, senses=senses, b=b, lb=lb, ub=ub))
                assert sol.status == "optimal" and ref.status == 0
                assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
                states.append(solver.get_state())
            elif op[0] == "bound":
                _, j, below, above = op
                lb[j] = lb[j] + below * (point[j] - lb[j])
                ub[j] = ub[j] - above * (ub[j] - point[j])
                solver.set_bound(j, lb[j], ub[j])
            elif op[0] == "row":
                _, coefs, sense, gap = op
                coefs = np.array(coefs)
                rhs = coefs @ point + {"<=": gap, ">=": -gap, "==": 0.0}[sense] / 2
                solver.add_row(coefs, sense, rhs)
                A, senses, b = np.vstack([A, coefs[None, :]]), senses + [sense], np.append(b, rhs)
            else:
                basis, stat = states[op[1] % len(states)]
                if basis.size == solver.m:
                    solver.load_state(basis, stat)
                else:
                    kept = solver.basis.copy()
                    with pytest.raises(ValueError, match="does not match solver shape"):
                        solver.load_state(basis, stat)
                    np.testing.assert_array_equal(solver.basis, kept)
            np.testing.assert_allclose(dense_inverse(solver) @ basis_matrix(solver),
                                       np.eye(solver.m), atol=1e-9)
            assert np.array_equal(solver.a_s, solver.A[solver.rows_s])
            k = solver.rows_s.size
            assert np.array_equal(solver.col_of[solver.rows_s], np.arange(k))
            assert (np.delete(solver.col_of, solver.rows_s) == -1).all()
