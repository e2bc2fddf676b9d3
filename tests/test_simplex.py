"""LP solver: agreement with an independent solver, duality, certificates,
the feasibility tolerance, anti-cycling, determinism, warm starts, the dual
loop of warm re-solves, basis repair, the stored structural block of the
inverse, and the per-iteration selection rules and state."""
import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from conftest import box_instance
from drccp import bnc, simplex
from drccp.bench import cell_seed
from drccp.bnc import BncConfig
from drccp.constants import DUAL_PIVOT_TOL, DUAL_TOL, FACTOR_TOL, FEAS_TOL, PIVOT_TOL
from drccp.formulations import build_formulation, theta_grid, theta_max
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

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(9)
        prob = random_problem(rng)
        solver = SimplexSolver(prob)
        with pytest.raises(SimplexStall):
            solver.solve(max_iter=1)


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

    def test_set_bound_rejects_slack_index(self):
        prob = LpProblem(c=[1.0], A=[[1.0]], senses=["<="], b=[1.0], lb=[0.0], ub=[2.0])
        solver = SimplexSolver(prob)
        with pytest.raises(IndexError):
            solver.set_bound(1, 0.0, 0.0)

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


# -- warm re-solves through the dual loop -------------------------------------

def warm_child(prob, fixes, cuts, max_iter=None):
    """Solve `prob`, fix columns (j, value) and append rows (coefs, sense,
    offset) that cut its optimum x off by `offset`, then re-solve with
    `max_iter` warm from the optimal basis, which `add_row` extends by the
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
    warm = solver.solve(max_iter=max_iter)
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
        up, dn = fresh_moves(solver)
        assert np.array_equal(solver._up, up) and np.array_equal(solver._dn, dn)

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

        def resolve(max_iter):
            return warm_child(prob, [(13, 0.0)], [], max_iter)[2]

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

        def solve_spy(self, max_iter=None):
            seen["calls"] += 1
            sol = solve(self, 1 if seen["calls"] == 2 else max_iter)
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
        solver.stat = solver._settled(solver.stat)
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
        solver.stat = solver._settled(solver.stat)
        solver._refactor()
        assert len(repairs) == 1
        np.testing.assert_allclose(dense_inverse(solver) @ basis_matrix(solver), np.eye(3), atol=1e-9)
        sol = solver.solve()
        ref = scipy_solve(prob)
        assert sol.status == "optimal" and ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))

    def test_long_solves_through_refactors_match_reference(self, monkeypatch):
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
            sol = solver.solve()
            ref = scipy_solve(prob)
            assert solver.total_pivots >= 150 and len(refactors) >= 3
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
        solver.stat = solver._settled(solver.stat)
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
        left_out = np.setdiff1d(basis, solver.basis)
        assert left_out.size and np.all(solver.stat[left_out] != ST_BASIC)
        sol = solver.solve()
        ref = scipy_solve(prob)
        assert sol.status == "optimal" and ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))


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


def reference_ratio(solver, q, sigma, w, xb, lo, hi, below, above, bland):
    """Ratio test written as one masked formula per (direction, violation)
    case, each with its own leaving bound."""
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
    solver._moves()
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


# -- state the solve keeps per iteration -------------------------------------

def fresh_moves(solver):
    movable = solver.ub - solver.lb > 0
    up = movable & np.isin(solver.stat, (ST_LOWER, ST_FREE))
    dn = movable & np.isin(solver.stat, (ST_UPPER, ST_FREE))
    return up, dn


@contextlib.contextmanager
def checked_moves(monkeypatch):
    """Assert at every pricing of the block that the move masks equal a
    fresh recompute; count the pivots and bound flips that preceded them."""
    seen = {"checks": 0, "pivots": 0, "flips": 0}
    eligible, ratio = SimplexSolver._eligible_entering, SimplexSolver._ratio

    def eligible_spy(self, d, bland):
        up, dn = fresh_moves(self)
        np.testing.assert_array_equal(self._up, up)
        np.testing.assert_array_equal(self._dn, dn)
        seen["checks"] += 1
        return eligible(self, d, bland)

    def ratio_spy(self, *args):
        step, pos, to_upper, flip = ratio(self, *args)
        if step is not None:
            seen["flips" if flip else "pivots"] += 1
        return step, pos, to_upper, flip

    monkeypatch.setattr(SimplexSolver, "_eligible_entering", eligible_spy)
    monkeypatch.setattr(SimplexSolver, "_ratio", ratio_spy)
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
        monkeypatch.setattr(simplex, "REFACTOR_INTERVAL", 5)
        refactors = []
        refactor = SimplexSolver._refactor

        def spy(self):
            refactors.append(self.total_pivots)
            refactor(self)

        monkeypatch.setattr(SimplexSolver, "_refactor", spy)
        rng = np.random.default_rng(808)
        with checked_moves(monkeypatch) as seen:
            for _ in range(4):
                prob = boxed_problem(rng, 20, 30)
                solver = SimplexSolver(prob)
                sol = solver.solve()
                ref = scipy_solve(prob)
                assert sol.status == "optimal" and ref.status == 0
                assert abs(sol.objective - ref.fun) <= TOL * max(1.0, abs(ref.fun))
                up, dn = fresh_moves(solver)
                assert np.array_equal(solver._up, up) and np.array_equal(solver._dn, dn)
        assert seen["pivots"] > 0 and seen["flips"] > 0 and len(refactors) > 0

    def test_masks_recomputed_after_repair(self, monkeypatch):
        # every column has an equal twin; at the first refactorization a
        # basic slack is swapped for the twin of a basic structural, so the
        # basis is singular and `_repair_basis` re-settles the statuses
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
        rng = np.random.default_rng(909)
        half = np.round(rng.normal(size=(12, 8)), 3)
        prob = boxed_problem(rng, 12, 16, A=np.hstack([half, half]))
        with checked_moves(monkeypatch) as seen:
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
        eye, binv = np.eye(solver.m), dense_inverse(solver)
        for i in range(solver.m):
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
        and `slack_pos` inverts the basis, and every solve is optimal and
        agrees with scipy on the LP as edited so far."""
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
