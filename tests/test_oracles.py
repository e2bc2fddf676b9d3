"""Independent certificates: worst-case probability, superquantile duality,
feasibility witness, enumeration reference.  Frozen values come from hand
algebra on tiny profiles or from a fine one-dimensional grid scan."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drccp.oracles import (
    cvar,
    enumerate_optimal,
    lemma_certificate,
    worst_case_prob,
)
from drccp import formulations, transport
from drccp.model import DrccpInstance, Polyhedron, SafetyRow, SampleSet
from drccp.simplex import SimplexSolver, SimplexStall
from conftest import (
    assert_supports_solve_as_cold,
    box_instance,
    line_instance,
    milp_minimum,
    small_transport,
)


def grid_scan_prob(distances, theta, points=200001):
    """Brute-force check of the breakpoint scan: dense grid over t."""
    d = np.asarray(distances, dtype=float)
    hi = max(1.0, d.max()) * 3.0
    ts = np.linspace(hi / points, hi, points)
    vals = theta / ts + np.mean(np.maximum(0.0, 1.0 - d[None, :] / ts[:, None]), axis=1)
    return min(1.0, float(vals.min()))


def breakpoint_loop_prob(distances, theta):
    """The O(N * unique) breakpoint scan: the mean evaluated afresh at every
    distinct positive distance."""
    d = np.maximum(np.asarray(distances, dtype=float), 0.0)
    if theta == 0.0:
        return float(np.count_nonzero(d == 0.0)) / d.size
    best = 1.0
    for t in np.unique(d[d > 0.0]):
        best = min(best, theta / t + float(np.mean(np.maximum(0.0, 1.0 - d / t))))
    return min(best, 1.0)


# distances on a coarse grid, so ties and zeros are common
grid_distances = st.lists(st.integers(0, 40).map(lambda k: k / 8.0), min_size=1, max_size=60)
radii = st.sampled_from([0.0, 1e-3, 0.05, 0.3, 2.0]) | st.floats(0.0, 5.0)


class TestWorstCaseProb:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grid_distances, radii)
    def test_prefix_sums_match_breakpoint_loop(self, d, theta):
        assert abs(worst_case_prob(d, theta) - breakpoint_loop_prob(d, theta)) <= 1e-12

    def test_uniform_distances(self):
        # d = (1,1,1,1): optimum at t=1 gives theta/1 + 0.
        assert worst_case_prob([1.0, 1.0, 1.0, 1.0], 0.1) == pytest.approx(0.1, abs=1e-15)

    def test_mixed_profile(self):
        # d = (0, 1): zero entry contributes 1/2 at every t; best t=1 gives
        # 0.05 + 0.5.
        assert worst_case_prob([0.0, 1.0], 0.05) == pytest.approx(0.55, abs=1e-15)

    def test_zero_radius_is_empirical_frequency(self):
        assert worst_case_prob([0.0, 0.0, 1.0, 2.0], 0.0) == 0.5
        assert worst_case_prob([1.0, 2.0], 0.0) == 0.0

    def test_all_zero_distances_saturate(self):
        assert worst_case_prob([0.0, 0.0, 0.0], 0.2) == 1.0

    def test_capped_at_one(self):
        assert worst_case_prob([0.001], 5.0) == 1.0

    def test_matches_grid_scan(self):
        rng = np.random.default_rng(314)
        for _ in range(25):
            n = rng.integers(2, 12)
            d = np.round(rng.uniform(0.0, 2.0, n), 3)
            d[rng.random(n) < 0.2] = 0.0
            theta = float(np.round(rng.uniform(0.001, 0.5), 4))
            exact = worst_case_prob(d, theta)
            approx = grid_scan_prob(d, theta)
            assert exact <= approx + 1e-9  # scan can only overshoot the min
            assert abs(exact - approx) <= 5e-4

    def test_monotone_in_radius(self):
        d = [0.2, 0.5, 0.9, 1.4]
        vals = [worst_case_prob(d, th) for th in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            worst_case_prob([], 0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            worst_case_prob([-0.5, 1.0], 0.1)
        with pytest.raises(ValueError, match="theta"):
            worst_case_prob([1.0], -0.1)
        with pytest.raises(ValueError, match="theta"):
            worst_case_prob([1.0], float("nan"))
        # dropping the NaN sample would return 0.0999, a pass at epsilon = 0.1
        with pytest.raises(ValueError, match="NaN"):
            worst_case_prob([0.1, float("nan"), 0.3], 0.01)


class TestCvar:
    def test_hand_case_integral(self):
        # values (4,3,2,1), eps=0.25, n=4: k=1, t=3, r=(1,0,0,0),
        # primal = 3 + 1/1 = 4; dual puts weight 1 on the largest value.
        res = cvar([4.0, 3.0, 2.0, 1.0], 0.25)
        assert res.value == 4.0
        assert res.dual_value == 4.0
        assert res.t == 3.0
        np.testing.assert_array_equal(res.y, [1.0, 0.0, 0.0, 0.0])

    def test_hand_case_fractional(self):
        # values (10,20,30), eps=0.5, n=3: k=1, t=20, primal 20 + 10/1.5,
        # dual (30 + 0.5*20)/1.5 = 80/3.
        res = cvar([10.0, 20.0, 30.0], 0.5)
        assert res.value == pytest.approx(80.0 / 3.0, abs=1e-12)
        assert res.dual_value == pytest.approx(80.0 / 3.0, abs=1e-12)
        np.testing.assert_allclose(res.y, [0.0, 0.5, 1.0])

    def test_primal_dual_identity_random(self):
        rng = np.random.default_rng(2718)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            v = np.round(rng.normal(size=n) * rng.uniform(0.5, 20.0), 6)
            eps = float(rng.uniform(0.02, 0.95))
            res = cvar(v, eps)
            assert abs(res.value - res.dual_value) <= 1e-12 * max(1.0, abs(res.value))
            # Dual weights: k ones plus one clamped fractional entry.
            assert np.all((res.y >= 0.0) & (res.y <= 1.0))
            assert abs(res.y.sum() - min(eps * n, n * 1.0)) <= 1e-9 or res.y.sum() <= eps * n + 1e-9

    def test_value_dominates_mean_and_max_bounds(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            v = rng.normal(size=12)
            eps = float(rng.uniform(0.1, 0.9))
            res = cvar(v, eps)
            assert res.value >= v.mean() - 1e-9
            assert res.value <= v.max() + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            cvar([], 0.5)
        with pytest.raises(ValueError, match="epsilon"):
            cvar([1.0], 0.0)
        with pytest.raises(ValueError, match="NaN"):
            cvar([1.0, float("nan"), 2.0], 0.5)


class TestLemmaCertificate:
    def test_feasible_hand_case(self):
        # distances (0.1..0.5), eps=0.2 (k=1): t = 0.2, r = (0.1,0,0,0,0),
        # slack = 0.04 - theta - 0.02.
        cert = lemma_certificate([0.1, 0.2, 0.3, 0.4, 0.5], 0.2, theta=0.01)
        assert cert.feasible
        assert cert.t == pytest.approx(0.2)
        assert cert.budget_slack == pytest.approx(0.01, abs=1e-12)

    def test_infeasible_hand_case(self):
        cert = lemma_certificate([0.1, 0.2, 0.3, 0.4, 0.5], 0.2, theta=0.1)
        assert not cert.feasible
        assert cert.budget_slack == pytest.approx(-0.08, abs=1e-12)

    def test_breakpoint_is_maximizer(self):
        # No other breakpoint (or midpoint) gives more slack than the chosen t.
        rng = np.random.default_rng(55)
        for _ in range(60):
            n = int(rng.integers(3, 25))
            d = np.round(rng.uniform(0.0, 2.0, n), 4)
            eps = float(rng.uniform(0.05, 0.6))
            theta = float(rng.uniform(0.0, 0.3))
            cert = lemma_certificate(d, eps, theta)
            candidates = np.concatenate([d, d * 0.5, d * 1.5, [0.0]])
            for t in candidates:
                slack = eps * t - theta - np.mean(np.maximum(0.0, t - d))
                assert cert.budget_slack >= slack - 1e-12

    def test_agrees_with_worst_case_prob(self):
        # Robust feasibility has two independent characterizations; they must
        # agree away from the decision boundary, and at theta = 0 exactly.
        # Half the profiles tie a random number of samples at distance 0, and
        # at the positive theta each profile is checked again with a random
        # number of its distances infinite (drawn from a second generator).
        rng, far_rng = np.random.default_rng(404), np.random.default_rng(405)
        checked = checked_far = 0
        for i in range(200):
            n = int(rng.integers(3, 20))
            d = np.round(rng.uniform(0.0, 1.5, n), 4)
            if i % 2:
                d[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = 0.0
            eps = float(rng.uniform(0.05, 0.5))
            theta_pos = float(rng.uniform(0.001, 0.4))
            far = d.copy()
            far[far_rng.choice(n, int(far_rng.integers(1, n + 1)), replace=False)] = math.inf
            for dist, theta in ((d, 0.0), (d, 1e-12), (d, theta_pos), (far, theta_pos)):
                prob = worst_case_prob(dist, theta)
                if theta > 0.0 and abs(prob - eps) <= 1e-6:
                    continue
                cert = lemma_certificate(dist, eps, theta)
                assert cert.feasible == (prob <= eps), (dist, eps, theta)
                checked += 1
                checked_far += dist is far
        assert checked > 650 and checked_far > 190

    @pytest.mark.parametrize("theta", [0.0, 1e-12])
    def test_no_certificate_at_t_zero(self, theta):
        # two of three samples are already unsafe, worst case 2/3 > 0.4; at
        # t = 0 every term of the slack vanishes, and -theta lies within
        # FEAS_TOL
        cert = lemma_certificate([0.0, 0.0, 1.0], 0.4, theta)
        assert cert.t == 0.0 and cert.budget_slack == pytest.approx(-theta, abs=0.0)
        assert not cert.feasible
        assert worst_case_prob([0.0, 0.0, 1.0], theta) > 0.4

    def test_infinite_distances_at_theta_zero(self):
        # no positive finite distance: the slack is (eps - m/n) * t, so any
        # t > 0 certifies when at most eps * n samples sit at distance 0
        for d, eps in [([0.0, math.inf], 0.6), ([0.0, math.inf], 0.5),
                       ([math.inf, math.inf], 0.3)]:
            cert = lemma_certificate(d, eps, 0.0)
            assert cert.feasible and cert.t > 0.0
            assert worst_case_prob(d, 0.0) <= eps
        cert = lemma_certificate([0.0, math.inf], 0.4, 0.0)
        assert not cert.feasible and worst_case_prob([0.0, math.inf], 0.0) > 0.4

    @pytest.mark.parametrize("epsilon, theta, match", [
        (0.3, -1.0, "theta"),
        (0.3, float("nan"), "theta"),
        (1.5, 0.1, "epsilon"),
        (0.0, 0.1, "epsilon"),
        (-0.2, 0.1, "epsilon"),
        (float("nan"), 0.1, "epsilon"),
    ])
    def test_input_validation(self, epsilon, theta, match):
        with pytest.raises(ValueError, match=match):
            lemma_certificate([0.0, 0.5, 1.0, 2.0], epsilon, theta)

    def test_infinite_quantile_distance(self):
        # the (k+1)-th smallest distance is infinite.  Past the largest finite
        # one (2) the slack is flat at eps = m/n = 0.5: t = 2, r = (1, 0, 0, 0),
        # slack = 1 - 0.01 - 0.25
        d = [1.0, math.inf, 2.0, math.inf]
        cert = lemma_certificate(d, 0.5, 0.01)
        assert cert.feasible and cert.t == 2.0
        np.testing.assert_array_equal(cert.r, [1.0, 0.0, 0.0, 0.0])
        assert cert.budget_slack == pytest.approx(0.74, abs=1e-12)
        assert worst_case_prob(d, 0.01) <= 0.5
        # with eps = 0.6 the last piece rises at rate eps - 1/2 = 0.1: the
        # slack -theta at t = 0 reaches 0 at t = theta / 0.1
        cert = lemma_certificate([0.0, math.inf], 0.6, 0.01)
        assert cert.feasible and cert.t == pytest.approx(0.1, abs=1e-12)
        assert cert.budget_slack == pytest.approx(0.0, abs=1e-12)
        assert worst_case_prob([0.0, math.inf], 0.01) <= 0.6

    def test_rejects_nan_distances(self):
        # the slack would come out NaN, neither feasible nor infeasible
        with pytest.raises(ValueError, match="NaN"):
            lemma_certificate([0.1, float("nan"), 0.3, 0.5], 0.3, 0.01)


class TestEnumeration:
    def test_line_instance_exact(self):
        # x in [0, 10], cost x, row x > xi: discard the largest sample, then
        # x must clear the remaining ones robustly.
        inst = line_instance([0.1, 0.2, 0.3, 0.4, 0.5], epsilon=0.2, theta=0.01)
        res = enumerate_optimal(inst)
        assert res.status == "optimal"
        assert res.supports_tried == 6  # empty set + 5 singletons
        # At x = 0.55 the distances are (0.45, 0.35, 0.25, 0.15, 0.05); with
        # t = 0.15 the budget 0.2*0.15 - 0.01 - 0.10/5 closes exactly at 0,
        # and no smaller x (or any discard set) is feasible.
        assert res.support == ()
        assert res.objective == pytest.approx(0.55, abs=1e-9)

    def test_budget_guard(self):
        inst = box_instance(seed=1, n=40, epsilon=0.4)
        with pytest.raises(ValueError, match="budget"):
            enumerate_optimal(inst, max_supports=10)

    def test_infeasible_radius(self):
        # Radius too large for any x in the box.
        inst = line_instance([0.1, 0.2, 0.3], epsilon=0.34, theta=5.0, lo=0.0, hi=1.0)
        res = enumerate_optimal(inst)
        assert res.status == "infeasible"
        assert res.objective is None

    def test_matches_feasibility_scan_on_line(self):
        # On the line, distances grow with x, so the optimum is the smallest
        # x whose distance profile passes the worst-case probability oracle.
        # The two routes (support enumeration over LPs vs a one-dimensional
        # scan of an entirely different formula) must land on the same point.
        inst = line_instance([0.15, 0.3, 0.45, 0.6], epsilon=0.25, theta=0.02)
        res = enumerate_optimal(inst)
        assert res.supports_tried == 5
        xs = np.linspace(0.0, 2.0, 400001)
        best = math.inf
        for x in xs:
            dists = np.maximum(0.0, x - np.array([0.15, 0.3, 0.45, 0.6]))
            if worst_case_prob(dists, inst.theta) <= inst.epsilon + 1e-12:
                best = x
                break
        assert res.objective == pytest.approx(best, abs=1e-5)
        # Hand value: at x = 0.68, t = 0.23 closes the budget exactly.
        assert res.objective == pytest.approx(0.68, abs=1e-9)

    def test_matches_scipy_milp_on_transport(self):
        # The reference optimum against an outside MILP solver on the same
        # basic model, since both share the formulation builder.
        from drccp.formulations import build_basic

        optimal = 0
        for seed, centers in ((7, 3), (11, 2)):
            for theta in (0.01, 0.05, 0.2):
                _, inst = small_transport(seed=seed, centers=centers, theta=theta)
                res = enumerate_optimal(inst)
                expected = milp_minimum(build_basic(inst))
                if res.status == "infeasible":
                    assert expected == math.inf
                    continue
                optimal += 1
                assert res.objective == pytest.approx(expected, rel=1e-6)
        assert optimal >= 4

    def test_unbounded_support_raises(self):
        # x in [0, inf) with cost -1: the empty support's LP is unbounded,
        # which branch and cut reports with the same error
        from drccp import bnc

        inst = DrccpInstance(
            cost=[-1.0],
            domain=Polyhedron(G=np.zeros((0, 1)), g=[], lb=[0.0], ub=[math.inf]),
            rows=(SafetyRow(a=[-1.0], b=[-1.0], d=0.0),),
            samples=SampleSet(np.array([[0.1], [0.2], [0.3], [0.4], [0.5]])),
            epsilon=0.2,
            theta=0.01,
        )
        with pytest.raises(ValueError, match="unbounded"):
            bnc.solve(formulations.build_basic(inst, big_m=100.0))
        with pytest.raises(ValueError, match="unbounded"):
            enumerate_optimal(inst, big_m=100.0)


class TestWarmSupports:
    """The referees solve each support warm from the previous support's
    basis; every answer must be the one a cold solve of that support gives."""

    @pytest.mark.parametrize("seed, centers", [(7, 3), (11, 2)])
    @pytest.mark.parametrize("theta", [0.01, 0.05, 0.2])
    def test_transport_supports_solve_as_cold(self, seed, centers, theta):
        _, inst = small_transport(seed=seed, centers=centers, n=9, epsilon=0.25, theta=theta)
        _, warm, cold = assert_supports_solve_as_cold(formulations.build_basic(inst), inst)
        assert warm < cold / 2  # the supports really start warm

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("theta", [0.01, 0.05, 0.15])
    def test_box_supports_solve_as_cold(self, seed, theta):
        inst = box_instance(seed=seed, n=10, epsilon=0.25, theta=theta)
        assert_supports_solve_as_cold(formulations.build_basic(inst), inst)

    def test_full_supports_at_integral_eps_n_are_infeasible(self):
        # eps * N = 2: at a positive radius the budget row leaves no room
        # for k = 2 discards, so every size-k support is infeasible, cold
        # and warm, and the warm start moves on from each Farkas basis
        inst = box_instance(seed=5, n=8, epsilon=0.25, theta=0.02)
        assert inst.k == 2
        statuses, _, _ = assert_supports_solve_as_cold(formulations.build_basic(inst), inst)
        assert set(statuses[2]) == {"infeasible"}
        assert "optimal" in statuses[0] + statuses[1]

    @staticmethod
    def stalling(monkeypatch, stall_calls):
        """Make the listed SimplexSolver.solve calls (1-based) stall, and
        record the call number at every reset_basis and whether each solve
        after a reset starts from the slack basis."""
        inner_solve = SimplexSolver.solve
        inner_reset = SimplexSolver.reset_basis
        seen = {"calls": 0, "resets": [], "cold_starts": []}

        def solve(self, cutoff=math.inf):
            seen["calls"] += 1
            if seen["calls"] in stall_calls:
                raise SimplexStall("synthetic stall for testing")
            if seen["resets"] and seen["resets"][-1] == seen["calls"] - 1:
                slack = np.arange(self.n, self.n + self.m)
                seen["cold_starts"].append(np.array_equal(self.basis, slack))
            return inner_solve(self, cutoff)

        def reset_basis(self):
            seen["resets"].append(seen["calls"])
            return inner_reset(self)

        monkeypatch.setattr(SimplexSolver, "solve", solve)
        monkeypatch.setattr(SimplexSolver, "reset_basis", reset_basis)
        return seen

    def test_stalled_support_restarts_cold(self, monkeypatch):
        _, inst = small_transport(seed=7, n=9, epsilon=0.25, theta=0.05)
        big_m = formulations.compute_big_m(inst)  # its LPs run unpatched
        expected = enumerate_optimal(inst, big_m=big_m)
        assert expected.status == "optimal"
        seen = self.stalling(monkeypatch, {7})
        res = enumerate_optimal(inst, big_m=big_m)
        # the constructor's reset, then the one after the 7th solve stalled;
        # the retry of that support starts from the slack basis
        assert seen["resets"] == [0, 7]
        assert seen["cold_starts"] == [True, True]
        assert seen["calls"] == expected.supports_tried + 1
        assert (res.status, res.support, res.supports_tried) == (
            expected.status, expected.support, expected.supports_tried)
        assert res.objective == pytest.approx(expected.objective, rel=1e-9)
        np.testing.assert_allclose(res.x, expected.x, rtol=1e-9, atol=1e-9)

    def test_stall_in_the_cold_retry_propagates(self, monkeypatch):
        _, inst = small_transport(seed=7, n=9, epsilon=0.25, theta=0.05)
        big_m = formulations.compute_big_m(inst)
        seen = self.stalling(monkeypatch, {7, 8})
        with pytest.raises(SimplexStall):
            enumerate_optimal(inst, big_m=big_m)
        assert seen["resets"] == [0, 7]


class TestCrossChecks:
    def test_wcp_at_transport_optimum_respects_epsilon(self):
        from drccp import bnc, formulations
        from drccp.model import distance_profile

        tp, inst = small_transport(seed=42, theta=0.05)
        model = formulations.build_formulation(inst, "compact")
        res = bnc.solve(model)
        assert res.status == "optimal"
        dists = distance_profile(inst, res.x)
        assert worst_case_prob(dists, inst.theta) <= inst.epsilon + 1e-6
        cert = lemma_certificate(dists, inst.epsilon, inst.theta)
        assert cert.feasible
