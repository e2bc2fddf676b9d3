"""Formulation builders: quantiles, big-M, row contracts, radius ceiling."""
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drccp import formulations as F
from drccp import transport
from drccp.bnc import BncConfig, model_to_lp
from drccp.constants import MARGIN_TOL
from drccp.model import DrccpInstance, Polyhedron, SafetyRow, SampleSet
from drccp.simplex import solve_lp
from conftest import box_instance, cvar_solution, line_instance, milp_minimum, small_transport


def values_instance(values, epsilon, theta=0.05):
    """Instance whose quantile statistics are exactly the given values: one
    safety row with b=[-1], so -b @ xi_i = values[i] and the dual norm is 1."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    return DrccpInstance(
        cost=[1.0],
        domain=Polyhedron(G=np.zeros((0, 1)), g=[], lb=[0.0], ub=[10.0]),
        rows=(SafetyRow(a=[-1.0], b=[-1.0], d=0.0),),
        samples=SampleSet(values),
        epsilon=epsilon,
        theta=theta,
    )


class TestQuantiles:
    def test_hand_case(self):
        # eps*N = 1.5 is not an integer, so k = floor(eps*N) = 1
        inst = values_instance([3.0, 1.0, 4.0, 1.0, 5.0], epsilon=0.3)
        quant = F.compute_quantiles(inst)
        assert quant.k == inst.k == 1
        # Second largest of (3, 1, 4, 1, 5) is 4.
        np.testing.assert_allclose(quant.q, [4.0])
        np.testing.assert_allclose(quant.h[:, 0], [-1.0, -3.0, 0.0, -3.0, 1.0])
        np.testing.assert_array_equal(quant.surviving[0], [4])

    def test_integral_eps_n_counts_one_discard_fewer(self):
        # eps*N = 1: at a positive radius no sample may be discarded, so q is
        # the largest value and no sample lies above it
        inst = values_instance([3.0, 1.0, 4.0, 1.0, 5.0], epsilon=0.2)
        quant = F.compute_quantiles(inst)
        assert quant.k == 0 and inst.k == 1
        np.testing.assert_allclose(quant.q, [5.0])
        np.testing.assert_allclose(quant.h[:, 0], [-2.0, -4.0, -1.0, -4.0, 0.0])
        assert quant.surviving[0].size == 0
        # an explicit count overrides the default
        floor = F.compute_quantiles(inst, k=inst.k)
        assert floor.k == 1
        np.testing.assert_allclose(floor.q, [4.0])

    def test_ties_leave_no_survivors(self):
        inst = values_instance([2.0, 2.0, 2.0], epsilon=0.4)
        quant = F.compute_quantiles(inst)
        assert quant.k == 1
        np.testing.assert_allclose(quant.q, [2.0])
        assert quant.surviving[0].size == 0

    def test_survivor_count_bounded_by_k(self):
        for seed in range(10):
            inst = box_instance(seed=seed, n=12, rows=3, epsilon=0.25)
            quant = F.compute_quantiles(inst)
            for surv in quant.surviving:
                assert surv.size <= quant.k

    def test_h_scaled_by_dual_norm(self):
        # b = [-3, -4] under the l2 norm: scale 5.
        samples = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        inst = DrccpInstance(
            cost=[1.0],
            domain=Polyhedron(G=np.zeros((0, 1)), g=[], lb=[0.0], ub=[1.0]),
            rows=(SafetyRow(a=[0.0], b=[-3.0, -4.0], d=0.0),),
            samples=SampleSet(samples),
            epsilon=0.4,
            theta=0.05,
        )
        quant = F.compute_quantiles(inst)
        # v = (7, 0, 14), k = 1, q = 7, h = (v - 7) / 5.
        np.testing.assert_allclose(quant.q, [7.0])
        np.testing.assert_allclose(quant.h[:, 0], [0.0, -1.4, 1.4])


class TestBigM:
    def test_zero_a_fast_path(self):
        inst = values_instance([1.0, 2.0, 5.0], epsilon=0.4)
        inst = DrccpInstance(
            cost=inst.cost, domain=inst.domain,
            rows=(SafetyRow(a=[0.0], b=[-1.0], d=0.0),),
            samples=inst.samples, epsilon=inst.epsilon, theta=inst.theta,
        )
        # margin = -xi / 1, so the bracket is [-5, -1] and the bound is 5.
        assert F.compute_big_m(inst) == 5.0

    def test_bracket_includes_domain_extremes(self):
        inst = line_instance([0.5, 1.5], epsilon=0.5, theta=0.05, lo=0.0, hi=10.0)
        # margin = x - xi over x in [0, 10]: range [-1.5, 9.5] => bound 9.5.
        assert F.compute_big_m(inst) == pytest.approx(9.5, abs=1e-12)

    def test_unbounded_domain_rejected(self):
        inst = line_instance([0.5], epsilon=0.5, theta=0.05, lo=0.0, hi=math.inf)
        with pytest.raises(ValueError, match="not compact"):
            F.compute_big_m(inst)

    def test_matches_transport_closed_form(self):
        for seed in (1, 7, 23):
            tp, inst = small_transport(seed=seed)
            assert F.compute_big_m(inst) == pytest.approx(
                transport.transport_big_m(tp), abs=1e-9
            )


class TestRowContracts:
    @pytest.fixture
    def case(self):
        inst = box_instance(seed=5, n=8, dim=2, rows=3, epsilon=0.25, theta=0.04)
        return inst, F.compute_big_m(inst), F.compute_quantiles(inst)

    def counts(self, model):
        return {
            lbl: int(np.count_nonzero(model.labels == lbl))
            for lbl in ("domain", "budget", "indicator", "knapsack", "scenario",
                        "scenario_saa", "quantile_bound")
        }

    def test_saa_layout(self, case):
        inst, bm, _ = case
        m = F.build_formulation(inst, "saa", big_m=bm)
        c = self.counts(m)
        assert c == {"domain": 0, "budget": 0, "indicator": 0, "knapsack": 1,
                     "scenario": 0, "scenario_saa": inst.n * inst.p, "quantile_bound": 0}
        assert len(m.block_indices("x")) == inst.dim_x
        assert len(m.block_indices("z")) == inst.n
        assert m.block_indices("r") == [] and m.block_indices("t") == []

    def test_basic_layout(self, case):
        inst, bm, _ = case
        m = F.build_basic(inst, big_m=bm)
        c = self.counts(m)
        assert c == {"domain": 0, "budget": 1, "indicator": inst.n, "knapsack": 0,
                     "scenario": inst.n * inst.p, "scenario_saa": 0, "quantile_bound": 0}
        assert len(m.block_indices("r")) == inst.n
        assert len(m.block_indices("t")) == 1

    def test_knapsack_layout(self, case):
        inst, bm, _ = case
        c = self.counts(F.build_formulation(inst, "knapsack", big_m=bm))
        assert c["knapsack"] == 1
        assert c["scenario"] == inst.n * inst.p
        assert c["scenario_saa"] == inst.n * inst.p

    def test_reduced_layout(self, case):
        inst, bm, quant = case
        m = F.build_formulation(inst, "reduced", big_m=bm, quant=quant)
        c = self.counts(m)
        assert c["scenario"] == inst.n * inst.p
        assert c["scenario_saa"] == 0 and c["quantile_bound"] == 0
        # Every z coefficient in a scenario row is the matching h entry.
        z_idx = set(m.block_indices("z"))
        seen = 0
        for ridx in np.flatnonzero(m.labels == "scenario"):
            span = slice(m.start[ridx], m.start[ridx + 1])
            for j, coef in zip(m.cols[span].tolist(), m.vals[span].tolist()):
                if j in z_idx:
                    seen += 1
                    i = m.block_indices("z").index(j)
                    assert any(
                        abs(coef - quant.h[i, p]) <= 1e-12 for p in range(inst.p)
                    )
        assert seen > 0

    def test_compact_layout(self, case):
        inst, bm, quant = case
        m = F.build_formulation(inst, "compact", big_m=bm, quant=quant)
        c = self.counts(m)
        assert c["scenario"] == sum(s.size for s in quant.surviving)
        assert c["quantile_bound"] == inst.p
        # z, r and the indicator rows only for the union of the surviving sets
        union = np.unique(np.concatenate(quant.surviving))
        assert 0 < union.size < inst.n
        assert len(m.block_indices("z")) == len(m.block_indices("r")) == union.size
        assert c["indicator"] == union.size
        np.testing.assert_array_equal(m.sample_ids, union)
        assert m.num_samples == inst.n

    def test_domain_rows_carried(self):
        tp, inst = small_transport(seed=3)
        m = F.build_formulation(inst, "compact")
        assert np.count_nonzero(m.labels == "domain") == inst.domain.G.shape[0]
        assert inst.domain.G.shape[0] > 0

    def test_zero_theta_rejected(self):
        inst = line_instance([0.1, 0.9], epsilon=0.5, theta=0.0)
        for kind in ("basic", "knapsack", "reduced", "compact"):
            with pytest.raises(ValueError, match="saa formulation"):
                F.build_formulation(inst, kind)
        # The empirical baseline accepts radius zero.
        F.build_formulation(inst, "saa")

    def test_unknown_kind_rejected(self):
        inst = line_instance([0.1, 0.9], epsilon=0.5, theta=0.1)
        with pytest.raises(ValueError, match="unknown formulation"):
            F.build_formulation(inst, "fancy")

    def test_big_m_override_lands_in_rows(self, case):
        inst, _, _ = case
        m = F.build_formulation(inst, "saa", big_m=123.5)
        z_idx = set(m.block_indices("z"))
        ridx = np.flatnonzero(m.labels == "scenario_saa")[0]
        span = slice(m.start[ridx], m.start[ridx + 1])
        zc = [coef for j, coef in zip(m.cols[span].tolist(), m.vals[span].tolist())
              if j in z_idx]
        assert zc == [123.5]


class TestLpRelaxationOrdering:
    def lp_bound(self, model):
        prob, sign = model_to_lp(model)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        return sign * sol.objective

    def test_strengthening_chain(self):
        # The LP relaxations tighten along basic -> knapsack -> reduced ->
        # compact on every seeded instance.
        for seed in range(12):
            inst = box_instance(seed=seed, n=10, dim=3, rows=2, epsilon=0.25, theta=0.03)
            bm = F.compute_big_m(inst)
            quant = F.compute_quantiles(inst)
            vals = {
                kind: self.lp_bound(F.build_formulation(inst, kind, big_m=bm, quant=quant))
                for kind in ("basic", "knapsack", "reduced", "compact")
            }
            assert vals["knapsack"] >= vals["basic"] - 1e-9
            assert vals["reduced"] >= vals["knapsack"] - 1e-9
            assert vals["compact"] >= vals["reduced"] - 1e-9


class TestThetaMax:
    def test_hand_case(self):
        # One decision x in [0, 1], margins x - xi, samples 0.1..0.5, eps 0.2.
        # At x = 1 distances are (0.5..0.9); the radius budget maximum is
        # eps * t - mean((t - d)^+), flat at 0.1 for t in [0.5, 0.6].
        inst = line_instance([0.1, 0.2, 0.3, 0.4, 0.5], epsilon=0.2, theta=0.01,
                             lo=0.0, hi=1.0)
        val = F.theta_max(inst)
        assert val == pytest.approx(0.1, abs=1e-9)

    def test_unproven_radius_warns(self):
        # the hand case at eps = 0.3: eps*N = 1.5 lets the model discard one
        # sample, and the maximum 0.3 t - mean((t - d)^+) is 0.16 at t = 0.6.
        # The root LP is fractional, so its first incumbent comes from a
        # child; a limit of 2 nodes stops before the proof (a limit of 1
        # cannot: a root incumbent means an integral root, which ends the
        # search optimal)
        inst = line_instance([0.1, 0.2, 0.3, 0.4, 0.5], epsilon=0.3, theta=0.01,
                             lo=0.0, hi=1.0)
        with pytest.warns(RuntimeWarning, match="'feasible-gap' at a .*% gap"):
            val = F.theta_max(inst, config=BncConfig(node_limit=2))
        assert val == pytest.approx(0.16, abs=1e-9)

    @staticmethod
    def spy_on_solves(monkeypatch):
        """The list that every later `bnc.solve` result is appended to."""
        from drccp import bnc

        results = []
        inner = bnc.solve
        monkeypatch.setattr(bnc, "solve", lambda *args, **kwargs:
                            results.append(inner(*args, **kwargs)) or results[-1])
        return results

    # x <= 0.5 leaves the sample at 0.9 unsafe; at eps*N = 1 one unsafe
    # sample takes the whole budget, so only radius zero is feasible
    UNSAFE = dict(values=[0.1, 0.9], epsilon=0.5, theta=0.01, lo=0.0, hi=0.5)
    # x <= 0.5 leaves the sample at 0.5 at distance zero: radius zero is
    # feasible, and so is every point that discards no sample
    ZERO = dict(values=[0.1, 0.5], epsilon=0.5, theta=0.01, lo=0.0, hi=0.5)

    @pytest.mark.parametrize("cell, matrix, status", [
        ("UNSAFE", "compact", "infeasible"),  # it may discard no sample
        ("UNSAFE", "basic", "optimal"),  # the basic matrix ends at radius zero
        ("ZERO", "compact", "optimal"),  # the seed, at radius zero, is proven largest
        ("ZERO", "basic", "optimal"),
    ])
    def test_no_positive_radius(self, monkeypatch, cell, matrix, status):
        inst = line_instance(**getattr(self, cell))
        assert F.compute_quantiles(inst).k == 0
        results = self.spy_on_solves(monkeypatch)
        with pytest.raises(ValueError, match="^no positive feasible radius: every point "
                                             "has at least eps\\*N samples at distance zero$"):
            F.theta_max(inst, matrix=matrix)
        (res,) = results
        assert res.status == status
        assert res.objective is None or res.objective <= MARGIN_TOL

    def test_limit_before_a_positive_radius(self, monkeypatch):
        # one node of the basic matrix holds only the seed at radius zero; it
        # is no proof that zero is largest, so the error names the limit
        results = self.spy_on_solves(monkeypatch)
        with pytest.raises(ValueError, match="^radius maximization ended 'feasible-gap' "
                                             "before it found a positive radius$"):
            F.theta_max(line_instance(**self.ZERO), matrix="basic",
                        config=BncConfig(node_limit=1))
        (res,) = results
        assert (res.status, res.objective, res.nodes) == ("feasible-gap", 0.0, 1)

    def test_limit_before_a_feasible_point(self):
        # x <= 0.5 leaves the sample at 0.9 unsafe, so no point discards no
        # sample: the CVaR LP (every z at 0) is infeasible and the search has
        # no seed.  The radius 0.01 needs that sample discarded, and the
        # root is fractional, so one node finds no incumbent
        inst = line_instance([0.1, 0.2, 0.3, 0.4, 0.9], epsilon=0.3, theta=0.01,
                             lo=0.0, hi=0.5)
        assert cvar_solution(F.build_theta_variant(inst)).status == "infeasible"
        assert F.theta_max(inst) == pytest.approx(0.01, abs=1e-9)
        with pytest.raises(ValueError, match="ended 'no-incumbent' before it found a "
                                             "positive radius"):
            F.theta_max(inst, config=BncConfig(node_limit=1))
        # the eps = 0.3 hand case has a fractional root too, but its CVaR
        # radius, 0.16, is the maximum: one node returns it, unproven
        # (the root bound 0.168 is 4.76% above it)
        inst = line_instance([0.1, 0.2, 0.3, 0.4, 0.5], epsilon=0.3, theta=0.01,
                             lo=0.0, hi=1.0)
        with pytest.warns(RuntimeWarning, match=r"'feasible-gap' at a 4\.76\d*% gap"):
            val = F.theta_max(inst, config=BncConfig(node_limit=1))
        assert val == pytest.approx(0.16, abs=1e-9)

    def test_proven_radius_does_not_warn(self):
        inst = line_instance([0.1, 0.2, 0.3, 0.4, 0.5], epsilon=0.2, theta=0.01,
                             lo=0.0, hi=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert F.theta_max(inst) == pytest.approx(0.1, abs=1e-9)

    def test_matrices_agree(self):
        inst = line_instance([0.1, 0.2, 0.3, 0.4, 0.5], epsilon=0.2, theta=0.01,
                             lo=0.0, hi=1.0)
        vals = [F.theta_max(inst, matrix=mx) for mx in ("basic", "knapsack", "compact")]
        assert max(vals) - min(vals) <= 1e-9

    def test_transport_matrices_agree(self):
        tp, inst = small_transport(seed=11)
        a = F.theta_max(inst, matrix="compact")
        b = F.theta_max(inst, matrix="basic")
        assert a == pytest.approx(b, rel=1e-7)

    def test_the_search_starts_at_the_cvar_radius(self, monkeypatch):
        results = self.spy_on_solves(monkeypatch)
        hand = line_instance([0.1, 0.2, 0.3, 0.4, 0.5], epsilon=0.3, theta=0.01, lo=0.0, hi=1.0)
        assert F.theta_max(hand, config=BncConfig(log_events=True)) == pytest.approx(0.16, abs=1e-9)
        assert results[-1].events[0] == "node=0 lb=-0.16 ub=-0.16 depth=0 action=start"
        # a seed at radius zero is an incumbent too; the basic matrix proves it largest
        with pytest.raises(ValueError, match="no positive feasible radius"):
            F.theta_max(line_instance(**self.ZERO), matrix="basic",
                        config=BncConfig(log_events=True))
        assert results[-1].events[0] == "node=0 lb=-0 ub=-0 depth=0 action=start"

    def test_unsupported_matrix(self):
        inst = line_instance([0.1], epsilon=0.5, theta=0.01)
        with pytest.raises(ValueError, match="matrix"):
            F.build_theta_variant(inst, matrix="reduced")

    def test_objective_is_theta_maximization(self):
        inst = line_instance([0.1, 0.2], epsilon=0.5, theta=0.01)
        m = F.build_theta_variant(inst, matrix="compact")
        assert m.obj_sense == "max"
        (j,), (coef,) = m.obj_cols.tolist(), m.obj_vals.tolist()
        assert j == m.block_indices("theta")[0] and coef == 1.0

    def test_grid_shape(self):
        grid = F.theta_grid(1.0)
        assert len(grid) == 10
        assert grid[0] == 0.001
        np.testing.assert_allclose(grid[1:], [j / 10.0 for j in range(1, 10)])
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestCvarSeed:
    """`theta_max`'s search seeds itself with the CVaR radius, the theta
    variant's LP with every z fixed at 0."""

    CELLS = {
        "transport7": lambda: small_transport(seed=7)[1],
        "transport11": lambda: small_transport(seed=11, theta=0.02)[1],
        "transport3": lambda: small_transport(seed=3, n=20, epsilon=0.1)[1],
        "transport5": lambda: small_transport(seed=5, centers=4, n=15)[1],
        "box5": lambda: box_instance(seed=5, n=8, dim=2, rows=3, epsilon=0.25),
        "box9": lambda: box_instance(seed=9, n=10, dim=3, rows=2, epsilon=0.3),
        "box44": lambda: box_instance(seed=44, n=12),
    }

    @pytest.mark.parametrize("matrix", ["compact", "basic"])
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_seeded_theta_max_agrees_with_highs(self, cell, matrix):
        # scipy's MILP solver on the same model is the independent reference
        inst = self.CELLS[cell]()
        config = BncConfig()
        reference = -milp_minimum(F.build_theta_variant(inst, matrix=matrix))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seeded = F.theta_max(inst, matrix=matrix, config=config)
        assert seeded == pytest.approx(reference, rel=config.gap_tol)

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_the_seed_is_certified_at_its_radius(self, cell):
        from drccp import bnc
        from drccp.model import distance_profile
        from drccp.oracles import lemma_certificate, worst_case_prob

        inst = self.CELLS[cell]()
        model = F.build_theta_variant(inst)
        seed = bnc._Search(model, [], BncConfig())._seed()
        assert np.array_equal(seed, cvar_solution(model).x)
        radius = seed[model.block_indices("theta")[0]]
        assert radius > MARGIN_TOL
        assert np.all(seed[model.binary] == 0.0)
        dists = distance_profile(inst, seed[model.block_indices("x")])
        assert lemma_certificate(dists, inst.epsilon, radius).feasible
        assert worst_case_prob(dists, radius) <= inst.epsilon + 1e-7

    def test_depth_first_proves_the_radius_at_n_200(self):
        # the bench cell (2, 3, 200): unseeded, a depth-first search ended
        # 'feasible-gap' at 0.1054 after 4,000 nodes; from the CVaR radius it
        # proves the best-bound radius
        from drccp import bench, bnc

        tp = transport.generate(2, 3, 200, bench.cell_seed(20240801, 2, 3, 200, 0), 0.1)
        inst = transport.to_drccp(tp, theta=0.001)
        best = bnc.solve(F.build_theta_variant(inst), config=BncConfig(node_limit=4000))
        assert best.status == "optimal"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = F.theta_max(inst, config=BncConfig(node_limit=4000,
                                                      node_selection="depth-first"))
        assert val == pytest.approx(best.objective, rel=1e-6)
        assert val == pytest.approx(0.1926676489, rel=1e-9)


class TestCompactAgreesWithBasic:
    """compact drops z, r and the indicator row of every sample that is above
    the quantile in no row; the optimum must not move."""

    CELLS = {
        "box5": lambda: box_instance(seed=5, n=8, dim=2, rows=3, epsilon=0.25, theta=0.04),
        "box9": lambda: box_instance(seed=9, n=10, dim=3, rows=2, epsilon=0.3, theta=0.03),
        "transport7": lambda: small_transport(seed=7)[1],
        "transport11": lambda: small_transport(seed=11, theta=0.02)[1],
    }

    @staticmethod
    def union_size(inst):
        return np.unique(np.concatenate(F.compute_quantiles(inst).surviving)).size

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_optimum_matches_basic_and_enumeration(self, cell):
        from drccp import bnc
        from drccp.cuts import MixingSeparator, PathSeparator
        from drccp.oracles import enumerate_optimal

        inst = self.CELLS[cell]()
        assert self.union_size(inst) < inst.n
        ref = enumerate_optimal(inst)
        assert ref.status == "optimal"
        config = BncConfig(gap_tol=1e-9)
        runs = [("basic", ()), ("compact", ()),
                ("compact", (MixingSeparator(inst), PathSeparator(inst)))]
        for kind, separators in runs:
            res = bnc.solve(F.build_formulation(inst, kind), separators, config)
            assert res.status == "optimal", (kind, separators)
            assert res.objective == pytest.approx(ref.objective, abs=1e-6)

    @pytest.mark.parametrize("cell", ["box5", "transport7"])
    def test_theta_max_matches_basic(self, cell):
        inst = self.CELLS[cell]()
        assert self.union_size(inst) < inst.n
        config = BncConfig(gap_tol=1e-9)
        compact = F.theta_max(inst, matrix="compact", config=config)
        basic = F.theta_max(inst, matrix="basic", config=config)
        assert compact == pytest.approx(basic, abs=1e-6)

    def test_no_discards_leaves_no_binaries(self):
        # k = 0: no sample is above the quantile, so compact has no z, no r,
        # no indicator rows and no knapsack row (it would have no terms), and
        # the path separator finds no candidates
        from drccp import bnc
        from drccp.cuts import MixingSeparator, PathSeparator
        from drccp.oracles import enumerate_optimal

        inst = box_instance(seed=3, n=8, epsilon=0.1, theta=0.01)
        assert inst.k == 0
        model = F.build_formulation(inst, "compact")
        assert model.block_indices("z") == model.block_indices("r") == []
        assert not np.any(np.isin(model.labels, ["indicator", "knapsack"]))
        assert np.all(np.diff(model.start) > 0)  # every row has a term
        ref = enumerate_optimal(inst).objective
        res = bnc.solve(model, [MixingSeparator(inst), PathSeparator(inst)])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref, abs=1e-6)
        basic = bnc.solve(F.build_basic(inst))
        assert basic.status == "optimal"
        assert basic.objective == pytest.approx(ref, abs=1e-6)


@st.composite
def integral_eps_n_boxes(draw):
    """A small box instance whose eps*N is an integer, at a positive radius."""
    n, k = draw(st.sampled_from([(5, 1), (4, 2), (6, 2), (8, 2), (6, 3), (9, 3)]))
    return box_instance(seed=draw(st.integers(0, 10**6)), n=n,
                        rows=draw(st.integers(1, 2)), epsilon=k / n,
                        theta=draw(st.sampled_from([0.002, 0.01, 0.03, 0.06])))


class TestDistanceDiscardCount:
    """The distance-based models discard at most ceil(eps*N) - 1 samples;
    the referees still count floor(eps*N)."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(integral_eps_n_boxes())
    def test_one_discard_fewer_keeps_the_optimum(self, inst):
        from drccp import bnc
        from drccp.cuts import MixingSeparator, PathSeparator
        from drccp.model import distance_profile
        from drccp.oracles import enumerate_optimal, lemma_certificate, worst_case_prob

        k = inst.k
        assert F.compute_quantiles(inst).k == k - 1
        ref = enumerate_optimal(inst)
        compact = bnc.solve(F.build_formulation(inst, "compact"),
                            [MixingSeparator(inst), PathSeparator(inst)])
        knapsack = bnc.solve(F.build_formulation(inst, "knapsack"))
        for res in (compact, knapsack):
            assert res.status == ref.status
            if ref.status == "optimal":
                assert res.objective == pytest.approx(ref.objective, abs=1e-6)
                dist = distance_profile(inst, res.x)
                assert lemma_certificate(dist, inst.epsilon, inst.theta).feasible
                assert worst_case_prob(dist, inst.theta) <= inst.epsilon + 1e-7
        # the count the referee allows but the models leave out: at a
        # positive radius the budget row rules out every such support
        basic = F.build_basic(inst)
        z_cols = basic.sample_columns("z")
        for support in itertools.combinations(range(inst.n), k):
            basic.lb[z_cols] = basic.ub[z_cols] = 0.0
            basic.lb[z_cols[list(support)]] = basic.ub[z_cols[list(support)]] = 1.0
            assert milp_minimum(basic) == math.inf

    def test_one_sample_budget_solves_at_the_root(self):
        # eps*N = 1: no sample may be discarded at a positive radius, so the
        # compact model has no z and its root LP is the answer
        from drccp import bnc
        from drccp.cuts import MixingSeparator, PathSeparator
        from drccp.oracles import enumerate_optimal

        inst = box_instance(seed=3, n=10, epsilon=0.1, theta=0.01)
        assert inst.k == 1 and F.compute_quantiles(inst).k == 0
        model = F.build_formulation(inst, "compact")
        assert model.block_indices("z") == []
        res = bnc.solve(model, [MixingSeparator(inst), PathSeparator(inst)],
                        BncConfig(log_events=True))
        assert res.status == "optimal" and res.nodes == 1
        assert res.events and all(e.startswith("node=0 ") for e in res.events)
        assert res.objective == pytest.approx(enumerate_optimal(inst).objective, abs=1e-6)


@st.composite
def fractional_eps_n_cells(draw):
    """A small box or transport instance whose eps*N is not an integer, at a
    positive radius."""
    n, epsilon = draw(st.sampled_from([(7, 0.2), (8, 0.3), (9, 0.25), (10, 0.15), (10, 0.25)]))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return box_instance(seed=seed, n=n, rows=draw(st.integers(1, 2)), epsilon=epsilon,
                            theta=draw(st.sampled_from([0.005, 0.02, 0.05, 0.1])))
    return small_transport(seed=seed, centers=draw(st.integers(2, 3)), n=n, epsilon=epsilon,
                           theta=draw(st.sampled_from([0.01, 0.03, 0.1])))[1]


class TestPresetsAgreeWithEnumeration:
    """At a non-integral eps*N every preset discards floor(eps*N) samples,
    as the enumeration referee does, so each must end at its answer."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(fractional_eps_n_cells())
    def test_every_preset_ends_at_the_enumerated_optimum(self, inst):
        from drccp import bnc
        from drccp.cuts import MixingSeparator, PathSeparator
        from drccp.model import distance_profile
        from drccp.oracles import enumerate_optimal, lemma_certificate, worst_case_prob

        big_m = F.compute_big_m(inst)
        quant = F.compute_quantiles(inst)
        assert quant.k == inst.k
        ref = enumerate_optimal(inst, big_m=big_m)
        config = BncConfig(gap_tol=1e-9)
        runs = [(kind, ()) for kind in ("basic", "knapsack", "reduced", "compact")]
        runs.append(("compact", (MixingSeparator(inst, quant), PathSeparator(inst, quant))))
        optima = [] if ref.x is None else [ref.x]
        for kind, separators in runs:
            model = F.build_formulation(inst, kind, big_m=big_m, quant=quant)
            res = bnc.solve(model, separators, config)
            assert res.status == ref.status, (kind, separators)
            if ref.status == "optimal":
                assert res.objective == pytest.approx(ref.objective, abs=1e-6), (kind, separators)
                optima.append(res.x)
        for x in optima:
            dist = distance_profile(inst, x)
            assert lemma_certificate(dist, inst.epsilon, inst.theta).feasible
            assert worst_case_prob(dist, inst.theta) <= inst.epsilon + 1e-7
