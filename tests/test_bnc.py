"""Branch-and-cut solver tests.

Ground truth comes from hand-solvable toy MIPs and from the support
enumeration oracle; the solver under test never grades itself.
"""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import box_instance, cvar_solution, line_instance, milp_minimum, small_transport
from drccp import bnc, oracles
from drccp.bnc import BncConfig, compute_gap, solve
from drccp.constants import INT_TOL
from drccp.cuts import MixingSeparator, PathSeparator
from drccp.formulations import build_basic, build_formulation, build_theta_variant
from drccp.model import BINARY, CONTINUOUS, MipModel, distance_profile
from drccp.simplex import LpProblem, LpSolution, SimplexSolver, SimplexStall


def toy_knapsack():
    """max 5a + 4b + 3c s.t. 2a + 3b + c <= 3, binary.

    By inspection a=1, c=1 fits (weight 3) for value 8; any set with b
    either drops a or c and scores at most 7.  Optimum 8.
    """
    m = MipModel()
    a = m.add_var("a", BINARY, block="z")
    b = m.add_var("b", BINARY, block="z")
    c = m.add_var("c", BINARY, block="z")
    m.add_constraint(((a, 2.0), (b, 3.0), (c, 1.0)), "<=", 3.0, "weight")
    m.set_objective(((a, 5.0), (b, 4.0), (c, 3.0)), sense="max")
    return m.validate()


def fractional_toy():
    """max 8a + 5b s.t. a + b <= 1.5, binary.

    The root relaxation picks a=1, b=0.5 (objective 10.5), so the tree
    must branch; the integral optimum is a=1, b=0 with value 8.
    """
    m = MipModel()
    a = m.add_var("a", BINARY, block="z")
    b = m.add_var("b", BINARY, block="z")
    m.add_constraint(((a, 1.0), (b, 1.0)), "<=", 1.5, "budget")
    m.set_objective(((a, 8.0), (b, 5.0)), sense="max")
    return m.validate()


def covered_toy():
    """fractional_toy plus a + b >= 0.5 (row "cover"): the same root
    relaxation (10.5) and optimum (a=1, b=0, 8), but no point with both
    binaries at 0, so the search has no seed and its first incumbent comes
    from the tree."""
    m = MipModel()
    a = m.add_var("a", BINARY, block="z")
    b = m.add_var("b", BINARY, block="z")
    m.add_constraint(((a, 1.0), (b, 1.0)), "<=", 1.5, "budget")
    m.add_constraint(((a, 1.0), (b, 1.0)), ">=", 0.5, "cover")
    m.set_objective(((a, 8.0), (b, 5.0)), sense="max")
    return m.validate()


# -- degenerate trees --------------------------------------------------------

def test_pure_lp_model_solves_at_root():
    m = MipModel()
    x = m.add_var("x", CONTINUOUS, lb=0.0, ub=10.0, block="x")
    y = m.add_var("y", CONTINUOUS, lb=0.0, ub=10.0, block="x")
    m.add_constraint(((x, 1.0), (y, 1.0)), ">=", 3.0, "cover")
    m.set_objective(((x, 2.0), (y, 1.0)))
    res = solve(m.validate())
    assert res.status == "optimal"
    assert res.nodes == 1
    assert res.gap_pct == pytest.approx(0.0, abs=1e-9)
    assert res.objective == pytest.approx(3.0, abs=1e-9)  # all y
    assert res.x == pytest.approx([0.0, 3.0], abs=1e-9)


def test_integral_root_needs_no_branching():
    res = solve(toy_knapsack())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0, abs=1e-9)
    assert res.bound == pytest.approx(8.0, abs=1e-9)
    assert res.values == pytest.approx([1.0, 0.0, 1.0], abs=1e-9)
    assert res.nodes == 1


def test_fractional_toy_branches_to_optimum():
    res = solve(fractional_toy(), config=BncConfig(log_events=True))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0, abs=1e-9)
    assert res.root_bound == pytest.approx(10.5, abs=1e-9)
    assert res.nodes > 1
    assert any("action=incumbent" in e for e in res.events)


def test_infeasible_model():
    m = MipModel()
    x = m.add_var("x", CONTINUOUS, lb=0.0, ub=1.0, block="x")
    z = m.add_var("z", BINARY, block="z")
    m.add_constraint(((x, 1.0), (z, 1.0)), ">=", 3.0, "impossible")
    m.set_objective(((x, 1.0),))
    res = solve(m.validate())
    assert res.status == "infeasible"
    assert res.objective is None
    assert res.bound is None
    assert res.x is None
    assert res.nodes == 1


def test_unbounded_relaxation_raises():
    m = MipModel()
    x = m.add_var("x", CONTINUOUS, lb=0.0, block="x")
    m.set_objective(((x, 1.0),), sense="max")
    with pytest.raises(ValueError, match="unbounded"):
        solve(m.validate())


# -- limits and statuses -----------------------------------------------------

def test_node_limit_without_incumbent():
    res = solve(covered_toy(), config=BncConfig(node_limit=1))
    assert res.status == "no-incumbent"
    assert res.objective is None
    assert res.nodes == 1
    # the root bound is still a valid relaxation bound
    assert res.root_bound == pytest.approx(10.5, abs=1e-9)


def test_time_limit_zero_stops_after_root():
    res = solve(covered_toy(), config=BncConfig(time_limit=0.0))
    assert res.status == "no-incumbent"
    assert res.objective is None


def test_gap_tolerance_allows_early_stop():
    # a loose tolerance accepts the first incumbent of the dive
    res = solve(
        build_formulation(box_instance(41), "compact"),
        config=BncConfig(gap_tol=0.5, node_selection="depth-first"),
    )
    assert res.status == "optimal"
    assert res.gap_pct is not None and res.gap_pct <= 50.0 + 1e-9


def test_bound_never_exceeds_objective():
    for seed in (40, 41, 42):
        res = solve(build_formulation(box_instance(seed), "compact"))
        assert res.status == "optimal"
        assert res.bound <= res.objective + 1e-6 * (1.0 + abs(res.objective))


# -- gap arithmetic ----------------------------------------------------------

def test_compute_gap_percent_form():
    assert compute_gap(None, 1.0) is None
    assert compute_gap(1.0, None) is None
    assert compute_gap(5.0, 4.0) == pytest.approx(25.0)
    assert compute_gap(4.0, 4.0) == 0.0
    assert compute_gap(1.0116, 1.0) == pytest.approx(1.16)


def test_compute_gap_zero_bound():
    assert compute_gap(0.0, 0.0) == 0.0
    assert compute_gap(1.0, 0.0) == math.inf


def test_compute_gap_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="bound inversion"):
        compute_gap(3.0, 4.0)


def sign_change_toy():
    """min b + x, b binary, x in [-5, 5], -4b + x >= -1.5, 3b + x >= 0.5.

    The root relaxation (b = 1/7, x = 1/14) is worth -1/14; b = 0 gives
    x = 0.5 (objective 0.5), b = 1 gives x = 2.5 (objective 3.5).  The
    root bound is negative under a positive incumbent.
    """
    m = MipModel()
    b = m.add_var("b", BINARY, block="z")
    x = m.add_var("x", CONTINUOUS, lb=-5.0, ub=5.0, block="x")
    m.add_constraint(((b, -4.0), (x, 1.0)), ">=", -1.5, "r1")
    m.add_constraint(((b, 3.0), (x, 1.0)), ">=", 0.5, "r2")
    m.set_objective(((b, 1.0), (x, 1.0)))
    return m.validate()


def test_optimal_with_a_negative_bound_keeps_the_gap_within_tolerance():
    # the first incumbent 0.5 against the open bound -1/14 is a reported
    # gap of 800%; a search that stops there must not call it optimal at
    # gap_tol = 2 (200%)
    res = solve(sign_change_toy(), config=BncConfig(gap_tol=2.0))
    assert res.root_bound == pytest.approx(-1.0 / 14.0, abs=1e-9)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.5, abs=1e-9)
    assert res.gap_pct <= 200.0
    assert res.bound <= res.objective


@st.composite
def tiny_mips(draw):
    """Four binaries and one continuous x in [-5, 5] (the last column),
    three random >= rows, an objective of either sign."""
    m = MipModel()
    cols = [m.add_var(f"b{i}", BINARY, block="z") for i in range(4)]
    cols.append(m.add_var("x", CONTINUOUS, lb=-5.0, ub=5.0, block="x"))
    coef = st.integers(-4, 4).map(float)
    for r in range(3):
        row = draw(st.lists(coef, min_size=5, max_size=5))
        rhs = draw(st.integers(-10, 10)) / 2.0
        m.add_constraint(tuple(zip(cols, row)), ">=", rhs, f"r{r}")
    m.set_objective(tuple(zip(cols, draw(st.lists(coef, min_size=5, max_size=5)))))
    return m.validate()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tiny_mips(), st.sampled_from([1e-4, 0.5, 1.0, 2.0, 3.0]))
def test_optimal_means_the_reported_gap_is_within_tolerance(model, gap_tol):
    res = solve(model, config=BncConfig(gap_tol=gap_tol))
    ref = milp_minimum(model)
    if res.status == "infeasible":
        assert ref == math.inf
        return
    assert res.status == "optimal"
    assert res.gap_pct <= 100.0 * gap_tol
    assert res.bound <= res.objective
    # HiGHS holds rows to about 1e-6, hence the 1e-5 slack on its optimum
    assert res.bound <= ref + 1e-5
    if gap_tol <= 1e-4:
        assert ref - 1e-5 <= res.objective <= ref + gap_tol * abs(res.bound) + 1e-5


def test_max_sense_gaps_are_nonnegative():
    # Radius maximization is solved as min -theta, so both bounds are negative.
    res = solve(build_theta_variant(small_transport(seed=11)[1]))
    assert res.status == "optimal"
    assert res.root_gap_pct >= 0.0
    assert res.gap_pct >= 0.0


# -- agreement with the enumeration oracle -----------------------------------

@pytest.mark.parametrize("seed", [40, 43, 47, 52, 58, 63])
def test_matches_enumeration(seed):
    inst = box_instance(seed)
    ref = oracles.enumerate_optimal(inst)
    assert ref is not None
    for kind in ("basic", "compact"):
        res = solve(build_formulation(inst, kind))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.objective, abs=1e-7)


@pytest.mark.parametrize("selection", bnc.NODE_SELECTIONS)
def test_node_selections_agree(selection):
    inst = box_instance(45)
    ref = oracles.enumerate_optimal(inst)
    res = solve(build_formulation(inst, "compact"), config=BncConfig(node_selection=selection))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.objective, abs=1e-7)


# -- the branching rule -------------------------------------------------------

def cover_model(count):
    """min the sum of `count` binaries with that sum >= 1: a search whose
    candidates the branching tests score."""
    m = MipModel()
    zs = [m.add_var(f"z{j}", BINARY, block="z") for j in range(count)]
    m.add_constraint(tuple((z, 1.0) for z in zs), ">=", 1.0, "cover")
    m.set_objective(tuple((z, 1.0) for z in zs))
    return m.validate()


def search_with_pseudo_costs(observations):
    """A search over one binary per entry of `observations`, each entry
    ((down count, down gain), (up count, up gain)) with the gain per
    observation, held as the search holds it: a sum and a count."""
    search = bnc._Search(cover_model(len(observations)), (), BncConfig())
    for j, per_direction in enumerate(observations):
        for direction, (count, gain) in enumerate(per_direction):
            search.pc_cnt[direction, j] = count
            search.pc_sum[direction, j] = count * gain
    return search


def pick(search, values):
    return search._pick_branch_var(np.asarray(values, dtype=float))


def fractional(search, values):
    """(position in `binaries`, distance to the nearest integer) of each
    fractional binary, by ascending position."""
    v = values[search.binaries]
    dist = np.abs(v - np.round(v))
    return [(pos, d) for pos, d in enumerate(dist.tolist()) if d > INT_TOL]


def reference_pick(search, values):
    """The branching pick as a per-binary loop: among the fractional
    binaries with RELIABLE observations each way, the strictly largest
    product of gains first; with none, the largest distance, the lowest
    position on ties; None with no fractional binary."""
    candidates = fractional(search, values)
    if not candidates:
        return None
    best, best_score = None, -1.0
    for pos, _ in candidates:
        cnt = search.pc_cnt[:, pos]
        if cnt.min() < bnc.RELIABLE:
            continue
        down, up = search.pc_sum[:, pos] / cnt
        frac = values[search.binaries[pos]]
        score = max(up * (1.0 - frac), 1e-9) * max(down * frac, 1e-9)
        if score > best_score:
            best, best_score = pos, score
    if best is None:
        return max(candidates, key=lambda pd: (pd[1], -pd[0]))[0]
    return best


@pytest.mark.parametrize("values, expected", [
    ([0.3, 0.5, 0.9, 0.5], 1),  # the most fractional, the lower index of a tie
    ([0.6, 0.2, 0.4, 0.0], 0),  # 0.6 and 0.4 both lie 0.4 from an integer
    ([0.7, 0.1, 0.95, 0.0], 0),
])
def test_with_no_reliable_candidate_the_pick_is_the_most_fractional(values, expected):
    # every binary is one observation short in some direction, and its
    # gains, 10**j each way, would pick the highest fractional index if
    # they were scored
    short, plenty = bnc.RELIABLE - 1, bnc.RELIABLE + 3
    search = search_with_pseudo_costs([((short, 1.0), (plenty, 1.0)),
                                       ((plenty, 10.0), (short, 10.0)),
                                       ((short, 100.0), (short, 100.0)),
                                       ((plenty, 1e3), (short, 1e3))])
    assert pick(search, values) == expected
    candidates = fractional(search, np.asarray(values))
    assert expected == max(candidates, key=lambda pd: (pd[1], -pd[0]))[0]
    assert reference_pick(search, np.asarray(values)) == expected


def test_a_reliable_candidate_beats_more_fractional_unreliable_ones():
    assert bnc.RELIABLE == 2
    values = [0.1, 0.5, 0.4]
    # binary 0 has 2 observations each way and tiny gains; binary 1, the
    # most fractional, has 1 each way and binary 2 has 1 up, both with
    # gains that would outscore binary 0's
    search = search_with_pseudo_costs([((2, 1e-3), (2, 1e-3)),
                                       ((1, 1e3), (1, 1e3)),
                                       ((5, 1e6), (1, 1e6))])
    assert pick(search, values) == 0
    search.pc_cnt[1, 0] = 1  # binary 0 one short up: no candidate is reliable
    assert pick(search, values) == 1


def test_reliable_candidates_are_scored_by_the_product_of_their_gains():
    # down gain times f, up gain times 1 - f, each at least 1e-9:
    # 0.25, 0.63 and 16 here, so the least fractional binary wins
    search = search_with_pseudo_costs([((2, 1.0), (2, 1.0)),
                                       ((2, 3.0), (2, 1.0)),
                                       ((2, 10.0), (2, 10.0))])
    assert pick(search, [0.5, 0.3, 0.2]) == 2
    # equal products: the first binary
    search = search_with_pseudo_costs([((3, 2.0), (2, 1.0))] * 2 + [((2, 1.0), (2, 1.0))])
    assert pick(search, [0.4, 0.4, 0.5]) == 0
    # a zero gain scores 1e-9 on its side, not 0: binary 1's 1e-9 * 0.8
    # beats binary 0's 1e-9 * 1e-9
    search = search_with_pseudo_costs([((2, 0.0), (2, 0.0)), ((2, 0.0), (2, 1.0))])
    assert pick(search, [0.5, 0.2]) == 1


def test_with_no_fractional_binary_there_is_no_pick():
    search = search_with_pseudo_costs([((2, 1.0), (2, 1.0))] * 3)
    assert pick(search, [0.0, 1.0, INT_TOL]) is None
    assert pick(search, [1.0 - INT_TOL / 2, 0.0, 1.0]) is None


# values that tie on distance or score, sit at INT_TOL from an integer or at a half
_PICK_VALUES = st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.75, 0.3, 0.7, INT_TOL, 1.0 - INT_TOL,
                                2.0 * INT_TOL, 1.0 - 2.0 * INT_TOL]) | st.floats(0.0, 1.0)
_PICK_GAINS = st.sampled_from([0.0, 1e-12, 0.5, 1.0, 2.0]) | st.floats(0.0, 1e3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_PICK_VALUES, st.integers(0, 4), st.integers(0, 4),
                          _PICK_GAINS, _PICK_GAINS), min_size=1, max_size=8))
def test_the_pick_matches_the_per_binary_loop(binaries):
    search = search_with_pseudo_costs([((down_n, down), (up_n, up))
                                       for _, down_n, up_n, down, up in binaries])
    values = np.array([v for v, *_ in binaries])
    assert search._pick_branch_var(values) == reference_pick(search, values)


def test_refix_resets_only_the_entries_that_differ(monkeypatch):
    # z0 and z2 are free binaries; z1 is a binary the model fixes at 1
    m = MipModel()
    zs = [m.add_var("z0", BINARY, block="z"), m.add_var("z1", BINARY, lb=1.0, block="z"),
          m.add_var("z2", BINARY, block="z")]
    m.add_constraint(tuple((z, 1.0) for z in zs), ">=", 1.0, "cover")
    m.set_objective(tuple((z, 1.0) for z in zs))
    model = m.validate()
    solver = SimplexSolver(bnc.model_to_lp(model)[0])
    calls = []
    inner = SimplexSolver.set_bound

    def set_bound(self, j, lb, ub):
        calls.append(j)
        return inner(self, j, lb, ub)

    monkeypatch.setattr(SimplexSolver, "set_bound", set_bound)
    cols = np.asarray(zs)

    def move(held, fixed):
        calls.clear()
        bnc.refix(solver, model, cols, np.array(fixed, dtype=np.int8),
                  np.array(held, dtype=np.int8))
        return sorted(calls), list(zip(solver.lb[:3].tolist(), solver.ub[:3].tolist()))

    assert move([-1, -1, -1], [-1, -1, -1]) == ([], [(0.0, 1.0), (1.0, 1.0), (0.0, 1.0)])
    assert move([-1, -1, -1], [0, -1, 1]) == ([0, 2], [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)])
    assert move([0, -1, 1], [0, 0, -1]) == ([1, 2], [(0.0, 0.0), (0.0, 0.0), (0.0, 1.0)])
    assert move([0, 0, -1], [0, 0, -1]) == ([], [(0.0, 0.0), (0.0, 0.0), (0.0, 1.0)])
    # -1 restores the model's own bounds: z1 back at 1, not at [0, 1]
    assert move([0, 0, -1], [-1, -1, -1]) == ([0, 1], [(0.0, 1.0), (1.0, 1.0), (0.0, 1.0)])


def test_a_cutoff_node_records_its_bound_as_an_observation(monkeypatch):
    search = bnc._Search(fractional_toy(), (), BncConfig(log_events=True))
    search._visit(search.root)  # b = 0.5 at the root: two children on b
    child = search._next_node()
    pos, frac, parent_obj = child.branch
    direction = child.fixed[pos]
    assert (search.binaries[pos], frac) == (1, 0.5) and search.pc_cnt.sum() == 0
    stopped = LpSolution(status="cutoff", objective=parent_obj + 2.0, iterations=1)
    monkeypatch.setattr(search.solver, "solve_or_restart", lambda cutoff=math.inf: stopped)
    search._visit(child)
    assert search.events[-1].endswith("action=cutoff")
    assert search.pc_cnt[direction, pos] == 1 and search.pc_cnt.sum() == 1
    assert search.pc_sum[direction, pos] == pytest.approx(2.0 / 0.5)


def test_the_rule_scores_reliable_binaries_and_reaches_the_optimum(monkeypatch):
    # a tree that branches both ways: on the most fractional binary while
    # no candidate is reliable, then by pseudo-costs (107 nodes, 23 of 58
    # picks with a reliable candidate)
    _, inst = small_transport(seed=7, n=20, epsilon=0.15, theta=0.02)
    ref = oracles.enumerate_optimal(inst)
    reliable_seen = []
    inner = bnc._Search._pick_branch_var

    def spy(self, values):
        candidates = fractional(self, values)
        if candidates:
            reliable_seen.append(any(self.pc_cnt[:, pos].min() >= bnc.RELIABLE
                                     for pos, _ in candidates))
        return inner(self, values)

    monkeypatch.setattr(bnc._Search, "_pick_branch_var", spy)
    res = solve(build_formulation(inst, "basic"))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.objective, abs=1e-7)
    assert True in reliable_seen and False in reliable_seen


def test_cuts_do_not_change_the_optimum():
    inst = box_instance(48, n=12)
    ref = oracles.enumerate_optimal(inst)
    seps = [MixingSeparator(inst), PathSeparator(inst)]
    plain = solve(build_basic(inst))
    with_cuts = solve(build_basic(inst), separators=seps)
    for res in (plain, with_cuts):
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.objective, abs=1e-7)
    assert sum(with_cuts.cuts.values()) >= 0  # counts are per family
    assert set(with_cuts.cuts) <= {"mixing", "path"}


def test_separators_on_a_model_without_t_are_rejected_before_any_lp(monkeypatch):
    # saa has no r or t block, and its discard count is floor(eps N), not the
    # separators' ceil(eps N) - 1: cuts would remove cheaper feasible points
    tp, inst = small_transport(seed=2, n=20, epsilon=0.1, theta=0.01)
    model = build_formulation(inst, "saa")
    assert not model.block_indices("t")
    monkeypatch.setattr(SimplexSolver, "__init__", lambda *a: pytest.fail("an LP was built"))
    for seps in ([MixingSeparator(inst)], [PathSeparator(inst)]):
        with pytest.raises(ValueError, match="threshold variable t"):
            solve(model, separators=seps)


def test_root_cuts_tighten_the_root_bound():
    # minimization: the cut loop can only raise the root relaxation value
    inst = box_instance(49, n=12)
    seps = [MixingSeparator(inst), PathSeparator(inst)]
    plain = solve(build_basic(inst))
    with_cuts = solve(build_basic(inst), separators=seps)
    assert with_cuts.root_bound >= plain.root_bound - 1e-9


@st.composite
def limited_searches(draw):
    """A small transport cell at a drawn radius, a model (compact with both
    cut families too) and a search cut short by a drawn node limit, under a
    drawn node selection."""
    _, inst = small_transport(seed=draw(st.integers(0, 10**6)), centers=draw(st.integers(2, 3)),
                              n=draw(st.sampled_from([15, 20, 30])),
                              epsilon=draw(st.sampled_from([0.1, 0.15, 0.2])),
                              theta=draw(st.sampled_from([0.005, 0.02, 0.05])))
    kind, with_cuts = draw(st.sampled_from([("basic", False), ("compact", False),
                                            ("compact", True)]))
    seps = [MixingSeparator(inst), PathSeparator(inst)] if with_cuts else []
    limit = draw(st.sampled_from([1, 3, 10, 30, 100, 300])) + draw(st.integers(0, 9))
    config = BncConfig(node_limit=limit,
                       node_selection=draw(st.sampled_from(bnc.NODE_SELECTIONS)))
    return inst, build_formulation(inst, kind), seps, config


@settings(max_examples=100, deadline=None, derandomize=True)
@given(limited_searches())
def test_every_incumbent_passes_both_certificates(drawn):
    # a node limit stops the search at whatever incumbent it holds then, so
    # the drawn limits reach incumbents found early as well as final ones
    inst, model, seps, config = drawn
    res = solve(model, seps, config)
    assert (res.x is None) == (res.status in ("no-incumbent", "infeasible"))
    if res.x is not None:
        dist = distance_profile(inst, res.x)
        assert oracles.lemma_certificate(dist, inst.epsilon, inst.theta).feasible
        assert oracles.worst_case_prob(dist, inst.theta) <= inst.epsilon + 1e-7


# -- determinism and the event log -------------------------------------------

def test_identical_runs_are_identical():
    inst = box_instance(44)
    cfg = BncConfig(log_events=True)
    a = solve(build_formulation(inst, "compact"), config=cfg)
    b = solve(build_formulation(inst, "compact"), config=cfg)
    assert a.objective == b.objective
    assert a.nodes == b.nodes
    assert a.iterations == b.iterations
    assert a.events == b.events


EVENT_RE = re.compile(
    r"^node=(\d+) lb=(-?[\d.e+inf]+) ub=(-?[\d.e+inf]+|inf) depth=(\d+) "
    r"action=(start|cut|incumbent|fathom|cutoff|branch)$"
)


def test_event_log_shape():
    # on the box instances the seed is already optimal; this tree improves it
    inst = small_transport(seed=7)[1]
    res = solve(build_formulation(inst, "compact"), config=BncConfig(log_events=True))
    assert any("action=branch" in e for e in res.events)  # a fractional root
    for line in res.events:
        assert EVENT_RE.match(line), line
    assert res.events[0].endswith("action=start")
    # the incumbent trail, from the seed on, is strictly improving for a
    # minimization model
    incumbents = [
        float(EVENT_RE.match(e).group(2))
        for e in res.events if re.search("action=(start|incumbent)$", e)
    ]
    assert incumbents == sorted(incumbents, reverse=True)
    assert len(set(incumbents)) == len(incumbents) > 1, "expected an incumbent after the seed"
    assert res.objective == pytest.approx(min(incumbents), rel=1e-9)  # 10 digits


def test_events_off_by_default():
    res = solve(build_formulation(box_instance(50), "compact"))
    assert res.events == []


# -- stall containment -------------------------------------------------------

def _flaky_solve(fail_calls):
    """A SimplexSolver.solve stand-in that stalls on selected call numbers."""
    inner = SimplexSolver.solve
    seen = {"calls": 0}

    def solve_method(self, cutoff=math.inf):
        seen["calls"] += 1
        if seen["calls"] in fail_calls:
            raise SimplexStall("synthetic stall for testing")
        return inner(self, cutoff)

    return solve_method, seen


def test_stall_retries_with_a_cold_basis(monkeypatch):
    # one stall mid-tree (LP call 1 is the seed, 2 the root): the cold
    # restart hides it and the solve finishes
    method, seen = _flaky_solve({3})
    monkeypatch.setattr(SimplexSolver, "solve", method)
    res = solve(fractional_toy())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0, abs=1e-9)
    assert seen["calls"] >= 4  # seed, root, the stall, and its retry


def test_repeated_stall_is_contained(monkeypatch):
    # both the warm solve and the cold retry stall (LP calls 3 and 4, after
    # the infeasible seed and the root): the search must stop with a
    # diagnostic event instead of raising
    method, seen = _flaky_solve({3, 4})
    monkeypatch.setattr(SimplexSolver, "solve", method)
    res = solve(covered_toy())
    assert res.status == "no-incumbent"
    assert any("action=stall" in e for e in res.events)


def test_a_seed_that_stalls_is_skipped(monkeypatch):
    # the seed's solve and its cold retry both stall: the search goes on
    # without a first incumbent, from a cold root, and ends as unseeded
    method, seen = _flaky_solve({1, 2})
    monkeypatch.setattr(SimplexSolver, "solve", method)
    res = solve(fractional_toy(), config=BncConfig(log_events=True))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0, abs=1e-9)
    assert res.root_bound == pytest.approx(10.5, abs=1e-9)
    assert not any(re.search("action=(start|stall)", e) for e in res.events)
    assert seen["calls"] > 3


def test_root_stall_is_contained(monkeypatch):
    # the root's solve and its cold retry (LP calls 2 and 3, after the
    # infeasible seed) both stall: no bound, no incumbent, and a diagnostic
    # event instead of an exception
    method, _ = _flaky_solve({2, 3})
    monkeypatch.setattr(SimplexSolver, "solve", method)
    res = solve(covered_toy())
    assert res.status == "no-incumbent"
    assert res.objective is None and res.bound is None and res.gap_pct is None
    assert res.nodes == 1
    assert any(e.startswith("node=0 ") and "action=stall" in e for e in res.events)


def test_stall_after_an_incumbent_reports_a_gap(monkeypatch):
    # after the seed (LP call 1, objective 0), nodes 0-3 find the incumbent
    # 8 and fathom one leaf (LP calls 2-5); node 4, the last open node
    # (parent bound 9), stalls warm and cold.  That is no time limit, and
    # the stalled node's bound keeps the gap open.
    method, _ = _flaky_solve({6, 7})
    monkeypatch.setattr(SimplexSolver, "solve", method)
    res = solve(fractional_toy())
    assert res.status == "feasible-gap"
    assert res.objective == pytest.approx(8.0, abs=1e-9)
    assert res.bound == pytest.approx(9.0, abs=1e-9)
    assert res.gap_pct > 0.0
    assert any(e.startswith("node=4 ") and "action=stall" in e for e in res.events)


def _stall_after_cuts(monkeypatch, nth):
    """Make the re-solve after the `nth` root separation that adds cuts
    stall warm and cold.  Returns a dict that counts those separations
    ("rounds") and the stalls still to raise ("stalls_left")."""
    seen = {"rounds": 0, "stalls_left": 0}
    inner_sep = bnc._Search._separate_once
    inner_solve = SimplexSolver.solve

    def separate(self, values):
        found = inner_sep(self, values)
        if found:
            seen["rounds"] += 1
            if seen["rounds"] == nth:
                seen["stalls_left"] = 2
        return found

    def solve_method(self, cutoff=math.inf):
        if seen["stalls_left"]:
            seen["stalls_left"] -= 1
            raise SimplexStall("synthetic stall for testing")
        return inner_solve(self, cutoff)

    monkeypatch.setattr(bnc._Search, "_separate_once", separate)
    monkeypatch.setattr(SimplexSolver, "solve", solve_method)
    return seen


def _record_search(monkeypatch):
    """Returns a dict whose "search" entry becomes the _Search that runs."""
    seen = {"search": None}
    inner_run = bnc._Search.run

    def run(self):
        seen["search"] = self
        return inner_run(self)

    monkeypatch.setattr(bnc._Search, "run", run)
    return seen


def test_stall_in_the_root_cut_loop_keeps_the_root_bound(monkeypatch):
    # the re-solve after the second round of root cuts stalls: the value
    # after the first round is still a valid bound and must be reported
    # each root round raises the bound; eps*N = 3.06 leaves 3 discards
    inst = box_instance(47, n=12, epsilon=0.255)
    with monkeypatch.context() as patch:
        patch.setattr(bnc, "ROOT_CUT_ROUNDS", 1)
        one_round = solve(build_basic(inst), separators=[MixingSeparator(inst)])
    seen = _stall_after_cuts(monkeypatch, nth=2)
    res = solve(build_basic(inst), separators=[MixingSeparator(inst)])
    assert seen["rounds"] == 2 and seen["stalls_left"] == 0
    # the seed is the only incumbent, and the gap is measured to that bound
    assert res.status == "feasible-gap" and res.nodes == 1
    assert res.objective == cvar_solution(build_basic(inst)).objective
    assert res.root_bound == one_round.root_bound > 0.0  # the uncut value is 0
    assert res.bound == one_round.root_bound
    assert res.gap_pct == compute_gap(res.objective, res.bound) > 0.0
    assert any(e.startswith("node=0 ") and "action=stall" in e for e in res.events)


@pytest.mark.parametrize("node_limit", [None, 4])
def test_search_ends_at_the_model_bounds_plus_the_applied_overrides(monkeypatch, node_limit):
    # nodes re-set only the bounds that differ from the last node's, so
    # when the search ends (also at a limit) the solver holds the model's
    # bounds, except on the binaries the last node fixes
    inst = box_instance(5, n=12)
    seen = _record_search(monkeypatch)
    model = build_basic(inst)
    res = solve(model, config=BncConfig(node_limit=node_limit, node_selection="depth-first"))
    assert res.nodes > 2
    if node_limit is None:
        assert res.status == "optimal"
    else:
        assert res.status in ("feasible-gap", "no-incumbent") and res.nodes == node_limit
    search = seen["search"]
    fixed = search.applied >= 0
    assert fixed.any()
    lb, ub = model.lb.copy(), model.ub.copy()
    cols = search.binaries[fixed]
    lb[cols] = ub[cols] = search.applied[fixed]
    n = model.num_vars
    assert np.array_equal(search.solver.lb[:n], lb)
    assert np.array_equal(search.solver.ub[:n], ub)


# -- the incumbent cutoff of warm node re-solves -----------------------------

def _lp_now(solver):
    """The solver's LP as it stands (cut rows, current bounds), for a cold solve."""
    n = solver.n
    senses = ["<=" if hi == math.inf else ">=" if lo == -math.inf else "=="
              for lo, hi in zip(solver.lb[n:], solver.ub[n:])]
    return LpProblem(c=solver.c, A=solver.A.copy(), senses=senses, b=solver.b.copy(),
                     lb=solver.lb[:n].copy(), ub=solver.ub[:n].copy())


def _search_with_cutoff(monkeypatch, model, seps, cfg, patched_out):
    """Solve, recording the cutoff of each LP of the root, and for each LP
    stopped at the cutoff its LP, cutoff and reached bound.  `patched_out`
    passes no cutoff to any LP."""
    seen = {"root": [], "stopped": []}
    inner = bnc._Search._solve_lp

    def solve_lp(self, cutoff=math.inf):
        if self.nodes_done == 1:
            seen["root"].append(cutoff)
        sol = inner(self, math.inf if patched_out else cutoff)
        if sol.status == "cutoff":
            seen["stopped"].append((_lp_now(self.solver), cutoff, sol.objective))
        return sol

    monkeypatch.setattr(bnc._Search, "_solve_lp", solve_lp)
    return solve(model, seps, cfg), seen


def _bits(value):
    return None if value is None else float(value).hex()


@pytest.mark.parametrize("name", ["box50", "box47", "transport"])
def test_the_cutoff_keeps_every_search(monkeypatch, name):
    # the search-golden configurations
    inst = {"box50": lambda: box_instance(50), "box47": lambda: box_instance(47, n=12),
            "transport": lambda: small_transport(seed=7, factories=2, centers=3, n=20,
                                                 epsilon=0.1, theta=0.01)[1]}[name]()
    stopped = 0
    for kind, with_cuts, selection in itertools.product(
            ("basic", "compact"), (False, True), bnc.NODE_SELECTIONS):
        model = build_formulation(inst, kind)
        cfg = BncConfig(node_selection=selection, log_events=True)
        runs = []
        for patched_out in (False, True):
            seps = [MixingSeparator(inst), PathSeparator(inst)] if with_cuts else []
            with monkeypatch.context() as patch:
                runs.append(_search_with_cutoff(patch, model, seps, cfg, patched_out))
        (res, seen), (ref, _) = runs
        assert (res.status, res.nodes) == (ref.status, ref.nodes)
        for field in ("objective", "bound", "root_bound"):
            assert _bits(getattr(res, field)) == _bits(getattr(ref, field)), field
        assert seen["root"] and all(c == math.inf for c in seen["root"])
        for lp, cutoff, bound in seen["stopped"]:
            assert math.isfinite(cutoff) and bound >= cutoff
            cold = SimplexSolver(lp).solve()
            assert cold.status == "infeasible" or (
                cold.status == "optimal" and cold.objective >= cutoff - 1e-9)
        events = [EVENT_RE.match(e) for e in res.events if "action=cutoff" in e]
        assert len(events) == len(seen["stopped"])
        assert all(float(e.group(2)) >= float(e.group(3)) for e in events)  # lb reached ub
        stopped += len(events)
    assert stopped > 0


# -- start points ------------------------------------------------------------

def start_toy():
    """min b + x, b binary, x in [0, 4], x + 2b >= 1.5 (row "cover"),
    x - b <= 3 (row "cap"), x + b == 1 + b (row "pin", so x == 1)."""
    m = MipModel()
    b = m.add_var("b", BINARY, block="z")
    x = m.add_var("x", CONTINUOUS, lb=0.0, ub=4.0, block="x")
    m.add_constraint(((x, 1.0), (b, 2.0)), ">=", 1.5, "cover")
    m.add_constraint(((x, 1.0), (b, -1.0)), "<=", 3.0, "cap")
    m.add_constraint(((x, 1.0),), "==", 1.0, "pin")
    m.set_objective(((b, 1.0), (x, 1.0)))
    return m.validate()


@pytest.mark.parametrize("start, message", [
    ([1.0], r"start has shape \(1,\), the model has 2 variables"),
    ([[1.0, 1.0]], r"start has shape \(1, 2\)"),
    ([1.0, math.nan], r"start: variable x = nan is not finite"),
    ([math.inf, 1.0], r"start: variable b = inf is not finite"),
    ([1.0, 4.5], r"start: variable x = 4.5 lies outside its bounds \(bounds \[0.0, 4.0\]\)"),
    ([-1e-6, 1.0], r"start: variable b = -1e-06 lies outside its bounds"),
    ([0.5, 1.0], r"start: variable b = 0.5 is not 0 or 1"),
    ([0.0, 1.0], r"start: row 0 \(cover\) has activity 1, missing >= 1.5 by 0.5"),
    ([0.0, 4.0], r"start: row 1 \(cap\) has activity 4, missing <= 3 by 1"),
    ([1.0, 1.0 + 2e-7], r"start: row 2 \(pin\) has activity 1.0000002, missing == 1 by 2e-07"),
])
def test_a_bad_start_is_rejected_before_any_lp(monkeypatch, start, message):
    model = start_toy()
    monkeypatch.setattr(SimplexSolver, "__init__", lambda *a: pytest.fail("an LP was built"))
    with pytest.raises(ValueError, match="^" + message):
        solve(model, start=start)


def test_a_start_within_the_tolerances_is_accepted():
    # FEAS_TOL on bounds and rows (times |rhs| when it exceeds 1), INT_TOL on
    # binaries; this start is the optimum b = 1, x = 1 up to those slips
    res = solve(start_toy(), start=[1.0 - 5e-7, 1.0 + 5e-8])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0 - 5e-7 + 5e-8, abs=1e-12)
    assert solve(start_toy()).objective == pytest.approx(2.0, abs=1e-9)


def test_an_optimal_start_ends_optimal_in_no_more_nodes():
    plain = solve(fractional_toy())
    seeded = solve(fractional_toy(), start=[1.0, 0.0])
    assert seeded.status == "optimal"
    assert seeded.objective == 8.0 and seeded.bound == pytest.approx(8.0, abs=1e-9)
    assert seeded.nodes <= plain.nodes
    assert seeded.values.tolist() == [1.0, 0.0]
    for seed in (40, 41, 42):
        model = build_formulation(box_instance(seed), "compact")
        plain = solve(model)
        seeded = solve(model, start=plain.values)
        assert seeded.status == "optimal"
        assert seeded.objective == pytest.approx(plain.objective, abs=1e-9)
        assert seeded.nodes <= plain.nodes


def test_a_worse_start_is_replaced():
    # b alone is feasible (1 <= 1.5) and worth 5 against the optimum 8
    res = solve(fractional_toy(), start=[0.0, 1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0, abs=1e-9)
    assert res.values == pytest.approx([1.0, 0.0], abs=1e-9)
    # the seed, a = b = 0 at objective 0, is replaced the same way
    res = solve(fractional_toy(), config=BncConfig(log_events=True))
    assert res.events[0] == "node=0 lb=-0 ub=-0 depth=0 action=start"
    assert res.status == "optimal" and res.values == pytest.approx([1.0, 0.0], abs=1e-9)


@pytest.mark.parametrize("kind", ["basic", "compact"])
def test_with_no_start_the_search_seeds_itself_with_the_cvar_plan(kind):
    # the seed is the LP with every z at 0, as a fresh solver solves it: the
    # same first incumbent and the same tree as that point given as a start,
    # which solves no seed, so it takes exactly the seed's LP iterations fewer
    cfg = BncConfig(log_events=True)
    for seed in (40, 41, 42):
        model = build_formulation(box_instance(seed), kind)
        cvar = cvar_solution(model)
        assert cvar.status == "optimal"
        plain, given = solve(model, config=cfg), solve(model, config=cfg, start=cvar.x)
        assert plain.events[0] == (f"node=0 lb={cvar.objective:.10g} ub={cvar.objective:.10g} "
                                   "depth=0 action=start")
        assert plain.events == given.events
        assert plain.status == given.status == "optimal" and plain.nodes == given.nodes
        assert plain.iterations == given.iterations + cvar.iterations
        assert plain.objective <= cvar.objective + 1e-9
    # a model whose zero-binary LP is infeasible logs no start
    res = solve(covered_toy(), config=cfg)
    assert res.status == "optimal" and res.objective == pytest.approx(8.0, abs=1e-9)
    assert not any("action=start" in e for e in res.events)


def test_a_model_with_no_binaries_solves_its_lp_once():
    # at N = 10 and epsilon = 0.1 `compact` keeps no discard indicator
    # (k' = 0): the seed's LP is the root's, and the root takes its solution,
    # with the same two log lines as when it solved that LP again
    model = build_formulation(small_transport(seed=7, n=10, epsilon=0.1)[1], "compact")
    assert not model.binary.any()
    cold = SimplexSolver(bnc.model_to_lp(model)[0]).solve()
    res = solve(model, config=BncConfig(log_events=True))
    assert (res.status, res.nodes, res.objective) == ("optimal", 1, cold.objective)
    assert res.iterations == cold.iterations
    assert res.events == ["node=0 lb=133.2246047 ub=133.2246047 depth=0 action=start",
                          "node=0 lb=133.2246047 ub=133.2246047 depth=0 action=fathom"]


def test_the_start_is_logged():
    res = solve(fractional_toy(), config=BncConfig(log_events=True), start=[0.0, 1.0])
    starts = [e for e in res.events if "action=start" in e]
    assert starts == ["node=0 lb=-5 ub=-5 depth=0 action=start"]
    assert res.events[0] == starts[0]
    assert solve(fractional_toy(), start=[0.0, 1.0]).events == []


# -- config validation -------------------------------------------------------

def test_rejects_unknown_node_selection():
    with pytest.raises(ValueError, match="node selection"):
        BncConfig(node_selection="random")


def test_rejects_the_deleted_dive_selection():
    assert bnc.NODE_SELECTIONS == ("best-bound", "depth-first")
    with pytest.raises(ValueError, match="unknown node selection 'dive-best-bound'"):
        BncConfig(node_selection="dive-best-bound")


def test_branching_is_no_option():
    # one rule serves every model
    assert not hasattr(bnc, "BRANCHING_RULES")
    with pytest.raises(TypeError, match="branching"):
        BncConfig(branching="pseudo-cost")


@pytest.mark.parametrize("field, value", [
    ("node_limit", -1), ("time_limit", -0.5),
    ("gap_tol", -1e-4), ("gap_tol", math.nan), ("time_limit", math.nan),
    ("gap_tol", None), ("gap_tol", "0.01"), ("gap_tol", True),
    ("node_limit", "100"), ("node_limit", 1.5), ("node_limit", True),
])
def test_rejects_invalid_limits(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a nonnegative number"):
        BncConfig(**{field: value})


def test_accepts_zero_limits():
    res = solve(covered_toy(), config=BncConfig(
        gap_tol=0.0, node_limit=0, time_limit=0.0))
    assert res.status == "no-incumbent" and res.nodes == 1


# -- chance-constrained specifics --------------------------------------------

def test_line_instance_end_to_end():
    # x in [0, 10], x > xi must hold except for eps of the mass.  With
    # eps*N integral, fully discarding the worst sample leaves no budget
    # slack (0.25t - t/4 = 0 < theta), so x must cover all four samples
    # and pay theta/eps on top: 4 + 0.001/0.25 = 4.004.
    inst = line_instance([1.0, 2.0, 3.0, 4.0], epsilon=0.25, theta=1e-3)
    ref = oracles.enumerate_optimal(inst)
    assert ref.objective == pytest.approx(4.004, abs=1e-9)
    assert ref.support == ()
    res = solve(build_formulation(inst, "compact"))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.objective, abs=1e-7)
