"""Branch-and-cut solver tests.

Ground truth comes from hand-solvable toy MIPs and from the support
enumeration oracle; the solver under test never grades itself.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import box_instance, line_instance, milp_minimum, small_transport
from drccp import bnc, oracles
from drccp.bnc import BncConfig, compute_gap, solve
from drccp.cuts import MixingSeparator, PathSeparator
from drccp.formulations import build_basic, build_formulation, build_theta_variant
from drccp.model import BINARY, CONTINUOUS, MipModel
from drccp.simplex import SimplexSolver, SimplexStall


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
    res = solve(fractional_toy(), config=BncConfig(node_limit=1))
    assert res.status == "no-incumbent"
    assert res.objective is None
    assert res.nodes == 1
    # the root bound is still a valid relaxation bound
    assert res.root_bound == pytest.approx(10.5, abs=1e-9)


def test_time_limit_zero_stops_after_root():
    res = solve(fractional_toy(), config=BncConfig(time_limit=0.0))
    assert res.status == "no-incumbent"
    assert res.objective is None


def test_gap_tolerance_allows_early_stop():
    # a loose tolerance accepts the first incumbent of the dive
    res = solve(
        build_formulation(box_instance(41), "compact"),
        config=BncConfig(gap_tol=0.5, node_selection="dive-best-bound"),
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


def test_dive_episode_flushes_at_its_cap():
    # an episode that reaches its node cap with dive nodes left pushes them
    # back onto the best-bound heap, and the search still proves the optimum
    # (eps*N = 3.06 is not an integer, so the model may discard 3 samples)
    model = build_formulation(box_instance(48, n=12, epsilon=0.255), "compact")
    expected = solve(model)
    search = bnc._Search(model, (), BncConfig(node_selection="dive-best-bound"))
    search.episode_cap = 2
    flushed = []
    next_node = search._next_node

    def spy():
        if search.dive_stack and search.episode_nodes >= search.episode_cap:
            flushed.append(len(search.dive_stack))
            node = next_node()
            assert not search.dive_stack  # the nodes went to the heap
            return node
        return next_node()

    search._next_node = spy
    res = search.run()
    assert flushed
    assert res.status == expected.status == "optimal"
    assert res.objective == pytest.approx(expected.objective, abs=1e-9)


@pytest.mark.parametrize("rule", bnc.BRANCHING_RULES)
def test_branching_rules_agree(rule):
    inst = box_instance(46)
    ref = oracles.enumerate_optimal(inst)
    res = solve(build_formulation(inst, "compact"), config=BncConfig(branching=rule))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.objective, abs=1e-7)


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


def test_root_cuts_tighten_the_root_bound():
    # minimization: the cut loop can only raise the root relaxation value
    inst = box_instance(49, n=12)
    seps = [MixingSeparator(inst), PathSeparator(inst)]
    plain = solve(build_basic(inst))
    with_cuts = solve(build_basic(inst), separators=seps)
    assert with_cuts.root_bound >= plain.root_bound - 1e-9


# -- determinism and the event log -------------------------------------------

def test_identical_runs_are_identical():
    inst = box_instance(44)
    cfg = BncConfig(log_events=True, branching="pseudo-cost")
    a = solve(build_formulation(inst, "compact"), config=cfg)
    b = solve(build_formulation(inst, "compact"), config=cfg)
    assert a.objective == b.objective
    assert a.nodes == b.nodes
    assert a.iterations == b.iterations
    assert a.events == b.events


EVENT_RE = re.compile(
    r"^node=(\d+) lb=(-?[\d.e+inf]+) ub=(-?[\d.e+inf]+|inf) depth=(\d+) "
    r"action=(cut|incumbent|fathom|branch)$"
)


def test_event_log_shape():
    res = solve(build_formulation(box_instance(50), "compact"), config=BncConfig(log_events=True))
    assert res.events  # a fractional root must branch at least once
    for line in res.events:
        assert EVENT_RE.match(line), line
    # the incumbent trail is strictly improving for a minimization model
    incumbents = [
        float(EVENT_RE.match(e).group(2))
        for e in res.events if "action=incumbent" in e
    ]
    assert incumbents == sorted(incumbents, reverse=True)
    assert incumbents, "expected at least one incumbent event"
    assert res.objective == pytest.approx(min(incumbents), abs=1e-9)


def test_events_off_by_default():
    res = solve(build_formulation(box_instance(50), "compact"))
    assert res.events == []


# -- stall containment -------------------------------------------------------

def _flaky_solve(fail_calls):
    """A SimplexSolver.solve stand-in that stalls on selected call numbers."""
    inner = SimplexSolver.solve
    seen = {"calls": 0}

    def solve_method(self, max_iter=None):
        seen["calls"] += 1
        if seen["calls"] in fail_calls:
            raise SimplexStall("synthetic stall for testing")
        return inner(self, max_iter)

    return solve_method, seen


def test_stall_retries_with_a_cold_basis(monkeypatch):
    # one stall mid-tree: the cold restart hides it and the solve finishes
    method, seen = _flaky_solve({2})
    monkeypatch.setattr(SimplexSolver, "solve", method)
    res = solve(fractional_toy())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0, abs=1e-9)
    assert seen["calls"] >= 3  # root, the stall, and its retry


def test_repeated_stall_is_contained(monkeypatch):
    # both the warm solve and the cold retry stall: the search must stop
    # with a diagnostic event instead of raising
    method, seen = _flaky_solve({2, 3})
    monkeypatch.setattr(SimplexSolver, "solve", method)
    res = solve(fractional_toy())
    assert res.status == "no-incumbent"
    assert any("action=stall" in e for e in res.events)


def test_root_stall_is_contained(monkeypatch):
    # the root's warm solve and its cold retry both stall: no bound, no
    # incumbent, and a diagnostic event instead of an exception
    method, _ = _flaky_solve({1, 2})
    monkeypatch.setattr(SimplexSolver, "solve", method)
    res = solve(fractional_toy())
    assert res.status == "no-incumbent"
    assert res.objective is None and res.bound is None and res.gap_pct is None
    assert res.nodes == 1
    assert any(e.startswith("node=0 ") and "action=stall" in e for e in res.events)


def test_stall_after_an_incumbent_reports_a_gap(monkeypatch):
    # nodes 0-3 find the incumbent 8 and fathom one leaf (LP calls 1-4);
    # node 4, the last open node (parent bound 9), stalls warm and cold.
    # That is no time limit, and the stalled node's bound keeps the gap open.
    method, _ = _flaky_solve({5, 6})
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

    def solve_method(self, max_iter=None):
        if seen["stalls_left"]:
            seen["stalls_left"] -= 1
            raise SimplexStall("synthetic stall for testing")
        return inner_solve(self, max_iter)

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
    assert res.status == "no-incumbent"
    assert res.objective is None and res.gap_pct is None and res.nodes == 1
    assert res.root_bound == one_round.root_bound > 0.0  # the uncut value is 0
    assert res.bound == one_round.root_bound
    assert any(e.startswith("node=0 ") and "action=stall" in e for e in res.events)


@pytest.mark.parametrize("node_limit", [None, 4])
def test_search_ends_at_the_root_bounds(monkeypatch, node_limit):
    # nodes re-set only the bounds that differ from the last node's; the
    # root box comes back once, when the search ends (also at a limit)
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
    assert search.applied == {}
    n = model.num_vars
    assert np.array_equal(search.solver.lb[:n], model.lb)
    assert np.array_equal(search.solver.ub[:n], model.ub)


# -- config validation -------------------------------------------------------

def test_rejects_unknown_node_selection():
    with pytest.raises(ValueError, match="node selection"):
        BncConfig(node_selection="random")


def test_rejects_unknown_branching_rule():
    with pytest.raises(ValueError, match="branching"):
        BncConfig(branching="strong")


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
    res = solve(fractional_toy(), config=BncConfig(
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
