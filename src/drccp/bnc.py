"""Branch and cut for mixed-binary linear models.

Every node goes through `_visit`, which loads, solves, cuts, fathoms and
expands it.  The root is node 0: it has no stored basis, so it starts cold,
and it is the only node that cuts, with up to `ROOT_CUT_ROUNDS` rounds.
Every other node warm-starts from its parent's basis.  A node is fathomed
when its relaxation is not optimal or reaches the incumbent, checked after
every solve, and its children start from the basis it ends with (the
root's after its cuts).  A warm node re-solve gets the incumbent as its
cutoff: the dual simplex stops with status 'cutoff' once its objective, a
lower bound on the node's relaxation, reaches it, and the node is fathomed
as one whose relaxation reaches the incumbent (event `action=cutoff`, with
the bound it reached).  That bound is also the child's pseudo-cost
observation, a lower bound on the gain the full re-solve would record.  The
root and its cut rounds get no cutoff, so the root bound and the cut loop
are as without it.  One branching rule serves every model: a binary's
pseudo-costs are trusted once it has RELIABLE observations in each
direction (reliability branching without strong-branching initialization,
Achterberg, Koch & Martin 2005), and a node with no reliable fractional
binary branches on the most fractional one.  `run` stops in one place:
`_pick` gives the next node or the final status, and stops when the
reported gap is at most `gap_tol`.  Node selection is best-bound (the open nodes as a heap keyed
by bound) or depth-first (the open nodes as a stack, one dive from the root
that visits the side each relaxation leans to first).

The search keeps a single stateful simplex instance for the whole tree.
A node's fixings are one int8 vector over the binaries (-1 free, 0 or 1
fixed), and before a node is evaluated `refix` re-sets only the binaries
whose entries differ from the vector the solver holds.  Cutting planes are
appended to the shared matrix (they are globally valid) before the root
branches, so every stored basis has the LP's final row count.

A simplex stall that a cold restart does not resolve stops the search.
Cuts and branching only tighten a relaxation, so the stalled node rejoins
the open set: its bound, its last optimal relaxation value or else its
parent's bound, still counts.

The search finds its own first incumbent.  Before the root it solves the
LP with every binary fixed at 0 (`_seed`): in a DR-CCP model no sample is
discarded, which is the CVaR inner approximation of the chance constraint
(Chen, Kuhn & Wiesemann, "Data-driven chance constrained programs over
Wasserstein balls"), the CVaR plan of a cost preset and the CVaR radius of
the theta variant.  An optimal point is checked as any start is and becomes
the first incumbent, so the search prunes against it from the root on; the
root then starts cold, as without it (with no binaries its LP is the seed's,
and it takes the seed's solution).  A caller may instead hand `solve` a
start of its own, a full variable vector checked against the model's
bounds, binaries and rows before any LP; then no seed is solved.

Everything is deterministic for a fixed config: creation order breaks ties
between equal bounds, pricing has no randomness, and wall time only matters when a time
limit is set.
"""
from __future__ import annotations

import heapq
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import cuts
from .constants import FEAS_TOL, INT_TOL
from .model import MipModel
from .simplex import LpProblem, SimplexSolver, SimplexStall

NODE_SELECTIONS = ("best-bound", "depth-first")
# cap on the root's cut rounds, which bounds the root's time: a root at
# N = 500 still finds cuts in round 30, so there the cap ends the loop
ROOT_CUT_ROUNDS = 30
RELIABLE = 2  # pseudo-cost observations per direction before a binary's pseudo-costs are trusted


@dataclass
class BncConfig:
    """The search options; the bench config and `drccp solve` take their defaults from here."""

    gap_tol: float = 1e-4  # relative gap (0.01 percent)
    time_limit: float | None = None
    node_limit: int | None = None
    node_selection: str = "best-bound"
    log_events: bool = False

    def __post_init__(self):
        if self.node_selection not in NODE_SELECTIONS:
            raise ValueError(f"unknown node selection {self.node_selection!r}")
        for name, kind, what in (("gap_tol", numbers.Real, "number"),
                                 ("time_limit", numbers.Real, "number of seconds"),
                                 ("node_limit", numbers.Integral, "number of nodes")):
            value = getattr(self, name)
            if not (value is None and name != "gap_tol"
                    or isinstance(value, kind) and not isinstance(value, bool) and value >= 0):
                raise ValueError(f"{name} must be a nonnegative {what}, got {value!r}")


@dataclass
class SolveResult:
    # optimal | infeasible | time-limit (a time limit with an incumbent) |
    # feasible-gap (a node limit or a simplex stall with an incumbent) |
    # no-incumbent (any limit or stall before an incumbent was found)
    status: str
    objective: float | None
    bound: float | None
    gap_pct: float | None
    x: np.ndarray | None
    values: np.ndarray | None
    nodes: int
    iterations: int
    root_bound: float | None
    root_gap_pct: float | None
    root_time_s: float
    time_s: float
    cuts: dict
    events: list


def model_to_lp(model: MipModel):
    """LP relaxation of the model plus its objective sign (+1 min, -1 max)."""
    c, A, senses, b, lb, ub = model.to_dense()
    sign = -1.0 if model.obj_sense == "max" else 1.0
    return LpProblem(c=c, A=A, senses=senses, b=b, lb=lb, ub=ub), sign


def refix(solver, model, cols, fixed, held):
    """Move the solver from the fixings `held` to `fixed`, two int8
    vectors over the columns `cols` (-1 free, 0 or 1 fixed), re-setting
    only the entries that differ; -1 restores the model's own bounds.  The
    order of the calls does not matter: statuses are settled against the
    final bounds when the next solve starts."""
    changed = np.flatnonzero(fixed != held)
    for j, value in zip(cols[changed].tolist(), fixed[changed].tolist()):
        if value < 0:
            solver.set_bound(j, model.lb[j], model.ub[j])
        else:
            solver.set_bound(j, float(value), float(value))


def _relative_gap(ub, lb) -> float:
    """max(ub - lb, 0) / |lb| for a minimization bound pair, 0 or inf at
    lb = 0; the search stops when it is at most `gap_tol`.  A max-sense
    model is minimized negated, so |lb| keeps its gap nonnegative."""
    diff = max(ub - lb, 0.0)
    if lb == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / abs(lb)


def compute_gap(ub, lb) -> float | None:
    """Percent gap, 100 times the relative gap; None if either bound is."""
    if ub is None or lb is None:
        return None
    if ub < lb - 1e-7 * max(1.0, abs(lb)):
        raise ValueError(f"bound inversion: ub={ub} < lb={lb}")
    return _relative_gap(ub, lb) * 100.0


@dataclass(order=True)
class _Node:
    lb: float  # the parent's bound, then the node's last optimal value
    seq: int  # creation order, which breaks ties between equal bounds
    depth: int = field(compare=False)
    fixed: np.ndarray = field(compare=False)  # int8 over the binaries: -1 free, 0 or 1 fixed
    state: tuple | None = field(compare=False)  # the parent's final basis (all rows); None at the root
    branch: tuple | None = field(compare=False, default=None)  # (pos in binaries, frac, parent_obj)


def _check_start(model: MipModel, start) -> np.ndarray:
    """The start as a float vector, or a ValueError naming the variable or
    row it fails: its length, a non-finite entry, a bound missed by more than
    FEAS_TOL, a binary more than INT_TOL from 0 or 1, or a row whose activity
    misses its sense and rhs by more than FEAS_TOL * max(1, |rhs|)."""
    x = np.asarray(start, dtype=float)
    if x.shape != (model.num_vars,):
        raise ValueError(f"start has shape {x.shape}, the model has {model.num_vars} variables")
    with np.errstate(invalid="ignore"):  # an infinite entry fails the first test
        tests = ((~np.isfinite(x), "is not finite"),
                 ((x < model.lb - FEAS_TOL) | (x > model.ub + FEAS_TOL), "lies outside its bounds"),
                 (model.binary & (np.abs(x - np.round(x)) > INT_TOL), "is not 0 or 1"))
    for bad, what in tests:
        j = np.flatnonzero(bad)
        if j.size:
            j = j[0]
            raise ValueError(f"start: variable {model.names[j]} = {x[j]:.10g} {what} "
                             f"(bounds [{model.lb[j]}, {model.ub[j]}])")
    rows = np.repeat(np.arange(model.num_constraints), np.diff(model.start))
    activity = np.bincount(rows, weights=model.vals * x[model.cols],
                           minlength=model.num_constraints)
    excess = np.select([model.senses == "<=", model.senses == ">="],
                       [activity - model.rhs, model.rhs - activity], np.abs(activity - model.rhs))
    bad = np.flatnonzero(excess > FEAS_TOL * np.maximum(1.0, np.abs(model.rhs)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"start: row {i} ({model.labels[i]}) has activity {activity[i]:.10g}, "
                         f"missing {model.senses[i]} {model.rhs[i]:.10g} by {excess[i]:.3g}")
    return x


class _Search:
    def __init__(self, model, separators, config, start=None):
        self.model = model
        self.separators = list(separators)
        self.cfg = config
        prob, self.sign = model_to_lp(model)
        self.solver = SimplexSolver(prob)
        self.binaries = np.flatnonzero(model.binary)
        nb = len(self.binaries)
        self.applied = np.full(nb, -1, dtype=np.int8)  # the fixings the solver holds now
        self.incumbent_obj = math.inf
        self.incumbent = None
        self.events = []
        self.start = start
        self.best_bound = config.node_selection == "best-bound"
        self.open_nodes = []  # a heap under best-bound, a stack under depth-first
        self.root = _Node(lb=-math.inf, seq=0, depth=0, fixed=self.applied, state=None)
        self.nodes_done = 0
        self.iterations = 0
        self.cut_counts = {}
        self.seq = 0
        self.started = self.root_time = None
        self.root_lp = None  # the seed's solution when it is the root's LP
        # pseudo-cost statistics per binary: unit objective gains by direction
        self.pc_sum = np.zeros((2, nb))
        self.pc_cnt = np.zeros((2, nb), dtype=int)

    # -- bookkeeping --------------------------------------------------------

    def log(self, node_id, lb, action, depth):
        if not self.cfg.log_events:
            return
        ub = self.incumbent_obj
        ub_s = f"{ub:.10g}" if math.isfinite(ub) else "inf"
        self.events.append(
            f"node={node_id} lb={lb:.10g} ub={ub_s} depth={depth} action={action}"
        )

    def _move_to(self, fixed):
        """Give the solver the model's bounds plus the fixings `fixed`."""
        refix(self.solver, self.model, self.binaries, fixed, self.applied)
        self.applied = fixed

    def _seed(self):
        """The LP optimum with every binary fixed at 0, checked as a start,
        or None when that LP is not optimal or stalls after its cold retry.
        The solver is left at the slack basis, so the root starts cold; the
        root's `_move_to` restores the binaries' bounds.  With no binaries
        this is the root's LP: an optimal seed stays as the root's solution."""
        self._move_to(np.zeros_like(self.applied))
        try:
            sol = self._solve_lp()
        except SimplexStall:
            sol = None
        optimal = sol is not None and sol.status == "optimal"
        if optimal and not self.binaries.size:
            self.root_lp = sol
        else:
            self.solver.reset_basis()
        return _check_start(self.model, sol.x) if optimal else None

    def _solve_lp(self, cutoff=math.inf):
        sol = self.solver.solve_or_restart(cutoff)
        self.iterations += sol.iterations
        return sol

    # -- cutting ------------------------------------------------------------

    def _separate_once(self, values):
        point = cuts.point_from_solution(self.model, values)
        found = []
        for sep in self.separators:
            found.extend(sep.separate(point))
        found.sort(key=lambda c: (c.p, -c.violation, c.family))
        for cut in found:
            coefs, rhs = cuts.cut_row(cut, self.model)
            self.solver.add_row(coefs, ">=", rhs)
            self.cut_counts[cut.family] = self.cut_counts.get(cut.family, 0) + 1
        return len(found)

    # -- branching ----------------------------------------------------------

    def _pick_branch_var(self, values):
        """The position in `binaries` of the binary to branch on, or None
        when every binary is within INT_TOL of an integer (np.round rounds
        half to even).  Among the fractional binaries with RELIABLE
        pseudo-cost observations in each direction, the one with the largest
        product of estimated gains, the first on ties; with none, the most
        fractional one, the first on ties.  Reliable candidates are only
        scored against each other, so the pick does not depend on the
        objective's units."""
        v = values[self.binaries]
        dist = np.abs(v - np.round(v))
        frac = dist > INT_TOL
        if not frac.any():
            return None
        reliable = np.flatnonzero(frac & (self.pc_cnt.min(axis=0) >= RELIABLE))
        if reliable.size:
            down, up = self.pc_sum[:, reliable] / self.pc_cnt[:, reliable]
            f = v[reliable]
            score = np.maximum(up * (1.0 - f), 1e-9) * np.maximum(down * f, 1e-9)
            return int(reliable[score.argmax()])
        return int(np.where(frac, dist, -1.0).argmax())

    def _record_pseudo_cost(self, node, child_obj):
        if node.branch is None or not math.isfinite(child_obj):
            return
        pos, frac, parent_obj = node.branch
        direction = int(node.fixed[pos])
        dist = (1.0 - frac) if direction == 1 else frac
        gain = max(child_obj - parent_obj, 0.0) / max(dist, 1e-9)
        self.pc_sum[direction, pos] += gain
        self.pc_cnt[direction, pos] += 1

    # -- tree ---------------------------------------------------------------

    def _visit(self, node):
        """Load, solve, cut, fathom and expand one node.

        The node warm-starts from its parent's basis, with the incumbent as
        cutoff; the root has none, starts cold and alone gets cut rounds, up
        to ROOT_CUT_ROUNDS, each followed by a re-solve.  After every solve,
        a relaxation that is not optimal (a 'cutoff' one included) or
        reaches the incumbent fathoms the node; otherwise its value becomes
        the node's bound.  A node that survives becomes an
        incumbent or two children, which start from the basis it ends with."""
        node_id = self.nodes_done
        self.nodes_done += 1
        self._move_to(node.fixed)
        rounds = ROOT_CUT_ROUNDS if node is self.root and self.separators else 0
        if node.state is None:
            sol = self.root_lp or self._solve_lp()
        else:
            self.solver.load_state(*node.state)
            sol = self._solve_lp(self.incumbent_obj)
        if sol.status == "unbounded":
            raise ValueError("relaxation is unbounded; the domain must be compact")
        self._record_pseudo_cost(node, sol.objective)
        if sol.status == "cutoff":
            self.log(node_id, sol.objective, "cutoff", node.depth)
            return
        while True:
            if sol.status == "optimal":
                node.lb = sol.objective
            if sol.status != "optimal" or self._reaches_incumbent(node.lb):
                self.log(node_id, node.lb, "fathom", node.depth)
                return
            if rounds == 0 or not self._separate_once(sol.x):
                break
            rounds -= 1
            self.log(node_id, node.lb, "cut", node.depth)
            sol = self._solve_lp()
        pos = self._pick_branch_var(sol.x)
        if pos is None:
            self.incumbent_obj = sol.objective
            self.incumbent = sol.x.copy()
            self.log(node_id, sol.objective, "incumbent", node.depth)
            return
        frac = sol.x[self.binaries[pos]]
        lean = 1 if frac >= 0.5 else 0
        state = self.solver.get_state()
        children = []
        for value in (lean, 1 - lean):  # lean side gets the smaller seq
            self.seq += 1
            fixed = node.fixed.copy()
            fixed[pos] = value
            children.append(_Node(
                lb=sol.objective,
                seq=self.seq,
                depth=node.depth + 1,
                fixed=fixed,
                state=state,
                branch=(pos, frac, sol.objective),
            ))
        self.log(node_id, sol.objective, "branch", node.depth)
        for child in reversed(children):  # the lean side last, so a dive visits it first
            self._push(child)

    def _push(self, node):
        if self.best_bound:
            heapq.heappush(self.open_nodes, node)
        else:
            self.open_nodes.append(node)

    def _next_node(self):
        return heapq.heappop(self.open_nodes) if self.best_bound else self.open_nodes.pop()

    def _reaches_incumbent(self, lb):
        return lb >= self.incumbent_obj - 1e-9

    def _bound(self):
        """Least open bound (the heap top under best-bound), clamped at the
        incumbent."""
        if self.best_bound:
            best = self.open_nodes[0].lb if self.open_nodes else math.inf
        else:
            best = min((node.lb for node in self.open_nodes), default=math.inf)
        return min(best, self.incumbent_obj)

    def _stopped(self, limit):
        """Status of a search cut short by `limit` ("node", "time" or "stall")."""
        if self.incumbent is None:
            return "no-incumbent"
        return "time-limit" if limit == "time" else "feasible-gap"

    def _pick(self):
        """(next node to visit, None), or (None, the status the search ends
        with).  Open nodes whose bound reaches the incumbent are fathomed on
        the way; they do not count as visited."""
        cfg = self.cfg
        while self.open_nodes:
            if (self.incumbent is not None
                    and _relative_gap(self.incumbent_obj, self._bound()) <= cfg.gap_tol):
                return None, "optimal"
            if cfg.node_limit is not None and self.nodes_done >= cfg.node_limit:
                return None, self._stopped("node")
            if (cfg.time_limit is not None
                    and time.perf_counter() - self.started > cfg.time_limit):
                return None, self._stopped("time")
            node = self._next_node()
            if not self._reaches_incumbent(node.lb):
                return node, None
            self.log(self.nodes_done, node.lb, "fathom", node.depth)
        return None, "optimal" if self.incumbent is not None else "infeasible"

    # -- main loop ----------------------------------------------------------

    def run(self):
        self.started = time.perf_counter()
        start = self._seed() if self.start is None else self.start
        if start is not None:
            self.incumbent = start.copy()
            self.incumbent_obj = self.sign * float(self.model.obj_vals @ start[self.model.obj_cols])
            self.log(0, self.incumbent_obj, "start", 0)
        node = self.root
        try:
            self._visit(node)
            self.root_time = time.perf_counter() - self.started
            node, status = self._pick()
            while node is not None:
                self._visit(node)
                node, status = self._pick()
        except SimplexStall as exc:
            # the warm solve and its cold retry both stalled; the event is
            # always recorded, it explains the early stop
            self.events.append(f"node={self.nodes_done - 1} lb={node.lb:.10g} "
                               f"depth={node.depth} action=stall detail={exc}")
            self._push(node)  # rejoins the open set, keyed by its own bound
            status = self._stopped("stall")
        return self._result(status)

    def _result(self, status):
        wall = time.perf_counter() - self.started
        sign = self.sign
        has_inc = self.incumbent is not None
        bound = self._bound()
        if status == "infeasible" or not math.isfinite(bound):
            bound = None
        root_bound = self.root.lb if math.isfinite(self.root.lb) else None
        gap = root_gap = None
        if has_inc:
            gap = compute_gap(self.incumbent_obj, bound)
            if root_bound is not None:
                root_gap = compute_gap(self.incumbent_obj, min(root_bound, self.incumbent_obj))
        x_idx = self.model.block_indices("x")
        x_out = (self.incumbent[x_idx] if x_idx else self.incumbent).copy() if has_inc else None
        return SolveResult(
            status=status,
            objective=sign * self.incumbent_obj if has_inc else None,
            bound=sign * bound if bound is not None else None,
            gap_pct=gap,
            x=x_out,
            values=self.incumbent.copy() if has_inc else None,
            nodes=self.nodes_done,
            iterations=self.iterations,
            root_bound=sign * root_bound if root_bound is not None else None,
            root_gap_pct=root_gap,
            root_time_s=wall if self.root_time is None else self.root_time,
            time_s=wall,
            cuts=dict(self.cut_counts),
            events=list(self.events),
        )


def solve(model: MipModel, separators=(), config: BncConfig | None = None,
          start=None) -> SolveResult:
    """Solve a mixed-binary model to proven optimality (or a limit).  Cut
    separators need the threshold variable t, which `saa` has not.

    The first incumbent is `start`, a full variable vector checked against
    the model before any LP (`_check_start` names what it fails), or with
    no start the optimum of the LP with every binary at 0, when that LP is
    optimal.  It counts at the model's objective, the search replaces it
    only with a point better by more than the prune tolerance, and with
    `log_events` it is logged first, as one `action=start` line."""
    separators = list(separators)
    if separators and not model.block_indices("t"):
        raise ValueError("cut separators need the threshold variable t; the model has none (saa)")
    if start is not None:
        start = _check_start(model, start)
    if config is None:
        config = BncConfig()
    return _Search(model, separators, config, start).run()
