"""Branch and cut for mixed-binary linear models.

Every node goes through `_visit`, which loads, solves, cuts, fathoms and
expands it.  The root is node 0: it has no stored basis, so it starts cold,
and it is the only node that cuts, with up to `ROOT_CUT_ROUNDS` rounds.
Every other node warm-starts from its parent's basis.  A node is fathomed
when its relaxation is not optimal or reaches the incumbent, checked after
every solve, and its children start from the basis it ends with (the
root's after its cuts).  `run` stops in one place: `_pick` gives the next
node or the final status, and stops when the reported gap is at most
`gap_tol`.  Node selection is best-bound (a heap), depth-first (one dive
from the root with no budget) or dive-best-bound (best-bound with bounded
dives).

The search keeps a single stateful simplex instance for the whole tree:
branching is done through bound overrides, and before a node is evaluated
only the binaries whose bounds differ from the last evaluated node's are
re-set (the root bounds come back once, when the search ends).  Cutting
planes are appended to the shared matrix (they are globally valid) before
the root branches, so every stored basis has the LP's final row count.

A simplex stall that a cold restart does not resolve stops the search.
Cuts and branching only tighten a relaxation, so the stalled node rejoins
the open set: its bound, its last optimal relaxation value or else its
parent's bound, still counts.

Everything is deterministic for a fixed config: node ids break priority
ties, pricing has no randomness, and wall time only matters when a time
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
from .constants import INT_TOL
from .model import MipModel
from .simplex import LpProblem, SimplexSolver, SimplexStall

NODE_SELECTIONS = ("best-bound", "depth-first", "dive-best-bound")
BRANCHING_RULES = ("most-fractional", "pseudo-cost")
ROOT_CUT_ROUNDS = 30  # cap on the root's cut rounds; no default-grid root needs more than 10


@dataclass
class BncConfig:
    """The search options; the bench config and `drccp solve` take their defaults from here."""

    gap_tol: float = 1e-4  # relative gap (0.01 percent)
    time_limit: float | None = None
    node_limit: int | None = None
    node_selection: str = "best-bound"
    branching: str = "most-fractional"
    log_events: bool = False

    def __post_init__(self):
        if self.node_selection not in NODE_SELECTIONS:
            raise ValueError(f"unknown node selection {self.node_selection!r}")
        if self.branching not in BRANCHING_RULES:
            raise ValueError(f"unknown branching rule {self.branching!r}")
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
    priority: tuple
    lb: float = field(compare=False)  # the parent's bound, then the node's last optimal value
    depth: int = field(compare=False)
    overrides: dict = field(compare=False)
    state: tuple | None = field(compare=False)  # the parent's final basis (all rows); None at the root
    branch: tuple | None = field(compare=False, default=None)  # (var, frac, parent_obj)


class _Search:
    def __init__(self, model, separators, config):
        self.model = model
        self.separators = list(separators)
        self.cfg = config
        prob, self.sign = model_to_lp(model)
        self.solver = SimplexSolver(prob)
        self.binaries = np.flatnonzero(model.binary)
        self.bin_pos = {j: i for i, j in enumerate(self.binaries.tolist())}
        self.root_lb = model.lb[self.binaries]
        self.root_ub = model.ub[self.binaries]
        self.applied = {}  # the bound overrides the solver holds now
        self.incumbent_obj = math.inf
        self.incumbent = None
        # Dives run on `dive_stack`, visiting the side each relaxation leans
        # to first and backtracking through siblings.  depth-first is one
        # dive from the root with no budget.  dive-best-bound interleaves
        # best-bound pops with dive episodes of bounded size: dives reach
        # integral leaves and improve the incumbent, the pops in between
        # drive the global bound.  Episodes seed from the best open node,
        # every pop while no incumbent exists, then on a fixed pop interval;
        # leftover episode nodes are flushed back to the heap when the
        # budget runs out.
        depth_first = config.node_selection == "depth-first"
        self.plunge = config.node_selection == "dive-best-bound"
        self.dive_stack = []
        self.in_episode = depth_first
        self.episode_nodes = 0
        episode_cap = max(64, 4 * len(self.binaries))
        self.episode_cap = math.inf if depth_first else episode_cap
        self.heap_pops = 0
        self.dive_interval = 4 * episode_cap
        self.open_nodes = []  # best-bound heap
        self.root = _Node(priority=(), lb=-math.inf, depth=0, overrides={}, state=None)
        self.nodes_done = 0
        self.iterations = 0
        self.cut_counts = {}
        self.events = []
        self.seq = 0
        self.started = self.root_time = None
        nb = len(self.binaries)
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

    def _move_to(self, overrides):
        """Give the solver the root bounds plus `overrides`, re-setting only
        the binaries whose bounds differ from the ones it holds.  The order
        of the calls does not matter: statuses are settled against the final
        bounds when the next solve starts."""
        for j in self.applied:
            if j not in overrides:
                pos = self.bin_pos[j]
                self.solver.set_bound(j, self.root_lb[pos], self.root_ub[pos])
        for j, (lo, hi) in overrides.items():
            if self.applied.get(j) != (lo, hi):
                self.solver.set_bound(j, lo, hi)
        self.applied = overrides

    def _solve_lp(self):
        try:
            sol = self.solver.solve()
        except SimplexStall:
            # A stale warm basis can walk in circles after many bound flips
            # and appended cut rows; a cold restart from the current bounds
            # resolves it deterministically.
            self.solver.reset_basis()
            sol = self.solver.solve()
        self.iterations += sol.iterations
        return sol

    def _fractional(self, values):
        """(index, distance to the nearest integer) of each fractional binary,
        by ascending index.  np.round rounds half to even, as round() does."""
        v = values[self.binaries]
        dist = np.abs(v - np.round(v))
        frac = dist > INT_TOL
        return list(zip(self.binaries[frac].tolist(), dist[frac].tolist()))

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

    def _pc_estimate(self, direction, pos):
        if self.pc_cnt[direction, pos] > 0:
            return self.pc_sum[direction, pos] / self.pc_cnt[direction, pos]
        total = self.pc_cnt[direction].sum()
        if total > 0:
            return self.pc_sum[direction].sum() / total
        return 1.0

    def _pick_branch_var(self, values, fractional):
        if self.cfg.branching == "most-fractional":
            return max(fractional, key=lambda jf: (jf[1], -jf[0]))[0]
        best_j, best_score = None, -1.0
        for j, _ in fractional:
            pos = self.bin_pos[j]
            frac = values[j]
            up = self._pc_estimate(1, pos) * (1.0 - frac)
            dn = self._pc_estimate(0, pos) * frac
            score = max(up, 1e-9) * max(dn, 1e-9)
            if score > best_score + 1e-15:
                best_j, best_score = j, score
        return best_j

    def _record_pseudo_cost(self, node, child_obj):
        if node.branch is None or not math.isfinite(child_obj):
            return
        j, frac, parent_obj = node.branch
        fixed_to = node.overrides[j][0]
        direction = 1 if fixed_to >= 0.5 else 0
        dist = (1.0 - frac) if direction == 1 else frac
        gain = max(child_obj - parent_obj, 0.0) / max(dist, 1e-9)
        pos = self.bin_pos[j]
        self.pc_sum[direction, pos] += gain
        self.pc_cnt[direction, pos] += 1

    # -- tree ---------------------------------------------------------------

    def _visit(self, node):
        """Load, solve, cut, fathom and expand one node.

        The node warm-starts from its parent's basis; the root has none,
        starts cold and alone gets cut rounds, up to ROOT_CUT_ROUNDS, each
        followed by a re-solve.  After every solve, a relaxation that is not
        optimal or reaches the incumbent fathoms the node; otherwise its
        value becomes the node's bound.  A node that survives becomes an
        incumbent or two children, which start from the basis it ends with."""
        node_id = self.nodes_done
        self.nodes_done += 1
        self._move_to(node.overrides)
        rounds = ROOT_CUT_ROUNDS if node is self.root and self.separators else 0
        if node.state is not None:
            self.solver.load_state(*node.state)
        sol = self._solve_lp()
        if sol.status == "unbounded":
            raise ValueError("relaxation is unbounded; the domain must be compact")
        self._record_pseudo_cost(node, sol.objective)
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
        fractional = self._fractional(sol.x)
        if not fractional:
            self.incumbent_obj = sol.objective
            self.incumbent = sol.x.copy()
            self.log(node_id, sol.objective, "incumbent", node.depth)
            return
        j = self._pick_branch_var(sol.x, fractional)
        frac = sol.x[j]
        lean = 1.0 if frac >= 0.5 else 0.0
        state = self.solver.get_state()
        children = []
        for fixed in (lean, 1.0 - lean):  # lean side gets the smaller seq
            self.seq += 1
            children.append(_Node(
                priority=(sol.objective, self.seq),
                lb=sol.objective,
                depth=node.depth + 1,
                overrides={**node.overrides, j: (fixed, fixed)},
                state=state,
                branch=(j, frac, sol.objective),
            ))
        self.log(node_id, sol.objective, "branch", node.depth)
        if self.in_episode:
            self.dive_stack += children[::-1]  # dives visit the lean side first
        else:
            for child in children:
                heapq.heappush(self.open_nodes, child)

    def _next_node(self):
        if self.dive_stack:
            if self.episode_nodes < self.episode_cap:
                self.episode_nodes += 1
                return self.dive_stack.pop()
            for node in self.dive_stack:
                heapq.heappush(self.open_nodes, node)
            self.dive_stack.clear()
            self.in_episode = False
        elif self.in_episode and self.episode_nodes > 0:
            self.in_episode = False  # the dive exhausted its subtree
        if self.plunge and not self.in_episode:
            self.heap_pops += 1
            if self.incumbent is None or self.heap_pops >= self.dive_interval:
                self.heap_pops = 0
                self.in_episode = True
                self.episode_nodes = 0
        return heapq.heappop(self.open_nodes)

    def _reaches_incumbent(self, lb):
        return lb >= self.incumbent_obj - 1e-9

    def _bound(self):
        """Least open bound (heap top, dive nodes), clamped at the incumbent."""
        best = self.open_nodes[0].lb if self.open_nodes else math.inf
        for node in self.dive_stack:
            best = min(best, node.lb)
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
        while self.open_nodes or self.dive_stack:
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
            self.dive_stack.append(node)  # rejoins the open set, bound and all
            status = self._stopped("stall")
        self._move_to({})
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


def solve(model: MipModel, separators=(), config: BncConfig | None = None) -> SolveResult:
    """Solve a mixed-binary model to proven optimality (or a limit)."""
    if config is None:
        config = BncConfig()
    return _Search(model, separators, config).run()
