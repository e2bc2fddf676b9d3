"""Branch and cut for mixed-binary linear models.

The search keeps a single stateful simplex instance for the whole tree:
branching is done through bound overrides that are applied before a node is
evaluated and reverted afterwards, and every node warm-starts from its
parent's basis.  Cutting planes are appended to the shared matrix (they are
globally valid), so bases captured before a cut round stay loadable.

Everything is deterministic for a fixed config: node ids break priority
ties, pricing has no randomness, and wall time only matters when a time
limit is set.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_GAP_TOL, INT_TOL
from .model import BINARY, MipModel
from .simplex import LpProblem, SimplexSolver, SimplexStall

NODE_SELECTIONS = ("best-bound", "depth-first", "dive-best-bound")
BRANCHING_RULES = ("most-fractional", "pseudo-cost")


@dataclass
class BncConfig:
    gap_tol: float = DEFAULT_GAP_TOL
    time_limit: float | None = None
    node_limit: int | None = None
    node_selection: str = "best-bound"
    branching: str = "most-fractional"
    max_root_cut_rounds: int = 30
    cut_interior_nodes: bool = False
    log_events: bool = False

    def __post_init__(self):
        if self.node_selection not in NODE_SELECTIONS:
            raise ValueError(f"unknown node selection {self.node_selection!r}")
        if self.branching not in BRANCHING_RULES:
            raise ValueError(f"unknown branching rule {self.branching!r}")


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


def compute_gap(ub, lb) -> float | None:
    """Percent gap (ub - lb) / |lb| * 100 for a minimization bound pair.

    A max-sense model is solved as a minimization of the negated objective,
    so its bounds are negative; dividing by |lb| keeps the gap nonnegative.
    """
    if ub is None or lb is None:
        return None
    if ub < lb - 1e-7 * max(1.0, abs(lb)):
        raise ValueError(f"bound inversion: ub={ub} < lb={lb}")
    diff = max(ub - lb, 0.0)
    if lb == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / abs(lb) * 100.0


def _gap_closed(ub, lb, tol) -> bool:
    """Termination test, consistent with the reported (UB-LB)/LB gap so a
    result flagged optimal never shows a gap above the tolerance.  For
    nonpositive bounds (where that ratio loses meaning) a symmetric
    relative gap takes over."""
    if not math.isfinite(ub):
        return False
    diff = max(ub - lb, 0.0)
    if lb > 0.0:
        return diff / lb <= tol
    return diff / max(abs(ub), abs(lb), 1e-10) <= tol


@dataclass(order=True)
class _Node:
    priority: tuple
    lb: float = field(compare=False)
    depth: int = field(compare=False)
    overrides: dict = field(compare=False)
    state: tuple = field(compare=False)
    branch: tuple | None = field(compare=False, default=None)  # (var, frac, parent_obj)


class _Search:
    def __init__(self, model, separators, config):
        self.model = model
        self.separators = list(separators)
        self.cfg = config
        prob, self.sign = model_to_lp(model)
        self.solver = SimplexSolver(prob)
        self.binaries = np.array(
            [j for j, v in enumerate(model.variables) if v.kind == BINARY], dtype=int)
        self.bin_pos = {j: i for i, j in enumerate(self.binaries.tolist())}
        self.root_lb = np.array([model.variables[j].lb for j in self.binaries])
        self.root_ub = np.array([model.variables[j].ub for j in self.binaries])
        self.incumbent_obj = math.inf
        self.incumbent = None
        # dive-best-bound interleaves best-bound pops with bounded
        # depth-first dive episodes (backtracking through siblings on a
        # local stack): dives reach integral leaves and improve the
        # incumbent, the pops in between drive the global bound.  Episodes
        # seed from the best open node, every pop while no incumbent
        # exists, then on a fixed pop interval; leftover episode nodes are
        # flushed back to the heap when the budget runs out.
        self.plunge = config.node_selection == "dive-best-bound"
        self.plunge_stack = []
        self.in_episode = False
        self.episode_nodes = 0
        self.episode_cap = max(64, 4 * len(self.binaries))
        self.heap_pops = 0
        self.dive_interval = 4 * self.episode_cap
        self.open_nodes = []
        self.nodes_done = 0
        self.iterations = 0
        self.cut_counts = {}
        self.events = []
        self.seq = 0
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

    def _apply(self, overrides):
        for j, (lo, hi) in overrides.items():
            self.solver.set_bound(j, lo, hi)

    def _revert(self, overrides):
        for j in overrides:
            pos = self.bin_pos[j]
            self.solver.set_bound(j, self.root_lb[pos], self.root_ub[pos])

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

    def _log_stall(self, node_id, lb, depth, exc):
        """Stalls are always recorded: they explain an early stop."""
        self.events.append(f"node={node_id} lb={lb:.10g} depth={depth} "
                           f"action=stall detail={exc}")

    # -- cutting ------------------------------------------------------------

    def _separate_once(self, values):
        from .cuts import cut_row, point_from_solution

        point = point_from_solution(self.model, values)
        found = []
        for sep in self.separators:
            found.extend(sep.separate(point))
        found.sort(key=lambda c: (c.p, -c.violation, c.family))
        for cut in found:
            coefs, rhs = cut_row(cut, self.model)
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

    def _expand(self, sol, depth, overrides, node_id, state=None):
        """Turn a solved node into an incumbent or two children."""
        fractional = self._fractional(sol.x)
        if not fractional:
            if sol.objective < self.incumbent_obj - 1e-9:
                self.incumbent_obj = sol.objective
                self.incumbent = sol.x.copy()
                self.log(node_id, sol.objective, "incumbent", depth)
            else:
                self.log(node_id, sol.objective, "fathom", depth)
            return
        j = self._pick_branch_var(sol.x, fractional)
        frac = sol.x[j]
        if state is None:
            state = self.solver.get_state()
        lean = 1.0 if frac >= 0.5 else 0.0
        children = {}
        for fixed in (lean, 1.0 - lean):  # lean side gets the smaller seq
            child_over = dict(overrides)
            child_over[j] = (fixed, fixed)
            self.seq += 1
            children[fixed] = _Node(
                priority=(sol.objective, self.seq),
                lb=sol.objective,
                depth=depth + 1,
                overrides=child_over,
                state=state,
                branch=(j, frac, sol.objective),
            )
        self.log(node_id, sol.objective, "branch", depth)
        if self.cfg.node_selection == "depth-first" or self.in_episode:
            # dives visit the side the relaxation leans to first
            stack = self.plunge_stack if self.in_episode else self.open_nodes
            for fixed in (1.0 - lean, lean):
                stack.append(children[fixed])
            return
        heapq.heappush(self.open_nodes, children[lean])
        heapq.heappush(self.open_nodes, children[1.0 - lean])

    def _next_node(self):
        if self.plunge_stack:
            if self.episode_nodes < self.episode_cap:
                self.episode_nodes += 1
                return self.plunge_stack.pop()
            for node in self.plunge_stack:
                heapq.heappush(self.open_nodes, node)
            self.plunge_stack.clear()
            self.in_episode = False
        elif self.in_episode and self.episode_nodes > 0:
            self.in_episode = False  # the dive exhausted its subtree
        if self.cfg.node_selection == "depth-first":
            return self.open_nodes.pop()
        if self.plunge and not self.in_episode:
            self.heap_pops += 1
            if self.incumbent is None or self.heap_pops >= self.dive_interval:
                self.heap_pops = 0
                self.in_episode = True
                self.episode_nodes = 0
        return heapq.heappop(self.open_nodes)

    def _global_lb(self):
        best = math.inf
        if self.open_nodes:
            if self.cfg.node_selection == "depth-first":
                best = min(n.lb for n in self.open_nodes)
            else:
                best = self.open_nodes[0].lb
        for node in self.plunge_stack:
            best = min(best, node.lb)
        if not math.isfinite(best):
            return self.incumbent_obj
        return best

    # -- main loop ----------------------------------------------------------

    def run(self):
        cfg = self.cfg
        started = time.perf_counter()
        root_bound = None  # the last optimal root relaxation value
        try:
            sol = self._solve_lp()
            if sol.status == "unbounded":
                raise ValueError("relaxation is unbounded; the domain must be compact")
            rounds = cfg.max_root_cut_rounds if self.separators else 0
            for _ in range(rounds):
                if sol.status != "optimal":
                    break
                root_bound = sol.objective
                if not self._separate_once(sol.x):
                    break
                self.log(0, sol.objective, "cut", 0)
                sol = self._solve_lp()
        except SimplexStall as exc:
            # the warm solve and its cold retry both stalled at the root; cuts
            # only tighten the relaxation, so the last optimal value is a bound
            self._log_stall(0, -math.inf if root_bound is None else root_bound, 0, exc)
            return self._result("no-incumbent", root_bound, time.perf_counter() - started,
                                started, node_count=1)
        root_time = time.perf_counter() - started
        if sol.status == "infeasible":
            return self._result("infeasible", None, root_time, started, node_count=1)
        root_bound = sol.objective
        self.nodes_done = 1
        root_state = self.solver.get_state()
        self._expand(sol, 0, {}, node_id=0, state=root_state)

        status = None
        stalled_lb = math.inf
        while self.open_nodes or self.plunge_stack:
            lb_now = self._global_lb()
            if (self.incumbent is not None
                    and _gap_closed(self.incumbent_obj, lb_now, cfg.gap_tol)):
                status = "optimal"
                break
            if cfg.node_limit is not None and self.nodes_done >= cfg.node_limit:
                status = "feasible-gap" if self.incumbent is not None else "no-incumbent"
                break
            if (cfg.time_limit is not None
                    and time.perf_counter() - started > cfg.time_limit):
                status = "time-limit" if self.incumbent is not None else "no-incumbent"
                break
            node = self._next_node()
            if node.lb >= self.incumbent_obj - 1e-9:
                self.log(self.nodes_done, node.lb, "fathom", node.depth)
                continue
            self.nodes_done += 1
            node_id = self.nodes_done - 1
            self._apply(node.overrides)
            self.solver.load_state(*node.state)
            try:
                sol = self._solve_lp()
                if sol.status != "optimal":
                    self._revert(node.overrides)
                    self.log(node_id, node.lb, "fathom", node.depth)
                    continue
                self._record_pseudo_cost(node, sol.objective)
                if sol.objective >= self.incumbent_obj - 1e-9:
                    self._revert(node.overrides)
                    self.log(node_id, sol.objective, "fathom", node.depth)
                    continue
                state = self.solver.get_state()
                if cfg.cut_interior_nodes and self.separators:
                    if self._separate_once(sol.x):
                        self.log(node_id, sol.objective, "cut", node.depth)
                        sol = self._solve_lp()
            except SimplexStall as exc:
                # Unresolvable node (first solve or the re-solve after its
                # cuts): stop with a diagnostic event instead of crashing the
                # search; its bound still counts.
                self._revert(node.overrides)
                self._log_stall(node_id, node.lb, node.depth, exc)
                stalled_lb = node.lb
                status = "feasible-gap" if self.incumbent is not None else "no-incumbent"
                break
            self._revert(node.overrides)
            if sol.status != "optimal":
                self.log(node_id, node.lb, "fathom", node.depth)
                continue
            self._expand(sol, node.depth, node.overrides, node_id, state=state)

        if status is None:
            status = "optimal" if self.incumbent is not None else "infeasible"
        return self._result(status, root_bound, root_time, started,
                            node_count=self.nodes_done,
                            final_lb=min(self._global_lb(), stalled_lb))

    def _result(self, status, root_bound, root_time, started, node_count, final_lb=None):
        wall = time.perf_counter() - started
        sign = self.sign
        has_inc = self.incumbent is not None
        bound = final_lb if final_lb is not None else root_bound
        if status == "infeasible" or bound is None:
            bound = None
            gap = None
        else:
            bound = min(bound, self.incumbent_obj)
            gap = compute_gap(self.incumbent_obj, bound) if has_inc else None
        x_idx = self.model.block_indices("x")
        root_gap = None
        if has_inc and root_bound is not None:
            root_gap = compute_gap(self.incumbent_obj, min(root_bound, self.incumbent_obj))
        if has_inc and x_idx:
            x_out = self.incumbent[x_idx].copy()
        elif has_inc:
            x_out = self.incumbent.copy()
        else:
            x_out = None
        return SolveResult(
            status=status,
            objective=sign * self.incumbent_obj if has_inc else None,
            bound=sign * bound if bound is not None else None,
            gap_pct=gap,
            x=x_out,
            values=self.incumbent.copy() if has_inc else None,
            nodes=node_count,
            iterations=self.iterations,
            root_bound=sign * root_bound if root_bound is not None else None,
            root_gap_pct=root_gap,
            root_time_s=root_time,
            time_s=wall,
            cuts=dict(self.cut_counts),
            events=list(self.events),
        )


def solve(model: MipModel, separators=(), config: BncConfig | None = None) -> SolveResult:
    """Solve a mixed-binary model to proven optimality (or a limit)."""
    if config is None:
        config = BncConfig()
    return _Search(model, separators, config).run()
