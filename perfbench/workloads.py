"""The benchmark's workloads, their inputs and their correctness checks.

Every workload is closed loop: one caller in one process issues one
operation after another.  A *pass* is one sweep over a workload's
operations; `run.py` times passes.  Operations go through module
attributes of a `Library` namespace, so the wrappers of `layers.Instrument`
see every call.

Inputs:
* every cell that goes through branch and cut (the grid cells and the
  small enumeration cross-check run by every workload) is drawn from `base`
  (the bench default 20240801 unless given), so their search trees, and
  the work they take, are the same in every run;
* the certify-scale build instance and its plans are drawn from the run
  `seed`.  These parts do a fixed amount of work whatever the seed.
"""
from __future__ import annotations

import importlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

EPSILON = 0.1
GAP_TOL = 1e-4
NODE_LIMIT = 1500
THETA_MAX_NODE_LIMIT = 4000
START_THETA = 0.001      # radius the set-up instance carries; theta_max ignores it
REL_TOL = 1e-6           # objective agreement, relative
WCP_TOL = 1e-7           # worst_case_prob may exceed epsilon by the LP feasibility tolerance
BOUNDARY_TOL = 1e-7      # plans this close to epsilon skip the lemma/oracle agreement test
ENUM_THETA_INDEX = 6     # radius of the enumeration check, on the bench grid

GRID_ARMS = ("basic", "improved", "mixingpath", "basicmixingpath")
MODULES = ("transport", "formulations", "model", "simplex", "bnc", "cuts", "oracles", "bench")
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class EnumSpec:
    """Small instance solved by support enumeration and by branch and cut."""
    cell: tuple
    arms: tuple


@dataclass(frozen=True)
class GridSpec:
    cell: tuple
    theta_indices: tuple
    arms: tuple = GRID_ARMS
    enum: EnumSpec = EnumSpec((2, 3, 10), ("mixingpath",))


@dataclass(frozen=True)
class CertifySpec:
    build_cell: tuple = (2, 6, 1000)
    plan_cell: tuple = (2, 3, 2000)
    plans: int = 60
    plan_theta: float = 0.002
    plan_supply: tuple = (1.15, 1.35)  # per-center supply over mean demand
    enum: EnumSpec = EnumSpec((2, 3, 20), ("mixingpath", "basicmixingpath"))


WORKLOADS = {
    "grid-narrow": GridSpec(cell=(2, 3, 50), theta_indices=(1, 6)),
    "grid-wide": GridSpec(cell=(2, 10, 50), theta_indices=(6,)),
    "certify-scale": CertifySpec(),
}


def library() -> SimpleNamespace:
    """The drccp modules the workloads call, as imported now."""
    return SimpleNamespace(**{m: importlib.import_module("drccp." + m) for m in MODULES})


def load_library(src: Path) -> SimpleNamespace:
    """Import the drccp package afresh from `src` (dropping any earlier
    import, so the import itself is timed) and return its modules."""
    for name in [m for m in sys.modules if m == "drccp" or m.startswith("drccp.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("drccp")
    where = Path(pkg.__file__).resolve().parent
    if where != (src / "drccp").resolve():
        raise ImportError(f"drccp was imported from {where}, not from {src}")
    return library()


def load_reference(base: int) -> dict:
    """Recorded statuses, objectives and counters for `base`, if any."""
    if not REFERENCE.exists():
        return {}
    data = json.loads(REFERENCE.read_text())
    return data["workloads"] if data.get("base") == base else {}


# ---------------------------------------------------------------------------
# Bookkeeping of operations and checks
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str
    label: str
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


class Ledger:
    """Every operation attempted in a pass, and what went wrong with it."""

    def __init__(self):
        self.ops = []
        self.solves = []  # one row of counters per branch-and-cut solve

    def run(self, kind, label, fn):
        """Run one operation; an exception is recorded as its failure."""
        op = Op(kind, label)
        self.ops.append(op)
        try:
            return op, fn()
        except Exception as exc:  # the pass must go on and report the failure
            op.problems.append(f"{type(exc).__name__}: {exc}")
            return op, None

    @property
    def failed(self):
        return [op for op in self.ops if not op.ok]


def agree(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def certify_point(lib, inst, x) -> list:
    """Problems with a plan claimed feasible for `inst`, by the oracles."""
    dist = lib.model.distance_profile(inst, x)
    cert = lib.oracles.lemma_certificate(dist, inst.epsilon, inst.theta)
    wcp = lib.oracles.worst_case_prob(dist, inst.theta)
    problems = []
    if not cert.feasible:
        problems.append(f"lemma certificate fails, slack {cert.budget_slack:.3g}")
    if wcp > inst.epsilon + WCP_TOL:
        problems.append(f"worst_case_prob {wcp:.9g} > epsilon {inst.epsilon}")
    return problems


# ---------------------------------------------------------------------------
# Solves
# ---------------------------------------------------------------------------

def _separators(lib, inst, quant, families):
    kinds = {"mixing": lib.cuts.MixingSeparator, "path": lib.cuts.PathSeparator}
    return [kinds[f](inst, quant) for f in families]


def _solve_row(label, counters, certified):
    row = {k: counters[k] for k in ("status", "objective", "nodes", "iterations",
                                    "pivots", "cuts")}
    row["label"] = label
    row["certified"] = certified
    return row


def solve_arm(lib, instr, ledger, label, inst, arm, big_m, quant):
    kind, families = lib.bench.VARIANTS[arm]

    def work():
        model = lib.formulations.build_formulation(inst, kind, big_m=big_m, quant=quant)
        config = lib.bnc.BncConfig(gap_tol=GAP_TOL, node_limit=NODE_LIMIT)
        result = lib.bnc.solve(model, _separators(lib, inst, quant, families), config)
        return result, instr.solves[-1]

    op, out = ledger.run("solve", label, work)
    row = None
    if out is not None:
        result, counters = out
        certified = None
        if result.x is not None:
            op.problems += certify_point(lib, inst, result.x)
            certified = not op.problems
        row = _solve_row(label, counters, certified)
        ledger.solves.append(row)
    return op, row


def solve_theta_max(lib, instr, ledger, label, tp, inst0):
    """Radius ceiling with the bench defaults; its incumbent is certified
    at the radius it claims."""

    def work():
        config = lib.bnc.BncConfig(gap_tol=GAP_TOL, node_limit=THETA_MAX_NODE_LIMIT,
                                   node_selection="depth-first")
        tmax = lib.formulations.theta_max(inst0, matrix="compact", config=config)
        return tmax, instr.solves[-1]

    op, out = ledger.run("solve", label, work)
    if out is None:
        return op, None, None
    tmax, counters = out
    op.problems += certify_point(lib, lib.transport.to_drccp(tp, theta=tmax), counters["x"])
    row = _solve_row(label, counters, op.ok)
    ledger.solves.append(row)
    return op, row, tmax


def check_objectives(checked, reference_optima=()):
    """Each (op, row) pair solved the same model.  Optimal objectives must
    agree with each other and with the reference optima; any incumbent
    must be no better than a proven optimum.  Limit stops are fine."""
    optima = [row["objective"] for _, row in checked if row["status"] == "optimal"]
    optima += list(reference_optima)
    if not optima:
        return
    best = min(optima)
    for op, row in checked:
        obj = row["objective"]
        if obj is None:
            continue
        if row["status"] == "optimal":
            off = [o for o in optima if not agree(obj, o)]
            if off:
                op.problems.append(f"objective {obj:.12g} differs from {off[0]:.12g}")
        elif obj < best and not agree(obj, best):
            op.problems.append(f"incumbent {obj:.12g} beats the optimum {best:.12g}")


# ---------------------------------------------------------------------------
# Set-up (inputs and preprocessing, timed as setup_s)
# ---------------------------------------------------------------------------

def _cell(lib, cell, base):
    nf, nd, ns = cell
    tp = lib.transport.generate(nf, nd, ns, lib.bench.cell_seed(base, nf, nd, ns, 0), EPSILON)
    inst0 = lib.transport.to_drccp(tp, theta=START_THETA)
    return SimpleNamespace(cell=cell, tp=tp, inst0=inst0,
                           quant=lib.formulations.compute_quantiles(inst0),
                           big_m=lib.transport.transport_big_m(tp))


def _plans(tp, count, supply, seed):
    """Shipping plans: each center gets a supply drawn from `supply` times
    its mean demand, split over the factories at random."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    nd = tp.mu.size
    out = []
    for _ in range(count):
        total = tp.mu * rng.uniform(*supply, size=nd)
        share = rng.dirichlet(np.ones(tp.cost.shape[0]), size=nd).T
        out.append((share * total).reshape(-1))
    return out


def prepare(lib, spec, base, seed):
    if isinstance(spec, GridSpec):
        return SimpleNamespace(grid=_cell(lib, spec.cell, base),
                               enum=_cell(lib, spec.enum.cell, base))
    plan_cell = _cell(lib, spec.plan_cell, seed)
    nf, nd, ns = spec.plan_cell
    return SimpleNamespace(
        build=_cell(lib, spec.build_cell, seed),
        plan_inst=lib.transport.to_drccp(plan_cell.tp, theta=spec.plan_theta),
        plans=_plans(plan_cell.tp, spec.plans, spec.plan_supply,
                     lib.bench.cell_seed(seed, nf, nd, ns, 1)),
        enum=_cell(lib, spec.enum.cell, base),
    )


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def enumeration_check(lib, instr, ledger, spec: EnumSpec, cell):
    """Support enumeration and branch and cut must find the same optimum."""
    _, _, tmax = solve_theta_max(lib, instr, ledger, "enum/theta_max", cell.tp, cell.inst0)
    if tmax is None:
        return
    theta = lib.formulations.theta_grid(tmax)[ENUM_THETA_INDEX - 1]
    inst = lib.transport.to_drccp(cell.tp, theta=theta)
    op, enum = ledger.run("enumerate", "enum/supports",
                          lambda: lib.oracles.enumerate_optimal(inst, big_m=cell.big_m))
    checked = [solve_arm(lib, instr, ledger, f"enum/{arm}", inst, arm, cell.big_m, cell.quant)
               for arm in spec.arms]
    checked = [(o, r) for o, r in checked if r is not None]
    if enum is None:
        return
    if enum.status != "optimal":
        op.problems.append(f"enumeration status {enum.status}")
        return
    check_objectives(checked, [enum.objective])
    if any(r["status"] == "optimal" and not agree(r["objective"], enum.objective)
           for _, r in checked):
        op.problems.append(f"enumeration optimum {enum.objective:.12g} not matched")


def grid_pass(lib, instr, ledger, spec: GridSpec, prep, reference):
    cell = prep.grid
    op, row, tmax = solve_theta_max(lib, instr, ledger, "theta_max", cell.tp, cell.inst0)
    ref = reference.get("theta_max")
    if row is not None and ref and not agree(row["objective"], ref["objective"]):
        op.problems.append(f"theta_max {row['objective']:.12g} differs from the "
                           f"reference {ref['objective']:.12g}")
    if tmax is not None:
        grid = lib.formulations.theta_grid(tmax)
        for idx in spec.theta_indices:
            inst = lib.transport.to_drccp(cell.tp, theta=grid[idx - 1])
            checked = [solve_arm(lib, instr, ledger, f"{idx}/{arm}", inst, arm,
                                 cell.big_m, cell.quant) for arm in spec.arms]
            ref_optima = [r["objective"] for key, r in reference.items()
                          if key.split("/")[0] == str(idx) and r["status"] == "optimal"]
            check_objectives([(o, r) for o, r in checked if r is not None], ref_optima)
    enumeration_check(lib, instr, ledger, spec.enum, prep.enum)


def _build_op(lib, cell, kind):
    model = lib.formulations.build_formulation(cell.inst0, kind, big_m=cell.big_m,
                                               quant=cell.quant)
    c, A, senses, b, lb, ub = model.to_dense()
    shape = (model.num_constraints, model.num_vars)
    problems = []
    if A.shape != shape or c.size != shape[1] or len(senses) != shape[0]:
        problems.append(f"to_dense shape {A.shape} for a {shape} model")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        problems.append("to_dense produced non-finite data")
    if np.any(lb > ub):
        problems.append("crossed variable bounds")
    return problems


def _plan_op(lib, inst, x):
    dist = lib.model.distance_profile(inst, x)
    wcp = lib.oracles.worst_case_prob(dist, inst.theta)
    cert = lib.oracles.lemma_certificate(dist, inst.epsilon, inst.theta)
    loss = -lib.model.margins(inst, x).min(axis=1)
    cv = lib.oracles.cvar(loss, inst.epsilon)
    problems = []
    if abs(wcp - inst.epsilon) > BOUNDARY_TOL and cert.feasible != (wcp <= inst.epsilon):
        problems.append(f"lemma says feasible={cert.feasible}, worst_case_prob {wcp:.9g}")
    if not math.isclose(cv.value, cv.dual_value, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"cvar primal {cv.value:.12g} != dual {cv.dual_value:.12g}")
    return problems


def certify_pass(lib, instr, ledger, spec: CertifySpec, prep):
    for kind in lib.formulations.FORMULATION_KINDS:
        op, problems = ledger.run("build", f"build/{kind}",
                                  lambda: _build_op(lib, prep.build, kind))
        op.problems += problems or []
    for j, x in enumerate(prep.plans):
        op, problems = ledger.run("certify", f"plan/{j}",
                                  lambda: _plan_op(lib, prep.plan_inst, x))
        op.problems += problems or []
    enumeration_check(lib, instr, ledger, spec.enum, prep.enum)


def run_pass(lib, instr, spec, prep, reference) -> Ledger:
    ledger = Ledger()
    if isinstance(spec, GridSpec):
        grid_pass(lib, instr, ledger, spec, prep, reference)
    else:
        certify_pass(lib, instr, ledger, spec, prep)
    return ledger


COUNTER_KEYS = ("label", "status", "nodes", "iterations", "pivots", "cuts")


def counters(ledger: Ledger) -> list:
    """The deterministic part of every solve row."""
    return [{k: row[k] for k in COUNTER_KEYS} for row in ledger.solves]
