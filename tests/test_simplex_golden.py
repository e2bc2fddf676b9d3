"""Golden pivot paths of the in-package simplex.

The search counters of every branch-and-cut tree depend on the exact pivot
sequence, so a change to the simplex that is meant to be bit-identical must
replay every pivot and reproduce every objective to the last bit.  This
module pins:

* the pivot log and `objective.hex()` of the ten `random_problem` LPs that
  `TestDeterminism` draws;
* the warm-start sequences of `TestWarmStart`: `add_row` then re-solve, and
  `set_bound` plus `load_state` then re-solve;
* status, objective, nodes, LP iterations and pivots of the four arms of the
  benchmark's grid-narrow cell (F=2, D=3, N=50) at theta index 6.  Their
  radius comes from the cell's `theta_max` optimum recorded in
  `perfbench/reference.json`, so `theta_max` itself is not re-solved here.
  The pinned values are those of the inverse that stores only its
  structural columns, after `load_state` installing a stored basis by block
  refactorization, the dual simplex for warm re-solves and the long-step
  phase-1 ratio test; these and the block-structured refactorization
  before them moved the pivot path away from the counters in
  `reference.json`, so the arms are also checked
  against that file's statuses and objectives (within 1e-6 relative), which
  no change to the pivot path may move.

The digests belong to this numpy/OpenBLAS build (numpy 2.4.6 with
scipy-openblas 0.3.31, Haswell kernels, x86-64).  BLAS kernels choose their
own summation order, so another BLAS, another version or another thread
count may legally round a product differently and take another pivot path;
regenerate the digests there with the parent commit of the change under
test.  The grid arms run in a subprocess with one BLAS thread, as the
benchmark does, because the thread count changes the rounding of the
larger matrix-vector products.

Digests are sha256 prefixes of the `repr` of plain Python records.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from drccp.simplex import SimplexSolver, solve_lp
from test_simplex import random_problem, recorded_pivots

SRC = Path(__file__).resolve().parents[1] / "src"


def _sha(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def _hex(value):
    return None if value is None or math.isnan(value) else float(value).hex()


def _pivots(log):
    return tuple((int(q), int(out)) for q, out in log)


def _solve_record(log, sol):
    """Status, objective bits, iterations and the pivots since the last record."""
    record = (sol.status, _hex(sol.objective), sol.iterations, _pivots(log))
    log.clear()
    return record


# -- the ten TestDeterminism LPs ---------------------------------------------

REPLAY = [
    # status, objective.hex(), digest of the pivot log
    ("optimal", "-0x1.d55d753c0c24fp+1", "598cf1220889494d"),
    ("optimal", "-0x1.62b6d0f2cd9f1p+2", "0b77a16605fb09db"),
    ("optimal", "0x1.967be1f1e45acp-1", "da01ec5927510914"),
    ("optimal", "0x1.7a3e997d63d03p-2", "08d93f5a8a711244"),
    ("optimal", "-0x1.c154d4d62ecedp+4", "a150a9f6a678f6a4"),
    ("optimal", "0x1.4f44ab0a5d9c3p+1", "0030c4933401d3a7"),
    ("optimal", "0x1.0dfdbac314eaap+0", "77a48749b4f15df1"),
    ("optimal", "-0x1.2372f1e5a2f8ep-4", "65f2ec59bd9f018c"),
    ("optimal", "-0x1.0f38abafe95e2p+3", "cec7624fb9382053"),
    ("optimal", "-0x1.8ca27dbf26e50p+2", "fa8747e6cd2c1722"),
]


def replay_records():
    rng = np.random.default_rng(1234)
    out = []
    for _ in range(10):
        with recorded_pivots() as log:
            sol = solve_lp(random_problem(rng))
        objective = _hex(sol.objective) if sol.status == "optimal" else None
        out.append((sol.status, objective, _sha(_pivots(log))))
    return out


def test_pivot_replay_matches_golden():
    assert replay_records() == REPLAY


# -- the TestWarmStart sequences ---------------------------------------------

ADD_ROW_DIGEST = "70750a8b51d40311"
SET_BOUND_DIGEST = "adabf02a0e52f929"


def add_row_records():
    """Solve, append a row that cuts the optimum off, re-solve warm."""
    rng = np.random.default_rng(42)
    out = []
    with recorded_pivots() as log:
        for _ in range(30):
            prob = random_problem(rng, allow_equalities=False)
            solver = SimplexSolver(prob)
            first = solver.solve()
            out.append(_solve_record(log, first))
            if first.status != "optimal":
                continue
            row = np.round(rng.normal(size=prob.num_cols), 3)
            solver.add_row(row, "<=", row @ first.x - 0.25)
            out.append(_solve_record(log, solver.solve()) + (solver.total_pivots,))
    return out


def set_bound_records():
    """Solve, fix a bound and re-solve, restore bound and basis, re-solve."""
    rng = np.random.default_rng(4242)
    prob = random_problem(rng, allow_equalities=False)
    solver = SimplexSolver(prob)
    with recorded_pivots() as log:
        out = [_solve_record(log, solver.solve())]
        state = solver.get_state()
        fixed = prob.ub[0] if math.isfinite(prob.ub[0]) else 1.0
        solver.set_bound(0, fixed, fixed)
        out.append(_solve_record(log, solver.solve()))
        solver.set_bound(0, prob.lb[0], prob.ub[0])
        solver.load_state(*state)
        # the install takes no pivots, so total_pivots stays as it was
        out.append((solver.total_pivots, tuple(int(j) for j in solver.basis),
                    tuple(int(s) for s in solver.stat)))
        out.append(_solve_record(log, solver.solve()))
    out.append(solver.total_pivots)
    return out


def test_add_row_warm_start_matches_golden():
    assert _sha(add_row_records()) == ADD_ROW_DIGEST


def test_set_bound_and_reload_match_golden():
    assert _sha(set_bound_records()) == SET_BOUND_DIGEST


# -- grid-narrow, theta index 6 ----------------------------------------------

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
GRID_THETA_MAX = 0.1676598856181914  # perfbench/reference.json, grid-narrow theta_max
GRID_ARMS = {
    # arm: (status, repr(objective), nodes, iterations, pivots)
    "basic": ("optimal", "39.10998585393153", 83, 1854, 1796),
    "improved": ("optimal", "39.10998585393173", 25, 186, 171),
    "mixingpath": ("optimal", "39.10998585393173", 21, 200, 183),
    "basicmixingpath": ("optimal", "39.10998585393153", 25, 511, 487),
}

_GRID_SCRIPT = """
import json, sys
from drccp import bench, bnc, cuts, formulations, simplex, transport

theta_max, arms = float(sys.argv[1]), sys.argv[2:]
tp = transport.generate(2, 3, 50, bench.cell_seed(20240801, 2, 3, 50, 0), 0.1)
quant = formulations.compute_quantiles(transport.to_drccp(tp, theta=0.001))
big_m = transport.transport_big_m(tp)
inst = transport.to_drccp(tp, theta=formulations.theta_grid(theta_max)[5])
solvers = []
init = simplex.SimplexSolver.__init__

def tracked(self, *args, **kwargs):
    init(self, *args, **kwargs)
    solvers.append(self)

simplex.SimplexSolver.__init__ = tracked
separators = {"mixing": cuts.MixingSeparator, "path": cuts.PathSeparator}
out = {}
for arm in arms:
    kind, families = bench.VARIANTS[arm]
    model = formulations.build_formulation(inst, kind, big_m=big_m, quant=quant)
    del solvers[:]
    res = bnc.solve(model, [separators[f](inst, quant) for f in families],
                    bnc.BncConfig(gap_tol=1e-4, node_limit=1500))
    out[arm] = [res.status, repr(res.objective), res.nodes, res.iterations,
                sum(s.total_pivots for s in solvers)]
print(json.dumps(out))
"""


def grid_records():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _GRID_SCRIPT, repr(GRID_THETA_MAX), *GRID_ARMS],
        env=env, capture_output=True, text=True, timeout=600, check=True)
    return {arm: tuple(rec) for arm, rec in json.loads(proc.stdout.splitlines()[-1]).items()}


def test_grid_narrow_theta6_arms_match_reference():
    records = grid_records()
    assert records == GRID_ARMS
    recorded = json.loads(REFERENCE.read_text())["workloads"]["grid-narrow"]
    assert recorded["theta_max"]["objective"] == GRID_THETA_MAX
    for arm, (status, objective, *_) in records.items():
        ref = recorded[f"6/{arm}"]
        assert status == ref["status"]
        assert abs(float(objective) - ref["objective"]) <= 1e-6 * abs(ref["objective"])
