"""Checks of the benchmark itself, on cells small enough for the test suite.

The full workloads take minutes; these use the same pass, instrument and
check code on tiny cells.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import layers
import workloads
from workloads import EnumSpec, GridSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY = GridSpec(cell=(2, 2, 10), theta_indices=(1, 6), arms=("basic", "mixingpath"),
                enum=EnumSpec((2, 2, 10), ("improved",)))


def _run(spec, timed, seed=3):
    lib = workloads.library()
    instr = layers.Instrument(timed=timed)
    instr.install(lib)
    try:
        prep = workloads.prepare(lib, spec, 20240801, seed)
        ledger = workloads.run_pass(lib, instr, spec, prep, reference={})
    finally:
        instr.uninstall()
    return ledger, instr


def test_counters_repeat_and_tracing_leaves_the_search_alone():
    first, _ = _run(TINY, timed=False)
    second, _ = _run(TINY, timed=False)
    traced, instr = _run(TINY, timed=True)
    assert not first.failed, [op.problems for op in first.failed]
    rows = workloads.counters(first)
    assert [r["label"] for r in rows] == [
        "theta_max", "1/basic", "1/mixingpath", "6/basic", "6/mixingpath",
        "enum/theta_max", "enum/improved"]
    assert all(r["nodes"] > 0 and r["iterations"] > 0 and r["pivots"] > 0 for r in rows)
    assert workloads.counters(second) == rows
    assert workloads.counters(traced) == rows
    metrics = layers.finish_layer_metrics(layers.layer_metrics(instr))
    assert metrics["bnc.solve_calls"] == len(rows)
    assert metrics["bnc.nodes"] == sum(r["nodes"] for r in rows)
    assert metrics["simplex.pivots"] >= sum(r["pivots"] for r in rows)
    assert metrics["oracles.enumerate_supports"] > 0


def test_wrappers_are_removed():
    lib = workloads.library()
    before = (lib.bnc.solve, lib.simplex.SimplexSolver.solve, lib.cuts.MixingSeparator.separate)
    _run(TINY, timed=True)
    assert (lib.bnc.solve, lib.simplex.SimplexSolver.solve,
            lib.cuts.MixingSeparator.separate) == before
    assert "separate" not in vars(lib.cuts.MixingSeparator)


def test_self_time_subtracts_children():
    spans = [("bnc.solve", 0.0, 10.0, -1, 0), ("simplex.solve", 1.0, 4.0, 0, 0),
             ("cuts.separate", 5.0, 6.0, 0, 0)]
    incl, self_s = layers.span_totals(spans)
    assert incl["bnc.solve"] == 10.0
    assert self_s["bnc"] == 6.0 and self_s["simplex"] == 3.0 and self_s["cuts"] == 1.0


def test_checks_catch_wrong_answers():
    ops = [workloads.Op("solve", str(i)) for i in range(3)]
    rows = [{"status": "optimal", "objective": 10.0},
            {"status": "optimal", "objective": 10.0 + 1e-3},
            {"status": "feasible-gap", "objective": 9.0}]
    workloads.check_objectives(list(zip(ops, rows)))
    assert not ops[0].ok and not ops[1].ok and not ops[2].ok

    ok = [workloads.Op("solve", "a")]
    workloads.check_objectives([(ok[0], {"status": "optimal", "objective": 5.0})], [5.0 + 1e-9])
    assert ok[0].ok

    lib = workloads.library()
    cell = workloads.prepare(lib, TINY, 20240801, 3).grid
    inst = lib.transport.to_drccp(cell.tp, theta=0.01)
    assert workloads.certify_point(lib, inst, np.zeros(inst.dim_x))  # ships nothing


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, instr = _run(GridSpec(cell=(2, 2, 8), theta_indices=(6,), arms=("improved",),
                             enum=EnumSpec((2, 2, 8), ("improved",))), timed=True)
    computed = set(layers.finish_layer_metrics(layers.layer_metrics(instr))) | {
        "trace.wall_s", "host.raw_wall_s", "host.probe_ms"}
    listed = {m["name"] for m in spec["per_layer"]}
    assert listed <= computed
    assert {"wall_s", "setup_s"} <= {m["name"] for m in spec["end_to_end"]}


def test_meter_leaves_probes_out_and_restores_the_alarm():
    import signal
    import time

    meter = hostspeed.Meter(period=0.02)

    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        return "done"

    out, raw, adjusted = meter.measure(busy)
    assert out == "done"
    assert len(meter.stretches) > 3  # the alarm fired during the phase
    assert 0.05 < raw < 0.3          # the probes inside busy() are left out
    assert adjusted > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
