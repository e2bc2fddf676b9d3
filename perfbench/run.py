"""Benchmark of the drccp solver stack, run from the root of a checkout.

    python3 perfbench/run.py --workload grid-narrow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

One run: a few timed set-ups (fresh import of drccp from ./src, input
generation and preprocessing), then whole passes over the workload until
the next pass would end after --seconds (at least one pass).  Set-up and
pass times are host-speed adjusted (hostspeed.py); the raw ones are
printed and recorded next to them.  Every operation's result is checked.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  Per-solve counters, the environment and (traced) the spans
are written under perfbench/out/.  The exit code is 0 only if every check
passed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 7
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# printed next to the BENCHMARK.json metrics, not part of the result line
EXTRA_UNITS = {"fail_share": "ratio", "cuts.separate_hits": "count",
               "raw_wall_s": "s", "raw_setup_s": "s", "probe_ms": "ms"}


def pin_blas_threads():
    """Must run before numpy is imported: the simplex search path depends on
    the BLAS thread count (a different count gives a different node count)."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "cpus": os.cpu_count(),
    }


def benchmark_metrics() -> dict:
    """Metric names and units per kind, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _number(v):
    return int(v) if isinstance(v, float) and v.is_integer() and abs(v) < 2**53 else v


def measure(name, base, seed, seconds, trace):
    """One run of one workload; returns (record, end-to-end, per-layer)."""
    import hostspeed
    import layers
    import workloads

    spec = workloads.WORKLOADS[name]
    reference = workloads.load_reference(base).get(name, {})
    instr = layers.Instrument(timed=bool(trace))
    # Traced runs probe only around a phase, so no probe lands inside a span.
    meter = hostspeed.Meter(period=None if trace else hostspeed.PERIOD)
    for _ in range(hostspeed.WINDOW):
        hostspeed.probe()  # warm-up
    setup_raw_times, setup_times = [], []
    for _ in range(SETUPS):
        instr.uninstall()
        instr.reset()
        lib, raw1, adj1 = meter.measure(lambda: workloads.load_library(ROOT / "src"))
        instr.install(lib)
        prep, raw2, adj2 = meter.measure(lambda: workloads.prepare(lib, spec, base, seed))
        setup_raw_times.append(raw1 + raw2)
        setup_times.append(adj1 + adj2)
    setup_raw = layers.layer_metrics(instr)
    setup_spans = list(instr.spans)
    instr.reset()

    ledgers, raw_times, pass_times, spent = [], [], [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ledger, raw, adjusted = meter.measure(
            lambda: workloads.run_pass(lib, instr, spec, prep, reference))
        raw_times.append(raw)
        pass_times.append(adjusted)
        ledgers.append(ledger)
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() - started + max(spent) > seconds:
            break
    instr.uninstall()

    first = workloads.counters(ledgers[0])
    for k, ledger in enumerate(ledgers[1:], start=2):
        if workloads.counters(ledger) != first:
            ledger.ops[0].problems.append(f"pass {k} counters differ from pass 1")
    ops = [op for ledger in ledgers for op in ledger.ops]
    failed = [op for ledger in ledgers for op in ledger.failed]
    rows = [row for ledger in ledgers for row in ledger.solves]
    wall = statistics.median(pass_times)
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "raw_wall_s": statistics.median(raw_times),
        "raw_setup_s": statistics.median(setup_raw_times),
        "probe_ms": 1000 * statistics.median(meter.probes),
        "solved_share": sum(r["status"] == "optimal" for r in rows) / len(rows),
        "incumbent_share": sum(bool(r["certified"]) for r in rows) / len(rows),
        "ok_share": 1.0 - len(failed) / len(ops),
        "fail_share": len(failed) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {}
    if trace:
        n = len(ledgers)
        measured = layers.layer_metrics(instr, layers.wrapper_costs())
        raw = {k: setup_raw[k] + v / n for k, v in measured.items()}
        per_layer = {k: _number(v) for k, v in layers.finish_layer_metrics(raw).items()}
        per_layer["trace.wall_s"] = wall
        per_layer["host.raw_wall_s"] = statistics.median(raw_times)
        per_layer["host.probe_ms"] = 1000 * statistics.median(meter.probes)
    record = {
        "workload": name, "base": base, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "passes": pass_times, "setups": setup_times,
        "raw_passes": raw_times, "raw_setups": setup_raw_times, "probes": meter.probes,
        "attempted": len(ops), "failed": len(failed),
        "failures": [f"{op.label}: {p}" for op in failed for p in op.problems],
        "solves": ledgers[0].solves,
        "reference_counters": _reference_drift(first, reference),
        "metrics": end_to_end if not trace else per_layer,
    }
    if trace:
        record["spans"] = [setup_spans, instr.spans]
    return record, end_to_end, per_layer


def _reference_drift(rows, reference):
    """Solves whose counters differ from the recorded ones (not a failure:
    a change may mean to alter the search, and then it says so)."""
    if not reference:
        return "none recorded"
    drift = []
    for row in rows:
        ref = reference.get(row["label"])
        if ref is None:
            continue
        diff = {k: (ref[k], row[k]) for k in ("status", "nodes", "iterations", "pivots", "cuts")
                if ref[k] != row[k]}
        if diff:
            drift.append({"label": row["label"], "reference_vs_now": diff})
    return drift or "same"


def write_record(record):
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for phase, items in zip(("setup", "pass"), spans):
                for name, start, end, parent, solve_id in items:
                    fh.write(json.dumps({"phase": phase, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "solve": solve_id}) + "\n")


def print_report(record, values, units):
    env = record["environment"]
    print(f"# {record['workload']} base={record['base']} seed={record['seed']} "
          f"trace={record['trace']} numpy={env['numpy']} blas={env['blas']} "
          f"{env['blas_version']} threads={env['threads']['OPENBLAS_NUM_THREADS']}")
    print(f"# passes={len(record['passes'])} setups={len(record['setups'])} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for row in record["solves"]:
        cuts = ",".join(f"{k}={v}" for k, v in row["cuts"].items()) or "-"
        print(f"solve {row['label']:<22} {row['status']:<13} nodes={row['nodes']:<5} "
              f"iterations={row['iterations']:<6} pivots={row['pivots']:<6} cuts={cuts}")
    drift = record["reference_counters"]
    print(f"# counters vs reference: {drift if isinstance(drift, str) else len(drift)}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    for name, value in values.items():
        print(f"metric {name} {value} {units.get(name, '')}")


def run_one(args):
    if not (ROOT / "src" / "drccp" / "__init__.py").is_file():
        sys.exit(f"no drccp package under {ROOT / 'src'}: run from the root of a checkout")
    pin_blas_threads()
    sys.path.insert(0, str(HERE))
    known = benchmark_metrics()
    record, end_to_end, per_layer = measure(args.workload, args.base, args.seed,
                                            args.seconds, args.trace)
    kind = "per_layer" if args.trace else "end_to_end"
    units = known[kind]
    computed = per_layer if args.trace else end_to_end
    missing = sorted(set(units) - set(computed))
    if missing:
        raise SystemExit(f"metrics listed in BENCHMARK.json but not computed: {missing}")
    write_record(record)
    extra = {k: v for k, v in computed.items() if k not in units}
    print_report(record, {**{k: computed[k] for k in units}, **extra},
                 {**units, **EXTRA_UNITS})
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": computed[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload untraced, then traced, each in its own process."""
    import workloads

    summary, ok = {}, True
    for name in workloads.WORKLOADS:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--base", str(args.base),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            ok = ok and proc.returncode == 0
            try:
                results.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
            except (IndexError, KeyError, json.JSONDecodeError):
                results.append({})
        plain, traced = results
        if "wall_s" in plain and "trace.wall_s" in traced:
            wall, twall = plain["wall_s"]["value"], traced["trace.wall_s"]["value"]
            est = traced["trace.overhead_s"]["value"]
            selfs = {k: v["value"] for k, v in traced.items() if k.endswith(".self_s")}
            covered = sum(selfs.values())
            print(f"## {name}: wall_s {wall:.3f}  traced {twall:.3f}  "
                  f"tracing overhead {twall - wall:+.3f} s ({(twall - wall) / wall:+.1%}), "
                  f"{est:.3f} s counted from the wrappers")
            for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
                print(f"##   {k:<22} {v:8.3f} s  {v / covered:6.1%} of layer self time")
            summary[name] = {"wall_s": wall, "trace_wall_s": twall, "self_s": selfs}
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-narrow", "grid-wide", "certify-scale", "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: draws the seeded inputs (certify-scale, enumeration check)")
    parser.add_argument("--base", type=int, default=20240801,
                        help="base seed of the branch-and-cut grid cells")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        sys.path.insert(0, str(HERE))
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
