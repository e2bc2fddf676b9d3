"""Command line front end.

Subcommands: gen (write a transport instance), solve (run one formulation
with optional cuts, starting from its CVaR plan), bench (grid harness),
oracle (independent feasibility audit of a candidate plan).

Exit codes: 0 success (including solves stopped at a limit with an
incumbent), 2 infeasible, 3 stopped with no incumbent, 64 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench as bench_mod
from .bnc import BncConfig, solve as bnc_solve
from .constants import FEAS_TOL
from .cuts import SEPARATORS, format_cut
from .formulations import FORMULATION_KINDS, build_formulation, compute_quantiles
from .model import NORM_KINDS, distance_profile, read_instance, save_instance
from .oracles import lemma_certificate, worst_case_prob
from .transport import generate, to_drccp

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NO_INCUMBENT = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drccp", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a transport instance")
    gen.add_argument("--factories", type=int, required=True)
    gen.add_argument("--centers", type=int, required=True)
    gen.add_argument("--samples", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--epsilon", type=float, default=0.1)
    gen.add_argument("--theta", type=float, default=0.001)
    gen.add_argument("--norm", choices=NORM_KINDS, default="two")
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance")
    solve.add_argument("--formulation", choices=FORMULATION_KINDS, default="compact")
    solve.add_argument("--cuts", default="none",
                       help="comma list from {mixing,path}, or 'none'")
    defaults = BncConfig()
    solve.add_argument("--gap-tol", type=float, default=defaults.gap_tol)
    solve.add_argument("--time-limit", type=float, default=defaults.time_limit)
    solve.add_argument("--node-limit", type=int, default=defaults.node_limit)
    solve.add_argument("--out", default=None, help="write the result as JSON")
    solve.add_argument("--dump-model", default=None, help="write the model text dump")
    solve.add_argument("--dump-cuts", default=None, help="write emitted cut lines")
    solve.add_argument("--log-events", default=None, help="write search event lines")

    ben = sub.add_parser("bench", help="run the benchmark grid")
    ben.add_argument("--config", default=None, help="JSON config file")
    ben.add_argument("--out", default=None, help="results CSV path")
    ben.add_argument("--aggregate", default=None, help="aggregated CSV path")
    ben.add_argument("--write-default-config", default=None,
                     help="write the default config JSON and exit")

    orc = sub.add_parser("oracle", help="audit a candidate plan")
    orc.add_argument("instance")
    orc.add_argument("--x", required=True,
                     help="JSON file with the plan (a list, or an object with an 'x' key)")
    return parser


def _cmd_gen(args) -> int:
    tp = generate(args.factories, args.centers, args.samples, args.seed, args.epsilon)
    inst = to_drccp(tp, theta=args.theta, norm=args.norm)
    save_instance(inst, args.out)
    print(f"wrote {args.out}: L={inst.dim_x} P={inst.p} N={inst.n} "
          f"epsilon={inst.epsilon:g} theta={inst.theta:g}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    families = [] if args.cuts == "none" else [s for s in args.cuts.split(",") if s]
    for fam in families:
        if fam not in SEPARATORS:
            raise ValueError(f"unknown cut family {fam!r}; "
                             f"choose from {', '.join(SEPARATORS)} or none")
    quant = compute_quantiles(inst)  # one record for the model rows and the separators
    model = build_formulation(inst, args.formulation, quant=quant)
    if args.dump_model:
        with open(args.dump_model, "w", encoding="utf-8") as fh:
            fh.write(model.to_text())
    seps = [cls(inst, quant) for name, cls in SEPARATORS.items() if name in families]
    config = BncConfig(
        gap_tol=args.gap_tol,
        time_limit=args.time_limit,
        node_limit=args.node_limit,
        log_events=args.log_events is not None,
    )
    result = bnc_solve(model, seps, config)
    if args.dump_cuts:
        with open(args.dump_cuts, "w", encoding="utf-8") as fh:
            for sep in seps:
                for cut in sep.emitted:
                    fh.write(format_cut(cut) + "\n")
    if args.log_events:
        with open(args.log_events, "w", encoding="utf-8") as fh:
            for line in result.events:
                fh.write(line + "\n")
    payload = {
        "status": result.status,
        "objective": result.objective,
        "bound": result.bound,
        "gap_pct": result.gap_pct,
        "nodes": result.nodes,
        "iterations": result.iterations,
        "root_bound": result.root_bound,
        "root_gap_pct": result.root_gap_pct,
        "cuts": result.cuts,
        "x": None if result.x is None else [float(v) for v in result.x],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    obj_s = "n/a" if result.objective is None else f"{result.objective:.10g}"
    print(f"status={result.status} objective={obj_s} nodes={result.nodes} "
          f"iterations={result.iterations}")
    if result.status == "infeasible":
        return EXIT_INFEASIBLE
    if result.status == "no-incumbent":
        return EXIT_NO_INCUMBENT
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.write_default_config:
        bench_mod.write_default_config(args.write_default_config)
        print(f"wrote {args.write_default_config}")
        return EXIT_OK
    config = bench_mod.load_config(args.config) if args.config else bench_mod.default_config()
    rows = bench_mod.run_experiments(config, csv_path=args.out, aggregate_path=args.aggregate)
    print(f"ran {len(rows)} solves")
    if args.out:
        print(f"wrote {args.out}")
    if args.aggregate:
        print(f"wrote {args.aggregate}")
    return EXIT_OK


def _domain_miss(dom, x):
    """(the domain row or bound that x misses worst, by how much), with each
    miss measured against FEAS_TOL * max(1, |rhs|); None when x lies in the
    domain within that tolerance."""
    rhs = np.concatenate([dom.g, dom.lb, dom.ub])
    miss = np.concatenate([dom.G @ x - dom.g, dom.lb - x, x - dom.ub])
    scale = np.maximum(1.0, np.abs(np.where(np.isfinite(rhs), rhs, 0.0)))
    k = int(np.argmax(miss / scale))
    if miss[k] <= FEAS_TOL * scale[k]:
        return None
    m, dim = dom.g.size, x.size
    if k < m:
        what = f"row {k} of G x <= g ({dom.g[k]:.10g})"
    elif k < m + dim:
        what = f"x[{k - m}] >= {dom.lb[k - m]:.10g}"
    else:
        what = f"x[{k - m - dim}] <= {dom.ub[k - m - dim]:.10g}"
    return what, float(miss[k])


def _cmd_oracle(args) -> int:
    inst = read_instance(args.instance)
    with open(args.x, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["x"]
    x = np.asarray(data, dtype=float)
    if x.size != inst.dim_x:
        raise ValueError(f"plan has {x.size} entries, the instance needs {inst.dim_x}")
    if not np.isfinite(x).all():
        raise ValueError("plan entries must be finite")
    dists = distance_profile(inst, x)
    prob = worst_case_prob(dists, inst.theta)
    cert = lemma_certificate(dists, inst.epsilon, inst.theta)
    print(f"worst-case violation probability: {prob:.10g}")
    print(f"risk level epsilon:               {inst.epsilon:.10g}")
    print(f"certificate threshold t:          {cert.t:.10g}")
    print(f"certificate budget slack:         {cert.budget_slack:.10g}")
    outside = _domain_miss(inst.domain, x)
    if outside is None:
        print("domain (lb <= x <= ub, G x <= g): satisfied")
    else:
        print(f"domain (lb <= x <= ub, G x <= g): {outside[0]} missed by {outside[1]:.10g}")
    feasible = cert.feasible and outside is None
    print(f"verdict: {'feasible' if feasible else 'infeasible'}")
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"drccp {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
