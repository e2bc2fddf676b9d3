"""Benchmark harness: grid of transport instances, radius sweep, solver arms.

For every (factories, centers, samples, replication) cell the harness
generates an instance, finds the largest feasible Wasserstein radius, sweeps
a ten-point radius grid (0.001 first, then fractions of the ceiling) and
runs the requested solver arms.  Every arm's search starts from the CVaR
plan, its model's LP with every z at 0 (see `bnc`).
Results land in a flat CSV, one row per (cell, radius index, arm); a second
pass aggregates over replications.

Rows are emitted in a canonical order.  In deterministic mode the
wall-clock columns are left blank so the CSV is byte-for-byte reproducible;
everything else is seed-determined.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, fields

from .bnc import BncConfig, solve
from .cuts import SEPARATORS
from .formulations import build_formulation, compute_quantiles, theta_grid, theta_max
from .transport import generate, to_drccp, transport_big_m

# arm name -> (formulation kind, cut families)
VARIANTS = {
    "basic": ("basic", ()),
    "improved": ("compact", ()),
    "mixing": ("compact", ("mixing",)),
    "path": ("compact", ("path",)),
    "mixingpath": ("compact", ("mixing", "path")),
    "basicmixingpath": ("basic", ("mixing", "path")),
}

CSV_COLUMNS = [
    "F", "D", "N", "theta_idx", "theta", "variant", "seed", "status",
    "obj", "lb", "gap_pct", "root_time_s", "root_gap_pct", "time_s",
    "nodes", "mixing_cuts", "path_cuts",
]

AGG_COLUMNS = [
    "F", "D", "N", "theta_idx", "variant", "cells", "solved",
    "obj_mean", "gap_mean_pct", "root_gap_mean_pct", "nodes_mean",
    "mixing_cuts_mean", "path_cuts_mean", "root_time_mean_s", "time_mean_s",
]

_SEARCH_DEFAULTS = BncConfig()


@dataclass
class ExperimentConfig:
    factories: tuple = (2, 5)
    centers: tuple = (3, 10)
    samples: tuple = (10, 50)
    replications: int = 1
    epsilon: float = 0.1
    theta_indices: tuple = (1, 6, 10)
    variants: tuple = tuple(VARIANTS)
    base_seed: int = 20240801
    gap_tol: float = _SEARCH_DEFAULTS.gap_tol
    time_limit: float | None = None
    node_limit: int | None = 1500
    theta_max_node_limit: int | None = 4000
    deterministic: bool = True

    def __post_init__(self):
        for name in ("factories", "centers", "samples", "theta_indices"):
            values = tuple(getattr(self, name))
            if not all(_is_int(v) for v in values):
                raise ValueError(f"{name} must hold integers, got {values!r}")
            setattr(self, name, tuple(int(v) for v in values))
        self.variants = tuple(self.variants)
        for name in ("factories", "centers", "samples"):
            if min(getattr(self, name), default=1) < 1:
                raise ValueError(f"{name} must be positive")
        if not (_is_int(self.replications) and self.replications >= 1):
            raise ValueError("replications must be a positive integer")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        for idx in self.theta_indices:
            if not 1 <= idx <= 10:
                raise ValueError("theta indices run from 1 to 10")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}")
        # the search options fail here, before any cell is generated
        _bnc_config(self)
        _theta_max_config(self)


def _is_int(value) -> bool:
    """An integer that is not a bool (True would pass for 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def load_config(source) -> ExperimentConfig:
    """Build a config from a dict, a JSON string, or a JSON file path."""
    if isinstance(source, ExperimentConfig):
        return source
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)


def write_default_config(path):
    cfg = default_config()
    data = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for key, val in data.items():
        if isinstance(val, tuple):
            data[key] = list(val)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cell_seed(base: int, nf: int, nd: int, ns: int, rep: int) -> int:
    """Documented seed schedule, collision-free for F < 100, D < 100,
    N < 1000 and under ten replications."""
    return base * 1000003 + nf * 1000000 + nd * 10000 + ns * 10 + rep


def _bnc_config(config: ExperimentConfig) -> BncConfig:
    return BncConfig(
        gap_tol=config.gap_tol,
        time_limit=config.time_limit,
        node_limit=config.node_limit,
    )


def _theta_max_config(config: ExperimentConfig) -> BncConfig:
    return BncConfig(gap_tol=config.gap_tol, node_limit=config.theta_max_node_limit)


def run_cell(config: ExperimentConfig, nf: int, nd: int, ns: int, rep: int) -> list:
    """All CSV rows for one (F, D, N, rep) cell."""
    seed = cell_seed(config.base_seed, nf, nd, ns, rep)
    tp = generate(nf, nd, ns, seed, config.epsilon)
    big_m = transport_big_m(tp)
    base_inst = to_drccp(tp, theta=0.001)
    quant = compute_quantiles(base_inst)
    tmax = theta_max(base_inst, config=_theta_max_config(config))
    grid = theta_grid(tmax)
    rows = []
    for idx in config.theta_indices:
        theta = grid[idx - 1]
        inst = to_drccp(tp, theta=theta)
        for variant in config.variants:
            kind, families = VARIANTS[variant]
            model = build_formulation(inst, kind, big_m=big_m, quant=quant)
            seps = [cls(inst, quant) for name, cls in SEPARATORS.items() if name in families]
            result = solve(model, seps, _bnc_config(config))
            rows.append({
                "F": nf, "D": nd, "N": ns,
                "theta_idx": idx, "theta": theta,
                "variant": variant, "seed": seed,
                "status": result.status,
                "obj": result.objective,
                "lb": result.bound,
                "gap_pct": result.gap_pct,
                "root_time_s": None if config.deterministic else result.root_time_s,
                "root_gap_pct": result.root_gap_pct,
                "time_s": None if config.deterministic else result.time_s,
                "nodes": result.nodes,
                "mixing_cuts": result.cuts.get("mixing", 0),
                "path_cuts": result.cuts.get("path", 0),
            })
    return rows


def run_experiments(config: ExperimentConfig, csv_path=None, aggregate_path=None) -> list:
    rows = [
        row
        for nf in config.factories
        for nd in config.centers
        for ns in config.samples
        for rep in range(config.replications)
        for row in run_cell(config, nf, nd, ns, rep)
    ]
    if csv_path is not None:
        write_csv(rows, csv_path, CSV_COLUMNS)
    if aggregate_path is not None:
        write_csv(aggregate(rows), aggregate_path, AGG_COLUMNS)
    return rows


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf"
        return "%.10g" % value
    return str(value)


def write_csv(rows, path, columns):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in columns])


def read_csv(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _mean(values) -> float | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return sum(vals) / len(vals)


def aggregate(rows) -> list:
    """Replication means per (F, D, N, theta_idx, variant), in input order."""
    groups = {}
    order = []
    for row in rows:
        key = (row["F"], row["D"], row["N"], row["theta_idx"], row["variant"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out = []
    for key in order:
        members = groups[key]
        nf, nd, ns, idx, variant = key
        out.append({
            "F": nf, "D": nd, "N": ns, "theta_idx": idx, "variant": variant,
            "cells": len(members),
            "solved": sum(1 for r in members if r["status"] == "optimal"),
            "obj_mean": _mean([r["obj"] for r in members]),
            "gap_mean_pct": _mean([r["gap_pct"] for r in members]),
            "root_gap_mean_pct": _mean([r["root_gap_pct"] for r in members]),
            "nodes_mean": _mean([r["nodes"] for r in members]),
            "mixing_cuts_mean": _mean([r["mixing_cuts"] for r in members]),
            "path_cuts_mean": _mean([r["path_cuts"] for r in members]),
            "root_time_mean_s": _mean([r["root_time_s"] for r in members]),
            "time_mean_s": _mean([r["time_s"] for r in members]),
        })
    return out
