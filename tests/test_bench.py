"""Benchmark harness tests: seeding, config handling, CSV output, aggregation.

run_cell/run_experiments checks use tiny grids so the whole module stays
fast; the statistical claims about larger grids live in the acceptance
tests.
"""
import itertools
import math
import re

import pytest

from drccp import bench, bnc
from drccp.bnc import BncConfig
from drccp.bench import (
    AGG_COLUMNS,
    CSV_COLUMNS,
    ExperimentConfig,
    VARIANTS,
    aggregate,
    cell_seed,
    default_config,
    load_config,
    read_csv,
    run_cell,
    run_experiments,
    write_csv,
    write_default_config,
)


def tiny_config(**overrides):
    base = dict(
        factories=(2,),
        centers=(2,),
        samples=(6,),
        replications=1,
        theta_indices=(1,),
        variants=("basic", "improved"),
        node_limit=400,
        theta_max_node_limit=400,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- seeding ------------------------------------------------------------------

def test_cell_seed_formula():
    assert cell_seed(7, 2, 3, 10, 4) == 7 * 1000003 + 2 * 1000000 + 3 * 10000 + 10 * 10 + 4


def test_cell_seed_unique_over_documented_ranges():
    seen = set()
    for nf, nd, ns, rep in itertools.product(
        (2, 5, 20, 99), (3, 10, 99), (10, 100, 999), range(10)
    ):
        seen.add(cell_seed(20240801, nf, nd, ns, rep))
    assert len(seen) == 4 * 3 * 3 * 10


def test_cell_seed_distinct_bases():
    assert cell_seed(1, 2, 3, 4, 5) != cell_seed(2, 2, 3, 4, 5)


@pytest.mark.parametrize("overrides, first, second", [
    # rep 10 of N = 50 and rep 0 of N = 51 take 510
    ({"replications": 11, "samples": (50, 51)}, (2, 3, 50, 10), (2, 3, 51, 0)),
    # N = 1001 at D = 2 and N = 1 at D = 3 take 20010
    ({"centers": (2, 3), "samples": (1, 1001)}, (2, 2, 1001, 0), (2, 3, 1, 0)),
])
def test_config_rejects_cells_that_share_a_seed(overrides, first, second):
    assert cell_seed(20240801, *first) == cell_seed(20240801, *second)
    with pytest.raises(ValueError, match=re.escape(f"cells (F, D, N, rep) = {first} and {second} "
                                                   f"share the seed {cell_seed(20240801, *first)}")):
        ExperimentConfig(**overrides)


def test_default_config_cells_have_distinct_seeds():
    cfg = ExperimentConfig()
    cells = list(itertools.product(cfg.factories, cfg.centers, cfg.samples,
                                   range(cfg.replications)))
    assert len({cell_seed(cfg.base_seed, *cell) for cell in cells}) == len(cells) == 8


# -- config -------------------------------------------------------------------

def test_default_config_round_trips_through_json(tmp_path):
    path = tmp_path / "config.json"
    write_default_config(path)
    cfg = load_config(str(path))
    assert cfg == default_config()


def test_load_config_from_dict_and_string():
    assert load_config({"replications": 3}).replications == 3
    assert load_config('{"gap_tol": 0.01}').gap_tol == 0.01


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config({"replication": 3})


def test_config_rejects_bad_theta_index():
    with pytest.raises(ValueError, match="theta indices"):
        ExperimentConfig(theta_indices=(0,))
    with pytest.raises(ValueError, match="theta indices"):
        ExperimentConfig(theta_indices=(11,))


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant"):
        ExperimentConfig(variants=("fancy",))


@pytest.mark.parametrize("field, value, match", [
    ("gap_tol", -0.01, "gap_tol"),
    ("gap_tol", float("nan"), "gap_tol"),
    ("time_limit", -1.0, "time_limit"),
    ("node_limit", -1, "node_limit"),
    ("node_limit", 1.5, "node_limit"),
    ("theta_max_node_limit", -1, "node_limit"),
    ("epsilon", 1.5, "epsilon"),
    ("epsilon", float("nan"), "epsilon"),
    ("replications", -1, "replications"),
    ("replications", 1.5, "replications"),
    ("factories", (0,), "factories"),
    ("samples", (10, 0), "samples"),
    ("factories", (2.7,), "factories"),
    ("centers", (3, 10.0), "centers"),
    ("theta_indices", (1.9,), "theta_indices"),
    ("samples", (True,), "samples"),
    ("replications", True, "replications"),
])
def test_config_rejects_bad_search_options(field, value, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("key, value, match", [
    ("node_selection", "best-bound", r"unknown config keys: \['node_selection'\]"),
    ("branching", "pseudo-cost", r"unknown config keys: \['branching'\]"),
    ("gap_tol", -0.01, "gap_tol"),
])
def test_load_config_rejects_bad_search_options(key, value, match):
    # the bench runs best-bound with the one branching rule: neither is a key
    with pytest.raises(ValueError, match=match):
        load_config({key: value})


@pytest.mark.parametrize("field", ["node_selection", "branching"])
def test_config_has_no_search_rule_fields(field):
    with pytest.raises(TypeError, match=field):
        ExperimentConfig(**{field: "best-bound"})


def test_variant_table_shape():
    assert set(VARIANTS) == {
        "basic", "improved", "mixing", "path", "mixingpath", "basicmixingpath",
    }
    for kind, families in VARIANTS.values():
        assert kind in ("basic", "compact")
        assert set(families) <= {"mixing", "path"}


# -- cells and rows -----------------------------------------------------------

def test_run_cell_proves_theta_max_best_bound(monkeypatch):
    # the grid's radius comes from a best-bound search; a depth-first one
    # proves the same radius
    calls = []
    inner = bench.theta_max

    def spy(inst, matrix="compact", config=None):
        calls.append((inst, config, inner(inst, matrix=matrix, config=config)))
        return calls[-1][2]

    monkeypatch.setattr(bench, "theta_max", spy)
    rows = run_cell(tiny_config(theta_indices=(6,)), 2, 2, 6, 0)
    ((inst, config, radius),) = calls
    assert config.node_selection == "best-bound"
    assert rows[0]["theta"] == pytest.approx(0.5 * radius, abs=1e-15)
    depth_first = inner(inst, config=BncConfig(gap_tol=config.gap_tol, node_limit=config.node_limit,
                                               node_selection="depth-first"))
    assert abs(depth_first - radius) <= 1e-9


def test_run_cell_row_schema():
    rows = run_cell(tiny_config(), 2, 2, 6, 0)
    assert len(rows) == 2  # one theta index x two variants
    for row in rows:
        assert set(row) == set(CSV_COLUMNS)
        assert row["F"] == 2 and row["D"] == 2 and row["N"] == 6
        assert row["theta_idx"] == 1
        assert row["theta"] == 0.001  # grid point one is always 0.001
        assert row["seed"] == cell_seed(20240801, 2, 2, 6, 0)
        assert row["status"] in ("optimal", "feasible-gap", "infeasible",
                                 "no-incumbent", "time-limit")
        # deterministic mode blanks wall-clock readings
        assert row["root_time_s"] is None
        assert row["time_s"] is None


def test_non_deterministic_rows_add_only_the_timers():
    cfg = dict(centers=(3,), samples=(10,), variants=("improved",))
    (row,) = run_cell(tiny_config(deterministic=False, **cfg), 2, 3, 10, 0)
    (ref,) = run_cell(tiny_config(**cfg), 2, 3, 10, 0)
    timers = ("root_time_s", "time_s")
    for name in timers:
        assert isinstance(row[name], float) and math.isfinite(row[name]) and row[name] >= 0.0
        assert ref[name] is None
    assert ({k: v for k, v in row.items() if k not in timers}
            == {k: v for k, v in ref.items() if k not in timers})


def test_every_arm_starts_from_the_cvar_plan(monkeypatch):
    # one node per arm: the root relaxation alone finds no incumbent in the
    # basic arms, so their objectives come from the seed, the CVaR plan that
    # each search solves for itself
    seeds = []
    inner = bnc._Search._seed

    def spy(self):
        seeds.append(inner(self))
        return seeds[-1]

    monkeypatch.setattr(bnc._Search, "_seed", spy)
    cfg = tiny_config(centers=(3,), samples=(10,), theta_indices=(1, 6, 10),
                      variants=tuple(VARIANTS), node_limit=1)
    rows = run_cell(cfg, 2, 3, 10, 0)
    assert len(rows) == 3 * len(VARIANTS)
    for row in rows:
        assert row["status"] in ("optimal", "feasible-gap"), row
        assert math.isfinite(row["obj"]) and row["nodes"] == 1
    # theta_max's search, then one per arm at each of three radii
    assert len(seeds) == 1 + 3 * len(VARIANTS)
    assert all(seed is not None for seed in seeds)


def test_formulations_agree_within_a_cell():
    rows = run_cell(tiny_config(), 2, 2, 6, 0)
    by_variant = {r["variant"]: r for r in rows}
    a, b = by_variant["basic"], by_variant["improved"]
    assert a["status"] == "optimal" and b["status"] == "optimal"
    assert a["obj"] == pytest.approx(b["obj"], abs=1e-6)


def test_run_experiments_row_order_is_canonical(tmp_path):
    cfg = tiny_config(centers=(2, 3), variants=("basic",))
    rows = run_experiments(cfg)
    assert [r["D"] for r in rows] == [2, 3]
    path = tmp_path / "out.csv"
    write_csv(rows, path, CSV_COLUMNS)
    text_a = path.read_bytes()
    write_csv(run_experiments(cfg), path, CSV_COLUMNS)
    assert path.read_bytes() == text_a  # rerun is byte-identical


# -- CSV formatting -----------------------------------------------------------

def test_write_csv_formats_blanks_and_inf(tmp_path):
    rows = [dict.fromkeys(CSV_COLUMNS) | {
        "F": 2, "status": "optimal", "obj": 1.25,
        "gap_pct": float("inf"), "time_s": None,
    }]
    path = tmp_path / "x.csv"
    write_csv(rows, path, CSV_COLUMNS)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert cells["obj"] == "1.25"
    assert cells["gap_pct"] == "inf"
    assert cells["time_s"] == ""
    assert read_csv(path)[0]["obj"] == "1.25"


# -- aggregation --------------------------------------------------------------

def _row(rep, variant="basic", **overrides):
    row = {
        "F": 2, "D": 3, "N": 10, "theta_idx": 1, "theta": 0.001,
        "variant": variant, "seed": rep, "status": "optimal",
        "obj": 10.0, "lb": 10.0, "gap_pct": 0.0, "root_time_s": None,
        "root_gap_pct": 2.0, "time_s": None, "nodes": 5,
        "mixing_cuts": 0, "path_cuts": 0,
    }
    row.update(overrides)
    return row


def test_aggregate_means_by_hand():
    rows = [
        _row(0, obj=10.0, nodes=5, root_gap_pct=2.0),
        _row(1, obj=14.0, nodes=7, root_gap_pct=4.0, status="feasible-gap"),
        _row(0, variant="improved", obj=10.0, nodes=3, root_gap_pct=1.0),
    ]
    agg = aggregate(rows)
    assert len(agg) == 2
    basic = agg[0]
    assert set(basic) == set(AGG_COLUMNS)
    assert basic["variant"] == "basic"
    assert basic["cells"] == 2
    assert basic["solved"] == 1
    assert basic["obj_mean"] == pytest.approx(12.0)
    assert basic["nodes_mean"] == pytest.approx(6.0)
    assert basic["root_gap_mean_pct"] == pytest.approx(3.0)
    assert basic["time_mean_s"] is None  # all blanks stay blank
    improved = agg[1]
    assert improved["cells"] == 1
    assert improved["nodes_mean"] == pytest.approx(3.0)


def test_aggregate_skips_missing_values():
    rows = [_row(0, obj=None, status="no-incumbent"), _row(1, obj=9.0)]
    agg = aggregate(rows)
    assert agg[0]["obj_mean"] == pytest.approx(9.0)
    assert agg[0]["solved"] == 1
