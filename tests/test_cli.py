"""Command line tests: exit codes, output files, subcommand wiring.

Everything runs through cli.main(argv) in-process; tiny instances keep the
solves fast.
"""
import json

import numpy as np
import pytest

from drccp import bench, formulations
from drccp.cli import (
    EXIT_INFEASIBLE,
    EXIT_NO_INCUMBENT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from drccp.model import dump_instance, read_instance
from conftest import line_instance


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    rc = main([
        "gen", "--factories", "2", "--centers", "3", "--samples", "10",
        "--seed", "42", "--theta", "0.05", "--out", str(path),
    ])
    assert rc == EXIT_OK
    return path


def test_gen_writes_a_loadable_instance(instance_path, capsys):
    inst = read_instance(instance_path)
    assert inst.dim_x == 6
    assert inst.n == 10
    assert inst.theta == 0.05


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--factories", "2", "--centers", "2", "--samples", "5",
            "--seed", "7", "--out"]
    assert main(argv + [str(a)]) == EXIT_OK
    assert main(argv + [str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_solve_writes_result_and_artifacts(instance_path, tmp_path, capsys):
    out = tmp_path / "result.json"
    dump = tmp_path / "model.txt"
    cuts = tmp_path / "cuts.txt"
    events = tmp_path / "events.txt"
    rc = main([
        "solve", str(instance_path), "--formulation", "basic",
        "--cuts", "mixing,path", "--out", str(out),
        "--dump-model", str(dump), "--dump-cuts", str(cuts),
        "--log-events", str(events),
    ])
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    assert "status=optimal" in printed
    payload = json.loads(out.read_text())
    assert payload["status"] == "optimal"
    assert f"nodes={payload['nodes']} iterations={payload['iterations']}\n" in printed
    assert payload["objective"] == pytest.approx(33.93408472712276, abs=1e-6)
    assert len(payload["x"]) == 6
    assert set(payload["cuts"]) <= {"mixing", "path"}
    text = dump.read_text()
    assert text.startswith("min:")
    assert "budget" in text
    for line in cuts.read_text().splitlines():
        assert line.startswith(("mixing ", "path "))
    assert events.read_text().strip()  # event log was requested and written


def test_solve_computes_one_quantile_record(instance_path, monkeypatch, capsys):
    # the model rows and both separators read the record the command builds
    calls = []
    inner = formulations.compute_quantiles

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    for module in ("formulations", "cuts", "cli"):
        monkeypatch.setattr(f"drccp.{module}.compute_quantiles", counted)
    rc = main(["solve", str(instance_path), "--cuts", "mixing,path"])
    assert rc == EXIT_OK
    assert "status=optimal" in capsys.readouterr().out
    assert len(calls) == 1


def test_solve_formulations_agree(instance_path, capsys):
    objs = []
    for kind in ("saa", "basic", "knapsack", "reduced", "compact"):
        rc = main(["solve", str(instance_path), "--formulation", kind])
        assert rc == EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[-1]
        objs.append(float(line.split("objective=")[1].split()[0]))
    # saa is a relaxation of the distance formulations; the other four agree
    assert objs[1] == pytest.approx(objs[2], abs=1e-6)
    assert objs[1] == pytest.approx(objs[3], abs=1e-6)
    assert objs[1] == pytest.approx(objs[4], abs=1e-6)
    assert objs[0] <= objs[1] + 1e-6


def test_solve_infeasible_exit_code(tmp_path, capsys):
    # every sample needs coverage no x in [0, 1] can provide
    inst = line_instance([5.0, 6.0, 7.0, 8.0], epsilon=0.05, theta=0.001, hi=1.0)
    path = tmp_path / "bad.json"
    path.write_text(dump_instance(inst))
    rc = main(["solve", str(path)])
    assert rc == EXIT_INFEASIBLE
    assert "status=infeasible" in capsys.readouterr().out


def test_solve_no_incumbent_exit_code(tmp_path, capsys):
    # no x in [0, 10] covers the sample at 20, so there is no CVaR plan to
    # start from; eps*N = 1.2 lets the model discard that sample, and the
    # root alone finds no incumbent
    inst = line_instance([1.0, 2.0, 3.0, 20.0], epsilon=0.3, theta=0.001)
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(inst))
    rc = main(["solve", str(path), "--node-limit", "1"])
    assert rc == EXIT_NO_INCUMBENT
    assert "status=no-incumbent" in capsys.readouterr().out


def test_solve_starts_from_the_cvar_plan(tmp_path, capsys):
    # eps*N = 5 on 50 samples: the basic model's root is fractional, so one
    # node ends with the CVaR plan as its incumbent, a plan the oracle passes
    path, out = tmp_path / "inst.json", tmp_path / "result.json"
    assert main(["gen", "--factories", "2", "--centers", "10", "--samples", "50",
                 "--seed", "1", "--out", str(path)]) == EXIT_OK
    rc = main(["solve", str(path), "--formulation", "basic", "--node-limit", "1",
               "--out", str(out), "--log-events", str(tmp_path / "events.txt")])
    assert rc == EXIT_OK
    assert "status=feasible-gap" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["nodes"] == 1 and len(payload["x"]) == 20
    assert (tmp_path / "events.txt").read_text().splitlines()[0].endswith("action=start")
    assert main(["oracle", str(path), "--x", str(out)]) == EXIT_OK
    assert "verdict: feasible" in capsys.readouterr().out


def test_solve_rejects_unknown_cut_family(instance_path, capsys):
    rc = main(["solve", str(instance_path), "--cuts", "gomory"])
    assert rc == EXIT_USAGE
    assert "drccp solve: error: unknown cut family 'gomory'" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["mixing", "path"])
def test_solve_rejects_cuts_on_the_saa_model(instance_path, capsys, family):
    rc = main(["solve", str(instance_path), "--formulation", "saa", "--cuts", family])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "drccp solve: error: cut separators need the threshold variable t" in captured.err
    assert "status=" not in captured.out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve"])  # missing the instance argument
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize("flag, value", [("--branching", "pseudo-cost"),
                                         ("--node-selection", "best-bound")])
def test_solve_has_no_search_rule_flags(instance_path, capsys, flag, value):
    # every solve runs best-bound with the one branching rule
    with pytest.raises(SystemExit) as info:
        main(["solve", str(instance_path), flag, value])
    assert info.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EXIT_USAGE


def test_missing_file_is_reported(capsys, tmp_path):
    rc = main(["solve", str(tmp_path / "nope.json")])
    assert rc == EXIT_USAGE
    assert "error" in capsys.readouterr().err


# -- oracle -------------------------------------------------------------------

def test_oracle_feasible_plan(instance_path, tmp_path, capsys):
    # solve first, then audit the incumbent with the independent checker
    out = tmp_path / "result.json"
    assert main(["solve", str(instance_path), "--out", str(out)]) == EXIT_OK
    x = json.loads(out.read_text())["x"]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"x": x}))
    rc = main(["oracle", str(instance_path), "--x", str(plan)])
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    assert "verdict: feasible" in printed
    assert "worst-case violation probability" in printed


def test_oracle_infeasible_plan(instance_path, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([0.0] * 6))  # ship nothing
    rc = main(["oracle", str(instance_path), "--x", str(plan)])
    assert rc == EXIT_INFEASIBLE
    assert "verdict: infeasible" in capsys.readouterr().out


def test_oracle_plan_outside_the_domain_is_infeasible(tmp_path, capsys):
    # shipping 1e6 on every lane makes every sample safe, but the factory
    # capacity rows G x <= g (g = 22.01 and 9.82) rule the plan out
    path = tmp_path / "inst.json"
    assert main(["gen", "--factories", "2", "--centers", "3", "--samples", "10",
                 "--seed", "1", "--out", str(path)]) == EXIT_OK
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([1e6] * 6))
    capsys.readouterr()
    rc = main(["oracle", str(path), "--x", str(plan)])
    printed = capsys.readouterr().out
    assert rc == EXIT_INFEASIBLE
    assert ("domain (lb <= x <= ub, G x <= g): row 1 of G x <= g (9.817094569) "
            "missed by 2999990.183\n") in printed
    assert "verdict: infeasible" in printed
    # a negative shipment misses its bound x >= 0
    plan.write_text(json.dumps([1.0, 1.0, 1.0, 1.0, -0.5, 1.0]))
    assert main(["oracle", str(path), "--x", str(plan)]) == EXIT_INFEASIBLE
    assert "domain (lb <= x <= ub, G x <= g): x[4] >= 0 missed by 0.5\n" in capsys.readouterr().out


def test_oracle_plan_with_every_sample_unsafe_at_theta_zero(tmp_path, capsys):
    # shipping nothing leaves every sample at distance 0: the worst case is 1,
    # and a threshold t = 0, with a budget slack of 0, certifies nothing
    path = tmp_path / "inst.json"
    assert main(["gen", "--factories", "1", "--centers", "2", "--samples", "10",
                 "--seed", "3", "--theta", "0", "--out", str(path)]) == EXIT_OK
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([0.0, 0.0]))
    rc = main(["oracle", str(path), "--x", str(plan)])
    printed = capsys.readouterr().out
    assert rc == EXIT_INFEASIBLE
    assert "worst-case violation probability: 1\n" in printed
    assert "verdict: infeasible" in printed


def test_oracle_rejects_wrong_plan_length(instance_path, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([0.0, 0.0]))
    rc = main(["oracle", str(instance_path), "--x", str(plan)])
    assert rc == EXIT_USAGE
    assert ("drccp oracle: error: plan has 2 entries, the instance needs 6"
            in capsys.readouterr().err)


def test_oracle_rejects_non_finite_plan(instance_path, tmp_path, capsys):
    # a NaN entry is a usage error, not an infeasible verdict with t = nan
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([0.0] * 5 + [float("nan")]))
    rc = main(["oracle", str(instance_path), "--x", str(plan)])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "drccp oracle: error: plan entries must be finite" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("plan, message", [
    ({"plan": [0.0] * 6}, 'plan object has no "x" key'),
    ([[1, 2, 3], [4, 5, 6]], "plan must be a flat list of 6 finite numbers"),
    ({"x": [[1, 2, 3], [4, 5, 6]]}, "plan must be a flat list of 6 finite numbers"),
    (["1", 2, 3, 4, 5, 6], "plan must be a flat list of 6 finite numbers"),
    ([True] + [0.0] * 5, "plan must be a flat list of 6 finite numbers"),
])
def test_oracle_rejects_malformed_plan(instance_path, tmp_path, capsys, plan, message):
    # an object without "x", or a nested list with the right entry count,
    # is a usage error that says what a plan is
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    rc = main(["oracle", str(instance_path), "--x", str(path)])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"drccp oracle: error: {message}\n" in captured.err
    assert "verdict" not in captured.out


# -- bench --------------------------------------------------------------------

def test_bench_write_default_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    rc = main(["bench", "--write-default-config", str(path)])
    assert rc == EXIT_OK
    data = json.loads(path.read_text())
    assert data["base_seed"] == 20240801
    assert data["epsilon"] == 0.1


def test_bench_tiny_grid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "factories": [2], "centers": [2], "samples": [6],
        "replications": 1, "theta_indices": [1],
        "variants": ["basic"], "node_limit": 400,
        "theta_max_node_limit": 400,
    }))
    out = tmp_path / "rows.csv"
    agg = tmp_path / "agg.csv"
    rc = main(["bench", "--config", str(cfg), "--out", str(out),
               "--aggregate", str(agg)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("F,D,N,theta_idx,theta,variant,seed,status")
    assert len(lines) == 2
    assert len(agg.read_text().splitlines()) == 2


def test_bench_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"factory": [2]}))
    rc = main(["bench", "--config", str(cfg)])
    assert rc == EXIT_USAGE
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("node_selection", "best-bound", "unknown config keys: ['node_selection']"),
    ("branching", "pseudo-cost", "unknown config keys: ['branching']"),
    ("gap_tol", "0.01", "gap_tol must be a nonnegative number"),
])
def test_bench_rejects_bad_search_option_before_solving(tmp_path, capsys, monkeypatch,
                                                        key, value, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(bench, "generate", no_solve)
    monkeypatch.setattr(bench, "theta_max", no_solve)
    monkeypatch.setattr(bench, "solve", no_solve)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc = main(["bench", "--config", str(cfg)])
    assert rc == EXIT_USAGE
    assert message in capsys.readouterr().err
