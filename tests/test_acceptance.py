"""Acceptance gate: the paper's compact formulations search fewer nodes.

At the first radius of the grid, with the `ExperimentConfig` defaults
(the one branching rule, a node limit of 1,500), the improved
formulation and its mixing and path cuts must prove optimality in fewer
nodes than the basic big-M formulation.  The gate reads statuses and node
counts only, never wall time, so it holds on any machine.
"""
import pytest

from drccp.bench import ExperimentConfig, run_cell

GATED = ("improved", "mixingpath")


@pytest.mark.parametrize("nf, nd, ns", [(2, 3, 50), (5, 3, 50)])
def test_compact_arms_prove_optimality_in_fewer_nodes_than_basic(nf, nd, ns):
    config = ExperimentConfig(theta_indices=(1,), variants=("basic",) + GATED)
    rows = {row["variant"]: row for row in run_cell(config, nf, nd, ns, 0)}
    for variant in GATED:
        row = rows[variant]
        assert row["status"] == "optimal", (variant, row["status"])
        assert row["nodes"] < rows["basic"]["nodes"], (variant, row["nodes"])
