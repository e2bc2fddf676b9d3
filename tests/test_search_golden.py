"""Golden branch-and-cut searches.

A change to the search loop that is meant to keep every tree must replay
every node: the same statuses, objectives and bounds to the last bit, the
same node and LP-iteration counts, the same cuts and the same event log.
This module pins, for each configuration group below, the sha256 prefix of
the `repr` of one record per solve: status, `objective.hex()`,
`bound.hex()`, nodes, LP iterations, `root_bound.hex()`, the per-family cut
counts and a sha256 prefix of the event log (every solve logs events).

Groups (`basic` and `compact` models, with no separators or with mixing
plus path, every node selection, every branching rule):

* `box50`, `box47` and `transport`: two small box instances and a
  transport instance with 2 factories, 3 centers, 20 samples, epsilon 0.1
  and radius 0.01, with no node limit;
* `box50-node-limit-7`: the first box instance with a limit of 7 nodes;
* `theta`: the radius-maximization model of the transport instance, once
  per node selection.

The digests belong to this numpy/OpenBLAS build (numpy 2.4.6 with
scipy-openblas 0.3.31, Haswell kernels, x86-64).  BLAS kernels choose their
own summation order, so another BLAS, another numpy or another thread count
may legally round a product differently and take another pivot path;
regenerate the digests only there, with the parent commit of the change
under test, by running this file as a script (`PYTHONPATH=src python
tests/test_search_golden.py`), which prints fresh ones.
"""
import hashlib
import itertools

import pytest

from conftest import box_instance, small_transport
from drccp import bnc
from drccp.bnc import BncConfig
from drccp.cuts import MixingSeparator, PathSeparator
from drccp.formulations import build_formulation, build_theta_variant

GOLDEN = {
    "box50": "e48c06a7618ff3bd",
    "box47": "10f5ad897a76d3b1",
    "transport": "d634462370ed3d32",
    "box50-node-limit-7": "d1b6774ddf5c1173",
    "theta": "71d7edbd0ff89c7f",
}


def _sha(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def _hex(value):
    return None if value is None else float(value).hex()


def _record(res):
    return (res.status, _hex(res.objective), _hex(res.bound), res.nodes, res.iterations,
            _hex(res.root_bound), tuple(sorted(res.cuts.items())), _sha(tuple(res.events)))


def _instances():
    return {
        "box50": box_instance(50),
        "box47": box_instance(47, n=12),
        "transport": small_transport(seed=7, factories=2, centers=3, n=20,
                                     epsilon=0.1, theta=0.01)[1],
    }


def _grid(inst, **config):
    """One record per model, separator set, node selection and branching rule."""
    out = []
    for kind, with_cuts, selection, rule in itertools.product(
            ("basic", "compact"), (False, True), bnc.NODE_SELECTIONS, bnc.BRANCHING_RULES):
        seps = [MixingSeparator(inst), PathSeparator(inst)] if with_cuts else []
        cfg = BncConfig(node_selection=selection, branching=rule, log_events=True, **config)
        out.append(_record(bnc.solve(build_formulation(inst, kind), seps, cfg)))
    return out


def group_records(group):
    insts = _instances()
    if group in insts:
        return _grid(insts[group])
    if group == "box50-node-limit-7":
        return _grid(insts["box50"], node_limit=7)
    if group == "theta":
        model = build_theta_variant(insts["transport"])
        return [_record(bnc.solve(model, (), BncConfig(node_selection=s, log_events=True)))
                for s in bnc.NODE_SELECTIONS]
    raise KeyError(group)


GROUPS = ("box50", "box47", "transport", "box50-node-limit-7", "theta")


@pytest.mark.parametrize("group", GROUPS)
def test_search_matches_golden(group):
    assert _sha(group_records(group)) == GOLDEN[group]


if __name__ == "__main__":
    for name in GROUPS:
        print(f'    "{name}": "{_sha(group_records(name))}",')
