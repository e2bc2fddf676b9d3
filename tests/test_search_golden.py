"""Golden branch-and-cut searches.

A change to the search loop that is meant to keep every tree must replay
every node: the same statuses, objectives and bounds to the last bit, the
same node and LP-iteration counts, the same cuts and the same event log.
This module pins, for each configuration below, the sha256 prefix of the
`repr` of its solve's record: status, `objective.hex()`, `bound.hex()`,
nodes, LP iterations, `root_bound.hex()`, the per-family cut counts and a
sha256 prefix of the event log (every solve logs events).  A configuration
is keyed group/kind/cuts/selection/rule, so a change that moves one tree
shows which.

Groups (`basic` and `compact` models, with no separators (`none`) or with
mixing plus path (`mixing+path`), every node selection, every branching
rule):

* `box50`, `box47` and `transport`: two small box instances and a
  transport instance with 2 factories, 3 centers, 20 samples, epsilon 0.1
  and radius 0.01, with no node limit;
* `box50-node-limit-7`: the first box instance with a limit of 7 nodes;
* `theta`: the radius-maximization model (compact matrix, no cuts,
  most-fractional) of the transport instance, once per node selection.

The digests belong to this numpy/OpenBLAS build (numpy 2.4.6 with
scipy-openblas 0.3.31, Haswell kernels, x86-64).  BLAS kernels choose their
own summation order, so another BLAS, another numpy or another thread count
may legally round a product differently and take another pivot path;
regenerate the digests only there, with the parent commit of the change
under test, by running this file as a script (`PYTHONPATH=src python
tests/test_search_golden.py`), which prints a fresh table.
"""
import functools
import hashlib
import itertools

import pytest

from conftest import box_instance, small_transport
from drccp import bnc
from drccp.bnc import BncConfig
from drccp.cuts import MixingSeparator, PathSeparator
from drccp.formulations import build_formulation, build_theta_variant

GOLDEN = {
    "box50/basic/none/best-bound/most-fractional": "7199de01c21c5ebe",
    "box50/basic/none/best-bound/pseudo-cost": "fc6d079444d1eca7",
    "box50/basic/none/depth-first/most-fractional": "cae752963e42e759",
    "box50/basic/none/depth-first/pseudo-cost": "1877f0c6ba6560c1",
    "box50/basic/mixing+path/best-bound/most-fractional": "1e3abebafcc571c6",
    "box50/basic/mixing+path/best-bound/pseudo-cost": "1e3abebafcc571c6",
    "box50/basic/mixing+path/depth-first/most-fractional": "532473d5170fe52a",
    "box50/basic/mixing+path/depth-first/pseudo-cost": "532473d5170fe52a",
    "box50/compact/none/best-bound/most-fractional": "af8e742d6aed603d",
    "box50/compact/none/best-bound/pseudo-cost": "af8e742d6aed603d",
    "box50/compact/none/depth-first/most-fractional": "91c4b14e368d7a3b",
    "box50/compact/none/depth-first/pseudo-cost": "91c4b14e368d7a3b",
    "box50/compact/mixing+path/best-bound/most-fractional": "af8e742d6aed603d",
    "box50/compact/mixing+path/best-bound/pseudo-cost": "af8e742d6aed603d",
    "box50/compact/mixing+path/depth-first/most-fractional": "91c4b14e368d7a3b",
    "box50/compact/mixing+path/depth-first/pseudo-cost": "91c4b14e368d7a3b",
    "box47/basic/none/best-bound/most-fractional": "bff2437aab170f8e",
    "box47/basic/none/best-bound/pseudo-cost": "70934aa8acc89f74",
    "box47/basic/none/depth-first/most-fractional": "be81a8c53f75602d",
    "box47/basic/none/depth-first/pseudo-cost": "706b6fd23539ac18",
    "box47/basic/mixing+path/best-bound/most-fractional": "c6f95902845dac1d",
    "box47/basic/mixing+path/best-bound/pseudo-cost": "c6f95902845dac1d",
    "box47/basic/mixing+path/depth-first/most-fractional": "7b375e90b8280446",
    "box47/basic/mixing+path/depth-first/pseudo-cost": "e32c0d0bc7bca8e8",
    "box47/compact/none/best-bound/most-fractional": "078ca0e4b632f482",
    "box47/compact/none/best-bound/pseudo-cost": "078ca0e4b632f482",
    "box47/compact/none/depth-first/most-fractional": "0e37d6e0687e256c",
    "box47/compact/none/depth-first/pseudo-cost": "0e37d6e0687e256c",
    "box47/compact/mixing+path/best-bound/most-fractional": "078ca0e4b632f482",
    "box47/compact/mixing+path/best-bound/pseudo-cost": "078ca0e4b632f482",
    "box47/compact/mixing+path/depth-first/most-fractional": "0e37d6e0687e256c",
    "box47/compact/mixing+path/depth-first/pseudo-cost": "0e37d6e0687e256c",
    "transport/basic/none/best-bound/most-fractional": "55165906baec972e",
    "transport/basic/none/best-bound/pseudo-cost": "46cfa5fac632518b",
    "transport/basic/none/depth-first/most-fractional": "1bc2272670271c31",
    "transport/basic/none/depth-first/pseudo-cost": "b60fe7ced8a02df3",
    "transport/basic/mixing+path/best-bound/most-fractional": "f2b7186293537f20",
    "transport/basic/mixing+path/best-bound/pseudo-cost": "9e0fd2aa03c61534",
    "transport/basic/mixing+path/depth-first/most-fractional": "96c91909b71c56e8",
    "transport/basic/mixing+path/depth-first/pseudo-cost": "4c1c4c6bfca934d8",
    "transport/compact/none/best-bound/most-fractional": "a9547b03a6b5b0e2",
    "transport/compact/none/best-bound/pseudo-cost": "769a042f6a3c1e64",
    "transport/compact/none/depth-first/most-fractional": "a9547b03a6b5b0e2",
    "transport/compact/none/depth-first/pseudo-cost": "53b7c4e7995dba44",
    "transport/compact/mixing+path/best-bound/most-fractional": "a9547b03a6b5b0e2",
    "transport/compact/mixing+path/best-bound/pseudo-cost": "769a042f6a3c1e64",
    "transport/compact/mixing+path/depth-first/most-fractional": "a9547b03a6b5b0e2",
    "transport/compact/mixing+path/depth-first/pseudo-cost": "53b7c4e7995dba44",
    "box50-node-limit-7/basic/none/best-bound/most-fractional": "f6a4f0d5c65e7dfc",
    "box50-node-limit-7/basic/none/best-bound/pseudo-cost": "b24742fa61bb2c6b",
    "box50-node-limit-7/basic/none/depth-first/most-fractional": "265f502492bcf426",
    "box50-node-limit-7/basic/none/depth-first/pseudo-cost": "f00eba41673b5079",
    "box50-node-limit-7/basic/mixing+path/best-bound/most-fractional": "1e3abebafcc571c6",
    "box50-node-limit-7/basic/mixing+path/best-bound/pseudo-cost": "1e3abebafcc571c6",
    "box50-node-limit-7/basic/mixing+path/depth-first/most-fractional": "48731835a800bddf",
    "box50-node-limit-7/basic/mixing+path/depth-first/pseudo-cost": "48731835a800bddf",
    "box50-node-limit-7/compact/none/best-bound/most-fractional": "af8e742d6aed603d",
    "box50-node-limit-7/compact/none/best-bound/pseudo-cost": "af8e742d6aed603d",
    "box50-node-limit-7/compact/none/depth-first/most-fractional": "91c4b14e368d7a3b",
    "box50-node-limit-7/compact/none/depth-first/pseudo-cost": "91c4b14e368d7a3b",
    "box50-node-limit-7/compact/mixing+path/best-bound/most-fractional": "af8e742d6aed603d",
    "box50-node-limit-7/compact/mixing+path/best-bound/pseudo-cost": "af8e742d6aed603d",
    "box50-node-limit-7/compact/mixing+path/depth-first/most-fractional": "91c4b14e368d7a3b",
    "box50-node-limit-7/compact/mixing+path/depth-first/pseudo-cost": "91c4b14e368d7a3b",
    "theta/compact/none/best-bound/most-fractional": "b5deb7d080293c04",
    "theta/compact/none/depth-first/most-fractional": "b5deb7d080293c04",
}

GRID_GROUPS = ("box50", "box47", "transport", "box50-node-limit-7")
NODE_LIMIT_SUFFIX = "-node-limit-7"


def _sha(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def _hex(value):
    return None if value is None else float(value).hex()


def _record(res):
    return (res.status, _hex(res.objective), _hex(res.bound), res.nodes, res.iterations,
            _hex(res.root_bound), tuple(sorted(res.cuts.items())), _sha(tuple(res.events)))


@functools.cache
def _instance(name):
    return {
        "box50": lambda: box_instance(50),
        "box47": lambda: box_instance(47, n=12),
        "transport": lambda: small_transport(seed=7, factories=2, centers=3, n=20,
                                             epsilon=0.1, theta=0.01)[1],
    }[name]()


def configurations():
    """Every configuration key, group/kind/cuts/selection/rule."""
    keys = [f"{group}/{kind}/{cuts}/{selection}/{rule}"
            for group, kind, cuts, selection, rule in itertools.product(
                GRID_GROUPS, ("basic", "compact"), ("none", "mixing+path"),
                bnc.NODE_SELECTIONS, bnc.BRANCHING_RULES)]
    keys += [f"theta/compact/none/{selection}/most-fractional"
             for selection in bnc.NODE_SELECTIONS]
    return keys


def record(key):
    """The solve record of one configuration key."""
    group, kind, cuts, selection, rule = key.split("/")
    if group == "theta":
        model, seps = build_theta_variant(_instance("transport"), matrix=kind), []
    else:
        inst = _instance(group.removesuffix(NODE_LIMIT_SUFFIX))
        model = build_formulation(inst, kind)
        seps = [MixingSeparator(inst), PathSeparator(inst)] if cuts == "mixing+path" else []
    cfg = BncConfig(node_selection=selection, branching=rule, log_events=True,
                    node_limit=7 if group.endswith(NODE_LIMIT_SUFFIX) else None)
    return _record(bnc.solve(model, seps, cfg))


def test_every_configuration_is_pinned():
    assert sorted(GOLDEN) == sorted(configurations())


@pytest.mark.parametrize("key", configurations())
def test_search_matches_golden(key):
    assert _sha(record(key)) == GOLDEN[key]


if __name__ == "__main__":
    for key in configurations():
        print(f'    "{key}": "{_sha(record(key))}",')
