"""Golden branch-and-cut searches.

A change to the search loop that is meant to keep every tree must replay
every node: the same statuses, objectives and bounds to the last bit, the
same node and LP-iteration counts, the same cuts and the same event log.
This module pins, for each configuration below, the sha256 prefix of the
`repr` of its solve's record: status, `objective.hex()`, `bound.hex()`,
nodes, LP iterations, `root_bound.hex()`, the per-family cut counts and a
sha256 prefix of the event log (every solve logs events).  A configuration
is keyed group/kind/cuts/selection, so a change that moves one tree shows
which.

Groups (`basic` and `compact` models, with no separators (`none`), with
the mixing separator alone (`mixing`), with the path separator alone
(`path`) or with both (`mixing+path`), every node selection):

* `box50`, `box47` and `transport`: two small box instances and a
  transport instance with 2 factories, 3 centers, 20 samples, epsilon 0.1
  and radius 0.01, with no node limit;
* `box50-node-limit-7`: the first box instance with a limit of 7 nodes;
* `theta`: the radius-maximization model (compact matrix, no cuts) of the
  transport instance, once per node selection.

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
    "box50/basic/none/best-bound": "7199de01c21c5ebe",
    "box50/basic/none/depth-first": "cae752963e42e759",
    "box50/basic/mixing/best-bound": "7199de01c21c5ebe",
    "box50/basic/mixing/depth-first": "cae752963e42e759",
    "box50/basic/path/best-bound": "1e3abebafcc571c6",
    "box50/basic/path/depth-first": "532473d5170fe52a",
    "box50/basic/mixing+path/best-bound": "1e3abebafcc571c6",
    "box50/basic/mixing+path/depth-first": "532473d5170fe52a",
    "box50/compact/none/best-bound": "af8e742d6aed603d",
    "box50/compact/none/depth-first": "91c4b14e368d7a3b",
    "box50/compact/mixing/best-bound": "af8e742d6aed603d",
    "box50/compact/mixing/depth-first": "91c4b14e368d7a3b",
    "box50/compact/path/best-bound": "af8e742d6aed603d",
    "box50/compact/path/depth-first": "91c4b14e368d7a3b",
    "box50/compact/mixing+path/best-bound": "af8e742d6aed603d",
    "box50/compact/mixing+path/depth-first": "91c4b14e368d7a3b",
    "box47/basic/none/best-bound": "bff2437aab170f8e",
    "box47/basic/none/depth-first": "3ab55e6bfe1fa992",
    "box47/basic/mixing/best-bound": "da9700ed452b2702",
    "box47/basic/mixing/depth-first": "637c3108db8d345b",
    "box47/basic/path/best-bound": "4be792cfcde252d9",
    "box47/basic/path/depth-first": "adb26cc6f3195998",
    "box47/basic/mixing+path/best-bound": "c6f95902845dac1d",
    "box47/basic/mixing+path/depth-first": "e1da545ecb389f42",
    "box47/compact/none/best-bound": "078ca0e4b632f482",
    "box47/compact/none/depth-first": "0e37d6e0687e256c",
    "box47/compact/mixing/best-bound": "078ca0e4b632f482",
    "box47/compact/mixing/depth-first": "0e37d6e0687e256c",
    "box47/compact/path/best-bound": "078ca0e4b632f482",
    "box47/compact/path/depth-first": "0e37d6e0687e256c",
    "box47/compact/mixing+path/best-bound": "078ca0e4b632f482",
    "box47/compact/mixing+path/depth-first": "0e37d6e0687e256c",
    "transport/basic/none/best-bound": "55165906baec972e",
    "transport/basic/none/depth-first": "1bc2272670271c31",
    "transport/basic/mixing/best-bound": "b950eafeded1ab59",
    "transport/basic/mixing/depth-first": "27e10ada8f762413",
    "transport/basic/path/best-bound": "efed82c951c01bc9",
    "transport/basic/path/depth-first": "48b54259920cda64",
    "transport/basic/mixing+path/best-bound": "f2b7186293537f20",
    "transport/basic/mixing+path/depth-first": "96c91909b71c56e8",
    "transport/compact/none/best-bound": "a9547b03a6b5b0e2",
    "transport/compact/none/depth-first": "a9547b03a6b5b0e2",
    "transport/compact/mixing/best-bound": "a9547b03a6b5b0e2",
    "transport/compact/mixing/depth-first": "a9547b03a6b5b0e2",
    "transport/compact/path/best-bound": "a9547b03a6b5b0e2",
    "transport/compact/path/depth-first": "a9547b03a6b5b0e2",
    "transport/compact/mixing+path/best-bound": "a9547b03a6b5b0e2",
    "transport/compact/mixing+path/depth-first": "a9547b03a6b5b0e2",
    "box50-node-limit-7/basic/none/best-bound": "f6a4f0d5c65e7dfc",
    "box50-node-limit-7/basic/none/depth-first": "265f502492bcf426",
    "box50-node-limit-7/basic/mixing/best-bound": "f6a4f0d5c65e7dfc",
    "box50-node-limit-7/basic/mixing/depth-first": "265f502492bcf426",
    "box50-node-limit-7/basic/path/best-bound": "1e3abebafcc571c6",
    "box50-node-limit-7/basic/path/depth-first": "48731835a800bddf",
    "box50-node-limit-7/basic/mixing+path/best-bound": "1e3abebafcc571c6",
    "box50-node-limit-7/basic/mixing+path/depth-first": "48731835a800bddf",
    "box50-node-limit-7/compact/none/best-bound": "af8e742d6aed603d",
    "box50-node-limit-7/compact/none/depth-first": "91c4b14e368d7a3b",
    "box50-node-limit-7/compact/mixing/best-bound": "af8e742d6aed603d",
    "box50-node-limit-7/compact/mixing/depth-first": "91c4b14e368d7a3b",
    "box50-node-limit-7/compact/path/best-bound": "af8e742d6aed603d",
    "box50-node-limit-7/compact/path/depth-first": "91c4b14e368d7a3b",
    "box50-node-limit-7/compact/mixing+path/best-bound": "af8e742d6aed603d",
    "box50-node-limit-7/compact/mixing+path/depth-first": "91c4b14e368d7a3b",
    "theta/compact/none/best-bound": "b5deb7d080293c04",
    "theta/compact/none/depth-first": "b5deb7d080293c04",
}

GRID_GROUPS = ("box50", "box47", "transport", "box50-node-limit-7")
NODE_LIMIT_SUFFIX = "-node-limit-7"
CUTS = ("none", "mixing", "path", "mixing+path")


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
    """Every configuration key, group/kind/cuts/selection."""
    keys = [f"{group}/{kind}/{cuts}/{selection}"
            for group, kind, cuts, selection in itertools.product(
                GRID_GROUPS, ("basic", "compact"), CUTS, bnc.NODE_SELECTIONS)]
    keys += [f"theta/compact/none/{selection}" for selection in bnc.NODE_SELECTIONS]
    return keys


def record(key):
    """The solve record of one configuration key."""
    group, kind, cuts, selection = key.split("/")
    if group == "theta":
        model, seps = build_theta_variant(_instance("transport"), matrix=kind), []
    else:
        inst = _instance(group.removesuffix(NODE_LIMIT_SUFFIX))
        model = build_formulation(inst, kind)
        seps = [sep(inst) for name, sep in (("mixing", MixingSeparator), ("path", PathSeparator))
                if name in cuts.split("+")]
    cfg = BncConfig(node_selection=selection, log_events=True,
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
