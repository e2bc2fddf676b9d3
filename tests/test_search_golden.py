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
* `box50-node-limit-3`: the first box instance with a limit of 3 nodes,
  which stops every one of its trees (seeded, they take 5 or 7 nodes);
* `theta`: the radius-maximization model (compact matrix, no cuts) of the
  transport instance, once per node selection;
* `reliable`: the `basic` model (no cuts, best-bound) of a transport
  instance with 20 samples, epsilon 0.15 and radius 0.02, whose tree of
  about a hundred nodes reaches picks with reliable pseudo-costs, so both
  halves of the branching rule are pinned.

Every search seeds itself with the LP with every binary at 0, so each event
log begins with its `action=start` line.

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

import numpy as np
import pytest

from conftest import box_instance, small_transport
from drccp import bnc
from drccp.bnc import BncConfig
from drccp.constants import INT_TOL
from drccp.cuts import MixingSeparator, PathSeparator
from drccp.formulations import build_formulation, build_theta_variant

GOLDEN = {
    "box50/basic/none/best-bound": "aaba82c81c28f38b",
    "box50/basic/none/depth-first": "750b43e6568585e8",
    "box50/basic/mixing/best-bound": "aaba82c81c28f38b",
    "box50/basic/mixing/depth-first": "750b43e6568585e8",
    "box50/basic/path/best-bound": "7991be26c78ce7b2",
    "box50/basic/path/depth-first": "7991be26c78ce7b2",
    "box50/basic/mixing+path/best-bound": "7991be26c78ce7b2",
    "box50/basic/mixing+path/depth-first": "7991be26c78ce7b2",
    "box50/compact/none/best-bound": "64575fcc1aa7ba96",
    "box50/compact/none/depth-first": "5df0a1d57f90cc34",
    "box50/compact/mixing/best-bound": "64575fcc1aa7ba96",
    "box50/compact/mixing/depth-first": "5df0a1d57f90cc34",
    "box50/compact/path/best-bound": "64575fcc1aa7ba96",
    "box50/compact/path/depth-first": "5df0a1d57f90cc34",
    "box50/compact/mixing+path/best-bound": "64575fcc1aa7ba96",
    "box50/compact/mixing+path/depth-first": "5df0a1d57f90cc34",
    "box47/basic/none/best-bound": "631fb8e3796b234f",
    "box47/basic/none/depth-first": "306ac25aeecf2d10",
    "box47/basic/mixing/best-bound": "a6459aeb734d602f",
    "box47/basic/mixing/depth-first": "d3f2b0c23acf95ac",
    "box47/basic/path/best-bound": "5d82c89564fc68a5",
    "box47/basic/path/depth-first": "5d82c89564fc68a5",
    "box47/basic/mixing+path/best-bound": "54b0401f6896574a",
    "box47/basic/mixing+path/depth-first": "54b0401f6896574a",
    "box47/compact/none/best-bound": "a8627fec0be8aa85",
    "box47/compact/none/depth-first": "a8627fec0be8aa85",
    "box47/compact/mixing/best-bound": "a8627fec0be8aa85",
    "box47/compact/mixing/depth-first": "a8627fec0be8aa85",
    "box47/compact/path/best-bound": "a8627fec0be8aa85",
    "box47/compact/path/depth-first": "a8627fec0be8aa85",
    "box47/compact/mixing+path/best-bound": "a8627fec0be8aa85",
    "box47/compact/mixing+path/depth-first": "a8627fec0be8aa85",
    "transport/basic/none/best-bound": "1a7ea17cafa29d25",
    "transport/basic/none/depth-first": "88157f60fa9ee01f",
    "transport/basic/mixing/best-bound": "e7a68b0216bb3fba",
    "transport/basic/mixing/depth-first": "ce07b26340f122da",
    "transport/basic/path/best-bound": "365167dc42ed6718",
    "transport/basic/path/depth-first": "929bbdbfe920b809",
    "transport/basic/mixing+path/best-bound": "ee3ed8e65b3cafc1",
    "transport/basic/mixing+path/depth-first": "7396c3bef827ad32",
    "transport/compact/none/best-bound": "a94415fc9c694ca0",
    "transport/compact/none/depth-first": "a94415fc9c694ca0",
    "transport/compact/mixing/best-bound": "a94415fc9c694ca0",
    "transport/compact/mixing/depth-first": "a94415fc9c694ca0",
    "transport/compact/path/best-bound": "a94415fc9c694ca0",
    "transport/compact/path/depth-first": "a94415fc9c694ca0",
    "transport/compact/mixing+path/best-bound": "a94415fc9c694ca0",
    "transport/compact/mixing+path/depth-first": "a94415fc9c694ca0",
    "box50-node-limit-3/basic/none/best-bound": "9ed7656aaea2fed0",
    "box50-node-limit-3/basic/none/depth-first": "73931a9e93440a55",
    "box50-node-limit-3/basic/mixing/best-bound": "9ed7656aaea2fed0",
    "box50-node-limit-3/basic/mixing/depth-first": "73931a9e93440a55",
    "box50-node-limit-3/basic/path/best-bound": "bcce3c0f81f2697e",
    "box50-node-limit-3/basic/path/depth-first": "bcce3c0f81f2697e",
    "box50-node-limit-3/basic/mixing+path/best-bound": "bcce3c0f81f2697e",
    "box50-node-limit-3/basic/mixing+path/depth-first": "bcce3c0f81f2697e",
    "box50-node-limit-3/compact/none/best-bound": "a440f83b47ceac88",
    "box50-node-limit-3/compact/none/depth-first": "8e7ef2664031381a",
    "box50-node-limit-3/compact/mixing/best-bound": "a440f83b47ceac88",
    "box50-node-limit-3/compact/mixing/depth-first": "8e7ef2664031381a",
    "box50-node-limit-3/compact/path/best-bound": "a440f83b47ceac88",
    "box50-node-limit-3/compact/path/depth-first": "8e7ef2664031381a",
    "box50-node-limit-3/compact/mixing+path/best-bound": "a440f83b47ceac88",
    "box50-node-limit-3/compact/mixing+path/depth-first": "8e7ef2664031381a",
    "theta/compact/none/best-bound": "326e4450a39e53cc",
    "theta/compact/none/depth-first": "326e4450a39e53cc",
    "reliable/basic/none/best-bound": "d796b001a41ff1ec",
}

GRID_GROUPS = ("box50", "box47", "transport", "box50-node-limit-3")
NODE_LIMIT_SUFFIX = "-node-limit-3"
CUTS = ("none", "mixing", "path", "mixing+path")
RELIABLE_KEY = "reliable/basic/none/best-bound"


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
        "reliable": lambda: small_transport(seed=7, factories=2, centers=3, n=20,
                                            epsilon=0.15, theta=0.02)[1],
    }[name]()


def configurations():
    """Every configuration key, group/kind/cuts/selection."""
    keys = [f"{group}/{kind}/{cuts}/{selection}"
            for group, kind, cuts, selection in itertools.product(
                GRID_GROUPS, ("basic", "compact"), CUTS, bnc.NODE_SELECTIONS)]
    keys += [f"theta/compact/none/{selection}" for selection in bnc.NODE_SELECTIONS]
    keys.append(RELIABLE_KEY)
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
                    node_limit=3 if group.endswith(NODE_LIMIT_SUFFIX) else None)
    return _record(bnc.solve(model, seps, cfg))


def test_every_configuration_is_pinned():
    assert sorted(GOLDEN) == sorted(configurations())


@pytest.mark.parametrize("key", configurations())
def test_search_matches_golden(key):
    assert _sha(record(key)) == GOLDEN[key]


def test_the_reliable_tree_picks_by_pseudo_costs(monkeypatch):
    # the `reliable` configuration reaches branchings where some fractional
    # binary has RELIABLE observations each way, which the smaller trees
    # above do not
    picks = []
    inner = bnc._Search._pick_branch_var

    def spy(self, values):
        v = values[self.binaries]
        fractional = np.abs(v - np.round(v)) > INT_TOL
        if fractional.any():
            picks.append(bool((self.pc_cnt.min(axis=0)[fractional] >= bnc.RELIABLE).any()))
        return inner(self, values)

    monkeypatch.setattr(bnc._Search, "_pick_branch_var", spy)
    record(RELIABLE_KEY)
    assert any(picks) and not all(picks)


if __name__ == "__main__":
    for key in configurations():
        print(f'    "{key}": "{_sha(record(key))}",')
