"""Golden row layout of every formulation preset.

Each digest pins the exact `to_text()` dump of one model: variable order, row
order, labels and every coefficient to 12 significant digits.  On the
transport fixtures a second digest pins the `to_dense()` arrays bit for bit;
their safety rows have unit-vector b, so every product is exact on any BLAS.
Digests are sha256 prefixes.  A change to the builder that moves a row,
drops a zero coefficient differently or rounds a coefficient differently
fails here first.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import box_instance, line_instance, small_transport
from drccp import formulations as F
from drccp import transport


def _transport_n50():
    tp = transport.generate(2, 3, 50, seed=20240801, epsilon=0.1)
    return transport.to_drccp(tp, theta=0.05)


FIXTURES = {
    "box1": lambda: box_instance(seed=1),
    "box5": lambda: box_instance(seed=5, n=8, dim=2, rows=3, epsilon=0.25, theta=0.04),
    "box9": lambda: box_instance(seed=9, n=10, dim=3, rows=2, epsilon=0.3, theta=0.03),
    "line": lambda: line_instance([0.1, 0.2, 0.3, 0.4, 0.5], epsilon=0.2, theta=0.01,
                                  lo=0.0, hi=1.0),
    "transport": lambda: small_transport()[1],
    "transport50": _transport_n50,
}
DENSE_FIXTURES = ("transport", "transport50")

CASES = tuple(
    [(kind, explicit) for kind in F.FORMULATION_KINDS for explicit in (False, True)]
    + [("theta-" + mx, explicit) for mx in ("basic", "knapsack", "compact")
       for explicit in (False, True)]
)


def _build(inst, kind, explicit):
    """Build one case; the explicit variant passes a big-M and a quantile
    record that differ from the computed ones, so both must reach the rows."""
    big_m = quant = None
    if explicit:
        big_m = 1.25 * F.compute_big_m(inst)
        computed = F.compute_quantiles(inst)
        quant = dataclasses.replace(computed, q=computed.q + 0.125, h=computed.h * 0.5)
    if kind.startswith("theta-"):
        return F.build_theta_variant(inst, matrix=kind[len("theta-"):], big_m=big_m)
    return F.build_formulation(inst, kind, big_m=big_m, quant=quant)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def text_digest(model) -> str:
    return _sha(model.to_text().encode())


def dense_digest(model) -> str:
    c, A, senses, b, lb, ub = model.to_dense()
    h = hashlib.sha256()
    for arr in (c, A, b, lb, ub):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(",".join(senses).encode())
    return h.hexdigest()[:16]


def _case_id(fixture, kind, explicit):
    return f"{fixture}/{kind}/{'explicit' if explicit else 'default'}"


TEXT_DIGESTS = {
    "box1/saa/default": "ce083e33fb12e69b",
    "box1/saa/explicit": "9345ebf422e9b08c",
    "box1/basic/default": "2c70dae7cb5f68aa",
    "box1/basic/explicit": "0063bb6f4c81a9dd",
    "box1/knapsack/default": "9111b82877d74c98",
    "box1/knapsack/explicit": "b05fabcc91a1557b",
    "box1/reduced/default": "684053656d3ea839",
    "box1/reduced/explicit": "74ad6da543631f39",
    "box1/compact/default": "73232cd37d70b787",
    "box1/compact/explicit": "6a5f8bcdc109f298",
    "box1/theta-basic/default": "13ef48c715602312",
    "box1/theta-basic/explicit": "8cfa45773cbc2cad",
    "box1/theta-knapsack/default": "f5fc362c48d3cabc",
    "box1/theta-knapsack/explicit": "f4057c055df3bc18",
    "box1/theta-compact/default": "39be507e13a65da4",
    "box1/theta-compact/explicit": "a5a0120b3dba5554",
    "box5/saa/default": "dd7fdd250d6d930d",
    "box5/saa/explicit": "4c506aa09bda12ce",
    "box5/basic/default": "725e45ae72bb2954",
    "box5/basic/explicit": "004839c83b541c3a",
    "box5/knapsack/default": "026af82b88595d9f",
    "box5/knapsack/explicit": "edfafcff76437e2e",
    "box5/reduced/default": "bd78f3e1581c4335",
    "box5/reduced/explicit": "4786f704fbda0f15",
    "box5/compact/default": "a53855df78e671c9",
    "box5/compact/explicit": "af30027f50ac34cb",
    "box5/theta-basic/default": "261c7be0e0505975",
    "box5/theta-basic/explicit": "ce363e79161983cf",
    "box5/theta-knapsack/default": "75be1f5f85f8268e",
    "box5/theta-knapsack/explicit": "fe39a6fea8303690",
    "box5/theta-compact/default": "77d68f8407d7d61b",
    "box5/theta-compact/explicit": "d59728bc731397b0",
    "box9/saa/default": "47bfdcb320f598ea",
    "box9/saa/explicit": "68ecec90ecf87abe",
    "box9/basic/default": "6be30984647e354d",
    "box9/basic/explicit": "09c08d3877ab1e79",
    "box9/knapsack/default": "b02eccd0d73a1fef",
    "box9/knapsack/explicit": "6b3d6828b061d06d",
    "box9/reduced/default": "d7d6f6b8daa2a094",
    "box9/reduced/explicit": "6fc3cf497f68c5ea",
    "box9/compact/default": "b968cf284b937d75",
    "box9/compact/explicit": "724676ffef2d66dc",
    "box9/theta-basic/default": "78d1207d7561c9ac",
    "box9/theta-basic/explicit": "2ea67ce9a99eebc2",
    "box9/theta-knapsack/default": "493bc0afaa0db9fa",
    "box9/theta-knapsack/explicit": "ad3b669be6d0e976",
    "box9/theta-compact/default": "01a97681338f399c",
    "box9/theta-compact/explicit": "282f06c2eaf6c8ee",
    "line/saa/default": "1ef259888813c073",
    "line/saa/explicit": "245571f247432da1",
    "line/basic/default": "9937e2b8d585bce4",
    "line/basic/explicit": "7c572baa72bdc442",
    "line/knapsack/default": "edc5002579a1e6a2",
    "line/knapsack/explicit": "8c88bdaa8ef65a4c",
    "line/reduced/default": "a36e65d3bc9d0518",
    "line/reduced/explicit": "3df4f89b130fb5a7",
    "line/compact/default": "2c4707af57ef6a45",
    "line/compact/explicit": "8f387bfa32571c3e",
    "line/theta-basic/default": "33a3b6aa239b273d",
    "line/theta-basic/explicit": "0800e825ef7a9165",
    "line/theta-knapsack/default": "66a98acaea1be5a7",
    "line/theta-knapsack/explicit": "33e3e4b121f5e9c5",
    "line/theta-compact/default": "7c3308cf436b7c46",
    "line/theta-compact/explicit": "033446c8b52b61e0",
    "transport/saa/default": "9df3bae56b6c6d5b",
    "transport/saa/explicit": "2d32826343d7e823",
    "transport/basic/default": "b6f0ec51ecca28ee",
    "transport/basic/explicit": "c26c31eb934eaff0",
    "transport/knapsack/default": "b5dce0cdb42692e4",
    "transport/knapsack/explicit": "8455a1cf644904b2",
    "transport/reduced/default": "e6ed3f965e4a6811",
    "transport/reduced/explicit": "f75319ab8a674522",
    "transport/compact/default": "5709178f65495cdb",
    "transport/compact/explicit": "e46f8789adfdacf2",
    "transport/theta-basic/default": "47b3336095069b89",
    "transport/theta-basic/explicit": "50bb73a10a52e16f",
    "transport/theta-knapsack/default": "d7e3223bce331d0a",
    "transport/theta-knapsack/explicit": "8031c205920c4b27",
    "transport/theta-compact/default": "ddd30d149afa3857",
    "transport/theta-compact/explicit": "31d4292583065d2e",
    "transport50/saa/default": "cb9c220f5ed803b0",
    "transport50/saa/explicit": "b270b4e43b089ad3",
    "transport50/basic/default": "a011635979c20bd9",
    "transport50/basic/explicit": "068294871f1c4be8",
    "transport50/knapsack/default": "fd858d8c01b397d8",
    "transport50/knapsack/explicit": "5f97db2f834d6bd2",
    "transport50/reduced/default": "da4c115c6130ae05",
    "transport50/reduced/explicit": "b8b521a1bc6cc118",
    "transport50/compact/default": "ed9390c79e8168f0",
    "transport50/compact/explicit": "bf26942b420741fa",
    "transport50/theta-basic/default": "e2b7d6909127a89f",
    "transport50/theta-basic/explicit": "f07f9d86e7d9fa2b",
    "transport50/theta-knapsack/default": "bbd2ce4868b66cd4",
    "transport50/theta-knapsack/explicit": "5a34c152b4ff8794",
    "transport50/theta-compact/default": "df75773d83eaad9d",
    "transport50/theta-compact/explicit": "0a2ee8d2b43790b2",
}

DENSE_DIGESTS = {
    "transport/saa/default": "ab7fab98ccd89e89",
    "transport/saa/explicit": "0c0863f8664a8a37",
    "transport/basic/default": "1af16e847930e494",
    "transport/basic/explicit": "e6807347f72c2513",
    "transport/knapsack/default": "bc209b410c1cdeb5",
    "transport/knapsack/explicit": "dae365ec5a0f28e8",
    "transport/reduced/default": "4ed7c181daeb1e64",
    "transport/reduced/explicit": "a7de60db0160c3d1",
    "transport/compact/default": "18da2f5a6c1cdee4",
    "transport/compact/explicit": "26ec5ed466bc5a46",
    "transport/theta-basic/default": "b823969893be9416",
    "transport/theta-basic/explicit": "18d25a03a9b5e45f",
    "transport/theta-knapsack/default": "fe157acc9587ebe1",
    "transport/theta-knapsack/explicit": "7a0399856d504883",
    "transport/theta-compact/default": "e2b6638095b7d460",
    "transport/theta-compact/explicit": "8585dfcc7b076060",
    "transport50/saa/default": "c60d1a6dd148c227",
    "transport50/saa/explicit": "070063d03163e903",
    "transport50/basic/default": "2c620a8aeba5118c",
    "transport50/basic/explicit": "3569987ec38a1afc",
    "transport50/knapsack/default": "8a610c1a35bfcacb",
    "transport50/knapsack/explicit": "6f0038228f57d733",
    "transport50/reduced/default": "2ef14e32428f4612",
    "transport50/reduced/explicit": "6f6c636545f64c80",
    "transport50/compact/default": "7a51504f9e7be2f7",
    "transport50/compact/explicit": "b567052c0db6c550",
    "transport50/theta-basic/default": "e6a275267028f6bf",
    "transport50/theta-basic/explicit": "d40d19f1895e4e83",
    "transport50/theta-knapsack/default": "24193ffbb6080083",
    "transport50/theta-knapsack/explicit": "ec27f1adf655045a",
    "transport50/theta-compact/default": "ec30d054088ba7b3",
    "transport50/theta-compact/explicit": "3cf389956a83b20f",
}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_layout_digests(fixture):
    inst = FIXTURES[fixture]()
    mismatched = []
    for kind, explicit in CASES:
        model = _build(inst, kind, explicit)
        case = _case_id(fixture, kind, explicit)
        if text_digest(model) != TEXT_DIGESTS[case]:
            mismatched.append(case + " (to_text)")
        if fixture in DENSE_FIXTURES and dense_digest(model) != DENSE_DIGESTS[case]:
            mismatched.append(case + " (to_dense)")
    assert mismatched == []
