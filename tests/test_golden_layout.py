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
    "box1/knapsack/default": "2e7bc80439318298",
    "box1/knapsack/explicit": "34cfadb18c1aac89",
    "box1/reduced/default": "41f4d14558dab137",
    "box1/reduced/explicit": "066e3f635e349c2f",
    "box1/compact/default": "4da6a6b6050f2c5f",
    "box1/compact/explicit": "83d9fc896c523b4e",
    "box1/theta-basic/default": "13ef48c715602312",
    "box1/theta-basic/explicit": "8cfa45773cbc2cad",
    "box1/theta-knapsack/default": "c269761de21a8993",
    "box1/theta-knapsack/explicit": "a5e2c6afda482602",
    "box1/theta-compact/default": "2dcdbd999614804c",
    "box1/theta-compact/explicit": "f0f3485c5b6a956a",
    "box5/saa/default": "dd7fdd250d6d930d",
    "box5/saa/explicit": "4c506aa09bda12ce",
    "box5/basic/default": "725e45ae72bb2954",
    "box5/basic/explicit": "004839c83b541c3a",
    "box5/knapsack/default": "90e43e4c5faf8232",
    "box5/knapsack/explicit": "9df01c605cddc86a",
    "box5/reduced/default": "8a0799c32ebe15ac",
    "box5/reduced/explicit": "ae06b9bc4a0ed46e",
    "box5/compact/default": "61624ea1aa6f7ecc",
    "box5/compact/explicit": "94b3464928045e4c",
    "box5/theta-basic/default": "261c7be0e0505975",
    "box5/theta-basic/explicit": "ce363e79161983cf",
    "box5/theta-knapsack/default": "8507584a8d1611b1",
    "box5/theta-knapsack/explicit": "c932747c33c20046",
    "box5/theta-compact/default": "323d406fa8c272f9",
    "box5/theta-compact/explicit": "fc28f30850281c63",
    "box9/saa/default": "47bfdcb320f598ea",
    "box9/saa/explicit": "68ecec90ecf87abe",
    "box9/basic/default": "6be30984647e354d",
    "box9/basic/explicit": "09c08d3877ab1e79",
    "box9/knapsack/default": "b7812eadf3d4b501",
    "box9/knapsack/explicit": "68b213b4f48d3daf",
    "box9/reduced/default": "8d15a335354d56b7",
    "box9/reduced/explicit": "e08fe10b7284dd47",
    "box9/compact/default": "8ef877098d15dd43",
    "box9/compact/explicit": "1823927d37051571",
    "box9/theta-basic/default": "78d1207d7561c9ac",
    "box9/theta-basic/explicit": "2ea67ce9a99eebc2",
    "box9/theta-knapsack/default": "c3780989a0edafdd",
    "box9/theta-knapsack/explicit": "eae3e86e15a3c98a",
    "box9/theta-compact/default": "8a97c29d8d714592",
    "box9/theta-compact/explicit": "69d123eea4b4ce03",
    "line/saa/default": "1ef259888813c073",
    "line/saa/explicit": "245571f247432da1",
    "line/basic/default": "9937e2b8d585bce4",
    "line/basic/explicit": "7c572baa72bdc442",
    "line/knapsack/default": "11a72ddb48c3e7c4",
    "line/knapsack/explicit": "90561fc7e6bf3b3e",
    "line/reduced/default": "142a2954d99e6dc9",
    "line/reduced/explicit": "22b60a7960026716",
    "line/compact/default": "9849eae657bc5f14",
    "line/compact/explicit": "7eb9ed6b57b04d2b",
    "line/theta-basic/default": "33a3b6aa239b273d",
    "line/theta-basic/explicit": "0800e825ef7a9165",
    "line/theta-knapsack/default": "b8953e145ecc0814",
    "line/theta-knapsack/explicit": "2724661d03560415",
    "line/theta-compact/default": "7bd8af3ce3cfc98c",
    "line/theta-compact/explicit": "7bd8af3ce3cfc98c",
    "transport/saa/default": "9df3bae56b6c6d5b",
    "transport/saa/explicit": "2d32826343d7e823",
    "transport/basic/default": "b6f0ec51ecca28ee",
    "transport/basic/explicit": "c26c31eb934eaff0",
    "transport/knapsack/default": "588a07400382a6f2",
    "transport/knapsack/explicit": "aec51d316ff31583",
    "transport/reduced/default": "36547c637abf6391",
    "transport/reduced/explicit": "54fe8e07c30d15ea",
    "transport/compact/default": "d0b39f4adceafdbc",
    "transport/compact/explicit": "156e330b2d8b291d",
    "transport/theta-basic/default": "47b3336095069b89",
    "transport/theta-basic/explicit": "50bb73a10a52e16f",
    "transport/theta-knapsack/default": "3b9171a4942d1e36",
    "transport/theta-knapsack/explicit": "e12a4368dc033f1b",
    "transport/theta-compact/default": "faab68997201511a",
    "transport/theta-compact/explicit": "e1a6ea6eafd7964c",
    "transport50/saa/default": "cb9c220f5ed803b0",
    "transport50/saa/explicit": "b270b4e43b089ad3",
    "transport50/basic/default": "a011635979c20bd9",
    "transport50/basic/explicit": "068294871f1c4be8",
    "transport50/knapsack/default": "2749810751fb2895",
    "transport50/knapsack/explicit": "7cc4a51c260e2977",
    "transport50/reduced/default": "237272649f4656cb",
    "transport50/reduced/explicit": "6647de0d7e0cae60",
    "transport50/compact/default": "132ea19087f5340a",
    "transport50/compact/explicit": "6cc4ea90d7188553",
    "transport50/theta-basic/default": "e2b7d6909127a89f",
    "transport50/theta-basic/explicit": "f07f9d86e7d9fa2b",
    "transport50/theta-knapsack/default": "fb5543db5a60f531",
    "transport50/theta-knapsack/explicit": "68b687e7e3280783",
    "transport50/theta-compact/default": "63967c1205c58437",
    "transport50/theta-compact/explicit": "9af776146f43be01",
}

DENSE_DIGESTS = {
    "transport/saa/default": "ab7fab98ccd89e89",
    "transport/saa/explicit": "0c0863f8664a8a37",
    "transport/basic/default": "1af16e847930e494",
    "transport/basic/explicit": "e6807347f72c2513",
    "transport/knapsack/default": "e616875e7feba847",
    "transport/knapsack/explicit": "12f37def63d56d0f",
    "transport/reduced/default": "4368d5549721f7b1",
    "transport/reduced/explicit": "523eb1308f6543a1",
    "transport/compact/default": "2c32e03321dde3d4",
    "transport/compact/explicit": "9509c75334655b7f",
    "transport/theta-basic/default": "b823969893be9416",
    "transport/theta-basic/explicit": "18d25a03a9b5e45f",
    "transport/theta-knapsack/default": "67e1cea9643acb3a",
    "transport/theta-knapsack/explicit": "6fe4bf8d32c3bedb",
    "transport/theta-compact/default": "9ba17683927768e1",
    "transport/theta-compact/explicit": "352379a94cc785ed",
    "transport50/saa/default": "c60d1a6dd148c227",
    "transport50/saa/explicit": "070063d03163e903",
    "transport50/basic/default": "2c620a8aeba5118c",
    "transport50/basic/explicit": "3569987ec38a1afc",
    "transport50/knapsack/default": "e12343091e9a3b7c",
    "transport50/knapsack/explicit": "e58b1fc13d5c0b19",
    "transport50/reduced/default": "ce3ae589ba79ac47",
    "transport50/reduced/explicit": "8fe1910e88fbd84f",
    "transport50/compact/default": "6a02b6c5d26c098b",
    "transport50/compact/explicit": "3ba747808134d549",
    "transport50/theta-basic/default": "e6a275267028f6bf",
    "transport50/theta-basic/explicit": "d40d19f1895e4e83",
    "transport50/theta-knapsack/default": "26256c45f0499bf5",
    "transport50/theta-knapsack/explicit": "c62ecc03ff9353fc",
    "transport50/theta-compact/default": "8dc66df93a3fe967",
    "transport50/theta-compact/explicit": "c54f25c73221d655",
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
