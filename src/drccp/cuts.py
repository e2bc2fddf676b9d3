"""Valid inequalities for the distance-based formulations.

Two families, both indexed by a safety row p and a sequence J of scenarios
taken from the above-quantile set of that row, listed in decreasing h order
with a zero sentinel appended:

* star (mixing) cuts:   margin_{j1,p}(x) + sum_t (h_t - h_{t+1}) z_{j_t} >= 0
* path cuts:            g*_p(x) - t + sum_t r_{j_t} >= sum_t (h_t - h_{t+1}) (1 - z_{j_t})

Separation is exact: a greedy scan maximizes the star right-hand side and a
quadratic dynamic program maximizes the path value.  Each routine returns at
most one cut per row, the most violated one, and only when the violation
clears CUT_VIOLATION_TOL.  Both separators read a_p, the sample terms and
h from the `QuantileData` record the formulation builder reads, and share
one row routine.  SEPARATORS maps each family name to its separator class.  The validity referee is `oracles.check_cut_validity`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CUT_VIOLATION_TOL
from .formulations import QuantileData, compute_quantiles
from .model import DrccpInstance


@dataclass(frozen=True)
class FractionalPoint:
    """Relaxation values split into the shared variable blocks; z and r are
    indexed by sample id."""

    x: np.ndarray
    z: np.ndarray
    r: np.ndarray | None = None
    t: float | None = None


def _by_sample(model, values, tag):
    cols = model.sample_columns(tag)
    out = np.zeros(cols.size)
    kept = cols >= 0
    out[kept] = values[cols[kept]]
    return out


def point_from_solution(model, values):
    """The blocks of a solution; z and r hold one entry per sample, 0 for a
    sample the model leaves out."""
    values = np.asarray(values, dtype=float)
    t_idx = model.block_indices("t")
    return FractionalPoint(
        x=values[model.block_indices("x")],
        z=_by_sample(model, values, "z"),
        r=_by_sample(model, values, "r") if model.block_indices("r") else None,
        t=float(values[t_idx[0]]) if t_idx else None,
    )


@dataclass(frozen=True)
class Cut:
    family: str  # 'mixing' or 'path'
    p: int
    sequence: tuple  # scenario ids, h-descending
    x_coefs: np.ndarray
    z_coefs: tuple  # ((scenario id, coefficient), ...)
    r_coefs: tuple
    t_coef: float
    rhs: float  # row sense is >=
    violation: float


def format_cut(cut: Cut) -> str:
    ids = ",".join(str(int(j)) for j in cut.sequence)
    return f"{cut.family} p={cut.p} J=[{ids}] viol={_short_sci(cut.violation)}"


def _short_sci(v: float) -> str:
    mant, exp = f"{v:.1e}".split("e")
    return f"{mant}e{int(exp)}"


def cut_row(cut: Cut, model):
    """The cut as a dense row over the model variables: (coefs, rhs), sense >=.

    z and r coefficients land on the columns of their sample ids.  Absent
    variables get +0.0 (a -0.0 coefficient comes out as +0.0 too).
    """
    t_idx = model.block_indices("t")
    if cut.r_coefs and not model.block_indices("r"):
        raise ValueError("cut uses shortfall variables the model does not have")
    if cut.t_coef != 0.0 and not t_idx:
        raise ValueError("cut uses the threshold variable the model does not have")
    terms = list(zip(model.block_indices("x"), cut.x_coefs))
    for tag, coefs in (("z", cut.z_coefs), ("r", cut.r_coefs)):
        if coefs:
            cols = model.sample_columns(tag)[[i for i, _ in coefs]]
            if np.any(cols < 0):
                raise ValueError(f"cut names a sample without a {tag} column in the model")
            terms += zip(cols.tolist(), [v for _, v in coefs])
    if cut.t_coef != 0.0:
        terms.append((t_idx[0], cut.t_coef))
    coefs = np.zeros(model.num_vars)
    np.add.at(coefs, np.array([j for j, _ in terms], dtype=np.intp), [v for _, v in terms])
    return coefs, cut.rhs


# ---------------------------------------------------------------------------
# Pure separation cores (candidate arrays in, positions out)
# ---------------------------------------------------------------------------

def most_violated_star(h, z):
    """Sequence maximizing sum (h_t - h_{t+1}) (1 - z_t), sentinel h = 0.

    Scan candidates by decreasing h, keeping an element exactly when its
    (1 - z) weight strictly beats the best seen so far; the telescoped value
    of that chain dominates every other subsequence.  Returns (positions in
    chosen order, value).
    """
    h = np.asarray(h, dtype=float)
    z = np.asarray(z, dtype=float)
    order = np.argsort(-h, kind="stable")
    chosen = []
    best = 0.0
    for pos in order:
        if h[pos] <= 0.0:
            break
        w = 1.0 - z[pos]
        if w > best:
            chosen.append(int(pos))
            best = w
    val = 0.0
    for a, pos in enumerate(chosen):
        nxt = h[chosen[a + 1]] if a + 1 < len(chosen) else 0.0
        val += (h[pos] - nxt) * (1.0 - z[pos])
    return tuple(chosen), val


def best_path_sequence(h, z, r):
    """Nonempty sequence maximizing
    sum (h_t - h_{t+1}) (1 - z_t) - sum r_t, sentinel h = 0.

    Quadratic dynamic program over candidates sorted by decreasing h:
    f[a] = best value of a chain starting at a, linking a either straight to
    the sentinel or to any later candidate.  Returns (positions, value);
    (empty, 0.0) when there are no candidates.
    """
    h = np.asarray(h, dtype=float)
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    order = [int(p) for p in np.argsort(-h, kind="stable") if h[p] > 0.0]
    m = len(order)
    if m == 0:
        return (), 0.0
    f = np.empty(m)
    nxt = np.full(m, -1, dtype=int)
    for a in range(m - 1, -1, -1):
        pos = order[a]
        w = 1.0 - z[pos]
        best = h[pos] * w - r[pos]  # link straight to the sentinel
        link = -1
        for b in range(a + 1, m):
            cand = (h[pos] - h[order[b]]) * w - r[pos] + f[b]
            if cand > best + 0.0:
                best = cand
                link = b
        f[a] = best
        nxt[a] = link
    start = int(np.argmax(f))
    seq = []
    a = start
    while a != -1:
        seq.append(order[a])
        a = nxt[a]
    return tuple(seq), float(f[start])


# ---------------------------------------------------------------------------
# Separators
# ---------------------------------------------------------------------------

class _SeparatorBase:
    """A family supplies `_sequence` (its sequence routine and the threshold
    it subtracts from g*_p(x)) and `_terms` (the r, t and rhs of its cut)."""

    def __init__(self, instance: DrccpInstance, quant: QuantileData | None = None):
        self.instance = instance
        self.quant = quant if quant is not None else compute_quantiles(instance)
        self.emitted = []

    def separate(self, point: FractionalPoint):
        cuts = []
        for p in range(self.instance.p):
            cut = self._separate_row(p, point)
            if cut is not None:
                cuts.append(cut)
                self.emitted.append(cut)
        return cuts

    def _separate_row(self, p, point):
        quant = self.quant
        cand = quant.surviving[p]
        if cand.size == 0:
            return None
        positions, val, threshold = self._sequence(quant.h[cand, p], cand, point)
        g_star = quant.g0[p] - float(quant.a[p] @ point.x)
        viol = val - (g_star - threshold)
        if viol <= CUT_VIOLATION_TOL or not positions:
            return None
        seq = tuple(int(cand[pos]) for pos in positions)
        hs = [quant.h[j, p] for j in seq]
        deltas = [hs[a] - (hs[a + 1] if a + 1 < len(seq) else 0.0) for a in range(len(seq))]
        r_coefs, t_coef, rhs = self._terms(p, seq, deltas)
        return Cut(
            family=self.family,
            p=p,
            sequence=seq,
            x_coefs=-quant.a[p],
            z_coefs=tuple(zip(seq, deltas)),
            r_coefs=r_coefs,
            t_coef=t_coef,
            rhs=rhs,
            violation=float(viol),
        )


class MixingSeparator(_SeparatorBase):
    family = "mixing"

    def _sequence(self, h, cand, point):
        positions, val = most_violated_star(h, point.z[cand])
        return positions, val, 0.0

    def _terms(self, p, seq, deltas):
        return (), 0.0, -float(self.quant.bxi[seq[0], p])


class PathSeparator(_SeparatorBase):
    family = "path"

    def _sequence(self, h, cand, point):
        if point.r is None or point.t is None:
            raise ValueError("path separation needs the shortfall and threshold values")
        positions, val = best_path_sequence(h, point.z[cand], point.r[cand])
        return positions, val, point.t

    def _terms(self, p, seq, deltas):
        return tuple((j, 1.0) for j in seq), -1.0, float(sum(deltas) - self.quant.g0[p])


SEPARATORS = {"mixing": MixingSeparator, "path": PathSeparator}
