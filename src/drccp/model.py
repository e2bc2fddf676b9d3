"""Problem data model.

A chance-constrained instance is

    min  cost @ x
    s.t. sup_{P in ball} P[ xi outside S(x) ] <= epsilon,   x in X,

where the ambiguity ball is a 1-Wasserstein ball of radius theta around the
empirical distribution on N samples, X = {x : G x <= g, lb <= x <= ub} and
the safety set is an open polyhedron in the sample space,

    S(x) = { xi : b_p @ xi + d_p - a_p @ x > 0  for every row p }.

The distance from a sample to the complement of S(x) is

    dist(xi, S(x)) = max(0, min_p (b_p @ xi + d_p - a_p @ x) / ||b_p||_*),

with ||.||_* the dual of the norm the transport metric uses.  A sample on
the boundary (margin exactly zero) counts as unsafe: its distance is zero.

This module also carries the solver-facing MIP intermediate representation
(`MipModel`) shared by the formulation builders, cut separators and the
branch-and-cut driver.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import K_NUDGE

NORM_KINDS = ("one", "two", "inf")
_DUAL_OF = {"one": "inf", "two": "two", "inf": "one"}


def norm_value(v, kind: str) -> float:
    """Norm ||v|| for kind in {'one', 'two', 'inf'}."""
    v = np.asarray(v, dtype=float)
    if kind == "one":
        return float(np.sum(np.abs(v)))
    if kind == "two":
        return float(np.sqrt(np.dot(v, v)))
    if kind == "inf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError(f"unknown norm kind {kind!r}")


def dual_norm(b, kind: str) -> float:
    """Dual norm ||b||_* of a safety-row coefficient vector.

    The dual pairs are one<->inf and two<->two.  A zero vector makes the
    safety row degenerate (the row could never separate anything), so it is
    rejected rather than returned as 0.
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    val = norm_value(b, _DUAL_OF[kind])
    if val <= 0.0:
        raise ValueError("degenerate safety row: coefficient vector is zero")
    return val


@dataclass(frozen=True)
class SampleSet:
    """N samples of the K-dimensional uncertain vector, one per row."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2:
            raise ValueError("samples must be a 2-d array (N x K)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def k(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SafetyRow:
    """One affine safety condition  b @ xi + d - a @ x > 0."""

    a: np.ndarray
    b: np.ndarray
    d: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and math.isfinite(self.d)):
            raise ValueError("safety row data must be finite")
        if not np.any(b != 0.0):
            raise ValueError("degenerate safety row: b is zero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", float(self.d))


@dataclass(frozen=True)
class Polyhedron:
    """Decision domain  {x : G x <= g, lb <= x <= ub}.

    G may have zero rows.  Bounds may be +-inf (not NaN); callers that need a
    compact domain (big-M computation) check for that themselves.
    """

    G: np.ndarray
    g: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float).reshape(-1, np.asarray(self.lb).size)
        g = np.atleast_1d(np.asarray(self.g, dtype=float))
        lb = np.atleast_1d(np.asarray(self.lb, dtype=float))
        ub = np.atleast_1d(np.asarray(self.ub, dtype=float))
        if G.shape[0] != g.size:
            raise ValueError("G and g row counts differ")
        if lb.size != ub.size or G.shape[1] != lb.size:
            raise ValueError("bound lengths inconsistent with G columns")
        if np.any(np.isnan(lb)) or np.any(np.isnan(ub)):
            raise ValueError("bounds must not be NaN")
        if np.any(lb > ub):
            raise ValueError("lb exceeds ub")
        for name, arr in (("G", G), ("g", g)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def dim(self) -> int:
        return self.lb.size


def floor_frac_count(epsilon: float, n: int) -> int:
    """k = floor(epsilon * N), nudged so that near-integer products land on
    the intended integer (0.3 * 10 is 2.999... in binary floating point)."""
    return int(math.floor(epsilon * n + K_NUDGE))


def distance_discard_count(epsilon: float, n: int) -> int:
    """k' = ceil(epsilon * N) - 1, the most samples a distance-based model
    with a positive radius can discard, under the same nudge as
    `floor_frac_count`.  Discarded samples have shortfall r_i >= t, so the
    budget row gives t * (epsilon - |U| / N) >= theta > 0 and |U| < eps*N.
    k' is floor(eps*N) - 1 when eps*N is an integer and floor(eps*N)
    otherwise."""
    return max(int(math.ceil(epsilon * n - K_NUDGE)) - 1, 0)


@dataclass(frozen=True)
class DrccpInstance:
    """Full problem instance.

    Fields
    ------
    cost : finite length-L objective vector for min cost @ x
    domain : Polyhedron over x
    rows : safety rows defining S(x)
    samples : SampleSet (the empirical distribution)
    epsilon : risk level in (0, 1)
    theta : finite Wasserstein radius >= 0
    norm : transport metric norm, one of {'one', 'two', 'inf'}; 'two' is the
        default metric
    """

    cost: np.ndarray
    domain: Polyhedron
    rows: tuple
    samples: SampleSet
    epsilon: float
    theta: float
    norm: str = "two"

    def __post_init__(self):
        cost = np.atleast_1d(np.asarray(self.cost, dtype=float))
        if cost.size != self.domain.dim:
            raise ValueError("cost length differs from domain dimension")
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost must be finite")
        rows = tuple(self.rows)
        if not rows:
            raise ValueError("at least one safety row is required")
        for row in rows:
            if row.a.size != self.domain.dim:
                raise ValueError("safety row a-length differs from domain dimension")
            if row.b.size != self.samples.k:
                raise ValueError("safety row b-length differs from sample dimension")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (math.isfinite(self.theta) and self.theta >= 0.0):
            raise ValueError("theta must be finite and nonnegative")
        if self.norm not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm!r}")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "rows", rows)

    @property
    def dim_x(self) -> int:
        return self.domain.dim

    @property
    def n(self) -> int:
        return self.samples.n

    @property
    def p(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        """Largest admissible number of discarded scenarios at radius zero,
        floor(eps*N): the count of the saa model and of the referees.  The
        distance-based models discard at most `distance_discard_count`."""
        return floor_frac_count(self.epsilon, self.n)


def row_scaling(instance: DrccpInstance):
    """Dual-norm scaling data of every safety row: (scales, products).

    scales[p] is ||b_p||_* and products[:, p] is samples @ b_p, shape (N, P).
    `margins`, `formulations.compute_big_m` and
    `formulations.compute_quantiles` each start from these two arrays; the
    model rows and the cuts read the record that `compute_quantiles` makes.
    The products are taken one row at a time: a single samples @ B.T can
    differ from them in the last bits, and the search is sensitive to every
    bit of a model coefficient.
    """
    samples = instance.samples.samples
    scales = np.empty(instance.p)
    products = np.empty((instance.n, instance.p))
    for p, row in enumerate(instance.rows):
        scales[p] = dual_norm(row.b, instance.norm)
        products[:, p] = samples @ row.b
    return scales, products


def margins(instance: DrccpInstance, x) -> np.ndarray:
    """Dual-norm scaled margins, shape (N, P).

    Entry (i, p) is (b_p @ xi_i + d_p - a_p @ x) / ||b_p||_*; positive means
    sample i satisfies row p strictly.
    """
    x = np.asarray(x, dtype=float)
    scales, products = row_scaling(instance)
    out = np.empty((instance.n, instance.p))
    for p, row in enumerate(instance.rows):
        out[:, p] = (products[:, p] + row.d - row.a @ x) / scales[p]
    return out


def distance_profile(instance: DrccpInstance, x) -> np.ndarray:
    """Distances of all N samples to the unsafe region, shape (N,)."""
    return np.maximum(0.0, margins(instance, x).min(axis=1))


# ---------------------------------------------------------------------------
# MIP intermediate representation
# ---------------------------------------------------------------------------

CONTINUOUS = "continuous"
BINARY = "binary"
BLOCK_TAGS = ("x", "z", "r", "t", "theta", "aux")


def _pairs(coefs):
    """(index, coefficient) pairs as an index array and a value array."""
    pairs = list(coefs)
    return (np.array([j for j, _ in pairs], dtype=np.intp),
            np.array([v for _, v in pairs], dtype=float))


class MipModel:
    """Solver-facing model, kept as arrays.  Treated as immutable once built.

    Variable j is names[j], with bounds lb[j] and ub[j], binary[j] and the
    block tag blocks[j].  Row i is  sum_k vals[k] * x[cols[k]]  senses[i]
    rhs[i]  over k in start[i]:start[i + 1] (CSR), its terms in the order
    they were given, with the provenance label labels[i].  The objective is
    sum(obj_vals * x[obj_cols]), minimized or maximized per obj_sense.  A
    stored row or objective never holds a zero coefficient.

    The z and r blocks stand for samples.  A formulation builder records
    num_samples (N) and sample_ids, the sample of each z column in block
    order; the r columns, when present, follow the same ids.  A model may
    leave samples out, and `sample_columns` maps ids back to columns.  A
    hand-built model leaves both None: the i-th column of each block is
    sample i.
    """

    def __init__(self):
        self.names = np.array([], dtype=str)
        self.lb = np.empty(0)
        self.ub = np.empty(0)
        self.binary = np.zeros(0, dtype=bool)
        self.blocks = np.array([], dtype=str)
        self.start = np.zeros(1, dtype=np.intp)
        self.cols = np.empty(0, dtype=np.intp)
        self.vals = np.empty(0)
        self.senses = np.array([], dtype=str)
        self.rhs = np.empty(0)
        self.labels = np.array([], dtype=str)
        self.obj_cols = np.empty(0, dtype=np.intp)
        self.obj_vals = np.empty(0)
        self.obj_sense = "min"
        self.num_samples = None
        self.sample_ids = None

    def add_vars(self, names, kind=CONTINUOUS, lb=-math.inf, ub=math.inf, block="aux"):
        """One variable per name, all of one kind and block (lb and ub
        broadcast); returns their indices."""
        if kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown variable kind {kind!r}")
        if block not in BLOCK_TAGS:
            raise ValueError(f"unknown block tag {block!r}")
        count = len(names)
        lb = np.broadcast_to(np.asarray(lb, dtype=float), (count,))
        ub = np.broadcast_to(np.asarray(ub, dtype=float), (count,))
        if kind == BINARY:
            lb, ub = np.maximum(lb, 0.0), np.minimum(ub, 1.0)
        first = self.num_vars
        self.names = np.concatenate([self.names, np.asarray(names, dtype=str)])
        self.lb = np.concatenate([self.lb, lb])
        self.ub = np.concatenate([self.ub, ub])
        self.binary = np.concatenate([self.binary, np.full(count, kind == BINARY)])
        self.blocks = np.concatenate([self.blocks, np.full(count, block)])
        return np.arange(first, first + count)

    def add_var(self, name, kind=CONTINUOUS, lb=-math.inf, ub=math.inf, block="aux") -> int:
        return int(self.add_vars([name], kind, lb, ub, block)[0])

    def add_rows(self, cols, vals, sense, rhs, label):
        """Rows  sum_w vals[r, w] * x[cols[r, w]]  sense  rhs[r], one sense and
        label for all.  cols, vals and rhs broadcast to equal-width blocks (a
        1-d cols or vals is the same terms in every row); zero coefficients
        are dropped."""
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        cols, vals, _ = np.broadcast_arrays(np.atleast_2d(np.asarray(cols, dtype=np.intp)),
                                            np.atleast_2d(np.asarray(vals, dtype=float)),
                                            rhs[:, None])
        rhs = np.broadcast_to(rhs, cols.shape[:1])
        keep = vals != 0.0
        self.start = np.concatenate([self.start, self.start[-1] + np.cumsum(keep.sum(axis=1))])
        self.cols = np.concatenate([self.cols, cols[keep]])
        self.vals = np.concatenate([self.vals, vals[keep]])
        self.senses = np.concatenate([self.senses, np.full(rhs.size, sense)])
        self.rhs = np.concatenate([self.rhs, rhs])
        self.labels = np.concatenate([self.labels, np.full(rhs.size, label)])

    def add_constraint(self, coefs, sense, rhs, label) -> int:
        """One row from (index, coefficient) pairs; returns its index."""
        self.add_rows(*_pairs(coefs), sense, rhs, label)
        return self.num_constraints - 1

    def set_objective(self, coefs, sense="min"):
        if sense not in ("min", "max"):
            raise ValueError("objective sense must be 'min' or 'max'")
        cols, vals = _pairs(coefs)
        keep = vals != 0.0
        self.obj_cols, self.obj_vals = cols[keep], vals[keep]
        self.obj_sense = sense

    @property
    def num_vars(self) -> int:
        return self.names.size

    @property
    def num_constraints(self) -> int:
        return self.rhs.size

    def block_indices(self, tag: str) -> list:
        return np.flatnonzero(self.blocks == tag).tolist()

    def sample_columns(self, tag: str) -> np.ndarray:
        """Column of each sample in the z or r block, -1 for a sample the
        block leaves out; one entry per sample when a map is recorded, the
        block's columns otherwise."""
        cols = np.flatnonzero(self.blocks == tag)
        if self.sample_ids is None:
            return cols
        out = np.full(self.num_samples, -1, dtype=np.intp)
        if cols.size:
            out[self.sample_ids] = cols
        return out

    def validate(self):
        """Sanity-check bounds, index ranges, finiteness and names."""
        nv = self.num_vars
        bad = np.flatnonzero(self.lb > self.ub)
        if bad.size:
            raise ValueError(f"variable {self.names[bad[0]]}: lb > ub")
        bad = np.flatnonzero(self.binary & ((self.lb < 0.0) | (self.ub > 1.0)))
        if bad.size:
            raise ValueError(f"binary variable {self.names[bad[0]]} with bounds outside [0, 1]")

        def label_of_term(k):
            return self.labels[np.searchsorted(self.start, k, side="right") - 1]

        bad = np.flatnonzero((self.cols < 0) | (self.cols >= nv))
        if bad.size:
            raise ValueError(f"constraint {label_of_term(bad[0])}: variable index "
                             f"{self.cols[bad[0]]} out of range")
        bad = np.flatnonzero(~np.isfinite(self.vals))
        if bad.size:
            raise ValueError(f"constraint {label_of_term(bad[0])}: non-finite coefficient")
        bad = np.flatnonzero(~np.isfinite(self.rhs))
        if bad.size:
            raise ValueError(f"constraint {self.labels[bad[0]]}: non-finite rhs")
        if np.any((self.obj_cols < 0) | (self.obj_cols >= nv)):
            raise ValueError("objective variable index out of range")
        if not np.all(np.isfinite(self.obj_vals)):
            raise ValueError("objective: non-finite coefficient")
        names, counts = np.unique(self.names, return_counts=True)
        if np.any(counts > 1):
            raise ValueError(f"duplicate variable name {names[np.argmax(counts > 1)]}")
        return self

    def to_dense(self):
        """Dense LP arrays (c, A, senses, b, lb, ub), A in Fortran order, so
        `SimplexSolver` keeps it without a copy; binaries keep their [0, 1]
        box, integrality is the caller's business.  Repeated indices in a
        row sum, in order."""
        c = np.zeros(self.num_vars)
        np.add.at(c, self.obj_cols, self.obj_vals)
        if self.obj_sense == "max":
            c = -c
        A = np.zeros((self.num_constraints, self.num_vars), order="F")
        rows = np.repeat(np.arange(self.num_constraints), np.diff(self.start))
        np.add.at(A, (rows, self.cols), self.vals)
        return c, A, self.senses.tolist(), self.rhs.copy(), self.lb.copy(), self.ub.copy()

    def to_text(self) -> str:
        """Debug dump, one row per line: `label: sum coef*var sense rhs`.

        Coefficients carry 12 significant digits so dumps are usable as
        golden files.
        """
        names = self.names.tolist()

        def terms(cols, vals):
            pairs = zip(cols.tolist(), vals.tolist())
            return " + ".join(f"{v:.12g}*{names[j]}" for j, v in pairs)

        lines = [f"{self.obj_sense}: {terms(self.obj_cols, self.obj_vals)}"]
        for i in range(self.num_constraints):
            span = slice(self.start[i], self.start[i + 1])
            lines.append(f"{self.labels[i]}: {terms(self.cols[span], self.vals[span])} "
                         f"{self.senses[i]} {self.rhs[i]:.12g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instance JSON serialization
# ---------------------------------------------------------------------------

def dump_instance(instance: DrccpInstance) -> str:
    """Serialize an instance to deterministic JSON.

    Numbers are written as their shortest round-trip `repr`, so a dump/load
    round trip reproduces every IEEE double exactly.  Infinite bounds are
    written as (non-strict JSON) Infinity literals, which the stdlib parser
    accepts.  Instances never hold NaN: their constructors reject it.
    """
    dom = instance.domain
    doc = {
        "L": instance.dim_x,
        "K": instance.samples.k,
        "cost": instance.cost.tolist(),
        "domain": {"G": dom.G.tolist(), "g": dom.g.tolist(),
                   "lb": dom.lb.tolist(), "ub": dom.ub.tolist()},
        "rows": [{"a": r.a.tolist(), "b": r.b.tolist(), "d": r.d} for r in instance.rows],
        "samples": instance.samples.samples.tolist(),
        "epsilon": float(instance.epsilon),
        "theta": float(instance.theta),
        "norm": instance.norm,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def load_instance(text: str) -> DrccpInstance:
    doc = json.loads(text)
    dom = doc["domain"]
    L = int(doc["L"])
    G = np.asarray(dom["G"], dtype=float).reshape(-1, L)
    domain = Polyhedron(G=G, g=dom["g"], lb=dom["lb"], ub=dom["ub"])
    rows = tuple(SafetyRow(a=r["a"], b=r["b"], d=r["d"]) for r in doc["rows"])
    samples = SampleSet(np.asarray(doc["samples"], dtype=float).reshape(-1, int(doc["K"])))
    return DrccpInstance(
        cost=doc["cost"],
        domain=domain,
        rows=rows,
        samples=samples,
        epsilon=float(doc["epsilon"]),
        theta=float(doc["theta"]),
        norm=doc.get("norm", "two"),
    )


def save_instance(instance: DrccpInstance, path):
    with open(path, "w") as fh:
        fh.write(dump_instance(instance))


def read_instance(path) -> DrccpInstance:
    with open(path) as fh:
        return load_instance(fh.read())
