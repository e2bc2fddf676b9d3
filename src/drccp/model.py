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

import math
from dataclasses import dataclass, field

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

    G may have zero rows.  Bounds may be +-inf; callers that need a compact
    domain (big-M computation) check for that themselves.
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


@dataclass(frozen=True)
class DrccpInstance:
    """Full problem instance.

    Fields
    ------
    cost : length-L objective vector for min cost @ x
    domain : Polyhedron over x
    rows : safety rows defining S(x)
    samples : SampleSet (the empirical distribution)
    epsilon : risk level in (0, 1)
    theta : Wasserstein radius >= 0
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
        if self.theta < 0.0:
            raise ValueError("theta must be nonnegative")
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
        """Largest admissible number of discarded scenarios, floor(eps*N)."""
        return floor_frac_count(self.epsilon, self.n)


def row_scaling(instance: DrccpInstance):
    """Dual-norm scaling data of every safety row: (scales, products).

    scales[p] is ||b_p||_* and products[:, p] is samples @ b_p, shape (N, P).
    Every scaled quantity in the package (margins, model coefficients,
    quantiles, big-M, cut data) derives from these two arrays.  The products
    are taken one row at a time: a single samples @ B.T can differ from them
    in the last bits, and the search is sensitive to every bit of a model
    coefficient.
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


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lb: float
    ub: float
    block: str


@dataclass(frozen=True)
class Constraint:
    """Sparse row: sum(coef * var) sense rhs, with a provenance label."""

    coefs: tuple
    sense: str  # '<=', '>=' or '=='
    rhs: float
    label: str


@dataclass
class MipModel:
    """Solver-facing model.  Treated as immutable once built."""

    variables: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    objective: tuple = ()
    obj_sense: str = "min"

    def add_var(self, name, kind=CONTINUOUS, lb=-math.inf, ub=math.inf, block="aux") -> int:
        if kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown variable kind {kind!r}")
        if block not in BLOCK_TAGS:
            raise ValueError(f"unknown block tag {block!r}")
        if kind == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        self.variables.append(Variable(name, kind, float(lb), float(ub), block))
        return len(self.variables) - 1

    def add_constraint(self, coefs, sense, rhs, label) -> int:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        self.constraints.append(Constraint(tuple(coefs), sense, float(rhs), label))
        return len(self.constraints) - 1

    def set_objective(self, coefs, sense="min"):
        if sense not in ("min", "max"):
            raise ValueError("objective sense must be 'min' or 'max'")
        self.objective = tuple(coefs)
        self.obj_sense = sense

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def block_indices(self, tag: str) -> list:
        return [j for j, v in enumerate(self.variables) if v.block == tag]

    def rows_labeled(self, label: str) -> list:
        return [i for i, c in enumerate(self.constraints) if c.label == label]

    def validate(self):
        """Sanity-check index ranges, bounds and binary declarations."""
        nv = self.num_vars
        for v in self.variables:
            if v.lb > v.ub:
                raise ValueError(f"variable {v.name}: lb > ub")
            if v.kind == BINARY and (v.lb < 0.0 or v.ub > 1.0):
                raise ValueError(f"binary variable {v.name} with bounds outside [0, 1]")
        seen = set()
        for con in self.constraints:
            for j, coef in con.coefs:
                if not 0 <= j < nv:
                    raise ValueError(f"constraint {con.label}: variable index {j} out of range")
                if not math.isfinite(coef):
                    raise ValueError(f"constraint {con.label}: non-finite coefficient")
            if not math.isfinite(con.rhs):
                raise ValueError(f"constraint {con.label}: non-finite rhs")
        for j, coef in self.objective:
            if not 0 <= j < nv:
                raise ValueError("objective variable index out of range")
        for v in self.variables:
            if v.name in seen:
                raise ValueError(f"duplicate variable name {v.name}")
            seen.add(v.name)
        return self

    def to_dense(self):
        """Dense LP arrays (c, A, senses, b, lb, ub); binaries keep their
        [0, 1] box, integrality is the caller's business."""
        nv, nc = self.num_vars, self.num_constraints
        c = np.zeros(nv)
        for j, coef in self.objective:
            c[j] += coef
        if self.obj_sense == "max":
            c = -c
        A = np.zeros((nc, nv))
        senses = []
        b = np.zeros(nc)
        for i, con in enumerate(self.constraints):
            for j, coef in con.coefs:
                A[i, j] += coef
            senses.append(con.sense)
            b[i] = con.rhs
        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])
        return c, A, senses, b, lb, ub

    def to_text(self) -> str:
        """Debug dump, one row per line: `label: sum coef*var sense rhs`.

        Coefficients carry 12 significant digits so dumps are usable as
        golden files.
        """
        lines = []
        obj = " + ".join(
            f"{coef:.12g}*{self.variables[j].name}" for j, coef in self.objective
        )
        lines.append(f"{self.obj_sense}: {obj}")
        for con in self.constraints:
            terms = " + ".join(
                f"{coef:.12g}*{self.variables[j].name}" for j, coef in con.coefs
            )
            lines.append(f"{con.label}: {terms} {con.sense} {con.rhs:.12g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instance JSON serialization
# ---------------------------------------------------------------------------

def _fmt_number(x) -> str:
    x = float(x)
    if math.isnan(x):
        raise ValueError("NaN is not representable in instance JSON")
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _emit(obj) -> str:
    if isinstance(obj, dict):
        inner = ",".join(f'"{k}":{_emit(v)}' for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, str):
        return f'"{obj}"'
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    return _fmt_number(obj)


def dump_instance(instance: DrccpInstance) -> str:
    """Serialize an instance to deterministic JSON.

    Numbers are written with 17 significant digits so a dump/load round trip
    reproduces every IEEE double exactly.  Infinite bounds are written as
    (non-strict JSON) Infinity literals, which the stdlib parser accepts.
    """
    doc = {
        "L": instance.dim_x,
        "K": instance.samples.k,
        "cost": list(instance.cost),
        "domain": {
            "G": [list(row) for row in instance.domain.G],
            "g": list(instance.domain.g),
            "lb": list(instance.domain.lb),
            "ub": list(instance.domain.ub),
        },
        "rows": [
            {"a": list(r.a), "b": list(r.b), "d": r.d} for r in instance.rows
        ],
        "samples": [list(row) for row in instance.samples.samples],
        "epsilon": instance.epsilon,
        "theta": instance.theta,
        "norm": instance.norm,
    }
    return _emit(doc) + "\n"


def load_instance(text: str) -> DrccpInstance:
    import json

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
