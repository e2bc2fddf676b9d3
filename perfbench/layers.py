"""Per-layer spans and counters, taken from outside the solver.

`Instrument` replaces public functions and methods of the drccp modules
with thin wrappers inside the benchmark process; no library file changes.
Two levels exist:

* untimed: only the hooks that read the deterministic counters of every
  branch-and-cut solve (status, nodes, LP iterations, pivots, cuts) and of
  every enumeration.  They fire a few times per solve, so end-to-end runs
  stay untraced in effect.
* timed: additionally a span (name, start, end, parent, solve id) around
  every call listed in TIMED, and a plain count for the cheap, high-volume
  calls in COUNTED (timing the ~600k `set_bound` calls of one grid pass
  would cost more than they do).

Spans stay in memory; `layer_metrics` folds them into per-layer totals and
self times (a span's duration minus the part its child spans cover).
"""
from __future__ import annotations

import math
import time
from collections import Counter

LAYERS = ("transport", "formulations", "model", "simplex", "bnc", "cuts", "oracles")

# (module, attribute path, span name).  Several attributes may share a name.
TIMED = (
    ("transport", "generate", "transport.generate"),
    ("transport", "to_drccp", "transport.to_drccp"),
    ("transport", "transport_big_m", "transport.big_m"),
    ("formulations", "build_formulation", "formulations.build"),
    ("formulations", "build_basic", "formulations.build"),
    ("formulations", "build_theta_variant", "formulations.build_theta_variant"),
    ("formulations", "compute_quantiles", "formulations.quantiles"),
    ("formulations", "compute_big_m", "formulations.big_m"),
    ("formulations", "theta_max", "formulations.theta_max"),
    ("model", "MipModel.to_dense", "model.to_dense"),
    ("model", "distance_profile", "model.distance_profile"),
    ("model", "margins", "model.margins"),
    ("simplex", "SimplexSolver.__init__", "simplex.init"),
    ("simplex", "SimplexSolver.solve", "simplex.solve"),
    ("simplex", "SimplexSolver.load_state", "simplex.load_state"),
    ("simplex", "SimplexSolver.add_row", "simplex.add_row"),
    ("simplex", "SimplexSolver.reset_basis", "simplex.reset_basis"),
    ("bnc", "solve", "bnc.solve"),
    ("cuts", "MixingSeparator.separate", "cuts.separate"),
    ("cuts", "PathSeparator.separate", "cuts.separate"),
    ("oracles", "worst_case_prob", "oracles.certify"),
    ("oracles", "lemma_certificate", "oracles.certify"),
    ("oracles", "cvar", "oracles.certify"),
    ("oracles", "enumerate_optimal", "oracles.enumerate"),
)

COUNTED = (
    ("simplex", "SimplexSolver.set_bound", "simplex.set_bound"),
    ("simplex", "SimplexSolver.get_state", "simplex.get_state"),
    ("cuts", "cut_row", "cuts.cut_row"),
)

# Installed at both levels: the per-solve counters come from these.
RECORDED = (
    ("simplex", "SimplexSolver.__init__", "simplex.init"),
    ("bnc", "solve", "bnc.solve"),
    ("oracles", "enumerate_optimal", "oracles.enumerate"),
)

# Span names whose return value feeds a counter (method `_after_<name>`).
HOOKED = ("simplex.init", "simplex.solve", "bnc.solve", "cuts.separate",
          "oracles.enumerate")

LIMIT_STATUSES = ("feasible-gap", "no-incumbent", "time-limit")


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Instrument:
    """Wrappers, spans and counters for one benchmark process."""

    def __init__(self, timed: bool):
        self.timed = timed
        self._saved = []
        self.spans = []         # (name, start, end, parent index, solve id)
        self._stack = []
        self.counts = Counter()
        self.solves = []        # counters of each bnc.solve call
        self.enumerations = []  # counters of each enumerate_optimal call
        self._solve_id = -1
        self._new_solvers = []

    def reset(self):
        """Forget everything recorded; the installed wrappers stay bound to
        the same containers, so they are cleared in place."""
        for box in (self.spans, self._stack, self.counts, self.solves,
                    self.enumerations, self._new_solvers):
            box.clear()
        self._solve_id = -1

    # -- installation -------------------------------------------------------

    def install(self, lib):
        """Wrap the functions of `lib` (a namespace of drccp modules)."""
        hooks = {name: getattr(self, "_after_" + name.replace(".", "_"))
                 for name in HOOKED}
        plan = {}
        for mod, path, name in RECORDED:
            plan[(mod, path)] = (name, False)
        if self.timed:
            for mod, path, name in TIMED:
                plan[(mod, path)] = (name, True)
            for mod, path, name in COUNTED:
                plan[(mod, path)] = (name, False)
        for (mod, path), (name, span) in plan.items():
            owner, attr = _resolve(getattr(lib, mod), path)
            # an inherited method is shadowed on the subclass, then removed
            self._saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, span,
                                            hooks.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, span, hook):
        counts = self.counts
        if not span:
            if hook is None:
                def counted(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
                return counted

            def recorded(*args, **kwargs):
                counts[name] += 1
                before = self._before(name)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    self._restore(before)
                    raise
                hook(args, out, before)
                return out
            return recorded

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            counts[name] += 1
            before = self._before(name) if hook else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                counts[name + ".raised." + type(exc).__name__] += 1
                self._restore(before)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._solve_id)
            if hook:
                hook(args, out, before)
            return out
        return spanned

    # -- hooks --------------------------------------------------------------

    def _before(self, name):
        if name in ("bnc.solve", "oracles.enumerate"):
            outer = (self._solve_id, len(self._new_solvers))
            self._solve_id = len(self.solves) + len(self.enumerations)
            return outer
        return None

    def _restore(self, before):
        if before is not None:
            self._solve_id, mark = before
            del self._new_solvers[mark:]

    def _harvest_pivots(self, mark):
        """Pivots of the simplex instances created since `mark`; they are
        dropped afterwards so no solver outlives its owner."""
        mine = self._new_solvers[mark:]
        del self._new_solvers[mark:]
        return sum(s.total_pivots for s in mine)

    def _after_simplex_init(self, args, out, before):
        if self._solve_id >= 0:  # solvers outside a solve are not tracked
            self._new_solvers.append(args[0])

    def _after_simplex_solve(self, args, out, before):
        self.counts["simplex.iterations"] += out.iterations

    def _after_bnc_solve(self, args, out, before):
        self._solve_id, mark = before
        self.solves.append({
            "status": out.status,
            "objective": out.objective,
            "nodes": out.nodes,
            "iterations": out.iterations,
            "pivots": self._harvest_pivots(mark),
            "cuts": dict(sorted(out.cuts.items())),
            "root_s": out.root_time_s,
            "x": out.x,
        })

    def _after_cuts_separate(self, args, out, before):
        if out:
            self.counts["cuts.separate_hits"] += 1
            for cut in out:
                self.counts["cuts.emitted_" + cut.family] += 1

    def _after_oracles_enumerate(self, args, out, before):
        self._solve_id, mark = before
        self.enumerations.append({
            "status": out.status,
            "objective": out.objective,
            "supports": out.supports_tried,
            "pivots": self._harvest_pivots(mark),
        })


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def span_totals(spans):
    """Inclusive seconds per span name and self seconds per layer."""
    incl = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        dur = end - start
        incl[name] += dur
        if parent >= 0:
            child[parent] += dur
    self_layer = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        self_layer[name.split(".", 1)[0]] += (end - start) - child[i]
    return incl, self_layer


def _ratio(num, den):
    return num / den if den else 0.0


def wrapper_costs(calls=20000, repeats=3):
    """Seconds that one span wrapper and one count wrapper add to a call,
    measured on a no-op (best of `repeats`)."""
    probe = Instrument(timed=True)

    def noop():
        return None

    def loop(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    span = probe._wrap(noop, "probe.span", True, None)
    count = probe._wrap(noop, "probe.count", False, None)
    best = [math.inf, math.inf]
    for _ in range(repeats):
        bare = loop(noop)
        best[0] = min(best[0], max(loop(span) - bare, 0.0) / calls)
        best[1] = min(best[1], max(loop(count) - bare, 0.0) / calls)
    return tuple(best)


def layer_metrics(inst: Instrument, costs=(0.0, 0.0)) -> dict:
    """Per-layer totals of one instrumented stretch of work (seconds,
    counts).  Callers divide by the number of passes it covers.  `costs`
    (from `wrapper_costs`) turns the span and call counts into an estimate
    of the time the wrappers added."""
    incl, self_s = span_totals(inst.spans)
    c = inst.counts
    cold = sum(1 for name, _, _, parent, _ in inst.spans
               if name == "simplex.reset_basis"
               and (parent < 0 or inst.spans[parent][0] != "simplex.init"))
    solves = inst.solves
    out = {
        "simplex.solve_s": incl["simplex.solve"],
        "simplex.solve_calls": c["simplex.solve"],
        "simplex.iterations": c["simplex.iterations"],
        "simplex.pivots": sum(s["pivots"] for s in solves)
        + sum(e["pivots"] for e in inst.enumerations),
        "simplex.load_state_s": incl["simplex.load_state"],
        "simplex.load_state_calls": c["simplex.load_state"],
        "simplex.add_row_s": incl["simplex.add_row"],
        "simplex.add_row_calls": c["simplex.add_row"],
        "simplex.set_bound_calls": c["simplex.set_bound"],
        "simplex.reset_basis_calls": cold,
        "simplex.stalls": c["simplex.solve.raised.SimplexStall"],
        "bnc.solve_s": incl["bnc.solve"],
        "bnc.solve_calls": c["bnc.solve"],
        "bnc.root_s": sum(s["root_s"] for s in solves),
        "bnc.nodes": sum(s["nodes"] for s in solves),
        "bnc.limit_stops": sum(1 for s in solves if s["status"] in LIMIT_STATUSES),
        "cuts.separate_s": incl["cuts.separate"],
        "cuts.separate_calls": c["cuts.separate"],
        "cuts.emitted_mixing": c["cuts.emitted_mixing"],
        "cuts.emitted_path": c["cuts.emitted_path"],
        "cuts.separate_hits": c["cuts.separate_hits"],
        "formulations.build_s": incl["formulations.build"],
        "formulations.build_calls": c["formulations.build"],
        "formulations.quantiles_s": incl["formulations.quantiles"],
        "formulations.theta_max_s": incl["formulations.theta_max"],
        "model.to_dense_s": incl["model.to_dense"],
        "model.distance_profile_s": incl["model.distance_profile"],
        "oracles.certify_s": incl["oracles.certify"],
        "oracles.certify_calls": c["oracles.certify"],
        "oracles.enumerate_s": incl["oracles.enumerate"],
        "oracles.enumerate_supports": sum(e["supports"] for e in inst.enumerations),
        "transport.generate_s": incl["transport.generate"],
        "trace.spans": len(inst.spans),
        "trace.overhead_s": len(inst.spans) * costs[0]
        + sum(c[name] for _, _, name in COUNTED) * costs[1],
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = self_s[layer]
    return out


def finish_layer_metrics(raw: dict) -> dict:
    """Add the ratios, which must be taken after totals are combined."""
    out = dict(raw)
    out["simplex.us_per_iteration"] = 1e6 * _ratio(raw["simplex.solve_s"],
                                                   raw["simplex.iterations"])
    out["bnc.nodes_per_s"] = _ratio(raw["bnc.nodes"], raw["bnc.solve_s"])
    out["cuts.emitted"] = raw["cuts.emitted_mixing"] + raw["cuts.emitted_path"]
    out["cuts.hit_ratio"] = _ratio(raw["cuts.separate_hits"], raw["cuts.separate_calls"])
    return out
