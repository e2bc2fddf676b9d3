"""A one-dimensional instance small enough to check by hand.

One decision x in [0, 10] at unit cost, one safety condition x > xi, and
four demand samples {1, 2, 3, 4}.  The chance constraint allows 25% of the
mass to be unsafe after an adversary moves up to theta of probability mass
(1-Wasserstein).  Walk through margins, the worst-case probability, the
exact solve, and the independent audit of the answer.
"""
import numpy as np

from drccp import (
    BncConfig,
    DrccpInstance,
    Polyhedron,
    SafetyRow,
    SampleSet,
    build_formulation,
    distance_profile,
    enumerate_optimal,
    lemma_certificate,
    solve,
    worst_case_prob,
)
from drccp.model import distance_discard_count

samples = np.array([[1.0], [2.0], [3.0], [4.0]])
inst = DrccpInstance(
    cost=[1.0],
    domain=Polyhedron(G=np.zeros((0, 1)), g=[], lb=[0.0], ub=[10.0]),
    rows=(SafetyRow(a=[-1.0], b=[-1.0], d=0.0),),  # margin = x - xi
    samples=SampleSet(samples),
    epsilon=0.25,
    theta=0.001,
)
print(f"N={inst.n} samples, epsilon={inst.epsilon}, theta={inst.theta}")
print(f"k  = floor(eps*N)    = {inst.k}: samples the saa model (theta = 0) and the "
      "referees may leave uncovered")
print(f"k' = ceil(eps*N) - 1 = {distance_discard_count(inst.epsilon, inst.n)}: samples "
      "the distance-based models may discard at theta > 0\n")

for x in (2.5, 3.5, 4.004):
    d = distance_profile(inst, [x])
    wcp = worst_case_prob(d, inst.theta)
    print(f"x={x:5.3f}  distances={np.round(d, 3)}  worst-case P(unsafe)={wcp:.4f}")

print("""
At x=3.5 exactly eps of the empirical mass is uncovered, yet the plan is
still infeasible: the adversary spends the theta budget nudging a sliver
of mass from the nearest covered sample (distance 0.5) across the
boundary, landing at 0.25 + theta/0.5 = 0.252.  Because eps*N is integral
here, uncovering a whole sample eats the entire 25% allowance and leaves
nothing to absorb the radius, so the only way to afford theta is clearance
on the covered side: every sample covered with theta/eps = 0.004 of
headroom, hence the optimum x = 4.004.  That is why the distance-based
models allow k' = 0 discards here: the compact model has no z and solves as
one LP at the root, while the enumeration still tries every support of
size k = 1 and finds each LP infeasible.
""")

ref = enumerate_optimal(inst)
print(f"support enumeration: optimum {ref.objective:.6f} at x={ref.x[0]:.6f}, "
      f"uncovered support {list(ref.support)} ({ref.supports_tried} supports tried)")

res = solve(build_formulation(inst, "compact"), config=BncConfig(log_events=True))
print(f"branch and cut:      optimum {res.objective:.6f} "
      f"({res.nodes} nodes, status {res.status})")

cert = lemma_certificate(distance_profile(inst, res.x), inst.epsilon, inst.theta)
print(f"certificate: threshold t={cert.t:.6f}, budget slack "
      f"{cert.budget_slack:.2e}, feasible={cert.feasible}")
