"""The verification stack: three independent ways to audit an answer.

Nothing here touches the MIP machinery.  The oracles recompute feasibility
and optimality from the problem data alone, which is what makes them fit
to grade the solver in the test suite:

1. worst_case_prob - the adversary's best response, by breakpoint scan.
2. cvar - superquantile with matching primal and dual certificates.
3. lemma_certificate / enumerate_optimal - feasibility threshold and
   brute-force optimum over discard supports.
"""
import numpy as np

from drccp import (
    build_formulation,
    cvar,
    distance_profile,
    enumerate_optimal,
    generate,
    lemma_certificate,
    solve,
    to_drccp,
    worst_case_prob,
)

rng = np.random.default_rng(7)

# --- CVaR: primal threshold form vs dual weight form ------------------------
v = rng.normal(size=12)
res = cvar(v, epsilon=0.3)
print("CVaR of 12 draws at eps=0.3")
print(f"  primal (threshold form): {res.value:.12f}")
print(f"  dual   (weight form):    {res.dual_value:.12f}")
print(f"  identical: {res.value == res.dual_value}  (exact arithmetic, not approx)\n")

# --- adversary's best response ------------------------------------------------
d = np.array([0.0, 0.1, 0.4, 0.9, 1.3])
for theta in (0.0, 0.02, 0.1):
    print(f"theta={theta:4.2f}: worst-case P(unsafe) = {worst_case_prob(d, theta):.4f}")
print("""
At theta=0 the probability is the empirical unsafe fraction (1/5 here).
As the budget grows the adversary drags the nearest safe points over the
boundary, cheapest first; the scan touches only the distance breakpoints.
""")

# --- auditing a solve ----------------------------------------------------------
tp = generate(2, 3, 12, seed=321)
inst = to_drccp(tp, theta=0.03)
result = solve(build_formulation(inst, "compact"))
dists = distance_profile(inst, result.x)
wcp = worst_case_prob(dists, inst.theta)
cert = lemma_certificate(dists, inst.epsilon, inst.theta)
ref = enumerate_optimal(inst)

print(f"solver optimum  : {result.objective:.8f}  (status {result.status})")
print(f"oracle optimum  : {ref.objective:.8f}  (enumerated "
      f"{ref.supports_tried} supports)")
print(f"audit of x*     : worst-case prob {wcp:.6f} <= eps {inst.epsilon}: "
      f"{wcp <= inst.epsilon + 1e-9}")
print(f"certificate     : t={cert.t:.6f} slack={cert.budget_slack:.2e} "
      f"feasible={cert.feasible}")
assert abs(result.objective - ref.objective) < 1e-7
print("\nsolver and enumeration agree to 1e-7; the audit passes independently.")
