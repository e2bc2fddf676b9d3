"""Five ways to write the same problem, one answer.

Build every formulation of a single transportation instance, compare model
sizes and LP relaxation bounds, then solve each to optimality.  The four
distance-based models (basic, knapsack, reduced, compact) are exact
reformulations of each other; the sample-average model (saa) ignores the
Wasserstein radius and is a relaxation, so its optimum can only be lower.
"""
from drccp import (
    FORMULATION_KINDS,
    build_formulation,
    generate,
    solve,
    solve_lp,
    to_drccp,
)
from drccp.bnc import model_to_lp
from drccp.model import distance_discard_count

tp = generate(n_factories=3, n_centers=4, n_samples=20, seed=2024)
inst = to_drccp(tp, theta=0.05)
print(f"transport instance: {tp.n_factories} factories x {tp.n_centers} centers, "
      f"N={inst.n}, eps={inst.epsilon}, theta={inst.theta}")
print(f"decision dimension L={inst.dim_x}")
print(f"discards: k = floor(eps*N) = {inst.k} in saa, "
      f"k' = ceil(eps*N) - 1 = {distance_discard_count(inst.epsilon, inst.n)} in the "
      "four distance-based models\n")

print(f"{'model':>10s} {'vars':>6s} {'rows':>6s} {'LP bound':>12s} {'optimum':>12s} {'nodes':>6s}")
for kind in FORMULATION_KINDS:
    model = build_formulation(inst, kind)
    prob, _ = model_to_lp(model)
    root = solve_lp(prob)
    res = solve(model)
    print(f"{kind:>10s} {model.num_vars:>6d} {model.num_constraints:>6d} "
          f"{root.objective:>12.6f} {res.objective:>12.6f} {res.nodes:>6d}")

print("""
Reading the table:
- the four distance formulations land on the same optimum; saa sits at or
  below them (radius-zero relaxation),
- LP bounds order basic <= knapsack <= reduced <= compact: each step bakes
  more of the combinatorial structure into the continuous relaxation,
- the reduced model drops scenario rows for samples that can never bind
  (their strengthened coefficients vanish), so it is smaller than knapsack,
  and the compact model compresses further by aggregating over thresholds.
On an instance this small the node counts are noise - branching order
matters more than bound quality.  The bound advantage shows up at scale;
run demos/05_benchmark.py or the acceptance tests for the grid comparison.
""")
