"""
Relaxed maximum-likelihood estimation
=====================================

The exact network likelihood couples every agent, so it is only
tractable on tiny graphs.  Two relaxations scale: the node-based form
(independent incoming-score blocks) and the fully relaxed form, which
depends on the data only through the global score histogram.
"""

import numpy as np

import scoregraph as sg
from scoregraph.estimators import SolverConfig

rng = np.random.default_rng(3)
model = sg.preparata_model()
g = sg.sample_score_graph(10, 60, "cyclic-plus-random-edges", rng)
scored, states = sg.generate_scores(g, model, (), (0.3,), rng)
counts = sg.aggregate_counts(scored)
print(f"true gamma 0.3, empirical unsound fraction {states.mean():.3f}")
print("score histogram phi:", np.round(counts.phi, 3))

# for the binary model the fully relaxed maximizer has a closed form
star = sg.fr_binary_closed_form(counts.phi[1])
print(f"closed-form FR estimate: {star:.6f}")

# the generic path: build a problem, start from the best grid point and
# polish with backtracking projected gradient until the residual certifies
fr = sg.estimate(sg.fr_problem(counts, model), SolverConfig(tol=1e-10))
nr = sg.estimate(sg.nr_problem(counts, model), SolverConfig(tol=1e-10))
ex = sg.estimate(sg.exact_problem(scored, model), SolverConfig(tol=1e-10))
print(f"FR    gamma={fr.gamma[0]:.6f}  iters={fr.n_iters}  converged={fr.converged}")
print(f"NR    gamma={nr.gamma[0]:.6f}  iters={nr.n_iters}  converged={nr.converged}")
print(f"exact gamma={ex.gamma[0]:.6f}  (10 agents is near the cap)")

# some histograms admit two tied global optima; the grid start lands
# on one of them deterministically
phi2 = 0.54
phi = np.array([1 - phi2, phi2])
problem = sg.fr_problem(phi, model)
res = sg.estimate(problem, SolverConfig(tol=1e-12))
lo, hi = (3 - 0.6) / 4, (3 + 0.6) / 4
print(f"\nphi2={phi2}: cost at {lo}: "
      f"{sg.fr_objective(phi, model, (), (lo,)):.9f}, at {hi}: "
      f"{sg.fr_objective(phi, model, (), (hi,)):.9f}")
print(f"estimate landed on {res.gamma[0]:.6f}")

# the ranking model is label-swap symmetric: gamma and 1 - gamma are
# indistinguishable, so estimate returns the member of the pair with
# gamma <= 1/2 (and checks that both have the same objective)
mr = sg.social_ranking_model(3, 3)
rng2 = np.random.default_rng(21)
gr = sg.sample_score_graph(25, 240, "cyclic-plus-random-edges", rng2)
sr, _ = sg.generate_scores(gr, mr, (0.5,), (0.7,), rng2)
res = sg.estimate(sg.nr_problem(sg.aggregate_counts(sr), mr),
                  SolverConfig(tol=1e-10))
print(f"\nranking data from theta=0.5, gamma=0.7: estimate "
      f"theta={res.theta[0]:.4f}, gamma={res.gamma[0]:.4f} "
      f"(mirror 1 - gamma = {1 - res.gamma[0]:.4f})")

# solver traces record iterates for convergence plots
res = sg.estimate(problem, SolverConfig(record_trace=True))
trace = res.trace
print(f"\ntrace: {len(trace)} rows, objective "
      f"{trace[0, 1]:.6f} -> {trace[-1, 1]:.6f}")
# `scoregraph single` exports each estimator's trace as trace_<name>.csv
