"""
Score models: tensors, priors, and feasible parameter sets
==========================================================

Every model packages a score tensor p(h | evaluator state, target state),
a state prior, their gradients, and the feasible box or simplex the
estimators project onto.
"""

import numpy as np

import scoregraph as sg

# binary fault-diagnosis model: sound evaluators (state 0) report the
# target's state exactly, unsound ones flip a fair coin
m = sg.preparata_model()
print("binary tensor, evaluator sound:")
print(m.tensor(())[:, 0, :].T)
print("evaluator unsound:")
print(m.tensor(())[:, 1, :].T)
print("prior at gamma=0.3:", m.prior((0.3,)))

# graded reliability: unsound evaluators ramp toward high scores
m5 = sg.reliability_model(5)
print("\nreliability R=5, unsound evaluator, sound target:",
      m5.tensor(())[:, 1, 0])

# the ranking model couples scores to a state distance through a scale
# parameter theta; its prior is binomial with success rate gamma
mr = sg.social_ranking_model(3, 3)
print("\nranking prior at gamma=0.3:", np.round(mr.prior((0.3,)), 4))
for theta in (0.2, 1.0, 5.0):
    col = mr.tensor((theta,))[:, 0, 0]
    print(f"  theta={theta}: p(h | same state) = {np.round(col, 3)}")

# gradients are exact; check one against a central difference
theta0, h = 0.7, 1e-6
fd = (mr.tensor((theta0 + h,)) - mr.tensor((theta0 - h,))) / (2 * h)
print("tensor gradient max |analytic - fd|:",
      float(np.abs(mr.tensor_grad((theta0,))[0] - fd).max()))

# the feasible set is one product of blocks over z = [theta, gamma]: boxes
# for scalar parameters, simplices for free masses; projection is Euclidean
mc = sg.categorical_model(2, 3)
z = mc.feasible.sample_interior(np.random.default_rng(1))
print("\ncategorical z dim:", z.size, "(theta", mc.theta_dim,
      "+ gamma", mc.gamma_dim, ")")
print("projection of an infeasible point stays on the simplex:",
      np.round(sg.project_simplex(np.array([2.0, -1.0, 0.4])), 3))
