"""Slow, obviously-correct reference implementations used only by tests.

Everything here trades efficiency for transparency: joint-assignment
enumeration, plain per-definition loops, central finite differences, a
push-sum round agent by agent, and an exact-rational maximizer for the
binary single-score-fraction cost.
Production code must agree with these to tight tolerances.
"""

from fractions import Fraction

import numpy as np

from scoregraph.distributed import DistributedState
from scoregraph.graph import ScoreGraph


def posterior_brute_force(graph: ScoreGraph, model, theta, gamma) -> np.ndarray:
    """Per-agent state posterior by summing the joint likelihood over every
    assignment of the agent's single-hop neighborhood.

    For agent i, take the distinct agents sharing an edge with i, enumerate
    all joint states of {i} + neighbors, weight each assignment by the prior
    of every member and the score probability of every edge touching i, and
    marginalize onto i's own state.
    """
    tensor = model.tensor(theta)
    prior = model.prior(gamma)
    n, edges, scores = graph.n_agents, graph.edges, graph.scores
    n_states = model.n_states
    post = np.zeros((n, n_states))
    for i in range(n):
        touching = [(int(scores[k]), int(a), int(b))
                    for k, (a, b) in enumerate(edges) if a == i or b == i]
        endpoints = {p for _, a, b in touching for p in (a, b)}
        members = [i] + sorted(endpoints - {i})
        idx = {agent: pos for pos, agent in enumerate(members)}
        k = len(members)
        assigns = np.indices((n_states,) * k).reshape(k, -1)   # (k, C^k)
        w = np.ones(assigns.shape[1])
        for pos in range(k):
            w = w * prior[assigns[pos]]
        for h, a, b in touching:
            w = w * tensor[h, assigns[idx[a]], assigns[idx[b]]]
        weights = np.zeros(n_states)
        np.add.at(weights, assigns[0], w)
        total = weights.sum()
        post[i] = np.nan if total == 0 else weights / total
    return post


def exact_loglik_brute_force(graph: ScoreGraph, model, theta, gamma) -> float:
    """Joint score log-likelihood by full enumeration of all state vectors."""
    tensor = model.tensor(theta)
    prior = model.prior(gamma)
    total = 0.0
    for assign in np.ndindex(*(model.n_states,) * graph.n_agents):
        w = 1.0
        for x in assign:
            w *= prior[x]
        for k, (a, b) in enumerate(graph.edges):
            w *= tensor[graph.scores[k], assign[a], assign[b]]
        total += w
    return float(np.log(total))


def nr_loglik_brute_force(graph: ScoreGraph, model, theta, gamma) -> float:
    """Per-node relaxed log-likelihood straight from the edge list: each
    node's incoming scores are treated as independent draws whose evaluator
    state is marginalized, then the node's own state is summed out."""
    tensor = model.tensor(theta)
    prior = model.prior(gamma)
    n_states = model.n_states
    total = 0.0
    for i in range(graph.n_agents):
        acc = 0.0
        for l in range(n_states):
            w = prior[l]
            for k, (a, b) in enumerate(graph.edges):
                if b != i:
                    continue
                h = graph.scores[k]
                w *= sum(tensor[h, m, l] * prior[m] for m in range(n_states))
            acc += w
        total += np.log(acc)
    return float(total)


def fr_product_loglik_brute_force(graph: ScoreGraph, model, theta, gamma) -> float:
    """Log of the product-form fully relaxed likelihood: every edge is an
    independent draw from the single-edge score distribution."""
    tensor = model.tensor(theta)
    prior = model.prior(gamma)
    total = 0.0
    for k in range(graph.n_edges):
        h = graph.scores[k]
        t_h = 0.0
        for l in range(model.n_states):
            for m in range(model.n_states):
                t_h += tensor[h, l, m] * prior[l] * prior[m]
        total += np.log(t_h)
    return float(total)


def fd_gradient(fun, z, step=1e-6):
    """Central finite differences of a scalar function of a vector."""
    z = np.asarray(z, dtype=np.float64)
    g = np.zeros_like(z)
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[k] += step
        zm[k] -= step
        g[k] = (fun(zp) - fun(zm)) / (2.0 * step)
    return g


def push_sum_round_by_definition(state: DistributedState, schedule, t) -> DistributedState:
    """One ratio-consensus exchange over round t's frame, agent by agent.

    Each agent cuts its (xi, eta) into one share per distinct frame
    out-neighbor plus one; it keeps one share and sends one to each of those
    neighbors.  A self loop in the frame adds no share.
    """
    n = state.eta.shape[0]
    out = [set() for _ in range(n)]
    for i, j in schedule.frames[t % schedule.n_frames].tolist():
        if i != j:
            out[i].add(j)
    xi, eta = np.zeros(state.xi.shape), np.zeros(n)
    for i in range(n):
        share = 1.0 / (1 + len(out[i]))
        for j in [i, *sorted(out[i])]:
            xi[j] += share * state.xi[i]
            eta[j] += share * state.eta[i]
    return DistributedState(xi=xi, eta=eta, z=state.z)


# Exact-rational maximizer oracle for the two-score, two-state constant model.
#
# With prior (1-g, g) and the constant tensor (match score certain from a
# sound evaluator of a sound target, uniform from an unsound evaluator), the
# mismatch-score probability is s(g) = sum_{l,m} tensor[1,l,m] p_l p_m, a
# rational function of g.  The average log-likelihood per edge is
# f(g) = (1-q) log(1-s(g)) + q log(s(g)) for mismatch fraction q, and
# sign f'(g) = sign(q - s(g)) * sign(s'(g)) -- exactly computable over Q.

_T1 = [[Fraction(0), Fraction(1)], [Fraction(1, 2), Fraction(1, 2)]]


def _s_exact(g: Fraction) -> Fraction:
    p = [1 - g, g]
    return sum(_T1[l][m] * p[l] * p[m] for l in range(2) for m in range(2))


def _s_prime_sign(g: Fraction) -> int:
    d = Fraction(3, 2) - 2 * g
    return (d > 0) - (d < 0)


def _f_prime_sign(g: Fraction, q: Fraction) -> int:
    lead = q - _s_exact(g)
    return ((lead > 0) - (lead < 0)) * _s_prime_sign(g)


def _bisect_sign_change(lo: Fraction, hi: Fraction, q: Fraction, iters=80) -> Fraction:
    """Root of f' on a bracket where the sign flips from + to -."""
    for _ in range(iters):
        mid = (lo + hi) / 2
        if _f_prime_sign(mid, q) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def binary_fr_maximizers(q_float: float) -> list:
    """All global maximizers of f(g) on [0,1] for mismatch fraction q.

    Candidates: the two monotone branches of s(g) (split at g = 3/4) each
    contribute either an interior derivative sign change (found by exact
    bisection) or their endpoints.  Candidate values are compared exactly
    enough (float log at rational points) to keep every global tie.
    """
    q = Fraction(q_float).limit_denominator(10**12)
    candidates = [Fraction(0), Fraction(3, 4), Fraction(1)]
    for lo, hi in ((Fraction(0), Fraction(3, 4)), (Fraction(3, 4), Fraction(1))):
        eps = (hi - lo) / 10**9
        s_lo, s_hi = _f_prime_sign(lo + eps, q), _f_prime_sign(hi - eps, q)
        if s_lo > 0 and s_hi < 0:
            candidates.append(_bisect_sign_change(lo + eps, hi - eps, q))

    def value(g: Fraction) -> float:
        s = _s_exact(g)
        qf, sf = float(q), float(s)
        term1 = 0.0 if q == 1 else (1 - qf) * np.log(1 - sf) if s < 1 else -np.inf
        term2 = 0.0 if q == 0 else qf * np.log(sf) if s > 0 else -np.inf
        return term1 + term2

    vals = [value(g) for g in candidates]
    best = max(vals)
    out = sorted(float(g) for g, v in zip(candidates, vals) if v >= best - 1e-12)
    dedup = []
    for x in out:
        if not dedup or x - dedup[-1] > 1e-9:
            dedup.append(x)
    return dedup
