"""Likelihood objectives and the projected-gradient solver.

Three objectives over the joint parameter vector z = [theta, gamma]:

exact
    Log-likelihood of all scores, marginalizing the full joint state
    assignment (cost C^N, small graphs only).  Maximized.
nr (node-relaxed)
    Sum over agents of the log-probability of each agent's received-score
    block, treating blocks as independent.  Maximized.
fr (fully-relaxed)
    Cross-entropy between the empirical score distribution phi and the
    single-edge score distribution with both endpoint states marginalized.
    Minimized; equals -(1/n) times the fully relaxed log-likelihood.

Broadcast contract.  The NR and FR objectives and gradients broadcast over
leading axes of theta/gamma, like the model callables: one point gives a
Python float (a gradient (dim,)), a stack (..., dim) gives an array (...)
(gradients (..., dim)) whose entries equal the per-point values bit for bit;
with `validate`, every row is checked.  FR takes one phi for the whole
stack, except `fr_gradient`, which also takes one phi row per point.
`EstimatorProblem.objective`/`gradient` accept the same stacks; only the
exact objective (its C^N table does not stack) and its finite-difference
gradient loop over the rows.

Both gradients go through one small table and the chain rule.  NR: with
w[i, l] the posterior state weights, G[h, l] = sum_i received[i, h] w[i, l]
/ m_in[h, l] is one (R, N) x (N, C) product, and each derivative contracts G
with the tensor or prior derivative, O(N R C + k R C^2) for k parameters
and no per-agent (k, N, C) array (see nr_gradient).  FR, what each round of
the distributed estimator runs: with r = phi / t_h and q[l, m] = sum_h r_h
T[h, l, m], the gamma gradient is -dprior (q + q^T) p (see fr_gradient).

The solver is projected gradient with Armijo backtracking and a spectral
(Barzilai-Borwein) trial step.  The NR and FR gradients at an accepted point
reuse the table that the cost evaluation there built (the NR state table,
the FR edge score distribution), so a solve builds one table per point.
It reports convergence only where the projected-gradient residual
certifies stationarity; `estimate` adds a grid start, evaluated in blocks
of at most GRID_BLOCK mesh points per objective call (which keeps the
allocation of a call small), and the label-swap canonicalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._logdomain import counted_log_factor, logsumexp
from .errors import InfeasibleError, NonFiniteError
from .graph import NeighborCounts, ScoreGraph, as_rng
from .models import ModelSpec

__all__ = [
    "EstimatorProblem",
    "SolveResult",
    "exact_problem",
    "nr_problem",
    "fr_problem",
    "exact_loglikelihood",
    "nr_objective",
    "nr_gradient",
    "fr_objective",
    "fr_gradient",
    "fr_binary_closed_form",
    "projected_gradient_solve",
    "estimate",
]

MAX_EXACT_AGENTS = 12
PHI_TOL = 1e-9
# mesh points per objective call of the grid start; bounds the stacked NR
# table (GRID_BLOCK, N, C), about 460 KB at N = 300 and C = 3
GRID_BLOCK = 64


def exact_loglikelihood(graph: ScoreGraph, model: ModelSpec, theta, gamma,
                        validate: bool = True) -> float:
    """Log-probability of the observed scores with states fully marginalized.

    Enumerates all C^N joint state assignments, so the graph is capped at
    12 agents.  May return -inf when the data is impossible at (theta, gamma).
    """
    if graph.n_agents > MAX_EXACT_AGENTS:
        raise ValueError(
            f"exact likelihood enumerates C^N assignments; N <= {MAX_EXACT_AGENTS}")
    if graph.scores is None:
        raise ValueError("graph has no scores")
    if graph.n_scores != model.n_scores:
        raise ValueError("counts and model disagree on the score alphabet")
    if validate:
        model.require_feasible(theta, gamma)
    tensor = model.tensor(theta, validate=False)
    prior = model.prior(gamma, validate=False)
    with np.errstate(divide="ignore"):
        log_t = np.log(tensor)
        log_p = np.log(prior)
    n_states, n_agents = model.n_states, graph.n_agents
    assigns = np.indices((n_states,) * n_agents).reshape(n_agents, -1)
    total = log_p[assigns].sum(axis=0)
    for (i, j), h in zip(graph.edges, graph.scores):
        total = total + log_t[h, assigns[i], assigns[j]]
    return float(logsumexp(total))


def _point_or_rows(values: np.ndarray):
    """A Python float for one point (0-d), else the array of per-row values."""
    return float(values) if values.ndim == 0 else values


def nr_objective(counts: NeighborCounts, model: ModelSpec, theta, gamma,
                 validate: bool = True) -> float | np.ndarray:
    """Node-relaxed log-likelihood (to maximize).

    Sum over agents of log sum_l prior(l) * prod_h P(score h | state l)^count,
    where each received score is marginalized over the unknown evaluator
    state independently.
    """
    if validate:
        model.require_feasible(theta, gamma)
    return _nr_kept_table(counts, model, theta, gamma)[0]


def _nr_kept_table(counts: NeighborCounts, model: ModelSpec, theta, gamma):
    """The NR objective and the table its gradient reuses at the same point.

    Returns (value, (s, tensor, prior, m_in, row_lse)): s[..., i, l] is agent
    i's log block probability in state l, m_in[..., h, l] the probability of
    receiving score h in state l, and row_lse the per-agent logsumexp of s
    whose sum is the value.  Broadcasts over leading axes of theta/gamma.
    """
    if counts.n_scores != model.n_scores:
        raise ValueError("counts and model disagree on the score alphabet")
    tensor = model.tensor(theta, validate=False)
    prior = model.prior(gamma, validate=False)
    m_in = np.einsum("...hml,...m->...hl", tensor, prior)
    with np.errstate(divide="ignore"):
        log_m = np.log(m_in)
        log_prior = np.log(prior)
    s = counted_log_factor(counts.received, log_m) + log_prior[..., None, :]
    row_lse = logsumexp(s, axis=-1)
    return _point_or_rows(row_lse.sum(axis=-1)), (s, tensor, prior, m_in, row_lse)


def _contract(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """sum_X a[..., k, X] b[..., X] over the n trailing axes X, as one matmul;
    a stack is a loop of the matmul a single point gets."""
    flat_b = b.reshape(b.shape[:b.ndim - n] + (-1, 1))
    return (a.reshape(a.shape[:a.ndim - n] + (-1,)) @ flat_b)[..., 0]


def nr_gradient(counts: NeighborCounts, model: ModelSpec, theta, gamma,
                table=None) -> np.ndarray:
    """Analytic gradient of nr_objective in the stacked vector z = [theta, gamma].

    With w[i, l] = exp(s[i, l] - logsumexp_l s) the posterior state weights
    and m_in[h, l] = sum_m T[h, m, l] p_m, the chain rule gives

        G[h, l] = sum_i received[i, h] w[i, l] / m_in[h, l]   (0 where m_in = 0),
        d/d theta_k = sum_hml dT[k, h, m, l] p_m G[h, l],
        d/d gamma_k = sum_m dprior[k, m] (u_m + W_m / p_m),

    with u_m = sum_hl T[h, m, l] G[h, l], W_m = sum_i w[i, m] and W_m / p_m
    = 0 where p_m = 0.  `table` is what the NR cost evaluation at this same
    point kept (see EstimatorProblem.evaluate), else it is built here; the
    gradient is the same bits either way.
    """
    if table is None:
        _, table = _nr_kept_table(counts, model, theta, gamma)
    s, tensor, prior, m_in, row_lse = table
    if not np.all(np.isfinite(row_lse)):
        raise NonFiniteError("node-relaxed objective is -inf at this point")
    w = np.exp(s - row_lse[..., None])        # posterior state weights, 0 at -inf
    received = counts.received
    # rows: the received histogram of each score h, then all ones (for W)
    sums = np.concatenate([received.T, np.ones((1, len(received)))]) @ w
    g = np.divide(sums[..., :-1, :], m_in, out=np.zeros_like(m_in), where=m_in > 0)
    total = sums[..., -1, :]
    v = (_contract(np.swapaxes(tensor, -3, -2), g, 2)
         + np.divide(total, prior, out=np.zeros_like(total), where=prior > 0))
    grad_gamma = _contract(model.prior_grad(gamma), v, 1)
    if not model.theta_dim:
        return grad_gamma
    outer = prior[..., None, :, None] * g[..., :, None, :]    # p_m G[h, l]
    grad_theta = _contract(model.tensor_grad(theta), outer, 3)
    return np.concatenate([grad_theta, grad_gamma], axis=-1)


def _edge_score_distribution(model: ModelSpec, theta, gamma):
    """Marginal score distribution of a single edge with i.i.d. endpoint states."""
    tensor = model.tensor(theta, validate=False)
    prior = model.prior(gamma, validate=False)
    return np.einsum("...hlm,...l,...m->...h", tensor, prior, prior), tensor, prior


def _check_phi(phi, n_scores: int, stacked: bool = False) -> np.ndarray:
    """phi as an array, checked; `stacked` admits rows along leading axes."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim == 0 or (phi.ndim > 1 and not stacked) or phi.shape[-1] != n_scores:
        raise ValueError(f"phi must have length {n_scores}")
    if phi.min() < -PHI_TOL or abs(phi.sum(axis=-1) - 1.0).max() > PHI_TOL:
        raise ValueError("phi must lie on the probability simplex (tol 1e-9)")
    return phi


def fr_objective(phi, model: ModelSpec, theta, gamma,
                 validate: bool = True) -> float | np.ndarray:
    """Fully-relaxed cost (to minimize): cross-entropy of phi against the
    single-edge score distribution.  May be +inf at boundary parameters.
    """
    phi = _check_phi(phi, model.n_scores)
    if validate:
        model.require_feasible(theta, gamma)
    return _fr_kept_table(phi, model, theta, gamma)[0]


def _fr_kept_table(phi: np.ndarray, model: ModelSpec, theta, gamma):
    """The FR cost of a checked phi and the table (t_h, tensor, prior) its
    gradient reuses at the same point."""
    table = _edge_score_distribution(model, theta, gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(phi > 0, -phi * np.log(table[0]), 0.0)
    return _point_or_rows(terms.sum(axis=-1)), table


def fr_gradient(phi, model: ModelSpec, theta, gamma, table=None) -> np.ndarray:
    """Analytic gradient of fr_objective in the stacked vector z = [theta, gamma].

    With t_h = sum_lm T[h, l, m] p_l p_m the edge score distribution, the
    chain rule through the prior p gives, for r = phi / t_h and
    q[l, m] = sum_h r_h T[h, l, m],

        d cost / d gamma = -dprior (q + q^T) p,
        d cost / d theta_k = -sum_h r_h sum_lm dT[k, h, l, m] p_l p_m,

    where dprior[k, l] = d p_l / d gamma_k and dT is the tensor gradient.
    A score with t_h = 0 and phi_h = 0 contributes nothing.

    `table` is the table (t_h, tensor, prior) kept by the FR cost evaluation
    at this same point (see EstimatorProblem.evaluate); without it the table
    is built here.  Either way the gradient is the same, bit for bit.
    With one phi row per agent, phi (..., R), the rows are agents: if the
    cost is +inf at some agent's point, NonFiniteError names the first such
    agent by its row index.
    """
    phi = _check_phi(phi, model.n_scores, stacked=True)
    if table is None:
        table = _edge_score_distribution(model, theta, gamma)
    t_h, tensor, prior = table
    if t_h.min() > 0:
        ratio = phi / t_h
    else:
        infinite = (t_h <= 0) & (phi > 0)
        if infinite.any():
            where = ("at agent " + ", ".join(map(str, np.argwhere(infinite)[0, :-1]))
                     if infinite.ndim > 1 else "at this point")
            raise NonFiniteError(f"fully-relaxed cost is +inf {where}")
        ratio = phi / np.where(t_h > 0, t_h, np.inf)
    q = np.einsum("...h,...hlm->...lm", ratio, tensor)
    # column vectors, so that matmul contracts each point's rows with its own vector
    qp = (q + np.swapaxes(q, -1, -2)) @ prior[..., None]
    grad_gamma = -(model.prior_grad(gamma) @ qp)[..., 0]
    if not model.theta_dim:
        return grad_gamma
    outer = prior[..., :, None] * prior[..., None, :]
    dt_theta = np.einsum("...khlm,...lm->...kh", model.tensor_grad(theta), outer)
    grad_theta = -(dt_theta @ ratio[..., None])[..., 0]
    return np.concatenate([grad_theta, grad_gamma], axis=-1)


def fr_binary_closed_form(phi2: float) -> float:
    """Fully-relaxed estimate of gamma for the binary mutual-test model.

    phi2 is the empirical frequency of the high score.  Returns 3/4 when
    phi2 >= 9/16, else (3 - sqrt(9 - 16 phi2)) / 4; always a global
    minimizer of the binary fully-relaxed cost on [0, 1].
    """
    if not 0.0 <= phi2 <= 1.0:
        raise ValueError("phi2 must lie in [0, 1]")
    if phi2 >= 9.0 / 16.0:
        return 0.75
    return (3.0 - math.sqrt(9.0 - 16.0 * phi2)) / 4.0


@dataclass(frozen=True)
class EstimatorProblem:
    """An objective to optimize over the model's feasible set.

    kind "exact" and "nr" are maximized, "fr" is minimized; the solver
    handles the sign internally and traces report the natural value.
    """

    kind: str
    model: ModelSpec
    graph: ScoreGraph | None = None
    counts: NeighborCounts | None = None
    phi: np.ndarray | None = None

    @property
    def maximize(self) -> bool:
        return self.kind != "fr"

    def evaluate(self, z):
        """(objective at z without validation, state kept for the gradient there).

        NR keeps its state table (see nr_gradient) and FR its edge score
        distribution (see fr_gradient); exact keeps None.
        """
        split = self.model.feasible.split
        if self.kind == "nr":
            return _nr_kept_table(self.counts, self.model, *split(z))
        if self.kind == "fr":
            return _fr_kept_table(self.phi, self.model, *split(z))
        return _rowwise(lambda v: exact_loglikelihood(
            self.graph, self.model, *split(v), validate=False), z), None

    def objective(self, z, validate: bool = True) -> float | np.ndarray:
        if validate:
            self.model.require_feasible(*self.model.feasible.split(z))
        return self.evaluate(z)[0]

    def gradient(self, z, state=None) -> np.ndarray:
        """Gradient at z; `state` is what evaluate(z) kept, or None."""
        split = self.model.feasible.split
        if self.kind == "exact":
            lo, hi = self.model.feasible.bounds
            return _rowwise(lambda v: _fd_gradient(
                lambda w: self.objective(w, validate=False), v, lo, hi), z)
        if self.kind == "nr":
            return nr_gradient(self.counts, self.model, *split(z), table=state)
        return fr_gradient(self.phi, self.model, *split(z), table=state)


def _rowwise(fn, z):
    """fn applied to one point z (dim,), or to each row of a stack (..., dim)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        return fn(z)
    rows = np.stack([fn(v) for v in z.reshape(-1, z.shape[-1])])
    return rows.reshape(z.shape[:-1] + rows.shape[1:])


def exact_problem(graph: ScoreGraph, model: ModelSpec) -> EstimatorProblem:
    if graph.n_agents > MAX_EXACT_AGENTS:
        raise ValueError(f"exact objective is limited to {MAX_EXACT_AGENTS} agents")
    return EstimatorProblem("exact", model, graph=graph)


def nr_problem(counts: NeighborCounts, model: ModelSpec) -> EstimatorProblem:
    return EstimatorProblem("nr", model, counts=counts)


def fr_problem(data, model: ModelSpec) -> EstimatorProblem:
    """Build the fully-relaxed problem from NeighborCounts or a phi vector."""
    phi = data.phi if isinstance(data, NeighborCounts) else np.asarray(data, float)
    return EstimatorProblem("fr", model, phi=_check_phi(phi, model.n_scores))


def _fd_gradient(fun, z: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 step: float = 1e-6) -> np.ndarray:
    """Central difference of `fun` at z, one-sided in a coordinate where z[k] +- step
    would leave [lo[k], hi[k]] (the objective is undefined outside the feasible set)."""
    grad = np.zeros_like(z)
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        width = 0.0
        if z[k] + step <= hi[k]:
            zp[k] += step
            width += step
        if z[k] - step >= lo[k]:
            zm[k] -= step
            width += step
        grad[k] = (fun(zp) - fun(zm)) / width
    return grad


LIPSCHITZ_SAMPLES = 100
LIPSCHITZ_MARGIN = 0.02


def lipschitz_stepsize(problem: EstimatorProblem, rng=0) -> float:
    """Stepsize 1 / L_hat with L_hat the largest pairwise gradient variation.

    Samples LIPSCHITZ_SAMPLES points at least LIPSCHITZ_MARGIN inside the
    feasible set (boundary gradients of these objectives can be unbounded),
    so the estimate bounds the curvature where the iterates actually
    travel.  The points come from one `sample_interior` call (one uniform
    draw on all-box sets) and their gradients from one stacked
    `problem.gradient` call.  Returns 1.0 for flat objectives.  The default
    seed is fixed: identical problems get identical stepsizes.  This is the
    default step of the distributed estimator; the centralized solver does
    not use it.
    """
    points = problem.model.feasible.sample_interior(as_rng(rng), LIPSCHITZ_MARGIN,
                                                    size=LIPSCHITZ_SAMPLES)
    grads = problem.gradient(points)
    dz = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    dg = np.linalg.norm(grads[:, None, :] - grads[None, :, :], axis=2)
    mask = dz > 1e-12
    if not np.any(mask):
        return 1.0
    lip = float((dg[mask] / dz[mask]).max())
    return 1.0 / lip if lip > 0 else 1.0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one projected-gradient run (natural objective sign).

    `residual` is the projected-gradient residual ||z - P(z - g)||_inf at
    the returned `z`; `converged` is True only when it met the stopping
    test, residual <= tol * max(1, |objective|).  `alpha` is the last
    accepted step (the initial trial step if none was taken).  `estimate`
    returns it with z, theta and gamma moved to the label-swap mirror when
    it takes that mirror; the other fields are the solve's.
    """

    z: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    objective: float
    n_iters: int
    converged: bool
    residual: float
    alpha: float
    trace: np.ndarray | None


ARMIJO_DECREASE = 1e-4


def _backtrack(cost, project, z, f, grad, step):
    """Halve `step` until P(z - step grad) is finite and decreases the cost enough.

    `cost` returns (value, kept state).  Returns (point, cost, step, state),
    or None once no smaller step moves z.
    """
    while True:
        trial = z - step * grad
        z_new = project(trial)
        if np.array_equal(trial, z) or np.array_equal(z_new, z):
            return None
        f_new, state = cost(z_new)
        if np.isfinite(f_new) and f_new <= f + ARMIJO_DECREASE * float(grad @ (z_new - z)):
            return z_new, f_new, step, state
        step *= 0.5


def projected_gradient_solve(problem: EstimatorProblem, start=None, alpha: float = 1.0,
                             max_iters: int = 100000, tol: float = 1e-9,
                             record_trace: bool = True) -> SolveResult:
    """Projected gradient with Armijo backtracking, stopped on the residual.

    Works on the cost f to minimize (the objective, negated when the problem
    is maximized).  Each iteration evaluates the gradient g at z, from the
    state that the cost evaluation at z kept (problem.evaluate), and stops
    with converged=True once the projected-gradient residual
    ||z - P(z - g)||_inf is at most tol * max(1, |f(z)|); the scale follows
    the objective, which for NR is a sum over agents.  Otherwise it tries a
    step s and halves it until the trial point z+ = P(z - s g) has a finite
    cost and meets the sufficient decrease f(z+) <= f(z) + 1e-4 g.(z+ - z),
    so trial points on an infinite-cost boundary are rejected.  The first
    trial step is alpha; later ones are the Barzilai-Borwein step
    dz.dz / dz.dg over the last accepted move (spectral projected gradient,
    Birgin, Martinez & Raydan 2000), or twice the last accepted step where
    that curvature is not positive.  The spectral step reaches the residual
    stop before the roundoff floor of f, below which sufficient decrease
    cannot be seen; with doubled steps alone about half of small FR and NR
    solves at tol 1e-9 stall at that floor.  The solve stops with
    converged=False after max_iters iterations, or when no smaller step
    moves z; it does not raise for that.  The residual at the returned z is
    reported either way; after max_iters steps it takes one more gradient.
    Raises NonFiniteError if the cost at the start or the gradient at an
    iterate is not finite.
    """
    feas = problem.model.feasible
    z = feas.centroid() if start is None else np.asarray(start, dtype=np.float64).copy()
    if not feas.contains(z):
        raise InfeasibleError("start point is outside the feasible set")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    sign = -1.0 if problem.maximize else 1.0

    def cost(v):
        value, state = problem.evaluate(v)
        return sign * value, state

    def residual_at(v, grad):
        return float(np.max(np.abs(v - feas.project(v - grad))))

    f, state = cost(z)
    if not np.isfinite(f):
        raise NonFiniteError(f"objective is {sign * f} at the start point")
    trace = [(0, sign * f, *z)] if record_trace else None
    step = accepted = float(alpha)
    previous = None   # (z, gradient) before the last accepted step
    converged = False
    n_iters = 0
    for it in range(max_iters):
        grad = sign * problem.gradient(z, state)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteError(f"gradient is non-finite at iteration {it}")
        n_iters = it + 1
        residual = residual_at(z, grad)
        if residual <= tol * max(1.0, abs(f)):
            converged = True
            break
        if previous is not None:
            dz, dg = z - previous[0], grad - previous[1]
            curvature = float(dz @ dg)
            if curvature > 0:
                step = float(dz @ dz) / curvature
        found = _backtrack(cost, feas.project, z, f, grad, step)
        if found is None:
            break
        previous = (z, grad)
        z, f, accepted, state = found
        if record_trace:
            trace.append((it + 1, sign * f, *z))
        step = 2.0 * accepted
    else:
        # max_iters steps taken (or none allowed): measure the residual at z
        residual = residual_at(z, sign * problem.gradient(z, state))
    theta, gamma = feas.split(z)
    return SolveResult(
        z=z,
        theta=theta,
        gamma=gamma,
        objective=sign * f,
        n_iters=n_iters,
        converged=converged,
        residual=residual,
        alpha=accepted,
        trace=np.asarray(trace, dtype=np.float64) if record_trace else None,
    )


def _canonical_swap(z: np.ndarray, model: ModelSpec):
    """Label-swap pair of z: (the member with gamma <= 1/2, the gamma -> 1 - gamma mirror).

    For models without the symmetry there is no mirror: returns (z, None).
    """
    if not model.label_swap_symmetric:
        return z, None
    k = model.theta_dim
    mirror = z.copy()
    mirror[k] = 1.0 - mirror[k]
    return (mirror if z[k] > 0.5 else z), mirror


def _grid_start(problem: EstimatorProblem, grid_points: int) -> np.ndarray:
    """Best point of a coarse mesh over the box-constrained dimensions.

    The mesh is evaluated in C order, GRID_BLOCK points per
    `problem.objective` call (the last block may be shorter).  The start is
    the first mesh point, in C order, with the best finite value, or the
    centroid when no value is finite.  For label-swap-symmetric models the
    mesh keeps only gamma < 1/2: the gamma gradient vanishes on the symmetry
    line gamma = 1/2, so a solve started there never leaves it.
    """
    model = problem.model
    feas = model.feasible
    center = feas.centroid()
    box_idx = feas.box_dims()
    if box_idx.size == 0 or box_idx.size > 3:
        return center
    lo, hi = feas.bounds
    swap_gamma = model.theta_dim if model.label_swap_symmetric else None
    axes = []
    for k, k_lo, k_hi in zip(box_idx, lo[box_idx], hi[box_idx]):
        axis = np.linspace(k_lo, k_hi, grid_points)
        axes.append(axis[axis < 0.5] if k == swap_gamma else axis)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    points = np.broadcast_to(center, (len(mesh),) + center.shape).copy()
    points[:, box_idx] = mesh
    best_score, best_z = -np.inf, center
    for start in range(0, len(points), GRID_BLOCK):
        block = points[start:start + GRID_BLOCK]
        values = problem.objective(block, validate=False)
        scores = values if problem.maximize else -values
        finite = np.flatnonzero(np.isfinite(scores))
        if finite.size:
            k = finite[np.argmax(scores[finite])]
            if scores[k] > best_score:
                best_score, best_z = scores[k], block[k]
    return best_z


def estimate(problem: EstimatorProblem, grid_points: int = 21, alpha: float = 1.0,
             max_iters: int = 100000, tol: float = 1e-9,
             record_trace: bool = False) -> SolveResult:
    """Pick a start, solve, canonicalize if symmetric.

    The start is the best point of a mesh of `grid_points` points per
    box-constrained dimension (see _grid_start; the centroid above 3 such
    dimensions and for simplex-only models).  projected_gradient_solve
    takes the other keywords: its first trial step `alpha`, the residual
    stop tol * max(1, |objective|), which `converged` reports, the cap
    `max_iters` and `record_trace`.  Models that declare the label-swap
    symmetry get the representative with gamma <= 1/2: the solve's result
    with z, theta and gamma moved to the mirror when the solve ended above
    1/2 (its trace keeps the raw iterates).  The symmetry is verified on the
    objective values of every such solve.
    """
    solve = projected_gradient_solve(problem, start=_grid_start(problem, grid_points),
                                     alpha=alpha, max_iters=max_iters, tol=tol,
                                     record_trace=record_trace)
    z, mirror = _canonical_swap(solve.z, problem.model)
    if mirror is not None:
        value = solve.objective
        mirror_value = problem.objective(mirror, validate=False)
        if abs(mirror_value - value) > 1e-9 + 1e-9 * abs(value):
            raise AssertionError(
                f"label-swap symmetry violated: {value} vs {mirror_value}")
    if z is not mirror:
        return solve
    theta, gamma = problem.model.feasible.split(z)
    return replace(solve, z=z, theta=theta, gamma=gamma)

