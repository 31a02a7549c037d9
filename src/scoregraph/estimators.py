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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._logdomain import counted_log_factor, logsumexp
from .errors import InfeasibleError, NonFiniteError
from .graph import NeighborCounts, ScoreGraph, as_rng
from .models import ModelSpec

__all__ = [
    "EstimatorProblem",
    "SolverConfig",
    "SolveResult",
    "EstimateResult",
    "exact_problem",
    "nr_problem",
    "fr_problem",
    "exact_loglikelihood",
    "nr_objective",
    "nr_gradient",
    "fr_objective",
    "fr_gradient",
    "fr_binary_closed_form",
    "lipschitz_stepsize",
    "projected_gradient_solve",
    "estimate",
    "write_trace_csv",
]

MAX_EXACT_AGENTS = 12
PHI_TOL = 1e-9


def exact_loglikelihood(graph: ScoreGraph, model: ModelSpec, theta, gamma,
                        validate: bool = True) -> float:
    """Log-probability of the observed scores with states fully marginalized.

    Enumerates all C^N joint state assignments, so the graph is capped at
    12 agents.  May return -inf when the data is impossible at (theta, gamma).
    """
    if graph.n_agents > MAX_EXACT_AGENTS:
        raise ValueError(
            f"exact likelihood enumerates C^N assignments; N <= {MAX_EXACT_AGENTS}")
    if not graph.has_scores:
        raise ValueError("graph has no scores")
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


def _nr_state_table(counts: NeighborCounts, model: ModelSpec, theta, gamma):
    """Per-agent, per-state log block probabilities plus reusable pieces."""
    tensor = model.tensor(theta, validate=False)
    prior = model.prior(gamma, validate=False)
    # probability of receiving score h when the receiver is in state l
    m_in = np.einsum("hml,m->hl", tensor, prior)
    with np.errstate(divide="ignore"):
        log_m = np.log(m_in)
        log_prior = np.log(prior)
    s = counted_log_factor(counts.received, log_m) + log_prior[None, :]
    return s, tensor, prior, m_in


def nr_objective(counts: NeighborCounts, model: ModelSpec, theta, gamma,
                 validate: bool = True) -> float:
    """Node-relaxed log-likelihood (to maximize).

    Sum over agents of log sum_l prior(l) * prod_h P(score h | state l)^count,
    where each received score is marginalized over the unknown evaluator
    state independently.
    """
    if validate:
        model.require_feasible(theta, gamma)
    s, *_ = _nr_state_table(counts, model, theta, gamma)
    return float(logsumexp(s, axis=1).sum())


def nr_gradient(counts: NeighborCounts, model: ModelSpec, theta, gamma) -> np.ndarray:
    """Analytic gradient of nr_objective in the stacked vector z = [theta, gamma]."""
    s, tensor, prior, m_in = _nr_state_table(counts, model, theta, gamma)
    row_lse = logsumexp(s, axis=1)
    if not np.all(np.isfinite(row_lse)):
        raise NonFiniteError("node-relaxed objective is -inf at this point")
    w = np.exp(s - row_lse[:, None])          # posterior state weights, 0 at -inf
    received = counts.received
    ratio_m = np.divide(1.0, m_in, out=np.zeros_like(m_in), where=m_in > 0)
    parts = []
    if model.theta_dim:
        d_tensor = model.tensor_grad(theta)
        dm_theta = np.einsum("khml,m->khl", d_tensor, prior)
        a = np.einsum("ih,khl,hl->kil", received, dm_theta, ratio_m)
        parts.append(np.einsum("il,kil->k", w, a))
    else:
        parts.append(np.zeros(0))
    d_prior = model.prior_grad(gamma)
    dm_gamma = np.einsum("hml,km->khl", tensor, d_prior)
    b = np.einsum("ih,khl,hl->kil", received, dm_gamma, ratio_m)
    ratio_p = np.divide(d_prior, prior[None, :], out=np.zeros_like(d_prior),
                        where=prior[None, :] > 0)
    parts.append(np.einsum("il,kil->k", w, b + ratio_p[:, None, :]))
    return np.concatenate(parts)


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


def fr_objective(phi, model: ModelSpec, theta, gamma, validate: bool = True) -> float:
    """Fully-relaxed cost (to minimize): cross-entropy of phi against the
    single-edge score distribution.  May be +inf at boundary parameters."""
    phi = _check_phi(phi, model.n_scores)
    if validate:
        model.require_feasible(theta, gamma)
    t_h, *_ = _edge_score_distribution(model, theta, gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.log(t_h)
        terms = np.where(phi > 0, -phi * log_t, 0.0)
    return float(terms.sum())


def fr_gradient(phi, model: ModelSpec, theta, gamma) -> np.ndarray:
    """Analytic gradient of fr_objective in the stacked vector z = [theta, gamma].

    Broadcasts over leading axes: phi (..., R), theta (..., theta_dim) and
    gamma (..., gamma_dim) give one gradient row per agent, shape (..., dim).
    If the cost is +inf at some agent's point, NonFiniteError names the
    first such agent by its row index.
    """
    phi = _check_phi(phi, model.n_scores, stacked=True)
    t_h, tensor, prior = _edge_score_distribution(model, theta, gamma)
    infinite = (t_h <= 0) & (phi > 0)
    if infinite.any():
        where = ("at agent " + ", ".join(map(str, np.argwhere(infinite)[0, :-1]))
                 if infinite.ndim > 1 else "at this point")
        raise NonFiniteError(f"fully-relaxed cost is +inf {where}")
    # a column vector, so that matmul contracts each point's rows with its own ratio
    ratio = (phi / np.where(t_h > 0, t_h, np.inf))[..., None]
    if model.theta_dim:
        d_tensor = model.tensor_grad(theta)
        dt_theta = np.einsum("...khlm,...l,...m->...kh", d_tensor, prior, prior)
        grad_theta = -(dt_theta @ ratio)
    else:
        grad_theta = np.zeros(ratio.shape[:-2] + (0, 1))
    d_prior = model.prior_grad(gamma)
    dt_gamma = (np.einsum("...hlm,...kl,...m->...kh", tensor, d_prior, prior)
                + np.einsum("...hlm,...l,...km->...kh", tensor, prior, d_prior))
    return np.concatenate([grad_theta, -(dt_gamma @ ratio)], axis=-2)[..., 0]


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

    def objective(self, z, validate: bool = True) -> float:
        theta, gamma = self.model.feasible.split(z)
        if self.kind == "exact":
            return exact_loglikelihood(self.graph, self.model, theta, gamma, validate)
        if self.kind == "nr":
            return nr_objective(self.counts, self.model, theta, gamma, validate)
        return fr_objective(self.phi, self.model, theta, gamma, validate)

    def gradient(self, z) -> np.ndarray:
        theta, gamma = self.model.feasible.split(z)
        if self.kind == "exact":
            return _fd_gradient(lambda v: self.objective(v, validate=False), np.asarray(z, float))
        if self.kind == "nr":
            return nr_gradient(self.counts, self.model, theta, gamma)
        return fr_gradient(self.phi, self.model, theta, gamma)


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


def _fd_gradient(fun, z: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(z)
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[k] += step
        zm[k] -= step
        grad[k] = (fun(zp) - fun(zm)) / (2.0 * step)
    return grad


def lipschitz_stepsize(problem: EstimatorProblem, rng=0, n_samples: int = 100,
                       margin: float = 0.02) -> float:
    """Stepsize 1 / L_hat with L_hat the largest pairwise gradient variation.

    Samples interior points only (boundary gradients of these objectives can
    be unbounded), so the estimate bounds the curvature where the iterates
    actually travel.  Returns 1.0 for flat objectives.  The default seed is
    fixed: identical problems get identical stepsizes.
    """
    rng = as_rng(rng)
    feas = problem.model.feasible
    points = np.array([feas.sample_interior(rng, margin) for _ in range(n_samples)])
    grads = np.array([problem.gradient(p) for p in points])
    dz = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    dg = np.linalg.norm(grads[:, None, :] - grads[None, :, :], axis=2)
    mask = dz > 1e-12
    if not np.any(mask):
        return 1.0
    lip = float((dg[mask] / dz[mask]).max())
    return 1.0 / lip if lip > 0 else 1.0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one projected-gradient run (natural objective sign)."""

    z: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    objective: float
    n_iters: int
    converged: bool
    alpha: float
    trace: np.ndarray | None


def projected_gradient_solve(problem: EstimatorProblem, start=None, alpha=None,
                             max_iters: int = 100000, tol: float = 1e-9,
                             record_trace: bool = True, rng=0) -> SolveResult:
    """Projected gradient on the feasible set until the iterate stalls.

    Each step moves against the internal minimization gradient and projects
    back onto the feasible set; stops when the max-norm iterate change drops
    below tol or after max_iters steps.  Raises NonFiniteError if the
    objective or gradient stops being finite at an iterate.
    """
    feas = problem.model.feasible
    z = feas.centroid() if start is None else np.asarray(start, dtype=np.float64).copy()
    if not feas.contains(z):
        raise InfeasibleError("start point is outside the feasible set")
    if alpha is None:
        alpha = lipschitz_stepsize(problem, rng)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sign = -1.0 if problem.maximize else 1.0
    trace = [] if record_trace else None
    converged = False
    n_iters = 0
    for it in range(max_iters):
        value = problem.objective(z, validate=False)
        if record_trace:
            trace.append((it, value, *z))
        if not np.isfinite(value):
            raise NonFiniteError(f"objective is {value} at iteration {it}")
        grad = problem.gradient(z)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteError(f"gradient is non-finite at iteration {it}")
        z_new = feas.project(z - alpha * sign * grad)
        step = float(np.max(np.abs(z_new - z)))
        z = z_new
        n_iters = it + 1
        if step < tol:
            converged = True
            break
    value = problem.objective(z, validate=False)
    if record_trace:
        trace.append((n_iters, value, *z))
    theta, gamma = feas.split(z)
    return SolveResult(
        z=z,
        theta=theta,
        gamma=gamma,
        objective=value,
        n_iters=n_iters,
        converged=converged,
        alpha=float(alpha),
        trace=np.asarray(trace, dtype=np.float64) if record_trace else None,
    )


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for estimate(): stepsize, stopping, and grid initialization."""

    alpha: float | None = None
    max_iters: int = 100000
    tol: float = 1e-9
    grid_init: bool = True
    grid_points: int = 21
    record_trace: bool = False
    seed: int = 0


@dataclass(frozen=True)
class EstimateResult:
    theta: np.ndarray
    gamma: np.ndarray
    z: np.ndarray
    objective: float
    canonicalized: bool
    solve: SolveResult


def _grid_start(problem: EstimatorProblem, grid_points: int) -> np.ndarray:
    """Best point of a coarse mesh over the box-constrained dimensions."""
    feas = problem.model.feasible
    center = feas.centroid()
    box_t = feas.theta.box_dims()
    box_g = feas.gamma.box_dims() + feas.theta_dim
    box_idx = np.concatenate([box_t, box_g])
    if box_idx.size == 0 or box_idx.size > 3:
        return center
    axes = []
    lo_full = np.concatenate([
        np.concatenate([b.lo for b in feas.theta.blocks]) if feas.theta.blocks else np.zeros(0),
        np.concatenate([b.lo for b in feas.gamma.blocks]) if feas.gamma.blocks else np.zeros(0),
    ])
    hi_full = np.concatenate([
        np.concatenate([b.hi for b in feas.theta.blocks]) if feas.theta.blocks else np.zeros(0),
        np.concatenate([b.hi for b in feas.gamma.blocks]) if feas.gamma.blocks else np.zeros(0),
    ])
    for k in box_idx:
        axes.append(np.linspace(lo_full[k], hi_full[k], grid_points))
    best_value, best_z = None, center
    for combo in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box_idx.size):
        z = center.copy()
        z[box_idx] = combo
        value = problem.objective(z, validate=False)
        if not np.isfinite(value):
            continue
        score = value if problem.maximize else -value
        if best_value is None or score > best_value:
            best_value, best_z = score, z
    return best_z


def _canonical_swap(z: np.ndarray, model: ModelSpec) -> np.ndarray:
    """The gamma -> 1 - gamma representative of a label-swap-symmetric point."""
    alt = z.copy()
    alt[model.theta_dim] = 1.0 - alt[model.theta_dim]
    return alt


def estimate(problem: EstimatorProblem, config: SolverConfig | None = None) -> EstimateResult:
    """Convenience wrapper: pick a start, solve, canonicalize if symmetric.

    Grid initialization scans a coarse mesh over box-constrained dimensions
    (skipped above 3 such dimensions and for simplex-only models) and starts
    the projected-gradient solver from the best finite mesh value.  Models
    that declare the label-swap symmetry get the representative with
    gamma <= 1/2; the symmetry is verified on the objective values.
    """
    config = config or SolverConfig()
    start = None
    if config.grid_init:
        start = _grid_start(problem, config.grid_points)
    solve = projected_gradient_solve(
        problem,
        start=start,
        alpha=config.alpha,
        max_iters=config.max_iters,
        tol=config.tol,
        record_trace=config.record_trace,
        rng=config.seed,
    )
    z = solve.z
    canonicalized = False
    model = problem.model
    if model.label_swap_symmetric and model.gamma_dim == 1:
        alt = _canonical_swap(z, model)
        value = solve.objective
        alt_value = problem.objective(alt, validate=False)
        gap = abs(alt_value - value)
        if gap > 1e-9 + 1e-9 * abs(value):
            raise AssertionError(
                f"label-swap symmetry violated: {value} vs {alt_value}")
        if z[model.theta_dim] > 0.5:
            z = alt
            canonicalized = True
    theta, gamma = model.feasible.split(z)
    return EstimateResult(
        theta=theta,
        gamma=gamma,
        z=z,
        objective=solve.objective,
        canonicalized=canonicalized,
        solve=solve,
    )


def write_trace_csv(result: SolveResult, model: ModelSpec, path) -> None:
    """Write `iter, objective, theta..., gamma...` rows for a traced solve."""
    if result.trace is None:
        raise ValueError("solve was run without a trace")
    cols = ["iter", "objective"]
    cols += [f"theta_{k + 1}" for k in range(model.theta_dim)]
    cols += [f"gamma_{k + 1}" for k in range(model.gamma_dim)]
    lines = [",".join(cols)]
    for row in result.trace:
        cells = [str(int(row[0]))] + [repr(float(x)) for x in row[1:]]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
