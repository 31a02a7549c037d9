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
(gradients (..., dim)) whose entries equal the per-point values bit for bit,
at any score alphabet size (counted_log_factor takes one gemm per point);
the objectives check every row, but not EstimatorProblem.evaluate, which
the solver calls on projected points.  FR takes one phi for the whole
stack, except `fr_gradient`, which also takes one phi row per point.
`EstimatorProblem.evaluate`/`gradient` accept the same stacks; only the
exact objective (its C^N table does not stack) and its finite-difference
gradient loop over the rows.  The kernels also take the data of P problems
along a leading axis, received rows (P, 1, N, R), gradient rows
(P, 1, R + 1, N) and phi (P, 1, R), against points (P, S, dim): each
problem's slice then has the bits of its own call, which lets a sweep
answer the solver requests of many problems with one call (see
_solve_together).

The NR state table is laid out states-first: s[..., l, i], shape (..., C,
N), is agent i's log block probability in state l, stored as C contiguous
(..., N) slices (the state axis outermost in memory).  The add of log prior
and the logsumexp over the states then run elementwise over whole slices,
and the per-agent logsumexp row_lse is a C-contiguous (..., N) array, which
numpy sums over agents pairwise at one point and on a stack alike.

Both gradients go through one small table and the chain rule.  NR: with
w[i, l] the posterior state weights, G[h, l] = sum_i received[i, h] w[i, l]
/ m_in[h, l] is one (R, N) x (N, C) product, and each derivative contracts G
with the tensor or prior derivative, O(N R C + k R C^2) for k parameters
and no per-agent (k, N, C) array (see nr_gradient).  FR: with r = phi / t_h
and q[l, m] = sum_h r_h T[h, l, m], the gamma gradient is -dprior (q + q^T) p
(see fr_gradient).  The edge score distribution t = flat(T) vec(p p^T) and
q = r^T flat(T) are matmuls shaped per point, never one 2-D product over a
stack: that keeps stacked rows equal to per-point calls bit for bit, which
the solver needs and the distributed round does not (it has its own 2-D
products for theta-free tensors, see distributed.py).

The public entry points convert theta and gamma to float arrays once: the
objectives through ModelSpec.require_feasible, which also checks them, the
gradients through ModelSpec.as_arrays.  From there on the kernels
(_nr_kept_table, _nr_gradient, _edge_score_distribution, _fr_gradient) call
the model's unchecked callables tensor_fn, prior_fn, tensor_grad_fn and
prior_grad_fn, and hand tensor_grad_fn the tensor they already hold.
EstimatorProblem calls the kernels directly, on points the solver has
projected, with what fr_problem checked (phi) or built once per problem
(the received histograms as float rows: (N, R) for the NR table and
[received^T; 1] for its gradient), so no call casts or transposes them.

The solver takes projected Newton steps (Bertsekas 1982) on the box-only
NR and FR problems and spectral (Barzilai-Borwein) projected-gradient steps
elsewhere and as the fallback, each with Armijo backtracking.  A Newton cost
evaluation takes the point and its dim forward-difference neighbours in one
stacked call, and carries the gradients at those points, computed in the
same request from the table that call built (the NR state table, the FR
edge score distribution): they give g and the Hessian, a solve builds one
table per point, and a Newton iteration makes one request.  It reports
convergence only where the projected-gradient residual certifies
stationarity; `estimate` adds a grid start and the label-swap
canonicalization.  The driver does its per-coordinate arithmetic on Python
floats and leaves the kernels, the dot products and np.linalg to numpy (see
projected_gradient_solve).  It is a coroutine that asks for each cost
evaluation and each gradient it does not carry: alone, each request is
answered by direct calls; in a sweep, _solve_together answers the like
requests of many problems with one stacked kernel call, with the same
results.

Each relaxed objective is a model half, which reads only the model at the
points (NR: the tensor, prior, m_in and the logs of m_in and the prior;
FR: the edge score distribution t and log t), then a data half, which
combines those logs with the counts or phi.  The grid start runs the same
data-half functions on a model half at the mesh that is built once per
model object, grid size and kind and kept in a small module cache, so
neither objective has a second formula and every mesh value has the bits
of problem.evaluate at its point.  FR evaluates the whole mesh in one
call.  NR runs on the U distinct received histograms when 2 <= U <= N/2
(3 to 5 of 50 at n = N) and gathers the per-agent values in C order
before the sum over agents, in calls of GRID_BLOCK * min(C, N // U) mesh
points, which keeps both the stacked table of a call and that gather within
the GRID_BLOCK * N * C floats of a call on all rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._logdomain import counted_log_factor, logsumexp
from .errors import InfeasibleError, NonFiniteError, ScoregraphError
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
# mesh points per NR data-half call of the grid start on all N received
# rows, which bounds its stacked table (GRID_BLOCK, C, N), about 460 KB at
# N = 300 and C = 3.  On U distinct rows a call takes GRID_BLOCK * min(C, N // U)
# points: the table (points, C, U) and the per-agent gather (points, N) then
# stay within the same bound, and no call takes fewer than GRID_BLOCK points
GRID_BLOCK = 64
# models, grid sizes and kinds whose model half at the mesh is kept
_MESH_CACHE_SIZE = 8
_MESH_TABLES: dict = {}


def exact_loglikelihood(graph: ScoreGraph, model: ModelSpec, theta, gamma) -> float:
    """Log-probability of the observed scores with states fully marginalized.

    Enumerates all C^N joint state assignments, so the graph is capped at
    12 agents.  May return -inf when the data is impossible at (theta, gamma).
    """
    return _exact_loglikelihood(graph, model, *model.require_feasible(theta, gamma))


def _exact_loglikelihood(graph: ScoreGraph, model: ModelSpec, theta: np.ndarray,
                         gamma: np.ndarray) -> float:
    """exact_loglikelihood of float arrays theta, gamma, without the feasibility check."""
    if graph.n_agents > MAX_EXACT_AGENTS:
        raise ValueError(
            f"exact likelihood enumerates C^N assignments; N <= {MAX_EXACT_AGENTS}")
    if graph.scores is None:
        raise ValueError("graph has no scores")
    if graph.n_scores != model.n_scores:
        raise ValueError("counts and model disagree on the score alphabet")
    tensor = model.tensor_fn(theta)
    prior = model.prior_fn(gamma)
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


def nr_objective(counts: NeighborCounts, model: ModelSpec, theta, gamma) -> float | np.ndarray:
    """Node-relaxed log-likelihood (to maximize).

    Sum over agents of log sum_l prior(l) * prod_h P(score h | state l)^count,
    where each received score is marginalized over the unknown evaluator
    state independently.
    """
    return _nr_kept_table(counts.received, model, *model.require_feasible(theta, gamma))[0]


@np.errstate(divide="ignore")
def _nr_kept_table(received: np.ndarray, model: ModelSpec, theta: np.ndarray,
                   gamma: np.ndarray):
    """The NR objective of the received histograms (N, R) at float arrays
    theta, gamma and the table its gradient reuses at the same point: the
    model half, then the data half.

    Returns (value, (s, tensor, prior, m_in, row_lse)): s[..., l, i] is agent
    i's log block probability in state l, laid out states-first (..., C, N)
    as C contiguous (..., N) slices, m_in[..., h, l] the probability of
    receiving score h in state l, and row_lse the per-agent logsumexp of s
    whose sum is the value.  Broadcasts over leading axes of theta/gamma.  The logs of m_in and the prior take
    log(0) = -inf without a warning; the errstate is a decorator, which costs
    less per call than a with-block.
    """
    tensor, prior, m_in, log_m_in, log_prior = _nr_model_half(model, theta, gamma)
    value, s, row_lse = _nr_data_half(received, log_m_in, log_prior)
    return _point_or_rows(value), (s, tensor, prior, m_in, row_lse)


def _nr_model_half(model: ModelSpec, theta: np.ndarray, gamma: np.ndarray):
    """What the NR objective reads of the model at float arrays theta, gamma:
    (tensor, prior, m_in, log m_in, log prior), m_in[..., h, l] = sum_m
    T[..., h, m, l] p_m.  Callers ignore the divide warning of log(0)."""
    tensor = model.tensor_fn(theta)
    prior = model.prior_fn(gamma)
    m_in = np.einsum("...hml,...m->...hl", tensor, prior)
    return tensor, prior, m_in, np.log(m_in), np.log(prior)


def _nr_data_half(received: np.ndarray, log_m_in: np.ndarray, log_prior: np.ndarray,
                  inverse: np.ndarray | None = None):
    """The NR value of received-score rows (U, R) from the model half's logs:
    (value, s, row_lse), with s (..., C, U) and row_lse (..., U) per row and
    the value summed over agents.  The rows may carry leading axes that
    broadcast against the points', (P, 1, U, R) for P problems.

    The count product is counted_log_factor's gemm per point, rows (U, R) by
    each table (R, C), whose result is agents-first (..., U, C); the add of
    log prior writes it out states-first, as C contiguous (..., U) slices
    (the state axis outermost in memory).  logsumexp then reduces the states
    elementwise over those slices, with inner loops that run over whole
    slices even when U is 3, and row_lse comes out C-contiguous, which numpy
    sums pairwise like the row_lse of a single point.  A states-first
    product (L C, R) @ (R, U) over the whole stack would skip the copy, but
    OpenBLAS gives its entries other bits once it splits a large product
    across threads (seen above about 1e6 multiply-adds, e.g. C = 4, R = 5,
    N = 300 and 200 points), where the stacked mesh values would leave the
    bits of evaluate at their points.

    `inverse` maps each agent to its row when the rows are the distinct
    received histograms (see _distinct_rows); the per-agent values are then
    gathered in C order before the sum, since numpy sums a contiguous last
    axis pairwise but folds the F-ordered result of a fancy-index gather, and
    the two differ in the last bit.
    """
    if received.shape[-1] != log_m_in.shape[-2]:
        raise ValueError("counts and model disagree on the score alphabet")
    # (..., C, U); m_in has every leading axis of the prior, so s has its shape
    table = np.swapaxes(counted_log_factor(received, log_m_in, 1), -1, -2)
    n_lead = table.ndim - 2
    s = np.empty(table.shape[-2:-1] + table.shape[:-2] + table.shape[-1:]).transpose(
        *range(1, n_lead + 1), 0, n_lead + 1)
    np.add(table, log_prior[..., :, None], out=s)
    row_lse = logsumexp(s, axis=-2)
    per_agent = (row_lse if inverse is None
                 else np.ascontiguousarray(np.take(row_lse, inverse, axis=-1)))
    return per_agent.sum(axis=-1), s, row_lse


def _contract(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """sum_X a[..., k, X] b[..., X] over the n trailing axes X, as one matmul;
    a stack is a loop of the matmul a single point gets."""
    flat_b = b.reshape(b.shape[:b.ndim - n] + (-1, 1))
    return (a.reshape(a.shape[:a.ndim - n] + (-1,)) @ flat_b)[..., 0]


def nr_gradient(counts: NeighborCounts, model: ModelSpec, theta, gamma) -> np.ndarray:
    """Analytic gradient of nr_objective in the stacked vector z = [theta, gamma].

    With s[l, i] agent i's log block probability in state l (the states-first
    table of _nr_kept_table), w[i, l] = exp(s[l, i] - logsumexp_l s[l, i])
    the posterior state weights and m_in[h, l] = sum_m T[h, m, l] p_m, the
    chain rule gives

        G[h, l] = sum_i received[i, h] w[i, l] / m_in[h, l]   (0 where m_in = 0),
        d/d theta_k = sum_hml dT[k, h, m, l] p_m G[h, l],
        d/d gamma_k = sum_m dprior[k, m] (u_m + W_m / p_m),

    with u_m = sum_hl T[h, m, l] G[h, l], W_m = sum_i w[i, m] and W_m / p_m
    = 0 where p_m = 0.  The rows of G and W are one product of the constant
    (R + 1, N) rows [received^T; 1] (see _float_rows) with w.
    """
    theta, gamma = model.as_arrays(theta, gamma)
    received, rows = _float_rows(counts)
    _, table = _nr_kept_table(received, model, theta, gamma)
    return _nr_gradient(rows, model, theta, gamma, table)


def _float_rows(counts: NeighborCounts):
    """The received histograms as float arrays: (N, R) for the NR table, and
    the gradient's rows [received^T; 1] (R + 1, N), the histogram of each
    score h, then all ones (for W)."""
    received = counts.received.astype(np.float64)
    return received, np.concatenate([received.T, np.ones((1, counts.n_agents))])


def _nr_gradient(rows: np.ndarray, model: ModelSpec, theta: np.ndarray, gamma: np.ndarray,
                 table) -> np.ndarray:
    """nr_gradient at float arrays theta, gamma, from the rows [received^T; 1]
    of the counts and the table the NR cost evaluation at this point kept.

    The posterior weights w are written agents-first and C-contiguous,
    (..., N, C), for the product rows @ w: on a transposed w numpy's matmul
    can give other bits (seen at N = 16), and the states-first product
    w @ rows^T does (seen at N = 50).
    """
    s, tensor, prior, m_in, row_lse = table
    if not np.isfinite(row_lse).all():
        raise NonFiniteError("node-relaxed objective is -inf at this point")
    # posterior state weights, 0 at -inf
    w = np.subtract(np.swapaxes(s, -1, -2), row_lse[..., :, None], order="C")
    sums = rows @ np.exp(w, out=w)
    g = np.divide(sums[..., :-1, :], m_in, out=np.zeros_like(m_in), where=m_in > 0)
    total = sums[..., -1, :]
    v = (_contract(np.swapaxes(tensor, -3, -2), g, 2)
         + np.divide(total, prior, out=np.zeros_like(total), where=prior > 0))
    grad_gamma = _contract(model.prior_grad_fn(gamma), v, 1)
    if not model.theta_dim:
        return grad_gamma
    outer = prior[..., None, :, None] * g[..., :, None, :]    # p_m G[h, l]
    grad_theta = _contract(model.tensor_grad_fn(theta, tensor), outer, 3)
    return np.concatenate([grad_theta, grad_gamma], axis=-1)


def _edge_score_distribution(model: ModelSpec, theta: np.ndarray, gamma: np.ndarray):
    """Marginal score distribution t_h = sum_lm T[h, l, m] p_l p_m of a single edge
    with i.i.d. endpoint states, at float arrays theta, gamma, with the tensor
    and prior it was built from.

    t is flat(T) vec(p p^T), one matmul of (R, C^2) by (C^2, 1) per point
    (see _contract), so a stack gets the bits of its per-point calls.
    """
    tensor = model.tensor_fn(theta)
    prior = model.prior_fn(gamma)
    return _contract(tensor, _outer(prior), 2), tensor, prior


def _outer(prior: np.ndarray) -> np.ndarray:
    """p_l p_m, per point."""
    return prior[..., :, None] * prior[..., None, :]


def _check_phi(phi, n_scores: int, stacked: bool = False) -> np.ndarray:
    """phi as an array, checked; `stacked` admits rows along leading axes."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim == 0 or (phi.ndim > 1 and not stacked) or phi.shape[-1] != n_scores:
        raise ValueError(f"phi must have length {n_scores}")
    # written so that a NaN fails the comparisons and is rejected
    if not (phi.min() >= -PHI_TOL and abs(phi.sum(axis=-1) - 1.0).max() <= PHI_TOL):
        raise ValueError("phi must lie on the probability simplex (tol 1e-9)")
    return phi


def fr_objective(phi, model: ModelSpec, theta, gamma) -> float | np.ndarray:
    """Fully-relaxed cost (to minimize): cross-entropy of phi against the
    single-edge score distribution.  May be +inf at boundary parameters.
    """
    phi = _check_phi(phi, model.n_scores)
    return _fr_kept_table(phi, model, *model.require_feasible(theta, gamma))[0]


@np.errstate(divide="ignore", invalid="ignore")
def _fr_kept_table(phi: np.ndarray, model: ModelSpec, theta: np.ndarray, gamma: np.ndarray):
    """The FR cost of a checked phi at float arrays theta, gamma, and the table
    (t_h, tensor, prior) its gradient reuses at the same point: the model
    half, then the data half."""
    log_t, table = _fr_model_half(model, theta, gamma)
    return _point_or_rows(_fr_data_half(phi, log_t)), table


def _fr_model_half(model: ModelSpec, theta: np.ndarray, gamma: np.ndarray):
    """(log t_h, (t_h, tensor, prior)) at float arrays theta, gamma (see
    _edge_score_distribution).  Callers ignore the divide warning of log(0)."""
    table = _edge_score_distribution(model, theta, gamma)
    return np.log(table[0]), table


def _fr_data_half(phi: np.ndarray, log_t: np.ndarray):
    """-sum_h phi_h log t_h, a score with phi_h = 0 adding 0, per row of log_t.
    Callers ignore the invalid warning of 0 * -inf, which np.where drops."""
    return np.where(phi > 0, -phi * log_t, 0.0).sum(axis=-1)


def fr_gradient(phi, model: ModelSpec, theta, gamma) -> np.ndarray:
    """Analytic gradient of fr_objective in the stacked vector z = [theta, gamma].

    With t_h = sum_lm T[h, l, m] p_l p_m the edge score distribution, the
    chain rule through the prior p gives, for r = phi / t_h and
    q[l, m] = sum_h r_h T[h, l, m],

        d cost / d gamma = -dprior (q + q^T) p,
        d cost / d theta_k = -sum_h r_h sum_lm dT[k, h, l, m] p_l p_m,

    where dprior[k, l] = d p_l / d gamma_k and dT is the tensor gradient.
    A score with t_h = 0 and phi_h = 0 contributes nothing.

    With one phi row per agent, phi (..., R), the rows are agents: if the
    cost is +inf at some agent's point, NonFiniteError names the first such
    agent by its row index.
    """
    phi = _check_phi(phi, model.n_scores, stacked=True)
    return _fr_gradient(phi, model, *model.as_arrays(theta, gamma))


def _fr_gradient(phi: np.ndarray, model: ModelSpec, theta: np.ndarray, gamma: np.ndarray,
                 table=None) -> np.ndarray:
    """fr_gradient of a checked phi (one row, or one row per point) at float
    arrays theta, gamma, from the table (t_h, tensor, prior) kept by the FR cost
    evaluation at this point, if given.

    q is r^T flat(T), one (1, R) by (R, C^2) matmul per point, and the theta
    part one (k, R C^2) by (R C^2, 1) matmul per point (see _contract), so a
    stack gets the bits of its per-point calls.
    """
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
    flat = tensor.reshape(tensor.shape[:-2] + (-1,))
    q = (ratio[..., None, :] @ flat).reshape(ratio.shape[:-1] + tensor.shape[-2:])
    # column vectors, so that matmul contracts each point's rows with its own vector
    qp = (q + q.swapaxes(-1, -2)) @ prior[..., None]
    grad_gamma = -(model.prior_grad_fn(gamma) @ qp)[..., 0]
    if not model.theta_dim:
        return grad_gamma
    weights = ratio[..., :, None, None] * _outer(prior)[..., None, :, :]    # r_h p_l p_m
    grad_theta = -_contract(model.tensor_grad_fn(theta, tensor), weights, 3)
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
    `data` is what the kind reads: the scored ScoreGraph for "exact", the
    NeighborCounts for "nr", the checked phi array for "fr".
    """

    kind: str
    model: ModelSpec
    data: ScoreGraph | NeighborCounts | np.ndarray

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
            return _nr_kept_table(self._nr_rows[0], self.model, *split(z))
        if self.kind == "fr":
            return _fr_kept_table(self.data, self.model, *split(z))
        return _rowwise(lambda v: _exact_loglikelihood(
            self.data, self.model, *split(v)), z), None

    def gradient(self, z, state=None) -> np.ndarray:
        """Gradient at z; `state` is what evaluate(z) kept, or None."""
        if self.kind == "exact":
            lo, hi = self.model.feasible.bounds
            return _rowwise(lambda v: _fd_gradient(
                lambda w: self.evaluate(w)[0], v, lo, hi), z)
        theta, gamma = self.model.feasible.split(z)
        if self.kind == "fr":
            return _fr_gradient(self.data, self.model, theta, gamma, table=state)
        received, rows = self._nr_rows
        if state is None:
            state = _nr_kept_table(received, self.model, theta, gamma)[1]
        return _nr_gradient(rows, self.model, theta, gamma, state)

    @cached_property
    def _nr_rows(self) -> tuple:
        """The counts' float rows of the NR table and gradient (see
        _float_rows), built on first use."""
        return _float_rows(self.data)


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
    return EstimatorProblem("exact", model, graph)


def nr_problem(counts: NeighborCounts, model: ModelSpec) -> EstimatorProblem:
    return EstimatorProblem("nr", model, counts)


def fr_problem(data, model: ModelSpec) -> EstimatorProblem:
    """Build the fully-relaxed problem from NeighborCounts or a phi vector."""
    phi = data.phi if isinstance(data, NeighborCounts) else np.asarray(data, float)
    return EstimatorProblem("fr", model, _check_phi(phi, model.n_scores))


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
    """Outcome of one projected_gradient_solve run (natural objective sign).

    `residual` is the projected-gradient residual ||z - P(z - g)||_inf at
    the returned `z`; `converged` is True only when it met the stopping
    test, residual <= tol * max(1, |objective|).  `estimate` returns it with
    z, theta and gamma moved to the label-swap mirror when it takes that
    mirror; the other fields are the solve's.
    """

    z: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    objective: float
    n_iters: int
    converged: bool
    residual: float
    trace: np.ndarray | None


ARMIJO_DECREASE = 1e-4
# relative step of the forward-difference stencil behind the Newton Hessian
HESSIAN_STEP = 1e-6


def _first_point(state, row: int = 0):
    """The kept table of one point of a stack (the first by default): that
    row of every array, except a tensor (item 1) that does not depend on
    theta and so has no stack axis."""
    return tuple(a if k == 1 and a.ndim == 3 else a[row] for k, a in enumerate(state))


def _newton_direction(z, grad, hess, lo, hi):
    """Projected Newton direction (Bertsekas 1982) as a list, or None where
    H_FF is not positive definite.

    A coordinate is active when it sits at a bound and the gradient pushes
    outward; it takes -g.  The free coordinates F take d_F with
    H_FF d_F = -g_F: one free coordinate takes -g_k / h_kk, the bits LAPACK's
    solve gives for a 1 x 1 system, positive definite where h_kk > 0; a
    larger block is positive definite where its entries are finite (LAPACK
    lets a NaN pivot through) and np.linalg.cholesky factors it, and takes
    LAPACK's solve, None where that finds the block singular (a pivot of
    its LU can round to 0 within rounding of singular).  The free set and
    the direction are built per coordinate on Python floats (or on the
    entries of arrays passed in), whose comparisons and negations are
    numpy's bits.
    """
    direction = [-g for g in grad]
    free = [k for k, (x, g, a, b) in enumerate(zip(z, grad, lo, hi))
            if not ((x <= a and g > 0) or (x >= b and g < 0))]
    if len(free) == 1:
        (k,) = free
        if not hess[k][k] > 0:
            return None
        direction[k] = direction[k] / hess[k][k]
    elif free:
        block = [[hess[j][k] for k in free] for j in free]
        if not all(math.isfinite(x) for row in block for x in row):
            return None
        try:
            np.linalg.cholesky(block)
            d_free = np.linalg.solve(block, [direction[k] for k in free])
        except np.linalg.LinAlgError:
            return None
        for k, d in zip(free, d_free.tolist()):
            direction[k] = d
    return direction


def _backtrack(cost, project, z, f, grad, direction, step, floor):
    """Halve `step` until P(z + step direction) is finite and decreases the cost enough.

    A generator, like the solver that delegates to it.  z and direction are
    lists of floats, grad the gradient array.  `cost` delegates to the
    solver's cost evaluation and returns (value, kept state).  A trial point
    whose first-order change g.(z+ - z) is positive is not evaluated, nor is
    one that projects onto the point just rejected: its cost and decrease
    are the same, so it fails again (a long arc into a corner projects there
    for several halvings).  If the first trial's predicted decrease
    |g.(z+ - z)| is below `floor` and its cost is finite, it is taken
    without the decrease test, which rounding decides there; later trials
    follow a rejection the cost could resolve, and keep the test.
    Returns (point, cost, step, state), or None once no smaller step moves z.
    """
    rejected = None
    while True:
        trial = [x + step * d for x, d in zip(z, direction)]
        z_new = project(trial)
        if trial == z or z_new == z:
            return None
        decrease = float(grad @ np.subtract(z_new, z))
        if decrease <= 0 and z_new != rejected:
            f_new, state = yield from cost(z_new)
            if math.isfinite(f_new) and (f_new <= f + ARMIJO_DECREASE * decrease
                                         or -decrease < floor):
                return z_new, f_new, step, state
            rejected = z_new
        step *= 0.5
        floor = 0.0


# the kernel requests of a solver coroutine: (op, points, kept), answered with
# problem.evaluate(points), problem.gradient(points, kept), or, for a Newton
# cost evaluation, both: (values, kept, the gradients there; see _carried_gradients)
_EVALUATE, _GRADIENT, _EVALUATE_AND_GRADIENT = "evaluate", "gradient", "evaluate+gradient"


def projected_gradient_solve(problem: EstimatorProblem, start,
                             max_iters: int = 100000, tol: float = 1e-9,
                             record_trace: bool = True) -> SolveResult:
    """Projected Newton, or projected gradient, with Armijo backtracking,
    stopped on the residual.

    Works on the cost f to minimize (the objective, negated when the problem
    is maximized) from z = `start`.  Each iteration evaluates the gradient g
    at z, from the state that the cost evaluation at z kept
    (problem.evaluate), and stops with converged=True once the
    projected-gradient residual ||z - P(z - g)||_inf is at most
    tol * max(1, |f(z)|); the scale follows the objective, which for NR is a
    sum over agents.  Otherwise it picks a direction d and a first step s,
    and halves s until the trial point z+ = P(z + s d) has a finite cost and
    meets the sufficient decrease f(z+) <= f(z) + 1e-4 g.(z+ - z), so trial
    points on an infinite-cost boundary are rejected.  A trial point equal
    to the one just rejected is rejected without a second evaluation.

    On box-only sets with an analytic gradient (NR and FR) the direction is
    projected Newton (Bertsekas 1982; see _newton_direction) with s = 1.
    Each cost evaluation there takes z and its dim neighbours z + h_k e_k,
    h_k = 1e-6 max(1, |z_k|) negated where z_k + h_k would pass the upper
    bound, in one problem.evaluate call; row 0 is the same bits as z alone.
    That evaluation carries the gradients at its points: one stacked
    problem.gradient call on the table it kept, in the same request, made
    for a trial that is then rejected too (cheaper than a second request
    per accepted point).  At an accepted point they give g and the Hessian
    columns (g_k - g) / h_k, symmetrized.  Where H_FF is not positive
    definite, a stencil row is not finite, or the Newton arc finds no
    decrease, the step is the spectral one below.  A full Newton step whose
    predicted decrease |g.(z+ - z)| is below one ulp of |f(z)| is taken if
    its cost is finite: f cannot hold that change, so the quadratic model
    decides, and f may rise there by rounding (halving such a step used to
    spend a dozen evaluations until z stopped moving).  Spectral steps keep
    the plain test: their first-order prediction carries no curvature and
    can miss the change in f by far more (seen on a simplex face).

    Simplex sets and the exact objective always take d = -g.  The first
    such trial step is 1; later ones are the Barzilai-Borwein step
    dz.dz / dz.dg over the last accepted move (spectral projected gradient,
    Birgin, Martinez & Raydan 2000), or twice the last accepted spectral
    step where that curvature is not positive.  The solve stops with
    converged=False after max_iters iterations, or when no smaller step
    moves z; it does not raise for that.  The residual at the returned z is
    reported either way; after max_iters steps it takes one more gradient.
    Raises InfeasibleError if `start` is outside the feasible set, and
    NonFiniteError if the cost there or the gradient at an iterate is not
    finite.

    The driver holds z as a list of Python floats and does its per-coordinate
    arithmetic on them: the stencil points, the Hessian, the residual, the
    active set, the trial points and a 1 x 1 Newton system, and projects
    with FeasibleSet.project_list (a box clip on the floats).  Each such
    operation is one IEEE operation, as it is in numpy, so the iterates keep
    numpy's bits without its per-call cost on arrays of one to three
    entries.  The objective and gradient kernels, every dot product (numpy's
    ddot need not round like a Python sum), larger Newton systems and the
    projection onto simplex sets run in numpy.

    The driver is a coroutine (_solve_steps) that asks for each cost
    evaluation, with its gradients on the Newton path, and for each gradient
    that no evaluation carried (spectral steps, a non-finite stencil row);
    here it runs alone through _solve_together, which answers each request,
    a group of one, by the direct calls on `problem` and raises what the
    coroutine raised.  A sweep runs many such coroutines side by side and
    answers the requests of many problems with one stacked kernel call (see
    _solve_together), which gives each problem the bits of its direct call,
    so its results are this function's.
    """
    (result,) = _solve_together([(problem, _solve_steps(problem, start, max_iters, tol,
                                                         record_trace))])
    if isinstance(result, Exception):
        raise result
    return result


def _answer(problem: EstimatorProblem, request):
    """The direct calls that answer one solver request (op, points, kept)."""
    op, points, kept = request
    if op == _GRADIENT:
        return problem.gradient(points, _own_table(kept))
    values, kept = problem.evaluate(points)
    if op == _EVALUATE:
        return values, kept
    return values, kept, _carried_gradients(problem, points, values, kept)


class _Row(NamedTuple):
    """What a stacked evaluation kept for one problem: the stacked table and
    the problem's row in it, sliced out (see _own_table) only where a
    gradient request or a non-finite stencil needs that problem's table."""

    table: tuple
    row: int


def _own_table(kept):
    """The table an evaluation kept for its problem: `kept` itself, or its
    row of a stacked table."""
    return _first_point(*kept) if isinstance(kept, _Row) else kept


def _carried_gradients(problem: EstimatorProblem, points, values, kept):
    """The gradients that a Newton cost evaluation carries: at its points,
    from the table it kept; the exception that gradient call raised, which
    the solver raises where it asks for the gradient; or None where a value
    is not finite, since the solver then takes the gradient at the first
    point alone."""
    if not np.isfinite(values).all():
        return None
    try:
        return problem.gradient(points, kept)
    except Exception as exc:
        return exc


def _solve_steps(problem: EstimatorProblem, start, max_iters: int, tol: float,
                 record_trace: bool):
    """projected_gradient_solve as a coroutine: it yields each request
    (op, points, kept) for problem.evaluate(points), for
    problem.gradient(points, kept), or for both (a Newton cost evaluation),
    takes the answer back (see _answer), and returns the SolveResult."""
    feas = problem.model.feasible
    z = np.asarray(start, dtype=np.float64).copy()
    if not feas.contains(z):
        raise InfeasibleError("start point is outside the feasible set")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    try:
        max_iters = operator.index(max_iters)
    except TypeError:
        raise ValueError("max_iters must be an integer") from None
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    sign = -1.0 if problem.maximize else 1.0
    lo, hi = feas._bound_lists
    project = feas.project_list
    newton = problem.kind != "exact" and feas.box_dims().size == feas.dim
    z = z.tolist()

    def cost(v):
        if not newton:
            value, state = yield _EVALUATE, np.array(v), None
            return sign * value, state
        # v, then v with v_k + step_k in coordinate k
        points = [v]
        for k, (x, b) in enumerate(zip(v, hi)):
            h = HESSIAN_STEP * max(1.0, abs(x))
            points.append(v[:k] + [x - h if x + h > b else x + h] + v[k + 1:])
        values, state, grads = yield _EVALUATE_AND_GRADIENT, np.array(points), None
        values = values.tolist()
        return sign * values[0], (points, values, state, grads)

    def signed(g):
        """sign * g on the floats of g: a negation, numpy's bits for -1.0 * x."""
        return [-x for x in g] if sign < 0 else g

    def derivatives(v, kept):
        """g at v as a list, from what cost(v) kept, and the stencil
        Hessian (a list of rows) or None."""
        if not newton:
            return signed((yield _GRADIENT, np.array(v), kept).tolist()), None
        points, values, state, grads = kept
        if not all(map(math.isfinite, values)):
            grad = yield _GRADIENT, np.array(points[0]), _first_point(_own_table(state))
            return signed(grad.tolist()), None
        if isinstance(grads, Exception):
            raise grads
        g, *rows = map(signed, grads.tolist())
        if not all(math.isfinite(x) for row in rows for x in row):
            return g, None
        hess = [[(r - q) / (p[k] - v[k]) for r, q in zip(row, g)]
                for k, (row, p) in enumerate(zip(rows, points[1:]))]
        return g, [[0.5 * (a + b) for a, b in zip(row, col)]
                   for row, col in zip(hess, zip(*hess))]

    def residual_at(v, g):
        return max(abs(x - p) for x, p in zip(v, project([x - y for x, y in zip(v, g)])))

    f, kept = yield from cost(z)
    if not math.isfinite(f):
        raise NonFiniteError(f"objective is {sign * f} at the start point")
    trace = [(0, sign * f, *z)] if record_trace else None
    step = 1.0
    previous = None   # (z, gradient) before the last accepted step
    converged = False
    n_iters = 0
    for it in range(max_iters):
        g, hess = yield from derivatives(z, kept)
        if not all(map(math.isfinite, g)):
            raise NonFiniteError(f"gradient is non-finite at iteration {it}")
        n_iters = it + 1
        residual = residual_at(z, g)
        if residual <= tol * max(1.0, abs(f)):
            converged = True
            break
        grad = np.array(g)
        if previous is not None:
            dz, dg = np.subtract(z, previous[0]), grad - previous[1]
            curvature = float(dz @ dg)
            if curvature > 0:
                step = float(dz @ dz) / curvature
        direction = None if hess is None else _newton_direction(z, g, hess, lo, hi)
        found = None if direction is None else (yield from _backtrack(
            cost, project, z, f, grad, direction, 1.0, floor=math.ulp(abs(f))))
        if found is None:
            found = yield from _backtrack(cost, project, z, f, grad, [-x for x in g], step,
                                          floor=0.0)
            if found is None:
                break
            step = 2.0 * found[2]
        previous = (z, grad)
        z, f, _, kept = found
        if record_trace:
            trace.append((it + 1, sign * f, *z))
    else:
        # max_iters steps taken (or none allowed): measure the residual at z
        residual = residual_at(z, (yield from derivatives(z, kept))[0])
    z = np.array(z)
    theta, gamma = feas.split(z)
    return SolveResult(
        z=z,
        theta=theta,
        gamma=gamma,
        objective=sign * f,
        n_iters=n_iters,
        converged=converged,
        residual=residual,
        trace=np.asarray(trace, dtype=np.float64) if record_trace else None,
    )


def _solve_together(jobs: list) -> list:
    """Run solver coroutines side by side: jobs [(problem, steps)] give, in
    order, each one's return value or the exception it raised.

    Each round groups the pending requests by operation, problem kind,
    model, and the shapes of the points and data (a request's key is taken
    once, when it is yielded), and answers the largest group: with one
    stacked kernel call for NR and FR (see _answer_stack), or one direct
    call per request for the exact objective, whose C^N table does not
    stack, and for a group of one.  A Newton cost evaluation carries its
    gradients, so a Newton iteration takes one round.  Answering the largest
    group first lets coroutines that fell out of step (a longer backtrack,
    an extra spectral step) line up again: while they wait, the others move
    on to the request they are waiting with.  Every answer has the bits of
    the direct call, so each coroutine returns what it returns alone.  A
    stacked call that raises is answered again one request at a time, so
    that each coroutine gets its own answer or exception thrown in at its
    request.

    The stacked data of a group (received rows, gradient rows, phi) is
    built when the group first meets and reused while the same members meet
    again under the same key; a change of members rebuilds it.  It is kept
    per key for this call only, which bounds it to a few stacks of the
    jobs' data.
    """
    results = [None] * len(jobs)
    pending = {}     # job -> (group key, request)
    stacks = {}      # group key -> (members, their stacked data by item)

    def resume(k, answer=None, error=None):
        problem, steps = jobs[k]
        try:
            request = steps.send(answer) if error is None else steps.throw(error)
        except StopIteration as stop:
            results[k] = stop.value
        except Exception as exc:
            results[k] = exc
        else:
            pending[k] = _group_key(problem, request), request

    for k in range(len(jobs)):
        resume(k)
    while pending:
        groups = {}
        for k, (key, _) in pending.items():
            groups.setdefault(key, []).append(k)
        key, members = max(groups.items(), key=lambda group: len(group[1]))
        members = tuple(members)
        if key not in stacks or stacks[key][0] != members:
            stacks[key] = members, {}
        requests = [pending.pop(k)[1] for k in members]
        for k, (answer, error) in zip(members, _answer_group(
                [jobs[k][0] for k in members], requests, stacks[key][1])):
            resume(k, answer, error)
    return results


def _group_key(problem: EstimatorProblem, request) -> tuple:
    """What requests must share to be answered by one stacked call."""
    op, points, _ = request
    data = (problem._nr_rows[0] if problem.kind == "nr"
            else problem.data if problem.kind == "fr" else None)
    return op, problem.kind, id(problem.model), points.shape, getattr(data, "shape", None)


def _answer_group(problems: list, requests: list, stacks: dict | None = None) -> list:
    """(answer, None) or (None, exception) for each request of one group;
    `stacks` is the group's stacked data, if kept (see _answer_stack).

    Only an error a kernel raises on data (a ScoregraphError such as
    NonFiniteError, or an ArithmeticError) sends the group to direct calls;
    any other exception of the stacked path is a fault in it and propagates.
    """
    if len(problems) > 1 and problems[0].kind != "exact":
        try:
            return [(answer, None) for answer in _answer_stack(problems, requests, stacks)]
        except (ScoregraphError, ArithmeticError):
            pass    # answered one at a time below, where each raises what it raises
    out = []
    for problem, request in zip(problems, requests):
        try:
            out.append((_answer(problem, request), None))
        except Exception as exc:
            out.append((None, exc))
    return out


def _answer_stack(problems: list, requests: list, stacks: dict | None = None) -> list:
    """The answers to P same-shaped requests of NR or FR problems of one
    model, from one kernel call on their stacked data.

    The points stack to (P, *shape), and each problem's data gets a problem
    axis and a unit axis per stack axis of its points: received rows
    (P, 1, N, R) for an NR stencil, gradient rows (P, 1, R + 1, N), phi
    (P, 1, R).  Each is stacked on first use and kept in `stacks`, which
    _solve_together holds for as long as the same problems meet again under
    the same key.  The kernels take every product per point and reduce per
    row (see the module docstring), so answer p has the bits of the direct
    call on problem p.  Kept tables come back as the stacked table and the
    problem's row in it (_Row), and a gradient request stacks each
    problem's own table again.  An evaluate+gradient request takes the
    gradients from the stacked table the evaluation just built, in one more
    kernel call; if that call raises (a non-finite value raises there),
    _answer_group answers each request by its direct calls instead (see
    _carried_gradients).
    """
    op, points, _ = requests[0]
    kind, model = problems[0].kind, problems[0].model
    theta, gamma = model.feasible.split(np.stack([request[1] for request in requests]))
    lead = (len(problems),) + (1,) * (points.ndim - 1)
    stacks = {} if stacks is None else stacks

    def stacked(item):
        """Item `item` of each problem's data: NR (received rows, gradient
        rows), FR (phi,)."""
        if item not in stacks:
            data = [problem._nr_rows[item] if kind == "nr" else problem.data
                    for problem in problems]
            stacks[item] = np.stack(data).reshape(lead + data[0].shape)
        return stacks[item]

    def gradients(kept):
        if kind == "nr":
            return list(_nr_gradient(stacked(1), model, theta, gamma, kept))
        return list(_fr_gradient(stacked(0), model, theta, gamma, kept))

    if op == _GRADIENT:
        return gradients(tuple(parts[0] if all(a is parts[0] for a in parts) else np.stack(parts)
                               for parts in zip(*(_own_table(request[2])
                                                  for request in requests))))
    values, kept = (_nr_kept_table if kind == "nr" else _fr_kept_table)(
        stacked(0), model, theta, gamma)
    answers = [(_point_or_rows(values[p]), _Row(kept, p)) for p in range(len(problems))]
    if op == _EVALUATE:
        return answers
    return [(*answer, grad) for answer, grad in zip(answers, gradients(kept))]


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

    The start is the first mesh point, in C order, with the best finite value
    (see _grid_values), or the centroid when no value is finite or there is
    no mesh.  For label-swap-symmetric models the mesh keeps only gamma < 1/2:
    the gamma gradient vanishes on the symmetry line gamma = 1/2, so a solve
    started there never leaves it.
    """
    mesh = _grid_values(problem, grid_points)
    if mesh is not None:
        points, values = mesh
        scores = values if problem.maximize else -values
        finite = np.where(np.isfinite(scores), scores, -np.inf)
        k = finite.argmax()
        if finite[k] > -np.inf:
            return points[k].copy()
    return problem.model.feasible.centroid()


def _grid_values(problem: EstimatorProblem, grid_points: int):
    """(mesh points, the objective at each) for the grid start, or None when
    the model has no mesh (see _mesh_points).

    NR and FR evaluate only their data half here, on the model half that
    _mesh_tables keeps per model, with the same functions the objectives
    use, so every value has the bits of problem.evaluate at that point.  FR
    is one (P, R) call.  NR runs on the distinct received rows (see
    _distinct_rows), GRID_BLOCK * min(C, N // U) mesh points per call for U
    rows out of N (GRID_BLOCK on all rows).  The exact objective goes through
    problem.evaluate, which loops over the points.
    """
    points, half = _mesh_tables(problem.model, grid_points, problem.kind)
    if points is None:
        return None
    if problem.kind == "fr":
        with np.errstate(invalid="ignore"):
            return points, _fr_data_half(problem.data, *half)
    if problem.kind != "nr":
        return points, problem.evaluate(points)[0]
    rows, inverse = _distinct_rows(problem._nr_rows[0])
    block = GRID_BLOCK * min(problem.model.n_states, problem.data.n_agents // len(rows))
    log_m_in, log_prior = half
    return points, np.concatenate([
        _nr_data_half(rows, log_m_in[k:k + block], log_prior[k:k + block], inverse)[0]
        for k in range(0, len(points), block)])


def _distinct_rows(received: np.ndarray):
    """(rows, inverse): the U distinct rows of `received` and each agent's
    row index, when 2 <= U <= N/2; else (received, None).

    With one row the NR count product would be a (1, R) by (R, L C) matmul,
    which numpy runs as a gemv whose bits differ from the gemm over N rows;
    above N/2 rows the table shrinks too little to pay for the gather.
    """
    n_agents = len(received)
    order = np.lexsort(received.T)
    ranked = received[order]
    first = np.ones(n_agents, dtype=bool)       # each agent that starts a new row
    np.any(ranked[1:] != ranked[:-1], axis=-1, out=first[1:])
    n_rows = int(np.count_nonzero(first))
    if not 2 <= n_rows <= n_agents // 2:
        return received, None
    inverse = np.empty(n_agents, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


def _mesh_points(model: ModelSpec, grid_points: int) -> np.ndarray | None:
    """The grid start's mesh, (P, dim) points in C order: `grid_points` values
    per box-constrained dimension (gamma < 1/2 only for label-swap-symmetric
    models), the centroid elsewhere; read-only.  None without box dimensions
    or above 3."""
    feas = model.feasible
    box_idx = feas.box_dims()
    if box_idx.size == 0 or box_idx.size > 3:
        return None
    center = feas.centroid()
    lo, hi = feas.bounds
    swap_gamma = model.theta_dim if model.label_swap_symmetric else None
    axes = []
    for k, k_lo, k_hi in zip(box_idx, lo[box_idx], hi[box_idx]):
        axis = np.linspace(k_lo, k_hi, grid_points)
        axes.append(axis[axis < 0.5] if k == swap_gamma else axis)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    points = np.broadcast_to(center, (len(mesh),) + center.shape).copy()
    points[:, box_idx] = mesh
    points.setflags(write=False)
    return points


def _mesh_tables(model: ModelSpec, grid_points: int, kind: str):
    """(mesh points, the model half of the `kind` objective at them), built
    once per model, grid_points and kind; (None, None) without a mesh.

    The model half is (log m_in, log prior) for NR (see _nr_model_half),
    (log t,) for FR and None for exact; the arrays are read-only.  Entries
    are keyed by the model's id and each holds the model, so that no other
    object can take that id while the entry lives; past _MESH_CACHE_SIZE
    entries the oldest goes.
    """
    key = (id(model), grid_points, kind)
    entry = _MESH_TABLES.get(key)
    if entry is None:
        points, half = _mesh_points(model, grid_points), None
        if points is not None and kind != "exact":
            theta, gamma = model.feasible.split(points)
            with np.errstate(divide="ignore"):
                half = (_nr_model_half(model, theta, gamma)[3:] if kind == "nr"
                        else (_fr_model_half(model, theta, gamma)[0],))
            for a in half:
                a.setflags(write=False)
        if len(_MESH_TABLES) >= _MESH_CACHE_SIZE:
            del _MESH_TABLES[next(iter(_MESH_TABLES))]
        entry = _MESH_TABLES[key] = (model, points, half)
    return entry[1:]


def estimate(problem: EstimatorProblem, grid_points: int = 21, max_iters: int = 100000,
             tol: float = 1e-9, record_trace: bool = False) -> SolveResult:
    """Pick a start, solve, canonicalize if symmetric.

    The start is the best point of a mesh of `grid_points` points per
    box-constrained dimension (see _grid_start; the centroid above 3 such
    dimensions and for simplex-only models); `grid_points` must be >= 1.
    projected_gradient_solve takes the other keywords: the residual stop
    tol * max(1, |objective|), which `converged` reports, the cap
    `max_iters` and `record_trace`.  Models that declare the label-swap
    symmetry get the representative with gamma <= 1/2: the solve's result
    with z, theta and gamma moved to the mirror when the solve ended above
    1/2 (its trace keeps the raw iterates).  The symmetry is verified on the
    objective values of every such solve.

    The work is the coroutine _estimate_steps, run here alone through
    _solve_together (direct calls on `problem`); a sweep drives many of
    them together with one stacked kernel call per request kind and round,
    with the same results.
    """
    (result,) = _solve_together([(problem, _estimate_steps(problem, grid_points, max_iters,
                                                            tol, record_trace))])
    if isinstance(result, Exception):
        raise result
    return result


def _estimate_steps(problem: EstimatorProblem, grid_points: int, max_iters: int, tol: float,
                    record_trace: bool):
    """estimate as a solver coroutine (see _solve_steps): the grid start runs
    in place, the solve and the mirror's evaluation go through requests."""
    try:
        grid_points = operator.index(grid_points)
    except TypeError:
        raise ValueError("grid_points must be an integer") from None
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    solve = yield from _solve_steps(problem, _grid_start(problem, grid_points), max_iters,
                                    tol, record_trace)
    z, mirror = _canonical_swap(solve.z, problem.model)
    if mirror is not None:
        value = solve.objective
        mirror_value = (yield _EVALUATE, mirror, None)[0]
        if abs(mirror_value - value) > 1e-9 + 1e-9 * abs(value):
            raise AssertionError(
                f"label-swap symmetry violated: {value} vs {mirror_value}")
    if z is not mirror:
        return solve
    theta, gamma = problem.model.feasible.split(z)
    return replace(solve, z=z, theta=theta, gamma=gamma)
