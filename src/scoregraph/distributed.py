"""Synchronous simulation of the distributed fully-relaxed estimator.

Each agent keeps push-sum accumulators (xi, eta) whose ratio phi_i tracks the
network-wide score distribution, plus a local parameter iterate z_i.  A round
applies one projected-gradient step of the phi-weighted fully-relaxed cost on
every agent and one ratio-consensus exchange over the active communication
frame: one product of the frame's mixing matrix with the (N, R + 1)
accumulator [xi | eta].  With a window-connected schedule the phi_i converge
geometrically to the true empirical distribution and the iterates approach
stationary points of the fully-relaxed problem.

The ratios never depend on the iterates, so run_distributed takes its rounds
in blocks of 64: the block's products, each into the next row of a
(B + 1, N, R + 1) buffer, then one divide for all of its ratios, its steps,
and one slice assignment for the snapshots it records, with the bits of one
round at a time.  A round's product and quadratic step are 2-D np.dot calls
(matmul's bits, less per-call cost) on views into the block buffers built
once per run.  With one BLAS thread a round takes about 8-9 us at N = 50 (500
edges), mostly per-call cost, and 57 us at N = 300 (3,000 edges), mostly the
dense N x N mixing product.

When the model has no theta, its tensor is one (R, 2, 2) table T and its prior
is the Bernoulli (1 - gamma, gamma) (the reliability family), the edge score
distribution t_h = sum_lm p_l p_m T[h, l, m] is a quadratic in gamma, and
run_distributed builds its coefficient rows once per run: t = [1, gamma,
gamma^2] K and alpha t' = [1, gamma] D.  The round's step is then a few 2-D
products over the (N, .) stack [1, gamma, gamma^2], with no prior, outer
product or projection call.  The solver's FR kernel goes through p p^T per
point instead, so that mesh values and Newton stencil rows keep single-point
bits; the round needs no such bits.  The two agree up to rounding, so
FR-distributed results on these models may differ from earlier releases in
the last bits.  At gamma = 0, t is T[:, 0, 0] exactly, as in the kernel.  A
block runs these steps unchecked and then checks once that every t_h > 0
(a NaN fails too).  If not, it reruns from its start one checked round at a
time, and a round where some t_h <= 0, like every round of a model with
theta, steps through the kernel (which names the first agent with +inf cost).
"""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .estimators import _check_phi, _fr_gradient, fr_problem, lipschitz_stepsize
from .graph import CommSchedule, NeighborCounts
from .models import ModelSpec, _bernoulli_prior

__all__ = [
    "DistributedState",
    "DistributedRun",
    "local_gradient_step",
    "run_distributed",
]

_BLOCK = 64     # rounds per block of run_distributed


@dataclass
class DistributedState:
    """Per-agent push-sum accumulators and parameter iterates.

    xi[i, h] starts at agent i's received count of score h and eta[i] at its
    in-degree, so phi = xi / eta starts at the local score histogram and the
    column totals (sum_i xi, sum_i eta) are conserved by every round.
    """

    xi: np.ndarray
    eta: np.ndarray
    z: np.ndarray

    @property
    def phi(self) -> np.ndarray:
        return self.xi / self.eta[:, None]


def local_gradient_step(z, phi, model: ModelSpec, alpha: float) -> np.ndarray:
    """Projected-gradient step on the phi-weighted relaxed cost, for every agent at once.

    z (N, dim) and phi (N, R) hold one row per agent; a single agent's
    z (dim,) and phi (R,) work the same way.  alpha is a finite real scalar
    >= 0.  NonFiniteError names the first agent whose cost is +inf.
    """
    if not (isinstance(alpha, numbers.Real) and 0 <= alpha < np.inf):
        raise ValueError("alpha must be nonnegative and finite")
    phi = _check_phi(phi, model.n_scores, stacked=True)
    z = np.asarray(z, dtype=np.float64)
    if z.shape[:-1] != phi.shape[:-1]:
        raise ValueError("z and phi disagree on the number of agents")
    theta, _ = model.as_arrays(*model.feasible.split(z))   # InfeasibleError on a wrong dimension
    if (rows := _quadratic_rows(model, theta, alpha)) is None:
        return _kernel_step(z, phi, model, alpha)
    states, flat = np.empty((2, z.size, 3)), phi.reshape(1, -1, model.n_scores)
    states[0] = _powers(z.reshape(-1, 1))
    _checked_quadratic_step(_step_views(states, flat, np.empty(flat.shape))[0], model, alpha,
                            rows, z, phi)
    return states[1, :, 1:2].reshape(z.shape).copy()


def _kernel_step(z: np.ndarray, phi: np.ndarray, model: ModelSpec, alpha: float) -> np.ndarray:
    """local_gradient_step of a float array z and a phi already checked, through _fr_gradient."""
    return model.feasible.project(z - alpha * _fr_gradient(phi, model, *model.feasible.split(z)))


def _quadratic_rows(model: ModelSpec, theta: np.ndarray, alpha: float):
    """(K (3, R), D (R, 2)) with t = [1, gamma, gamma^2] K and alpha t' =
    [1, gamma] D, when the model has no theta, tensor_fn gives one (R, 2, 2)
    table for the stack theta and the prior is the Bernoulli one, else None."""
    if (model.theta_dim or model.prior_fn is not _bernoulli_prior
            or (tensor := model.tensor_fn(theta)).ndim != 3):
        return None
    base, cross = tensor[:, 0, 0], tensor[:, 0, 1] + tensor[:, 1, 0]
    table = np.array([base, cross - 2 * base, base - cross + tensor[:, 1, 1]])
    return table, alpha * np.column_stack([table[1], 2 * table[2]])


def _powers(z: np.ndarray) -> np.ndarray:
    """The stack [1, gamma, gamma^2] (..., 3) of scalar-gamma iterates z (..., 1)."""
    return np.concatenate([np.ones_like(z), z, np.square(z)], axis=-1)


def _step_views(states: np.ndarray, phi: np.ndarray, t: np.ndarray) -> list:
    """_quadratic_step's views of each round j < len(t) into the buffers
    states (B + 1, N, 3) of powers (see _powers), phi (>= B, N, R) and t
    (B, N, R): it reads states[j], phi[j] and writes t[j], states[j + 1]."""
    return [(now, now[:, 1], now[:, :2], ratios, t_j, after[:, 1], after[:, 2])
            for now, after, ratios, t_j in zip(states[:-1], states[1:], phi, t)]


def _quadratic_step(powers, gamma, head, phi, t, gamma_next, square_next,
                    table, slope, lo, hi) -> None:
    """local_gradient_step of one round's views (see _step_views), unchecked,
    with the rows (table, slope) of _quadratic_rows: t = powers K into t,
    then gamma + (r D) . [1, gamma] with r = phi / t, clipped to [lo, hi],
    into gamma_next and its square into square_next.  Right only where every
    t_h > 0; elsewhere it writes NaN or a clipped infinity, and warns."""
    np.dot(powers, table, out=t)
    step = gamma + np.vecdot(np.dot(phi / t, slope), head)
    np.minimum(np.maximum(step, lo, out=step), hi, out=gamma_next)
    np.square(gamma_next, out=square_next)


def _checked_quadratic_step(views, model: ModelSpec, alpha: float, rows, z, phi) -> None:
    """_quadratic_step of one round's views where every t_h > 0, else the
    step of _kernel_step from z and phi, the round's iterates and ratios in
    the caller's shape, which names the first agent with +inf cost."""
    *_, t, gamma_next, square_next = views
    with np.errstate(divide="ignore", invalid="ignore"):
        _quadratic_step(*views, *rows, *(b.item() for b in model.feasible.bounds))
    if not t.min() > 0:
        gamma_next[:] = _kernel_step(z, phi, model, alpha).reshape(-1)
        np.square(gamma_next, out=square_next)


@dataclass(frozen=True)
class DistributedRun:
    """Recorded trajectories of a distributed run.

    times[k] is the round index of snapshot k; phi_traj[k] and z_traj[k] are
    the (N, R) ratio estimates and (N, dim) iterates at that round.  state is
    the final full state including accumulators.
    """

    times: np.ndarray
    phi_traj: np.ndarray
    z_traj: np.ndarray
    state: DistributedState
    alpha: float
    n_rounds: int

    @property
    def final_z(self) -> np.ndarray:
        return self.state.z

    def spread(self) -> float:
        """Largest max-norm disagreement between two agents' final iterates."""
        z = self.state.z
        return float((z.max(axis=0) - z.min(axis=0)).max())


def run_distributed(counts: NeighborCounts, model: ModelSpec, schedule: CommSchedule,
                    alpha=None, n_rounds: int = 1000,
                    record_every: int = 1, rng=0) -> DistributedRun:
    """Simulate n_rounds synchronous rounds of local gradient steps + consensus.

    Round 0 holds xi = counts.received and eta = counts.in_degree (each
    agent's local histogram), with every agent at the centroid of the
    feasible set.  In round t every agent steps with its pre-round ratio
    phi_i(t), then every agent splits its xi and eta mass equally over its
    frame out-neighbors plus itself: one product of the frame's mixing matrix
    with [xi | eta], which conserves the column totals up to floating error
    and keeps eta positive.

    Parameters
    ----------
    counts : NeighborCounts
        The aggregated counts of a scored graph (see aggregate_counts).
    schedule : CommSchedule
        Window-connected communication schedule; frame t drives round t.
    alpha : float, optional
        Stepsize, > 0; None uses the sampled-curvature heuristic on the
        fully-relaxed problem at the true phi (deterministic under `rng`).
    record_every : int
        Snapshot stride, an integer; round 0 and the final round are always
        recorded, into trajectories allocated up front.

    Rounds run in blocks of 64 with the same bits (see the module docstring):
    products, ratios and snapshots are taken once per block, and on models
    with the quadratic step the steps are checked once per block, with a
    per-round rerun of a block whose check fails.
    """
    try:
        n_rounds, record_every = operator.index(n_rounds), operator.index(record_every)
    except TypeError:
        raise ValueError("n_rounds and record_every must be integers") from None
    if n_rounds < 0 or record_every < 1:
        raise ValueError("n_rounds must be >= 0 and record_every >= 1")
    if schedule.n_agents != counts.n_agents:
        raise ValueError("schedule and counts disagree on the number of agents")
    if counts.n_scores != model.n_scores:
        raise ValueError("counts and model disagree on the score alphabet")
    if alpha is None:
        alpha = lipschitz_stepsize(fr_problem(counts, model), rng=rng)
    elif not (isinstance(alpha, numbers.Real) and 0 < alpha < np.inf):
        raise ValueError("alpha must be positive and finite")
    times = np.unique(np.append(np.arange(0, n_rounds + 1, record_every), n_rounds))
    n_agents, block = counts.n_agents, min(_BLOCK, n_rounds)
    acc = np.empty((block + 1, n_agents, model.n_scores + 1))    # [xi | eta] before each round
    acc[0] = np.column_stack([counts.received, counts.in_degree])
    phi = np.empty(acc[:, :, :-1].shape)
    _check_phi(np.divide(acc[0, :, :-1], acc[0, :, -1:], out=phi[0]), model.n_scores, stacked=True)
    centroid = np.tile(model.feasible.centroid(), (n_agents, 1))
    if (rows := _quadratic_rows(model, model.feasible.split(centroid)[0], alpha)) is None:
        z = states = np.empty((block + 1,) + centroid.shape)    # iterates before each round
        states[0] = centroid
    else:
        states = np.ones((block + 1, n_agents, 3))     # [1, gamma, gamma^2] before each round
        states[0] = _powers(centroid)
        z = states[..., 1:2]
        t = np.empty((block, n_agents, model.n_scores))
        steps = _step_views(states, phi, t)
        coefs = (*rows, *(b.item() for b in model.feasible.bounds))
    products = [(acc[j], acc[j + 1]) for j in range(block)]
    phi_traj, z_traj = (np.empty((times.size,) + stack.shape[1:]) for stack in (phi, z))
    phi_traj[0], z_traj[0] = phi[0], z[0]
    mats = schedule.matrices
    for start in range(0, n_rounds, _BLOCK):
        size = min(_BLOCK, n_rounds - start)
        for j, (before, after) in enumerate(products[:size]):
            np.dot(mats[(start + j) % len(mats)], before, out=after)
        np.divide(acc[1:size + 1, :, :-1], acc[1:size + 1, :, -1:], out=phi[1:size + 1])
        if rows is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                for views in steps[:size]:
                    _quadratic_step(*views, *coefs)
        if rows is None or not np.minimum.reduce(t[:size], axis=None) > 0:
            try:
                for j in range(size):
                    if rows is None:
                        states[j + 1] = _kernel_step(states[j], phi[j], model, alpha)
                    else:
                        _checked_quadratic_step(steps[j], model, alpha, rows, z[j], phi[j])
            except NonFiniteError as exc:
                raise NonFiniteError(f"round {start + j}: {exc}") from exc
        lo, hi = np.searchsorted(times, (start + 1, start + size + 1))
        phi_traj[lo:hi] = phi[times[lo:hi] - start]
        z_traj[lo:hi] = z[times[lo:hi] - start]
        acc[0], phi[0], states[0] = acc[size], phi[size], states[size]
    acc = acc[0].copy()
    state = DistributedState(xi=acc[:, :-1], eta=acc[:, -1], z=z[0].copy())
    return DistributedRun(
        times=times,
        phi_traj=phi_traj,
        z_traj=z_traj,
        state=state,
        alpha=float(alpha),
        n_rounds=n_rounds,
    )

