"""Exact single-hop Bayesian classification of agent states.

Each agent's posterior over its own state is computed from the scores on its
incident edges only.  Conditioned on the agent's state, distinct neighbors
are independent, so the unnormalized posterior factors into one term per
neighbor class:

    v_i(l) = prior(l) * mutual_i(l) * received_only_i(l) * given_only_i(l)

where each factor marginalizes the unknown neighbor state against the prior.
A mutual neighbor couples the given and received scores through the shared
neighbor state; one-directional neighbors contribute a single score each.
All products are evaluated as sums of logarithms.

The unchecked kernel _soft_classify also takes a stack of parameter points,
so a sweep trial classifies with the true parameters and every estimate in
one pass; each point's output has the bits of its own call at any score
alphabet size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._logdomain import counted_log_factor, logsumexp
from .errors import DegenerateModelError
from .graph import NeighborCounts
from .models import ModelSpec

__all__ = [
    "ClassifierOutput",
    "soft_classify",
    "misclassification_rate",
]


@dataclass(frozen=True)
class ClassifierOutput:
    """Soft and hard classification results for all agents.

    posterior[i, l] is the normalized posterior probability that agent i is
    in state l; labels[i] is its argmax with lowest-index tie break.  The
    unnormalized posterior is kept in log domain, log_unnormalized, since
    its exponential may underflow for large neighborhoods.
    """

    posterior: np.ndarray
    labels: np.ndarray
    log_unnormalized: np.ndarray


def soft_classify(counts: NeighborCounts, model: ModelSpec, theta, gamma) -> ClassifierOutput:
    """Compute every agent's exact single-hop posterior and MAP label.

    Parameters
    ----------
    counts : NeighborCounts
        Aggregated score histograms of a fully scored graph.
    model : ModelSpec
    theta, gamma
        Feasible model parameters (typically estimates, or true values for
        an oracle benchmark).

    Raises
    ------
    InfeasibleError
        If (theta, gamma) lies outside the model's feasible set.
    DegenerateModelError
        If some agent's unnormalized posterior vanishes for every state.
    """
    if counts.n_scores != model.n_scores:
        raise ValueError("counts and model disagree on the score alphabet")
    return _soft_classify(counts, model, *model.require_feasible(theta, gamma))


def _soft_classify(counts, model: ModelSpec, theta: np.ndarray,
                   gamma: np.ndarray) -> ClassifierOutput:
    """soft_classify of counts on the model's score alphabet at float arrays
    theta, gamma already known to be feasible, without checking them.

    theta and gamma may be stacks (..., dim): the output arrays then carry
    the same leading axes, and each point's slices have the bits of its own
    call, since the einsums run per point and counted_log_factor takes one
    gemm per point.  `counts` is one NeighborCounts for every point, or a
    sequence of P of them (the trials of a sweep chunk), one for each row of
    the leading axis of a stack (P, ..., dim), whose points are classified
    on that row's counts.  The points are checked in order, and the first
    degenerate one raises what it raises alone.
    """
    if isinstance(counts, NeighborCounts):
        received_only, given_only, mutual = (
            counts.received_only, counts.given_only, counts.mutual)
    else:
        lead = (len(counts),) + (1,) * (theta.ndim - 2)
        received_only, given_only, mutual = (
            np.stack(rows).reshape(lead + rows[0].shape) for rows in zip(*(
                (c.received_only, c.given_only, c.mutual) for c in counts)))
    tensor = model.tensor_fn(theta)
    prior = model.prior_fn(gamma)

    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
        # received score h from a neighbor of unknown state, self state l
        m_in = np.einsum("...hml,...m->...hl", tensor, prior)
        # gave score h to a neighbor of unknown state, self state l
        m_out = np.einsum("...hlm,...m->...hl", tensor, prior)
        # mutual neighbor: gave h, received k, neighbor state marginalized
        k_pair = np.einsum("...hlm,...kml,...m->...hkl", tensor, tensor, prior)
        log_m_in = np.log(m_in)
        log_m_out = np.log(m_out)
        log_k_pair = np.log(k_pair)

    log_v = (
        log_prior[..., None, :]
        + counted_log_factor(received_only, log_m_in, 1)
        + counted_log_factor(given_only, log_m_out, 1)
        + counted_log_factor(mutual, log_k_pair, 2)
    )
    log_z = logsumexp(log_v, axis=-1)
    degenerate = np.isneginf(log_z)
    if degenerate.any():   # argwhere lists points, then agents, in C order
        bad = int(np.argwhere(degenerate)[0, -1])
        raise DegenerateModelError(
            f"agent {bad}: every state has zero posterior probability")
    posterior = np.exp(log_v - log_z[..., None])
    labels = np.argmax(posterior, axis=-1)
    return ClassifierOutput(posterior=posterior, labels=labels, log_unnormalized=log_v)


def misclassification_rate(labels, true_states) -> float:
    """Fraction of agents whose label disagrees with the true state.

    The count of disagreements over the count of agents, one correctly
    rounded division: the bits of np.mean over the boolean mask, whose
    float sum of ones is exact.  Empty input raises ValueError.
    """
    labels = np.asarray(labels)
    true_states = np.asarray(true_states)
    if labels.shape != true_states.shape:
        raise ValueError("labels and true_states must have equal length")
    if labels.size == 0:
        raise ValueError("labels and true_states must not be empty")
    return np.count_nonzero(labels != true_states) / labels.size

