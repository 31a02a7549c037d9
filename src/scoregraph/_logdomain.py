"""Internal log-domain helpers shared by the classifier and the estimators."""

from __future__ import annotations

import numpy as np

__all__ = ["counted_log_factor", "logsumexp"]


def logsumexp(a, axis=None) -> np.ndarray:
    """log(sum(exp(a))) along `axis` (all axes when None), shifted by the max.

    The maximal entries are summed apart as log(m) + log1p(rest / m), so the
    result matches scipy.special.logsumexp bit for bit on real input.  A
    slice of all -inf gives -inf, without a NaN or a warning.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.count_nonzero(top, axis=axis, keepdims=True)
    shifted = np.subtract(a, a_max, out=np.full(a.shape, -np.inf), where=~top)
    out = (np.log1p(np.sum(np.exp(shifted), axis=axis, keepdims=True) / m)
           + np.log(m) + a_max)
    return np.squeeze(out, axis=axis)


def counted_log_factor(counts: np.ndarray, log_table: np.ndarray) -> np.ndarray:
    """Sum counts * log_table over score axes, treating 0 * (-inf) as 0.

    counts has shape (N, *S); log_table has shape (..., *S, C), one table per
    point of a stack along the leading axes.  Returns (..., N, C), with -inf
    wherever a positive count meets a -inf log entry.  The leading axes are
    folded into the state axis, so a stack is one contraction, and each
    point's block is the contraction a single table would get.
    """
    n_score = counts.ndim - 1
    lead = log_table.shape[:log_table.ndim - n_score - 1]
    score_axes = list(range(1, counts.ndim))
    table_axes = list(range(n_score))
    # (..., *S, C) -> (*S, ..., C) -> (*S, L * C)
    table = np.moveaxis(log_table, list(range(len(lead))),
                        list(range(n_score, n_score + len(lead))))
    table = table.reshape(log_table.shape[len(lead):-1] + (-1,))
    finite = np.isfinite(table)
    safe = np.where(finite, table, 0.0)
    out = np.tensordot(counts, safe, axes=(score_axes, table_axes))
    if not finite.all():
        hits = np.tensordot((counts > 0).astype(np.int64), (~finite).astype(np.int64),
                            axes=(score_axes, table_axes))
        out[hits > 0] = -np.inf
    # (N, L * C) -> (..., N, C)
    return np.moveaxis(out.reshape((out.shape[0],) + lead + log_table.shape[-1:]),
                       0, len(lead))
