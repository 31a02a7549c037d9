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

    counts has shape (N, *S); log_table has shape (*S, C).  Returns (N, C),
    with -inf wherever a positive count meets a -inf log entry.
    """
    score_axes = list(range(1, counts.ndim))
    table_axes = list(range(log_table.ndim - 1))
    finite = np.isfinite(log_table)
    safe = np.where(finite, log_table, 0.0)
    out = np.tensordot(counts, safe, axes=(score_axes, table_axes))
    hits = np.tensordot((counts > 0).astype(np.int64), (~finite).astype(np.int64),
                        axes=(score_axes, table_axes))
    out[hits > 0] = -np.inf
    return out
