"""Internal log-domain helpers shared by the classifier and the estimators."""

from __future__ import annotations

import numpy as np

__all__ = ["counted_log_factor", "logsumexp"]


def logsumexp(a, axis=None, overwrite_input: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along `axis` (all axes when None), shifted by the max.

    The m maximal entries are summed apart as log(m) + log1p(rest / m), so
    the result matches scipy.special.logsumexp bit for bit on real input.  A
    slice of all -inf gives -inf, without a NaN or a warning.  The only
    full-size temporaries are one float array (the shifted exponentials, in
    C order) and one boolean mask; with `overwrite_input`, a writable,
    C-contiguous float64 `a` is that float array when every slice has a
    finite max, and its contents are lost.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = np.max(a, axis=axis, keepdims=True)
    below = a < a_max                         # every entry but the maximal ones
    m = a.size // a_max.size - np.count_nonzero(below, axis=axis, keepdims=True)
    if np.isfinite(a_max).all():
        if overwrite_input and a.flags.writeable and a.flags.c_contiguous:
            shifted = np.subtract(a, a_max, out=a)
        else:
            shifted = np.subtract(a, a_max, order="C")
        np.exp(shifted, out=shifted)
        shifted *= below                      # exp(0) = 1 at the maximal entries
    else:                                     # inf - inf is NaN: keep those entries at -inf
        shifted = np.subtract(a, a_max, out=np.full(a.shape, -np.inf), where=below)
        np.exp(shifted, out=shifted)
    rest = np.sum(shifted, axis=axis, keepdims=True)
    return np.squeeze(np.log1p(rest / m) + np.log(m) + a_max, axis=axis)


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
