"""Internal log-domain helpers shared by the classifier and the estimators.

Both take stacks of points along leading axes and give every point the bits
of its own call: counted_log_factor runs one gemm per point (its counts may
carry leading axes too, one per problem of a batch), and logsumexp along an
axis reduces each slice on its own."""

from __future__ import annotations

import numpy as np

__all__ = ["counted_log_factor", "logsumexp"]


def logsumexp(a, axis=None) -> np.ndarray:
    """log(sum(exp(a))) along `axis` (all axes when None), shifted by the max.

    The m maximal entries are summed apart as log(m) + log1p(rest / m), so
    the result matches scipy.special.logsumexp bit for bit on real input.
    When no slice has a tied maximum (m = 1 everywhere, one count_nonzero of
    the mask tells), the tie count, the divide and log(m) are skipped:
    log1p(rest / 1) + log(1) is log1p(rest) bit for bit, because rest, a sum
    of exponentials with the maximal entries zeroed, is at least +0.  A
    slice of all -inf gives -inf, without a NaN or a warning.  The only
    full-size temporaries are one float array (the shifted exponentials, one
    dense buffer in the memory order of `a`) and one boolean mask; `a`
    itself is never written.

    Every axis goes to the ufunc reductions, called as np.maximum.reduce
    and np.add.reduce, which skip the wrappers of np.max and np.sum: the
    last axis of a classifier table (..., N, C) row by row, and the states
    axis -2 of an NR table (..., C, N) elementwise along the contiguous last
    axis, alike at every point of a stack.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    below = a < a_max                         # every entry but the maximal ones
    if np.isfinite(a_max).all():
        shifted = np.subtract(a, a_max, order="K")
        np.exp(shifted, out=shifted)
        shifted *= below                      # exp(0) = 1 at the maximal entries
    else:                                     # inf - inf is NaN: keep those entries at -inf
        shifted = np.subtract(a, a_max, out=np.full_like(a, -np.inf), where=below)
        np.exp(shifted, out=shifted)
    rest = np.add.reduce(shifted, axis=axis, keepdims=True)
    if np.count_nonzero(below) == a.size - a_max.size:
        # one maximal entry per slice: log1p(rest / 1) + log(1) is log1p(rest)
        # bit for bit, since rest is at least +0
        return (np.log1p(rest) + a_max).squeeze(axis=axis)
    m = a.size // a_max.size - np.add.reduce(below, axis=axis, keepdims=True)
    return (np.log1p(rest / m) + np.log(m) + a_max).squeeze(axis=axis)


def counted_log_factor(counts: np.ndarray, log_table: np.ndarray,
                       score_axes: int | None = None) -> np.ndarray:
    """Sum counts * log_table over score axes, treating 0 * (-inf) as 0.

    counts has shape (..., N, *S), its last `score_axes` axes the score axes
    S (by default every axis after the first: no leading axes); log_table
    has shape (..., *S, C), one table per point of a stack along the leading
    axes.  The leading axes of the two broadcast as matmul's do, so the
    counts of P problems, (P, 1, N, *S), meet their L points each, (P, L,
    *S, C).  Returns (..., N, C), with -inf wherever a positive count meets
    a -inf log entry.  The sum is one gemm per point, counts (N, prod S) @
    table (prod S, C), so every point of a stack gets the bits of a single
    table's call at any prod S (one product over a stack's concatenated
    tables, (prod S, L C), leaves them once prod S >= 16).  -inf entries
    enter it as 0 and come back through a second product of hit counts, run
    only when the table has one.
    """
    if score_axes is None:
        score_axes = counts.ndim - 1
    rows = counts.ndim - score_axes
    counts = counts.reshape(counts.shape[:rows] + (-1,))
    table = log_table.reshape(log_table.shape[:log_table.ndim - score_axes - 1]
                              + counts.shape[-1:] + log_table.shape[-1:])
    finite = np.isfinite(table)
    if finite.all():
        return counts @ table
    # 0/1 products, so the float sums are exact hit counts
    out = counts @ np.where(finite, table, 0.0)
    out[(counts > 0).astype(np.float64) @ (~finite).astype(np.float64) > 0] = -np.inf
    return out
