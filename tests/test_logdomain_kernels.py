"""logsumexp along short axes and the per-point gemm of counted_log_factor,
each against the formula it replaced, bit for bit."""

import warnings
from functools import reduce

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scoregraph._logdomain import counted_log_factor, logsumexp
from test_logdomain import _reference_logsumexp, _with_ties_and_empty_rows

# magnitudes far apart, so that a different summation order changes the bits
_ADDENDS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.sampled_from([(n, 5), (4, n, 6), (3, n, 1)]).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_ADDENDS))))
def test_numpy_sum_over_the_short_state_axis_of_an_nr_table_is_a_left_fold(a):
    # the states-first NR table (..., C, N) reduces axis -2; its mesh values
    # keep the bits of a single point's only while numpy adds the C rows in
    # order, also where N = 1 leaves axis -2 the contiguous one
    fold = reduce(np.add, [a[..., j, :] for j in range(a.shape[-2])])
    np.testing.assert_array_equal(np.add.reduce(a, axis=-2), fold)


# near entries (exponentials of one magnitude, so the summation order shows),
# far entries, ties and -inf
_ENTRIES = st.one_of(st.floats(-4, 4, allow_nan=False), st.floats(-700, 700, allow_nan=False),
                     st.sampled_from([-np.inf, 0.0, 1.0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16), st.integers(1, 5), st.integers(1, 4), st.data())
def test_logsumexp_equals_the_reduction_formula_for_every_short_length(n, rows, k, data):
    base = data.draw(arrays(np.float64, (rows, n), elements=_ENTRIES))
    stack = np.stack([base] * k) + np.arange(k)[:, None, None]
    for a in (_with_ties_and_empty_rows(base, data), _with_ties_and_empty_rows(stack, data)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = a.copy()
            for axis in (None, 0, -2, -1):
                want = _reference_logsumexp(a, axis=axis)
                np.testing.assert_array_equal(logsumexp(a, axis=axis), want)
            np.testing.assert_array_equal(a, before)   # the input is never written


def _tensordot_reference(counts, log_table):
    """The formula counted_log_factor replaced: two moveaxis and a tensordot.

    On a stack it is one product over the concatenated tables, which gives
    other bits than the per-point products once prod S >= 16; tests apply
    it to one table at a time (see _per_point_reference)."""
    n_score = counts.ndim - 1
    lead = log_table.shape[:log_table.ndim - n_score - 1]
    score_axes = list(range(1, counts.ndim))
    table_axes = list(range(n_score))
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
    return np.moveaxis(out.reshape((out.shape[0],) + lead + log_table.shape[-1:]),
                       0, len(lead))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(2, 5), st.integers(2, 4),
       st.sampled_from([(), (3,), (2, 5)]), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_counted_log_factor_equals_the_tensordot_formula(n, r, c, lead, mutual, seed):
    rng = np.random.default_rng(seed)
    score_shape = (r, r) if mutual else (r,)
    # sparse counts, so that a -inf entry meets both zero and positive counts
    counts = rng.integers(0, 4, size=(n,) + score_shape) * (rng.random((n,) + score_shape) < 0.5)
    table = np.log(rng.random(lead + score_shape + (c,)))
    for log_table in (table, np.where(rng.random(table.shape) < 0.2, -np.inf, table)):
        got = counted_log_factor(counts, log_table)
        assert got.shape == lead + (n, c)
        np.testing.assert_array_equal(got, _per_point_reference(counts, log_table))


def _per_point_reference(counts, log_table):
    """_tensordot_reference applied to each table of a stack on its own."""
    lead = log_table.shape[:log_table.ndim - counts.ndim]
    out = np.empty(lead + (len(counts), log_table.shape[-1]))
    for idx in np.ndindex(lead):
        out[idx] = _tensordot_reference(counts, log_table[idx])
    return out


def test_a_neg_inf_entry_counts_only_under_a_positive_count():
    counts = np.array([[0, 2], [1, 0]])
    log_table = np.array([[-np.inf, 0.0], [np.log(0.5), -np.inf]])
    got = counted_log_factor(counts, log_table)
    np.testing.assert_array_equal(got, [[2 * np.log(0.5), -np.inf], [-np.inf, 0.0]])
    np.testing.assert_array_equal(got, _tensordot_reference(counts, log_table))
    stacked = counted_log_factor(counts, np.stack([log_table, np.zeros((2, 2))]))
    np.testing.assert_array_equal(stacked, [got, np.zeros((2, 2))])
