"""The numpy logsumexp helper against scipy's, which serves as the reference."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from scoregraph._logdomain import logsumexp

_ENTRIES = st.one_of(st.floats(-700, 700, allow_nan=False),
                     st.sampled_from([-np.inf, 0.0, 1.0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(_ENTRIES, min_size=k, max_size=k), min_size=1, max_size=6)))
def test_rows_match_scipy(rows):
    a = np.asarray(rows, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = logsumexp(a, axis=1)
        whole = logsumexp(a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # scipy may warn on all -inf rows
        ref = scipy_logsumexp(a, axis=1)
        ref_whole = scipy_logsumexp(a)
    assert ours.shape == ref.shape and np.ndim(whole) == 0
    assert not np.any(np.isnan(ours))
    np.testing.assert_allclose(ours, ref, rtol=1e-14, atol=0)
    np.testing.assert_allclose(whole, ref_whole, rtol=1e-14, atol=0)


def test_all_neg_inf_rows_give_neg_inf():
    a = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [-np.inf, np.log(2.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = logsumexp(a, axis=1)
        assert logsumexp(np.full(3, -np.inf)) == -np.inf
    np.testing.assert_array_equal(out, [-np.inf, 0.0, np.log(2.0)])


def test_ties_and_large_shifts():
    a = np.array([[1000.0, 1000.0], [-1000.0, -1000.0], [3.0, 3.0]])
    np.testing.assert_allclose(logsumexp(a, axis=1),
                               a[:, 0] + np.log(2.0), rtol=1e-15)
