"""The numpy logsumexp helper against scipy's, which serves as the reference,
and against the previous max-shift formula, which it reproduces bit for bit."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from scoregraph._logdomain import logsumexp

_ENTRIES = st.one_of(st.floats(-700, 700, allow_nan=False),
                     st.sampled_from([-np.inf, 0.0, 1.0]))


def _reference_logsumexp(a, axis=None):
    """The formula logsumexp replaced: a full tie mask, its complement and a copy."""
    a = np.asarray(a, dtype=np.float64)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.count_nonzero(top, axis=axis, keepdims=True)
    shifted = np.subtract(a, a_max, out=np.full(a.shape, -np.inf), where=~top)
    out = (np.log1p(np.sum(np.exp(shifted), axis=axis, keepdims=True) / m)
           + np.log(m) + a_max)
    return np.squeeze(out, axis=axis)


def _rows(max_cols=6, max_rows=6):
    return st.integers(1, max_cols).flatmap(lambda k: st.lists(
        st.lists(_ENTRIES, min_size=k, max_size=k), min_size=1, max_size=max_rows))


@settings(max_examples=150, deadline=None)
@given(_rows())
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


def _with_ties_and_empty_rows(a, data):
    """Set one entry of some rows to the row's max (a tie); fill others with -inf."""
    a = a.copy()
    flat = a.reshape(-1, a.shape[-1])
    for r in range(len(flat)):
        kind = data.draw(st.sampled_from(["as drawn", "tie", "all -inf"]))
        if kind == "tie":
            flat[r, data.draw(st.integers(0, a.shape[-1] - 1))] = flat[r].max()
        elif kind == "all -inf":
            flat[r] = -np.inf
    return a


@settings(max_examples=150, deadline=None)
@given(_rows(), st.integers(1, 4), st.data())
def test_equals_the_previous_formula_bit_for_bit(rows, k, data):
    base = np.asarray(rows, dtype=np.float64)
    stack = _with_ties_and_empty_rows(np.stack([base] * k) + np.arange(k)[:, None, None],
                                      data)
    for a in (_with_ties_and_empty_rows(base, data), stack):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = a.copy()
            for axis in (None, -1, 0):
                want = _reference_logsumexp(a, axis=axis)
                np.testing.assert_array_equal(logsumexp(a, axis=axis), want)
            # a non-contiguous input gives the same bits
            view = np.moveaxis(a, -1, 0)
            want = _reference_logsumexp(view.copy(), axis=0)
            np.testing.assert_array_equal(logsumexp(view, axis=0), want)
            np.testing.assert_array_equal(a, before)   # the input is never written


@pytest.mark.parametrize("shape, axis", [((6, 5, 3), -1), ((6, 3, 40), -2)],
                         ids=["folded-last-axis", "states-axis"])
@pytest.mark.parametrize("case", ["no tie", "one tied slice", "all -inf slices"])
def test_the_tie_and_no_tie_branches_equal_the_reference_bit_for_bit(shape, axis, case):
    # logsumexp skips the tie count, the divide and log(m) when no slice has
    # a tied maximum; both branches give the reference's bits, the sign of a
    # zero included (slices whose rest is +0 give +0)
    a = np.random.default_rng(17).normal(scale=30.0, size=shape)
    a = np.moveaxis(a, axis, -1)                # a view whose last axis is the reduced one
    a[0, 0] = [0.0, -np.inf] + [-np.inf] * (a.shape[-1] - 2)    # rest exactly +0
    a[1, 1, 1] = -np.inf
    if case == "one tied slice":
        a[2, 1, :2] = a[2, 1].max()
    elif case == "all -inf slices":
        a[3, 2] = -np.inf
        a[4, 0] = -np.inf
    a = np.moveaxis(a, -1, axis)
    top = a == a.max(axis=axis, keepdims=True)
    tied = (np.count_nonzero(top, axis=axis) > 1).sum()
    assert tied == {"no tie": 0, "one tied slice": 1, "all -inf slices": 2}[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsumexp(a, axis=axis)
        want = _reference_logsumexp(a, axis=axis)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_input_is_never_written():
    a = np.array([[0.0, -1.0, -np.inf], [2.0, 2.0, 1.0]])
    before = a.copy()
    logsumexp(a, axis=-1)
    np.testing.assert_array_equal(a, before)
    frozen = a.copy()
    frozen.setflags(write=False)
    np.testing.assert_array_equal(logsumexp(frozen, axis=-1),
                                  _reference_logsumexp(a, axis=-1))


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
