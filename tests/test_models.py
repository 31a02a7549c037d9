"""Model tensors, priors, gradients, and feasible-set geometry."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scoregraph as sg
from scoregraph.errors import InfeasibleError
from scoregraph.models import THETA_BOX, Box, FeasibleSet, Simplex, project_simplex

ALL_MODELS = [
    sg.preparata_model(),
    sg.reliability_model(5),
    sg.social_ranking_model(3, 3),
    sg.categorical_model(2, 3),
]


class TestConstantBinaryModel:
    def test_tensor_entries(self):
        t = sg.preparata_model().tensor(())
        np.testing.assert_array_equal(t[:, 0, 0], [1.0, 0.0])
        np.testing.assert_array_equal(t[:, 0, 1], [0.0, 1.0])
        np.testing.assert_array_equal(t[:, 1, 0], [0.5, 0.5])
        np.testing.assert_array_equal(t[:, 1, 1], [0.5, 0.5])

    def test_tensor_ignores_gamma(self):
        m = sg.preparata_model()
        assert np.array_equal(m.tensor(()), m.tensor(()))
        np.testing.assert_array_equal(m.prior((0.3,)), [0.7, 0.3])

    def test_two_score_ramp_model_is_the_same_model(self):
        np.testing.assert_array_equal(sg.reliability_model(2).tensor(()),
                                      sg.preparata_model().tensor(()))


class TestGradedReliabilityModel:
    def test_unsound_evaluator_is_uniform(self):
        t = sg.reliability_model(5).tensor(())
        np.testing.assert_allclose(t[:, 1, 0], 0.2)
        np.testing.assert_allclose(t[:, 1, 1], 0.2)

    def test_sound_evaluator_unsound_target_ramp(self):
        t = sg.reliability_model(5).tensor(())
        np.testing.assert_allclose(t[:, 0, 1], [0.0, 0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(t[:, 0, 1].sum(), 1.0)

    def test_requires_two_scores(self):
        with pytest.raises(ValueError):
            sg.reliability_model(1)


class TestRankingModel:
    def test_binomial_prior_values(self):
        m = sg.social_ranking_model(3, 3)
        np.testing.assert_allclose(m.prior((0.3,)), [0.49, 0.42, 0.09],
                                   atol=1e-15)

    def test_rows_normalized_for_any_dispersion(self):
        m = sg.social_ranking_model(3, 4)
        for th in (0.05, 0.5, 2.0, 10.0):
            t = m.tensor((th,))
            np.testing.assert_allclose(t.sum(axis=0), 1.0, atol=1e-12)

    def test_equal_states_favor_the_top_score(self):
        # matching evaluator and target: the closer r_h is to the top value,
        # the likelier the score
        t = sg.social_ranking_model(3, 3).tensor((0.5,))
        for l in range(3):
            col = t[:, l, l]
            assert np.all(np.diff(col) > 0)

    def test_dispersion_confined_to_box(self):
        m = sg.social_ranking_model(3, 3)
        lo, hi = THETA_BOX
        with pytest.raises(InfeasibleError):
            m.tensor((lo - 0.01,))
        with pytest.raises(InfeasibleError):
            m.tensor((hi + 0.01,))
        m.tensor((lo,))
        m.tensor((hi,))

    def test_invalid_distance_rejected(self):
        bad_diag = np.array([[1.0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(ValueError):
            sg.social_ranking_model(3, 3, distance=bad_diag)
        negative = np.array([[0.0, -1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(ValueError):
            sg.social_ranking_model(3, 3, distance=negative)

    def test_symmetric_distance_marks_label_swap(self):
        assert sg.social_ranking_model(3, 3).label_swap_symmetric
        skew = np.array([[0.0, 1, 2], [3, 0, 1], [2, 3, 0]])
        assert not sg.social_ranking_model(3, 3, distance=skew).label_swap_symmetric

    def test_prior_gradient_at_zero(self):
        # d/dgamma of (1-gamma)^(C-1) at 0 is -(C-1)
        for c in (2, 3, 5):
            m = sg.social_ranking_model(c, 3)
            g = m.prior_grad((0.0,))
            assert g[0, 0] == pytest.approx(-(c - 1), abs=1e-12)


class TestFreeTensorModel:
    def test_uniform_point_is_feasible(self):
        m = sg.categorical_model(2, 2)
        theta = np.full(8, 0.5)
        gamma = np.full(2, 0.5)
        m.require_feasible(theta, gamma)
        np.testing.assert_allclose(m.tensor(theta), 0.5)
        np.testing.assert_allclose(m.prior(gamma), 0.5)

    def test_dimension_counting(self):
        m = sg.categorical_model(2, 2)
        assert m.theta_dim == 8 and m.gamma_dim == 2

    def test_tensor_layout_round_trip(self):
        m = sg.categorical_model(2, 3)
        rng = np.random.default_rng(0)
        theta, _ = m.feasible.split(m.feasible.sample_interior(rng))
        t = m.tensor(theta)
        for l in range(2):
            for mm in range(2):
                np.testing.assert_allclose(t[:, l, mm],
                                           theta[(l * 2 + mm) * 3:(l * 2 + mm + 1) * 3])

    def test_projection_matches_grid_search(self):
        raw = np.array([0.9, 0.6, -0.2])
        proj = project_simplex(raw)
        grid = np.linspace(0, 1, 201)
        best, best_d = None, np.inf
        for a in grid:
            for b in grid[grid <= 1 - a + 1e-12]:
                p = np.array([a, b, 1 - a - b])
                if p[2] < -1e-12:
                    continue
                d = np.sum((raw - p) ** 2)
                if d < best_d:
                    best, best_d = p, d
        assert np.abs(proj - best).max() < 1e-2   # grid pitch limits the oracle
        assert np.sum((raw - proj) ** 2) <= best_d + 1e-12


def test_simplex_projection_known_points():
    np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5])), [0.5, 0.5])
    np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    np.testing.assert_allclose(project_simplex(np.array([1.0, 1.0])), [0.5, 0.5])
    np.testing.assert_allclose(project_simplex(np.array([-1.0, -2.0])), [1.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6))
def test_simplex_projection_properties(vals):
    v = np.asarray(vals)
    p = project_simplex(v)
    assert p.min() >= -1e-12
    assert abs(p.sum() - 1.0) < 1e-9
    np.testing.assert_allclose(project_simplex(p), p, atol=1e-9)


_ROW_ENTRIES = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
                         st.floats(-5, 5, allow_nan=False))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(
    st.lists(st.lists(_ROW_ENTRIES, min_size=k, max_size=k), min_size=1, max_size=8),
    st.lists(st.integers(0, k - 1), max_size=3))))
def test_simplex_projection_is_row_wise(rows_and_vertices):
    # sampled_from repeats entries, so rows carry ties; rows that are already
    # on the simplex (vertices and the centroid) are stacked in as well
    rows, vertices = rows_and_vertices
    k = len(rows[0])
    feasible = [np.eye(k)[j] for j in vertices] + [np.full(k, 1.0 / k)]
    v = np.vstack([np.asarray(rows)] + feasible)
    out = project_simplex(v)
    assert out.shape == v.shape
    for row, projected in zip(v, out):
        np.testing.assert_array_equal(projected, project_simplex(row))
    np.testing.assert_allclose(out[len(rows):], v[len(rows):], atol=1e-15)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_callables_broadcast_over_leading_axes(model):
    rng = np.random.default_rng(8)
    z = np.array([model.feasible.sample_interior(rng) for _ in range(6)]).reshape(2, 3, -1)
    theta, gamma = model.feasible.split(z)
    tensor, prior = model.tensor(theta, validate=False), model.prior(gamma, validate=False)
    d_tensor, d_prior = model.tensor_grad(theta), model.prior_grad(gamma)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(np.broadcast_to(tensor, (2, 3) + tensor.shape[-3:])[idx],
                                      model.tensor(theta[idx]))
        np.testing.assert_array_equal(prior[idx], model.prior(gamma[idx]))
        np.testing.assert_array_equal(
            np.broadcast_to(d_tensor, (2, 3) + d_tensor.shape[-4:])[idx],
            model.tensor_grad(theta[idx]))
        np.testing.assert_array_equal(
            np.broadcast_to(d_prior, (2, 3) + d_prior.shape[-2:])[idx],
            model.prior_grad(gamma[idx]))
        np.testing.assert_array_equal(model.feasible.project(z + 0.3)[idx],
                                      model.feasible.project(z[idx] + 0.3))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_normalization_on_random_feasible_points(model):
    rng = np.random.default_rng(123)
    for _ in range(1000):
        z = model.feasible.sample_interior(rng)
        theta, gamma = model.feasible.split(z)
        t = model.tensor(theta)
        p = model.prior(gamma)
        assert np.all(t >= 0) and np.all(p >= 0)
        np.testing.assert_allclose(t.sum(axis=0), 1.0, atol=1e-12)
        assert abs(p.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_gradients_match_finite_differences(model):
    rng = np.random.default_rng(77)
    for _ in range(20):
        z = model.feasible.sample_interior(rng)
        theta, gamma = model.feasible.split(z)
        d_tensor, d_prior = model.tensor_grad(theta), model.prior_grad(gamma)
        # free-mass tables keep normalization by projection, not by formula,
        # so only functionally normalized models have zero-sum derivatives
        normalized_by_formula = model.name != "categorical"
        if model.theta_dim:
            fd_t = np.stack([
                (model.tensor(theta + dz, validate=False)
                 - model.tensor(theta - dz, validate=False)) / (2e-6)
                for dz in np.eye(model.theta_dim) * 1e-6
            ])
            np.testing.assert_allclose(d_tensor, fd_t, rtol=1e-6, atol=1e-8)
            if normalized_by_formula:
                np.testing.assert_allclose(d_tensor.sum(axis=1), 0.0,
                                           atol=1e-9)
        fd_p = np.stack([
            (model.prior(gamma + dz, validate=False)
             - model.prior(gamma - dz, validate=False)) / (2e-6)
            for dz in np.eye(model.gamma_dim) * 1e-6
        ])
        np.testing.assert_allclose(d_prior, fd_p, rtol=1e-6, atol=1e-8)
        if normalized_by_formula:
            np.testing.assert_allclose(d_prior.sum(axis=1), 0.0, atol=1e-9)


def test_feasible_set_dim_is_the_sum_of_block_dims():
    for model in (sg.reliability_model(5), sg.social_ranking_model(3, 3),
                  sg.categorical_model(2, 3)):
        feas = model.feasible
        assert feas.dim == sum(b.dim for b in feas.blocks)
        assert feas.theta_dim + feas.gamma_dim == feas.dim
    feas = sg.categorical_model(2, 3).feasible
    assert (feas.dim, feas.theta_dim, feas.gamma_dim) == (4 * 3 + 2, 4 * 3, 2)


def test_a_block_may_not_straddle_the_split():
    blocks = (Box(np.zeros(2), np.ones(2)), Simplex(3))
    for theta_dim in (0, 2, 5):
        assert FeasibleSet(blocks, theta_dim).gamma_dim == 5 - theta_dim
    for theta_dim in (-1, 1, 3, 4, 6):
        with pytest.raises(ValueError, match="straddles"):
            FeasibleSet(blocks, theta_dim)


def test_feasible_set_geometry():
    m = sg.social_ranking_model(3, 3)
    fs = m.feasible
    assert fs.theta_dim == 1 and fs.gamma_dim == 1 and fs.dim == 2
    z = np.array([50.0, -2.0])
    proj = fs.project(z)
    assert fs.contains(proj)
    np.testing.assert_allclose(proj, [THETA_BOX[1], 0.0])
    c = fs.centroid()
    assert fs.contains(c)
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert fs.contains(fs.sample_interior(rng))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_projection_equals_the_blockwise_projection(model):
    feas = model.feasible
    rng = np.random.default_rng(12)
    z = rng.uniform(-3.0, 12.0, size=(3, 5, feas.dim))
    z[0, 0] = feas.centroid()
    for v in (z, z[1, 2], z[2, 3].tolist()):
        out = feas.project(v)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, _blockwise_loop(feas, v))
    lo, hi = feas.bounds
    assert lo is feas.bounds[0] and not (lo.flags.writeable or hi.flags.writeable)


def _blockwise_loop(feas, v):
    """The per-block projection: a clip per box block, project_simplex per simplex block."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    start = 0
    for b in feas.blocks:
        sl = slice(start, start + b.dim)
        out[..., sl] = (np.clip(v[..., sl], b.lo, b.hi) if isinstance(b, Box)
                        else project_simplex(v[..., sl]))
        start += b.dim
    return out


@pytest.mark.parametrize("shape", [(3, 3), (2, 3)], ids=lambda s: f"C{s[0]}R{s[1]}")
def test_stacked_simplex_projection_equals_the_block_loop(shape):
    n_states, n_scores = shape
    feas = sg.categorical_model(n_states, n_scores).feasible
    # the C^2 equal-size theta simplices are projected in one call; the gamma
    # simplex joins that call when it has the same size
    shapes = [idx.shape for idx in feas._simplices]
    assert shapes == ([(n_states ** 2 + 1, n_scores)] if n_states == n_scores
                      else [(n_states ** 2, n_scores), (1, n_states)])
    rng = np.random.default_rng(14)
    z = rng.uniform(-2.0, 3.0, size=(4, 6, feas.dim))
    for v in (z, z.reshape(-1, feas.dim), z[1, 2], z[:0, 0]):
        np.testing.assert_array_equal(feas.project(v), _blockwise_loop(feas, v))


def _mixed_set():
    return FeasibleSet((Simplex(3), Simplex(3), Box(np.zeros(2), np.ones(2)),
                        Simplex(2), Simplex(2), Simplex(3)), theta_dim=8)


def test_simplex_runs_break_at_boxes_and_size_changes():
    blocks = _mixed_set()
    v = np.random.default_rng(15).uniform(-2.0, 3.0, size=(5, blocks.dim))
    for w in (v, v[0]):
        np.testing.assert_array_equal(blocks.project(w), _blockwise_loop(blocks, w))


def test_simplices_group_blocks_by_size():
    # the size-3 blocks on either side of the box and the size-2 pair
    groups = [idx.tolist() for idx in _mixed_set()._simplices]
    assert groups == [[[0, 1, 2], [3, 4, 5], [12, 13, 14]], [[8, 9], [10, 11]]]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_sampling_a_stack_equals_one_point_at_a_time(model):
    feas = model.feasible
    for margin in (0.0, 0.02):
        rng = np.random.default_rng(16)
        stack = feas.sample_interior(rng, margin, size=7)
        after = rng.uniform()
        rng = np.random.default_rng(16)
        points = np.array([feas.sample_interior(rng, margin) for _ in range(7)])
        assert stack.shape == (7, feas.dim)
        np.testing.assert_array_equal(stack, points)
        assert rng.uniform() == after      # the same stream was consumed


def test_split_parts_concatenate_to_z():
    m = sg.categorical_model(2, 2)
    rng = np.random.default_rng(4)
    z = m.feasible.sample_interior(rng)
    theta, gamma = m.feasible.split(z)
    assert theta.shape == (m.theta_dim,) and gamma.shape == (m.gamma_dim,)
    np.testing.assert_array_equal(np.concatenate([theta, gamma]), z)


def test_label_swap_symmetry_needs_a_scalar_gamma():
    with pytest.raises(ValueError, match="label-swap symmetry needs a scalar gamma"):
        replace(sg.categorical_model(2, 2), label_swap_symmetric=True)
    assert replace(sg.preparata_model(), label_swap_symmetric=True).label_swap_symmetric


def test_tensor_and_prior_validate():
    m = sg.social_ranking_model(3, 3)
    with pytest.raises(InfeasibleError):
        m.tensor((20.0,))
    with pytest.raises(InfeasibleError):
        m.prior((1.2,))
    t = m.tensor((0.5,))
    assert t.shape == (3, 3, 3)


def test_validation_checks_every_row_of_a_stack():
    m = sg.social_ranking_model(3, 3)
    theta, gamma = np.array([[0.5], [0.6], [2.0]]), np.array([[0.1], [0.5], [0.9]])
    np.testing.assert_array_equal(m.tensor(theta), np.stack([m.tensor(t) for t in theta]))
    np.testing.assert_array_equal(m.prior(gamma), np.stack([m.prior(g) for g in gamma]))
    m.require_feasible(theta, gamma)
    m.require_feasible(theta[0], gamma)
    bad_theta, bad_gamma = theta.copy(), gamma.copy()
    bad_theta[1, 0], bad_gamma[2, 0] = 20.0, 1.2
    with pytest.raises(InfeasibleError, match=r"theta \[20\.\] \(row 1\)"):
        m.tensor(bad_theta)
    with pytest.raises(InfeasibleError, match=r"gamma \[1\.2\] \(row 2\)"):
        m.prior(bad_gamma)
    with pytest.raises(InfeasibleError, match=r"\(row 1, 0\)"):
        m.require_feasible(bad_theta.reshape(3, 1, 1), gamma[0])
    with pytest.raises(InfeasibleError, match=r"\(row 2\)"):
        m.require_feasible(theta, bad_gamma)
    m.tensor(bad_theta, validate=False)


def test_wrong_parameter_shape_is_infeasible():
    m = sg.preparata_model()
    with pytest.raises(InfeasibleError):
        m.prior((0.3, 0.4))
    with pytest.raises(InfeasibleError):
        sg.categorical_model(2, 2).tensor(np.full(7, 0.5))
