"""Objectives, gradients, closed form, and the projected-gradient machinery."""

import contextlib
import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scoregraph as sg
from scoregraph import estimators
from scoregraph._logdomain import counted_log_factor, logsumexp
from scoregraph.errors import InfeasibleError, NonFiniteError
from scoregraph.experiments import ExperimentConfig, build_model, run_single
from scoregraph.models import THETA_BOX

from oracles import (binary_fr_maximizers, exact_loglik_brute_force, fd_gradient,
                     fr_product_loglik_brute_force, nr_loglik_brute_force)


ALL_MODELS = (sg.preparata_model(), sg.reliability_model(5),
              sg.social_ranking_model(3, 3), sg.categorical_model(2, 3))


def _instance(model, rng, n_agents=6, n_edges=14):
    g = sg.sample_score_graph(n_agents, n_edges, "cyclic-plus-random-edges", rng)
    z = model.feasible.sample_interior(rng)
    theta, gamma = model.feasible.split(z)
    scored, _ = sg.generate_scores(g, model, theta, gamma, rng)
    return scored, theta, gamma


class TestExactLoglikelihood:
    def test_uniform_tensor_two_agents(self):
        model = sg.categorical_model(2, 3)
        theta = np.full(model.theta_dim, 1 / 3)
        gamma = np.array([0.6, 0.4])
        g = sg.ScoreGraph(2, 3, np.array([(0, 1), (1, 0)]), scores=np.array([2, 0]))
        value = sg.exact_loglikelihood(g, model, theta, gamma)
        assert value == pytest.approx(2 * np.log(1 / 3), abs=1e-12)

    def test_deterministic_sound_network(self):
        g = sg.ScoreGraph(2, 2, np.array([(0, 1), (1, 0)]), scores=np.array([0, 0]))
        value = sg.exact_loglikelihood(g, sg.preparata_model(), (), (0.0,))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(17)
        for model in (sg.preparata_model(), sg.social_ranking_model(3, 3)):
            scored, theta, gamma = _instance(model, rng, n_agents=5, n_edges=11)
            ours = sg.exact_loglikelihood(scored, model, theta, gamma)
            ref = exact_loglik_brute_force(scored, model, theta, gamma)
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_agent_cap(self):
        rng = np.random.default_rng(0)
        g = sg.sample_score_graph(13, 26, "cyclic-plus-random-edges", rng)
        scored, _ = sg.generate_scores(g, sg.preparata_model(), (), (0.3,), rng)
        with pytest.raises(ValueError):
            sg.exact_loglikelihood(scored, sg.preparata_model(), (), (0.3,))


def test_nr_and_exact_reject_a_different_score_alphabet():
    # four scores against a two- and a five-score model: the tables would
    # broadcast or index silently, so each entry point refuses up front
    rng = np.random.default_rng(19)
    scored, _, _ = _instance(sg.reliability_model(4), rng)
    counts = sg.aggregate_counts(scored)
    for model in (sg.reliability_model(2), sg.reliability_model(5)):
        for call in (lambda: sg.nr_objective(counts, model, (), (0.3,)),
                     lambda: sg.nr_gradient(counts, model, (), (0.3,)),
                     lambda: sg.estimate(sg.nr_problem(counts, model)),
                     lambda: sg.exact_loglikelihood(scored, model, (), (0.3,))):
            with pytest.raises(ValueError, match="disagree on the score alphabet"):
                call()


class TestNodeRelaxedObjective:
    def test_uniform_tensor_collapses(self):
        model = sg.categorical_model(2, 4)
        theta = np.full(model.theta_dim, 0.25)
        rng = np.random.default_rng(2)
        g = sg.sample_score_graph(6, 18, "cyclic-plus-random-edges", rng)
        scored, _ = sg.generate_scores(g, model, theta, np.array([0.5, 0.5]), rng)
        counts = sg.aggregate_counts(scored)
        for gam in ([0.5, 0.5], [0.9, 0.1]):
            value = sg.nr_objective(counts, model, theta, np.asarray(gam))
            assert value == pytest.approx(18 * np.log(0.25), abs=1e-12)

    def test_single_received_score_formula(self):
        model = sg.preparata_model()
        g = sg.ScoreGraph(2, 2, np.array([(0, 1), (1, 0)]), scores=np.array([1, 0]))
        counts = sg.aggregate_counts(g)
        gamma = 0.3
        tensor, prior = model.tensor(()), model.prior((gamma,))
        expected = 0.0
        for i, h in ((0, 0), (1, 1)):   # received score of each agent
            acc = 0.0
            for l in range(2):
                inner = sum(tensor[h, m, l] * prior[m] for m in range(2))
                acc += prior[l] * inner
            expected += np.log(acc)
        value = sg.nr_objective(counts, model, (), (gamma,))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_matches_per_definition_evaluation(self):
        rng = np.random.default_rng(23)
        for model in (sg.reliability_model(3), sg.social_ranking_model(3, 3)):
            scored, theta, gamma = _instance(model, rng)
            counts = sg.aggregate_counts(scored)
            ours = sg.nr_objective(counts, model, theta, gamma)
            ref = nr_loglik_brute_force(scored, model, theta, gamma)
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        model = sg.social_ranking_model(3, 3)
        scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
        counts = sg.aggregate_counts(scored)
        problem = sg.nr_problem(counts, model)
        for _ in range(10):
            z = model.feasible.sample_interior(rng)
            got = problem.gradient(z)
            want = fd_gradient(lambda v: problem.evaluate(v)[0], z, step=1e-5)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_all_negative_infinite_rows_raise(self):
        model = sg.preparata_model()
        g = sg.ScoreGraph(2, 2, np.array([(0, 1), (1, 0)]), scores=np.array([1, 1]))
        counts = sg.aggregate_counts(g)
        with pytest.raises(NonFiniteError):
            sg.nr_gradient(counts, model, (), (0.0,))


def _nr_gradient_reference(counts, model, theta, gamma):
    """The NR gradient through per-agent (k, N, C) arrays, the formula the
    R x C weight table replaced (three-operand einsums).  Also returns the
    same sums over the absolute values of the terms, which scale the
    rounding error of either formula."""
    _, (s, tensor, prior, m_in, _) = estimators._nr_kept_table(counts.received, model,
                                                                theta, gamma)
    s = np.swapaxes(s, -1, -2)      # the table is states-first; this formula reads s[..., i, l]
    w = np.exp(s - logsumexp(s, axis=-1)[..., None])
    received = counts.received
    ratio_m = np.divide(1.0, m_in, out=np.zeros_like(m_in), where=m_in > 0)
    prior_k = prior[..., None, :]
    out = []
    for f in (lambda a: a, np.abs):
        if model.theta_dim:
            dm_theta = np.einsum("...khml,...m->...khl", f(model.tensor_grad(theta)), prior)
            a = np.einsum("ih,...khl,...hl->...kil", received, dm_theta, ratio_m)
            grad_theta = np.einsum("...il,...kil->...k", w, a)
        else:
            grad_theta = np.zeros(w.shape[:-2] + (0,))
        d_prior = f(model.prior_grad(gamma))
        dm_gamma = np.einsum("...hml,...km->...khl", tensor, d_prior)
        b = np.einsum("ih,...khl,...hl->...kil", received, dm_gamma, ratio_m)
        ratio_p = np.divide(d_prior, prior_k, where=prior_k > 0,
                            out=np.zeros(np.broadcast_shapes(d_prior.shape, prior_k.shape)))
        grad_gamma = np.einsum("...il,...kil->...k", w, b + ratio_p[..., None, :])
        out.append(np.concatenate([grad_theta, grad_gamma], axis=-1))
    return out[0], np.abs(out[1])


class TestNodeRelaxedGradient:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_equals_the_per_agent_formula(self, model):
        # near a stationary point the terms cancel, so the tolerance is
        # relative to the sum of their magnitudes, not to the result
        rng = np.random.default_rng(131)
        scored, _, _ = _instance(model, rng, n_agents=10, n_edges=40)
        counts = sg.aggregate_counts(scored)
        points = np.array([model.feasible.sample_interior(rng, 0.02) for _ in range(12)])
        cases = [points.reshape(3, 4, -1)] + list(points)
        for z in cases:
            theta, gamma = model.feasible.split(z)
            got = sg.nr_gradient(counts, model, theta, gamma)
            want, scale = _nr_gradient_reference(counts, model, theta, gamma)
            assert got.shape == want.shape == z.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_a_zero_prior_state_contributes_no_ratio_term(self):
        # reliability at gamma = 1: the unreliable state has prior 0 and weight 0
        model = sg.reliability_model(5)
        scored, _, _ = _instance(model, np.random.default_rng(137), n_agents=8, n_edges=30)
        counts = sg.aggregate_counts(scored)
        theta, gamma = model.feasible.split(np.array([1.0]))
        got = sg.nr_gradient(counts, model, theta, gamma)
        want, scale = _nr_gradient_reference(counts, model, theta, gamma)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestFullyRelaxedObjective:
    def test_uniform_tensor_value(self):
        model = sg.categorical_model(2, 4)
        theta = np.full(model.theta_dim, 0.25)
        for phi in ([0.25] * 4, [0.7, 0.1, 0.1, 0.1]):
            value = sg.fr_objective(np.array(phi), model, theta,
                                    np.array([0.3, 0.7]))
            assert value == pytest.approx(np.log(4), abs=1e-12)

    def test_binary_all_match_scores(self):
        for gam in (0.2, 0.5, 0.9):
            value = sg.fr_objective(np.array([1.0, 0.0]), sg.preparata_model(),
                                    (), (gam,))
            assert value == pytest.approx(-np.log(gam / 2 + (1 - gam) ** 2),
                                          abs=1e-12)

    def test_equals_scaled_product_form(self):
        rng = np.random.default_rng(37)
        for model in (sg.preparata_model(), sg.reliability_model(4),
                      sg.social_ranking_model(3, 3)):
            for _ in range(4):
                scored, theta, gamma = _instance(model, rng)
                counts = sg.aggregate_counts(scored)
                ours = sg.fr_objective(counts.phi, model, theta, gamma)
                ref = -fr_product_loglik_brute_force(scored, model, theta,
                                                     gamma) / scored.n_edges
                assert ours == pytest.approx(ref, abs=1e-9)

    def test_off_simplex_weights_rejected(self):
        model = sg.preparata_model()
        with pytest.raises(ValueError):
            sg.fr_objective(np.array([0.6, 0.5]), model, (), (0.3,))
        with pytest.raises(ValueError):
            sg.fr_objective(np.array([1.1, -0.1]), model, (), (0.3,))
        sg.fr_objective(np.array([1.0 + 5e-10, -5e-10]), model, (), (0.3,))
        # a stack of phi rows: the gradient checks every row; the objective
        # and the problem take exactly one phi
        rows = np.array([[0.5, 0.5], [0.6, 0.5]])
        with pytest.raises(ValueError):
            sg.fr_gradient(rows, model, np.zeros((2, 0)), np.full((2, 1), 0.3))
        with pytest.raises(ValueError):
            sg.fr_objective(rows[:1], model, (), (0.3,))
        with pytest.raises(ValueError):
            sg.fr_problem(rows[:1], model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # a NaN fails every comparison, so the simplex check must require its
        # conditions; fr_objective would drop a NaN term through its phi > 0 mask
        model = sg.reliability_model(5)
        phi = np.array([bad, 0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError, match="simplex"):
            sg.fr_problem(phi, model)
        with pytest.raises(ValueError, match="simplex"):
            sg.fr_objective(phi, model, (), (0.3,))
        with pytest.raises(ValueError, match="simplex"):
            sg.fr_gradient(phi, model, (), (0.3,))
        with pytest.raises(ValueError, match="simplex"):
            sg.local_gradient_step(np.array([0.3]), phi, model, 0.01)
        # one bad row of a phi stack, one row per agent
        rows = np.tile(np.full(5, 0.2), (3, 1))
        rows[1] = phi
        with pytest.raises(ValueError, match="simplex"):
            sg.local_gradient_step(np.full((3, 1), 0.3), rows, model, 0.01)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        model = sg.categorical_model(2, 3)
        phi = np.array([0.5, 0.3, 0.2])
        problem = sg.fr_problem(phi, model)
        for _ in range(10):
            z = model.feasible.sample_interior(rng)
            got = problem.gradient(z)
            want = fd_gradient(lambda v: problem.evaluate(v)[0], z, step=1e-5)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_plus_infinity_at_impossible_support(self):
        model = sg.preparata_model()
        value = sg.fr_objective(np.array([0.0, 1.0]), model, (), (0.0,))
        assert value == np.inf
        with pytest.raises(NonFiniteError):
            sg.fr_gradient(np.array([0.0, 1.0]), model, (), (0.0,))


def _fr_gradient_reference(phi, model, theta, gamma):
    """The FR gradient with t_h differentiated factor by factor: the theta
    part through the tensor, the gamma part through each prior factor (two
    three-operand einsums).  Also returns the same sums over the absolute
    values of the terms, which scale the rounding error of either formula."""
    t_h, tensor, prior = estimators._edge_score_distribution(model, theta, gamma)
    ratio = (phi / np.where(t_h > 0, t_h, np.inf))[..., None]
    d_prior = model.prior_grad(gamma)
    out = []
    for f in (lambda a: a, np.abs):
        if model.theta_dim:
            dt_theta = np.einsum("...khlm,...l,...m->...kh", f(model.tensor_grad(theta)),
                                 prior, prior)
            grad_theta = -(dt_theta @ ratio)
        else:
            grad_theta = np.zeros(ratio.shape[:-2] + (0, 1))
        dt_gamma = (np.einsum("...hlm,...kl,...m->...kh", tensor, f(d_prior), prior)
                    + np.einsum("...hlm,...l,...km->...kh", tensor, prior, f(d_prior)))
        out.append(np.concatenate([grad_theta, -(dt_gamma @ ratio)], axis=-2)[..., 0])
    return out[0], np.abs(out[1])


class TestFullyRelaxedGradient:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_equals_the_factor_by_factor_formula(self, model):
        # near a stationary point the terms cancel, so the tolerance is
        # relative to the sum of their magnitudes, not to the result
        rng = np.random.default_rng(43)
        points = np.array([model.feasible.sample_interior(rng, 0.02)
                           for _ in range(12)]).reshape(3, 4, -1)
        one_phi = rng.dirichlet(np.ones(model.n_scores))
        row_phi = rng.dirichlet(np.ones(model.n_scores), size=(3, 4))
        cases = [(one_phi, points), (row_phi, points)]
        cases += [(phi, z) for phi, z in zip(row_phi.reshape(-1, model.n_scores),
                                             points.reshape(-1, model.feasible.dim))]
        for phi, z in cases:
            theta, gamma = model.feasible.split(z)
            got = sg.fr_gradient(phi, model, theta, gamma)
            want, scale = _fr_gradient_reference(phi, model, theta, gamma)
            assert got.shape == want.shape == z.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_an_impossible_score_that_was_never_seen_does_not_raise(self):
        # preparata at gamma = 0: score 1 has t_h = 0, harmless while phi_1 = 0
        model = sg.preparata_model()
        z = np.full((4, 1), 0.4)
        z[2] = 0.0
        phi = np.tile([0.6, 0.4], (4, 1))
        phi[2] = (1.0, 0.0)
        theta, gamma = model.feasible.split(z)
        got = sg.fr_gradient(phi, model, theta, gamma)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got[2], sg.fr_gradient(phi[2], model, (), (0.0,)))
        want, scale = _fr_gradient_reference(phi, model, theta, gamma)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        with pytest.raises(NonFiniteError, match=r"agent 2\b"):
            sg.fr_gradient(np.tile([0.6, 0.4], (4, 1)), model, theta, gamma)


class TestBinaryClosedForm:
    def test_pinned_values(self):
        assert sg.fr_binary_closed_form(9 / 16) == pytest.approx(0.75, abs=1e-15)
        assert sg.fr_binary_closed_form(0.0) == pytest.approx(0.0, abs=1e-15)
        assert sg.fr_binary_closed_form(0.5) == pytest.approx(0.5, abs=1e-12)
        assert sg.fr_binary_closed_form(1.0) == pytest.approx(0.75, abs=1e-15)

    def test_half_is_a_global_maximizer(self):
        maxi = binary_fr_maximizers(0.5)
        assert any(abs(0.5 - x) < 1e-8 for x in maxi)

    def test_always_lands_on_the_maximizer_set(self):
        for q in np.linspace(0, 1, 25):
            cf = sg.fr_binary_closed_form(float(q))
            assert min(abs(cf - x) for x in binary_fr_maximizers(float(q))) < 1e-9

    def test_tie_region_has_two_maximizers_of_equal_value(self):
        q = 0.54
        maxi = binary_fr_maximizers(q)
        assert len(maxi) == 2
        phi = np.array([1 - q, q])
        m = sg.preparata_model()
        vals = [sg.fr_objective(phi, m, (), (g,)) for g in maxi]
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)
        # the closed form picks the lower branch
        assert sg.fr_binary_closed_form(q) == pytest.approx(min(maxi), abs=1e-12)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            sg.fr_binary_closed_form(-0.01)
        with pytest.raises(ValueError):
            sg.fr_binary_closed_form(1.01)


class TestProjectedGradient:
    def test_stationary_start_stops_immediately(self):
        q = 0.4
        problem = sg.fr_problem(np.array([1 - q, q]), sg.preparata_model())
        start = np.array([sg.fr_binary_closed_form(q)])
        res = sg.projected_gradient_solve(problem, start=start)
        assert res.converged and res.n_iters == 1
        np.testing.assert_allclose(res.z, start, atol=1e-15)

    def test_negative_tol_rejected(self):
        # a residual is never below a negative tol, so such a solve could
        # only end unconverged at the roundoff floor
        problem = sg.fr_problem(np.array([0.6, 0.4]), sg.preparata_model())
        start = problem.model.feasible.centroid()
        for tol in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                sg.projected_gradient_solve(problem, start, tol=tol)
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                sg.estimate(problem, tol=tol)
        assert sg.projected_gradient_solve(problem, start, tol=0.0).n_iters >= 1

    def test_degenerate_grid_and_iteration_counts_rejected(self):
        # an empty mesh would start every solve at the centroid, which for
        # social-ranking is the label-swap point gamma = 1/2
        problem = sg.fr_problem(np.array([0.6, 0.4]), sg.preparata_model())
        start = problem.model.feasible.centroid()
        for grid_points in (0, -3):
            with pytest.raises(ValueError, match="grid_points must be >= 1"):
                sg.estimate(problem, grid_points=grid_points)
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            sg.projected_gradient_solve(problem, start, max_iters=-1)
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            sg.estimate(problem, max_iters=-1)
        for bad in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="grid_points must be an integer"):
                sg.estimate(problem, grid_points=bad)
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                sg.estimate(problem, max_iters=bad)
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                sg.projected_gradient_solve(problem, start, max_iters=bad)
        assert sg.estimate(problem, grid_points=1).converged
        res = sg.projected_gradient_solve(problem, start, max_iters=0)
        assert res.n_iters == 0 and not res.converged

    def test_converges_to_closed_form(self):
        q = 0.4
        problem = sg.fr_problem(np.array([1 - q, q]), sg.preparata_model())
        res = sg.projected_gradient_solve(problem, problem.model.feasible.centroid(), tol=1e-12)
        assert res.converged
        assert res.z[0] == pytest.approx(sg.fr_binary_closed_form(q), abs=1e-6)

    def test_trace_monotone_for_minimization(self):
        rng = np.random.default_rng(43)
        model = sg.preparata_model()
        for _ in range(10):
            q = rng.uniform(0.05, 0.95)
            problem = sg.fr_problem(np.array([1 - q, q]), model)
            start = np.array([rng.uniform(0.05, 0.95)])
            res = sg.projected_gradient_solve(problem, start=start, max_iters=2000)
            values = res.trace[:, 1]
            assert np.all(np.diff(values) <= 1e-12)

    def test_infeasible_start_rejected(self):
        problem = sg.fr_problem(np.array([0.5, 0.5]), sg.preparata_model())
        with pytest.raises(InfeasibleError):
            sg.projected_gradient_solve(problem, start=np.array([1.4]))

    def test_iterates_stay_feasible(self):
        model = sg.social_ranking_model(3, 3)
        rng = np.random.default_rng(47)
        scored, theta, gamma = _instance(model, rng, n_agents=8, n_edges=26)
        counts = sg.aggregate_counts(scored)
        problem = sg.fr_problem(counts, model)
        res = sg.projected_gradient_solve(problem, model.feasible.centroid(), max_iters=500)
        for row in res.trace:
            assert model.feasible.contains(row[2:])

    def test_converged_solves_meet_the_residual_stop(self):
        rng = np.random.default_rng(71)
        tol = 1e-8
        n_converged = 0
        for model in ALL_MODELS:
            for _ in range(3):
                scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
                counts = sg.aggregate_counts(scored)
                for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
                    res = sg.projected_gradient_solve(problem, model.feasible.centroid(),
                                                      tol=tol, max_iters=5000,
                                                      record_trace=False)
                    if not res.converged:
                        continue
                    n_converged += 1
                    sign = -1.0 if problem.maximize else 1.0
                    step = model.feasible.project(res.z - sign * problem.gradient(res.z))
                    residual = np.max(np.abs(res.z - step))
                    assert res.residual == residual
                    assert residual <= tol * max(1.0, abs(res.objective))
        assert n_converged >= 20

    def test_a_solve_cut_by_max_iters_reports_the_residual_at_its_final_point(self):
        rng = np.random.default_rng(113)
        n_cut = 0
        for model in ALL_MODELS:
            scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
            counts = sg.aggregate_counts(scored)
            problems = [sg.nr_problem(counts, model), sg.fr_problem(counts, model)]
            if model.name == "preparata":
                problems.append(sg.exact_problem(scored, model))
            for problem in problems:
                for max_iters in (0, 1, 2):
                    res = sg.projected_gradient_solve(problem, model.feasible.centroid(),
                                                      tol=1e-8, max_iters=max_iters)
                    sign = -1.0 if problem.maximize else 1.0
                    step = model.feasible.project(res.z - sign * problem.gradient(res.z))
                    assert res.residual == float(np.max(np.abs(res.z - step)))
                    n_cut += not res.converged and res.n_iters == max_iters
        assert n_cut >= 20

    def test_a_solve_builds_one_nr_table_per_cost_evaluation(self, monkeypatch):
        counted = {"table": 0, "evaluate": 0, "gradient": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counted[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(estimators, "_nr_kept_table",
                            counting("table", estimators._nr_kept_table))
        for name in ("evaluate", "gradient"):
            monkeypatch.setattr(estimators.EstimatorProblem, name,
                                counting(name, getattr(estimators.EstimatorProblem, name)))
        rng = np.random.default_rng(131)
        n_iters = 0
        for model in ALL_MODELS:
            scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
            problem = sg.nr_problem(sg.aggregate_counts(scored), model)
            res = sg.projected_gradient_solve(problem, start=model.feasible.sample_interior(rng),
                                              tol=1e-8, max_iters=5000, record_trace=False)
            assert res.converged
            n_iters += res.n_iters
        # a Newton cost evaluation whose stencil values are all finite carries
        # its gradients, accepted or not: one per iteration, plus the one
        # rejected trial with a finite cost (in the reliability solve)
        assert counted["gradient"] == n_iters + 1 == 42
        assert counted["evaluate"] > n_iters
        assert counted["table"] == counted["evaluate"]

    def test_solver_gradients_from_kept_tables_equal_nr_gradient(self, monkeypatch):
        # the solver calls the kernel behind nr_gradient, with the problem's
        # constant rows [received^T; 1] and the table its cost evaluation kept
        seen, solving = [], {}
        kernel = estimators._nr_gradient

        def spy(rows, model, theta, gamma, table):
            grad = kernel(rows, model, theta, gamma, table)
            seen.append((grad, (solving["counts"], model, theta, gamma)))
            return grad

        monkeypatch.setattr(estimators, "_nr_gradient", spy)
        rng = np.random.default_rng(137)
        for model in ALL_MODELS:
            scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
            problem = sg.nr_problem(sg.aggregate_counts(scored), model)
            solving["counts"] = problem.data
            sg.estimate(problem, tol=1e-8, max_iters=5000, grid_points=9)
            z = model.feasible.sample_interior(rng)
            value, _ = problem.evaluate(z)
            assert value == sg.nr_objective(problem.data, model, *model.feasible.split(z))
        monkeypatch.undo()
        assert len(seen) > len(ALL_MODELS)
        for got, args in seen:
            np.testing.assert_array_equal(got, sg.nr_gradient(*args))

    def test_an_fr_solve_builds_one_edge_distribution_per_cost_evaluation(self, monkeypatch):
        counted = {"table": 0, "evaluate": 0, "gradient": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counted[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(estimators, "_edge_score_distribution",
                            counting("table", estimators._edge_score_distribution))
        for name in ("evaluate", "gradient"):
            monkeypatch.setattr(estimators.EstimatorProblem, name,
                                counting(name, getattr(estimators.EstimatorProblem, name)))
        rng = np.random.default_rng(139)
        n_iters = 0
        for model in ALL_MODELS:
            scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
            problem = sg.fr_problem(sg.aggregate_counts(scored), model)
            res = sg.projected_gradient_solve(problem, start=model.feasible.sample_interior(rng),
                                              tol=1e-8, max_iters=5000, record_trace=False)
            assert res.converged
            n_iters += res.n_iters
        # the cost is concave at gamma = 1/2, so the first step is the spectral one;
        # it lands on the infinite-cost bound gamma = 0 and is rejected, so this
        # solve also evaluates rejected points
        problem = sg.fr_problem(np.array([0.99, 0.01]), sg.preparata_model())
        res = sg.projected_gradient_solve(problem, start=np.array([0.5]), record_trace=False)
        assert res.converged
        n_iters += res.n_iters
        assert counted["gradient"] == n_iters
        assert counted["evaluate"] > n_iters
        assert counted["table"] == counted["evaluate"]

    def test_solver_gradients_from_kept_tables_equal_fr_gradient(self, monkeypatch):
        # the solver calls the kernel behind fr_gradient, on the phi fr_problem checked
        seen = []
        kernel = estimators._fr_gradient

        def spy(phi, model, theta, gamma, table=None):
            grad = kernel(phi, model, theta, gamma, table=table)
            seen.append((table is not None, grad, (phi, model, theta, gamma)))
            return grad

        monkeypatch.setattr(estimators, "_fr_gradient", spy)
        rng = np.random.default_rng(149)
        for model in ALL_MODELS:
            scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
            problem = sg.fr_problem(sg.aggregate_counts(scored), model)
            sg.estimate(problem, tol=1e-8, max_iters=5000, grid_points=9)
            z = model.feasible.sample_interior(rng)
            value, _ = problem.evaluate(z)
            assert value == sg.fr_objective(problem.data, model, *model.feasible.split(z))
        monkeypatch.undo()
        assert len(seen) > len(ALL_MODELS)
        for from_table, got, args in seen:
            assert from_table
            np.testing.assert_array_equal(got, sg.fr_gradient(*args))

    def test_armijo_trace_monotone_for_both_senses(self):
        # the box-only models take Newton steps, the simplex model spectral ones
        rng = np.random.default_rng(73)
        for model in (sg.reliability_model(5), sg.social_ranking_model(3, 3),
                      sg.categorical_model(2, 3)):
            scored, _, _ = _instance(model, rng, n_agents=10, n_edges=40)
            counts = sg.aggregate_counts(scored)
            for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
                start = model.feasible.sample_interior(rng)
                res = sg.projected_gradient_solve(problem, start=start, max_iters=2000)
                assert len(res.trace) > 2
                change = np.diff(res.trace[:, 1])
                assert np.all(change >= 0) if problem.maximize else np.all(change <= 0)

    def test_line_search_backs_off_an_infinite_boundary(self):
        # with few high scores the unit step from gamma = 1/2 overshoots to
        # gamma = 0, where the high score is impossible and the cost is +inf
        q = 0.01
        model = sg.preparata_model()
        phi = np.array([1 - q, q])
        problem = sg.fr_problem(phi, model)
        start = np.array([0.5])
        assert model.feasible.project(start - problem.gradient(start))[0] == 0.0
        assert sg.fr_objective(phi, model, (), (0.0,)) == np.inf
        res = sg.projected_gradient_solve(problem, start=start)
        assert res.converged
        assert res.z[0] == pytest.approx(sg.fr_binary_closed_form(q), abs=1e-9)

    def test_lipschitz_stepsize_reproducible(self):
        problem = sg.fr_problem(np.array([0.6, 0.4]), sg.preparata_model())
        a1 = estimators.lipschitz_stepsize(problem, rng=np.random.default_rng(5))
        a2 = estimators.lipschitz_stepsize(problem, rng=np.random.default_rng(5))
        assert a1 == a2 and 0 < a1 < np.inf


def _masked_newton_direction(z, grad, hess, lo, hi):
    """The projected Newton direction through masked copies of H and g, for any
    free set: the reference for the solver's all-free path."""
    free = ~(((z <= lo) & (grad > 0)) | ((z >= hi) & (grad < 0)))
    direction = -grad
    block = hess[np.ix_(free, free)]
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return None
    direction[free] = np.linalg.solve(block, direction[free])
    return direction



def _numpy_driver_reference(problem, start, max_iters=100000, tol=1e-9):
    """projected_gradient_solve as it ran on numpy arrays of z, with every
    per-coordinate step an array operation: the reference for the driver on
    Python floats.  Returns (z, objective, n_iters, converged, residual, trace)."""
    feas = problem.model.feasible
    z = np.asarray(start, dtype=np.float64).copy()
    sign = -1.0 if problem.maximize else 1.0
    lo, hi = feas.bounds
    dim = feas.dim
    newton = problem.kind != "exact" and feas.box_dims().size == dim

    def cost(v):
        if not newton:
            value, state = problem.evaluate(v)
            return sign * value, state
        h = estimators.HESSIAN_STEP * np.maximum(1.0, np.abs(v))
        points = np.empty((dim + 1, dim))
        points[0] = v
        stencil = np.add(v, 0.0, out=points[1:])
        stencil.reshape(-1)[::dim + 1] += np.where(v + h > hi, -h, h)
        values, state = problem.evaluate(points)
        return sign * float(values[0]), (points, values, state)

    def derivatives(v, kept):
        if not newton:
            return sign * problem.gradient(v, kept), None
        points, values, state = kept
        if not np.isfinite(values).all():
            return sign * problem.gradient(v, estimators._first_point(state)), None
        grads = sign * problem.gradient(points, state)
        if not np.isfinite(grads[1:]).all():
            return grads[0], None
        hess = (grads[1:] - grads[0]) / (points[1:].diagonal() - v)[:, None]
        return grads[0], 0.5 * (hess + hess.T)

    def backtrack(z, f, grad, direction, step, floor):
        while True:
            trial = z + step * direction
            z_new = feas.project(trial)
            if (trial == z).all() or (z_new == z).all():
                return None
            decrease = float(grad @ (z_new - z))
            if decrease <= 0:
                f_new, state = cost(z_new)
                if np.isfinite(f_new) and (f_new <= f + estimators.ARMIJO_DECREASE * decrease
                                           or -decrease < floor):
                    return z_new, f_new, step, state
            step *= 0.5
            floor = 0.0

    def residual_at(v, grad):
        return float(abs(v - feas.project(v - grad)).max())

    f, kept = cost(z)
    trace = [(0, sign * f, *z)]
    step, previous, converged, n_iters = 1.0, None, False, 0
    for it in range(max_iters):
        grad, hess = derivatives(z, kept)
        n_iters = it + 1
        residual = residual_at(z, grad)
        if residual <= tol * max(1.0, abs(f)):
            converged = True
            break
        if previous is not None:
            dz, dg = z - previous[0], grad - previous[1]
            curvature = float(dz @ dg)
            if curvature > 0:
                step = float(dz @ dz) / curvature
        direction = None if hess is None else _masked_newton_direction(z, grad, hess, lo, hi)
        found = None if direction is None else backtrack(z, f, grad, direction, 1.0,
                                                         floor=np.spacing(abs(f)))
        if found is None:
            found = backtrack(z, f, grad, -grad, step, floor=0.0)
            if found is None:
                break
            step = 2.0 * found[2]
        previous = (z, grad)
        z, f, _, kept = found
        trace.append((it + 1, sign * f, *z))
    else:
        residual = residual_at(z, derivatives(z, kept)[0])
    return z, sign * f, n_iters, converged, residual, np.asarray(trace, dtype=np.float64)

def _direction_1x1(g, h):
    """The solver's Newton direction on one free coordinate, or None."""
    return estimators._newton_direction([0.5], [g], [[h]], [0.0], [1.0])


def _lapack_direction_1x1(g, h):
    """The same through np.linalg, as the solver took it before: None where
    the Cholesky factorization fails, else LAPACK's solve of h d = -g."""
    if not _cholesky_succeeds([[h]]):
        return None
    return np.linalg.solve(np.array([[h]]), np.array([-g])).tolist()


def _interior_direction(hess):
    """The projected Newton direction at the centre of the unit box, where
    every coordinate is free, for the gradient 1."""
    n = len(hess)
    return estimators._newton_direction([0.5] * n, [1.0] * n, hess, [0.0] * n, [1.0] * n)


def _check_newton_block(hess):
    """Check _interior_direction on one block against LAPACK: None where
    np.linalg.cholesky raises, else np.linalg.solve's direction, or None
    where that solve finds the block singular.  Returns which it was: False,
    True or "singular"."""
    got = _interior_direction(hess)
    if not _cholesky_succeeds(hess):
        assert got is None, hess
        return False
    try:
        want = np.linalg.solve(np.array(hess), -np.ones(len(hess)))
    except np.linalg.LinAlgError:
        assert got is None, hess
        return "singular"
    assert _same_bits(np.array(got), want), hess
    return True


def _cholesky_succeeds(a) -> bool:
    try:
        np.linalg.cholesky(np.array(a, dtype=float))
    except np.linalg.LinAlgError:
        return False
    return True


def _sweep_counts(model, theta, gamma, n_edges, trial, master_seed=0, n_agents=50):
    """The counts of one sweep trial, drawn from its (master_seed, n_edges, trial) stream."""
    rng = np.random.default_rng([master_seed, n_edges, trial])
    g = sg.sample_score_graph(n_agents, n_edges, "cyclic-plus-random-edges", rng)
    scored, _ = sg.generate_scores(g, model, theta, gamma, rng)
    return sg.aggregate_counts(scored)


def _ranking_counts(n_edges, trial):
    """A trial of the criterion 8 sweep: social-ranking C = R = 3, theta 0.5, gamma 0.3."""
    return _sweep_counts(sg.social_ranking_model(3, 3), (0.5,), (0.3,), n_edges, trial)


def _cost_hessian(problem, z, h=1e-6):
    """Symmetrized forward-difference Hessian of the cost (the negated objective
    when maximized) at an interior z."""
    sign = -1.0 if problem.maximize else 1.0
    grads = sign * problem.gradient(np.vstack([z, z + h * np.eye(z.size)]))
    hess = (grads[1:] - grads[0]) / h
    return 0.5 * (hess + hess.T)


class TestProjectedNewton:
    @pytest.mark.parametrize("model_name, n_edges, trial, kind", [
        ("social-ranking", 50, 4, "fr"),
        ("social-ranking", 50, 58, "nr"),
        ("social-ranking", 50, 65, "fr"),
        ("reliability", 500, 34, "fr"),
    ])
    def test_sweep_solves_that_stalled_at_the_roundoff_floor_converge(
            self, model_name, n_edges, trial, kind):
        # criteria 7 and 8: spectral steps alone ended these solves with the
        # residual just above tol, where the Armijo test cannot see a decrease
        if model_name == "reliability":
            model = sg.reliability_model(5)
            counts = _sweep_counts(model, (), (0.3,), n_edges, trial)
        else:
            model = sg.social_ranking_model(3, 3)
            counts = _ranking_counts(n_edges, trial)
        problem = sg.nr_problem(counts, model) if kind == "nr" else sg.fr_problem(counts, model)
        res = sg.estimate(problem, grid_points=33, tol=1e-8, max_iters=5000)
        assert res.converged
        assert res.residual <= 1e-8 * max(1.0, abs(res.objective))

    def test_two_parameter_ranking_solves_take_few_iterations(self):
        counts = _ranking_counts(500, 0)
        model = sg.social_ranking_model(3, 3)
        for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
            res = sg.estimate(problem, grid_points=33, tol=1e-8, max_iters=5000)
            assert res.converged and res.n_iters <= 15, (problem.kind, res.n_iters)

    def test_a_start_with_an_indefinite_hessian_gives_a_monotone_trace(self):
        model = sg.social_ranking_model(3, 3)
        counts = _ranking_counts(500, 0)
        start = np.array([1.5, 0.25])
        for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
            assert np.linalg.eigvalsh(_cost_hessian(problem, start)).max() < 0
            res = sg.projected_gradient_solve(problem, start=start, tol=1e-8)
            assert res.converged
            change = np.diff(res.trace[:, 1])
            assert np.all(change >= 0) if problem.maximize else np.all(change <= 0)

    def test_a_non_finite_stencil_row_falls_back_without_another_evaluation(self, monkeypatch):
        # every stencil gets a non-finite neighbour row, so each step is the
        # spectral one, from the gradient of row 0's slice of the kept table;
        # the reliability tensor has no stack axis, the ranking tensor has one
        evaluate, gradient = estimators.EstimatorProblem.evaluate, estimators.EstimatorProblem.gradient
        shapes, evaluated = [], []

        def spoiled(self, z):
            evaluated.append(np.ndim(z))
            values, state = evaluate(self, z)
            if np.ndim(z) == 2:
                values = values.copy()
                values[1] = np.inf
            return values, state

        def recorded(self, z, state=None):
            shapes.append(np.shape(z))
            return gradient(self, z, state)

        monkeypatch.setattr(estimators.EstimatorProblem, "evaluate", spoiled)
        monkeypatch.setattr(estimators.EstimatorProblem, "gradient", recorded)
        rng = np.random.default_rng(173)
        for model in (sg.reliability_model(5), sg.social_ranking_model(3, 3)):
            scored, _, _ = _instance(model, rng, n_agents=10, n_edges=40)
            problem = sg.fr_problem(sg.aggregate_counts(scored), model)
            shapes.clear()
            evaluated.clear()
            res = sg.projected_gradient_solve(problem, start=model.feasible.sample_interior(rng),
                                              tol=1e-8, max_iters=2000)
            assert res.converged and res.n_iters > 2
            assert shapes == [(model.feasible.dim,)] * res.n_iters
            assert set(evaluated) == {2}     # no point is evaluated again on its own
            grad = gradient(problem, res.z)
            assert res.residual == np.max(np.abs(res.z - model.feasible.project(res.z - grad)))

    def test_a_newton_step_below_the_roundoff_floor_is_taken_at_once(self, monkeypatch):
        # near the minimizer gamma = 0.0066966 the Newton step predicts a decrease
        # of about 1e-20, below ulp(f) = 7e-18, so rounding decides the Armijo
        # test there; halving that step until z stopped moving took 27 evaluations
        evaluate = estimators.EstimatorProblem.evaluate
        evaluated = []

        def counted(self, z):
            evaluated.append(np.shape(z))
            return evaluate(self, z)

        monkeypatch.setattr(estimators.EstimatorProblem, "evaluate", counted)
        problem = sg.fr_problem(np.array([0.99, 0.01]), sg.preparata_model())
        res = sg.projected_gradient_solve(problem, start=np.array([0.5]), tol=1e-9)
        assert res.converged
        assert len(evaluated) <= 2 * res.n_iters
        assert abs(res.z[0] - sg.fr_binary_closed_form(0.01)) <= 1e-9

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_the_all_free_newton_direction_equals_the_masked_one(self, dim):
        # with every coordinate free, H and -g go to LAPACK without the masked
        # copies: the same bits, or the same None, as the masked path
        rng = np.random.default_rng(181 + dim)
        lo, hi = np.zeros(dim), np.ones(dim)
        seen = set()
        for _ in range(300):
            a = rng.normal(size=(dim, dim))
            spd = rng.random() < 0.5
            hess = a @ a.T + 0.1 * np.eye(dim) if spd else 0.5 * (a + a.T)
            z, grad = rng.uniform(lo, hi), rng.normal(size=dim)
            active = rng.random() < 0.3
            if active:     # a coordinate on a bound whose gradient pushes outward
                k = rng.integers(dim)
                at_lo = rng.random() < 0.5
                z[k], grad[k] = (lo[k], abs(grad[k])) if at_lo else (hi[k], -abs(grad[k]))
            got = estimators._newton_direction(z, grad, hess, lo, hi)
            want = _masked_newton_direction(z, grad, hess, lo, hi)
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)
            seen.add((active, want is None))
        # all-free and active cases, each solved and not positive definite; at
        # dim 1 an active coordinate leaves an empty H_FF, which always solves
        expected = {(False, False), (False, True), (True, False)}
        assert seen == (expected | {(True, True)} if dim > 1 else expected)

    def test_a_trial_point_equal_to_the_one_just_rejected_is_not_evaluated_again(
            self, monkeypatch):
        # criterion 8, trial 0, n = 2,450, NR: the first spectral arc projects
        # onto the corner (0.05, 0) for seven halvings in a row, and each
        # evaluation of that same stencil after the first was rejected again
        problem = sg.nr_problem(_ranking_counts(2450, 0), sg.social_ranking_model(3, 3))
        steps = estimators._estimate_steps(problem, 33, 5000, 1e-8, True)
        requests, answer = [], None
        try:
            while True:
                requests.append(steps.send(answer))
                answer = estimators._answer(problem, requests[-1])
        except StopIteration as stop:
            res = stop.value
        # each cost evaluation carries its gradients, so the 11 iterations ask
        # for no gradient: 16 evaluations, then the mirror's
        assert len(requests) == 17
        assert [op for op, _, _ in requests] == ["evaluate+gradient"] * 16 + ["evaluate"]
        assert res.z[1] <= 0.5         # estimate kept the solve's z, after the mirror check
        evaluate = estimators.EstimatorProblem.evaluate
        evaluated = []

        def counted(self, z):
            evaluated.append(np.asarray(z).copy())
            return evaluate(self, z)

        monkeypatch.setattr(estimators.EstimatorProblem, "evaluate", counted)
        want = _numpy_driver_reference(problem, res.trace[0, 2:], max_iters=5000, tol=1e-8)
        # the driver without the skip evaluates the corner stencil seven times
        solve_evaluations = sum(op == "evaluate+gradient" for op, _, _ in requests)
        assert len(evaluated) == solve_evaluations + 6
        corner = [k for k, z in enumerate(evaluated) if np.array_equal(z[0], [0.05, 0.0])]
        assert len(corner) == 7 and corner == list(range(corner[0], corner[0] + 7))
        got = (res.z, res.objective, res.n_iters, res.converged, res.residual, res.trace)
        for name, a, b in zip(("z", "objective", "n_iters", "converged", "residual", "trace"),
                              got, want):
            assert type(a) is type(b) and _same_bits(a, b), name

    @pytest.mark.parametrize("case", ["reliability solve", "ranking estimate"])
    def test_one_request_per_newton_iteration_and_per_rejected_trial(self, case, monkeypatch):
        # criterion 7, n = 2,450, trial 4, NR from its grid start; criterion 8,
        # n = 500, trial 3, FR: both reject trial points on the way
        if case == "reliability solve":
            model = sg.reliability_model(5)
            problem = sg.nr_problem(_sweep_counts(model, (), (0.3,), 2450, 4), model)
            start = estimators._grid_start(problem, 33)
            steps = estimators._solve_steps(problem, start, 5000, 1e-8, True)
        else:
            problem = sg.fr_problem(_ranking_counts(500, 3), sg.social_ranking_model(3, 3))
            steps = estimators._estimate_steps(problem, 33, 5000, 1e-8, True)
        requests, answer = [], None
        try:
            while True:
                requests.append(steps.send(answer))
                answer = estimators._answer(problem, requests[-1])
        except StopIteration as stop:
            res = stop.value
        evaluate = estimators.EstimatorProblem.evaluate
        evaluated = []

        def counted(self, z):
            evaluated.append(np.asarray(z).copy())
            return evaluate(self, z)

        monkeypatch.setattr(estimators.EstimatorProblem, "evaluate", counted)
        want = _numpy_driver_reference(problem, res.trace[0, 2:], max_iters=5000, tol=1e-8)
        # the reference evaluates the start, each accepted point (a trace row
        # after the first) and each rejected trial, and asks for a gradient
        # per iteration; the coroutine asks for the evaluations alone
        rejected = len(evaluated) - len(res.trace)
        assert rejected > 0
        mirror = ["evaluate"] if case == "ranking estimate" else []
        assert [op for op, _, _ in requests] == ["evaluate+gradient"] * (
            1 + (len(res.trace) - 1) + rejected) + mirror
        got = (res.z, res.objective, res.n_iters, res.converged, res.residual, res.trace)
        for name, a, b in zip(("z", "objective", "n_iters", "converged", "residual", "trace"),
                              got, want):
            assert type(a) is type(b) and _same_bits(a, b), name

    def test_a_one_by_one_newton_system_has_the_bits_of_lapack(self):
        rng = np.random.default_rng(191)
        size = 20000
        grad = rng.standard_normal(size) * 10.0 ** rng.uniform(-30, 30, size)
        hess = rng.standard_normal(size) * 10.0 ** rng.uniform(-30, 30, size)
        special = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 1.7e308]
        pairs = list(zip(grad.tolist(), hess.tolist()))
        pairs += [(g, h) for g in (1.0, -3.5e300, 2e-300) for h in special]
        for g, h in pairs:
            assert _same_bits(np.array(_direction_1x1(g, h), dtype=float),
                              np.array(_lapack_direction_1x1(g, h), dtype=float)), (g, h)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False))
    def test_a_one_by_one_newton_system_has_the_bits_of_lapack_everywhere(self, g, h):
        assert _same_bits(np.array(_direction_1x1(g, h), dtype=float),
                          np.array(_lapack_direction_1x1(g, h), dtype=float))

    def test_a_newton_block_is_positive_definite_where_cholesky_factors_it(self):
        rng = np.random.default_rng(193)
        seen = {True: 0, False: 0, "singular": 0}
        for k in range(20000):
            a00, a10, a11 = rng.standard_normal(3) * 10.0 ** rng.uniform(-6, 6, 3)
            if k % 3 == 0:
                a00 = abs(a00)
                # within rounding of singular: a11 at the square of the scaled
                # column entry, moved by at most a few ulps
                low = a10 * (1.0 / math.sqrt(a00))
                a11 = low * low + int(rng.integers(-3, 4)) * math.ulp(low * low)
            a = [[a00, a10], [a10, a11]]
            seen[_check_newton_block(a)] += 1
        assert seen[False] > 3000 and seen[True] > 3000 and seen["singular"] > 300
        for k in range(2000):
            m = rng.standard_normal((3, 3))
            a = (m @ m.T if k % 2 else 0.5 * (m + m.T)).tolist()
            _check_newton_block(a)

    def test_a_nan_hessian_gives_no_newton_direction(self):
        # np.linalg.cholesky lets a NaN pivot through and its solve returns a
        # NaN direction; the solver takes the spectral step instead
        for a in ([[np.nan]], [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]],
                  [[1.0, 0.0], [0.0, np.nan]]):
            assert _cholesky_succeeds(a)
            assert _interior_direction(a) is None

    def test_a_coordinate_on_a_bound_with_an_outward_gradient_stays_there(self):
        # with gamma = 0 in the data the NR optimum lies on the bound gamma = 0
        model = sg.social_ranking_model(3, 3)
        rng = np.random.default_rng(5)
        g = sg.sample_score_graph(50, 500, "cyclic-plus-random-edges", rng)
        scored, _ = sg.generate_scores(g, model, (0.5,), (0.0,), rng)
        problem = sg.nr_problem(sg.aggregate_counts(scored), model)
        start = np.array([2.0, 0.0])
        assert -problem.gradient(start)[1] > 0      # the cost pushes gamma below 0
        res = sg.projected_gradient_solve(problem, start=start, tol=1e-8)
        assert res.converged and res.z[0] != start[0]
        assert np.all(res.trace[:, 3] == 0.0)


    def test_the_float_driver_has_the_bits_of_the_numpy_driver(self):
        def check(problem, start, **kwargs):
            res = sg.projected_gradient_solve(problem, start, **kwargs)
            want = _numpy_driver_reference(problem, start, **kwargs)
            got = (res.z, res.objective, res.n_iters, res.converged, res.residual, res.trace)
            for name, a, b in zip(("z", "objective", "n_iters", "converged", "residual",
                                   "trace"), got, want):
                assert type(a) is type(b) and _same_bits(a, b), (problem.kind, name)
            return res

        # the trial-0 instances of criteria 7 and 8, from their grid starts
        for model, theta in ((sg.reliability_model(5), ()), (sg.social_ranking_model(3, 3), (0.5,))):
            for n_edges in (50, 500, 2450):
                counts = _sweep_counts(model, theta, (0.3,), n_edges, 0)
                for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
                    start = estimators._grid_start(problem, 33)
                    check(problem, start, tol=1e-8, max_iters=5000)
                    # capped solves, which measure the residual after the last step
                    for cap in (0, 2):
                        assert not check(problem, start, tol=1e-8, max_iters=cap).converged
        # starts on a bound: gamma = 0 with an outward gradient, and gamma = 1
        ranking = sg.social_ranking_model(3, 3)
        counts = _sweep_counts(ranking, (0.5,), (0.0,), 500, 5)
        check(sg.nr_problem(counts, ranking), np.array([2.0, 0.0]), tol=1e-8)
        reliability = sg.reliability_model(5)
        counts = _sweep_counts(reliability, (), (0.3,), 500, 1)
        for problem in (sg.nr_problem(counts, reliability), sg.fr_problem(counts, reliability)):
            check(problem, np.array([1.0]), tol=1e-8)
        # spectral steps: a categorical (simplex) model and the exact objective
        rng = np.random.default_rng(73)
        categorical = sg.categorical_model(2, 3)
        scored, _, _ = _instance(categorical, rng, n_agents=10, n_edges=40)
        counts = sg.aggregate_counts(scored)
        for problem in (sg.nr_problem(counts, categorical), sg.fr_problem(counts, categorical)):
            start = categorical.feasible.sample_interior(rng)
            assert check(problem, start, max_iters=300).n_iters > 10
        preparata = sg.preparata_model()
        scored, _, _ = _instance(preparata, rng)
        check(sg.exact_problem(scored, preparata), np.array([0.5]))

class TestEstimateWrapper:
    def test_boundary_prior_recovered_exactly(self):
        rng = np.random.default_rng(51)
        model = sg.preparata_model()
        g = sg.sample_score_graph(8, 30, "cyclic-plus-random-edges", rng)
        scored, _ = sg.generate_scores(g, model, (), (0.0,), rng)
        counts = sg.aggregate_counts(scored)
        res = sg.estimate(sg.nr_problem(counts, model))
        assert res.gamma[0] == 0.0

    def test_grid_init_finds_global_branch(self):
        # two tied global minimizers: the solver must land on one of them
        q = 0.54
        problem = sg.fr_problem(np.array([1 - q, q]), sg.preparata_model())
        res = sg.estimate(problem, tol=1e-12, grid_points=33)
        maxi = binary_fr_maximizers(q)
        assert min(abs(res.gamma[0] - x) for x in maxi) < 1e-6

    def test_canonical_branch_is_low_gamma(self):
        rng = np.random.default_rng(53)
        model = sg.social_ranking_model(3, 3)
        scored, _, _ = _instance(model, rng, n_agents=10, n_edges=40)
        counts = sg.aggregate_counts(scored)
        res = sg.estimate(sg.fr_problem(counts, model), tol=1e-10)
        assert res.gamma[0] <= 0.5 + 1e-12
        a = sg.fr_objective(counts.phi, model, res.theta, res.gamma)
        b = sg.fr_objective(counts.phi, model, res.theta, 1.0 - res.gamma)
        assert a == pytest.approx(b, abs=1e-9)

    def test_exact_estimator_on_tiny_instance(self):
        rng = np.random.default_rng(59)
        model = sg.preparata_model()
        g = sg.sample_score_graph(5, 12, "cyclic-plus-random-edges", rng)
        scored, _ = sg.generate_scores(g, model, (), (0.25,), rng)
        problem = sg.exact_problem(scored, model)
        res = sg.estimate(problem, tol=1e-10, grid_points=21)
        # the exact likelihood at the estimate beats a coarse scan
        best_grid = max(sg.exact_loglikelihood(scored, model, (), (gv,))
                        for gv in np.linspace(0, 1, 41))
        assert res.objective >= best_grid - 1e-9

    def test_exact_gradient_is_one_sided_at_a_box_bound(self):
        # the grid start lands on gamma = 0; a central difference there
        # evaluates gamma = -1e-6, where the prior log is NaN
        result = run_single(ExperimentConfig(model="reliability", n_agents=8, sweep=(20,),
                                             trials=1, estimators=("exact",)))
        model = build_model(result.config)
        z = result.estimates["exact"]
        assert np.all(np.isfinite(z)) and model.feasible.contains(z)
        assert np.isfinite(result.details["exact"].objective)
        problem = sg.exact_problem(result.graph, model)
        f = lambda g: problem.evaluate(np.array([g]))[0]
        step = 1e-6
        assert problem.gradient(np.array([0.0]))[0] == (f(step) - f(0.0)) / step
        assert problem.gradient(np.array([1.0]))[0] == (f(1.0) - f(1.0 - step)) / step
        # interior points keep the central difference, bit for bit
        assert problem.gradient(np.array([0.3]))[0] == (f(0.3 + step) - f(0.3 - step)) / (2 * step)

    def test_relaxations_coincide_on_a_pure_cycle(self):
        # in-degree 1 everywhere and no mutual pairs: the per-node
        # log-sum collapses and the two relaxed objectives agree up to
        # the -1/n scaling
        rng = np.random.default_rng(61)
        model = sg.social_ranking_model(3, 3)
        g = sg.sample_score_graph(9, 9, "cyclic-plus-random-edges", rng)
        z0 = model.feasible.sample_interior(rng)
        theta, gamma = model.feasible.split(z0)
        scored, _ = sg.generate_scores(g, model, theta, gamma, rng)
        counts = sg.aggregate_counts(scored)
        assert counts.mutual.sum() == 0
        for _ in range(5):
            z = model.feasible.sample_interior(rng)
            th, ga = model.feasible.split(z)
            nr = sg.nr_objective(counts, model, th, ga)
            fr = sg.fr_objective(counts.phi, model, th, ga)
            assert nr == pytest.approx(-scored.n_edges * fr, abs=1e-10)

    def test_estimate_never_samples_lipschitz(self, monkeypatch):
        calls = []
        monkeypatch.setattr(estimators, "lipschitz_stepsize",
                            lambda *a, **k: calls.append(a) or 1.0)
        rng = np.random.default_rng(79)
        model = sg.preparata_model()
        scored, _, _ = _instance(model, rng, n_agents=6, n_edges=14)
        counts = sg.aggregate_counts(scored)
        for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model),
                        sg.exact_problem(scored, model)):
            sg.estimate(problem)
        assert calls == []

    def test_label_swap_start_is_off_the_symmetry_line(self):
        # from a start on gamma = 1/2 FR stopped there, at (0.4013, 0.5),
        # above the cost of the off-line optimum near (0.503, 0.272)
        model = sg.social_ranking_model(3, 3)
        rng = np.random.default_rng([0, 500, 0])
        g = sg.sample_score_graph(50, 500, "cyclic-plus-random-edges", rng)
        scored, _ = sg.generate_scores(g, model, (0.5,), (0.3,), rng)
        counts = sg.aggregate_counts(scored)
        res = sg.estimate(sg.fr_problem(counts, model),
                          tol=1e-8, max_iters=5000, grid_points=33)
        assert abs(res.gamma[0] - 0.5) > 1e-6
        grid = [sg.fr_objective(counts.phi, model, (th,), (ga,))
                for th in np.linspace(*THETA_BOX, 33) for ga in np.linspace(0, 1, 33)]
        assert res.objective <= min(grid)

    def test_symmetric_estimate_is_the_solve_at_the_canonical_z(self, monkeypatch):
        model = sg.social_ranking_model(3, 3)
        rng = np.random.default_rng(131)
        g = sg.sample_score_graph(20, 120, "cyclic-plus-random-edges", rng)
        scored, _ = sg.generate_scores(g, model, (0.5,), (0.3,), rng)
        problem = sg.nr_problem(sg.aggregate_counts(scored), model)
        grid_start = estimators._grid_start(problem, 21)
        res = sg.estimate(problem, tol=1e-10, record_trace=True)
        raw = sg.projected_gradient_solve(problem, start=grid_start, tol=1e-10)
        assert raw.gamma[0] < 0.5
        np.testing.assert_array_equal(res.z, raw.z)
        # started from the mirror of the grid start, the solve ends above 1/2
        mirror_start = np.array([grid_start[0], 1.0 - grid_start[1]])
        monkeypatch.setattr(estimators, "_grid_start", lambda problem, points: mirror_start)
        res = sg.estimate(problem, tol=1e-10, record_trace=True)
        raw = sg.projected_gradient_solve(problem, start=mirror_start, tol=1e-10)
        assert raw.gamma[0] > 0.5
        for name in ("n_iters", "converged", "residual", "objective"):
            assert getattr(res, name) == getattr(raw, name)
        np.testing.assert_array_equal(res.trace, raw.trace)
        np.testing.assert_array_equal(res.z, [raw.z[0], 1.0 - raw.z[1]])
        np.testing.assert_array_equal(res.theta, raw.theta)
        np.testing.assert_array_equal(res.gamma, 1.0 - raw.gamma)

    def test_label_swap_symmetry_is_checked_on_the_objective(self):
        # relabeling the evaluator's states 0 and 1 breaks the reversal
        # symmetry of the tensor, while the model still declares it
        base = sg.social_ranking_model(3, 3)
        swap = [1, 0, 2]
        model = replace(base,
                        tensor_fn=lambda theta: base.tensor_fn(theta)[..., swap, :],
                        tensor_grad_fn=lambda theta, tensor: base.tensor_grad_fn(
                            theta, tensor[..., swap, :])[..., swap, :])
        assert model.label_swap_symmetric
        rng = np.random.default_rng(138)
        g = sg.sample_score_graph(20, 120, "cyclic-plus-random-edges", rng)
        scored, _ = sg.generate_scores(g, model, (0.5,), (0.2,), rng)
        with pytest.raises(AssertionError, match="label-swap symmetry violated"):
            sg.estimate(sg.nr_problem(sg.aggregate_counts(scored), model))


def test_trace_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(model="social-ranking", n_agents=8, sweep=(26,), trials=1,
                           estimators=("FR",), master_seed=67, solver_max_iters=200)
    single = run_single(cfg)
    sg.emit_single_outputs(single, tmp_path)
    trace = single.details["FR"].trace
    path = tmp_path / "trace_FR.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,objective,theta_1,gamma_1"
    assert len(lines) == 1 + len(trace)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == trace[0, 1]
    np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2),
                                  trace)


def _stack_points(model, rng, n_points=24):
    """Interior points plus, for scalar-gamma models, gamma = 0 and gamma = 1 rows."""
    points = np.array([model.feasible.sample_interior(rng, 0.0) for _ in range(n_points)])
    if model.gamma_dim == 1:
        points[:4, -1] = 0.0
        points[4:8, -1] = 1.0
    return points


def _grid_start_reference(problem, grid_points, remap=lambda v: v):
    """Per-point mesh scan in C order: the first best finite value, else the
    centroid; each objective value passes through `remap` first."""
    model = problem.model
    feas = model.feasible
    center = feas.centroid()
    box_idx, box_lo, box_hi, start = [], [], [], 0
    for b in feas.blocks:
        if isinstance(b, sg.Box):
            box_idx += range(start, start + b.dim)
            box_lo += list(b.lo)
            box_hi += list(b.hi)
        start += b.dim
    if len(box_idx) == 0 or len(box_idx) > 3:
        return center
    swap_gamma = (model.theta_dim if model.label_swap_symmetric and model.gamma_dim == 1
                  else None)
    axes = []
    for k, b_lo, b_hi in zip(box_idx, box_lo, box_hi):
        axis = np.linspace(b_lo, b_hi, grid_points)
        axes.append(axis[axis < 0.5] if k == swap_gamma else axis)
    best_value, best_z = None, center
    for combo in itertools.product(*axes):
        z = center.copy()
        z[box_idx] = combo
        value = remap(np.asarray(problem.evaluate(z)[0]))
        if not np.isfinite(value):
            continue
        score = value if problem.maximize else -value
        if best_value is None or score > best_value:
            best_value, best_z = score, z
    return best_z


@contextlib.contextmanager
def _remapped_grid_values(remap):
    """The grid start's mesh values pass through `remap` inside the block."""
    grid_values = estimators._grid_values

    def remapped(problem, grid_points):
        mesh = grid_values(problem, grid_points)
        return None if mesh is None else (mesh[0], remap(mesh[1]))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_grid_values", remapped)
        yield


def _recording(calls, fn):
    """fn, recording the shape of its second argument (a mesh block) per call."""
    def wrapper(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return fn(*args, **kwargs)
    return wrapper


class TestStackedEvaluation:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_stacked_objectives_equal_per_point_calls(self, model):
        rng = np.random.default_rng(83)
        scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
        counts = sg.aggregate_counts(scored)
        points = _stack_points(model, rng).reshape(4, 6, -1)
        objectives = {
            "nr": lambda z: sg.nr_objective(counts, model, *model.feasible.split(z)),
            "fr": lambda z: sg.fr_objective(counts.phi, model, *model.feasible.split(z)),
        }
        for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
            objective = objectives[problem.kind]
            per_point = np.array([[objective(z) for z in row] for row in points])
            assert all(isinstance(v, float) for v in per_point.ravel().tolist())
            stacked = objective(points)
            assert stacked.shape == (4, 6)
            np.testing.assert_array_equal(stacked, per_point)
            np.testing.assert_array_equal(problem.evaluate(points)[0], per_point)
            if model.name == "preparata":
                # gamma = 0 makes the mixed scores impossible: -inf (NR), +inf (FR)
                assert np.isinf(per_point).any() and np.isfinite(per_point).any()

    def test_stacked_exact_objective_loops_over_rows(self):
        rng = np.random.default_rng(89)
        model = sg.preparata_model()
        scored, _, _ = _instance(model, rng, n_agents=5, n_edges=12)
        problem = sg.exact_problem(scored, model)
        points = _stack_points(model, rng, n_points=12).reshape(3, 4, 1)
        per_point = np.array([[sg.exact_loglikelihood(scored, model, *model.feasible.split(z))
                               for z in row] for row in points])
        assert np.isinf(per_point).any() and np.isfinite(per_point).any()
        np.testing.assert_array_equal(problem.evaluate(points)[0], per_point)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_validate_checks_every_row_of_a_stack(self, model):
        # every public entry point checks theta and gamma, row by row
        rng = np.random.default_rng(97)
        scored, _, _ = _instance(model, rng)
        counts = sg.aggregate_counts(scored)
        good = _stack_points(model, rng, n_points=5)
        entry_points = [
            lambda th, ga: sg.nr_objective(counts, model, th, ga),
            lambda th, ga: sg.fr_objective(counts.phi, model, th, ga),
            lambda th, ga: sg.exact_loglikelihood(scored, model, th, ga),
            lambda th, ga: sg.soft_classify(counts, model, th, ga),
            lambda th, ga: sg.generate_scores(scored, model, th, ga, rng),
        ]
        # one bad row: a theta coordinate below its box or simplex, or a
        # gamma above its box or off its simplex
        for part, k, bad in (("theta", 0, -1.0), ("gamma", -1, 1.2)):
            if part == "theta" and not model.theta_dim:
                continue
            points = good.copy()
            points[3, k] = bad
            for z in (points, points[3]):     # the stack, and the bad row alone
                theta, gamma = model.feasible.split(z)
                for call in entry_points:
                    with pytest.raises(InfeasibleError, match=part):
                        call(theta, gamma)

    def _problems(self):
        rng = np.random.default_rng(101)
        out = []
        for model in (sg.reliability_model(5), sg.social_ranking_model(3, 3),
                      sg.categorical_model(2, 3)):
            scored, _, _ = _instance(model, rng, n_agents=10, n_edges=40)
            counts = sg.aggregate_counts(scored)
            out += [sg.nr_problem(counts, model), sg.fr_problem(counts, model)]
        model = sg.preparata_model()
        scored, _, _ = _instance(model, rng, n_agents=6, n_edges=16)
        return out + [sg.exact_problem(scored, model)]

    @pytest.mark.parametrize("grid_points", [9, 33])
    def test_grid_start_matches_the_per_point_scan(self, grid_points):
        for problem in self._problems():
            start = estimators._grid_start(problem, grid_points)
            np.testing.assert_array_equal(start, _grid_start_reference(problem, grid_points))

    def test_grid_start_evaluates_the_mesh_in_blocks(self, monkeypatch):
        nr_calls, fr_calls = [], []
        monkeypatch.setattr(estimators, "_nr_data_half",
                            _recording(nr_calls, estimators._nr_data_half))
        monkeypatch.setattr(estimators, "_fr_data_half",
                            _recording(fr_calls, estimators._fr_data_half))
        model = sg.social_ranking_model(3, 3)
        scored, _, _ = _instance(model, np.random.default_rng(103), n_agents=10, n_edges=40)
        counts = sg.aggregate_counts(scored)
        assert len(np.unique(counts.received, axis=0)) == 10
        problem = sg.nr_problem(counts, model)
        start = estimators._grid_start(problem, 33)
        # the label-swap half mesh, 33 theta values by the 16 gamma values below
        # 1/2: 528 points in C order, 64 per call on all 10 received rows
        assert estimators.GRID_BLOCK == 64
        assert nr_calls == [(64, 3, 3)] * 8 + [(16, 3, 3)]
        assert start[1] < 0.5
        np.testing.assert_array_equal(start, _grid_start_reference(problem, 33))
        # on the cycle alone every agent receives one score: 3 distinct rows
        # of 10, so a call takes 64 * min(C, 10 // 3) = 192 points, which
        # bounds both the (192, 3, 3) table and the (192, 10) gather
        scored, _, _ = _instance(model, np.random.default_rng(103), n_agents=10, n_edges=10)
        problem = sg.nr_problem(sg.aggregate_counts(scored), model)
        nr_calls.clear()
        start = estimators._grid_start(problem, 33)
        assert nr_calls == [(192, 3, 3)] * 2 + [(144, 3, 3)]
        np.testing.assert_array_equal(start, _grid_start_reference(problem, 33))
        # 5 distinct rows of 10 (10 // 5 = 2 < C): 128 points per call
        histograms = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]])
        problem = sg.nr_problem(replace(sg.aggregate_counts(scored),
                                        received=histograms[np.arange(10) % 5]), model)
        nr_calls.clear()
        start = estimators._grid_start(problem, 33)
        assert nr_calls == [(128, 3, 3)] * 4 + [(16, 3, 3)]
        np.testing.assert_array_equal(start, _grid_start_reference(problem, 33))
        # FR evaluates the whole mesh in one call: 33 points on a
        # one-dimensional mesh, 528 on the half mesh
        for model, points in ((sg.reliability_model(5), 33), (model, 528)):
            scored, _, _ = _instance(model, np.random.default_rng(109), n_agents=10,
                                     n_edges=40)
            problem = sg.fr_problem(sg.aggregate_counts(scored), model)
            fr_calls.clear()
            start = estimators._grid_start(problem, 33)
            assert fr_calls == [(points, model.n_scores)]
            np.testing.assert_array_equal(start, _grid_start_reference(problem, 33))

    def test_grid_start_ties_go_to_the_first_mesh_point(self):
        for problem in self._problems():
            for remap in (np.zeros_like, lambda v: np.floor(v / 5.0)):
                with _remapped_grid_values(remap):
                    start = estimators._grid_start(problem, 9)
                np.testing.assert_array_equal(start, _grid_start_reference(problem, 9, remap))
            feas = problem.model.feasible
            if feas.box_dims().size:
                # every mesh point ties: the first one, not the centroid
                with _remapped_grid_values(np.zeros_like):
                    assert not np.array_equal(estimators._grid_start(problem, 9),
                                              feas.centroid())

    def test_grid_start_without_a_finite_value_is_the_centroid(self):
        for problem in self._problems():
            for fill in (np.nan, np.inf, -np.inf):
                remap = lambda v, f=fill: np.full_like(v, f)
                with _remapped_grid_values(remap):
                    start = estimators._grid_start(problem, 9)
                np.testing.assert_array_equal(start, problem.model.feasible.centroid())
                np.testing.assert_array_equal(start, _grid_start_reference(problem, 9, remap))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_stacked_gradients_equal_per_point_calls(self, model):
        rng = np.random.default_rng(127)
        scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
        counts = sg.aggregate_counts(scored)
        points = np.array([model.feasible.sample_interior(rng, 0.02)
                           for _ in range(12)]).reshape(3, 4, -1)
        theta, gamma = model.feasible.split(points)
        for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
            per_point = np.array([[problem.gradient(z) for z in row] for row in points])
            assert per_point.shape == (3, 4, model.feasible.dim)
            np.testing.assert_array_equal(problem.gradient(points), per_point)
            values, state = problem.evaluate(points)
            free = (sg.nr_objective(counts, model, theta, gamma) if problem.kind == "nr"
                    else sg.fr_objective(counts.phi, model, theta, gamma))
            np.testing.assert_array_equal(values, free)
            np.testing.assert_array_equal(problem.gradient(points, state), per_point)
            if problem.kind == "nr":
                np.testing.assert_array_equal(sg.nr_gradient(counts, model, theta, gamma),
                                              per_point)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_kernel_gradients_from_kept_tables_equal_the_public_gradients(self, model):
        # the kernels hand the tensor of the kept table to tensor_grad_fn, where
        # ModelSpec.tensor_grad and the public gradients rebuild it from theta
        rng = np.random.default_rng(163)
        scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
        counts = sg.aggregate_counts(scored)
        points = np.array([model.feasible.sample_interior(rng, 0.02) for _ in range(5)])
        theta, gamma = model.feasible.split(points)
        public = {"nr": lambda th, ga: sg.nr_gradient(counts, model, th, ga),
                  "fr": lambda th, ga: sg.fr_gradient(counts.phi, model, th, ga)}
        for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
            _, state = problem.evaluate(points)
            np.testing.assert_array_equal(model.tensor_grad_fn(theta, state[1]),
                                          model.tensor_grad(theta))
            stacked = problem.gradient(points, state)
            for k in range(len(points)):
                np.testing.assert_array_equal(stacked[k],
                                              public[problem.kind](theta[k], gamma[k]))
            # the solver's fallback: the gradient at row 0 from its slice of the table
            np.testing.assert_array_equal(
                problem.gradient(points[0], estimators._first_point(state)),
                public[problem.kind](theta[0], gamma[0]))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_fr_gradient_with_a_phi_row_per_point_equals_per_point_calls(self, model):
        # the distributed round: one phi row and one point per agent
        rng = np.random.default_rng(151)
        points = np.array([model.feasible.sample_interior(rng, 0.02) for _ in range(12)])
        phi = rng.dirichlet(np.ones(model.n_scores), size=12)
        theta, gamma = model.feasible.split(points)
        stacked = sg.fr_gradient(phi, model, theta, gamma)
        assert stacked.shape == (12, model.feasible.dim)
        for i in range(12):
            np.testing.assert_array_equal(stacked[i],
                                          sg.fr_gradient(phi[i], model, theta[i], gamma[i]))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_edge_score_distribution_equals_the_einsum_formula(self, model):
        # t_h = sum_lm T[h, l, m] p_l p_m, one matmul per point; the einsum it
        # replaced sums in another order, so the two may differ in the last bits
        rng = np.random.default_rng(157)
        points = np.array([model.feasible.sample_interior(rng, 0.02)
                           for _ in range(12)]).reshape(3, 4, -1)
        theta, gamma = model.feasible.split(points)
        t_h, tensor, prior = estimators._edge_score_distribution(model, theta, gamma)
        reference = np.einsum("...hlm,...l,...m->...h", tensor, prior, prior)
        assert t_h.shape == (3, 4, model.n_scores)
        np.testing.assert_allclose(t_h, reference, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_lipschitz_stepsize_equals_the_per_point_computation(self, model):
        rng = np.random.default_rng(107)
        scored, _, _ = _instance(model, rng, n_agents=6, n_edges=14)
        counts = sg.aggregate_counts(scored)
        sampled = []
        gradient = estimators.EstimatorProblem.gradient

        def spy(self, z, state=None):
            sampled.append(z)
            return gradient(self, z, state)

        for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
            sample_rng = np.random.default_rng(5)
            points = np.array([model.feasible.sample_interior(sample_rng, 0.02)
                               for _ in range(100)])
            grads = np.array([problem.gradient(p) for p in points])
            dz = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
            dg = np.linalg.norm(grads[:, None, :] - grads[None, :, :], axis=2)
            mask = dz > 1e-12
            lip = float((dg[mask] / dz[mask]).max())
            expected = 1.0 / lip if lip > 0 else 1.0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimators.EstimatorProblem, "gradient", spy)
                alpha = estimators.lipschitz_stepsize(problem, rng=np.random.default_rng(5))
            assert alpha == expected
            # one stacked gradient call at the same points, bit for bit
            assert len(sampled) == 1
            np.testing.assert_array_equal(sampled.pop(), points)


CRITERION_MODELS = (sg.preparata_model(), sg.reliability_model(5),
                    sg.social_ranking_model(3, 3))


def _criterion_counts(model, n_edges):
    """The trial-0 instance of the criterion 7 and 8 sweeps (N = 50, gamma =
    0.3, theta = 0.5 where the model has one), scored by `model`."""
    rng = np.random.default_rng([0, n_edges, 0])
    graph = sg.sample_score_graph(50, n_edges, "cyclic-plus-random-edges", rng)
    theta = (0.5,) if model.theta_dim else ()
    scored, _ = sg.generate_scores(graph, model, theta, (0.3,), rng)
    return sg.aggregate_counts(scored)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestGridMesh:
    def _check(self, problem, grid_points=33):
        """The mesh values have the bits of problem.evaluate on the whole mesh,
        and the start is the per-point scan's."""
        points, values = estimators._grid_values(problem, grid_points)
        assert _same_bits(values, problem.evaluate(points)[0])
        start = estimators._grid_start(problem, grid_points)
        np.testing.assert_array_equal(start, _grid_start_reference(problem, grid_points))
        assert start.flags.writeable      # a copy, never a view of the kept mesh
        return values

    @pytest.mark.parametrize("model", CRITERION_MODELS, ids=lambda m: m.name)
    def test_mesh_values_have_the_bits_of_evaluate(self, model):
        for n_edges in (50, 500, 2450):
            counts = _criterion_counts(model, n_edges)
            if n_edges == 50:
                # the cycle alone: one received score per agent, so the NR
                # mesh runs on at most R distinct rows
                rows, inverse = estimators._distinct_rows(counts.received)
                assert inverse is not None and len(rows) <= model.n_scores
            for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
                values = self._check(problem)
                if model.name == "preparata":
                    # gamma = 0 makes the mixed scores impossible
                    assert np.isinf(values).any()
        # the mesh holds the gamma = 0 line, where the log prior is -inf
        _, (_, log_prior) = estimators._mesh_tables(model, 33, "nr")
        assert np.isneginf(log_prior).any()

    def test_distinct_rows_only_between_two_and_half_the_agents(self):
        histograms = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0], [1, 1, 0],
                               [0, 2, 0]])
        for n_rows, kept in ((1, False), (2, True), (5, True), (6, False)):
            received = histograms[np.arange(10) % n_rows]
            rows, inverse = estimators._distinct_rows(received)
            if kept:
                assert len(rows) == n_rows
                np.testing.assert_array_equal(rows[inverse], received)
            else:
                assert rows is received and inverse is None

    def test_one_distinct_row_and_all_rows_distinct_use_every_row(self):
        # a single row would make the count product a gemv, whose bits differ
        # from the gemm over all rows; with every row distinct there is nothing
        # to share
        model = sg.social_ranking_model(3, 3)
        counts = _criterion_counts(model, 500)
        n = counts.n_agents
        same = replace(counts, received=np.tile(counts.received[:1], (n, 1)))
        distinct = replace(counts, received=np.column_stack(
            [np.arange(n), np.arange(n)[::-1], np.ones(n, dtype=int)]))
        for counts in (same, distinct):
            rows, inverse = estimators._distinct_rows(counts.received)
            assert rows is counts.received and inverse is None
            self._check(sg.nr_problem(counts, model))


def _agents_first_reference(received, model, theta, gamma):
    """The NR value, table, row_lse and gradient at one point through the
    agents-first table s[i, l] (N, C) that the states-first one replaced:
    counted_log_factor + logsumexp(axis=-1), and the gradient's rows @ w.
    The gradient is None where some agent's row_lse is -inf."""
    with np.errstate(divide="ignore"):
        tensor, prior = model.tensor_fn(theta), model.prior_fn(gamma)
        m_in = np.einsum("...hml,...m->...hl", tensor, prior)
        s = counted_log_factor(received, np.log(m_in)) + np.log(prior)[..., None, :]
    row_lse = logsumexp(s, axis=-1)
    if not np.isfinite(row_lse).all():
        return row_lse.sum(axis=-1), s, row_lse, None
    w = np.exp(s - row_lse[..., None])
    sums = np.concatenate([received.T, np.ones((1, len(received)))]) @ w
    g = np.divide(sums[:-1], m_in, out=np.zeros_like(m_in), where=m_in > 0)
    v = (estimators._contract(np.swapaxes(tensor, -3, -2), g, 2)
         + np.divide(sums[-1], prior, out=np.zeros_like(prior), where=prior > 0))
    grad = estimators._contract(model.prior_grad_fn(gamma), v, 1)
    if model.theta_dim:
        outer = prior[None, :, None] * g[:, None, :]
        grad = np.concatenate(
            [estimators._contract(model.tensor_grad_fn(theta, tensor), outer, 3), grad])
    return row_lse.sum(axis=-1), s, row_lse, grad


class TestStatesFirstTable:
    """The states-first NR table (..., C, N) against the agents-first formula
    it replaced, bit for bit: the value, the kept table and the gradient of
    problem.evaluate/gradient and of the public functions, and the grid
    start's mesh values."""

    @staticmethod
    def _received(model, n_distinct, n_agents=50):
        """Histograms of `n_distinct` different rows (1, 3 or n_agents) over
        the model's R scores, one per agent.  At N = 50 the product rows @ w
        of the gradient changes bits with the layout of w."""
        rows = np.ones((n_agents, model.n_scores), dtype=np.int64)
        rows[:, 0] = np.arange(n_agents)
        rows[:, 1] = np.arange(n_agents)[::-1]
        received = rows[np.arange(n_agents) % n_distinct]
        assert len(np.unique(received, axis=0)) == n_distinct
        return received

    @staticmethod
    def _points(model, rng):
        """Interior points, gamma = 0 and 1 rows (scalar gamma) and, for the
        categorical model, score masses of 0 at the simplex vertices."""
        points = _stack_points(model, rng, n_points=12)
        if model.name == "categorical":
            points[:4] = model.feasible.project(3.0 * points[:4] - 1.0)
            assert (points[:4] == 0.0).any()
        return points

    def _compare(self, problem, z):
        model, received = problem.model, problem.data.received
        theta, gamma = model.feasible.split(z)
        refs = [_agents_first_reference(received, model, *model.feasible.split(v))
                for v in z.reshape(-1, z.shape[-1])]
        lead = z.shape[:-1]
        value, state = problem.evaluate(z)
        s, row_lse = state[0], state[4]
        # states-first, s[..., l, i], stored as C contiguous (..., N) slices
        assert s.shape == lead + (model.n_states, len(received))
        assert all(s[..., l, :].flags.c_contiguous for l in range(model.n_states))
        assert row_lse.flags.c_contiguous
        assert _same_bits(value, np.reshape([r[0] for r in refs], lead))
        assert _same_bits(np.swapaxes(s, -1, -2), np.reshape([r[1] for r in refs], s.shape[:-2]
                                                             + s.shape[:-3:-1]))
        assert _same_bits(row_lse, np.reshape([r[2] for r in refs], row_lse.shape))
        assert _same_bits(sg.nr_objective(problem.data, model, theta, gamma), value)
        if any(r[3] is None for r in refs):
            for call in (lambda: problem.gradient(z, state),
                         lambda: sg.nr_gradient(problem.data, model, theta, gamma)):
                with pytest.raises(NonFiniteError):
                    call()
            return
        want = np.reshape([r[3] for r in refs], z.shape)
        assert _same_bits(problem.gradient(z, state), want)
        assert _same_bits(problem.gradient(z), want)
        assert _same_bits(sg.nr_gradient(problem.data, model, theta, gamma), want)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("n_distinct", [1, 3, 50])
    def test_evaluate_and_gradient_equal_the_agents_first_formula(self, model, n_distinct):
        rng = np.random.default_rng(151)
        scored, _, _ = _instance(model, rng, n_agents=50, n_edges=200)
        counts = replace(sg.aggregate_counts(scored),
                         received=self._received(model, n_distinct))
        problem = sg.nr_problem(counts, model)
        points = self._points(model, rng)
        for z in (*points, points[:3], points[:8].reshape(2, 4, -1)):
            self._compare(problem, z)

    @pytest.mark.parametrize("model", ALL_MODELS[:3], ids=lambda m: m.name)
    @pytest.mark.parametrize("n_distinct", [1, 3, 50])
    def test_mesh_values_equal_the_agents_first_formula(self, model, n_distinct):
        scored, _, _ = _instance(model, np.random.default_rng(157), n_agents=50, n_edges=200)
        counts = replace(sg.aggregate_counts(scored),
                         received=self._received(model, n_distinct))
        problem = sg.nr_problem(counts, model)
        rows, inverse = estimators._distinct_rows(counts.received)
        assert (inverse is not None) == (n_distinct == 3)
        for grid_points in (9, 33):
            points, values = estimators._grid_values(problem, grid_points)
            want = [_agents_first_reference(counts.received, model,
                                            *model.feasible.split(z))[0] for z in points]
            assert _same_bits(values, np.array(want))
            # the gamma = 0 line: a log prior of -inf, and for the two-score
            # models also tensor masses of 0
            assert (points[:, -1] == 0.0).any()
            if model.n_scores == 2:
                assert np.isneginf(values).any()


class TestMeshCache:
    @pytest.fixture(autouse=True)
    def _empty_cache(self, monkeypatch):
        monkeypatch.setattr(estimators, "_MESH_TABLES", {})

    @staticmethod
    def _counts(model):
        scored, _, _ = _instance(model, np.random.default_rng(149), n_agents=10, n_edges=30)
        return sg.aggregate_counts(scored)

    def test_each_model_object_and_grid_size_gets_its_own_tables(self):
        base = sg.social_ranking_model(3, 3)
        twin = sg.social_ranking_model(3, 3)
        sharper = replace(base, tensor_fn=lambda theta: base.tensor_fn(0.5 * theta))
        # the callables take no part in equality, so only identity tells them apart
        assert twin == base and sharper == base
        counts = self._counts(base)
        for model in (base, twin, sharper):
            for grid_points in (9, 33):
                problem = sg.nr_problem(counts, model)
                np.testing.assert_array_equal(estimators._grid_start(problem, grid_points),
                                              _grid_start_reference(problem, grid_points))
        entries = list(estimators._MESH_TABLES.values())
        assert len(entries) == 6
        for model in (base, twin, sharper):
            assert sum(entry[0] is model for entry in entries) == 2
        tables = {id(model): estimators._mesh_tables(model, 9, "nr")[1][0]
                  for model in (base, twin, sharper)}
        assert tables[id(twin)] is not tables[id(base)]
        assert _same_bits(tables[id(twin)], tables[id(base)])
        assert not np.array_equal(tables[id(sharper)], tables[id(base)])
        assert len(estimators._mesh_tables(base, 33, "nr")[0]) == 33 * 16

    def test_the_cache_stays_within_its_bound(self):
        counts = self._counts(sg.reliability_model(5))
        for _ in range(3 * estimators._MESH_CACHE_SIZE):
            model = sg.reliability_model(5)
            for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
                estimators._grid_start(problem, 9)
            assert len(estimators._MESH_TABLES) <= estimators._MESH_CACHE_SIZE
        assert len(estimators._MESH_TABLES) == estimators._MESH_CACHE_SIZE

    def test_a_dropped_model_cannot_hand_its_tables_to_a_new_object(self):
        base = sg.reliability_model(5)
        counts = self._counts(base)
        model = replace(base)
        alive = weakref.ref(model)
        estimators._grid_start(sg.nr_problem(counts, model), 9)
        del model
        gc.collect()
        # its entry holds it, so no other object can take its id
        assert alive() is not None
        for _ in range(estimators._MESH_CACHE_SIZE):
            estimators._grid_start(sg.nr_problem(counts, replace(base)), 9)
        gc.collect()
        assert alive() is None        # dropped with its entry
        # new objects, whatever ids they get, build tables from their own callables
        for power in (2.0, 0.5):
            model = replace(base, prior_fn=lambda gamma, k=power: base.prior_fn(gamma ** k))
            problem = sg.nr_problem(counts, model)
            np.testing.assert_array_equal(estimators._grid_start(problem, 9),
                                          _grid_start_reference(problem, 9))
            points, (_, log_prior) = estimators._mesh_tables(model, 9, "nr")
            with np.errstate(divide="ignore"):
                assert _same_bits(log_prior, np.log(model.prior_fn(points)))


class TestLargeAlphabet:
    """Per-point bits of stacked NR rows once the count product has K >= 16
    score entries, where one product over a stack's concatenated tables gives
    other bits than the per-point products."""

    def test_reliability_r16_mesh_values_have_the_bits_of_evaluate(self):
        model = sg.reliability_model(16)
        for n_edges in (50, 500, 2450):
            for trial in range(3):
                counts = _sweep_counts(model, (), (0.3,), n_edges, trial)
                problem = sg.nr_problem(counts, model)
                points, values = estimators._grid_values(problem, 33)
                want = np.array([problem.evaluate(z)[0] for z in points])
                assert _same_bits(values, want), (n_edges, trial)

    def test_ranking_r16_stencil_rows_and_gradients_equal_single_points(self):
        model = sg.social_ranking_model(3, 16)
        lo, hi = model.feasible.bounds
        for n_edges in (50, 500, 2450):
            for trial in range(3):
                counts = _sweep_counts(model, (0.5,), (0.3,), n_edges, trial)
                problem = sg.nr_problem(counts, model)
                z = estimators._grid_start(problem, 33)
                h = estimators.HESSIAN_STEP * np.maximum(1.0, np.abs(z))
                points = np.vstack([z, z + np.diag(np.where(z + h > hi, -h, h))])
                values, state = problem.evaluate(points)
                grads = problem.gradient(points, state)
                for k, v in enumerate(points):
                    assert _same_bits(values[k], problem.evaluate(v)[0]), (n_edges, trial, k)
                    assert _same_bits(grads[k], problem.gradient(v)), (n_edges, trial, k)
