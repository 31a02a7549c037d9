"""Objectives, gradients, closed form, and the projected-gradient machinery."""

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

import scoregraph as sg
from scoregraph import estimators
from scoregraph._logdomain import logsumexp
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
            want = fd_gradient(lambda v: problem.objective(v, validate=False),
                               z, step=1e-5)
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
    _, (s, tensor, prior, m_in, _) = estimators._nr_kept_table(counts, model, theta, gamma)
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

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        model = sg.categorical_model(2, 3)
        phi = np.array([0.5, 0.3, 0.2])
        problem = sg.fr_problem(phi, model)
        for _ in range(10):
            z = model.feasible.sample_interior(rng)
            got = problem.gradient(z)
            want = fd_gradient(lambda v: problem.objective(v, validate=False),
                               z, step=1e-5)
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
        res = sg.projected_gradient_solve(problem, start=start, alpha=0.05)
        assert res.converged and res.n_iters == 1
        np.testing.assert_allclose(res.z, start, atol=1e-15)

    def test_negative_tol_rejected(self):
        # a residual is never below a negative tol, so such a solve could
        # only end unconverged at the roundoff floor
        problem = sg.fr_problem(np.array([0.6, 0.4]), sg.preparata_model())
        for tol in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                sg.projected_gradient_solve(problem, tol=tol)
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                sg.estimate(problem, tol=tol)
        assert sg.projected_gradient_solve(problem, tol=0.0).n_iters >= 1

    def test_converges_to_closed_form(self):
        q = 0.4
        problem = sg.fr_problem(np.array([1 - q, q]), sg.preparata_model())
        res = sg.projected_gradient_solve(problem, alpha=0.05, tol=1e-12)
        assert res.converged
        assert res.z[0] == pytest.approx(sg.fr_binary_closed_form(q), abs=1e-6)

    def test_trace_monotone_for_minimization(self):
        rng = np.random.default_rng(43)
        model = sg.preparata_model()
        for _ in range(10):
            q = rng.uniform(0.05, 0.95)
            problem = sg.fr_problem(np.array([1 - q, q]), model)
            alpha = estimators.lipschitz_stepsize(problem, rng=rng)
            start = np.array([rng.uniform(0.05, 0.95)])
            res = sg.projected_gradient_solve(problem, start=start, alpha=alpha,
                                              max_iters=2000)
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
        res = sg.projected_gradient_solve(problem, alpha=0.1, max_iters=500)
        for row in res.trace:
            assert model.feasible.contains(row[2:], tol=1e-9)

    def test_converged_solves_meet_the_residual_stop(self):
        rng = np.random.default_rng(71)
        tol = 1e-8
        n_converged = 0
        for model in ALL_MODELS:
            for _ in range(3):
                scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
                counts = sg.aggregate_counts(scored)
                for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
                    res = sg.projected_gradient_solve(problem, tol=tol, max_iters=5000,
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
                    res = sg.projected_gradient_solve(problem, tol=1e-8, max_iters=max_iters)
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
        assert counted["gradient"] == n_iters
        assert counted["evaluate"] > n_iters
        assert counted["table"] == counted["evaluate"]

    def test_solver_gradients_from_kept_tables_equal_nr_gradient(self, monkeypatch):
        seen = []
        nr_gradient = estimators.nr_gradient

        def spy(counts, model, theta, gamma, table=None):
            grad = nr_gradient(counts, model, theta, gamma, table=table)
            seen.append((table is not None, grad, nr_gradient(counts, model, theta, gamma)))
            return grad

        monkeypatch.setattr(estimators, "nr_gradient", spy)
        rng = np.random.default_rng(137)
        for model in ALL_MODELS:
            scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
            problem = sg.nr_problem(sg.aggregate_counts(scored), model)
            sg.estimate(problem, tol=1e-8, max_iters=5000, grid_points=9)
            z = model.feasible.sample_interior(rng)
            value, _ = problem.evaluate(z)
            assert value == problem.objective(z, validate=False)
        assert len(seen) > len(ALL_MODELS)
        for from_table, got, want in seen:
            assert from_table
            np.testing.assert_array_equal(got, want)

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
        assert counted["gradient"] == n_iters
        assert counted["evaluate"] > n_iters
        assert counted["table"] == counted["evaluate"]

    def test_solver_gradients_from_kept_tables_equal_fr_gradient(self, monkeypatch):
        seen = []
        fr_gradient = estimators.fr_gradient

        def spy(phi, model, theta, gamma, table=None):
            grad = fr_gradient(phi, model, theta, gamma, table=table)
            seen.append((table is not None, grad, fr_gradient(phi, model, theta, gamma)))
            return grad

        monkeypatch.setattr(estimators, "fr_gradient", spy)
        rng = np.random.default_rng(149)
        for model in ALL_MODELS:
            scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
            problem = sg.fr_problem(sg.aggregate_counts(scored), model)
            sg.estimate(problem, tol=1e-8, max_iters=5000, grid_points=9)
            z = model.feasible.sample_interior(rng)
            value, _ = problem.evaluate(z)
            assert value == problem.objective(z, validate=False)
        assert len(seen) > len(ALL_MODELS)
        for from_table, got, want in seen:
            assert from_table
            np.testing.assert_array_equal(got, want)

    def test_armijo_trace_monotone_for_both_senses(self):
        rng = np.random.default_rng(73)
        for model in (sg.reliability_model(5), sg.social_ranking_model(3, 3)):
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
        res = sg.projected_gradient_solve(problem, start=start, alpha=1.0)
        assert res.converged
        assert res.z[0] == pytest.approx(sg.fr_binary_closed_form(q), abs=1e-9)

    def test_lipschitz_stepsize_reproducible(self):
        problem = sg.fr_problem(np.array([0.6, 0.4]), sg.preparata_model())
        a1 = estimators.lipschitz_stepsize(problem, rng=np.random.default_rng(5))
        a2 = estimators.lipschitz_stepsize(problem, rng=np.random.default_rng(5))
        assert a1 == a2 and 0 < a1 < np.inf


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
        f = lambda g: problem.objective(np.array([g]), validate=False)
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
        for name in ("n_iters", "converged", "residual", "objective", "alpha"):
            assert getattr(res, name) == getattr(raw, name)
        np.testing.assert_array_equal(res.trace, raw.trace)
        np.testing.assert_array_equal(res.z, [raw.z[0], 1.0 - raw.z[1]])
        np.testing.assert_array_equal(res.theta, raw.theta)
        np.testing.assert_array_equal(res.gamma, 1.0 - raw.gamma)

    def test_label_swap_symmetry_is_checked_on_the_objective(self):
        skew = np.array([[0.0, 1, 2], [3, 0, 1], [2, 3, 0]])
        model = replace(sg.social_ranking_model(3, 3, distance=skew),
                        label_swap_symmetric=True)
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


def _grid_start_reference(problem, grid_points):
    """Per-point mesh scan in C order: the first best finite value, else the centroid."""
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
        value = problem.objective(z, validate=False)
        if not np.isfinite(value):
            continue
        score = value if problem.maximize else -value
        if best_value is None or score > best_value:
            best_value, best_z = score, z
    return best_z


@dataclass(frozen=True)
class _Remapped:
    """A problem whose objective values pass through `remap`; records each call's z shape."""

    inner: estimators.EstimatorProblem
    remap: object
    calls: list = field(default_factory=list)

    @property
    def model(self):
        return self.inner.model

    @property
    def maximize(self):
        return self.inner.maximize

    def objective(self, z, validate=True):
        self.calls.append(np.shape(z))
        return self.remap(np.asarray(self.inner.objective(z, validate)))


class TestStackedEvaluation:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_stacked_objectives_equal_per_point_calls(self, model):
        rng = np.random.default_rng(83)
        scored, _, _ = _instance(model, rng, n_agents=8, n_edges=30)
        counts = sg.aggregate_counts(scored)
        points = _stack_points(model, rng).reshape(4, 6, -1)
        theta, gamma = model.feasible.split(points)
        stacked = {
            "nr": sg.nr_objective(counts, model, theta, gamma, validate=False),
            "fr": sg.fr_objective(counts.phi, model, theta, gamma, validate=False),
        }
        for problem in (sg.nr_problem(counts, model), sg.fr_problem(counts, model)):
            per_point = np.array([[problem.objective(z, validate=False) for z in row]
                                  for row in points])
            assert all(isinstance(v, float) for v in per_point.ravel().tolist())
            assert stacked[problem.kind].shape == (4, 6)
            np.testing.assert_array_equal(stacked[problem.kind], per_point)
            np.testing.assert_array_equal(problem.objective(points, validate=False),
                                          per_point)
            if model.name == "preparata":
                # gamma = 0 makes the mixed scores impossible: -inf (NR), +inf (FR)
                assert np.isinf(per_point).any() and np.isfinite(per_point).any()

    def test_stacked_exact_objective_loops_over_rows(self):
        rng = np.random.default_rng(89)
        model = sg.preparata_model()
        scored, _, _ = _instance(model, rng, n_agents=5, n_edges=12)
        problem = sg.exact_problem(scored, model)
        points = _stack_points(model, rng, n_points=12).reshape(3, 4, 1)
        per_point = np.array([[problem.objective(z) for z in row] for row in points])
        assert np.isinf(per_point).any() and np.isfinite(per_point).any()
        np.testing.assert_array_equal(problem.objective(points), per_point)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_validate_checks_every_row_of_a_stack(self, model):
        rng = np.random.default_rng(97)
        scored, _, _ = _instance(model, rng)
        counts = sg.aggregate_counts(scored)
        points = _stack_points(model, rng, n_points=5)
        problems = [sg.nr_problem(counts, model), sg.fr_problem(counts, model),
                    sg.exact_problem(scored, model)]
        for problem in problems:
            problem.objective(points)
        points[3, -1] = 1.2
        theta, gamma = model.feasible.split(points)
        with pytest.raises(InfeasibleError):
            sg.nr_objective(counts, model, theta, gamma)
        with pytest.raises(InfeasibleError):
            sg.fr_objective(counts.phi, model, theta, gamma)
        for problem in problems:
            with pytest.raises(InfeasibleError):
                problem.objective(points)

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

    def test_grid_start_evaluates_the_mesh_in_blocks(self):
        model = sg.social_ranking_model(3, 3)
        scored, _, _ = _instance(model, np.random.default_rng(103), n_agents=10, n_edges=40)
        problem = _Remapped(sg.nr_problem(sg.aggregate_counts(scored), model), lambda v: v)
        start = estimators._grid_start(problem, 33)
        # the label-swap half mesh, 33 theta values by the 16 gamma values below
        # 1/2: 528 points in C order, 64 per call
        assert estimators.GRID_BLOCK == 64
        assert problem.calls == [(64, 2)] * 8 + [(16, 2)]
        assert start[1] < 0.5
        np.testing.assert_array_equal(start, _grid_start_reference(problem, 33))
        # a one-dimensional mesh of 33 points is one call
        model = sg.reliability_model(5)
        scored, _, _ = _instance(model, np.random.default_rng(109), n_agents=10, n_edges=40)
        problem = _Remapped(sg.fr_problem(sg.aggregate_counts(scored), model), lambda v: v)
        start = estimators._grid_start(problem, 33)
        assert problem.calls == [(33, 1)]
        np.testing.assert_array_equal(start, _grid_start_reference(problem, 33))

    def test_grid_start_ties_go_to_the_first_mesh_point(self):
        for problem in self._problems():
            flat = _Remapped(problem, np.zeros_like)
            coarse = _Remapped(problem, lambda v: np.floor(v / 5.0))
            for tied in (flat, coarse):
                np.testing.assert_array_equal(estimators._grid_start(tied, 9),
                                              _grid_start_reference(tied, 9))
            feas = problem.model.feasible
            if feas.box_dims().size:
                # every mesh point ties: the first one, not the centroid
                assert not np.array_equal(estimators._grid_start(flat, 9), feas.centroid())

    def test_grid_start_without_a_finite_value_is_the_centroid(self):
        for problem in self._problems():
            for fill in (np.nan, np.inf, -np.inf):
                none_finite = _Remapped(problem, lambda v, f=fill: np.full_like(v, f))
                start = estimators._grid_start(none_finite, 9)
                np.testing.assert_array_equal(start, problem.model.feasible.centroid())
                np.testing.assert_array_equal(start, _grid_start_reference(none_finite, 9))

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
            np.testing.assert_array_equal(values, problem.objective(points, validate=False))
            np.testing.assert_array_equal(problem.gradient(points, state), per_point)
            if problem.kind == "nr":
                np.testing.assert_array_equal(sg.nr_gradient(counts, model, theta, gamma),
                                              per_point)

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
