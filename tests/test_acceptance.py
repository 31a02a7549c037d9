"""Acceptance gate: one criterion per test, one printed verdict line each.

Each test exercises a shipped behavior end to end against an independent
oracle or a frozen trend expectation, with a hard runtime budget.  Tolerances
are pinned here and nowhere else; loosening them is a contract change.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import scoregraph as sg
from scoregraph.experiments import ExperimentConfig, emit_outputs, run_sweep

from oracles import (binary_fr_maximizers, fd_gradient,
                     fr_product_loglik_brute_force, nr_loglik_brute_force,
                     posterior_brute_force, push_sum_round_by_definition)

ALL_MODELS = (sg.preparata_model(), sg.reliability_model(5),
              sg.social_ranking_model(3, 3), sg.categorical_model(2, 3))


@contextmanager
def criterion(num, name, limit_s):
    info = {"detail": ""}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"\n[criterion {num}] {name}: FAIL ({elapsed:.1f} s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    detail = info["detail"]
    tail = f"{detail}; {elapsed:.1f} s" if detail else f"{elapsed:.1f} s"
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({tail})")
    assert ok, f"runtime {elapsed:.1f} s over the {limit_s} s budget"


def _random_instance(model, rng, max_agents=8):
    n_agents = int(rng.integers(4, max_agents + 1))
    max_extra = min(2 * n_agents, n_agents * (n_agents - 1))
    n_edges = int(rng.integers(n_agents, max_extra + 1))
    g = sg.sample_score_graph(n_agents, n_edges, "cyclic-plus-random-edges", rng)
    z = model.feasible.sample_interior(rng)
    theta, gamma = model.feasible.split(z)
    scored, _ = sg.generate_scores(g, model, theta, gamma, rng)
    return scored, theta, gamma


def test_criterion_1_classifier_matches_brute_force():
    rng = np.random.default_rng(1001)
    with criterion(1, "single-hop posteriors match brute-force enumeration",
                   10.0) as info:
        worst = 0.0
        for model in ALL_MODELS:
            for _ in range(50):
                scored, theta, gamma = _random_instance(model, rng)
                counts = sg.aggregate_counts(scored)
                ours = sg.soft_classify(counts, model, theta, gamma).posterior
                ref = posterior_brute_force(scored, model, theta, gamma)
                worst = max(worst, float(np.abs(ours - ref).max()))
        assert worst <= 1e-10
        info["detail"] = f"200 instances, worst gap {worst:.2e}"


def test_criterion_2_closed_form_matches_numeric_maximizer():
    with criterion(2, "binary closed form lands on the maximizer set",
                   5.0) as info:
        worst = 0.0
        for q in np.linspace(0.0, 1.0, 100):
            cf = sg.fr_binary_closed_form(float(q))
            gap = min(abs(cf - x) for x in binary_fr_maximizers(float(q)))
            worst = max(worst, gap)
        assert worst <= 1e-7
        info["detail"] = f"100 grid points, worst gap {worst:.2e}"


def test_criterion_3_objective_identities():
    rng = np.random.default_rng(1003)
    with criterion(3, "relaxed objectives equal their defining products",
                   10.0) as info:
        worst = 0.0
        for model in ALL_MODELS:
            for _ in range(5):
                scored, theta, gamma = _random_instance(model, rng)
                counts = sg.aggregate_counts(scored)
                fr = sg.fr_objective(counts.phi, model, theta, gamma)
                fr_ref = -fr_product_loglik_brute_force(
                    scored, model, theta, gamma) / scored.n_edges
                nr = sg.nr_objective(counts, model, theta, gamma)
                nr_ref = nr_loglik_brute_force(scored, model, theta, gamma)
                worst = max(worst, abs(fr - fr_ref), abs(nr - nr_ref))
        assert worst <= 1e-9
        info["detail"] = f"20 instances, worst gap {worst:.2e}"


def test_criterion_4_gradients_match_finite_differences():
    rng = np.random.default_rng(1004)
    with criterion(4, "analytic gradients match central differences",
                   30.0) as info:
        step = 1e-6
        for model in ALL_MODELS:
            for _ in range(100):
                z = model.feasible.sample_interior(rng, margin=0.05)
                theta, gamma = model.feasible.split(z)
                d_tensor = model.tensor_grad(theta)
                for k in range(model.theta_dim):
                    fd = (model.tensor_fn(_bump(theta, k, step))
                          - model.tensor_fn(_bump(theta, k, -step))) / (2 * step)
                    np.testing.assert_allclose(d_tensor[k], fd,
                                               rtol=1e-6, atol=1e-8)
                d_prior = model.prior_grad(gamma)
                for k in range(model.gamma_dim):
                    fd = (model.prior_fn(_bump(gamma, k, step))
                          - model.prior_fn(_bump(gamma, k, -step))) / (2 * step)
                    np.testing.assert_allclose(d_prior[k], fd,
                                               rtol=1e-6, atol=1e-8)
        for model in ALL_MODELS:
            scored, _, _ = _random_instance(model, rng)
            counts = sg.aggregate_counts(scored)
            for problem in (sg.nr_problem(counts, model),
                            sg.fr_problem(counts, model)):
                for _ in range(25):
                    z = model.feasible.sample_interior(rng, margin=0.05)
                    got = problem.gradient(z)
                    want = fd_gradient(lambda v: problem.evaluate(v)[0], z,
                                       step=1e-5)
                    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)
        info["detail"] = "tensor/prior and NR/FR objective gradients"


def _bump(vec, k, delta):
    out = np.array(vec, dtype=np.float64)
    out[k] += delta
    return out


def test_criterion_5_push_sum_consensus():
    with criterion(5, "push-sum conserves mass and reaches the histogram",
                   10.0) as info:
        rng = np.random.default_rng([42, 5])
        g = sg.sample_score_graph(20, 80, "cyclic-plus-random-edges", rng)
        model = sg.reliability_model(4)
        scored, _ = sg.generate_scores(g, model, (), (0.3,), rng)
        counts = sg.aggregate_counts(scored)

        def round_0(schedule):     # the local histograms, as run_distributed starts
            return sg.run_distributed(counts, model, schedule, alpha=1.0, n_rounds=0).state

        static = sg.CommSchedule(20, (scored.edges,), 1)
        state = round_0(static)
        xi_total = state.xi.sum(axis=0)
        eta_total = state.eta.sum()
        worst_mass = 0.0
        for t in range(200):
            state = push_sum_round_by_definition(state, static, t)
            worst_mass = max(
                worst_mass,
                float(np.abs(state.xi.sum(axis=0) / xi_total - 1.0).max()),
                abs(state.eta.sum() / eta_total - 1.0))
        assert worst_mass <= 1e-9
        phi_err = float(np.abs(state.phi - counts.phi[None, :]).max())
        assert phi_err <= 1e-10

        sched = sg.make_comm_schedule(20, "periodic-edge-partition", 3,
                                      rng=np.random.default_rng([42, 6]))
        state = round_0(sched)
        errs = []
        for t in range(1200):
            state = push_sum_round_by_definition(state, sched, t)
            errs.append(float(np.abs(state.phi - counts.phi[None, :]).max()))
        errs = np.asarray(errs)
        keep = errs > 1e-12
        slope = np.polyfit(np.arange(1200)[keep], np.log(errs[keep]), 1)[0]
        assert slope < 0
        info["detail"] = (f"mass {worst_mass:.1e}, phi {phi_err:.1e}, "
                          f"Q=3 slope {slope:.1e}")


def test_criterion_6_distributed_estimator_end_to_end():
    with criterion(6, "distributed binary estimation agrees with closed form",
                   30.0) as info:
        rng = np.random.default_rng([7, 0])
        g = sg.sample_score_graph(20, 380, "complete", rng)
        model = sg.preparata_model()
        scored, _ = sg.generate_scores(g, model, (), (0.3,), rng)
        counts = sg.aggregate_counts(scored)
        sched = sg.make_comm_schedule(20, "static-complete")
        run = sg.run_distributed(counts, model, sched, n_rounds=5000,
                                 record_every=5000, rng=0)
        star = sg.fr_binary_closed_form(counts.phi[1])
        gamma_err = float(np.abs(run.final_z[:, 0] - star).max())
        assert gamma_err <= 1e-5
        step = sg.local_gradient_step(run.final_z, np.tile(counts.phi, (20, 1)),
                                      model, run.alpha)
        resid = float(np.linalg.norm(run.final_z - step, axis=1).max())
        assert resid <= 1e-6
        info["detail"] = (f"agent error {gamma_err:.1e}, "
                          f"residual {resid:.1e}, alpha {run.alpha:.2e}")


def test_criterion_7_reliability_sweep_trends():
    with criterion(7, "reliability sweep: RMSE falls, classifier nears oracle",
                   600.0) as info:
        result = run_sweep(ExperimentConfig())
        points = result.points
        assert [p.n_edges for p in points] == [50, 500, 2450]
        for est in ("NR", "FR"):
            values = [p.rmse[est]["gamma"] for p in points]
            assert values[0] > values[1] > values[2], (est, values)
        gap = abs(points[-1].misclass["FR"] - points[-1].misclass["oracle"])
        assert gap <= 0.02
        info["detail"] = (
            "NR " + ">".join(f"{p.rmse['NR']['gamma']:.3f}" for p in points)
            + ", FR " + ">".join(f"{p.rmse['FR']['gamma']:.3f}" for p in points)
            + f", oracle gap {gap:.4f}")


def test_criterion_8_social_sweep_trends_and_symmetry():
    with criterion(8, "ranking sweep: both RMSE curves fall, swap symmetry",
                   900.0) as info:
        cfg = ExperimentConfig(model="social-ranking", theta=(0.5,),
                               gamma=(0.3,))
        result = run_sweep(cfg)
        points = result.points
        for est in ("NR", "FR"):
            for param in ("theta", "gamma"):
                values = [p.rmse[est][param] for p in points]
                assert values[0] > values[1] > values[2], (est, param, values)
        # paired over shared seeds, the less relaxed estimator should not
        # lose to the fully relaxed one by more than trial noise
        for p in points:
            for param in ("theta", "gamma"):
                assert p.rmse["NR"][param] <= p.rmse["FR"][param] + 0.02, (
                    p.n_edges, param, p.rmse["NR"][param], p.rmse["FR"][param])

        model = sg.social_ranking_model(3, 3)
        rng = np.random.default_rng([0, 2450, 0])
        g = sg.sample_score_graph(50, 2450, "complete", rng)
        scored, _ = sg.generate_scores(g, model, (0.5,), (0.3,), rng)
        counts = sg.aggregate_counts(scored)
        worst = 0.0
        for _ in range(5):
            z = model.feasible.sample_interior(rng, margin=0.02)
            theta, gamma = model.feasible.split(z)
            swapped = 1.0 - gamma
            worst = max(
                worst,
                abs(sg.nr_objective(counts, model, theta, gamma)
                    - sg.nr_objective(counts, model, theta, swapped)),
                abs(sg.fr_objective(counts.phi, model, theta, gamma)
                    - sg.fr_objective(counts.phi, model, theta, swapped)))
        assert worst <= 1e-9
        info["detail"] = (
            "theta NR " + ">".join(f"{p.rmse['NR']['theta']:.3f}"
                                   for p in points)
            + ", gamma NR " + ">".join(f"{p.rmse['NR']['gamma']:.3f}"
                                       for p in points)
            + f", swap gap {worst:.1e}")


def test_criterion_9_byte_identical_reruns(tmp_path):
    with criterion(9, "same config and seed give byte-identical CSVs",
                   120.0) as info:
        cfg = ExperimentConfig(model="preparata", n_agents=6, sweep=(6, 12),
                               trials=3, estimators=("NR", "FR"),
                               solver_grid_points=9)
        a, b = tmp_path / "a", tmp_path / "b"
        emit_outputs(run_sweep(cfg), a)
        emit_outputs(run_sweep(cfg), b)
        same = all((a / name).read_bytes() == (b / name).read_bytes()
                   for name in ("rmse.csv", "misclass.csv"))
        assert same
        info["detail"] = "rmse.csv and misclass.csv identical across reruns"
