"""Single-hop Bayesian soft/MAP classification."""

import numpy as np
import pytest

import scoregraph as sg
from scoregraph.classifier import _soft_classify
from scoregraph.errors import DegenerateModelError, InfeasibleError
from scoregraph.experiments import ExperimentConfig, run_single

from oracles import posterior_brute_force

MODELS = [
    sg.preparata_model(),
    sg.reliability_model(5),
    sg.social_ranking_model(3, 3),
    sg.categorical_model(2, 2),
]


def _random_instance(model, rng, n_agents=6, n_edges=14):
    g = sg.sample_score_graph(n_agents, n_edges, "cyclic-plus-random-edges", rng)
    z = model.feasible.sample_interior(rng)
    theta, gamma = model.feasible.split(z)
    scored, states = sg.generate_scores(g, model, theta, gamma, rng)
    return scored, states, theta, gamma


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_posterior_matches_joint_enumeration(model):
    rng = np.random.default_rng(31)
    for _ in range(5):
        scored, _, theta, gamma = _random_instance(model, rng)
        counts = sg.aggregate_counts(scored)
        out = sg.soft_classify(counts, model, theta, gamma)
        ref = posterior_brute_force(scored, model, theta, gamma)
        np.testing.assert_allclose(out.posterior, ref, atol=1e-10)


def test_ranking_instance_matches_enumeration():
    # three states, twelve edges: the smallest interesting joint model
    rng = np.random.default_rng(6)
    model = sg.social_ranking_model(3, 3)
    g = sg.sample_score_graph(6, 12, "cyclic-plus-random-edges", rng)
    scored, _ = sg.generate_scores(g, model, (0.5,), (0.3,), rng)
    counts = sg.aggregate_counts(scored)
    out = sg.soft_classify(counts, model, (0.5,), (0.3,))
    ref = posterior_brute_force(scored, model, (0.5,), (0.3,))
    np.testing.assert_allclose(out.posterior, ref, atol=1e-10)


def test_uninformative_scores_return_the_prior():
    # every table row uniform: observations carry no evidence
    model = sg.categorical_model(3, 4)
    theta = np.full(model.theta_dim, 0.25)
    gamma = np.array([0.5, 0.3, 0.2])
    rng = np.random.default_rng(8)
    g = sg.sample_score_graph(7, 20, "cyclic-plus-random-edges", rng)
    scored, _ = sg.generate_scores(g, model, theta, gamma, rng)
    out = sg.soft_classify(sg.aggregate_counts(scored), model, theta, gamma)
    np.testing.assert_allclose(out.posterior, np.tile(gamma, (7, 1)), atol=1e-12)


def test_certain_prior_dominates():
    model = sg.preparata_model()
    g = sg.ScoreGraph(3, 2, np.array([(0, 1), (1, 2), (2, 0)]),
                      scores=np.array([0, 0, 0]))
    out = sg.soft_classify(sg.aggregate_counts(g), model, (), (0.0,))
    np.testing.assert_array_equal(out.posterior, np.tile([1.0, 0.0], (3, 1)))
    assert np.all(out.labels == 0)


def test_impossible_observation_is_degenerate():
    # sound-only prior but a mismatch score was observed: no state explains it
    model = sg.preparata_model()
    g = sg.ScoreGraph(3, 2, np.array([(0, 1), (1, 2), (2, 0)]),
                      scores=np.array([1, 0, 0]))
    with pytest.raises(DegenerateModelError):
        sg.soft_classify(sg.aggregate_counts(g), model, (), (0.0,))


def test_undirected_graph_uses_only_mutual_factors():
    """With every reverse edge present, the one-way factors are empty and the
    posterior reduces to prior times the mutual-pair factor."""
    rng = np.random.default_rng(12)
    model = sg.reliability_model(3)
    n = 6
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    g = sg.ScoreGraph(n, 3, np.array(pairs))
    scored, _ = sg.generate_scores(g, model, (), (0.4,), rng)
    counts = sg.aggregate_counts(scored)
    assert counts.received_only.sum() == 0 and counts.given_only.sum() == 0

    out = sg.soft_classify(counts, model, (), (0.4,))
    tensor, prior = model.tensor(()), model.prior((0.4,))
    # direct reduction: v(l) = prior(l) * product over mutual pairs of
    # sum_m p(h_give|l,m) p(h_recv|m,l) prior(m)
    pair_table = np.einsum("hlm,kml,m->hkl", tensor, tensor, prior)
    ref = np.zeros((n, 2))
    for i in range(n):
        for l in range(2):
            v = prior[l]
            for h in range(3):
                for k in range(3):
                    if counts.mutual[i, h, k]:
                        v *= pair_table[h, k, l] ** counts.mutual[i, h, k]
            ref[i, l] = v
    ref /= ref.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out.posterior, ref, atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(21)
    model = sg.reliability_model(4)
    scored, _, theta, gamma = _random_instance(model, rng, n_agents=8, n_edges=24)
    perm = np.random.default_rng(2).permutation(8)
    relabeled = sg.ScoreGraph(8, 4, perm[scored.edges], scores=scored.scores)
    out = sg.soft_classify(sg.aggregate_counts(scored), model, theta, gamma)
    out_p = sg.soft_classify(sg.aggregate_counts(relabeled), model, theta, gamma)
    np.testing.assert_allclose(out_p.posterior[perm], out.posterior, atol=1e-12)
    np.testing.assert_array_equal(out_p.labels[perm], out.labels)


def test_map_tie_break_takes_lowest_index():
    # uninformative score tables: every agent's posterior is the prior, so
    # states with equal prior mass tie exactly
    model = sg.categorical_model(4, 2)
    theta = np.full(model.theta_dim, 0.5)
    scored, _, _, _ = _random_instance(model, np.random.default_rng(8))
    counts = sg.aggregate_counts(scored)
    for prior in ([0.5, 0.25, 0.15, 0.1], [0.5, 0.5, 0.0, 0.0], [0.25] * 4):
        out = sg.soft_classify(counts, model, theta, prior)
        np.testing.assert_allclose(out.posterior,
                                   np.broadcast_to(prior, out.posterior.shape), atol=1e-12)
        np.testing.assert_array_equal(out.labels, [0] * out.posterior.shape[0])


def test_map_invariant_to_rescaled_evidence():
    rng = np.random.default_rng(3)
    model = sg.preparata_model()
    scored, _, theta, gamma = _random_instance(model, rng)
    out = sg.soft_classify(sg.aggregate_counts(scored), model, theta, gamma)
    shifted = np.exp(out.log_unnormalized + 7.3)
    shifted /= shifted.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(shifted, out.posterior, atol=1e-12)
    np.testing.assert_array_equal(np.argmax(shifted, axis=1), out.labels)


def test_misclassification_rate_examples():
    assert sg.misclassification_rate(np.array([1, 2, 2]), np.array([1, 2, 3])) \
        == pytest.approx(1 / 3)
    a = np.array([0, 1, 0, 1])
    assert sg.misclassification_rate(a, a) == 0.0
    assert sg.misclassification_rate(a, 1 - a) == 1.0
    with pytest.raises(ValueError):
        sg.misclassification_rate(np.array([0, 1]), np.array([0]))
    # empty input has no rate (the mean of an empty mask is nan, with a warning)
    with pytest.raises(ValueError, match="must not be empty"):
        sg.misclassification_rate([], [])


def test_posterior_rows_normalized_and_nonnegative():
    rng = np.random.default_rng(14)
    for model in MODELS:
        scored, _, theta, gamma = _random_instance(model, rng)
        out = sg.soft_classify(sg.aggregate_counts(scored), model, theta, gamma)
        assert np.all(out.posterior >= 0)
        np.testing.assert_allclose(out.posterior.sum(axis=1), 1.0, atol=1e-12)
        assert out.posterior.shape == (6, model.n_states)


def test_score_alphabet_must_match():
    rng = np.random.default_rng(4)
    scored, _, _, _ = _random_instance(sg.reliability_model(3), rng)
    with pytest.raises(ValueError):
        sg.soft_classify(sg.aggregate_counts(scored), sg.reliability_model(5),
                         (), (0.3,))


def test_infeasible_estimate_rejected():
    rng = np.random.default_rng(4)
    scored, _, _, _ = _random_instance(sg.preparata_model(), rng)
    with pytest.raises(InfeasibleError):
        sg.soft_classify(sg.aggregate_counts(scored), sg.preparata_model(),
                         (), (-0.1,))


def test_soft_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(model="social-ranking", n_agents=6, sweep=(14,), trials=1,
                           estimators=("oracle",), master_seed=19)
    single = run_single(cfg)
    sg.emit_single_outputs(single, tmp_path)
    out = single.outputs["oracle"]
    lines = (tmp_path / "soft_oracle.csv").read_text().splitlines()
    assert lines[0] == "agent,u_1,u_2,u_3,map_label"
    assert len(lines) == 1 + 6
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i + 1                      # 1-based agents
        np.testing.assert_array_equal(
            np.array([float(c) for c in cells[1:4]]), out.posterior[i])
        assert int(cells[4]) == out.labels[i] + 1          # 1-based labels


# every state count from C = 2 to 7
STACK_MODELS = MODELS + [sg.social_ranking_model(4, 5), sg.social_ranking_model(5, 3),
                         sg.social_ranking_model(6, 3), sg.categorical_model(7, 2)]


def _stack_points(model, rng, n_points=12):
    """Interior points, gamma = 0 rows (scalar gamma) and, for the categorical
    model, score and prior masses of 0 at the simplex vertices."""
    points = np.array([model.feasible.sample_interior(rng, 0.0) for _ in range(n_points)])
    if model.gamma_dim == 1:
        points[:3, -1] = 0.0
    if model.name == "categorical":
        points[:4] = model.feasible.project(3.0 * points[:4] - 1.0)
        assert (points[:4] == 0.0).any()
    return points


def _classify_alone(counts, model, z):
    """soft_classify at one point: its output, or the message it raises."""
    try:
        return sg.soft_classify(counts, model, *model.feasible.split(z))
    except DegenerateModelError as exc:
        return str(exc)


@pytest.mark.parametrize("model", STACK_MODELS, ids=lambda m: f"{m.name}-{m.n_states}-{m.n_scores}")
def test_a_stacked_pass_equals_per_point_calls(model):
    # the sweep classifies the oracle and every estimate in one stacked call;
    # at R = 5 the mutual product has K = 25 >= 16 score entries
    rng = np.random.default_rng(197)
    seen_degenerate = False
    for n_edges in (50, 500, 2450):
        g = sg.sample_score_graph(50, n_edges, "cyclic-plus-random-edges", rng)
        theta, gamma = model.feasible.split(model.feasible.sample_interior(rng))
        scored, _ = sg.generate_scores(g, model, theta, gamma, rng)
        counts = sg.aggregate_counts(scored)
        points = _stack_points(model, rng)
        alone = [_classify_alone(counts, model, z) for z in points]
        errors = [out for out in alone if isinstance(out, str)]
        seen_degenerate |= bool(errors)
        if errors:   # the first degenerate point raises what it raises alone
            with pytest.raises(DegenerateModelError) as info:
                _soft_classify(counts, model, *model.feasible.split(points))
            assert str(info.value) == errors[0]
        fine = np.array([z for z, out in zip(points, alone) if not isinstance(out, str)])
        want = [out for out in alone if not isinstance(out, str)]
        for stack in (fine, fine[:4].reshape(2, 2, -1)):
            got = _soft_classify(counts, model, *model.feasible.split(stack))
            for field in ("posterior", "labels", "log_unnormalized"):
                rows = getattr(got, field).reshape((-1,) + getattr(want[0], field).shape)
                for k, row in enumerate(rows):
                    expected = getattr(want[k], field)
                    assert row.dtype == expected.dtype
                    assert row.tobytes() == expected.tobytes(), (n_edges, field, k)
    # gamma = 0 leaves the preparata mixed scores impossible
    assert seen_degenerate or model.name != "preparata"


@pytest.mark.parametrize("model", STACK_MODELS, ids=lambda m: f"{m.name}-{m.n_states}-{m.n_scores}")
def test_a_pass_over_several_trials_equals_each_trials_pass(model):
    # a sweep chunk classifies the points (P, L, dim) of P trials, each on
    # its own counts, in one call
    rng = np.random.default_rng(199)
    counts, points = [], []
    for n_edges in (50, 500, 2450):
        g = sg.sample_score_graph(50, n_edges, "cyclic-plus-random-edges", rng)
        theta, gamma = model.feasible.split(model.feasible.sample_interior(rng))
        scored, _ = sg.generate_scores(g, model, theta, gamma, rng)
        counts.append(sg.aggregate_counts(scored))
        points.append(np.array([model.feasible.sample_interior(rng) for _ in range(3)]))
    points = np.array(points)
    got = _soft_classify(counts, model, *model.feasible.split(points))
    for p, (c, z) in enumerate(zip(counts, points)):
        want = _soft_classify(c, model, *model.feasible.split(z))
        for field in ("posterior", "labels", "log_unnormalized"):
            a, b = getattr(got, field)[p], getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (p, field)
    if model.name == "preparata":
        # gamma = 0 leaves mixed scores impossible: the first degenerate trial
        # raises what its own pass raises
        bad = points.copy()
        bad[1:, 2, -1] = 0.0
        with pytest.raises(DegenerateModelError) as info:
            _soft_classify(counts, model, *model.feasible.split(bad))
        with pytest.raises(DegenerateModelError) as alone:
            _soft_classify(counts[1], model, *model.feasible.split(bad[1]))
        assert str(info.value) == str(alone.value)
