"""Push-sum consensus plus local gradient steps, simulated synchronously."""

import json
import warnings

import numpy as np
import pytest

import scoregraph as sg
from scoregraph.distributed import DistributedRun, DistributedState, _powers, _quadratic_rows
from scoregraph.errors import NonFiniteError
from scoregraph.estimators import _fr_gradient
from scoregraph.experiments import ExperimentConfig, run_single

from oracles import push_sum_round_by_definition


def _fixture(seed=101):
    rng = np.random.default_rng(seed)
    g = sg.sample_score_graph(10, 34, "cyclic-plus-random-edges", rng)
    model = sg.preparata_model()
    scored, _ = sg.generate_scores(g, model, (), (0.35,), rng)
    return scored, sg.aggregate_counts(scored), model


def _round_0(counts, model, schedule):
    """run_distributed's round-0 state: local histograms, every agent at the centroid."""
    return sg.run_distributed(counts, model, schedule, alpha=1.0, n_rounds=0).state


class TestPushSumRound:
    def test_hand_worked_exchange(self):
        # two agents, one score value, full swap frame: both end up at the
        # average and the ratio estimates hit the global mean in one round
        state = DistributedState(xi=np.array([[2.0], [0.0]]),
                                 eta=np.array([1.0, 1.0]),
                                 z=np.zeros((2, 1)))
        nxt = push_sum_round_by_definition(
            state, sg.CommSchedule(2, ([(0, 1), (1, 0)],), 1), 0)
        np.testing.assert_allclose(nxt.xi, [[1.0], [1.0]])
        np.testing.assert_allclose(nxt.eta, [1.0, 1.0])
        np.testing.assert_allclose(nxt.phi, [[1.0], [1.0]])

    def test_identical_agents_are_a_fixed_point(self):
        n = 5
        frame = [(i, j) for i in range(n) for j in range(n) if i != j]
        state = DistributedState(xi=np.tile([[0.3, 0.7]], (n, 1)),
                                 eta=np.full(n, 2.0),
                                 z=np.zeros((n, 1)))
        nxt = push_sum_round_by_definition(state, sg.CommSchedule(n, (frame,), 1), 0)
        np.testing.assert_allclose(nxt.xi, state.xi, atol=1e-15)
        np.testing.assert_allclose(nxt.eta, state.eta, atol=1e-15)

    def test_mixing_matrix_is_the_round_by_definition(self):
        # the cached matrix that run_distributed multiplies [xi | eta] by;
        # the second schedule repeats an edge and has a self loop
        scored, counts, model = _fixture()
        part = sg.make_comm_schedule(10, "periodic-edge-partition", 3,
                                     rng=np.random.default_rng(102))
        odd = sg.CommSchedule(10, (np.vstack([scored.edges, scored.edges[:3], [[4, 4]]]),), 1)
        for sched in (part, odd):
            state = _round_0(counts, model, sched)
            for t in range(sched.n_frames):
                want = push_sum_round_by_definition(state, sched, t)
                got = sched.matrix(t) @ np.column_stack([state.xi, state.eta])
                np.testing.assert_allclose(got[:, :-1], want.xi, rtol=1e-14, atol=0)
                np.testing.assert_allclose(got[:, -1], want.eta, rtol=1e-14, atol=0)

    def test_mass_conservation_over_many_rounds(self):
        scored, counts, model = _fixture()
        sched = sg.make_comm_schedule(10, "periodic-edge-partition", 3,
                                      rng=np.random.default_rng(102))
        state = _round_0(counts, model, sched)
        xi_total = state.xi.sum(axis=0).copy()
        eta_total = state.eta.sum()
        for t in range(120):
            state = push_sum_round_by_definition(state, sched, t)
            np.testing.assert_allclose(state.xi.sum(axis=0), xi_total,
                                       rtol=1e-12)
            assert state.eta.sum() == pytest.approx(eta_total, rel=1e-12)
            assert np.all(state.eta > 0)

    def test_ratios_reach_global_histogram(self):
        scored, counts, model = _fixture()
        sched = sg.CommSchedule(10, (scored.edges,), 1)
        state = _round_0(counts, model, sched)
        target = counts.phi
        for t in range(200):
            state = push_sum_round_by_definition(state, sched, t)
        assert np.abs(state.phi - target[None, :]).max() < 1e-10

    def test_partition_schedule_mixes_slower_but_still_converges(self):
        scored, counts, model = _fixture()
        sched = sg.make_comm_schedule(10, "periodic-edge-partition", 3,
                                      rng=np.random.default_rng(102))
        state = _round_0(counts, model, sched)
        errs = []
        for t in range(900):
            state = push_sum_round_by_definition(state, sched, t)
            if t % 300 == 299:
                errs.append(np.abs(state.phi - counts.phi[None, :]).max())
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


class TestInitialState:
    def test_default_start_is_the_centroid(self):
        scored, counts, model = _fixture()
        sched = sg.CommSchedule(10, (scored.edges,), 1)
        run = sg.run_distributed(counts, model, sched, alpha=0.02, n_rounds=0)
        np.testing.assert_array_equal(run.state.xi, counts.received)
        np.testing.assert_array_equal(run.state.eta, counts.in_degree)
        np.testing.assert_allclose(run.final_z,
                                   np.tile(model.feasible.centroid(), (10, 1)))


class TestLocalGradientStep:
    def test_zero_stepsize_is_identity(self):
        model = sg.preparata_model()
        for gval in (0.1, 0.5, 0.9):
            out = sg.local_gradient_step(np.array([gval]),
                                         np.array([0.6, 0.4]), model, 0.0)
            np.testing.assert_allclose(out, [gval], atol=1e-15)

    def test_hand_worked_scalar_step(self):
        # binary model, phi = (0.55, 0.45), gamma = 0.6:
        # cost derivative = -0.55 * (-0.3)/0.46 - 0.45 * 0.3/0.54
        model = sg.preparata_model()
        out = sg.local_gradient_step(np.array([0.6]),
                                     np.array([0.55, 0.45]), model, 0.01)
        grad = -0.55 * (-0.3) / 0.46 - 0.45 * 0.3 / 0.54
        assert out[0] == pytest.approx(0.6 - 0.01 * grad, abs=1e-12)

    def test_minimizer_is_a_fixed_point(self):
        model = sg.preparata_model()
        q = 0.45
        star = sg.fr_binary_closed_form(q)
        out = sg.local_gradient_step(np.array([star]), np.array([1 - q, q]),
                                     model, 0.05)
        assert out[0] == pytest.approx(star, abs=1e-12)
        assert np.linalg.norm(np.array([star]) - out) < 1e-12

    def test_projection_clamps_to_the_box(self):
        model = sg.preparata_model()
        out = sg.local_gradient_step(np.array([0.02]),
                                     np.array([0.0, 1.0]), model, 10.0)
        assert 0.0 <= out[0] <= 1.0

    def test_infinite_cost_names_the_offending_agent(self):
        # preparata at gamma = 0 gives score 1 zero probability, so an agent
        # there whose phi puts mass on score 1 has cost +inf
        model = sg.preparata_model()
        z = np.full((6, 1), 0.5)
        z[3] = 0.0
        phi = np.tile([0.5, 0.5], (6, 1))
        with pytest.raises(NonFiniteError, match=r"agent 3\b"):
            sg.local_gradient_step(z, phi, model, 0.01)
        with pytest.raises(NonFiniteError, match="at this point"):
            sg.local_gradient_step(z[3], phi[3], model, 0.01)

    def test_alpha_must_be_a_nonnegative_finite_real_scalar(self):
        model = sg.reliability_model(5)
        z, phi = np.array([0.3]), np.full(5, 0.2)
        for alpha in (np.nan, -0.1, np.inf, np.array([0.1]), np.array(0.1), "0.1", 0.1 + 0j):
            with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
                sg.local_gradient_step(z, phi, model, alpha)
        want = sg.local_gradient_step(z, phi, model, 0.1)
        for alpha in (0, np.int64(0), np.float32(0.0)):
            np.testing.assert_array_equal(sg.local_gradient_step(z, phi, model, alpha), z)
        np.testing.assert_array_equal(sg.local_gradient_step(z, phi, model, np.float64(0.1)), want)

    def test_z_and_phi_must_agree_on_the_number_of_agents(self):
        ranking = sg.social_ranking_model(3, 3)
        centroid = ranking.feasible.centroid()
        cases = [(sg.reliability_model(5), np.full(1, 0.3), np.full((2, 5), 0.2)),
                 (sg.reliability_model(5), np.full((3, 1), 0.3), np.full((2, 5), 0.2)),
                 (sg.reliability_model(5), np.full((2, 1), 0.3), np.full(5, 0.2)),
                 (ranking, centroid, np.full((2, 3), 1 / 3)),
                 (ranking, np.tile(centroid, (3, 1)), np.full((2, 3), 1 / 3)),
                 (ranking, np.tile(centroid, (2, 1)), np.full(3, 1 / 3))]
        for model, z, phi in cases:
            with pytest.raises(ValueError, match="z and phi disagree on the number of agents"):
                sg.local_gradient_step(z, phi, model, 0.01)


def _reference_run(counts, model, schedule, alpha, n_rounds):
    """The per-agent loop: every round steps each agent's 1-D row on its own,
    with the pre-round phi, then mixes."""
    def step_all(z, phi):
        return np.array([sg.local_gradient_step(z[i], phi[i], model, alpha)
                         for i in range(z.shape[0])])

    xi = counts.received.astype(np.float64)
    eta = counts.in_degree.astype(np.float64)
    z = np.tile(model.feasible.centroid(), (counts.n_agents, 1))
    phi = xi / eta[:, None]
    phi_traj = [phi]
    for t in range(n_rounds):
        mat = schedule.matrix(t)
        z = step_all(z, phi)
        xi, eta = mat @ xi, mat @ eta
        phi = xi / eta[:, None]
        phi_traj.append(phi)
    return z, np.asarray(phi_traj)


ALL_MODELS = (sg.preparata_model(), sg.reliability_model(5),
              sg.social_ranking_model(3, 3), sg.categorical_model(2, 3))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_round_step_equals_the_solver_gradient(model):
    # theta-free tensors take the round's own 2-D products, equal to the
    # solver's per-point kernel up to rounding; the rest take that kernel
    rng = np.random.default_rng(37)
    z = np.array([model.feasible.sample_interior(rng) for _ in range(12)])
    phi = rng.dirichlet(np.ones(model.n_scores), size=12)
    alpha = 0.02

    def per_agent(z, phi):
        theta, gamma = model.feasible.split(z)
        return np.array([model.feasible.project(
            z[i] - alpha * sg.fr_gradient(phi[i], model, theta[i], gamma[i]))
            for i in range(len(z))])

    got = sg.local_gradient_step(z, phi, model, alpha)
    if model.theta_dim:
        np.testing.assert_array_equal(got, per_agent(z, phi))
    else:
        np.testing.assert_allclose(got, per_agent(z, phi), rtol=1e-14, atol=0)
        # one more agent at gamma = 0, where the top score has t = 0: the
        # round steps through the kernel, finite while that agent's phi
        # puts no mass there, +inf cost naming it once it does
        edge_z = np.vstack([z, [0.0]])
        low = model.n_scores - 1
        edge_phi = np.vstack([phi, np.append(np.full(low, 1 / low), 0.0)])
        got = sg.local_gradient_step(edge_z, edge_phi, model, alpha)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, per_agent(edge_z, edge_phi), rtol=1e-14, atol=0)
        edge_phi[-1] = 1.0 / model.n_scores
        with pytest.raises(NonFiniteError, match=r"agent 12\b"):
            sg.local_gradient_step(edge_z, edge_phi, model, alpha)


@pytest.mark.parametrize("model", ALL_MODELS,
                         ids=lambda m: f"{m.name}-pre-phi")     # each step uses the pre-round phi
def test_batched_round_matches_the_per_agent_loop(model):
    rng = np.random.default_rng(31)
    g = sg.sample_score_graph(12, 40, "cyclic-plus-random-edges", rng)
    theta, gamma = model.feasible.split(model.feasible.sample_interior(rng))
    scored, _ = sg.generate_scores(g, model, theta, gamma, rng)
    counts = sg.aggregate_counts(scored)
    sched = sg.make_comm_schedule(12, "periodic-edge-partition", 3, rng=rng)
    alpha = 0.02
    run = sg.run_distributed(counts, model, sched, alpha=alpha, n_rounds=200)
    ref_z, ref_phi = _reference_run(counts, model, sched, alpha, 200)
    np.testing.assert_allclose(run.final_z, ref_z, rtol=0, atol=1e-12)
    np.testing.assert_allclose(run.phi_traj, ref_phi, rtol=0, atol=1e-12)


def _flat_table_step(z, phi, model, alpha):
    """The round's step before the closed form in gamma: p = prior(gamma),
    t = vec(p p^T) flat(T)^T, r = phi / t, q = r flat(T + T^T) and the
    gradient -dprior (q p), then the projection; the kernel where some t_h <= 0."""
    theta, gamma = model.feasible.split(z)
    tensor = model.tensor_fn(theta)
    flat = tensor.reshape(len(tensor), -1)
    prior = model.prior_fn(gamma)
    t = (prior[:, :, None] * prior[:, None, :]).reshape(len(z), -1) @ np.ascontiguousarray(flat.T)
    if t.min() > 0:
        q = ((phi / t) @ (tensor + tensor.swapaxes(1, 2)).reshape(flat.shape)).reshape(-1, 2, 2)
        grad = -np.einsum("...lm,...kl,...m->...k", q, model.prior_grad_fn(gamma), prior)
    else:
        grad = _fr_gradient(phi, model, theta, gamma)
    return model.feasible.project(z - alpha * grad)


def _flat_table_run(counts, model, schedule, alpha, n_rounds):
    """run_distributed's loop around _flat_table_step: (phi_traj, z_traj)."""
    z = np.tile(model.feasible.centroid(), (counts.n_agents, 1))
    acc = np.column_stack([counts.received, counts.in_degree]).astype(np.float64)
    phis, zs = [acc[:, :-1] / acc[:, -1:]], [z]
    for t in range(n_rounds):
        zs.append(_flat_table_step(zs[-1], phis[-1], model, alpha))
        acc = schedule.matrices[t % len(schedule.matrices)] @ acc
        phis.append(acc[:, :-1] / acc[:, -1:])
    return np.asarray(phis), np.asarray(zs)


QUADRATIC_MODELS = (sg.preparata_model(), sg.reliability_model(5), sg.reliability_model(16))


@pytest.mark.parametrize("model", QUADRATIC_MODELS, ids=lambda m: f"{m.name}-{m.n_scores}")
def test_quadratic_round_follows_the_flat_table_round(model):
    # the distributed-n50 instance shape: N = 50, 500 edges, periodic Q = 3, 500 rounds
    rng = np.random.default_rng(53)
    graph = sg.sample_score_graph(50, 500, "cyclic-plus-random-edges", rng)
    counts = sg.aggregate_counts(sg.generate_scores(graph, model, (), (0.3,), rng)[0])
    sched = sg.make_comm_schedule(50, "periodic-edge-partition", 3, rng=rng)
    run = sg.run_distributed(counts, model, sched, n_rounds=500, rng=53)
    ref_phi, ref_z = _flat_table_run(counts, model, sched, run.alpha, 500)
    np.testing.assert_array_equal(run.phi_traj, ref_phi)
    np.testing.assert_allclose(run.z_traj, ref_z, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(run.final_z, run.z_traj[-1])
    # at gamma = 0 t is T[:, 0, 0] exactly, so the +inf boundary (t_h = 0) is
    # met where the flat-table round meets it
    table, _ = _quadratic_rows(model, np.empty((1, 0)), run.alpha)
    tensor = model.tensor_fn(())
    np.testing.assert_array_equal(_powers(np.zeros((1, 1))) @ table, tensor[None, :, 0, 0])
    edge = np.array([[0.0], [0.5]])
    phi = np.vstack([np.append(np.full(model.n_scores - 1, 1 / (model.n_scores - 1)), 0.0),
                     np.full(model.n_scores, 1 / model.n_scores)])
    np.testing.assert_array_equal(sg.local_gradient_step(edge, phi, model, run.alpha),
                                  _flat_table_step(edge, phi, model, run.alpha))
    with pytest.raises(NonFiniteError, match=r"agent 0\b"):
        sg.local_gradient_step(edge, phi[::-1], model, run.alpha)


def _per_round_step(powers, phi, model, alpha, rows):
    """The checked quadratic step of _per_round_run, in place on powers (see
    _powers): the closed form where every t_h > 0, else the solver's kernel."""
    t = powers @ rows[0]
    gamma = powers[..., 1:2]
    if t.min() > 0:
        stepped = gamma + np.vecdot((phi / t) @ rows[1], powers[..., :2], keepdims=True)
    else:
        stepped = gamma - alpha * _fr_gradient(phi, model, *model.feasible.split(gamma))
    np.maximum(stepped, model.feasible.bounds[0], out=gamma)
    np.minimum(gamma, model.feasible.bounds[1], out=gamma)
    np.square(gamma, out=powers[..., 2:])
    return gamma


def _per_round_run(counts, model, schedule, alpha, n_rounds, record_every=1):
    """run_distributed one round at a time: a checked step, mats[t % Q] @ acc
    and a divide every round.  (times, phi_traj, z_traj, acc, final z)."""
    times = np.unique(np.append(np.arange(0, n_rounds + 1, record_every), n_rounds))
    phi_traj = np.empty((times.size,) + counts.received.shape)
    z = np.tile(model.feasible.centroid(), (counts.n_agents, 1))
    z_traj = np.empty((times.size,) + z.shape)
    z_traj[0] = z
    acc = np.column_stack([counts.received, counts.in_degree]).astype(np.float64)
    phi = np.divide(acc[:, :-1], acc[:, -1:], out=phi_traj[0])
    if (rows := _quadratic_rows(model, model.feasible.split(z)[0], alpha)) is not None:
        powers = _powers(z)
    mats = schedule.matrices
    k = 1
    for t in range(n_rounds):
        try:
            if rows is None:
                z = model.feasible.project(
                    z - alpha * _fr_gradient(phi, model, *model.feasible.split(z)))
            else:
                z = _per_round_step(powers, phi, model, alpha, rows)
        except NonFiniteError as exc:
            raise NonFiniteError(f"round {t}: {exc}") from exc
        acc = mats[t % len(mats)] @ acc
        phi = acc[:, :-1] / acc[:, -1:]
        if t + 1 == times[k]:
            phi_traj[k], z_traj[k] = phi, z
            k += 1
    return times, phi_traj, z_traj, acc, np.ascontiguousarray(z)


def _assert_same_run(run, ref):
    times, phi_traj, z_traj, acc, z = ref
    for got, want in ((run.times, times), (run.phi_traj, phi_traj), (run.z_traj, z_traj),
                      (run.state.xi, acc[:, :-1]), (run.state.eta, acc[:, -1]), (run.final_z, z)):
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


BLOCK_MODELS = (sg.reliability_model(5), sg.reliability_model(16), sg.preparata_model(),
                sg.social_ranking_model(3, 3), sg.categorical_model(2, 3))


@pytest.mark.parametrize("model", BLOCK_MODELS, ids=lambda m: f"{m.name}-{m.n_scores}")
def test_blocks_of_rounds_keep_the_per_round_bits(model):
    # run lengths below, at and across the 64-round block, snapshot strides
    # inside a block, across blocks and past the run
    rng = np.random.default_rng(31)
    g = sg.sample_score_graph(12, 40, "cyclic-plus-random-edges", rng)
    theta, gamma = model.feasible.split(model.feasible.sample_interior(rng))
    counts = sg.aggregate_counts(sg.generate_scores(g, model, theta, gamma, rng)[0])
    sched = sg.make_comm_schedule(12, "periodic-edge-partition", 3, rng=rng)
    for n_rounds in (0, 1, 63, 64, 65, 130, 500):
        for every in (1, 7, n_rounds + 1):
            run = sg.run_distributed(counts, model, sched, alpha=0.02, n_rounds=n_rounds,
                                     record_every=every)
            _assert_same_run(run, _per_round_run(counts, model, sched, 0.02, n_rounds, every))


def test_blocks_keep_the_per_round_bits_at_n300():
    # a dense 300 x 300 mixing product per round, snapshots across blocks
    model = sg.reliability_model(5)
    rng = np.random.default_rng(43)
    g = sg.sample_score_graph(300, 3000, "cyclic-plus-random-edges", rng)
    counts = sg.aggregate_counts(sg.generate_scores(g, model, (), (0.3,), rng)[0])
    sched = sg.make_comm_schedule(300, "periodic-edge-partition", 3, rng=rng)
    run = sg.run_distributed(counts, model, sched, n_rounds=130, record_every=7, rng=43)
    _assert_same_run(run, _per_round_run(counts, model, sched, run.alpha, 130, 7))


@pytest.mark.parametrize("model", QUADRATIC_MODELS, ids=lambda m: f"{m.name}-{m.n_scores}")
def test_local_step_keeps_the_per_round_bits(model):
    # interior agents, and one at gamma = 0 with no mass on the top score,
    # whose t_h = 0 sends the whole step through the kernel
    rng = np.random.default_rng(47)
    rows = _quadratic_rows(model, np.empty((1, 0)), 0.05)
    z = rng.uniform(0.05, 0.95, size=(20, 1))
    phi = rng.dirichlet(np.ones(model.n_scores), size=20)
    edge_z = np.vstack([z, [0.0]])
    edge_phi = np.vstack([phi, np.append(rng.dirichlet(np.ones(model.n_scores - 1)), 0.0)])
    for zs, phis in ((z, phi), (edge_z, edge_phi)):
        want = _per_round_step(_powers(zs), phis, model, 0.05, rows)
        np.testing.assert_array_equal(sg.local_gradient_step(zs, phis, model, 0.05), want)
        for i in (0, len(zs) - 1):
            want = _per_round_step(_powers(zs[i]), phis[i], model, 0.05, rows)
            got = sg.local_gradient_step(zs[i], phis[i], model, 0.05)
            assert got.shape == (1,)
            np.testing.assert_array_equal(got, want)


def _late_infinity():
    """Reliability(5) counts where agent 4 received only score 0, under a
    schedule of 70 empty frames and then the complete one (window 71): agent
    4 steps to gamma = 0, where score 4 has probability 0, and mixing brings
    it score-4 mass only in round 70."""
    edges = [(0, 4), (1, 4), (4, 0), (2, 0), (3, 0), (4, 1), (5, 1), (4, 2), (5, 2),
             (0, 3), (2, 3), (1, 5), (3, 5)]
    scores = [0, 0, 1, 2, 3, 2, 4, 1, 3, 2, 4, 3, 1]
    counts = sg.aggregate_counts(sg.ScoreGraph(6, 5, np.array(edges), np.array(scores)))
    complete = [(i, j) for i in range(6) for j in range(6) if i != j]
    return counts, sg.reliability_model(5), sg.CommSchedule(6, ([],) * 70 + (complete,), 71)


def test_a_failed_block_check_reruns_the_block_round_by_round():
    # agent 4 sits at gamma = 0 with t_4 = 0 within the first block, so each block
    # fails its check; with no score-4 mass its cost stays finite, and the
    # rerun gives the per-round bits without a warning
    counts, model, sched = _late_infinity()
    ref = _per_round_run(counts, model, sched, 0.2, 71)
    assert ref[2][63, 4, 0] == 0.0 and ref[2][-1, 4, 0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_run(sg.run_distributed(counts, model, sched, alpha=0.2, n_rounds=71), ref)


def test_an_infinite_cost_past_the_first_block_names_the_per_round_round_and_agent():
    counts, model, sched = _late_infinity()
    with pytest.raises(NonFiniteError) as want:
        _per_round_run(counts, model, sched, 0.2, 200)
    assert str(want.value) == "round 71: fully-relaxed cost is +inf at agent 4"
    for every in (1, 50, 201):
        with pytest.raises(NonFiniteError) as got:
            sg.run_distributed(counts, model, sched, alpha=0.2, n_rounds=200, record_every=every)
        assert str(got.value) == str(want.value)


def test_only_theta_free_bernoulli_tables_take_the_closed_form():
    for model in QUADRATIC_MODELS:
        assert _quadratic_rows(model, np.empty((3, 0)), 0.1) is not None
    for model in ALL_MODELS[2:]:
        theta = model.feasible.split(model.feasible.centroid())[0]
        assert _quadratic_rows(model, theta, 0.1) is None


def test_spread_is_the_pairwise_max_norm_bit_for_bit():
    rng = np.random.default_rng(59)
    stacks = [rng.normal(size=shape) for shape in ((1, 1), (1, 3), (2, 1), (7, 2), (50, 1), (300, 3))]
    stacks += [rng.choice([0.0, -0.0, 0.25, -0.25], size=(n, 2)) for n in (1, 2, 5, 16, 50)]
    stacks += [np.full((4, 1), 0.7), np.array([[0.0], [-0.0]]), np.array([[-0.0], [0.0], [-0.0]])]
    for z in stacks:
        run = DistributedRun(times=np.zeros(1, dtype=np.int64), phi_traj=np.empty((1, len(z), 2)),
                             z_traj=z[None], alpha=1.0, n_rounds=0,
                             state=DistributedState(xi=np.ones((len(z), 2)), eta=np.ones(len(z)), z=z))
        pairwise = np.abs(z[:, None, :] - z[None, :, :]).max(axis=2).max()
        assert np.float64(run.spread()).tobytes() == pairwise.tobytes(), z


class TestRunDistributed:
    def test_trajectory_shapes_and_times(self):
        scored, counts, model = _fixture()
        sched = sg.CommSchedule(10, (scored.edges,), 1)
        run = sg.run_distributed(counts, model, sched, alpha=0.02,
                                 n_rounds=50, record_every=10)
        np.testing.assert_array_equal(run.times, [0, 10, 20, 30, 40, 50])
        assert run.phi_traj.shape == (6, 10, 2)
        assert run.z_traj.shape == (6, 10, 1)
        assert run.alpha == 0.02 and run.n_rounds == 50
        np.testing.assert_allclose(run.final_z, run.z_traj[-1])

    def test_snapshots_land_in_preallocated_trajectories(self):
        scored, counts, model = _fixture()
        sched = sg.make_comm_schedule(10, "periodic-edge-partition", 3,
                                      rng=np.random.default_rng(103))
        every = sg.run_distributed(counts, model, sched, alpha=0.02, n_rounds=25)
        run = sg.run_distributed(counts, model, sched, alpha=0.02, n_rounds=25,
                                 record_every=10)
        np.testing.assert_array_equal(run.times, [0, 10, 20, 25])
        assert run.times.dtype == np.int64
        np.testing.assert_array_equal(every.times, np.arange(26))
        np.testing.assert_array_equal(run.phi_traj, every.phi_traj[run.times])
        np.testing.assert_array_equal(run.z_traj, every.z_traj[run.times])
        for k, t in enumerate(run.times):
            # snapshot k is the state after round t, as a run cut there ends
            cut = sg.run_distributed(counts, model, sched, alpha=0.02, n_rounds=int(t))
            np.testing.assert_array_equal(run.z_traj[k], cut.final_z)
            np.testing.assert_array_equal(run.phi_traj[k], cut.state.phi)
        np.testing.assert_array_equal(
            sg.run_distributed(counts, model, sched, alpha=0.02, n_rounds=0).times, [0])

    def test_phi_trajectory_is_the_push_sum_alone(self):
        # the local steps never feed back into the exchange, bit for bit
        _, counts, model = _fixture()
        sched = sg.make_comm_schedule(10, "periodic-edge-partition", 3,
                                      rng=np.random.default_rng(104))
        run = sg.run_distributed(counts, model, sched, n_rounds=60)
        slow = sg.run_distributed(counts, model, sched, alpha=run.alpha / 10, n_rounds=60)
        assert not np.array_equal(run.z_traj, slow.z_traj)
        np.testing.assert_array_equal(run.phi_traj, slow.phi_traj)
        state = _round_0(counts, model, sched)
        phis = [state.phi]
        for t in range(60):
            state = push_sum_round_by_definition(state, sched, t)
            phis.append(state.phi)
        np.testing.assert_allclose(run.phi_traj, np.asarray(phis), rtol=0, atol=1e-12)

    def test_agents_agree_with_the_centralized_solution(self):
        scored, counts, model = _fixture()
        sched = sg.CommSchedule(10, (scored.edges,), 1)
        run = sg.run_distributed(counts, model, sched, alpha=0.02,
                                 n_rounds=3000, record_every=3000)
        assert run.spread() < 1e-12
        star = sg.fr_binary_closed_form(counts.phi[1])
        assert np.abs(run.final_z - star).max() < 1e-9

    def test_schedule_choice_does_not_move_the_limit(self):
        scored, counts, model = _fixture()
        static = sg.CommSchedule(10, (scored.edges,), 1)
        part = sg.make_comm_schedule(10, "periodic-edge-partition", 3,
                                     rng=np.random.default_rng(102))
        a = sg.run_distributed(counts, model, static, alpha=0.02, n_rounds=3000,
                               record_every=3000)
        b = sg.run_distributed(counts, model, part, alpha=0.02, n_rounds=3000,
                               record_every=3000)
        assert np.abs(a.final_z - b.final_z).max() < 1e-9

    def test_disagreement_shrinks_with_more_rounds(self):
        scored, counts, model = _fixture()
        part = sg.make_comm_schedule(10, "periodic-edge-partition", 3,
                                     rng=np.random.default_rng(102))
        early = sg.run_distributed(counts, model, part, alpha=0.02,
                                   n_rounds=50, record_every=50)
        late = sg.run_distributed(counts, model, part, alpha=0.02,
                                  n_rounds=500, record_every=500)
        assert late.spread() < early.spread() / 10

    def test_input_validation(self):
        scored, counts, model = _fixture()
        bad_sched = sg.make_comm_schedule(7, "static-complete")
        with pytest.raises(ValueError):
            sg.run_distributed(counts, model, bad_sched, alpha=0.02)
        sched = sg.CommSchedule(10, (scored.edges,), 1)
        with pytest.raises(ValueError):
            sg.run_distributed(counts, sg.reliability_model(5), sched,
                               alpha=0.02)
        for bad in (dict(record_every=0), dict(n_rounds=-1), dict(record_every=2.5),
                    dict(n_rounds=2.5)):
            with pytest.raises(ValueError):
                sg.run_distributed(counts, model, sched, alpha=0.02, **bad)
        for alpha in (0.0, -0.05, float("nan"), float("inf"), np.array([0.1]), np.array(0.1),
                      "0.1", 0.1 + 0j):
            with pytest.raises(ValueError, match="alpha must be positive"):
                sg.run_distributed(counts, model, sched, alpha=alpha)
        for alpha in (1, np.int64(1), np.float32(0.02), np.float64(0.02)):    # real scalars
            assert sg.run_distributed(counts, model, sched, alpha=alpha, n_rounds=1).alpha == alpha

    def test_infinite_cost_names_the_round_and_agent(self):
        _, counts, model = _fixture()
        sched = sg.make_comm_schedule(10, "static-cycle")
        # a unit step from the centroid clips the one agent that mostly
        # received low scores to gamma = 0, where the high score that mixing
        # brings it in round 1 has probability 0
        state = _round_0(counts, model, sched)
        stepped = sg.local_gradient_step(state.z, state.phi, model, 1.0)
        agent = int(np.flatnonzero(stepped[:, 0] == 0.0)[0])
        with pytest.raises(NonFiniteError,
                           match=rf"^round 1: .*agent {agent}\b"):
            sg.run_distributed(counts, model, sched, alpha=1.0, n_rounds=5)

    def test_default_stepsize_is_deterministic(self):
        scored, counts, model = _fixture()
        sched = sg.CommSchedule(10, (scored.edges,), 1)
        a = sg.run_distributed(counts, model, sched, n_rounds=5, rng=9)
        b = sg.run_distributed(counts, model, sched, n_rounds=5, rng=9)
        assert a.alpha == b.alpha
        np.testing.assert_array_equal(a.final_z, b.final_z)


def test_trajectory_csv_layout(tmp_path):
    cfg = ExperimentConfig(model="social-ranking", n_agents=4, sweep=(9,), trials=1,
                           estimators=("FR-distributed",), master_seed=11,
                           solver_alpha=0.01, solver_rounds=6)
    single = run_single(cfg)
    sg.emit_single_outputs(single, tmp_path)
    run = single.details["FR-distributed"]
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,agent,phi_1,phi_2,phi_3,theta_1,gamma_1"
    assert len(lines) == 1 + 4 * len(run.times)
    row = lines[1].split(",")
    assert row[0] == "0" and row[1] == "1"
    np.testing.assert_array_equal([float(x) for x in row[2:5]], run.phi_traj[0, 0])
    np.testing.assert_array_equal([float(x) for x in row[5:]], run.z_traj[0, 0])
    meta = json.loads((tmp_path / "trajectory.csv.meta.json").read_text())
    assert meta["alpha"] == 0.01
    assert meta["snapshots"] == [0, 1, 2, 3, 4, 5, 6]
    assert meta["model"] == "social-ranking"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_categorical_three_states_on_a_sparse_graph_runs_clean(seed):
    # a reported failure: FR-distributed on categorical C = R = 3 with N = 20
    # agents and 20 edges raised NonFiniteError from one agent's local step
    cfg = ExperimentConfig(model="categorical", n_states=3, n_scores=3, n_agents=20,
                           sweep=(20,), trials=1, estimators=("FR-distributed",),
                           comm_family="static-complete", master_seed=seed)
    run = run_single(cfg).details["FR-distributed"]
    assert run.n_rounds == cfg.solver_rounds
    feas = sg.categorical_model(3, 3).feasible
    assert all(np.all(np.isfinite(z)) and feas.contains(z) for z in run.final_z)
