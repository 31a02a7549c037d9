"""Push-sum consensus plus local gradient steps, simulated synchronously."""

import json

import numpy as np
import pytest

import scoregraph as sg
from scoregraph.distributed import DistributedState, initial_state, push_sum_round
from scoregraph.errors import InfeasibleError, NonFiniteError
from scoregraph.experiments import ExperimentConfig, run_single


def _fixture(seed=101):
    rng = np.random.default_rng(seed)
    g = sg.sample_score_graph(10, 34, "cyclic-plus-random-edges", rng)
    model = sg.preparata_model()
    scored, _ = sg.generate_scores(g, model, (), (0.35,), rng)
    return scored, sg.aggregate_counts(scored), model


class TestPushSumRound:
    def test_hand_worked_exchange(self):
        # two agents, one score value, full swap frame: both end up at the
        # average and the ratio estimates hit the global mean in one round
        state = DistributedState(xi=np.array([[2.0], [0.0]]),
                                 eta=np.array([1.0, 1.0]),
                                 z=np.zeros((2, 1)))
        nxt = push_sum_round(state, sg.CommSchedule(2, ([(0, 1), (1, 0)],), 1), 0)
        np.testing.assert_allclose(nxt.xi, [[1.0], [1.0]])
        np.testing.assert_allclose(nxt.eta, [1.0, 1.0])
        np.testing.assert_allclose(nxt.phi, [[1.0], [1.0]])

    def test_identical_agents_are_a_fixed_point(self):
        n = 5
        frame = [(i, j) for i in range(n) for j in range(n) if i != j]
        state = DistributedState(xi=np.tile([[0.3, 0.7]], (n, 1)),
                                 eta=np.full(n, 2.0),
                                 z=np.zeros((n, 1)))
        nxt = push_sum_round(state, sg.CommSchedule(n, (frame,), 1), 0)
        np.testing.assert_allclose(nxt.xi, state.xi, atol=1e-15)
        np.testing.assert_allclose(nxt.eta, state.eta, atol=1e-15)

    def test_mass_conservation_over_many_rounds(self):
        scored, counts, model = _fixture()
        sched = sg.make_comm_schedule(10, "periodic-edge-partition", 3,
                                      rng=np.random.default_rng(102))
        state = initial_state(counts, model)
        xi_total = state.xi.sum(axis=0).copy()
        eta_total = state.eta.sum()
        for t in range(120):
            state = push_sum_round(state, sched, t)
            np.testing.assert_allclose(state.xi.sum(axis=0), xi_total,
                                       rtol=1e-12)
            assert state.eta.sum() == pytest.approx(eta_total, rel=1e-12)
            assert np.all(state.eta > 0)

    def test_ratios_reach_global_histogram(self):
        scored, counts, model = _fixture()
        sched = sg.CommSchedule(10, (scored.edges,), 1)
        state = initial_state(counts, model)
        target = counts.phi
        for t in range(200):
            state = push_sum_round(state, sched, t)
        assert np.abs(state.phi - target[None, :]).max() < 1e-10

    def test_partition_schedule_mixes_slower_but_still_converges(self):
        scored, counts, model = _fixture()
        sched = sg.make_comm_schedule(10, "periodic-edge-partition", 3,
                                      rng=np.random.default_rng(102))
        state = initial_state(counts, model)
        errs = []
        for t in range(900):
            state = push_sum_round(state, sched, t)
            if t % 300 == 299:
                errs.append(np.abs(state.phi - counts.phi[None, :]).max())
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


class TestInitialState:
    def test_default_start_is_the_centroid(self):
        _, counts, model = _fixture()
        state = initial_state(counts, model)
        np.testing.assert_allclose(state.z,
                                   np.tile(model.feasible.centroid(), (10, 1)))
        np.testing.assert_allclose(state.xi, counts.received)
        np.testing.assert_allclose(state.eta, counts.in_degree)

    def test_start_validation(self):
        _, counts, model = _fixture()
        with pytest.raises(InfeasibleError):
            initial_state(counts, model, start=np.array([1.7]))
        with pytest.raises(ValueError):
            initial_state(counts, model, start=np.zeros((3, 1)))


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


def _reference_run(counts, model, schedule, alpha, n_rounds):
    """The per-agent loop: every round steps each agent's 1-D row on its own,
    with the pre-round phi, then mixes."""
    def step_all(z, phi):
        return np.array([sg.local_gradient_step(z[i], phi[i], model, alpha)
                         for i in range(z.shape[0])])

    state = initial_state(counts, model)
    xi, eta, z = state.xi, state.eta, state.z
    phi = xi / eta[:, None]
    phi_traj = [phi]
    for t in range(n_rounds):
        mat = schedule.matrix(t)
        z = step_all(z, phi)
        xi, eta = mat @ xi, mat @ eta
        phi = xi / eta[:, None]
        phi_traj.append(phi)
    return z, np.asarray(phi_traj)


@pytest.mark.parametrize("model", [
    sg.preparata_model(),
    sg.reliability_model(5),
    sg.social_ranking_model(3, 3),
    sg.categorical_model(2, 3),
], ids=lambda m: f"{m.name}-pre-phi")     # each step uses the pre-round phi
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
        state = initial_state(counts, model)
        phis = [state.phi]
        for t in range(60):
            state = push_sum_round(state, sched, t)
            phis.append(state.phi)
        np.testing.assert_array_equal(run.phi_traj, np.asarray(phis))

    def test_scored_graph_and_counts_agree(self):
        scored, counts, model = _fixture()
        sched = sg.CommSchedule(10, (scored.edges,), 1)
        a = sg.run_distributed(scored, model, sched, alpha=0.02, n_rounds=40)
        b = sg.run_distributed(counts, model, sched, alpha=0.02, n_rounds=40)
        np.testing.assert_array_equal(a.final_z, b.final_z)

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
        for bad in (dict(record_every=0), dict(n_rounds=-1)):
            with pytest.raises(ValueError):
                sg.run_distributed(counts, model, sched, alpha=0.02, **bad)
        for alpha in (0.0, -0.05, float("nan")):
            with pytest.raises(ValueError, match="alpha must be positive"):
                sg.run_distributed(counts, model, sched, alpha=alpha)

    def test_infinite_cost_names_the_round_and_agent(self):
        _, counts, model = _fixture()
        sched = sg.make_comm_schedule(10, "static-cycle")
        agent = int(np.flatnonzero(counts.received[:, 1] > 0)[0])
        start = np.full((10, 1), 0.5)
        start[agent] = 0.0
        with pytest.raises(NonFiniteError,
                           match=rf"^round 0: .*agent {agent}\b"):
            sg.run_distributed(counts, model, sched, alpha=0.02, n_rounds=5,
                               start=start)

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
