"""Solving many problems together: the stacked kernels, the solver scheduler
and the chunked sweep, each against the per-problem calls, bit for bit."""

from pathlib import Path

import numpy as np
import pytest

import scoregraph as sg
from scoregraph import estimators, experiments
from scoregraph._logdomain import counted_log_factor
from scoregraph.classifier import _soft_classify
from scoregraph.errors import DegenerateModelError, NonFiniteError
from scoregraph.experiments import ExperimentConfig, run_sweep

MODELS = (sg.preparata_model(), sg.reliability_model(5), sg.social_ranking_model(3, 3),
          sg.social_ranking_model(4, 5), sg.categorical_model(2, 3))
RUN_DISTRIBUTED_TRIAL = experiments._run_distributed_trial
SOLVE_FIELDS = ("z", "theta", "gamma", "objective", "n_iters", "converged", "residual",
                "trace")


def _counts(model, n_agents, n_edges, rng):
    graph = sg.sample_score_graph(n_agents, n_edges, "cyclic-plus-random-edges", rng)
    z = model.feasible.sample_interior(rng)
    scored, _ = sg.generate_scores(graph, model, *model.feasible.split(z), rng)
    return sg.aggregate_counts(scored)


def _same(a, b) -> bool:
    """Equal bits, shape, dtype and type (a Python float stays one)."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if a is None or b is None:
        return a is b
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_solve(got, want, where):
    for name in SOLVE_FIELDS:
        assert _same(getattr(got, name), getattr(want, name)), (where, name)


def _gamma_zero_problems():
    """Two preparata NR problems; at gamma = 0 the first one's objective is -inf
    (a mixed histogram is impossible there) and its gradient raises."""
    return [sg.nr_problem(sg.NeighborCounts(
        received=np.array(rows), mutual=np.zeros((2, 2, 2), dtype=np.int64),
        received_only=np.array(rows), given_only=np.zeros((2, 2), dtype=np.int64),
        in_degree=np.array(rows).sum(axis=1)), sg.preparata_model())
        for rows in ([[1, 1], [2, 0]], [[2, 0], [2, 0]])]


def _canonical_and_feasible(result, model):
    z = result.z
    assert np.all(np.isfinite(z)) and model.feasible.contains(z), z
    if model.label_swap_symmetric:
        assert z[model.theta_dim] <= 0.5, z


class TestStackedKernels:
    @pytest.mark.parametrize("mutual", [False, True])
    def test_counts_with_a_problem_axis_give_each_problem_its_own_bits(self, mutual):
        rng = np.random.default_rng(211)
        n, r, c, n_problems, n_points = 30, 5, 3, 4, 6
        score = (r, r) if mutual else (r,)
        counts = rng.integers(0, 4, size=(n_problems, n) + score) * (
            rng.random((n_problems, n) + score) < 0.5)
        table = np.log(rng.random((n_problems, n_points) + score + (c,)))
        table[rng.random(table.shape) < 0.1] = -np.inf
        got = counted_log_factor(counts[:, None], table, len(score))
        assert got.shape == (n_problems, n_points, n, c)
        for p in range(n_problems):
            assert _same(got[p], counted_log_factor(counts[p], table[p]))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.name}-{m.n_states}-{m.n_scores}")
    def test_a_stacked_answer_equals_the_direct_calls(self, model):
        rng = np.random.default_rng(223)
        problems = {kind: [build(_counts(model, 12, 40, rng), model) for _ in range(4)]
                    for kind, build in (("nr", sg.nr_problem), ("fr", sg.fr_problem))}
        dim = model.feasible.dim
        for kind, group in problems.items():
            # a single point (a spectral trial), answered (value, its own kept
            # table), and a Newton stencil, whose evaluation carries its
            # gradients: (values, gradients)
            for shape, op in (((dim,), "evaluate"), ((dim + 1, dim), "evaluate+gradient")):
                rows = shape[0] if len(shape) == 2 else 1
                points = [model.feasible.sample_interior(rng, size=rows).reshape(shape)
                          for _ in group]
                requests = [(op, z, None) for z in points]
                got = estimators._answer_stack(group, requests)
                want = [estimators._answer(p, q) for p, q in zip(group, requests)]
                for g, w in zip(got, want):
                    assert len(w) == 2, (kind, shape)
                    assert _same(g, w), (kind, shape)
                requests = [("gradient", z, p.evaluate(z)[1]) for p, z in zip(group, points)]
                got = estimators._answer_stack(group, requests)
                for p, g, q in zip(group, got, requests):
                    assert _same(g, estimators._answer(p, q)), (kind, shape)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.name}-{m.n_states}-{m.n_scores}")
    def test_a_stacked_evaluation_carries_the_gradients_of_its_tables(self, model):
        rng = np.random.default_rng(233)
        dim = model.feasible.dim
        for build in (sg.nr_problem, sg.fr_problem):
            group = [build(_counts(model, 12, 40, rng), model) for _ in range(4)]
            requests = [("evaluate+gradient",
                         model.feasible.sample_interior(rng, size=dim + 1), None)
                        for _ in group]
            for problem, (_, points, _), (values, grads) in zip(
                    group, requests, estimators._answer_stack(group, requests)):
                assert np.isfinite(values).all()
                assert _same(grads, problem.gradient(points, problem.evaluate(points)[1])), \
                    problem.kind

    def test_a_request_that_raises_gets_its_own_exception(self):
        # an NR gradient at a point where the objective is -inf raises; the
        # stacked call raises for the whole group, which is then answered
        # one request at a time
        problems = _gamma_zero_problems()
        point = np.array([0.0])    # gamma = 0: a mixed histogram is impossible
        requests = [("gradient", point, problem.evaluate(point)[1]) for problem in problems]
        answers = estimators._answer_group(problems, requests)
        assert answers[0][0] is None and isinstance(answers[0][1], NonFiniteError)
        assert answers[1][1] is None
        assert _same(answers[1][0], problems[1].gradient(point))

    def test_a_fault_in_the_stacked_path_is_not_answered_directly(self, monkeypatch):
        # only the errors a kernel raises on data send a group to direct
        # calls; a TypeError of the stacked path propagates
        def broken(problems, requests):
            raise TypeError("stacked path called wrongly")

        monkeypatch.setattr(estimators, "_answer_stack", broken)
        problems = _gamma_zero_problems()
        requests = [("evaluate", np.array([0.3]), None)] * 2
        with pytest.raises(TypeError, match="stacked path called wrongly"):
            estimators._answer_group(problems, requests)

    def test_a_gradient_error_surfaces_only_at_the_gradient_step(self, monkeypatch):
        problems = _gamma_zero_problems()
        # a stencil at gamma = 0: both evaluations are answered, and the one
        # with a -inf value carries the gradient at row 0 alone, which raises
        # for that problem only; the solver raises it where it needs it
        stencil = np.array([[0.0], [1e-6]])
        answers = estimators._answer_group(problems, [("evaluate+gradient", stencil, None)] * 2)
        ((values, grads), error), ((_, grads_1), error_1) = answers
        assert error is None and values[0] == -np.inf and np.isfinite(values[1])
        assert isinstance(grads, NonFiniteError)
        assert error_1 is None and _same(grads_1, problems[1].gradient(stencil))
        # a finite row 0 next to a -inf row: the gradient at row 0 alone, from
        # that row of the kept table, with the bits of a direct call
        stencil = np.array([[1e-6], [0.0]])
        answers = estimators._answer_group(problems, [("evaluate+gradient", stencil, None)] * 2)
        ((values, grads), error), ((_, grads_1), error_1) = answers
        assert error is None and np.isfinite(values[0]) and values[1] == -np.inf
        assert _same(grads, problems[0].gradient(stencil[0]))
        assert error_1 is None and _same(grads_1, problems[1].gradient(stencil))
        # a gradient that raises where every value is finite is kept in the
        # answer, and the solve raises it where it asks for the gradient: after
        # its first cost evaluation, not at it
        kernel = estimators._nr_gradient

        def failing(rows, *args):
            if rows[..., 1, :].any():      # the first problem's histograms of score 1
                raise NonFiniteError("gradient of the first problem")
            return kernel(rows, *args)

        monkeypatch.setattr(estimators, "_nr_gradient", failing)
        stencil = np.array([[0.3], [0.300001]])
        answers = estimators._answer_group(problems, [("evaluate+gradient", stencil, None)] * 2)
        ((values, grads), error), ((_, grads_1), error_1) = answers
        assert error is None and np.isfinite(values).all()
        assert isinstance(grads, NonFiniteError)
        assert error_1 is None and _same(grads_1, problems[1].gradient(stencil))
        steps = estimators._solve_steps(problems[0], np.array([0.3]), 5000, 1e-8, False)
        request = steps.send(None)
        assert request[0] == "evaluate+gradient"
        with pytest.raises(NonFiniteError, match="^gradient of the first problem$"):
            steps.send(estimators._answer(problems[0], request))


def _solve_alone(problem, grid_points=33, record_trace=False):
    return sg.estimate(problem, grid_points=grid_points, tol=1e-8, max_iters=5000,
                       record_trace=record_trace)


class TestSolveTogether:
    @pytest.mark.parametrize("criterion, model, theta", [
        (7, sg.reliability_model(5), ()), (8, sg.social_ranking_model(3, 3), (0.5,))])
    def test_the_criterion_sweeps_solve_as_alone(self, criterion, model, theta, monkeypatch):
        # every NR and FR solve of the 100-trial criterion 7 and 8 sweeps,
        # batched as run_sweep batches them, against estimate on its own
        cfg, model, truth, scorer, _, _ = experiments._prepare(
            ExperimentConfig(model=model.name, theta=theta, gamma=(0.3,)))
        calls = {"stacked": 0, "raised": 0}
        answer_stack = estimators._answer_stack

        def counted(problems, requests):
            calls["stacked"] += 1
            try:
                return answer_stack(problems, requests)
            except Exception:
                calls["raised"] += 1
                raise

        monkeypatch.setattr(estimators, "_answer_stack", counted)
        keys = [(n, t) for n in cfg.sweep for t in range(cfg.trials)]
        checked = 0
        for first in range(0, len(keys), experiments.SWEEP_CHUNK):
            for item in experiments._run_chunk(cfg, model, truth, scorer, None,
                                               keys[first:first + experiments.SWEEP_CHUNK]):
                for est, build in (("NR", sg.nr_problem), ("FR", sg.fr_problem)):
                    got = item.fits[est][1]
                    _assert_same_solve(got, _solve_alone(build(item.counts, model)),
                                       (est, item.n_edges, item.trial))
                    assert _same(item.fits[est][0], got.z)
                    _canonical_and_feasible(got, model)
                    checked += 1
        assert checked == 600
        assert calls["stacked"] > 0 and calls["raised"] == 0

    def test_a_mixed_batch_solves_as_alone(self):
        # exact (served one by one), the spectral path on a simplex model, and
        # NR/FR of three box models, all in one batch, with traces
        rng = np.random.default_rng(227)
        problems = []
        for model in MODELS:
            for _ in range(3):
                counts = _counts(model, 8, 20, rng)
                problems += [sg.nr_problem(counts, model), sg.fr_problem(counts, model)]
        for _ in range(3):
            graph = sg.sample_score_graph(8, 20, "cyclic-plus-random-edges", rng)
            scored, _ = sg.generate_scores(graph, MODELS[0], (), (0.3,), rng)
            problems.append(sg.exact_problem(scored, MODELS[0]))
        grid = lambda p: 21 if p.kind == "exact" else 9
        jobs = [(p, estimators._estimate_steps(p, grid(p), 5000, 1e-8, True)) for p in problems]
        for problem, got in zip(problems, estimators._solve_together(jobs)):
            assert not isinstance(got, Exception), got
            _assert_same_solve(got, _solve_alone(problem, grid(problem), True), problem.kind)
            _canonical_and_feasible(got, problem.model)

    def test_groups_that_change_members_between_rounds_solve_as_alone(self, monkeypatch):
        # NR problems that stop at different iterations, on a box model (one
        # Newton request per iteration) and on a simplex model (spectral
        # steps, whose evaluate and gradient requests drift out of phase):
        # a group key meets again with other members of the same count, and
        # each answer must be its own member's
        rng = np.random.default_rng(241)
        problems = [sg.nr_problem(_counts(model, 10, n_edges, rng), model)
                    for model in (MODELS[1], MODELS[4]) for n_edges in (10, 30, 60, 90) * 2]
        groups = []
        answer_group = estimators._answer_group

        def recorded(group, requests):
            op, points, _ = requests[0]
            groups.append(((op, group[0].model.name, points.shape, len(group)),
                           tuple(map(id, group))))
            return answer_group(group, requests)

        monkeypatch.setattr(estimators, "_answer_group", recorded)
        jobs = [(p, estimators._estimate_steps(p, 9, 5000, 1e-8, True)) for p in problems]
        results = estimators._solve_together(jobs)
        members = {}
        for key, ids in groups:
            members.setdefault(key, set()).add(ids)
        assert any(len(sets) > 1 for key, sets in members.items() if key[-1] > 1)
        assert len({result.n_iters for result in results}) > 2
        for problem, got in zip(problems, results):
            assert not isinstance(got, Exception), got
            _assert_same_solve(got, _solve_alone(problem, 9, True), problem.model.name)

    def test_a_failing_solve_raises_alone_and_the_others_finish(self):
        model = sg.preparata_model()
        rng = np.random.default_rng(229)
        problems = [sg.fr_problem(_counts(model, 8, 20, rng), model) for _ in range(3)]
        starts = [np.array([0.3]), np.array([1.5]), np.array([0.4])]    # the middle one infeasible
        jobs = [(p, estimators._solve_steps(p, z, 5000, 1e-8, False))
                for p, z in zip(problems, starts)]
        results = estimators._solve_together(jobs)
        assert isinstance(results[1], sg.InfeasibleError)
        for k in (0, 2):
            _assert_same_solve(results[k], sg.projected_gradient_solve(
                problems[k], starts[k], max_iters=5000, tol=1e-8, record_trace=False), k)


class TestSweepChunks:
    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(n_agents=20, sweep=(20, 100), trials=9,
                         estimators=("NR", "FR-distributed", "FR"), solver_rounds=200),
        ExperimentConfig(model="preparata", n_agents=8, sweep=(8, 20), trials=6,
                         estimators=("exact", "FR")),
        ExperimentConfig(model="categorical", n_states=2, n_scores=3, n_agents=10,
                         sweep=(20,), trials=5),
    ], ids=["reliability", "preparata-exact", "categorical"])
    def test_any_chunking_writes_the_same_csvs(self, cfg, tmp_path, monkeypatch):
        paths = []
        for chunk in (1, 4, experiments.SWEEP_CHUNK):    # 4 splits points across chunks
            monkeypatch.setattr(experiments, "SWEEP_CHUNK", chunk)
            result = run_sweep(cfg)
            assert all(p.trials == cfg.trials and p.wall_clock > 0 for p in result.points)
            assert sum(p.wall_clock for p in result.points) <= result.wall_clock
            paths.append(sg.emit_outputs(result, tmp_path / str(chunk)))
        for key in ("rmse", "misclass"):
            texts = {Path(p[key]).read_bytes() for p in paths}
            assert len(texts) == 1, key

    def test_a_chunk_mixing_exact_distributed_nr_and_fr_fits_as_alone(self):
        cfg, model, truth, scorer, schedule, _ = experiments._prepare(ExperimentConfig(
            model="preparata", n_agents=8, sweep=(8, 20), trials=4,
            estimators=("exact", "FR-distributed", "NR", "FR"), solver_rounds=50))
        keys = [(n, t) for n in cfg.sweep for t in range(cfg.trials)]
        chunk = experiments._run_chunk(cfg, model, truth, scorer, schedule, keys,
                                       keep_graphs=True)
        for item in chunk:
            for est, problem, grid in (("exact", sg.exact_problem(item.graph, model), 21),
                                       ("NR", sg.nr_problem(item.counts, model), 33),
                                       ("FR", sg.fr_problem(item.counts, model), 33)):
                _assert_same_solve(item.fits[est][1], _solve_alone(problem, grid), est)
            run = sg.run_distributed(item.counts, model, schedule, n_rounds=50, record_every=50,
                                     rng=cfg.master_seed)
            assert _same(item.fits["FR-distributed"][1].final_z, run.final_z)

    def test_a_chunk_keeps_no_graph(self):
        cfg, model, truth, scorer, schedule, _ = experiments._prepare(
            ExperimentConfig(n_agents=10, sweep=(30,), trials=2))
        chunk = experiments._run_chunk(cfg, model, truth, scorer, schedule, [(30, 0), (30, 1)])
        assert [item.graph for item in chunk] == [None, None]

    @pytest.mark.parametrize("estimators_", [("FR-distributed",), ("NR", "FR", "FR-distributed")])
    def test_the_periodic_distributed_failure_raises_as_trial_by_trial(self, estimators_):
        # trial 2 at n = 50: agent 48 received only score 0 and sits at gamma = 0
        # until mixing brings it top-score mass
        cfg = ExperimentConfig(estimators=estimators_, comm_family="periodic-edge-partition",
                               comm_window=3, sweep=(50,), trials=3)
        with pytest.raises(NonFiniteError,
                           match=r"^round 41: fully-relaxed cost is \+inf at agent 48$"):
            run_sweep(cfg)

    def _failing(self, monkeypatch, solve_fails=None, distributed_fails=None,
                 classify_fails=None):
        """A sweep whose NR solve of trial `solve_fails`, FR-distributed run
        at trial `distributed_fails` and classification of trial
        `classify_fails` raise, each naming its trial."""
        trial_of = {}    # id of each trial's counts -> trial

        def recorded(scored):
            counts = sg.aggregate_counts(scored)
            trial_of[id(counts)] = len(trial_of)
            return counts

        def estimate_steps(problem, *args):
            if trial_of[id(problem.data)] == solve_fails:
                raise NonFiniteError(f"solve of trial {solve_fails}")
            return (yield from estimators._estimate_steps(problem, *args))

        def run_distributed_trial(counts, *args):
            if trial_of[id(counts)] == distributed_fails:
                raise NonFiniteError(f"distributed run of trial {distributed_fails}")
            return RUN_DISTRIBUTED_TRIAL(counts, *args)

        def soft_classify(counts, *args):
            rows = counts if isinstance(counts, list) else [counts]
            if classify_fails in [trial_of[id(c)] for c in rows]:
                raise DegenerateModelError(f"classification of trial {classify_fails}")
            return _soft_classify(counts, *args)

        monkeypatch.setattr(experiments, "aggregate_counts", recorded)
        monkeypatch.setattr(experiments, "_estimate_steps", estimate_steps)
        monkeypatch.setattr(experiments, "_run_distributed_trial", run_distributed_trial)
        monkeypatch.setattr(experiments, "_soft_classify", soft_classify)
        return ExperimentConfig(model="preparata", n_agents=6, sweep=(12,), trials=6,
                                estimators=("NR", "FR-distributed"), solver_rounds=20)

    def test_an_earlier_failure_wins_over_one_seen_before_it(self, monkeypatch):
        # trial 4's FR-distributed run fails while the chunk is sampled,
        # before trial 1's solve fails: a trial-by-trial sweep stops at trial 1
        cfg = self._failing(monkeypatch, solve_fails=1, distributed_fails=4)
        with pytest.raises(NonFiniteError, match="^solve of trial 1$"):
            run_sweep(cfg)
        cfg = self._failing(monkeypatch, solve_fails=5, distributed_fails=4)
        with pytest.raises(NonFiniteError, match="^distributed run of trial 4$"):
            run_sweep(cfg)

    def test_a_classification_failure_comes_after_its_own_trial_steps(self, monkeypatch):
        cfg = self._failing(monkeypatch, solve_fails=3, classify_fails=2)
        with pytest.raises(DegenerateModelError, match="^classification of trial 2$"):
            run_sweep(cfg)
        cfg = self._failing(monkeypatch, solve_fails=2, classify_fails=2)
        with pytest.raises(NonFiniteError, match="^solve of trial 2$"):
            run_sweep(cfg)
