"""Monte Carlo harness: configs, sweeps, file outputs, CLI."""

import errno
import json
import math
import os
import re
import resource
import signal
import stat
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import scoregraph as sg
from scoregraph.cli import _load_config, main
from scoregraph.errors import InfeasibleError
from scoregraph.experiments import (ExperimentConfig, build_model, emit_outputs,
                                    emit_single_outputs, parse_config_file,
                                    read_misclass_csv, read_rmse_csv, run_single,
                                    run_sweep)

TINY = ExperimentConfig(model="preparata", n_agents=6, sweep=(6, 12), trials=3,
                        estimators=("FR",), solver_max_iters=2000,
                        solver_grid_points=9)


class TestConfig:
    def test_defaults_resolve_to_desk_scale(self):
        cfg = ExperimentConfig().resolved()
        assert cfg.n_agents == 50 and cfg.trials == 100
        assert cfg.sweep == (50, 500, 2450)

    def test_gamma_default_follows_the_model(self):
        for model in ("preparata", "reliability", "social-ranking"):
            assert ExperimentConfig(model=model).resolved().gamma == (0.3,)
        cfg = ExperimentConfig(model="categorical", n_states=4, n_scores=2)
        assert cfg.resolved().gamma == (0.25,) * 4
        given = replace(cfg, gamma=(0.1, 0.2, 0.3, 0.4))
        assert given.resolved().gamma == given.gamma

    def test_gamma_of_the_wrong_length_raises_before_any_trial(self, monkeypatch):
        # a scalar gamma must not fall back to the centroid on the
        # vector-gamma categorical model; validate() raises what both runs
        # raise, with the same type and message, and no run reaches a trial
        calls = []
        monkeypatch.setattr("scoregraph.experiments._run_chunk",
                            lambda *args, **kwargs: calls.append(args))
        categorical = dict(model="categorical", n_states=2, n_scores=2)
        distributed = dict(estimators=("NR", "FR-distributed"))
        for kwargs, error, message in (
                (dict(categorical, gamma=(0.9,)), InfeasibleError,
                 "categorical: gamma must have 2 components"),
                (dict(categorical, gamma=(0.2, 0.3, 0.5)), InfeasibleError,
                 "categorical: gamma must have 2 components"),
                (dict(theta=(0.5,)), InfeasibleError,
                 "reliability: theta must have 0 components"),
                (dict(distributed, comm_family="ring"), ValueError,
                 "unknown schedule family: 'ring'"),
                (dict(distributed, comm_window=0), ValueError,
                 "a schedule needs window >= 1 and at least one frame"),
                (dict(master_seed=-1), ValueError, "master_seed must be >= 0")):
            cfg = ExperimentConfig(n_agents=6, sweep=(6,), trials=1, **kwargs)
            for run in (ExperimentConfig.validate, run_sweep, run_single):
                with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
                    run(cfg)
                assert type(caught.value) is error
        assert calls == []

    @pytest.mark.parametrize("n_agents", range(2, 14))
    def test_default_sweep_runs_at_every_n(self, n_agents):
        cfg = ExperimentConfig(n_agents=n_agents, trials=1)
        sweep = cfg.resolved().sweep
        assert all(a < b for a, b in zip(sweep, sweep[1:]))
        assert n_agents <= sweep[0] and sweep[-1] <= n_agents * (n_agents - 1)
        if n_agents >= 12:
            assert sweep == (n_agents, 10 * n_agents, n_agents * (n_agents - 1))
        result = run_sweep(cfg)
        assert tuple(point.n_edges for point in result.points) == sweep

    def test_explicit_sweep_kept(self):
        cfg = ExperimentConfig(sweep=(50, 100)).resolved()
        assert cfg.sweep == (50, 100)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(trials=0).validate()
        with pytest.raises(ValueError, match="sweep"):
            ExperimentConfig(n_agents=10, sweep=(9,)).validate()
        with pytest.raises(ValueError, match="sweep"):
            ExperimentConfig(n_agents=10, sweep=(91,)).validate()
        with pytest.raises(ValueError, match="estimator"):
            ExperimentConfig(estimators=("NR", "newton")).validate()
        with pytest.raises(ValueError, match="exact"):
            ExperimentConfig(estimators=("exact",), n_agents=13).validate()
        for alpha in (0.0, -0.05, math.inf, math.nan):
            with pytest.raises(ValueError, match="solver_alpha"):
                ExperimentConfig(solver_alpha=alpha).validate()
        with pytest.raises(ValueError, match="solver_tol must be nonnegative"):
            ExperimentConfig(solver_tol=-1.0).validate()
        for n_agents in (1, 0):
            with pytest.raises(ValueError, match="n_agents must be >= 2"):
                ExperimentConfig(n_agents=n_agents).validate()
        for key, bad in (("solver_grid_points", 0), ("solver_grid_points", -3),
                         ("solver_max_iters", -1), ("solver_rounds", -1)):
            with pytest.raises(ValueError, match=f"{key} must be >= "):
                ExperimentConfig(**{key: bad}).validate()
        # a C or R that the fixed-size model does not have is an error, not ignored
        for kwargs, message in (
                (dict(model="reliability", n_states=3), "C = 3: the reliability model has C = 2"),
                (dict(model="preparata", n_scores=5), "R = 5: the preparata model has R = 2"),
                (dict(model="preparata", n_states=4), "C = 4: the preparata model has C = 2")):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(**kwargs).validate()
        ExperimentConfig(model="reliability", n_states=2, n_scores=3).validate()
        ExperimentConfig(model="preparata", n_states=2, n_scores=2).validate()
        with pytest.raises(ValueError, match="sweep needs at least one edge count"):
            ExperimentConfig(sweep=()).validate()
        with pytest.raises(ValueError, match="estimator 'FR' is listed twice"):
            ExperimentConfig(estimators=("FR", "NR", "FR")).validate()
        with pytest.raises(ValueError, match="sweep value 12 is listed twice"):
            ExperimentConfig(n_agents=10, sweep=(12, 30, 12)).validate()
        ExperimentConfig(solver_tol=0.0).validate()
        ExperimentConfig(solver_grid_points=1, solver_max_iters=0,
                         solver_rounds=0).validate()
        ExperimentConfig(estimators=("exact",), n_agents=12,
                         sweep=(12,)).validate()

    def test_build_model_dispatch(self):
        assert build_model(ExperimentConfig(model="preparata")).name == "preparata"
        assert build_model(ExperimentConfig()).n_scores == 5
        m = build_model(ExperimentConfig(model="social-ranking"))
        assert (m.n_states, m.n_scores) == (3, 3)
        assert build_model(ExperimentConfig(model="categorical")).name == "categorical"
        with pytest.raises(ValueError):
            build_model(ExperimentConfig(model="glm"))

    def test_build_model_shares_one_read_only_model_per_configuration(self):
        ranking = build_model(ExperimentConfig(model="social-ranking"))
        assert build_model(ExperimentConfig(model="social-ranking", trials=3)) is ranking
        # the defaults C = R = 3 are the same configuration
        assert build_model(ExperimentConfig(model="social-ranking", n_states=3,
                                            n_scores=3)) is ranking
        four = build_model(ExperimentConfig(model="social-ranking", n_scores=4))
        five = build_model(ExperimentConfig(model="social-ranking", n_scores=5))
        assert four is not five and four is not ranking
        assert (four.n_scores, five.n_scores) == (4, 5)
        assert (build_model(ExperimentConfig(n_scores=4))
                is not build_model(ExperimentConfig(n_scores=5)))
        lo, hi = ranking.feasible.bounds
        for bound in (ranking.feasible.blocks[0].lo, ranking.feasible.blocks[1].hi, lo, hi):
            with pytest.raises(ValueError, match="read-only"):
                bound[0] = 0.25


class TestConfigFile:
    def test_full_round_trip(self, tmp_path):
        text = """\
# sweep configuration
model = social-ranking
C = 3
R = 3                      # score alphabet
theta = 0.5
gamma = 0.3
N = 20
sweep = 20, 60, 120
trials = 7
estimators = NR, FR
comm.family = periodic-edge-partition
comm.Q = 3
solver.alpha = 0.01
solver.T = 500
solver.tol = 1e-9
solver.max_iters = 800
solver.grid_points = 11
seed = 5
out = results
"""
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        cfg = parse_config_file(path)
        assert cfg.model == "social-ranking"
        assert cfg.n_states == 3 and cfg.n_scores == 3
        assert cfg.theta == (0.5,) and cfg.gamma == (0.3,)
        assert cfg.n_agents == 20 and cfg.sweep == (20, 60, 120)
        assert cfg.trials == 7 and cfg.estimators == ("NR", "FR")
        assert cfg.comm_family == "periodic-edge-partition" and cfg.comm_window == 3
        assert cfg.solver_alpha == 0.01 and cfg.solver_rounds == 500
        assert cfg.solver_tol == 1e-9 and cfg.solver_max_iters == 800
        assert cfg.solver_grid_points == 11
        assert cfg.master_seed == 5 and cfg.out_dir == "results"

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("\n# only a comment\n\ntrials = 4\n")
        assert parse_config_file(path).trials == 4

    def test_unknown_key_includes_line_number(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("trials = 4\nknobs = 9\n")
        with pytest.raises(ValueError, match="cfg.txt:2"):
            parse_config_file(path)

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config file", 1)[1].split("```\n")[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        cfg = parse_config_file(path)
        cfg.validate()
        assert cfg.theta == () and cfg.gamma == (0.3,) and cfg.sweep == (50, 500, 2450)

    def test_empty_list_values_parse_as_empty(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("theta =\ngamma =  \nsweep =\n")
        cfg = parse_config_file(path)
        assert (cfg.theta, cfg.gamma, cfg.sweep) == ((), (), ())

    def test_conversion_error_includes_line_number(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("N = abc\n")
        with pytest.raises(ValueError, match=r"cfg\.txt:1: N: invalid literal"):
            parse_config_file(path)
        path.write_text("trials = 4\ngamma = 0.3, x\n")
        with pytest.raises(ValueError, match=r"cfg\.txt:2: gamma: could not convert"):
            parse_config_file(path)

    def test_a_key_set_twice_is_rejected(self, tmp_path):
        # the later value used to override the earlier one silently
        path = tmp_path / "cfg.txt"
        path.write_text("trials = 2\nN = 20\n# again\ntrials = 3\n")
        where = re.escape(str(path))
        with pytest.raises(ValueError, match=f"^{where}:4: key 'trials' is set twice$"):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(path)


class TestRunSweep:
    def test_row_counts_and_readback(self, tmp_path):
        result = run_sweep(TINY)
        assert [p.n_edges for p in result.points] == [6, 12]
        assert result.estimator_names == ("FR",)
        assert result.classifier_names == ("oracle", "FR")
        paths = emit_outputs(result, tmp_path)
        rmse = read_rmse_csv(paths["rmse"])
        mis = read_misclass_csv(paths["misclass"])
        assert len(rmse) == 2 * 1 * 1    # points x estimators x params
        assert len(mis) == 2 * 2         # points x (oracle + estimators)
        for point in result.points:
            assert rmse[(point.n_edges, "FR", "gamma")] == point.rmse["FR"]["gamma"]
            assert mis[(point.n_edges, "oracle")] == point.misclass["oracle"]
            assert 0.0 <= point.misclass["oracle"] <= 1.0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["config"]["trials"] == 3
        assert len(meta["points"]) == 2

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_outputs(run_sweep(TINY), a)
        emit_outputs(run_sweep(TINY), b)
        for name in ("rmse.csv", "misclass.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_a_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        # a shorter rewrite of an existing file leaves only the new bytes
        from scoregraph.experiments import _write_json, _write_lines
        path = tmp_path / "x.csv"
        assert _write_lines(["a" * 100, "b"], path) == path
        _write_lines(["c"], path)
        assert path.read_bytes() == b"c\n"
        _write_json({"key": list(range(50))}, path)
        _write_json({"k": [1]}, path)
        assert path.read_bytes() == b'{\n  "k": [\n    1\n  ]\n}\n'
        # longer stale files in the output directory, then a fresh directory
        stale, fresh = tmp_path / "stale", tmp_path / "fresh"
        stale.mkdir()
        for name in ("rmse.csv", "misclass.csv", "meta.json"):
            (stale / name).write_text("x" * 10000)
        result = run_sweep(TINY)
        emit_outputs(result, stale)
        emit_outputs(result, fresh)
        for name in ("rmse.csv", "misclass.csv"):
            assert (stale / name).read_bytes() == (fresh / name).read_bytes()
        assert json.loads((stale / "meta.json").read_text())["config"]["trials"] == 3

    def test_trial_draws_depend_only_on_seed_point_and_index(self):
        wide = run_sweep(ExperimentConfig(model="preparata", n_agents=6,
                                          sweep=(6, 12), trials=2,
                                          estimators=("FR",)))
        narrow = run_sweep(ExperimentConfig(model="preparata", n_agents=6,
                                            sweep=(12,), trials=2,
                                            estimators=("FR",)))
        assert wide.points[1].rmse == narrow.points[0].rmse
        assert wide.points[1].misclass == narrow.points[0].misclass

    def test_sweep_order_does_not_change_the_rows_of_an_edge_count(self, tmp_path):
        # the trial streams are keyed by the edge count, not by the sweep position
        cfg = ExperimentConfig(model="social-ranking", n_states=3, n_scores=3, n_agents=8,
                               sweep=(10, 24), trials=2, estimators=("NR", "FR"),
                               solver_grid_points=9)
        forward = emit_outputs(run_sweep(cfg), tmp_path / "forward")
        backward = emit_outputs(run_sweep(replace(cfg, sweep=(24, 10))), tmp_path / "backward")
        assert read_rmse_csv(forward["rmse"]) == read_rmse_csv(backward["rmse"])
        assert read_misclass_csv(forward["misclass"]) == read_misclass_csv(backward["misclass"])
        assert len(read_rmse_csv(forward["rmse"])) == 2 * 2 * 2   # points x estimators x params

    def test_empty_sweep_rejected(self):
        # no edge count means no rows: the sweep refuses to run, rather than
        # write CSVs that hold only a header
        cfg = ExperimentConfig(model="preparata", sweep=(), trials=1,
                               estimators=("FR",))
        with pytest.raises(ValueError, match="sweep needs at least one edge count"):
            run_sweep(cfg)

    def test_a_second_sweep_of_a_model_reuses_its_mesh_tables(self, tmp_path, monkeypatch):
        from scoregraph import estimators
        calls = []
        mesh_points = estimators._mesh_points
        monkeypatch.setattr(estimators, "_MESH_TABLES", {})
        monkeypatch.setattr(estimators, "_mesh_points",
                            lambda *args: calls.append(args) or mesh_points(*args))
        cfg = ExperimentConfig(model="social-ranking", n_agents=8, sweep=(8, 30),
                               trials=2, solver_grid_points=9)
        first = emit_outputs(run_sweep(cfg), tmp_path / "a")
        assert len(calls) == 2      # the NR and FR tables of the first sweep
        calls.clear()
        second = emit_outputs(run_sweep(cfg), tmp_path / "b")
        assert calls == []
        for key in ("rmse", "misclass"):
            assert Path(first[key]).read_bytes() == Path(second[key]).read_bytes()

    def test_oracle_outputs_equal_the_checked_classifier(self):
        from scoregraph.experiments import _true_params
        for cfg in (ExperimentConfig(model="reliability", n_agents=8, sweep=(30,)),
                    ExperimentConfig(model="categorical", n_states=3, n_scores=2,
                                     n_agents=8, sweep=(30,))):
            result = run_single(cfg)
            model = build_model(result.config)
            truth = _true_params(result.config, model)
            np.testing.assert_array_equal(result.estimates["oracle"], truth)
            want = sg.soft_classify(sg.aggregate_counts(result.graph), model,
                                    *model.feasible.split(truth))
            got = result.outputs["oracle"]
            for field in ("posterior", "labels", "log_unnormalized"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    def test_an_infeasible_truth_raises_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr("scoregraph.experiments._run_chunk",
                            lambda *args, **kwargs: calls.append(args))
        for cfg in (ExperimentConfig(gamma=(1.5,), n_agents=6, sweep=(6,), trials=1),
                    ExperimentConfig(model="social-ranking", theta=(20.0,), n_agents=6,
                                     sweep=(6,), trials=1)):
            for run in (run_sweep, run_single):
                with pytest.raises(InfeasibleError, match="infeasible"):
                    run(cfg)
        assert calls == []

    def test_oracle_in_estimator_list_is_not_fitted(self):
        cfg = ExperimentConfig(model="preparata", n_agents=6, sweep=(6,),
                               trials=2, estimators=("FR", "oracle"))
        result = run_sweep(cfg)
        assert result.estimator_names == ("FR",)
        assert result.classifier_names == ("oracle", "FR")

    def test_distributed_estimator_records_spread(self):
        cfg = ExperimentConfig(model="preparata", n_agents=5, sweep=(5,),
                               trials=2, estimators=("FR-distributed",),
                               solver_rounds=300, solver_alpha=0.02)
        result = run_sweep(cfg)
        point = result.points[0]
        assert point.spread["FR-distributed"] >= 0.0
        assert "FR-distributed" in point.rmse

    def test_bad_csv_headers_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_rmse_csv(path)
        with pytest.raises(ValueError):
            read_misclass_csv(path)

    def test_a_short_or_bad_row_names_the_file_and_line(self, tmp_path):
        for read, name, header, rows, error in (
                (read_rmse_csv, "rmse.csv", "n,estimator,param,rmse",
                 "50,NR,gamma,0.1\n50,NR,gamma\n", ":3: expected 4 columns, got 3$"),
                (read_rmse_csv, "rmse.csv", "n,estimator,param,rmse",
                 "50,NR,gamma,x\n", ":2: could not convert string to float: 'x'$"),
                (read_misclass_csv, "misclass.csv", "n,classifier,rate",
                 "50,oracle,0.1\n500,NR,0.2,0.3\n", ":3: expected 3 columns, got 4$"),
                (read_misclass_csv, "misclass.csv", "n,classifier,rate",
                 "50,oracle\n", ":2: expected 3 columns, got 2$")):
            path = tmp_path / name
            path.write_text(f"{header}\n{rows}")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{error}"):
                read(path)


class TestRunSingle:
    CFG = ExperimentConfig(model="preparata", n_agents=6, sweep=(12,), trials=1,
                           estimators=("NR", "FR-distributed", "oracle"),
                           solver_rounds=200, solver_alpha=0.02,
                           solver_grid_points=9)

    def test_exports_everything(self, tmp_path):
        result = run_single(self.CFG)
        assert set(result.estimates) == {"oracle", "NR", "FR-distributed"}
        paths = emit_single_outputs(result, tmp_path)
        expected = {"graph", "states", "estimates", "meta", "trajectory",
                    "soft_oracle", "soft_NR", "soft_FR-distributed", "trace_NR"}
        assert expected <= set(paths)
        reloaded = sg.load_score_graph(paths["graph"])
        np.testing.assert_array_equal(reloaded.edges, result.graph.edges)
        np.testing.assert_array_equal(reloaded.scores, result.graph.scores)
        np.testing.assert_array_equal(sg.load_states(paths["states"]),
                                      result.states)
        est_lines = (tmp_path / "estimates.csv").read_text().splitlines()
        assert est_lines[0] == "estimator,param,value"
        assert len(est_lines) == 1 + 3     # one gamma row per estimator
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert set(meta["misclassification"]) == set(result.estimates)

    @pytest.mark.parametrize("estimator", ["NR", "FR", "FR-distributed"])
    def test_reruns_export_identical_files(self, tmp_path, estimator):
        cfg = replace(self.CFG, estimators=(estimator,))
        emit_single_outputs(run_single(cfg), tmp_path / "a")
        emit_single_outputs(run_single(cfg), tmp_path / "b")
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files:
            if name != "meta.json":
                assert ((tmp_path / "a" / name).read_bytes()
                        == (tmp_path / "b" / name).read_bytes()), name
        # a scalar gamma is `gamma` in estimates.csv and `gamma_1` in traces
        estimates = (tmp_path / "a" / "estimates.csv").read_text().splitlines()
        assert ([line.rsplit(",", 1)[0] for line in estimates]
                == ["estimator,param", "oracle,gamma", f"{estimator},gamma"])
        trace = "trajectory.csv" if estimator == "FR-distributed" else f"trace_{estimator}.csv"
        header = (tmp_path / "a" / trace).read_text().splitlines()[0]
        assert header.endswith(",gamma_1")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            run_single(replace(self.CFG, sweep=()))

    def test_oracle_estimate_is_the_truth(self):
        result = run_single(self.CFG)
        theta_hat, gamma_hat = build_model(result.config).feasible.split(
            result.estimates["oracle"])
        assert tuple(gamma_hat) == (0.3,)
        assert theta_hat.size == 0

    def test_sweep_trial_is_the_single_run(self, tmp_path):
        # one trial at one point: every sweep figure is that of run_single
        cfg = ExperimentConfig(model="preparata", n_agents=6, sweep=(12,), trials=1,
                               estimators=("NR", "FR", "FR-distributed", "exact", "oracle"),
                               solver_rounds=200, solver_grid_points=9)
        sweep_paths = emit_outputs(run_sweep(cfg), tmp_path / "sweep")
        rmse = read_rmse_csv(sweep_paths["rmse"])
        mis = read_misclass_csv(sweep_paths["misclass"])
        single = run_single(cfg)
        emit_single_outputs(single, tmp_path / "single")
        single_mis = json.loads((tmp_path / "single" / "meta.json").read_text())
        truth = single.estimates["oracle"][-1]     # z = [gamma]
        fitted = ("NR", "FR", "FR-distributed", "exact")
        assert set(rmse) == {(12, est, "gamma") for est in fitted}
        for est in fitted:
            assert rmse[(12, est, "gamma")] == abs(single.estimates[est][-1] - truth)
        assert set(mis) == {(12, cls) for cls in ("oracle", *fitted)}
        for cls in ("oracle", *fitted):
            assert mis[(12, cls)] == single_mis["misclassification"][cls]


class TestWriteInPlace:
    """Output files are written with a plain truncating write and are not fsynced."""

    @staticmethod
    def _files(out_dir) -> dict:
        """Each file's bytes, meta.json's timestamps masked."""
        return {p.name: re.sub(rb'"created": "[^"]*"', b'"created"', p.read_bytes())
                for p in sorted(Path(out_dir).iterdir())}

    def test_a_rewrite_over_longer_and_shorter_files_leaves_exactly_the_new_bytes(
            self, tmp_path):
        sweep, single = run_sweep(TINY), run_single(TestRunSingle.CFG)
        writers = {
            "emit_outputs": lambda d: emit_outputs(sweep, d),
            "emit_single_outputs": lambda d: emit_single_outputs(single, d),
            "save_score_graph": lambda d: sg.save_score_graph(single.graph, d / "graph.txt"),
            "save_states": lambda d: sg.save_states(single.states, d / "states.txt"),
        }
        for name, write in writers.items():
            fresh = tmp_path / name / "fresh"
            fresh.mkdir(parents=True)
            write(fresh)
            want = self._files(fresh)
            assert want
            for stale, filler in (("longer", lambda n: b"x" * (n + 4096)),
                                  ("shorter", lambda n: b"y" * (n // 2))):
                out = tmp_path / name / stale
                out.mkdir()
                for filename, data in want.items():
                    (out / filename).write_bytes(filler(len(data)))
                write(out)
                assert self._files(out) == want, (name, stale)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
    def test_a_new_file_gets_the_mode_of_open_w_under_the_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            sg.save_states(np.array([0, 1]), tmp_path / "states.txt")
            with open(tmp_path / "reference.txt", "w"):
                pass
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "states.txt").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "reference.txt").stat().st_mode)
        assert mode == 0o666 & ~umask
        # a rewrite keeps the mode of an existing file, as open(path, "w") does
        os.chmod(tmp_path / "states.txt", 0o640)
        sg.save_states(np.array([0]), tmp_path / "states.txt")
        assert stat.S_IMODE((tmp_path / "states.txt").stat().st_mode) == 0o640
        assert (tmp_path / "states.txt").read_text() == "1 1\n"

    @pytest.mark.parametrize("writer", ["_write_lines", "_write_json",
                                        "save_score_graph", "save_states"])
    def test_a_failed_write_leaves_a_prefix_of_the_new_text_not_a_stale_tail(
            self, tmp_path, writer):
        """A write cut short by the file-size limit (EFBIG) leaves the bytes it
        stored: the truncating open already dropped the longer old file."""
        from scoregraph.experiments import _write_json, _write_lines
        single = run_single(TestRunSingle.CFG)
        write = {
            "_write_lines": lambda p: _write_lines(["n,classifier,rate", "50,oracle,0.25"], p),
            "_write_json": lambda p: _write_json({"n": [50, 500], "rate": 0.25}, p),
            "save_score_graph": lambda p: sg.save_score_graph(single.graph, p),
            "save_states": lambda p: sg.save_states(single.states, p),
        }[writer]
        path = tmp_path / "out.txt"
        write(path)
        want = path.read_bytes()
        limit = 10
        assert len(want) > limit
        path.write_bytes(b"x" * (len(want) + 4096))
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        try:
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
            with pytest.raises(OSError) as failed:
                write(path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
        assert failed.value.errno == errno.EFBIG
        assert path.read_bytes() == want[:limit]
        write(path)
        assert path.read_bytes() == want

    def test_writing_to_dev_null_neither_raises_nor_truncates(self):
        from scoregraph.experiments import _write_json, _write_lines
        # truncating /dev/null raises, so a write that does not raise did not truncate
        with open(os.devnull, "w") as fh, pytest.raises(OSError):
            fh.truncate()
        single = run_single(TestRunSingle.CFG)
        _write_lines(["n,classifier,rate"], os.devnull)
        _write_json({"k": [1]}, os.devnull)
        sg.save_score_graph(single.graph, os.devnull)
        sg.save_states(single.states, os.devnull)


class TestCli:
    def test_sweep_with_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model = preparata\nN = 6\nsweep = 6, 12\ntrials = 2\n"
                       "estimators = FR\nsolver.grid_points = 9\n")
        out = tmp_path / "results"
        runner = CliRunner()
        result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "model: preparata" in result.output
        assert "n=6" in result.output and "n=12" in result.output
        assert (out / "rmse.csv").exists() and (out / "misclass.csv").exists()

    def test_cli_overrides_beat_the_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model = preparata\nN = 6\nsweep = 6\ntrials = 2\n"
                       "estimators = FR\nseed = 5\n")
        out = tmp_path / "o"
        runner = CliRunner()
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--seed",
                                      "9", "--trials", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["master_seed"] == 9
        assert meta["config"]["trials"] == 1

    def test_single_prints_estimates_and_paths(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model = preparata\nN = 6\nsweep = 12\n"
                       "estimators = FR\nsolver.grid_points = 9\n")
        out = tmp_path / "one"
        runner = CliRunner()
        result = runner.invoke(main, ["single", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "oracle: gamma=0.3" in result.output
        assert "FR: gamma=" in result.output
        assert (out / "graph.txt").exists()

    def test_social_pins_the_model(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("N = 8\nsweep = 8\ntrials = 1\nestimators = FR\n"
                       "solver.grid_points = 5\nsolver.max_iters = 300\n")
        out = tmp_path / "soc"
        runner = CliRunner()
        result = runner.invoke(main, ["social", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "model: social-ranking" in result.output
        rmse = read_rmse_csv(out / "rmse.csv")
        assert (8, "FR", "theta") in rmse and (8, "FR", "gamma") in rmse

    def test_social_requires_three_states_and_scores(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("C = 4\nN = 8\nsweep = 8\ntrials = 1\nestimators = FR\n")
        out = tmp_path / "soc"
        runner = CliRunner()
        result = runner.invoke(main, ["social", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert "C = 3" in result.stderr
        assert not out.exists()

    def test_errors_exit_nonzero_with_message(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trials = 0\n")
        runner = CliRunner()
        result = runner.invoke(main, ["sweep", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_full_scale_preset_overrides_the_config_and_trials(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("N = 6\ntrials = 2\nseed = 4\n")
        cfg = _load_config(str(path), full_scale=True, trials=5, master_seed=None).resolved()
        assert cfg.n_agents == 300 and cfg.trials == 1000 and cfg.master_seed == 4
        assert cfg.sweep == (300, 3000, 89700)
        cfg = _load_config(str(path), full_scale=False, trials=5, master_seed=None)
        assert cfg.n_agents == 6 and cfg.trials == 5

    def test_help_lists_subcommands(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("sweep", "social", "single"):
            assert name in result.output
        assert "check" not in result.output
        result = runner.invoke(main, ["check"])
        assert result.exit_code == 2
        assert "No such command" in result.output
