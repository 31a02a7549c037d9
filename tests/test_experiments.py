"""Monte Carlo harness: configs, sweeps, file outputs, CLI."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import scoregraph as sg
from scoregraph.cli import main
from scoregraph.experiments import (ExperimentConfig, build_model, emit_outputs,
                                    emit_single_outputs, parse_config_file,
                                    read_misclass_csv, read_rmse_csv,
                                    run_invariant_checks, run_single, run_sweep)

TINY = ExperimentConfig(model="preparata", n_agents=6, sweep=(6, 12), trials=3,
                        estimators=("FR",), solver_max_iters=2000,
                        solver_grid_points=9)


class TestConfig:
    def test_defaults_resolve_to_desk_scale(self):
        cfg = ExperimentConfig().resolved()
        assert cfg.n_agents == 50 and cfg.trials == 100
        assert cfg.sweep == (50, 500, 2450)

    def test_full_scale_switch(self):
        cfg = ExperimentConfig(full_scale=True).resolved()
        assert cfg.n_agents == 300 and cfg.trials == 1000
        assert cfg.sweep == (300, 3000, 89700)

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
        for alpha in (0.0, -0.05):
            with pytest.raises(ValueError, match="solver_alpha"):
                ExperimentConfig(solver_alpha=alpha).validate()
        with pytest.raises(ValueError, match="solver_tol must be nonnegative"):
            ExperimentConfig(solver_tol=-1.0).validate()
        for n_agents in (1, 0):
            with pytest.raises(ValueError, match="n_agents must be >= 2"):
                ExperimentConfig(n_agents=n_agents).validate()
        ExperimentConfig(solver_tol=0.0).validate()
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

    def test_empty_sweep_writes_headers_only(self, tmp_path):
        cfg = ExperimentConfig(model="preparata", sweep=(), trials=1,
                               estimators=("FR",))
        paths = emit_outputs(run_sweep(cfg), tmp_path)
        assert (tmp_path / "rmse.csv").read_text() == "n,estimator,param,rmse\n"
        assert (tmp_path / "misclass.csv").read_text() == "n,classifier,rate\n"
        assert read_rmse_csv(paths["rmse"]) == {}

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


class TestInvariantChecks:
    def test_all_pass_and_cover_the_suite(self):
        results = run_invariant_checks(seed=0)
        assert len(results) == 7
        assert all(r.passed for r in results), [
            (r.name, r.detail) for r in results if not r.passed]


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

    def test_check_command_reports_every_check(self):
        runner = CliRunner()
        result = runner.invoke(main, ["check", "--seed", "0"])
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 7
        assert "all 7 checks passed" in result.output

    def test_help_lists_subcommands(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("sweep", "social", "single", "check"):
            assert name in result.output
