"""Monte Carlo harness: edge-count sweeps, RMSE and misclassification tables.

A sweep samples, for each edge count n in a list and each trial, a fresh
graph and score realization, runs the configured estimators, classifies every
agent both with each estimate and with the true parameters (the "oracle"
benchmark), and aggregates per-parameter RMSE and per-classifier
misclassification rates.  Everything is deterministic given the master seed:
trial k at edge count n draws from an independent stream keyed by
(master_seed, n, k), so the rows of an edge count do not depend on the other
edge counts of the sweep or on their order.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .classifier import misclassification_rate, soft_classify
from .distributed import initial_state, push_sum_round, run_distributed
from .estimators import (MAX_EXACT_AGENTS, _canonical_swap, estimate, exact_problem,
                         fr_binary_closed_form, fr_objective, fr_problem, nr_objective,
                         nr_problem)
from .graph import (aggregate_counts, generate_scores, make_comm_schedule,
                    sample_score_graph, save_score_graph, save_states)
from .models import (ModelSpec, categorical_model, preparata_model,
                     reliability_model, social_ranking_model)

__all__ = [
    "ExperimentConfig",
    "SweepPoint",
    "SweepResult",
    "SingleRunResult",
    "CheckResult",
    "build_model",
    "parse_config_file",
    "run_sweep",
    "run_single",
    "emit_outputs",
    "emit_single_outputs",
    "read_rmse_csv",
    "read_misclass_csv",
    "run_invariant_checks",
]

FULL_SCALE_AGENTS = 300
FULL_SCALE_TRIALS = 1000
# true dispersion theta of the social-ranking sweep when the config sets none
SOCIAL_RANKING_THETA = (0.5,)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs; flat enough for a key-value config file."""

    model: str = "reliability"
    n_states: int | None = None
    n_scores: int | None = None
    theta: tuple = ()
    gamma: tuple = (0.3,)
    n_agents: int = 50
    sweep: tuple | None = None
    trials: int = 100
    estimators: tuple = ("NR", "FR")
    comm_family: str = "static-complete"
    comm_window: int = 1
    solver_alpha: float | None = None
    solver_rounds: int = 2000
    solver_tol: float = 1e-8
    solver_max_iters: int = 5000
    solver_grid_points: int = 33
    master_seed: int = 0
    out_dir: str | None = None
    full_scale: bool = False

    def resolved(self) -> "ExperimentConfig":
        """Apply the full-scale switch, the sweep rule and the social-ranking default theta."""
        cfg = self
        if cfg.full_scale:
            cfg = replace(cfg, n_agents=FULL_SCALE_AGENTS, trials=FULL_SCALE_TRIALS,
                          full_scale=False)
        if cfg.model == "social-ranking" and not cfg.theta:
            cfg = replace(cfg, theta=SOCIAL_RANKING_THETA)
        if cfg.sweep is None:
            n = cfg.n_agents
            cfg = replace(cfg, sweep=(n, 10 * n, n * (n - 1)))
        return cfg

    def validate(self) -> None:
        cfg = self.resolved()
        if cfg.trials < 1:
            raise ValueError("trials must be >= 1")
        if cfg.solver_alpha is not None and not cfg.solver_alpha > 0:
            raise ValueError("solver_alpha must be positive")
        if not cfg.solver_tol >= 0:
            raise ValueError("solver_tol must be nonnegative")
        if cfg.n_agents < 2:
            raise ValueError("n_agents must be >= 2")
        n, max_edges = cfg.n_agents, cfg.n_agents * (cfg.n_agents - 1)
        for v in cfg.sweep:
            if not n <= v <= max_edges:
                raise ValueError(f"sweep value {v} outside [{n}, {max_edges}]")
        for est in cfg.estimators:
            if est not in _ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r}")
        if "exact" in cfg.estimators and cfg.n_agents > MAX_EXACT_AGENTS:
            raise ValueError(f"exact estimator is limited to {MAX_EXACT_AGENTS} agents")


def build_model(config: ExperimentConfig) -> ModelSpec:
    """Instantiate the configured model with its conventional defaults."""
    name = config.model
    if name == "preparata":
        return preparata_model()
    if name == "reliability":
        return reliability_model(config.n_scores or 5)
    if name == "social-ranking":
        return social_ranking_model(config.n_states or 3, config.n_scores or 3)
    if name == "categorical":
        return categorical_model(config.n_states or 2, config.n_scores or 2)
    raise ValueError(f"unknown model {name!r}")


def _true_params(config: ExperimentConfig, model: ModelSpec) -> np.ndarray:
    """The true z = [theta, gamma]; the centroid's part where the config sets none."""
    center_theta, center_gamma = model.feasible.split(model.feasible.centroid())
    theta = np.asarray(config.theta or center_theta, dtype=np.float64)
    gamma = np.asarray(config.gamma, dtype=np.float64)
    if gamma.size == 0 or (model.gamma_dim > 1 and gamma.size == 1):
        gamma = center_gamma
    model.require_feasible(theta, gamma)
    return np.concatenate([theta, gamma])


def _param_names(model: ModelSpec, indexed: bool = False) -> tuple:
    """Names of the coordinates of z: theta_1, ..., gamma_1, ..., where a
    scalar part is plain `theta` or `gamma` unless `indexed`."""
    return tuple(part if dim == 1 and not indexed else f"{part}_{k + 1}"
                 for part, dim in (("theta", model.theta_dim), ("gamma", model.gamma_dim))
                 for k in range(dim))


def _squared_errors(model: ModelSpec, z_hat, z_true) -> np.ndarray:
    """Per-coordinate squared error of z_hat; a label-swap-symmetric gamma
    counts the distance to the nearer of gamma_true and 1 - gamma_true."""
    err = np.abs(z_hat - z_true)
    if model.label_swap_symmetric:     # then gamma is the last coordinate of z
        err[-1] = min(err[-1], abs(z_hat[-1] - (1.0 - z_true[-1])))
    # libm's pow, as Python's float ** uses; numpy's ** 2 is err * err, which
    # differs from it in the last bit of about one square in a thousand
    return np.float_power(err, 2)


def _comm_schedule(cfg: ExperimentConfig):
    """The FR-distributed communication schedule, or None when it is not run."""
    if "FR-distributed" not in cfg.estimators:
        return None
    return make_comm_schedule(cfg.n_agents, cfg.comm_family, cfg.comm_window,
                              rng=np.random.default_rng([cfg.master_seed, 0xC0FFEE]))


# Estimator name -> (problem factory, start-grid points or None for the
# configured count).  FR-distributed runs the push-sum simulation instead, and
# "oracle" classifies with the true parameters.
_ESTIMATORS = {
    "NR": (lambda graph, counts, model: nr_problem(counts, model), None),
    "FR": (lambda graph, counts, model: fr_problem(counts, model), None),
    "exact": (lambda graph, counts, model: exact_problem(graph, model), 21),
    "FR-distributed": None,
    "oracle": None,
}


def _run_estimator(name, model, graph, counts, config, schedule, record_trace):
    """Fit one estimator on one trial: (z_hat, detail).

    `detail` is the estimate's SolveResult of a centralized estimator and the
    DistributedRun of FR-distributed.  With `record_trace` the solve keeps
    its iterate trace and the distributed run records every round;
    otherwise only the first and last rounds are kept.
    """
    if name == "FR-distributed":
        run = run_distributed(
            counts, model, schedule,
            alpha=config.solver_alpha,
            n_rounds=config.solver_rounds,
            record_every=1 if record_trace else max(1, config.solver_rounds),
            rng=config.master_seed,
        )
        return _canonical_swap(run.final_z[0], model)[0], run
    build, grid_points = _ESTIMATORS[name]
    res = estimate(build(graph, counts, model),
                   grid_points=grid_points or config.solver_grid_points,
                   alpha=1.0 if config.solver_alpha is None else config.solver_alpha,
                   max_iters=config.solver_max_iters, tol=config.solver_tol,
                   record_trace=record_trace)
    return res.z, res


def _run_trial(cfg: ExperimentConfig, model: ModelSpec, truth, schedule, n_edges: int,
               trial: int, record_trace: bool = False):
    """One trial: sample, score, aggregate, classify with the true parameters,
    then fit and classify with each configured estimator.

    The draws come from the stream keyed by (master_seed, n_edges, trial).
    Returns (scored graph, true states, estimates, outputs, details):
    `estimates` and `outputs` map each classifier, "oracle" first, to its
    z = [theta, gamma] and ClassifierOutput; `details` maps each fitted
    estimator to its SolveResult or DistributedRun.
    """
    split = model.feasible.split
    rng = np.random.default_rng([cfg.master_seed, n_edges, trial])
    graph = sample_score_graph(cfg.n_agents, n_edges, "cyclic-plus-random-edges", rng)
    scored, states = generate_scores(graph, model, *split(truth), rng)
    counts = aggregate_counts(scored)
    estimates = {"oracle": truth}
    outputs = {"oracle": soft_classify(counts, model, *split(truth))}
    details = {}
    for est in cfg.estimators:
        if est != "oracle":
            estimates[est], details[est] = _run_estimator(
                est, model, scored, counts, cfg, schedule, record_trace)
            outputs[est] = soft_classify(counts, model, *split(estimates[est]))
    return scored, states, estimates, outputs, details


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated results at one edge count."""

    n_edges: int
    trials: int
    rmse: dict
    misclass: dict
    spread: dict
    wall_clock: float


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    model_name: str
    param_names: tuple
    estimator_names: tuple
    classifier_names: tuple
    points: tuple
    wall_clock: float


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the full Monte Carlo sweep described by the config."""
    config.validate()
    cfg = config.resolved()
    model = build_model(cfg)
    truth = _true_params(cfg, model)
    names = _param_names(model)
    schedule = _comm_schedule(cfg)
    fitted = tuple(est for est in cfg.estimators if est != "oracle")
    classifiers = ("oracle", *fitted)
    points = []
    t_start = time.perf_counter()
    for n_edges in cfg.sweep:
        p_start = time.perf_counter()
        sq_errors = {est: [] for est in fitted}
        mis = {cls: [] for cls in classifiers}
        spreads = {est: [] for est in fitted if est == "FR-distributed"}
        for trial in range(cfg.trials):
            _, states, estimates, outputs, details = _run_trial(
                cfg, model, truth, schedule, n_edges, trial)
            for cls in classifiers:
                mis[cls].append(misclassification_rate(outputs[cls].labels, states))
            for est in fitted:
                sq_errors[est].append(_squared_errors(model, estimates[est], truth))
                if est in spreads:
                    spreads[est].append(details[est].spread())
        rmse = {
            est: dict(zip(names, np.sqrt(np.mean(np.asarray(sq_errors[est]), axis=0))))
            for est in fitted
        }
        points.append(SweepPoint(
            n_edges=n_edges,
            trials=cfg.trials,
            rmse=rmse,
            misclass={k: float(np.mean(v)) for k, v in mis.items()},
            spread={k: float(np.max(v)) for k, v in spreads.items() if v},
            wall_clock=time.perf_counter() - p_start,
        ))
    return SweepResult(
        config=cfg,
        model_name=model.name,
        param_names=names,
        estimator_names=fitted,
        classifier_names=classifiers,
        points=tuple(points),
        wall_clock=time.perf_counter() - t_start,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_lines(lines, path) -> str:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_json(obj, path) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    return path


def emit_outputs(result: SweepResult, out_dir) -> dict:
    """Write rmse.csv, misclass.csv, and a meta.json sidecar; return the paths.

    CSV numerics round-trip exactly (shortest-repr floats); only the sidecar
    carries timestamps, so identical runs produce byte-identical CSVs.
    """
    os.makedirs(out_dir, exist_ok=True)
    lines = ["n,estimator,param,rmse"]
    for point in result.points:
        for est in result.estimator_names:
            for name in result.param_names:
                lines.append(f"{point.n_edges},{est},{name},{_fmt(point.rmse[est][name])}")
    rmse_path = _write_lines(lines, os.path.join(out_dir, "rmse.csv"))
    lines = ["n,classifier,rate"]
    for point in result.points:
        for cls in result.classifier_names:
            lines.append(f"{point.n_edges},{cls},{_fmt(point.misclass[cls])}")
    mis_path = _write_lines(lines, os.path.join(out_dir, "misclass.csv"))
    meta = {
        "package": "scoregraph",
        "version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_clock_seconds": result.wall_clock,
        "config": asdict(result.config),
        "model": result.model_name,
        "points": [
            {"n": p.n_edges, "trials": p.trials, "wall_clock_seconds": p.wall_clock,
             "spread": p.spread}
            for p in result.points
        ],
    }
    meta_path = _write_json(meta, os.path.join(out_dir, "meta.json"))
    return {"rmse": rmse_path, "misclass": mis_path, "meta": meta_path}


def _read_csv(path, header: str, error: str) -> dict:
    """Parse `n,<key columns>,value` rows back into {(n, *keys): value}."""
    out = {}
    with open(path) as fh:
        if fh.readline().strip() != header:
            raise ValueError(error)
        for line in fh:
            n, *keys, value = line.strip().split(",")
            out[(int(n), *keys)] = float(value)
    return out


def read_rmse_csv(path) -> dict:
    """Parse rmse.csv back into {(n, estimator, param): rmse}."""
    return _read_csv(path, "n,estimator,param,rmse", "not an rmse.csv file")


def read_misclass_csv(path) -> dict:
    """Parse misclass.csv back into {(n, classifier): rate}."""
    return _read_csv(path, "n,classifier,rate", "not a misclass.csv file")


@dataclass(frozen=True)
class SingleRunResult:
    """One fully exported instance: data, estimates (z), classifier outputs, and
    each fitted estimator's SolveResult or DistributedRun (`details`)."""

    config: ExperimentConfig
    model_name: str
    param_names: tuple
    graph: object
    states: np.ndarray
    estimates: dict
    outputs: dict
    details: dict


def run_single(config: ExperimentConfig) -> SingleRunResult:
    """Run trial 0 of the first sweep point, with solver traces and every round recorded."""
    config.validate()
    cfg = config.resolved()
    if not cfg.sweep:
        raise ValueError("a single run needs at least one sweep value")
    model = build_model(cfg)
    scored, states, estimates, outputs, details = _run_trial(
        cfg, model, _true_params(cfg, model), _comm_schedule(cfg), cfg.sweep[0], 0,
        record_trace=True)
    return SingleRunResult(
        config=cfg,
        model_name=model.name,
        param_names=_param_names(model),
        graph=scored,
        states=states,
        estimates=estimates,
        outputs=outputs,
        details=details,
    )


def emit_single_outputs(result: SingleRunResult, out_dir) -> dict:
    """Write graph/states files, per-classifier soft CSVs, solver traces, estimates.

    Traces and the trajectory index every parameter column (theta_1, ...,
    gamma_1, ...); estimates.csv names them as sweeps do (see _param_names).
    """
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(result.config)
    z_cols = _param_names(model, indexed=True)
    paths = {}

    def write(key, filename, writer, *args):
        paths[key] = os.path.join(out_dir, filename)
        writer(*args, paths[key])

    write("graph", "graph.txt", save_score_graph, result.graph)
    write("states", "states.txt", save_states, result.states)
    for name, output in result.outputs.items():
        lines = [",".join(["agent", *(f"u_{l + 1}" for l in range(model.n_states)),
                           "map_label"])]
        for i, (u, label) in enumerate(zip(output.posterior, output.labels), start=1):
            lines.append(",".join([str(i), *map(_fmt, u), str(int(label) + 1)]))
        write(f"soft_{name}", f"soft_{name}.csv", _write_lines, lines)
    solves = dict(result.details)
    run = solves.pop("FR-distributed", None)
    for name, solve in solves.items():
        lines = [",".join(["iter", "objective", *z_cols])]
        for row in solve.trace:
            lines.append(",".join([str(int(row[0])), *map(_fmt, row[1:])]))
        write(f"trace_{name}", f"trace_{name}.csv", _write_lines, lines)
    if run is not None:
        lines = [",".join(["t", "agent", *(f"phi_{h + 1}" for h in range(model.n_scores)),
                           *z_cols])]
        for t, phis, zs in zip(run.times, run.phi_traj, run.z_traj):
            for i, (phi, z) in enumerate(zip(phis, zs), start=1):
                lines.append(",".join([str(int(t)), str(i), *map(_fmt, phi), *map(_fmt, z)]))
        write("trajectory", "trajectory.csv", _write_lines, lines)
        _write_json({
            "alpha": run.alpha,
            "n_rounds": int(run.n_rounds),
            "model": result.model_name,
            "n_agents": int(run.phi_traj.shape[1]),
            "n_scores": model.n_scores,
            "z_dim": model.feasible.dim,
            "snapshots": [int(t) for t in run.times],
        }, paths["trajectory"] + ".meta.json")
    lines = ["estimator,param,value"]
    for name, z in result.estimates.items():
        for pname, v in zip(result.param_names, z):
            lines.append(f"{name},{pname},{_fmt(v)}")
    write("estimates", "estimates.csv", _write_lines, lines)
    write("meta", "meta.json", _write_json, {
        "package": "scoregraph",
        "version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": asdict(result.config),
        "model": result.model_name,
        "misclassification": {
            name: misclassification_rate(out.labels, result.states)
            for name, out in result.outputs.items()
        },
    })
    return paths


_CONFIG_KEYS = {
    "model": ("model", str),
    "C": ("n_states", int),
    "R": ("n_scores", int),
    "theta": ("theta", "floats"),
    "gamma": ("gamma", "floats"),
    "N": ("n_agents", int),
    "sweep": ("sweep", "ints"),
    "trials": ("trials", int),
    "estimators": ("estimators", "strs"),
    "comm.family": ("comm_family", str),
    "comm.Q": ("comm_window", int),
    "solver.alpha": ("solver_alpha", float),
    "solver.T": ("solver_rounds", int),
    "solver.tol": ("solver_tol", float),
    "solver.max_iters": ("solver_max_iters", int),
    "solver.grid_points": ("solver_grid_points", int),
    "seed": ("master_seed", int),
    "out": ("out_dir", str),
}


def parse_config_file(path) -> ExperimentConfig:
    """Parse the flat key-value config format.

    One `key = value` per line; `#` starts a comment; lists are
    comma-separated, and an empty list value gives () (for theta and gamma:
    the model default).  A value that does not convert raises ValueError
    prefixed with `path:line:`.  Keys: model, C, R, theta, gamma, N, sweep,
    trials, estimators, comm.family, comm.Q, solver.alpha, solver.T,
    solver.tol, solver.max_iters, solver.grid_points, seed, out.
    """
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            field_name, kind = _CONFIG_KEYS[key]
            try:
                if isinstance(kind, str):   # a list; an empty value is ()
                    item = {"floats": float, "ints": int, "strs": str.strip}[kind]
                    value = tuple(item(x) for x in text.split(",")) if text else ()
                else:
                    value = kind(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
            values[field_name] = value
    return ExperimentConfig(**values)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name, fn) -> CheckResult:
    try:
        fn()
        return CheckResult(name, True)
    except Exception as exc:  # report, do not crash the suite
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def run_invariant_checks(seed: int = 0) -> list:
    """Fast self-contained invariant suite backing the `check` CLI command."""

    def counts_identities():
        rng = np.random.default_rng([seed, 1])
        model = reliability_model(3)
        graph = sample_score_graph(12, 40, "cyclic-plus-random-edges", rng)
        scored, _ = generate_scores(graph, model, (), (0.4,), rng)
        counts = aggregate_counts(scored)
        counts.validate()
        assert counts.n_edges == scored.n_edges
        assert np.all(np.abs(counts.phi.sum() - 1.0) < 1e-12)

    def schedule_connectivity():
        for family, window in (("static-complete", 1), ("static-cycle", 1),
                               ("periodic-edge-partition", 3)):
            sched = make_comm_schedule(8, family, window,
                                       rng=np.random.default_rng([seed, 2]))
            assert sched.satisfies_window_connectivity()

    def pushsum_conservation():
        rng = np.random.default_rng([seed, 3])
        model = reliability_model(4)
        graph = sample_score_graph(12, 40, "cyclic-plus-random-edges", rng)
        scored, _ = generate_scores(graph, model, (), (0.3,), rng)
        counts = aggregate_counts(scored)
        sched = make_comm_schedule(12, "periodic-edge-partition", 3,
                                   rng=np.random.default_rng([seed, 4]))
        state = initial_state(counts, model)
        target_xi = state.xi.sum(axis=0)
        target_eta = state.eta.sum()
        for t in range(600):
            state = push_sum_round(state, sched, t)
            assert np.all(np.abs(state.xi.sum(axis=0) - target_xi) <= 1e-9 * target_xi)
            assert abs(state.eta.sum() - target_eta) <= 1e-9 * target_eta
        final_err = np.abs(state.phi - counts.phi[None, :]).max()
        assert final_err < 1e-6, f"phi error {final_err}"

    def model_normalization():
        rng = np.random.default_rng([seed, 5])
        for model in (preparata_model(), reliability_model(5),
                      social_ranking_model(3, 3), categorical_model(2, 3)):
            for _ in range(50):
                z = model.feasible.sample_interior(rng)
                theta, gamma = model.feasible.split(z)
                tensor = model.tensor(theta)
                prior = model.prior(gamma)
                assert np.all(np.abs(tensor.sum(axis=0) - 1.0) < 1e-12)
                assert abs(prior.sum() - 1.0) < 1e-12
                assert tensor.min() >= 0 and prior.min() >= 0

    def closed_form_matches_grid():
        grid = np.linspace(0.0, 1.0, 4001)
        for phi2 in (0.1, 0.3, 0.45, 0.52, 0.6, 0.9):
            model = preparata_model()
            phi = np.array([1.0 - phi2, phi2])
            values = np.array([fr_objective(phi, model, (), (g,)) for g in grid])
            best = values.min()
            got = fr_objective(phi, model, (), (fr_binary_closed_form(phi2),))
            assert got <= best + 1e-9, f"phi2={phi2}: {got} vs grid {best}"

    def label_swap_objective():
        rng = np.random.default_rng([seed, 6])
        model = social_ranking_model(3, 3)
        graph = sample_score_graph(15, 60, "cyclic-plus-random-edges", rng)
        scored, _ = generate_scores(graph, model, (0.5,), (0.3,), rng)
        counts = aggregate_counts(scored)
        for th, g in ((0.5, 0.3), (1.1, 0.7), (0.2, 0.5)):
            a = nr_objective(counts, model, (th,), (g,))
            b = nr_objective(counts, model, (th,), (1.0 - g,))
            assert abs(a - b) < 1e-9
            a = fr_objective(counts.phi, model, (th,), (g,))
            b = fr_objective(counts.phi, model, (th,), (1.0 - g,))
            assert abs(a - b) < 1e-9

    def determinism():
        import tempfile
        cfg = ExperimentConfig(model="reliability", n_scores=3, gamma=(0.3,),
                               n_agents=10, sweep=(10, 40), trials=2,
                               estimators=("FR",), master_seed=seed,
                               solver_max_iters=500)
        with tempfile.TemporaryDirectory() as tmp:
            d1, d2 = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            p1 = emit_outputs(run_sweep(cfg), d1)
            p2 = emit_outputs(run_sweep(cfg), d2)
            for key in ("rmse", "misclass"):
                with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
                    assert f1.read() == f2.read(), f"{key} differs between runs"

    return [_check(name, fn) for name, fn in (
        ("counts-identities", counts_identities),
        ("schedule-window-connectivity", schedule_connectivity),
        ("push-sum-conservation", pushsum_conservation),
        ("model-normalization", model_normalization),
        ("closed-form-matches-grid", closed_form_matches_grid),
        ("label-swap-objective", label_swap_objective),
        ("determinism", determinism))]
