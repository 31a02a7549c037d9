"""Monte Carlo harness: edge-count sweeps, RMSE and misclassification tables.

A sweep samples, for each edge count n in a list and each trial, a fresh
graph and score realization, runs the configured estimators, classifies every
agent both with each estimate and with the true parameters (the "oracle"
benchmark), and aggregates per-parameter RMSE and per-classifier
misclassification rates.  Everything is deterministic given the master seed:
trial k at edge count n draws from an independent stream keyed by
(master_seed, n, k), so the rows of an edge count do not depend on the other
edge counts of the sweep or on their order.  The trials run in chunks whose
estimates are solved together and classified in one pass (see run_sweep);
every result is the one a trial-by-trial run gives.
"""

from __future__ import annotations

import itertools
import json
import numbers
import os
import threading
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import __version__
from .classifier import ClassifierOutput, _soft_classify, misclassification_rate
from .distributed import run_distributed
from .estimators import (MAX_EXACT_AGENTS, _canonical_swap, _estimate_steps, _solve_together,
                         exact_problem, fr_problem, nr_problem)
from .graph import (_count, _draw_scores, _scorer, aggregate_counts,
                    make_comm_schedule, sample_score_graph, save_score_graph, save_states)
from .models import (ModelSpec, categorical_model, preparata_model,
                     reliability_model, social_ranking_model)

__all__ = [
    "ExperimentConfig",
    "SweepPoint",
    "SweepResult",
    "SingleRunResult",
    "build_model",
    "parse_config_file",
    "run_sweep",
    "run_single",
    "emit_outputs",
    "emit_single_outputs",
    "read_rmse_csv",
    "read_misclass_csv",
]

# true dispersion theta of the social-ranking sweep when the config sets none
SOCIAL_RANKING_THETA = (0.5,)
# true gamma when the config sets none; categorical takes its simplex centroid
SCALAR_GAMMA = (0.3,)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs; flat enough for a key-value config file."""

    model: str = "reliability"
    n_states: int | None = None
    n_scores: int | None = None
    theta: tuple = ()
    gamma: tuple = ()
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

    def resolved(self) -> "ExperimentConfig":
        """Apply the sweep rule and the per-model default theta and gamma."""
        cfg = self
        if cfg.model == "social-ranking" and not cfg.theta:
            cfg = replace(cfg, theta=SOCIAL_RANKING_THETA)
        if not cfg.gamma and cfg.model == "categorical":
            feas = build_model(cfg).feasible
            cfg = replace(cfg, gamma=tuple(feas.split(feas.centroid())[1].tolist()))
        cfg = replace(cfg, gamma=cfg.gamma or SCALAR_GAMMA)
        if cfg.sweep is None:
            n = cfg.n_agents
            # N, 10N, N(N-1), with 10N clipped to N(N-1) and repeats dropped
            cfg = replace(cfg, sweep=tuple(dict.fromkeys(
                (n, min(10 * n, n * (n - 1)), n * (n - 1)))))
        return cfg

    def validate(self) -> None:
        """Raise whatever a run of this config would raise before its first
        trial, with the same type and message (see _prepare)."""
        _prepare(self)


def build_model(config: ExperimentConfig) -> ModelSpec:
    """The configured model with its conventional defaults.

    Every call for the same model, C and R returns the same read-only
    ModelSpec, so a sweep builds its model once however often it asks for it,
    and the grid-start tables that the estimators keep per model object
    serve every later sweep of it.  The last 8 models built are kept.
    """
    name = config.model
    if name == "preparata":
        return _shared_model(name)
    if name == "reliability":
        return _shared_model(name, config.n_scores or 5)
    if name == "social-ranking":
        return _shared_model(name, config.n_states or 3, config.n_scores or 3)
    if name == "categorical":
        return _shared_model(name, config.n_states or 2, config.n_scores or 2)
    raise ValueError(f"unknown model {name!r}")


@lru_cache(maxsize=8)
def _shared_model(name: str, *sizes: int) -> ModelSpec:
    """The model `name` at its sizes (C, R), built on the first call only."""
    return {"preparata": preparata_model, "reliability": reliability_model,
            "social-ranking": social_ranking_model,
            "categorical": categorical_model}[name](*sizes)


def _true_params(config: ExperimentConfig, model: ModelSpec) -> np.ndarray:
    """The true z = [theta, gamma] of a resolved config, the centroid's theta where
    it sets none; InfeasibleError if a part is infeasible or of the wrong length."""
    theta = config.theta or model.feasible.split(model.feasible.centroid())[0]
    model.require_feasible(theta, config.gamma)
    return np.concatenate([np.asarray(theta, dtype=np.float64), config.gamma])


def _prepare(config: ExperimentConfig) -> tuple:
    """The resolved config, checked and with its sizes as ints, and what every
    trial of its run shares:
    (cfg, model, truth, scorer, schedule, fitted), with truth the checked z
    of _true_params, scorer the prior and CDF table that every trial draws
    its scores from at truth (graph._scorer, built once here), schedule
    that of _comm_schedule and fitted the configured estimators other than
    "oracle".  A run starts here, so this raises what a run raises before
    its first trial."""
    cfg = config.resolved()
    sizes = {key: _count(key, getattr(cfg, key), low) for key, low in (
        ("trials", 1), ("n_agents", 2), ("solver_grid_points", 1), ("solver_max_iters", 0),
        ("solver_rounds", 0), ("master_seed", 0), ("comm_window", None))}
    cfg = replace(cfg, **sizes, sweep=tuple(_count("sweep value", v) for v in cfg.sweep))
    if cfg.solver_alpha is not None and not (isinstance(cfg.solver_alpha, numbers.Real)
                                             and 0 < cfg.solver_alpha < np.inf):
        raise ValueError("solver_alpha must be positive and finite")
    if not cfg.solver_tol >= 0:
        raise ValueError("solver_tol must be nonnegative")
    model = build_model(cfg)
    for key, name in (("n_states", "C"), ("n_scores", "R")):
        given, fixed = getattr(cfg, key), getattr(model, key)
        if given is not None and given != fixed:
            raise ValueError(f"{name} = {given}: the {model.name} model has {name} = {fixed}")
    if not cfg.sweep:
        raise ValueError("sweep needs at least one edge count")
    n, max_edges = cfg.n_agents, cfg.n_agents * (cfg.n_agents - 1)
    for k, v in enumerate(cfg.sweep):
        if not n <= v <= max_edges:
            raise ValueError(f"sweep value {v} outside [{n}, {max_edges}]")
        if v in cfg.sweep[:k]:
            raise ValueError(f"sweep value {v} is listed twice")
    for k, est in enumerate(cfg.estimators):
        if est not in _ESTIMATORS:
            raise ValueError(f"unknown estimator {est!r}")
        if est in cfg.estimators[:k]:
            raise ValueError(f"estimator {est!r} is listed twice")
    if "exact" in cfg.estimators and cfg.n_agents > MAX_EXACT_AGENTS:
        raise ValueError(f"exact estimator is limited to {MAX_EXACT_AGENTS} agents")
    fitted = tuple(est for est in cfg.estimators if est != "oracle")
    truth = _true_params(cfg, model)
    theta, gamma = model.feasible.split(truth)
    scorer = _scorer(model, model.tensor_fn(theta), model.prior_fn(gamma))
    return cfg, model, truth, scorer, _comm_schedule(cfg), fitted


def _param_names(model: ModelSpec, indexed: bool = False) -> tuple:
    """Names of the coordinates of z: theta_1, ..., gamma_1, ..., where a
    scalar part is plain `theta` or `gamma` unless `indexed`."""
    return tuple(part if dim == 1 and not indexed else f"{part}_{k + 1}"
                 for part, dim in (("theta", model.theta_dim), ("gamma", model.gamma_dim))
                 for k in range(dim))


def _squared_errors(model: ModelSpec, z_hat: np.ndarray, z_true) -> np.ndarray:
    """Per-coordinate squared error of z_hat, one point or a stack (..., dim);
    a label-swap-symmetric gamma counts the distance to the nearer of
    gamma_true and 1 - gamma_true."""
    err = np.abs(z_hat - z_true)
    if model.label_swap_symmetric:     # then gamma is the last coordinate of z
        err[..., -1] = np.minimum(err[..., -1], np.abs(z_hat[..., -1] - (1.0 - z_true[-1])))
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
# Instances of at least this many edges draw their data (sample, score,
# aggregate) on threads when a chunk holds two or more of them (see
# _draw_on_threads); their numpy calls mostly release the GIL.  One chunk
# of two N = 300 oracle instances, medians of 400 alternating runs on a
# shared 2-vCPU VM, serial -> threaded: 300 edges 1.09 -> 1.66 ms, 3,000
# 1.41 -> 2.10, 6,000 2.75 -> 2.91, 10,000 3.34 -> 3.17, 20,000 5.75 -> 4.62
# and 89,700 11.0 -> 6.97 ms; below the crossover the thread costs more
# than the overlap saves.
_THREADED_EDGES = 10_000
# (edge count, trial) instances per chunk of a sweep, whose centralized
# problems are solved together and whose classifications take one pass; a
# chunk holds at most this many problems of each estimator, and their
# counts and states, never their graphs.  On the criterion 7 and 8 sweeps,
# desk and full scale, smaller chunks solved slower and larger ones were no
# faster while each instance added about 0.4 MB of peak memory at N = 300.
# The data stages of a chunk's large instances overlap, one per thread:
# each N = 300 instance of 89,700 edges in flight peaks at about 2.3 MB of
# arrays (tracemalloc), so on 2 CPUs the overlap adds about that much
SWEEP_CHUNK = 64


@dataclass
class _Instance:
    """One (edge count, trial) instance of a sweep chunk: its counts and
    true states, each fitted estimator's (z_hat, detail), the classifier
    outputs, its first failure (step, exception), and its seconds by stage."""

    n_edges: int
    trial: int
    graph: object = None
    states: np.ndarray | None = None
    counts: object = None
    fits: dict = field(default_factory=dict)
    outputs: dict | None = None
    failure: tuple | None = None
    stages: dict = field(default_factory=dict)

    def fail(self, step: int, exc: Exception) -> None:
        """Record that `step` raised: -1 the data, k the k-th fitted
        estimator, and one past the estimators the classification."""
        if self.failure is None or step < self.failure[0]:
            self.failure = (step, exc)

    def lap(self, stage: str, start: float) -> float:
        """Add the seconds since `start` to `stage`; return the time now."""
        self.stages[stage] = self.stages.get(stage, 0.0) + (now := time.perf_counter()) - start
        return now


def _run_distributed_trial(counts, model, config, schedule, record_trace):
    """FR-distributed on one trial: (z_hat, DistributedRun).

    `solver_alpha` is its fixed step.  With `record_trace` the run records
    every round; otherwise only the first and last rounds are kept.
    """
    run = run_distributed(
        counts, model, schedule,
        alpha=config.solver_alpha,
        n_rounds=config.solver_rounds,
        record_every=1 if record_trace else max(1, config.solver_rounds),
        rng=config.master_seed,
    )
    return _canonical_swap(run.final_z[0], model)[0], run


def _run_chunk(cfg: ExperimentConfig, model: ModelSpec, truth, scorer, schedule, keys,
               record_trace: bool = False, keep_graphs: bool = False) -> list:
    """Sample, fit and classify the instances `keys`, (n_edges, trial) pairs
    in sweep order: a list of _Instance.

    Each instance draws from the stream keyed by (master_seed, n_edges,
    trial): its data stage samples, scores and aggregates and keeps its
    counts and states (and its graph with `keep_graphs`, or while the exact
    estimator needs it).  When the chunk holds two or more instances of at
    least _THREADED_EDGES edges, their data stages run first, on
    min(their count, usable CPUs) threads, this one among them
    (_draw_on_threads); the other instances draw here, in sweep order.
    Then each instance, in sweep order, runs FR-distributed and builds its
    centralized problems, every centralized estimate of the chunk is solved
    at once, with one stacked kernel call per request kind and round
    (estimators._solve_together), and the true parameters and all
    estimates of all instances are classified in one stacked _soft_classify
    pass.  `truth` is the checked z of _true_params, so the oracle
    classifies without checking it again, and `scorer` the tables every
    instance draws its scores from at truth (see _prepare).
    With `record_trace` each solve keeps its trace and FR-distributed
    records every round.

    A step that raises stops only its instance and the instances after it.
    Once the chunk is done the first failure in sweep order is raised,
    taking an instance's steps in the order a trial runs them (data, the
    estimators as configured, classification), so a chunk raises what a
    trial-by-trial sweep raises.  An instance's `stages` are its seconds
    in "sample", "score", "aggregate", "FR-distributed", "solve" (building
    its NR, FR and exact problems, and its share of the chunk's solve time
    by problem count) and "classify" (its share of the classification time
    by instance count), each stage that the config runs.  Data stages on
    threads overlap, so the stage seconds of a chunk can add up to more
    than its wall time.
    """
    fitted = [est for est in cfg.estimators if est != "oracle"]
    keep = keep_graphs or "exact" in fitted

    def draw(item: _Instance) -> None:
        start = time.perf_counter()
        try:
            rng = np.random.default_rng([cfg.master_seed, item.n_edges, item.trial])
            graph = sample_score_graph(cfg.n_agents, item.n_edges, "cyclic-plus-random-edges", rng)
            start = item.lap("sample", start)
            scored, item.states = _draw_scores(graph, scorer, rng)
            start = item.lap("score", start)
            item.counts = aggregate_counts(scored)
            item.lap("aggregate", start)
            if keep:
                item.graph = scored
        except Exception as exc:
            item.fail(-1, exc)

    chunk = [_Instance(n_edges, trial) for n_edges, trial in keys]
    large = [item for item in chunk if item.n_edges >= _THREADED_EDGES]
    threaded = _draw_on_threads(large, draw)
    jobs = []
    for item in chunk:
        if not (threaded and item.n_edges >= _THREADED_EDGES):
            draw(item)
        if item.failure is not None:
            break
        start = time.perf_counter()
        try:
            for step, est in enumerate(fitted):
                if est == "FR-distributed":
                    item.fits[est] = _run_distributed_trial(item.counts, model, cfg, schedule,
                                                            record_trace)
                    start = item.lap(est, start)
                    continue
                build, grid_points = _ESTIMATORS[est]
                problem = build(item.graph, item.counts, model)
                jobs.append((item, step, est, problem, _estimate_steps(
                    problem, grid_points or cfg.solver_grid_points, cfg.solver_max_iters,
                    cfg.solver_tol, record_trace)))
                start = item.lap("solve", start)
        except Exception as exc:
            item.fail(step, exc)
        if not keep_graphs:
            item.graph = None
        if item.failure is not None:
            break
    start = time.perf_counter()
    results = _solve_together([(problem, steps) for *_, problem, steps in jobs])
    share = (time.perf_counter() - start) / max(1, len(jobs))
    for (item, step, est, _, _), result in zip(jobs, results):
        item.stages["solve"] += share
        if isinstance(result, Exception):
            item.fail(step, result)
        else:
            item.fits[est] = result.z, result
    fit = list(itertools.takewhile(lambda item: item.failure is None, chunk))
    if fit:
        start = time.perf_counter()
        _classify(fit, model, truth, fitted)
        share = (time.perf_counter() - start) / len(fit)
        for item in fit:
            item.stages["classify"] = share
    for item in chunk:
        if item.failure is not None:
            raise item.failure[1]
    return chunk


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_on_threads(items: list, draw) -> bool:
    """Run `draw` on each of `items` on min(len(items), usable CPUs) threads,
    this one and the workers it starts, and return True; return False,
    having run nothing, when that is one thread.

    The threads take the items in order.  Once an item records a failure,
    or once a thread raises (KeyboardInterrupt here, say), the items not yet
    taken are cancelled.  Every worker has ended when this returns or
    raises; what this thread raised, else what a worker raised, is raised.
    """
    n_threads = min(len(items), _usable_cpus())
    if n_threads < 2:
        return False
    todo, lock, raised = iter(items), threading.Lock(), []
    stop = False

    def work():
        nonlocal stop
        while True:
            with lock:
                item = None if stop else next(todo, None)
            if item is None:
                return
            draw(item)
            if item.failure is not None:
                stop = True

    def worker():
        nonlocal stop
        try:
            work()
        except BaseException as exc:    # raised again by the calling thread
            stop = True
            raised.append(exc)

    workers = []
    try:
        for _ in range(n_threads - 1):
            thread = threading.Thread(target=worker)
            thread.start()
            workers.append(thread)
        work()
    finally:
        stop = True
        for thread in workers:
            thread.join()
    if raised:
        raise raised[0]
    return True


def _classify(chunk: list, model: ModelSpec, truth, fitted: list) -> None:
    """Set each instance's outputs: its ClassifierOutput for the true
    parameters ("oracle") and for each fitted estimate, all from one stacked
    _soft_classify pass over the chunk's counts.  Where that pass raises,
    the instances are classified one by one and the first that raises
    records its failure."""
    split = model.feasible.split
    # each z a projected, hence feasible, point
    points = np.array([[truth, *(item.fits[est][0] for est in fitted)] for item in chunk])
    try:
        stacked = _soft_classify([item.counts for item in chunk], model, *split(points))
    except Exception:
        for item, z in zip(chunk, points):
            try:
                _soft_classify(item.counts, model, *split(z))
            except Exception as exc:
                item.fail(len(fitted), exc)
                return
        raise
    for k, item in enumerate(chunk):
        item.outputs = {cls: ClassifierOutput(stacked.posterior[k, l], stacked.labels[k, l],
                                              stacked.log_unnormalized[k, l])
                        for l, cls in enumerate(("oracle", *fitted))}


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated results at one edge count.

    `stage_seconds` sums the trials' seconds by stage (see _run_chunk), and
    `wall_clock` is their total plus the point's own aggregation time.
    Both sum per-instance elapsed times: where the data stages of large
    instances overlap on threads, they can exceed the wall time that passed.
    `solves` gives each NR, FR and exact estimator's "iterations", [median,
    max] of n_iters, and "unconverged_trials", the trials whose solve did
    not converge.
    """

    n_edges: int
    trials: int
    rmse: dict
    misclass: dict
    spread: dict
    wall_clock: float
    stage_seconds: dict
    solves: dict


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
    """Run the full Monte Carlo sweep described by the config.

    The (edge count, trial) instances run in sweep order, in chunks of up to
    SWEEP_CHUNK (see _run_chunk): each instance samples its data and keeps
    only its counts and states (a chunk's large instances on parallel
    threads), every centralized problem of the chunk is
    solved together, with one stacked kernel call per request kind and
    solver round, and the chunk classifies in one stacked pass.  Every
    result has the bits of a trial-by-trial run, and the points aggregate
    the trials in order, so the RMSE and misclassification means sum the
    same floats in the same order (see _sweep_point).
    """
    cfg, model, truth, scorer, schedule, fitted = _prepare(config)
    names = _param_names(model)
    classifiers = ("oracle", *fitted)
    keys = [(n_edges, trial) for n_edges in cfg.sweep for trial in range(cfg.trials)]
    points, numbers = [], []
    t_start = time.perf_counter()
    for first in range(0, len(keys), SWEEP_CHUNK):
        for item in _run_chunk(cfg, model, truth, scorer, schedule,
                               keys[first:first + SWEEP_CHUNK]):
            start = time.perf_counter()
            numbers.append((
                [misclassification_rate(item.outputs[cls].labels, item.states)
                 for cls in classifiers],
                [item.fits[est][0] for est in fitted],
                [item.fits[est][1] for est in fitted],
                item.stages,
                time.perf_counter() - start,
            ))
            if len(numbers) == cfg.trials:
                points.append(_sweep_point(item.n_edges, model, truth, names, fitted,
                                           classifiers, numbers))
                numbers = []
    return SweepResult(
        config=cfg,
        model_name=model.name,
        param_names=names,
        estimator_names=fitted,
        classifier_names=classifiers,
        points=tuple(points),
        wall_clock=time.perf_counter() - t_start,
    )


def _sweep_point(n_edges: int, model: ModelSpec, truth, names: tuple, fitted: tuple,
                 classifiers: tuple, numbers: list) -> SweepPoint:
    """The SweepPoint of one edge count from its trials' (misclassification
    rates, estimates, details, stage seconds, aggregation seconds), in
    trial order.

    Each table takes one reduction whose summation order is that of numpy's
    mean over one estimator's (trials, dim) squared errors, or over one
    classifier's list of rates, so every number has the bits of such a
    mean: the errors as a left fold over the trials, along axis 0 of the
    (trials, E, dim) table, except at dim = 1, where numpy sums the one
    contiguous column pairwise, as it does each row of the contiguous
    (E, trials) table here; the rates pairwise, along the contiguous rows of
    a (K, trials) table.
    """
    mis, estimates, details, stages, seconds = zip(*numbers)
    trials = len(numbers)
    errors = _squared_errors(model, np.array(estimates).reshape(trials, len(fitted), len(names)),
                             truth)
    total = (np.add.reduce(errors, axis=0) if len(names) > 1
             else np.add.reduce(np.ascontiguousarray(errors[..., 0].T), axis=-1)[:, None])
    rates = np.add.reduce(np.ascontiguousarray(np.array(mis).T), axis=-1) / trials
    stage_seconds = {key: sum(row[key] for row in stages) for key in stages[0]}
    return SweepPoint(
        n_edges=n_edges,
        trials=trials,
        rmse={est: dict(zip(names, row)) for est, row in zip(fitted, np.sqrt(total / trials))},
        misclass=dict(zip(classifiers, rates.tolist())),
        spread={est: float(np.max([run.spread() for run in runs]))
                for est, runs in zip(fitted, zip(*details)) if est == "FR-distributed"},
        wall_clock=sum(stage_seconds.values()) + sum(seconds),
        stage_seconds=stage_seconds,
        # medians of sorted lists in Python: np.median's overhead shows in a short sweep
        solves={est: {"iterations": [(n_it[(trials - 1) // 2] + n_it[trials // 2]) / 2, n_it[-1]],
                      "unconverged_trials": [k for k, res in enumerate(results)
                                             if not res.converged]}
                for est, results in zip(fitted, zip(*details)) if est != "FR-distributed"
                for n_it in [sorted(res.n_iters for res in results)]},
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_lines(lines, path) -> str:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_json(obj, path) -> str:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj) + "\n")
    return path


def emit_outputs(result: SweepResult, out_dir) -> dict:
    """Write rmse.csv, misclass.csv, and a meta.json sidecar; return the paths.

    CSV numerics round-trip exactly (shortest-repr floats); only the sidecar
    carries timestamps, so identical runs produce byte-identical CSVs.  A
    point's wall_clock_seconds, stage_seconds and solves in the sidecar are
    those of its SweepPoint; the sidecar is compact JSON.
    Each file is written with a plain truncating write and is not fsynced.
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
        "config": vars(result.config),
        "model": result.model_name,
        "points": [
            {"n": p.n_edges, "trials": p.trials, "wall_clock_seconds": p.wall_clock,
             "spread": p.spread, "stage_seconds": p.stage_seconds, "solves": p.solves}
            for p in result.points
        ],
    }
    meta_path = _write_json(meta, os.path.join(out_dir, "meta.json"))
    return {"rmse": rmse_path, "misclass": mis_path, "meta": meta_path}


def _read_csv(path, header: str, error: str) -> dict:
    """Parse `n,<key columns>,value` rows back into {(n, *keys): value}; a
    row that does not fit raises ValueError prefixed with `path:line:`."""
    out = {}
    width = header.count(",") + 1
    with open(path) as fh:
        if fh.readline().strip() != header:
            raise ValueError(error)
        for lineno, line in enumerate(fh, start=2):
            row = line.strip().split(",")
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            n, *keys, value = row
            try:
                out[(int(n), *keys)] = float(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
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
    cfg, model, truth, scorer, schedule, fitted = _prepare(config)
    (item,) = _run_chunk(cfg, model, truth, scorer, schedule, [(cfg.sweep[0], 0)],
                         record_trace=True, keep_graphs=True)
    return SingleRunResult(
        config=cfg,
        model_name=model.name,
        param_names=_param_names(model),
        graph=item.graph,
        states=item.states,
        estimates={"oracle": truth, **{est: item.fits[est][0] for est in fitted}},
        outputs=item.outputs,
        details={est: item.fits[est][1] for est in fitted},
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
        "config": vars(result.config),
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
    the model default).  A value that does not convert, or a key set
    twice, raises ValueError prefixed with `path:line:`.  Keys: model, C, R,
    theta, gamma, N, sweep, trials, estimators, comm.family, comm.Q,
    solver.alpha, solver.T, solver.tol, solver.max_iters,
    solver.grid_points, seed, out.
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
            if field_name in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} is set twice")
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
