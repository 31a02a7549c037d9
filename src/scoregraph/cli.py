"""Command line front end.

    scoregraph sweep   edge-count sweep, RMSE + misclassification CSVs
    scoregraph social  same sweep pinned to the graded-state model, C = R = 3
    scoregraph single  one instance with full per-agent exports
"""

from __future__ import annotations

import functools
from dataclasses import replace

import click

from .experiments import (ExperimentConfig, build_model, emit_outputs,
                          emit_single_outputs, parse_config_file, run_single,
                          run_sweep)


def _load_config(config_path, full_scale=False, **overrides) -> ExperimentConfig:
    """The config file (or the defaults) with every option that was given
    applied, then the --full-scale preset (the paper's N=300 and 1000 trials),
    which wins over both."""
    cfg = parse_config_file(config_path) if config_path else ExperimentConfig()
    for key, value in overrides.items():
        if value is not None:     # None: not given on the command line
            cfg = replace(cfg, **{key: value})
    return replace(cfg, n_agents=300, trials=1000) if full_scale else cfg


def _shared_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True),
                      default=None, help="Key-value config file.")(fn)
    fn = click.option("--seed", "master_seed", type=int, default=None,
                      help="Master seed.")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default=None,
                      help="Output directory.")(fn)
    fn = click.option("--trials", type=int, default=None,
                      help="Monte Carlo trials per sweep point.")(fn)
    fn = click.option("--full-scale", is_flag=True, default=False,
                      help="Preset N=300 and 1000 trials (slow); overrides --trials.")(fn)
    return fn


def _exit_1_on_error(fn):
    """Report any exception from a command as `error: ...` on stderr and exit 1."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(1)
    return wrapper


def _sweep_and_report(cfg: ExperimentConfig) -> None:
    result = run_sweep(cfg)
    paths = emit_outputs(result, cfg.out_dir or "out")
    click.echo(f"model: {result.model_name}")
    for point in result.points:
        parts = [f"n={point.n_edges}"]
        for est in result.estimator_names:
            rmses = ", ".join(f"{k}={v:.4g}" for k, v in point.rmse[est].items())
            parts.append(f"{est}[{rmses}]")
        parts.append(f"oracle-misclass={point.misclass['oracle']:.4g}")
        click.echo("  " + "  ".join(parts))
    for path in paths.values():
        click.echo(f"wrote {path}")


@click.group()
@click.version_option(package_name="scoregraph")
def main() -> None:
    """Distributed parameter estimation and self-classification on score graphs."""


@main.command()
@_shared_options
@_exit_1_on_error
def sweep(config_path, **flags) -> None:
    """Run an edge-count sweep (reliability model by default)."""
    _sweep_and_report(_load_config(config_path, **flags))


@main.command()
@_shared_options
@_exit_1_on_error
def social(config_path, **flags) -> None:
    """Run the graded-state ranking sweep (three states, three scores)."""
    cfg = _load_config(config_path, model="social-ranking", **flags)
    model = build_model(cfg)
    if (model.n_states, model.n_scores) != (3, 3):
        raise ValueError("the social ranking sweep is defined for C = 3, R = 3")
    _sweep_and_report(cfg)


@main.command()
@_shared_options
@_exit_1_on_error
def single(config_path, **flags) -> None:
    """Run one instance and export the graph, states, estimates, and traces."""
    cfg = _load_config(config_path, **flags)
    result = run_single(cfg)
    paths = emit_single_outputs(result, cfg.out_dir or "out")
    for name, z in result.estimates.items():
        pairs = ", ".join(f"{k}={v:.6g}" for k, v in zip(result.param_names, z))
        click.echo(f"{name}: {pairs}")
    for path in paths.values():
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
