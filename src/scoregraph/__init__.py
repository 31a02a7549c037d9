"""Interaction-based learning on score graphs.

Agents on a directed graph score one another; scores depend on hidden agent
states through a parametric model.  This package builds such graphs, fits the
model parameters with relaxed likelihood estimators (centralized or via a
push-sum gradient protocol), classifies each agent from its local scores, and
runs Monte Carlo accuracy sweeps.
"""

__version__ = "0.1.0"

from .errors import (DegenerateModelError, InfeasibleError, NonFiniteError,
                     ScoregraphError)
from .graph import (CommSchedule, NeighborCounts, ScoreGraph, aggregate_counts,
                    generate_scores, load_score_graph, load_states,
                    make_comm_schedule, sample_score_graph, save_score_graph,
                    save_states)
from .models import (Box, FeasibleSet, ModelSpec, Simplex, categorical_model,
                     preparata_model, project_simplex, reliability_model,
                     social_ranking_model)
from .classifier import ClassifierOutput, misclassification_rate, soft_classify
from .estimators import (EstimatorProblem, SolveResult, estimate,
                         exact_loglikelihood, exact_problem, fr_binary_closed_form,
                         fr_gradient, fr_objective, fr_problem, nr_gradient,
                         nr_objective, nr_problem, projected_gradient_solve)
from .distributed import (DistributedRun, DistributedState, local_gradient_step,
                          run_distributed)
from .experiments import (ExperimentConfig, SweepPoint, SweepResult,
                          build_model, emit_outputs, emit_single_outputs,
                          parse_config_file, read_misclass_csv, read_rmse_csv,
                          run_single, run_sweep)

__all__ = [
    "__version__",
    "ScoregraphError", "InfeasibleError", "DegenerateModelError", "NonFiniteError",
    "ScoreGraph", "NeighborCounts", "CommSchedule",
    "sample_score_graph", "generate_scores", "aggregate_counts",
    "make_comm_schedule",
    "save_score_graph", "load_score_graph", "save_states", "load_states",
    "ModelSpec", "FeasibleSet", "Box", "Simplex", "project_simplex",
    "preparata_model", "reliability_model", "social_ranking_model",
    "categorical_model", "ClassifierOutput", "soft_classify",
    "misclassification_rate",
    "EstimatorProblem", "SolveResult",
    "exact_loglikelihood", "nr_objective", "nr_gradient",
    "fr_objective", "fr_gradient", "fr_binary_closed_form",
    "exact_problem", "nr_problem", "fr_problem",
    "projected_gradient_solve", "estimate",
    "DistributedState", "DistributedRun", "local_gradient_step", "run_distributed",
    "ExperimentConfig", "SweepPoint", "SweepResult", "build_model",
    "parse_config_file", "run_sweep", "run_single",
    "emit_outputs", "emit_single_outputs", "read_rmse_csv", "read_misclass_csv",
]
