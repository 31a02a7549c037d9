"""Interaction-based learning on score graphs.

Agents on a directed graph score one another; scores depend on hidden agent
states through a parametric model.  This package builds such graphs, fits the
model parameters with relaxed likelihood estimators (centralized or via a
push-sum gradient protocol), classifies each agent from its local scores, and
runs Monte Carlo accuracy sweeps.
"""

__version__ = "0.1.0"

from . import errors, graph, models, classifier, estimators, distributed, experiments
from .errors import *
from .graph import *
from .models import *
from .classifier import *
from .estimators import *
from .distributed import *
from .experiments import *

# the public API is each module's __all__; the package exports their union
__all__ = ["__version__", *errors.__all__, *graph.__all__, *models.__all__, *classifier.__all__,
           *estimators.__all__, *distributed.__all__, *experiments.__all__]
