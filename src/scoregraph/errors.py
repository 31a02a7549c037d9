"""Exception types shared across the package."""

__all__ = ["ScoregraphError", "InfeasibleError", "DegenerateModelError", "NonFiniteError"]


class ScoregraphError(Exception):
    """Base class for package errors."""


class InfeasibleError(ScoregraphError, ValueError):
    """A parameter point lies outside the model's feasible set."""


class DegenerateModelError(ScoregraphError, ValueError):
    """A model/data combination assigns zero probability to every state."""


class NonFiniteError(ScoregraphError, ArithmeticError):
    """An objective or gradient evaluated to a non-finite value."""
