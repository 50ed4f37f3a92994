"""Exception hierarchy shared across the package.

Errors split into two families used by the CLI exit-code mapping: validation errors (bad inputs, exit 2)
and numerical errors (runs that start fine and fail midway, exit 3).  ``runs.integrate``, the loop of
both flows, turns a numerical error raised after a run's initial record into the run's abort note.
"""


class GrfError(Exception):
    """Base class for all package errors."""


class ValidationError(GrfError):
    """Input or constraint violation detectable before running."""


class NumericalError(GrfError):
    """Failure arising during a numerical computation."""


class NonInvertiblePairing(ValidationError):
    pass


class InvalidLieAlgebra(ValidationError):
    pass


class SingularBasis(ValidationError):
    pass


class DegenerateSubspace(ValidationError):
    pass


class ForbiddenRank(ValidationError):
    """Eigenspace of rank one: no Levi-Civita connection with prescribed divergence."""


class NonPositiveHalfDensity(ValidationError):
    pass


class ConfigParseError(ValidationError):
    pass


class RetractionDiverged(NumericalError):
    pass


class StepUnderflow(NumericalError):
    pass


class StepBudgetExhausted(NumericalError):
    """A run used up its ``max_steps`` budget of accepted steps before reaching T."""

    def __init__(self, max_steps: int, t: float, T: float):
        super().__init__(f"step budget max_steps = {max_steps} used up at t = {t!r} < T = {T!r}")


class RouteDisagreement(NumericalError):
    """Independent routes to the same curvature quantity disagree beyond their bound."""


class DegenerateMetric(NumericalError):
    """Metric lost positive definiteness (on the torus grid) or strict positivity (on the flow ODE)."""


class EigensolverStalled(NumericalError):
    pass
