"""Exception types raised by the numerical pipeline."""


class MarkovLensError(Exception):
    """Base class for all library errors."""


class ConfigError(MarkovLensError):
    """Invalid or malformed analysis configuration."""


class DivergenceError(MarkovLensError, ValueError):
    """A signal or its integral is evaluated at or past its divergence."""


class NumericalError(MarkovLensError):
    """A numerical stage failed; carries the stage name for reporting."""

    def __init__(self, message: str, stage: str = "", time: float | None = None):
        super().__init__(message)
        self.stage = stage
        self.time = time


class EmptyBasisError(NumericalError):
    """All spanning elements were numerically zero."""


class SingularGeneratorError(NumericalError):
    """The map is not invertible at the requested time, so no bounded
    time-local generator exists there."""

    def __init__(self, message: str, time: float | None = None,
                 smallest_singular_value: float | None = None):
        super().__init__(message, stage="generator", time=time)
        self.smallest_singular_value = smallest_singular_value


class DefectiveMapError(NumericalError):
    """The natural matrix is not diagonalizable to working precision."""


class NotDivisibleError(NumericalError):
    """Kernel inclusion fails between the two requested times."""


class CauchyDivergenceError(NumericalError):
    """The shrinking-interval propagator sequence did not converge."""


class ProjectorValidationError(NumericalError):
    """A limit projector failed one of its defining properties."""

    def __init__(self, message: str, failed_property: str, time: float | None = None):
        super().__init__(message, stage="limit_projector", time=time)
        self.failed_property = failed_property


class NotPositivelyGeneratedError(NumericalError):
    """The subspace is not spanned by positive operators."""


class InconsistentConstraintsError(NumericalError):
    """The affine constraint system of a feasibility problem has no solution."""


class IntegrationAccuracyError(NumericalError):
    """Step-halving disagreement above tolerance in the master-equation
    integrator."""
