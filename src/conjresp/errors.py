"""Exception types shared across the toolkit."""

__all__ = [
    "NormalizationError",
    "PositivityError",
    "ConvergenceError",
    "QualityError",
    "ConstructionError",
    "ExpansionError",
    "ConfigError",
]


class NormalizationError(ValueError):
    """A field that must integrate to a fixed value (zero or one) does not.

    The offending mean is kept on the exception so callers can report it.
    """

    def __init__(self, message: str, mean: float):
        super().__init__(message)
        self.mean = float(mean)


class PositivityError(ValueError):
    """A field that must be strictly positive has a non-positive minimum."""

    def __init__(self, message: str, min_value: float, location):
        super().__init__(message)
        self.min_value = float(min_value)
        self.location = tuple(location)


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = float(residual)
        self.iterations = int(iterations)


class QualityError(RuntimeError):
    """A computed quantity violates a numerical-quality gate (mass,
    positivity, or orientation of a flow Jacobian)."""

    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = float(defect)


class ConstructionError(RuntimeError):
    """A constructed map failed its invariance certificate."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


class ExpansionError(ValueError):
    """A circle map required to be uniformly expanding is not."""


class ConfigError(ValueError):
    """A run configuration is malformed."""
