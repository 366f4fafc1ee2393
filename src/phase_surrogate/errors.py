"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's dimension contract."""


class ContractError(RuntimeError):
    """An API precondition (non-shape) was violated by the caller."""


class ConfigurationError(ValueError):
    """A configuration value is invalid or internally inconsistent."""


class RangeError(ValueError):
    """A requested band, sample or fraction is out of range."""


class CompletenessError(ValueError):
    """A collection that must be exhaustive is missing entries."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class UndefinedMetricError(ValueError):
    """A metric is mathematically undefined for the given inputs."""
