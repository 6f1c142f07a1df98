"""Exception types shared across the package, and the integer check that raises one."""

import numbers


class LoadcastError(Exception):
    """Base class for every error raised by loadcast."""


class DataError(LoadcastError):
    """Malformed, inconsistent, or degenerate input data."""


class InsufficientDataError(LoadcastError):
    """A series or window set is too short for the requested operation."""


class ShapeError(LoadcastError):
    """Operands have incompatible shapes or lengths."""


class ConfigError(LoadcastError):
    """Invalid configuration or hyper-parameter value."""


class NumericError(LoadcastError):
    """Non-finite values or numerically invalid intermediate results."""


class StateError(LoadcastError):
    """Operation called on a model in the wrong lifecycle state."""


class DomainError(LoadcastError):
    """Argument outside the mathematical domain of an operation."""


class OptimizationError(LoadcastError):
    """Hyper-parameter search failed to produce any successful trial."""


class ConfigWarning(UserWarning):
    """A configuration that runs but cannot do what its values suggest."""


def require_integer(name: str, value) -> None:
    """Raise ConfigError naming `name` unless `value` is an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
