"""Exception types shared across the package."""


class GrgError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GrgError, ValueError):
    """A distribution or function parameter is outside its domain."""


class DomainError(GrgError, ValueError):
    """An input value violates a documented precondition."""


class ConfigError(GrgError, ValueError):
    """An experiment configuration is invalid or inconsistent."""


class UnsupportedModelError(GrgError, TypeError):
    """The requested operation is not defined for this weight model."""


class SizeError(GrgError, ValueError):
    """The problem size exceeds the documented cap for this code path."""


class HypothesisError(GrgError, ValueError):
    """The model violates the moment/tail hypothesis of the experiment."""


class BracketingError(GrgError, ArithmeticError):
    """Root bracketing failed (no sign change in the search interval)."""
