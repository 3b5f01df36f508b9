"""Shared exception types."""


class FurstlabError(Exception):
    """Base class for errors raised by this package."""


class PoleError(FurstlabError, ZeroDivisionError):
    """Moebius derivative requested exactly at the pole c*z + d = 0."""


class ChartError(FurstlabError, ValueError):
    """Point lies outside the domain of the requested chart."""


class LogBranchError(FurstlabError, ValueError):
    """Principal matrix logarithm does not exist (eigenvalue on (-inf, 0])."""


class CapExceededError(FurstlabError, RuntimeError):
    """An exponential enumeration passed its configured word cap."""


class FloatOverflowError(FurstlabError, OverflowError):
    """Float matrix products left the range of finite floats."""


class StallError(FurstlabError, RuntimeError):
    """A norm-growth stopping rule failed to trigger within the step budget."""


class UndersampledError(FurstlabError, RuntimeError):
    """Not enough samples to evaluate the requested statistic."""


class ConfigError(FurstlabError, ValueError):
    """Malformed run configuration."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
