"""Exception types shared across the toolkit, and its one warning call."""


def warn(logger: str, message: str, *args) -> None:
    """Log a warning on the ``logger`` named. ``logging`` is imported at the
    first warning, not with the toolkit: its import added 0.6 MB to every
    stage's peak memory, and most stages warn of nothing."""
    import logging

    logging.getLogger(logger).warning(message, *args)


class CognlpError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CognlpError):
    """A line of an interchange file could not be decoded."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(CognlpError):
    """Well-formed input that violates a semantic invariant."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(CognlpError):
    """Inconsistent or unsupported configuration."""


class StateError(CognlpError):
    """Operation invoked before its prerequisites (e.g. apply before fit)."""
