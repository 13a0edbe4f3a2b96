"""The two ways a run can fail, one class each: bad input and failed numerics."""


class ErmakovLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ErmakovLabError):
    """Invalid input: a config value, a parameter or an argument (exit 1)."""


class NumericalFailure(ErmakovLabError):
    """The numerics collapsed, blew up or diverged (exit 2); `partial` holds
    what was computed before the failure, or None."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
