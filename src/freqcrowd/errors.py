"""Exception types shared across the package."""


class FreqcrowdError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FreqcrowdError, ValueError):
    """A caller-supplied parameter is outside its valid domain; ``param``,
    where given, names that parameter, so a front end can name the setting
    that fed it."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class InputError(FreqcrowdError, ValueError):
    """Input data (arrays, files, tables) is malformed or inconsistent."""


class UnfittableError(FreqcrowdError, RuntimeError):
    """A fit has no informative data to constrain it."""


class SingularFitError(FreqcrowdError, RuntimeError):
    """A fit's design matrix is singular (e.g. a trend with a single abscissa)."""
