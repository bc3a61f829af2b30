"""Exception types shared across the package, and the physical domain a
setting's value must lie in."""
from typing import NamedTuple


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


class Domain(NamedTuple):
    """A float setting's physical domain, [lo, hi] (``hi`` left out when
    ``open_hi``, 0 taken too when ``zero``) in the unit its parameter's name
    gives: declared once beside that parameter, checked at the public entry
    that first reads it, and printed in the help of each flag feeding it."""

    lo: float
    hi: float
    zero: bool = False
    open_hi: bool = False

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}{')' if self.open_hi else ']'}{', or 0' * self.zero}"

    def holds(self, values) -> bool:
        """Whether a number, or every entry of an array, lies in the domain (NaN never does)."""
        inside = (self.lo <= values) & ((values < self.hi) if self.open_hi else (values <= self.hi))
        inside = inside | (self.zero & (values == 0.0))
        return bool(inside.all() if hasattr(inside, "all") else inside)

    def check(self, values, param: str) -> None:
        """Raise a :class:`ParameterError` naming ``param`` unless :meth:`holds`."""
        if not self.holds(values):
            raise ParameterError(f"{param} must be in {self}", param)
