"""Exception types shared across the package, and the parameter guards.

Everything derives from PrbmError so callers (and the CLI) can catch domain
failures in one place without swallowing programming errors. Entry points
check lengths, scales, times and coordinates through _nonnegative (finite,
>= 0) or _positive (finite, > 0), signed scalars such as angles through
_signed, and counts, dimensions and indices through _count (an integer >=
low, never a bool, float or string, never truncated); each raises
InvalidParam naming the parameter. A list must hold non-bool numbers in a
regular shape (_numbers). Range checks such as r < 1 follow the guard.
"""

import numpy as np

__all__ = [
    "PrbmError",
    "InvalidParam",
    "DegenerateGeometry",
    "MeshTooCoarse",
    "SlowConvergence",
    "TruncationTooCoarse",
    "DiagonalSingularity",
    "SingularSystem",
    "SolveFailure",
    "PerimeterTooSmall",
    "ExcessiveCensoring",
    "NumericOverflowWarning",
]


class PrbmError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParam(PrbmError, ValueError):
    """A scalar parameter is outside its admissible range."""


class DegenerateGeometry(PrbmError, ValueError):
    """Input polylines do not enclose a usable region."""


class MeshTooCoarse(PrbmError, ValueError):
    """The lattice mesh cannot resolve the requested geometry."""


class SlowConvergence(PrbmError, ArithmeticError):
    """A quadrature failed to reach the requested tolerance."""


class TruncationTooCoarse(PrbmError, ArithmeticError):
    """A series truncation cannot meet the requested tail bound."""


class DiagonalSingularity(PrbmError, ValueError):
    """A kernel was evaluated too close to its singular diagonal."""


class SingularSystem(PrbmError, ArithmeticError):
    """A lattice linear system is singular or numerically unusable."""


class SolveFailure(PrbmError, ArithmeticError):
    """A dense solve or factorization failed."""


class PerimeterTooSmall(PrbmError, ValueError):
    """A curve is shorter than one coarse-graining interval."""


class ExcessiveCensoring(PrbmError, ArithmeticError):
    """Too many walkers were censored for the estimate to be trusted."""


class NumericOverflowWarning(UserWarning):
    """A value left the representable range and was clamped (usually to 0)."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _numbers(value, error, name: str) -> np.ndarray:
    """np.asarray(value); a list or tuple must nest non-bool numbers to a regular shape."""
    if isinstance(value, (list, tuple)) and not all(map(_is_number, np.asarray(value, dtype=object).flat)):
        raise error(f"{name} must be a regular list of numbers, not {value!r}")
    return np.asarray(value)


def _finite(value, name: str, low: str):
    x = _numbers(value, InvalidParam, name)
    if x.dtype.kind not in "iuf":  # no bool, string, None or object
        raise InvalidParam(f"{name} must be a number, not {value!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & ((x > 0) if low == "positive" else (x >= 0))):
        raise InvalidParam(f"{name} must be finite and {low}")
    return float(x) if x.ndim == 0 else x


def _nonnegative(value, name: str):
    """value as float (or float array) when every entry is finite and >= 0."""
    return _finite(value, name, "nonnegative")


def _positive(value, name: str):
    """value as float (or float array) when every entry is finite and > 0."""
    return _finite(value, name, "positive")


def _signed(value, name: str) -> None:
    """Refuse a signed scalar, such as an angle or a height, unless it is one finite number."""
    if not _is_number(value):
        raise InvalidParam(f"{name} must be a number, not {value!r}")
    _nonnegative(abs(value), f"|{name}|")


def _count(value, name: str, low: int) -> int:
    """value as int when it is an int or numpy integer (not a bool) and >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParam(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise InvalidParam(f"{name} must be at least {low}, got {value}")
    return int(value)
