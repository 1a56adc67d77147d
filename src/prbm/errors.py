"""Exception types shared across the package.

Everything derives from PrbmError so callers (and the CLI) can catch domain
failures in one place without swallowing programming errors.
"""

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
