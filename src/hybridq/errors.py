"""Exception types shared across the package.

A redundant overlap is not an error: the solves drop its near-null
directions (``solver._orthonormalizer``).
"""

from __future__ import annotations


class HybridQError(Exception):
    """Base class for all hybridq errors."""


class DegenerateBasisError(HybridQError):
    """The basis cannot be built at these nonlinear parameters.

    Raised when a normalization constant does not exist, because the odd
    well combination collapses (argument of the normalization square root
    is non-positive), or when an extreme width eta or mu overflows a
    z-table or y-table.
    """


class ReducedBasisError(HybridQError, ValueError):
    """A level count outside 1 to the reduced basis size was asked for: the
    2 r L functions the 2D solve keeps, with r the z-overlap directions
    above its floor, or the overlap directions ``solve_1d`` keeps."""


class UnreachableTargetError(HybridQError, ValueError):
    """Fewer than two hw0 rows of a gap surface reach a contour target,
    too few for the power-law fit of ``quartic1d.contour_fit``."""


class UncertifiedSpectrumError(HybridQError):
    """The banded 2D solve could not certify its levels: in each of its two
    Lanczos runs the levels did not converge within the step cap, or the
    count of eigenvalues below a point between the returned levels and the
    next one (the inertia of h - tau I, -1 where it is singular) disagreed
    with them; or no shift below the spectrum was found.  The message says
    which failed on the last run."""


class ConfigError(HybridQError):
    """A run-configuration file could not be parsed or validated.

    ``line`` is the 1-based line number the problem was found on, or None
    for whole-file validation errors.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
