"""Exception types shared across the package.

A redundant overlap is not an error: the solves drop its near-null
directions (``solver._orthonormalizer``).
"""

from __future__ import annotations


class HybridQError(Exception):
    """Base class for all hybridq errors."""


class DegenerateBasisError(HybridQError):
    """A basis-function normalization constant does not exist.

    Raised when the odd well combination collapses (argument of the
    normalization square root is non-positive).
    """


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
