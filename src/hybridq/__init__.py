"""Variational spectral solver for a 2D spin-charge hybrid-qubit quantum dot.

One electron in a quartic double well with a uniform Zeeman field and a
constant-gradient transverse field, solved by the Ritz method in a
Hermite-Gaussian well-pair basis; the 1D double well alone in one
orthonormal oscillator ladder.
"""

from .assembly import SpectralProblem, assemble
from .basis import BasisSpec
from .errors import (ConfigError, DegenerateBasisError, HybridQError,
                     ReducedBasisError, UncertifiedSpectrumError,
                     UnreachableTargetError)
from .model import PhysicalParams, ScaledParams, scale
from .observables import (AvoidedCrossing, StateReport, crossing_scan,
                          state_report)
from .quartic1d import (ContourFit, GapSurface, classify_regimes, contour_fit,
                        gap_surface, solve_1d)
from .solver import (EigenSolution, Plateau, StabilizationTable, solve,
                     stabilize)

__version__ = "0.1.0"

__all__ = [
    "AvoidedCrossing", "BasisSpec", "ConfigError", "ContourFit",
    "DegenerateBasisError", "EigenSolution", "GapSurface", "HybridQError",
    "PhysicalParams", "Plateau", "ReducedBasisError", "ScaledParams",
    "SpectralProblem", "StabilizationTable", "StateReport",
    "UncertifiedSpectrumError", "UnreachableTargetError", "assemble",
    "classify_regimes", "contour_fit", "crossing_scan", "gap_surface",
    "scale", "solve", "solve_1d", "stabilize", "state_report",
]
