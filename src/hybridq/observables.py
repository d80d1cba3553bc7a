"""Per-state expectation values and avoided-crossing detection.

All expectation values are generalized: for a real S-normalized coefficient
vector c, <A> = c^T A c with A expressed in the nonorthogonal basis.
The operators act on z' alone and the y-ladder is orthonormal, so every
value comes from one 2N x 2N z-table (``assembly.spin_block_forms``):
<z'> from the z'-moment table within each spin block, <sigma_x> from the
z-overlap table between the two spin blocks, and the norm check from the
z-overlap table within each block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .assembly import SpectralProblem
from .solver import EigenSolution


@dataclass(frozen=True)
class StateReport:
    """Energy and observables of a single eigenstate."""

    index: int
    energy: float          # units hw0
    z_mean: float          # <z>/a
    sx_mean: float         # <sigma_x>
    norm_check: float      # <state|S|state>, 1 for a healthy solve


@dataclass(frozen=True)
class AvoidedCrossing:
    """A located avoided crossing between two adjacent levels."""

    lower_level: int
    sweep_index: int
    x: float
    gap: float


def state_report(sol: EigenSolution, j: int,
                 problem: SpectralProblem) -> StateReport:
    """Observables of eigenstate ``j`` of a solved problem."""
    if not 0 <= j < sol.n_states:
        raise IndexError("state index outside the computed set")
    c = sol.coefficients[:, j]
    z = assembly.spin_block_forms(problem, c, "z")
    s = assembly.spin_block_forms(problem, c, "1")
    return StateReport(index=j, energy=float(sol.energies[j]),
                       z_mean=float(np.trace(z)),
                       sx_mean=float(2.0 * s[0, 1]),
                       norm_check=float(np.trace(s)))


def crossing_scan(xs, energies, z_means) -> list[AvoidedCrossing]:
    """Locate avoided crossings in a parameter sweep of tracked levels.

    Parameters
    ----------
    xs : (P,) array_like
        Sweep parameter values, strictly increasing.
    energies, z_means : (P, K) array_like
        Per sweep point, the K tracked energies and their <z'> values.

    An avoided crossing of adjacent levels (l, l+1) is an interior local
    minimum of their gap at which the sign of <z'>_{l+1} - <z'>_l flips
    between the neighboring sweep points: the states trade wells.
    """
    xs = np.asarray(xs, dtype=float)
    energies = np.asarray(energies, dtype=float)
    z_means = np.asarray(z_means, dtype=float)
    if len(xs) < 3:
        raise ValueError("need at least three sweep points")
    if energies.shape != z_means.shape or energies.shape[0] != len(xs):
        raise ValueError("energies and z_means must be (P, K) with P = len(xs)")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")

    found = []
    for lev in range(energies.shape[1] - 1):
        gap = energies[:, lev + 1] - energies[:, lev]
        dz = z_means[:, lev + 1] - z_means[:, lev]
        for i in range(1, len(xs) - 1):
            is_min = gap[i] < gap[i - 1] and gap[i] <= gap[i + 1]
            if is_min and dz[i - 1] * dz[i + 1] < 0:
                found.append(AvoidedCrossing(lower_level=lev, sweep_index=i,
                                             x=float(xs[i]),
                                             gap=float(gap[i])))
    return found
