"""Per-state expectation values and qubit figures of merit.

All expectation values are generalized: for an S-normalized coefficient
vector c, <A> = c^dagger A c with A expressed in the nonorthogonal basis.
The position moment uses the z'-moment matrix per spin block; <sigma_x>
comes from the overlap pattern between the two spin blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import SpectralProblem
from .solver import EigenSolution

# |<z'>| beyond which a state counts as localized in one well
LOCALIZED_THRESHOLD = 0.5


@dataclass(frozen=True)
class StateReport:
    """Energy and observables of a single eigenstate."""

    index: int
    energy: float          # units hw0
    z_mean: float          # <z>/a
    sx_mean: float         # <sigma_x>
    norm_check: float      # <state|S|state>, 1 for a healthy solve


@dataclass(frozen=True)
class QubitReport:
    """Quality of the two lowest states viewed as a qubit pair."""

    gap: float                        # (E1-E0) in units hw0
    gap_uev: float | None             # same gap in micro-eV (needs hw0)
    sx_contrast: float                # |<sigma_x>_0 - <sigma_x>_1|
    localization: tuple[float, float]  # (<z'>_0, <z'>_1)
    pair_flag: bool                   # True when the pair sits in opposite wells


@dataclass(frozen=True)
class AvoidedCrossing:
    """A located avoided crossing between two adjacent levels."""

    lower_level: int
    sweep_index: int
    x: float
    gap: float


def _split(problem: SpectralProblem, c: np.ndarray):
    ms = problem.s_spatial.shape[0]
    return c[:ms], c[ms:]


def _real_form(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Re(x^dagger a y) for a real matrix ``a``, in real arithmetic."""
    return x.real @ a @ y.real + x.imag @ a @ y.imag


def state_report(sol: EigenSolution, j: int,
                 problem: SpectralProblem) -> StateReport:
    """Observables of eigenstate ``j`` of a solved problem."""
    if not 0 <= j < sol.n_states:
        raise IndexError("state index outside the computed set")
    up, dn = _split(problem, sol.coefficients[:, j])
    s, z = problem.s_spatial, problem.z_spatial
    z_mean = _real_form(z, up, up) + _real_form(z, dn, dn)
    sx_mean = 2.0 * _real_form(s, up, dn)
    norm = _real_form(s, up, up) + _real_form(s, dn, dn)
    return StateReport(index=j, energy=float(sol.energies[j]),
                       z_mean=float(z_mean), sx_mean=float(sx_mean),
                       norm_check=float(norm))


def qubit_report(sol: EigenSolution, problem: SpectralProblem,
                 hw0_mev: float | None = None) -> QubitReport:
    """Qubit metrics assembled from the two lowest states.

    ``hw0_mev`` converts the gap to micro-eV when given.
    """
    if sol.n_states < 2:
        raise ValueError("need at least two computed states")
    ground = state_report(sol, 0, problem)
    excited = state_report(sol, 1, problem)
    gap = excited.energy - ground.energy
    z0, z1 = ground.z_mean, excited.z_mean
    flag = (abs(z0) > LOCALIZED_THRESHOLD and abs(z1) > LOCALIZED_THRESHOLD
            and z0 * z1 < 0)
    return QubitReport(
        gap=gap,
        gap_uev=None if hw0_mev is None else gap * hw0_mev * 1e3,
        sx_contrast=abs(ground.sx_mean - excited.sx_mean),
        localization=(z0, z1),
        pair_flag=flag,
    )


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
