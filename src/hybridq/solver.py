"""Generalized eigensolver and stabilization sweeps.

``solve`` reduces H c = E S c to one real symmetric standard problem: the
z-basis is orthonormalized through the eigenpairs of the 2N x 2N z-overlap
(canonical orthogonalization), the y-basis is made real by a gauge, and the
matrix is built from Kronecker factors (``assembly.orthonormal_hamiltonian``).
LAPACK computes only the requested lowest eigenpairs, which are mapped back
to S-orthonormal eigenvectors of the original basis with ascending
eigenvalues.  ``solve`` keeps every z-direction, because the overlap has
passed ``assembly.check_overlap``.  ``_canonical_solve`` is the same
reduction for the 1D problem, whose z-overlap becomes redundant when the
wells merge: it drops the near-null directions and returns the eigenvalues
of the regular subspace.  ``stabilize`` re-assembles and re-solves
over a grid of one nonlinear variational parameter and summarizes per-level
plateaus, the practical convergence check of the Ritz method.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np
import scipy.linalg

from . import assembly
from .assembly import SpectralProblem
from .basis import BasisSpec
from .errors import HybridQError
from .model import ScaledParams

# eigenvalues closer than this (units hw0) count as an exact tie and are
# ordered by ascending <z'> so that "ground = deeper well" is deterministic
TIE_THRESHOLD = 1e-12

# relative overlap-eigenvalue cutoff below which ``_canonical_solve`` drops
# a direction
CANONICAL_DROP_FRACTION = 1e-10

# errors that mark one grid point as failed; any other exception is a bug
# and propagates
POINT_ERRORS = (HybridQError, scipy.linalg.LinAlgError, ValueError)


@dataclass(frozen=True)
class EigenSolution:
    """Lowest eigenpairs of a spectral problem.

    ``energies`` ascend and are in units of hw0; ``coefficients`` holds the
    S-orthonormal eigenvectors as columns.
    """

    energies: np.ndarray
    coefficients: np.ndarray
    spec: BasisSpec
    scaled: ScaledParams
    s_condition: float

    @property
    def n_states(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class Plateau:
    """Widest window of a stabilization grid where one level is flat."""

    level: int
    lo: float
    hi: float
    rel_variation: float
    n_points: int


@dataclass(frozen=True)
class StabilizationTable:
    """Tracked spectrum over a grid of one nonlinear parameter.

    ``energies`` has one row per grid point (NaN rows mark failed points);
    ``plateaus`` has one entry per tracked level, None when no window of at
    least two points meets the tolerance.
    """

    parameter: str
    grid: np.ndarray
    energies: np.ndarray
    plateaus: tuple
    failures: tuple
    tolerance: float

    def variation(self, level: int, lo: float, hi: float) -> float:
        """Relative variation (max-min over max |E|) of one level over
        the grid points inside [lo, hi].  NaN if any point there failed."""
        mask = (self.grid >= lo) & (self.grid <= hi)
        vals = self.energies[mask, level]
        if len(vals) == 0 or np.any(np.isnan(vals)):
            return float("nan")
        return float(np.ptp(vals) / np.max(np.abs(vals)))


def _canonical_solve(H: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of H c = E S c in the regular subspace of S.

    Canonical orthogonalization X = U s^(-1/2) over the eigendirections of S
    above ``CANONICAL_DROP_FRACTION`` times its largest eigenvalue, so that
    X^T S X = I, then one standard eigensolve of X^T H X.
    """
    s_vals, s_vecs = scipy.linalg.eigh(S)
    keep = s_vals > CANONICAL_DROP_FRACTION * s_vals[-1]
    transform = s_vecs[:, keep] / np.sqrt(s_vals[keep])
    h_red = transform.conj().T @ H @ transform
    h_red = 0.5 * (h_red + h_red.conj().T)
    return scipy.linalg.eigh(h_red, eigvals_only=True)


def solve(problem: SpectralProblem, n_lowest: int) -> EigenSolution:
    """Solve H c = E S c for the ``n_lowest`` eigenpairs.

    Eigenvalues ascend; exact ties are broken by ascending <z'> of the
    eigenvector.  Every z-overlap direction is kept.

    Raises
    ------
    IllConditionedBasisError
        If the z-overlap fails ``assembly.check_overlap``.
    """
    if not 1 <= n_lowest <= problem.size:
        raise ValueError("n_lowest must be between 1 and the basis size")
    assembly.check_overlap(problem)
    s_vals, s_vecs = problem.overlap_eigh
    transform = s_vecs / np.sqrt(s_vals)
    h = assembly.orthonormal_hamiltonian(problem, transform)
    vals, vecs = scipy.linalg.eigh(h, subset_by_index=[0, n_lowest - 1])
    vecs = assembly.to_basis(problem, transform, vecs)
    _order_ties(vals, vecs, problem)
    return EigenSolution(energies=vals, coefficients=vecs,
                         spec=problem.spec, scaled=problem.scaled,
                         s_condition=problem.s_condition)


def _order_ties(vals: np.ndarray, vecs: np.ndarray,
                problem: SpectralProblem) -> None:
    """Reorder exactly degenerate eigenpairs by ascending <z'> in place."""
    i = 0
    while i < len(vals) - 1:
        j = i + 1
        while j < len(vals) and vals[j] - vals[i] < TIE_THRESHOLD:
            j += 1
        if j - i > 1:
            z_mean = [np.trace(assembly.spin_block_forms(problem,
                                                         vecs[:, t], "z"))
                      for t in range(i, j)]
            order = np.argsort(z_mean, kind="stable")
            vecs[:, i:j] = vecs[:, i + order]
            vals[i:j] = vals[i + order]
        i = j


def parallel_map(func, items, workers: int) -> list:
    """``[func(item) for item in items]``, fanned out over a pool of
    ``min(workers, len(items))`` processes when that is more than one.
    Results keep the order of ``items``."""
    if workers > 1 and len(items) > 1:
        with Pool(min(workers, len(items))) as pool:
            return pool.map(func, items)
    return [func(item) for item in items]


def _stabilize_point(args) -> tuple[list | None, str | None]:
    scaled, spec, n_track = args
    try:
        problem = assembly.assemble(scaled, spec)
        sol = solve(problem, n_track)
        return sol.energies.tolist(), None
    except POINT_ERRORS as exc:  # recorded, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _widest_plateau(grid: np.ndarray, values: np.ndarray, level: int,
                    tol: float) -> Plateau | None:
    """Widest window of >= 2 consecutive valid points with relative
    variation <= tol (two-pointer scan)."""
    best = None
    n = len(grid)
    for i in range(n - 1):
        if np.isnan(values[i]):
            continue
        lo = values[i]
        hi = values[i]
        for j in range(i + 1, n):
            if np.isnan(values[j]):
                break
            lo = min(lo, values[j])
            hi = max(hi, values[j])
            rel = (hi - lo) / max(abs(lo), abs(hi))
            if rel > tol:
                break
            width = grid[j] - grid[i]
            if best is None or width > best.hi - best.lo:
                best = Plateau(level=level, lo=float(grid[i]),
                               hi=float(grid[j]), rel_variation=float(rel),
                               n_points=j - i + 1)
    return best


def stabilize(scaled: ScaledParams, spec: BasisSpec, parameter: str,
              grid, n_track: int, *, tol: float = 1e-4,
              workers: int = 1) -> StabilizationTable:
    """Track the lowest ``n_track`` eigenvalues over a grid of eta or mu.

    Each grid point re-assembles and re-solves; failures are recorded as NaN
    rows rather than raised.  Per level the widest grid window with relative
    variation <= ``tol`` is reported as its plateau.
    """
    if parameter not in ("mu", "eta"):
        raise ValueError("parameter must be 'mu' or 'eta'")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a non-empty 1D sequence")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if np.any(grid <= 0):
        raise ValueError("grid values must be positive")

    tasks = [(scaled, dataclasses.replace(spec, **{parameter: float(v)}),
              n_track) for v in grid]
    energies = np.full((len(grid), n_track), np.nan)
    failures = []
    results = parallel_map(_stabilize_point, tasks, workers)
    for index, (vals, err) in enumerate(results):
        if err is None:
            energies[index] = vals
        else:
            failures.append((index, err))

    plateaus = tuple(_widest_plateau(grid, energies[:, lev], lev, tol)
                     for lev in range(n_track))
    return StabilizationTable(parameter=parameter, grid=grid,
                              energies=energies, plateaus=plateaus,
                              failures=tuple(failures), tolerance=tol)
