"""Generalized eigensolver and stabilization sweeps.

The 2D ``solve`` and the 1D ``_canonical_solve`` reduce H c = E S c by one
rule, Loewdin canonical orthogonalization (Adv. Quantum Chem. 5, 185
(1970)): ``_orthonormalizer`` keeps the overlap eigendirections above a
relative floor, so a redundant basis loses its near-null directions instead
of failing.  ``solve`` applies it to the 2N x 2N z-overlap and builds one
real symmetric standard problem from the real Kronecker factors
(``assembly.orthonormal_hamiltonian``).  LAPACK computes only the
requested lowest eigenpairs, which are mapped back to real S-orthonormal
eigenvectors of the original basis with ascending eigenvalues; asking for
more than the reduced basis holds is a ``ReducedBasisError``, one of the
``POINT_ERRORS``.  ``stabilize`` re-assembles and re-solves over a grid of
one nonlinear variational parameter and summarizes per-level plateaus, the
practical convergence check of the Ritz method.
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
from .errors import HybridQError, ReducedBasisError
from .model import ScaledParams

# eigenvalues closer than this (units hw0) count as an exact tie and are
# ordered by ascending <z'> so that "ground = deeper well" is deterministic
TIE_THRESHOLD = 1e-12

# relative overlap-eigenvalue floors below which ``_orthonormalizer`` drops
# a direction.  Neither can take the other's value (measured): at 1e-12 in
# 1D, 228 of the 513 shipped quartic-gap points change, the gap by up to
# 2.8e-6 and the sixth level by up to 3.6e-4 relative; at 1e-10 in 2D, the
# working point (eta = 4, L = N = 20) drops its 8.9e-11 direction and 32
# levels move by 7.7e-12 relative.
DROP_FRACTION_1D = 1e-10
DROP_FRACTION_2D = 1e-12

# relative variation within which ``stabilize`` counts a level as flat
PLATEAU_TOLERANCE = 1e-4

# errors that mark one grid point as failed; any other exception, a bare
# ValueError included, is a bug and propagates
POINT_ERRORS = (HybridQError, scipy.linalg.LinAlgError)


@dataclass(frozen=True)
class EigenSolution:
    """Lowest eigenpairs of a spectral problem.

    ``energies`` ascend and are in units of hw0; ``coefficients`` holds the
    real S-orthonormal eigenvectors as columns, in the flat (s, p, n, k)
    order of the y-ladder chi_k = i^k phi_k (``basis``).
    ``n_dropped`` counts the z-overlap directions below
    ``DROP_FRACTION_2D`` that the reduction left out.
    """

    energies: np.ndarray
    coefficients: np.ndarray
    s_condition: float
    n_dropped: int

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


def _orthonormalizer(s_vals: np.ndarray, s_vecs: np.ndarray,
                     floor: float) -> np.ndarray:
    """Canonical orthogonalization X = U s^(-1/2) from the ascending
    eigenpairs of an overlap S, over the directions above ``floor`` times
    its largest eigenvalue, so that X^T S X = I."""
    keep = s_vals > floor * s_vals[-1]
    return s_vecs[:, keep] / np.sqrt(s_vals[keep])


def _canonical_solve(H: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of H c = E S c in the regular subspace of S:
    one standard eigensolve of X^T H X, with X from ``_orthonormalizer``
    at ``DROP_FRACTION_1D``."""
    transform = _orthonormalizer(*scipy.linalg.eigh(S), DROP_FRACTION_1D)
    h_red = transform.T @ H @ transform
    h_red = 0.5 * (h_red + h_red.T)
    return scipy.linalg.eigh(h_red, eigvals_only=True)


def solve(problem: SpectralProblem, n_lowest: int) -> EigenSolution:
    """Solve H c = E S c for the ``n_lowest`` eigenpairs.

    Eigenvalues ascend; exact ties are broken by ascending <z'> of the
    eigenvector.  The z-overlap directions below ``DROP_FRACTION_2D`` are
    dropped, so the reduced basis holds 2 r L functions, with r the kept
    z-directions.

    Raises
    ------
    ReducedBasisError
        If ``n_lowest`` is not between 1 and the reduced basis size; it is
        also a ``ValueError``.
    """
    transform = _orthonormalizer(*problem.overlap_eigh, DROP_FRACTION_2D)
    size = 2 * transform.shape[1] * problem.spec.L
    if not 1 <= n_lowest <= size:
        raise ReducedBasisError(f"n_lowest must be between 1 and the "
                                f"reduced basis size {size}")
    h = assembly.orthonormal_hamiltonian(problem, transform)
    vals, vecs = scipy.linalg.eigh(h, subset_by_index=[0, n_lowest - 1])
    vecs = assembly.to_basis(transform, vecs)
    _order_ties(vals, vecs, problem)
    return EigenSolution(energies=vals, coefficients=vecs,
                         s_condition=problem.s_condition,
                         n_dropped=2 * problem.spec.N - transform.shape[1])


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
              grid, n_track: int, *, workers: int = 1) -> StabilizationTable:
    """Track the lowest ``n_track`` eigenvalues over a grid of eta or mu.

    Each grid point re-assembles and re-solves; failures are recorded as NaN
    rows rather than raised.  Per level the widest grid window with relative
    variation <= ``PLATEAU_TOLERANCE`` is reported as its plateau.
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
    if not 1 <= n_track <= spec.size:
        raise ValueError("n_track must be between 1 and the basis size")

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

    plateaus = tuple(_widest_plateau(grid, energies[:, lev], lev,
                                     PLATEAU_TOLERANCE)
                     for lev in range(n_track))
    return StabilizationTable(parameter=parameter, grid=grid,
                              energies=energies, plateaus=plateaus,
                              failures=tuple(failures),
                              tolerance=PLATEAU_TOLERANCE)
