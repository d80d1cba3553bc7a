"""Generalized eigensolver and stabilization sweeps.

The 2D ``solve`` reduces H c = E S c by Loewdin canonical
orthogonalization (Adv. Quantum Chem. 5, 185 (1970)): ``_orthonormalizer``
keeps the overlap eigendirections above a relative floor, so a redundant
basis loses its near-null directions instead of failing.  ``solve``
applies it to the 2N x 2N z-overlap and holds the
real symmetric reduced Hamiltonian as Kronecker factors in the (k, s, j)
order (``assembly.reduced_terms``), block pentadiagonal in the y-index k
with lower bandwidth 4r.  Its lowest levels come from shift-invert Lanczos
on the band (a plain Lanczos in numpy on (h - sigma I)^-1 through the band
Cholesky factor, whose existence proves sigma below the spectrum),
certified by Sylvester's law of inertia: a block LDL^T of h - tau I, one
k at a time and straight from the Kronecker factors, must count exactly
the levels found below tau (Ericsson and Ruhe, Math. Comp. 35, 1251
(1980); Grimes, Lewis and Simon, SIAM J. Matrix Anal. Appl. 15, 228
(1994)).  Each Lanczos step takes the local three-term recurrence and one
full Gram-Schmidt pass, and a second pass only where the DGKS test asks
for it (Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30, 772 (1976)).
The requested levels converge to ARPACK's tol = 0 rule; the one or two
found above them only place tau, which the count then checks, and stop at
a residual of sqrt(eps).  A failed count, or a Lanczos run that does not
converge within its step cap, is retried once with one more level and
twice the cap, then is an ``UncertifiedSpectrumError``.  Every band takes
this path, whatever its size, unless ``n_lowest + 1`` reaches the size:
the certificate needs a gap after the last wanted level, so Lanczos must
find one level more, and only then does LAPACK's ``eig_banded`` solve the
band.  Without the slanting field h separates into y and spin-resolved z
factors.  The eigenvectors are mapped back to real S-orthonormal
eigenvectors of the original basis with ascending eigenvalues; asking for
more than the reduced basis holds is a ``ReducedBasisError``.  Both errors
are ``POINT_ERRORS``.  The 1D ``quartic1d.solve_1d`` needs no reduction:
its ladder is orthonormal, and ``_lowest_pairs`` diagonalizes it.  numpy
does the arithmetic; scipy calls LAPACK, as dpbtrf, dpbtrs, dstevd,
dsytrf, dsytri and the wrappers ``eig_banded`` and ``eigh`` of
``scipy.linalg``, each library on its own OpenBLAS.  The band work and a
1D point are many small BLAS calls, which run faster on one thread than
on two, so ``solve`` and ``solve_1d`` set both to one thread while they
run and restore the caller's counts on exit.  ``parallel_map`` holds one
such scope around all the items of each of its processes, so a grid
restores the counts once, not per point.
``stabilize`` re-assembles and re-solves over a grid of one nonlinear
variational parameter and summarizes per-level plateaus, the practical
convergence check of the Ritz method.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import importlib
import math
import multiprocessing
import os
import threading
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstevd, dsytrf, dsytri

from . import assembly
from .assembly import SpectralProblem
from .basis import BasisSpec
from .errors import (HybridQError, ReducedBasisError,
                     UncertifiedSpectrumError)
from .model import ScaledParams

# eigenvalues closer than this (units hw0) count as an exact tie and are
# ordered by ascending <z'> so that "ground = deeper well" is deterministic
TIE_THRESHOLD = 1e-12

# relative overlap-eigenvalue floors below which ``_orthonormalizer`` drops
# a direction: in ``solve``, and in ``_canonical_solve``, which nothing in
# the package calls.  At 1e-10 in 2D, the working point (eta = 4,
# L = N = 20) drops its 8.9e-11 direction and 32 levels move by 7.7e-12
# relative (measured).
DROP_FRACTION_1D = 1e-10
DROP_FRACTION_2D = 1e-12

# the first Lanczos run for k levels stops after 2 k + LANCZOS_SLACK steps,
# the retry after twice as many.  The k levels, k - 1 of them to eps and
# the last to EXTRA_LEVEL_TOLERANCE, needed at most 2 k + 64 steps (k = 5,
# 9, 33, 41; the shipped configs and criterion 1b's mu grid at L = N = 20,
# and bSLa sweeps at L = N = 8, 10, 14)
LANCZOS_SLACK = 80

# a Lanczos convergence check (dstevd) costs under one step at 9 levels
# and about two at 33.  Once the wanted pairs converge, their worst
# residual ratio falls 0.51-0.94 decades per step (bSLa = 0.1-2 T at the
# working point, 9 and 33 levels), so the next check comes this many steps
# per decade left after the last one: at the slowest decay, never early
LANCZOS_STEPS_PER_DECADE = 2

# a Lanczos step repeats its Gram-Schmidt pass only when the first pass
# leaves less than this fraction of the norm it found: then rounding in the
# pass may leave components along the earlier vectors as large as what is
# left, and one more pass removes them (Daniel, Gragg, Kaufman and Stewart,
# Math. Comp. 30, 772 (1976))
DGKS = 1 / math.sqrt(2)

# the levels a Lanczos run finds beyond the n requested only place the
# certificate's tau, and the inertia count checks that placement, so they
# stop at this residual ratio rather than at eps
EXTRA_LEVEL_TOLERANCE = math.sqrt(np.finfo(float).eps)

# relative variation within which ``stabilize`` counts a level as flat
PLATEAU_TOLERANCE = 1e-4

# errors that mark one grid point as failed in ``parallel_map``; any other
# exception, a bare ValueError included, is a bug and propagates
POINT_ERRORS = (HybridQError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class EigenSolution:
    """Lowest eigenpairs of a spectral problem.

    ``energies`` ascend and are in units of hw0; ``coefficients`` holds the
    real S-orthonormal eigenvectors as columns, in the flat (s, p, n, k)
    order of the y-ladder chi_k = i^k exp(-i q y') phi_k (``basis``).
    ``s_condition`` is the condition number of the z-overlap S_z, which
    the full overlap shares; inf when rounding leaves its smallest
    eigenvalue at or below zero.  ``n_dropped`` counts the z-overlap
    directions below ``DROP_FRACTION_2D`` that the reduction left out.
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
    least two points meets ``PLATEAU_TOLERANCE``; ``failures`` holds
    (grid index, message) pairs.  The swept parameter is the one the
    caller passed to ``stabilize``.
    """

    grid: np.ndarray
    energies: np.ndarray
    plateaus: tuple
    failures: tuple

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


def _lowest_pairs(h: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` lowest eigenpairs of the real symmetric ``h``, from its
    lower triangle: ascending eigenvalues and orthonormal eigenvectors as
    columns, by LAPACK dsyevr."""
    return scipy.linalg.eigh(h, subset_by_index=[0, n - 1])


def _canonical_solve(H: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of H c = E S c in the regular subspace of S:
    one standard eigensolve of X^T H X, with X from ``_orthonormalizer``
    at ``DROP_FRACTION_1D``.  No other code of the package calls it or
    reads that floor: both stay only while ``perfbench/tracing.py`` wraps
    this name, and go when the benchmark stops doing so.

    Both eigensolves stay on scipy's ``eigh`` (LAPACK dsyevr): with
    numpy's (dsyevd), the 2,025 points of the shipped quartic-gap hw0 list
    at a = 4-60 nm in steps of 0.25 and N = 22 move their gap by up to
    1.5e-10 relative and E5 by up to 5.1e-11, far beyond the 1e-12 within
    which a change of eigensolver may move a level."""
    transform = _orthonormalizer(*scipy.linalg.eigh(S), DROP_FRACTION_1D)
    h_red = transform.T @ H @ transform
    h_red = 0.5 * (h_red + h_red.T)
    return scipy.linalg.eigh(h_red, eigvals_only=True)


# for numpy's and scipy's own OpenBLAS: an extension module that links it,
# and the name of its thread-count functions
_OPENBLAS = (
    ("numpy._core._multiarray_umath", "scipy_openblas_%s_num_threads64_"),
    ("scipy.linalg._fblas", "scipy_openblas_%s_num_threads"))
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list = []


@functools.cache
def _blas_thread_functions() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS that numpy and
    scipy load, found through dlsym on the extension module that links it;
    a library without them (MKL, a system BLAS) is left out."""
    found = []
    for module, stem in _OPENBLAS:
        try:
            library = ctypes.CDLL(importlib.import_module(module).__file__)
            get, set_ = (getattr(library, stem % verb)
                         for verb in ("get", "set"))
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread per library; the outermost exit
    restores the counts found on the outermost entry.  The counts are
    process-wide, so concurrent callers share one depth count."""
    global _blas_depth
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved[:] = [(set_, get())
                              for get, set_ in _blas_thread_functions()]
            for set_, _ in _blas_saved:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for set_, threads in _blas_saved:
                    set_(threads)


def solve(problem: SpectralProblem, n_lowest: int) -> EigenSolution:
    """Solve H c = E S c for the ``n_lowest`` eigenpairs.

    Eigenvalues ascend; exact ties are broken by ascending <z'> of the
    eigenvector.  The z-overlap directions below ``DROP_FRACTION_2D`` are
    dropped, so the reduced basis holds 2 r L functions, with r the kept
    z-directions.  The linear algebra runs on one BLAS thread, and the
    caller's thread counts are restored on return.

    Raises
    ------
    ReducedBasisError
        If ``n_lowest`` is not between 1 and the reduced basis size; it is
        also a ``ValueError``.
    UncertifiedSpectrumError
        If the band solve cannot certify its levels: Lanczos did not
        converge, or the inertia count disagreed, twice.
    """
    with _one_blas_thread():
        return _solve(problem, n_lowest)


def _solve(problem: SpectralProblem, n_lowest: int) -> EigenSolution:
    # the overlap I_spin (x) S_z (x) I_y has the spectrum of S_z, 2 L times
    s_vals, s_vecs = np.linalg.eigh(problem.z_tables["1"])
    transform = _orthonormalizer(s_vals, s_vecs, DROP_FRACTION_2D)
    size = 2 * transform.shape[1] * problem.spec.L
    if not 1 <= n_lowest <= size:
        raise ReducedBasisError(f"n_lowest must be between 1 and the "
                                f"reduced basis size {size}")
    d, y, t, f = assembly.reduced_terms(problem, transform)
    if f is None:
        vals, vecs = _separable_lowest(d, y, n_lowest)
    else:
        vals, vecs = _banded_lowest(d, y, t, f, n_lowest)
    vecs = assembly.to_basis(transform, vecs)
    _order_ties(vals, vecs, problem)
    s_condition = float(s_vals[-1] / s_vals[0]) if s_vals[0] > 0 else np.inf
    return EigenSolution(energies=vals, coefficients=vecs,
                         s_condition=s_condition,
                         n_dropped=2 * problem.spec.N - transform.shape[1])


def _separable_lowest(d: np.ndarray, y: np.ndarray,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n eigenpairs of h = I_L (x) d + y (x) I_b, in the (k, s, j)
    order, when ``d`` is block diagonal in spin: each is a product of an
    eigenvector of y and one of a spin block of d, and each has one spin."""
    r = len(d) // 2
    d_vals, d_vecs = zip(*(np.linalg.eigh(d[s * r:(s + 1) * r,
                                            s * r:(s + 1) * r])
                           for s in range(2)))
    y_vals, y_vecs = np.linalg.eigh(y)
    levels = np.add.outer(np.stack(d_vals), y_vals)       # [s, i, k-level]
    order = np.argsort(levels, axis=None, kind="stable")[:n]
    s, i, j = np.unravel_index(order, levels.shape)
    vecs = np.zeros((len(y), 2, r, n))
    vecs[:, s, :, np.arange(n)] = (y_vecs[:, j].T[:, :, None]
                                   * np.stack(d_vecs)[s, :, i][:, None, :])
    return levels.ravel()[order], vecs.reshape(-1, n)


def _banded_lowest(d: np.ndarray, y: np.ndarray, t: np.ndarray,
                   f: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n eigenpairs of h = I_L (x) d + y (x) I_b + t (x) f from
    ``assembly.reduced_terms``, in the (k, s, j) order, by shift-invert
    Lanczos on its band, certified by an inertia count; ``eig_banded`` when
    n + 1 reaches the size, leaving no level to open the certificate's gap."""
    size = len(y) * len(d)
    if n + 1 >= size:
        return scipy.linalg.eig_banded(assembly.lower_band(d, y, t, f),
                                       lower=True, select="i",
                                       select_range=(0, n - 1))
    sigma, factor = _shift(d, y, t, f, n)
    for extra in (1, 2):
        # the retry asks for one more level and twice the Lanczos steps
        k = min(n + extra, size - 1)
        ncv = min(size, extra * (2 * k + LANCZOS_SLACK))
        found = _lanczos(factor, sigma, n, k, ncv)
        if found is None:
            failure = f"did not converge within {ncv} steps"
            continue
        vals, vecs = found
        # certify at the widest gap after the n-th level
        m = n + int(np.argmax(np.diff(vals[n - 1:])))
        tau = 0.5 * (vals[m - 1] + vals[m])
        count = _count_below(d, y, t, f, tau)
        if count == m:
            return vals[:n], vecs[:, :n]
        failure = (f"failed the inertia count: {count} eigenvalues below "
                   f"tau = {tau:.6g} where Lanczos found {m}")
    raise UncertifiedSpectrumError(
        f"two Lanczos runs for {n} levels (sigma = {sigma:.6g}) failed; "
        f"the last ({k} levels) {failure}")


def _shift(d, y, t, f, n: int):
    """A shift sigma below the spectrum of h, with the band Cholesky factor
    of h - sigma I, for the n lowest levels.

    E_0 lies between Weyl's lower bound over the three terms of h and the
    lowest eigenvalue of its first diagonal block, d + y_00 I (Cauchy
    interlacing).  The first try lies 1/16 of the way from the upper to the
    lower bound; each failed factorization lowers sigma four times as far,
    and the third try is the lower bound.  Success proves sigma < E_0.
    Each try writes the band afresh (``assembly.lower_band``) and factors
    it in place.  The spectrum of the block is that of d shifted by y_00,
    and f = I_spin (x) f_s has the spectrum of its first spin block f_s.

    The bracket is floored at 1/16 of the spread of the lowest n + 1
    eigenvalues of that block.  Where it closes, at L = 1 (h is the block)
    or under a weak slanting field, sigma would sit at rounding distance
    from E_0: the factorization still succeeds and the inertia count still
    agrees, but the Lanczos levels lose accuracy as eps (E_k - sigma)^2 /
    (E_0 - sigma), by up to 1e-3 relative at L = 1."""
    eig = np.linalg.eigvalsh
    r = len(f) // 2
    d_vals = eig(d)
    t_ends, f_ends = eig(t)[[0, -1]], eig(f[:r, :r])[[0, -1]]
    lower = d_vals[0] + eig(y)[0] + np.outer(t_ends, f_ends).min()
    block = d_vals + y[0, 0]
    upper = block[0]
    spread = block[min(n, len(block) - 1)] - upper
    step = max(upper - lower, spread / 16) / 16
    for tries in range(4):
        sigma = upper - step * 4 ** tries
        band = assembly.lower_band(d, y, t, f)
        band[0] -= sigma
        factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info == 0:
            return sigma, factor
    raise UncertifiedSpectrumError(
        f"h - sigma I is not positive definite down to sigma = {sigma:.6g}")


def _lanczos(factor: np.ndarray, sigma: float, n: int, k: int, ncv: int):
    """The k lowest eigenpairs of h, ascending, by symmetric Lanczos on
    (h - sigma I)^-1, applied through its band Cholesky ``factor``; None
    if they have not converged within ``ncv`` steps.

    Each step first takes the local three-term recurrence, w -= beta_(m-1)
    v_(m-1) and w -= alpha_m v_m, then orthogonalizes w against all earlier
    vectors by one classical Gram-Schmidt pass, with no restarts.  A second
    pass runs only when the first leaves less than ``DGKS`` of the norm
    that the local step left.  Ritz pair i of the m-step tridiagonal
    matrix, (theta_i, s_i), has the residual norm |beta_m s_(m,i)|; the
    run stops when that is at most eps |theta_i| for the n lowest levels,
    ARPACK's tol = 0 rule, and at most ``EXTRA_LEVEL_TOLERANCE`` |theta_i|
    for the k - n levels above them, which only place the certificate's
    tau.  Each check calls LAPACK's dstevd on the tridiagonal matrix
    directly; one that fails (nonzero info) fails the run.  A breakdown,
    beta_m zero to working precision (at most eps times the norm of the
    new vector before orthogonalization), leaves an invariant Krylov
    space, whose Ritz pairs are exact; there the run stops, short of k
    pairs or not.
    """
    size = factor.shape[1]
    V = np.empty((ncv + 1, size))
    alpha, beta = np.empty(ncv), np.empty(ncv)
    start = np.random.default_rng(0).standard_normal(size)
    V[0] = start / np.linalg.norm(start)
    check = k
    eps = np.finfo(float).eps
    # the residual bound of each wanted pair, theta ascending
    tolerance = np.full(k, eps)
    tolerance[:k - n] = EXTRA_LEVEL_TOLERANCE
    for m in range(ncv):
        w = dpbtrs(factor, V[m], lower=1)[0]
        w_norm = np.linalg.norm(w)
        if m:
            w -= beta[m - 1] * V[m - 1]
        alpha[m] = V[m] @ w
        w -= alpha[m] * V[m]
        beta[m] = np.linalg.norm(w)
        for _ in range(2):
            kept = beta[m]
            alpha[m] += _gram_schmidt(V[:m + 1], w)[m]
            beta[m] = np.linalg.norm(w)
            if beta[m] >= DGKS * kept:
                break
        steps = m + 1
        breakdown = beta[m] <= eps * w_norm
        if breakdown or steps in (check, ncv):
            if steps < k:
                return None
            # dstevd takes one off-diagonal entry even at one step
            theta, s, info = dstevd(alpha[:steps], beta[:m or 1])
            if info:
                return None
            theta, s = theta[-k:], s[:, -k:]
            ratio = np.max(np.abs(beta[m] * s[-1])
                           / (tolerance * np.abs(theta)))
            if breakdown or ratio <= 1:
                return (sigma + 1.0 / theta[::-1],
                        (V[:steps].T @ s)[:, ::-1])
            check = steps + math.ceil(LANCZOS_STEPS_PER_DECADE
                                      * math.log10(ratio))
        V[m + 1] = w / beta[m]
    return None


def _gram_schmidt(earlier: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt pass of ``w``, in place, against ``earlier``."""
    c = earlier @ w
    w -= c @ earlier
    return c


def _count_below(d: np.ndarray, y: np.ndarray, t: np.ndarray,
                 f: np.ndarray, tau: float) -> int:
    """The number of eigenvalues of h = I_L (x) d + y (x) I_b + t (x) f
    below ``tau``, from the inertia of h - tau I (Sylvester's law).

    h - tau I is block pentadiagonal in k: block column k holds
    d + (y_kk - tau) I, t_(k+1,k) f and g_k I, with g_k = y_(k+2,k)
    (``assembly.lower_band``).  A block LDL^T eliminates one k at a time.
    The pivot P_k is the first of these less the Schur updates of steps
    k - 1 and k - 2, C_k the second less that of step k - 1, and no earlier
    step changes the third.  With W = P_k^-1 C_k^T, step k subtracts C_k W
    from (k + 1, k + 1), g_k W from (k + 2, k + 1) and g_k^2 P_k^-1 from
    (k + 2, k + 2).  The pivots keep the inertia.  Each is factored by
    Bunch-Kaufman (dsytrf), whose 2 x 2 pivots always have a negative
    determinant (Math. Comp. 31, 163 (1977)): each adds one negative
    eigenvalue, each 1 x 1 pivot its sign; dsytri inverts it from that
    factorization.  Both read only lower triangles, so P_k^-1 is mirrored
    from its own before any product.  -1 if some P_k is exactly singular.
    """
    L, b = len(y), len(d)
    upper = np.triu(np.ones((b, b), dtype=bool), 1)
    count = 0
    update = np.zeros((b, b))    # steps k - 1 and k - 2 on (k, k)
    below = np.zeros((b, b))     # step k - 1 on (k + 1, k)
    carried = np.zeros((b, b))   # step k - 1 on (k + 1, k + 1)
    for k in range(L):
        pivot = d + update
        pivot.flat[::b + 1] += y[k, k] - tau
        ldu, ipiv, info = dsytrf(pivot, lower=1, lwork=64 * b)
        if info > 0:
            return -1
        count += int(np.sum(ldu.diagonal()[ipiv > 0] < 0)
                     + np.sum(ipiv < 0) // 2)
        if k + 1 == L:
            break
        inverse, _ = dsytri(ldu, ipiv, lower=1, overwrite_a=1)
        np.copyto(inverse, inverse.T, where=upper)
        column = t[k + 1, k] * f + below
        w = inverse @ column.T
        update = carried - column @ w
        g = y[k + 2, k] if k + 2 < L else 0.0
        below = -g * w
        carried = (-g * g) * inverse
    return count


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


def _point(func, item) -> tuple:
    """``func(item)`` under the failure rule of ``parallel_map``."""
    try:
        return func(item), None
    except POINT_ERRORS as exc:  # recorded, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _child_share(receiver, sender, func, share) -> None:
    """A started process's ``share`` of ``parallel_map``: its pairs in
    share order, or the exception that ended it with its traceback, sent
    over ``sender``.

    The child closes its copy of the caller's end ``receiver`` first: a
    send larger than the pipe buffer then fails, rather than blocks for
    ever, once the caller is gone."""
    receiver.close()
    caller, ppid = multiprocessing.parent_process(), os.getppid()
    pairs, error, trace = [], None, None
    try:
        with _one_blas_thread():
            for item in share:
                # no one reads the result of a caller that is gone: under
                # fork and spawn the child is re-parented, under
                # forkserver the caller's sentinel closes
                if os.getppid() != ppid or not caller.is_alive():
                    return
                pairs.append(_point(func, item))
    except Exception as exc:
        pairs, error, trace = None, exc, traceback.format_exc()
    try:
        reply = ForkingPickler.dumps((pairs, error, trace))
        ForkingPickler.loads(reply)  # as the caller's recv will
    except Exception as exc:
        # a result or an exception that does not pickle or load back
        # reaches the caller as a RuntimeError that names it
        lost = "the results" if error is None else repr(error)
        reply = ForkingPickler.dumps((None, RuntimeError(
            f"{lost} could not be sent: {exc!r}"),
            trace or traceback.format_exc()))
    sender.send_bytes(reply)


def parallel_map(func, items, workers: int) -> list:
    """One ``(result, error)`` pair per item, in the order of ``items``,
    computed on ``n = min(workers, len(items))`` processes: the caller and
    ``n - 1`` started ones.

    The one failure rule of every grid point: the pair is ``(func(item),
    None)``, or ``(None, "<Type>: <message>")`` when ``func`` raises one of
    the ``POINT_ERRORS``; any other exception propagates with its own type.

    With ``n > 1`` the caller starts ``n - 1`` processes of the default
    ``multiprocessing`` context, which get ``func`` pickled by reference
    under spawn.  Process ``k``, the caller being process 0, computes the
    strided share ``items[k::n]``, so a run of costly neighbouring grid
    points is split between all processes.  A child gets only its share
    and sends its pairs back in share order over a one-way pipe.  The
    caller reads every pipe before it joins any child, since a share
    larger than the pipe buffer would otherwise block its child, and puts
    share ``k`` at ``results[k::n]``.  A child that dies, for example by
    an OOM kill, leaves no result on its pipe, which raises
    ``BrokenProcessPool``; that is not one of the ``POINT_ERRORS`` and so
    ends the run.  A result or exception of a child that does not pickle,
    or does not load back, raises a ``RuntimeError`` that names it.  No
    child outlives the call: when the caller raises, it terminates and
    joins its children first, and a child whose caller is gone stops
    before its next item or fails its send.

    Each process computes all its items on one BLAS thread per library,
    in one ``_one_blas_thread`` scope: the caller's thread counts are
    restored once, on return.  With a scope per item, which restores two
    threads after each one, the 513 1D points of ``quartic-gap.cfg`` took
    0.38-0.58 ms of wall time each on two processes and two cores, against
    0.20-0.21 ms with one scope per process."""
    with _one_blas_thread():
        n = min(workers, len(items))
        if n <= 1:
            return [_point(func, item) for item in items]
        results, children = [None] * len(items), []
        try:
            for k in range(1, n):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(
                    target=_child_share,
                    args=(receiver, sender, func, items[k::n]))
                child.start()
                children.append((child, receiver))
                # with its write end only in the child, a dead child's pipe
                # reads EOF
                sender.close()
            results[::n] = [_point(func, item) for item in items[::n]]
            for k, (child, receiver) in enumerate(children, 1):
                try:
                    pairs, error, trace = receiver.recv()
                except EOFError:
                    child.join()
                    raise BrokenProcessPool(
                        f"worker process {child.pid} ended with exit code "
                        f"{child.exitcode} before sending its results"
                    ) from None
                if error is not None:
                    raise error from RuntimeError(
                        f"in worker process {child.pid}:\n{trace}")
                results[k::n] = pairs
        except BaseException:
            for child, _ in children:
                child.terminate()
            raise
        finally:
            for child, receiver in children:
                child.join()
                receiver.close()
        return results


def _stabilize_point(args) -> list:
    scaled, spec, n_track = args
    return solve(assembly.assemble(scaled, spec), n_track).energies.tolist()


def _widest_plateau(grid: np.ndarray, values: np.ndarray, level: int,
                    tol: float) -> Plateau | None:
    """Widest window of >= 2 consecutive valid points with relative
    variation <= tol: from each start, the window grows until it meets a
    failed point or leaves the tolerance."""
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
    results = parallel_map(_stabilize_point, tasks, workers)
    energies = np.array([vals or [np.nan] * n_track for vals, _ in results])
    failures = [(index, err) for index, (_, err) in enumerate(results) if err]

    plateaus = tuple(_widest_plateau(grid, energies[:, lev], lev,
                                     PLATEAU_TOLERANCE)
                     for lev in range(n_track))
    return StabilizationTable(grid=grid, energies=energies,
                              plateaus=plateaus, failures=tuple(failures))
