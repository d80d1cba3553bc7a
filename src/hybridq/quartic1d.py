"""Spinless 1D quartic double-well: spectra, gap surfaces, contour fits.

The low part of this spectrum sets where the full 2D device has a useful
qubit gap.  ``solve_1d`` is a Ritz solve in the z' direction alone (no
transverse direction, no spin), in the scaled oscillator basis of
anharmonic-oscillator studies (Banerjee et al., Proc. R. Soc. Lond. A 360,
575 (1978)): 4N orthonormal functions of one oscillator ladder centered
between the wells, whose width follows r_a.  Every term is a polynomial in
its ladder operators, so the levels need no overlap, and each comes with
its exact full-space residual, which decides whether the point is
resolved; it runs on one BLAS thread (``parallel.one_blas_thread``).
``gap_surface`` tabulates the scaled gap (E1-E0)/hw0 over (hw0, a), and
the surface classifies each curve into its three decay regimes when they
are first read; ``contour_fit`` extracts iso-gap lines a(hw0) and fits
the power law a = A hw0^e.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import basis as basis_mod
from . import parallel, solver
from .errors import (ReducedBasisError, UncertifiedSpectrumError,
                     UnreachableTargetError)
from .model import M_RATIO, PhysicalParams, scale

# log-log slope thresholds separating the decay regimes of a gap curve
FLOOR_SLOPE = 0.2
ALGEBRAIC_SLOPE = 1.5

# ``solve_1d`` takes LADDER_PER_N ladder functions per config N, of width
# s = LADDER_WIDTH (2 r_a)^(1/3); 88 functions at the shipped N = 22
LADDER_PER_N = 4
LADDER_WIDTH = 0.55
# the highest power of the ladder operators in a 1D term, that of z'^4
_DEGREE = 4


@dataclass(frozen=True)
class CurveRegimes:
    """Index ranges (into the a-grid) of the three decay regimes.

    Each entry is (i_lo, i_hi) inclusive, or None when the regime does not
    appear on the tabulated range.
    """

    algebraic: tuple[int, int] | None
    exponential: tuple[int, int] | None
    floor: tuple[int, int] | None


@dataclass(frozen=True)
class GapSurface:
    """Scaled gap tabulated over hw0 (rows) and a (columns).

    ``regimes`` is derived from ``a_values`` and ``gaps`` on first read,
    so it always agrees with the tabulated gaps.
    """

    hw0_values: np.ndarray   # meV
    a_values: np.ndarray     # nm
    gaps: np.ndarray         # (E1-E0)/hw0, shape (n_hw0, n_a)

    @functools.cached_property
    def regimes(self) -> tuple:
        """``classify_regimes`` of each hw0 row."""
        return tuple(classify_regimes(self.a_values, row)
                     for row in self.gaps)


@dataclass(frozen=True)
class ContourFit:
    """Iso-gap contour a(hw0) and its power-law fit a = A hw0^exponent,
    for the target gap the caller passed to ``contour_fit``."""

    hw0_values: np.ndarray
    a_values: np.ndarray
    skipped_hw0: tuple       # hw0 rows that never reach the target or failed
    amplitude: float
    exponent: float
    r_squared: float


def solve_1d(hw0: float, a: float, b: float | None = None,
             gamma: float = 0.0, *, n_basis: int = 20, n_lowest: int = 6,
             m_ratio: float = M_RATIO) -> np.ndarray:
    """Lowest eigenvalues (units hw0) of the 1D double well.

    Its Hamiltonian is the terms of ``ScaledParams.terms`` with y kind and
    spin factor "1", in the first n = ``LADDER_PER_N`` * ``n_basis``
    functions (``n_basis`` at least 1) of one orthonormal oscillator ladder
    u_k(z'/s), centered between the wells, of width s = ``LADDER_WIDTH``
    (2 r_a)^(1/3), where the kinetic and the quartic term balance.  With
    W the position and D the derivative in the ladder (``_ladder``), the
    z kinds are "1" = I, "z" = s W, "z2" = s^2 W^2, "quartic" =
    s^4 W^4 - 2 s^2 W^2 + I and "dz2" = D^2 / s^2, so no overlap is
    needed.  Every kind is a polynomial of degree at most 4 in the ladder
    operators, so H maps the first n functions into the first n + 4, and
    the full-space residual of a Ritz vector c_j is exactly
    r_j = ||H[n:n+4, n-4:n] c_j[n-4:]||.  The point fails with an
    ``UncertifiedSpectrumError`` when H or an r_j is not finite, or when
    r_0 + r_1, plus the rounding of each level, bounded by n eps ||h||_1
    for the n x n block h, reaches the gap E_1 - E_0: then the two lowest
    levels are not resolved apart.  The rounding decides only at extreme
    widths.  The rule reads two levels, whatever ``n_lowest``.  As in
    ``solver.solve``, ``n_lowest`` outside 1 to n is a
    ``ReducedBasisError``.  The linear algebra runs on one BLAS thread,
    and the caller's thread counts are restored on return.
    """
    params = PhysicalParams(hw0=hw0, a=a, b=b, gamma=gamma, m_ratio=m_ratio)
    scaled = scale(params)
    if n_basis < 1:
        raise ValueError("n_basis must be at least 1")
    n = LADDER_PER_N * n_basis
    if not 1 <= n_lowest <= n:
        raise ReducedBasisError(f"n_lowest must be between 1 and the "
                                f"ladder size {n}")
    s = LADDER_WIDTH * (2.0 * scaled.r_a) ** (1.0 / 3.0)
    s2 = s * s
    # each z kind as weights of the stacked I, W, W^2, W^4 and D^2
    kinds = {"1": (1.0, 0.0, 0.0, 0.0, 0.0), "z": (0.0, s, 0.0, 0.0, 0.0),
             "z2": (0.0, 0.0, s2, 0.0, 0.0),
             "quartic": (1.0, 0.0, -2.0 * s2, s2 * s2, 0.0),
             "dz2": (0.0, 0.0, 0.0, 0.0, 1.0 / s2)}
    weights = sum(coef * np.array(kinds[kind]) for coef, kind, y, spin
                  in scaled.terms if y == spin == "1")
    # an extreme width overflows h, which is checked before the solve
    with parallel.one_blas_thread(), np.errstate(over="ignore",
                                                 invalid="ignore"):
        h = np.tensordot(weights, _ladder(n), axes=1)
        if not np.isfinite(h).all():
            raise UncertifiedSpectrumError(
                f"the 1D Hamiltonian overflows at ladder width s = {s:g}")
        levels, vecs = solver._lowest_pairs(h[:n], max(n_lowest, 2))
        residuals = np.linalg.norm(
            h[n:, n - _DEGREE:] @ vecs[n - _DEGREE:], axis=0)
    # LAPACK bounds the rounding of each level by p(n) eps ||h||_2, p a
    # modestly growing function; n eps ||h||_1 is a safe form of it
    rounding = n * np.finfo(float).eps * np.abs(h[:n]).sum(axis=0).max()
    spread = residuals[0] + residuals[1] + 2.0 * rounding
    if not np.isfinite(residuals).all() or spread >= levels[1] - levels[0]:
        raise UncertifiedSpectrumError(
            f"the {n}-function ladder does not resolve the gap: "
            f"r0 + r1 = {residuals[0] + residuals[1]:.3g} and rounding "
            f"{2.0 * rounding:.3g} against E1 - E0 = "
            f"{levels[1] - levels[0]:.3g}")
    return levels[:n_lowest]


@functools.lru_cache(maxsize=4)
def _ladder(n: int) -> np.ndarray:
    """I, W, W^2, W^4 and D^2 of the oscillator ladder u_k(w), stacked, in
    the columns k < n and the n + ``_DEGREE`` rows they reach; read-only.

    Built from the ladders of ``basis`` padded by ``_DEGREE``, where every
    product that lands in those columns is complete."""
    size = n + _DEGREE
    w = basis_mod._ladder_position(size)
    d = basis_mod._ladder_derivative(size)
    w2 = w @ w
    ops = np.stack([op[:, :n] for op in (np.eye(size), w, w2, w2 @ w2,
                                          d @ d)])
    ops.setflags(write=False)
    return ops


def classify_regimes(a_values, gaps) -> CurveRegimes:
    """Label the decay regimes of one gap curve by its log-log slope.

    Midpoint slopes p = d(log g)/d(log a) sort into: floor (|p| below
    FLOOR_SLOPE, taken as a trailing run), algebraic (|p| up to
    ALGEBRAIC_SLOPE, leading run) and exponential (steeper than
    ALGEBRAIC_SLOPE, the first longest run).  A curve with fewer than
    three points, or with a gap that is not finite and positive (a failed
    point), has no regimes.
    """
    a_values = np.asarray(a_values, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if len(a_values) < 3 or not np.all(np.isfinite(gaps) & (gaps > 0)):
        return CurveRegimes(None, None, None)
    p = np.abs(np.diff(np.log(gaps)) / np.diff(np.log(a_values)))
    labels = np.where(p <= FLOOR_SLOPE, 2,
                      np.where(p <= ALGEBRAIC_SLOPE, 0, 1))

    # runs of equal labels; midpoints lo..hi-1 span grid points lo..hi
    runs, hi = [], 0
    for label, run in itertools.groupby(labels.tolist()):
        lo, hi = hi, hi + len(list(run))
        runs.append((label, (lo, hi)))
    floor = runs.pop()[1] if runs[-1][0] == 2 else None
    algebraic = runs.pop(0)[1] if runs and runs[0][0] == 0 else None
    exponential = max((span for label, span in runs if label == 1),
                      key=lambda span: span[1] - span[0], default=None)
    return CurveRegimes(algebraic=algebraic, exponential=exponential,
                        floor=floor)


def gap_surface(hw0_values, a_values, gamma: float, b_over_a: float = 1.0,
                *, n_basis: int = 20, m_ratio: float = M_RATIO) -> GapSurface:
    """Tabulate the scaled gap over a (hw0, a) grid at tilt ``gamma``.

    ``b_over_a`` scales the barrier length with a (the default b = a keeps
    the potential shape fixed); each point is a ``solve_1d``, so its basis
    width is 1/sqrt(r_a) of that point.
    """
    hw0_values = np.asarray(hw0_values, dtype=float)
    a_values = np.asarray(a_values, dtype=float)
    gaps = np.empty((len(hw0_values), len(a_values)))
    for i, hw0 in enumerate(hw0_values):
        for j, a in enumerate(a_values):
            levels = solve_1d(hw0, a, b=b_over_a * a, gamma=gamma,
                              n_basis=n_basis, n_lowest=2, m_ratio=m_ratio)
            gaps[i, j] = levels[1] - levels[0]
    return GapSurface(hw0_values=hw0_values, a_values=a_values, gaps=gaps)


def contour_fit(surface: GapSurface, target: float) -> ContourFit:
    """Extract the iso-gap contour and fit a = A hw0^exponent.

    Per hw0 the contour point is the smallest tabulated a whose gap is at
    or below the target; rows that never reach the target, and rows with a
    failed (non-finite) gap, are skipped and reported.  Fewer than two
    rows left is an ``UnreachableTargetError``, also a ``ValueError``.
    """
    if target <= 0:
        raise ValueError("target gap must be positive")
    hw0_pts, a_pts, skipped = [], [], []
    for i, hw0 in enumerate(surface.hw0_values):
        row = surface.gaps[i]
        hits = np.flatnonzero(row <= target)
        if len(hits) == 0 or not np.all(np.isfinite(row)):
            skipped.append(float(hw0))
        else:
            hw0_pts.append(float(hw0))
            a_pts.append(float(surface.a_values[hits[0]]))
    if len(hw0_pts) < 2:
        raise UnreachableTargetError(
            f"target gap {target:g} reachable for {len(hw0_pts)} hw0 value(s); "
            "need at least two for a power-law fit")

    log_w = np.log(hw0_pts)
    log_a = np.log(a_pts)
    coeffs, residuals, *_ = np.polyfit(log_w, log_a, 1, full=True)
    exponent, intercept = float(coeffs[0]), float(coeffs[1])
    total = float(np.sum((log_a - log_a.mean()) ** 2))
    ss_res = float(residuals[0]) if len(residuals) else 0.0
    r2 = 1.0 - ss_res / total if total > 0 else 1.0
    return ContourFit(hw0_values=np.asarray(hw0_pts),
                      a_values=np.asarray(a_pts),
                      skipped_hw0=tuple(skipped),
                      amplitude=math.exp(intercept),
                      exponent=exponent,
                      r_squared=r2)
