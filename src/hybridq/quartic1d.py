"""Spinless 1D quartic double-well: spectra, gap surfaces, contour fits.

The low part of this spectrum sets where the full 2D device has a useful
qubit gap.  ``solve_1d`` is a Ritz solve in the z'-direction well-pair basis
alone (2N functions, no transverse direction, no spin).  ``gap_surface``
tabulates the scaled gap (E1-E0)/hw0 over (hw0, a), and the surface
classifies each curve into its three decay regimes when they are first
read; ``contour_fit`` extracts iso-gap lines a(hw0) and fits the power law
a = A hw0^e.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import basis as basis_mod
from .assembly import z_hamiltonian
from .model import M_RATIO, PhysicalParams, scale
from .solver import _canonical_solve

# log-log slope thresholds separating the decay regimes of a gap curve
FLOOR_SLOPE = 0.2
ALGEBRAIC_SLOPE = 1.5


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

    The basis is the z' well-pair basis of ``basis`` with ``n_basis``
    functions per parity (at least 1), of width eta = a / ell0 =
    1/sqrt(r_a), the inverse single-well oscillator length in scaled units;
    its tables are the cached z-tables at (eta, n_basis) that a 2D basis of
    that width shares.  The solve is the canonical orthogonalization of
    ``solver._canonical_solve``: where the wells merge and the two well
    ladders become redundant, the near-null overlap directions are dropped
    and the levels come from the regular subspace.
    """
    params = PhysicalParams(hw0=hw0, a=a, b=b, gamma=gamma, m_ratio=m_ratio)
    scaled = scale(params)
    if n_basis < 1:
        raise ValueError("n_basis must be at least 1")
    eta = 1.0 / math.sqrt(scaled.r_a)

    def table(kind: str) -> np.ndarray:
        return basis_mod.z_element_table(kind, eta, n_basis)

    h = z_hamiltonian(scaled, table("dz2"), table("quartic"), table("z"))
    return _canonical_solve(h, table("1"))[:n_lowest]


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


def gap_surface(hw0_values, a_values, gamma: float = -1e-3,
                b_over_a: float = 1.0, *, n_basis: int = 20,
                m_ratio: float = M_RATIO) -> GapSurface:
    """Tabulate the scaled gap over a (hw0, a) grid.

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


def _first_index_at_or_below(values: np.ndarray, target: float) -> int | None:
    """Smallest index with values[i] <= target on a nonincreasing tabulation.

    Bisection, then a backward sweep to be robust against flat-floor jitter.
    """
    lo, hi = 0, len(values) - 1
    if values[hi] > target:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if values[mid] <= target:
            hi = mid
        else:
            lo = mid + 1
    while hi > 0 and values[hi - 1] <= target:
        hi -= 1
    return hi


def contour_fit(surface: GapSurface, target: float) -> ContourFit:
    """Extract the iso-gap contour and fit a = A hw0^exponent.

    Per hw0 the contour point is the smallest tabulated a whose gap is at
    or below the target; rows that never reach the target, and rows with a
    failed (non-finite) gap, are skipped and reported.
    """
    if target <= 0:
        raise ValueError("target gap must be positive")
    hw0_pts, a_pts, skipped = [], [], []
    for i, hw0 in enumerate(surface.hw0_values):
        row = surface.gaps[i]
        idx = (_first_index_at_or_below(row, target)
               if np.all(np.isfinite(row)) else None)
        if idx is None:
            skipped.append(float(hw0))
        else:
            hw0_pts.append(float(hw0))
            a_pts.append(float(surface.a_values[idx]))
    if len(hw0_pts) < 2:
        raise ValueError(
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
