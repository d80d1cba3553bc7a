"""Assembly of the M x M Hamiltonian and overlap matrices.

Every term of the scaled Hamiltonian factorizes as (z-factor) x (y-factor)
x (spin-factor), so the full matrices are built from precomputed 1D element
tables.  In units of hw0 the spin-independent part is

    H0 = -(r_a/2) (d2/dz'2 + d2/dy'2)
         + ab_ratio/(8 r_a) (z'^2-1)^2 - gamma z'
         - i r_c beta z'^2 d/dy'
         + r_c^2/(2 r_a) (y'^2/4 + beta^2 z'^4)

and the spin blocks follow [[H0+H2, H1], [H1, H0-H2]] with
H1 = -r_c beta z' (the sigma_x coupling) and H2 = -(r_c/2) S (the sigma_z
Zeeman shift, which in a nonorthogonal basis carries the overlap pattern).

Hermiticity is exact by construction: every 1D table is mirrored from its
upper triangle, and the assembled matrix is mirrored once more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis as basis_mod
from .basis import BasisSpec
from .errors import IllConditionedBasisError
from .model import ScaledParams

# relative eigenvalue floor below which the overlap matrix is treated as
# numerically non-positive-definite
OVERLAP_MIN_EIG_FRACTION = 1e-12


@dataclass(frozen=True)
class SpectralProblem:
    """Assembled generalized eigenproblem H c = E S c.

    ``H`` is Hermitian (complex when the slanting field couples orbit and
    spin), ``S`` real symmetric positive definite and block diagonal in spin.
    ``s_spatial`` and ``z_spatial`` are the per-spin-block overlap and
    z'-moment matrices kept for observables; all arrays are read-only.
    """

    H: np.ndarray
    S: np.ndarray
    s_spatial: np.ndarray
    z_spatial: np.ndarray
    spec: BasisSpec
    scaled: ScaledParams
    s_min_eig: float
    s_condition: float

    @property
    def size(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class AssemblyDiagnostics:
    """Report-only integrity numbers for an assembled problem."""

    hermiticity_residual: float      # max |H - H^dagger|
    overlap_asymmetry: float         # max |S - S^T|
    overlap_min_eig: float
    overlap_condition: float
    spin_block_residual: float       # max |H - rebuild from its spin blocks|


def _spatial_product(z_table: np.ndarray, y_table: np.ndarray,
                     L: int, N: int) -> np.ndarray:
    """Combine a (2N x 2N) z-table and an (L x L) y-table into the
    spatial ordering (p, k, n)."""
    z4 = z_table.reshape(2, N, 2, N)
    out = np.einsum("pnqm,kl->pknqlm", z4, y_table)
    return out.reshape(2 * L * N, 2 * L * N)


def assemble(scaled: ScaledParams, spec: BasisSpec) -> SpectralProblem:
    """Build the spectral problem for the given scaled parameters and basis.

    Raises
    ------
    IllConditionedBasisError
        If the smallest overlap eigenvalue falls below
        ``OVERLAP_MIN_EIG_FRACTION`` times the largest.
    """
    L, N = spec.L, spec.N
    r_a, r_c, beta = scaled.r_a, scaled.r_c, scaled.beta

    tz = {k: basis_mod.z_element_table(k, spec)
          for k in ("1", "z", "z2", "z4", "quartic", "dz2")}
    ty = {k: basis_mod.y_element_table(k, spec)
          for k in ("1", "y2", "dy", "dy2")}

    s_spatial = _spatial_product(tz["1"], ty["1"], L, N)
    z_spatial = _spatial_product(tz["z"], ty["1"], L, N)

    h0 = -(0.5 * r_a) * (_spatial_product(tz["dz2"], ty["1"], L, N)
                         + _spatial_product(tz["1"], ty["dy2"], L, N))
    h0 += (scaled.ab_ratio / (8.0 * r_a)) * \
        _spatial_product(tz["quartic"], ty["1"], L, N)
    h0 -= scaled.gamma * z_spatial
    if r_c > 0:
        h0 = h0 + (r_c * r_c / (8.0 * r_a)) * \
            _spatial_product(tz["1"], ty["y2"], L, N)
        if beta > 0:
            h0 = h0 + (r_c * r_c * beta * beta / (2.0 * r_a)) * \
                _spatial_product(tz["z4"], ty["1"], L, N)
            # -i r_c beta z'^2 d/dy': symmetric (z) x antisymmetric (y),
            # the only imaginary contribution
            h0 = h0 - 1j * r_c * beta * \
                _spatial_product(tz["z2"], ty["dy"], L, N)

    h1 = -(r_c * beta) * z_spatial      # sigma_x coupling
    h2 = -(0.5 * r_c) * s_spatial       # sigma_z shift

    ms = 2 * L * N
    H = np.zeros((2 * ms, 2 * ms), dtype=h0.dtype)
    H[:ms, :ms] = h0 + h2
    H[ms:, ms:] = h0 - h2
    H[:ms, ms:] = h1
    H[ms:, :ms] = h1
    # mirror the upper triangle so H = H^dagger holds exactly
    H = np.triu(H) + np.triu(H, 1).conj().T

    S = np.zeros((2 * ms, 2 * ms))
    S[:ms, :ms] = s_spatial
    S[ms:, ms:] = s_spatial

    s_eigs = np.linalg.eigvalsh(s_spatial)
    s_min, s_max = float(s_eigs[0]), float(s_eigs[-1])
    if s_min < OVERLAP_MIN_EIG_FRACTION * s_max:
        raise IllConditionedBasisError(
            f"overlap matrix numerically singular: min eigenvalue "
            f"{s_min:.3e} vs norm {s_max:.3e}",
            min_eigenvalue=s_min,
        )

    for arr in (H, S, s_spatial, z_spatial):
        arr.setflags(write=False)
    return SpectralProblem(H=H, S=S, s_spatial=s_spatial, z_spatial=z_spatial,
                           spec=spec, scaled=scaled,
                           s_min_eig=s_min, s_condition=s_max / s_min)


def validate(problem: SpectralProblem) -> AssemblyDiagnostics:
    """Integrity diagnostics: Hermiticity, overlap conditioning, block shape.

    All residuals are zero (to machine precision) for a fresh assembly; a
    corrupted entry shows up as a nonzero residual.  Report-only.
    """
    H, S = problem.H, problem.S
    herm = float(np.max(np.abs(H - H.conj().T)))
    s_asym = float(np.max(np.abs(S - S.T)))

    s_eigs = np.linalg.eigvalsh(problem.s_spatial)
    s_min, s_max = float(s_eigs[0]), float(s_eigs[-1])
    cond = s_max / s_min if s_min > 0 else float("inf")

    ms = problem.size // 2
    ul, lr = H[:ms, :ms], H[ms:, ms:]
    ur, ll = H[:ms, ms:], H[ms:, :ms]
    h0 = 0.5 * (ul + lr)
    h2 = 0.5 * (ul - lr)
    h1 = 0.5 * (ur + ll)
    rebuilt = np.block([[h0 + h2, h1], [h1, h0 - h2]])
    block = float(np.max(np.abs(H - rebuilt)))
    # off-diagonal spin blocks must be equal (sigma_x structure)
    block = max(block, float(np.max(np.abs(ur - ll))))

    return AssemblyDiagnostics(
        hermiticity_residual=herm,
        overlap_asymmetry=s_asym,
        overlap_min_eig=s_min,
        overlap_condition=cond,
        spin_block_residual=block,
    )
