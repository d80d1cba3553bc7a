"""Assembly of the spectral problem from Kronecker factors.

Every term of the scaled Hamiltonian factorizes as (z-factor) x (y-factor)
x (spin-factor): a 2N x 2N z-table, an L x L y-table and a 2 x 2 spin
matrix.  In units of hw0 the spin-independent part is

    H0 = -(r_a/2) (d2/dz'2 + d2/dy'2)
         + ab_ratio/(8 r_a) (z'^2-1)^2 - gamma z'
         - i r_c beta z'^2 d/dy'
         + r_c^2/(2 r_a) (y'^2/4 + beta^2 z'^4)

and the spin blocks follow [[H0+H2, H1], [H1, H0-H2]] with
H1 = -r_c beta z' (the sigma_x coupling) and H2 = -(r_c/2) S (the sigma_z
Zeeman shift, which in a nonorthogonal basis carries the overlap pattern).
The overlap is I_spin x S_z x I_y, since the y-ladder is orthonormal.

``assemble`` only builds the factor tables; a redundant z-overlap is
handled by the solve, which drops its near-null directions.
``z_hamiltonian`` combines z-tables into the z-part of H0, which is also
the whole 1D problem of ``quartic1d.solve_1d``.
``orthonormal_hamiltonian`` turns the tables into one real symmetric
standard problem: the z-basis is orthonormalized through the eigenpairs of
S_z (Loewdin canonical orthogonalization), and the gauge phi_k -> i^k phi_k
makes the y-factors real, mapping the only complex term to a real symmetric
one.  ``to_basis`` maps its eigenvectors back to the flat (s, p, k, n)
ordering of the original complex gauge.

``spin_block_forms`` evaluates expectation values of z-operators, such as
<z'> and <sigma_x>, from one z-table and a coefficient column.

The dense M x M matrices ``H`` and ``S`` (M = 4LN) and the 2LN x 2LN
per-spin-block ``s_spatial`` and ``z_spatial`` are built only on request,
by tests and the traced benchmark, as the dense reference.  The
Hermiticity of ``H`` is exact by construction: every 1D table is mirrored
from its upper triangle, and the assembled matrix is mirrored once more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import basis as basis_mod
from .basis import BasisSpec
from .model import ScaledParams


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpectralProblem:
    """Generalized eigenproblem H c = E S c, held as its factor tables.

    ``z_tables`` maps the kinds of ``basis.Z_KINDS`` to 2N x 2N z-tables,
    ``y_tables`` the kinds of ``basis.Y_KINDS`` to L x L y-tables; the
    y "1" table is the identity.  Everything else is derived on first
    access and cached: the eigenpairs of the z-overlap, and the dense
    reference, which only tests and the traced benchmark ask for.  That is
    the per-spin-block overlap and z'-moment matrices ``s_spatial`` and
    ``z_spatial``, the dense ``H`` (Hermitian, complex when the slanting
    field couples orbit and spin) and ``S`` (real symmetric, block diagonal
    in spin).  All arrays are read-only.
    """

    z_tables: dict
    y_tables: dict
    spec: BasisSpec
    scaled: ScaledParams

    @property
    def size(self) -> int:
        return self.spec.size

    @cached_property
    def overlap_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of the z-overlap S_z.

        The spectrum of the full overlap is this one, L times over.
        """
        vals, vecs = np.linalg.eigh(self.z_tables["1"])
        return _read_only(vals), _read_only(vecs)

    @property
    def s_min_eig(self) -> float:
        return float(self.overlap_eigh[0][0])

    @property
    def s_condition(self) -> float:
        vals = self.overlap_eigh[0]
        return float(vals[-1] / vals[0])

    @cached_property
    def s_spatial(self) -> np.ndarray:
        return _read_only(self._spatial("1", "1"))

    @cached_property
    def z_spatial(self) -> np.ndarray:
        return _read_only(self._spatial("z", "1"))

    @cached_property
    def H(self) -> np.ndarray:
        return _read_only(_dense_hamiltonian(self))

    @cached_property
    def S(self) -> np.ndarray:
        ms = self.s_spatial.shape[0]
        S = np.zeros((2 * ms, 2 * ms))
        S[:ms, :ms] = self.s_spatial
        S[ms:, ms:] = self.s_spatial
        return _read_only(S)

    def _spatial(self, z_kind: str, y_kind: str) -> np.ndarray:
        return _spatial_product(self.z_tables[z_kind],
                                self.y_tables[y_kind],
                                self.spec.L, self.spec.N)


def _spatial_product(z_table: np.ndarray, y_table: np.ndarray,
                     L: int, N: int) -> np.ndarray:
    """Combine a (2N x 2N) z-table and an (L x L) y-table into the
    spatial ordering (p, k, n)."""
    z4 = z_table.reshape(2, N, 2, N)
    out = np.einsum("pnqm,kl->pknqlm", z4, y_table)
    return out.reshape(2 * L * N, 2 * L * N)


def assemble(scaled: ScaledParams, spec: BasisSpec) -> SpectralProblem:
    """Build the spectral problem for the given scaled parameters and basis."""
    return SpectralProblem(
        z_tables={k: basis_mod.z_element_table(k, spec)
                  for k in basis_mod.Z_KINDS},
        y_tables={k: basis_mod.y_element_table(k, spec)
                  for k in basis_mod.Y_KINDS},
        spec=spec, scaled=scaled)


def _dense_hamiltonian(problem: SpectralProblem) -> np.ndarray:
    """The M x M Hamiltonian in the flat (s, p, k, n) ordering."""
    r_a, r_c = problem.scaled.r_a, problem.scaled.r_c
    beta = problem.scaled.beta
    product = problem._spatial
    z_spatial = problem.z_spatial

    h0 = -(0.5 * r_a) * (product("dz2", "1") + product("1", "dy2"))
    h0 += (problem.scaled.ab_ratio / (8.0 * r_a)) * product("quartic", "1")
    h0 -= problem.scaled.gamma * z_spatial
    if r_c > 0:
        h0 = h0 + (r_c * r_c / (8.0 * r_a)) * product("1", "y2")
        if beta > 0:
            h0 = h0 + (r_c * r_c * beta * beta / (2.0 * r_a)) * \
                product("z4", "1")
            # -i r_c beta z'^2 d/dy': symmetric (z) x antisymmetric (y),
            # the only imaginary contribution
            h0 = h0 - 1j * r_c * beta * product("z2", "dy")

    h1 = -(r_c * beta) * z_spatial      # sigma_x coupling
    h2 = -(0.5 * r_c) * problem.s_spatial       # sigma_z shift

    ms = 2 * problem.spec.L * problem.spec.N
    H = np.zeros((2 * ms, 2 * ms), dtype=h0.dtype)
    H[:ms, :ms] = h0 + h2
    H[ms:, ms:] = h0 - h2
    H[:ms, ms:] = h1
    H[ms:, :ms] = h1
    # mirror the upper triangle so H = H^dagger holds exactly
    return np.triu(H) + np.triu(H, 1).conj().T


def y_gauge(L: int) -> np.ndarray:
    """Phases i^k of the real y-gauge phi_k -> i^k phi_k, exact in every
    component."""
    return np.array([(1, 1j, -1, -1j)[k % 4] for k in range(L)])


def gauged_y_table(table: np.ndarray, unit: complex = 1) -> np.ndarray:
    """``unit`` times an L x L y-table in the gauge phi_k -> i^k phi_k.

    Even-offset tables keep real entries; ``unit = -1j`` makes the
    antisymmetric d/dy' table real symmetric.  Every product is by 0 or
    +-1, so the imaginary part of either is exactly zero.
    """
    phase = y_gauge(table.shape[0])
    return unit * (phase.conj()[:, None] * table * phase)


def z_hamiltonian(scaled: ScaledParams, dz2: np.ndarray,
                  quartic: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The 1D double-well Hamiltonian -(r_a/2) d2/dz'2
    + ab_ratio/(8 r_a) (z'^2-1)^2 - gamma z' from its z-tables in one
    basis: the z-part of H0 and the whole 1D problem."""
    r_a = scaled.r_a
    return (-(0.5 * r_a) * dz2 + (scaled.ab_ratio / (8.0 * r_a)) * quartic
            - scaled.gamma * z)


def orthonormal_hamiltonian(problem: SpectralProblem,
                            transform: np.ndarray) -> np.ndarray:
    """Real symmetric Hamiltonian in an orthonormal basis.

    ``transform`` (2N x r) orthonormalizes the z-basis, X^T S_z X = I.
    The basis is spin x (X-directions) x (gauged y-ladder), ordered
    (s, j, k) with k fastest, so every term is one ``np.kron`` of factors.
    """
    r_a, r_c = problem.scaled.r_a, problem.scaled.r_c
    beta = problem.scaled.beta
    tz, ty = problem.z_tables, problem.y_tables

    def z(kind: str) -> np.ndarray:
        t = transform.T @ tz[kind] @ transform
        return np.triu(t) + np.triu(t, 1).T

    def y(kind: str, unit: complex = 1) -> np.ndarray:
        return gauged_y_table(ty[kind], unit).real

    z_moment = z("z")
    z_part = z_hamiltonian(problem.scaled, z("dz2"), z("quartic"), z_moment)
    y_part = -(0.5 * r_a) * y("dy2")
    if r_c > 0:
        y_part += (r_c * r_c / (8.0 * r_a)) * y("y2")
        if beta > 0:
            z_part += (r_c * r_c * beta * beta / (2.0 * r_a)) * z("z4")
    eye_z, eye_y = np.eye(len(z_part)), np.eye(len(y_part))
    h0 = np.kron(z_part, eye_y) + np.kron(eye_z, y_part)
    if r_c > 0 and beta > 0:
        h0 += (r_c * beta) * np.kron(z("z2"), y("dy", -1j))

    h1 = -(r_c * beta) * np.kron(z_moment, eye_y)
    h2 = -(0.5 * r_c) * np.eye(len(h0))
    return np.block([[h0 + h2, h1], [h1, h0 - h2]])


def to_basis(problem: SpectralProblem, transform: np.ndarray,
             vectors: np.ndarray) -> np.ndarray:
    """Columns of ``orthonormal_hamiltonian`` coordinates as coefficients
    in the flat (s, p, k, n) ordering of the original complex gauge."""
    L, N = problem.spec.L, problem.spec.N
    count = vectors.shape[1]
    c = transform @ vectors.reshape(2, transform.shape[1], L * count)
    c = c.reshape(2, 2, N, L, count) * y_gauge(L)[:, None]
    return c.transpose(0, 1, 3, 2, 4).reshape(4 * L * N, count)


def spin_block_forms(problem: SpectralProblem, c: np.ndarray,
                     z_kind: str) -> np.ndarray:
    """2 x 2 matrix Re <c_a| T (x) I_y |c_b> over the spin blocks a, b of
    one flat (s, p, k, n) coefficient column ``c``, with T the z-table of
    ``z_kind``.

    The y-ladder is orthonormal, so a z-operator needs no y-table: with
    each spin block reshaped to C_s (2N x L, z rows, y columns), the form
    is Re vdot(C_a, T C_b).
    """
    L, N = problem.spec.L, problem.spec.N
    C = c.reshape(2, 2, L, N).transpose(0, 1, 3, 2).reshape(2, 2 * N, L)
    TC = problem.z_tables[z_kind] @ C
    return np.tensordot(C.conj(), TC, axes=([1, 2], [1, 2])).real
