"""Assembly of the spectral problem from Kronecker factors.

Every term of the scaled Hamiltonian factorizes as (spin-factor) x
(z-factor) x (y-factor): a 2 x 2 spin matrix, a 2N x 2N z-table and an
L x L y-table.  In units of hw0 the spin-independent part is

    H0 = -(r_a/2) (d2/dz'2 + d2/dy'2)
         + ab_ratio/(8 r_a) (z'^2-1)^2 - gamma z'
         + r_c beta z'^2 (-i d/dy')
         + r_c^2/(2 r_a) (y'^2/4 + beta^2 z'^4)

and the spin blocks follow [[H0+H2, H1], [H1, H0-H2]] with
H1 = -r_c beta z' (the sigma_x coupling) and H2 = -(r_c/2) S (the sigma_z
Zeeman shift, which in a nonorthogonal basis carries the overlap pattern).
The y-ladder chi_k = i^k phi_k (``basis``) makes every y-table real, the
one of -i d/dy' included, so every factor and H itself are real.  The
overlap is I_spin x S_z x I_y, since the y-ladder is orthonormal.
The flat basis index follows the same order, (s, p, n, k) with k fastest
(``basis``), so every dense matrix is the ``np.kron`` of its factors.

``assemble`` only builds the factor tables; a redundant z-overlap is
handled by the solve, which drops its near-null directions.
``z_hamiltonian`` combines z-tables into the z-part of H0, which is also
the whole 1D problem of ``quartic1d.solve_1d``.
``reduced_terms`` turns the tables into one real symmetric standard
problem, with the z-basis orthonormalized through the eigenpairs of S_z
(Loewdin canonical orthogonalization), and keeps it as three Kronecker
terms in the (k, s, j) order: y-index k slowest, then spin, then the r
kept z-directions j.  It is block pentadiagonal in k with blocks of size
2r, and ``lower_band`` writes it from the factors straight into LAPACK
lower-band storage of bandwidth 4r, column-major; no dense M x M matrix is
formed.  ``to_basis`` maps its eigenvectors back to flat coefficients: the
z-transform, with k moved from slowest to fastest.

``spin_block_forms`` evaluates expectation values of z-operators, such as
<z'> and <sigma_x>, from one z-table and a coefficient column, which is
reshaped to one 2N x L block per spin.

The dense M x M matrices ``H`` and ``S`` (M = 4LN) and the 2LN x 2LN
per-spin-block ``s_spatial`` and ``z_spatial`` are built only on request,
by tests and the traced benchmark, as the dense reference.  The
symmetry of ``H`` is exact by construction: every 1D table is mirrored
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
    ``z_spatial``, the dense ``H`` and ``S`` (block diagonal in spin).
    Every array is real, every square one symmetric, and all are
    read-only.
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
    def s_condition(self) -> float:
        """Condition number of S_z; inf when rounding leaves its smallest
        eigenvalue at or below zero."""
        vals = self.overlap_eigh[0]
        return float(vals[-1] / vals[0]) if vals[0] > 0 else np.inf

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
        return _read_only(np.kron(np.eye(2), self.s_spatial))

    def _spatial(self, z_kind: str, y_kind: str) -> np.ndarray:
        """The 2LN x 2LN spin-block matrix of a z-table times a y-table."""
        return np.kron(self.z_tables[z_kind], self.y_tables[y_kind])


def assemble(scaled: ScaledParams, spec: BasisSpec) -> SpectralProblem:
    """Build the spectral problem for the given scaled parameters and basis."""
    return SpectralProblem(
        z_tables={k: basis_mod.z_element_table(k, spec)
                  for k in basis_mod.Z_KINDS},
        y_tables={k: basis_mod.y_element_table(k, spec)
                  for k in basis_mod.Y_KINDS},
        spec=spec, scaled=scaled)


def _dense_hamiltonian(problem: SpectralProblem) -> np.ndarray:
    """The M x M Hamiltonian in the flat (s, p, n, k) ordering."""
    r_a, r_c = problem.scaled.r_a, problem.scaled.r_c
    beta = problem.scaled.beta
    product = problem._spatial
    z_spatial = problem.z_spatial

    h0 = -(0.5 * r_a) * (product("dz2", "1") + product("1", "dy2"))
    h0 += (problem.scaled.ab_ratio / (8.0 * r_a)) * product("quartic", "1")
    h0 -= problem.scaled.gamma * z_spatial
    if r_c > 0:
        h0 += (r_c * r_c / (8.0 * r_a)) * product("1", "y2")
        if beta > 0:
            h0 += (r_c * r_c * beta * beta / (2.0 * r_a)) * \
                product("z4", "1")
            h0 += (r_c * beta) * product("z2", "-idy")

    h1 = -(r_c * beta) * z_spatial      # sigma_x coupling
    h2 = -(0.5 * r_c) * problem.s_spatial       # sigma_z shift

    H = np.block([[h0 + h2, h1], [h1, h0 - h2]])
    # mirror the upper triangle so H = H^T holds exactly
    return np.triu(H) + np.triu(H, 1).T


def z_hamiltonian(scaled: ScaledParams, dz2: np.ndarray,
                  quartic: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The 1D double-well Hamiltonian -(r_a/2) d2/dz'2
    + ab_ratio/(8 r_a) (z'^2-1)^2 - gamma z' from its z-tables in one
    basis: the z-part of H0 and the whole 1D problem."""
    r_a = scaled.r_a
    return (-(0.5 * r_a) * dz2 + (scaled.ab_ratio / (8.0 * r_a)) * quartic
            - scaled.gamma * z)


def reduced_terms(problem: SpectralProblem, transform: np.ndarray):
    """Kronecker factors of the Hamiltonian in an orthonormal basis.

    ``transform`` (2N x r) orthonormalizes the z-basis, X^T S_z X = I.  In
    the basis y-ladder x spin x (X-directions), ordered (k, s, j) with j
    fastest, the reduced real symmetric Hamiltonian is

        h = I_L (x) d + y (x) I_b + ("-idy" table) (x) f,

    with b = 2r: ``d`` (b x b) holds the z-part of H0 per spin, the Zeeman
    shift and the sigma_x coupling, ``y`` (L x L) the y-part of H0, and
    ``f`` (b x b) the slanting-field factor I_spin (x) r_c beta X^T z'^2 X.
    Returns ``(d, y, f)``; ``f`` is None without the slanting field, when
    ``d`` is block diagonal in spin and h separates.
    """
    r_a, r_c = problem.scaled.r_a, problem.scaled.r_c
    beta = problem.scaled.beta
    tz, ty = problem.z_tables, problem.y_tables

    def z(kind: str) -> np.ndarray:
        t = transform.T @ tz[kind] @ transform
        return np.triu(t) + np.triu(t, 1).T

    z_moment = z("z")
    z_part = z_hamiltonian(problem.scaled, z("dz2"), z("quartic"), z_moment)
    y_part = -(0.5 * r_a) * ty["dy2"]
    slanting = r_c > 0 and beta > 0
    if r_c > 0:
        y_part += (r_c * r_c / (8.0 * r_a)) * ty["y2"]
        if slanting:
            z_part += (r_c * r_c * beta * beta / (2.0 * r_a)) * z("z4")
    eye = np.eye(len(z_part))
    h1 = -(r_c * beta) * z_moment       # sigma_x coupling
    h2 = -(0.5 * r_c) * eye             # sigma_z shift
    d = np.block([[z_part + h2, h1], [h1, z_part - h2]])
    f = np.kron(np.eye(2), (r_c * beta) * z("z2")) if slanting else None
    return d, y_part, f


def lower_band(d: np.ndarray, y: np.ndarray, t: np.ndarray,
               f: np.ndarray) -> np.ndarray:
    """h = I_L (x) d + y (x) I_b + t (x) f in LAPACK lower-band storage,
    ab[i - j, j] = h[i, j] for 0 <= i - j <= 2b, in the column-major
    layout LAPACK reads.

    ``y`` couples only the even offsets 0 and +-2 and ``t``, the "-idy"
    table, only +-1 (``basis.y_element_table``), so block column k of h
    holds the blocks d + y_kk I, t_(k+1,k) f and y_(k+2,k) I, and the
    lower bandwidth is 2b = 4r.  Column j = k b + c of the band holds row
    c + i of that stack at offset i.
    """
    L, b = len(y), len(d)
    width = min(2 * b, L * b - 1)
    row = np.arange(b)[:, None] + np.arange(width + 1)
    col = np.broadcast_to(np.arange(b)[:, None], row.shape)
    ab = np.zeros((L, b, width + 1))
    in_d = row < b
    ab[:, in_d] = d[row[in_d], col[in_d]]
    ab[:, :, 0] += y.diagonal()[:, None]
    in_f = (row >= b) & (row < 2 * b)
    ab[:L - 1, in_f] = t.diagonal(-1)[:, None] * f[row[in_f] - b, col[in_f]]
    if width == 2 * b:
        ab[:L - 2, :, 2 * b] = y.diagonal(-2)[:, None]
    return ab.reshape(L * b, width + 1).T


def to_basis(transform: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Columns of ``reduced_terms`` coordinates, in the (k, s, j) order, as
    coefficients in the flat (s, p, n, k) ordering."""
    v = vectors.reshape(-1, 2, transform.shape[1], vectors.shape[1])
    c = np.tensordot(transform, v, axes=(1, 2))     # (p n), k, s, column
    return c.transpose(2, 0, 1, 3).reshape(-1, vectors.shape[1])


def spin_block_forms(problem: SpectralProblem, c: np.ndarray,
                     z_kind: str) -> np.ndarray:
    """2 x 2 matrix <c_a| T (x) I_y |c_b> over the spin blocks a, b of
    one real flat (s, p, n, k) coefficient column ``c``, with T the z-table
    of ``z_kind``.

    The y-ladder is orthonormal, so a z-operator needs no y-table: each
    spin block of ``c`` is C_s (2N x L, z rows, y columns) by a plain
    reshape, and the form is vdot(C_a, T C_b).
    """
    C = c.reshape(2, -1, problem.spec.L)
    TC = problem.z_tables[z_kind] @ C
    return np.tensordot(C, TC, axes=([1, 2], [1, 2]))
