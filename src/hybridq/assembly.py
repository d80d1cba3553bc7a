"""Assembly of the spectral problem from Kronecker factors.

Every term of the scaled Hamiltonian, as ``ScaledParams.terms`` declares
it, is (spin factor) x (z-table) x (y-table): a 2 x 2 spin matrix, a
2N x 2N z-table and an L x L y-table.  In the nonorthogonal z-basis the
Zeeman term -(r_c/2) sigma_z x "1" x "1" carries the overlap pattern S_z.
The y-ladder chi_k = i^k exp(-i q y') phi_k (``basis``) makes every
y-table real, -i d/dy' included, so every factor and H are real.  The
overlap is I_spin x S_z x I_y, since the y-ladder is orthonormal.
The flat basis index follows the same order, (s, p, n, k) with k fastest
(``basis``), so every dense matrix is the ``np.kron`` of its factors.

``assemble`` only builds the factor tables, each read from the cache of
``basis``, which keys the z-tables by (eta, N) and the y-tables by (mu, L);
the overlap eigenpairs, the condition number and the drop of a redundant
z-overlap's near-null directions all belong to the solve.
``reduced_terms`` sums the terms into one real symmetric standard
problem, with the z-basis orthonormalized through the eigenpairs of S_z
(Loewdin canonical orthogonalization), and returns it whole, as the factors
(d, y, t, f) of three Kronecker terms in the (k, s, j) order: y-index k
slowest, then spin, then the r kept z-directions j.  It is block
pentadiagonal in k with blocks of size 2r, and ``lower_band`` writes it
from the factors straight into LAPACK lower-band storage of bandwidth 4r,
column-major; no dense M x M matrix is formed.  ``to_basis`` maps its
eigenvectors back: the z-transform, with k moved from slowest to fastest.

``spin_block_forms`` evaluates expectation values of z-operators, such as
<z'> and <sigma_x>, from one z-table and a coefficient column, which is
reshaped to one 2N x L block per spin.

The dense M x M matrices ``H`` and ``S`` (M = 4LN) and the 2LN x 2LN
per-spin-block ``s_spatial`` and ``z_spatial`` are built only on request,
by tests and the traced benchmark, as the dense reference; ``H`` sums the
same terms per spin block.  Its symmetry is exact by construction: every
1D table is mirrored from its upper triangle (``basis.mirrored``), and the
assembled matrix is mirrored once more.
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
    y "1" table is the identity.  The dense reference, ``s_spatial``,
    ``z_spatial``, ``H`` and ``S``, is built on first access and cached.
    Every array is real, every square one symmetric, and all are read-only.
    """

    z_tables: dict
    y_tables: dict
    spec: BasisSpec
    scaled: ScaledParams

    @property
    def size(self) -> int:
        return self.spec.size

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
        z_tables={k: basis_mod.z_element_table(k, spec.eta, spec.N)
                  for k in basis_mod.Z_KINDS},
        y_tables={k: basis_mod.y_element_table(k, spec.mu, spec.L)
                  for k in basis_mod.Y_KINDS},
        spec=spec, scaled=scaled)


def _dense_hamiltonian(problem: SpectralProblem) -> np.ndarray:
    """The M x M Hamiltonian in the flat (s, p, n, k) ordering."""
    blocks = _sum_by_key((spin, coef * problem._spatial(z_kind, y_kind))
                         for coef, z_kind, y_kind, spin
                         in problem.scaled.terms)
    return basis_mod.mirrored(_spin_matrix(blocks))     # H = H^T exactly


def _sum_by_key(pairs) -> dict:
    """The arrays of ``(key, array)`` pairs summed per key, in order, each
    from its first: a sum from zeros would turn -0, which LAPACK reads,
    into +0."""
    sums: dict = {}
    for key, array in pairs:
        sums[key] = sums[key] + array if key in sums else array
    return sums


def _spin_matrix(blocks: dict) -> np.ndarray:
    """[[A + C, B], [B, A - C]] from the sums A, B, C of the terms with
    spin factor "1", "x" and "z"; a factor with no term is zero."""
    a, zero = blocks["1"], np.zeros_like(blocks["1"])
    b, c = blocks.get("x", zero), blocks.get("z", zero)
    return np.block([[a + c, b], [b, a - c]])


def reduced_terms(problem: SpectralProblem, transform: np.ndarray):
    """The Hamiltonian in an orthonormal basis, whole: ``(d, y, t, f)``.

    ``transform`` (2N x r) orthonormalizes the z-basis, X^T S_z X = I.  In
    the basis y-ladder x spin x (X-directions), ordered (k, s, j) with j
    fastest, the reduced real symmetric Hamiltonian is

        h = I_L (x) d + y (x) I_b + t (x) f,

    with b = 2r, summed from ``ScaledParams.terms``: a term with y kind
    "1" goes to ``d`` (b x b), in the block of its spin factor, one with
    "dy2" or "y2" (z kind "1") to ``y`` (L x L), and one with "-idy" to
    ``f`` = I_spin (x) (its z part), with ``t`` its y-table.  Each z kind T
    becomes X^T T X, so "1" becomes I.  Without the slanting field ``t``
    and ``f`` are None, ``d`` is block diagonal in spin and h separates.
    """
    terms, t_kind = problem.scaled.terms, "-idy"
    z = {kind: basis_mod.mirrored(transform.T @ problem.z_tables[kind]
                                  @ transform)
         for kind in {term[1] for term in terms} - {"1"}}
    z["1"] = np.eye(transform.shape[1])
    parts = _sum_by_key(
        (spin, coef * z[z_kind]) if y_kind == "1"
        else ("f", coef * z[z_kind]) if y_kind == t_kind
        else ("y", coef * problem.y_tables[y_kind])
        for coef, z_kind, y_kind, spin in terms)
    f = np.kron(np.eye(2), parts["f"]) if "f" in parts else None
    t = problem.y_tables[t_kind] if "f" in parts else None
    return _spin_matrix(parts), parts["y"], t, f


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
