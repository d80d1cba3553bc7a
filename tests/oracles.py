"""Independent numerical oracles used by the test suite.

Nothing here shares code with the implementation paths it checks:

* ``quad_element_z`` / ``quad_element_y``: 200-point Gauss-Hermite
  quadrature of the basis-function integrals, evaluating Hermite
  polynomials pointwise (no ladder algebra, no overlap recurrences).
  Nodes, weights, normalization and the weighted sums are all in extended
  precision so the oracle itself stays accurate to ~1e-13 on the largest
  elements.  ``quad_element_z`` also takes "z4", z'^4, which no table
  of ``basis`` holds.  ``quad_element_y`` works in the paper's ladder phi_k;
  ``quad_element_chi`` multiplies it by the complex phase of the ladder
  chi_k = i^k phi_k that ``basis`` tabulates.
* ``fraction_displaced_overlap``: the displaced-oscillator overlap table in
  ``fractions.Fraction`` arithmetic, the reference for the integer
  recurrence of ``basis._displaced_overlap``; both round each entry
  once, so they must agree bit for bit.
* ``reference_z_element_table``: the 2N x 2N z-table built element block
  by element block, four single-well blocks per kind, each cross block the
  full padded product of a ``fraction_displaced_overlap`` table and the
  ket's operator, the reference for ``basis.z_element_table``.  It builds
  each well's band operator on its own (``_z_operator``) from the ladder
  matrices of ``basis``, shares the padding with it, and must agree with
  it bit for bit.
* ``dense_state_observables``: <z'>, <sigma_x> and the norm check of one
  eigenstate from the dense per-spin-block matrices ``s_spatial`` and
  ``z_spatial``, the reference for ``observables.state_report``, which
  reads the 2N x 2N z-tables instead.
* ``orthonormal_hamiltonian``: the dense reduced Hamiltonian, built with
  ``np.kron`` from the same reduced factors, its terms written out by
  hand, the reference for the band storage and the banded solve of
  ``solver.solve``.
* ``PaperLadderParams``: ``ScaledParams`` whose terms are the paper's
  Hamiltonian in the y-ladder i^k phi_k, without the gauge phase of
  ``basis``, the reference that the gauge moves no converged level.
* ``kept_subspace_energies``: the dense pencil (V^H H V, V^H S V) on the
  subspace V = I_spin x X x I_y that ``solver.solve`` keeps, solved by
  ``scipy.linalg.eigh``, the reference for the Kronecker-factor reduction
  of a redundant basis.
* ``fd_levels_1d``: dense finite-difference spectrum of the 1D quartic
  well on a uniform grid, Richardson-extrapolated.
* ``fd_levels_2d``: sparse finite-difference spectrum of the full scaled
  two-component (spin) Hamiltonian, Richardson-extrapolated; real
  symmetric in the even/odd y-grid basis of ``_parity_fold``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import eigh_tridiagonal

from hybridq import basis
from hybridq.errors import DegenerateBasisError
from hybridq.model import ScaledParams


def fraction_displaced_overlap(delta: float, size: int) -> np.ndarray:
    """Overlaps X[n, m] = <u_n(w), u_m(w + delta)> of displaced oscillators,
    exact up to one final rounding; the array is read-only.

    Writing X[n, m] = exp(-delta^2/4) Q[n, m] / sqrt(2^(n+m) n! m!), the
    ladder recurrences reduce to the division-free form

        Q[0, m] = delta^m,   Q[n+1, m] = 2m Q[n, m-1] - delta Q[n, m],

    which is evaluated in exact rational arithmetic (delta is a dyadic
    rational as a float).  The naive float recurrence cancels catastrophically
    for well-separated centers; this version has no rounding until each entry
    is converted once at the end.
    """
    X = np.zeros((size, size))
    arg = -0.25 * delta * delta
    if arg < -350.0:
        # every kept entry is below ~1e-100; the wells are fully decoupled
        X.setflags(write=False)
        return X
    d = Fraction(delta)
    q_rows = [[Fraction(1)] + [Fraction(0)] * (size - 1)]
    for m in range(size - 1):
        q_rows[0][m + 1] = d * q_rows[0][m]
    for n in range(size - 1):
        prev = q_rows[n]
        row = [-d * prev[0]] + [
            2 * m * prev[m - 1] - d * prev[m] for m in range(1, size)
        ]
        q_rows.append(row)

    pref = math.exp(arg)
    fact = [1]
    for j in range(1, size):
        fact.append(fact[-1] * j)
    for n in range(size):
        for m in range(size):
            q = q_rows[n][m]
            if q == 0:
                continue
            norm_sq = (1 << (n + m)) * fact[n] * fact[m]
            # sqrt as a dyadic rational with 53 extra bits: correctly rounded
            root = Fraction(math.isqrt(norm_sq << 106), 1 << 53)
            X[n, m] = float(q / root) * pref
    X.setflags(write=False)
    return X


def _z_operator(kind: str, eta: float, center: float,
                size: int) -> np.ndarray:
    """Band matrix of a z-direction operator in the oscillator basis at
    ``center``, built for one center at a time."""
    eye = np.eye(size)
    if kind == "1":
        return eye
    z = center * eye + basis._ladder_position(size) / eta
    if kind == "z":
        return z
    if kind == "z2":
        return z @ z
    if kind == "dz2":
        d = eta * basis._ladder_derivative(size)
        return d @ d
    if kind == "quartic":
        q = z @ z - eye
        return q @ q
    raise ValueError(f"unsupported z operator kind: {kind!r}")


def _single_well_block(kind: str, eta: float, c_bra: float, c_ket: float,
                       count: int) -> np.ndarray:
    """<psi_n at c_bra | kind | psi_m at c_ket> for n, m < count, from the
    full padded product in extended precision."""
    size = count + basis._PAD
    op = _z_operator(kind, eta, c_ket, size)
    if c_bra == c_ket:
        return op[:count, :count].copy()
    table = fraction_displaced_overlap(eta * (c_bra - c_ket), size)
    prod = table.astype(np.longdouble) @ op.astype(np.longdouble)
    return prod[:count, :count].astype(float)


@np.errstate(over="ignore", invalid="ignore")
def reference_z_element_table(kind: str, eta: float, N: int) -> np.ndarray:
    """The 2N x 2N table of <psi_n^p| kind |psi_m^q>, p-major, as
    ``basis.z_element_table`` defines it, including its
    ``DegenerateBasisError`` messages."""
    ee = _single_well_block(kind, eta, +1.0, +1.0, N)
    eo = _single_well_block(kind, eta, +1.0, -1.0, N)
    oe = _single_well_block(kind, eta, -1.0, +1.0, N)
    oo = _single_well_block(kind, eta, -1.0, -1.0, N)

    cross = np.diagonal(fraction_displaced_overlap(2.0 * eta, N + basis._PAD))
    args = 2.0 * (1.0 + np.outer([1.0, -1.0], cross[:N]))
    bad = np.argwhere(args <= 0.0)
    if len(bad):
        i, n = bad[0]
        raise DegenerateBasisError(
            f"well combination (n={n}, p={1 - 2 * i:+d}) has no "
            "normalization; the two well functions are (numerically) "
            "identical")
    c = np.array([[arg ** -0.5 for arg in row] for row in args.tolist()])

    table = np.empty((2 * N, 2 * N))
    for i, p in enumerate((+1, -1)):
        for j, q in enumerate((+1, -1)):
            block = ee + q * eo + p * oe + (p * q) * oo
            table[i * N:(i + 1) * N, j * N:(j + 1) * N] = \
                np.outer(c[i], c[j]) * block
    table = np.triu(table) + np.triu(table, 1).T
    if not np.isfinite(table).all():
        raise DegenerateBasisError(
            f"the {kind!r} table overflows at basis width eta = {eta:g}")
    return table


def _orthonormal_hermite(n: int, x: np.ndarray):
    """p_{n-1}(x), p_n(x) and sum_{k<n} p_k(x)^2 of the Hermite polynomials
    orthonormal under exp(-x^2), by their three-term recurrence."""
    p_prev = np.zeros_like(x)
    p = np.full_like(x, np.longdouble(math.pi) ** np.longdouble(-0.25))
    total = np.zeros_like(x)
    for k in range(n):
        total += p * p
        p, p_prev = (np.sqrt(np.longdouble(2) / (k + 1)) * x * p
                     - np.sqrt(np.longdouble(k) / (k + 1)) * p_prev), p
    return p_prev, p, total


def _gauss_hermite(n: int):
    """Gauss-Hermite nodes and weights in extended precision.

    numpy's float64 rule is refined by Newton steps on p_n, and the weights
    are 1 / sum_{k<n} p_k^2 at the refined nodes; the float64 weights alone
    are off by up to ~1e-13 relative, which shows on the largest elements.
    """
    x = hermgauss(n)[0].astype(np.longdouble)
    for _ in range(4):
        p_nm1, p_n, _ = _orthonormal_hermite(n, x)
        x = x - p_n / (np.sqrt(np.longdouble(2 * n)) * p_nm1)
    return x, 1 / _orthonormal_hermite(n, x)[2]


_NODES_LD, _WEIGHTS_LD = _gauss_hermite(200)


def _hermite_values(n: int, x: np.ndarray) -> np.ndarray:
    """H_n at the nodes by direct recurrence (longdouble)."""
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev
    h = 2.0 * x
    for j in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * j * h_prev, h
    return h


def _ket_polynomial(derivative: int, m: int, x: np.ndarray) -> np.ndarray:
    """Polynomial factor of d^j/dx^j [H_m(x) exp(-x^2/2)]."""
    h_m = _hermite_values(m, x)
    if derivative == 0:
        return h_m
    h_m1 = _hermite_values(m - 1, x) if m >= 1 else np.zeros_like(x)
    if derivative == 1:
        return 2.0 * m * h_m1 - x * h_m
    h_m2 = _hermite_values(m - 2, x) if m >= 2 else np.zeros_like(x)
    return (4.0 * m * (m - 1) * h_m2 - 4.0 * m * x * h_m1
            + (x * x - 1.0) * h_m)


_Z_POLY = {
    "1": lambda z: np.ones_like(z),
    "z": lambda z: z,
    "z2": lambda z: z * z,
    "z4": lambda z: z ** 4,
    "quartic": lambda z: (z * z - 1.0) ** 2,
}


def _norm(n: int, eta: float) -> np.longdouble:
    """(eta / (sqrt(pi) 2^n n!))^(1/2) in extended precision; 2^n n! is an
    exact integer, so no float64 log-sum rounding enters the oracle."""
    return np.sqrt(np.longdouble(eta) / (np.sqrt(np.longdouble(math.pi))
                                         * np.longdouble(2 ** n
                                                         * math.factorial(n))))


def _quad_single_center(kind: str, n: int, c_bra: float, m: int,
                        c_ket: float, eta: float) -> float:
    """<H_n Gaussian at c_bra | kind | H_m Gaussian at c_ket>, single wells."""
    half_shift = 0.5 * eta * (c_bra - c_ket)
    z = 0.5 * (c_bra + c_ket) + _NODES_LD / eta
    x_bra = _NODES_LD - half_shift
    x_ket = _NODES_LD + half_shift
    if kind in _Z_POLY:
        poly = (_hermite_values(n, x_bra) * _Z_POLY[kind](z)
                * _ket_polynomial(0, m, x_ket))
    elif kind == "dz":
        poly = _hermite_values(n, x_bra) * eta \
            * _ket_polynomial(1, m, x_ket)
    elif kind == "dz2":
        poly = _hermite_values(n, x_bra) * eta * eta \
            * _ket_polynomial(2, m, x_ket)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    prefactor = _norm(n, eta) * _norm(m, eta) \
        * np.exp(-np.longdouble(half_shift) ** 2) / np.longdouble(eta)
    return float(prefactor * (_WEIGHTS_LD @ poly))


def quad_element_z(kind: str, n: int, p: int, m: int, q: int,
                   eta: float) -> float:
    """Quadrature value of <psi_n^p| kind |psi_m^q> over z'."""
    c_n = (2.0 * (1.0 + p * _quad_single_center("1", n, 1.0, n, -1.0,
                                                eta))) ** -0.5
    c_m = (2.0 * (1.0 + q * _quad_single_center("1", m, 1.0, m, -1.0,
                                                eta))) ** -0.5
    total = 0.0
    for c_bra, w_bra in ((1.0, 1.0), (-1.0, p)):
        for c_ket, w_ket in ((1.0, 1.0), (-1.0, q)):
            total += w_bra * w_ket * _quad_single_center(
                kind, n, c_bra, m, c_ket, eta)
    return c_n * c_m * total


def quad_element_y(kind: str, k: int, l: int, mu: float) -> float:
    """Quadrature value of <phi_k| kind |phi_l> over y'; "dy" is d/dy'."""
    z_kind = {"1": "1", "y2": "z2", "dy": "dz", "dy2": "dz2"}[kind]
    return _quad_single_center(z_kind, k, 0.0, l, 0.0, mu)


def quad_element_chi(kind: str, k: int, l: int, mu: float) -> complex:
    """Quadrature value of <chi_k| kind |chi_l> over y', chi_k = i^k phi_k,
    for the kinds of ``basis.Y_KINDS``; "-idy" is -i d/dy'.

    It is the phi_k value times the complex phase i^(l-k), and times -i
    for "-idy", so a wrong sign or a nonzero imaginary part in the real
    table of ``basis`` shows as a difference.
    """
    phase = (1, 1j, -1, -1j)[(l - k) % 4]
    if kind == "-idy":
        kind, phase = "dy", -1j * phase
    return phase * quad_element_y(kind, k, l, mu)


# ----------------------------------------------------------------------
# dense expectation values
# ----------------------------------------------------------------------

def _split(problem, c: np.ndarray):
    ms = problem.s_spatial.shape[0]
    return c[:ms], c[ms:]


def _real_form(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Re(x^dagger a y) for a real matrix ``a``, in real arithmetic."""
    return x.real @ a @ y.real + x.imag @ a @ y.imag


def dense_state_observables(sol, j: int, problem) -> tuple[float, ...]:
    """(<z'>, <sigma_x>, <state|S|state>) of eigenstate ``j`` from the
    dense 2LN x 2LN spin-block matrices ``s_spatial`` and ``z_spatial``."""
    up, dn = _split(problem, sol.coefficients[:, j])
    s, z = problem.s_spatial, problem.z_spatial
    z_mean = _real_form(z, up, up) + _real_form(z, dn, dn)
    sx_mean = 2.0 * _real_form(s, up, dn)
    norm = _real_form(s, up, up) + _real_form(s, dn, dn)
    return float(z_mean), float(sx_mean), float(norm)


def kept_subspace_energies(problem, floor: float) -> np.ndarray:
    """Ascending eigenvalues of (V^H H V, V^H S V) from the dense H and S.

    V = I_spin x X x I_y in the flat (s, p, n, k) ordering, with X the
    eigenvectors of S_z above ``floor`` times its largest eigenvalue,
    unscaled: the subspace the solve keeps, without its Kronecker-factor
    reduction.
    """
    s_vals, s_vecs = np.linalg.eigh(problem.z_tables["1"])
    X = s_vecs[:, s_vals > floor * s_vals[-1]]
    V = np.kron(np.eye(2), np.kron(X, np.eye(problem.spec.L)))
    return scipy.linalg.eigh(V.T @ problem.H @ V, V.T @ problem.S @ V,
                             eigvals_only=True)


def orthonormal_hamiltonian(problem, transform: np.ndarray) -> np.ndarray:
    """The dense reduced Hamiltonian h of ``solver.solve``.

    ``transform`` (2N x r) orthonormalizes the z-basis, X^T S_z X = I.
    The basis is spin x (X-directions) x (y-ladder), ordered (s, j, k)
    with k fastest, so every term is one ``np.kron`` of factors.
    ``orthonormal_order`` maps it to the (k, s, j) order of the band.
    """
    scaled, tz, ty = problem.scaled, problem.z_tables, problem.y_tables
    r_a, r_c, beta = scaled.r_a, scaled.r_c, scaled.beta

    def z(kind: str) -> np.ndarray:
        t = transform.T @ tz[kind] @ transform
        return np.triu(t) + np.triu(t, 1).T

    z_moment = z("z")
    z_part = (-(0.5 * r_a) * z("dz2")
              + (scaled.ab_ratio / (8.0 * r_a)) * z("quartic")
              - scaled.gamma * z_moment)
    y_part = -(0.5 * r_a) * ty["dy2"]
    if r_c > 0:
        y_part += (r_c * r_c / (8.0 * r_a)) * ty["y2"]
        if beta > 0:
            # (r_a/2) (-i d/dy' + r_c beta (z'^2 - 1) / r_a)^2, less its
            # kinetic part: the slanting field about the wells
            z_part += (r_c * r_c * beta * beta / (2.0 * r_a)) * z("quartic")
    eye_z, eye_y = np.eye(len(z_part)), np.eye(len(y_part))
    h0 = np.kron(z_part, eye_y) + np.kron(eye_z, y_part)
    if r_c > 0 and beta > 0:
        h0 += (r_c * beta) * np.kron(z("z2") - eye_z, ty["-idy"])

    h1 = -(r_c * beta) * np.kron(z_moment, eye_y)
    h2 = -(0.5 * r_c) * np.eye(len(h0))
    return np.block([[h0 + h2, h1], [h1, h0 - h2]])


@dataclass(frozen=True)
class PaperLadderParams(ScaledParams):
    """``ScaledParams`` whose ``terms`` are the paper's Hamiltonian in the
    y-ladder i^k phi_k, gauge origin z' = 0:

        r_c beta z'^2 (-i d/dy') + r_c^2 beta^2/(2 r_a) z'^4

    in place of the two gauge-adapted slanting terms.  No z-table holds
    z'^4, so it is rebuilt as (z'^2 - 1)^2 + 2 z'^2 - 1.
    """

    @property
    def terms(self) -> tuple:
        r_a, r_c, beta = self.r_a, self.r_c, self.beta
        c4 = r_c * r_c * beta * beta / (2.0 * r_a)
        terms = [(-(0.5 * r_a), "dz2", "1", "1"),
                 (-(0.5 * r_a), "1", "dy2", "1"),
                 (self.ab_ratio / (8.0 * r_a), "quartic", "1", "1"),
                 (-self.gamma, "z", "1", "1")]
        if r_c > 0:
            terms.append((r_c * r_c / (8.0 * r_a), "1", "y2", "1"))
        if r_c > 0 and beta > 0:
            terms += [(c4, "quartic", "1", "1"), (2.0 * c4, "z2", "1", "1"),
                      (-c4, "1", "1", "1"),
                      (r_c * beta, "z2", "-idy", "1"),
                      (-(r_c * beta), "z", "1", "x")]
        if r_c > 0:
            terms.append((-(0.5 * r_c), "1", "1", "z"))
        return tuple(terms)

    @classmethod
    def of(cls, scaled: ScaledParams) -> "PaperLadderParams":
        return cls(**dataclasses.asdict(scaled))


def orthonormal_order(r: int, L: int) -> np.ndarray:
    """Permutation p with h[p][:, p] in the (k, s, j) order of the band
    for h in the (s, j, k) order of ``orthonormal_hamiltonian``."""
    return np.arange(2 * r * L).reshape(2, r, L).transpose(2, 0, 1).ravel()


# ----------------------------------------------------------------------
# finite-difference references
# ----------------------------------------------------------------------

def _potential_1d(zp: np.ndarray, r_a: float, ab_ratio: float,
                  gamma: float) -> np.ndarray:
    return ab_ratio / (8.0 * r_a) * (zp * zp - 1.0) ** 2 - gamma * zp


def _fd_levels_1d_once(r_a: float, ab_ratio: float, gamma: float,
                       n_points: int, span: float, k: int) -> np.ndarray:
    z = np.linspace(-span, span, n_points)
    h = z[1] - z[0]
    diag = r_a / h ** 2 + _potential_1d(z, r_a, ab_ratio, gamma)
    off = np.full(n_points - 1, -0.5 * r_a / h ** 2)
    vals = eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, k - 1),
                            eigvals_only=True)
    return vals


def fd_levels_1d(r_a: float, ab_ratio: float, gamma: float, k: int = 4,
                 n_points: int = 4000, span: float = 3.0) -> np.ndarray:
    """Lowest ``k`` 1D levels (units hw0), Richardson-extrapolated.

    Uniform grid, 3-point Laplacian; the h^2 error term cancels between
    n and 2n points.
    """
    coarse = _fd_levels_1d_once(r_a, ab_ratio, gamma, n_points, span, k)
    fine = _fd_levels_1d_once(r_a, ab_ratio, gamma, 2 * n_points, span, k)
    return (4.0 * fine - coarse) / 3.0


def _parity_fold(n: int):
    """Orthogonal Q (n x n, n odd) whose columns are the even grid vectors
    (delta_y + delta_-y)/sqrt 2 and delta_0, then the odd ones
    (delta_y - delta_-y)/sqrt 2, on a grid symmetric about y = 0; and the
    signature J, +1 on the even and -1 on the odd columns."""
    c = n // 2
    pair = np.arange(c)
    rows = np.concatenate([pair, pair[::-1] + c + 1, [c], pair,
                           pair[::-1] + c + 1])
    cols = np.concatenate([pair, pair, [c], pair + c + 1, pair + c + 1])
    half = np.sqrt(0.5)
    vals = np.concatenate([np.full(2 * c, half), [1.0], np.full(c, half),
                           np.full(c, -half)])
    fold = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    sign = scipy.sparse.diags(np.where(np.arange(n) <= c, 1.0, -1.0))
    return fold, sign


def _fd_levels_2d_once(scaled, nz: int, ny: int, z_span: float,
                       y_span: float, k: int, sigma: float) -> np.ndarray:
    """Lowest ``k`` levels of the two-component finite-difference
    Hamiltonian, by shift-invert about ``sigma``, which must lie below them.

    The grid operator is complex only through -i r_c beta z'^2 d/dy'.
    Reflecting y' with complex conjugation is an antiunitary symmetry of
    it that squares to +1, so in the basis (delta_y + delta_-y)/sqrt 2,
    i (delta_y - delta_-y)/sqrt 2 of the symmetric y-grid it is real
    symmetric: with U = [E, i O] from ``_parity_fold``, each y-operator X
    that commutes with the reflection is Q^T X Q, and the central
    difference D, which anticommutes with it, gives U^H (-i D) U =
    J Q^T D Q.
    """
    z = np.linspace(-z_span, z_span, nz)
    y = np.linspace(-y_span, y_span, ny)
    hz = z[1] - z[0]
    hy = y[1] - y[0]
    r_a, r_c, beta = scaled.r_a, scaled.r_c, scaled.beta

    def lap(n, h):
        main = np.full(n, -2.0 / h ** 2)
        off = np.full(n - 1, 1.0 / h ** 2)
        return scipy.sparse.diags([off, main, off], [-1, 0, 1])

    def d1(n, h):
        off = np.full(n - 1, 0.5 / h)
        return scipy.sparse.diags([-off, off], [-1, 1])

    eye_z = scipy.sparse.identity(nz)
    eye_y = scipy.sparse.identity(ny)
    v_z = _potential_1d(z, r_a, scaled.ab_ratio, scaled.gamma)
    if r_c > 0:
        v_z = v_z + (r_c * r_c * beta * beta / (2.0 * r_a)) * z ** 4
    diag_z = scipy.sparse.diags(v_z)
    z2 = scipy.sparse.diags(z * z)
    fold, sign = _parity_fold(ny)
    lap_y = fold.T @ lap(ny, hy) @ fold
    y2 = fold.T @ scipy.sparse.diags(y * y) @ fold
    idy = sign @ fold.T @ d1(ny, hy) @ fold       # -i d/dy'

    h_orb = (-0.5 * r_a) * (scipy.sparse.kron(lap(nz, hz), eye_y)
                            + scipy.sparse.kron(eye_z, lap_y))
    h_orb = h_orb + scipy.sparse.kron(diag_z, eye_y)
    if r_c > 0:
        h_orb = h_orb + (r_c * r_c / (8.0 * r_a)) \
            * scipy.sparse.kron(eye_z, y2)
        if beta > 0:
            h_orb = h_orb + r_c * beta * scipy.sparse.kron(z2, idy)

    sz = scipy.sparse.diags([1.0, -1.0])
    sx = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    eye_s = scipy.sparse.identity(2)
    full = scipy.sparse.kron(eye_s, h_orb)
    full = full - (0.5 * r_c) * scipy.sparse.kron(
        sz, scipy.sparse.identity(nz * ny))
    if beta > 0:
        z_diag = scipy.sparse.kron(scipy.sparse.diags(z), eye_y)
        full = full - (r_c * beta) * scipy.sparse.kron(sx, z_diag)

    full = full.tocsc()
    # sigma lies below every level, so full - sigma I is positive definite:
    # a symmetric ordering with diagonal pivots fills in less than SuperLU's
    # default COLAMD with partial pivoting
    shifted = full - sigma * scipy.sparse.eye(full.shape[0])
    lu = scipy.sparse.linalg.splu(shifted.tocsc(),
                                  permc_spec="MMD_AT_PLUS_A",
                                  diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True})
    inverse = scipy.sparse.linalg.LinearOperator(full.shape, matvec=lu.solve,
                                                 dtype=full.dtype)
    # a fixed start vector: from ARPACK's random one the levels differ by
    # up to 6e-16 between runs
    start = np.random.default_rng(0).standard_normal(full.shape[0])
    vals = scipy.sparse.linalg.eigsh(full, k=k, sigma=sigma, which="LM",
                                     OPinv=inverse, v0=start,
                                     return_eigenvectors=False)
    return np.sort(vals)


def fd_levels_2d(scaled, k: int = 4, nz: int = 121, ny: int = 121,
                 z_span: float = 2.4, y_span: float = 8.0) -> np.ndarray:
    """Lowest ``k`` 2D two-component levels, Richardson-extrapolated.

    The fine grid's shift sits just below the coarse grid's lowest level,
    which the three-point Laplacian places below the fine one: there
    ARPACK needs about a quarter fewer shift-invert solves than at 0.  The
    shift is a multiple of 1/64, below the diagonal entries, whose ulps are
    far finer, so subtracting it from the diagonal is exact and moves no
    level by a rounding.
    """
    coarse = _fd_levels_2d_once(scaled, nz, ny, z_span, y_span, k, 0.0)
    sigma = (math.ceil(64.0 * coarse[0]) - 1.0) / 64.0
    fine = _fd_levels_2d_once(scaled, 2 * nz - 1, 2 * ny - 1, z_span,
                              y_span, k, sigma)
    return (4.0 * fine - coarse) / 3.0
