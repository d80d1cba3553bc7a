"""Independent numerical oracles used by the test suite.

Nothing here shares code with the implementation paths it checks:

* ``quad_element_z`` / ``quad_element_y``: 200-point Gauss-Hermite
  quadrature of the basis-function integrals, evaluating Hermite
  polynomials pointwise (no ladder algebra, no overlap recurrences).
  Nodes, weights, normalization and the weighted sums are all in extended
  precision so the oracle itself stays accurate to ~1e-13 on the largest
  elements.
* ``fraction_displaced_overlap``: the displaced-oscillator overlap table in
  ``fractions.Fraction`` arithmetic, the reference for the integer
  recurrence of ``basis._displaced_overlap_cached``; both round each entry
  once, so they must agree bit for bit.
* ``dense_state_observables``: <z'>, <sigma_x> and the norm check of one
  eigenstate from the dense per-spin-block matrices ``s_spatial`` and
  ``z_spatial``, the reference for ``observables.state_report``, which
  reads the 2N x 2N z-tables instead.
* ``kept_subspace_energies``: the dense pencil (V^H H V, V^H S V) on the
  subspace V = I_spin x X x I_y that ``solver.solve`` keeps, solved by
  ``scipy.linalg.eigh``, the reference for the Kronecker-factor reduction
  of a redundant basis.
* ``fd_levels_1d``: dense finite-difference spectrum of the 1D quartic
  well on a uniform grid, Richardson-extrapolated.
* ``fd_levels_2d``: sparse finite-difference spectrum of the full scaled
  two-component (spin) Hamiltonian, Richardson-extrapolated.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import eigh_tridiagonal


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
    """Quadrature value of <phi_k| kind |phi_l> over y'."""
    z_kind = {"1": "1", "y2": "z2", "dy": "dz", "dy2": "dz2"}[kind]
    return _quad_single_center(z_kind, k, 0.0, l, 0.0, mu)


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

    V = I_spin x X x I_y in the flat (s, p, k, n) ordering, with X the
    eigenvectors of S_z above ``floor`` times its largest eigenvalue,
    unscaled: the subspace the solve keeps, without its Kronecker-factor
    reduction.
    """
    L, N = problem.spec.L, problem.spec.N
    s_vals, s_vecs = np.linalg.eigh(problem.z_tables["1"])
    X = s_vecs[:, s_vals > floor * s_vals[-1]]
    r = X.shape[1]
    W = np.einsum("pnj,kl->pknjl", X.reshape(2, N, r), np.eye(L))
    V = np.kron(np.eye(2), W.reshape(2 * L * N, r * L))
    return scipy.linalg.eigh(V.T @ problem.H @ V, V.T @ problem.S @ V,
                             eigvals_only=True)


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


def _fd_levels_2d_once(scaled, nz: int, ny: int, z_span: float,
                       y_span: float, k: int) -> np.ndarray:
    """Two-component finite-difference spectrum of the scaled Hamiltonian."""
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
    y2 = scipy.sparse.diags(y * y)

    h_orb = (-0.5 * r_a) * (scipy.sparse.kron(lap(nz, hz), eye_y)
                            + scipy.sparse.kron(eye_z, lap(ny, hy)))
    h_orb = h_orb + scipy.sparse.kron(diag_z, eye_y)
    if r_c > 0:
        h_orb = h_orb + (r_c * r_c / (8.0 * r_a)) \
            * scipy.sparse.kron(eye_z, y2)
        if beta > 0:
            h_orb = h_orb - 1j * r_c * beta \
                * scipy.sparse.kron(z2, d1(ny, hy))

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
    vals = scipy.sparse.linalg.eigsh(full, k=k, sigma=0.0, which="LM",
                                     return_eigenvectors=False)
    return np.sort(vals)


def fd_levels_2d(scaled, k: int = 4, nz: int = 121, ny: int = 121,
                 z_span: float = 2.4, y_span: float = 8.0) -> np.ndarray:
    """Lowest ``k`` 2D two-component levels, Richardson-extrapolated."""
    coarse = _fd_levels_2d_once(scaled, nz, ny, z_span, y_span, k)
    fine = _fd_levels_2d_once(scaled, 2 * nz - 1, 2 * ny - 1, z_span,
                              y_span, k)
    return (4.0 * fine - coarse) / 3.0
