"""Spin-orbital basis and exact one-dimensional matrix elements.

The spatial basis is a product of harmonic-oscillator-like functions:

* along y': ``chi_k(y') = i^k phi_k(y')``, k = 0..L-1, with
  ``phi_k(y') = N_k H_k(mu y') exp(-mu^2 y'^2 / 2)`` the orthonormal
  oscillator ladder centered at the origin.  The phase i^k makes every
  y-table real, the one of the Hermitian operator -i d/dy' included, so
  the whole Hamiltonian is real symmetric;
* along z': even/odd combinations of single-well functions centered at the
  two potential minima z' = +1 and z' = -1,

  ``psi_n^p(z') = C_n^p (psi_n^{+}(z') + p * psi_n^{-}(z'))``,  p = +1/-1,

  where ``psi_n^{+-}(z') = N_n H_n(eta (z' -+ 1)) exp(-eta^2 (z' -+ 1)^2 / 2)``
  are unit-normalized shifted oscillator functions, n = 0..N-1.  The
  norms C_n^p are computed inside ``z_element_table``.

Each spatial function carries one of the two eigenstates of sigma_z, for a
total dimension M = 4*L*N.  The flat ordering is lexicographic in
(s, p, n, k), with +1 preceding -1 for the spin s and the parity p: the
flat index is ``np.ravel_multi_index((s_idx, p_idx, n, k), (2, 2, N, L))``
with label index 0 for +1 and 1 for -1.  This is the Kronecker order
spin x z x y, so an operator (spin factor) x (2N x 2N z-table) x (L x L
y-table) is their ``np.kron`` product.

All 1D integrals are evaluated in closed form.  Operators (powers of the
coordinate, derivatives, the quartic well shape) are band matrices in the
ladder-operator representation of the ket's own oscillator basis; displaced
bra/ket pairs are coupled through the displaced-oscillator overlap table,
which obeys a stable two-term recurrence.  No quadrature is used anywhere in
this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateBasisError

# The 1D operator kinds the Hamiltonian is built from.  The z kinds act on
# the double-well direction, the y kinds on the transverse oscillator
# direction; "-idy" is the operator -i d/dy'.
Z_KINDS = ("1", "z", "z2", "z4", "quartic", "dz2")
Y_KINDS = ("1", "y2", "-idy", "dy2")

# Band growth of the widest z operator is 4 (z^4 and (z^2-1)^2); intermediate
# matrix products need a little extra headroom so truncation never touches
# kept rows.
_PAD = 8


@dataclass(frozen=True)
class BasisSpec:
    """Nonlinear parameters and counts of the 4*L*N variational basis."""

    eta: float   # Gaussian width parameter of the z-functions (scaled units)
    mu: float    # Gaussian width parameter of the y-functions (scaled units)
    L: int       # number of y-functions chi_k
    N: int       # number of z-functions per parity psi_n^p

    def __post_init__(self) -> None:
        if self.eta <= 0 or self.mu <= 0:
            raise ValueError("eta and mu must be positive")
        if self.L < 1 or self.N < 1:
            raise ValueError("L and N must be at least 1")

    @property
    def size(self) -> int:
        """Total basis dimension M = 4*L*N."""
        return 4 * self.L * self.N


# ----------------------------------------------------------------------
# Ladder-operator machinery in the dimensionless oscillator basis u_n(w),
# u_n orthonormal, w the oscillator's own coordinate.
# ----------------------------------------------------------------------

def _ladder_position(size: int) -> np.ndarray:
    """Matrix of multiplication by w: w u_m = sqrt((m+1)/2) u_{m+1} + sqrt(m/2) u_{m-1}."""
    d = np.sqrt(0.5 * np.arange(1, size))
    return np.diag(d, 1) + np.diag(d, -1)


def _ladder_derivative(size: int) -> np.ndarray:
    """Matrix of d/dw: u_m' = sqrt(m/2) u_{m-1} - sqrt((m+1)/2) u_{m+1}."""
    d = np.sqrt(0.5 * np.arange(1, size))
    return np.diag(d, 1) - np.diag(d, -1)


@lru_cache(maxsize=8)
def _norm_roots(size: int) -> tuple[tuple[int, ...], ...]:
    """R[n][m] = floor(2^53 sqrt(2^(n+m) n! m!)) for n, m < size.

    The oscillator norms with 53 fractional bits, as integers.  They do not
    depend on the displacement, so they are cached by size; R is symmetric.
    """
    fact = [1]
    for j in range(1, size):
        fact.append(fact[-1] * j)
    roots = [[0] * size for _ in range(size)]
    for n in range(size):
        for m in range(n, size):
            roots[n][m] = roots[m][n] = math.isqrt(
                (fact[n] * fact[m]) << (n + m + 106))
    return tuple(map(tuple, roots))


@lru_cache(maxsize=64)
def _displaced_overlap_cached(delta: float, size: int) -> np.ndarray:
    """Overlaps X[n, m] = <u_n(w), u_m(w + delta)> of displaced oscillators,
    exact up to one final rounding; cached, so the array is read-only.

    Writing X[n, m] = exp(-delta^2/4) Q[n, m] / sqrt(2^(n+m) n! m!), the
    ladder recurrences reduce to the division-free form

        Q[0, m] = delta^m,   Q[n+1, m] = 2m Q[n, m-1] - delta Q[n, m].

    The naive float recurrence cancels catastrophically for well-separated
    centers, so it is run in exact integer arithmetic instead.  As a float,
    delta = num / 2^s is a dyadic rational, and P[n, m] = 2^(s(n+m)) Q[n, m]
    is an integer:

        P[0, m] = num^m,   P[n+1, m] = 2m 4^s P[n, m-1] - num P[n, m].

    Each entry is then one correctly rounded integer division,
    P 2^53 / (R[n][m] 2^(s(n+m))), with R from ``_norm_roots``, times the
    float exp(-delta^2/4).  Q(-delta) is the transpose of Q(delta) and R is
    symmetric, so a negative delta returns the transposed view of the
    |delta| table: X(-delta) = X(delta).T holds bit for bit.  As Q[n, m]
    has the parity n + m in delta, Q[m, n] = (-1)^(n+m) Q[n, m], so only
    the upper triangle m >= n is computed (row n + 1 reads row n at m >= n).
    Each lower entry is its upper float, negated where n + m is odd: the
    rounding is symmetric, so that is bit for bit, signed zeros included.
    """
    arg = -0.25 * delta * delta
    if arg < -350.0:
        # every kept entry is below ~1e-100; the wells are fully decoupled
        X = np.zeros((size, size))
        X.setflags(write=False)
        return X
    if delta < 0:
        return _displaced_overlap_cached(-delta, size).T
    num, den = delta.as_integer_ratio()
    s = den.bit_length() - 1
    roots = _norm_roots(size)
    pref = math.exp(arg)
    X = np.zeros((size, size))
    row = [num ** m for m in range(size)]          # P[n, m] for m >= n
    for n in range(size):
        if n:
            row = [((m * a) << (2 * s + 1)) - num * b
                   for m, a, b in zip(range(n, size), row, row[1:])]
        for j, p in enumerate(row):
            if p:
                m = n + j
                x = ((p << 53) / (roots[n][m] << (s * (n + m)))) * pref
                X[n, m] = x
                X[m, n] = -x if j & 1 else x
    X.setflags(write=False)
    return X


def _z_operator(kind: str, eta: float, center: float, size: int) -> np.ndarray:
    """Band matrix of a z-direction operator in the oscillator basis at ``center``."""
    eye = np.eye(size)
    if kind == "1":
        return eye
    z = center * eye + _ladder_position(size) / eta
    if kind == "z":
        return z
    if kind == "z2":
        return z @ z
    if kind == "z4":
        z2 = z @ z
        return z2 @ z2
    if kind == "dz2":
        d = eta * _ladder_derivative(size)
        return d @ d
    if kind == "quartic":
        q = z @ z - eye
        return q @ q
    raise ValueError(f"unsupported z operator kind: {kind!r}")


def _y_operator(kind: str, mu: float, size: int) -> np.ndarray:
    """Real band matrix of a y-direction operator in the phi_k oscillator
    basis; for "-idy" the matrix of d/dy', without the factor -i."""
    if kind == "1":
        return np.eye(size)
    if kind == "y2":
        w = _ladder_position(size) / mu
        return w @ w
    if kind == "-idy":
        return mu * _ladder_derivative(size)
    if kind == "dy2":
        d = mu * _ladder_derivative(size)
        return d @ d
    raise ValueError(f"unsupported y operator kind: {kind!r}")


@lru_cache(maxsize=128)
@np.errstate(over="ignore", invalid="ignore")  # overflow is checked at the end
def z_element_table(kind: str, eta: float, N: int) -> np.ndarray:
    """Full 2N x 2N table of <psi_n^p| kind |psi_m^q> over the z' basis of
    width ``eta``.

    It reads no other basis parameter, so it is cached by (kind, eta, N)
    alone: a sweep of mu or L reuses it.  Row/column ordering is p-major:
    index = (0 if p = +1 else 1)*N + n.  The operator is banded in each
    well's padded oscillator ladder and built once per center; its N x N
    corner holds the same-well elements.  The cross-well ones are the
    N x N block of X op, X the displaced overlap table at 2 eta (X.T from
    -1 to +1), summed over the padded ladder in extended precision, since
    they cancel strongly.  C_n^p comes from the diagonal of X; a pair with
    no norm raises ``DegenerateBasisError``.  Every kind is symmetric; the
    table is mirrored from its upper triangle so that it is exactly
    symmetric.  The returned array is read-only (cached).  An extreme eta
    that overflows the table raises ``DegenerateBasisError``.
    """
    if kind not in Z_KINDS:
        raise ValueError(f"unsupported z operator kind: {kind!r}")
    size = N + _PAD
    plus = _z_operator(kind, eta, +1.0, size)
    minus = _z_operator(kind, eta, -1.0, size)
    # X[n, m] = <u_n at +1 | u_m at -1>; the pair (-1, +1) reads X.T
    X = _displaced_overlap_cached(2.0 * eta, size)
    ld = np.longdouble
    ee, oo = plus[:N, :N], minus[:N, :N]
    eo = (X[:N].astype(ld) @ minus[:, :N].astype(ld)).astype(float)
    oe = (X.T[:N].astype(ld) @ plus[:, :N].astype(ld)).astype(float)

    # C_n^p = [2 (1 + p <psi_n^+|psi_n^->)]^(-1/2), so <psi_n^p|psi_n^p> = 1
    args = 2.0 * (1.0 + np.outer([1.0, -1.0], np.diagonal(X)[:N]))
    bad = np.argwhere(args <= 0.0)
    if len(bad):
        i, n = bad[0]
        raise DegenerateBasisError(
            f"well combination (n={n}, p={1 - 2 * i:+d}) has no "
            "normalization; the two well functions are (numerically) "
            "identical")
    # a Python float power (C pow) per element: numpy's vectorized power
    # differs from it in the last bit for some arguments
    c = np.array([[arg ** -0.5 for arg in row] for row in args.tolist()])

    table = np.empty((2 * N, 2 * N))
    for i, p in enumerate((+1, -1)):
        for j, q in enumerate((+1, -1)):
            block = ee + q * eo + p * oe + (p * q) * oo
            table[i * N:(i + 1) * N, j * N:(j + 1) * N] = \
                np.outer(c[i], c[j]) * block

    table = np.triu(table) + np.triu(table, 1).T
    return _finite_table(table, kind, f"eta = {eta:g}")


@lru_cache(maxsize=128)
@np.errstate(over="ignore", invalid="ignore")  # overflow is checked at the end
def y_element_table(kind: str, mu: float, L: int) -> np.ndarray:
    """L x L table of <chi_k| kind |chi_l> over the y' ladder of width
    ``mu``; exactly symmetric, read-only, and cached by (kind, mu, L), the
    only inputs it reads.

    It is the phi_k table times the phase i^(l-k) of chi_k = i^k phi_k,
    and times -i for "-idy".  Each kind couples only k, l of one offset
    parity, where that phase is real: Re i^(l-k), or Re i^(l-k-1) for
    "-idy", exactly 0 or +-1.  An extreme mu that overflows the table
    raises ``DegenerateBasisError``.
    """
    if kind not in Y_KINDS:
        raise ValueError(f"unsupported y operator kind: {kind!r}")
    size = L + _PAD
    k = np.arange(L)
    power = k - k[:, None]                # l - k at [k, l]
    if kind == "-idy":
        power -= 1                        # -i = i^(-1)
    phase = np.array([1.0, 0.0, -1.0, 0.0])[power % 4]   # Re i^power
    table = _y_operator(kind, mu, size)[:L, :L] * phase
    table = np.triu(table) + np.triu(table, 1).T
    return _finite_table(table, kind, f"mu = {mu:g}")


def _finite_table(table: np.ndarray, kind: str, width: str) -> np.ndarray:
    """``table`` made read-only; a table that overflowed is a
    ``DegenerateBasisError``."""
    if not np.isfinite(table).all():
        raise DegenerateBasisError(
            f"the {kind!r} table overflows at basis width {width}")
    table.setflags(write=False)
    return table
