"""Spin-orbital basis and exact one-dimensional matrix elements.

The spatial basis is a product of harmonic-oscillator-like functions:

* along y': ``chi_k(y') = i^k exp(-i q y') phi_k(y')``, k = 0..L-1, with
  ``phi_k(y') = N_k H_k(mu y') exp(-mu^2 y'^2 / 2)`` the orthonormal
  oscillator ladder centered at the origin, and q = r_c beta / r_a.  The
  gauge phase shows only in ``model.ScaledParams.terms``; i^k makes every
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
bra/ket pairs are coupled through the displaced-oscillator overlap table.
Its two-term recurrence cancels catastrophically in floating point, so it
runs in exact integer arithmetic, and each entry is rounded once.  No
quadrature is used anywhere in this module.
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
Z_KINDS = ("1", "z", "z2", "quartic", "dz2")
Y_KINDS = ("1", "y2", "-idy", "dy2")

# Band growth of the widest z operator, (z^2-1)^2, is 4; intermediate
# matrix products need a little extra headroom so truncation never touches
# kept rows.
_PAD = 8
_BAND = 4


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


def _displaced_overlap(delta: float, rows: int, cols: int) -> np.ndarray:
    """Overlaps X[n, m] = <u_n(w), u_m(w + delta)> of displaced oscillators
    for n < rows <= cols and m < cols, exact up to one final rounding; the
    array is read-only.

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
    float exp(-delta^2/4).  Every entry is rounded on its own, so a table
    is the leading rows and columns of any larger one, bit for bit.  As
    Q[n, m] has the parity n + m in delta, Q[m, n] = (-1)^(n+m) Q[n, m], so
    only the upper entries m >= n of the kept rows are computed (row n + 1
    reads row n at m >= n).  Each lower entry is its upper float, negated
    where n + m is odd: the rounding is symmetric, so that is bit for bit,
    signed zeros included.  The same parity makes a negative delta, whose
    numerator is negative, give X(-delta) = X(delta).T bit for bit.
    """
    X = np.zeros((rows, cols))
    arg = -0.25 * delta * delta
    if arg >= -350.0:
        # below, every kept entry is under ~1e-100: the wells are decoupled
        num, den = delta.as_integer_ratio()
        s = den.bit_length() - 1
        roots = _norm_roots(cols)
        pref = math.exp(arg)
        row = [num ** m for m in range(cols)]          # P[n, m] for m >= n
        for n in range(rows):
            if n:
                row = [((m * a) << (2 * s + 1)) - num * b
                       for m, a, b in zip(range(n, cols), row, row[1:])]
            for j, p in enumerate(row):
                if p:
                    m = n + j
                    x = ((p << 53) / (roots[n][m] << (s * (n + m)))) * pref
                    X[n, m] = x
                    if m < rows:
                        X[m, n] = -x if j & 1 else x
    X.setflags(write=False)
    return X


@dataclass(frozen=True)
class _WellPair:
    """What every z-table of one (eta, N) reads; see ``_well_pair``."""

    z: np.ndarray        # [c] z' in the padded ladder at center c = +1, -1
    cross: np.ndarray    # the slabs of X and X.T, stacked, in long double
    norms: np.ndarray    # [p, q, n, m] C_n^p C_m^q


_SIGNS = np.array([1.0, -1.0])      # the centers +1, -1 and parities +1, -1


# the kinds of one (eta, N) are built one after the other, and their
# tables are cached, so the last two contexts are all that is reused
@lru_cache(maxsize=2)
def _well_pair(eta: float, N: int) -> _WellPair:
    """The overlap slab, the norms and the position operators that every
    z-table of width ``eta`` and size ``N`` shares, built once for all kinds.

    X is the displaced overlap table at 2 eta, X[n, k] = <u_n at +1 | u_k at
    -1>; the pair (-1, +1) reads X.T.  An operator's columns m < N hold all
    their nonzero entries in the rows k < N + _BAND, so the cross-well
    products read only the slab of rows n < N and columns k < N + _BAND of
    X and of X.T, and only that slab of X is computed.  X.T's slab is X's,
    negated where n + k is odd; both are kept in long double, which the
    products run in.  An entry whose integer is 0 is +0 in X.T and may be
    -0 here, which adds nothing to a sum that starts at +0.  C_n^p comes
    from the diagonal of X; a pair with no norm raises
    ``DegenerateBasisError``.
    """
    X = _displaced_overlap(2.0 * eta, N, N + _BAND)
    odd = np.add.outer(np.arange(N), np.arange(N + _BAND)) % 2 == 1
    cross = np.stack([X, np.where(odd, -X, X)]).astype(np.longdouble)

    # C_n^p = [2 (1 + p <psi_n^+|psi_n^->)]^(-1/2), so <psi_n^p|psi_n^p> = 1
    args = 2.0 * (1.0 + np.outer(_SIGNS, np.diagonal(X)))
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

    eye = np.eye(N + _PAD)
    z = _SIGNS[:, None, None] * eye + _ladder_position(N + _PAD) / eta
    return _WellPair(z=z, cross=cross,
                     norms=c[:, None, :, None] * c[None, :, None, :])


def _z_operators(kind: str, eta: float, z: np.ndarray) -> np.ndarray:
    """Band matrices of a z-direction operator in the oscillator ladders at
    +1 and -1, stacked, from their position operators ``z``."""
    eye = np.eye(z.shape[-1])
    if kind == "1":
        op = eye
    elif kind == "z":
        op = z
    elif kind == "z2":
        op = z @ z
    elif kind == "dz2":
        d = eta * _ladder_derivative(z.shape[-1])    # the same at both
        op = d @ d
    elif kind == "quartic":
        q = z @ z - eye
        op = q @ q
    return np.broadcast_to(op, z.shape)


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


@lru_cache(maxsize=128)
@np.errstate(over="ignore", invalid="ignore")  # overflow is checked at the end
def z_element_table(kind: str, eta: float, N: int) -> np.ndarray:
    """Full 2N x 2N table of <psi_n^p| kind |psi_m^q> over the z' basis of
    width ``eta``.

    It reads no other basis parameter, so it is cached by (kind, eta, N)
    alone: a sweep of mu or L reuses it.  Row/column ordering is p-major:
    index = (0 if p = +1 else 1)*N + n.  The overlap slab, the norms and
    the position operators come from ``_well_pair``, which every kind at
    (eta, N) shares.  The operator is banded in each well's padded
    oscillator ladder; its N x N corner holds the same-well elements.  The
    cross-well ones are the N x N block of X op, X the displaced overlap
    table at 2 eta (X.T from -1 to +1), one long double matmul rounded to
    float, since they cancel strongly.  numpy's long double matmul is not
    BLAS: it sums each entry sequentially from +0, so the zero terms
    outside the operator's band change no bit.  A pair with no norm raises
    ``DegenerateBasisError``.  Every kind is symmetric; the table is
    mirrored from its upper triangle so that it is exactly symmetric.  The
    returned array is read-only (cached).  An extreme eta that overflows
    the table raises ``DegenerateBasisError``.
    """
    if kind not in Z_KINDS:
        raise ValueError(f"unsupported z operator kind: {kind!r}")
    pair = _well_pair(eta, N)
    ops = _z_operators(kind, eta, pair.z)
    ee, oo = ops[:, :N, :N]
    # the bra at +1 meets the ket at -1, and the bra at -1 the ket at +1
    eo, oe = (pair.cross @ ops[::-1, :N + _BAND, :N].astype(np.longdouble)
              ).astype(float)
    p, q = _SIGNS[:, None, None, None], _SIGNS[None, :, None, None]
    blocks = pair.norms * (ee + q * eo + p * oe + (p * q) * oo)
    table = blocks.transpose(0, 2, 1, 3).reshape(2 * N, 2 * N)
    return _finite_table(mirrored(table), kind, f"eta = {eta:g}")


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
    return _finite_table(mirrored(table), kind, f"mu = {mu:g}")


def mirrored(t: np.ndarray) -> np.ndarray:
    """Square ``t`` mirrored from its upper triangle, every zero made +0."""
    return np.where(np.tri(len(t), k=-1, dtype=bool), t.T, t) + 0.0


def _finite_table(table: np.ndarray, kind: str, width: str) -> np.ndarray:
    """``table`` made read-only; a table that overflowed is a
    ``DegenerateBasisError``."""
    if not np.isfinite(table).all():
        raise DegenerateBasisError(
            f"the {kind!r} table overflows at basis width {width}")
    table.setflags(write=False)
    return table
