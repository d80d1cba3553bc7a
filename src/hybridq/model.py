"""Physical parameters of the double-well dot and their dimensionless form.

Laboratory inputs (meV, nm, Tesla) enter through :class:`PhysicalParams`;
:func:`scale` converts them once into the dimensionless coefficient set
:class:`ScaledParams` that every other module works in; its ``terms`` are
the one declaration of the scaled Hamiltonian.  Energies produced
downstream are in units of the dot energy scale hw0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018 (SI)
HBAR = 1.054_571_817e-34      # J s
M_E = 9.109_383_7015e-31      # kg
E_CHARGE = 1.602_176_634e-19  # C

_MEV = 1e-3 * E_CHARGE        # J per meV
_NM = 1e-9                    # m per nm

# effective-mass ratio m*/m_e of the paper's working parameter set
M_RATIO = 0.041


@dataclass(frozen=True)
class PhysicalParams:
    """Dot geometry, confinement and field strengths in laboratory units."""

    hw0: float               # confinement energy scale hw0 [meV]
    a: float                 # half separation of the well minima [nm]
    gamma: float = 0.0       # dimensionless tilt (left/right depth imbalance)
    B0: float = 0.0          # uniform Zeeman field along z [T]
    bSLa: float = 0.0        # slanting-field product b_SL*a [T]
    m_ratio: float = M_RATIO  # effective-mass ratio m*/m_e
    b: float | None = None   # barrier-height length [nm]; None means b = a

    def __post_init__(self) -> None:
        if self.b is None:
            object.__setattr__(self, "b", self.a)
        if self.hw0 <= 0 or self.a <= 0 or self.b <= 0 or self.m_ratio <= 0:
            raise ValueError("hw0, a, b and m_ratio must be positive")
        if self.B0 < 0 or self.bSLa < 0:
            raise ValueError("field strengths B0 and bSLa must be non-negative")
        if abs(self.gamma) >= 1:
            raise ValueError("tilt |gamma| must be < 1 to keep the double well")


@dataclass(frozen=True)
class ScaledParams:
    """Dimensionless coefficients of the scaled two-dimensional Hamiltonian.

    ``r_a`` and ``r_c`` are the confinement and cyclotron energies divided by
    hw0, ``beta`` is bSLa/(2 B0), and ``ab_ratio`` is (a/b)^2 multiplying the
    quartic term only.
    """

    r_a: float
    r_c: float
    beta: float
    ab_ratio: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0 < self.r_a < math.inf:
            raise ValueError("r_a = hw_a/hw0 must be positive and finite")
        if self.r_c < 0 or self.beta < 0:
            raise ValueError("r_c and beta must be non-negative")
        # left-out terms too: r_c beta is NaN where r_c = 0, beta = inf
        if not all(math.isfinite(term[0]) for term in self._every_term()):
            raise ValueError("the scaled Hamiltonian has a coefficient "
                             "outside the floating-point range")

    @property
    def terms(self) -> tuple:
        """The Hamiltonian in units of hw0 as Kronecker terms ``(coefficient,
        z kind, y kind, spin factor)``, in the order they are summed; the
        kinds are those of ``basis``, the spin factors "1", "x" and "z":

            H = -(r_a/2) (d2/dz'2 + d2/dy'2) + ab_ratio/(8 r_a) (z'^2-1)^2
                - gamma z' + r_c^2/(8 r_a) (y'^2 + 4 beta^2 (z'^2-1)^2)
                + r_c beta ((z'^2-1) (-i d/dy') - z' sigma_x) - r_c sigma_z/2

        in the y-ladder chi_k = i^k exp(-i q y') phi_k, q = r_c beta / r_a
        (``basis``).  The y'^2 and sigma_z terms are left out at r_c = 0,
        the slanting and sigma_x terms unless r_c > 0 and beta > 0.
        """
        return tuple(term[:4] for term in self._every_term() if term[4])

    def _every_term(self) -> tuple:
        """Every term of ``terms``, followed by whether it is kept."""
        r_a, r_c, beta = self.r_a, self.r_c, self.beta
        slanting = r_c > 0 and beta > 0
        return ((-(0.5 * r_a), "dz2", "1", "1", True),
                (-(0.5 * r_a), "1", "dy2", "1", True),
                (self.ab_ratio / (8.0 * r_a), "quartic", "1", "1", True),
                (-self.gamma, "z", "1", "1", True),
                (r_c * r_c / (8.0 * r_a), "1", "y2", "1", r_c > 0),
                (r_c * r_c * beta * beta / (2.0 * r_a), "quartic", "1",
                 "1", slanting),
                (r_c * beta, "z2", "-idy", "1", slanting),
                (-(r_c * beta), "1", "-idy", "1", slanting),
                (-(r_c * beta), "z", "1", "x", slanting),
                (-(0.5 * r_c), "1", "1", "z", r_c > 0))


def confinement_energy_mev(a_nm: float, m_ratio: float) -> float:
    """hw_a = hbar^2 / (m* a^2) in meV."""
    m_star = m_ratio * M_E
    return HBAR * HBAR / (m_star * (a_nm * _NM) ** 2) / _MEV


def cyclotron_energy_mev(B0_tesla: float, m_ratio: float) -> float:
    """hw_c = hbar e B0 / m* in meV (the cyclotron / spin-splitting energy)."""
    m_star = m_ratio * M_E
    return HBAR * E_CHARGE * B0_tesla / m_star / _MEV


def scale(p: PhysicalParams) -> ScaledParams:
    """Reduce laboratory parameters to the dimensionless coefficient set.

    Raises
    ------
    ValueError
        If ``bSLa > 0`` with ``B0 = 0``: the scaled Hamiltonian carries the
        slanting field only through bSLa/B0, so a finite gradient needs a
        finite Zeeman field.  Also if finite but extreme inputs leave r_a
        zero or infinite, or a coefficient of the Hamiltonian infinite.
    """
    if p.bSLa > 0 and p.B0 == 0:
        raise ValueError("bSLa > 0 requires B0 > 0 (scaled form divides by B0)")
    assert p.b is not None
    try:
        r_a = confinement_energy_mev(p.a, p.m_ratio) / p.hw0
        r_c = cyclotron_energy_mev(p.B0, p.m_ratio) / p.hw0
        ab_ratio = (p.a / p.b) ** 2
    except (OverflowError, ZeroDivisionError):  # a square over- or underflows
        raise ValueError("hw0, a, b and m_ratio put the scaled Hamiltonian "
                         "outside the floating-point range") from None
    beta = p.bSLa / (2.0 * p.B0) if p.bSLa > 0 else 0.0
    return ScaledParams(
        r_a=r_a,
        r_c=r_c,
        beta=beta,
        ab_ratio=ab_ratio,
        gamma=p.gamma,
    )

