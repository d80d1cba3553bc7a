"""Basis functions and exact 1D matrix elements against the quadrature
oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridq as hq
from hybridq import basis
from conftest import z_element

import oracles

ORACLE_TOL = 1e-12


def test_overlap_table_identity_at_zero_displacement():
    table = basis._displaced_overlap_cached(0.0, 8)
    np.testing.assert_array_equal(table, np.eye(8))


# delta = 2 eta of the shipped quartic-gap point hw0 = 30 meV, a = 30 nm
SHIPPED_DELTA = 2.0 / math.sqrt(
    hq.scale(hq.PhysicalParams(hw0=30.0, a=30.0, gamma=-1e-3)).r_a)


def _assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@given(delta=st.floats(-40.0, 40.0, allow_subnormal=True),
       size=st.integers(1, 30))
@example(delta=0.0, size=8)
@example(delta=-0.0, size=8)
@example(delta=5e-324, size=30)
@example(delta=37.5, size=30)
@example(delta=-37.5, size=30)
@example(delta=SHIPPED_DELTA, size=30)
@example(delta=-SHIPPED_DELTA, size=30)
@settings(max_examples=60, deadline=None)
def test_overlap_table_matches_rational_reference(delta, size):
    table = basis._displaced_overlap_cached(delta, size)
    _assert_bitwise_equal(table, oracles.fraction_displaced_overlap(delta,
                                                                    size))
    assert not table.flags.writeable


@pytest.mark.parametrize("delta", [1e-3, 2.75, SHIPPED_DELTA, 37.4])
def test_overlap_table_reversed_displacement_is_transpose(delta):
    _assert_bitwise_equal(basis._displaced_overlap_cached(-delta, 30),
                          basis._displaced_overlap_cached(delta, 30).T)


@pytest.mark.parametrize("delta", [5e-324, -5e-324, 1e-3, 2.75,
                                   SHIPPED_DELTA, -SHIPPED_DELTA, 37.4,
                                   -37.4, 0.0, 37.5, -37.5])
def test_overlap_table_lower_triangle_is_the_parity_signed_upper(delta):
    # Q[m, n] = (-1)^(n+m) Q[n, m]: each lower entry is its upper entry,
    # negated where n + m is odd, sign bits included.  At 5e-324 most
    # entries underflow to zeros that keep the sign of their integer.  An
    # exact zero (delta = 0 off the diagonal, or fully decoupled wells at
    # |delta| = 37.5) is +0.0 on both sides.
    X = basis._displaced_overlap_cached(delta, 30)
    odd = np.add.outer(np.arange(30), np.arange(30)) % 2 == 1
    exact_zero = delta == 0.0 or abs(delta) == 37.5
    _assert_bitwise_equal(X.T, np.where(odd & ~exact_zero, -X, X))


@given(kind=st.sampled_from(basis.Z_KINDS),
       eta=st.floats(0.29, 9.85),
       N=st.integers(1, 24))
@example(kind="quartic", eta=4.0, N=20)
@example(kind="dz2", eta=SHIPPED_DELTA / 2, N=22)
@example(kind="z", eta=SHIPPED_DELTA / 2, N=24)
@example(kind="1", eta=1e-9, N=3)          # no norm for (n=0, p=-1)
@example(kind="dz2", eta=1e200, N=3)       # the table overflows
@settings(max_examples=30, deadline=None)
def test_z_element_table_matches_the_block_reference(kind, eta, N):
    # eta spans the quartic-gap surface, hw0 in 10-50 meV and a in 4-60 nm
    try:
        want = oracles.reference_z_element_table(kind, eta, N)
    except hq.DegenerateBasisError as err:
        with pytest.raises(hq.DegenerateBasisError) as got:
            basis.z_element_table(kind, eta, N)
        assert str(got.value) == str(err)
        return
    _assert_bitwise_equal(basis.z_element_table(kind, eta, N), want)


def test_degenerate_basis_raises():
    # exp(-eta^2) rounds to 1: the odd combination of the two well
    # functions vanishes and has no normalization
    spec = hq.BasisSpec(eta=1e-9, mu=0.7, L=2, N=3)
    with pytest.raises(hq.DegenerateBasisError,
                       match=r"\(n=0, p=-1\) has no normalization"):
        hq.assemble(hq.scale(hq.PhysicalParams(hw0=30.0, a=30.0)), spec)


def test_even_odd_combinations_are_orthogonal():
    spec = hq.BasisSpec(eta=4.0, mu=0.7, L=2, N=12)
    for n in range(spec.N):
        assert z_element("1", n, +1, n, -1, spec) == 0.0


def test_same_parity_normalized():
    spec = hq.BasisSpec(eta=3.0, mu=0.7, L=2, N=8)
    for p in (+1, -1):
        for n in range(spec.N):
            assert z_element("1", n, p, n, p, spec) \
                == pytest.approx(1.0, abs=1e-14)


def test_parity_kills_odd_moment():
    # psi_n^p has definite parity, z' is odd
    spec = hq.BasisSpec(eta=4.0, mu=0.7, L=2, N=6)
    for n in range(spec.N):
        for p in (+1, -1):
            assert abs(z_element("z", n, p, n, p, spec)) < 1e-13


def test_y_element_examples():
    y2 = basis.y_element_table("y2", 0.7, 8)
    assert y2[0, 0] == pytest.approx(1.0 / (2.0 * 0.7 ** 2), rel=1e-14)
    # <chi_0|y'^2|chi_2> = i^2 <phi_0|y'^2|phi_2>
    assert y2[0, 2] == pytest.approx(-2 ** -0.5 / 0.7 ** 2, rel=1e-14)
    idy = basis.y_element_table("-idy", 0.7, 8)
    assert idy[0, 0] == 0.0
    # <chi_0|-i d/dy'|chi_1> = -i i <phi_0|d/dy'|phi_1> = mu / sqrt(2)
    assert idy[0, 1] == idy[1, 0] == pytest.approx(0.7 * 2 ** -0.5,
                                                   rel=1e-14)
    dy2 = basis.y_element_table("dy2", 0.7, 8)
    for k in range(8):
        assert -dy2[k, k] == pytest.approx(0.7 ** 2 * (k + 0.5), rel=1e-13)


def test_unsupported_kind_rejected():
    for kind in ("z3", "dz", "zquartic"):
        with pytest.raises(ValueError):
            basis.z_element_table(kind, 4.0, 2)
    with pytest.raises(ValueError):
        basis.y_element_table("y", 0.7, 2)


def test_z_elements_match_quadrature_spot_checks():
    spec = hq.BasisSpec(eta=4.0, mu=0.7, L=2, N=13)
    rng = np.random.default_rng(11)
    for _ in range(60):
        kind = str(rng.choice(basis.Z_KINDS))
        n, m = map(int, rng.integers(0, spec.N, 2))
        p, q = int(rng.choice([1, -1])), int(rng.choice([1, -1]))
        got = z_element(kind, n, p, m, q, spec)
        want = oracles.quad_element_z(kind, n, p, m, q, spec.eta)
        assert got == pytest.approx(want, abs=ORACLE_TOL)


@given(
    eta=st.floats(1.0, 8.0),
    n=st.integers(0, 12), m=st.integers(0, 12),
    p=st.sampled_from([1, -1]), q=st.sampled_from([1, -1]),
    kind=st.sampled_from(basis.Z_KINDS),
)
@settings(max_examples=60, deadline=None)
def test_z_elements_match_quadrature_property(eta, n, m, p, q, kind):
    spec = hq.BasisSpec(eta=eta, mu=0.7, L=2, N=13)
    got = z_element(kind, n, p, m, q, spec)
    want = oracles.quad_element_z(kind, n, p, m, q, eta)
    assert got == pytest.approx(want, abs=ORACLE_TOL)


@given(
    mu=st.floats(0.3, 2.0),
    k=st.integers(0, 12), l=st.integers(0, 12),
    kind=st.sampled_from(basis.Y_KINDS),
)
@settings(max_examples=40, deadline=None)
def test_y_elements_match_quadrature_property(mu, k, l, kind):
    got = float(basis.y_element_table(kind, mu, 13)[k, l])
    want = oracles.quad_element_chi(kind, k, l, mu)
    assert got == pytest.approx(want, abs=ORACLE_TOL)


def test_z_overlap_matrix_positive_definite_and_sparse():
    table = basis.z_element_table("1", 4.0, 12)
    eigs = np.linalg.eigvalsh(table)
    assert eigs[0] > 0.0
    # (n, p), (n, -p) entries vanish identically
    for n in range(12):
        assert table[n, 12 + n] == 0.0


def test_table_symmetries_exact():
    for kind in basis.Z_KINDS:
        table = basis.z_element_table(kind, 3.0, 8)
        np.testing.assert_array_equal(table, table.T)
    for kind in basis.Y_KINDS:
        table = basis.y_element_table(kind, 0.9, 6)
        np.testing.assert_array_equal(table, table.T)


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        hq.BasisSpec(eta=0.0, mu=0.7, L=2, N=2)
    with pytest.raises(ValueError):
        hq.BasisSpec(eta=4.0, mu=0.7, L=0, N=2)
    assert hq.BasisSpec(eta=4.0, mu=0.7, L=5, N=7).size == 140
