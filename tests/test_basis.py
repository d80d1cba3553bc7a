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
    table = basis._displaced_overlap(0.0, 8, 8)
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
    table = basis._displaced_overlap(delta, size, size)
    _assert_bitwise_equal(table, oracles.fraction_displaced_overlap(delta,
                                                                    size))
    assert not table.flags.writeable


@pytest.mark.parametrize("delta", [1e-3, 2.75, SHIPPED_DELTA, 37.4])
def test_overlap_table_reversed_displacement_is_transpose(delta):
    _assert_bitwise_equal(basis._displaced_overlap(-delta, 30, 30),
                          basis._displaced_overlap(delta, 30, 30).T)


@pytest.mark.parametrize("delta", [5e-324, -5e-324, 1e-3, 2.75,
                                   SHIPPED_DELTA, -SHIPPED_DELTA, 37.4,
                                   -37.4, 0.0, 37.5, -37.5])
def test_overlap_table_lower_triangle_is_the_parity_signed_upper(delta):
    # Q[m, n] = (-1)^(n+m) Q[n, m]: each lower entry is its upper entry,
    # negated where n + m is odd, sign bits included.  At 5e-324 most
    # entries underflow to zeros that keep the sign of their integer.  An
    # exact zero (delta = 0 off the diagonal, or fully decoupled wells at
    # |delta| = 37.5) is +0.0 on both sides.
    X = basis._displaced_overlap(delta, 30, 30)
    odd = np.add.outer(np.arange(30), np.arange(30)) % 2 == 1
    exact_zero = delta == 0.0 or abs(delta) == 37.5
    _assert_bitwise_equal(X.T, np.where(odd & ~exact_zero, -X, X))


@given(delta=st.floats(-40.0, 40.0), rows=st.integers(1, 30),
       extra=st.integers(0, 8))
@example(delta=SHIPPED_DELTA, rows=22, extra=basis._BAND)
@example(delta=-SHIPPED_DELTA, rows=1, extra=0)
@settings(max_examples=40, deadline=None)
def test_overlap_slab_is_the_corner_of_the_full_table(delta, rows, extra):
    # the z-tables read only rows < N and columns < N + _BAND
    _assert_bitwise_equal(basis._displaced_overlap(delta, rows, rows + extra),
                          basis._displaced_overlap(delta, 38, 38)
                          [:rows, :rows + extra])


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
    _assert_matches_the_block_reference(kind, eta, N)


def _assert_matches_the_block_reference(kind, eta, N):
    """The table is the oracle's bit for bit, or raises its error."""
    try:
        want = oracles.reference_z_element_table(kind, eta, N)
    except hq.DegenerateBasisError as err:
        with pytest.raises(hq.DegenerateBasisError) as got:
            basis.z_element_table(kind, eta, N)
        assert str(got.value) == str(err)
        return
    _assert_bitwise_equal(basis.z_element_table(kind, eta, N), want)


@given(kind=st.sampled_from(basis.Z_KINDS),
       eta=st.floats(math.log(1e-4), math.log(20.0)).map(math.exp),
       N=st.integers(1, 30))
@example(kind="quartic", eta=1e-4, N=30)    # nearly coincident wells
@example(kind="quartic", eta=20.0, N=30)    # decoupled wells
@example(kind="dz2", eta=SHIPPED_DELTA / 2, N=1)
@settings(max_examples=25, deadline=None)
def test_z_element_table_matches_the_block_reference_at_any_width(kind, eta,
                                                                  N):
    # eta spans the widths of every shipped config and beyond, from
    # merged wells to fully decoupled ones
    _assert_matches_the_block_reference(kind, eta, N)


def test_banded_products_are_the_long_double_matmul():
    # _cross_blocks sums only an operator's band and claims the bits of
    # numpy's long double matmul.  That holds where numpy sums a long
    # double product sequentially, without BLAS, rounding each product and
    # each sum once: the 80-bit x87 long double of x86-64.  On a platform
    # where it does not, this test fails instead of the tables drifting.
    rng = np.random.default_rng(5)
    ld = np.longdouble
    for N in (1, 3, 22):
        slab = rng.standard_normal((2, N, N + basis._BAND))
        pair = basis._well_pair(1.7, N)
        for kind in basis.Z_KINDS:
            ops = basis._z_operators(kind, 1.7, pair.z)
            got = basis._cross_blocks(basis._windows(slab), ops,
                                      basis._Z_BAND[kind])
            for i in range(2):
                want = slab[i].astype(ld) @ \
                    ops[i, :N + basis._BAND, :N].astype(ld)
                _assert_bitwise_equal(got[i], want.astype(float))


def _count_recurrences(monkeypatch) -> list:
    """Calls of the integer overlap recurrence from here on, with cold
    table caches."""
    calls = []
    recurrence = basis._displaced_overlap

    def spy(*args):
        calls.append(args)
        return recurrence(*args)

    monkeypatch.setattr(basis, "_displaced_overlap", spy)
    basis.z_element_table.cache_clear()
    basis._well_pair.cache_clear()
    return calls


def test_one_assemble_runs_the_recurrence_once(monkeypatch):
    calls = _count_recurrences(monkeypatch)
    hq.assemble(hq.scale(hq.PhysicalParams(hw0=30.0, a=30.0)),
                hq.BasisSpec(eta=4.125, mu=0.7, L=2, N=12))
    assert calls == [(8.25, 12, 12 + basis._BAND)]


def test_one_solve_1d_runs_the_recurrence_once(monkeypatch):
    calls = _count_recurrences(monkeypatch)
    hq.solve_1d(30.0, 31.5, gamma=-1e-3, n_basis=22)
    assert len(calls) == 1


def test_each_kind_built_is_one_table_cache_miss():
    basis.z_element_table.cache_clear()
    for built, kind in enumerate(basis.Z_KINDS, 1):
        basis.z_element_table(kind, 3.375, 10)
        assert basis.z_element_table.cache_info().misses == built
    basis.z_element_table("z", 3.375, 10)
    assert basis.z_element_table.cache_info().misses == len(basis.Z_KINDS)


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
    for kind in ("z3", "z4", "dz", "zquartic"):
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


# assembly.lower_band and solver._count_below read y only at offsets 0 and
# +-2 and the "-idy" table only at +-1: they would drop any other coupling
@given(mu=st.floats(0.01, 100.0), L=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_y_tables_couple_only_the_offsets_the_band_reads(mu, L):
    offset = np.abs(np.subtract.outer(np.arange(L), np.arange(L)))
    for kind, read in (("1", [0, 2]), ("y2", [0, 2]), ("dy2", [0, 2]),
                       ("-idy", [1])):
        table = basis.y_element_table(kind, mu, L)
        assert np.all(table[~np.isin(offset, read)] == 0.0), kind


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


@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_mirrored_is_the_upper_triangle_summed_with_its_transpose(n, seed):
    # every zero of the sum triu(t) + triu(t, 1).T is +0
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n))
    t[rng.random((n, n)) < 0.3] = 0.0
    t[rng.random((n, n)) < 0.3] = -0.0
    expected = np.triu(t) + np.triu(t, 1).T
    mirrored = basis.mirrored(t)
    assert np.array_equal(mirrored, expected)
    assert np.array_equal(np.signbit(mirrored), np.signbit(expected))
    assert not np.signbit(mirrored[mirrored == 0]).any()


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        hq.BasisSpec(eta=0.0, mu=0.7, L=2, N=2)
    with pytest.raises(ValueError):
        hq.BasisSpec(eta=4.0, mu=0.7, L=0, N=2)
    assert hq.BasisSpec(eta=4.0, mu=0.7, L=5, N=7).size == 140
