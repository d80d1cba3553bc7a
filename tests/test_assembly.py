"""Structure of the assembled Hamiltonian and overlap matrices."""

import dataclasses

import numpy as np
import pytest

import hybridq as hq
from conftest import small_spec

PHYS = hq.PhysicalParams(hw0=30.0, a=30.0, gamma=-1e-3, B0=0.5, bSLa=2.0)


@pytest.fixture(scope="module")
def small_problem():
    return hq.assemble(hq.scale(PHYS), small_spec())


def test_dimension_is_4LN():
    spec = hq.BasisSpec(eta=4.0, mu=0.7, L=20, N=20)
    assert spec.size == 1600
    problem = hq.assemble(hq.scale(PHYS), small_spec(L=3, N=5))
    assert problem.size == 4 * 3 * 5


def test_hermiticity_exact(small_problem):
    H = small_problem.H
    assert np.max(np.abs(H - H.conj().T)) == 0.0
    S = small_problem.S
    assert np.max(np.abs(S - S.T)) == 0.0


def test_validate_reports_clean(small_problem):
    diag = hq.validate(small_problem)
    assert diag.hermiticity_residual == 0.0
    assert diag.overlap_asymmetry == 0.0
    assert diag.spin_block_residual < 1e-12
    assert small_problem.s_min_eig > 0
    assert np.isfinite(small_problem.s_condition)


def test_validate_flags_corruption(small_problem):
    H = small_problem.H.copy()
    H[3, 7] += 1e-3
    # a fresh copy of the problem whose dense H is the corrupted one
    corrupted = dataclasses.replace(small_problem)
    object.__setattr__(corrupted, "H", H)
    diag = hq.validate(corrupted)
    assert diag.hermiticity_residual >= 1e-3


def test_imaginary_part_only_from_slanting_field():
    no_gradient = dataclasses.replace(PHYS, bSLa=0.0)
    problem = hq.assemble(hq.scale(no_gradient), small_spec())
    assert problem.H.dtype == np.float64
    with_gradient = hq.assemble(hq.scale(PHYS), small_spec())
    assert np.iscomplexobj(with_gradient.H)
    assert np.max(np.abs(with_gradient.H.imag)) > 0


def test_spin_blocks_decouple_without_gradient():
    no_gradient = dataclasses.replace(PHYS, bSLa=0.0)
    problem = hq.assemble(hq.scale(no_gradient), small_spec())
    ms = problem.size // 2
    assert np.max(np.abs(problem.H[:ms, ms:])) == 0.0
    assert np.max(np.abs(problem.H[ms:, :ms])) == 0.0


def test_overlap_blockdiagonal_in_spin_and_parity_pattern():
    spec = small_spec(L=3, N=4)
    problem = hq.assemble(hq.scale(PHYS), spec)
    indices = list(hq.basis_indices(spec))
    S = problem.S
    for a in indices:
        ia = a.flatten(spec)
        for b in indices:
            ib = b.flatten(spec)
            if a.s != b.s:
                assert S[ia, ib] == 0.0
            if a.s == b.s and a.p != b.p and a.n == b.n:
                assert S[ia, ib] == 0.0
            if a.k != b.k:
                assert S[ia, ib] == 0.0


def test_spectra_mirror_under_tilt_sign_flip():
    spec = small_spec()
    plus = hq.solve(hq.assemble(hq.scale(
        dataclasses.replace(PHYS, gamma=1e-3)), spec), 12)
    minus = hq.solve(hq.assemble(hq.scale(
        dataclasses.replace(PHYS, gamma=-1e-3)), spec), 12)
    np.testing.assert_allclose(plus.energies, minus.energies, rtol=1e-10,
                               atol=1e-12)


def test_overlap_condition_is_checked():
    # nearly coincident wells: the odd combinations degenerate away
    bad_spec = hq.BasisSpec(eta=0.05, mu=0.7, L=2, N=8)
    with pytest.raises(hq.IllConditionedBasisError) as err:
        hq.assemble(hq.scale(PHYS), bad_spec)
    assert err.value.min_eigenvalue is not None


def test_spatial_factorization_against_elements():
    # a few H entries recomputed from first principles via op_element_*
    spec = small_spec(L=2, N=3)
    scaled = hq.scale(PHYS)
    problem = hq.assemble(scaled, spec)
    r_a, r_c, beta = scaled.r_a, scaled.r_c, scaled.beta

    def h_entry(bra: hq.BasisIndex, ket: hq.BasisIndex) -> complex:
        value = 0.0 + 0.0j
        if bra.s == ket.s:
            zz = (bra.n, bra.p), (ket.n, ket.p)
            y_pair = (bra.k, ket.k)
            delta_y = float(bra.k == ket.k)
            z_overlap = hq.op_element_z("1", *zz, spec)
            value += -0.5 * r_a * (
                hq.op_element_z("dz2", *zz, spec) * delta_y
                + z_overlap * hq.op_element_y("dy2", *y_pair, spec))
            value += (scaled.ab_ratio / (8 * r_a)) \
                * hq.op_element_z("quartic", *zz, spec) * delta_y
            value += -scaled.gamma * hq.op_element_z("z", *zz, spec) \
                * delta_y
            value += (r_c ** 2 / (8 * r_a)) * z_overlap \
                * hq.op_element_y("y2", *y_pair, spec)
            value += (r_c ** 2 * beta ** 2 / (2 * r_a)) \
                * hq.op_element_z("z4", *zz, spec) * delta_y
            value += -1j * r_c * beta \
                * hq.op_element_z("z2", *zz, spec) \
                * hq.op_element_y("dy", *y_pair, spec)
            value += -0.5 * r_c * bra.s * z_overlap * delta_y
        else:
            value += -r_c * beta * hq.op_element_z(
                "z", (bra.n, bra.p), (ket.n, ket.p), spec) \
                * float(bra.k == ket.k)
        return value

    rng = np.random.default_rng(3)
    indices = list(hq.basis_indices(spec))
    for _ in range(40):
        bra, ket = rng.choice(indices), rng.choice(indices)
        ia, ib = bra.flatten(spec), ket.flatten(spec)
        assert problem.H[ia, ib] == pytest.approx(h_entry(bra, ket),
                                                  rel=1e-12, abs=1e-14)


def test_arrays_are_readonly(small_problem):
    with pytest.raises(ValueError):
        small_problem.H[0, 0] = 1.0
