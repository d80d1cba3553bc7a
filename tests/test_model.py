"""Unit conversions and scaled coefficients."""

import dataclasses

import pytest

import hybridq as hq


def test_scale_confinement_energy_example():
    # hw0 = 30 meV, a = 30 nm, m*/m = 0.041: hw_a ~ 2.065 meV
    p = hq.PhysicalParams(hw0=30.0, a=30.0)
    s = hq.scale(p)
    assert s.r_a * 30.0 == pytest.approx(2.065, rel=1e-3)
    assert s.r_a == pytest.approx(0.0688, rel=2e-3)


def test_scale_zero_field_is_trivial():
    s = hq.scale(hq.PhysicalParams(hw0=30.0, a=30.0, B0=0.0, bSLa=0.0))
    assert s.r_c == 0.0
    assert s.beta == 0.0


def test_scale_cyclotron_energy_example():
    # hw_c = 2 mu_B B0 / (m*/m) ~ 1.412 meV at B0 = 0.5 T
    p = hq.PhysicalParams(hw0=30.0, a=30.0, B0=0.5)
    s = hq.scale(p)
    assert s.r_c * 30.0 == pytest.approx(1.412, rel=1e-3)
    assert s.r_c == pytest.approx(0.0471, rel=2e-3)


def test_scale_rejects_gradient_without_zeeman():
    p = hq.PhysicalParams(hw0=30.0, a=30.0, B0=0.0, bSLa=2.0)
    with pytest.raises(ValueError):
        hq.scale(p)


def test_physical_params_validation():
    with pytest.raises(ValueError):
        hq.PhysicalParams(hw0=-1.0, a=30.0)
    with pytest.raises(ValueError):
        hq.PhysicalParams(hw0=30.0, a=30.0, gamma=1.5)
    with pytest.raises(ValueError):
        hq.PhysicalParams(hw0=30.0, a=30.0, B0=-0.1)


def test_b_defaults_to_a():
    p = hq.PhysicalParams(hw0=30.0, a=25.0)
    assert p.b == 25.0
    assert hq.scale(p).ab_ratio == 1.0
    q = hq.PhysicalParams(hw0=30.0, a=30.0, b=15.0)
    assert hq.scale(q).ab_ratio == 4.0


def test_scale_homogeneity_in_fields():
    base = hq.PhysicalParams(hw0=30.0, a=30.0, B0=0.5, bSLa=1.0)
    s = hq.scale(base)
    doubled_b0 = hq.scale(hq.PhysicalParams(hw0=30.0, a=30.0, B0=1.0,
                                            bSLa=1.0))
    assert doubled_b0.r_c == pytest.approx(2.0 * s.r_c, rel=1e-14)
    assert doubled_b0.beta == pytest.approx(0.5 * s.beta, rel=1e-14)
    doubled_bsl = hq.scale(hq.PhysicalParams(hw0=30.0, a=30.0, B0=0.5,
                                             bSLa=2.0))
    assert doubled_bsl.r_c == s.r_c
    assert doubled_bsl.beta == pytest.approx(2.0 * s.beta, rel=1e-14)


def test_energy_ordering_at_working_point():
    # hw0 > hw_a > hw_c* at the Fig. 4 parameters
    p = hq.PhysicalParams(hw0=30.0, a=30.0, B0=0.5, bSLa=2.0)
    s = hq.scale(p)
    assert 1.0 > s.r_a > s.r_c > 0.0


def test_scaled_params_validation():
    with pytest.raises(ValueError):
        hq.ScaledParams(r_a=-0.1, r_c=0.0, beta=0.0, ab_ratio=1.0,
                        gamma=0.0)
    with pytest.raises(ValueError):
        hq.ScaledParams(r_a=0.1, r_c=-1.0, beta=0.0, ab_ratio=1.0,
                        gamma=0.0)


FIG4 = hq.PhysicalParams(hw0=30.0, a=30.0, gamma=-1e-3, B0=0.5, bSLa=2.0)
SEPARABLE_KINDS = [("dz2", "1", "1"), ("1", "dy2", "1"),
                   ("quartic", "1", "1"), ("z", "1", "1")]
SLANTING_KINDS = [("quartic", "1", "1"), ("z2", "-idy", "1"),
                  ("1", "-idy", "1"), ("z", "1", "x")]


def kinds_of(scaled):
    return [term[1:] for term in scaled.terms]


def test_terms_at_the_working_point():
    s = hq.scale(FIG4)
    assert kinds_of(s) == (SEPARABLE_KINDS + [("1", "y2", "1")]
                           + SLANTING_KINDS + [("1", "1", "z")])
    coefficients = [term[0] for term in s.terms]
    expected = [-s.r_a / 2, -s.r_a / 2, s.ab_ratio / (8 * s.r_a), -s.gamma,
                s.r_c ** 2 / (8 * s.r_a), (s.r_c * s.beta) ** 2 / (2 * s.r_a),
                s.r_c * s.beta, -s.r_c * s.beta, -s.r_c * s.beta, -s.r_c / 2]
    assert coefficients == pytest.approx(expected, rel=1e-15)


def test_terms_without_the_slanting_field_separate_in_spin():
    kinds = kinds_of(hq.scale(dataclasses.replace(FIG4, bSLa=0.0)))
    assert kinds == SEPARABLE_KINDS + [("1", "y2", "1"), ("1", "1", "z")]
    assert not {"-idy", "x"} & {kind for term in kinds for kind in term}


def test_terms_without_a_field_are_spin_free():
    kinds = kinds_of(hq.scale(dataclasses.replace(FIG4, B0=0.0, bSLa=0.0)))
    assert kinds == SEPARABLE_KINDS
    assert {spin for *_, spin in kinds} == {"1"}


def test_a_vanishing_term_is_kept_by_its_condition():
    # r_c beta > 0, but the coefficient (r_c beta)^2 of the slanting
    # field's quartic term underflows to 0
    s = hq.scale(dataclasses.replace(FIG4, bSLa=5e-324))
    assert len(s.terms) == 10
    assert set(SLANTING_KINDS) <= set(kinds_of(s))
    assert s.terms[5][:2] == (0.0, "quartic")


@pytest.mark.parametrize("B0", [5e-324, 1e-310])
def test_scale_rejects_a_gradient_over_an_underflowing_field(B0):
    # beta = bSLa/(2 B0) overflows and r_c underflows to 0: the terms in
    # r_c are left out, but their coefficient r_c beta is NaN
    with pytest.raises(ValueError, match="floating-point range"):
        hq.scale(hq.PhysicalParams(hw0=30.0, a=30.0, B0=B0, bSLa=1.0))
