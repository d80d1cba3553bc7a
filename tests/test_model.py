"""Unit conversions and scaled coefficients."""

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
