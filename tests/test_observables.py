"""Expectation values, qubit metrics and avoided-crossing detection."""

import dataclasses

import numpy as np
import pytest

import hybridq as hq
from conftest import FIG4_PHYSICAL, small_spec

PHYS = FIG4_PHYSICAL


@pytest.fixture(scope="module")
def small_solution():
    problem = hq.assemble(hq.scale(PHYS), small_spec(L=8, N=8))
    return problem, hq.solve(problem, 8)


def test_state_report_norms_and_bounds(small_solution):
    problem, sol = small_solution
    for j in range(sol.n_states):
        report = hq.state_report(sol, j, problem)
        assert report.norm_check == pytest.approx(1.0, abs=1e-10)
        assert abs(report.sx_mean) <= 1.0 + 1e-10
        assert report.energy == pytest.approx(sol.energies[j])


def test_state_report_index_check(small_solution):
    problem, sol = small_solution
    with pytest.raises(IndexError):
        hq.state_report(sol, sol.n_states, problem)


def test_sx_vanishes_without_gradient():
    no_gradient = dataclasses.replace(PHYS, bSLa=0.0)
    problem = hq.assemble(hq.scale(no_gradient), small_spec(L=8, N=8))
    sol = hq.solve(problem, 8)
    for j in range(sol.n_states):
        assert abs(hq.state_report(sol, j, problem).sx_mean) < 1e-10


def test_sx_strictly_inside_unit_interval(small_solution):
    problem, sol = small_solution
    ground = hq.state_report(sol, 0, problem)
    assert 0.0 < abs(ground.sx_mean) < 1.0


def test_qubit_report_fields(small_solution):
    problem, sol = small_solution
    report = hq.qubit_report(sol, problem, hw0_mev=PHYS.hw0)
    assert report.gap >= 0.0
    assert report.gap_uev == pytest.approx(report.gap * PHYS.hw0 * 1e3)
    assert 0.0 <= report.sx_contrast <= 2.0
    assert report.pair_flag
    z0, z1 = report.localization
    assert z0 < 0 < z1  # gamma < 0: ground in the left well


def test_qubit_report_gap_uev_optional(small_solution):
    problem, sol = small_solution
    assert hq.qubit_report(sol, problem).gap_uev is None


def test_tilt_sign_swap_mirrors_localization():
    spec = small_spec(L=6, N=8)
    left = hq.assemble(hq.scale(PHYS), spec)
    sol_left = hq.solve(left, 2)
    right = hq.assemble(hq.scale(dataclasses.replace(PHYS, gamma=1e-3)),
                        spec)
    sol_right = hq.solve(right, 2)
    rep_l = hq.qubit_report(sol_left, left)
    rep_r = hq.qubit_report(sol_right, right)
    assert rep_l.gap == pytest.approx(rep_r.gap, rel=1e-8)
    assert rep_l.localization[0] == pytest.approx(-rep_r.localization[0],
                                                  rel=1e-6)
    assert rep_l.localization[1] == pytest.approx(-rep_r.localization[1],
                                                  rel=1e-6)


def test_sx_contrast_zero_without_gradient():
    no_gradient = dataclasses.replace(PHYS, bSLa=0.0)
    problem = hq.assemble(hq.scale(no_gradient), small_spec(L=6, N=8))
    sol = hq.solve(problem, 2)
    assert hq.qubit_report(sol, problem).sx_contrast < 1e-10


def test_crossing_scan_parallel_levels():
    xs = np.linspace(0, 1, 9)
    energies = np.column_stack([xs * 0.1, 0.5 + xs * 0.1])
    z = np.column_stack([np.full(9, -1.0), np.full(9, 1.0)])
    assert hq.crossing_scan(xs, energies, z) == []


def test_crossing_scan_synthetic_hyperbola():
    xs = np.linspace(-1, 1, 11)
    delta = 0.05
    half_gap = np.sqrt(delta ** 2 + xs ** 2)
    energies = np.column_stack([-half_gap, half_gap])
    z = np.column_stack([np.sign(xs + 1e-12), -np.sign(xs + 1e-12)])
    found = hq.crossing_scan(xs, energies, z)
    assert len(found) == 1
    crossing = found[0]
    assert crossing.lower_level == 0
    assert crossing.x == pytest.approx(0.0, abs=1e-12)
    assert crossing.gap == pytest.approx(2 * delta, rel=1e-12)


def test_crossing_scan_validation():
    with pytest.raises(ValueError):
        hq.crossing_scan([0, 1], np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        hq.crossing_scan([0, 1, 2], np.zeros((3, 2)), np.zeros((2, 2)))
    for xs in ([0, 2, 1], [0, 1, 1], [2, 1, 0]):
        with pytest.raises(ValueError):
            hq.crossing_scan(xs, np.zeros((3, 2)), np.zeros((3, 2)))
