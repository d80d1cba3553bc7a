"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -v -s`` to
see them stream).  Shared full-size sweeps come from session fixtures in
conftest.py.
"""

import dataclasses

import numpy as np
import pytest

import hybridq as hq
from hybridq import basis
from conftest import (FIG4_PHYSICAL, FIG4_SPEC, W0_VALUES, small_spec,
                      z_element)

import oracles


def _report(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


# ---------------------------------------------------------------- 1
def test_criterion_1_ground_state_stabilization(stabilization_table):
    variation = stabilization_table.variation(0, 0.5, 1.0)
    ok = variation < 2e-5
    assert _report(ok, "criterion 1a",
                   f"ground-state relative variation {variation:.2e} over "
                   "mu in [0.5, 1.0] (bound 2e-5)")


def test_criterion_1_thirty_stabilized_levels(stabilization_table):
    variations = np.array([stabilization_table.variation(lev, 0.55, 0.70)
                           for lev in range(40)])
    count = int(np.sum(variations <= 1e-4))
    ok = count >= 30
    _report(ok, "criterion 1b",
            f"{count} of the lowest 40 eigenvalues hold a 1e-4 plateau "
            f"covering mu in (0.55, 0.70) (need >= 30; "
            f"{int(np.sum(variations <= 1e-3))} pass at 1e-3)")
    assert ok


# ---------------------------------------------------------------- 2
def test_criterion_2_qubit_gap_constant(bsl_sweep):
    nonzero = bsl_sweep["bsl"] > 0
    gaps = bsl_sweep["gap"][nonzero]
    in_band = np.all((gaps >= 2e-3 * 0.75) & (gaps <= 2e-3 * 1.25))
    variation = float(np.ptp(gaps) / gaps.mean())
    ok = bool(in_band and variation < 0.20)
    assert _report(ok, "criterion 2a",
                   f"gap/hw0 in [{gaps.min():.3e}, {gaps.max():.3e}] "
                   f"(2e-3 +- 25%), sweep variation {variation:.1%} (< 20%)")


def test_criterion_2_no_avoided_crossings(bsl_sweep):
    found = hq.crossing_scan(bsl_sweep["bsl"],
                             bsl_sweep["energies"][:, :6],
                             bsl_sweep["z"][:, :6])
    ok = found == []
    assert _report(ok, "criterion 2b",
                   f"{len(found)} avoided crossings among the lowest three "
                   "level pairs over bSLa in [0, 2] T (need 0)")


# ---------------------------------------------------------------- 3
def test_criterion_3_localization_pattern(bsl_sweep):
    z = bsl_sweep["z"][-1, :4]  # bSLa = 2 T
    signs_ok = (z[0] < 0 < z[1]) and (z[2] < 0 < z[3])
    magnitude_ok = np.all(np.abs(z) > 0.9)
    ok = bool(signs_ok and magnitude_ok)
    assert _report(ok, "criterion 3",
                   "<z/a> of the first four states at bSLa = 2 T: "
                   + np.array2string(z, precision=3)
                   + " (alternating -,+,-,+ with |z| > 0.9)")


# ---------------------------------------------------------------- 4
def test_criterion_4_spin_observable_vs_gradient(bsl_sweep):
    sx0 = bsl_sweep["sx"][:, 0]
    zero_at_zero = abs(sx0[0]) < 1e-10
    below_one = np.all(np.abs(sx0) < 1.0)
    nondecreasing = np.all(np.diff(np.abs(sx0)) >= -1e-9)
    ok = bool(zero_at_zero and below_one and nondecreasing)
    assert _report(ok, "criterion 4a",
                   f"|<sx>_0| runs {abs(sx0[0]):.1e} -> {abs(sx0[-1]):.4f} "
                   "over bSLa in [0, 2] T (0 at 0, < 1, nondecreasing)")


def test_criterion_4_zeeman_curve_ordering(b0_scan):
    magnitudes = np.abs(b0_scan["sx0"])
    ok = bool(np.all(np.diff(magnitudes) < 0))
    assert _report(ok, "criterion 4b",
                   "|<sx>_0| at bSLa = 2 T for B0 = "
                   + np.array2string(b0_scan["B0"], precision=1) + " T: "
                   + np.array2string(magnitudes, precision=4)
                   + " (pointwise decreasing)")


# ---------------------------------------------------------------- 5
@pytest.fixture(scope="module")
def quartic_surface():
    return hq.gap_surface(np.arange(10.0, 51.0, 5.0),
                          np.arange(4.0, 61.0, 1.0),
                          gamma=-1e-3, n_basis=22)


def test_criterion_5_three_regimes(quartic_surface):
    missing = []
    for hw0, regime in zip(quartic_surface.hw0_values,
                           quartic_surface.regimes):
        for name in ("algebraic", "exponential", "floor"):
            if getattr(regime, name) is None:
                missing.append(f"{name}@{hw0:g}meV")
    ok = not missing
    assert _report(ok, "criterion 5a",
                   "all three decay regimes on every gap curve"
                   + ("" if ok else f"; missing: {missing}"))


def test_criterion_5_exponential_middle_decade(quartic_surface):
    worst = 1.0
    for i, regime in enumerate(quartic_surface.regimes):
        lo, hi = regime.exponential
        a = quartic_surface.a_values[lo:hi + 1]
        g = quartic_surface.gaps[i, lo:hi + 1]
        mid = np.sqrt(g.max() * g.min())
        mask = (g >= mid / np.sqrt(10.0)) & (g <= mid * np.sqrt(10.0))
        if mask.sum() < 3:
            mask = np.ones_like(mask, dtype=bool)
        coeffs = np.polyfit(a[mask], np.log(g[mask]), 1)
        fitted = np.polyval(coeffs, a[mask])
        resid = np.log(g[mask]) - fitted
        total = np.sum((np.log(g[mask]) - np.log(g[mask]).mean()) ** 2)
        r2 = 1.0 - np.sum(resid ** 2) / total
        worst = min(worst, r2)
    ok = worst > 0.99
    assert _report(ok, "criterion 5b",
                   f"semilog middle-decade fit R^2 >= {worst:.5f} on every "
                   "curve (bound 0.99)")


def test_criterion_5_floor_level(quartic_surface):
    levels = []
    for i, regime in enumerate(quartic_surface.regimes):
        lo, hi = regime.floor
        levels.append(float(np.median(quartic_surface.gaps[i, lo:hi + 1])))
    levels = np.array(levels)
    ok = bool(np.all(levels > 1e-3) and np.all(levels < 4e-3))
    assert _report(ok, "criterion 5c",
                   f"floor gaps in [{levels.min():.2e}, {levels.max():.2e}]"
                   " (2|gamma| = 2e-3 within factor 2)")


def test_criterion_5_contour_exponent(quartic_surface):
    exponents = []
    for target in (3e-3, 5e-3, 1e-2):
        fit = hq.contour_fit(quartic_surface, target)
        exponents.append(fit.exponent)
    exponents = np.array(exponents)
    ok = bool(np.all(np.abs(exponents + 0.5) <= 0.05))
    assert _report(ok, "criterion 5d",
                   "contour-fit exponents "
                   + np.array2string(exponents, precision=3)
                   + " for targets 3e-3/5e-3/1e-2 (-0.50 +- 0.05)")


# ---------------------------------------------------------------- 6
def test_criterion_6_quadrature_oracle_z():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        kind = str(rng.choice(basis.Z_KINDS))
        n, m = map(int, rng.integers(0, 13, 2))
        p, q = int(rng.choice([1, -1])), int(rng.choice([1, -1]))
        eta = float(rng.uniform(1.0, 8.0))
        spec = hq.BasisSpec(eta=eta, mu=0.7, L=2, N=13)
        got = z_element(kind, n, p, m, q, spec)
        want = oracles.quad_element_z(kind, n, p, m, q, eta)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    assert _report(ok, "criterion 6a",
                   f"500 random z-elements vs 200-point Gauss-Hermite: "
                   f"worst |diff| = {worst:.2e} (bound 1e-12)")


def test_criterion_6_quadrature_oracle_y():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(150):
        kind = str(rng.choice(basis.Y_KINDS))
        k, l = map(int, rng.integers(0, 13, 2))
        mu = float(rng.uniform(0.3, 2.0))
        got = float(basis.y_element_table(kind, mu, 13)[k, l])
        want = oracles.quad_element_chi(kind, k, l, mu)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    assert _report(ok, "criterion 6a(y)",
                   f"150 random y-elements vs quadrature: worst |diff| = "
                   f"{worst:.2e} (bound 1e-12)")


def test_criterion_6_1d_finite_difference():
    worst = 0.0
    for hw0, a in ((10.0, 20.0), (10.0, 40.0), (30.0, 12.0), (30.0, 30.0),
                   (50.0, 8.0), (50.0, 25.0)):
        scaled = hq.scale(hq.PhysicalParams(hw0=hw0, a=a, gamma=-1e-3))
        ritz = hq.solve_1d(hw0, a, gamma=-1e-3, n_basis=24, n_lowest=4)
        fd = oracles.fd_levels_1d(scaled.r_a, scaled.ab_ratio, -1e-3, k=4)
        worst = max(worst, float(np.max(np.abs(ritz - fd) / np.abs(fd))))
    ok = worst <= 1e-3
    assert _report(ok, "criterion 6b",
                   f"1D Ritz vs finite differences over the parameter box: "
                   f"worst relative deviation {worst:.2e} (bound 1e-3)")


def test_criterion_6_2d_finite_difference():
    physical = hq.PhysicalParams(hw0=20.0, a=20.0, gamma=-1e-3, B0=2.0,
                                 bSLa=1.0)
    scaled = hq.scale(physical)
    spec = hq.BasisSpec(eta=1.0 / np.sqrt(scaled.r_a),
                        mu=float(np.sqrt(scaled.r_c / (2 * scaled.r_a))),
                        L=10, N=10)
    sol = hq.solve(hq.assemble(scaled, spec), 4)
    fd = oracles.fd_levels_2d(scaled, k=4)
    worst = float(np.max(np.abs(sol.energies - fd) / np.abs(fd)))
    ok = worst <= 1e-3
    assert _report(ok, "criterion 6c",
                   f"2D Ritz (L=N=10) vs two-component finite differences: "
                   f"worst relative deviation {worst:.2e} (bound 1e-3)")


# ---------------------------------------------------------------- 7
def test_criterion_7_structural_properties(fig4_problem, fig4_solution):
    failures = []

    H = fig4_problem.H
    if np.max(np.abs(H - H.conj().T)) != 0.0:
        failures.append("hermiticity")
    ms = fig4_problem.size // 2
    # the two off-diagonal spin blocks are equal (sigma_x structure)
    if np.max(np.abs(H[:ms, ms:] - H[ms:, :ms])) >= 1e-12:
        failures.append("spin-block structure")
    # the condition number is finite only with a positive overlap
    s_condition = fig4_solution.s_condition
    if not np.isfinite(s_condition):
        failures.append("overlap positivity")
    # regression band around the recorded working-point conditioning
    if not 3e9 < s_condition < 4e10:
        failures.append(f"overlap condition {s_condition:.2e}")

    C = fig4_solution.coefficients
    gram = C.conj().T @ fig4_problem.S @ C
    if np.max(np.abs(gram - np.eye(fig4_solution.n_states))) > 1e-10:
        failures.append("S-orthonormality")
    residual = fig4_problem.H @ C - fig4_problem.S @ C \
        * fig4_solution.energies
    rel = np.linalg.norm(residual, axis=0) \
        / np.linalg.norm(fig4_problem.S @ C, axis=0)
    if rel.max() > 1e-10 * np.abs(fig4_solution.energies).max():
        failures.append("eigenresidual")

    scaled = hq.scale(FIG4_PHYSICAL)
    small = hq.solve(hq.assemble(scaled, small_spec(L=5, N=5)), 8).energies
    big = hq.solve(hq.assemble(scaled, small_spec(L=7, N=7)), 8).energies
    if not np.all(big <= small + 1e-10 * np.abs(small)):
        failures.append("variational monotonicity")

    import scipy.linalg
    no_grad = hq.assemble(hq.scale(dataclasses.replace(FIG4_PHYSICAL,
                                                       bSLa=0.0)),
                          small_spec())
    ms = no_grad.size // 2
    if np.max(np.abs(no_grad.H[:ms, ms:])) != 0.0:
        failures.append("spin decoupling")
    up = scipy.linalg.eigh(no_grad.H[:ms, :ms], no_grad.s_spatial,
                           eigvals_only=True)
    down = scipy.linalg.eigh(no_grad.H[ms:, ms:], no_grad.s_spatial,
                             eigvals_only=True)
    if not np.allclose(down - up, scaled.r_c, rtol=1e-9):
        failures.append("spin shift r_c")

    plus = hq.solve(hq.assemble(hq.scale(
        dataclasses.replace(FIG4_PHYSICAL, gamma=1e-3)), small_spec()), 10)
    minus = hq.solve(hq.assemble(hq.scale(
        dataclasses.replace(FIG4_PHYSICAL, gamma=-1e-3)), small_spec()), 10)
    if not np.allclose(plus.energies, minus.energies, rtol=1e-10,
                       atol=1e-12):
        failures.append("tilt mirror symmetry")

    ok = not failures
    assert _report(ok, "criterion 7",
                   "hermiticity 0, equal sigma_x spin blocks, S condition "
                   f"{s_condition:.2e} logged, orthonormality/"
                   "residual <= 1e-10, monotonicity, spin decoupling, "
                   "tilt mirror" + ("" if ok else f"; FAILED: {failures}"))


# ---------------------------------------------------------------- 8
def test_criterion_8_sensitivity_to_hw0(w0_scan):
    reference = w0_scan[30.0]
    deviations = {}
    for hw0 in (24.0, 36.0):
        row = w0_scan[hw0]
        deviations[hw0] = {
            "gap": abs(row["gap"] / reference["gap"] - 1.0),
            "sx0": abs(abs(row["sx0"]) / abs(reference["sx0"]) - 1.0),
            "z0": abs(abs(row["z0"]) / abs(reference["z0"]) - 1.0),
        }
    worst = max(v for d in deviations.values() for v in d.values())
    ok = worst < 0.25
    assert _report(ok, "criterion 8a",
                   f"qubit metrics change by at most {worst:.1%} under "
                   "+-20% changes of hw0 at bSLa = 2 T (bound 25%)")


def test_criterion_8_curve_ordering(w0_scan):
    sx20, sx30 = abs(w0_scan[20.0]["sx0"]), abs(w0_scan[30.0]["sx0"])
    ok = sx20 < sx30
    assert _report(ok, "criterion 8b",
                   f"|<sx>_0| at bSLa = 2 T: {sx20:.4f} (20 meV) < "
                   f"{sx30:.4f} (30 meV); the softer dot needs a larger "
                   "gradient to reach the same spin contrast")
