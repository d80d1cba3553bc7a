"""1D quartic double-well reference solver, regimes and contour fits."""

import numpy as np
import pytest
import scipy.linalg

import hybridq as hq
from hybridq import basis, solver
import oracles


def test_deep_wells_ground_state_near_half():
    # harmonic expansion about a minimum gives a local frequency of w0
    levels = hq.solve_1d(30.0, 45.0, gamma=0.0, n_basis=24)
    assert 0.44 < levels[0] < 0.5


def test_gap_floor_at_twice_tilt():
    levels = hq.solve_1d(30.0, 34.0, gamma=-1e-3, n_basis=24)
    gap = levels[1] - levels[0]
    assert gap == pytest.approx(2e-3, rel=0.1)


def test_quasidegenerate_pairs_without_tilt():
    levels = hq.solve_1d(30.0, 34.0, gamma=0.0, n_basis=24, n_lowest=4)
    assert levels[1] - levels[0] < 2e-4
    assert levels[3] - levels[2] < 5e-3
    # the pair splitting is far smaller than the interwell ladder spacing
    assert levels[2] - levels[0] > 0.5


def test_matches_finite_difference_oracle():
    cases = [(10.0, 20.0), (10.0, 40.0), (30.0, 12.0), (30.0, 30.0),
             (50.0, 8.0), (50.0, 25.0)]
    for hw0, a in cases:
        scaled = hq.scale(hq.PhysicalParams(hw0=hw0, a=a, gamma=-1e-3))
        ritz = hq.solve_1d(hw0, a, gamma=-1e-3, n_basis=24, n_lowest=4)
        fd = oracles.fd_levels_1d(scaled.r_a, scaled.ab_ratio, -1e-3, k=4)
        np.testing.assert_allclose(ritz, fd, rtol=1e-3)


@pytest.mark.parametrize("point, twin", [
    ((30.0, 30.0), (120.0, 15.0)),
    ((10.0, 30.0), (40.0, 15.0)),
    ((30.0, 20.0), (7.5, 40.0)),
])
def test_levels_depend_on_a_squared_hw0_alone(point, twin):
    # with b = a and gamma fixed the scaled Hamiltonian reads only r_a,
    # which is proportional to 1/(a^2 hw0); these pairs round to one r_a
    assert np.array_equal(hq.solve_1d(*point, gamma=-1e-3),
                          hq.solve_1d(*twin, gamma=-1e-3))


def test_levels_at_a_rounded_r_a_agree_to_rounding():
    # a^2 hw0 = 32000 at both points, but r_a differs by 2.4e-16 relative;
    # the levels then differ by 1.1e-14 relative (measured)
    levels = hq.solve_1d(20.0, 40.0, gamma=-1e-3)
    twin = hq.solve_1d(45.0, 80.0 / 3.0, gamma=-1e-3)
    assert not np.array_equal(levels, twin)
    np.testing.assert_allclose(twin, levels, rtol=2e-14, atol=0)


def test_classify_regimes_synthetic_exponential():
    a = np.linspace(10.0, 40.0, 31)
    gaps = np.exp(-0.5 * a)
    regimes = hq.classify_regimes(a, gaps)
    assert regimes.exponential is not None
    lo, hi = regimes.exponential
    assert hi - lo >= 25  # dominant run
    assert regimes.floor is None


def test_classify_regimes_synthetic_floor_and_power():
    a = np.linspace(5.0, 50.0, 46)
    gaps = np.maximum((a / 5.0) ** -0.8, 0.3)  # power decay onto a floor
    regimes = hq.classify_regimes(a, gaps)
    assert regimes.algebraic is not None
    assert regimes.algebraic[0] == 0
    assert regimes.floor is not None
    assert regimes.floor[1] == len(a) - 1


def _regimes_of_labels(labels: str) -> hq.quartic1d.CurveRegimes:
    """Regimes of a curve whose midpoint slopes carry the given labels:
    "a" algebraic (slope -1), "e" exponential (-3), "f" floor (0)."""
    slope = {"a": -1.0, "e": -3.0, "f": 0.0}
    a = np.exp(np.arange(len(labels) + 1.0))
    gaps = np.exp(np.concatenate([[0.0],
                                  np.cumsum([slope[c] for c in labels])]))
    return hq.classify_regimes(a, gaps)


@pytest.mark.parametrize("labels, want", [
    # two equally long exponential runs: the first one wins
    ("aeefeef", ((0, 1), (1, 3), (6, 7))),
    ("eeaee", (None, (0, 2), None)),
    # interior floor runs are not the floor
    ("affeffea", ((0, 1), (3, 4), None)),
    ("ffeeff", (None, (2, 4), (4, 6))),
    # an all-floor curve is one floor and nothing else
    ("ff", (None, None, (0, 2))),
    ("ffffff", (None, None, (0, 6))),
])
def test_classify_regimes_runs(labels, want):
    regimes = _regimes_of_labels(labels)
    assert (regimes.algebraic, regimes.exponential, regimes.floor) == want


def test_classify_regimes_needs_three_points():
    assert hq.classify_regimes([10.0, 20.0], [1e-2, 1e-3]) == \
        hq.quartic1d.CurveRegimes(None, None, None)


def test_solve_1d_rejects_an_empty_basis():
    with pytest.raises(ValueError, match="n_basis"):
        hq.solve_1d(30.0, 30.0, n_basis=0)


def test_solve_1d_answers_a_level_request_as_solve_does():
    # at a = 0.5 nm the wells merge and 3 z-levels per parity keep 5 of
    # the 6 overlap directions: 5 levels are there, 6, 0 and -1 are not
    levels = hq.solve_1d(30.0, 0.5, n_basis=3, n_lowest=5)
    assert len(levels) == 5
    for n_lowest in (6, 0, -1):
        with pytest.raises(hq.ReducedBasisError, match="between 1 and"):
            hq.solve_1d(30.0, 0.5, n_basis=3, n_lowest=n_lowest)
    assert issubclass(hq.ReducedBasisError, ValueError)


def test_gap_surface_monotone_until_floor():
    surface = hq.gap_surface([30.0], np.arange(14.0, 36.0, 1.0),
                             gamma=-1e-3, n_basis=22)
    gaps = surface.gaps[0]
    drops = np.diff(gaps)
    # nonincreasing until the tilt floor (tolerate floor-level jitter)
    assert np.all(drops <= max(1e-9, 0.02 * gaps.min()))


def test_gap_surface_takes_no_default_tilt():
    # the tilt default lives in PhysicalParams (0), which the CLI reads
    with pytest.raises(TypeError, match="gamma"):
        hq.gap_surface([30.0], [20.0, 30.0])


def test_gap_surface_no_floor_without_tilt():
    surface = hq.gap_surface([30.0], np.arange(16.0, 31.0, 1.0),
                             gamma=0.0, n_basis=22)
    regimes = surface.regimes[0]
    assert regimes.floor is None
    assert regimes.exponential is not None


def test_gap_surface_curve_ordering_in_hw0():
    surface = hq.gap_surface([10.0, 30.0], np.arange(16.0, 26.0, 1.0),
                             gamma=-1e-3, n_basis=22)
    # larger hw0 at fixed a gives the smaller scaled gap (Fig. 3a ordering)
    assert np.all(surface.gaps[1] < surface.gaps[0])


def _step_surface(amplitude: float, target: float) -> hq.GapSurface:
    """Synthetic surface whose extracted contour is exactly
    a = amplitude * hw0^(-1/2)."""
    hw0 = np.array([10.0, 15.0, 20.0, 30.0, 40.0, 50.0])
    a_star = amplitude / np.sqrt(hw0)
    a_grid = np.unique(np.concatenate([a_star, np.linspace(0.5, 3.0, 26)]))
    gaps = np.empty((len(hw0), len(a_grid)))
    for i, ai in enumerate(a_star):
        gaps[i] = np.where(a_grid >= ai, target, 2.0 * target)
    return hq.GapSurface(hw0, a_grid, gaps)


def test_contour_fit_roundtrip_exact():
    fit = hq.contour_fit(_step_surface(7.0, 1e-3), 1e-3)
    assert fit.exponent == pytest.approx(-0.5, abs=1e-6)
    assert fit.amplitude == pytest.approx(7.0, rel=1e-6)
    assert fit.skipped_hw0 == ()


def test_contour_fit_smaller_target_needs_larger_a():
    surface = hq.gap_surface([10.0, 20.0, 30.0, 40.0],
                             np.arange(12.0, 45.0, 1.0),
                             gamma=-1e-3, n_basis=22)
    tight = hq.contour_fit(surface, 3e-3)
    loose = hq.contour_fit(surface, 8e-3)
    shared = np.intersect1d(tight.hw0_values, loose.hw0_values)
    for hw0 in shared:
        a_tight = tight.a_values[list(tight.hw0_values).index(hw0)]
        a_loose = loose.a_values[list(loose.hw0_values).index(hw0)]
        assert a_tight >= a_loose


def test_contour_fit_reports_unreachable_columns():
    surface = hq.gap_surface([10.0, 30.0], np.arange(12.0, 30.0, 1.0),
                             gamma=-1e-3, n_basis=22)
    # 1e-4 sits below the 2|gamma| floor: nothing to extract
    with pytest.raises(ValueError):
        hq.contour_fit(surface, 1e-4)


def test_contour_fit_skips_a_row_with_a_failed_point():
    # the hw0 = 20 row reaches no target before its failed (NaN) point
    surface = hq.GapSurface(
        hw0_values=np.array([10.0, 20.0, 30.0]),
        a_values=np.array([10.0, 20.0, 30.0]),
        gaps=np.array([[5e-2, 4e-3, 2e-3], [5e-2, 4e-2, np.nan],
                       [5e-2, 2e-3, 1e-3]]))
    fit = hq.contour_fit(surface, 3e-3)
    assert fit.skipped_hw0 == (20.0,)
    assert list(fit.hw0_values) == [10.0, 30.0]
    assert list(fit.a_values) == [30.0, 20.0]
    # the surface's regimes follow its gaps: the failed row has none
    assert surface.regimes[1] == hq.quartic1d.CurveRegimes(None, None, None)


def test_contour_fit_takes_the_first_a_at_or_below_the_target():
    # the first row rises again after its first hit, as rows on the
    # 2|gamma| floor do: the contour point is that first hit, index 1
    surface = hq.GapSurface(
        hw0_values=np.array([10.0, 20.0]),
        a_values=np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
        gaps=np.array([[10.0, 1.9, 2.1, 1.9, 1.8],
                       [10.0, 5.0, 3.0, 2.0, 1.0]]))
    fit = hq.contour_fit(surface, 2.0)
    assert list(fit.a_values) == [20.0, 40.0]


def test_classify_regimes_rejects_a_curve_with_a_failed_point():
    a = np.linspace(10.0, 40.0, 31)
    gaps = np.exp(-0.5 * a)
    gaps[15] = np.nan
    assert hq.classify_regimes(a, gaps) == hq.quartic1d.CurveRegimes(
        None, None, None)


def test_contour_fit_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        hq.contour_fit(_step_surface(7.0, 1e-3), -1.0)


def _quartic_tables(hw0: float, a: float, n_basis: int):
    """Dense 1D Hamiltonian and overlap of ``solve_1d``, written out here
    independently of the program's assembly."""
    scaled = hq.scale(hq.PhysicalParams(hw0=hw0, a=a, gamma=-1e-3))
    eta = 1.0 / np.sqrt(scaled.r_a)
    t = {kind: basis.z_element_table(kind, eta, n_basis)
         for kind in ("1", "dz2", "quartic", "z")}
    h = (-0.5 * scaled.r_a * t["dz2"]
         + scaled.ab_ratio / (8.0 * scaled.r_a) * t["quartic"]
         + 1e-3 * t["z"])
    return h, t["1"]


# (hw0, a) at N = 22 in each class of the relative smallest z-overlap
# eigenvalue: below the 2D drop floor (merged wells), between the 2D and
# the 1D floor (dropped in 1D only), and above the 1D floor (every
# direction kept)
OVERLAP_CLASSES = [(30.0, 20.0, 0.0, 1e-12), (30.0, 33.0, 1e-12, 1e-10),
                   (30.0, 45.0, 1e-10, 1.0)]


@pytest.mark.parametrize("hw0, a, lo, hi", OVERLAP_CLASSES,
                         ids=["merged", "between", "regular"])
def test_solve_1d_matches_generalized_reference(hw0, a, lo, hi):
    h, S = _quartic_tables(hw0, a, 22)
    s_vals, s_vecs = np.linalg.eigh(S)
    assert lo <= s_vals[0] / s_vals[-1] < hi
    kept = s_vecs[:, s_vals > solver.DROP_FRACTION_1D * s_vals[-1]]
    reference = scipy.linalg.eigh(kept.T @ h @ kept, kept.T @ S @ kept,
                                  eigvals_only=True)
    # the default six lowest levels; the top of a redundant basis's
    # spectrum is not reproducible to 1e-12 between two reductions
    levels = hq.solve_1d(hw0, a, gamma=-1e-3, n_basis=22)
    np.testing.assert_allclose(levels, reference[:6], rtol=1e-12, atol=0)
