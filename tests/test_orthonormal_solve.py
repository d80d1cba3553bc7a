"""The real Kronecker-factor solve against the dense generalized reference.

``solve`` and ``state_report`` never build the dense matrices; these tests
build them and check that the fast path returns the same eigenpairs as
``scipy.linalg.eigh(H, S)``, in the original basis, and the same
expectation values as the dense spin-block forms.  A redundant basis is
checked against the dense pencil on the same kept subspace.  The band
storage and the inertia count are checked against the dense reduced
Hamiltonian of ``oracles``, ``solver._lanczos`` against ``eig_banded`` on
the same band, and the Lanczos path at the working point against its
``eigh``; a Lanczos run that loses a level, or one that never
reorthogonalizes, must not pass.  The shift must lie below the oracle's
lowest level.
``solve`` runs on one BLAS thread: it must give the default thread count's
result and leave the caller's counts as they were.
"""

import contextlib
import ctypes
import dataclasses
import importlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dsbmv
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridq as hq
from hybridq import assembly, parallel, solver
from conftest import FIG4_PHYSICAL, FIG4_SPEC, small_spec

import oracles

BASE = hq.PhysicalParams(hw0=30.0, a=30.0, gamma=-1e-3, B0=0.5, bSLa=1.5)

# the three branches of the Hamiltonian: no Zeeman field (spin
# degenerate), Zeeman field without gradient (spin split) and the
# slanting field with either tilt
PHYSICS = {
    "B0-zero": dataclasses.replace(BASE, B0=0.0, bSLa=0.0),
    "no-gradient": dataclasses.replace(BASE, bSLa=0.0),
    "gradient-tilt-minus": BASE,
    "gradient-tilt-plus": dataclasses.replace(BASE, gamma=1e-3),
}
SPECS = [(1, 1), (1, 4), (3, 1), (3, 4), (5, 3)]


@pytest.mark.parametrize("L, N", SPECS, ids=[f"L{L}N{N}" for L, N in SPECS])
@pytest.mark.parametrize("physics", PHYSICS, ids=list(PHYSICS))
def test_fast_solve_matches_dense_reference(physics, L, N):
    problem = hq.assemble(hq.scale(PHYSICS[physics]), small_spec(L=L, N=N))
    sol = hq.solve(problem, problem.size)
    # the y-ladder chi_k = i^k phi_k keeps every branch real
    for array in (problem.H, problem.S, sol.coefficients):
        assert array.dtype == np.float64
    reference = scipy.linalg.eigh(problem.H, problem.S, eigvals_only=True)
    np.testing.assert_allclose(sol.energies, reference, rtol=1e-12, atol=0)

    C, E = sol.coefficients, sol.energies
    SC = problem.S @ C
    gram = C.T @ SC
    assert np.max(np.abs(gram - np.eye(problem.size))) <= 1e-10
    residual = np.linalg.norm(problem.H @ C - SC * E, axis=0) \
        / np.linalg.norm(SC, axis=0)
    assert residual.max() <= 1e-10 * np.abs(E).max()


# bases whose S_z falls below the 2D drop floor: eta = 4 with more z-levels
# than the working point's N = 20, and merged wells, where the relative
# error (measured 2.2e-11) reflects the 1e12 condition of the kept S_z.
# At L = 1 the shift's bracket closes (h is its first diagonal block); at
# N = 80 a shift at rounding distance below E_0 cost 3.8e-4 relative
REDUNDANT = [(4.0, 2, 24, 2, 1e-12), (4.0, 1, 28, 4, 1e-12),
             (4.0, 1, 80, 41, 1e-12), (0.05, 2, 8, 6, 1e-10)]


@pytest.mark.parametrize("eta, L, N, n_dropped, rtol", REDUNDANT,
                         ids=["eta4-L2N24", "eta4-L1N28", "eta4-L1N80",
                              "merged-wells"])
@pytest.mark.parametrize("physics",
                         ["B0-zero", "no-gradient", "gradient-tilt-minus",
                          "gradient-tilt-plus"])
def test_redundant_basis_matches_kept_subspace_reference(physics, eta, L, N,
                                                         n_dropped, rtol):
    problem = hq.assemble(hq.scale(PHYSICS[physics]),
                          small_spec(L=L, N=N, eta=eta))
    sol = hq.solve(problem, 8)
    assert sol.n_dropped == n_dropped
    if N == 28:
        # rounding leaves the smallest S_z eigenvalue below zero
        assert sol.s_condition == np.inf
    reference = oracles.kept_subspace_energies(problem,
                                               solver.DROP_FRACTION_2D)
    np.testing.assert_allclose(sol.energies, reference[:8], rtol=rtol,
                               atol=0)
    C = sol.coefficients
    gram = C.T @ problem.S @ C
    assert np.max(np.abs(gram - np.eye(sol.n_states))) <= 1e-10


@given(L=st.integers(1, 5), N=st.integers(1, 8),
       bsl=st.floats(0.0, 2.0, exclude_min=True), gamma=st.sampled_from(
           [-1e-3, 1e-3]))
# h is its first diagonal block at L = 1: the shift's bracket closes there
@example(L=1, N=8, bsl=1.5, gamma=-1e-3)
# the working point's physics: 1.1e-3 relative off with the shift at
# rounding distance from E_0
@example(L=1, N=80, bsl=2.0, gamma=-1e-3)
@settings(max_examples=25, deadline=None)
def test_band_solve_matches_kept_subspace_reference_anywhere(L, N, bsl,
                                                             gamma):
    physics = dataclasses.replace(BASE, bSLa=bsl, gamma=gamma)
    problem = hq.assemble(hq.scale(physics), small_spec(L=L, N=N))
    reference = oracles.kept_subspace_energies(problem,
                                               solver.DROP_FRACTION_2D)
    n_lowest = min(8, len(reference) - 2)
    sol = hq.solve(problem, n_lowest)
    np.testing.assert_allclose(sol.energies, reference[:n_lowest],
                               rtol=1e-12, atol=0)


def test_every_size_takes_lanczos_until_no_level_is_left_above(
        monkeypatch):
    # reduced size 64: Lanczos needs one level beyond the n_lowest it
    # certifies, so only the top two requests take eig_banded
    problem = hq.assemble(hq.scale(BASE), small_spec(L=4, N=4))
    reference = oracles.kept_subspace_energies(problem,
                                               solver.DROP_FRACTION_2D)
    size = len(reference)
    assert size == 64
    paths = []
    for owner, name in ((solver, "_lanczos"), (scipy.linalg, "eig_banded")):
        real = getattr(owner, name)

        def spy(*args, name=name, real=real, **kwargs):
            paths.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    for n_lowest, path in ((6, "_lanczos"), (size - 2, "_lanczos"),
                           (size - 1, "eig_banded"), (size, "eig_banded")):
        paths.clear()
        sol = hq.solve(problem, n_lowest)
        assert paths == [path]
        np.testing.assert_allclose(sol.energies, reference[:n_lowest],
                                   rtol=1e-12, atol=0)


def test_solve_and_observables_leave_dense_matrices_unbuilt():
    problem = hq.assemble(hq.scale(BASE), small_spec(L=4, N=4))
    sol = hq.solve(problem, 6)
    for j in range(4):
        hq.state_report(sol, j, problem)
    assert "H" not in vars(problem)
    assert "S" not in vars(problem)


def test_solve_leaves_spatial_overlap_unbuilt():
    problem = hq.assemble(hq.scale(BASE), small_spec(L=4, N=4))
    hq.solve(problem, 6)
    assert "s_spatial" not in vars(problem)


DENSE = ("H", "S", "s_spatial", "z_spatial")


@pytest.mark.parametrize("physics", ["gradient-tilt-minus", "B0-zero"])
def test_expectation_values_leave_dense_reference_unbuilt(physics):
    problem = hq.assemble(hq.scale(PHYSICS[physics]), small_spec(L=4, N=4))
    sol = hq.solve(problem, 6)
    if physics == "B0-zero":
        # spin-degenerate pairs: the solve ordered exact ties by <z'>
        assert np.any(np.diff(sol.energies) < solver.TIE_THRESHOLD)
    for j in range(sol.n_states):
        hq.state_report(sol, j, problem)
    assert not set(DENSE) & set(vars(problem))


def _assert_matches_dense(sol, problem, states):
    for j in states:
        report = hq.state_report(sol, j, problem)
        got = (report.z_mean, report.sx_mean, report.norm_check)
        want = oracles.dense_state_observables(sol, j, problem)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("L, N", SPECS, ids=[f"L{L}N{N}" for L, N in SPECS])
@pytest.mark.parametrize("physics", PHYSICS, ids=list(PHYSICS))
def test_state_report_matches_dense_forms(physics, L, N):
    problem = hq.assemble(hq.scale(PHYSICS[physics]), small_spec(L=L, N=N))
    sol = hq.solve(problem, problem.size)
    _assert_matches_dense(sol, problem, range(sol.n_states))


def test_state_report_matches_dense_forms_at_working_point(fig4_problem,
                                                           fig4_solution):
    _assert_matches_dense(fig4_solution, fig4_problem, range(8))


def _reduction(problem):
    transform = solver._orthonormalizer(
        *np.linalg.eigh(problem.z_tables["1"]), solver.DROP_FRACTION_2D)
    return (transform, *assembly.reduced_terms(problem, transform))


# L = 1 and 2 have a band narrower than 2b; at eta = 4, N = 24 the
# reduction drops 2 z-directions
@pytest.mark.parametrize("L, N", [(1, 3), (1, 4), (2, 2), (2, 4), (5, 3),
                                  (4, 4), (3, 24)],
                         ids=["L1N3", "L1N4", "L2N2", "L2N4", "L5N3", "L4N4",
                              "L3N24"])
def test_lower_band_is_the_permuted_dense_reduction(L, N):
    problem = hq.assemble(hq.scale(BASE), small_spec(L=L, N=N))
    transform, d, y, t, f = _reduction(problem)
    r = transform.shape[1]
    assert r == (2 * N - 2 if N == 24 else 2 * N)
    dense = oracles.orthonormal_hamiltonian(problem, transform)
    order = oracles.orthonormal_order(r, L)
    h = dense[np.ix_(order, order)]
    ab = assembly.lower_band(d, y, t, f)
    # the layout dpbtrf reads, so that f2py passes it without a copy
    assert ab.flags.f_contiguous
    width = ab.shape[0] - 1
    assert width == min(4 * r, 2 * r * L - 1)
    scale = np.abs(h).max()
    for offset in range(width + 1):
        np.testing.assert_allclose(ab[offset, :len(h) - offset],
                                   np.diagonal(h, -offset), rtol=0,
                                   atol=1e-15 * scale)
    # nothing lies outside the band
    assert not np.any(np.tril(h, -width - 1))


@pytest.mark.parametrize("L, N", [(4, 3), (5, 3)], ids=["L4N3", "L5N3"])
def test_inertia_count_matches_dense_spectrum(L, N):
    problem = hq.assemble(hq.scale(BASE), small_spec(L=L, N=N))
    transform, *terms = _reduction(problem)
    dense = oracles.orthonormal_hamiltonian(problem, transform)
    levels = np.linalg.eigvalsh(dense)
    for m in (1, 2, 7, len(levels) // 2, len(levels) - 1):
        tau = 0.5 * (levels[m - 1] + levels[m])
        assert solver._count_below(*terms, tau) == m
    assert solver._count_below(*terms, levels[0] - 1.0) == 0
    assert solver._count_below(*terms, levels[-1] + 1.0) == len(levels)


@given(L=st.sampled_from([1, 2, 3, 4, 5, 7]), N=st.integers(2, 4),
       bsl=st.floats(0.0, 2.0, exclude_min=True),
       kind=st.sampled_from(["midpoint", "uniform", "eigenvalue"]),
       where=st.floats(0.0, 1.0))
@example(L=4, N=3, bsl=1.5, kind="midpoint", where=0.5)
@example(L=5, N=3, bsl=1.5, kind="midpoint", where=0.5)
# fails if the count drops a 2 x 2 pivot, flips the Schur update, drops
# the update carried to (k + 2, k + 2), scales it by g_k instead of g_k^2,
# takes g_k from t, subtracts W instead of g_k W from (k + 2, k + 1), or
# reads the upper triangle of P_k^-1
@example(L=3, N=2, bsl=1.5, kind="midpoint", where=0.1)
# fails if the update of (k + 2, k + 2) is applied to (k + 1, k + 1)
@example(L=4, N=2, bsl=1.5, kind="midpoint", where=0.2)
@example(L=7, N=4, bsl=2.0, kind="uniform", where=0.0)
@example(L=7, N=4, bsl=2.0, kind="uniform", where=1.0)
@example(L=7, N=4, bsl=2.0, kind="eigenvalue", where=0.3)
@settings(max_examples=100, deadline=None)
def test_inertia_count_matches_dense_spectrum_anywhere(L, N, bsl, kind,
                                                     where):
    # L = 1 and 2 have no offset-2 blocks, L = 1 no offset-1 block either
    physics = dataclasses.replace(BASE, bSLa=bsl)
    problem = hq.assemble(hq.scale(physics), small_spec(L=L, N=N))
    transform, d, y, t, f = _reduction(problem)
    levels = np.linalg.eigvalsh(
        oracles.orthonormal_hamiltonian(problem, transform))
    if kind == "midpoint":
        m = 1 + round(where * (len(levels) - 2))
        tau = 0.5 * (levels[m - 1] + levels[m])
    elif kind == "uniform":
        # over the spectrum and a tenth of its width on either side
        spread = 1.2 * np.ptp(levels)
        tau = levels[0] - spread / 12 + where * spread
    else:
        tau = levels[round(where * (len(levels) - 1))]
    # within 1e-9 max|E| of a level, either count on its sides is exact
    tol = 1e-9 * np.abs(levels).max()
    lo, hi = np.sum(levels < tau - tol), np.sum(levels < tau + tol)
    count = solver._count_below(d, y, t, f, tau)
    if lo == hi:
        assert count == lo
    else:
        assert count == -1 or lo <= count <= hi


def test_an_exactly_singular_pivot_counts_minus_one():
    L = 5
    zero = np.zeros((L, L))
    terms = (np.diag([1.0, 2.0, 3.0, 4.0]), zero, zero, np.zeros((4, 4)))
    assert solver._count_below(*terms, 2.0) == -1
    assert solver._count_below(*terms, 2.5) == 2 * L


def test_one_inertia_count_needs_less_memory_than_the_blocks(
        fig4_problem, fig4_solution):
    _, *terms = _reduction(fig4_problem)
    ab = assembly.lower_band(*terms)
    tau = 0.5 * (fig4_solution.energies[7] + fig4_solution.energies[8])
    assert solver._count_below(*terms, tau) == 8
    tracemalloc.start()
    try:
        solver._count_below(*terms, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ab.nbytes / 2


# the working point's sweep ends (bSLa = 2, and 0 with its 4.4e-13 near
# tie), and B0 = 0, where every level is an exact spin pair
WORKING = {
    "fig4": FIG4_PHYSICAL,
    "bSLa-zero": dataclasses.replace(FIG4_PHYSICAL, bSLa=0.0),
    "B0-zero": dataclasses.replace(FIG4_PHYSICAL, B0=0.0, bSLa=0.0),
}


@pytest.mark.parametrize("physics, n_lowest", [
    ("fig4", 8), ("fig4", 32), ("fig4", 40), ("bSLa-zero", 40),
    ("B0-zero", 40)], ids=["fig4-8", "fig4-32", "fig4-40", "bSLa-zero-40",
                           "B0-zero-40"])
def test_band_solve_matches_dense_reference_at_working_point(
        monkeypatch, physics, n_lowest):
    problem = hq.assemble(hq.scale(WORKING[physics]), FIG4_SPEC)
    paths = []
    for name in ("_lanczos", "_separable_lowest"):
        real = getattr(solver, name)

        def spy(*args, name=name, real=real):
            paths.append(name)
            return real(*args)
        monkeypatch.setattr(solver, name, spy)
    sol = hq.solve(problem, n_lowest)
    # the slanting field couples spin and y; without it h separates
    assert paths == (["_lanczos"] if physics == "fig4"
                     else ["_separable_lowest"])

    transform = _reduction(problem)[0]
    reference = scipy.linalg.eigh(
        oracles.orthonormal_hamiltonian(problem, transform),
        subset_by_index=[0, n_lowest - 1], eigvals_only=True)
    np.testing.assert_allclose(sol.energies, reference, rtol=1e-12, atol=0)

    C, E = sol.coefficients, sol.energies
    SC = problem.S @ C
    assert np.max(np.abs(C.T @ SC - np.eye(n_lowest))) <= 1e-10
    residual = np.linalg.norm(problem.H @ C - SC * E, axis=0) \
        / np.linalg.norm(SC, axis=0)
    assert residual.max() <= 1e-10 * np.abs(E).max()

    reports = [hq.state_report(sol, j, problem) for j in range(n_lowest)]
    z_mean = np.array([report.z_mean for report in reports])
    ties = np.diff(E) < solver.TIE_THRESHOLD
    assert np.all(np.diff(z_mean)[ties] >= 0)
    if physics == "B0-zero":
        assert ties[0::2].all()
    if physics != "fig4":
        # one spin per level
        assert all(report.sx_mean == 0.0 for report in reports)


def _drop_level_one(real, calls):
    """A ``solver._lanczos`` that loses the second level."""
    def lanczos(*args):
        *head, k, ncv = args
        calls.append(k)
        vals, vecs = real(*head, k + 1, max(ncv, 2 * k + 3))
        keep = np.arange(k + 1) != 1
        return vals[keep], vecs[:, keep]
    return lanczos


def test_a_lost_level_is_retried_then_an_error(monkeypatch):
    problem = hq.assemble(hq.scale(BASE), small_spec(L=4, N=4))
    calls = []
    monkeypatch.setattr(solver, "_lanczos",
                        _drop_level_one(solver._lanczos, calls))
    with pytest.raises(hq.UncertifiedSpectrumError,
                       match=r"the last \(8 levels\) failed the inertia "
                             r"count: 8 eigenvalues below tau = \S+ where "
                             r"Lanczos found 7$"):
        hq.solve(problem, 6)
    assert calls == [7, 8]


def test_the_retry_recovers_a_lost_level(monkeypatch):
    problem = hq.assemble(hq.scale(BASE), small_spec(L=4, N=4))
    reference = hq.solve(problem, 6).energies
    real, calls = solver._lanczos, []
    lossy = _drop_level_one(real, calls)

    def first_call_loses_a_level(*args):
        return (lossy if not calls else real)(*args)
    monkeypatch.setattr(solver, "_lanczos", first_call_loses_a_level)
    sol = hq.solve(problem, 6)
    assert calls == [7]
    np.testing.assert_allclose(sol.energies, reference, rtol=1e-12, atol=0)


def _shifted_band(problem, n):
    """The lower band of h, and the shift and band Cholesky factor of
    h - sigma I that ``solver._banded_lowest`` takes for n levels; the
    shift factors a band of its own."""
    _, d, y, t, f = _reduction(problem)
    return (assembly.lower_band(d, y, t, f), *solver._shift(d, y, t, f, n))


def test_the_band_reaches_dpbtrf_column_major_and_is_factored_in_place(
        monkeypatch, fig4_problem):
    real, calls = solver.dpbtrf, []

    def spy(ab, **kwargs):
        factor, info = real(ab, **kwargs)
        calls.append((ab.flags.f_contiguous, kwargs.get("overwrite_ab"),
                      np.shares_memory(factor, ab)))
        return factor, info
    monkeypatch.setattr(solver, "dpbtrf", spy)
    hq.solve(fig4_problem, 8)
    # f2py copies a band in any other layout, or without overwrite_ab
    assert calls == [(True, 1, True)]


def test_four_failed_factorizations_are_an_uncertified_spectrum(
        monkeypatch):
    problem = hq.assemble(hq.scale(BASE), small_spec(L=4, N=4))
    calls = []

    def not_positive_definite(ab, **kwargs):
        calls.append(kwargs)
        return ab, 1
    monkeypatch.setattr(solver, "dpbtrf", not_positive_definite)
    with pytest.raises(hq.UncertifiedSpectrumError,
                       match=r"^h - sigma I is not positive definite down to "
                             r"sigma = \S+$"):
        hq.solve(problem, 6)
    assert len(calls) == 4


@pytest.mark.parametrize("band, n, k, cap", [
    ("fig4", 9, 9, None), ("fig4", 33, 33, None), ("fig4", 41, 41, None),
    ("L4N4", 7, 7, None), ("L4N4", 33, 33, None),
    # 2 levels converge within 20 steps, but the first check, at step 2,
    # schedules the next one after step 30: the cap itself is checked
    ("L4N4", 2, 2, 20),
    # as in a solve: n levels to eps, and one more that only places tau
    ("fig4", 8, 9, None), ("fig4", 32, 33, None), ("L4N4", 6, 7, None)],
    ids=["fig4-9", "fig4-33", "fig4-41", "L4N4-7", "L4N4-33", "L4N4-2-cap",
         "fig4-8-of-9", "fig4-32-of-33", "L4N4-6-of-7"])
def test_lanczos_matches_eig_banded(request, band, n, k, cap):
    problem = (request.getfixturevalue("fig4_problem") if band == "fig4"
               else hq.assemble(hq.scale(BASE), small_spec(L=4, N=4)))
    # Lanczos runs for one level more than the solve asks for
    ab, sigma, factor = _shifted_band(problem, k - 1)
    size = ab.shape[1]
    vals, vecs = solver._lanczos(
        factor, sigma, n, k, cap or min(size, 2 * k + solver.LANCZOS_SLACK))
    reference = scipy.linalg.eig_banded(ab, lower=True, select="i",
                                        select_range=(0, k - 1),
                                        eigvals_only=True)
    np.testing.assert_allclose(vals[:n], reference[:n], rtol=1e-12, atol=0)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 1e-12
    residual = [np.linalg.norm(dsbmv(len(ab) - 1, 1.0, ab, v, lower=1)
                               - e * v) for e, v in zip(vals[:n], vecs.T)]
    assert max(residual) <= 1e-10 * np.abs(vals).max()
    if n < k:
        # a Ritz value lies within its residual of an eigenvalue: in
        # theta = 1/(E - sigma), EXTRA_LEVEL_TOLERANCE relative
        extra = np.abs(vals[n:] - reference[n:]) / (reference[n:] - sigma)
        assert extra.max() <= 2 * solver.EXTRA_LEVEL_TOLERANCE
        tau = 0.5 * (vals[n - 1] + vals[n])
        assert reference[n - 1] < tau < reference[n]


def test_a_short_lanczos_cap_fails_both_tries(monkeypatch, fig4_problem):
    # the 9 levels of an 8-level solve at the working point need more
    # than 40 Lanczos steps
    ab, sigma, factor = _shifted_band(fig4_problem, 8)
    assert solver._lanczos(factor, sigma, 8, 9, 40) is None
    monkeypatch.setattr(solver, "LANCZOS_SLACK", 0)
    real, calls = solver._lanczos, []

    def counted(*args):
        found = real(*args)
        calls.append((*args[-2:], found is None))
        return found
    monkeypatch.setattr(solver, "_lanczos", counted)
    with pytest.raises(hq.UncertifiedSpectrumError,
                       match=r"the last \(10 levels\) did not converge "
                             r"within 40 steps$"):
        hq.solve(fig4_problem, 8)
    # the retry asks for one more level and doubles the cap
    assert calls == [(9, 18, True), (10, 40, True)]


def _count_calls(monkeypatch, *names):
    """Count the calls of the named ``solver`` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(solver, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(solver, name, spy)
    return calls


def test_a_lanczos_breakdown_returns_the_invariant_space(monkeypatch):
    # h - sigma I = 5 I: the start vector spans an invariant space, and
    # after the first step beta is rounding noise, not an exact zero
    factor = np.full((1, 4), np.sqrt(5.0))
    vals, vecs = solver._lanczos(factor, 1.0, 1, 1, 4)
    np.testing.assert_allclose(vals, [6.0], rtol=1e-15, atol=0)
    start = np.random.default_rng(0).standard_normal(4)
    np.testing.assert_allclose(np.abs(vecs[:, 0]),
                               np.abs(start) / np.linalg.norm(start),
                               rtol=1e-15, atol=0)
    # it holds fewer levels than asked for
    assert solver._lanczos(factor, 1.0, 2, 2, 4) is None

    # three distinct values, each three times: the Krylov space closes
    # after three steps, and the Gram-Schmidt pass at the breakdown keeps
    # less than DGKS of the rounding noise, so it runs twice
    calls = _count_calls(monkeypatch, "_gram_schmidt", "dpbtrs")
    factor = np.sqrt(np.tile([1.0, 2.0, 4.0], 3))[None, :]
    vals, vecs = solver._lanczos(factor, 1.0, 3, 3, 9)
    np.testing.assert_allclose(vals, [2.0, 3.0, 5.0], rtol=1e-14, atol=0)
    assert calls["dpbtrs"] == 3
    assert calls["_gram_schmidt"] > calls["dpbtrs"]
    assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) <= 1e-12
    assert solver._lanczos(factor, 1.0, 4, 4, 9) is None


@pytest.mark.parametrize("n_lowest", [8, 32])
def test_one_gram_schmidt_pass_per_step_at_the_working_point(
        monkeypatch, fig4_problem, n_lowest):
    # after the local three-term step the DGKS test never asks for a
    # second pass here: one pass per dpbtrs
    calls = _count_calls(monkeypatch, "_gram_schmidt", "dpbtrs")
    hq.solve(fig4_problem, n_lowest)
    assert calls["_gram_schmidt"] == calls["dpbtrs"]


def test_a_failed_convergence_check_fails_the_lanczos_run(monkeypatch,
                                                          fig4_problem):
    ab, sigma, factor = _shifted_band(fig4_problem, 8)
    real = solver.dstevd

    def failing(*args):
        theta, s, _ = real(*args)
        return theta, s, 1
    monkeypatch.setattr(solver, "dstevd", failing)
    assert solver._lanczos(factor, sigma, 8, 9, 200) is None


def test_lanczos_without_reorthogonalization_is_never_certified(
        monkeypatch, fig4_problem):
    # a mutation that drops the Gram-Schmidt projection altogether: ghost
    # copies of a level stall convergence or fail the inertia count
    def no_projection(earlier, w):
        return np.zeros(len(earlier))
    monkeypatch.setattr(solver, "_gram_schmidt", no_projection)
    for n_lowest in (8, 32):
        with pytest.raises(hq.UncertifiedSpectrumError):
            hq.solve(fig4_problem, n_lowest)


@pytest.mark.parametrize("physics, L, N, n", [
    ("fig4", 20, 20, 8), ("fig4", 20, 20, 32), ("fig4", 1, 80, 8),
    ("base", 1, 80, 8)], ids=["fig4-8", "fig4-32", "fig4-L1N80",
                              "base-L1N80"])
def test_the_shift_lies_below_the_lowest_level(physics, L, N, n):
    problem = hq.assemble(
        hq.scale(FIG4_PHYSICAL if physics == "fig4" else BASE),
        small_spec(L=L, N=N))
    _, d, y, t, f = _reduction(problem)
    sigma, factor = solver._shift(d, y, t, f, n)
    reference = oracles.kept_subspace_energies(problem,
                                               solver.DROP_FRACTION_2D)
    assert sigma < reference[0]
    # the bracket's floor: 1/256 of the spread of the first diagonal
    # block's lowest n + 1 levels; at L = 1 the bracket itself closes
    block = scipy.linalg.eigvalsh(d + y[0, 0] * np.eye(len(d)))
    floor = (block[n] - block[0]) / 256
    if L == 1:
        np.testing.assert_allclose(block[0] - sigma, floor, rtol=1e-9)
    assert block[0] - sigma >= floor * (1 - 1e-9)


# the thread-count functions of numpy's and scipy's OpenBLAS, looked up here
# rather than through ``solver``
OPENBLAS = (
    ("numpy._core._multiarray_umath", "scipy_openblas_%s_num_threads64_"),
    ("scipy.linalg._fblas", "scipy_openblas_%s_num_threads"))
# a count no default takes on a 1- or 2-core machine
PROBE_THREADS = 3


@pytest.fixture
def blas_threads():
    """Set both OpenBLAS thread counts to ``PROBE_THREADS`` and give a
    reader of the counts; the counts found are restored afterwards.  Skips
    where either library lacks the functions."""
    functions = []
    for module, name in OPENBLAS:
        try:
            library = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(library, name % "get")
            set_ = getattr(library, name % "set")
        except (ImportError, OSError, AttributeError):
            pytest.skip(f"no OpenBLAS thread functions in {module}")
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        functions.append((get, set_))
    found = [get() for get, _ in functions]
    for _, set_ in functions:
        set_(PROBE_THREADS)
    yield lambda: [get() for get, _ in functions]
    for (_, set_), threads in zip(functions, found):
        set_(threads)


def _record_threads(monkeypatch, blas_threads, before=lambda: None):
    """Patch ``solver._solve`` to record the thread counts it runs on."""
    real, inside = solver._solve, []

    def spy(*args):
        before()
        inside.append(blas_threads())
        return real(*args)
    monkeypatch.setattr(solver, "_solve", spy)
    return inside


@pytest.mark.parametrize("physics, n_lowest", [
    ("fig4", 8), ("fig4", 32), ("fig4", 40), ("bSLa-zero", 40)],
    ids=["fig4-8", "fig4-32", "fig4-40", "bSLa-zero-40"])
def test_one_blas_thread_gives_the_default_threads_result(
        monkeypatch, physics, n_lowest):
    problem = hq.assemble(hq.scale(WORKING[physics]), FIG4_SPEC)
    sol = hq.solve(problem, n_lowest)
    monkeypatch.setattr(parallel, "one_blas_thread", contextlib.nullcontext)
    threaded = hq.solve(problem, n_lowest)
    # bit-identical, not merely within the 1e-12 a reordered sum would allow
    assert np.array_equal(sol.energies, threaded.energies)
    assert np.array_equal(sol.coefficients, threaded.coefficients)


def test_solve_restores_the_blas_thread_counts(monkeypatch, blas_threads):
    inside = _record_threads(monkeypatch, blas_threads)
    problem = hq.assemble(hq.scale(BASE), small_spec(L=4, N=4))
    hq.solve(problem, 6)
    assert blas_threads() == [PROBE_THREADS] * 2
    with pytest.raises(hq.ReducedBasisError):
        hq.solve(problem, 0)
    assert blas_threads() == [PROBE_THREADS] * 2
    monkeypatch.setattr(solver, "_lanczos",
                        _drop_level_one(solver._lanczos, []))
    with pytest.raises(hq.UncertifiedSpectrumError):
        hq.solve(problem, 6)
    assert blas_threads() == [PROBE_THREADS] * 2
    assert inside == [[1, 1]] * 3


def test_concurrent_solves_restore_the_blas_thread_counts(monkeypatch,
                                                          blas_threads):
    # more threads than cores, all inside the scope at once: only the last
    # one out may restore the counts
    n = 4
    barrier = threading.Barrier(n, timeout=30)
    inside = _record_threads(monkeypatch, blas_threads, barrier.wait)
    problem = hq.assemble(hq.scale(BASE), small_spec(L=4, N=4))
    results = []

    def run():
        results.append(hq.solve(problem, 6).energies)
    threads = [threading.Thread(target=run) for _ in range(n)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert inside == [[1, 1]] * n
    assert blas_threads() == [PROBE_THREADS] * 2
    assert len(results) == n
    assert all(np.array_equal(vals, results[0]) for vals in results)


def test_solve_without_thread_functions_leaves_the_counts(monkeypatch,
                                                          blas_threads):
    problem = hq.assemble(hq.scale(BASE), small_spec(L=4, N=4))
    reference = hq.solve(problem, 6).energies
    monkeypatch.setattr(parallel, "_OPENBLAS", (
        ("numpy._core._multiarray_umath", "no_such_%s_num_threads"),
        ("no_such_module", "scipy_openblas_%s_num_threads")))
    parallel._blas_thread_functions.cache_clear()
    try:
        assert parallel._blas_thread_functions() == ()
        inside = _record_threads(monkeypatch, blas_threads)
        energies = hq.solve(problem, 6).energies
    finally:
        parallel._blas_thread_functions.cache_clear()
    assert inside == [[PROBE_THREADS] * 2]
    assert blas_threads() == [PROBE_THREADS] * 2
    assert np.array_equal(energies, reference)


def test_the_scope_sets_no_library_already_on_one_thread(monkeypatch):
    # a set call in a forked child starts OpenBLAS's thread pool again, and
    # its threads compete with the computing processes: on a 2-vCPU VM the
    # gap1d benchmark ran at about 800 instead of 1,400 points/s when each
    # child's fresh scope set its counts
    at_one, at_three = [], []
    monkeypatch.setattr(parallel, "_blas_thread_functions", lambda: (
        (lambda: 1, at_one.append), (lambda: 3, at_three.append)))
    with parallel.one_blas_thread():
        assert at_three == [1]
    assert at_one == [] and at_three == [1, 3]
