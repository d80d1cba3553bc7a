"""Generalized eigensolver contract and stabilization machinery."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridq as hq
from hybridq import basis, solver
from conftest import FIG4_PHYSICAL, FIG4_SPEC, small_spec

import oracles

PHYS = FIG4_PHYSICAL


def _table_problem(z_tables: dict, L: int = 2) -> hq.SpectralProblem:
    """A SpectralProblem built by hand from z-tables, with the oscillator
    y-tables of an L-function ladder."""
    spec = small_spec(L=L, N=len(z_tables["1"]) // 2)
    return hq.SpectralProblem(
        z_tables=z_tables,
        y_tables={k: basis.y_element_table(k, spec.mu, spec.L)
                  for k in basis.Y_KINDS},
        spec=spec, scaled=hq.scale(PHYS))


def _random_z_tables(rng, size: int, overlap: np.ndarray) -> dict:
    """Random symmetric z-tables around the given z-overlap."""
    tables = {"1": overlap}
    for kind in basis.Z_KINDS[1:]:
        t = rng.standard_normal((size, size))
        tables[kind] = t + t.T
    return tables


def test_identity_overlap_reduces_to_standard_problem():
    rng = np.random.default_rng(0)
    problem = _table_problem(_random_z_tables(rng, 4, np.eye(4)))
    assert np.array_equal(problem.S, np.eye(problem.size))
    sol = hq.solve(problem, problem.size)
    np.testing.assert_allclose(sol.energies, np.linalg.eigvalsh(problem.H),
                               rtol=1e-12, atol=1e-12)


def test_solver_contract_on_production_problem(fig4_problem, fig4_solution):
    sol = fig4_solution
    assert np.all(np.diff(sol.energies) >= 0)
    C = sol.coefficients
    gram = C.conj().T @ fig4_problem.S @ C
    assert np.max(np.abs(gram - np.eye(sol.n_states))) < 1e-10
    residual = fig4_problem.H @ C - fig4_problem.S @ C * sol.energies
    rel = np.linalg.norm(residual, axis=0) \
        / np.linalg.norm(fig4_problem.S @ C, axis=0)
    assert rel.max() < 1e-10 * np.abs(sol.energies).max()


def test_n_lowest_validation(fig4_problem):
    with pytest.raises(ValueError):
        hq.solve(fig4_problem, 0)
    with pytest.raises(ValueError):
        hq.solve(fig4_problem, fig4_problem.size + 1)


def test_variational_monotonicity():
    scaled = hq.scale(PHYS)
    small = hq.solve(hq.assemble(scaled, small_spec(L=5, N=5)), 10)
    bigger_l = hq.solve(hq.assemble(scaled, small_spec(L=7, N=5)), 10)
    bigger_both = hq.solve(hq.assemble(scaled, small_spec(L=7, N=7)), 10)
    tol = 1e-10 * np.abs(small.energies)
    assert np.all(bigger_l.energies <= small.energies + tol)
    assert np.all(bigger_both.energies <= bigger_l.energies + tol)


def test_eigenvalues_invariant_under_basis_permutation():
    spec = small_spec()
    problem = hq.assemble(hq.scale(PHYS), spec)
    rng = np.random.default_rng(5)
    perm = rng.permutation(problem.size)
    H = problem.H[np.ix_(perm, perm)]
    S = problem.S[np.ix_(perm, perm)]
    direct = hq.solve(problem, 12).energies
    permuted = scipy.linalg.eigh(H, S, eigvals_only=True)[:12]
    np.testing.assert_allclose(permuted, direct, rtol=1e-8)


def test_spin_decoupling_at_zero_gradient():
    no_gradient = dataclasses.replace(PHYS, bSLa=0.0)
    scaled = hq.scale(no_gradient)
    spec = small_spec()
    problem = hq.assemble(scaled, spec)
    full = hq.solve(problem, problem.size).energies

    ms = problem.size // 2
    up = scipy.linalg.eigh(problem.H[:ms, :ms], problem.s_spatial,
                           eigvals_only=True)
    down = scipy.linalg.eigh(problem.H[ms:, ms:], problem.s_spatial,
                             eigvals_only=True)
    # spectrum = union of two spin-shifted copies of the spinless spectrum
    np.testing.assert_allclose(np.sort(np.concatenate([up, down])), full,
                               rtol=1e-10, atol=1e-12)
    # the sigma_z = +1 copy sits exactly r_c below the sigma_z = -1 copy
    np.testing.assert_allclose(down - up, scaled.r_c, rtol=1e-9)


def test_tie_breaking_orders_by_position():
    # one exactly degenerate pair; <z'> decides the order: basis states 1
    # (up, spatial 1, <z> = -0.7) and 2 (down, spatial 0, <z> = +0.7)
    # share the eigenvalue 2 and arrive in the wrong order
    problem = hq.SpectralProblem(
        z_tables={"1": np.eye(2), "z": np.diag([0.7, -0.7])},
        y_tables={"1": np.eye(1)}, spec=small_spec(L=1, N=1),
        scaled=hq.scale(PHYS))
    vals = np.array([1.0, 2.0, 2.0, 3.0])
    vecs = np.eye(4)[:, [0, 2, 1, 3]]
    solver._order_ties(vals, vecs, problem)
    ms = 2
    z_means = []
    for j in (1, 2):
        c = vecs[:, j]
        up, dn = c[:ms], c[ms:]
        z_means.append((up.conj() @ problem.z_spatial @ up
                        + dn.conj() @ problem.z_spatial @ dn).real)
    assert z_means[0] == pytest.approx(-0.7, abs=1e-12)
    assert z_means[1] == pytest.approx(+0.7, abs=1e-12)
    np.testing.assert_array_equal(vals, [1.0, 2.0, 2.0, 3.0])


def test_indefinite_overlap_drops_direction():
    rng = np.random.default_rng(1)
    overlap = np.diag([1.0, 1.0, 1.0, -1e-18])  # indefinite z-overlap
    problem = _table_problem(_random_z_tables(rng, 4, overlap), L=1)
    sol = hq.solve(problem, 6)
    assert sol.n_dropped == 1
    reference = oracles.kept_subspace_energies(problem,
                                               solver.DROP_FRACTION_2D)
    np.testing.assert_allclose(sol.energies, reference, rtol=1e-12,
                               atol=1e-12)
    # 6 functions remain of 8
    with pytest.raises(ValueError, match="reduced basis size 6"):
        hq.solve(problem, 7)


BRANCHES = {
    "B0-zero": dataclasses.replace(PHYS, B0=0.0, bSLa=0.0),
    "no-gradient": dataclasses.replace(PHYS, bSLa=0.0),
    "gradient": PHYS,
}


@given(eta=st.floats(3.0, 5.0), mu=st.floats(0.5, 1.0),
       N=st.integers(2, 6), L=st.integers(1, 4),
       physics=st.sampled_from(list(BRANCHES)))
@example(eta=4.0, mu=0.7, N=24, L=2, physics="no-gradient")
@settings(max_examples=40, deadline=None)
def test_levels_never_rise_as_the_y_ladder_grows(eta, mu, N, L, physics):
    # Hylleraas-Undheim-MacDonald: the basis at L is part of the basis at
    # L + 1, so no Ritz level rises.  S_z does not depend on L, so the kept
    # subspaces stay nested when directions are dropped (2 at the
    # example).  Merged wells (eta = 0.05) are not drawn: rounding in
    # their kept S_z, conditioned 1e12, lifts levels by up to 6.2e-13.
    lower, upper = (
        hq.solve(hq.assemble(hq.scale(BRANCHES[physics]),
                             small_spec(L=size, N=N, eta=eta, mu=mu)),
                 6).energies
        for size in (L, L + 1))
    assert np.all(upper <= lower + 1e-12 * np.abs(lower))


def test_pool_never_larger_than_the_work(monkeypatch):
    sizes = []

    class SerialExecutor:
        """Records its size and maps in-process: no worker is started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=1):
            return [func(item) for item in items]

    monkeypatch.setattr(solver, "ProcessPoolExecutor", SerialExecutor)
    assert solver.parallel_map(abs, [-1, -2], 8) == [1, 2]
    assert solver.parallel_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert solver.parallel_map(abs, [-1], 4) == [1]
    assert solver.parallel_map(abs, [-1, -2], 1) == [1, 2]
    assert sizes == [2, 2]


DEAD_WORKER = """
import os
from hybridq import solver

def item(i):
    if i == 2:
        os._exit(1)
    return i

solver.parallel_map(item, [0, 1, 2, 3], 2)
"""


def test_a_dead_worker_ends_the_run():
    # a worker that dies mid-task, say by an OOM kill, must end the run
    # with an error instead of leaving it waiting for the lost result
    path = [os.path.dirname(os.path.dirname(hq.__file__))]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    done = subprocess.run(
        [sys.executable, "-c", DEAD_WORKER],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "BrokenProcessPool" in done.stderr


# reads the OpenBLAS thread counts of numpy and scipy, where it finds them,
# before and after the import, then solves once on the Lanczos path
IMPORT_GUARD = """
import ctypes, importlib, sys
def counts():
    found = []
    for module, name in [
            ("numpy._core._multiarray_umath",
             "scipy_openblas_get_num_threads64_"),
            ("scipy.linalg._fblas", "scipy_openblas_get_num_threads")]:
        try:
            library = ctypes.CDLL(importlib.import_module(module).__file__)
            found.append(getattr(library, name)())
        except (ImportError, OSError, AttributeError):
            pass
    return found
before = counts()
import hybridq, hybridq.cli
print('scipy.sparse.linalg' in sys.modules, counts() == before,
      hybridq.solver._blas_thread_functions.cache_info().currsize)
# a 2D solve on the Lanczos path: reduced size 256 at L = N = 8
solver, lanczos, calls = hybridq.solver, hybridq.solver._lanczos, []
def spy(*args):
    calls.append(args)
    return lanczos(*args)
solver._lanczos = spy
physical = hybridq.PhysicalParams(hw0=30.0, a=30.0, gamma=-1e-3, B0=0.5,
                                  bSLa=2.0)
spec = hybridq.BasisSpec(eta=4.0, mu=0.7, L=8, N=8)
hybridq.solve(hybridq.assemble(hybridq.scale(physical), spec), 8)
print(len(calls), calls[0][0].shape[1] >= solver.LANCZOS_MIN_SIZE,
      'scipy.sparse.linalg' in sys.modules)
"""


def test_the_library_cli_and_a_lanczos_solve_leave_sparse_linalg_unloaded():
    # the solve runs its own Lanczos: scipy.sparse.linalg (ARPACK) would
    # cost every process that solves in 2D a 22-37 ms import; the BLAS
    # thread functions are looked up by the first solve
    path = [os.path.dirname(os.path.dirname(hq.__file__))]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "0",
                                   "1", "True", "False"]


def test_plateau_scan_constant_level():
    grid = np.linspace(0.4, 1.0, 7)
    values = np.full(7, 0.5)
    plateau = solver._widest_plateau(grid, values, 0, 1e-4)
    assert plateau is not None
    assert (plateau.lo, plateau.hi) == (0.4, 1.0)
    assert plateau.rel_variation == 0.0


def test_plateau_scan_monotone_level_has_no_plateau():
    grid = np.linspace(0.4, 1.0, 7)
    values = 0.5 * (1.0 + np.linspace(0, 0.1, 7))  # 10% total drift
    plateau = solver._widest_plateau(grid, values, 0, 1e-4)
    assert plateau is None


def test_stabilize_validation():
    scaled = hq.scale(PHYS)
    with pytest.raises(ValueError):
        hq.stabilize(scaled, small_spec(), "sigma", [0.5, 0.6], 4)
    with pytest.raises(ValueError):
        hq.stabilize(scaled, small_spec(), "mu", [], 4)
    with pytest.raises(ValueError):
        hq.stabilize(scaled, small_spec(), "mu", [0.6, 0.5], 4)
    with pytest.raises(ValueError, match="grid values must be positive"):
        hq.stabilize(scaled, small_spec(), "mu", [0.0, 0.5], 4)
    for n_track in (0, small_spec().size + 1):
        with pytest.raises(ValueError, match="n_track"):
            hq.stabilize(scaled, small_spec(), "mu", [0.5, 0.6], n_track)


def test_stabilize_records_failures_not_fatal():
    scaled = hq.scale(PHYS)
    # at eta = 1e-9 the odd well combination has no normalization
    table = hq.stabilize(scaled, small_spec(N=8), "eta",
                         [1e-9, 3.0, 4.0], 4)
    assert len(table.failures) == 1
    assert table.failures[0][0] == 0
    assert np.all(np.isnan(table.energies[0]))
    assert not np.any(np.isnan(table.energies[1:]))
    # a window that holds the failed point has no variation
    assert np.isnan(table.variation(0, 1e-9, 3.0))
    assert np.isfinite(table.variation(0, 3.0, 4.0))


def test_stabilize_workers_agree_with_serial():
    scaled = hq.scale(PHYS)
    spec = small_spec(L=4, N=4)
    grid = [0.6, 0.7, 0.8]
    serial = hq.stabilize(scaled, spec, "mu", grid, 6, workers=1)
    parallel = hq.stabilize(scaled, spec, "mu", grid, 6, workers=2)
    np.testing.assert_array_equal(serial.energies, parallel.energies)


def _table_builds(run) -> tuple[int, int]:
    """The z- and y-tables built (cache misses) by ``run()`` from empty
    table caches."""
    basis.z_element_table.cache_clear()
    basis.y_element_table.cache_clear()
    run()
    return (basis.z_element_table.cache_info().misses,
            basis.y_element_table.cache_info().misses)


def test_a_width_sweep_builds_the_other_tables_once():
    # a z-table reads only (eta, N) and a y-table only (mu, L), so a mu
    # sweep reuses the z-tables and an eta sweep the y-tables
    scaled = hq.scale(PHYS)
    mu_grid = np.linspace(0.3, 1.2, 19)
    builds = _table_builds(
        lambda: hq.stabilize(scaled, FIG4_SPEC, "mu", mu_grid, 4))
    assert builds == (len(basis.Z_KINDS), 19 * len(basis.Y_KINDS))
    eta_grid = [3.0, 3.5, 4.0, 4.5]
    builds = _table_builds(
        lambda: hq.stabilize(scaled, small_spec(), "eta", eta_grid, 4))
    assert builds == (4 * len(basis.Z_KINDS), len(basis.Y_KINDS))
