"""Generalized eigensolver contract and stabilization machinery."""

import ast
import dataclasses
import multiprocessing
import os
import pathlib
import subprocess
import sys
import threading
import time

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


def _meet(item):
    """``(value, pid)``, or a failure naming the pid, after waiting at
    ``barrier`` if it is set.  Process k of n computes items k, k + n, ...,
    so each process at an n-party barrier computes one of the first n
    items, which wait there."""
    value, barrier = item
    if barrier is not None:
        barrier.wait(timeout=30)
    if value is None:
        raise hq.ReducedBasisError(f"in {os.getpid()}")
    return value, os.getpid()


def _met(values, parties):
    """``_meet`` items of ``values``, the first ``parties`` of which wait
    at one barrier."""
    barrier = multiprocessing.Barrier(parties)
    return [(value, barrier if k < parties else None)
            for k, value in enumerate(values)]


@pytest.mark.parametrize("n_items, workers, n_started", [
    (2, 8, 1), (3, 2, 1), (5, 3, 2), (1, 4, 0), (2, 1, 0)])
def test_pool_never_larger_than_the_work(monkeypatch, n_items, workers,
                                         n_started):
    # min(workers, len(items)) processes compute, the caller among them
    started, start = [], multiprocessing.process.BaseProcess.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counted)
    pairs = solver.parallel_map(
        _meet, _met(range(n_items), n_started + 1), workers)
    assert len(started) == n_started
    assert [value for (value, _), _ in pairs] == list(range(n_items))
    assert {pid for (_, pid), _ in pairs} == {
        os.getpid(), *(child.pid for child in started)}
    assert multiprocessing.active_children() == []


def _fails_at_one_and_two(i):
    if i == 1:
        raise hq.ReducedBasisError("too few levels")
    if i == 2:
        raise TypeError("broken")
    return -i


def test_parallel_map_pairs_each_item_with_its_failure():
    assert solver.parallel_map(_fails_at_one_and_two, [0, 1, 3], 1) == [
        (0, None), (None, "ReducedBasisError: too few levels"), (-3, None)]
    # any other exception is a bug and ends the map
    with pytest.raises(TypeError, match="broken"):
        solver.parallel_map(_fails_at_one_and_two, [0, 2], 1)


def test_two_workers_keep_the_item_order():
    values = [0, 3, 4, 5, 6, 7, 8]
    pairs = solver.parallel_map(_meet, _met(values, 2), 2)
    assert [value for (value, _), _ in pairs] == values
    assert len({pid for (_, pid), _ in pairs}) == 2
    assert multiprocessing.active_children() == []


def _nap_at_one(item):
    """``_meet``, then a nap of 0.5 s on the item of value 1."""
    met = _meet(item)
    if item[0] == 1:
        time.sleep(0.5)
    return met


def test_two_workers_compute_fixed_strided_shares():
    # the caller computes items 0, 2 and 4, the child 1, 3 and 5, even
    # though the child naps on item 1 while the caller is done at once
    pairs = solver.parallel_map(_nap_at_one, _met(range(6), 2), 2)
    pids = [pid for (_, pid), _ in pairs]
    assert pids[0::2] == [os.getpid()] * 3
    assert pids[1::2] == [pids[1]] * 3 and pids[1] != os.getpid()
    assert multiprocessing.active_children() == []


def test_two_workers_record_failures_from_both_shares():
    # the two failing items meet at the barrier, one in each process
    pairs = solver.parallel_map(_meet, _met([None, None, 0], 2), 2)
    assert pairs[2][0][0] == 0 and pairs[2][1] is None
    errors = {error for _, error in pairs[:2]}
    assert len(errors) == 2
    assert f"ReducedBasisError: in {os.getpid()}" in errors
    assert all(error.startswith("ReducedBasisError: in ")
               for error in errors)


def _here() -> str:
    return "child" if multiprocessing.parent_process() else "caller"


def _bug_in(item):
    # item: (barrier, where the item raises, nap [s] elsewhere)
    barrier, where, nap = item
    barrier.wait(timeout=30)
    if _here() == where:
        raise TypeError("broken")
    time.sleep(nap)


@pytest.mark.parametrize("where, nap", [("child", 0), ("caller", 60)],
                         ids=["in-child", "in-caller"])
def test_two_workers_reraise_a_bug_with_its_type(where, nap):
    # a TypeError in either process reaches the caller as a TypeError; a
    # caller that raises terminates its child, here asleep for 60 s, so no
    # process is left behind
    barrier = multiprocessing.Barrier(2)
    start = time.monotonic()
    with pytest.raises(TypeError, match="broken"):
        solver.parallel_map(_bug_in, [(barrier, where, nap)] * 2, 2)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


class _Odd(Exception):
    """Pickles as ``_Odd(a)``, which does not load back: ``__init__`` takes
    two arguments but passes one on."""

    def __init__(self, a, b):
        super().__init__(a)


# what the child returns, or raises (a lock inside a TypeError): a lock
# does not pickle, an _Odd does not load back
_UNSENDABLE = {"lock": threading.Lock, "odd": lambda: _Odd(1, 2)}


def _unsendable(item):
    barrier, kind, raises = item
    barrier.wait(timeout=30)
    if _here() == "caller":
        return None
    value = _UNSENDABLE[kind]()
    if raises:
        raise value if isinstance(value, Exception) else TypeError(value)
    return value


LOCK = "TypeError(\"cannot pickle '_thread.lock' object\")"
ODD = ("TypeError(\"_Odd.__init__() missing 1 required positional argument: "
       "'b'\")")


@pytest.mark.parametrize("kind, raises, lost, why", [
    ("lock", True, "TypeError(<unlocked _thread.lock", LOCK),
    ("lock", False, "the results", LOCK),
    ("odd", True, "_Odd(1)", ODD),
    ("odd", False, "the results", ODD),
], ids=["exception", "result", "exception-that-does-not-load",
        "result-that-does-not-load"])
def test_two_workers_report_what_does_not_pickle(kind, raises, lost, why):
    # what the child cannot send, or the caller could not load, reaches the
    # caller as a RuntimeError that names it, not as a dead child or an
    # error of the caller's recv
    barrier = multiprocessing.Barrier(2)
    with pytest.raises(RuntimeError) as error:
        solver.parallel_map(_unsendable, [(barrier, kind, raises)] * 2, 2)
    assert str(error.value).startswith(lost)
    assert f"could not be sent: {why}" in str(error.value)
    assert "Traceback" in str(error.value.__cause__)
    assert multiprocessing.active_children() == []


def _run_python(script: str, *args: str, timeout: float):
    """``script`` run with ``args`` in a fresh interpreter that imports
    this hybridq."""
    path = [os.path.dirname(os.path.dirname(hq.__file__))]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=timeout)


LARGE_SHARES = """
import multiprocessing
from hybridq import solver

def megabytes(item):
    i, barrier = item
    if barrier is not None:
        barrier.wait(timeout=30)
    return str(i) * (1 << 20)

# each of the three processes computes one of the items at the barrier
barrier = multiprocessing.Barrier(3)
pairs = solver.parallel_map(
    megabytes, [(i, barrier if i <= 3 else None) for i in range(1, 6)], 3)
print([(len(result), result[0], error) for result, error in pairs])
"""


def test_shares_larger_than_the_pipe_buffer_come_back():
    # each child blocks in its send until the caller reads its pipe, so a
    # caller that joined a child before reading it would wait forever
    done = _run_python(LARGE_SHARES, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str([(1 << 20, str(i), None)
                                       for i in range(1, 6)])


# a module the processes of BLAS_SCOPE import by name, as spawn needs
BLAS_PROBE = """
import os
from hybridq import solver

def counts(barrier):
    # each process computes one of the two items that meet at the barrier
    barrier.wait(timeout=30)
    return [get() for get, _ in solver._blas_thread_functions()], os.getpid()
"""

# sets the caller's OpenBLAS counts to 2, then prints the counts that each
# of the two processes of a parallel_map reads, the number of processes
# and the caller's counts after the map
BLAS_SCOPE = """
import multiprocessing, sys
sys.path.insert(0, sys.argv[2])
import blas_probe
from hybridq import solver

multiprocessing.set_start_method(sys.argv[1])
functions = solver._blas_thread_functions()
for _, set_ in functions:
    set_(2)
pairs = solver.parallel_map(blas_probe.counts,
                            [multiprocessing.Barrier(2)] * 2, 2)
print(([counts for (counts, _), _ in pairs],
       len({pid for (_, pid), _ in pairs}), [get() for get, _ in functions]))
"""


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_two_workers_compute_on_one_blas_thread(tmp_path, method):
    # the caller and the started process compute in one one-thread scope
    # each (a spawned child inherits none); the caller's counts come back
    # once the map returns
    (tmp_path / "blas_probe.py").write_text(BLAS_PROBE)
    done = _run_python(BLAS_SCOPE, method, str(tmp_path), timeout=60)
    assert done.returncode == 0, done.stderr
    counts, n_processes, after = ast.literal_eval(done.stdout.strip())
    libraries = len(after)
    assert counts == [[1] * libraries] * 2
    assert n_processes == 2
    assert after == [2] * libraries


DEAD_WORKER = """
import ast, multiprocessing, os, sys, time
from hybridq import solver

# the process whose items exit, and the nap [s] and result size of an item
# in the caller and in the child
DIES, NAPS, SIZES, N_ITEMS = ast.literal_eval(sys.argv[1])
BARRIER = multiprocessing.Barrier(2)

def item(i):
    here = "child" if multiprocessing.parent_process() else "caller"
    if i < 2:   # one in each process
        BARRIER.wait(timeout=30)
    time.sleep(NAPS[here])
    if here == DIES:
        os._exit(1)
    return "x" * SIZES[here]

solver.parallel_map(item, list(range(N_ITEMS)), 2)
"""


@pytest.mark.parametrize("case, message", [
    (("child", {"caller": 0.05, "child": 0}, {"caller": 1, "child": 1}, 40),
     "BrokenProcessPool"),
    (("caller", {"caller": 0, "child": 1}, {"caller": 1, "child": 1}, 40),
     ""),
    (("caller", {"caller": 1, "child": 0}, {"caller": 1, "child": 1 << 20},
      2), "")],
    ids=["child", "caller", "caller-after-child-finished"])
def test_a_dead_worker_ends_the_run(case, message):
    # a process that dies mid-task, say by an OOM kill, must end the run
    # with an error instead of leaving it waiting for the lost result.  The
    # captured output reaches EOF only when every process holding it has
    # exited, so a child that outlived its dead caller, by running its
    # one-second items or by waiting to send a result larger than the pipe
    # buffer, would run past the timeout.
    done = _run_python(DEAD_WORKER, repr(case), timeout=15)
    assert done.returncode != 0
    assert message in done.stderr


def _scipy_imports(path):
    """The scipy modules and names that one source file imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        yield from (name for name in names
                    if name == "scipy" or name.startswith("scipy."))


def test_only_the_solver_imports_scipy_and_none_of_its_blas():
    # numpy does all the arithmetic; scipy is kept for LAPACK drivers,
    # all called from solver.py
    imports = {path.name: list(_scipy_imports(path)) for path in
               pathlib.Path(hq.__file__).parent.glob("*.py")}
    assert [name for name, found in imports.items() if found] == [
        "solver.py"]
    assert not [name for found in imports.values() for name in found
                if name.startswith("scipy.linalg.blas")]


def test_only_parallel_map_applies_the_point_failure_rule():
    # one decision in one place: no task or point worker catches
    # POINT_ERRORS itself, so every grid point fails by the same rule
    handlers = [
        path.name for path in pathlib.Path(hq.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and "POINT_ERRORS" in ast.unparse(node.type)]
    assert handlers == ["solver.py"]


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
print('scipy.sparse.linalg' in sys.modules,
      'multiprocessing.sharedctypes' in sys.modules, counts() == before,
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
print(len(calls), calls[0][0].shape[1], 'scipy.sparse.linalg' in sys.modules)
"""


def test_the_library_cli_and_a_lanczos_solve_leave_sparse_linalg_unloaded():
    # the solve runs its own Lanczos: scipy.sparse.linalg (ARPACK) would
    # cost every process that solves in 2D a 22-37 ms import; parallel_map
    # shares no memory between its processes, so nothing imports
    # multiprocessing.sharedctypes; the BLAS thread functions are looked
    # up by the first solve
    done = _run_python(IMPORT_GUARD, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "True", "0",
                                   "1", "256", "False"]


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
