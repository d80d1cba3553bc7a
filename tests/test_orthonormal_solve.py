"""The real Kronecker-factor solve against the dense generalized reference.

``solve`` and ``state_report`` never build the dense matrices; these tests
build them and check that the fast path returns the same eigenpairs as
``scipy.linalg.eigh(H, S)``, in the original basis and gauge, and the same
expectation values as the dense spin-block forms.  A redundant basis is
checked against the dense pencil on the same kept subspace.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import hybridq as hq
from hybridq import assembly, basis, solver
from conftest import small_spec

import oracles

BASE = hq.PhysicalParams(hw0=30.0, a=30.0, gamma=-1e-3, B0=0.5, bSLa=1.5)

# the three branches of the Hamiltonian: no Zeeman field (real, spin
# degenerate), Zeeman field without gradient (real, spin split) and the
# slanting field (complex) with either tilt
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
    reference = scipy.linalg.eigh(problem.H, problem.S, eigvals_only=True)
    np.testing.assert_allclose(sol.energies, reference, rtol=1e-12, atol=0)

    C, E = sol.coefficients, sol.energies
    SC = problem.S @ C
    gram = C.conj().T @ SC
    assert np.max(np.abs(gram - np.eye(problem.size))) <= 1e-10
    residual = np.linalg.norm(problem.H @ C - SC * E, axis=0) \
        / np.linalg.norm(SC, axis=0)
    assert residual.max() <= 1e-10 * np.abs(E).max()


# bases whose S_z falls below the 2D drop floor: eta = 4 with more z-levels
# than the working point's N = 20, and merged wells, where the relative
# error (measured 2.2e-11) reflects the 1e12 condition of the kept S_z
REDUNDANT = [(4.0, 2, 24, 2, 1e-12), (4.0, 1, 28, 4, 1e-12),
             (0.05, 2, 8, 6, 1e-10)]


@pytest.mark.parametrize("eta, L, N, n_dropped, rtol", REDUNDANT,
                         ids=["eta4-L2N24", "eta4-L1N28", "merged-wells"])
@pytest.mark.parametrize("physics",
                         ["B0-zero", "no-gradient", "gradient-tilt-minus"])
def test_redundant_basis_matches_kept_subspace_reference(physics, eta, L, N,
                                                         n_dropped, rtol):
    problem = hq.assemble(hq.scale(PHYSICS[physics]),
                          small_spec(L=L, N=N, eta=eta))
    sol = hq.solve(problem, 8)
    assert sol.n_dropped == n_dropped
    reference = oracles.kept_subspace_energies(problem,
                                               solver.DROP_FRACTION_2D)
    np.testing.assert_allclose(sol.energies, reference[:8], rtol=rtol,
                               atol=0)
    C = sol.coefficients
    gram = C.conj().T @ problem.S @ C
    assert np.max(np.abs(gram - np.eye(sol.n_states))) <= 1e-10


@pytest.mark.parametrize("physics", PHYSICS, ids=list(PHYSICS))
def test_gauge_makes_the_problem_exactly_real(physics):
    spec = small_spec(L=5, N=3)
    problem = hq.assemble(hq.scale(PHYSICS[physics]), spec)
    # phi_k -> i^k phi_k on the dense H: flat index (s, p, k, n)
    phase = np.tile(np.repeat(assembly.y_gauge(spec.L), spec.N), 4)
    gauged = phase.conj()[:, None] * problem.H * phase
    assert np.all(gauged.imag == 0.0)
    for kind in basis.Y_KINDS:
        unit = -1j if kind == "dy" else 1
        table = assembly.gauged_y_table(problem.y_tables[kind], unit)
        assert np.all(table.imag == 0.0)
    s_vals, s_vecs = problem.overlap_eigh
    transform = s_vecs / np.sqrt(s_vals)
    h = assembly.orthonormal_hamiltonian(problem, transform)
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)


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
