"""Structure of the assembled Hamiltonian and overlap matrices."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import hybridq as hq
from hybridq import assembly, basis, solver
from conftest import FIG4_PHYSICAL, FIG4_SPEC, small_spec, z_element

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
    assert np.max(np.abs(H - H.T)) == 0.0
    S = small_problem.S
    assert np.max(np.abs(S - S.T)) == 0.0


def test_validate_reports_clean(small_problem):
    # the two off-diagonal spin blocks of H are equal (sigma_x structure);
    # the exact symmetry of H and S is test_hermiticity_exact
    H = small_problem.H
    ms = small_problem.size // 2
    assert np.max(np.abs(H[:ms, ms:] - H[ms:, :ms])) < 1e-12
    # a finite condition number needs a positive smallest S_z eigenvalue
    assert np.isfinite(hq.solve(small_problem, 4).s_condition)


def test_hamiltonian_is_real_in_every_branch():
    # the y-ladder chi_k = i^k phi_k makes the slanting-field term real
    for physics in (dataclasses.replace(PHYS, B0=0.0, bSLa=0.0),
                    dataclasses.replace(PHYS, bSLa=0.0), PHYS):
        problem = hq.assemble(hq.scale(physics), small_spec())
        assert problem.H.dtype == np.float64
        assert problem.S.dtype == np.float64


def test_reduced_terms_keep_the_sign_of_a_zero():
    # at B0 = 0 the y factor is the one term -(r_a/2) d2/dy'2: a sum
    # started from zeros would turn its -0 entries into +0, and eigh reads
    # the sign of a zero
    no_field = dataclasses.replace(PHYS, B0=0.0, bSLa=0.0)
    problem = hq.assemble(hq.scale(no_field), small_spec())
    s_vals, s_vecs = np.linalg.eigh(problem.z_tables["1"])
    _, y, _, _ = assembly.reduced_terms(problem, s_vecs / np.sqrt(s_vals))
    expected = -(0.5 * problem.scaled.r_a) * problem.y_tables["dy2"]
    assert (np.signbit(expected) & (expected == 0)).any()
    assert np.array_equal(y, expected)
    assert np.array_equal(np.signbit(y), np.signbit(expected))


@pytest.mark.parametrize("bsl", [0.0, 2.0], ids=["bSLa0", "fig4"])
def test_reduced_terms_hand_over_t_exactly_with_f(bsl):
    physics = dataclasses.replace(FIG4_PHYSICAL, bSLa=bsl)
    problem = hq.assemble(hq.scale(physics), FIG4_SPEC)
    transform = solver._orthonormalizer(
        *np.linalg.eigh(problem.z_tables["1"]), solver.DROP_FRACTION_2D)
    d, y, t, f = assembly.reduced_terms(problem, transform)
    assert (t is None) == (f is None) == (bsl == 0.0)
    if f is not None:
        assert f.shape == d.shape and t.shape == y.shape
        assert np.array_equal(t, basis.y_element_table(
            "-idy", FIG4_SPEC.mu, FIG4_SPEC.L))


def test_only_the_reduction_reads_the_y_tables():
    # past assembly.py the reduced Hamiltonian comes whole from
    # reduced_terms, so no module fetches a y-table from the problem
    readers = sorted(
        path.name for path in pathlib.Path(hq.__file__).parent.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "y_tables"
               for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == ["assembly.py"]


def test_spin_blocks_decouple_without_gradient():
    no_gradient = dataclasses.replace(PHYS, bSLa=0.0)
    problem = hq.assemble(hq.scale(no_gradient), small_spec())
    ms = problem.size // 2
    assert np.max(np.abs(problem.H[:ms, ms:])) == 0.0
    assert np.max(np.abs(problem.H[ms:, :ms])) == 0.0


def test_overlap_blockdiagonal_in_spin_and_parity_pattern():
    spec = small_spec(L=3, N=4)
    problem = hq.assemble(hq.scale(PHYS), spec)
    # flat index i is (s, p, n, k) in lexicographic order
    labels = np.unravel_index(np.arange(spec.size), (2, 2, spec.N, spec.L))
    s, p, n, k = (np.equal.outer(x, x) for x in labels)
    S = problem.S
    assert np.all(S[~s] == 0.0)
    assert np.all(S[s & ~p & n] == 0.0)
    assert np.all(S[~k] == 0.0)
    # the layout contract: S = I_spin x S_z x I_y, exactly
    S_z = basis.z_element_table("1", spec.eta, spec.N)
    assert np.array_equal(S, np.kron(np.eye(2), np.kron(S_z, np.eye(spec.L))))


def test_spectra_mirror_under_tilt_sign_flip():
    spec = small_spec()
    plus = hq.solve(hq.assemble(hq.scale(
        dataclasses.replace(PHYS, gamma=1e-3)), spec), 12)
    minus = hq.solve(hq.assemble(hq.scale(
        dataclasses.replace(PHYS, gamma=-1e-3)), spec), 12)
    np.testing.assert_allclose(plus.energies, minus.energies, rtol=1e-10,
                               atol=1e-12)


def test_spatial_factorization_against_elements():
    # a few H entries recomputed from first principles via the 1D tables
    spec = small_spec(L=2, N=3)
    scaled = hq.scale(PHYS)
    problem = hq.assemble(scaled, spec)
    r_a, r_c, beta = scaled.r_a, scaled.r_c, scaled.beta

    def label(i: int) -> tuple[int, int, int, int]:
        """(s, p, n, k) of flat index i, with s and p as +1/-1."""
        s, p, n, k = np.unravel_index(i, (2, 2, spec.N, spec.L))
        return 1 - 2 * int(s), 1 - 2 * int(p), int(n), int(k)

    def y(kind: str, k: int, l: int) -> float:
        return float(basis.y_element_table(kind, spec.mu, spec.L)[k, l])

    def h_entry(ia: int, ib: int) -> float:
        s_a, p_a, n_a, k_a = label(ia)
        s_b, p_b, n_b, k_b = label(ib)

        def z(kind: str) -> float:
            return z_element(kind, n_a, p_a, n_b, p_b, spec)

        value = 0.0
        delta_y = float(k_a == k_b)
        if s_a == s_b:
            z_overlap = z("1")
            value += -0.5 * r_a * (z("dz2") * delta_y
                                   + z_overlap * y("dy2", k_a, k_b))
            value += (scaled.ab_ratio / (8 * r_a)) * z("quartic") * delta_y
            value += -scaled.gamma * z("z") * delta_y
            value += (r_c ** 2 / (8 * r_a)) * z_overlap * y("y2", k_a, k_b)
            # the slanting field about the wells z' = +-1: the gauge
            # phase exp(-i q y') of the y-ladder, q = r_c beta / r_a
            value += (r_c ** 2 * beta ** 2 / (2 * r_a)) * z("quartic") \
                * delta_y
            value += r_c * beta * (z("z2") - z_overlap) * y("-idy", k_a, k_b)
            value += -0.5 * r_c * s_a * z_overlap * delta_y
        else:
            value += -r_c * beta * z("z") * delta_y
        return value

    rng = np.random.default_rng(3)
    for _ in range(40):
        ia, ib = int(rng.choice(spec.size)), int(rng.choice(spec.size))
        assert problem.H[ia, ib] == pytest.approx(h_entry(ia, ib),
                                                  rel=1e-12, abs=1e-14)


def test_arrays_are_readonly(small_problem):
    with pytest.raises(ValueError):
        small_problem.H[0, 0] = 1.0
