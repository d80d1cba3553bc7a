"""Two discretizations, one spectrum.

The 2D solve expands z' in the paper's Hermite-Gaussian well pair, and
``solve_1d`` in one orthonormal oscillator ladder centered between the
wells; the two share no basis code.  Without the slanting field the 2D
Hamiltonian separates into a z-part, which is the 1D double well, a
y-part and -(r_c/2) sigma_z, so each 2D level is a 1D level plus a level
of the y-part, plus or minus r_c/2.
"""

import dataclasses

import numpy as np

import hybridq as hq
from hybridq import basis
from conftest import FIG4_PHYSICAL, FIG4_SPEC

# the largest relative deviation of the 40 levels measures 8.7e-13; with
# the 1D well half separation a scaled by 1 + 1e-9 it reads 9.1e-11
SEPARABLE_TOLERANCE = 5e-12


def test_levels_without_the_slanting_field_are_sums_of_1d_and_y_levels():
    physical = dataclasses.replace(FIG4_PHYSICAL, bSLa=0.0)
    scaled = hq.scale(physical)
    spec = FIG4_SPEC
    levels = hq.solve(hq.assemble(scaled, spec), 40).energies
    z_levels = hq.solve_1d(physical.hw0, physical.a, gamma=physical.gamma,
                           n_basis=22, n_lowest=60)
    # the y-tables' own eigenvalues: the analytic oscillator levels differ
    # from them by the truncation of the y-ladder, 1.2e-9 here
    y_part = sum(coef * basis.y_element_table(y, spec.mu, spec.L)
                 for coef, _, y, _ in scaled.terms if y in ("dy2", "y2"))
    y_levels = np.linalg.eigvalsh(y_part)
    spin = np.array([-0.5, 0.5]) * scaled.r_c
    sums = np.sort(np.add.outer(np.add.outer(z_levels, y_levels),
                                spin), axis=None)[:40]
    np.testing.assert_allclose(levels, sums, rtol=SEPARABLE_TOLERANCE,
                               atol=0)
