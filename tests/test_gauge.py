"""The gauge-adapted y-ladder against the paper's.

``basis`` multiplies the paper's y-ladder i^k phi_k by exp(-i q y'),
q = r_c beta / r_a.  Both ladders span the same space as L grows, so they
must give the same converged levels; ``oracles.PaperLadderParams`` holds
the paper's terms.
"""

import dataclasses

import numpy as np
import pytest

import hybridq as hq
from conftest import FIG4_PHYSICAL, FIG4_SPEC, z_element

import oracles


@pytest.mark.parametrize("eta", [1.5, 4.0])
def test_z4_is_the_quartic_table_completed(eta):
    # the paper ladder's z'^4 = (z'^2 - 1)^2 + 2 z'^2 - 1, against the
    # quadrature of z'^4 itself
    spec = hq.BasisSpec(eta=eta, mu=0.7, L=2, N=9)
    for n, p, m, q in [(0, 1, 0, 1), (0, 1, 2, 1), (3, -1, 5, -1),
                       (4, 1, 4, -1), (8, -1, 6, -1), (8, 1, 8, 1)]:
        got = (z_element("quartic", n, p, m, q, spec)
               + 2.0 * z_element("z2", n, p, m, q, spec)
               - z_element("1", n, p, m, q, spec))
        want = oracles.quad_element_z("z4", n, p, m, q, eta)
        assert got == pytest.approx(want, abs=1e-12)


def test_without_a_slanting_field_the_ladders_coincide():
    # q = 0: the two declarations must be the same terms
    for physics in (dataclasses.replace(FIG4_PHYSICAL, bSLa=0.0),
                    dataclasses.replace(FIG4_PHYSICAL, B0=0.0, bSLa=0.0)):
        scaled = hq.scale(physics)
        assert oracles.PaperLadderParams.of(scaled).terms == scaled.terms


def test_both_ladders_give_the_converged_levels_at_L40():
    # at L = 20 the paper ladder is off by up to 3e-2 in level 39; at
    # L = 40 both are converged to about 1e-10
    scaled = hq.scale(FIG4_PHYSICAL)
    spec = dataclasses.replace(FIG4_SPEC, L=40)
    gauge = hq.solve(hq.assemble(scaled, spec), 40).energies
    paper = hq.solve(hq.assemble(oracles.PaperLadderParams.of(scaled), spec),
                     40).energies
    assert np.max(np.abs(gauge - paper) / np.abs(paper)) <= 1e-10
