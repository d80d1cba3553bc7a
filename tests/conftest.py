"""Shared fixtures.  The heavy full-size solves (M = 1600) are computed
once per session and reused by both the unit tests and the acceptance
gate."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import hybridq as hq
from hybridq import basis

# the paper's working configuration (Figs. 2, 4, 5)
FIG4_PHYSICAL = hq.PhysicalParams(hw0=30.0, a=30.0, gamma=-1e-3, B0=0.5,
                                  bSLa=2.0)
FIG4_SPEC = hq.BasisSpec(eta=4.0, mu=0.7, L=20, N=20)

BSL_GRID = tuple(0.25 * i for i in range(9))          # 0 .. 2 T
B0_VALUES = (0.1, 0.5, 1.0, 1.5, 2.0)                 # at bSLa = 2 T
W0_VALUES = (20.0, 24.0, 25.0, 30.0, 35.0, 36.0, 40.0)  # at bSLa = 2 T
MU_GRID = (0.50, 0.55, 0.575, 0.60, 0.625, 0.65, 0.675, 0.70,
           0.75, 0.80, 0.90, 1.00)

WORKERS = 2


def small_spec(L=6, N=6, eta=4.0, mu=0.7) -> hq.BasisSpec:
    return hq.BasisSpec(eta=eta, mu=mu, L=L, N=N)


def z_element(kind: str, n: int, p: int, m: int, q: int,
              spec: hq.BasisSpec) -> float:
    """<psi_n^p| kind |psi_m^q> read from the 2N x 2N z-table, whose rows
    and columns are p-major: (0 if p = +1 else 1) * N + n."""
    row = (0 if p == +1 else 1) * spec.N + n
    col = (0 if q == +1 else 1) * spec.N + m
    return float(basis.z_element_table(kind, spec.eta, spec.N)[row, col])


def observables_of(physical: hq.PhysicalParams, spec: hq.BasisSpec,
                   n_levels: int = 8):
    """Solve one configuration and collect energies plus per-state
    observables of the first six states."""
    problem = hq.assemble(hq.scale(physical), spec)
    sol = hq.solve(problem, n_levels)
    reports = [hq.state_report(sol, j, problem)
               for j in range(min(6, n_levels))]
    return {
        "energies": sol.energies.copy(),
        "z": np.array([r.z_mean for r in reports]),
        "sx": np.array([r.sx_mean for r in reports]),
        "norm": np.array([r.norm_check for r in reports]),
        "gap": float(sol.energies[1] - sol.energies[0]),
    }


@pytest.fixture(scope="session")
def fig4_problem():
    return hq.assemble(hq.scale(FIG4_PHYSICAL), FIG4_SPEC)


@pytest.fixture(scope="session")
def fig4_solution(fig4_problem):
    return hq.solve(fig4_problem, 40)


@pytest.fixture(scope="session")
def bsl_sweep():
    """Fig. 4/5 sweep: observables over bSLa in [0, 2] T, 8 levels."""
    results = []
    for bsl in BSL_GRID:
        physical = dataclasses.replace(FIG4_PHYSICAL, bSLa=bsl)
        results.append(observables_of(physical, FIG4_SPEC))
    return {
        "bsl": np.array(BSL_GRID),
        "energies": np.array([r["energies"] for r in results]),
        "z": np.array([r["z"] for r in results]),
        "sx": np.array([r["sx"] for r in results]),
        "gap": np.array([r["gap"] for r in results]),
    }


@pytest.fixture(scope="session")
def b0_scan():
    """Fig. 7 scan: ground <sigma_x> at bSLa = 2 T for several B0."""
    sx0 = []
    for b0 in B0_VALUES:
        physical = dataclasses.replace(FIG4_PHYSICAL, B0=b0)
        sx0.append(observables_of(physical, FIG4_SPEC)["sx"][0])
    return {"B0": np.array(B0_VALUES), "sx0": np.array(sx0)}


@pytest.fixture(scope="session")
def w0_scan():
    """Fig. 6 scan: qubit metrics at bSLa = 2 T for several hw0."""
    rows = {}
    for hw0 in W0_VALUES:
        physical = dataclasses.replace(FIG4_PHYSICAL, hw0=hw0)
        obs = observables_of(physical, FIG4_SPEC)
        rows[hw0] = {"gap": obs["gap"], "sx0": obs["sx"][0],
                     "z0": obs["z"][0]}
    return rows


@pytest.fixture(scope="session")
def stabilization_table():
    """Fig. 2 stabilization: 40 lowest levels over the mu grid."""
    return hq.stabilize(hq.scale(FIG4_PHYSICAL), FIG4_SPEC, "mu", MU_GRID,
                        40, workers=WORKERS)
