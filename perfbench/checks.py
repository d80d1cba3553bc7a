"""Output checks of the benchmark.

Every check returns a list of problems; an empty list means the input
passed.  ``run.py`` applies the CSV checks to each grid point a request
produced and counts a point as failed when any check reports a problem.
The eigenpair check runs inside a traced request, where the assembled
matrices are at hand.
"""

from __future__ import annotations

import csv
import math

# acceptance criterion 2a: gap/hw0 = 2e-3 +- 25% over bSLa in (0, 2] T
GAP_BAND = (2e-3 * 0.75, 2e-3 * 1.25)
# traced and untraced runs must agree to the ROADMAP tolerance
MATCH_RTOL = 1e-12
# eigen-residual and S-orthonormality bound of the README numerical notes
EIGEN_TOL = 1e-10


def read_csv(path) -> list[dict]:
    """Data rows of a hybridq CSV as dicts keyed by column name."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def energy_problems(energies) -> list[str]:
    if not all(math.isfinite(e) for e in energies):
        return ["non-finite energy"]
    if any(b < a for a, b in zip(energies, energies[1:])):
        return ["energies not ascending"]
    return []


def _energies(row: dict) -> list[float]:
    return [float(v) for k, v in row.items()
            if k.startswith("E") and k.endswith("_hw0")]


def _status_problems(status: str) -> list[str]:
    return [] if status == "ok" else [f"status {status!r}"]


def sweep_point_problems(row: dict) -> list[str]:
    """One sweep-bsl row: status, energies, the criterion 2a band and
    |<sigma_x>_0| < 1."""
    problems = _status_problems(row["status"])
    problems += energy_problems(_energies(row))
    gap = float(row["gap_hw0"])
    if not GAP_BAND[0] <= gap <= GAP_BAND[1]:
        problems.append(f"gap/hw0 {gap:.4e} outside {GAP_BAND}")
    sx0 = float(row["sx0"])
    if not abs(sx0) < 1.0:
        problems.append(f"|<sigma_x>_0| = {abs(sx0):.4f} not below 1")
    return problems


def stabilize_point_problems(row: dict) -> list[str]:
    return _status_problems(row["status"]) + energy_problems(_energies(row))


def gap_point_problems(gap: float, status: str) -> list[str]:
    problems = _status_problems(status)
    if not (math.isfinite(gap) and gap > 0):
        problems.append(f"gap {gap!r} not positive and finite")
    return problems


def csv_points(task: str, rows: list[dict]) -> list[tuple[list, list]]:
    """(values, problems) per grid point of a task's CSV.

    ``values`` are the numbers compared between the traced and the
    untraced run: the energies of a 2D point, the gap of a 1D point.
    """
    if task == "quartic-gap":
        return [([float(v)], gap_point_problems(float(v), row["status"]))
                for row in rows for k, v in row.items()
                if k.startswith("gap_hw0_")]
    check = {"sweep-bsl": sweep_point_problems,
             "stabilize": stabilize_point_problems}[task]
    return [(_energies(row), check(row)) for row in rows]


def match_problems(untraced, traced) -> list[str]:
    """Values of one point from two runs agree to ``MATCH_RTOL`` relative."""
    if len(untraced) != len(traced):
        return [f"{len(traced)} values against {len(untraced)}"]
    for a, b in zip(untraced, traced):
        if not abs(a - b) <= MATCH_RTOL * max(abs(a), abs(b)):
            return [f"traced {b!r} differs from untraced {a!r}"]
    return []


def eigenpair_problems(H, S, C, E) -> list[str]:
    """Columns of ``C`` solve H c = E S c and are S-orthonormal.

    The residual is ||Hc - ESc|| / ||Sc|| per column, bounded by
    ``EIGEN_TOL * max|E|`` as in the acceptance gate's structural check.
    """
    import numpy as np

    SC = S @ C
    residual = np.linalg.norm(H @ C - SC * E, axis=0) \
        / np.linalg.norm(SC, axis=0)
    gram = C.conj().T @ SC - np.eye(C.shape[1])
    problems = []
    worst = float(np.max(residual))
    if not worst <= EIGEN_TOL * float(np.max(np.abs(E))):
        problems.append(f"eigen-residual {worst:.2e}")
    deviation = float(np.max(np.abs(gram)))
    if not deviation <= EIGEN_TOL:
        problems.append(f"|c^H S c - 1| up to {deviation:.2e}")
    return problems
