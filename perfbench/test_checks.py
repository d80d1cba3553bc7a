"""Each output check of the benchmark rejects a corrupted input.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest
import scipy.linalg

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import (csv_points, eigenpair_problems, energy_problems,  # noqa: E402
                    gap_point_problems, match_problems, read_csv,
                    stabilize_point_problems, sweep_point_problems)

SWEEP_ROW = {"bSLa_T": "0.5", "E0_hw0": "0.51", "E1_hw0": "0.512",
             "E2_hw0": "1.3", "gap_hw0": "0.00194", "gap_ueV": "58.2",
             "z0": "-0.99", "sx0": "-0.18", "status": "ok"}
STABILIZE_ROW = {"mu": "0.7", "E0_hw0": "0.51", "E1_hw0": "0.512",
                 "status": "ok"}


def test_clean_rows_pass():
    assert sweep_point_problems(SWEEP_ROW) == []
    assert stabilize_point_problems(STABILIZE_ROW) == []
    assert gap_point_problems(1e-3, "ok") == []
    assert match_problems([0.5, 1.0], [0.5, 1.0]) == []


@pytest.mark.parametrize("key, value", [
    ("status", "failed: LinAlgError"),
    ("E1_hw0", "nan"),
    ("E1_hw0", "0.4"),            # below E0: not ascending
    ("gap_hw0", "0.0026"),        # outside 2e-3 +- 25%
    ("gap_hw0", "0.0014"),
    ("sx0", "-1.0"),
])
def test_sweep_check_rejects(key, value):
    assert sweep_point_problems({**SWEEP_ROW, key: value})


@pytest.mark.parametrize("key, value", [
    ("status", "failed"), ("E0_hw0", "inf"), ("E0_hw0", "0.6")])
def test_stabilize_check_rejects(key, value):
    assert stabilize_point_problems({**STABILIZE_ROW, key: value})


@pytest.mark.parametrize("gap, status", [
    (0.0, "ok"), (-1e-3, "ok"), (math.nan, "ok"), (math.inf, "ok"),
    (1e-3, "failed")])
def test_gap_check_rejects(gap, status):
    assert gap_point_problems(gap, status)


def test_energy_check_rejects():
    assert energy_problems([1.0, 0.5])
    assert energy_problems([0.5, math.nan])


def test_match_check_rejects():
    assert match_problems([0.5], [0.5 * (1 + 1e-11)])
    assert match_problems([0.5, 1.0], [0.5])
    assert match_problems([0.5], [math.nan])
    assert not match_problems([0.5], [0.5 * (1 + 1e-13)])


def _generalized_pair(n=12, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = a + a.conj().T
    b = rng.standard_normal((n, n))
    S = b @ b.T + n * np.eye(n)
    E, C = scipy.linalg.eigh(H, S)
    return H, S, C[:, :4], E[:4]


def test_eigenpair_check_passes_a_solution():
    assert eigenpair_problems(*_generalized_pair()) == []


def test_eigenpair_check_rejects_wrong_energy():
    H, S, C, E = _generalized_pair()
    E = E.copy()
    E[1] *= 1 + 1e-8
    assert any("residual" in p for p in eigenpair_problems(H, S, C, E))


def test_eigenpair_check_rejects_unnormalized_vector():
    H, S, C, E = _generalized_pair()
    C = C.copy()
    C[:, 2] *= 1 + 1e-8
    assert any("S c" in p for p in eigenpair_problems(H, S, C, E))


def test_csv_points_reject_corrupted_dataset(tmp_path):
    path = tmp_path / "quartic-gap.csv"
    path.write_text("# config: task = quartic-gap\n"
                    "a_nm,gap_hw0_10meV,gap_hw0_20meV,status\n"
                    "4,0.5,0.25,ok\n"
                    "5,nan,0.2,ok\n")
    points = csv_points("quartic-gap", read_csv(path))
    assert [bool(problems) for _, problems in points] == [
        False, False, True, False]
