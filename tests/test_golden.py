"""Golden datasets: every shipped config reproduces its committed outputs.

``tests/golden/<config>/`` holds the ``.csv``, ``.plt`` and
``_summary.txt`` files that ``configs/<config>.cfg`` writes at one
worker.  A change that moves a shipped number therefore shows as a diff
of these files.  Each config is also run at two workers, against the
same files.  To regenerate them, from the repository root:

    for c in configs/*.cfg; do
        PYTHONPATH=src python -m hybridq.cli --config "$c" \\
            --out "tests/golden/$(basename "$c" .cfg)" --workers 1
    done

Text must match exactly: the plot scripts, the summaries, every CSV
comment and header line, and every CSV cell that is not a computed
number.  A computed cell may differ from its golden value by the
tolerance of its column (``_TOLERANCES``); a column with none is text.
"""

import glob
import math
import os
import re

import pytest

from hybridq import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# (column pattern, relative tolerance, absolute tolerance), first match
# wins.  Grid coordinates, state indices and status cells match none, so
# they compare as text.
_TOLERANCES = (
    # 2D levels: the bound for a path that is not bit-exact (ROADMAP)
    (r"E\d*_(hw0|meV)", 1e-12, 0.0),
    # 2D qubit gap E1 - E0: two levels of ~0.45 within 1e-12 each move a
    # gap of ~2e-3 by up to ~5e-10 of itself
    (r"gap_(hw0|ueV)", 1e-9, 0.0),
    # 1D gaps: the orthonormal ladder's levels are exact up to the
    # eigensolver's rounding, about eps ||H||_2 (||H||_2 = 86-1664 over the
    # shipped points), at most 3e-11 of the gap (2e-3 at 40 meV, 26 nm)
    (r"gap_hw0_.*meV", 1e-10, 0.0),
    # <z'>/a and <sigma_x> lie in [-1, 1]; an eigenvector moves by the
    # level error over the spacing, ~1e-12 / 2e-3
    (r"z\d|sx\d|z_over_a|sigma_x", 0.0, 1e-9),
)


# the columns that compare as text: grid inputs, indices and statuses
_TEXT = {"mu", "bSLa_T", "B0_T", "hw0", "a_nm", "state", "target_gap",
         "hw0_meV", "status"}


def _tolerance(column: str):
    for pattern, rel, abs_ in _TOLERANCES:
        if re.fullmatch(pattern, column):
            return rel, abs_
    return None


def _csv_differences(got: str, want: str) -> list:
    """Lines and cells of the CSV text ``got`` that depart from ``want``."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines) or got[-1:] != want[-1:]:
        return [f"{len(got_lines)} lines, golden {len(want_lines)}, or "
                "another last character"]
    problems, columns = [], None
    for number, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if w.startswith("#") or columns is None:
            if g != w:
                problems.append(f"line {number}: {g!r} != {w!r}")
            elif not w.startswith("#"):
                columns = w.split(",")
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        if len(g_cells) != len(w_cells):
            problems.append(f"line {number}: {len(g_cells)} cells, golden "
                            f"{len(w_cells)}")
            continue
        for column, g_cell, w_cell in zip(columns, g_cells, w_cells):
            tolerance = _tolerance(column)
            # the same text passes, "nan" included
            if g_cell != w_cell and (tolerance is None or not math.isclose(
                    float(g_cell), float(w_cell), rel_tol=tolerance[0],
                    abs_tol=tolerance[1])):
                problems.append(f"line {number}, {column}: {g_cell} != "
                                f"{w_cell}")
    return problems


def test_every_column_of_the_golden_csvs_is_known():
    # a new computed column must be given a tolerance here, not fall
    # through to text by accident
    for path in glob.glob(os.path.join(GOLDEN, "*", "*.csv")):
        with open(path, encoding="utf-8") as handle:
            header = next(line for line in handle if not line.startswith("#"))
        for column in header.strip().split(","):
            assert _tolerance(column) is not None or column in _TEXT, \
                (path, column)


# every config at one worker, then at two, where the points are split
# between two processes; the one-worker cases keep the config as their id
@pytest.mark.parametrize("path, workers", [
    pytest.param(path, workers, id=os.path.basename(path) + suffix)
    for workers, suffix in ((1, ""), (2, "-2-workers")) for path in CONFIGS])
def test_shipped_config_reproduces_its_golden_files(path, workers, tmp_path):
    name = os.path.splitext(os.path.basename(path))[0]
    result = cli.run(cli.load_config(path, {"out_dir": str(tmp_path),
                                            "workers": workers}))
    assert result.status == 0
    golden = sorted(os.listdir(os.path.join(GOLDEN, name)))
    assert sorted(os.path.basename(f) for f in result.files) == golden
    for written in result.files:
        got = written.read_text(encoding="utf-8")
        with open(os.path.join(GOLDEN, name, written.name),
                  encoding="utf-8") as handle:
            want = handle.read()
        if written.suffix == ".csv":
            assert _csv_differences(got, want) == [], written.name
        else:
            assert got == want, written.name
