"""The benchmark's layer spans still reach every eigensolve, and its
eigenpair check accepts every 2D solve.

``perfbench/tracing.py`` wraps module attributes (``solver.solve``,
``solver._canonical_solve`` and the copy ``quartic1d`` imports, ...) and
``Pool.map`` for the whole process, so it is installed here in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
import tracing
from hybridq import cli
tracer = tracing.Tracer(sys.argv[1])
tracing.install(tracer)
status = cli.run(cli.parse_config_lines(sys.argv[2].splitlines())).status
print(json.dumps({"status": status, "counts": tracer.counts,
                  "problems": tracer.problems}))
"""


def _traced_run(tmp_path, config: str) -> dict:
    """Run ``config`` through ``cli.run`` under the tracer, in a fresh
    interpreter, and return its status, counters and eigenpair problems."""
    spool = tmp_path / "spool"
    spool.mkdir()
    path = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(spool), config],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_tracer_counts_every_1d_eigensolve(tmp_path):
    # a = 40 and 45 nm at hw0 = 30 meV: a well-conditioned z-overlap, where
    # no direction is dropped
    config = ("task = quartic-gap\nhw0 = 30\na = 30\ngamma = -1e-3\n"
              "N = 22\nhw0_list = 30\na_grid = 40,45\nworkers = 1\n"
              f"out_dir = {tmp_path / 'out'}\n")
    result = _traced_run(tmp_path, config)
    assert result["status"] == 0
    assert result["counts"].get("eigenproblems", 0) == 2


def test_tracer_checks_every_2d_eigenpair_set(tmp_path):
    # the check compares sol.coefficients with the dense H and S, so it
    # guards that the solve and the dense reference share one flat layout
    config = ("task = sweep-bsl\nhw0 = 30\na = 30\ngamma = -1e-3\n"
              "B0 = 0.5\nL = 4\nN = 4\nn_track = 4\nbsl_grid = 0.5,1.5\n"
              f"workers = 1\nout_dir = {tmp_path / 'out'}\n")
    result = _traced_run(tmp_path, config)
    assert result["status"] == 0
    assert result["counts"].get("eigen_checked", 0) == 2
    assert result["problems"] == []
