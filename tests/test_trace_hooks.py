"""The benchmark's layer spans still reach every eigensolve, in the main
process and in the processes ``parallel_map`` starts, and its eigenpair
check accepts every 2D solve.

``perfbench/tracing.py`` wraps module attributes (``solver.solve``,
``cli._quartic_point``, ...) and ``Pool.map`` for the whole process, so it
is installed here in a fresh interpreter.  The 1D solve calls no wrapped
eigensolver, so the script counts each ``quartic1d.solve_1d`` inside the
tracer's 1D task span: a count that reaches the caller's totals, or the
spool of a started process, shows that the span closed and was booked.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
import tracing
from hybridq import cli, quartic1d
tracer = tracing.Tracer(sys.argv[1])
solve_1d = quartic1d.solve_1d
def counted(*args, **kwargs):
    tracer.count("solves_1d")
    return solve_1d(*args, **kwargs)
quartic1d.solve_1d = counted
tracing.install(tracer)
status = cli.run(cli.parse_config_lines(sys.argv[2].splitlines())).status
spooled = sum(totals["counts"].get("solves_1d", 0)
              for totals in tracer.spooled())
print(json.dumps({"status": status, "counts": tracer.counts,
                  "self_s": tracer.self_s, "problems": tracer.problems,
                  "spooled": spooled}))
"""


def _traced_run(tmp_path, config: str) -> dict:
    """Run ``config`` through ``cli.run`` under the tracer, in a fresh
    interpreter, and return its status, counters, layer self times and
    eigenpair problems, and the 1D solves that started processes
    spooled."""
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


def test_tracer_times_every_1d_task(tmp_path):
    config = ("task = quartic-gap\nhw0 = 30\na = 30\ngamma = -1e-3\n"
              "N = 22\nhw0_list = 30\na_grid = 40,45\nworkers = 1\n"
              f"out_dir = {tmp_path / 'out'}\n")
    result = _traced_run(tmp_path, config)
    assert result["status"] == 0
    assert result["counts"].get("solves_1d", 0) == 2
    assert result["counts"]["busy_s"] > 0
    assert result["self_s"]["quartic1d"] > 0


def test_pool_workers_reach_the_tracer_spool(tmp_path):
    # at 2 workers the caller and the started process claim the 52 points
    # between them; the caller counts its 1D solves itself and the
    # started process spools its totals after each task, so each solve
    # is counted exactly once
    config = ("task = quartic-gap\nhw0 = 30\na = 30\ngamma = -1e-3\n"
              "N = 22\nhw0_list = 20,30\na_grid = 30:55:1\n"
              f"workers = 2\nout_dir = {tmp_path / 'out'}\n")
    result = _traced_run(tmp_path, config)
    assert result["status"] == 0
    assert result["spooled"] > 0
    assert result["spooled"] + result["counts"].get("solves_1d", 0) == 52


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
