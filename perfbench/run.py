"""Benchmark of hybridq batch runs, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep2d --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: a request is one
``hybridq.cli.run`` on a config drawn from the seed, in a fresh interpreter
(``child.py``); the next request starts when the previous one has ended.
The loop starts no request it expects to end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same loop untraced, replays its requests with spans
around each layer's entry points and reports the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it give
every metric with its unit, the failed fraction, the time accounting of the
traced run and the machine facts.  ``--workload all`` runs every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

from checks import csv_points, match_problems, read_csv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
# a workload ends within 3 x --seconds (the untraced loop, its traced
# replay and a last request running past --seconds) plus this margin; a
# request still running then is killed and its points count as timed out
DEADLINE_MARGIN_S = 80.0
SETUP_PROBES = 4

_BASE_2D = ["hw0 = 30", "a = 30", "gamma = -1e-3", "B0 = 0.5",
            "eta = 4", "mu = 0.7", "L = 20", "N = 20"]
_HW0_LIST = (10, 15, 20, 25, 30, 35, 40, 45, 50)   # configs/quartic-gap.cfg


def _grid(values, scale) -> str:
    return ",".join(repr(v / scale) for v in sorted(values))


def _sweep2d(rng: random.Random) -> list[str]:
    # bSLa in (0, 2] T, 1 mT steps: every point has a complex Hamiltonian
    bsl = rng.sample(range(1, 2001), 2)
    return [*_BASE_2D, "n_track = 8", f"bsl_grid = {_grid(bsl, 1000)}"]


def _stabilize2d(rng: random.Random) -> list[str]:
    # mu in [0.5, 1.0], where criterion 1a holds; one point per request,
    # since each point is a new spec anyway and more requests give a
    # steadier median
    mu = rng.sample(range(500, 1001), 1)
    return [*_BASE_2D, "bSLa = 2", "n_track = 32",
            f"mu_grid = {_grid(mu, 1000)}"]


def _gap1d(rng: random.Random) -> list[str]:
    # the shipped hw0 list; a in [4, 60] nm in 0.01 nm steps
    a = rng.sample(range(400, 6001), 4)
    return ["hw0 = 30", "a = 30", "gamma = -1e-3", "N = 22",
            f"hw0_list = {_grid(_HW0_LIST, 1)}", f"a_grid = {_grid(a, 100)}"]


@dataclass(frozen=True)
class Workload:
    task: str
    workers: int
    draw: object    # rng -> config lines of one request's inputs

    def generate(self, rng: random.Random) -> list[str]:
        return [f"task = {self.task}", f"workers = {self.workers}",
                *self.draw(rng)]


WORKLOADS = {
    "sweep2d": Workload("sweep-bsl", 1, _sweep2d),
    "stabilize2d": Workload("stabilize", 1, _stabilize2d),
    "gap1d": Workload("quartic-gap", 2, _gap1d),
}

LAYERS = ("basis", "assembly", "solver", "observables", "quartic1d", "cli")


@dataclass
class Request:
    lines: list
    directory: str
    t_spawn: float = 0.0
    elapsed_s: float = 0.0
    timed_out: bool = False
    result: dict | None = None


def _run_request(workdir: str, tag: str, lines: list, mode: tuple,
                 deadline: float) -> Request:
    """One fresh child process; ``lines`` empty for a set-up probe."""
    request = Request(lines=lines, directory=os.path.join(workdir, tag))
    os.makedirs(request.directory)
    if lines:
        with open(os.path.join(request.directory, "config.cfg"), "w",
                  encoding="utf-8") as out:
            out.write("\n".join(
                [*lines, f"out_dir = {request.directory}/out"]) + "\n")
    request.t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, request.directory, *mode],
                            cwd=ROOT, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        request.timed_out = True
    finally:
        if proc.returncode is None:     # over time, or this run was stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    request.elapsed_s = time.monotonic() - request.t_spawn
    path = os.path.join(request.directory, "result.json")
    if proc.returncode == 0 and os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            request.result = json.load(handle)
    return request


def closed_loop(workload: Workload, rng: random.Random, seconds: float,
                workdir: str, deadline: float, trace: bool = False):
    """Untraced requests until ``seconds`` are spent.  With ``trace`` each
    one is replayed with spans right after it, so that both runs of a
    request meet the same machine load.  Returns (untraced, traced)."""
    untraced, traced, spent, last = [], [], 0.0, 0.0
    while not untraced or spent + last <= seconds:
        tag = f"{len(untraced):03d}"
        request = _run_request(workdir, "u" + tag, workload.generate(rng),
                               (), deadline)
        last = request.elapsed_s
        spent += last
        untraced.append(request)
        if trace:
            traced.append(_run_request(workdir, "t" + tag, request.lines,
                                       ("--trace",), deadline))
    return untraced, traced


def _n_points(lines: list) -> int:
    grids = [line.split("=", 1)[1].count(",") + 1 for line in lines
             if line.split("=", 1)[0].strip().endswith(("_grid", "_list"))]
    n = 1
    for size in grids:
        n *= size
    return n


def points_of(workload: Workload, request: Request) -> list:
    """(values, problems) per grid point; a request that produced no
    complete dataset fails on all of its points."""
    expected = _n_points(request.lines)
    if request.timed_out:
        return [([], ["timed out"])] * expected
    csv_path = os.path.join(request.directory, "out", f"{workload.task}.csv")
    if request.result is None or request.result["status"] != 0 \
            or not os.path.exists(csv_path):
        return [([], ["request failed"])] * expected
    found = csv_points(workload.task, read_csv(csv_path))
    if len(found) != expected:
        return [([], [f"{len(found)} points, expected {expected}"])] * expected
    return found


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(workload, requests, probes):
    attempted = failed = 0
    rates, rss = [], []
    for request in requests:
        points = points_of(workload, request)
        bad = sum(1 for _, problems in points if problems)
        attempted += len(points)
        failed += bad
        if request.result is not None:
            rates.append((len(points) - bad) / request.result["wall_s"])
            rss.append(request.result["peak_rss_mb"])
    setups = [r.result["t_ready"] - r.t_spawn for r in (*probes, *requests)
              if r.result is not None]
    metrics = {
        "points_per_s": (_median(rates), "1/s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median(rss), "MiB"),
    }
    notes = [f"requests = {len(requests)}, setups = {len(setups)}, "
             f"points = {attempted}"]
    return metrics, attempted, failed, notes


def _merge(totals: list) -> tuple[dict, dict, list]:
    self_s, counts, problems = {}, {}, []
    for part in totals:
        for key, value in part["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
        problems += part["problems"]
    return self_s, counts, problems


def per_layer(workload, untraced, traced):
    attempted = failed = 0
    for before, after in zip(untraced, traced):
        plain = points_of(workload, before)
        for (v0, p0), (v1, p1) in zip(plain, points_of(workload, after)):
            attempted += 2
            failed += bool(p0) + bool(p1 or match_problems(v0, v1))
    done = [r for r in traced if r.result is not None]
    main_self, _, _ = _merge([r.result["main"] for r in done])
    self_s, counts, problems = _merge(
        [r.result["main"] for r in done]
        + [part for r in done for part in r.result["workers"]])
    failed += int(counts.get("eigen_failed", 0))
    points = max(1, attempted // 2)
    plain_wall = sum(r.result["wall_s"] for r in untraced if r.result) \
        or float("nan")
    traced_wall = sum(r.result["wall_s"] for r in done)
    # the traced wall without the benchmark's own checks in the main process
    busy_wall = traced_wall - main_self.get("check", 0.0)
    builds = counts.get("table_builds", 0)
    calls = counts.get("table_calls", 0)
    eigenproblems = counts.get("eigenproblems", 0)
    metrics = {
        "basis.tables_s": (self_s.get("basis", 0.0) / points, "s/point"),
        "basis.table_builds": (builds / points, "count/point"),
        "basis.table_hit_ratio": ((calls - builds) / calls if calls else 0.0,
                                  "ratio"),
        "assembly.assemble_s": (self_s.get("assembly", 0.0) / points,
                                "s/point"),
        "assembly.dense_mb": (counts.get("dense_bytes", 0)
                              / max(1, counts.get("assemblies", 0)) / 1e6,
                              "MB"),
        "solver.solve_s": (self_s.get("solver", 0.0) / points, "s/point"),
        "solver.matrix_dim": (counts.get("matrix_dim", 0)
                              / max(1, eigenproblems), "count"),
        "solver.eigenproblems": (eigenproblems / points, "count/point"),
        "observables.report_s": (self_s.get("observables", 0.0) / points,
                                 "s/point"),
        "quartic1d.solve_1d_s": (self_s.get("quartic1d", 0.0) / points,
                                 "s/point"),
        "cli.self_s": (self_s.get("cli", 0.0) / points, "s/point"),
        "cli.parallel_efficiency": ((counts.get("busy_s", 0.0)
                                     - self_s.get("check", 0.0))
                                    / (workload.workers * busy_wall),
                                    "ratio"),
        "trace.overhead_frac": (busy_wall / plain_wall - 1.0, "ratio"),
    }
    main_sum = sum(main_self.get(layer, 0.0) for layer in LAYERS)
    worker_sum = sum(self_s.get(layer, 0.0) for layer in LAYERS) - main_sum
    notes = [
        f"traced requests = {len(traced)}, points = {points}, "
        f"eigenpairs checked = {int(counts.get('eigen_checked', 0))}",
        "traced wall {:.4f} s = main-process layer self times {:.4f} s "
        "+ pool wait {:.4f} s + checks {:.4f} s".format(
            traced_wall, main_sum, main_self.get("wait", 0.0),
            main_self.get("check", 0.0)),
        "worker layer self times {:.4f} s over {} worker(s); checks in "
        "workers {:.4f} s".format(
            worker_sum, workload.workers,
            self_s.get("check", 0.0) - main_self.get("check", 0.0)),
        "layer self times: " + ", ".join(
            f"{layer} {self_s.get(layer, 0.0):.4f} s" for layer in LAYERS),
        "dominant layer: " + max(LAYERS, key=lambda k: self_s.get(k, 0.0)),
        *problems[:5],
    ]
    return metrics, attempted, failed, notes


def _git_commit() -> str:
    """HEAD of the checkout; git looks for it no higher than the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def facts(workload: Workload, requests) -> dict:
    blas = next((r.result["blas"] for r in requests if r.result), [])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": workload.workers,
        "blas": blas,
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + 3 * seconds + DEADLINE_MARGIN_S
    rng = random.Random(f"{name}/{seed}")
    if trace:
        untraced, traced = closed_loop(workload, rng, seconds, workdir,
                                       deadline, trace=True)
        metrics, attempted, failed, notes = per_layer(workload, untraced,
                                                      traced)
    else:
        probes = [_run_request(workdir, f"p{i}", [], ("--probe",), deadline)
                  for i in range(SETUP_PROBES)]
        untraced, traced = closed_loop(workload, rng, seconds, workdir,
                                       deadline)
        metrics, attempted, failed, notes = end_to_end(workload, untraced,
                                                       probes)
    timed_out = sum(_n_points(r.lines) for r in (*untraced, *traced)
                    if r.timed_out)
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value!r} {unit}")
    print(f"{name} failed_frac = {failed / max(1, attempted)!r} "
          f"({failed} of {attempted} points, {timed_out} of them timed out)")
    for note in notes:
        print(f"{name} {note}")
    print(f"{name} facts: {json.dumps(facts(workload, untraced))}")
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a stopped run still kills its request and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "hybridq", "cli.py")):
        print("perfbench: src/hybridq not found next to perfbench/",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace),
                                  os.path.join(workdir, name))
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
