"""Spans around the public entry points of hybridq's layers.

The tracer wraps module attributes from outside the package, so the source
stays unchanged.  A layer's self time is the duration of its spans minus
the time their child spans cover.  Each process keeps its own totals; a
pool worker appends its totals to a spool file after every task, because
the pool terminates workers without running exit handlers.

Work done by the benchmark itself (the eigenpair check) is booked to
``check`` and the main process's wait on a worker pool to ``wait``; neither
is a layer.
"""

from __future__ import annotations

import functools
import json
import os
import time
from multiprocessing import pool as mp_pool

from checks import eigenpair_problems


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.stack = []        # child time covered so far, per open span
        self.self_s = {}       # layer -> self time [s]
        self.counts = {}       # counter name -> value
        self.problems = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _book(self, layer: str, duration: float, child: float) -> None:
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        if self.stack:
            self.stack[-1][0] += duration

    def wrap(self, layer: str, func, after=None, task=False):
        """Wrap ``func`` in a span of ``layer``.

        ``after(result, *args)`` runs once the span has closed and is booked
        to ``check``.  A ``task`` span is one grid point handed to a worker.
        """
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.stack.pop()
                self._book(layer, duration, frame[0])
            if after is not None:
                start = time.perf_counter()
                after(result, *args)
                self._book("check", time.perf_counter() - start, 0.0)
            if task:
                self.count("busy_s", duration)
                if os.getpid() != self.main_pid:
                    self.flush()
            return result
        return wrapper

    def flush(self) -> None:
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as out:
            out.write(json.dumps(self.totals()) + "\n")
        self._reset()

    def totals(self) -> dict:
        return {"self_s": self.self_s, "counts": self.counts,
                "problems": self.problems}

    def spooled(self) -> list[dict]:
        """Totals flushed by pool workers."""
        found = []
        for name in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, name),
                      encoding="utf-8") as handle:
                found += [json.loads(line) for line in handle]
        return found


def install(tracer: Tracer) -> None:
    """Patch the layer entry points that ``hybridq.cli.run`` reaches."""
    from hybridq import assembly, basis, cli, observables, quartic1d, solver

    def patch(module, name, layer, **kw):
        setattr(module, name, tracer.wrap(layer, getattr(module, name), **kw))

    def table_wrapper(func):
        @functools.wraps(func)
        def counted(*args):
            misses = func.cache_info().misses
            result = func(*args)
            tracer.count("table_calls")
            tracer.count("table_builds", func.cache_info().misses - misses)
            return result
        return counted

    for name in ("z_element_table", "y_element_table"):
        setattr(basis, name, tracer.wrap(
            "basis", table_wrapper(getattr(basis, name))))

    def after_assemble(problem, *args):
        tracer.count("assemblies")
        tracer.count("dense_bytes", sum(
            a.nbytes for a in (problem.H, problem.S, problem.s_spatial,
                               problem.z_spatial)))

    def after_solve(sol, problem, *args):
        tracer.count("eigenproblems")
        tracer.count("matrix_dim", problem.size)
        tracer.count("eigen_checked")
        found = eigenpair_problems(problem.H, problem.S, sol.coefficients,
                                   sol.energies)
        if found:
            tracer.count("eigen_failed")
            tracer.problems += found

    def after_canonical(result, H, S):
        tracer.count("eigenproblems")
        tracer.count("matrix_dim", H.shape[0])

    patch(assembly, "assemble", "assembly", after=after_assemble)
    patch(solver, "solve", "solver", after=after_solve)
    patch(solver, "stabilize", "solver")
    canonical = tracer.wrap("solver", solver._canonical_solve,
                            after=after_canonical)
    solver._canonical_solve = quartic1d._canonical_solve = canonical
    patch(observables, "state_report", "observables")
    for name in ("solve_1d", "classify_regimes", "contour_fit"):
        patch(quartic1d, name, "quartic1d")
    patch(cli, "_solve_point", "cli", task=True)
    patch(cli, "_quartic_point", "cli", task=True)
    patch(solver, "_stabilize_point", "solver", task=True)
    mp_pool.Pool.map = tracer.wrap("wait", mp_pool.Pool.map)
