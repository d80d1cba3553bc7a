"""Batch front end: config files, sweep orchestration, CSV/plot emission.

A run is described by a plain-text config (``key = value`` lines, ``#``
comments).  Each task writes into the output directory:

* ``<task>.csv``     comma-separated dataset, 17 significant digits, with
                     the full configuration echoed in ``# config:`` comments
* ``<task>.plt``     a gnuplot script rendering the CSV
* ``<task>_summary.txt``  human-readable run summary

Grids are written either as comma lists (``20,25,30``) or inclusive ranges
``lo:hi:step``.  The whole config, every grid point included, is validated
before any point runs, command-line overrides included: unknown keys,
malformed or non-finite numbers, ranges longer than ``MAX_GRID_POINTS``, a
basis larger than ``MAX_BASIS_SIZE``, an ``n_track`` the basis cannot hold,
a grid the task does not read and grid points that are not a valid working
point raise ``ConfigError``, and ``main`` then exits with status 2 without
writing a dataset.  Sweep points fan out over a worker pool (``--workers``,
config ``workers`` or the ``HYBRIDQ_WORKERS`` environment variable).  A
point whose solve fails with a ``solver.POINT_ERRORS`` exception is flagged
in the CSV rather than aborting the run; any other exception propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import assembly, observables, quartic1d, solver
from .basis import BasisSpec
from .errors import ConfigError, HybridQError
from .model import PhysicalParams, scale

TASKS = ("solve", "stabilize", "sweep-bsl", "sweep-w0", "sweep-B0",
         "quartic-gap", "contour-fit")

# defaults: the paper's working parameter set
_DEFAULTS = {
    "m_ratio": 0.041,
    "eta": 4.0,
    "mu": 0.7,
    "L": 20,
    "N": 20,
    "n_track": 8,
}

_FLOAT_KEYS = ("hw0", "a", "b", "gamma", "B0", "bSLa", "m_ratio",
               "eta", "mu")
_INT_KEYS = ("L", "N", "n_track", "workers")
_GRID_KEYS = ("mu_grid", "eta_grid", "bsl_grid", "hw0_list", "B0_list",
              "a_grid", "targets")
_ALL_KEYS = ("task", "out_dir") + _FLOAT_KEYS + _INT_KEYS + _GRID_KEYS

# largest number of points a range grid, or the product grid of one run,
# may hold; far above any feasible run, it keeps a typo such as a tiny
# step from building a huge grid
MAX_GRID_POINTS = 100_000

# largest variational basis a run may ask for: 4LN for the 2D tasks, 2N
# for the 1D tasks; one dense real matrix of this size takes 512 MB
MAX_BASIS_SIZE = 8000

# tasks that solve the 1D problem in 2N z-functions alone
_TASKS_1D = ("quartic-gap", "contour-fit")

# PhysicalParams fields each sweep task varies, outer first; a run visits
# the product of their grids in outer-major order
_SWEPT = {
    "sweep-bsl": ("bSLa",),
    "sweep-w0": ("hw0", "bSLa"),
    "sweep-B0": ("B0", "bSLa"),
    "quartic-gap": ("hw0", "a"),
    "contour-fit": ("hw0", "a"),
}
_GRID_OF = {"bSLa": "bsl_grid", "hw0": "hw0_list", "B0": "B0_list",
            "a": "a_grid"}
_COLUMN_OF = {"bSLa": "bSLa_T", "hw0": "hw0", "B0": "B0_T"}


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one batch run."""

    task: str
    physical: PhysicalParams
    eta: float
    mu: float
    L: int
    N: int
    n_track: int
    workers: int | None = None
    out_dir: str | None = None
    mu_grid: tuple = ()
    eta_grid: tuple = ()
    bsl_grid: tuple = ()
    hw0_list: tuple = ()
    B0_list: tuple = ()
    a_grid: tuple = ()
    targets: tuple = ()

    @property
    def spec(self) -> BasisSpec:
        return BasisSpec(eta=self.eta, mu=self.mu, L=self.L, N=self.N)


@dataclass(frozen=True)
class RunResult:
    status: int
    files: tuple


def _parse_number(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"malformed number {text!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text!r}", line)
    return value


def _parse_grid(text: str, line: int) -> tuple:
    """A comma list or an inclusive lo:hi:step range."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("range must be lo:hi:step", line)
        lo, hi, step = (_parse_number(p, line) for p in parts)
        if step <= 0 or hi < lo:
            raise ConfigError("range needs hi >= lo and step > 0", line)
        # compared as a float: the quotient may be inf or beyond any list
        count = (hi - lo) / step + 1e-9
        if count >= MAX_GRID_POINTS:
            raise ConfigError(
                f"range has more than {MAX_GRID_POINTS} points", line)
        n = int(math.floor(count)) + 1
        return tuple(lo + i * step for i in range(n))
    return tuple(_parse_number(p, line) for p in text.split(","))


def parse_config_lines(lines) -> RunConfig:
    """Parse config text lines into a validated RunConfig."""
    return _validate_config(_parse_raw(lines))


def _parse_raw(lines) -> dict:
    """Config text lines as a dict of typed values, not yet validated."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if key in ("task", "out_dir"):
            raw[key] = value
        elif key in _GRID_KEYS:
            raw[key] = _parse_grid(value, lineno)
        elif key in _INT_KEYS:
            num = _parse_number(value, lineno)
            if num != int(num):
                raise ConfigError(f"{key} must be an integer", lineno)
            raw[key] = int(num)
        else:
            raw[key] = _parse_number(value, lineno)
    return raw


def _validate_config(raw: dict) -> RunConfig:
    task = raw.get("task")
    if task is None:
        raise ConfigError("missing required key 'task'")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    for key in ("hw0", "a"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    try:
        physical = PhysicalParams(
            hw0=raw["hw0"], a=raw["a"], b=raw.get("b"),
            gamma=raw.get("gamma", 0.0), B0=raw.get("B0", 0.0),
            bSLa=raw.get("bSLa", 0.0),
            m_ratio=raw.get("m_ratio", _DEFAULTS["m_ratio"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    cfg = RunConfig(
        task=task,
        physical=physical,
        eta=raw.get("eta", _DEFAULTS["eta"]),
        mu=raw.get("mu", _DEFAULTS["mu"]),
        L=raw.get("L", _DEFAULTS["L"]),
        N=raw.get("N", _DEFAULTS["N"]),
        n_track=raw.get("n_track", _DEFAULTS["n_track"]),
        workers=raw.get("workers"),
        out_dir=raw.get("out_dir"),
        mu_grid=raw.get("mu_grid", ()),
        eta_grid=raw.get("eta_grid", ()),
        bsl_grid=raw.get("bsl_grid", ()),
        hw0_list=raw.get("hw0_list", ()),
        B0_list=raw.get("B0_list", ()),
        a_grid=raw.get("a_grid", ()),
        targets=raw.get("targets", ()),
    )
    try:
        cfg.spec  # validates eta, mu, L, N
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _check_sizes(cfg)
    _check_grids(cfg)
    _grid_points(cfg)  # every working point is valid and scales
    return cfg


def _check_sizes(cfg: RunConfig) -> None:
    """The basis fits ``MAX_BASIS_SIZE`` and a 2D task tracks between one
    (two for a sweep, which reports the gap) and all 4LN levels."""
    if cfg.task in _TASKS_1D:
        size, what = 2 * cfg.N, "2N"
    else:
        size, what = cfg.spec.size, "4LN"
    if size > MAX_BASIS_SIZE:
        raise ConfigError(f"basis size {what} = {size} exceeds "
                          f"{MAX_BASIS_SIZE}")
    if cfg.task in _TASKS_1D:
        return
    lowest = 2 if cfg.task in _SWEPT else 1
    if not lowest <= cfg.n_track <= size:
        raise ConfigError(f"task {cfg.task!r} needs n_track between "
                          f"{lowest} and 4LN = {size}, not {cfg.n_track}")


def _require_grid(cfg: RunConfig, name: str) -> None:
    grid = getattr(cfg, name)
    if len(grid) == 0:
        raise ConfigError(f"task {cfg.task!r} requires {name}")
    if len(grid) > 1 and any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{name} must be strictly increasing")


def _check_grids(cfg: RunConfig) -> None:
    """The grids the task reads are set and valid; no other grid is set,
    so the ``# config:`` echo never claims a sweep that did not run."""
    needed = [_GRID_OF[field] for field in _SWEPT.get(cfg.task, ())]
    if cfg.task == "contour-fit":
        needed.append("targets")
    if cfg.task == "stabilize":
        if bool(cfg.mu_grid) == bool(cfg.eta_grid):
            raise ConfigError(
                "task 'stabilize' requires exactly one of mu_grid, eta_grid")
        needed.append("mu_grid" if cfg.mu_grid else "eta_grid")
    unread = [name for name in _GRID_KEYS
              if getattr(cfg, name) and name not in needed]
    if unread:
        raise ConfigError(f"task {cfg.task!r} does not read "
                          f"{', '.join(unread)}")
    for name in needed:
        _require_grid(cfg, name)
    if cfg.task == "stabilize" and getattr(cfg, needed[0])[0] <= 0:
        raise ConfigError(f"{needed[0]} values must be positive")


def _grid_points(cfg: RunConfig) -> list:
    """The working points of a run as (swept values, PhysicalParams) pairs.

    Sweep tasks visit the product of their grids, outer-major; ``solve``
    and ``stabilize`` have the one point ``cfg.physical``.  The barrier
    length b keeps its ratio to a.  Every point is built and scaled here,
    so an invalid one raises ConfigError before any point runs.
    """
    fields = _SWEPT.get(cfg.task, ())
    grids = [getattr(cfg, _GRID_OF[field]) for field in fields]
    n_points = math.prod(len(grid) for grid in grids)
    if n_points > MAX_GRID_POINTS:
        raise ConfigError(f"task {cfg.task!r} spans {n_points} grid points;"
                          f" at most {MAX_GRID_POINTS} are allowed")
    p = cfg.physical
    points = []
    for values in itertools.product(*grids):
        changes = dict(zip(fields, values))
        if "a" in changes:
            changes["b"] = p.b / p.a * changes["a"]
        try:
            point = dataclasses.replace(p, **changes)
            scale(point)
        except ValueError as exc:
            where = ", ".join(f"{f} = {v:g}" for f, v in zip(fields, values))
            raise ConfigError(
                f"grid point {where}: {exc}" if where else str(exc)) from None
        points.append((values, point))
    return points


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a run configuration file.

    ``overrides`` maps config keys to typed values that replace the file's
    before the whole config is validated.
    """
    with open(path, encoding="utf-8") as handle:
        raw = _parse_raw(handle)
    raw.update(overrides or {})
    return _validate_config(raw)


def _fmt(value) -> str:
    return f"{value:.17g}"


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back into parseable config text."""
    p = cfg.physical
    lines = [f"task = {cfg.task}"]
    for key, value in (("hw0", p.hw0), ("a", p.a), ("b", p.b),
                       ("gamma", p.gamma), ("B0", p.B0), ("bSLa", p.bSLa),
                       ("m_ratio", p.m_ratio), ("eta", cfg.eta),
                       ("mu", cfg.mu)):
        lines.append(f"{key} = {_fmt(value)}")
    for key in ("L", "N", "n_track"):
        lines.append(f"{key} = {getattr(cfg, key)}")
    if cfg.workers is not None:
        lines.append(f"workers = {cfg.workers}")
    if cfg.out_dir is not None:
        lines.append(f"out_dir = {cfg.out_dir}")
    for key in _GRID_KEYS:
        grid = getattr(cfg, key)
        if grid:
            lines.append(f"{key} = " + ",".join(_fmt(v) for v in grid))
    return "\n".join(lines) + "\n"


def config_from_csv(path) -> RunConfig:
    """Reconstruct the RunConfig echoed in a dataset's comment header."""
    lines = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# config: "):
                lines.append(line[len("# config: "):])
    if not lines:
        raise ConfigError(f"{path} carries no '# config:' echo")
    return parse_config_lines(lines)


# ----------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _TaskOutput:
    """What a task runner hands to ``run`` for writing.

    ``rows`` hold floats and strings in ``columns`` order, ``notes`` head
    the CSV as comments, ``summary`` lines go to the summary file and
    ``plot`` is the gnuplot script text.
    """

    columns: list
    rows: list
    notes: tuple
    summary: list
    plot: str
    status: int = 0


def _plot_script(task: str, xlabel: str, ylabel: str, *commands) -> str:
    lines = [
        f"# gnuplot script; renders {task}.csv",
        "set datafile separator ','",
        "set terminal pngcairo size 960,640",
        f"set output '{task}.png'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key outside",
        *commands,
    ]
    return "\n".join(lines) + "\n"


def _resolve_workers(cfg: RunConfig) -> int:
    """Worker count from the config (or ``--workers``), else from
    ``HYBRIDQ_WORKERS``, else 1; a value below 1 is a ``ConfigError``."""
    workers = cfg.workers
    if workers is None:
        env = os.environ.get("HYBRIDQ_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"HYBRIDQ_WORKERS={env!r} is not an integer")
    if workers < 1:
        raise ConfigError(f"worker count {workers} must be at least 1")
    return workers


def _solve_point(args):
    """Worker: one full assemble+solve, returning plain observables."""
    physical, spec, n_track = args
    try:
        scaled = scale(physical)
        problem = assembly.assemble(scaled, spec)
        sol = solver.solve(problem, n_track)
        n_obs = min(4, n_track)
        reports = [observables.state_report(sol, j, problem)
                   for j in range(n_obs)]
        return {
            "energies": sol.energies.tolist(),
            "z": [r.z_mean for r in reports],
            "sx": [r.sx_mean for r in reports],
            "error": None,
        }
    except solver.POINT_ERRORS as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _nan_row(n: int) -> list:
    return [float("nan")] * n


def _run_solve(cfg: RunConfig, workers: int) -> _TaskOutput:
    res = _solve_point((cfg.physical, cfg.spec, cfg.n_track))
    hw0 = cfg.physical.hw0
    columns = ["state", "E_hw0", "E_meV", "z_over_a", "sigma_x", "status"]
    summary = [f"lowest {cfg.n_track} states at bSLa = {cfg.physical.bSLa} T"]
    plot = _plot_script("solve", "state index", "E / hw0",
                        "plot 'solve.csv' using 1:2 with points pt 7 notitle")
    notes = ("columns: index, energy [hw0], energy [meV], <z>/a, "
             "<sigma_x>, status",)
    if res["error"] is not None:
        rows = [[*_nan_row(len(columns) - 1),
                 f"failed: {res['error'].replace(',', ';')}"]]
        summary.append(f"FAILED: {res['error']}")
        return _TaskOutput(columns, rows, notes, summary, plot, status=1)
    rows = []
    for j, energy in enumerate(res["energies"]):
        z = res["z"][j] if j < len(res["z"]) else float("nan")
        sx = res["sx"][j] if j < len(res["sx"]) else float("nan")
        rows.append([float(j), energy, energy * hw0, z, sx, "ok"])
    if cfg.n_track >= 2:
        gap = res["energies"][1] - res["energies"][0]
        summary.append(f"qubit gap (E1-E0): {gap:.6e} hw0 = "
                       f"{gap * hw0 * 1e3:.4f} ueV")
    summary.append(f"ground <z>/a = {res['z'][0]:.4f}, "
                   f"<sigma_x> = {res['sx'][0]:.4f}")
    return _TaskOutput(columns, rows, notes, summary, plot)


def _run_stabilize(cfg: RunConfig, workers: int) -> _TaskOutput:
    parameter = "mu" if cfg.mu_grid else "eta"
    grid = cfg.mu_grid or cfg.eta_grid
    scaled = scale(cfg.physical)
    table = solver.stabilize(scaled, cfg.spec, parameter, grid,
                             cfg.n_track, workers=workers)
    columns = [parameter] + [f"E{j}_hw0" for j in range(cfg.n_track)] \
        + ["status"]
    rows = []
    failed = dict(table.failures)
    for i, value in enumerate(table.grid):
        status = "failed" if i in failed else "ok"
        rows.append([float(value), *table.energies[i].tolist(), status])
    summary = [f"stabilization parameter: {parameter}",
               f"window tolerance: {table.tolerance:g}"]
    for plateau in table.plateaus:
        if plateau is None:
            continue
        summary.append(
            f"level {plateau.level}: plateau [{plateau.lo:g}, {plateau.hi:g}]"
            f" ({plateau.n_points} pts, rel variation "
            f"{plateau.rel_variation:.2e})")
    for index, message in table.failures:
        summary.append(f"FAILED {parameter} = {table.grid[index]:g}: "
                       f"{message}")
    plot = _plot_script(
        "stabilize", parameter, "E / hw0",
        f"plot for [i={columns.index('E0_hw0') + 1}:"
        f"{columns.index(f'E{cfg.n_track - 1}_hw0') + 1}] 'stabilize.csv' "
        "using 1:i with lines lw 1.5 notitle")
    return _TaskOutput(
        columns, rows, (f"stabilization of the lowest {cfg.n_track} "
                        f"eigenvalues vs {parameter}; energies in hw0 units",),
        summary, plot, status=int(len(table.failures) == len(grid)))


def _run_sweep(cfg: RunConfig, workers: int) -> _TaskOutput:
    """sweep-bsl, sweep-w0 and sweep-B0: one full solve per point of the
    outer grid (none, hw0_list or B0_list) times bsl_grid."""
    fields = _SWEPT[cfg.task]
    points = _grid_points(cfg)
    tasks = [(point, cfg.spec, cfg.n_track) for _, point in points]
    results = solver.parallel_map(_solve_point, tasks, workers)
    columns = ([_COLUMN_OF[field] for field in fields]
               + [f"E{j}_hw0" for j in range(cfg.n_track)]
               + ["gap_hw0", "gap_ueV"]
               + [f"z{j}" for j in range(4)]
               + [f"sx{j}" for j in range(4)]
               + ["status"])
    rows, n_failed = [], 0
    for (lead, point), res in zip(points, results):
        if res["error"] is not None:
            n_failed += 1
            rows.append([*lead, *_nan_row(len(columns) - len(lead) - 1),
                         f"failed: {res['error'].replace(',', ';')}"])
            continue
        energies = res["energies"]
        gap = energies[1] - energies[0]
        z = (res["z"] + _nan_row(4))[:4]
        sx = (res["sx"] + _nan_row(4))[:4]
        rows.append([*lead, *energies, gap, gap * point.hw0 * 1e3,
                     *z, *sx, "ok"])

    outer = getattr(cfg, _GRID_OF[fields[0]])

    def curves(column: str, title: str) -> str:
        """One curve of ``column`` against bSLa per outer value."""
        k = columns.index(column) + 1
        return "plot " + " , ".join(
            f"'{cfg.task}.csv' using 2:($1 == {v:g} ? ${k} : NaN) "
            f"with linespoints title '{title.format(v)}'" for v in outer)

    if cfg.task == "sweep-bsl":
        note = "spectrum and lowest-state observables vs bSLa"
        summary = f"swept bSLa over {len(points)} points"
        plot = _plot_script(
            cfg.task, "b_SL a  [T]", "E / hw0",
            f"plot for [i={columns.index('E0_hw0') + 1}:"
            f"{columns.index(f'E{cfg.n_track - 1}_hw0') + 1}] "
            "'sweep-bsl.csv' using 1:i with lines lw 1.5 notitle")
    else:
        summary = (f"swept {len(outer)} {fields[0]} values x "
                   f"{len(cfg.bsl_grid)} bSLa points")
        if cfg.task == "sweep-w0":
            note = "qubit metrics vs bSLa for several dot energies hw0"
            plot = _plot_script(
                cfg.task, "b_SL a  [T]", "qubit metrics",
                "set multiplot layout 2,1", "set ylabel 'gap / hw0'",
                curves("gap_hw0", "gap, hw0={:g} meV"),
                "set ylabel '<sigma_x> ground'",
                curves("sx0", "hw0={:g} meV"), "unset multiplot")
        else:
            note = "ground-state <sigma_x> vs bSLa for several B0"
            plot = _plot_script(cfg.task, "b_SL a  [T]", "<sigma_x> ground",
                                curves("sx0", "B0={:g} T"))
    return _TaskOutput(columns, rows, (note,),
                       [f"{summary}; {n_failed} failed"], plot,
                       status=int(n_failed == len(points)))


def _quartic_point(args):
    hw0, a, b, gamma, n_basis, m_ratio = args
    try:
        levels = quartic1d.solve_1d(hw0, a, b=b, gamma=gamma,
                                    n_basis=n_basis, n_lowest=2,
                                    m_ratio=m_ratio)
        return float(levels[1] - levels[0]), None
    except solver.POINT_ERRORS as exc:
        return float("nan"), f"{type(exc).__name__}: {exc}"


def _gap_surface(cfg: RunConfig, workers: int):
    """The 1D gap surface over hw0_list x a_grid, with its failed points
    as (hw0, a, message)."""
    points = _grid_points(cfg)
    tasks = [(p.hw0, p.a, p.b, p.gamma, cfg.N, p.m_ratio)
             for _, p in points]
    results = solver.parallel_map(_quartic_point, tasks, workers)
    gaps = np.array([gap for gap, _ in results]).reshape(
        len(cfg.hw0_list), len(cfg.a_grid))
    failures = [(*values, err) for (values, _), (_, err)
                in zip(points, results) if err is not None]
    surface = quartic1d.GapSurface(
        hw0_values=np.asarray(cfg.hw0_list),
        a_values=np.asarray(cfg.a_grid), gaps=gaps,
        gamma=cfg.physical.gamma, b_over_a=cfg.physical.b / cfg.physical.a,
        regimes=tuple(quartic1d.classify_regimes(cfg.a_grid, row)
                      for row in gaps))
    return surface, failures


def _run_quartic_gap(cfg: RunConfig, workers: int) -> _TaskOutput:
    surface, failures = _gap_surface(cfg, workers)
    columns = ["a_nm"] + [f"gap_hw0_{w:g}meV" for w in cfg.hw0_list] \
        + ["status"]
    rows = []
    failed_a = {a for (_, a, _) in failures}
    for j, a in enumerate(cfg.a_grid):
        status = "failed" if a in failed_a else "ok"
        rows.append([float(a), *surface.gaps[:, j].tolist(), status])
    summary = []
    names = ("algebraic", "exponential", "floor")
    for i, hw0 in enumerate(cfg.hw0_list):
        reg = surface.regimes[i]
        parts = []
        for name in names:
            span = getattr(reg, name)
            if span is not None:
                parts.append(f"{name} a in [{cfg.a_grid[span[0]]:g}, "
                             f"{cfg.a_grid[span[1]]:g}] nm")
        summary.append(f"hw0 = {hw0:g} meV: " + ("; ".join(parts) or
                                                 "no regime identified"))
    for hw0, a, err in failures:
        summary.append(f"FAILED hw0={hw0:g} a={a:g}: {err}")
    plot = _plot_script(
        "quartic-gap", "a  [nm]", "(E1-E0) / hw0", "set logscale y",
        "plot " + " , ".join(
            f"'quartic-gap.csv' using 1:{i + 2} with lines "
            f"title 'hw0={w:g} meV'" for i, w in enumerate(cfg.hw0_list)))
    return _TaskOutput(
        columns, rows,
        ("scaled 1D gap (E1-E0)/hw0 vs well half-separation a",),
        summary, plot, status=int(len(failures) == surface.gaps.size))


def _run_contour_fit(cfg: RunConfig, workers: int) -> _TaskOutput:
    surface, _ = _gap_surface(cfg, workers)
    columns = ["target_gap", "hw0_meV", "a_nm", "status"]
    rows, summary = [], []
    n_ok = 0
    for target in cfg.targets:
        try:
            fit = quartic1d.contour_fit(surface, target)
        except ValueError as exc:
            summary.append(f"target {target:g}: {exc}")
            continue
        n_ok += 1
        for hw0, a in zip(fit.hw0_values, fit.a_values):
            rows.append([float(target), float(hw0), float(a), "ok"])
        for hw0 in fit.skipped_hw0:
            rows.append([float(target), float(hw0), float("nan"),
                         "unreachable"])
        summary.append(
            f"target {target:g}: a = {fit.amplitude:.4f} * hw0^"
            f"{fit.exponent:+.4f} (R^2 = {fit.r_squared:.6f}; "
            f"{len(fit.skipped_hw0)} hw0 column(s) skipped)")
    plot = _plot_script(
        "contour-fit", "hw0  [meV]", "a  [nm]", "set logscale xy",
        "plot " + " , ".join(
            f"'contour-fit.csv' using ($1 == {t:g} ? $2 : NaN):3 "
            f"with linespoints title 'gap = {t:g}'" for t in cfg.targets))
    return _TaskOutput(
        columns, rows, ("iso-gap contours a(hw0) extracted from the "
                        "tabulated 1D gap surface",),
        summary, plot, status=int(n_ok == 0))


_RUNNERS = {
    "solve": _run_solve,
    "stabilize": _run_stabilize,
    "sweep-bsl": _run_sweep,
    "sweep-w0": _run_sweep,
    "sweep-B0": _run_sweep,
    "quartic-gap": _run_quartic_gap,
    "contour-fit": _run_contour_fit,
}


def run(cfg: RunConfig) -> RunResult:
    """Execute a configured task; emit CSV, plot script and summary."""
    workers = _resolve_workers(cfg)
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    result = _RUNNERS[cfg.task](cfg, workers)
    config_lines = serialize_config(cfg).splitlines()

    csv_path = out / f"{cfg.task}.csv"
    with open(csv_path, "w", encoding="utf-8") as handle:
        for note in result.notes:
            handle.write(f"# {note}\n")
        for line in config_lines:
            handle.write(f"# config: {line}\n")
        handle.write(",".join(result.columns) + "\n")
        for row in result.rows:
            handle.write(",".join(
                v if isinstance(v, str) else _fmt(v) for v in row) + "\n")
    plt_path = out / f"{cfg.task}.plt"
    plt_path.write_text(result.plot, encoding="utf-8")
    summary_path = out / f"{cfg.task}_summary.txt"
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(f"hybridq run: task {cfg.task}\n")
        handle.write("\nconfiguration:\n")
        for line in config_lines:
            handle.write(f"  {line}\n")
        handle.write("\nresults:\n")
        for line in result.summary:
            handle.write(f"  {line}\n")
    return RunResult(status=result.status,
                     files=(csv_path, plt_path, summary_path))


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

_SUBCOMMAND_TASKS = {
    "solve": ("solve",),
    "stabilize": ("stabilize",),
    "sweep": ("sweep-bsl", "sweep-w0", "sweep-B0"),
    "quartic": ("quartic-gap",),
    "contour": ("contour-fit",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridq",
        description="Spectral solver and sweep runner for the double-well "
                    "hybrid-qubit dot")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, tasks in _SUBCOMMAND_TASKS.items():
        cmd = sub.add_parser(name, help=f"run a {'/'.join(tasks)} task")
        cmd.add_argument("--config", required=True, help="config file path")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--workers", type=int, default=None,
                         help="worker processes (HYBRIDQ_WORKERS fallback)")
        cmd.add_argument("--track", type=int, default=None,
                         help="number of levels to track")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key, value in (("out_dir", args.out),
                                               ("workers", args.workers),
                                               ("n_track", args.track))
                 if value is not None}
    try:
        cfg = load_config(args.config, overrides)
        allowed = _SUBCOMMAND_TASKS[args.command]
        if cfg.task not in allowed:
            raise ConfigError(
                f"config task {cfg.task!r} does not match subcommand "
                f"{args.command!r} (expected one of {allowed})")
        result = run(cfg)
    except (HybridQError, OSError) as exc:
        print(f"hybridq: error: {exc}", file=sys.stderr)
        return 2
    for path in result.files:
        print(path)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
