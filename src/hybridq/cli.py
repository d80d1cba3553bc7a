"""Batch front end: config files, sweep orchestration, CSV/plot emission.

A run is described by a plain-text config (``key = value`` lines, ``#``
comments).  Each task writes into the output directory:

* ``<task>.csv``     comma-separated dataset, 17 significant digits, with
                     the physics configuration echoed in ``# config:``
                     comments: every key the task reads but ``out_dir``
                     and ``workers``, so one config writes the same bytes
                     anywhere
* ``<task>.plt``     a gnuplot script rendering the CSV
* ``<task>_summary.txt``  human-readable run summary

Each config key is declared once in ``_KEYS`` and each task once in
``_TASK_TABLE``; a key left out takes the default of its ``RunConfig`` or
``PhysicalParams`` field.  ``_Task.reads`` says which keys a task reads: a
1D task reads none of the 2D settings ``_KEYS_2D``, and a task reads a grid
only if it sweeps or fits over it.  Grids are comma lists (``20,25,30``) or
inclusive ranges ``lo:hi:step``.  The whole config, every grid point and
command-line override included, is validated before any point runs: a file
that is not UTF-8, unknown keys, a key the task does not read set to
anything but its default, malformed or non-finite numbers, ranges longer
than ``MAX_GRID_POINTS``, an ``N`` above ``MAX_N``, a 2D basis larger than
``MAX_BASIS_SIZE``, an ``n_track`` the basis cannot hold, a worker count
below 1, a ``mu_grid``, ``eta_grid`` or ``targets`` value that is not
positive and grid points that are not a valid working point raise
``ConfigError``, and ``main`` then exits with status 2 without writing a
dataset.  The command line is
``hybridq --config FILE [--out DIR] [--workers N]``: the ``task`` key
selects the run, and the options override ``out_dir`` and ``workers``
(the worker pool size, default 1).  ``solver.parallel_map`` runs every
grid point and contour target: one that raises a ``solver.POINT_ERRORS``
exception is flagged in the summary, and a grid point also in the CSV,
rather than aborting the run; any other exception propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import assembly, observables, quartic1d, solver
from .basis import BasisSpec
from .errors import ConfigError, HybridQError
from .model import PhysicalParams, scale

# every config key and its kind, in ``# config:`` echo order; the
# PhysicalParams fields go to ``RunConfig.physical``, the rest to RunConfig
_KEYS = {
    "task": "text",
    "hw0": "float", "a": "float", "b": "float", "gamma": "float",
    "B0": "float", "bSLa": "float", "m_ratio": "float",
    "eta": "float", "mu": "float",
    "L": "int", "N": "int", "n_track": "int", "workers": "int",
    "out_dir": "text",
    "mu_grid": "grid", "eta_grid": "grid", "bsl_grid": "grid",
    "hw0_list": "grid", "B0_list": "grid", "a_grid": "grid",
    "targets": "grid",
}
_PHYSICAL = tuple(f.name for f in dataclasses.fields(PhysicalParams))

# largest number of points a range grid, or the product grid of one run,
# may hold; far above any feasible run, it keeps a typo such as a tiny
# step from building a huge grid
MAX_GRID_POINTS = 100_000

# largest 2D variational basis 4LN a run may ask for; a 1D task's 2N
# functions stay far below it under MAX_N.  It bounds the arrays of the
# solve, which grow as its square at most (8000^2 doubles take 512 MB); the
# exact z-tables behind them cost far more per function and have their own
# bound, MAX_N
MAX_BASIS_SIZE = 8000

# largest z-ladder length N.  The integer overlap recurrence of the exact
# z-tables grows much faster than the arrays: one process on a 2-vCPU VM
# took 2.8-4.0 s and 178 MiB for one 1D solve at N = 400, and 8.9 s and
# 288 MiB for one z-table build at N = 600.  Shipped configs use N <= 22
MAX_N = 400

_GRID_OF = {"bSLa": "bsl_grid", "hw0": "hw0_list", "B0": "B0_list",
            "a": "a_grid"}
_COLUMN_OF = {"bSLa": "bSLa_T", "hw0": "hw0", "B0": "B0_T"}

# the settings of the 2D problem: a 1D solve has no field, y-ladder or level
# count, and takes its own basis width eta = 1/sqrt(r_a) per point
_KEYS_2D = ("B0", "bSLa", "eta", "mu", "L", "n_track")


@dataclass(frozen=True)
class _Task:
    """One row of ``_TASK_TABLE``: the runner of a task, the
    PhysicalParams fields it sweeps (outer first; a run visits the
    product of their grids, outer-major), the other grids it reads and
    whether it is 1D (2N z-functions alone)."""

    runner: Callable
    swept: tuple = ()
    other_grids: tuple = ()
    is_1d: bool = False

    @property
    def grids(self) -> tuple:
        """The grids the task reads: its swept fields', then the others."""
        return (*map(_GRID_OF.get, self.swept), *self.other_grids)

    def reads(self, key: str) -> bool:
        """Whether the task reads config key ``key``; a key it does not
        read may hold only its default, and the echo leaves it out."""
        if _KEYS[key] == "grid":
            return key in self.grids
        return not (self.is_1d and key in _KEYS_2D)


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one batch run; the defaults are the
    paper's working basis and the number of levels tracked."""

    task: str
    physical: PhysicalParams
    eta: float = 4.0
    mu: float = 0.7
    L: int = 20
    N: int = 20
    n_track: int = 8
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


_DEFAULTS = {field.name: field.default for cls in (PhysicalParams, RunConfig)
             for field in dataclasses.fields(cls)}


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
        kind = _KEYS.get(key)
        if kind is None:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if kind == "text":
            raw[key] = value
        elif kind == "grid":
            raw[key] = _parse_grid(value, lineno)
        else:
            num = _parse_number(value, lineno)
            if kind == "int":
                if num != int(num):
                    raise ConfigError(f"{key} must be an integer", lineno)
                num = int(num)
            raw[key] = num
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
    unread = [key for key in _KEYS if key in raw
              and not _TASK_TABLE[task].reads(key)
              and raw[key] != _DEFAULTS[key]]
    if unread:
        raise ConfigError(f"task {task!r} does not read {', '.join(unread)}")

    try:
        physical = PhysicalParams(
            **{key: raw[key] for key in _PHYSICAL if key in raw})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig(physical=physical, **{
        key: value for key, value in raw.items() if key not in _PHYSICAL})
    try:
        cfg.spec  # validates eta, mu, L, N
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.workers is not None and cfg.workers < 1:
        raise ConfigError(f"worker count {cfg.workers} must be at least 1")
    _check_sizes(cfg)
    _check_grids(cfg)
    _grid_points(cfg)  # every working point is valid and scales
    return cfg


def _check_sizes(cfg: RunConfig) -> None:
    """N fits ``MAX_N``, and a 2D task's basis fits ``MAX_BASIS_SIZE`` and
    it tracks between one (two for a sweep, which reports the gap) and all
    4LN levels."""
    if cfg.N > MAX_N:
        raise ConfigError(f"N = {cfg.N} exceeds {MAX_N}")
    task = _TASK_TABLE[cfg.task]
    if task.is_1d:
        return
    size = cfg.spec.size
    if size > MAX_BASIS_SIZE:
        raise ConfigError(f"basis size 4LN = {size} exceeds {MAX_BASIS_SIZE}")
    lowest = 2 if task.swept else 1
    if not lowest <= cfg.n_track <= size:
        raise ConfigError(f"task {cfg.task!r} needs n_track between "
                          f"{lowest} and 4LN = {size}, not {cfg.n_track}")


def _check_grids(cfg: RunConfig) -> None:
    """The grids the task reads are set and valid: ``stabilize`` reads
    exactly one of mu_grid and eta_grid, every other task all of its
    grids."""
    needed = _TASK_TABLE[cfg.task].grids
    if cfg.task == "stabilize":
        if bool(cfg.mu_grid) == bool(cfg.eta_grid):
            raise ConfigError(
                "task 'stabilize' requires exactly one of mu_grid, eta_grid")
        needed = ["mu_grid" if cfg.mu_grid else "eta_grid"]
    for name in needed:
        grid = getattr(cfg, name)
        if not grid:
            raise ConfigError(f"task {cfg.task!r} requires {name}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{name} must be strictly increasing")
        if name in ("mu_grid", "eta_grid", "targets") and grid[0] <= 0:
            raise ConfigError(f"{name} values must be positive")


def _grid_points(cfg: RunConfig) -> list:
    """The working points of a run as (swept values, PhysicalParams) pairs.

    Sweep tasks visit the product of their grids, outer-major; ``solve``
    and ``stabilize`` have the one point ``cfg.physical``.  The barrier
    length b keeps its ratio to a.  Every point is built and scaled here,
    so an invalid one raises ConfigError before any point runs.
    """
    fields = _TASK_TABLE[cfg.task].swept
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


def _text_lines(path) -> list:
    """The lines of a UTF-8 text file, split where a text-mode read splits
    them; a line that is not UTF-8 is a ConfigError."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    text = []
    for lineno, line in enumerate(lines, start=1):
        try:
            text.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            raise ConfigError(f"{path} is not UTF-8 text", lineno) from None
    return text


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a run configuration file.

    ``overrides`` maps config keys to typed values that replace the file's
    before the whole config is validated.
    """
    raw = _parse_raw(_text_lines(path))
    raw.update(overrides or {})
    return _validate_config(raw)


def _fmt(value) -> str:
    return f"{value:.17g}"


def _exact(value) -> str:
    """``value`` as ``:g`` text where that reads back as ``value``, else as
    ``_fmt`` text: a plot filter or a column name then names the CSV's own
    value."""
    text = f"{value:g}"
    return text if float(text) == value else _fmt(value)


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back into parseable config text, writing only
    the keys its task reads."""
    task = _TASK_TABLE[cfg.task]
    lines = []
    for key, kind in _KEYS.items():
        if not task.reads(key):
            continue
        value = getattr(cfg.physical if key in _PHYSICAL else cfg, key)
        if value is None or (kind == "grid" and not value):
            continue
        if kind == "float":
            value = _fmt(value)
        elif kind == "grid":
            value = ",".join(_fmt(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_from_csv(path) -> RunConfig:
    """Reconstruct the RunConfig echoed in a dataset's comment header; the
    echo leaves out ``out_dir`` and ``workers``, which come back None."""
    lines = [line[len("# config: "):] for line in _text_lines(path)
             if line.startswith("# config: ")]
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


def _solve_point(args):
    """Worker: one full assemble+solve, returning plain observables."""
    physical, spec, n_track = args
    problem = assembly.assemble(scale(physical), spec)
    sol = solver.solve(problem, n_track)
    reports = [observables.state_report(sol, j, problem)
               for j in range(min(4, n_track))]
    return {
        "energies": sol.energies.tolist(),
        "z": [r.z_mean for r in reports],
        "sx": [r.sx_mean for r in reports],
    }


def _nan_row(n: int) -> list:
    return [float("nan")] * n


def _run_solve(cfg: RunConfig, workers: int) -> _TaskOutput:
    [(res, error)] = solver.parallel_map(
        _solve_point, [(cfg.physical, cfg.spec, cfg.n_track)], 1)
    hw0 = cfg.physical.hw0
    columns = ["state", "E_hw0", "E_meV", "z_over_a", "sigma_x", "status"]
    summary = [f"lowest {cfg.n_track} states at bSLa = {cfg.physical.bSLa} T"]
    plot = _plot_script("solve", "state index", "E / hw0",
                        "plot 'solve.csv' using 1:2 with points pt 7 notitle")
    notes = ("columns: index, energy [hw0], energy [meV], <z>/a, "
             "<sigma_x>, status",)
    if error is not None:
        rows = [[*_nan_row(len(columns) - 1),
                 f"failed: {error.replace(',', ';')}"]]
        summary.append(f"FAILED: {error}")
        return _TaskOutput(columns, rows, notes, summary, plot, status=1)
    pad = _nan_row(cfg.n_track)
    rows = [[float(j), energy, energy * hw0, z, sx, "ok"]
            for j, (energy, z, sx) in enumerate(zip(
                res["energies"], res["z"] + pad, res["sx"] + pad))]
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
    failed = dict(table.failures)
    rows = [[float(value), *table.energies[i].tolist(),
             "failed" if i in failed else "ok"]
            for i, value in enumerate(table.grid)]
    summary = [f"stabilization parameter: {parameter}",
               f"window tolerance: {solver.PLATEAU_TOLERANCE:g}"]
    summary += [
        f"level {plateau.level}: plateau [{plateau.lo:g}, {plateau.hi:g}]"
        f" ({plateau.n_points} pts, rel variation "
        f"{plateau.rel_variation:.2e})"
        for plateau in table.plateaus if plateau is not None]
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
    fields = _TASK_TABLE[cfg.task].swept
    points = _grid_points(cfg)
    tasks = [(point, cfg.spec, cfg.n_track) for _, point in points]
    results = solver.parallel_map(_solve_point, tasks, workers)
    columns = ([_COLUMN_OF[field] for field in fields]
               + [f"E{j}_hw0" for j in range(cfg.n_track)]
               + ["gap_hw0", "gap_ueV"]
               + [f"z{j}" for j in range(4)]
               + [f"sx{j}" for j in range(4)]
               + ["status"])
    rows, failed = [], []
    for (lead, point), (res, error) in zip(points, results):
        if error is not None:
            where = ", ".join(f"{f} = {v:g}" for f, v in zip(fields, lead))
            failed.append(f"FAILED {where}: {error}")
            rows.append([*lead, *_nan_row(len(columns) - len(lead) - 1),
                         f"failed: {error.replace(',', ';')}"])
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
            f"'{cfg.task}.csv' using 2:($1 == {_exact(v)} ? ${k} : NaN) "
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
                       [f"{summary}; {len(failed)} failed", *failed], plot,
                       status=int(len(failed) == len(points)))


def _quartic_point(args):
    hw0, a, b, gamma, n_basis, m_ratio = args
    levels = quartic1d.solve_1d(hw0, a, b=b, gamma=gamma, n_basis=n_basis,
                                n_lowest=2, m_ratio=m_ratio)
    return float(levels[1] - levels[0])


def _gap_surface(cfg: RunConfig, workers: int):
    """The 1D gap surface over hw0_list x a_grid, with its failed points
    as (hw0, a, message)."""
    points = _grid_points(cfg)
    tasks = [(p.hw0, p.a, p.b, p.gamma, cfg.N, p.m_ratio)
             for _, p in points]
    results = solver.parallel_map(_quartic_point, tasks, workers)
    # a failed point's gap, None, becomes NaN
    gaps = np.array([gap for gap, _ in results], dtype=float).reshape(
        len(cfg.hw0_list), len(cfg.a_grid))
    failures = [(*values, err) for (values, _), (_, err)
                in zip(points, results) if err is not None]
    surface = quartic1d.GapSurface(np.asarray(cfg.hw0_list),
                                   np.asarray(cfg.a_grid), gaps)
    return surface, failures


def _failure_lines(failures) -> list:
    return [f"FAILED hw0={hw0:g} a={a:g}: {err}" for hw0, a, err in failures]


def _run_quartic_gap(cfg: RunConfig, workers: int) -> _TaskOutput:
    surface, failures = _gap_surface(cfg, workers)
    columns = ["a_nm"] + [f"gap_hw0_{_exact(w)}meV" for w in cfg.hw0_list] \
        + ["status"]
    failed_a = {a for _, a, _ in failures}
    rows = [[float(a), *surface.gaps[:, j].tolist(),
             "failed" if a in failed_a else "ok"]
            for j, a in enumerate(cfg.a_grid)]
    summary = []
    for hw0, regimes in zip(cfg.hw0_list, surface.regimes):
        parts = [f"{name} a in [{cfg.a_grid[span[0]]:g}, "
                 f"{cfg.a_grid[span[1]]:g}] nm"
                 for name in ("algebraic", "exponential", "floor")
                 if (span := getattr(regimes, name)) is not None]
        summary.append(f"hw0 = {hw0:g} meV: " + ("; ".join(parts) or
                                                 "no regime identified"))
    summary += _failure_lines(failures)
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
    surface, failures = _gap_surface(cfg, workers)
    failed_hw0 = {hw0 for hw0, _, _ in failures}
    columns = ["target_gap", "hw0_meV", "a_nm", "status"]
    fits = solver.parallel_map(
        functools.partial(quartic1d.contour_fit, surface), cfg.targets, 1)
    rows, summary = [], []
    for target, (fit, error) in zip(cfg.targets, fits):
        if error is not None:
            summary.append(f"target {target:g}: {error}")
            continue
        for hw0, a in zip(fit.hw0_values, fit.a_values):
            rows.append([float(target), float(hw0), float(a), "ok"])
        for hw0 in fit.skipped_hw0:
            rows.append([float(target), float(hw0), float("nan"),
                         "failed" if hw0 in failed_hw0 else "unreachable"])
        summary.append(
            f"target {target:g}: a = {fit.amplitude:.4f} * hw0^"
            f"{fit.exponent:+.4f} (R^2 = {fit.r_squared:.6f}; "
            f"{len(fit.skipped_hw0)} hw0 column(s) skipped)")
    summary += _failure_lines(failures)
    plot = _plot_script(
        "contour-fit", "hw0  [meV]", "a  [nm]", "set logscale xy",
        "plot " + " , ".join(
            f"'contour-fit.csv' using ($1 == {_exact(t)} ? $2 : NaN):3 "
            f"with linespoints title 'gap = {t:g}'" for t in cfg.targets))
    return _TaskOutput(
        columns, rows, ("iso-gap contours a(hw0) extracted from the "
                        "tabulated 1D gap surface",),
        summary, plot, status=int(all(fit is None for fit, _ in fits)))


_TASK_TABLE = {
    "solve": _Task(_run_solve),
    "stabilize": _Task(_run_stabilize, other_grids=("mu_grid", "eta_grid")),
    "sweep-bsl": _Task(_run_sweep, ("bSLa",)),
    "sweep-w0": _Task(_run_sweep, ("hw0", "bSLa")),
    "sweep-B0": _Task(_run_sweep, ("B0", "bSLa")),
    "quartic-gap": _Task(_run_quartic_gap, ("hw0", "a"), is_1d=True),
    "contour-fit": _Task(_run_contour_fit, ("hw0", "a"), ("targets",),
                         is_1d=True),
}
TASKS = tuple(_TASK_TABLE)


def run(cfg: RunConfig) -> RunResult:
    """Execute a configured task; emit CSV, plot script and summary."""
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    result = _TASK_TABLE[cfg.task].runner(cfg, cfg.workers or 1)
    # the physics alone: one config writes the same bytes anywhere
    config_lines = serialize_config(
        dataclasses.replace(cfg, out_dir=None, workers=None)).splitlines()

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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridq",
        description="Spectral solver and sweep runner for the double-well "
                    "hybrid-qubit dot.  The config's task key selects what "
                    f"runs: {', '.join(TASKS)}.")
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides out_dir)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (overrides workers)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key, value in (("out_dir", args.out),
                                               ("workers", args.workers))
                 if value is not None}
    try:
        result = run(load_config(args.config, overrides))
    except (HybridQError, OSError) as exc:
        print(f"hybridq: error: {exc}", file=sys.stderr)
        return 2
    for path in result.files:
        print(path)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
