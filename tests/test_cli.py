"""Config parsing, round-trips, dataset emission and determinism."""

import dataclasses
import glob
import itertools
import os
import re

import numpy as np
import pytest

import hybridq as hq
from hybridq import cli

MINIMAL = """\
task = solve
hw0 = 30
a = 30
"""

SMALL_SWEEP = """\
# small but complete sweep configuration
task = sweep-bsl
hw0 = 30
a = 30
gamma = -1e-3
B0 = 0.5
eta = 4
mu = 0.7
L = 4
N = 4
n_track = 4
bsl_grid = 0:1:0.5
"""


def _load(text: str) -> cli.RunConfig:
    return cli.parse_config_lines(text.splitlines())


def _read_csv(path):
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return names, rows


def test_minimal_config_picks_paper_defaults():
    cfg = _load(MINIMAL)
    assert cfg.physical.m_ratio == 0.041
    assert cfg.physical.b == cfg.physical.a
    assert (cfg.eta, cfg.mu, cfg.L, cfg.N) == (4.0, 0.7, 20, 20)
    assert cfg.n_track == 8


def test_config_roundtrip_identity():
    cfg = _load(SMALL_SWEEP)
    again = cli.parse_config_lines(cli.serialize_config(cfg).splitlines())
    assert again == cfg


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(hq.ConfigError) as err:
        _load(MINIMAL + "frobnicate = 3\n")
    assert "line 4" in str(err.value)
    assert err.value.line == 4


@pytest.mark.parametrize("text, line", [
    ("task = solve\nhw0 = thirty\na = 30\n", 2),
    ("task = solve\nhw0 = nan\na = 30\n", 2),
    (MINIMAL + "B0 = inf\n", 4),
    (MINIMAL + "L = inf\n", 4),
    (MINIMAL + "L = nan\n", 4),
    (MINIMAL + "L = 2.5\n", 4),
    (MINIMAL + "B0 = 0.5\nbsl_grid = 0:inf:1\n", 5),
], ids=["word", "nan", "inf", "int-inf", "int-nan", "int-fraction",
        "range-inf"])
def test_malformed_number_rejected(text, line):
    with pytest.raises(hq.ConfigError) as err:
        _load(text)
    assert err.value.line == line


@pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1e308:1e-308"])
def test_huge_range_rejected(grid):
    with pytest.raises(hq.ConfigError) as err:
        _load(f"task = sweep-bsl\nhw0 = 30\na = 30\nB0 = 0.5\n"
              f"bsl_grid = {grid}\n")
    assert err.value.line == 5
    assert str(cli.MAX_GRID_POINTS) in str(err.value)


def test_huge_product_grid_rejected():
    text = ("task = quartic-gap\nhw0 = 30\na = 30\n"
            "hw0_list = 1:400:1\na_grid = 1:400:1\n")
    with pytest.raises(hq.ConfigError, match="160000 grid points"):
        _load(text)


def test_duplicate_key_rejected():
    with pytest.raises(hq.ConfigError):
        _load(MINIMAL + "hw0 = 31\n")


def test_missing_required_keys():
    with pytest.raises(hq.ConfigError):
        _load("task = solve\nhw0 = 30\n")
    with pytest.raises(hq.ConfigError):
        _load("hw0 = 30\na = 30\n")


def test_unknown_task_rejected():
    with pytest.raises(hq.ConfigError):
        _load("task = dance\nhw0 = 30\na = 30\n")


def test_gradient_without_zeeman_rejected():
    with pytest.raises(hq.ConfigError):
        _load("task = solve\nhw0 = 30\na = 30\nB0 = 0\nbSLa = 2\n")


def test_sweep_grid_reaching_gradient_needs_zeeman():
    text = "task = sweep-bsl\nhw0 = 30\na = 30\nbsl_grid = 0:2:1\n"
    with pytest.raises(hq.ConfigError):
        _load(text)


def test_empty_or_missing_grid_rejected():
    with pytest.raises(hq.ConfigError):
        _load("task = sweep-bsl\nhw0 = 30\na = 30\nB0 = 0.5\n")
    with pytest.raises(hq.ConfigError):
        _load("task = stabilize\nhw0 = 30\na = 30\n")


def test_nonmonotone_grid_rejected():
    with pytest.raises(hq.ConfigError):
        _load("task = sweep-bsl\nhw0 = 30\na = 30\nB0 = 0.5\n"
              "bsl_grid = 1,0.5,2\n")


def test_range_syntax_inclusive():
    cfg = _load(SMALL_SWEEP)
    assert cfg.bsl_grid == (0.0, 0.5, 1.0)


def test_stabilize_requires_exactly_one_grid():
    base = "task = stabilize\nhw0 = 30\na = 30\n"
    with pytest.raises(hq.ConfigError):
        _load(base + "mu_grid = 0.5,0.6\neta_grid = 3,4\n")
    cfg = _load(base + "mu_grid = 0.5,0.6\n")
    assert cfg.mu_grid == (0.5, 0.6)


def test_run_solve_emits_parseable_dataset(tmp_path):
    cfg = _load(MINIMAL + "B0 = 0.5\nbSLa = 1\nL = 4\nN = 4\n"
                          f"out_dir = {tmp_path}\nn_track = 4\n")
    result = cli.run(cfg)
    assert result.status == 0
    csv = tmp_path / "solve.csv"
    assert csv in result.files
    assert (tmp_path / "solve.plt").exists()
    assert (tmp_path / "solve_summary.txt").exists()
    names, rows = _read_csv(csv)
    assert names[:2] == ["state", "E_hw0"]
    assert len(rows) == 4
    energies = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(energies) >= 0)
    # 17-significant-digit round trip of the numeric payload
    assert float(rows[0][1]) == energies[0]
    assert cli.config_from_csv(csv) == cfg


def test_run_solve_flags_a_failed_point(tmp_path):
    # at eta = 1e-9 the odd well combination has no normalization
    cfg = _load(MINIMAL + "eta = 1e-9\nL = 2\nN = 8\n"
                          f"out_dir = {tmp_path}\n")
    result = cli.run(cfg)
    assert result.status == 1
    names, rows = _read_csv(tmp_path / "solve.csv")
    assert len(rows) == 1
    status = rows[0][names.index("status")]
    assert status.startswith("failed: DegenerateBasisError")
    assert all(value == "nan" for value in rows[0][:-1])
    summary = (tmp_path / "solve_summary.txt").read_text()
    assert "FAILED: DegenerateBasisError" in summary


def test_run_sweep_deterministic_across_workers(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    cfg = _load(SMALL_SWEEP)
    r1 = cli.run(dataclasses.replace(cfg, out_dir=str(out1), workers=1))
    r2 = cli.run(dataclasses.replace(cfg, out_dir=str(out2), workers=2))
    assert r1.status == r2.status == 0
    # row order and every digit of the numeric content agree
    assert _read_csv(out1 / "sweep-bsl.csv") \
        == _read_csv(out2 / "sweep-bsl.csv")


def test_run_stabilize_small(tmp_path):
    cfg = _load("task = stabilize\nhw0 = 30\na = 30\nB0 = 0.5\nbSLa = 1\n"
                "L = 4\nN = 4\nn_track = 3\nmu_grid = 0.6,0.7,0.8\n"
                f"out_dir = {tmp_path}\n")
    result = cli.run(cfg)
    assert result.status == 0
    csv = tmp_path / "stabilize.csv"
    body = [line for line in csv.read_text().splitlines()
            if not line.startswith("#")]
    assert body[0].split(",")[0] == "mu"
    assert len(body) == 1 + 3
    assert cli.config_from_csv(csv) == cfg


def test_run_quartic_and_contour(tmp_path):
    base = ("hw0 = 30\na = 30\ngamma = -1e-3\nN = 16\n"
            "hw0_list = 20,30\na_grid = 16:30:2\n")
    cfg = _load(f"task = quartic-gap\n{base}out_dir = {tmp_path}\n")
    result = cli.run(cfg)
    assert result.status == 0
    names, rows = _read_csv(tmp_path / "quartic-gap.csv")
    assert names[0] == "a_nm"
    assert len(rows) == 8
    assert all(float(r[1]) > 0 for r in rows)

    cfg2 = _load(f"task = contour-fit\n{base}targets = 5e-3,1e-2\n"
                 f"out_dir = {tmp_path}\n")
    result2 = cli.run(cfg2)
    assert result2.status == 0
    summary = (tmp_path / "contour-fit_summary.txt").read_text()
    assert "hw0^" in summary


def test_cli_main_subcommand_mismatch(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text(SMALL_SWEEP)
    assert cli.main(["solve", "--config", str(config)]) == 2


def test_cli_main_runs_solve(tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    config.write_text(MINIMAL + "B0 = 0.5\nL = 4\nN = 4\nn_track = 3\n")
    code = cli.main(["solve", "--config", str(config), "--out",
                     str(tmp_path / "out")])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert any(line.endswith("solve.csv") for line in printed)


def test_workers_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("HYBRIDQ_WORKERS", "not-a-number")
    cfg = _load(MINIMAL + f"L = 4\nN = 4\nout_dir = {tmp_path}\n")
    with pytest.raises(hq.ConfigError):
        cli.run(cfg)
    monkeypatch.setenv("HYBRIDQ_WORKERS", "1")
    assert cli.run(cfg).status == 0


@pytest.mark.parametrize("env", ["abc", "0", "-3"])
def test_bad_worker_env_writes_nothing(tmp_path, monkeypatch, env):
    monkeypatch.setenv("HYBRIDQ_WORKERS", env)
    out = tmp_path / "out"
    cfg = _load(MINIMAL + f"L = 2\nN = 2\nout_dir = {out}\n")
    with pytest.raises(hq.ConfigError):
        cli.run(cfg)
    assert not out.exists()


@pytest.mark.parametrize("task, outer, outer_values, bsl_values", [
    ("sweep-w0", "hw0", (20.0, 30.0), (0.0, 1.0)),
    ("sweep-B0", "B0_T", (0.5, 1.0), (0.5, 1.0)),
])
def test_run_outer_sweep(tmp_path, task, outer, outer_values, bsl_values):
    grid = "hw0_list" if outer == "hw0" else "B0_list"
    cfg = _load(f"task = {task}\nhw0 = 30\na = 30\ngamma = -1e-3\n"
                "B0 = 0.5\nL = 3\nN = 3\nn_track = 4\nworkers = 1\n"
                f"{grid} = {','.join(map(str, outer_values))}\n"
                f"bsl_grid = {','.join(map(str, bsl_values))}\n"
                f"out_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 0
    csv = tmp_path / f"{task}.csv"
    names, rows = _read_csv(csv)
    assert names[:2] == [outer, "bSLa_T"]
    assert all(row[-1] == "ok" for row in rows)
    # outer-major: the outer value changes slowest
    assert [(float(r[0]), float(r[1])) for r in rows] \
        == list(itertools.product(outer_values, bsl_values))
    gap, gap_uev = names.index("gap_hw0"), names.index("gap_ueV")
    for row in rows:
        hw0 = float(row[0]) if outer == "hw0" else 30.0
        assert float(row[gap_uev]) == float(row[gap]) * hw0 * 1e3
    # every $k of the plot script names the gap or the ground-state spin
    plot = (tmp_path / f"{task}.plt").read_text()
    referenced = {names[int(k) - 1] for k in re.findall(r"\$(\d+)", plot)}
    assert referenced - {outer} == (
        {"gap_hw0", "sx0"} if task == "sweep-w0" else {"sx0"})
    assert cli.config_from_csv(csv) == cfg


SMALL_2D = "hw0 = 30\na = 30\nB0 = 0.5\nL = 2\nN = 2\nn_track = 2\n"


@pytest.mark.parametrize("command, text, message", [
    ("sweep", f"task = sweep-B0\n{SMALL_2D}B0_list = 0,0.5\n"
              "bsl_grid = 0.5,1\n", "B0 = 0, bSLa = 0.5: bSLa > 0 requires"),
    ("sweep", f"task = sweep-w0\n{SMALL_2D}hw0_list = -5,30\n"
              "bsl_grid = 0,1\n", "hw0 = -5, bSLa = 0: hw0, a, b"),
    ("quartic", "task = quartic-gap\nhw0 = 30\na = 30\nN = 8\n"
                "hw0_list = -5,30\na_grid = 20,30\n",
     "hw0 = -5, a = 20: hw0, a, b"),
    ("stabilize", f"task = stabilize\n{SMALL_2D}mu_grid = -1,0.5\n",
     "mu_grid values must be positive"),
    ("solve", "task = solve\nhw0 = nan\na = 30\n", "non-finite"),
    ("solve", "task = solve\nhw0 = 30\na = 30\nL = inf\n",
     "non-finite"),
    ("sweep", f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0:1:1e-300\n",
     "more than"),
    ("sweep", "task = sweep-bsl\nhw0 = 30\na = 30\nB0 = 0.5\nL = 2\nN = 2\n"
              "n_track = 1\nbsl_grid = 0.5,1\n", "n_track between 2 and"),
    ("solve", "task = solve\nhw0 = 30\na = 30\nL = 1e300\n",
     "basis size 4LN"),
    ("quartic", "task = quartic-gap\nhw0 = 30\na = 30\nN = 4001\n"
                "hw0_list = 20,30\na_grid = 20,30\n", "basis size 2N = 8002"),
    ("solve", "task = solve\nhw0 = 30\na = 30\nL = 2\nN = 2\nworkers = 0\n",
     "worker count 0 must be at least 1"),
    ("sweep", f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\n"
              "B0_list = 0.1,2\n", "task 'sweep-bsl' does not read B0_list"),
    ("solve", f"task = solve\n{SMALL_2D}bsl_grid = 0.5,1\n",
     "task 'solve' does not read bsl_grid"),
    ("stabilize", f"task = stabilize\n{SMALL_2D}mu_grid = 0.5,0.6\n"
                  "hw0_list = 20,30\n", "does not read hw0_list"),
    ("quartic", "task = quartic-gap\nhw0 = 30\na = 30\nN = 8\n"
                "hw0_list = 20,30\na_grid = 20,30\ntargets = 1e-2\n",
     "task 'quartic-gap' does not read targets"),
], ids=["B0-zero-with-gradient", "sweep-negative-hw0",
        "quartic-negative-hw0", "stabilize-negative-mu", "nan", "L-inf",
        "huge-range", "sweep-track-one", "L-huge", "quartic-N-huge",
        "workers-zero", "sweep-bsl-unread-B0_list", "solve-unread-bsl_grid",
        "stabilize-unread-hw0_list", "quartic-unread-targets"])
def test_bad_config_fails_before_any_point_runs(tmp_path, capsys, command,
                                                text, message):
    config = tmp_path / "cfg.txt"
    config.write_text(text)
    code = cli.main([command, "--config", str(config), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, extra, message", [
    ("solve", MINIMAL + "L = 2\nN = 2\n", ["--track", "0"],
     "n_track between 1 and"),
    ("sweep", f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\n",
     ["--track", "1000"], "4LN = 16, not 1000"),
    ("sweep", f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\n",
     ["--track", "1"], "n_track between 2 and"),
    ("solve", MINIMAL + "L = 2\nN = 2\n", ["--workers", "-3"],
     "worker count -3 must be at least 1"),
], ids=["solve-track-zero", "sweep-track-too-many", "sweep-track-one",
        "workers-negative"])
def test_bad_override_fails_before_any_point_runs(tmp_path, capsys, command,
                                                  text, extra, message):
    config = tmp_path / "cfg.txt"
    config.write_text(text)
    code = cli.main([command, "--config", str(config), "--out",
                     str(tmp_path / "out"), *extra])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overrides_reach_the_run(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text(f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out),
                     "--workers", "1", "--track", "3"]) == 0
    cfg = cli.config_from_csv(out / "sweep-bsl.csv")
    assert (cfg.n_track, cfg.workers, cfg.out_dir) == (3, 1, str(out))


@pytest.mark.parametrize("task, target", [
    ("sweep", "hybridq.solver.solve"),
    ("stabilize", "hybridq.solver.solve"),
    ("quartic", "hybridq.quartic1d.solve_1d"),
])
def test_programming_error_is_not_a_failed_point(tmp_path, monkeypatch,
                                                 task, target):
    def broken(*args, **kwargs):
        raise TypeError("broken")

    monkeypatch.setattr(target, broken)
    text = {
        "sweep": f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\n",
        "stabilize": f"task = stabilize\n{SMALL_2D}mu_grid = 0.5,0.6\n",
        "quartic": "task = quartic-gap\nhw0 = 30\na = 30\nN = 8\n"
                   "hw0_list = 20,30\na_grid = 20,30\n",
    }[task]
    cfg = _load(text + f"workers = 1\nout_dir = {tmp_path}\n")
    with pytest.raises(TypeError, match="broken"):
        cli.run(cfg)
    assert not list(tmp_path.glob("*.csv"))


CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "configs", "*.cfg")))


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_config_loads(path):
    cfg = cli.load_config(path)
    commands = [name for name, tasks in cli._SUBCOMMAND_TASKS.items()
                if cfg.task in tasks]
    assert len(commands) == 1


def test_every_task_has_a_shipped_config():
    assert {cli.load_config(path).task for path in CONFIGS} == set(cli.TASKS)
