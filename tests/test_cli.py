"""Config parsing, round-trips, dataset emission and determinism."""

import dataclasses
import glob
import itertools
import os
import re

import numpy as np
import pytest

import hybridq as hq
from hybridq import cli, solver

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

SMALL_2D = "hw0 = 30\na = 30\nB0 = 0.5\nL = 2\nN = 2\nn_track = 2\n"


def _load(text: str) -> cli.RunConfig:
    return cli.parse_config_lines(text.splitlines())


def _physics(cfg: cli.RunConfig) -> cli.RunConfig:
    """``cfg`` as its dataset echoes it: without out_dir and workers."""
    return dataclasses.replace(cfg, out_dir=None, workers=None)


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
    assert cli.config_from_csv(csv) == _physics(cfg)


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


def test_run_solve_flags_a_reduced_basis_too_small(tmp_path):
    # at eta = 4, N = 24 the solve drops 2 z-overlap directions, so the
    # reduced basis holds 2 * 46 * 1 = 92 functions, fewer than n_track
    cfg = _load(MINIMAL + "eta = 4\nL = 1\nN = 24\nn_track = 96\n"
                          f"out_dir = {tmp_path}\n")
    result = cli.run(cfg)
    assert result.status == 1
    names, rows = _read_csv(tmp_path / "solve.csv")
    assert len(rows) == 1
    status = rows[0][names.index("status")]
    assert status.startswith("failed: ReducedBasisError")
    assert "reduced basis size 92" in status
    summary = (tmp_path / "solve_summary.txt").read_text()
    assert "FAILED: ReducedBasisError" in summary


SMALL_QUARTIC = """\
task = quartic-gap
hw0 = 30
a = 30
gamma = -1e-3
N = 8
hw0_list = 20,30
a_grid = 16:30:2
"""


@pytest.mark.parametrize("text", [SMALL_SWEEP, SMALL_QUARTIC],
                         ids=["sweep-bsl", "quartic-gap"])
def test_run_deterministic_across_out_dirs_and_workers(tmp_path, text):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    cfg = _load(text)
    r1 = cli.run(dataclasses.replace(cfg, out_dir=str(out1), workers=1))
    r2 = cli.run(dataclasses.replace(cfg, out_dir=str(out2), workers=2))
    assert r1.status == r2.status == 0
    # every byte of the three files agrees, the config echo included
    for path1, path2 in zip(r1.files, r2.files):
        assert path1.name == path2.name
        assert path1.read_bytes() == path2.read_bytes()


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
    assert cli.config_from_csv(csv) == _physics(cfg)


def test_run_stabilize_reports_a_plateau(tmp_path):
    # the first two points lie 1e-5 apart in mu: every level is flat there
    # and varies by more than the tolerance up to mu = 1.5
    cfg = _load(f"task = stabilize\n{SMALL_2D}mu_grid = 0.7,0.70001,1.5\n"
                f"out_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 0
    names, rows = _read_csv(tmp_path / "stabilize.csv")
    summary = (tmp_path / "stabilize_summary.txt").read_text()
    for level in range(cfg.n_track):
        flat = [float(row[names.index(f"E{level}_hw0")]) for row in rows[:2]]
        rel = (max(flat) - min(flat)) / max(map(abs, flat))
        assert (f"  level {level}: plateau [0.7, 0.70001] (2 pts, rel "
                f"variation {rel:.2e})\n") in summary


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


def test_contour_fit_lists_failed_points(tmp_path):
    # at hw0 = 1e-14 meV, a = 0.5 nm the two well functions coincide
    base = ("hw0 = 30\na = 30\ngamma = -1e-3\nN = 16\n"
            "hw0_list = 1e-14,20,30\na_grid = 0.5,16,18,20,22,24,26,28,30\n")
    failed = "FAILED hw0=1e-14 a=0.5: DegenerateBasisError"
    for task, extra in (("quartic-gap", ""),
                        ("contour-fit", "targets = 1e-2\n")):
        out = tmp_path / task
        cfg = _load(f"task = {task}\n{base}{extra}out_dir = {out}\n")
        assert cli.run(cfg).status == 0
        assert failed in (out / f"{task}_summary.txt").read_text()
    names, rows = _read_csv(tmp_path / "contour-fit" / "contour-fit.csv")
    assert [row[names.index("status")] for row in rows
            if float(row[names.index("hw0_meV")]) == 1e-14] == ["failed"]


def test_contour_fit_flags_an_unreachable_target(tmp_path):
    # 1e-6 lies below the 2|gamma| floor of every hw0 row
    cfg = _load("task = contour-fit\nhw0 = 30\na = 30\ngamma = -1e-3\n"
                "N = 16\nhw0_list = 20,30\na_grid = 16:30:2\n"
                f"targets = 1e-6,1e-2\nout_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 0
    summary = (tmp_path / "contour-fit_summary.txt").read_text()
    assert ("target 1e-06: UnreachableTargetError: target gap 1e-06 "
            "reachable for 0 hw0 value(s)") in summary
    assert cli.run(dataclasses.replace(cfg, targets=(1e-6,))).status == 1


@pytest.mark.parametrize("task, text", [
    # 0.1 + 2 * 0.1 is 0.30000000000000004, whose :g text is 0.3
    ("sweep-B0", f"{SMALL_2D}B0_list = 0.1:0.5:0.1\nbsl_grid = 0.5,1\n"),
    # 0.01 + 2 * 0.03 is 0.069999999999999993
    ("contour-fit", "hw0 = 30\na = 30\ngamma = -1e-3\nN = 16\n"
                    "hw0_list = 20,30\na_grid = 16:30:2\n"
                    "targets = 0.01:0.07:0.03\n"),
], ids=["sweep-B0", "contour-fit"])
def test_plot_filters_name_the_csv_values(tmp_path, task, text):
    cfg = _load(f"task = {task}\n{text}out_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 0
    _, rows = _read_csv(tmp_path / f"{task}.csv")
    plot = (tmp_path / f"{task}.plt").read_text()
    literals = re.findall(r"\$1 == (\S+) \?", plot)
    assert [float(x) for x in literals] == list(cfg.B0_list or cfg.targets)
    assert {float(x) for x in literals} == {float(row[0]) for row in rows}


def test_quartic_gap_columns_name_the_hw0_values(tmp_path):
    # :g writes both values as 30, and a CSV reader keeps one of two
    # columns of the same name
    cfg = _load("task = quartic-gap\nhw0 = 30\na = 30\nN = 8\n"
                "hw0_list = 30,30.000001\na_grid = 20,30\n"
                f"out_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 0
    names, _ = _read_csv(tmp_path / "quartic-gap.csv")
    gaps = [name for name in names if name.startswith("gap_hw0_")]
    assert [float(name[len("gap_hw0_"):-len("meV")]) for name in gaps] \
        == list(cfg.hw0_list)


def test_config_from_csv_needs_the_config_echo(tmp_path):
    csv = tmp_path / "bare.csv"
    csv.write_text("# a note\nstate,E_hw0\n0,1.5\n")
    with pytest.raises(hq.ConfigError, match="carries no '# config:' echo"):
        cli.config_from_csv(csv)


def test_config_from_csv_needs_utf8(tmp_path):
    csv = tmp_path / "solve.csv"
    csv.write_bytes(b"# config: task = solve\n# config: hw0 = 30\n"
                    b"# config: a = 30\nstate,E_hw0\n0,1.5\xff\n")
    with pytest.raises(hq.ConfigError,
                       match=f"line 5: {re.escape(str(csv))} is not UTF-8"):
        cli.config_from_csv(csv)


def test_config_that_is_not_utf8_fails_before_any_point_runs(tmp_path,
                                                            capsys):
    config = tmp_path / "cfg.txt"
    config.write_bytes(MINIMAL.encode() + b"# caf\xff\n")
    code = cli.main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"line 4: {config} is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_main_runs_solve(tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    config.write_text(MINIMAL + "B0 = 0.5\nL = 4\nN = 4\nn_track = 3\n")
    code = cli.main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert any(line.endswith("solve.csv") for line in printed)


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
    assert cli.config_from_csv(csv) == _physics(cfg)


def _small_solve(key: str, value: str) -> str:
    """A ``solve`` config on the SMALL_2D point with one key set."""
    lines = [line for line in SMALL_2D.splitlines()
             if not line.startswith(f"{key} =")]
    return "\n".join(["task = solve", *lines, f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("text, message", [
    (f"task = sweep-B0\n{SMALL_2D}B0_list = 0,0.5\nbsl_grid = 0.5,1\n",
     "B0 = 0, bSLa = 0.5: bSLa > 0 requires"),
    (f"task = sweep-w0\n{SMALL_2D}hw0_list = -5,30\nbsl_grid = 0,1\n",
     "hw0 = -5, bSLa = 0: hw0, a, b"),
    ("task = quartic-gap\nhw0 = 30\na = 30\nN = 8\n"
     "hw0_list = -5,30\na_grid = 20,30\n", "hw0 = -5, a = 20: hw0, a, b"),
    (f"task = stabilize\n{SMALL_2D}mu_grid = -1,0.5\n",
     "mu_grid values must be positive"),
    ("task = contour-fit\nhw0 = 30\na = 30\nN = 8\n"
     "hw0_list = 20,30\na_grid = 20,30\ntargets = -1,3e-3\n",
     "targets values must be positive"),
    ("task = solve\nhw0 = nan\na = 30\n", "non-finite"),
    ("task = solve\nhw0 = 30\na = 30\nL = inf\n", "non-finite"),
    (f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0:1:1e-300\n", "more than"),
    ("task = sweep-bsl\nhw0 = 30\na = 30\nB0 = 0.5\nL = 2\nN = 2\n"
     "n_track = 1\nbsl_grid = 0.5,1\n", "n_track between 2 and"),
    (_small_solve("n_track", "0"), "n_track between 1 and"),
    (f"task = sweep-bsl\n{SMALL_2D.replace('n_track = 2', 'n_track = 1000')}"
     "bsl_grid = 0.5,1\n", "4LN = 16, not 1000"),
    ("task = solve\nhw0 = 30\na = 30\nL = 1e300\n", "basis size 4LN"),
    ("task = quartic-gap\nhw0 = 30\na = 30\nN = 4001\n"
     "hw0_list = 20,30\na_grid = 20,30\n", "N = 4001 exceeds 400"),
    ("task = quartic-gap\nhw0 = 30\na = 30\nN = 4000\n"
     "hw0_list = 20,30\na_grid = 20,30\n", "N = 4000 exceeds 400"),
    ("task = solve\nhw0 = 30\na = 30\nL = 1\nN = 2000\n",
     "N = 2000 exceeds 400"),
    (_small_solve("N", "401"), "N = 401 exceeds 400"),
    ("task = solve\nhw0 = 30\na = 30\nL = 2\nN = 2\nworkers = 0\n",
     "worker count 0 must be at least 1"),
    (f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\nB0_list = 0.1,2\n",
     "task 'sweep-bsl' does not read B0_list"),
    (f"task = solve\n{SMALL_2D}bsl_grid = 0.5,1\n",
     "task 'solve' does not read bsl_grid"),
    (f"task = stabilize\n{SMALL_2D}mu_grid = 0.5,0.6\nhw0_list = 20,30\n",
     "does not read hw0_list"),
    ("task = quartic-gap\nhw0 = 30\na = 30\nN = 8\n"
     "hw0_list = 20,30\na_grid = 20,30\ntargets = 1e-2\n",
     "task 'quartic-gap' does not read targets"),
    # finite but extreme physical inputs: a square or a quotient leaves the
    # floating-point range, or a Hamiltonian coefficient is infinite
    (_small_solve("a", "1e300"), "outside the floating-point range"),
    (_small_solve("a", "1e-300"), "outside the floating-point range"),
    (_small_solve("m_ratio", "1e-320"), "outside the floating-point range"),
    (_small_solve("hw0", "1e-320"), "hw_a/hw0 must be positive and finite"),
    (_small_solve("B0", "1e300"), "outside the floating-point range"),
    (_small_solve("bSLa", "1e300"), "outside the floating-point range"),
    (_small_solve("hw0", "-5"), "hw0, a, b and m_ratio must be positive"),
    (_small_solve("gamma", "1"), "tilt |gamma| must be < 1"),
    (_small_solve("eta", "0"), "eta and mu must be positive"),
    (_small_solve("N", "0"), "L and N must be at least 1"),
    (f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0:2\n",
     "range must be lo:hi:step"),
    (f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 2:0:0.5\n",
     "range needs hi >= lo and step > 0"),
    (f"task = solve\n{SMALL_2D}L 2\n", "expected 'key = value'"),
], ids=["B0-zero-with-gradient", "sweep-negative-hw0",
        "quartic-negative-hw0", "stabilize-negative-mu",
        "contour-negative-target", "nan", "L-inf",
        "huge-range", "sweep-track-one", "solve-track-zero",
        "sweep-track-too-many", "L-huge", "quartic-N-huge",
        "quartic-N-long", "solve-N-long", "N-above-bound", "workers-zero",
        "sweep-bsl-unread-B0_list", "solve-unread-bsl_grid",
        "stabilize-unread-hw0_list", "quartic-unread-targets", "a-huge",
        "a-tiny", "m_ratio-tiny", "hw0-tiny", "B0-huge", "bSLa-huge",
        "solve-negative-hw0", "gamma-one", "eta-zero", "N-zero",
        "range-two-parts", "range-reversed", "line-without-equals"])
def test_bad_config_fails_before_any_point_runs(tmp_path, capsys, text,
                                                message):
    config = tmp_path / "cfg.txt"
    config.write_text(text)
    code = cli.main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, extra, message", [
    (MINIMAL + "L = 2\nN = 2\n", ["--workers", "-3"],
     "worker count -3 must be at least 1"),
    # a valid override does not let the rest of the config skip its checks
    (f"task = sweep-bsl\n{SMALL_2D.replace('n_track = 2', 'n_track = 1')}"
     "bsl_grid = 0.5,1\n", ["--workers", "1"], "n_track between 2 and"),
], ids=["workers-negative", "sweep-track-one"])
def test_bad_override_fails_before_any_point_runs(tmp_path, capsys, text,
                                                  extra, message):
    config = tmp_path / "cfg.txt"
    config.write_text(text)
    code = cli.main(["--config", str(config), "--out",
                     str(tmp_path / "out"), *extra])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


QUARTIC_1D = ("hw0 = 30\na = 30\nN = 8\nhw0_list = 20,30\n"
              "a_grid = 20,30\n")
TASKS_1D = {"quartic-gap": f"task = quartic-gap\n{QUARTIC_1D}",
            "contour-fit": f"task = contour-fit\n{QUARTIC_1D}targets = 1e-2\n"}
# the 2D settings at their defaults, and a value other than the default
DEFAULTS_2D = "B0 = 0\nbSLa = 0\neta = 4\nmu = 0.7\nL = 20\nn_track = 8\n"
SET_2D = {"B0": "0.5", "bSLa": "1", "eta": "99", "mu": "0.5", "L": "7",
          "n_track": "5"}


@pytest.mark.parametrize("key", SET_2D)
@pytest.mark.parametrize("task", TASKS_1D)
def test_1d_task_rejects_a_2d_setting(tmp_path, capsys, task, key):
    config = tmp_path / "cfg.txt"
    config.write_text(f"{TASKS_1D[task]}{key} = {SET_2D[key]}\n")
    code = cli.main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"task {task!r} does not read {key}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task", TASKS_1D)
def test_1d_task_loads_the_2d_settings_at_their_defaults(task):
    assert _load(TASKS_1D[task] + DEFAULTS_2D) == _load(TASKS_1D[task])


def test_2d_task_reads_every_2d_setting():
    text = "task = solve\nhw0 = 30\na = 30\n" + "".join(
        f"{key} = {value}\n" for key, value in SET_2D.items())
    cfg = _load(text)
    assert (cfg.physical.B0, cfg.physical.bSLa, cfg.eta, cfg.mu, cfg.L,
            cfg.n_track) == (0.5, 1.0, 99.0, 0.5, 7, 5)
    assert cli.parse_config_lines(
        cli.serialize_config(cfg).splitlines()) == cfg


@pytest.mark.parametrize("task", TASKS_1D)
def test_1d_echo_holds_only_the_keys_the_task_reads(tmp_path, task):
    cfg = _load(TASKS_1D[task] + f"out_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 0
    echoed = [line[len("# config: "):].split(" = ")[0] for line in
              (tmp_path / f"{task}.csv").read_text().splitlines()
              if line.startswith("# config: ")]
    assert echoed == ["task", "hw0", "a", "b", "gamma", "m_ratio", "N",
                      "hw0_list", "a_grid"] + ["targets"] * (
                          task == "contour-fit")
    summary = (tmp_path / f"{task}_summary.txt").read_text()
    assert not [key for key in SET_2D if f"\n  {key} = " in summary]


def test_1d_dataset_that_echoes_the_2d_settings_reads_back(tmp_path):
    # the echo of a 1D dataset written when the 1D tasks still echoed the
    # six 2D settings at their defaults
    csv = tmp_path / "quartic-gap.csv"
    csv.write_text(
        "# scaled 1D gap (E1-E0)/hw0 vs well half-separation a\n"
        + "".join(f"# config: {line}\n" for line in (
            "task = quartic-gap", "hw0 = 30", "a = 30", "b = 30",
            "gamma = 0", "B0 = 0", "bSLa = 0",
            "m_ratio = 0.041000000000000002", "eta = 4",
            "mu = 0.69999999999999996", "L = 20", "N = 8", "n_track = 8",
            "hw0_list = 20,30", "a_grid = 20,30"))
        + "a_nm,gap_hw0_20meV,gap_hw0_30meV,status\n"
        "20,0.15181409624216191,0.054844201907030043,ok\n"
        "30,0.0090640478900568255,0.00042066202932034003,ok\n")
    assert cli.config_from_csv(csv) == _load(TASKS_1D["quartic-gap"])


def test_cli_and_library_gap_surfaces_agree():
    # two implementations of one surface, on a barrier b != a and a
    # mass ratio off its default
    cfg = _load("task = quartic-gap\nhw0 = 30\na = 30\nb = 21\n"
                "gamma = -1e-3\nm_ratio = 0.067\nN = 10\n"
                "hw0_list = 10,25,40\na_grid = 8:40:4\n")
    surface, failures = cli._gap_surface(cfg, 1)
    p = cfg.physical
    library = hq.gap_surface(cfg.hw0_list, cfg.a_grid, gamma=p.gamma,
                             b_over_a=p.b / p.a, n_basis=cfg.N,
                             m_ratio=p.m_ratio)
    assert failures == []
    assert np.array_equal(surface.gaps, library.gaps)


@pytest.mark.parametrize("name", ["runs#1", "runs\n1", "runs "],
                         ids=["hash", "newline", "trailing-blank"])
def test_any_out_dir_takes_the_dataset(tmp_path, name):
    # the echo leaves out_dir out, so no path needs to survive it
    config = tmp_path / "cfg.txt"
    config.write_text(MINIMAL + "L = 2\nN = 2\n")
    out = tmp_path / name
    assert cli.main(["--config", str(config), "--out", str(out),
                     "--workers", "2"]) == 0
    assert sorted(path.name for path in out.iterdir()) \
        == ["solve.csv", "solve.plt", "solve_summary.txt"]
    cfg = cli.config_from_csv(out / "solve.csv")
    assert (cfg.out_dir, cfg.workers) == (None, None)


def test_overrides_reach_the_run(tmp_path, monkeypatch):
    config = tmp_path / "cfg.txt"
    config.write_text(f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\n"
                      f"workers = 2\nout_dir = {tmp_path / 'file'}\n")
    real, pools = solver.parallel_map, []

    def spy(func, items, workers):
        pools.append(workers)
        return real(func, items, workers)

    monkeypatch.setattr(solver, "parallel_map", spy)
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out),
                     "--workers", "1"]) == 0
    assert pools == [1]
    assert (out / "sweep-bsl.csv").exists()
    assert not (tmp_path / "file").exists()


@pytest.mark.parametrize("key, value, table", [
    ("eta", "1e300", "'dz2'"), ("mu", "1e300", "'dy2'"),
    ("mu", "1e-300", "'y2'"),
], ids=["eta-huge", "mu-huge", "mu-tiny"])
def test_overflowing_table_fails_the_point(tmp_path, key, value, table):
    cfg = _load(_small_solve(key, value) + f"out_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 1
    names, rows = _read_csv(tmp_path / "solve.csv")
    status = rows[0][names.index("status")]
    assert status.startswith("failed: DegenerateBasisError")
    assert f"{table} table overflows" in status


def test_stabilize_flags_an_overflowing_grid_point(tmp_path):
    cfg = _load(f"task = stabilize\n{SMALL_2D}mu_grid = 0.5,1e300\n"
                f"out_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 0
    names, rows = _read_csv(tmp_path / "stabilize.csv")
    assert [row[names.index("status")] for row in rows] == ["ok", "failed"]
    summary = (tmp_path / "stabilize_summary.txt").read_text()
    assert "FAILED mu = 1e+300: DegenerateBasisError" in summary


def test_sweep_lists_every_failed_point(tmp_path):
    # at eta = 1e-9 the odd well combination has no normalization
    cfg = _load(f"task = sweep-bsl\n{SMALL_2D}eta = 1e-9\nbsl_grid = 0.5,1\n"
                f"workers = 1\nout_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 1
    names, rows = _read_csv(tmp_path / "sweep-bsl.csv")
    assert [row[names.index("status")].startswith(
        "failed: DegenerateBasisError: well combination (n=0; p=-1)")
        for row in rows] == [True, True]
    summary = (tmp_path / "sweep-bsl_summary.txt").read_text()
    assert "swept bSLa over 2 points; 2 failed" in summary
    for bsl in ("0.5", "1"):
        assert (f"FAILED bSLa = {bsl}: DegenerateBasisError: well "
                "combination (n=0, p=-1)") in summary


def test_sweep_lists_one_failed_point(tmp_path, monkeypatch):
    real_solve = solver.solve

    def solve(problem, n_lowest):
        # beta = bSLa / (2 B0) = bSLa at B0 = 0.5 T
        if problem.scaled.beta == 1.0:
            raise hq.HybridQError("injected failure")
        return real_solve(problem, n_lowest)

    monkeypatch.setattr(solver, "solve", solve)
    cfg = _load(f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\n"
                f"workers = 1\nout_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 0
    summary = (tmp_path / "sweep-bsl_summary.txt").read_text()
    assert [line.strip() for line in summary.splitlines()
            if "FAILED" in line] == [
        "FAILED bSLa = 1: HybridQError: injected failure"]


@pytest.mark.parametrize("error", [TypeError, ValueError],
                         ids=lambda error: error.__name__)
@pytest.mark.parametrize("task, target", [
    ("sweep", "hybridq.solver.solve"),
    ("stabilize", "hybridq.solver.solve"),
    ("quartic", "hybridq.quartic1d.solve_1d"),
    ("contour-fit", "hybridq.quartic1d.contour_fit"),
])
def test_programming_error_is_not_a_failed_point(tmp_path, monkeypatch,
                                                 task, target, error):
    def broken(*args, **kwargs):
        raise error("broken")

    monkeypatch.setattr(target, broken)
    quartic = ("hw0 = 30\na = 30\nN = 8\nhw0_list = 20,30\n"
               "a_grid = 20,30\n")
    text = {
        "sweep": f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\n",
        "stabilize": f"task = stabilize\n{SMALL_2D}mu_grid = 0.5,0.6\n",
        "quartic": f"task = quartic-gap\n{quartic}",
        "contour-fit": f"task = contour-fit\n{quartic}targets = 1e-2\n",
    }[task]
    cfg = _load(text + f"workers = 1\nout_dir = {tmp_path}\n")
    with pytest.raises(error, match="broken"):
        cli.run(cfg)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("task", ["solve", "sweep-bsl", "stabilize"])
def test_value_error_inside_a_point_propagates(tmp_path, monkeypatch, task):
    # a ValueError from a broken array operation is a bug, not a failed
    # point; at bSLa = 1 every point takes the banded path, whose band
    # builder is broken here
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("hybridq.assembly.lower_band", broken)
    grid = {"solve": "", "sweep-bsl": "bsl_grid = 0.5,1\n",
            "stabilize": "mu_grid = 0.5,0.6\n"}[task]
    cfg = _load(f"task = {task}\n{SMALL_2D}bSLa = 1\n{grid}"
                f"workers = 1\nout_dir = {tmp_path}\n")
    with pytest.raises(ValueError, match="broadcast"):
        cli.run(cfg)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("workers", [1, 2])
def test_an_uncertified_spectrum_is_a_failed_point(tmp_path, monkeypatch,
                                                   workers):
    # a Lanczos run that loses a level fails the inertia count twice
    real = solver._lanczos

    def lanczos(*args):
        *head, k, ncv = args
        vals, vecs = real(*head, k + 1, max(ncv, 2 * k + 3))
        return np.delete(vals, 1), np.delete(vecs, 1, axis=1)

    monkeypatch.setattr(solver, "_lanczos", lanczos)
    cfg = _load(f"task = sweep-bsl\n{SMALL_2D}bsl_grid = 0.5,1\n"
                f"workers = {workers}\nout_dir = {tmp_path}\n")
    assert cli.run(cfg).status == 1
    names, rows = _read_csv(tmp_path / "sweep-bsl.csv")
    assert [row[names.index("status")].startswith(
        "failed: UncertifiedSpectrumError") for row in rows] == [True, True]
    summary = (tmp_path / "sweep-bsl_summary.txt").read_text()
    for bsl in ("0.5", "1"):
        assert f"FAILED bSLa = {bsl}: UncertifiedSpectrumError: " in summary


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_config_loads(path):
    cfg = cli.load_config(path)
    assert cfg.task in cli.TASKS
    overridden = cli.load_config(path, {"workers": 2, "out_dir": "runs/x",
                                        "N": 10})
    assert (overridden.workers, overridden.out_dir, overridden.N) \
        == (2, "runs/x", 10)
    for config in (cfg, overridden):
        text = cli.serialize_config(config)
        assert cli.parse_config_lines(text.splitlines()) == config


def _readme_section(title: str) -> str:
    """The README text under the heading ``## title``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split(f"## {title}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_readme_runs_every_shipped_config():
    section = _readme_section("Command line")
    runs = [cli._build_parser().parse_args(line.split()[1:])
            for line in section.splitlines() if line.startswith("hybridq ")]
    shipped = sorted(os.path.relpath(path, ROOT) for path in CONFIGS)
    assert sorted(os.path.normpath(args.config) for args in runs) == shipped
    for args in runs:
        cli.load_config(os.path.join(ROOT, args.config))


def test_readme_library_example_runs(capsys):
    blocks = _readme_section("Library").split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```", 1)[0], {})
    assert capsys.readouterr().out


def test_every_task_has_a_shipped_config():
    assert {cli.load_config(path).task for path in CONFIGS} == set(cli.TASKS)


def test_readme_config_table_lists_every_key_and_task():
    rows = [line.split("|")[1:-1]
            for line in _readme_section("Config format").splitlines()
            if line.startswith("| `")]
    keys = [key for cells in rows for key in re.findall(r"`([^`]+)`",
                                                         cells[0])]
    assert keys == list(cli._KEYS)
    [task_row] = [cells for cells in rows if cells[0].strip() == "`task`"]
    assert tuple(re.findall(r"`([^`]+)`", task_row[1])) == cli.TASKS
