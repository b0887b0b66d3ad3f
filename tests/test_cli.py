import concurrent.futures
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ldvortex import acceptance, cli, harness
from ldvortex.errors import NoConvergence


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


@pytest.mark.parametrize("jobs", [0, -1, len(os.sched_getaffinity(0)) + 1])
def test_jobs_outside_usable_cores_fail_fast(jobs, no_pool, capsys):
    assert cli.main(["census", "--jobs", str(jobs), "--random-starts", "0"]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_jobs_from_config_file_are_bounded_too(tmp_path, no_pool, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"jobs": 0}))
    assert cli.main(["sweep", "--config", str(config)]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_jobs_within_usable_cores_are_kept(capsys):
    cores = len(os.sched_getaffinity(0))
    argv = ["census", "--jobs", str(cores), "--random-starts", "0", "--dx", "0.125"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "census"


def test_eigensolver_failure_exits_1_without_traceback(monkeypatch, capsys):
    # One Lanczos vector cannot converge on the gap pencil.
    monkeypatch.setattr(importlib.import_module("ldvortex.minimize"),
                        "LANCZOS_MAX_BASIS", 1)
    assert cli.main(["validity", "--numerical-gap", "--dx", "0.0625"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: shift-invert eigensolve failed")
    assert "Traceback" not in err


GRID = ["--dx", "0.125"]


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["minimize", "--tol", "1e-7", "--max-iter", "200"] + GRID,
    ["census", "--random-starts", "1", "--seed", "3", "--jobs", "1"] + GRID,
    ["sweep", "--H-min", "5.4", "--H-max", "7", "--H-points", "9"] + GRID,
    ["perturb"],
    ["validity"],
    ["validity", "--numerical-gap"] + GRID,
    ["flux", "--H", "8"] + GRID,
], ids=["minimize", "census", "sweep", "perturb", "validity",
        "validity-numerical-gap", "flux"])
def test_subcommand_prints_json_and_exits_0(argv, capsys):
    assert run(argv) == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)


def test_export_field_writes_csv_and_exits_0(tmp_path):
    out = tmp_path / "seed.csv"
    assert run(["export-field", "--source", "seed", "--out", str(out)] + GRID) == 0
    assert out.read_text().startswith("x,gap_or_plane,")


def test_invalid_parameters_exit_1(capsys):
    assert run(["minimize", "--N", "0"] + GRID) == 1
    assert capsys.readouterr().err.startswith("error: invalid parameters")


@pytest.mark.parametrize("argv", [
    ["sweep", "--H-points", "1"] + GRID,
    ["perturb", "--H-points", "0", "--format", "csv", "--out", "x.json"],
    ["perturb", "--H-max", "0", "--format", "csv", "--out", "x.json"],
    ["perturb", "--H-max", "0.3", "--format", "csv", "--out", "x.json"],
    ["sweep", "--H-max", "inf"] + GRID,
    ["sweep", "--H-max", "nan"] + GRID,
    ["perturb", "--format", "csv", "--out", "p.json", "--H-max", "inf"],
], ids=["sweep-short-grid", "perturb-empty-grid", "perturb-zero-H-max",
        "perturb-H-max-below-start", "sweep-inf-H-max", "sweep-nan-H-max",
        "perturb-inf-H-max"])
def test_bad_field_grid_exits_1_without_traceback(argv, tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: H_grid must be")


def test_three_field_sweep_locates_H_1(capsys):
    """A transition needs only the sign change of E_pi - E_0 between two
    fields, so three fields over [5.8, 6.8] find H_1 = 2 pi: at 6.2843,
    with the jump within 0.3 % of its prediction."""
    assert run(["sweep", "--H-min", "5.8", "--H-max", "6.8", "--H-points", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    [transition] = record["data"]["transitions"]
    assert record["passed"] and transition["k"] == 1
    assert abs(transition["location"] - transition["H_k"]) <= 2e-3
    assert transition["jump_rel_err"] <= 3e-3


def test_census_at_small_coupling_passes_its_checks(capsys):
    """At r = 3e-6 the phase modes are soft: every random descent of the
    desk census reaches a census point and the command exits 0."""
    assert run(["census", "--random-starts", "10", "--r", "3e-6"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["passed"] and record["data"]["n_matched"] == 10


@pytest.mark.parametrize("H_max", ["inf", "0"])
def test_refused_perturb_grid_leaves_no_output(H_max, tmp_path, monkeypatch):
    """perturb checks its diagram's grid before it writes the seed JSON."""
    monkeypatch.chdir(tmp_path)
    assert run(["perturb", "--format", "csv", "--out", "p.json", "--H-max", H_max]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, solver, written", [
    (["census", "--random-starts", "0", "--out", "r.json"] + GRID, "census",
     ["r.json"]),
    (["sweep", "--H-min", "5.4", "--H-max", "7", "--H-points", "9",
      "--format", "csv", "--out", "r.json"] + GRID, "field_sweep",
     ["r.json", "r.table.csv"]),
], ids=["census", "sweep"])
def test_record_failing_its_checks_is_written_and_exits_1(argv, solver, written,
                                                          tmp_path, monkeypatch,
                                                          capsys):
    """A census or sweep record that fails one of its own checks is still
    written, stderr names the check, and the command exits 1."""
    original = getattr(cli, solver)
    names = []

    def one_check_fails(*args, **kwargs):
        rec = original(*args, **kwargs)
        names.append(next(iter(rec.checks)))
        rec.checks[names[0]] = False
        return rec

    monkeypatch.setattr(cli, solver, one_check_fails)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == written
    assert not json.loads((tmp_path / "r.json").read_text())["passed"]
    assert capsys.readouterr().err == f"error: the record fails its checks: {names[0]}\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--H-max", "inf"] + GRID,
    ["perturb", "--format", "csv", "--out", "p.json", "--H-max", "inf"],
], ids=["sweep", "perturb"])
def test_non_finite_field_grid_prints_only_the_error_line(argv, tmp_path):
    """A non-finite end is refused before np.linspace can print its
    RuntimeWarning: stderr holds the one error line."""
    out = subprocess.run([sys.executable, "-m", "ldvortex", *argv], env=_src_env(),
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1
    assert out.stderr.splitlines() == [
        "error: H_grid must be finite, got ends "
        + ("2.0 and inf" if argv[0] == "sweep" else "0.5 and inf")]


@pytest.mark.parametrize("argv, message", [
    (["minimize", "--dx", "1e-300"], "error: dx = 1e-300 needs"),
    (["flux", "--H", "1e300"], "error: dx = 2e-301 needs"),
    (["minimize", "--tol", "nan"] + GRID, "error: tol must not be NaN"),
], ids=["minimize-tiny-dx", "flux-huge-H", "minimize-nan-tol"])
def test_refused_input_exits_1_without_traceback(argv, message, capsys):
    """A grid too fine to allocate and a NaN tolerance are refused with
    exit 1 and an error line, not a NumPy traceback or a silent exit 0."""
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("argv", [
    ["check", "--preset", "nope"],
    ["check", "--preset", "nope", "--N", "0"],
    ["check", "--dx", "0.1"],
    ["check", "--config", "run.json"],
    ["census", "--tol", "1e-6"],
    ["sweep", "--max-iter", "10"],
    ["sweep", "--seed", "5"],
    ["minimize", "--seed", "5"],
    ["minimize", "--jobs", "1"],
    ["validity", "--jobs", "1"],
    ["perturb", "--seed", "5"],
    ["perturb", "--jobs", "1"],
    ["perturb", "--dx", "0.5"],
    ["minimize", "--format", "csv"],
    ["census", "--format", "csv"],
    ["flux", "--format", "csv"],
    ["export-field", "--format", "csv"],
    ["export-field"],
    ["validity", "--numerical-gap", "--format", "csv"],
    ["validity", "--dx", "0.5"],
    ["validity", "--L", "3", "--format", "csv"],
    ["validity", "--kappa", "2", "--format", "csv"],
    ["validity", "--dx", "0.5", "--format", "csv"],
], ids=["unknown-preset", "check-preset-first", "check-dx", "check-config",
        "census-tol", "sweep-max-iter", "sweep-seed", "minimize-seed",
        "minimize-jobs", "validity-jobs", "perturb-seed", "perturb-jobs",
        "perturb-dx", "minimize-format", "census-format", "flux-format",
        "export-field-format", "export-field-no-out", "validity-gap-csv",
        "validity-dx-no-gap", "validity-L-csv", "validity-kappa-csv",
        "validity-dx-csv"])
def test_usage_errors_exit_2(argv, no_pool):
    assert run(argv) == 2


def test_numerical_gap_with_csv_exits_2_before_any_solve(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the gap was solved")

    monkeypatch.setattr(cli, "validity_report", refuse)
    assert run(["validity", "--numerical-gap", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert "--numerical-gap" in err and "--format csv" in err


@pytest.mark.parametrize("argv, solver", [
    (["sweep", "--H-points", "8", "--H-min", "2", "--H-max", "3"], "field_sweep"),
    (["perturb"], "enumerate_seeds"),
], ids=["sweep", "perturb"])
def test_csv_without_out_exits_2_before_any_solve(argv, solver, monkeypatch,
                                                  capsys):
    """sweep and perturb write their CSV tables beside the --out file, so
    --format csv without --out is refused instead of printing only JSON."""
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, solver, refuse)
    assert run([*argv, "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert "--format csv" in err and "--out" in err


@pytest.mark.parametrize("argv, config, named", [
    (["validity"], {"dx": 0.5}, "--dx"),
    (["validity", "--format", "csv"], {"L": 3.0}, "--L"),
    (["validity", "--format", "csv"], {"kappa": 2.0, "dx": 0.25}, "--kappa --dx"),
    (["validity"], {"format": "csv", "L": 2.0}, "--L"),
], ids=["dx-no-gap", "L-csv", "kappa-dx-csv", "csv-and-L-from-file"])
def test_ignored_validity_flags_exit_2_before_any_solve(argv, config, named,
                                                         tmp_path, monkeypatch,
                                                         capsys):
    """A flag that validity would ignore fails like a usage error, whether
    it comes from the command line or a --config file: --dx without
    --numerical-gap, and --L, --kappa or --dx with --format csv (its table
    is over a fixed L, kappa grid)."""
    def refuse(*args, **kwargs):
        raise AssertionError("the report was built")

    monkeypatch.setattr(cli, "validity_report", refuse)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert run([*argv, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and named in err


@pytest.mark.parametrize("argv", [
    ["validity", "--L", "2", "--kappa", "2"],
    ["validity", "--numerical-gap", "--dx", "0.125"],
    ["validity", "--N", "1", "--format", "csv"],
], ids=["L-kappa-json", "gap-dx", "csv-N"])
def test_validity_flags_that_are_read_exit_0(argv, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out


def test_flag_beats_config_file_beats_default(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"N": 1, "H": 4.0}))
    assert run(["perturb", "--config", str(config), "--H", "5"]) == 0
    params = json.loads(capsys.readouterr().out)["parameters"]
    assert (params["N"], params["H"], params["L"]) == (1, 5.0, 1.0)


@pytest.mark.parametrize("command, text", [
    ("perturb", '{"N": "two"}'),
    ("perturb", '{"N": 2.5}'),
    ("perturb", None),
    ("perturb", "{"),
    ("perturb", "[1]"),
    ("perturb", '{"jobs": 0}'),
    ("census", '{"tol": 1e-6}'),
    ("sweep", '{"format": "xml"}'),
    ("perturb", '{"h": 1}'),
    ("minimize", '{"ma": 5}'),
    ("perturb", '{"config": "inner.json", "H": 4.0}'),
], ids=["not-an-int", "fractional-int", "missing-file", "bad-json",
        "not-an-object", "unregistered-jobs", "unregistered-tol",
        "bad-choice", "prefix-of-help", "prefix-of-max-iter", "nested-config"])
def test_bad_config_file_exits_2_without_traceback(command, text, tmp_path,
                                                    no_pool, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inner.json").write_text('{"N": 1}')
    config = tmp_path / "run.json"
    if text is not None:
        config.write_text(text)
    assert run([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "Traceback" not in err


def test_command_line_flags_may_be_abbreviated(capsys):
    assert run(["minimize", "--ma", "0"] + GRID) == 0
    assert json.loads(capsys.readouterr().out)["report"]["iterations"] == 0


@pytest.mark.parametrize("argv", [
    ["sweep", "--H-points", "-1"] + GRID,
    ["census", "--random-starts", "-1"] + GRID,
    ["export-field", "--nz-per-gap", "-2", "--out", "x.csv"] + GRID,
    ["minimize", "--max-iter", "-5"] + GRID,
], ids=["H-points", "random-starts", "nz-per-gap", "max-iter"])
def test_negative_counts_exit_2_without_traceback(argv, no_pool, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "must be >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["census", "--N", "1", "--random-starts", "1", "--jobs", "1"] + GRID,
], ids=["help", "census-N1"])
def test_python_dash_m_ldvortex_exits_0(argv):
    out = subprocess.run([sys.executable, "-m", "ldvortex", *argv], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: ldvortex" if argv == ["--help"] else "{")


def test_importing_dunder_main_runs_nothing():
    """The benchmark's tracer imports every module of the package."""
    assert importlib.import_module("ldvortex.__main__").main is cli.main


def test_check_reports_a_failing_criterion_and_exits_1(tmp_path, monkeypatch, capsys):
    """The gate's failure path: criterion 5 with every Newton solve failing
    exits 1 with a FAILED line, no traceback, and a report that says so."""
    def newton_never_converges(*args, **kwargs):
        raise NoConvergence("Newton forced to fail")

    monkeypatch.setattr(harness, "newton_critical", newton_never_converges)
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [c for c in acceptance.CRITERIA if c[0] == 5])
    out = tmp_path / "report.json"
    assert cli.main(["check", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "acceptance FAILED (0/1)" in captured.out
    assert "Traceback" not in captured.out + captured.err
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert [(c["index"], c["passed"]) for c in report["criteria"]] == [(5, False)]
