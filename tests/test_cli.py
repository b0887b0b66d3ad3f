import json
import os

import pytest

from ldvortex import cli, harness


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse)


@pytest.mark.parametrize("jobs", [0, -1, len(os.sched_getaffinity(0)) + 1])
def test_jobs_outside_usable_cores_fail_fast(jobs, no_pool, capsys):
    assert cli.main(["census", "--jobs", str(jobs), "--random-starts", "0"]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_jobs_from_config_file_are_bounded_too(tmp_path, no_pool, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"jobs": 0}))
    assert cli.main(["sweep", "--config", str(config)]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_jobs_within_usable_cores_are_kept():
    cores = len(os.sched_getaffinity(0))
    for jobs in (1, cores):
        args = cli.build_parser().parse_args(["census", "--jobs", str(jobs)])
        assert cli._merge_config(args).jobs == jobs


def test_eigensolver_failure_exits_1_without_traceback(monkeypatch, capsys):
    import scipy.sparse.linalg as spla

    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", None, None)

    monkeypatch.setattr(spla, "eigsh", stalled)
    assert cli.main(["validity", "--numerical-gap", "--dx", "0.0625"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: shift-invert eigensolve failed")
    assert "Traceback" not in err
