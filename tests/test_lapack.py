"""SciPy's LAPACK wrappers loaded without scipy.linalg: the same wrapper
objects, the same bits, and no other SciPy module on a census, a sweep or
the spectral gap; nor multiprocessing on a census with one job."""

import _ctypes
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from ldvortex import _lapack
from ldvortex.harness import census
from ldvortex.minimize import _eigvalsh
from ldvortex.params import Grid1D, LdParameters
from ldvortex.perturbation import seed_state

SRC = Path(__file__).resolve().parents[1] / "src"
DRIVERS = ("dpbsv", "dgbsv", "dgtsv", "dsyevr", "dsyevr_lwork", "dpbtrf", "dpbtrs",
           "dgbtrs", "dstev", "dtbtrs")


def test_scipy_linalg_reuses_the_loaded_wrappers():
    assert sys.modules[_lapack.NAME] is _lapack.flapack
    assert sla.lapack._flapack is _lapack.flapack
    for name in DRIVERS:
        assert getattr(sla.lapack, name) is getattr(_lapack.flapack, name), name


def test_fallback_without_the_extension_file_gives_the_same_module(tmp_path):
    linalg_dir = Path(_lapack.flapack.__file__).parent
    assert _lapack.load(linalg_dir) is _lapack.flapack
    assert _lapack.load(tmp_path) is _lapack.flapack
    assert _lapack.load(None) is _lapack.flapack


def test_one_blas_thread_caps_and_restores_or_does_nothing(monkeypatch):
    """With thread controls the wrapped call runs at one thread and the
    previous count comes back, also when it raises; without them the
    function is returned as it is.  Fake controls: no thread starts."""
    log = []
    monkeypatch.setattr(_lapack, "THREADS",
                        (lambda: log.append("get") or 4, log.append))

    def run(fail):
        log.append("run")
        if fail:
            raise ValueError("inside")
        return "out"

    capped = _lapack.one_blas_thread(run)
    assert capped(False) == "out" and log == ["get", 1, "run", 4]
    log.clear()
    with pytest.raises(ValueError, match="inside"):
        capped(True)
    assert log == ["get", 1, "run", 4]
    monkeypatch.setattr(_lapack, "THREADS", None)
    assert _lapack.one_blas_thread(run) is run


def test_thread_controls_come_through_the_lapack_extension(tmp_path, monkeypatch):
    """The controls are found through the extension's file; a library
    without the symbols, or no library, gives None.  The banded solves and
    the factorization and forward solve of inertia run at one thread and
    restore the count they found, which starts no thread."""
    assert _lapack.thread_controls(_ctypes.__file__) is None
    assert _lapack.thread_controls(str(tmp_path / "missing.so")) is None
    controls = _lapack.thread_controls(_lapack.flapack.__file__)
    if controls is None:  # a SciPy without scipy_openblas: the cap does nothing
        pytest.skip("SciPy's BLAS exports no scipy_openblas thread controls")
    get, _ = controls
    before, inside = get(), []
    _lapack.one_blas_thread(lambda: inside.append(get()))()
    assert inside == [1] and get() == before >= 1

    minimize_mod = importlib.import_module("ldvortex.minimize")
    real, seen = minimize_mod.flapack, []
    drivers = types.SimpleNamespace(**vars(real))
    for name in ("dpbsv", "dpbtrf", "dtbtrs"):
        def counted(*args, _driver=getattr(real, name), _name=name, **kwargs):
            seen.append((_name, get()))
            return _driver(*args, **kwargs)
        setattr(drivers, name, counted)
    monkeypatch.setattr(minimize_mod, "flapack", drivers)
    band = np.zeros((3, 6))
    band[1] = np.arange(1.0, 7.0)
    eye = np.zeros((3, 6))
    eye[1] = 1.0
    assert minimize_mod.banded_solve(band, np.ones(6), True, 0.0) is not None
    assert minimize_mod.nearest_eigenvalues(band, 2, 0.5, eye) == pytest.approx([1.0, 2.0])
    assert seen == [("dpbsv", 1), ("dpbtrf", 1)] and get() == before
    seen.clear()
    params = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 1e-3)
    grid = Grid1D.build(params, dx=1.0 / 16.0)
    point = minimize_mod.newton_critical(seed_state(params, grid, 0.0), params, grid)
    assert seen == []  # Newton's LU is dgbsv
    assert minimize_mod.inertia(point.state, params, grid) == 0
    assert seen == [("dpbtrf", 1), ("dtbtrs", 1)] and get() == before


def test_eigvalsh_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(17)
    for n in range(1, 9):
        for _ in range(200):
            S = rng.standard_normal((n, n))
            S += S.T
            assert np.array_equal(_eigvalsh(S), sla.eigvalsh(S)), S


def test_census_schur_eigenvalues_equal_scipy_bit_for_bit(monkeypatch):
    """At the census points of acceptance criterion 5 (N = 1, 2, 3)."""
    minimize_mod = importlib.import_module("ldvortex.minimize")
    seen = []

    def compared(S):
        seen.append(S.shape[0])
        w = _eigvalsh(S)
        assert np.array_equal(w, sla.eigvalsh(S))
        return w

    monkeypatch.setattr(minimize_mod, "_eigvalsh", compared)
    for N in (1, 2, 3):
        rec = census(LdParameters(N, 1.0, 0.5, 1.0, 3.0, 1e-3), 1e-3,
                     n_random=0, dx=1.0 / 30.0)
        assert rec.passed, rec.checks
    assert sorted(seen) == [1] * 2 + [2] * 4 + [3] * 8


def _child_stdout(child: str) -> list[str]:
    """The output lines of child, run in a fresh interpreter on these sources."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.splitlines()


def test_census_and_sweep_import_no_other_scipy_module():
    child = (
        "import sys\n"
        "from ldvortex import cli, harness\n"
        "from ldvortex.params import LdParameters\n"
        "p = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 1e-3)\n"
        "assert harness.census(p, 1e-3, n_random=1, dx=0.125).passed\n"
        "harness.field_sweep(p, [5.0 + 0.3 * i for i in range(8)], dx=0.125)\n"
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))\n")
    assert _child_stdout(child)[-1] == "['scipy.linalg._flapack']"


def test_census_with_one_job_imports_no_multiprocessing():
    """The process pool is imported only for jobs > 1: multiprocessing (and
    socket) cost ~15 ms of every jobs = 1 run."""
    child = (
        "import sys\n"
        "import ldvortex.harness\n"
        "from ldvortex.params import LdParameters\n"
        "p = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 1e-3)\n"
        "assert ldvortex.harness.census(p, 1e-3, n_random=1, dx=0.125, jobs=1).passed\n"
        "print(sorted(k for k in sys.modules if k.startswith('multiprocessing')))\n")
    assert _child_stdout(child)[-1] == "[]"


def test_gap_imports_no_scipy_sparse_or_numpy_random():
    """The spectral gap loads no SciPy module but the LAPACK wrappers, and
    not numpy.random; inertia at a rough state (built without numpy.random),
    whose pinned block does not factor, raises and loads nothing more."""
    child = (
        "import logging, sys\n"
        "import numpy as np\n"
        "from ldvortex.errors import FactorizationFailure\n"
        "from ldvortex.minimize import inertia\n"
        "from ldvortex.params import Grid1D, LdParameters\n"
        "from ldvortex.state import LayeredState\n"
        "from ldvortex.validity import numerical_gap\n"
        "logging.basicConfig(level=logging.DEBUG, stream=sys.stdout)\n"
        "p = LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3)\n"
        "g = Grid1D.build(p, dx=1.0 / 16.0)\n"
        "assert numerical_gap(p, g) > 1e-3\n"
        "def rough(shape, k):\n"
        "    return np.sin(k * np.arange(1.0, 1.0 + np.prod(shape)) ** 1.5).reshape(shape)\n"
        "phi = np.cumsum(0.3 * rough((3, g.M + 1), 2.0), axis=1)\n"
        "state = LayeredState(1.0 + 0.3 * rough((3, g.M + 1), 1.0), phi - phi[0],\n"
        "                     rough((3, g.M), 3.0))\n"
        "try:\n"
        "    inertia(state, p, g)\n"
        "except FactorizationFailure as exc:\n"
        "    print('raised', exc)\n"
        "print('numpy.random' in sys.modules)\n"
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))\n")
    lines = _child_stdout(child)
    assert lines[-2:] == ["False", "['scipy.linalg._flapack']"]
    assert lines[-3].startswith("raised inertia:")
    assert sum("nearest_eigenvalues: k" in line for line in lines) == 1
