"""SciPy's LAPACK wrappers loaded without scipy.linalg: the same wrapper
objects, the same bits, and no other SciPy module on a census or sweep."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from ldvortex import _lapack
from ldvortex.harness import census
from ldvortex.minimize import _eigvalsh
from ldvortex.params import LdParameters

SRC = Path(__file__).resolve().parents[1] / "src"
DRIVERS = ("dpbsv", "dgbsv", "dgtsv", "dsyevr", "dsyevr_lwork", "dgbtrf", "dgbtrs")


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


def test_census_and_sweep_import_no_other_scipy_module():
    child = (
        "import sys\n"
        "from ldvortex import cli, harness\n"
        "from ldvortex.params import LdParameters\n"
        "p = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 1e-3)\n"
        "assert harness.census(p, 1e-3, n_random=1, dx=0.125).passed\n"
        "harness.field_sweep(p, [5.0 + 0.3 * i for i in range(8)], dx=0.125)\n"
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split("\n")[-2] == "['scipy.linalg._flapack']"
