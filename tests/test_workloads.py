"""The benchmark's workloads (perfbench/workloads.py, loaded read-only):
each passes its own gate here, through the same descent probe, and the
machine-independent work of the sweep and of one census is pinned by
counting calls through module globals."""

import importlib
import importlib.util
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import ldvortex
from ldvortex import harness

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    """The workloads module, shared with test_records when it loaded first."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


wl = _load_workloads()


def _counted(monkeypatch, owner, name: str, counts: Counter, key: str) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("name, descents", [
    ("census-desk", wl.CENSUS_DESK_RANDOM), ("sweep-h1", 2 * len(wl.SWEEP_H1_FIELDS)),
    ("spectra-wide", 0)])
def test_workload_passes_its_gate(name, descents, monkeypatch):
    """workloads.run fails no operation and every gate check holds, census
    seed 7 for census-desk.  The descent probe sees one report with a bool
    `converged` per harness.minimize call, one per descent the workload
    runs, and spectra-wide's gap matches WIDE_GAP_PINNED to GAP_RTOL."""
    reports = []
    original = harness.minimize

    def recorded(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "minimize", recorded)
    workload = wl.WORKLOADS[name]
    failed, checks = wl.run(workload, workload.setup(), 7)
    assert failed == 0 and checks and all(checks.values()), checks
    assert len(reports) == descents
    assert all(isinstance(rep.converged, bool) for rep in reports)


def test_sweep_makes_one_stencil_pass_per_point(monkeypatch):
    """The sweep-h1 field sweep is 34 one-step descents: per descent two
    kernel calls (the start and the accepted trial), one band assembled
    from the start's stencil and one Cholesky solve.  _fields runs once
    per kernel call and once for the observables pass over all ends, in
    whichever module global it is reached through."""
    minimize_mod = importlib.import_module("ldvortex.minimize")
    counts = Counter()
    for name in ("energy_arrays", "assemble_banded_hessian", "banded_solve"):
        _counted(monkeypatch, minimize_mod, name, counts, name)
    fields = importlib.import_module("ldvortex.observables")._fields
    for info in pkgutil.iter_modules(ldvortex.__path__):
        module = importlib.import_module(f"ldvortex.{info.name}")
        if getattr(module, "_fields", None) is fields:
            _counted(monkeypatch, module, "_fields", counts, "_fields")
    harness.field_sweep(wl.DESK, wl.SWEEP_H1_FIELDS)
    assert counts == {"energy_arrays": 68, "assemble_banded_hessian": 34,
                      "banded_solve": 34, "_fields": 69}


def test_census_desk_keeps_its_descent_steps(monkeypatch):
    """The census-desk census at census seed 7 takes 39 descent steps over
    its 6 random starts."""
    steps = []
    original = harness.minimize

    def recorded(*args, **kwargs):
        rep = original(*args, **kwargs)
        steps.append(rep.iterations)
        return rep

    monkeypatch.setattr(harness, "minimize", recorded)
    rec = harness.census(wl.DESK, wl.DESK.coupling, n_random=wl.CENSUS_DESK_RANDOM,
                         dx=wl.CENSUS_DESK_DX, seed=7, jobs=1,
                         match_threshold=wl.MATCH_THRESHOLD)
    assert rec.passed and len(steps) == wl.CENSUS_DESK_RANDOM and sum(steps) == 39
