"""The benchmark's span tracer (perfbench/spans.py, loaded read-only)
installed around a tiny census: every factorization is one
minimize.banded_solve span, and every band assembly one
minimize.assemble_banded_hessian span."""

import importlib
import importlib.util
from pathlib import Path

from ldvortex import harness
from ldvortex.params import LdParameters

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TINY = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 1e-3)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(monkeypatch, name: str) -> list:
    """Replace harness.<name> by a pass-through that keeps every result."""
    results = []
    original = getattr(harness, name)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, name, recorded)
    return results


def test_banded_solve_spans_equal_the_solves_the_reports_imply(monkeypatch):
    spans = _load_spans()
    minimize_mod = importlib.import_module("ldvortex.minimize")
    descents = _record(monkeypatch, "minimize")
    points = _record(monkeypatch, "newton_critical")
    solve = minimize_mod.banded_solve
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert minimize_mod.banded_solve is not solve
        rec = harness.census(TINY, TINY.coupling, n_random=2, dx=1.0 / 16.0)
    assert minimize_mod.banded_solve is solve
    assert rec.passed and len(descents) == 2 and len(points) == 2

    # A descent step factors until a shift succeeds; a Newton step factors
    # once, and the census's inertia of each point tries one Cholesky.
    assert all(d.steepest_steps == 0 and d.line_search_failures == 0
               for d in descents)
    implied = (sum(d.iterations + d.levenberg_shifts for d in descents)
               + sum(c.newton_iterations + 1 for c in points))
    assert tracer.layer_totals()["minimize.banded_solve"]["calls"] == implied

    # Every descent step and every Newton step assembles the band once
    # through the traced module global, and so does each census inertia.
    assembled = (sum(d.iterations for d in descents)
                 + sum(c.newton_iterations + 1 for c in points))
    assert (tracer.layer_totals()["minimize.assemble_banded_hessian"]["calls"]
            == assembled)
