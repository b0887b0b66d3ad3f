import json

from ldvortex import harness
from ldvortex.acceptance import CRITERIA, run_acceptance, run_criterion
from ldvortex.errors import NoConvergence


def newton_never_converges(*args, **kwargs):
    raise NoConvergence("Newton forced to fail")


def test_desk_acceptance_passes_in_full_within_budgets():
    report = run_acceptance("desk-N2")
    assert [r.index for r in report.results] == [idx for idx, *_ in CRITERIA]
    for res in report.results:
        assert res.passed, res.line()
        assert res.elapsed <= res.budget, res.line()
    assert report.passed
    payload = report.to_dict()
    assert json.loads(json.dumps(payload)) == payload


def test_census_criterion_fails_when_no_seed_converges(monkeypatch):
    """With no census member the criterion reports FAIL with its checks
    instead of crashing on an empty residual list."""
    monkeypatch.setattr(harness, "newton_critical", newton_never_converges)
    res = run_criterion(5)
    assert not res.passed
    for N in (1, 2, 3):
        details = res.details[f"N={N}"]
        assert details["count"] == 0 and details["max_residual"] is None
        assert not details["checks"]["census_complete"]
