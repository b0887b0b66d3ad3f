import json

from ldvortex.acceptance import CRITERIA, run_acceptance


def test_desk_acceptance_passes_in_full_within_budgets():
    report = run_acceptance("desk-N2", echo=None)
    assert [r.index for r in report.results] == [idx for idx, *_ in CRITERIA]
    for res in report.results:
        assert res.passed, res.line()
        assert res.elapsed <= res.budget, res.line()
    assert report.passed
    payload = report.to_dict()
    assert json.loads(json.dumps(payload)) == payload
