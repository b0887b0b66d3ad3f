import json

import numpy as np
import pytest

from ldvortex.acceptance import run_criterion
from ldvortex.exports import jsonable, write_json


def test_write_json_coerces_numpy_values(tmp_path):
    payload = {"flag": np.bool_(True), "count": np.int64(3),
               "value": np.float64(0.25), "array": np.arange(3.0),
               "nested": [{"ok": np.bool_(False)}, (np.int32(1), 2.0)]}
    path = tmp_path / "out.json"
    write_json(path, payload)
    assert json.loads(path.read_text()) == {
        "array": [0.0, 1.0, 2.0], "count": 3, "flag": True,
        "nested": [{"ok": False}, [1, 2.0]], "value": 0.25}
    plain = jsonable(payload)
    assert type(plain["flag"]) is bool and type(plain["count"]) is int


@pytest.mark.parametrize("index", [1, 9, 10])
def test_criterion_report_round_trips_through_json(index):
    report = run_criterion(index).to_dict()
    assert json.loads(json.dumps(report)) == report
