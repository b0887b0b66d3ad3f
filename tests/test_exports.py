import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ldvortex import cli
from ldvortex.acceptance import run_criterion
from ldvortex.exports import (jsonable, read_field_csv, write_field_csv,
                              write_json)
from ldvortex.observables import mids_to_nodes, observables
from ldvortex.params import Grid1D, LdParameters
from ldvortex.state import LayeredState


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


@st.composite
def small_states(draw):
    N = draw(st.integers(1, 3))
    params = LdParameters(N, draw(st.floats(0.5, 4.0)), 0.5, 1.0,
                          draw(st.floats(0.5, 9.0)), 1e-3)
    grid = Grid1D.build(params, dx=2.0 * params.half_width / 16)
    M = grid.M

    def field(shape, bound):
        return draw(arrays(np.float64, shape, elements=st.floats(-bound, bound)))

    state = LayeredState(field((N + 1, M + 1), 2.0), field((N + 1, M + 1), 50.0),
                         field((N + 1, M), 50.0))
    return state, params, grid


@given(small_states())
@settings(max_examples=30, deadline=None)
def test_field_csv_round_trips_bit_for_bit(tmp_path_factory, case):
    state, params, grid = case
    path = tmp_path_factory.mktemp("csv") / "fields.csv"
    write_field_csv(path, state, params, grid)
    back = read_field_csv(path)
    obs = observables(state, params, grid)
    written = {"x": grid.nodes, "f": state.f, "V": mids_to_nodes(obs.V),
               "Phi": obs.Phi, "h": mids_to_nodes(obs.h),
               "jx": mids_to_nodes(obs.jx), "jz": mids_to_nodes(obs.jz)}
    for key, value in written.items():
        assert back[key].shape == value.shape, key
        assert back[key].tobytes() == np.ascontiguousarray(value).tobytes(), key


def _recorded(monkeypatch, name: str) -> list:
    """Replace cli.<name> by a pass-through that keeps every result."""
    results = []
    original = getattr(cli, name)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, recorded)
    return results


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [list(col) for col in zip(*rows)]


def _floats(column: list[str]) -> bytes:
    return np.array([float(v) for v in column]).tobytes()


def test_trace_and_lift_csvs_round_trip_bit_for_bit(tmp_path, monkeypatch):
    reports = _recorded(monkeypatch, "minimize")
    assert cli.main(["minimize", "--tol", "1e-7", "--max-iter", "200",
                     "--dx", "0.125", "--out", str(tmp_path / "run.json")]) == 0
    rep = reports[0]
    assert rep.iterations >= 1
    header, (it, energy, gnorm, step) = _read_csv(tmp_path / "run.trace.csv")
    assert header == ["iter", "energy", "grad_norm", "step"]
    assert it == [str(i) for i in range(rep.iterations + 1)]
    assert _floats(energy) == rep.energy_trace.tobytes()
    assert _floats(gnorm) == rep.grad_trace.tobytes()
    assert step[0] == "" and _floats(step[1:]) == rep.step_trace.tobytes()

    lifts = _recorded(monkeypatch, "lift_field_2d")
    assert cli.main(["export-field", "--source", "seed", "--nz-per-gap", "2",
                     "--dx", "0.125", "--out", str(tmp_path / "seed.csv")]) == 0
    z, hmap = lifts[0]
    mids = Grid1D.build(LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3), 0.125).mids
    assert hmap.shape == (2 * 2, mids.size)
    header, (x, zs, h) = _read_csv(tmp_path / "seed.lift.csv")
    assert header == ["x", "z", "h"]
    assert _floats(x) == np.tile(mids, z.size).tobytes()
    assert _floats(zs) == np.repeat(z, mids.size).tobytes()
    assert _floats(h) == hmap.tobytes()
