"""Golden records, recomputed and compared with tests/records/: the census
and sweep records of the benchmark workloads, the details of acceptance
criteria 5 and 6 and the stdout of `ldvortex perturb --N 3`.  Ints, bools,
strings and list lengths must match exactly, floats by repr; wall_time is
left out.  Regenerate: `PYTHONPATH=src python tests/test_records.py`, which
prints for each file the key paths that moved and how far."""

import contextlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import pytest

from ldvortex import acceptance, cli, harness
from ldvortex.exports import dumps

RECORDS = Path(__file__).resolve().parent / "records"
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", RECORDS.parents[1] / "perfbench" / "workloads.py")
wl = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wl)


def _perturb() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["perturb", "--N", "3"]) == 0
    return json.loads(out.getvalue())


SOURCES = {
    **{f"census-desk-{s}": lambda s=s: harness.census(
        wl.DESK, wl.DESK.coupling, n_random=wl.CENSUS_DESK_RANDOM, dx=wl.CENSUS_DESK_DX,
        seed=s, jobs=1, match_threshold=wl.MATCH_THRESHOLD).to_dict()
       for base in (7, 11) for s in wl.WORKLOADS["census-desk"].seeds(base)},
    "sweep-h1": lambda: harness.field_sweep(wl.DESK, wl.SWEEP_H1_FIELDS, jobs=1).to_dict(),
    "spectra-wide-census": lambda: harness.census(
        wl.WIDE_CENSUS, wl.WIDE_CENSUS.coupling, n_random=0, dx=wl.WIDE_DX, jobs=1).to_dict(),
    "criterion-5": lambda: acceptance.run_criterion(5).details,
    "criterion-6": lambda: acceptance.run_criterion(6).details,
    "perturb-N3": _perturb,
}


def _plain(payload) -> dict:
    """The payload as its JSON text reads back, without wall_time."""
    return json.loads(dumps(payload), object_pairs_hook=lambda pairs: {
        key: value for key, value in pairs if key != "wall_time"})


def _diff(old, new, path: str = "$") -> list[tuple[str, float]]:
    """(key path, relative difference) of every leaf where new differs; a
    key on one side only (read as ..., which no JSON holds) differs by inf."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [d for key in {**old, **new}
                for d in _diff(old.get(key, ...), new.get(key, ...), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, (a, b) in enumerate(zip(old, new)) for d in _diff(a, b, f"{path}[{i}]")]
    if type(old) is float and type(new) is float:
        rel = abs(new - old) / (max(abs(old), abs(new)) or 1.0)
        return [] if repr(old) == repr(new) else [(path, rel if math.isfinite(rel) else math.inf)]
    return [] if type(old) is type(new) and old == new else [(path, math.inf)]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_record_matches_its_golden_file(name):
    diffs = _diff(json.loads((RECORDS / f"{name}.json").read_text()), _plain(SOURCES[name]()))
    assert not diffs, (f"{len(diffs)} leaves differ, largest relative difference "
                       f"{max(rel for _, rel in diffs):.3e}: "
                       + ", ".join(path for path, _ in diffs))


if __name__ == "__main__":
    RECORDS.mkdir(exist_ok=True)
    for name, source in SOURCES.items():
        path, new = RECORDS / f"{name}.json", _plain(source())
        diffs = _diff(json.loads(path.read_text()) if path.exists() else {}, new)
        print(f"{name}: {len(diffs)} key paths moved, largest relative difference "
              f"{max((rel for _, rel in diffs), default=0.0):.3e}")
        for key_path, rel in diffs:
            print(f"  {key_path}  {rel:.3e}")
        path.write_text(dumps(new))
