"""Fast self-test of the benchmark on tiny inputs (a few seconds).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ldvortex import harness, validity  # noqa: E402
from ldvortex.params import Grid1D, LdParameters  # noqa: E402

TINY = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 1e-3)


def tiny_census(seed: int = 0):
    return harness.census(TINY, TINY.coupling, n_random=1, dx=1.0 / 16.0, seed=seed)


def traced_totals():
    tracer = spans.Tracer()
    with spans.traced(tracer):
        rec = tiny_census()
        validity.numerical_gap(TINY, Grid1D.build(TINY, 1.0 / 16.0))
    return tracer, rec


def test_counts_repeat_and_results_unchanged():
    plain = tiny_census()
    first, rec = traced_totals()
    second, _ = traced_totals()
    assert run.exact_counts(first.layer_totals()) == run.exact_counts(second.layer_totals())
    assert rec.data["energies"] == plain.data["energies"]
    assert rec.data["match_distances"] == plain.data["match_distances"]


def test_spans_nest_and_cover_every_layer():
    tracer, _ = traced_totals()
    for span_id, (_, parent, t0, t1, _) in enumerate(tracer.spans):
        assert -1 <= parent < span_id and t0 <= t1
    totals = tracer.layer_totals()
    for span, _ in run.LAYER_FIELDS:
        assert totals[span]["calls"] >= 1, span
    for row in totals.values():
        assert -1e-9 <= row["self_s"] <= row["s"] + 1e-9
    mini = totals["minimize.minimize"]
    assert mini["calls"] == 1 and mini["converged"] == 1 and mini["iterations"] > 0
    kernels = ("energy.energy_arrays", "energy.gradient_arrays", "energy.hessian_apply_arrays")
    assert sum(totals[k]["calls"] for k in kernels) == totals["params.trapezoid_weights"]["calls"]


def test_wrappers_are_removed():
    minimize_mod = importlib.import_module("ldvortex.minimize")
    before = (harness.minimize, minimize_mod.sla, minimize_mod.energy_arrays,
              Grid1D.__dict__["trapezoid_weights"], validity.gap_spectrum)
    traced_totals()
    with workloads.descent_outcomes() as outcomes:
        tiny_census()
    assert len(outcomes) == 1 and outcomes[0] == (TINY.applied_field, True)
    after = (harness.minimize, minimize_mod.sla, minimize_mod.energy_arrays,
             Grid1D.__dict__["trapezoid_weights"], validity.gap_spectrum)
    assert all(a is b for a, b in zip(before, after))


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer, _ = traced_totals()
    layer = run.layer_metrics([tracer.layer_totals()], 0.0)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    assert all(layer[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert workloads.WORKLOADS["census-desk"].seeds(11) == [11, 1_000_014, 2_000_017]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac"}


def test_speed_probe_scales_and_restores_the_signal():
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(probe.samples) >= 3  # entry, exit and at least one tick
    inside = probe.inside(t0, t1)
    assert 0.0 < inside < 0.1 * (t1 - t0)
    expected = (t1 - t0 - inside) * speed.NOMINAL_S / probe.mean_s()
    assert probe.scaled(t0, t1, t1 - t0) == expected


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-h1",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stdout == ""


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
