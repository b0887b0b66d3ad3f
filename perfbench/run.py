"""Benchmark of the ldvortex solvers, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-desk --seed 7 --seconds 30 --trace 0

Workloads (all in this process, jobs=1):

- census-desk: `harness.census` on the desk stack with 6 random-start
  descents, dx = 1/20.  Repetitions cycle through three census seeds
  derived from the seed (see `Workload.seeds`), because the descent work
  differs from one census seed to the next (25k to 40k iterations).
  Seed 11 is held out for confirming claims.
- sweep-h1: `harness.field_sweep` on the desk stack over 17 fields around
  the first nucleation field H_1 = 2 pi, warm-started.  Fixed inputs.
- spectra-wide: `harness.census` without descents at N = 3, L = 4
  (8 Newton solves at n = 2 647), then `validity.numerical_gap` at N = 2,
  L = 4 (n = 1 925).  Fixed inputs.

A repetition is started while it is expected to end within --seconds, and
every census seed of the run gets at least one.  With --trace 0 the last
line reports the end-to-end metrics: wall and CPU time of a repetition (the
median per census seed, averaged over the seeds), the median set-up time of
fresh interpreters (import ldvortex, build the parameters and grids), peak
resident memory, and the share of operations that succeeded.  Wall and
CPU times are scaled to a nominal machine speed (see speed.py).  With
--trace 1 one untraced repetition is followed by at least two traced ones
of the first census seed, whose exact counts must agree; the last line
reports the per-layer metrics in raw seconds.  The line before the last
records the environment and every repetition.

BLAS threads are capped at the number of usable cores.  The benchmark exits
with code 2 when the ldvortex sources are not in `src/` beside this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup()
print(time.perf_counter() - t0)
"""

# Per-layer metrics: span name and fields.  `converged_frac` is derived from
# the `converged` and `calls` fields, and is 1 when there was no descent.
LAYER_FIELDS = [
    ("energy.energy_arrays", ("calls", "s")),
    ("energy.gradient_arrays", ("calls", "s")),
    ("minimize.minimize", ("calls", "iterations", "s", "self_s",
                           "converged_frac", "line_search_failures")),
    ("minimize.newton_critical", ("calls", "iterations", "s", "self_s")),
    ("minimize.assemble_banded_hessian", ("calls", "s")),
    ("energy.hessian_apply_arrays", ("calls", "s")),
    ("minimize.banded_solve", ("calls", "s")),
    ("minimize.inertia", ("calls", "s")),
    ("validity.gap_spectrum", ("calls", "s")),
    ("validity.discrete_norm_matrix", ("calls", "s")),
    ("observables.observables", ("calls", "s")),
    ("observables.distance", ("calls", "s")),
    ("perturbation.seed_state", ("calls", "s")),
    ("params.trapezoid_weights", ("calls",)),
]
TIME_FIELDS = ("s", "self_s")
UNITS = {"s": "s", "self_s": "s", "converged_frac": "fraction"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_samples(workload: str) -> list[float]:
    """Set-up times of fresh interpreters, each timed from inside."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC), workload],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    def openblas(config: dict) -> str:
        blas = config["Build Dependencies"]["blas"]
        return blas.get("openblas configuration", blas.get("version", "unknown"))

    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": openblas(np.show_config(mode="dicts")),
            "scipy_blas": openblas(scipy.show_config(mode="dicts")),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "jobs": 1}


def per_seed_mean(reps: list[dict], key: str) -> float:
    """Median over the repetitions of each census seed, averaged over seeds."""
    by_seed = defaultdict(list)
    for rep in reps:
        by_seed[rep["seed"]].append(rep[key])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def layer_metrics(totals: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics; counts come from the first traced repetition
    (they are identical across repetitions), times are medians."""
    metrics = {}
    for span, fields in LAYER_FIELDS:
        rows = [t.get(span, {}) for t in totals]
        for fld in fields:
            if fld == "converged_frac":
                calls = rows[0].get("calls", 0)
                value = rows[0].get("converged", 0) / calls if calls else 1.0
            elif fld in TIME_FIELDS:
                value = statistics.median(r.get(fld, 0.0) for r in rows)
            else:
                value = rows[0].get(fld, 0)
            metrics[f"{span}.{fld}"] = {"value": value, "unit": UNITS.get(fld, "count")}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def exact_counts(totals: dict) -> dict:
    return {span: {k: v for k, v in row.items() if k not in TIME_FIELDS}
            for span, row in totals.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ldvortex" / "__init__.py").is_file():
        print(f"perfbench: no ldvortex sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)  # read when BLAS loads
    sys.path[:0] = [str(HERE), str(SRC)]
    import spans
    import workloads
    from speed import SpeedProbe

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}, choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s = setup_samples(args.workload)
    inputs = workload.setup()
    seeds = workload.seeds(args.seed)[:1 if args.trace else None]
    reps, totals = [], []

    def repetition(seed: int, tracer=None) -> None:
        probe = SpeedProbe() if tracer is None else None
        with probe or spans.traced(tracer):
            t0, c0 = time.perf_counter(), time.process_time()
            failed, checks = workloads.run(workload, inputs, seed)
            t1, c1 = time.perf_counter(), time.process_time()
        rep = {"seed": seed, "traced": tracer is not None, "failed": failed,
               "checks": checks, "wall_s": t1 - t0, "cpu_s": c1 - c0}
        if probe is None:
            totals.append(tracer.layer_totals())
        else:
            rep.update(probe_s=probe.inside(t0, t1), probe_mean_s=probe.mean_s(),
                       scaled_wall_s=probe.scaled(t0, t1, t1 - t0),
                       scaled_cpu_s=probe.scaled(t0, t1, c1 - c0))
        reps.append(rep)

    deadline = time.perf_counter() + args.seconds
    if args.trace:
        repetition(seeds[0])
    min_reps = 2 if args.trace else len(seeds)
    while True:
        timed = [r for r in reps if r["traced"] == bool(args.trace)]
        expected = statistics.median(r["wall_s"] for r in timed) if timed else 0.0
        if len(timed) >= min_reps and time.perf_counter() + expected > deadline:
            break
        repetition(seeds[len(timed) % len(seeds)], spans.Tracer() if args.trace else None)

    attempted = workload.operations * len(reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0
    if args.trace:
        counts = [exact_counts(t) for t in totals]
        correct = correct and all(c == counts[0] for c in counts)
        untraced_s = reps[0]["wall_s"] - reps[0]["probe_s"]
        overhead = statistics.median(r["wall_s"] for r in timed) - untraced_s
        metrics = layer_metrics(totals, overhead)
    else:
        metrics = {
            "wall_s": {"value": per_seed_mean(timed, "scaled_wall_s"), "unit": "s"},
            "cpu_s": {"value": per_seed_mean(timed, "scaled_cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MiB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": environment(nproc), "setup_samples_s": setup_s,
                      "repetitions": reps}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
