"""The benchmark workloads: their inputs, the calls into ldvortex, and the
correctness gate each run must pass.

Every workload runs in this process with jobs=1.  An operation is a Newton
solve, a random-start descent, a sweep point or a gap solve.  Each workload
body returns the number of its operations that failed and its named gate
checks.  The census-desk inputs follow the seed; the other two workloads
have fixed inputs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ldvortex import harness, validity
from ldvortex.errors import LdError
from ldvortex.params import Grid1D, LdParameters

# The desk stack: N=2, L=1, p=0.5, kappa=1, H=3, r=1e-3.
DESK = LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3)
CENSUS_DESK_DX = 1.0 / 20.0
CENSUS_DESK_RANDOM = 6
MATCH_THRESHOLD = 1e-3  # census's own default, passed so the gate can use it
SWEEP_H1_FIELDS = np.linspace(5.4, 7.0, 17)
WIDE_CENSUS = LdParameters(3, 4.0, 0.5, 1.0, 3.0, 1e-3)
WIDE_GAP = LdParameters(2, 4.0, 0.5, 1.0, 3.0, 1e-3)
WIDE_DX = 1.0 / 30.0
# numerical_gap(WIDE_GAP) at dx = 1/30, pinned from the code this benchmark
# was written against; later versions must reproduce it to GAP_RTOL.
WIDE_GAP_PINNED = 0.03442428594888238
GAP_RTOL = 1e-10
# Census seeds of one census-desk run: seed, seed + SEED_STRIDE, ...
SEED_STRIDE = 1_000_003


@contextmanager
def descent_outcomes():
    """Record (applied field, converged) for every descent the harness runs;
    records do not say which descents stopped short of their tolerance."""
    outcomes: list[tuple[float, bool]] = []
    original = harness.minimize

    def probe(state0, params, *args, **kwargs):
        rep = original(state0, params, *args, **kwargs)
        outcomes.append((params.applied_field, rep.converged))
        return rep

    harness.minimize = probe
    try:
        yield outcomes
    finally:
        harness.minimize = original


def census_desk(inputs: dict, seed: int) -> tuple[int, dict[str, bool]]:
    params, grid = inputs["params"], inputs["grid"]
    with descent_outcomes() as descents:
        rec = harness.census(params, params.coupling, n_random=CENSUS_DESK_RANDOM,
                             dx=grid.dx, seed=seed, jobs=1,
                             match_threshold=MATCH_THRESHOLD)
    bad_descents = sum(1 for (_, ok), dist in zip(descents, rec.data["match_distances"])
                       if not ok or dist > MATCH_THRESHOLD)
    failed = len(rec.data["newton_failures"]) + bad_descents
    return failed, {
        "record_passed": rec.passed,
        "count_4": rec.data["count"] == 4,
        "inertias_0112": sorted(rec.data["inertias"]) == [0, 1, 1, 2],
        "all_matched": rec.data["n_matched"] == CENSUS_DESK_RANDOM}


def sweep_h1(inputs: dict, seed: int) -> tuple[int, dict[str, bool]]:
    params, fields = inputs["params"], inputs["fields"]
    with descent_outcomes() as descents:
        rec = harness.field_sweep(params, fields, jobs=1)
    stalled = {H for H, ok in descents if not ok}
    failed = sum(1 for H, config in zip(rec.data["H_grid"], rec.data["configs"])
                 if math.isnan(config) or H in stalled)
    transitions = rec.data["transitions"]
    one = transitions[0] if len(transitions) == 1 else None
    return failed, {
        "record_passed": rec.passed,
        "one_transition": one is not None,
        "near_2pi": one is not None and abs(one["location"] - 2.0 * math.pi) <= 0.1,
        "maxima_increment_1": one is not None and one["maxima_increment"] == 1,
        "jump_within_10pc": one is not None and one["jump_rel_err"] <= 0.10}


def spectra_wide(inputs: dict, seed: int) -> tuple[int, dict[str, bool]]:
    params, grid = inputs["params"], inputs["grid"]
    rec = harness.census(params, params.coupling, n_random=0, dx=grid.dx, jobs=1)
    gap = validity.numerical_gap(inputs["gap_params"], inputs["gap_grid"])
    gap_ok = abs(gap - WIDE_GAP_PINNED) <= GAP_RTOL * WIDE_GAP_PINNED
    failed = len(rec.data["newton_failures"]) + (not gap_ok)
    return failed, {
        "record_passed": rec.passed,
        "inertia_multiset_binomial": rec.checks["inertia_multiset_binomial"],
        "gap_pinned": gap_ok}


@dataclass(frozen=True)
class Workload:
    operations: int
    setup: Callable[[], dict]
    body: Callable[[dict, int], tuple[int, dict[str, bool]]]
    seeds_per_run: int = 1

    def seeds(self, seed: int) -> list[int]:
        return [seed + SEED_STRIDE * k for k in range(self.seeds_per_run)]


WORKLOADS = {
    "census-desk": Workload(
        2**DESK.num_gaps + CENSUS_DESK_RANDOM,
        lambda: {"params": DESK, "grid": Grid1D.build(DESK, CENSUS_DESK_DX)},
        census_desk, seeds_per_run=3),
    "sweep-h1": Workload(
        len(SWEEP_H1_FIELDS),
        lambda: {"params": DESK, "fields": SWEEP_H1_FIELDS.copy()},
        sweep_h1),
    "spectra-wide": Workload(
        2**WIDE_CENSUS.num_gaps + 1,
        lambda: {"params": WIDE_CENSUS, "grid": Grid1D.build(WIDE_CENSUS, WIDE_DX),
                 "gap_params": WIDE_GAP, "gap_grid": Grid1D.build(WIDE_GAP, WIDE_DX)},
        spectra_wide),
}


def run(workload: Workload, inputs: dict, seed: int) -> tuple[int, dict[str, bool]]:
    """One run: (operations failed, gate checks).  An ldvortex error fails
    every operation; a false gate check fails at least one."""
    try:
        failed, checks = workload.body(inputs, seed)
    except LdError as exc:
        return workload.operations, {type(exc).__name__: False}
    return (failed if all(checks.values()) else max(failed, 1)), checks
