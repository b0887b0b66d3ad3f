import concurrent.futures
import json
import math
import os

import numpy as np
import pytest

from ldvortex import harness
from ldvortex.errors import DegenerateField, InvalidParameters, NoCompleteCycle
from ldvortex.harness import (census, convergence_study, count_interior_maxima,
                              field_sweep, flux_check)
from ldvortex.minimize import newton_critical
from ldvortex.observables import distance, observables
from ldvortex.params import Grid1D, LdParameters
from ldvortex.perturbation import (MAX_SEED_GAPS, enumerate_seeds, seed_state,
                                   vortex_plane_delta)


def test_convergence_study_slopes(desk):
    rec = convergence_study(desk, [4e-3, 2e-3, 1e-3], dx=1.0 / 96.0)
    assert abs(rec.fits["energy_slope"] - 1.0) <= 0.3
    assert abs(rec.fits["h_slope"] - 2.0) <= 0.4
    assert abs(rec.fits["jz_slope"] - 2.0) <= 0.4
    assert abs(rec.fits["f_slope"] - 2.0) <= 0.4
    assert rec.fits["phi_slope"] >= 1.5
    assert rec.checks["energy_bound_every_r"]
    assert rec.fits["n_samples"] == 3
    assert all(math.isfinite(v) for v in rec.data["minima"])


def test_convergence_study_validates_inputs(desk):
    with pytest.raises(ValueError):
        convergence_study(desk, [1e-3, 2e-3, 4e-3])
    with pytest.raises(ValueError):
        convergence_study(desk, [4e-3, 2e-3])
    with pytest.raises(ValueError):
        convergence_study(desk, [0.5, 0.25, 0.125])


def test_census_small(desk):
    rec = census(desk, 1e-3, n_random=6, dx=1.0 / 20.0, seed=7)
    assert rec.passed, rec.checks
    assert rec.data["count"] == 4
    assert sorted(rec.data["inertias"]) == [0, 1, 1, 2]
    assert rec.data["min_pairwise_distance"] >= 0.1
    assert rec.data["n_converged"] == 6
    assert rec.data["n_matched"] == 6
    assert rec.data["n_in_shell"] == 6
    assert max(rec.data["newton_iterations"]) <= 10


def test_census_distances_take_one_observables_per_state(desk, monkeypatch):
    """Each census point and each descent end gets its observables once,
    and the stacked distance pass gives the pairwise loop's values."""
    calls, points, descents = [], [], []
    for name, kept in (("observables", calls), ("newton_critical", points),
                       ("minimize", descents)):
        def recorded(*args, _original=getattr(harness, name), _kept=kept, **kwargs):
            _kept.append(_original(*args, **kwargs))
            return _kept[-1]
        monkeypatch.setattr(harness, name, recorded)
    grid = Grid1D.build(desk, dx=1.0 / 20.0)
    rec = census(desk, 1e-3, n_random=3, dx=grid.dx, seed=7)
    assert rec.passed and len(points) == 4 and len(descents) == 3
    assert len(calls) == len(points) + len(descents)

    obs = [observables(c.state, desk, grid) for c in points]
    assert rec.data["min_pairwise_distance"] == min(
        distance(obs[i], obs[j]) for i in range(4) for j in range(i + 1, 4))
    assert rec.data["match_distances"] == [
        min(distance(observables(d.state, desk, grid), o) for o in obs)
        for d in descents]


def test_census_checks_each_point_against_its_own_seed(desk, monkeypatch):
    """inertia_matches_seed compares each point with its own seed, so an
    inertia that permutes the counts (m -> N - m keeps the binomial
    multiset) fails it while inertia_multiset_binomial still passes."""
    grid = Grid1D.build(desk, dx=1.0 / 20.0)
    rec = census(desk, 1e-3, n_random=0, dx=grid.dx)
    assert rec.checks["inertia_matches_seed"] and rec.passed
    measured = harness.inertia
    monkeypatch.setattr(harness, "inertia", lambda state, params, grid:
                        params.num_gaps - measured(state, params, grid))
    rec = census(desk, 1e-3, n_random=0, dx=grid.dx)
    assert rec.checks["inertia_multiset_binomial"]
    assert not rec.checks["inertia_matches_seed"] and not rec.passed


def test_census_deterministic(desk):
    r1 = census(desk, 1e-3, n_random=2, dx=1.0 / 16.0, seed=5)
    r2 = census(desk, 1e-3, n_random=2, dx=1.0 / 16.0, seed=5)
    assert r1.data["energies"] == r2.data["energies"]
    assert r1.data["match_distances"] == r2.data["match_distances"]


def test_records_are_plain_json(desk):
    """Census and sweep records hold only plain Python types, so json.dumps
    takes them without a NumPy-aware encoder."""
    for rec in (census(desk, 1e-3, n_random=2, dx=1.0 / 16.0, seed=5),
                field_sweep(desk, np.linspace(2.0, 3.0, 8), dx=1.0 / 16.0)):
        assert json.loads(json.dumps(rec.to_dict()))["name"] == rec.name


def test_census_reports_unconverged_descents(desk, monkeypatch):
    descend = harness.minimize

    def short_descent(state0, params, grid, **kwargs):
        return descend(state0, params, grid, **{**kwargs, "max_iter": 3})

    monkeypatch.setattr(harness, "minimize", short_descent)
    rec = census(desk, 1e-3, n_random=2, dx=1.0 / 16.0, seed=5)
    assert rec.data["n_converged"] == 0
    assert not rec.checks["all_descents_converged"]
    assert not rec.passed
    assert rec.checks["census_complete"]


def test_census_degenerate_field_raises():
    params = LdParameters(1, 2.0, 0.5, 1.0, math.pi, 1e-3)
    with pytest.raises(DegenerateField):
        census(params, 1e-3, n_random=0)


@pytest.fixture
def no_solves(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a solve or a process pool was started")

    for name in ("newton_critical", "minimize", "seed_state"):
        monkeypatch.setattr(harness, name, no_work)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)


def test_census_refuses_too_many_seeds_before_any_solve(desk, no_solves):
    params = LdParameters(MAX_SEED_GAPS + 1, desk.half_width, desk.spacing,
                          desk.kappa, desk.applied_field, 1e-3)
    with pytest.raises(InvalidParameters, match="2\\^N seeds"):
        enumerate_seeds(params)
    with pytest.raises(InvalidParameters, match="2\\^N seeds"):
        census(params, 1e-3, n_random=2, jobs=2)


def test_negative_coupling_fails_before_any_solve(desk, no_solves):
    with pytest.raises(InvalidParameters, match="coupling"):
        census(desk, -1e-3, n_random=2)


@pytest.mark.parametrize("jobs", [0, -1, len(os.sched_getaffinity(0)) + 1])
def test_jobs_outside_usable_cores_fail_before_any_solve(jobs, desk,
                                                         no_solves):
    with pytest.raises(InvalidParameters, match="usable cores"):
        census(desk, 1e-3, n_random=2, jobs=jobs)
    with pytest.raises(InvalidParameters, match="usable cores"):
        field_sweep(desk, np.linspace(2.0, 3.0, 11), jobs=jobs)


def test_field_sweep_detects_first_transition(desk):
    # Narrow window around H_1 = 2*pi on the desk geometry (pL = 1/2).
    H_grid = np.linspace(5.4, 7.0, 17)
    rec = field_sweep(desk, H_grid)
    assert rec.passed, rec.checks
    assert len(rec.data["transitions"]) == 1
    tr = rec.data["transitions"][0]
    assert abs(tr["location"] - 2.0 * math.pi) <= 0.1
    assert tr["maxima_increment"] == 1
    assert tr["jump_rel_err"] <= 0.10


def test_field_sweep_finds_the_nucleation_sequence(desk):
    """A sweep over H in [2, 20] finds the nucleations k = 1, 2, 3, each
    within one grid step of H_k = k pi / (pL) and adding one maximum, with
    k jump_k within 1% of 4 N p^2 L^2 r / pi."""
    H_grid = np.linspace(2.0, 20.0, 181)
    step = H_grid[1] - H_grid[0]
    rec = field_sweep(desk, H_grid)
    assert rec.passed, rec.checks
    transitions = rec.data["transitions"]
    assert [t["k"] for t in transitions] == [1, 2, 3]
    p, L = desk.spacing, desk.half_width
    scale = 4.0 * desk.num_gaps * p**2 * L**2 * desk.coupling / math.pi
    for t in transitions:
        assert abs(t["location"] - t["k"] * math.pi / (p * L)) <= step
        assert t["maxima_increment"] == 1
        assert abs(t["k"] * t["jump"] - scale) <= 0.01 * scale


def test_field_sweep_jumps_at_wide_sample():
    """N = 2, L = 10: transitions are pi / (pL) = 0.63 apart, so a fit that
    reaches across a neighbouring one spoils the jump; every jump
    k = 4 ... 12 is within 10 %.  The recorded dE/dH is the derivative of the kept energy (envelope
    theorem): central differences of step h converge to it at O(h^2)."""
    params = LdParameters(2, 10.0, 0.5, 1.0, 3.0, 1e-3)
    H_grid = np.linspace(2.0, 8.0, 61)
    rec = field_sweep(params, H_grid, dx=1.0 / 30.0)
    assert rec.passed, rec.checks
    assert [t["k"] for t in rec.data["transitions"]] == list(range(4, 13))
    assert max(t["jump_rel_err"] for t in rec.data["transitions"]) <= 0.10

    j, tol = 10, 3.0 * harness.default_newton_tol(params) / 10.0  # H = 3
    slope = rec.data["dE_dH"][j]
    errors = []
    for h in (1e-2, 1e-3):
        up, down = (harness._sweep_point_job((params, H_grid[j] + s, 1.0 / 30.0, tol))
                    for s in (h, -h))
        errors.append(abs((up["energy"] - down["energy"]) / (2.0 * h) - slope))
    assert errors[1] <= 1e-4 * abs(slope) and errors[1] <= errors[0] / 50.0


def test_field_sweep_meissner_profile(desk):
    """Below the first nucleation field h peaks at the edges with the
    minimum line at x = 0."""
    H_grid = np.linspace(2.0, 3.0, 11)
    rec = field_sweep(desk, H_grid)
    assert all(c == 0.0 for c in rec.data["configs"])
    assert all(m == 0 for m in rec.data["n_maxima"])
    grid = Grid1D.build(desk.with_field(3.0), rec.parameters["dx"])
    cp = newton_critical(seed_state(desk, grid, 0.0), desk, grid, tol=1e-10)
    from ldvortex.observables import observables
    h = np.mean(observables(cp.state, desk, grid).h, axis=0)
    assert np.argmax(h) in (0, len(h) - 1)
    assert abs(grid.mids[np.argmin(h)]) <= grid.dx


def test_field_sweep_warm_start_consistency(desk, monkeypatch):
    """Every field point runs the same two seed descents, so a serial
    sweep and a parallel one give the same minima, bit for bit."""
    H_grid = np.linspace(3.0, 4.0, 11)
    descend, calls = harness.minimize, []

    def counted(*args, **kwargs):
        calls.append(args[1].applied_field)
        return descend(*args, **kwargs)

    monkeypatch.setattr(harness, "minimize", counted)
    warm = field_sweep(desk, H_grid)
    assert len(calls) == 2 * len(H_grid)
    monkeypatch.setattr(harness, "minimize", descend)
    cold = field_sweep(desk, H_grid, jobs=2)
    e1 = np.array(warm.data["epsilon"])
    e2 = np.array(cold.data["epsilon"])
    assert np.max(np.abs(e1 - e2) / np.abs(e1)) <= 1e-8
    assert warm.to_dict()["data"] == cold.to_dict()["data"]


def test_field_sweep_rejects_degenerate_grid(desk):
    with pytest.raises(ValueError):
        field_sweep(desk, np.linspace(2.0, 2.0 * math.pi, 12))


def test_count_interior_maxima():
    y = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
    assert count_interior_maxima(y) == 2
    assert count_interior_maxima(np.array([3.0, 1.0, 0.0, 1.0, 5.0])) == 0
    # A flat top counts once, whether its tie is exact or broken by noise.
    top = 6.400155882318721
    assert count_interior_maxima(np.array([6.0, 6.3, top, top, 6.3, 6.0])) == 1
    assert count_interior_maxima(np.array([6.0, 6.3, top, top + 2e-15, 6.3, 6.0])) == 1
    assert count_interior_maxima(np.array([0.0, 1.0, 1.0, 1.0, 0.0, 2.0, 2.0, 0.0])) == 2
    # A flat shoulder on a monotone profile is not a maximum.
    assert count_interior_maxima(np.array([0.0, 1.0, 1.0, 2.0])) == 0


def test_flux_quantization_at_high_field():
    params = LdParameters(2, 1.0, 0.5, 1.0, 8.0, 1e-3)
    grid = Grid1D.build(params, 1.0 / 40.0)
    cp = newton_critical(seed_state(params, grid, vortex_plane_delta(params)),
                         params, grid, tol=1e-10)
    cycles = flux_check(cp.state, params, grid)
    assert len(cycles) == params.num_gaps  # one cycle per gap at HpL = 4
    for c in cycles:
        assert c.flux == pytest.approx(2.0 * math.pi, rel=0.02)
        assert abs(c.flux - 2.0 * math.pi) <= 20.0 * params.coupling
    # Gap independence at order r^2.
    by_gap = {c.gap: c.flux for c in cycles}
    assert abs(by_gap[0] - by_gap[1]) <= 50.0 * params.coupling**2


def test_flux_requires_complete_cycle(desk, desk_grid):
    # HpL = 1.5 < pi: only one current node inside the sample.
    cp = newton_critical(seed_state(desk, desk_grid, 0.0), desk, desk_grid,
                         tol=1e-9)
    with pytest.raises(NoCompleteCycle):
        flux_check(cp.state, desk, desk_grid)


def test_census_parallel_matches_serial(desk):
    ser = census(desk, 1e-3, n_random=2, dx=1.0 / 16.0, seed=9, jobs=1)
    par = census(desk, 1e-3, n_random=2, dx=1.0 / 16.0, seed=9, jobs=2)
    assert ser.data["match_distances"] == par.data["match_distances"]
