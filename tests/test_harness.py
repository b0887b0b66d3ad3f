import concurrent.futures
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from ldvortex import harness, perturbation
from ldvortex.acceptance import get_preset, run_criterion
from ldvortex.energy import gradient
from ldvortex.errors import (DegenerateField, InvalidParameters, LdError,
                             NoCompleteCycle, NoConvergence)
from ldvortex.harness import (census, convergence_study, count_interior_maxima,
                              field_sweep, flux_check)
from ldvortex.minimize import (CORRECTION_TOL, assemble_banded_hessian,
                               banded_solve, minimize, newton_critical, stop_tol)
from ldvortex.observables import (delta_estimate, distance, lift_field_2d,
                                  observables)
from ldvortex.params import Grid1D, LdParameters, default_dx, wrap_to_pi
from ldvortex.perturbation import (MAX_SEED_GAPS, enumerate_seeds,
                                   epsilon_and_jumps, nucleation_fields,
                                   seed_state, vortex_plane_delta)
from ldvortex.state import uniform_field_state
from ldvortex.validity import rstar_lower


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


def test_census_solves_its_seeds_at_small_coupling(desk):
    """The phase modes' curvature is O(r), so at r = 1e-4 the seeds'
    residuals already meet a fixed 1e-9: the census solves to stop_tol,
    3e-10 here, and takes a Newton step from every seed."""
    rec = census(desk, 1e-4, n_random=0, dx=1.0 / 30.0)
    assert rec.passed, rec.checks
    assert min(rec.data["newton_iterations"]) >= 1
    assert max(rec.data["residuals"]) <= stop_tol(desk.with_coupling(1e-4))


def _small_coupling_cloud(n: int) -> list[LdParameters]:
    """n points of the paper's domain, drawn with seed 0: N in 1..4,
    L in [1, 6], p in [0.2, 1], kappa in [1, 4] and H in [0.5, 10] with
    |sin HpL| >= 0.2 (a draw closer to a degenerate field is drawn again),
    at r = min(1e-3, 0.1 rstar_lower), inside the validity radius."""
    rng = np.random.default_rng(0)
    points = []
    while len(points) < n:
        N, L, p = int(rng.integers(1, 5)), rng.uniform(1.0, 6.0), rng.uniform(0.2, 1.0)
        kappa, H = rng.uniform(1.0, 4.0), rng.uniform(0.5, 10.0)
        if abs(math.sin(H * p * L)) >= 0.2:
            params = LdParameters(N, L, p, kappa, H, 1e-3)
            points.append(params.with_coupling(min(1e-3, 0.1 * rstar_lower(params))))
    return points


@pytest.fixture(scope="module")
def cloud_censuses() -> dict:
    """{(i, seed): (params, record, descents)}: twelve cloud points, each
    censused with 4 random starts at census seeds 0 and 1, with the reports
    of the census's descents."""
    original, descents, out = harness.minimize, [], {}

    def recorded(*args, **kwargs):
        descents.append(original(*args, **kwargs))
        return descents[-1]

    harness.minimize = recorded
    try:
        for i, params in enumerate(_small_coupling_cloud(12)):
            for seed in (0, 1):
                descents.clear()
                rec = census(params, params.coupling, n_random=4, seed=seed)
                out[i, seed] = params, rec, list(descents)
    finally:
        harness.minimize = original
    return out


def test_census_passes_every_check_across_a_small_coupling_cloud(cloud_censuses):
    """Twelve cloud points, r from 1.9e-7 to 4.3e-4, each censused with 4
    random starts at census seeds 0 and 1: every census check passes.  The
    phase modes' curvature is O(r), so a fixed tolerance or a Levenberg
    rung far above that curvature leaves descents short of the points."""
    failed = {}
    for (i, seed), (params, rec, _) in cloud_censuses.items():
        names = [name for name, ok in rec.checks.items() if not ok]
        if names:
            failed[i, seed, params.coupling] = names
    assert not failed, failed


def test_matched_cloud_descents_end_within_the_correction_tolerance(cloud_censuses):
    """At every descent end of the cloud censuses that matches a point, the
    exact Newton correction |H^-1 g|inf (one unshifted banded LU solve) is
    at most CORRECTION_TOL: the stopping rule bounds the distance to the
    point, which a residual rule alone left at up to 1.381e-4.  Point 5 at
    census seed 1 (r = 8.33e-6) is pinned: a descent there met the residual
    rule 0.019 from its saddle when the shift started at the phase
    curvature without the correction test."""
    worst = 0.0
    for params, rec, descents in cloud_censuses.values():
        grid = Grid1D.build(params)
        assert len(descents) == len(rec.data["match_distances"]) == 4
        for rep, dist in zip(descents, rec.data["match_distances"]):
            if dist <= 1e-3:
                s = rep.state
                ab, *_ = assemble_banded_hessian(s.f, s.phi, s.a, params, grid)
                d, _ = banded_solve(ab, gradient(s, params, grid), False, 0.0)
                worst = max(worst, float(np.max(np.abs(d))))
    assert worst <= CORRECTION_TOL
    params, rec, _ = cloud_censuses[5, 1]
    assert params.coupling == pytest.approx(8.33e-6, rel=1e-3)
    assert rec.checks["all_descents_matched"]


def test_census_analyses_its_states_in_one_observables_call(desk, monkeypatch):
    """The census points followed by the descent ends get their observables
    in one stacked call, and the distance pass gives the pairwise loop's
    values."""
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
    assert len(calls) == 1 and calls[0].h.shape[0] == len(points) + len(descents)

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


def _leaf_types(value) -> set:
    if isinstance(value, dict):
        return set().union(*map(_leaf_types, value.values()))
    if isinstance(value, list):
        return set().union(*map(_leaf_types, value))
    return {type(value)}


def test_records_are_plain_json(desk):
    """Census, convergence-study and sweep records hold only plain Python
    types, so json.dumps takes them without a NumPy-aware encoder and a
    comparison of two of their numbers is a plain bool.  The sweep crosses
    H_1, so a transition is checked too."""
    sweep = field_sweep(desk, np.linspace(5.8, 6.8, 8), dx=1.0 / 16.0)
    assert len(sweep.data["transitions"]) == 1
    for rec in (census(desk, 1e-3, n_random=2, dx=1.0 / 16.0, seed=5),
                convergence_study(desk, [4e-3, 2e-3, 1e-3], dx=1.0 / 16.0), sweep):
        assert _leaf_types(rec.to_dict()) <= {bool, int, float, str, type(None)}, rec.name


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


def test_census_without_points_or_descents_fails_cleanly(desk, monkeypatch):
    """With every Newton solve failing and no descents there is nothing to
    analyse: the record says so instead of crashing."""
    def newton_never_converges(*args, **kwargs):
        raise NoConvergence("Newton forced to fail")

    monkeypatch.setattr(harness, "newton_critical", newton_never_converges)
    rec = census(desk, 1e-3, n_random=0, dx=1.0 / 16.0)
    assert rec.data["count"] == 0 and len(rec.data["newton_failures"]) == 4
    assert rec.data["delta_hat"] == [] and rec.data["match_distances"] == []
    assert rec.data["min_pairwise_distance"] == math.inf
    assert not rec.checks["census_complete"] and not rec.passed


def _lift_no_rows(params):
    grid = Grid1D.build(params)
    obs = observables(uniform_field_state(params, grid), params, grid)
    return lift_field_2d(obs, params, 0)


@pytest.mark.parametrize("refused", [
    lambda p: convergence_study(p, [1e-3, 2e-3, 4e-3]),
    lambda p: convergence_study(p, [0.1, 0.05, 0.01]),
    lambda p: nucleation_fields(p, 0.0),
    _lift_no_rows,
    lambda p: run_criterion(11),
    lambda p: get_preset("desk-N9"),
], ids=["r-list-increasing", "r-above-expansion-scale", "nonpositive-H-max",
        "no-lift-rows", "no-such-criterion", "no-such-preset"])
def test_refused_input_raises_an_ld_error(refused, desk):
    """A refusal of outside input is an LdError (InvalidParameters, still a
    ValueError), which the command line reports with exit code 1."""
    with pytest.raises(LdError) as info:
        refused(desk)
    assert isinstance(info.value, InvalidParameters)


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


@pytest.mark.parametrize("tail", [[math.inf, math.inf], [math.nan, math.nan],
                                  [3.5, math.nan]],
                         ids=["inf-inf", "nan-nan", "trailing-nan"])
def test_non_finite_field_grid_fails_before_any_solve(tail, desk, no_solves):
    """inf - inf and any difference with NaN are NaN, which an increasing
    check alone lets through; both field grids refuse the values."""
    H_grid = np.concatenate([np.linspace(2.0, 3.0, 8), tail])
    with pytest.raises(InvalidParameters, match="finite"):
        field_sweep(desk, H_grid)
    with pytest.raises(InvalidParameters, match="finite"):
        epsilon_and_jumps(desk, H_grid)


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
    within 5 % of a grid step of H_k = k pi / (pL) and adding one maximum,
    with k jump_k within 1% of 4 N p^2 L^2 r / pi."""
    H_grid = np.linspace(2.0, 20.0, 181)
    step = H_grid[1] - H_grid[0]
    rec = field_sweep(desk, H_grid)
    assert rec.passed, rec.checks
    transitions = rec.data["transitions"]
    assert [t["k"] for t in transitions] == [1, 2, 3]
    p, L = desk.spacing, desk.half_width
    scale = 4.0 * desk.num_gaps * p**2 * L**2 * desk.coupling / math.pi
    for t in transitions:
        assert abs(t["location"] - t["k"] * math.pi / (p * L)) <= 0.05 * step
        assert t["maxima_increment"] == 1
        assert abs(t["k"] * t["jump"] - scale) <= 0.01 * scale


def test_field_sweep_jumps_at_wide_sample():
    """N = 2, L = 10: transitions are pi / (pL) = 0.63 apart, so a fit that
    reaches across a neighbouring one spoils the jump; every jump
    k = 4 ... 12 is within 10 %.  The recorded dE/dH is the derivative of
    the kept energy (envelope theorem): central differences of step h
    converge to it at O(h^2), at H = 3 and at H = 4.1, where the seeds are
    closest to critical."""
    params = LdParameters(2, 10.0, 0.5, 1.0, 3.0, 1e-3)
    H_grid = np.linspace(2.0, 8.0, 61)
    rec = field_sweep(params, H_grid, dx=1.0 / 30.0)
    assert rec.passed, rec.checks
    assert [t["k"] for t in rec.data["transitions"]] == list(range(4, 13))
    assert max(t["jump_rel_err"] for t in rec.data["transitions"]) <= 0.10

    grid = Grid1D.build(params, 1.0 / 30.0)

    def kept_energy(H):
        """The lower energy of the two public seed descents at field H."""
        ph = params.with_field(float(H))
        return min(minimize(start, ph, grid, tol=stop_tol(params)).energy
                   for start in seed_state(ph, grid, [[0.0, 0.0], [math.pi, math.pi]]))

    for j in (10, 21):  # H = 3, 4.1
        slope = rec.data["dE_dH"][j]
        errors = [abs((kept_energy(H_grid[j] + h) - kept_energy(H_grid[j] - h)) / (2.0 * h)
                      - slope) for h in (1e-2, 1e-3)]
        assert errors[1] <= 1e-4 * abs(slope) and errors[1] <= errors[0] / 50.0, (j, errors)


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


def test_field_sweep_serial_equals_parallel(desk, monkeypatch):
    """Every field point runs the same two seed descents, so a serial
    sweep and a parallel one give the same minima, bit for bit."""
    H_grid = np.linspace(3.0, 4.0, 11)
    descend, calls = harness.minimize, []

    def counted(*args, **kwargs):
        calls.append(args[1].applied_field)
        return descend(*args, **kwargs)

    monkeypatch.setattr(harness, "minimize", counted)
    serial = field_sweep(desk, H_grid)
    assert len(calls) == 2 * len(H_grid)
    monkeypatch.setattr(harness, "minimize", descend)
    parallel = field_sweep(desk, H_grid, jobs=2)
    assert serial.to_dict()["data"] == parallel.to_dict()["data"]


def test_field_sweep_matches_a_per_field_reference(desk):
    """Across H_1 = 2 pi the one-pass sweep records, field for field and to
    the bit, what one seed, descent and analysis per field gives: the
    public seed_state per field, E_pi - E_0 of its two descents and the
    lower of them (a tie keeps delta = 0), and delta_hat, the
    configuration, the envelope dE/dH and the maxima of the gap-averaged h
    from that field's observables."""
    H_grid = np.linspace(5.8, 6.8, 8)
    data = field_sweep(desk, H_grid).to_dict()["data"]
    dx = default_dx(desk.with_field(float(H_grid[-1])))
    tol = stop_tol(desk)
    branches = np.array([[0.0], [math.pi]]).repeat(desk.num_gaps, axis=1)
    ref = {"epsilon": [], "dE_dH": [], "configs": [], "n_maxima": [],
           "delta_hat": [], "E_pi_minus_E_0": []}
    for H in H_grid:
        ph = desk.with_field(float(H))
        grid = Grid1D.build(ph, dx)
        zero, pi = (minimize(start, ph, grid, tol=tol)
                    for start in seed_state(ph, grid, branches))
        best = pi if pi.energy < zero.energy else zero
        obs = observables(best.state, ph, grid)
        dh = delta_estimate(obs, ph, grid)
        near = [c for c in (0.0, math.pi)
                if all(abs(wrap_to_pi(v - c)) < 0.5 * math.pi for v in dh)]
        ref["epsilon"].append(best.energy)
        ref["E_pi_minus_E_0"].append(pi.energy - zero.energy)
        ref["dE_dH"].append(-2.0 * ph.spacing * grid.dx / ph.kappa**2
                            * float((obs.h - H).sum()))
        ref["configs"].append(near[0] if near else math.nan)
        ref["n_maxima"].append(count_interior_maxima(np.mean(obs.h, axis=0)))
        ref["delta_hat"].append(dh.tolist())
    assert ref["configs"][0] == 0.0 and ref["configs"][-1] == math.pi
    for key, values in ref.items():
        assert data[key] == values, key


def test_field_sweep_checks_every_descent_holds_its_branch(desk, monkeypatch):
    """A pi seed swapped for its field's delta = 0 seed descends to the
    delta = 0 branch: the kept minima do not show it, branches_held does."""
    H_grid = np.linspace(5.4, 7.0, 9)
    assert field_sweep(desk, H_grid).checks["branches_held"]
    seeds = harness.seed_state

    def swapped(*args, **kwargs):
        states = seeds(*args, **kwargs)
        states[3] = states[2]
        return states

    monkeypatch.setattr(harness, "seed_state", swapped)
    checks = field_sweep(desk, H_grid).checks
    assert not checks.pop("branches_held") and all(checks.values()), checks


@pytest.mark.parametrize("points", [8, 17])
def test_field_sweep_makes_one_dgtsv_call(desk, monkeypatch, points):
    """The seeds of every field and branch come from one tridiagonal
    amplitude solve, whatever the length of the sweep."""
    dgtsv, columns = perturbation.flapack.dgtsv, []

    def counted(*args, **kwargs):
        columns.append(args[3].shape[1])
        return dgtsv(*args, **kwargs)

    monkeypatch.setattr(perturbation, "flapack", SimpleNamespace(dgtsv=counted))
    field_sweep(desk, np.linspace(5.4, 7.0, points))
    assert columns == [2 * points * (desk.num_gaps + 1)]


def test_field_sweep_records_the_dx_its_grid_runs_at(desk):
    """dx = 0.3 asks for 7 intervals on 2L = 2, below the floor of 16: the
    record holds the grid's 0.125, as census and convergence_study do."""
    rec = field_sweep(desk, np.linspace(2.0, 3.0, 8), dx=0.3)
    assert rec.parameters["dx"] == Grid1D.build(desk, 0.3).dx == 0.125


def test_field_sweep_rejects_degenerate_grid(desk):
    with pytest.raises(ValueError):
        field_sweep(desk, np.linspace(2.0, 2.0 * math.pi, 12))
    with pytest.raises(InvalidParameters, match="positive"):
        field_sweep(desk, np.linspace(-3.0, -1.0, 12), dx=0.1)


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
