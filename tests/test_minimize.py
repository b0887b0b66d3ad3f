import importlib
import itertools
import logging
import math
import types

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldvortex.energy import energy_arrays, gradient_check, total_energy
from ldvortex.errors import (DomainError, FactorizationFailure,
                             InvalidParameters, NoConvergence, SingularHessian)
from ldvortex import harness
from ldvortex.harness import census, field_sweep
from ldvortex.minimize import (MAX_DESCENT_STEPS, MAX_NEWTON_STEPS,
                               assemble_banded_hessian, banded_solve,
                               hessian_apply, inertia, minimize,
                               nearest_eigenvalues, newton_critical, stop_tol)
from ldvortex.observables import delta_estimate, distance, observables
from ldvortex.params import Grid1D, LdParameters
from ldvortex.perturbation import (enumerate_seeds, leading_min_energy,
                                   seed_state, vortex_plane_delta)
from ldvortex.state import (LayeredState, Layout, gauge_fix, gauge_transform,
                            random_low_energy_state, random_rough_state,
                            uniform_field_state, zero_coupling_minimizer)
from ldvortex.validity import discrete_norm_matrix

# The package re-exports the function `minimize` under the module's name.
minimize_mod = importlib.import_module("ldvortex.minimize")
observables_mod = importlib.import_module("ldvortex.observables")


def test_infinite_tolerance_returns_start(desk, desk_grid):
    state = uniform_field_state(desk, desk_grid)
    rep = minimize(state, desk, desk_grid, tol=math.inf)
    assert rep.iterations == 0
    assert rep.converged
    assert np.array_equal(rep.state.f, state.f)


def test_nan_tolerance_raises(desk, desk_grid):
    """A NaN tol would end the descent at once (no norm exceeds NaN) and
    report converged=False without a step."""
    with pytest.raises(InvalidParameters, match="tol"):
        minimize(uniform_field_state(desk, desk_grid), desk, desk_grid,
                 tol=math.nan)


def test_newton_nan_tolerance_raises(desk):
    """No residual is <= NaN: Newton would converge and then blame itself
    with NoConvergence; the bad input is refused up front instead."""
    grid = Grid1D.build(desk, dx=1.0 / 16.0)
    with pytest.raises(InvalidParameters, match="tol must not be NaN"):
        newton_critical(seed_state(desk, grid, np.zeros(desk.num_gaps)), desk,
                        grid, tol=math.nan)


def test_descent_finds_zero_coupling_ground_state(desk, coarse_grid, rng):
    params = desk.with_coupling(0.0)
    rep = minimize(random_low_energy_state(params, coarse_grid, rng),
                   params, coarse_grid, tol=1e-9)
    assert rep.converged
    assert rep.energy <= 1e-8
    obs = observables(rep.state, params, coarse_grid)
    assert np.max(np.abs(rep.state.f - 1.0)) <= 1e-4
    assert np.max(np.abs(obs.h - params.applied_field)) <= 1e-4
    assert np.all(np.diff(rep.energy_trace) <= 1e-15)


def test_descent_reaches_leading_order_energy(desk, desk_grid):
    rep = minimize(uniform_field_state(desk, desk_grid), desk, desk_grid,
                   tol=1e-9)
    assert rep.converged
    lead = 2.0 * desk.num_gaps * desk.spacing * (
        desk.half_width - math.sin(desk.hpl) / (desk.applied_field * desk.spacing)
    ) * desk.coupling
    assert abs(rep.energy - lead) <= 3.0 * desk.coupling**2
    assert rep.energy <= total_energy(uniform_field_state(desk, desk_grid),
                                      desk, desk_grid).total


def test_newton_from_seeds_is_fast(desk):
    for N in (1, 2, 3):
        params = LdParameters(N, desk.half_width, desk.spacing, desk.kappa,
                              desk.applied_field, 1e-3)
        grid = Grid1D.build(params, dx=1.0 / 20.0)
        cp = newton_critical(seed_state(params, grid, 0.0), params, grid,
                             tol=1e-9)
        assert cp.newton_iterations <= 10
        assert cp.residual <= 1e-9


def test_newton_quadratic_tail(desk, desk_grid):
    """Residuals square once inside the Newton basin."""
    start = zero_coupling_minimizer(desk, desk_grid, vortex_plane_delta(desk))
    phi = start.phi.copy()
    phi[1] += 0.05 * np.sin(np.pi * desk_grid.nodes / desk.half_width)
    start = LayeredState(start.f, phi, start.a)
    cp = newton_critical(start, desk, desk_grid, tol=1e-12)
    hist = cp.residual_history
    floor = 50.0 * hist[-1] if cp.residual > 0 else 1e-13
    clean = hist[hist > max(floor, 1e-13)]
    assert len(clean) >= 3
    r0, r1, r2 = clean[-3], clean[-2], clean[-1]
    order = math.log(r2 / r1) / math.log(r1 / r0)
    assert order >= 1.8
    # Once below 1e-4 the residual squares with a bounded constant.
    for a, b in zip(hist[:-1], hist[1:]):
        if a < 1e-4 and b > 1e-13:
            assert b <= 1e6 * a * a


def test_newton_gives_up_after_its_step_budget(desk, monkeypatch):
    """Far outside small coupling Newton wanders: on the desk stack at
    r = 1, dx = 1/20, from the (pi, pi) seed a budget of 60 steps let it
    converge after 26 banded solves.  It raises NoConvergence after
    MAX_NEWTON_STEPS steps of one banded_solve each."""
    solve, calls = minimize_mod.banded_solve, []

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(minimize_mod, "banded_solve", counted)
    params = desk.with_coupling(1.0)
    grid = Grid1D.build(params, dx=1.0 / 20.0)
    with pytest.raises(NoConvergence, match=f"Newton used {MAX_NEWTON_STEPS} iterations"):
        newton_critical(seed_state(params, grid, [math.pi, math.pi]), params, grid)
    assert len(calls) == MAX_NEWTON_STEPS


def test_newton_saddle_with_unit_inertia(desk, desk_grid):
    cp = newton_critical(seed_state(desk, desk_grid, [math.pi, 0.0]),
                         desk, desk_grid, tol=1e-9)
    assert inertia(cp.state, desk, desk_grid) == 1
    d = delta_estimate(observables(cp.state, desk, desk_grid), desk, desk_grid)
    assert abs(math.cos(d[0]) + 1.0) < 1e-2
    assert abs(math.cos(d[1]) - 1.0) < 1e-2


def _failing_cholesky_solves(monkeypatch, fails) -> list:
    """Route minimize's banded Cholesky (descent, definite=True) solves
    through a banded_solve that fails while fails(call number) is true."""
    calls = []
    solve = minimize_mod.banded_solve

    def banded_solve(ab, rhs, definite, mu):
        assert definite
        calls.append(mu)
        if fails(len(calls)):
            return None
        return solve(ab, rhs, definite, mu)

    monkeypatch.setattr(minimize_mod, "banded_solve", banded_solve)
    return calls


def test_newton_shifts_past_a_failed_banded_solve(desk, desk_grid,
                                                  monkeypatch):
    """The descent's shifted Newton step takes the next Levenberg rung when a
    Cholesky factorization fails, and the descent ends at the same minimum."""
    start = seed_state(desk, desk_grid, [0.0, 0.0])
    plain = minimize(start, desk, desk_grid, tol=1e-9)
    calls = _failing_cholesky_solves(monkeypatch, lambda k: k == 1)
    shifted = minimize(start, desk, desk_grid, tol=1e-9)
    assert plain.converged and shifted.converged
    assert (plain.levenberg_shifts, shifted.levenberg_shifts) == (0, 1)
    assert shifted.to_dict()["levenberg_shifts"] == 1
    assert shifted.steepest_steps == 0
    assert len(calls) == shifted.newton_steps + 1
    assert calls[0] == 0.0 < calls[1]
    assert abs(shifted.energy - plain.energy) <= 1e-12 * abs(plain.energy)
    dist = distance(observables(shifted.state, desk, desk_grid),
                    observables(plain.state, desk, desk_grid))
    assert dist <= 1e-9


def test_newton_stalls_when_no_shift_solves(desk, desk_grid, monkeypatch):
    """Newton does not shift: a banded LU that fails ends the solve at once,
    after exactly one call, naming the stage and the residual."""
    calls = []

    def failing(ab, rhs, definite, mu):
        calls.append((definite, mu))
        return None

    monkeypatch.setattr(minimize_mod, "banded_solve", failing)
    with pytest.raises(NoConvergence,
                       match="^Newton step: the banded LU failed at residual "):
        newton_critical(seed_state(desk, desk_grid, [math.pi, 0.0]), desk,
                        desk_grid, tol=1e-9)
    assert calls == [(False, 0.0)]


def test_newton_finds_without_classifying(desk, desk_grid, monkeypatch):
    """newton_critical calls neither inertia nor observables (nor
    delta_estimate): classification is the census's."""
    plain = newton_critical(seed_state(desk, desk_grid, [math.pi, 0.0]), desk,
                            desk_grid, tol=1e-9)

    def spy(*args, **kwargs):
        raise AssertionError("newton_critical classified its point")

    monkeypatch.setattr(minimize_mod, "inertia", spy)
    for name in ("observables", "delta_estimate"):
        monkeypatch.setattr(observables_mod, name, spy)
    cp = newton_critical(seed_state(desk, desk_grid, [math.pi, 0.0]), desk,
                         desk_grid, tol=1e-9)
    assert not hasattr(minimize_mod, "observables")
    assert cp.energy == plain.energy and cp.residual <= 1e-9
    assert set(cp.to_dict()) == {"residual", "energy", "newton_iterations",
                                 "residual_history", "correction"}


def test_banded_solve_matches_scipy_bit_for_bit(desk, rng):
    """One LAPACK driver call gives the solution of SciPy's factor-then-solve
    wrappers to the bit, and None exactly where they raise LinAlgError; the
    factor it returns solves the same right-hand side to the same bits."""
    failed = {True: 0, False: 0}
    for N, dx in ((1, 1.0 / 16.0), (2, 1.0 / 20.0), (3, 1.0 / 12.0)):
        params = LdParameters(N, desk.half_width, desk.spacing, desk.kappa,
                              desk.applied_field, 1e-3)
        grid = Grid1D.build(params, dx=dx)
        state = random_rough_state(params, grid, rng)
        ab, bw, _ = assemble_banded_hessian(state.f, state.phi, state.a, params, grid)
        singular = ab.copy()
        singular[:, ab.shape[1] // 2] = 0.0  # a zero column
        rhs = rng.standard_normal(ab.shape[1])
        scale = float(np.max(np.abs(ab[bw])))
        for band in (ab, singular):
            for mu in (0.0, 1e-8 * scale, 1e-2 * scale, 10.0 * scale):
                for definite in (True, False):
                    shifted = (band[:bw + 1] if definite else band).copy()
                    shifted[bw] += mu
                    try:
                        if definite:
                            ref = sla.cho_solve_banded(
                                (sla.cholesky_banded(shifted), False), rhs)
                        else:
                            ref = sla.solve_banded((bw, bw), shifted, rhs)
                    except sla.LinAlgError:
                        ref = None
                    got = banded_solve(band, rhs, definite, mu)
                    assert (got is None) == (ref is None), (N, mu, definite)
                    if ref is not None:
                        x, resolve = got
                        assert np.array_equal(x, ref)
                        assert np.array_equal(resolve(rhs), ref)
                    failed[definite] += ref is None
    assert 0 < failed[True] < 24 and 0 < failed[False] < 24


def _recorded_ladders(monkeypatch) -> list:
    """Record every _shifted_newton call as (c, m, rungs): the phase
    curvature c of assemble_banded_hessian at its point (f, phi, a,
    stencil), m = M + 1, and per banded_solve call (ab, mu, factored), in
    order."""
    solve, direction = minimize_mod.banded_solve, minimize_mod._shifted_newton
    ladders = []

    def step(point, g, params, grid, *args, **kwargs):
        c = assemble_banded_hessian(*point[:3], params, grid)[2]
        ladders.append((c, grid.M + 1, []))
        return direction(point, g, params, grid, *args, **kwargs)

    def recorded(ab, rhs, definite, mu):
        out = solve(ab, rhs, definite, mu)
        ladders[-1][2].append((ab, mu, out is not None))
        return out

    monkeypatch.setattr(minimize_mod, "_shifted_newton", step)
    monkeypatch.setattr(minimize_mod, "banded_solve", recorded)
    return ladders


def _phase_curvature(c: np.ndarray, m: int) -> float:
    """lambda_min(K/m), K = D^T diag(c) D, by a dense eigensolve."""
    K = np.diag(c + np.append(c[1:], 0.0)) - np.diag(c[1:], 1) - np.diag(c[1:], -1)
    return float(np.linalg.eigvalsh(K)[0]) / m


def test_descent_shift_starts_at_a_tenth_of_the_last_accepted(
        desk, coarse_grid, monkeypatch):
    """Levenberg-Marquardt damping update, bounded below by the phase
    curvature: each step's first shift is the larger of the previous step's
    accepted shift / 10 (0 below the floor 1e-8 max|diag H|) and twice the
    size of a negative eigenvalue of the phase Ritz matrix K/(M+1) (dense
    eigensolve here, to rounding), and a refused shift rises to
    max(floor, 10 mu); every descent starts from mu_last = 0.  The phase
    curvature sets a first shift in every descent here, below the floor at
    r = 1e-6; the warm start sets some at r = 1e-3; no shift is refused."""
    ladders = _recorded_ladders(monkeypatch)
    for r, seed in itertools.product((1e-3, 1e-6), (11 * 100003, 11 * 100003 + 17)):
        params = desk.with_coupling(r)
        start = random_low_energy_state(params, coarse_grid,
                                        np.random.default_rng(seed))
        ladders.clear()
        rep = minimize(start, params, coarse_grid)
        assert rep.converged and rep.steepest_steps == 0
        assert len(ladders) == rep.iterations
        failed = warm = curved = below = 0
        last = 0.0  # the accepted shift of the previous step
        for c, m, rungs in ladders:
            ab = rungs[0][0]
            bw = (ab.shape[0] - 1) // 2
            floor = 1e-8 * float(np.max(np.abs(ab[bw])))
            tenth = last / 10.0 if last / 10.0 >= floor else 0.0
            bound = -2.0 * _phase_curvature(c, m)
            tiny = 1e-12 * float(np.max(np.abs(c))) / m
            mu = rungs[0][1]
            if bound > tenth + tiny:
                assert abs(mu - bound) <= 1e-10 * bound + tiny, (mu, bound)
                curved += 1
                below += mu < floor
            else:
                assert mu == tenth, (mu, tenth, bound)
                warm += mu > 0.0
            for (band, tried, ok), (_, nxt, _) in zip(rungs, rungs[1:]):
                assert band is ab and tried == mu and not ok
                mu = max(floor, 10.0 * mu)
                assert nxt == mu
                failed += 1
            assert rungs[-1][2]
            last = mu
        assert failed == rep.levenberg_shifts == 0
        assert curved >= 1 and (warm >= 1 if r == 1e-3 else below >= 1)


def test_phase_curvature_is_the_reduced_hessian_at_seeds():
    """At a seed, c_n = r (2 sin HpL / H) cos delta_n + O(r^2): the Ritz
    matrix of the phase modes is r times the paper's reduced Hessian, to a
    relative error that falls with r (dx = 1/40)."""
    delta = np.array([0.0, math.pi, 0.7])
    errors = []
    for r in (1e-2, 1e-3):
        params = LdParameters(3, 1.0, 0.5, 1.0, 3.0, r)
        grid = Grid1D.build(params, dx=1.0 / 40.0)
        s = seed_state(params, grid, delta)
        _, _, c = assemble_banded_hessian(s.f, s.phi, s.a, params, grid)
        reduced = r * 2.0 * math.sin(params.hpl) / params.applied_field * np.cos(delta)
        errors.append(float(np.max(np.abs(c - reduced)) / np.max(np.abs(reduced))))
    assert errors[0] <= 0.05 and errors[1] <= errors[0] / 5.0


def test_no_failed_factorization_on_the_benchmark_inputs(desk, monkeypatch):
    """The census of the desk stack (dx = 1/20, 6 random starts, census
    seeds 7 and 11) and the 17-field sweep across H_1 factor every band
    they try, and their 46 descents take at most 112 steps in all, the
    count measured when each shift started at the phase curvature (136
    before): a step-count guard that no machine's speed moves.  The sweep's
    34 descents take one step each."""
    solve = minimize_mod.banded_solve
    outcomes = []

    def counted(ab, rhs, definite, mu):
        out = solve(ab, rhs, definite, mu)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(minimize_mod, "banded_solve", counted)
    descents = []
    original = harness.minimize

    def recorded(*args, **kwargs):
        descents.append(original(*args, **kwargs))
        return descents[-1]

    monkeypatch.setattr(harness, "minimize", recorded)
    grid = Grid1D.build(desk, dx=1.0 / 20.0)
    for seed in (7, 11):
        assert census(desk, desk.coupling, n_random=6, dx=grid.dx, seed=seed).passed
    assert field_sweep(desk, np.linspace(5.4, 7.0, 17)).passed
    assert len(descents) == 2 * 6 + 2 * 17 and len(outcomes) > len(descents)
    assert all(outcomes)
    assert all(d.levenberg_shifts == 0 for d in descents)
    assert [d.iterations for d in descents[12:]] == [1] * 34
    assert sum(d.iterations for d in descents) <= 112


def test_newton_rejects_zero_coupling(desk, desk_grid):
    params = desk.with_coupling(0.0)
    with pytest.raises(SingularHessian):
        newton_critical(zero_coupling_minimizer(params, desk_grid),
                        params, desk_grid)


def test_inertia_counts_wrong_phases(desk, desk_grid):
    assert math.sin(desk.hpl) > 0.0  # delta* = 0 here
    for delta, count in ((0.0, 0), (math.pi, desk.num_gaps), ([0.0, math.pi], 1)):
        cp = newton_critical(seed_state(desk, desk_grid, delta), desk,
                             desk_grid, tol=1e-9)
        assert inertia(cp.state, desk, desk_grid) == count, delta


def test_definite_hessian_needs_no_eigensolve(desk, desk_grid):
    vp = newton_critical(seed_state(desk, desk_grid, 0.0), desk, desk_grid,
                         tol=1e-9)
    assert inertia(vp.state, desk, desk_grid) == 0
    with pytest.raises(FactorizationFailure):
        inertia(random_rough_state(desk, desk_grid, np.random.default_rng(1)),
                desk, desk_grid)


@given(st.sampled_from([1, 2, 3]), st.floats(2.0, 9.0), st.floats(1e-4, 1e-2))
@settings(max_examples=25, deadline=None)
def test_measured_inertia_equals_predicted_inertia(N, H, r):
    """Newton from each of the 2^N seeds lands on a critical point whose
    measured inertia is the number of wrong phases the reduction predicts."""
    params = LdParameters(N, 1.0, 0.5, 1.0, H, r)
    assume(abs(math.sin(params.hpl)) >= 0.2)
    grid = Grid1D.build(params, dx=1.0 / 16.0)
    deltas, predicted, _ = enumerate_seeds(params)
    for delta, seed, count in zip(deltas, seed_state(params, grid, deltas),
                                  predicted):
        cp = newton_critical(seed, params, grid)
        assert inertia(cp.state, params, grid) == count, delta


def _dense(ab: np.ndarray) -> np.ndarray:
    """The matrix whose band is ab[bw + i - j, j] = A[i, j]."""
    bw, n = (ab.shape[0] - 1) // 2, ab.shape[1]
    return sum(np.diag(ab[bw - k, max(k, 0):n + min(k, 0)], k)
               for k in range(-bw, bw + 1))


def _below_spectrum(ab: np.ndarray) -> float:
    """A shift one unit below the spectrum of the band ab (dense eigvalsh)."""
    return float(np.linalg.eigvalsh(_dense(ab))[0]) - 1.0


def _identity_band(ab: np.ndarray) -> np.ndarray:
    """The band of the identity, in the storage of ab."""
    eye = np.zeros_like(ab)
    eye[(ab.shape[0] - 1) // 2] = 1.0
    return eye


def test_inertia_matches_dense_reference(desk):
    grid = Grid1D.build(desk, dx=1.0 / 16.0)
    states = [newton_critical(seed, desk, grid, tol=1e-9).state
              for seed in seed_state(desk, grid, enumerate_seeds(desk)[0])]
    counts = []
    for state in states:
        ab, *_ = assemble_banded_hessian(state.f, state.phi, state.a, desk, grid)
        counts.append(inertia(state, desk, grid))
        assert counts[-1] == int(np.sum(np.linalg.eigvalsh(_dense(ab)) < 0.0))
    assert sorted(counts) == [0, 1, 1, 2]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_inertia_of_rough_state_raises(N):
    """Far from the phase torus the pinned block is indefinite and no N x N
    count is the Morse index (dense eigvalsh counts 7, 13 and 19 negatives
    here), so inertia raises instead of returning a count."""
    params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, 1e-3)
    grid = Grid1D.build(params, dx=1.0 / 16.0)
    state = random_rough_state(params, grid, np.random.default_rng(N))
    with pytest.raises(FactorizationFailure,
                       match="^inertia: the pinned Hessian block"):
        inertia(state, params, grid)


def test_census_lists_an_inertia_failure_as_a_newton_failure():
    """At r = 1 the delta = pi point of the N = 1 desk census has Morse
    index 2 (dense eigvalsh) and an indefinite pinned block: the census
    lists it in newton_failures and is not complete, where a count among
    the eigenvalues nearest 0 gave inertias [0, 1] and a passing census."""
    params = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 1.0)
    rec = census(params, 1.0, n_random=0, dx=1.0 / 20.0)
    [failure] = rec.data["newton_failures"]
    assert np.allclose(failure["delta"], [math.pi])
    assert failure["error"].startswith("inertia:")
    assert rec.data["count"] == 1 and rec.data["inertias"] == [0]
    assert not rec.checks["census_complete"]
    assert not rec.passed


def test_newton_returns_the_point_inertia_cannot_classify():
    """The same delta = pi point at r = 1: Newton converges and returns it;
    only the classification raises."""
    params = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 1.0)
    grid = Grid1D.build(params, dx=1.0 / 20.0)
    cp = newton_critical(seed_state(params, grid, math.pi), params, grid)
    assert cp.residual <= stop_tol(params)
    with pytest.raises(FactorizationFailure, match="^inertia:"):
        inertia(cp.state, params, grid)


@pytest.mark.parametrize("N, L, r", [(1, 1.0, 1e-3), (2, 1.0, 1e-3),
                                     (3, 1.0, 1e-3), (2, 4.0, 1e-3),
                                     (2, 1.0, 0.1)])
def test_schur_inertia_is_the_morse_index(N, L, r, caplog):
    """At every Newton point and at low-energy starts the pinned block
    factors, and the Schur count equals the dense Morse index."""
    params = LdParameters(N, L, 0.5, 1.0, 3.0, r)
    grid = Grid1D.build(params, dx=1.0 / 16.0)
    rng = np.random.default_rng(5)
    states = [newton_critical(seed, params, grid).state
              for seed in seed_state(params, grid, enumerate_seeds(params)[0])]
    states += [random_low_energy_state(params, grid, rng) for _ in range(3)]
    for state in states:
        ab, *_ = assemble_banded_hessian(state.f, state.phi, state.a, params, grid)
        dense = _dense(ab)
        with caplog.at_level(logging.DEBUG, logger="ldvortex"):
            caplog.clear()
            count = inertia(state, params, grid)
        assert count == int(np.sum(np.linalg.eigvalsh(dense) < 0.0))
        assert [m.startswith("inertia: Schur complement")
                for m in caplog.messages] == [True]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_pinned_schur_is_the_dense_schur_complement_from_one_forward_solve(
        N, monkeypatch):
    """At the Newton points and at low-energy states the pinned Schur
    complement equals the dense H_pp - H_fp^T H_ff^-1 H_fp to 1e-9 of its
    largest entry (9.4e-11 measured, dx = 1/16), is exactly symmetric, and
    inertia gets it from one lower Cholesky of H_ff and one forward solve on
    the n - s rows below s = min(pin) - bw, with no two-sided solve."""
    params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, 1e-3)
    grid = Grid1D.build(params, dx=1.0 / 16.0)
    rng = np.random.default_rng(5)
    states = [newton_critical(seed, params, grid).state
              for seed in seed_state(params, grid, enumerate_seeds(params)[0])]
    states += [random_low_energy_state(params, grid, rng) for _ in range(3)]
    pin = Layout.build(N, grid.M).idx_phi[:, grid.M // 2]
    real, calls = minimize_mod.flapack, []
    drivers = types.SimpleNamespace(**vars(real))
    for name in ("dpbtrf", "dtbtrs", "dpbsv", "dpbtrs"):
        def counted(*args, _driver=getattr(real, name), _name=name, **kwargs):
            calls.append((_name, args[0].shape))
            return _driver(*args, **kwargs)
        setattr(drivers, name, counted)
    for state in states:
        ab, bw, _ = assemble_banded_hessian(state.f, state.phi, state.a, params, grid)
        n = ab.shape[1]
        H = _dense(ab)
        free = np.setdiff1d(np.arange(n), pin)
        H_fp = H[np.ix_(free, pin)]
        dense = H[np.ix_(pin, pin)] - H_fp.T @ np.linalg.solve(H[np.ix_(free, free)], H_fp)
        S = minimize_mod._pinned_schur(ab, pin)
        assert np.array_equal(ab, assemble_banded_hessian(
            state.f, state.phi, state.a, params, grid)[0])
        assert np.max(np.abs(S - dense)) <= 1e-9 * np.max(np.abs(dense))
        assert np.array_equal(S, S.T)

        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(minimize_mod, "flapack", drivers)
            inertia(state, params, grid)
        s = int(pin.min()) - bw
        assert calls == [("dpbtrf", (bw + 1, n)), ("dtbtrs", (bw + 1, n - s))]


def test_nearest_eigenvalues_repeat_bit_for_bit(desk, rng):
    grid = Grid1D.build(desk, dx=1.0 / 16.0)
    state = random_rough_state(desk, grid, rng)
    ab, *_ = assemble_banded_hessian(state.f, state.phi, state.a, desk, grid)
    eye, sigma = _identity_band(ab), _below_spectrum(ab)
    first = nearest_eigenvalues(ab, desk.num_gaps + 1, sigma, eye)
    second = nearest_eigenvalues(ab, desk.num_gaps + 1, sigma, eye)
    assert np.array_equal(first, second)


def test_eigensolver_failures_are_factorization_failures(monkeypatch):
    """A shift that leaves A - sigma M singular or indefinite fails its
    Cholesky; so does a basis too small to converge."""
    singular = np.arange(6.0)[None, :]  # the band of diag(0, 1, ..., 5)
    eye = _identity_band(singular)
    for sigma in (0.0, 2.5):
        with pytest.raises(FactorizationFailure, match="^banded Cholesky"):
            nearest_eigenvalues(singular, 2, sigma, eye)
    assert np.allclose(nearest_eigenvalues(singular, 2, -1.0, eye), [0.0, 1.0],
                       rtol=0.0, atol=1e-14)

    monkeypatch.setattr(minimize_mod, "LANCZOS_MAX_BASIS", 1)
    with pytest.raises(FactorizationFailure, match="^shift-invert eigensolve failed"):
        nearest_eigenvalues(singular, 2, -1.0, eye)


@pytest.mark.parametrize("N, dx", [(1, 1.0 / 16.0), (2, 1.0 / 20.0),
                                   (3, 1.0 / 24.0)])
def test_nearest_eigenvalues_of_rough_bands_match_dense(N, dx):
    """Sigma one unit below the spectrum of indefinite bands, with the
    identity as M: the N+1 eigenvalues nearest sigma, the lowest, agree with
    dense eigvalsh, and so does the count of negatives among them.  Both
    solvers are backward stable, so they agree to 1e-10 relative plus
    64 eps |A|_2, the absolute accuracy of any solver in double precision."""
    params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, 1e-3)
    grid = Grid1D.build(params, dx=dx)
    rng = np.random.default_rng(N)
    for _ in range(4):
        state = random_rough_state(params, grid, rng)
        ab, *_ = assemble_banded_hessian(state.f, state.phi, state.a, params, grid)
        dense = np.linalg.eigvalsh(_dense(ab))
        eigs = nearest_eigenvalues(ab, N + 1, dense[0] - 1.0, _identity_band(ab))
        ref = dense[:N + 1]
        bound = 1e-10 * np.abs(ref) + 64.0 * np.finfo(float).eps * np.abs(dense).max()
        assert np.all(np.abs(eigs - ref) <= bound)
        assert np.sum(eigs < 0.0) == np.sum(ref < 0.0)


def test_eigensolve_logs_its_basis_and_residual(desk, rng, caplog):
    grid = Grid1D.build(desk, dx=1.0 / 16.0)
    state = random_rough_state(desk, grid, rng)
    ab, *_ = assemble_banded_hessian(state.f, state.phi, state.a, desk, grid)
    sigma = _below_spectrum(ab)
    with caplog.at_level(logging.DEBUG, logger="ldvortex"):
        nearest_eigenvalues(ab, 3, sigma, _identity_band(ab))
    [line] = caplog.messages
    assert line.startswith(f"nearest_eigenvalues: k 3, sigma {sigma:g}, basis ")
    basis, worst = line.split("basis ")[1].split(", worst residual estimate ")
    assert 3 <= int(basis) <= minimize_mod.LANCZOS_MAX_BASIS
    assert float(worst) <= minimize_mod.LANCZOS_TOL


@pytest.mark.parametrize("N", [1, 2, 3, 8])
def test_layout_partitions_the_dofs_within_bandwidth_3n_plus_3(N):
    """The f, phi and a indices partition range(size), and every entry the
    band assembly writes lies within the bandwidth 3N+3, whose outermost
    diagonal is used (f_n to phi_n one grid column on)."""
    M = 16
    layout = Layout.build(N, M)
    assert layout.bandwidth == 3 * N + 3
    assert layout.size == M * (3 * N + 2) + 2 * N + 1
    packed = np.concatenate([layout.idx_f.ravel(), layout.idx_phi.ravel(),
                             layout.idx_a.ravel()])
    assert np.array_equal(np.sort(packed), np.arange(layout.size))
    bw, n = layout.bandwidth, layout.size
    flat = minimize_mod._band_index_cached(N, M)
    flat = flat[flat < (2 * bw + 1) * n]  # drop the gauge-fixed phi_0 slot
    offsets = flat // n - bw  # i - j of the lower-triangle entry ab[bw + i - j, j]
    assert offsets.min() >= 0 and offsets.max() == bw
    assert np.all(flat % n + offsets < n)


def test_banded_assembly_matches_hessian_apply(desk, rng):
    """Every band entry against the complex-step derivative of the gradient
    kernel, column j along e_j, which is exact to roundoff (energy_arrays
    is analytic): the two sum the same terms in another order, so equality
    holds only to a few ulps of max|H|."""
    for N, r in ((1, 1e-3), (2, 0.3), (3, 1e-3)):
        params = LdParameters(N, desk.half_width, desk.spacing, desk.kappa,
                              desk.applied_field, r)
        grid = Grid1D.build(params, dx=1.0 / 16.0)
        state = random_rough_state(params, grid, rng)
        layout = Layout.build(N, grid.M)
        n, x = layout.size, layout.pack_state(state)
        H = np.array([layout.pack(*energy_arrays(*layout.unpack(x + 1e-30j * e),
                                                 params, grid)[1]).imag / 1e-30
                      for e in np.eye(n)]).T  # column j is the step along e_j

        ab, bw, _ = assemble_banded_hessian(state.f, state.phi, state.a, params, grid)
        assert ab.shape == (2 * bw + 1, n)
        band = _dense(ab)
        assert np.max(np.abs(band - H)) <= 1e-13 * np.max(np.abs(H))
        _assert_exact_band(ab)


def _assert_exact_band(ab: np.ndarray) -> None:
    """ab is exactly symmetric, ab[bw - k, j] = ab[bw + k, j - k], and exactly
    0 outside the matrix."""
    bw, n = (ab.shape[0] - 1) // 2, ab.shape[1]
    for k in range(1, bw + 1):
        assert np.array_equal(ab[bw - k, k:], ab[bw + k, :n - k])
        assert not ab[bw - k, :k].any() and not ab[bw + k, n - k:].any()


def test_band_from_the_kernel_stencil_is_the_band_of_the_raw_state(rng):
    """The solvers hand assemble_banded_hessian the stencil that
    energy_arrays returned; the band from it equals the band assembled from
    the raw arrays to the bit, on rough, seed and random low-energy states at
    N = 1, 2, 3.  Each stencil quantity is _fields, np.cos, np.sin or the
    square of the same arrays to the bit, in float and in the complex
    dtype of the complex-step checks; both bands and the norm matrix that
    _scatter_band writes are exactly symmetric and 0 outside the matrix."""
    for N in (1, 2, 3):
        params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, 1e-3)
        grid = Grid1D.build(params, dx=1.0 / 16.0)
        _assert_exact_band(discrete_norm_matrix(params, grid))
        for s in (random_rough_state(params, grid, rng),
                  seed_state(params, grid, vortex_plane_delta(params)),
                  random_low_energy_state(params, grid, rng)):
            stencil = energy_arrays(s.f, s.phi, s.a, params, grid)[2]
            ab, bw, c = assemble_banded_hessian(s.f, s.phi, s.a, params, grid, stencil)
            ref_ab, ref_bw, ref_c = assemble_banded_hessian(s.f, s.phi, s.a, params, grid)
            assert np.array_equal(ab, ref_ab) and np.array_equal(c, ref_c) and bw == ref_bw
            _assert_exact_band(ab)
            step = 1e-30j * rng.standard_normal(3)
            for fields in ((s.f, s.phi, s.a), (s.f + step[0], s.phi + step[1], s.a + step[2])):
                V, fm, Phi, _ = observables_mod._fields(*fields, params, grid)
                want = (V, fm, np.cos(Phi), np.sin(Phi), fields[0]**2, V**2, fm**2)
                got = energy_arrays(*fields, params, grid)[2]
                assert len(got) == len(want)
                for x, y in zip(got, want):
                    assert x.dtype == y.dtype == fields[0].dtype and np.array_equal(x, y)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_band_scatter_commutes_with_the_mirror(N):
    """The mirror R: (f, phi, a)(x) -> (f, -phi, a)(-x) acts on the packed
    DOFs as the signed permutation P read off the Layout.  The Hessian band
    at R(state) is P H P^T and the norm matrix is P B P^T = B, to the bit;
    the energy is unchanged to rounding, as its sums run in reverse."""
    params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, 1e-3)
    grid = Grid1D.build(params, dx=1.0 / 20.0)
    state = random_rough_state(params, grid, np.random.default_rng(N))
    mirror = LayeredState(state.f[:, ::-1], -state.phi[:, ::-1], state.a[:, ::-1])
    layout = Layout.build(N, grid.M)
    P = np.zeros((layout.size, layout.size))
    for idx, sign in ((layout.idx_f, 1.0), (layout.idx_phi, -1.0), (layout.idx_a, 1.0)):
        P[idx[:, ::-1], idx] = sign
    assert np.array_equal(P @ layout.pack_state(state), layout.pack_state(mirror))

    def band(s):
        return _dense(assemble_banded_hessian(s.f, s.phi, s.a, params, grid)[0])

    assert np.array_equal(band(mirror), P @ band(state) @ P.T)
    B = _dense(discrete_norm_matrix(params, grid))
    assert np.array_equal(P @ B @ P.T, B)
    e = total_energy(state, params, grid).total
    assert total_energy(mirror, params, grid).total == pytest.approx(e, rel=1e-15)


def test_solvers_refuse_a_state_that_is_not_gauge_fixed(desk, rng):
    """Packing drops phi_0, so a state with phi_0 != 0 would become another
    state: minimize, gradient_check and newton_critical raise on a
    gauge-transformed state, and run on its gauge_fix twin."""
    grid = Grid1D.build(desk, dx=1.0 / 20.0)
    chi = rng.standard_normal(grid.M + 1)
    rough = gauge_transform(random_rough_state(desk, grid, np.random.default_rng(0)),
                            chi, grid)
    seed = gauge_transform(seed_state(desk, grid, vortex_plane_delta(desk)), chi, grid)
    runs = ((rough, lambda s: minimize(s, desk, grid, max_iter=0).energy),
            (rough, lambda s: gradient_check(s, desk, grid)),
            (seed, lambda s: newton_critical(s, desk, grid).residual))
    for state, run in runs:
        with pytest.raises(DomainError, match="gauge_fix"):
            run(state)
    energy, fd_error, residual = (run(gauge_fix(state, grid)) for state, run in runs)
    assert energy == pytest.approx(total_energy(rough, desk, grid).total, rel=1e-13)
    assert fd_error <= 1e-6
    assert residual <= stop_tol(desk)


def test_minimize_energy_not_above_start(desk, desk_grid, rng):
    state = random_low_energy_state(desk, desk_grid, rng)
    e0 = total_energy(state, desk, desk_grid).total
    rep = minimize(state, desk, desk_grid, tol=1e-6)
    assert rep.energy <= e0
    assert np.all(np.diff(rep.energy_trace) <= 1e-15)


def test_newton_tail_finishes_random_descent(desk, desk_grid, rng):
    rep = minimize(random_low_energy_state(desk, desk_grid, rng), desk,
                   desk_grid, tol=1e-8)
    assert rep.converged
    assert rep.iterations <= MAX_DESCENT_STEPS
    assert rep.newton_steps >= 1
    assert rep.to_dict()["newton_steps"] == rep.newton_steps
    assert np.all(np.diff(rep.energy_trace) <= 0.0)


def test_failed_newton_direction_falls_back_to_one_steepest_step(
        desk, desk_grid, rng, monkeypatch, caplog):
    direction = minimize_mod._shifted_newton
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(None)
        return (None, 0.0) if len(calls) == 1 else direction(*args, **kwargs)

    monkeypatch.setattr(minimize_mod, "_shifted_newton", first_fails)
    with caplog.at_level(logging.DEBUG, logger="ldvortex"):
        rep = minimize(random_low_energy_state(desk, desk_grid, rng), desk,
                       desk_grid, tol=1e-8)
    assert rep.converged
    assert rep.steepest_steps == 1
    assert rep.newton_steps == rep.iterations - 1 >= 1
    assert rep.line_search_failures == 0
    assert rep.to_dict()["steepest_steps"] == 1
    assert np.all(np.diff(rep.energy_trace) <= 0.0)
    *steps, line = [r.getMessage() for r in caplog.records if r.name == "ldvortex"]
    assert [s.split(":")[0] for s in steps] == [
        f"minimize step {k}" for k in range(1, rep.iterations + 1)]
    assert "correction nan" in steps[0]  # the steepest step made no factor
    assert f"{rep.iterations} iterations" in line and "1 steepest" in line
    assert line.endswith(f"correction {rep.correction:.3e}")


def test_solvers_report_the_correction_and_log_steps_only_at_debug(
        desk, desk_grid, rng, monkeypatch, caplog):
    """Both solvers end with the simplified Newton correction within
    CORRECTION_TOL and report it.  Below debug level each solve asks the
    logger once and takes a correction only where the residual rule holds;
    at debug level it logs |g|inf, mu, t and the correction of every step."""
    start = random_low_energy_state(desk, desk_grid, rng)
    seed = seed_state(desk, desk_grid, [math.pi, 0.0])
    correction, enabled = minimize_mod._correction, minimize_mod.log.isEnabledFor
    taken, asked = [], []

    def counted(resolve, g):
        taken.append(float(np.max(np.abs(g))))
        return correction(resolve, g)

    def spy(level):
        asked.append(level)
        return enabled(level)

    monkeypatch.setattr(minimize_mod, "_correction", counted)
    with caplog.at_level(logging.INFO, logger="ldvortex"):
        monkeypatch.setattr(minimize_mod.log, "isEnabledFor", spy)
        rep = minimize(start, desk, desk_grid)
        cp = newton_critical(seed, desk, desk_grid)
    tol = stop_tol(desk)
    assert asked == [logging.DEBUG] * 2 and not caplog.messages
    assert len(taken) == (np.sum(rep.grad_trace[1:] <= tol)
                          + np.sum(cp.residual_history[1:] <= tol)) >= 2
    assert max(taken) <= tol
    for out in (rep, cp):
        assert out.to_dict()["correction"] == out.correction <= minimize_mod.CORRECTION_TOL

    with caplog.at_level(logging.DEBUG, logger="ldvortex"):
        again = minimize(start, desk, desk_grid)
        point = newton_critical(seed, desk, desk_grid)
    assert again.correction == rep.correction and point.correction == cp.correction
    steps = [m for m in caplog.messages if m.startswith("minimize step ")]
    newton = [m for m in caplog.messages if m.startswith("newton_critical step ")]
    assert len(steps) == rep.iterations and len(newton) == cp.newton_iterations
    assert steps[-1].startswith(f"minimize step {rep.iterations}: |g|inf "
                                f"{rep.grad_norm:.3e}, mu ")
    for line, out in ((steps[-1], rep), (newton[-1], cp)):
        assert line.endswith(f"correction {out.correction:.3e}")


def test_batched_hessian_apply_matches_single_products(desk, rng):
    grid = Grid1D.build(desk, dx=1.0 / 16.0)
    state = random_rough_state(desk, grid, rng)
    layout = Layout.build(desk.num_gaps, grid.M)
    vs = rng.standard_normal((5, layout.size))

    batched = hessian_apply(state, vs, desk, grid)
    assert batched.shape == vs.shape
    for v, row in zip(vs, batched):
        assert np.array_equal(hessian_apply(state, v, desk, grid), row)


def test_newton_tail_shifts_singular_zero_coupling_hessian(desk, coarse_grid,
                                                           rng, monkeypatch):
    solve = minimize_mod.banded_solve
    outcomes = []

    def counted(ab, rhs, definite, mu):
        out = solve(ab, rhs, definite, mu)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(minimize_mod, "banded_solve", counted)
    params = desk.with_coupling(0.0)
    rep = minimize(random_low_energy_state(params, coarse_grid, rng),
                   params, coarse_grid, tol=1e-9)
    assert rep.converged
    assert rep.newton_steps >= 1
    assert False in outcomes  # the unshifted Hessian did not factor
    assert rep.levenberg_shifts == outcomes.count(False)
    assert np.all(np.diff(rep.energy_trace) <= 0.0)


def test_newton_tail_converges_stalled_n3_census_descent(desk):
    """Census descent i = 28 of the N = 3 acceptance census (seed 34); pure
    L-BFGS stopped at |g| = 4.4e-5 after 12 000 iterations."""
    params = LdParameters(3, desk.half_width, desk.spacing, desk.kappa,
                          desk.applied_field, 1e-3)
    grid = Grid1D.build(params, dx=1.0 / 30.0)
    start = random_low_energy_state(params, grid,
                                    np.random.default_rng(34 * 100003 + 17 * 28))
    rep = minimize(start, params, grid, tol=1e-8)
    assert rep.converged
    assert rep.newton_steps >= 1
    assert np.all(np.diff(rep.energy_trace) <= 0.0)


def test_descent_steps_off_a_phase_saddle_it_crept_along(monkeypatch):
    """Census start 3 (census seed 1) at point 5 of the small-coupling
    cloud of tests/test_harness.py: N = 2, r = 8.3e-6.  With the first
    nonzero rung at 1e-8 max|diag H|, far above the negative phase
    curvature, this descent crept along a phase saddle and used all
    MAX_DESCENT_STEPS = 500 steps, ending at |g|inf = 1.3e-9 above the
    rule's 2.5e-11.  With the shift at twice that curvature, below that
    floor, it converges in a few steps."""
    params = LdParameters(2, 4.235947557871251, 0.6923080891850031,
                          2.15103266278565, 9.973494389997505,
                          8.330130983020093e-06)
    grid = Grid1D.build(params)
    start = random_low_energy_state(params, grid,
                                    np.random.default_rng(1 * 100003 + 17 * 3))
    solve, rungs = minimize_mod.banded_solve, []

    def recorded(ab, rhs, definite, mu):
        bw = (ab.shape[0] - 1) // 2
        rungs.append((mu, 1e-8 * float(np.max(np.abs(ab[bw])))))
        return solve(ab, rhs, definite, mu)

    monkeypatch.setattr(minimize_mod, "banded_solve", recorded)
    rep = minimize(start, params, grid)
    assert rep.converged and rep.grad_norm <= stop_tol(params) == 3e-6 * params.coupling
    assert rep.iterations <= 20 and rep.steepest_steps == 0
    assert any(0.0 < mu < floor for mu, floor in rungs)


def test_solver_states_take_over_the_final_unpack(desk, desk_grid, rng, monkeypatch):
    """newton_critical and minimize return a state over the arrays of their
    last kernel call, the accepted trial of a converged run, without a
    second copy: the very arrays of that unpack, read-only.  The public
    constructor still copies its inputs for every caller: mutating an array
    after passing it leaves the state unchanged."""
    unpacked = []
    kernel = minimize_mod.energy_arrays

    def recorded(*args):
        unpacked.append(args[:3])
        return kernel(*args)

    monkeypatch.setattr(minimize_mod, "energy_arrays", recorded)
    seed = seed_state(desk, desk_grid, vortex_plane_delta(desk))
    cp = newton_critical(seed, desk, desk_grid)
    states = [(cp.state, unpacked[-1])]
    rep = minimize(random_low_energy_state(desk, desk_grid, rng), desk, desk_grid)
    states.append((rep.state, unpacked[-1]))
    assert rep.converged and rep.iterations >= 2
    for state, last in states:
        for got, arr in zip((state.f, state.phi, state.a), last):
            assert got is arr and not got.flags.writeable

    final = (rep.state.f, rep.state.phi, rep.state.a)
    again = LayeredState(*final)
    assert not any(x is y for x, y in zip(final, (again.f, again.phi, again.a)))
    mutable = [arr.copy() for arr in final]
    copied = LayeredState(*mutable)
    for arr in mutable:
        arr += 1.0
    assert all(np.array_equal(x, y) for x, y in zip((copied.f, copied.phi, copied.a), final))


def test_one_kernel_call_per_line_search_trial(desk, desk_grid, rng, monkeypatch):
    """Each trial point of a line search is one energy_arrays call, whose
    gradient the accepted trial hands to the next step."""
    calls = []
    kernel = minimize_mod.energy_arrays

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(minimize_mod, "energy_arrays", counted)
    seed = seed_state(desk, desk_grid, vortex_plane_delta(desk))
    cp = newton_critical(seed, desk, desk_grid, tol=1e-9)
    assert cp.newton_iterations >= 1
    assert len(calls) == 1 + cp.newton_iterations

    calls.clear()
    rep = minimize(random_low_energy_state(desk, desk_grid, rng), desk, desk_grid)
    assert rep.iterations >= 2 and np.all(rep.step_trace == 1.0)
    assert len(calls) == 1 + rep.iterations
