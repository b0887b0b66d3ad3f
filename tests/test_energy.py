import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldvortex import energy as energy_mod
from ldvortex.energy import (el_residual, energy_arrays, gradient,
                             gradient_check, total_energy)
from ldvortex.errors import NonFinite, ShapeMismatch
from ldvortex.minimize import hessian_apply
from ldvortex.params import Grid1D, LdParameters
from ldvortex.state import (LayeredState, Layout, random_rough_state,
                            uniform_field_state, zero_coupling_minimizer)
from ldvortex.validity import lambda_lower


def _manufactured(params, grid):
    """Smooth analytic state for consistency studies."""
    n = np.arange(params.num_gaps + 1)[:, None]
    x = grid.nodes[None, :]
    f = 1.0 + 0.1 * np.cos(x) * (1.0 + 0.2 * n)
    phi = n * params.spacing * params.applied_field * x + 0.3 * np.sin(2.0 * x)
    phi -= phi[0:1, :]
    xm = grid.mids[None, :]
    a = n * params.spacing * params.applied_field + 0.4 * np.cos(xm) * (1.0 + 0.1 * n)
    return LayeredState(f, phi, a)


def test_breakdown_components(desk, desk_grid, rng):
    state = random_rough_state(desk, desk_grid, rng)
    eb = total_energy(state, desk, desk_grid)
    assert eb.bulk >= 0.0 and eb.josephson >= 0.0 and eb.field >= 0.0
    assert eb.total == eb.bulk + eb.josephson + eb.field
    eb0 = total_energy(state, desk.with_coupling(0.0), desk_grid)
    assert eb0.josephson == 0.0


def test_zero_coupling_energy_floor(desk, desk_grid):
    params = desk.with_coupling(0.0)
    state = zero_coupling_minimizer(params, desk_grid, 1.1)
    assert total_energy(state, params, desk_grid).total <= 1e-12


@given(st.floats(0.0, 0.05), st.floats(0.0, 0.05))
@settings(max_examples=25, deadline=None)
def test_energy_monotone_in_coupling(r1, r2):
    params = LdParameters(2, 1.0, 0.5, 1.0, 3.0, 0.0)
    grid = Grid1D.build(params, dx=1.0 / 16.0)
    state = random_rough_state(params, grid, np.random.default_rng(3))
    lo, hi = sorted((r1, r2))
    e_lo = total_energy(state, params.with_coupling(lo), grid).total
    e_hi = total_energy(state, params.with_coupling(hi), grid).total
    assert e_hi >= e_lo - 1e-14


def test_consistency_order(desk):
    """Halving dx shrinks the discretization error by >= 3.6 (order ~2)."""
    energies = []
    for M in (40, 80, 160):
        grid = Grid1D.build(desk, dx=2.0 * desk.half_width / M)
        energies.append(total_energy(_manufactured(desk, grid), desk, grid).total)
    d1 = abs(energies[0] - energies[1])
    d2 = abs(energies[1] - energies[2])
    assert d1 / d2 >= 3.6


def test_non_finite_rejected(desk, desk_grid):
    f = np.ones((3, desk_grid.M + 1))
    f[1, 3] = np.nan
    state = LayeredState(f, np.zeros_like(f), np.zeros((3, desk_grid.M)))
    with pytest.raises(NonFinite):
        total_energy(state, desk, desk_grid)


# --- gradient ---------------------------------------------------------------

def test_fd_gradient_random_states(desk, coarse_grid, rng):
    for k in range(3):
        state = random_rough_state(desk, coarse_grid, rng)
        assert gradient_check(state, desk, coarse_grid, seed=k) <= 1e-6


def test_fd_gradient_uniform_state(desk, coarse_grid):
    state = uniform_field_state(desk, coarse_grid)
    assert gradient_check(state, desk, coarse_grid) <= 1e-6


def test_fd_gradient_stressed_amplitude(desk, coarse_grid):
    base = uniform_field_state(desk, coarse_grid)
    state = LayeredState(0.5 * np.ones_like(base.f), base.phi, base.a)
    assert gradient_check(state, desk, coarse_grid) <= 1e-5


def test_gradient_check_sees_one_wrong_component(desk, coarse_grid, rng,
                                                 monkeypatch):
    """A gradient off by 1e-5 relative in one sampled component pushes
    gradient_check above its 1e-6 bound."""
    state = random_rough_state(desk, coarse_grid, rng)
    assert gradient_check(state, desk, coarse_grid) <= 1e-6
    j = np.random.default_rng(0).permutation(
        Layout.build(desk.num_gaps, coarse_grid.M).size)[0]  # first sampled DOF
    exact = energy_mod.gradient

    def off(*args):
        g = exact(*args)
        g[j] *= 1.0 + 1e-5
        return g

    monkeypatch.setattr(energy_mod, "gradient", off)
    assert gradient_check(state, desk, coarse_grid) > 1e-6


def test_gradient_vanishes_on_degenerate_manifold(desk, desk_grid):
    params = desk.with_coupling(0.0)
    for delta in (0.0, 0.9):
        state = zero_coupling_minimizer(params, desk_grid, delta)
        assert abs(gradient(state, params, desk_grid)).max() <= 1e-10


# --- Hessian ----------------------------------------------------------------

def test_hessian_symmetry(desk, coarse_grid, rng):
    layout = Layout.build(desk.num_gaps, coarse_grid.M)
    state = random_rough_state(desk, coarse_grid, rng)
    for _ in range(5):
        d1 = rng.standard_normal(layout.size)
        d2 = rng.standard_normal(layout.size)
        h1 = hessian_apply(state, d1, desk, coarse_grid)
        h2 = hessian_apply(state, d2, desk, coarse_grid)
        a, b = h1 @ d2, h2 @ d1
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_hessian_matches_fd_of_gradient(desk, coarse_grid, rng):
    """H d against the complex-step derivative of the gradient kernel along
    d, which is exact to roundoff since energy_arrays is analytic."""
    layout = Layout.build(desk.num_gaps, coarse_grid.M)
    state = random_rough_state(desk, coarse_grid, rng)
    d = rng.standard_normal(layout.size)
    hv = hessian_apply(state, d, desk, coarse_grid)
    x = layout.pack_state(state) + 1e-30j * d
    ref = layout.pack(*energy_arrays(*layout.unpack(x), desk, coarse_grid)[1]).imag / 1e-30
    assert np.max(np.abs(hv - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_hessian_apply_rejects_a_direction_of_another_size(desk, coarse_grid, rng):
    state = random_rough_state(desk, coarse_grid, rng)
    n = Layout.build(desk.num_gaps, coarse_grid.M).size
    with pytest.raises(ShapeMismatch):
        hessian_apply(state, np.ones((2, n - 1)), desk, coarse_grid)


def test_hessian_kernel_at_zero_coupling(desk, desk_grid):
    """Constant phase shifts of planes 1..N are exact null directions."""
    params = desk.with_coupling(0.0)
    state = zero_coupling_minimizer(params, desk_grid)
    layout = Layout.build(params.num_gaps, desk_grid.M)
    for plane in layout.idx_phi:
        d = np.zeros(layout.size)
        d[plane] = 1.0
        assert abs(hessian_apply(state, d, params, desk_grid)).max() <= 1e-12


def test_kernel_dimension_and_gap(desk):
    """Exactly N normalized eigenvalues vanish at the r = 0 minimizer and
    the next one clears half the analytic lower bound."""
    from ldvortex.validity import gap_spectrum

    params = desk.with_coupling(0.0)
    eigs = gap_spectrum(params, Grid1D.build(params, dx=1.0 / 30.0))
    assert np.all(np.abs(eigs[:params.num_gaps]) <= 1e-10)
    assert eigs[params.num_gaps] >= lambda_lower(params) / 2.0


# --- Euler-Lagrange residuals -----------------------------------------------

def test_el_residual_zero_coupling_minimizer(desk, desk_grid):
    params = desk.with_coupling(0.0)
    res = el_residual(zero_coupling_minimizer(params, desk_grid, 0.4),
                      params, desk_grid)
    assert all(v <= 1e-10 for v in res.values())


def test_stokes_identity_any_state(desk, desk_grid, rng):
    for _ in range(3):
        state = random_rough_state(desk, desk_grid, rng)
        res = el_residual(state, desk, desk_grid)
        assert res["stokes"] <= 1e-12


def test_el_residual_convergence_order(desk):
    """The amplitude-equation and boundary residuals of converged
    minimizers shrink at second order; the field and current families are
    discrete identities at critical points (solver-floor exactly)."""
    from ldvortex.minimize import newton_critical
    from ldvortex.perturbation import seed_state, vortex_plane_delta

    ds = vortex_plane_delta(desk)
    dxs = [1.0 / 20.0, 1.0 / 40.0, 1.0 / 80.0]
    hist: dict[str, list[float]] = {}
    for dx in dxs:
        grid = Grid1D.build(desk, dx=dx)
        cp = newton_critical(seed_state(desk, grid, ds), desk, grid, tol=1e-12)
        for key, val in el_residual(cp.state, desk, grid).items():
            hist.setdefault(key, []).append(val)
    for key in ("f_ode", "boundary"):
        slope = np.polyfit(np.log(dxs), np.log(hist[key]), 1)[0]
        assert slope >= 1.9, (key, hist[key])
    for key in ("field_x", "current"):
        assert max(hist[key]) <= 1e-10
    assert max(hist["stokes"]) <= 1e-12
