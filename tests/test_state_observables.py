import math

import numpy as np
import pytest
from scipy.integrate import quad

from ldvortex.energy import total_energy
from ldvortex.errors import InvalidParameters, ShapeMismatch
from ldvortex.observables import (Observables, delta_estimate, distance,
                                  distances, lift_field_2d, observables)
from ldvortex.params import Grid1D, LdParameters
from ldvortex.state import (LayeredState, Layout, gauge_fix, gauge_transform,
                            random_rough_state, uniform_field_state,
                            zero_coupling_minimizer)

# Independently integrated Josephson energy of the uniform-field test
# configuration at N=1, p=0.5, L=2, H=pi/2, r=0.01:
# r p N (2L - 2 sin(pHL)/(pH)) = 0.02 - 0.04/pi.
UNIFORM_ENERGY_EXAMPLE = 0.007267604552648372


def test_uniform_field_state_observables(desk, desk_grid):
    state = uniform_field_state(desk, desk_grid)
    obs = observables(state, desk, desk_grid)
    assert np.max(np.abs(obs.V)) < 1e-13
    assert np.max(np.abs(obs.jx)) < 1e-13
    assert np.max(np.abs(obs.h - desk.applied_field)) == 0.0
    drift = desk.applied_field * desk.spacing * desk_grid.nodes
    assert np.max(np.abs(obs.Phi - drift)) < 1e-12


def test_uniform_field_energy_matches_quadrature_oracle():
    params = LdParameters(1, 2.0, 0.5, 1.0, math.pi / 2.0, 0.01)
    grid = Grid1D.build(params, dx=1.0 / 100.0)
    state = uniform_field_state(params, grid)
    eb = total_energy(state, params, grid)
    pH = params.spacing * params.applied_field
    oracle, _ = quad(lambda x: 1.0 - math.cos(pH * x), -2.0, 2.0)
    oracle *= params.coupling * params.spacing
    assert oracle == pytest.approx(UNIFORM_ENERGY_EXAMPLE, rel=1e-12)
    assert eb.bulk == pytest.approx(0.0, abs=1e-25)
    assert eb.field == 0.0
    assert eb.total == pytest.approx(UNIFORM_ENERGY_EXAMPLE, rel=5e-5)


def test_uniform_field_energy_zero_at_zero_coupling(desk, desk_grid):
    params = desk.with_coupling(0.0)
    eb = total_energy(uniform_field_state(params, desk_grid), params, desk_grid)
    assert eb.total <= 1e-25


def test_zero_coupling_minimizer_is_exact(desk, desk_grid):
    params = desk.with_coupling(0.0)
    for delta in (0.0, 0.7, math.pi):
        state = zero_coupling_minimizer(params, desk_grid, delta)
        assert total_energy(state, params, desk_grid).total <= 1e-12
        obs = observables(state, params, desk_grid)
        drift = params.applied_field * params.spacing * desk_grid.nodes
        assert np.max(np.abs(obs.Phi - (delta + drift))) < 1e-12
        assert np.max(np.abs(obs.h - params.applied_field)) == 0.0
        assert np.max(np.abs(obs.V)) < 1e-13


def test_zero_coupling_minimizer_takes_one_configuration(desk, desk_grid):
    """Plane n is shifted by delta_1 + ... + delta_n, so Phi_n = delta_n +
    Hpx gap by gap; a stack of configurations is refused."""
    delta = np.array([2.0, 0.4])
    obs = observables(zero_coupling_minimizer(desk, desk_grid, delta), desk,
                      desk_grid)
    drift = desk.applied_field * desk.spacing * desk_grid.nodes
    assert np.max(np.abs(obs.Phi - (delta[:, None] + drift))) < 1e-12
    with pytest.raises(InvalidParameters, match="one configuration"):
        zero_coupling_minimizer(desk, desk_grid, np.zeros((2, 2)))


def test_degenerate_manifold_energy_is_flat(desk, desk_grid):
    params = desk.with_coupling(0.0)
    s1 = zero_coupling_minimizer(params, desk_grid, 0.0)
    s2 = zero_coupling_minimizer(params, desk_grid, [2.0, 0.4])
    e1 = total_energy(s1, params, desk_grid).total
    e2 = total_energy(s2, params, desk_grid).total
    assert abs(e1 - e2) <= 1e-14
    d = distance(observables(s1, params, desk_grid),
                 observables(s2, params, desk_grid))
    assert d > 0.3


def test_constant_gauge_shift(desk, desk_grid, rng):
    state = random_rough_state(desk, desk_grid, rng)
    chi = np.full(desk_grid.M + 1, 0.37)
    out = gauge_transform(state, chi, desk_grid)
    assert np.allclose(out.phi, state.phi - 0.37)
    assert np.array_equal(out.a, state.a)
    e0 = total_energy(state, desk, desk_grid).total
    e1 = total_energy(out, desk, desk_grid).total
    assert e1 == pytest.approx(e0, rel=1e-14)


def test_gauge_fix_zeroes_plane_zero_and_is_idempotent(desk, desk_grid, rng):
    state = random_rough_state(desk, desk_grid, rng)
    broken = gauge_transform(state, rng.standard_normal(desk_grid.M + 1),
                             desk_grid)
    assert not broken.gauge_fixed
    fixed = gauge_fix(broken, desk_grid)
    assert fixed.gauge_fixed
    again = gauge_fix(fixed, desk_grid)
    assert np.array_equal(fixed.phi, again.phi)
    assert np.array_equal(fixed.a, again.a)


def test_gauge_fixed_is_computed_not_passed(desk, desk_grid, rng):
    """gauge_fixed is read off phi[0]; passing it is a TypeError, not a
    value that __post_init__ would silently overwrite."""
    state = random_rough_state(desk, desk_grid, rng)
    with pytest.raises(TypeError):
        LayeredState(state.f, state.phi, state.a, gauge_fixed=False)
    assert LayeredState(state.f, state.phi, state.a).gauge_fixed


def test_random_gauge_transform_preserves_energy_and_observables(desk,
                                                                 desk_grid,
                                                                 rng):
    state = random_rough_state(desk, desk_grid, rng)
    e0 = total_energy(state, desk, desk_grid).total
    o0 = observables(state, desk, desk_grid)
    L = desk.half_width
    for _ in range(10):
        chi = np.zeros(desk_grid.M + 1)
        for m in range(1, 4):
            chi += rng.standard_normal() / m * np.sin(
                0.5 * m * np.pi * (desk_grid.nodes + L) / L)
        chi += rng.standard_normal()
        out = gauge_transform(state, chi, desk_grid)
        e1 = total_energy(out, desk, desk_grid).total
        assert abs(e1 - e0) <= 1e-13 * abs(e0)
        assert distance(o0, observables(out, desk, desk_grid)) <= 1e-12


def test_layout_packs_the_free_dofs_of_whole_arrays(desk, coarse_grid, rng):
    """pack drops the gauge row phi_0, unpack restores it as zeros, and
    both keep leading axes and the dtype."""
    state = random_rough_state(desk, coarse_grid, rng)
    layout = Layout.build(desk.num_gaps, coarse_grid.M)
    x = layout.pack(state.f, state.phi + 1.0, state.a)
    assert x.shape == (layout.size,) and x.dtype == np.float64
    f, phi, a = layout.unpack(x)
    assert np.array_equal(f, state.f) and np.array_equal(a, state.a)
    assert not phi[0].any() and np.array_equal(phi[1:], state.phi[1:] + 1.0)

    xs = np.stack([x, 2.0 * x]).astype(np.longdouble)
    f, phi, a = layout.unpack(xs)
    assert phi.shape == (2,) + state.phi.shape and phi.dtype == np.longdouble
    assert f.dtype == a.dtype == np.longdouble and not phi[:, 0].any()
    packed = layout.pack(f, phi, a)
    assert packed.dtype == np.longdouble and np.array_equal(packed, xs)


def test_state_shape_validation():
    f = np.ones((2, 5))
    with pytest.raises(ShapeMismatch):
        LayeredState(f, np.zeros((3, 5)), np.zeros((2, 4)))
    with pytest.raises(ShapeMismatch):
        LayeredState(f, np.zeros((2, 5)), np.zeros((2, 5)))


def test_distance_identity_and_symmetry(desk, desk_grid, rng):
    o1 = observables(random_rough_state(desk, desk_grid, rng), desk, desk_grid)
    o2 = observables(random_rough_state(desk, desk_grid, rng), desk, desk_grid)
    assert distance(o1, o1) == 0.0
    assert distance(o1, o2) == pytest.approx(distance(o2, o1), rel=1e-15)
    assert distance(o1, o2) > 0.0


def test_distance_separates_phase_configurations():
    params = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 0.0)
    grid = Grid1D.build(params, dx=1.0 / 20.0)
    o1 = observables(zero_coupling_minimizer(params, grid, 0.0), params, grid)
    o2 = observables(zero_coupling_minimizer(params, grid, math.pi), params, grid)
    # Phi differs by pi pointwise.
    assert distance(o1, o2) == pytest.approx(math.pi, rel=1e-12)
    assert distance(o1, o2) > 1.0


def test_distance_is_circular_in_phase(desk, desk_grid):
    s1 = zero_coupling_minimizer(desk, desk_grid, 0.3)
    # Shift one plane's phase by a full turn: physically identical.
    phi = s1.phi.copy()
    phi[1] += 2.0 * math.pi
    s2 = LayeredState(s1.f, phi, s1.a)
    d = distance(observables(s1, desk, desk_grid),
                 observables(s2, desk, desk_grid))
    assert d <= 1e-12


def test_distance_shape_mismatch(desk):
    g1 = Grid1D.build(desk, dx=1.0 / 20.0)
    g2 = Grid1D.build(desk, dx=1.0 / 24.0)
    o1 = observables(uniform_field_state(desk, g1), desk, g1)
    o2 = observables(uniform_field_state(desk, g2), desk, g2)
    with pytest.raises(ShapeMismatch):
        distance(o1, o2)


def test_distances_equal_distance_bit_for_bit(desk, desk_grid, rng):
    """observables over a list of states is one stacked Observables whose
    member k equals states[k]'s own observables in all five fields to the
    bit; one pass over it gives each pairwise distance to the bit."""
    states = [random_rough_state(desk, desk_grid, rng) for _ in range(4)]
    obs = [observables(s, desk, desk_grid) for s in states]
    stack = observables(states, desk, desk_grid)
    for i, o in enumerate(obs):
        for name in ("V", "Phi", "h", "jx", "jz"):
            member, single = getattr(stack[i], name), getattr(o, name)
            assert member.shape == single.shape
            assert member.tobytes() == single.tobytes()
        got = distances(o, stack)
        assert got.tolist() == [distance(o, p) for p in obs]
        assert distances(o, stack[i + 1:]).tolist() == got[i + 1:].tolist()
    assert stack.num_gaps == desk.num_gaps
    coarse = Grid1D.build(desk, dx=1.0 / 24.0)
    off_grid = uniform_field_state(desk, coarse)
    with pytest.raises(ShapeMismatch):
        distances(observables(off_grid, desk, coarse), stack)
    with pytest.raises(ShapeMismatch):
        observables(states + [off_grid], desk, desk_grid)


def test_delta_estimate_recovers_offsets(desk, desk_grid):
    target = [1.2, 4.5]
    state = zero_coupling_minimizer(desk, desk_grid, target)
    est = delta_estimate(observables(state, desk, desk_grid), desk, desk_grid)
    assert np.allclose(est, target, atol=1e-10)


def test_delta_estimate_folds_the_seam_to_zero(desk, desk_grid):
    """A residual phase just below 0 rounds up to 2*pi under np.mod; the
    estimate stays in [0, 2*pi) and reads exactly 0."""
    N, M = desk.num_gaps, desk_grid.M
    drift = desk.applied_field * desk.spacing * desk_grid.nodes
    Phi = np.tile(drift - 3e-16, (N, 1))
    assert np.all(Phi - drift < 0.0)
    mid = np.zeros((N, M))
    obs = Observables(np.zeros((N + 1, M)), Phi, mid, np.zeros((N + 1, M)), mid)
    est = delta_estimate(obs, desk, desk_grid)
    assert est.tolist() == [0.0] * N


def test_lift_field_2d_shapes_and_uniform_value(desk, desk_grid):
    state = zero_coupling_minimizer(desk.with_coupling(0.0), desk_grid, 0.0)
    obs = observables(state, desk.with_coupling(0.0), desk_grid)
    z, hmap = lift_field_2d(obs, desk, nz_per_gap=4)
    assert hmap.shape == (desk.num_gaps * 4, desk_grid.M)
    assert z.shape == (desk.num_gaps * 4,)
    assert np.max(np.abs(hmap - desk.applied_field)) == 0.0
    assert np.all(np.diff(z) > 0.0)
    with pytest.raises(ValueError):
        lift_field_2d(obs, desk, nz_per_gap=0)
