import math
from itertools import product

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from ldvortex.energy import gradient
from ldvortex.errors import DegenerateField, InvalidParameters
from ldvortex.observables import delta_estimate, observables
from ldvortex.params import Grid1D, LdParameters, phase_offsets, wrap_to_pi
from ldvortex.perturbation import (_corrections, _field_correction,
                                   _solve_u1, _u1_rhs,
                                   critical_josephson_current,
                                   enumerate_seeds, epsilon_and_jumps,
                                   epsilon_of_field, g0,
                                   interior_amplitude_constants,
                                   interior_u1_closed_form,
                                   leading_min_energy, magnetization,
                                   nucleation_fields, seed_state,
                                   vortex_plane_delta,
                                   vortex_plane_observables)
from ldvortex.state import Layout, zero_coupling_minimizer

# Frozen from the reduced-energy formula at N=1, p=0.5, L=2, H=pi/2:
# 2NpL -+ (2 sin(HpL)/H) = 2 -+ 4/pi.
G0_ALIGNED = 0.7267604552648371
G0_ANTI = 3.2732395447351627
# 2*2*0.5*(1 - sin(1.5)/1.5)*1e-3 at the desk point N=2, L=1, p=0.5, H=3:
LEADING_DESK = 6.700066845279273e-4


def test_g0_examples():
    p1 = LdParameters(1, 2.0, 0.5, 1.0, math.pi / 2.0, 1e-3)
    assert g0(p1, 0.0) == pytest.approx(G0_ALIGNED, rel=1e-14)
    assert g0(p1, math.pi) == pytest.approx(G0_ANTI, rel=1e-14)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 12])
def test_g0_of_a_stack_is_each_rows_g0_bit_for_bit(N):
    """g0 of a (K, N) stack gives one value per row, each equal to that
    row's own g0 to the bit."""
    params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, 1e-3)
    deltas = np.random.default_rng(N).uniform(-7.0, 7.0, (9, N))
    values = g0(params, deltas)
    assert values.shape == (9,)
    assert [float(v) for v in values] == [g0(params, d) for d in deltas]
    assert isinstance(g0(params, deltas[0]), float)


def test_g0_degenerate_field_is_flat():
    # HpL = pi: sin vanishes and the reduced energy is 2NpL for every delta.
    pd = LdParameters(2, 2.0, 0.5, 1.0, math.pi, 1e-3)
    two_npl = 2.0 * 2 * 0.5 * 2.0
    for delta in (0.0, 1.0, math.pi):
        assert g0(pd, delta) == pytest.approx(two_npl, abs=1e-12)


def test_enumerate_seeds_counts_and_inertia(desk):
    deltas3, _, _ = enumerate_seeds(LdParameters(3, 1.0, 0.5, 1.0, 3.0, 1e-3))
    assert deltas3.shape == (8, 3)
    deltas, inertias, g0s = enumerate_seeds(desk)
    assert sorted(inertias.tolist()) == [0, 1, 1, 2]
    assert g0s.tolist() == sorted(g0s.tolist())
    # sin(HpL)/H > 0 here: the unique stable entry is delta = 0.
    [zero] = deltas[inertias == 0]
    assert np.allclose(zero, 0.0)


@pytest.mark.parametrize("H", [3.0, 8.0])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_enumerate_seeds_order_is_the_g0_then_delta_sort(N, H):
    """The seed table is in the order of sorting the seeds by the key
    (g0, tuple(delta)), ties in g0 (every N > 1) broken by delta; each row's
    inertia counts its wrong phases."""
    params = LdParameters(N, 1.0, 0.5, 1.0, H, 1e-3)
    deltas, inertias, g0s = enumerate_seeds(params)
    rows = sorted((tuple(phase_offsets(d, N).tolist()) for d in
                   product((0.0, math.pi), repeat=N)),
                  key=lambda d: (g0(params, d), d))
    assert deltas.tolist() == [list(d) for d in rows]
    assert g0s.tolist() == [g0(params, d) for d in rows]
    wrong = math.pi if vortex_plane_delta(params) == 0.0 else 0.0
    assert inertias.tolist() == [d.count(wrong) for d in rows]
    assert len(set(g0s.tolist())) == N + 1


def test_enumerate_seeds_degenerate_raises():
    with pytest.raises(DegenerateField):
        enumerate_seeds(LdParameters(2, 2.0, 0.5, 1.0, math.pi, 1e-3))


def test_vortex_plane_delta_branches():
    assert vortex_plane_delta(LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3)) == 0.0
    # HpL = 4: sin < 0.
    assert vortex_plane_delta(LdParameters(2, 1.0, 0.5, 1.0, 8.0, 1e-3)) == math.pi
    with pytest.raises(DegenerateField):
        vortex_plane_delta(LdParameters(1, 2.0, 0.5, 1.0, math.pi, 1e-3))


def test_leading_min_energy(desk):
    assert leading_min_energy(desk) == pytest.approx(LEADING_DESK, rel=1e-12)
    assert leading_min_energy(desk.with_coupling(0.0)) == 0.0
    # |sin| makes the formula branch independent: H past the flip.
    p8 = desk.with_field(8.0)
    assert leading_min_energy(p8) > 0.0


def test_u1_matches_closed_form():
    for kappa in (1.0, 2.0):
        params = LdParameters(2, 1.0, 0.5, kappa, 3.0, 1e-3)
        grid = Grid1D.build(params, dx=1.0 / 160.0)
        ds = vortex_plane_delta(params)
        cf = _corrections(params, grid, phase_offsets(ds, 2),
                          params.applied_field)
        closed = interior_u1_closed_form(params, ds, grid.nodes)
        assert np.max(np.abs(cf.u1[1] - closed)) <= 5.0 * grid.dx**2
        # Top and bottom planes carry exactly half the correction.
        assert np.allclose(cf.u1[0], 0.5 * cf.u1[1], rtol=1e-10, atol=1e-14)
        assert np.allclose(cf.u1[2], 0.5 * cf.u1[1], rtol=1e-10, atol=1e-14)


def test_amplitude_constants_example():
    # B = kappa^2/(H^2 p^2 + 2 kappa^2) at kappa=1, H=3, p=0.5.
    params = LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3)
    _, B = interior_amplitude_constants(params, 0.0)
    assert B == pytest.approx(0.23529411764705882, rel=1e-14)


@given(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=2, max_size=2))
@settings(max_examples=20, deadline=None)
def test_u1_strictly_negative_for_any_delta(delta):
    params = LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3)
    grid = Grid1D.build(params, dx=1.0 / 30.0)
    cf = _corrections(params, grid, phase_offsets(delta, 2), params.applied_field)
    assert np.all(cf.u1 < 0.0)


@given(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=2, max_size=2))
@settings(max_examples=20, deadline=None)
def test_correction_profiles_vanish_at_edges(delta):
    params = LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3)
    edges = np.array([-params.half_width, params.half_width])
    b1 = _field_correction(params, phase_offsets(delta, 2), edges,
                           params.applied_field)
    assert np.max(np.abs(b1)) <= 1e-12


def _quadrature_reference(params, delta, x):
    """sv1 and b1 by separate quadratures of their first-order equations,
    with the plane constants I_n and gap constants D_n:
    (1/k^2) sv1_n' = (sine sources - I_n)/2 and
    b1_n' = (p k^2/2) sin(delta_n + Hpx) - D_n, both zero at x = -L."""
    N, L, k2 = params.num_gaps, params.half_width, params.kappa**2
    Hp = params.applied_field * params.spacing
    means = np.array([math.sin(dn) * math.sin(params.hpl) / params.hpl
                      for dn in delta])
    prim = np.array([(np.cos(dn - params.hpl) - np.cos(dn + Hp * x)) / Hp
                     for dn in delta])
    I = np.empty(N + 1)
    I[0] = -means[0]
    I[N] = means[N - 1]
    I[1:N] = means[:-1] - means[1:]
    D = 0.5 * params.spacing * k2 * means
    ramp = x + L
    sv1 = np.empty((N + 1, x.size))
    sv1[0] = 0.5 * k2 * (-prim[0] - I[0] * ramp)
    sv1[N] = 0.5 * k2 * (prim[N - 1] - I[N] * ramp)
    sv1[1:N] = 0.5 * k2 * (prim[:-1] - prim[1:] - I[1:N, None] * ramp)
    b1 = 0.5 * params.spacing * k2 * prim - D[:, None] * ramp
    return sv1, b1


@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n)),
       st.sampled_from([3.0, 7.0]), st.sampled_from([0.5, 1.0]))
@settings(max_examples=30, deadline=None)
def test_correction_fields_match_quadrature_reference(delta, H, kappa):
    """sv1 as the jump of b1 across each plane equals the separate sv1
    quadrature with the constants I_n (and so shares b1's zeros at +-L)."""
    params = LdParameters(len(delta), 1.0, 0.5, kappa, H, 1e-3)
    grid = Grid1D.build(params, dx=1.0 / 20.0)
    delta = np.array(delta)
    cf = _corrections(params, grid, phase_offsets(delta, len(delta)),
                      params.applied_field)
    sv1, b1 = _quadrature_reference(params, delta, grid.mids)
    assert np.max(np.abs(cf.b1 - b1)) <= 1e-14
    assert np.max(np.abs(cf.sv1 - sv1)) <= 1e-14


def test_seed_state_zero_coupling_degenerates_to_manifold(desk, desk_grid):
    params = desk.with_coupling(0.0)
    s = seed_state(params, desk_grid, 0.7)
    z = zero_coupling_minimizer(params, desk_grid, 0.7)
    assert np.array_equal(s.f, z.f)
    assert np.array_equal(s.phi, z.phi)
    assert np.array_equal(s.a, z.a)


@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.one_of(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
              st.just(2.0 * math.pi - 1e-15)), min_size=n, max_size=n)),
       st.sampled_from([1e-3, 1e-2]), st.sampled_from([3.0, 7.0]))
@settings(max_examples=30, deadline=None)
def test_seed_phase_constants_recover_delta(delta, r, H):
    """The circular mean of Phi_{n,n-1} - Hpx on the seed is delta_n, and
    the stacked arrays agree with the plane-by-plane loops: a to the bit,
    phi modulo 2 pi up to the rounding of the summed phase constants."""
    params = LdParameters(len(delta), 1.0, 0.5, 1.0, H, r)
    grid = Grid1D.build(params, dx=1.0 / 20.0)
    s = seed_state(params, grid, delta)
    est = delta_estimate(observables(s, params, grid), params, grid)
    assert np.max(np.abs(wrap_to_pi(est - np.array(delta)))) <= 1e-12

    N, p, dx = params.num_gaps, params.spacing, grid.dx
    wrapped = phase_offsets(delta, N)
    cf = _corrections(params, grid, wrapped, H)
    a = np.empty((N + 1, grid.M))
    a[0] = -r * cf.sv1[0]
    phi = np.zeros((N + 1, grid.M + 1))
    for n in range(1, N + 1):
        a[n] = a[n - 1] + p * (H + r * cf.b1[n - 1])
        phi[n, 1:] = (r * cf.sv1[n] + a[n]).cumsum() * dx
    for n in range(1, N + 1):
        resid = phi[n] - phi[n - 1] - H * p * grid.nodes
        mean = math.atan2(np.sin(resid).mean(), np.cos(resid).mean())
        phi[n] += wrap_to_pi(wrapped[n - 1] - mean)
    assert np.array_equal(s.a, a)
    assert np.max(np.abs(wrap_to_pi(s.phi - phi))) <= 1e-13


def test_seed_gradient_scales_quadratically(desk, desk_grid):
    norms = []
    for r in (4e-3, 2e-3, 1e-3):
        pr = desk.with_coupling(r)
        s = seed_state(pr, desk_grid, vortex_plane_delta(pr))
        norms.append(abs(gradient(s, pr, desk_grid)).max())
    for hi, lo in zip(norms[:-1], norms[1:]):
        assert 3.4 <= hi / lo <= 4.6


def test_seed_amplitude_gradient_is_second_order(desk, coarse_grid):
    """u1 removes the order-r residual of the amplitude equation, so on the
    delta = pi seed max|dE/df| falls by 100 (to 2 %) per decade of r."""
    idx_f = Layout.build(desk.num_gaps, coarse_grid.M).idx_f
    norms = []
    for r in (1e-2, 1e-3, 1e-4):
        pr = desk.with_coupling(r)
        s = seed_state(pr, coarse_grid, math.pi)
        norms.append(float(np.max(np.abs(gradient(s, pr, coarse_grid)[idx_f]))))
    for hi, lo in zip(norms[:-1], norms[1:]):
        assert 98.0 <= hi / lo <= 102.0


def test_solve_u1_matches_scipy_bit_for_bit(desk, desk_grid, coarse_grid):
    """The direct dgtsv call gives scipy.linalg.solve_banded's (1, 1) band
    solve to the bit."""
    for grid in (desk_grid, coarse_grid):
        rhs = _u1_rhs(np.array([math.pi, 0.7]), desk, grid.nodes)
        k2, dx, n = desk.kappa**2, grid.dx, grid.M + 1
        ab = np.zeros((3, n))
        ab[0, 1:] = -1.0 / (k2 * dx**2)
        ab[1] = 2.0 + 2.0 / (k2 * dx**2)
        ab[2, :-1] = -1.0 / (k2 * dx**2)
        ab[0, 1] = ab[2, -2] = -2.0 / (k2 * dx**2)
        expected = sla.solve_banded((1, 1), ab, rhs.T).T
        assert np.array_equal(_solve_u1(rhs, desk, grid), expected)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("r", [1e-3, 0.0])
def test_stacked_seeds_equal_the_single_seeds_bit_for_bit(N, r):
    """A (K, N) stack of offsets gives, in one pass and one dgtsv, each
    member's seed, correction fields and amplitude solve to the bit."""
    params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, r)
    grid = Grid1D.build(params, dx=1.0 / 20.0)
    deltas = np.vstack([enumerate_seeds(params)[0],
                        np.random.default_rng(N).uniform(-7.0, 7.0, N)])
    stack = seed_state(params, grid, deltas)
    assert len(stack) == len(deltas)
    for delta, seed in zip(deltas, stack):
        single = seed_state(params, grid, delta)
        for name in ("f", "phi", "a"):
            assert np.array_equal(getattr(seed, name), getattr(single, name)), name
    assert np.array_equal(seed_state(params, grid, deltas[:1])[0].phi,
                          seed_state(params, grid, phase_offsets(deltas[0], N)).phi)

    wrapped = phase_offsets(deltas, N)
    rhs = _u1_rhs(deltas, params, grid.nodes)
    u1 = _solve_u1(rhs, params, grid)
    cf = _corrections(params, grid, wrapped, params.applied_field)
    b1 = _field_correction(params, wrapped, grid.mids, params.applied_field)
    for k, delta in enumerate(deltas[:-1]):
        assert np.array_equal(rhs[k], _u1_rhs(delta, params, grid.nodes))
        assert np.array_equal(u1[k], _solve_u1(rhs[k], params, grid))
        assert np.array_equal(b1[k], _field_correction(
            params, wrapped[k], grid.mids, params.applied_field))
    one = _corrections(params, grid, wrapped[-1], params.applied_field)
    assert np.array_equal(one.u1, _solve_u1(
        _u1_rhs(wrapped[-1], params, grid.nodes), params, grid))
    for name in ("u1", "sv1", "b1"):
        assert np.array_equal(getattr(cf, name)[-1], getattr(one, name)), name


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("r", [1e-3, 0.0])
def test_field_stacked_seeds_equal_the_single_seeds_bit_for_bit(N, r):
    """Seeds built in one pass with one applied field per row, on both
    sides of H_1 = 2 pi, equal each field's own seed_state to the bit."""
    params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, r)
    grid = Grid1D.build(params, dx=1.0 / 20.0)
    fields = np.array([5.5, 6.1, 6.5, 7.0])
    deltas = np.vstack([np.zeros(N), np.full(N, math.pi),
                        np.random.default_rng(N).uniform(0.0, 2.0 * math.pi, N)])
    stack = seed_state(params, grid, np.tile(deltas, (fields.size, 1)),
                       fields.repeat(len(deltas)))
    assert len(stack) == fields.size * len(deltas)
    for k, H in enumerate(fields):
        singles = seed_state(params.with_field(H), grid, deltas)
        for seed, single in zip(stack[k * len(deltas):], singles):
            for name in ("f", "phi", "a"):
                assert np.array_equal(getattr(seed, name), getattr(single, name)), (H, name)


def test_seed_stack_validation(desk, desk_grid):
    for bad in (np.zeros((2, 3)), np.array([[0.0, math.nan]]),
                np.zeros((1, 2, 2))):
        with pytest.raises(InvalidParameters):
            seed_state(desk, desk_grid, bad)


@pytest.mark.parametrize("delta, H", [
    (np.zeros((2, 2)), [3.0]),
    (np.zeros((2, 2)), [3.0, 3.1, 3.2]),
    (np.zeros((2, 2)), 3.0),
    (np.zeros(2), [3.0]),
    (0.0, [3.0]),
    (np.zeros((2, 2)), [3.0, math.inf]),
    (np.zeros((2, 2)), [math.nan, 3.0]),
    (np.zeros((2, 2)), [3.0, 0.0]),
    (np.zeros((2, 2)), [-3.0, 3.0]),
], ids=["too-few", "too-many", "scalar-for-stack", "single-config",
        "scalar-config", "inf", "nan", "zero", "negative"])
@pytest.mark.parametrize("r", [1e-3, 0.0])
def test_seed_state_refuses_bad_member_fields(delta, H, r, desk, desk_grid):
    """Per-member fields come one per row of a (K, N) stack, each positive
    and finite; anything else raises before any seed is built."""
    with pytest.raises(InvalidParameters,
                       match="one positive finite field per row"):
        seed_state(desk.with_coupling(r), desk_grid, delta, H)


def test_seed_observables_match_order_r_fields(desk, desk_grid):
    s = seed_state(desk, desk_grid, vortex_plane_delta(desk))
    obs = observables(s, desk, desk_grid)
    ocf = vortex_plane_observables(desk, desk_grid)
    # h and V are assembled exactly from the correction fields; jz picks up
    # the O(r dx^2) midpoint-phase averaging plus the O(r^2) correction.
    assert np.max(np.abs(obs.h - ocf.h)) <= 1e-12
    assert np.max(np.abs(obs.V - ocf.V)) <= 1e-12
    assert np.max(np.abs(obs.jz - ocf.jz)) <= 2.0 * desk.coupling * desk_grid.dx**2


def test_vortex_plane_observables_formulas(desk, desk_grid):
    ocf = vortex_plane_observables(desk, desk_grid)
    # Critical Josephson current r kappa^2 p / 2 at r=1e-3, kappa=1, p=0.5.
    assert critical_josephson_current(desk) == pytest.approx(2.5e-4, rel=1e-14)
    assert np.max(np.abs(ocf.jz)) <= critical_josephson_current(desk) + 1e-18
    # Interior planes carry no current at order r.
    assert np.max(np.abs(ocf.jx[1:-1])) == 0.0
    assert np.max(np.abs(ocf.jx[0])) > 0.0
    # The field correction vanishes at the edges.
    edges = np.array([-desk.half_width, desk.half_width])
    b1 = _field_correction(desk, phase_offsets(vortex_plane_delta(desk), 2),
                           edges, desk.applied_field)
    assert np.max(np.abs(b1)) <= 1e-12


def test_nucleation_fields_examples():
    p1 = LdParameters(1, 2.0, 0.5, 1.0, 3.0, 1e-3)
    fields = nucleation_fields(p1, 10.0)
    assert np.allclose(fields, [math.pi, 2.0 * math.pi, 3.0 * math.pi])
    assert nucleation_fields(p1, 3.0) == []
    p2 = LdParameters(1, math.pi, 1.0, 1.0, 3.0, 1e-3)
    assert np.allclose(nucleation_fields(p2, 4.5), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        nucleation_fields(p1, -1.0)


def test_magnetization_jump_magnitude():
    params = LdParameters(1, 2.0, 0.5, 1.0, 3.0, 1e-3)
    diagram = epsilon_and_jumps(params, np.linspace(2.0, 8.0, 61))
    assert diagram.delta_M[0] == pytest.approx(4e-3 / math.pi, rel=1e-12)
    # Oracle: finite differences of the energy formula on both sides.
    Hk = math.pi
    h = 1e-6
    fd_minus = (epsilon_of_field(params, Hk - h) - epsilon_of_field(params, Hk - 2 * h)) / h
    fd_plus = (epsilon_of_field(params, Hk + 2 * h) - epsilon_of_field(params, Hk + h)) / h
    assert abs(fd_plus - fd_minus) == pytest.approx(diagram.delta_M[0], rel=1e-3)
    assert (magnetization(params, Hk, +1) - magnetization(params, Hk, -1)
            == pytest.approx(-diagram.delta_M[0], rel=1e-12))


def test_epsilon_continuous_at_transitions():
    params = LdParameters(1, 2.0, 0.5, 1.0, 3.0, 1e-3)
    Hk = 2.0 * math.pi
    lo = epsilon_of_field(params, Hk - 1e-9)
    hi = epsilon_of_field(params, Hk + 1e-9)
    assert lo == pytest.approx(hi, rel=1e-6)
    assert magnetization(params, Hk, +1) != pytest.approx(
        magnetization(params, Hk, -1), rel=1e-3)


@given(st.floats(0.05, 50.0))
@settings(max_examples=50, deadline=None)
def test_epsilon_bounds(H):
    params = LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3)
    N, p, L, r = 2, 0.5, 1.0, 1e-3
    eps = epsilon_of_field(params, H)
    assert eps >= -1e-18
    assert eps <= 2.0 * N * p * L * r + 2.0 * N * r / H + 1e-18


def test_epsilon_grid_validation():
    params = LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3)
    with pytest.raises(ValueError):
        epsilon_and_jumps(params, np.array([3.0, 2.0]))
    with pytest.raises(ValueError):
        epsilon_and_jumps(params, np.array([-1.0, 2.0]))
