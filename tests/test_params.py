import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldvortex.errors import InvalidParameters
from ldvortex.params import (MAX_INTERVALS, Grid1D, LdParameters, default_dx,
                             phase_offsets, validate, wrap_angle, wrap_to_pi)
from ldvortex.perturbation import g0, seed_state


def test_validate_desk_is_clean(desk):
    assert validate(desk) == ()
    assert not desk.is_degenerate
    assert math.sin(desk.hpl) == pytest.approx(math.sin(1.5), abs=1e-15)


def test_validate_degenerate_field_is_warning():
    # H p L = pi exactly: the first nucleation field.
    p = LdParameters(1, 2.0, 0.5, 1.0, math.pi, 1e-3)
    warnings = validate(p)
    assert p.is_degenerate
    assert any("degenerate" in w for w in warnings)


def test_validate_no_gaps_is_error():
    with pytest.raises(InvalidParameters, match="num_gaps"):
        LdParameters(0, 1.0, 0.5, 1.0, 3.0, 1e-3)


@pytest.mark.parametrize("N", [2.5, 2.0, True, "2", None])
def test_non_integer_gap_count_is_refused(N):
    with pytest.raises(InvalidParameters, match="num_gaps must be an integer"):
        LdParameters(N, 1.0, 0.5, 1.0, 3.0, 1e-3)


@pytest.mark.parametrize("N", [np.int64(2), np.int32(3), np.uint8(1)])
def test_numpy_integer_gap_count_is_accepted(N):
    params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, 1e-3)
    grid = Grid1D.build(params, dx=1.0 / 16.0)
    assert seed_state(params, grid, 0.0).f.shape == (int(N) + 1, grid.M + 1)


def test_grid_above_max_intervals_is_refused(desk):
    step = 2.0 * desk.half_width / MAX_INTERVALS
    assert Grid1D.build(desk, step * (1.0 + 1e-6)).M == MAX_INTERVALS
    for dx in (step / 1.01, 1e-300, 5e-324):
        with pytest.raises(InvalidParameters, match="MAX_INTERVALS"):
            Grid1D.build(desk, dx)


@pytest.mark.parametrize("field, value", [
    ("half_width", -1.0), ("spacing", 0.0), ("spacing", 1.5),
    ("applied_field", 0.0), ("coupling", -1e-3),
])
def test_validate_hard_errors(field, value):
    kwargs = dict(num_gaps=2, half_width=1.0, spacing=0.5, kappa=1.0,
                  applied_field=3.0, coupling=1e-3)
    kwargs[field] = value
    with pytest.raises(InvalidParameters, match=field):
        LdParameters(**kwargs)


def test_copies_with_bad_values_are_refused(desk):
    with pytest.raises(InvalidParameters, match="coupling"):
        desk.with_coupling(-1e-3)
    with pytest.raises(InvalidParameters, match="applied_field"):
        desk.with_field(0.0)


def test_regime_warnings_are_soft():
    warnings = validate(LdParameters(2, 0.5, 0.5, 0.8, 3.0, 1e-3))
    assert len(warnings) >= 2


@given(st.floats(1e-8, 10.0), st.floats(1.0, 50.0), st.floats(0.05, 1.0))
def test_lambda_j_inverts_coupling(r, kappa, p):
    params = LdParameters(1, 1.0, p, kappa, 1.0, r)
    lj = params.lambda_j
    assert 2.0 / (lj**2 * kappa**2 * p**2) == pytest.approx(r, rel=1e-12)


def test_lambda_j_infinite_at_zero_coupling():
    assert LdParameters(1, 1.0, 0.5, 1.0, 1.0, 0.0).lambda_j == math.inf


def test_degeneracy_flag_threshold():
    p = LdParameters(1, 2.0, 0.5, 1.0, math.pi, 0.0)
    assert p.is_degenerate
    assert not LdParameters(1, 2.0, 0.5, 1.0, 3.0, 0.0).is_degenerate


def test_grid_default_rule(desk):
    grid = Grid1D.build(desk)
    assert grid.dx <= default_dx(desk) + 1e-15
    assert grid.M >= 16
    assert grid.nodes[0] == -desk.half_width
    assert grid.nodes[-1] == desk.half_width
    assert np.allclose(np.diff(grid.nodes), grid.dx)
    assert np.allclose(grid.mids, 0.5 * (grid.nodes[:-1] + grid.nodes[1:]))


def test_grid_minimum_intervals():
    params = LdParameters(1, 1.0, 0.5, 1.0, 1.0, 0.0)
    grid = Grid1D.build(params, dx=1.0)  # would give M = 2
    assert grid.M == 16


def test_grid_rejects_bad_dx(desk):
    with pytest.raises(InvalidParameters):
        Grid1D.build(desk, dx=-0.1)


def test_trapezoid_weights_sum_to_length(desk_grid):
    assert np.sum(desk_grid.trapezoid_weights()) == pytest.approx(2.0, rel=1e-14)


def test_trapezoid_weights_are_cached_read_only(desk_grid):
    first = desk_grid.trapezoid_weights()
    assert first is desk_grid.trapezoid_weights()
    assert not first.flags.writeable
    expected = np.full(desk_grid.M + 1, desk_grid.dx)
    expected[0] = expected[-1] = 0.5 * desk_grid.dx
    assert np.array_equal(first, expected)
    with pytest.raises(ValueError):
        first[0] = 1.0


@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6))
def test_phase_config_stores_canonical_representative(deltas):
    stored_all = phase_offsets(np.array(deltas), len(deltas))
    assert np.all(stored_all >= 0.0)
    assert np.all(stored_all < 2.0 * np.pi)
    for raw, stored in zip(deltas, stored_all):
        assert math.cos(raw) == pytest.approx(math.cos(stored), abs=1e-9)
        assert math.sin(raw) == pytest.approx(math.sin(stored), abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_config_refuses_non_finite_offsets(desk, bad):
    """A non-finite delta_n, in one configuration, a stack or a scalar,
    fails in phase_offsets with InvalidParameters, so the reduced energy
    and the seed state never see it."""
    with pytest.raises(InvalidParameters, match="finite"):
        phase_offsets(np.array([bad, 0.0]), 2)
    with pytest.raises(InvalidParameters, match="finite"):
        phase_offsets(np.array([[0.0, 0.0], [0.0, bad]]), 2)
    with pytest.raises(InvalidParameters, match="finite"):
        phase_offsets(bad, 2)
    with pytest.raises(InvalidParameters, match="finite"):
        g0(desk, [bad, 0.0])
    with pytest.raises(InvalidParameters, match="finite"):
        seed_state(desk, Grid1D.build(desk), [bad, 0.0])


@given(st.floats(-100.0, 100.0))
def test_wrap_to_pi_range(x):
    w = float(wrap_to_pi(x))
    assert -math.pi < w <= math.pi + 1e-12
    assert math.cos(w) == pytest.approx(math.cos(x), abs=1e-9)


def test_phase_offsets_shapes():
    """None gives zeros and a scalar fills every gap; an (N,) array is one
    configuration and a (K, N) array a stack, each wrapped elementwise."""
    assert np.array_equal(phase_offsets(None, 3), np.zeros(3))
    assert np.array_equal(phase_offsets(-math.pi, 3), np.full(3, math.pi))
    one = phase_offsets([0.5, -0.5], 2)
    assert one.shape == (2,)
    assert np.array_equal(one, wrap_angle(np.array([0.5, -0.5])))
    stack = np.array([[0.0, 7.0], [-1.0, 2.0 * math.pi], [-1e-300, 3.0]])
    out = phase_offsets(stack, 2)
    assert out.shape == (3, 2)
    assert np.array_equal(out, wrap_angle(stack))
    assert out[2, 0] == 0.0
    assert np.array_equal(phase_offsets(np.empty((0, 2)), 2), np.empty((0, 2)))


@pytest.mark.parametrize("delta", [np.zeros(3), np.zeros((4, 3)),
                                   np.zeros((2, 2, 2))],
                         ids=["wrong-N", "stack-wrong-N", "3-D"])
def test_phase_offsets_refuse_a_wrong_shape(delta):
    with pytest.raises(InvalidParameters, match="shape"):
        phase_offsets(delta, 2)


@pytest.mark.parametrize("delta", [None, 1.0, [1.0, 2.0], [[1.0, 2.0]]])
def test_phase_offsets_are_read_only(delta):
    out = phase_offsets(delta, 2)
    assert not out.flags.writeable
    with pytest.raises(ValueError):
        out[..., 0] = 0.0


def test_wrap_angle_half_open():
    assert wrap_angle(2.0 * np.pi) == 0.0
