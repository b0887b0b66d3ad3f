import math

import numpy as np
import pytest
import scipy.linalg as sla

from ldvortex.errors import DomainError
from ldvortex.minimize import assemble_banded_hessian, nearest_eigenvalues
from ldvortex.params import Grid1D, LdParameters
from ldvortex.state import Layout, zero_coupling_minimizer
from ldvortex.validity import (GAP_SHIFT, c0, discrete_norm_matrix,
                               energy_bound_coefficient,
                               f_dip_threshold, gap_spectrum, k_factor,
                               lambda_lower, lambda_upper, numerical_gap,
                               rstar_lower, trace_inequality_margin,
                               validity_report)


def _pt(N=2, L=1.0, p=0.5, kappa=1.0, H=3.0, r=1e-3):
    return LdParameters(N, L, p, kappa, H, r)


def test_c0_example_and_limit():
    assert c0(_pt(N=2, L=1.0, p=0.5)) == pytest.approx(2.3374, abs=1e-3)
    # L -> 0: the bracket collapses to 1 and C0 -> 2.
    assert c0(_pt(L=1e-6)) == pytest.approx(2.0, rel=1e-6)
    samples = [c0(_pt(L=L)) for L in np.linspace(0.2, 50.0, 24)]
    assert np.all(np.diff(samples) >= -1e-12)


def test_lambda_lower_example_and_trends():
    assert lambda_lower(_pt(kappa=1.0, L=1.0)) == pytest.approx(0.0901, abs=1e-3)
    # Independent of the number of gaps.
    assert lambda_lower(_pt(N=1)) == lambda_lower(_pt(N=7))
    ks = [lambda_lower(_pt(kappa=k)) for k in (1.0, 2.0, 4.0)]
    ls = [lambda_lower(_pt(L=L)) for L in (1.0, 2.0, 4.0)]
    assert ks == sorted(ks, reverse=True)
    assert ls == sorted(ls, reverse=True)
    with pytest.raises(DomainError):
        lambda_lower(_pt(kappa=0.9))


def test_lambda_upper_example_and_limit():
    assert lambda_upper(_pt(kappa=2.0, p=0.5, L=3.0)) == 0.5
    assert lambda_upper(_pt(L=1e4)) < 1e-6
    for L in np.linspace(1.0, 100.0, 10):
        for kappa in np.linspace(1.0, 100.0, 10):
            for p in np.linspace(0.2, 1.0, 5):
                q = _pt(L=L, kappa=kappa, p=p)
                assert lambda_lower(q) <= lambda_upper(q)


def test_k_factor_examples():
    assert k_factor(_pt(H=2.0, p=0.5), 0.0) == 1.0
    assert k_factor(_pt(H=2.0, p=0.5, L=1.0, kappa=1.0), 1.0) == 4.0
    ks = [k_factor(_pt(), r) for r in (0.0, 0.5, 1.0, 2.0)]
    assert ks == sorted(ks)


def test_rstar_root_and_invariants():
    params = _pt()
    rs = rstar_lower(params)
    lam = lambda_lower(params)
    K = k_factor(params, rs)
    assert abs(rs * (1.0 + K * (1.0 + rs * params.kappa**2 * K)) - lam) <= 1e-10 * lam
    assert 0.0 < rs <= lam
    assert rstar_lower(_pt(N=1)) == rstar_lower(_pt(N=9))
    assert rstar_lower(_pt(L=1.0)) > rstar_lower(_pt(L=2.0)) > rstar_lower(_pt(L=4.0))
    assert rstar_lower(_pt(kappa=1.0)) > rstar_lower(_pt(kappa=2.0))
    assert rstar_lower(_pt(H=1.0)) < rstar_lower(_pt(H=3.0)) < rstar_lower(_pt(H=10.0))


def test_f_dip_threshold():
    params = _pt()
    root1 = f_dip_threshold(params, C_u=1.0)
    root2 = f_dip_threshold(params, C_u=2.0)
    assert root2 < root1
    K = k_factor(params, root1)
    assert abs(root1 * (1.0 + root1 * params.kappa**2 * K**2) - 0.5) <= 1e-10
    # Hp large makes K -> 0 and the root approach 1/(2 C_u).
    tiny_k = _pt(H=1e5)
    assert f_dip_threshold(tiny_k, C_u=1.0) == pytest.approx(0.5, rel=1e-4)


def test_numerical_gap_positive_and_trends():
    params = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 0.0)
    gap = numerical_gap(params)
    assert math.isfinite(gap) and gap > 0.0
    assert numerical_gap(LdParameters(1, 2.0, 0.5, 1.0, 3.0, 0.0)) < gap


def test_numerical_gap_stable_under_refinement():
    params = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 0.0)
    g1 = numerical_gap(params, Grid1D.build(params, dx=1.0 / 20.0))
    g2 = numerical_gap(params, Grid1D.build(params, dx=1.0 / 40.0))
    assert abs(g2 - g1) / g1 <= 0.02


def test_gap_spectrum_kernel_dimension(desk):
    params = desk.with_coupling(0.0)
    eigs = gap_spectrum(params, Grid1D.build(params, dx=1.0 / 24.0))
    assert np.all(np.abs(eigs[:params.num_gaps]) <= 1e-10)
    assert eigs[params.num_gaps] > 1e-3


def _dense(ab: np.ndarray) -> np.ndarray:
    """The matrix whose band is ab[bw + i - j, j] = A[i, j]."""
    bw, n = (ab.shape[0] - 1) // 2, ab.shape[1]
    return sum(np.diag(ab[bw - k, max(k, 0):n + min(k, 0)], k)
               for k in range(-bw, bw + 1))


def _banded_pencil(params, grid):
    """The bands of gap_spectrum's pencil: half the r = 0 Hessian and the
    norm matrix."""
    state = zero_coupling_minimizer(params, grid)
    ab, *_ = assemble_banded_hessian(state.f, state.phi, state.a, params, grid)
    return 0.5 * ab, discrete_norm_matrix(params, grid)


def test_gap_spectrum_matches_dense_pencil(desk):
    params = desk.with_coupling(0.0)
    grid = Grid1D.build(params, dx=1.0 / 16.0)
    N = params.num_gaps
    Q, B = _banded_pencil(params, grid)
    ref = sla.eigh(_dense(Q), _dense(B), eigvals_only=True)[:N + 2]
    eigs = nearest_eigenvalues(Q, N + 2, GAP_SHIFT, B)
    assert np.all(np.abs(eigs[:N] - ref[:N]) <= 1e-10)
    assert np.all(np.abs(eigs[N:] - ref[N:]) <= 1e-10 * ref[N:])
    gap = gap_spectrum(params, grid)
    assert gap.shape == (N + 1,)
    assert np.all(np.abs(gap[:N] - ref[:N]) <= 1e-10)
    assert abs(gap[N] - ref[N]) <= 1e-10 * ref[N]
    assert np.array_equal(gap, gap_spectrum(params, grid))
    assert np.array_equal(gap, nearest_eigenvalues(Q, N + 1, GAP_SHIFT, B))


@pytest.mark.parametrize("N, dx", [(1, 1.0 / 16.0), (1, 1.0 / 24.0),
                                   (2, 1.0 / 20.0), (3, 1.0 / 16.0),
                                   (3, 1.0 / 24.0)])
def test_gap_pencil_matches_dense_eigh(N, dx):
    """Shift-invert Lanczos on the banded pencil against dense eigh: the N
    zero modes to 1e-10 absolute, the next two to 1e-10 relative."""
    params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, 0.0)
    grid = Grid1D.build(params, dx=dx)
    Q, B = _banded_pencil(params, grid)
    ref = sla.eigh(_dense(Q), _dense(B), eigvals_only=True)[:N + 2]
    eigs = nearest_eigenvalues(Q, N + 2, GAP_SHIFT, B)
    assert np.all(np.abs(eigs[:N]) <= 1e-10)
    assert np.all(np.abs(eigs[:N] - ref[:N]) <= 1e-10)
    assert np.all(np.abs(eigs[N:] - ref[N:]) <= 1e-10 * ref[N:])


def test_nearest_eigenvalues_takes_every_count_below_size():
    """n - 1 eigenvalues of the gap pencil run the Lanczos basis up to the
    whole space."""
    params = LdParameters(1, 1.0, 0.5, 1.0, 3.0, 0.0)
    grid = Grid1D.build(params, dx=0.25)
    n = Layout.build(1, grid.M).size
    Q, B = _banded_pencil(params, grid)
    ref = sla.eigh(_dense(Q), _dense(B), eigvals_only=True)[:n - 1]
    eigs = nearest_eigenvalues(Q, n - 1, GAP_SHIFT, B)
    assert eigs.shape == (n - 1,)
    assert np.all(np.abs(eigs - ref) <= 1e-10 * np.maximum(np.abs(ref), 1.0))


def test_norm_matrix_is_spd():
    """The band is exactly symmetric, positive definite, and nonzero only on
    the diagonal, at the offsets between the a of adjacent planes and at the
    offsets between a node field and itself one grid column on, all read
    from the Layout."""
    for N in (1, 2, 3):
        params = LdParameters(N, 1.0, 0.5, 1.0, 3.0, 0.0)
        grid = Grid1D.build(params, dx=1.0 / 16.0)
        band = discrete_norm_matrix(params, grid)
        layout = Layout.build(N, grid.M)
        bw = layout.bandwidth
        assert band.shape == (2 * bw + 1, layout.size)
        B = _dense(band)
        assert np.max(np.abs(B - B.T)) == 0.0
        assert np.linalg.eigvalsh(B)[0] > 0.0
        nodes = np.vstack([layout.idx_f, layout.idx_phi])
        offsets = ({0} | set((layout.idx_a[1:] - layout.idx_a[:-1]).ravel().tolist())
                   | set((nodes[:, 1:] - nodes[:, :-1]).ravel().tolist()))
        assert [k for k in range(-bw, bw + 1) if np.diag(B, k).any()] \
            == sorted(offsets | {-k for k in offsets})


def test_trace_inequality_on_random_fields(desk):
    margin = trace_inequality_margin(desk)
    assert margin <= 1.0


def test_validity_report_roundtrip(desk):
    rep = validity_report(desk)
    d = rep.to_dict()
    assert d["c0"] == pytest.approx(2.3374, abs=1e-3)
    assert d["numerical_gap"] is None
    assert rep.lambda_lower <= rep.lambda_upper
    assert d["energy_bound_coeff"] == pytest.approx(
        energy_bound_coefficient(desk), rel=1e-14)
    rep2 = validity_report(desk, grid=Grid1D.build(desk, dx=1.0 / 16.0))
    assert rep2.numerical_gap > 0.0
