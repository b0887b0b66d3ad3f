"""Closed-form small-coupling expansion of the layered stack.

At r = 0 the planes decouple and the minimizers form an N-torus
parametrized by the phase offsets delta_n.  At small r > 0 the reduced
energy per unit coupling is

    G(0, delta) = 2 N p L - (2 sin(HpL)/H) * sum_n cos(delta_n),

whose 2^N critical points delta_n in {0, pi} seed Newton; the vortex-plane
branch (all delta_n equal, chosen by the sign of sin(HpL)) is the global
minimizer.  This module evaluates the reduced energy, enumerates the
census seeds, builds the order-r correction fields and assembled seed
states, the order-r observable formulas, and the nucleation diagram
(fields H_k = k pi/(pL), ground energy eps(H), magnetization jumps).

The order-r fields rest on one sine quadrature, the field correction b1;
the supervelocity correction sv1 is its jump across each plane (discrete
Ampere).  Offsets are read by params.phase_offsets, so each function takes
one configuration, shape (N,), or a stack of K, shape (K, N): g0 gives one
value per row, and seed_state builds all K in one pass with one
tridiagonal dgtsv call for every amplitude correction, each to the bit of
its own single call.  seed_state also takes one applied field per member
of a stack: the census seeds its 2^N points at one field, and a field
sweep the two branches of every field at once.
vortex_plane_observables stays an independent closed form, not built from
these fields: the seed and convergence checks compare against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ._lapack import flapack
from .errors import DegenerateField, FactorizationFailure, InvalidParameters
from .observables import Observables, circular_mean
from .params import (DEGENERACY_TOL, Grid1D, LdParameters, phase_offsets,
                     wrap_to_pi)
from .state import LayeredState, zero_coupling_minimizer

#: Largest N whose 2^N seeds are enumerated (4 096 seeds).
MAX_SEED_GAPS = 12


def _require_nondegenerate(params: LdParameters) -> float:
    s = math.sin(params.hpl)
    if abs(s) < DEGENERACY_TOL:
        raise DegenerateField(
            f"sin(HpL) = {s:.3e} at HpL = {params.hpl:.6g}: reduced problem degenerate")
    return s


def g0(params: LdParameters, delta) -> float | np.ndarray:
    """Reduced energy per unit coupling on the degenerate manifold: a float,
    or for a (K, N) stack an array of each row's value to the bit."""
    delta = phase_offsets(delta, params.num_gaps)
    N, p, L, H = params.num_gaps, params.spacing, params.half_width, params.applied_field
    out = 2.0 * N * p * L - (2.0 * math.sin(params.hpl) / H) * np.cos(delta).sum(axis=-1)
    return float(out) if delta.ndim == 1 else out


def vortex_plane_delta(params: LdParameters) -> float:
    """The offset (0 or pi) minimizing the reduced energy: 0 when
    sin(HpL)/(Hp) > 0, else pi."""
    s = _require_nondegenerate(params)
    return 0.0 if s / (params.applied_field * params.spacing) > 0.0 else math.pi


def leading_min_energy(params: LdParameters) -> float:
    """Leading-order ground energy 2 N p (L - |sin(HpL)|/(Hp)) r."""
    N, p, L, H, r = (params.num_gaps, params.spacing, params.half_width,
                     params.applied_field, params.coupling)
    return 2.0 * N * p * (L - abs(math.sin(params.hpl)) / (H * p)) * r


def enumerate_seeds(params: LdParameters) -> tuple[np.ndarray, ...]:
    """The seed table (deltas, inertias, g0s) of the 2^N phase
    configurations delta_n in {0, pi}: row k holds one seed's (N,)
    phase_offsets, predicted inertia and reduced energy, sorted by g0 and
    then by delta.  The predicted inertia counts gaps with
    (sin(HpL)/H) cos(delta_n) < 0 (the reduced Hessian is diagonal).
    N above MAX_SEED_GAPS raises InvalidParameters: each seed costs a
    Newton solve in the census."""
    if params.num_gaps > MAX_SEED_GAPS:
        raise InvalidParameters(
            f"2^N seeds at N = {params.num_gaps}: N must be <= {MAX_SEED_GAPS}")
    s = _require_nondegenerate(params)
    deltas = phase_offsets(list(product((0.0, math.pi), repeat=params.num_gaps)),
                           params.num_gaps)
    inertias = np.sum(s / params.applied_field * np.cos(deltas) < 0.0, axis=1)
    g0s = g0(params, deltas)
    # lexsort's last key is the primary one: g0, then delta_1, delta_2, ...
    order = np.lexsort((*deltas.T[::-1], g0s))
    return deltas[order], inertias[order], g0s[order]


# ---------------------------------------------------------------------------
# Order-r correction fields.

@dataclass(frozen=True)
class CorrectionFields:
    """Order-r corrections around a point of the degenerate manifold.

    u1 is the amplitude correction at nodes (one row per plane), sv1 the
    supervelocity correction and b1 the per-gap field correction at
    midpoints; a stack of K configurations adds a leading axis of K.  For
    every delta, b1 and sv1 vanish at the sample edges and u1 is strictly
    negative.
    """

    u1: np.ndarray = field(repr=False)     # (N+1, M+1)
    sv1: np.ndarray = field(repr=False)    # (N+1, M)
    b1: np.ndarray = field(repr=False)     # (N,   M)


def _u1_rhs(delta: np.ndarray, params: LdParameters, x: np.ndarray,
            H=None) -> np.ndarray:
    """Right side of the amplitude correction ODE per plane, (..., N+1,
    x.size) for offsets delta of shape (..., N), at the applied field H
    (params' own by default; see seed_state for one field per member)."""
    N = params.num_gaps
    Hp = (params.applied_field if H is None else H) * params.spacing
    cos_gap = np.cos(delta[..., :, None] + Hp * x)  # (..., N, M+1)
    rhs = np.empty(delta.shape[:-1] + (N + 1, x.size))
    rhs[..., 0, :] = 0.5 * (cos_gap[..., 0, :] - 1.0)
    rhs[..., N, :] = 0.5 * (cos_gap[..., N - 1, :] - 1.0)
    if N > 1:
        rhs[..., 1:N, :] = 0.5 * (cos_gap[..., :-1, :] + cos_gap[..., 1:, :]
                                  - 2.0)
    return rhs


def _solve_u1(rhs: np.ndarray, params: LdParameters, grid: Grid1D) -> np.ndarray:
    """Tridiagonal solve of -u''/k^2 + 2u = rhs with Neumann ends for all
    planes of every configuration in rhs (..., N+1, M+1) in one LAPACK
    dgtsv call: the routine that scipy.linalg.solve_banded calls for a
    (1, 1) band, so u1 is the same to the bit, and dgtsv eliminates every
    right-hand side alike, so a stack gives each member's u1 to the bit.
    rhs is finite (the offsets are checked finite), so the finiteness check
    solve_banded would make is not repeated.

    The stencil is the variational one induced by the discrete energy
    (trapezoid mass, midpoint stiffness), so a seed assembled from this
    u1 has no order-r residual in the amplitude sector: its amplitude
    gradient is O(r^2), a hundredth for every tenth of r.
    """
    c = params.kappa**2 * grid.dx**2
    n = grid.M + 1
    di = np.full(n, 2.0 + 2.0 / c)
    du = np.full(n - 1, -1.0 / c)
    dl = np.full(n - 1, -1.0 / c)
    # Variational Neumann closure: boundary rows carry half trapezoid
    # weight, so after scaling their off-diagonal doubles.
    du[0] = dl[-1] = -2.0 / c
    *_, u1, info = flapack.dgtsv(dl, di, du, rhs.reshape(-1, n).T,
                                 overwrite_dl=True, overwrite_d=True,
                                 overwrite_du=True)
    if info != 0:  # not expected: the matrix is strictly diagonally dominant
        raise FactorizationFailure(f"amplitude correction solve failed (info {info})")
    return u1.T.reshape(rhs.shape)


def _field_correction(params: LdParameters, delta: np.ndarray, x: np.ndarray,
                      H) -> np.ndarray:
    """Order-r field correction per gap, by exact quadrature of
    b1' = (p k^2 / 2)(sin(delta_n + Hpx) - mean_n) with b1(+-L) = 0, where
    mean_n = sin(delta_n) sin(HpL)/(HpL) is the mean of the sine over
    [-L, L].  One row per gap, evaluated at the points x, and a leading
    axis of K for a (K, N) stack of phase_offsets delta.  The applied field
    H is a float or one field per member shaped (K, 1, 1); sin(HpL) is
    math.sin's for every field."""
    delta = delta[..., None]
    Hp = H * params.spacing
    hpl = Hp * params.half_width
    sin_hpl = np.reshape([math.sin(v) for v in np.ravel(hpl)], np.shape(hpl))
    mean = np.sin(delta) * sin_hpl / hpl
    prim = (np.cos(delta - hpl) - np.cos(delta + Hp * x)) / Hp
    return 0.5 * params.spacing * params.kappa**2 * (
        prim - mean * (x + params.half_width))


def _corrections(params: LdParameters, grid: Grid1D, delta: np.ndarray,
                 H) -> CorrectionFields:
    """Order-r correction fields of the phase_offsets delta, one
    configuration (N,) or a (K, N) stack, at the applied field H, a float
    or one field per member shaped (K, 1, 1).

    u1 is solved numerically (tridiagonal FD, Neumann ends, the stencil
    induced by the discrete energy); b1 comes from exact quadrature of its
    first-order equation, sampled at midpoints.  sv1 is the jump of b1
    across each plane, the discrete Ampere relation

        sv1_n = (b1_{n-1} - b1_n) / p,   b1 = 0 outside the stack,

    which is what quadrature of (1/k^2) sv1' = (sine sources - I_n)/2 with
    the plane constants I_n gives; it inherits b1's zeros at +-L.
    """
    u1 = _solve_u1(_u1_rhs(delta, params, grid.nodes, H), params, grid)
    b1 = _field_correction(params, delta, grid.mids, H)
    zero = np.zeros(delta.shape[:-1] + (1, grid.M))
    padded = np.concatenate([zero, b1, zero], axis=-2)
    return CorrectionFields(
        u1, (padded[..., :-1, :] - padded[..., 1:, :]) / params.spacing, b1)


def interior_amplitude_constants(params: LdParameters, delta_star: float
                                 ) -> tuple[float, float]:
    """Constants (A, B) of the interior-plane closed form
    u1 = -1/2 + A cosh(sqrt(2) kappa x) + B cos(delta + Hpx).

    B = kappa^2/(H^2 p^2 + 2 kappa^2); A follows from u1'(+-L) = 0.
    """
    kappa, Hp, L = params.kappa, params.applied_field * params.spacing, params.half_width
    B = kappa**2 / (Hp**2 + 2.0 * kappa**2)
    A = (kappa * Hp * math.sin(delta_star + params.hpl)
         / (math.sqrt(2.0) * (Hp**2 + 2.0 * kappa**2)
            * math.sinh(math.sqrt(2.0) * kappa * L)))
    return A, B


def interior_u1_closed_form(params: LdParameters, delta_star: float,
                            x: np.ndarray) -> np.ndarray:
    """Closed-form interior amplitude correction at the vortex-plane branch."""
    A, B = interior_amplitude_constants(params, delta_star)
    kappa = params.kappa
    Hp = params.applied_field * params.spacing
    return (-0.5 + A * np.cosh(math.sqrt(2.0) * kappa * np.asarray(x))
            + B * np.cos(delta_star + Hp * np.asarray(x)))


def seed_state(params: LdParameters, grid: Grid1D, delta, H=None):
    """Assemble the perturbative seed s(delta) + r * w1: one LayeredState
    for one configuration, or the list of them for a (K, N) stack of delta,
    built in one pass (one dgtsv for all of them) and each equal to its
    single seed to the bit.

    The applied field is params' own, or for a stack H, one positive finite
    field per member, shape (K,): member k is then
    seed_state(params.with_field(H[k]), grid, delta[k]) to the bit.  H of
    another shape or value raises InvalidParameters.

    f = 1 + r u1 and h = H + r b1; the traces a are stacked across the
    gaps anchored at a_0 = -r sv1_0 (so V_0 = r sv1_0 with phi_0 = 0),
    and phi integrates phi_n' = V_n + a_n with per-plane constants chosen
    so the circular mean of Phi_{n,n-1} - Hpx equals delta_n.
    """
    delta = phase_offsets(delta, params.num_gaps)
    stack = delta.reshape(-1, params.num_gaps)
    if H is None:
        H = params.applied_field
    else:
        H = np.asarray(H, dtype=float)
        if (delta.ndim != 2 or H.shape != (len(stack),)
                or not (np.isfinite(H) & (H > 0.0)).all()):
            raise InvalidParameters(
                f"seed_state takes one positive finite field per row of a (K, N) "
                f"stack of offsets, got {H.tolist()} for offsets of shape {delta.shape}")
    r, p = params.coupling, params.spacing
    if r == 0.0:
        states = [zero_coupling_minimizer(params.with_field(float(h)), grid, d)
                  for h, d in zip(np.broadcast_to(H, len(stack)), stack)]
        return states if delta.ndim == 2 else states[0]
    if np.ndim(H):
        H = H[:, None, None]
    cf = _corrections(params, grid, stack, H)
    f = 1.0 + r * cf.u1
    # a_0 = -r sv1_0, then a_n = a_{n-1} + p h_n with h_n = H + r b1_n.
    a = np.concatenate([-r * cf.sv1[:, :1], p * (H + r * cf.b1)],
                       axis=1).cumsum(axis=1)
    phi = np.zeros_like(f)
    phi[:, 1:, 1:] = (r * cf.sv1[:, 1:] + a[:, 1:]).cumsum(axis=2) * grid.dx
    # Shifting plane n by c_n moves the residual of gap n by c_n - c_{n-1},
    # so c_n = sum over gaps k <= n of (delta_k - m_k), with m_k the
    # circular mean of the unshifted Phi_{k,k-1} - Hpx.
    m = circular_mean(phi[:, 1:] - phi[:, :-1] - H * p * grid.nodes)
    phi[:, 1:] += wrap_to_pi(np.cumsum(stack - m, axis=1))[..., None]
    states = [LayeredState(*fields) for fields in zip(f, phi, a)]
    return states if delta.ndim == 2 else states[0]


# ---------------------------------------------------------------------------
# Order-r observables at the vortex-plane branch.

def phase_gap_factors(params: LdParameters) -> np.ndarray:
    """Per-gap scale of the order-r phase correction, from the Stokes
    relation Phi' = (V_n - V_{n-1}) + p h: interior gaps see only the
    field term (factor p); the top and bottom gaps pick up the edge
    supercurrent, factor p + 1/p (p + 2/p when there is a single gap)."""
    N, p = params.num_gaps, params.spacing
    gamma = np.full(N, p)
    if N == 1:
        gamma[0] = p + 2.0 / p
    else:
        gamma[0] = gamma[-1] = p + 1.0 / p
    return gamma


def vortex_plane_observables(params: LdParameters, grid: Grid1D) -> Observables:
    """Closed-form order-r observables of the vortex-plane minimizer.

    j_z = (r k^2 p / 2) sin(delta + Hpx) in every gap (critical Josephson
    current j_c = r k^2 p / 2), h = H + (r k^2 / 2H)(cos(delta+HpL) -
    cos(delta+Hpx)), in-plane current zero except the top/bottom planes,
    and Phi = delta + Hpx plus the Stokes-consistent order-r correction
    with the undetermined per-gap constants set to zero.
    """
    _require_nondegenerate(params)
    delta = vortex_plane_delta(params)
    N, p, H, kappa, r = (params.num_gaps, params.spacing, params.applied_field,
                         params.kappa, params.coupling)
    Hp = H * p
    xm, xn = grid.mids, grid.nodes

    C_mid = np.cos(delta + params.hpl) - np.cos(delta + Hp * xm)
    edge_V = r * kappa**2 / (2.0 * Hp) * C_mid
    V = np.zeros((N + 1, grid.M))
    V[0] = -edge_V
    V[N] = edge_V
    jx = V.copy()

    h = np.broadcast_to(H + r * kappa**2 / (2.0 * H) * C_mid, (N, grid.M)).copy()
    jz = np.broadcast_to(0.5 * r * kappa**2 * p * np.sin(delta + Hp * xm),
                         (N, grid.M)).copy()

    gamma = phase_gap_factors(params)
    core = xn * math.cos(delta + params.hpl) - np.sin(delta + Hp * xn) / Hp
    Phi = (delta + Hp * xn)[None, :] + (r * kappa**2 / (2.0 * H)) * gamma[:, None] * core[None, :]
    return Observables(V, Phi, h, jx, jz)


def critical_josephson_current(params: LdParameters) -> float:
    """j_c = r k^2 p / 2, the amplitude of the Josephson current."""
    return 0.5 * params.coupling * params.kappa**2 * params.spacing


# ---------------------------------------------------------------------------
# Nucleation fields and the magnetization diagram.

def nucleation_field(params: LdParameters, k):
    """H_k = k pi/(pL), where the k-th vortex plane enters."""
    return k * (math.pi / (params.spacing * params.half_width))


def nucleation_fields(params: LdParameters, H_max: float) -> list[float]:
    """The fields H_k <= H_max."""
    if H_max <= 0.0:
        raise InvalidParameters(f"H_max must be positive, got {H_max}")
    last = int(H_max / nucleation_field(params, 1) + 1e-12)
    return [nucleation_field(params, k) for k in range(1, last + 1)]


def magnetization_jump(params: LdParameters, k):
    """|M+ - M-| = 4 N p^2 L^2 r / (k pi) at H_k, for k an int or an array."""
    N, p, L, r = (params.num_gaps, params.spacing, params.half_width,
                  params.coupling)
    return 4.0 * N * p**2 * L**2 * r / (math.pi * k)


def epsilon_of_field(params: LdParameters, H: float) -> float:
    """Leading-order ground energy at applied field H."""
    return leading_min_energy(params.with_field(H))


def magnetization(params: LdParameters, H: float, side: int = +1) -> float:
    """One-sided derivative of epsilon with respect to H; the two sides
    disagree exactly at the nucleation fields."""
    N, p, L, r = (params.num_gaps, params.spacing, params.half_width,
                  params.coupling)
    hpl = H * p * L
    s = math.sin(hpl)
    if abs(s) < DEGENERACY_TOL:
        sgn = math.copysign(1.0, math.sin(hpl + side * 1e-9))
    else:
        sgn = math.copysign(1.0, s)
    return -2.0 * N * p * r * (sgn * L * math.cos(hpl) / H
                               - abs(s) / (H**2 * p))


@dataclass(frozen=True)
class NucleationDiagram:
    """Sampled ground-energy curve with its first-order transitions."""

    H_k: np.ndarray = field(repr=False)
    delta_M: np.ndarray = field(repr=False)
    H_grid: np.ndarray = field(repr=False)
    epsilon: np.ndarray = field(repr=False)
    M_minus: np.ndarray = field(repr=False)
    M_plus: np.ndarray = field(repr=False)
    is_transition: np.ndarray = field(repr=False)


def epsilon_and_jumps(params: LdParameters, H_grid) -> NucleationDiagram:
    """Evaluate the nucleation diagram on a positive finite sorted field
    grid: the fields H_k, the magnetization jump at each, and the
    leading-order energy and one-sided magnetizations at every grid field."""
    H_grid = np.asarray(H_grid, dtype=float)
    if (H_grid.ndim != 1 or H_grid.size == 0
            or not (np.isfinite(H_grid) & (H_grid > 0.0)).all()):
        raise InvalidParameters(
            "H_grid must be a nonempty 1D array of positive finite fields")
    if np.any(np.diff(H_grid) <= 0.0):
        raise InvalidParameters("H_grid must be strictly increasing")
    Hk = np.asarray(nucleation_fields(params, float(H_grid[-1])))
    delta_M = magnetization_jump(params, np.arange(1, Hk.size + 1))
    eps = np.array([epsilon_of_field(params, H) for H in H_grid])
    m_minus = np.array([magnetization(params, H, -1) for H in H_grid])
    m_plus = np.array([magnetization(params, H, +1) for H in H_grid])
    half_step = 0.5 * float(np.min(np.diff(H_grid))) if H_grid.size > 1 else 0.0
    is_tr = np.zeros(H_grid.size, dtype=bool)
    for hk in Hk:
        if H_grid.size > 1:
            j = int(np.argmin(np.abs(H_grid - hk)))
            if abs(H_grid[j] - hk) <= half_step:
                is_tr[j] = True
    return NucleationDiagram(Hk, delta_M, H_grid, eps, m_minus, m_plus, is_tr)
