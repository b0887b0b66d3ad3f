"""Discrete Gibbs free energy of the layered stack, with exact derivatives.

The functional, per unit length in y and relative to the normal state:

    bulk      p * sum_n  int [ (f_n^2-1)^2/2 + (f_n')^2/k^2 + V_n^2 f_n^2/k^2 ]
    josephson (r p / 2) * sum_gaps int [ f_n^2 + f_{n-1}^2 - 2 f_n f_{n-1} cos Phi ]
    field     (p / k^2) * sum_gaps int ( h - H )^2

discretized with trapezoid rule for nodal integrands and midpoint rule for
derivative terms, which keeps discrete gauge invariance exact and the whole
scheme O(dx^2) consistent.  The midpoint amplitude in V^2 f^2 is the
arithmetic nodal mean squared after averaging, which keeps the Hessian
symmetric and the gradient exactly the derivative of the discrete energy.

One kernel, energy_arrays, returns the energy, its gradient and its
stencil from a single pass over the staggered fields V, fm, Phi and h,
which observables._fields defines for every module; gradient works on
free-DOF vectors as state.Layout packs them.  The second derivatives are
written only in minimize.assemble_banded_hessian, from the stencil the
kernel returned (V, fm, cos Phi, sin Phi, f^2, V^2, fm^2, as _stencil
computes them).  At the sizes the solvers run, a kernel call is bound by
NumPy's per-call overhead rather than by arithmetic, so energy_arrays
uses slicing and ndarray reductions, folds the scalar factors of each
term into one multiply and computes each repeated product (f^2 - 1,
V fm^2, r p w f) once.

The derivative checks rely on energy_arrays staying analytic in
(f, phi, a): no abs, conj or branch on their values.  Then a complex step
gives the derivative along e_j as Im F(x + i t e_j) / t, t = 1e-30, exact
to roundoff with no step size to choose (Squire & Trapp, SIAM Rev. 40
(1998) 110): of the energy in gradient_check, and of the gradient for
the Hessian references of the tests and of acceptance criterion 1.

f is unconstrained here; at solutions of the discrete system f stays in
(0, 1] and the harness asserts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .observables import _fields
from .params import Grid1D, LdParameters
from .state import LayeredState, Layout

#: Free DOFs that gradient_check samples.
GRADIENT_CHECK_SAMPLES = 200


@dataclass(frozen=True)
class EnergyBreakdown:
    """Bulk, interlayer and magnetic contributions to the free energy."""

    bulk: float
    josephson: float
    field: float

    @property
    def total(self) -> float:
        return self.bulk + self.josephson + self.field

    def to_dict(self) -> dict:
        return {"bulk": self.bulk, "josephson": self.josephson,
                "field": self.field, "total": self.total}


def _check(state: LayeredState, params: LdParameters, grid: Grid1D) -> None:
    state.check_grid(params, grid)
    if not (np.all(np.isfinite(state.f)) and np.all(np.isfinite(state.phi))
            and np.all(np.isfinite(state.a))):
        raise NonFinite("state contains non-finite entries")


def _stencil(f: np.ndarray, phi: np.ndarray, a: np.ndarray, params: LdParameters,
             grid: Grid1D) -> tuple[np.ndarray, tuple]:
    """(h, stencil) at raw arrays: h of _fields and the stencil (V, fm,
    cos Phi, sin Phi, f^2, V^2, fm^2) that the kernel and the band share."""
    V, fm, Phi, h = _fields(f, phi, a, params, grid)
    return h, (V, fm, np.cos(Phi), np.sin(Phi), f * f, V * V, fm * fm)


def energy_arrays(f: np.ndarray, phi: np.ndarray, a: np.ndarray,
                  params: LdParameters, grid: Grid1D
                  ) -> tuple[tuple[float, float, float],
                             tuple[np.ndarray, np.ndarray, np.ndarray], tuple]:
    """((bulk, josephson, field), (gf, gphi, ga), stencil) for raw arrays:
    the energy and its exact derivative arrays in one pass over the
    stencil, which minimize.assemble_banded_hessian takes as it is.

    gphi includes plane 0, which Layout.pack drops from the free-DOF
    gradient.
    """
    p, dx, wt = params.spacing, grid.dx, grid.trapezoid_weights()
    c = p * dx / params.kappa**2
    h, stencil = _stencil(f, phi, a, params, grid)
    V, fm, cosPhi, sinPhi, f2, V2, fm2 = stencil
    fu, fl = f[1:], f[:-1]
    d, f2m1, Vfm2, hH = f[:, 1:] - f[:, :-1], f2 - 1.0, V * fm2, h - params.applied_field
    jwf = (params.coupling * p * wt) * f  # 2 f times the Josephson weight r p w / 2

    gf = (2.0 * p * wt) * (f2m1 * f)
    mid_f, grad_f = c * (V2 * fm), (2.0 * c / dx**2) * d  # d/df of c V^2 fm^2, c (f')^2
    gf[:, :-1] += mid_f - grad_f
    gf[:, 1:] += mid_f + grad_f
    ju, jl = jwf[1:] - jwf[:-1] * cosPhi, jwf[:-1] - jwf[1:] * cosPhi
    gf[1:] += ju
    gf[:-1] += jl

    gphi = np.zeros(phi.shape, phi.dtype)
    tphi, jphi = (2.0 * c / dx) * Vfm2, jwf[1:] * fl * sinPhi
    gphi[:, :-1] -= tphi
    gphi[:, 1:] += tphi
    gphi[1:] += jphi
    gphi[:-1] -= jphi

    ga, gh = -dx * tphi, (2.0 * c / p) * hH
    ga[1:] += gh
    ga[:-1] -= gh
    # The Josephson energy is quadratic in f: half its f-gradient dotted with f.
    bulk = 0.5 * p * (wt * f2m1 * f2m1).sum() + c * ((d * d).sum() / dx**2 + (V * Vfm2).sum())
    jos = 0.5 * ((ju * fu).sum() + (jl * fl).sum())
    return (bulk, jos, c * (hH * hH).sum()), (gf, gphi, ga), stencil


def total_energy(state: LayeredState, params: LdParameters,
                 grid: Grid1D) -> EnergyBreakdown:
    """Evaluate the discrete free energy of a state."""
    _check(state, params, grid)
    bulk, jos, fld = energy_arrays(state.f, state.phi, state.a, params, grid)[0]
    out = EnergyBreakdown(float(bulk), float(jos), float(fld))
    if not math.isfinite(out.total):
        raise NonFinite("energy is not finite")
    return out


def gradient(state: LayeredState, params: LdParameters,
             grid: Grid1D) -> np.ndarray:
    """Exact gradient of total_energy over the free DOFs, packed by Layout.

    The a-components encode the discrete jump conditions across the
    planes, including the top/bottom relations with the external-field
    offset (h^(N) = H + p f_N^2 V_N at stationarity).
    """
    _check(state, params, grid)
    grads = energy_arrays(state.f, state.phi, state.a, params, grid)[1]
    return Layout.build(params.num_gaps, grid.M).pack(*grads)


def el_residual(state: LayeredState, params: LdParameters,
                grid: Grid1D) -> dict[str, float]:
    """Sup-norms of the semi-discrete Euler-Lagrange residuals.

    Families:
      f_ode     amplitude ODE at interior nodes
      field_x   dh/dx = (r k^2 p / 2) f_n f_{n-1} sin Phi at interior nodes
      current   (1/k^2) d(f^2 V)/dx = interlayer source terms at interior nodes
      stokes    Phi' = (V_n - V_{n-1}) + p h, an exact identity of the scheme
      boundary  f'(+-L), j_x(+-L) and h(+-L) - H
    """
    _check(state, params, grid)
    p, kappa, r, H = (params.spacing, params.kappa, params.coupling,
                      params.applied_field)
    dx = grid.dx
    f = state.f
    N = state.num_gaps

    V, fm, Phi, h = _fields(f, state.phi, state.a, params, grid)
    jx = V * fm**2

    # f ODE: -f''/k^2 + (f^2-1) f + V^2 f / k^2 = coupling terms.
    fxx = (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]) / dx**2
    Vn = 0.5 * (V[:, 1:] + V[:, :-1])  # V at interior nodes
    lhs = (-fxx / kappa**2 + (f[:, 1:-1]**2 - 1.0) * f[:, 1:-1]
           + Vn**2 * f[:, 1:-1] / kappa**2)
    cosPhi = np.cos(Phi[:, 1:-1])
    rhs = np.zeros_like(lhs)
    rhs[0] = 0.5 * r * (f[1, 1:-1] * cosPhi[0] - f[0, 1:-1])
    rhs[N] = 0.5 * r * (f[N - 1, 1:-1] * cosPhi[N - 1] - f[N, 1:-1])
    if N > 1:
        rhs[1:N] = 0.5 * r * (f[0:N - 1, 1:-1] * cosPhi[:-1]
                              + f[2:N + 1, 1:-1] * cosPhi[1:]
                              - 2.0 * f[1:N, 1:-1])
    res_f = float(np.max(np.abs(lhs - rhs)))

    # Field equation per gap at interior nodes.
    dhdx = np.diff(h, axis=1) / dx
    src = 0.5 * r * kappa**2 * p * f[1:, 1:-1] * f[:-1, 1:-1] * np.sin(Phi[:, 1:-1])
    res_hx = float(np.max(np.abs(dhdx - src)))

    # Current conservation at interior nodes.
    div = np.diff(jx, axis=1) / (dx * kappa**2)
    sin_node = np.sin(Phi[:, 1:-1])
    pair = f[1:, 1:-1] * f[:-1, 1:-1] * sin_node
    cur = np.zeros_like(div)
    cur[0] = -0.5 * r * pair[0]
    cur[N] = 0.5 * r * pair[N - 1]
    if N > 1:
        cur[1:N] = 0.5 * r * (pair[:-1] - pair[1:])
    res_cur = float(np.max(np.abs(div - cur)))

    # Stokes identity at midpoints: exact telescoping of the definitions.
    dPhi = np.diff(Phi, axis=1) / dx
    res_stokes = float(np.max(np.abs(dPhi - (V[1:] - V[:-1]) - p * h)))

    # Boundary conditions, second-order one-sided stencils.
    fp_left = (-3.0 * f[:, 0] + 4.0 * f[:, 1] - f[:, 2]) / (2.0 * dx)
    fp_right = (3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / (2.0 * dx)
    jx_left = 1.5 * jx[:, 0] - 0.5 * jx[:, 1]
    jx_right = 1.5 * jx[:, -1] - 0.5 * jx[:, -2]
    h_left = 1.5 * h[:, 0] - 0.5 * h[:, 1] - H
    h_right = 1.5 * h[:, -1] - 0.5 * h[:, -2] - H
    res_bnd = float(max(np.max(np.abs(fp_left)), np.max(np.abs(fp_right)),
                        np.max(np.abs(jx_left)), np.max(np.abs(jx_right)),
                        np.max(np.abs(h_left)), np.max(np.abs(h_right))))

    return {"f_ode": res_f, "field_x": res_hx, "current": res_cur,
            "stokes": res_stokes, "boundary": res_bnd}


def gradient_check(state: LayeredState, params: LdParameters, grid: Grid1D,
                   seed: int = 0) -> float:
    """Max relative error between the analytic gradient and the complex-step
    derivative Im E(x + 1e-30 i e_j) / 1e-30 of the energy, exact to
    roundoff, over GRADIENT_CHECK_SAMPLES free DOFs drawn by seed.

    A component can sit arbitrarily close to a zero crossing of the
    gradient, where no relative comparison means anything; components
    whose analytic and complex-step values both fall below the 1e-6
    energy-scale floor are therefore compared absolutely (they match
    within the floor) rather than through the relative quotient.

    The state must be gauge fixed.
    """
    ga = gradient(state, params, grid)
    layout = Layout.build(params.num_gaps, grid.M)
    x0 = layout.pack_state(state)
    floor = 1e-6 * max(1.0, abs(total_energy(state, params, grid).total))
    worst = 0.0
    for j in np.random.default_rng(seed).permutation(x0.size)[:GRADIENT_CHECK_SAMPLES]:
        x = x0.astype(complex)
        x[j] += 1e-30j
        cs = sum(energy_arrays(*layout.unpack(x), params, grid)[0]).imag / 1e-30
        if abs(ga[j]) < floor and abs(cs) < floor:
            continue
        worst = max(worst, abs(ga[j] - cs) / (abs(ga[j]) + 1e-12))
    return worst
