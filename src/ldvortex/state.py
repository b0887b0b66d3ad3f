"""Gauge-fixed discrete configurations of the layered stack.

The discretization works in the layered gauge A_z = 0: because every
critical point has a local field constant in z within each gap, the only
gauge-field degrees of freedom are the N+1 trace functions
a_n(x) = A_x(x, z_n).  The residual symmetry phi_n -> phi_n - chi(x),
a_n -> a_n - chi'(x) is removed by fixing phi_0 = 0.

Staggering: amplitudes f and phases phi live at nodes, the traces a at
midpoints, paired with the midpoint difference (phi_{i+1}-phi_i)/dx so
that discrete gauge invariance is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .params import Grid1D, LdParameters, as_phase_config

#: phi_0 is considered gauge fixed when its sup norm is below this.
GAUGE_FIX_TOL = 1e-12


def _locked(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LayeredState:
    """Immutable snapshot (f, phi, a) of the stack on a staggered grid.

    Attributes:
        f: amplitudes at nodes, shape (N+1, M+1).
        phi: phases at nodes (radians), shape (N+1, M+1).
        a: tangential gauge potential at midpoints, shape (N+1, M).
        gauge_fixed: True when phi[0] vanishes identically; computed from
            phi, never passed.
    """

    f: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    gauge_fixed: bool = field(init=False)

    def __post_init__(self):
        f = _locked(self.f)
        phi = _locked(self.phi)
        a = _locked(self.a)
        if f.ndim != 2 or phi.shape != f.shape:
            raise ShapeMismatch(f"f {f.shape} and phi {phi.shape} must both be (N+1, M+1)")
        if a.shape != (f.shape[0], f.shape[1] - 1):
            raise ShapeMismatch(f"a has shape {a.shape}, expected {(f.shape[0], f.shape[1] - 1)}")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "gauge_fixed",
                           bool(abs(phi[0]).max() <= GAUGE_FIX_TOL))

    @property
    def num_planes(self) -> int:
        return self.f.shape[0]

    @property
    def num_gaps(self) -> int:
        return self.f.shape[0] - 1

    @property
    def num_nodes(self) -> int:
        return self.f.shape[1]

    def check_grid(self, params: LdParameters, grid: Grid1D) -> None:
        if self.f.shape != (params.num_gaps + 1, grid.M + 1):
            raise ShapeMismatch(
                f"state shape {self.f.shape} does not match "
                f"(N+1, M+1) = {(params.num_gaps + 1, grid.M + 1)}")

    def with_fields(self, f=None, phi=None, a=None) -> "LayeredState":
        return LayeredState(self.f if f is None else f,
                            self.phi if phi is None else phi,
                            self.a if a is None else a)


def uniform_field_state(params: LdParameters, grid: Grid1D) -> LayeredState:
    """Reduced-gauge image of the test configuration psi_n = exp(i n p H x),
    A = (Hz, 0): f = 1, phi_n = n p H x, a_n = n p H.

    Its observables are V = 0, h = H, Phi_{n,n-1} = p H x; only the
    Josephson energy is nonzero.
    """
    N, H, p = params.num_gaps, params.applied_field, params.spacing
    n = np.arange(N + 1)[:, None]
    f = np.ones((N + 1, grid.M + 1))
    phi = n * p * H * grid.nodes[None, :]
    a = np.broadcast_to(n * p * H, (N + 1, grid.M)).copy()
    return LayeredState(f, phi, a)


def zero_coupling_minimizer(params: LdParameters, grid: Grid1D,
                            delta=None) -> LayeredState:
    """Exact minimizer of the decoupled (r = 0) problem in reduced gauge.

    f = 1, h = H, V_n = 0 and Phi_{n,n-1} = delta_n + H p x; the manifold
    of such states is parametrized by the N phase offsets delta.
    """
    cfg = as_phase_config(delta, params.num_gaps)
    base = uniform_field_state(params, grid)
    phi = base.phi + cfg.alphas()[:, None]
    return LayeredState(base.f, phi, base.a)


def gauge_transform(state: LayeredState, chi: np.ndarray,
                    grid: Grid1D) -> LayeredState:
    """Apply the residual gauge transformation with nodal gauge function chi:
    phi_n -> phi_n - chi, a_n -> a_n - (chi_{i+1}-chi_i)/dx.

    Energy and all observables are invariant exactly at the discrete level
    because the midpoint difference of chi cancels against the shift of a.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (state.num_nodes,):
        raise ShapeMismatch(f"chi has shape {chi.shape}, expected ({state.num_nodes},)")
    dchi = np.diff(chi) / grid.dx
    phi = state.phi - chi[None, :]
    a = state.a - dchi[None, :]
    return LayeredState(state.f, phi, a)


def gauge_fix(state: LayeredState, grid: Grid1D) -> LayeredState:
    """Apply the residual fix chi = phi_0, producing phi_0 = 0 exactly.

    Idempotent: fixing an already fixed state is the identity transform.
    """
    return gauge_transform(state, state.phi[0].copy(), grid)


def random_low_energy_state(params: LdParameters, grid: Grid1D,
                            rng: np.random.Generator) -> LayeredState:
    """Random start for descent protocols: f uniform in [0.8, 1.2] per node,
    per-plane phase offsets uniform in [0, 2pi) on top of the field-consistent
    winding n p H x, smooth low-frequency phase ripples, and traces
    perturbed by 0.05 standard normals.  Gauge fixed."""
    N, H, p, L = params.num_gaps, params.applied_field, params.spacing, params.half_width
    n = np.arange(N + 1)[:, None]
    f = rng.uniform(0.8, 1.2, size=(N + 1, grid.M + 1))
    alphas = np.concatenate([[0.0], rng.uniform(0.0, 2.0 * np.pi, size=N)])
    phi = alphas[:, None] + n * p * H * grid.nodes[None, :]
    for m in (1, 2, 3):
        amp = 0.05 * rng.standard_normal((N + 1, 1)) / m
        phi = phi + amp * np.sin(0.5 * m * np.pi * (grid.nodes[None, :] + L) / L)
    a = n * p * H + 0.05 * rng.standard_normal((N + 1, grid.M))
    state = LayeredState(f, phi, a)
    return gauge_fix(state, grid)


def random_rough_state(params: LdParameters, grid: Grid1D,
                       rng: np.random.Generator) -> LayeredState:
    """Unstructured random state for derivative checks (not low energy)."""
    N = params.num_gaps
    f = rng.uniform(0.7, 1.3, size=(N + 1, grid.M + 1))
    phi = np.cumsum(rng.normal(0.0, 0.3, size=(N + 1, grid.M + 1)), axis=1)
    phi -= phi[0:1, :]  # gauge fix exactly
    a = rng.normal(0.0, 1.0, size=(N + 1, grid.M))
    return LayeredState(f, phi, a)
