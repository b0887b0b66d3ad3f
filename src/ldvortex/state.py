"""Gauge-fixed discrete configurations of the layered stack.

The discretization works in the layered gauge A_z = 0: because every
critical point has a local field constant in z within each gap, the only
gauge-field degrees of freedom are the N+1 trace functions
a_n(x) = A_x(x, z_n).  The residual symmetry phi_n -> phi_n - chi(x),
a_n -> a_n - chi'(x) is removed by fixing phi_0 = 0.

Staggering: amplitudes f and phases phi live at nodes, the traces a at
midpoints, paired with the midpoint difference (phi_{i+1}-phi_i)/dx so
that discrete gauge invariance is exact.

The free DOFs of a gauge-fixed state are f on all planes, phi on planes
1..N and a on all planes.  Layout is the one owner of their packing into a
flat vector, the one format of a free-DOF vector: pack drops the gauge
row phi_0 of a whole (f, phi, a), and unpack gives it back as zeros.  The
solvers pack a state with pack_state, which refuses one that is not gauge
fixed (dropping its phi_0 would change it); gauge_fix it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidParameters, ShapeMismatch
from .params import Grid1D, LdParameters, phase_offsets

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


@dataclass(frozen=True)
class Layout:
    """Plane-major packing of the free DOFs into a flat vector: column by
    column, plane by plane within a column, and (f, phi, a) within a plane,
    so a column is f_0 a_0 f_1 phi_1 a_1 ... f_N phi_N a_N (3N+2 slots) and
    the last one, which has no a, is f_0 f_1 phi_1 ... f_N phi_N.  The
    widest coupling is f_n to phi_n one column on, 3N+3 slots apart, the
    bandwidth of the Hessian."""

    N: int
    M: int
    idx_f: np.ndarray = field(repr=False)
    idx_phi: np.ndarray = field(repr=False)  # planes 1..N
    idx_a: np.ndarray = field(repr=False)
    size: int = 0
    bandwidth: int = 0

    @staticmethod
    @lru_cache(maxsize=32)
    def build(N: int, M: int) -> "Layout":
        """The layout of N gaps on M cells, cached, with read-only indices."""
        S = 3 * N + 2
        n = np.arange(N + 1)[:, None]
        col = S * np.arange(M + 1)
        idx_f = col + np.maximum(3 * n - 1, 0)
        idx_phi = col + 3 * n[1:]
        idx_a = col[:-1] + 3 * n + 1
        idx_f[:, -1] = M * S + np.maximum(2 * n[:, 0] - 1, 0)
        idx_phi[:, -1] = M * S + 2 * n[1:, 0]
        for arr in (idx_f, idx_phi, idx_a):
            arr.setflags(write=False)
        return Layout(N, M, idx_f, idx_phi, idx_a, M * S + 2 * N + 1, S + 1)

    def pack(self, f: np.ndarray, phi: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The free DOFs of (f, phi, a), phi with its plane-0 row, which is
        dropped; leading axes of the arrays stay leading axes of x."""
        lead = f.shape[:-2]
        x = np.empty(lead + (self.size,), f.dtype)
        # Slices for the leading axes: x[..., idx] costs a microsecond more
        # per array, a hundredth of an energy kernel call at n = 325.
        at = (slice(None),) * len(lead)
        x[at + (self.idx_f,)] = f
        x[at + (self.idx_phi,)] = phi[..., 1:, :]
        x[at + (self.idx_a,)] = a
        return x

    def pack_state(self, state: LayeredState) -> np.ndarray:
        """The free DOFs of a gauge-fixed state; raises DomainError for any
        other, whose dropped phi_0 would change the state."""
        if not state.gauge_fixed:
            raise DomainError("the state is not gauge fixed (phi_0 != 0): "
                              "apply gauge_fix before packing it")
        return self.pack(state.f, state.phi, state.a)

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f, phi, a) of packed free DOFs, phi with a zero plane-0 row, in
        the dtype of x and with its leading axes."""
        phi = np.zeros(x.shape[:-1] + (self.N + 1, self.M + 1), x.dtype)
        phi[..., 1:, :] = x.take(self.idx_phi, axis=-1)
        return x.take(self.idx_f, axis=-1), phi, x.take(self.idx_a, axis=-1)


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
    of such states is parametrized by the N phase offsets delta (one
    configuration as phase_offsets reads it; a stack raises
    InvalidParameters), plane n shifted by delta_1 + ... + delta_n.
    """
    delta = phase_offsets(delta, params.num_gaps)
    if delta.ndim != 1:
        raise InvalidParameters(f"zero_coupling_minimizer takes one configuration, "
                                f"got shape {delta.shape}")
    base = uniform_field_state(params, grid)
    phi = base.phi + np.concatenate([[0.0], np.cumsum(delta)])[:, None]
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
