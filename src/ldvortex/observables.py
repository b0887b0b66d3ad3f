"""Gauge-invariant observables of a layered state.

All physically measurable quantities are assembled here: the supercurrent
velocity V_n = phi_n' - a_n, the gauge-invariant phase difference
Phi_{n,n-1} = phi_n - phi_{n-1} (A_z = 0 in the layered gauge), the local
field h per gap, the in-plane supercurrent j_x = V f^2 and the Josephson
current j_z = (r kappa^2 p / 2) f_n f_{n-1} sin Phi.

observables takes one state or a list of states: a list gives one stacked
Observables (one row per state) in a single pass, and row k equals the
observables of state k to the bit, since every field is built elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameters, ShapeMismatch
from .params import Grid1D, LdParameters, wrap_angle, wrap_to_pi
from .state import LayeredState


@dataclass(frozen=True)
class Observables:
    """Gauge-invariant fields on the staggered grid.

    Attributes:
        V: supercurrent velocity per plane at midpoints, (N+1, M).
        Phi: gauge-invariant phase difference per gap at nodes, (N, M+1).
        h: local magnetic field per gap at midpoints, (N, M).
        jx: in-plane current per plane at midpoints, (N+1, M).
        jz: Josephson current per gap at midpoints, (N, M).
    """

    V: np.ndarray = field(repr=False)
    Phi: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    jx: np.ndarray = field(repr=False)
    jz: np.ndarray = field(repr=False)

    @property
    def num_gaps(self) -> int:
        return self.h.shape[-2]

    def __getitem__(self, k) -> "Observables":
        """Member k (or the sub-stack k, a slice) of a stacked Observables."""
        return Observables(*(getattr(self, name)[k] for name in _FIELDS))


_FIELDS = ("V", "Phi", "h", "jx", "jz")


def _fields(f: np.ndarray, phi: np.ndarray, a: np.ndarray, params: LdParameters,
            grid: Grid1D) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stencil every discrete quantity is built from: (V, fm, Phi, h),
    with V and h at midpoints, Phi at nodes and fm = (f_m + f_m+1)/2 the
    midpoint amplitude of each plane; a leading stack axis of f, phi and a
    carries through."""
    V = (phi[..., 1:] - phi[..., :-1]) / grid.dx - a
    fm = 0.5 * (f[..., 1:] + f[..., :-1])
    Phi = phi[..., 1:, :] - phi[..., :-1, :]
    h = (a[..., 1:, :] - a[..., :-1, :]) / params.spacing
    return V, fm, Phi, h


def observables(states: LayeredState | list[LayeredState], params: LdParameters,
                grid: Grid1D) -> Observables:
    """Compute all five observable fields of a state, or of a nonempty list
    of states in one pass, each field stacked on a leading axis (member k
    equals observables(states[k], ...) to the bit)."""
    single = isinstance(states, LayeredState)
    for state in [states] if single else states:
        state.check_grid(params, grid)
    f, phi, a = (states.f, states.phi, states.a) if single else (
        np.stack([getattr(s, name) for s in states]) for name in ("f", "phi", "a"))
    p, kappa, r = params.spacing, params.kappa, params.coupling

    V, fm, Phi, h = _fields(f, phi, a, params, grid)
    jx = V * fm**2
    Phi_mid = 0.5 * (Phi[..., 1:] + Phi[..., :-1])
    jz = 0.5 * r * kappa**2 * p * fm[..., 1:, :] * fm[..., :-1, :] * np.sin(Phi_mid)
    for arr in (V, Phi, h, jx, jz):
        arr.setflags(write=False)
    return Observables(V, Phi, h, jx, jz)


def distances(obs: Observables, stack: Observables) -> np.ndarray:
    """distance(obs, member) for every member of a stacked Observables, in
    one pass per field: the same operands, so the same values to the bit."""
    worst = np.zeros(stack.h.shape[0])
    for name in _FIELDS:
        x, y = getattr(obs, name), getattr(stack, name)
        if x.shape != y.shape[1:]:
            raise ShapeMismatch(f"observable {name}: shapes {x.shape} vs {y.shape[1:]}")
        diff = x - y
        if name == "Phi":
            diff = wrap_to_pi(diff)
        # fmax: a field whose maximum is NaN does not hide the others.
        worst = np.fmax(worst, abs(diff).max(axis=tuple(range(1, diff.ndim)),
                                             initial=0.0))
    return worst


def distance(obs1: Observables, obs2: Observables) -> float:
    """Sup-norm distance over all five observable fields.

    Phase differences are compared on the circle (differences wrapped to
    (-pi, pi]) so that configurations equal modulo 2*pi in any phi_n are at
    distance zero: those are physically identical.
    """
    return float(distances(obs1, obs2[None])[0])


def circular_mean(angles: np.ndarray) -> np.ndarray:
    """Circular mean over the last axis, arctan2(mean sin, mean cos), in
    [-pi, pi]."""
    return np.arctan2(np.sin(angles).mean(axis=-1), np.cos(angles).mean(axis=-1))


def delta_estimate(obs: Observables, params: LdParameters,
                   grid: Grid1D) -> np.ndarray:
    """Per-gap circular mean of Phi_{n,n-1}(x) - H p x, in [0, 2*pi).

    At small coupling this recovers the reduced coordinates delta_n of the
    nearest point on the degenerate manifold.
    """
    drift = params.applied_field * params.spacing * grid.nodes[None, :]
    return wrap_angle(circular_mean(obs.Phi - drift))


def mids_to_nodes(arr: np.ndarray) -> np.ndarray:
    """Second-order interpolation of midpoint rows onto nodes.

    Interior nodes average adjacent midpoints; boundary nodes use the
    two-point extrapolation (3*m0 - m1)/2.
    """
    arr = np.atleast_2d(arr)
    out = np.empty((arr.shape[0], arr.shape[1] + 1))
    out[:, 1:-1] = 0.5 * (arr[:, 1:] + arr[:, :-1])
    out[:, 0] = 1.5 * arr[:, 0] - 0.5 * arr[:, 1]
    out[:, -1] = 1.5 * arr[:, -1] - 0.5 * arr[:, -2]
    return out


def lift_field_2d(obs: Observables, params: LdParameters,
                  nz_per_gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant-in-z extension of the per-gap field h(x).

    Returns (z, hmap) where hmap has N*nz_per_gap rows sampling the field
    from the bottom gap upward; within each gap h is independent of z.
    """
    if nz_per_gap < 1:
        raise InvalidParameters(f"nz_per_gap must be >= 1, got {nz_per_gap}")
    N, p = obs.num_gaps, params.spacing
    rows = np.repeat(obs.h, nz_per_gap, axis=0)
    z = (np.arange(N * nz_per_gap) + 0.5) * (p / nz_per_gap)
    return z, rows
