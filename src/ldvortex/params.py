"""Model parameters, 1D grids and the phase offsets of the degenerate torus.

Units follow the standard non-dimensionalization of the Lawrence-Doniach
free energy: lengths in units of the in-plane penetration depth, magnetic
fields in units of H_c/kappa, and the interlayer (Josephson) coupling r
related to the Josephson penetration depth by r = 2 / (lambda_J^2 kappa^2 p^2).

The stack has N+1 superconducting planes z_n = n*p, n = 0..N, of width 2L
in x, so there are N insulating gaps.

An LdParameters object is valid by construction: its constructor refuses
values outside the model's domain (N an integer >= 1, 0 < L, 0 < p <= 1,
kappa > 0, H > 0, r >= 0, all finite) with InvalidParameters, so code that
receives one never checks it again.  validate() only reports the soft
regime warnings.

phase_offsets owns the format of the N phase offsets delta_n of the
decoupled (r = 0) torus: every function that takes offsets reads them there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameters

#: |sin(H p L)| below this marks the applied field as degenerate.
DEGENERACY_TOL = 1e-9

#: Hard floor on the number of grid intervals.
MIN_INTERVALS = 16
#: Hard ceiling on the number of grid intervals: 160 times the 600 of the
#: widest grid in use (L = 10, dx = 1/30) and 40 times its dx/4 refinement.
MAX_INTERVALS = 100_000


@dataclass(frozen=True)
class LdParameters:
    """Constants of the layered-superconductor model.

    Every instance lies in the model's domain: the constructor (and so
    with_coupling and with_field) raises InvalidParameters naming each
    violated constraint.

    Attributes:
        num_gaps: N, number of insulating gaps (N+1 superconducting planes).
        half_width: L, half sample width in units of the penetration depth.
        spacing: p, interplane spacing, 0 < p <= 1.
        kappa: Ginzburg-Landau parameter, kappa >= 1 in the validity regime.
        applied_field: H, external field in units of H_c/kappa.
        coupling: r, dimensionless Josephson coupling (the small parameter).
    """

    num_gaps: int
    half_width: float
    spacing: float
    kappa: float
    applied_field: float
    coupling: float

    def __post_init__(self):
        errors = []
        if (isinstance(self.num_gaps, bool)
                or not isinstance(self.num_gaps, (int, np.integer))):
            errors.append(f"num_gaps must be an integer, got {self.num_gaps!r}")
        elif self.num_gaps < 1:
            errors.append(f"num_gaps must be >= 1 (at least one gap), got {self.num_gaps}")
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            errors.append(f"half_width must be positive and finite, got {self.half_width}")
        if not (0.0 < self.spacing <= 1.0):
            errors.append(f"spacing must lie in (0, 1], got {self.spacing}")
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            errors.append(f"kappa must be positive and finite, got {self.kappa}")
        if not (self.applied_field > 0.0 and math.isfinite(self.applied_field)):
            errors.append(f"applied_field must be positive and finite, got {self.applied_field}")
        if self.coupling < 0.0 or not math.isfinite(self.coupling):
            errors.append(f"coupling must be >= 0 and finite, got {self.coupling}")
        if errors:
            raise InvalidParameters("invalid parameters: " + "; ".join(errors))

    @property
    def hpl(self) -> float:
        """The phase H*p*L that controls degeneracy and vortex nucleation."""
        return self.applied_field * self.spacing * self.half_width

    @property
    def lambda_j(self) -> float:
        """Josephson penetration depth, from r = 2/(lambda_J^2 kappa^2 p^2)."""
        if self.coupling <= 0.0:
            return math.inf
        return math.sqrt(2.0 / (self.coupling * self.kappa**2 * self.spacing**2))

    @property
    def is_degenerate(self) -> bool:
        """True when sin(H p L) vanishes to within DEGENERACY_TOL."""
        return abs(math.sin(self.hpl)) < DEGENERACY_TOL

    def with_coupling(self, r: float) -> "LdParameters":
        return LdParameters(self.num_gaps, self.half_width, self.spacing,
                            self.kappa, self.applied_field, r)

    def with_field(self, H: float) -> "LdParameters":
        return LdParameters(self.num_gaps, self.half_width, self.spacing,
                            self.kappa, H, self.coupling)


def validate(params: LdParameters) -> tuple[str, ...]:
    """Warnings only: the regime assumptions kappa >= 1 and L >= 1, and a
    degenerate applied field sin(HpL) = 0 (a hard error only in the
    critical-point census).  The hard constraints are the constructor's."""
    warnings = []
    if params.kappa < 1.0:
        warnings.append(f"kappa = {params.kappa} < 1 is outside the validity regime")
    if params.half_width < 1.0:
        warnings.append(f"half_width = {params.half_width} < 1 is outside the validity regime")
    if params.is_degenerate:
        warnings.append(
            f"applied field is degenerate: sin(HpL) = {math.sin(params.hpl):.3e} at HpL = {params.hpl:.6g}"
        )
    return tuple(warnings)


def default_dx(params: LdParameters) -> float:
    """Default spacing resolving both the coherence length and field winding:
    dx = min(1/kappa, 1/(H p)) / 10."""
    return min(1.0 / params.kappa, 1.0 / (params.applied_field * params.spacing)) / 10.0


@dataclass(frozen=True)
class Grid1D:
    """Uniform staggered grid on [-L, L].

    Amplitudes and phases live at the M+1 nodes, tangential gauge-field
    traces at the M midpoints; weights are the read-only trapezoid weights
    over the nodes.
    """

    num_intervals: int
    dx: float
    nodes: np.ndarray = field(repr=False)
    mids: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def M(self) -> int:
        return self.num_intervals

    @staticmethod
    def build(params: LdParameters, dx: float | None = None) -> "Grid1D":
        """Build the grid for params; dx overrides the default rule but the
        interval count is floored at MIN_INTERVALS.  A dx that needs more
        than MAX_INTERVALS intervals raises InvalidParameters."""
        target = default_dx(params) if dx is None else float(dx)
        if not (target > 0.0 and math.isfinite(target)):
            raise InvalidParameters(f"dx must be positive and finite, got {target}")
        count = 2.0 * params.half_width / target - 1e-12
        if count > MAX_INTERVALS:
            raise InvalidParameters(f"dx = {target:.6g} needs {count:.6g} intervals, "
                                    f"more than MAX_INTERVALS = {MAX_INTERVALS}")
        M = max(int(math.ceil(count)), MIN_INTERVALS)
        actual = 2.0 * params.half_width / M
        nodes = np.linspace(-params.half_width, params.half_width, M + 1)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        weights = np.full(M + 1, actual)
        weights[0] = weights[-1] = 0.5 * actual
        for arr in (nodes, mids, weights):
            arr.setflags(write=False)
        return Grid1D(M, actual, nodes, mids, weights)

    def trapezoid_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights over the nodes (the stored read-only
        array, computed once in build)."""
        return self.weights


def wrap_angle(delta: np.ndarray | float) -> np.ndarray | float:
    """Reduce an angle to the canonical representative in [0, 2*pi).

    np.mod can round a tiny negative input up to exactly 2*pi; that seam
    value is folded back to 0 to keep the interval half open.
    """
    out = np.mod(delta, 2.0 * np.pi)
    return np.where(out >= 2.0 * np.pi, 0.0, out)


def wrap_to_pi(delta: np.ndarray | float) -> np.ndarray | float:
    """Reduce an angle difference to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(delta), 2.0 * np.pi)


def phase_offsets(delta, num_gaps: int) -> np.ndarray:
    """Phase offsets delta_n as a read-only float array in [0, 2*pi)
    (wrap_angle's): None gives zeros, a scalar fills every gap, an array is
    one configuration, shape (N,), or a stack of K, shape (K, N).  Any other
    shape, or a non-finite offset, raises InvalidParameters."""
    arr = np.zeros(num_gaps) if delta is None else np.asarray(delta, dtype=float)
    if arr.ndim == 0:
        arr = np.full(num_gaps, float(arr))
    if arr.ndim > 2 or arr.shape[-1] != num_gaps:
        raise InvalidParameters(f"phase offsets have shape {arr.shape}, expected "
                                f"({num_gaps},) or (K, {num_gaps})")
    if not np.isfinite(arr).all():
        raise InvalidParameters(f"phase offsets must be finite, got {arr.tolist()}")
    out = wrap_angle(arr)
    out.setflags(write=False)
    return out
