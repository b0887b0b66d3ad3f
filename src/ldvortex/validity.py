"""Quantitative bounds on the radius of validity of the small-r expansion.

Pure-formula bounds: the elliptic constant C0 of the Coulomb-gauge field
estimate, the spectral-gap sandwich lambda_lower <= lambda <= lambda_upper,
the amplification factor K, the implicit lower bound r_* on the first
degeneracy of the linearization, and the coupling at which the amplitude
estimate first allows f to dip to 1/2.  The two pure constants C_u and c
that the estimates leave unspecified are parameters of f_dip_threshold and
rstar_lower with default 1; validity_report evaluates them at 1.

numerical_gap measures the same spectral gap directly on the discrete
Hessian, by shift-invert Lanczos (minimize.nearest_eigenvalues, whose only
caller this is) on the banded pencil (Hessian, norm Gram matrix), both in
the same band storage, with no dense path and no SciPy beyond its LAPACK
wrappers; the sandwich against the analytic bounds is reported rather than
asserted because the discrete norm and the analytic one differ by bounded
equivalence factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .minimize import _scatter_band, assemble_banded_hessian, nearest_eigenvalues
from .params import Grid1D, LdParameters
from .state import zero_coupling_minimizer


def c0(params: LdParameters) -> float:
    """Elliptic constant of the field estimate:
    2 [1 + (4/pi^2) L^2 N^2 p^2 / (N^2 p^2 + 4 L^2)]^2."""
    L, Np = params.half_width, params.num_gaps * params.spacing
    frac = (L**2 * Np**2) / (Np**2 + 4.0 * L**2)
    return 2.0 * (1.0 + 4.0 / math.pi**2 * frac) ** 2


def lambda_lower(params: LdParameters) -> float:
    """Lower bound on the spectral gap of the r = 0 linearization:
    (1/(4 kappa^2)) min{1, (1 + 4L^2/pi^2)^-3}; independent of N."""
    if params.kappa < 1.0:
        raise DomainError(f"lambda_lower requires kappa >= 1, got {params.kappa}")
    L = params.half_width
    return 0.25 / params.kappa**2 * min(1.0, (1.0 + 4.0 * L**2 / math.pi**2) ** -3)


def lambda_upper(params: LdParameters) -> float:
    """Upper bound on the spectral gap: 9 / (2 kappa^2 p^2 L^2)."""
    return 4.5 / (params.kappa * params.spacing * params.half_width) ** 2


def k_factor(params: LdParameters, r: float) -> float:
    """Amplification factor K = (1/(Hp)) (1 + r L^2 kappa^2)(1 + r L)."""
    if r < 0.0:
        raise DomainError(f"k_factor requires r >= 0, got {r}")
    L, kappa = params.half_width, params.kappa
    Hp = params.applied_field * params.spacing
    return (1.0 + r * L**2 * kappa**2) * (1.0 + r * L) / Hp


def _increasing_root(fn, target: float, hi: float) -> float:
    """Root of the increasing function fn(r) = target by plain bisection,
    growing the bracket if needed; relative tolerance 1e-10."""
    lo = 0.0
    while fn(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1e-300):
            break
    return 0.5 * (lo + hi)


def rstar_lower(params: LdParameters, c: float = 1.0) -> float:
    """Implicit lower bound on the first degeneracy point of the
    linearization: the root of c * r [1 + K(r)(1 + r kappa^2 K(r))] =
    lambda_lower.  The left side is monotone increasing in r."""
    if c <= 0.0:
        raise DomainError(f"rstar_lower requires c > 0, got {c}")
    lam = lambda_lower(params)
    kappa2 = params.kappa**2

    def lhs(r: float) -> float:
        K = k_factor(params, r)
        return c * r * (1.0 + K * (1.0 + r * kappa2 * K))

    return _increasing_root(lhs, lam, lam)


def f_dip_threshold(params: LdParameters, C_u: float = 1.0) -> float:
    """Coupling at which the amplitude estimate first allows f = 1/2:
    root of C_u r [1 + r kappa^2 K(r)^2] = 1/2."""
    if C_u <= 0.0:
        raise DomainError(f"f_dip_threshold requires C_u > 0, got {C_u}")
    kappa2 = params.kappa**2

    def lhs(r: float) -> float:
        K = k_factor(params, r)
        return C_u * r * (1.0 + r * kappa2 * K**2)

    return _increasing_root(lhs, 0.5, 0.5 / C_u)


@dataclass(frozen=True)
class ValidityReport:
    """All analytic bounds for one parameter point, at C_u = c = 1."""

    c0: float
    lambda_lower: float
    lambda_upper: float
    rstar_lower: float
    f_dip_threshold: float
    energy_bound_coeff: float
    numerical_gap: float | None = None

    def to_dict(self) -> dict:
        return {"c0": self.c0, "lambda_lower": self.lambda_lower,
                "lambda_upper": self.lambda_upper,
                "rstar_lower": self.rstar_lower,
                "f_dip_threshold": self.f_dip_threshold,
                "energy_bound_coeff": self.energy_bound_coeff,
                "C_u": 1.0, "c": 1.0,
                "numerical_gap": self.numerical_gap}


def energy_bound_coefficient(params: LdParameters) -> float:
    """Coefficient of the linear upper bound on the ground energy:
    min energy <= 2 N p (L + 1/(pH)) r."""
    N, p, L, H = (params.num_gaps, params.spacing, params.half_width,
                  params.applied_field)
    return 2.0 * N * p * (L + 1.0 / (p * H))


def validity_report(params: LdParameters, grid: Grid1D | None = None) -> ValidityReport:
    """Evaluate every bound; the measured spectral gap is included when a
    grid is supplied (it needs a discrete Hessian)."""
    gap = numerical_gap(params, grid) if grid is not None else None
    return ValidityReport(
        c0=c0(params),
        lambda_lower=lambda_lower(params),
        lambda_upper=lambda_upper(params),
        rstar_lower=rstar_lower(params),
        f_dip_threshold=f_dip_threshold(params),
        energy_bound_coeff=energy_bound_coefficient(params),
        numerical_gap=gap)


# ---------------------------------------------------------------------------
# Discrete spectral gap.

GAP_SHIFT = -1e-2  # below the nonnegative spectrum of the gap pencil


def discrete_norm_matrix(params: LdParameters, grid: Grid1D) -> np.ndarray:
    """Gram matrix B of the discrete analogue of the linearization norm,
    in the Hessian's band storage ab[bw + i - j, j] = B[i, j], shape
    (2*bw+1, n) (see assemble_banded_hessian):
    p sum_n int (u'^2 + u^2 + v'^2 + v^2) for the plane fields, and
    int int |a|^2 + int int (curl a)^2 for the gauge field.

    In the analytic setting the gauge field lives on the Coulomb slice,
    where its full H1 norm is equivalent to mass + curl (the elliptic
    estimate with constant C0).  On the layered-gauge slice used here the
    raw H1 norm is not transferable - the slice contains high-frequency
    trace modes with small curl that the Coulomb space excludes - so the
    equivalent mass + curl form is used instead; the remaining slice and
    quadrature differences are the bounded factors the gap report quotes.
    The 2D mass integral uses the linear-in-z reconstruction of A_x
    between traces (Simpson combination of adjacent planes); the curl term
    is exactly the per-gap field deviation.

    The Hessian's scatter, minimize._scatter_band, writes B from values on
    the Hessian's block pairs.  The midpoint blocks give each node field
    (f, and phi on planes 1..N) per cell the trapezoid mass plus stiffness
    p (dx/2 + 1/dx) on the diagonal and -p/dx between its two nodes; the
    field blocks couple the a of a gap's two planes; all else is 0."""
    N, p, M, dx = params.num_gaps, params.spacing, grid.M, grid.dx
    # Rows 0, 1, 3, 4 of the midpoint blocks are the _MID_PAIRS (0, 0),
    # (1, 1), (2, 2), (3, 3); rows 2, 5 are (0, 1), (2, 3).
    mid = np.zeros((15, N + 1, M))
    mid[[0, 1, 3, 4]] = p * (0.5 * dx + 1.0 / dx)
    mid[[2, 5]] = -p / dx
    zero = np.zeros((N + 1) * (M + 1) + 10 * N * (M + 1))  # node, Josephson
    # Simpson mass of the reconstruction plus its curl (p/3, p/6 and dx/p);
    # the a of an inner plane is in two gaps.
    mass, cross = (p / 3.0) * dx + dx / p, (p / 6.0) * dx - dx / p
    fld = np.array([mass, mass, cross]).repeat(N * M)
    return _scatter_band(N, M, np.concatenate([mid.ravel(), zero, fld]))


def gap_spectrum(params: LdParameters, grid: Grid1D | None = None) -> np.ndarray:
    """The N+1 smallest generalized eigenvalues of half the Hessian at the
    r = 0 minimizer against the discrete norm, ascending.  The first N
    vanish (the phase manifold); the (N+1)-th is the measured spectral gap.
    The pencil is positive semidefinite, so the eigenvalues nearest
    GAP_SHIFT < 0 are the smallest, and shift-invert Lanczos computes only
    those."""
    base = params.with_coupling(0.0)
    if grid is None:
        grid = Grid1D.build(base)
    state = zero_coupling_minimizer(base, grid)
    ab, *_ = assemble_banded_hessian(state.f, state.phi, state.a, base, grid)
    B = discrete_norm_matrix(base, grid)
    return nearest_eigenvalues(0.5 * ab, base.num_gaps + 1, GAP_SHIFT, M=B)


def numerical_gap(params: LdParameters, grid: Grid1D | None = None) -> float:
    """The measured spectral gap: (N+1)-th smallest normalized eigenvalue
    of the discrete Hessian at the r = 0 minimizer."""
    eigs = gap_spectrum(params, grid)
    return float(eigs[params.num_gaps])


# ---------------------------------------------------------------------------
# Discrete trace inequality.

def trace_inequality_margin(params: LdParameters) -> float:
    """Worst ratio of p * sum_n ||a_x(., z_n)||^2 to
    ((p+1)(N+1)/N) ||a_x||_{H1}^2 over 20 random smooth 2D fields (seed 0)
    with zero normal trace (a_x = 0 at x = +-L), on 65 nodes in x and 8
    intervals per gap in z; the inequality holds when <= 1."""
    N, p, L = params.num_gaps, params.spacing, params.half_width
    rng = np.random.default_rng(0)
    nx, nz_per_gap = 65, 8
    nz = N * nz_per_gap + 1
    x = np.linspace(-L, L, nx)
    z = np.linspace(0.0, N * p, nz)
    dx = x[1] - x[0]
    dz = z[1] - z[0]
    wx = np.full(nx, dx); wx[0] = wx[-1] = 0.5 * dx
    wz = np.full(nz, dz); wz[0] = wz[-1] = 0.5 * dz
    const = (p + 1.0) * (N + 1) / N

    worst = 0.0
    for _ in range(20):
        field2d = np.zeros((nz, nx))
        for mx in range(1, 5):
            for mz in range(0, 4):
                cxz = rng.standard_normal() / (1.0 + mx + mz)
                field2d += cxz * (np.cos(mz * np.pi * z / (N * p))[:, None]
                                  * np.sin(mx * np.pi * (x + L) / (2 * L))[None, :])
        dadx = np.gradient(field2d, dx, axis=1)
        dadz = np.gradient(field2d, dz, axis=0)
        h1 = float(np.sum(wz[:, None] * wx[None, :]
                          * (field2d**2 + dadx**2 + dadz**2)))
        traces = 0.0
        for n in range(N + 1):
            row = field2d[n * nz_per_gap]
            traces += float(np.sum(wx * row**2))
        worst = max(worst, p * traces / (const * h1))
    return worst
