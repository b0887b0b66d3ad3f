"""Minimization and critical-point search over the free DOFs.

The free DOFs of a gauge-fixed state are f on all planes, phi on planes
1..N and a on all planes.  They are packed column by column and plane by
plane, (f, phi, a) within a plane (Layout), so the Hessian is a symmetric
banded matrix with bandwidth 3N+3: couplings reach at most one grid column
and one plane away.  The band is assembled straight from the stencil:
every energy term is local, so its second derivatives form small dense
blocks that one bincount sums into the band in O(n).
Minimization and the saddle search share the band, its one-call LAPACK
solve (banded_solve) and one Armijo backtracking search (_armijo).  A
descent step raises a Levenberg shift mu until H + mu I factors by Cholesky
(dpbsv) and searches on the energy; a Newton step solves H d = -g once by
banded LU (dgbsv), as saddles make H indefinite, and searches on |grad|^2.
Only the descent shifts, starting each step at a tenth of the shift the
last one accepted.  Each trial point costs one call of the energy kernel
(energy.energy_arrays), whose gradient the accepted trial hands to the next
step.  Descent takes Newton steps because the Hessian mixes N eigenvalues of
size O(r) along the phase torus with stiff modes of size O(1/(kappa dx)^2),
which a gradient-based descent crawls across.

Those N soft modes also say which shifts cannot factor.  The plane-constant
phase vectors have the Ritz matrix K/(M+1), K = D^T diag(c) D with D the gap
difference and c_n the x-sum of the Josephson curvature
r p w f_n f_n-1 cos Phi_n; at a seed c_n = r (2 sin HpL / H) cos delta_n +
O(r^2), so K/r is the discrete form of the paper's reduced Hessian
T^T diag((2 sin HpL / H) cos delta_n) T.  Since lambda_min(H) <=
lambda_min(K)/(M+1), the descent skips every shift that an O(N)
LDL^T of K/(M+1) + mu I proves indefinite beyond rounding, instead of
failing a factorization on it (More & Sorensen 1983 choose shifts from such
curvature bounds); the shifts that factor, and so every step, are the same.

Inertia is the discrete Lyapunov-Schmidt reduction: with one phase per plane
pinned, a Hessian whose other block factors by Cholesky has the inertia of
the NxN Schur complement on the pinned phases (Haynsworth), the Morse index
from one banded solve; where that block is indefinite, inertia raises.
Shift-invert Lanczos on a banded LU (nearest_eigenvalues) solves the
spectral-gap pencil.  SciPy stays off the import path: every LAPACK driver
comes from _lapack (scipy.linalg._flapack without scipy.linalg), and no
other SciPy module loads.  banded_solve and nearest_eigenvalues run with
SciPy's OpenBLAS capped at one thread (_lapack.one_blas_thread).

At a few hundred free DOFs (the desk stack) a step is bound by the
per-call overhead of NumPy, not by arithmetic, so the hot path uses
slicing and ndarray methods instead of the np.* wrappers and hands raw
(f, phi, a) arrays, not validated states, to the band assembly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._lapack import flapack, one_blas_thread
from .errors import (FactorizationFailure, NoConvergence, NonFinite,
                     SingularHessian)
from .energy import energy_arrays
from .observables import _fields
from .params import Grid1D, LdParameters
from .state import LayeredState

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
MAX_SHIFTS = 20  # Levenberg escalations tried per descent step
LANCZOS_MAX_BASIS = 200  # Lanczos vectors before nearest_eigenvalues gives up
EPS = float(np.finfo(float).eps)
LANCZOS_TOL = EPS  # relative Ritz residual estimate

log = logging.getLogger("ldvortex")


def __getattr__(name: str):
    # scipy.linalg as `sla`, imported when read: only perfbench/spans.py reads it.
    if name == "sla":
        import scipy.linalg
        return scipy.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Upper-triangle entries (row, column) of the local Hessian blocks, in the
# order assemble_banded_hessian computes their values.  Midpoint block over
# (f_m, f_m+1, phi_m, phi_m+1, a_m), Josephson block over (f_n-1, f_n,
# phi_n-1, phi_n), field block over (a_n-1, a_n).
_MID_PAIRS = ((0, 0), (1, 1), (0, 1), (2, 2), (3, 3), (2, 3), (4, 4), (2, 4),
              (3, 4), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4))
_JOS_PAIRS = ((0, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2),
              (3, 3), (2, 3))
_FLD_PAIRS = ((0, 0), (1, 1), (0, 1))


@lru_cache(maxsize=32)
def _band_index_cached(N: int, M: int) -> np.ndarray:
    """Flat position in the (2*bw+1, n) band of every block entry that
    assemble_banded_hessian writes, always in the lower triangle
    (ab[bw + i - j, j] with i >= j); entries on the gauge-fixed phi_0 go to
    the extra slot (2*bw+1)*n.  Read-only."""
    layout = Layout.build(N, M)
    idx_f, idx_a, n, bw = layout.idx_f, layout.idx_a, layout.size, layout.bandwidth
    phi = np.vstack([np.full((1, M + 1), -1), layout.idx_phi])
    mid = (idx_f[:, :-1], idx_f[:, 1:], phi[:, :-1], phi[:, 1:], idx_a)
    jos = (idx_f[:-1], idx_f[1:], phi[:-1], phi[1:])
    fld = (idx_a[:-1], idx_a[1:])
    blocks = ([(mid[i], mid[j]) for i, j in _MID_PAIRS] + [(idx_f, idx_f)]
              + [(jos[i], jos[j]) for i, j in _JOS_PAIRS]
              + [(fld[i], fld[j]) for i, j in _FLD_PAIRS])
    rows = np.concatenate([u.ravel() for u, _ in blocks])
    cols = np.concatenate([v.ravel() for _, v in blocks])
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    flat = np.where(lo < 0, (2 * bw + 1) * n, (bw + hi - lo) * n + lo)
    flat.setflags(write=False)
    return flat


@dataclass(frozen=True)
class Layout:
    """Plane-major packing of the free DOFs into a flat vector: column by
    column, plane by plane within a column, and (f, phi, a) within a plane,
    so a column is f_0 a_0 f_1 phi_1 a_1 ... f_N phi_N a_N (3N+2 slots) and
    the last one, which has no a, is f_0 f_1 phi_1 ... f_N phi_N.  The
    widest coupling is f_n to phi_n one column on, 3N+3 slots apart (the
    x-major packing needed 4N+2)."""

    N: int
    M: int
    idx_f: np.ndarray = field(repr=False)
    idx_phi: np.ndarray = field(repr=False)
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

    def pack(self, f: np.ndarray, dphi: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Flatten one (f, dphi, a) into a vector of the layout's size."""
        x = np.empty(self.size)
        x[self.idx_f] = f
        x[self.idx_phi] = dphi
        x[self.idx_a] = a
        return x

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (x.take(self.idx_f, axis=-1), x.take(self.idx_phi, axis=-1),
                x.take(self.idx_a, axis=-1))


def _state_to_x(state: LayeredState, layout: Layout) -> np.ndarray:
    return layout.pack(state.f, state.phi[1:], state.a)


def _x_to_arrays(x: np.ndarray, layout: Layout
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, phi, a) of packed free DOFs, phi with its gauge-fixed zero row."""
    f, dphi, a = layout.unpack(x)
    phi = np.zeros((layout.N + 1, layout.M + 1), x.dtype)
    phi[1:] = dphi
    return f, phi, a


def _x_to_state(x: np.ndarray, layout: Layout) -> LayeredState:
    return LayeredState(*_x_to_arrays(x, layout))


def _flat_functions(params: LdParameters, grid: Grid1D, layout: Layout):
    """The kernel over packed free DOFs: x -> (energy, gradient), one
    energy_arrays call.  Every call writes phi into one buffer whose
    plane-0 row stays zero; the buffer takes the dtype of x (long double
    in fd_gradient_check)."""
    phi = np.zeros((layout.N + 1, layout.M + 1))

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal phi
        if phi.dtype != x.dtype:
            phi = np.zeros(phi.shape, x.dtype)
        f, dphi, a = layout.unpack(x)
        phi[1:] = dphi
        (b, j, fl), (gf, gphi, ga) = energy_arrays(f, phi, a, params, grid)
        return b + j + fl, layout.pack(gf, gphi[1:], ga)

    return fun


@dataclass(frozen=True)
class MinimizeReport:
    """Descent outcome with the full per-iteration trace.  Every iteration
    is a Newton or a steepest-descent step; levenberg_shifts counts the
    Cholesky factorizations that failed and raised the shift, and
    skipped_shifts the shifts raised without one (see _shifted_newton)."""

    state: LayeredState
    iterations: int
    grad_norm: float
    energy: float
    converged: bool
    line_search_failures: int
    energy_trace: np.ndarray = field(repr=False)
    grad_trace: np.ndarray = field(repr=False)
    step_trace: np.ndarray = field(repr=False)
    newton_steps: int = 0
    steepest_steps: int = 0
    levenberg_shifts: int = 0
    skipped_shifts: int = 0

    def to_dict(self) -> dict:
        return {"iterations": self.iterations, "grad_norm": self.grad_norm,
                "energy": self.energy, "converged": self.converged,
                "line_search_failures": self.line_search_failures,
                "newton_steps": self.newton_steps,
                "steepest_steps": self.steepest_steps,
                "levenberg_shifts": self.levenberg_shifts,
                "skipped_shifts": self.skipped_shifts}


def _armijo(fun, merit, x: np.ndarray, m: float, d: np.ndarray, slope: float):
    """Backtrack t = 1, 1/2, ... along d, one kernel call fun(x + t d) =
    (e, g) per trial, until merit(e, g) (the energy for minimize, |g|^2 for
    newton_critical) drops below m by at least ARMIJO_C * t * slope; returns
    (x_new, e_new, g_new, t), or None on a stall."""
    t = 1.0
    for _ in range(MAX_BACKTRACKS):
        x_new = x + t * d
        e_new, g_new = fun(x_new)
        m_new = merit(e_new, g_new)
        if math.isfinite(m_new) and m_new <= m + ARMIJO_C * t * slope:
            return x_new, e_new, g_new, t
        t *= BACKTRACK
    return None


def _energy_merit(e: float, g: np.ndarray) -> float:
    return e


def _residual_merit(e: float, g: np.ndarray) -> float:
    return float(g @ g)


@one_blas_thread
def banded_solve(ab: np.ndarray, rhs: np.ndarray, definite: bool,
                 mu: float) -> np.ndarray | None:
    """Solve (H + mu I) x = rhs for H in the (2*bw+1, n) band of
    assemble_banded_hessian, factoring and solving in one LAPACK driver
    call: dpbsv on the upper half when definite (its success is the
    positive-definiteness test), dgbsv otherwise.  These are the routines
    that scipy.linalg's cholesky_banded/cho_solve_banded and solve_banded
    call, so x is the same to the bit; no finiteness check is made.
    Returns None when the factorization fails.  Runs on one OpenBLAS
    thread: at bandwidth 27 (N = 8) two threads make dpbsv several times
    slower."""
    bw = (ab.shape[0] - 1) // 2
    if definite:
        upper = np.array(ab[:bw + 1], order="F")
        upper[bw] += mu
        _, x, info = flapack.dpbsv(upper, rhs, overwrite_ab=True)
    else:
        full = np.zeros((3 * bw + 1, ab.shape[1]), order="F")  # bw fill rows
        full[bw:] = ab
        full[2 * bw] += mu
        _, _, x, info = flapack.dgbsv(bw, bw, full, rhs, overwrite_ab=True)
    return x if info == 0 else None


def _ritz_skips(c: list[float], m: int, shift: float) -> bool:
    """True when K/m + shift I is proven indefinite, K = D^T diag(c) D the
    tridiagonal phase curvature (D the gap difference, phi_0 = 0): one LDL^T
    meets a negative pivot before a zero one, so K/m has an eigenvalue
    below -shift.  O(N), and a zero pivot leaves it undecided."""
    d, b = 1.0, 0.0
    for ck, nxt in zip(c, c[1:] + [0.0]):
        d = (ck + nxt) / m + shift - b * b / d
        if d <= 0.0:
            return d < 0.0
        b = nxt / m
    return False


def _shifted_newton(x: np.ndarray, g: np.ndarray, params: LdParameters,
                    grid: Grid1D, layout: Layout, counts: dict[str, int],
                    mu_last: float = 0.0) -> tuple[np.ndarray | None, float]:
    """The descent step: solve (H + mu I) d = -g by Cholesky on the banded
    Hessian at x, assembled once.  mu starts at mu_last / 10, or at 0 when
    that is below the first nonzero shift 1e-8 max|diag H|, and rises to that
    shift from 0, then x10 each time, until banded_solve factors, at most
    MAX_SHIFTS rungs.

    A rung is skipped, not factored, when the phase modes prove H + mu I
    indefinite: the N plane-constant phase vectors (M+1 ones each) have the
    Ritz matrix K/(M+1), K = D^T diag(c) D with c from
    assemble_banded_hessian, and lambda_min(H) <= lambda_min(K)/(M+1).
    The test adds the rounding margin (bw+1)^3 eps (max|diag H| + mu), which
    bounds both the backward error of a banded Cholesky that succeeds
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3) and
    the rounding of the band, so a skipped rung is one that banded_solve
    refuses, and the accepted shift is the same.  At r = 0, K = 0 and every
    rung is factored.  Each failed factorization adds one to
    counts["shifts"], each skipped rung one to counts["skipped"].  Returns
    (d, mu) with the shift that factored, or (None, mu_last) if no shift
    factors or d is not finite; raises NonFinite for a non-finite band."""
    ab, bw, c = assemble_banded_hessian(*_x_to_arrays(x, layout), params, grid,
                                        phase_curvature=True)
    if not np.isfinite(ab).all():
        raise NonFinite("non-finite Hessian band")
    scale = float(abs(ab[bw]).max())
    floor = 1e-8 * (scale or 1.0)
    margin = (bw + 1) ** 3 * EPS
    ritz = c.tolist()
    mu = mu_last / 10.0 if mu_last / 10.0 >= floor else 0.0
    for _ in range(MAX_SHIFTS):
        if _ritz_skips(ritz, layout.M + 1, mu + margin * (scale + mu)):
            counts["skipped"] += 1
        else:
            d = banded_solve(ab, -g, True, mu)
            if d is not None:
                return (d, mu) if np.isfinite(d).all() else (None, mu_last)
            counts["shifts"] += 1
        mu = floor if mu == 0.0 else 10.0 * mu
    return None, mu_last


def minimize(state0: LayeredState, params: LdParameters, grid: Grid1D,
             tol: float = 1e-8, max_iter: int = 4000) -> MinimizeReport:
    """Energy descent by modified Newton steps with Armijo backtracking.

    Each step solves the Levenberg-shifted banded Newton system (see
    _shifted_newton, Cholesky), starting from a tenth of the shift the last
    step accepted (the Levenberg-Marquardt damping update) and skipping the
    shifts the phase modes prove indefinite, and backtracks along it on the
    energy.  When no shift factors, the direction is not a
    descent direction or its line search stalls, the step is one
    steepest-descent step under the same line search instead.  Every step lowers the energy, so the descent ends
    at minima.

    Terminates when the sup-norm of the gradient drops to tol or the
    iteration budget runs out.  The energy trace is nonincreasing; a
    stalled steepest-descent line search returns the best state so far
    with converged=False.
    """
    state0.check_grid(params, grid)
    layout = Layout.build(params.num_gaps, grid.M)
    fun = _flat_functions(params, grid, layout)

    x = _state_to_x(state0, layout)
    e, g = fun(x)
    if not (math.isfinite(e) and np.isfinite(g).all()):
        raise NonFinite("non-finite energy or gradient at the start state")

    energies = [e]
    gnorms = [float(abs(g).max())]
    steps: list[float] = []
    counts = {"newton": 0, "steepest": 0, "shifts": 0, "skipped": 0}
    failures = 0
    iterations = 0
    mu = 0.0

    while gnorms[-1] > tol and iterations < max_iter:
        step = None
        d, mu = _shifted_newton(x, g, params, grid, layout, counts, mu_last=mu)
        slope = float(g @ d) if d is not None else 0.0
        if slope < 0.0:
            step = _armijo(fun, _energy_merit, x, e, d, slope)
        if step is not None:
            counts["newton"] += 1
        else:
            step = _armijo(fun, _energy_merit, x, e, -g, -float(g @ g))
            if step is None:
                failures += 1
                break
            counts["steepest"] += 1
        x, e, g, t = step
        if not np.isfinite(g).all():
            raise NonFinite("non-finite gradient during descent")
        iterations += 1
        energies.append(e)
        gnorms.append(float(abs(g).max()))
        steps.append(t)

    log.debug("minimize: %d iterations (%d Newton, %d steepest), %d Levenberg "
              "shifts, %d skipped, |g|inf %.3e", iterations, counts["newton"],
              counts["steepest"], counts["shifts"], counts["skipped"], gnorms[-1])
    return MinimizeReport(
        state=_x_to_state(x, layout),
        iterations=iterations,
        grad_norm=gnorms[-1],
        energy=e,
        converged=bool(gnorms[-1] <= tol),
        line_search_failures=failures,
        energy_trace=np.asarray(energies),
        grad_trace=np.asarray(gnorms),
        step_trace=np.asarray(steps),
        newton_steps=counts["newton"],
        steepest_steps=counts["steepest"],
        levenberg_shifts=counts["shifts"],
        skipped_shifts=counts["skipped"],
    )


def assemble_banded_hessian(f: np.ndarray, phi: np.ndarray, a: np.ndarray,
                            params: LdParameters, grid: Grid1D,
                            phase_curvature: bool = False) -> tuple:
    """Assemble the free-DOF Hessian at the raw arrays (f, phi, a) of a
    gauge-fixed state in LAPACK banded storage ab[bw + i - j, j] = H[i, j]
    straight from the stencil, in O(n).

    The Hessian is a sum of local blocks: per plane and midpoint a 5x5
    block from (f')^2 and V^2 fm^2, the node term 2 p w (3 f^2 - 1) on the
    f diagonal, per gap and node a 4x4 Josephson block, and per gap and
    midpoint a 2x2 field block (their variables are listed above
    _MID_PAIRS).  One bincount sums the upper triangle of every block into
    the lower band, which is then mirrored: the band is exactly symmetric
    and its entries outside the matrix are exactly 0.  Returns (ab, bw), or
    with phase_curvature (ab, bw, c): c_n is the x-sum of the Josephson
    phase curvature r p w f_n f_n-1 cos Phi_n of gap n (see _ritz_skips)."""
    N, M = params.num_gaps, grid.M
    p, kappa, r = params.spacing, params.kappa, params.coupling
    dx = grid.dx
    wt = grid.trapezoid_weights()
    layout = Layout.build(N, M)
    n, bw = layout.size, layout.bandwidth

    # Midpoint blocks: c ((f_m+1 - f_m)/dx)^2 + c V^2 fm^2.
    c = p * dx / kappa**2
    V, fm, Phi, _ = _fields(f, phi, a, params, grid)
    ff = 0.5 * c * V**2
    stiff = 2.0 * c / dx**2
    aa = 2.0 * c * fm**2
    fa = 2.0 * c * V * fm
    pp, pa, fp = aa / dx**2, aa / dx, fa / dx
    ffs, nfp, nfa = ff + stiff, -fp, -fa
    mid = np.array([ffs, ffs, ff - stiff, pp, pp, -pp, aa, pa, -pa, nfp, fp,
                    nfp, fp, nfa, nfa])

    # Josephson blocks: (r p w / 2) (f_n^2 + f_n-1^2 - 2 f_n f_n-1 cos Phi).
    jw = (r * p * wt)[None].repeat(N, axis=0)
    jc = jw * np.cos(Phi)
    js = jw * np.sin(Phi)
    fu, fl = f[1:], f[:-1]
    jpp = fu * fl * jc
    jos = np.array([jw, jw, -jc, -fu * js, fu * js, -fl * js, fl * js, jpp, jpp,
                    -jpp])

    # Node term p w (f^2 - 1)^2 / 2; field blocks (p dx / kappa^2)
    # ((a_n - a_n-1)/p - H)^2.
    node = 2.0 * p * wt * (3.0 * f**2 - 1.0)
    s = 2.0 * dx / (kappa**2 * p)
    values = np.concatenate([mid.ravel(), node.ravel(), jos.ravel(),
                             np.array([s, s, -s]).repeat(N * M)])
    # The last bin collects the entries on the gauge-fixed phi_0.
    ab = np.bincount(_band_index_cached(N, M), values,
                     minlength=(2 * bw + 1) * n + 1)[:-1].reshape(2 * bw + 1, n)
    for k in range(1, bw + 1):
        ab[bw - k, k:] = ab[bw + k, :n - k]
    if phase_curvature:
        return ab, bw, jpp.sum(axis=1)
    return ab, bw


def _start_vector(n: int) -> np.ndarray:
    """The fixed Lanczos start vector: splitmix64 of 1..n mapped to
    [-1/2, 1/2).  It is pseudo-random without numpy.random, so it has no
    symmetry (the stack is symmetric under x -> -x, and a symmetric start
    would miss the odd modes)."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5


def _band_matvec(mb: np.ndarray, offsets: list[int], x: np.ndarray) -> np.ndarray:
    """M x for the symmetric M in the (2*bw+1, n) band mb, through its
    diagonal and the subdiagonals at offsets (the others are zero)."""
    bw = (mb.shape[0] - 1) // 2
    y = mb[bw] * x
    for k in offsets:
        e = mb[bw + k, :-k]
        y[k:] += e * x[:-k]
        y[:-k] += e * x[k:]
    return y


@one_blas_thread
def nearest_eigenvalues(ab: np.ndarray, k: int, sigma: float,
                        M: np.ndarray) -> np.ndarray:
    """The k eigenvalues nearest sigma, ascending, of the symmetric pencil
    (A, M), with A and M given by their (2*bw+1, n) bands
    ab[bw + i - j, j] = A[i, j], M positive definite: the spectral-gap
    pencil of validity.gap_spectrum.

    Shift-invert Lanczos (Ericsson & Ruhe 1980) on one banded LU
    factorization (LAPACK dgbtrf) of A - sigma M: the operator
    C = (A - sigma M)^-1 M is self-adjoint in the M inner product, and its
    largest eigenvalues theta in modulus give lambda = sigma + 1/theta.
    The basis is M-orthonormal: each step follows the three-term recurrence
    with one full classical Gram-Schmidt pass against the whole basis (in
    einsum: NumPy's BLAS would add ~5 MiB of buffers), and M x goes through
    the nonzero diagonals of M only.  The basis grows from a fixed start
    vector, so repeated calls return identical values.  The Ritz values of
    the tridiagonal come from dsyevr; the iteration stops when the residual
    estimate beta |s_last| of each wanted one is at most LANCZOS_TOL |theta|
    (ARPACK's test at its default tolerance), or when the basis spans the
    whole space.  Runs on one OpenBLAS thread, like banded_solve.  Raises
    FactorizationFailure when A - sigma M does not factor, when the values
    are not finite, or when LANCZOS_MAX_BASIS vectors do not converge."""
    bw, n = (ab.shape[0] - 1) // 2, ab.shape[1]
    shifted = np.zeros((3 * bw + 1, n), order="F")  # bw fill rows, then A
    shifted[bw:] = ab - sigma * M
    offsets = (M[bw + 1:].any(axis=1).nonzero()[0] + 1).tolist()
    lu, piv, info = flapack.dgbtrf(shifted, bw, bw, overwrite_ab=True)
    if info != 0:
        raise FactorizationFailure(f"banded LU of the shifted matrix failed (info {info})")

    cap = min(n, LANCZOS_MAX_BASIS)
    Q = np.empty((cap, n))  # the basis, one vector per row
    P = np.empty((cap, n))  # M Q
    alpha, beta = np.empty(cap), np.empty(cap)
    w = _start_vector(n)
    z = _band_matvec(M, offsets, w)
    b = math.sqrt(float(np.einsum("i,i", w, z)))
    worst = math.inf
    for j in range(cap):
        np.multiply(w, 1.0 / b, out=Q[j])
        np.multiply(z, 1.0 / b, out=P[j])
        # C q_j, then the three-term recurrence and one full Gram-Schmidt
        # pass in the M inner product.
        w = flapack.dgbtrs(lu, bw, bw, P[j], piv)[0]
        alpha[j] = a = float(np.einsum("i,i", P[j], w))
        w -= a * Q[j]
        if j:
            w -= b * Q[j - 1]
        w -= np.einsum("ij,i->j", Q[:j + 1], np.einsum("ij,j->i", P[:j + 1], w))
        z = _band_matvec(M, offsets, w)
        beta[j] = b = math.sqrt(max(float(np.einsum("i,i", w, z)), 0.0))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise FactorizationFailure("shift-invert eigensolve gave non-finite values")
        if j + 1 < k:
            continue
        m = j + 1
        T = np.zeros((m, m))  # the tridiagonal, its upper half
        T.flat[::m + 1] = alpha[:m]
        T.flat[1::m + 1] = beta[:j]
        theta, s, *_, info = flapack.dsyevr(T, compute_v=1)
        if info != 0:
            raise FactorizationFailure(
                f"shift-invert eigensolve failed: tridiagonal dsyevr (info {info})")
        wanted = np.argsort(-abs(theta), kind="stable")[:k]
        theta = theta[wanted]
        worst = float((b * abs(s[-1, wanted]) / abs(theta)).max())
        if worst <= LANCZOS_TOL or m == n:
            log.debug("nearest_eigenvalues: k %d, sigma %g, basis %d, worst "
                      "residual estimate %.3e", k, sigma, m, worst)
            return np.sort(sigma + 1.0 / theta)
        if b == 0.0:
            break
    raise FactorizationFailure(
        f"shift-invert eigensolve failed: {k} eigenvalues near {sigma:g} did "
        f"not converge in {cap} Lanczos vectors (worst residual estimate "
        f"{worst:.3e})")


def _eigvalsh(S: np.ndarray) -> np.ndarray:
    """scipy.linalg.eigvalsh(S) to the bit: dsyevr with the workspace it asks for."""
    lwork, liwork, _ = flapack.dsyevr_lwork(S.shape[0], lower=1)
    w, *_, info = flapack.dsyevr(S, compute_v=0, lower=1, lwork=int(lwork), liwork=liwork)
    if info != 0 or not np.isfinite(w).all():
        raise FactorizationFailure(f"symmetric eigensolve failed (info {info})")
    return w


def inertia(state: LayeredState, params: LdParameters, grid: Grid1D) -> int:
    """Number of negative eigenvalues of the free-DOF Hessian H.  The N
    phases p at the middle grid column are pinned (three slots apart in the
    packing, over a band width from both ends as M >= 16); one banded_solve
    (dpbsv, N right-hand sides) on the other DOFs f gives
    X = H_ff^-1 H_fp, and with H_ff positive definite the count, the Morse
    index, is that of the Schur complement H_pp - H_fp^T X (Haynsworth).
    Otherwise the phases are not the only soft modes, and it raises
    FactorizationFailure."""
    ab, bw = assemble_banded_hessian(state.f, state.phi, state.a, params, grid)
    pin = Layout.build(params.num_gaps, grid.M).idx_phi[:, grid.M // 2]
    rows = pin[:, None] + np.arange(-bw, bw + 1)  # H[rows[k], pin[k]] = ab[:, pin[k]]
    k = np.arange(pin.size)[:, None]
    E = np.zeros((ab.shape[1], pin.size), order="F")
    E[rows, k] = ab[:, pin].T
    H_pp, E[pin] = E[pin], 0.0
    # ab becomes H_ff, with the identity on the pinned DOFs.
    ab[:, pin] = ab[bw + pin[:, None] - rows, rows] = 0.0
    ab[bw, pin] = 1.0
    X = banded_solve(ab, E, True, 0.0)
    if X is None:
        raise FactorizationFailure(
            "inertia: the pinned Hessian block H_ff is not positive definite")
    # Column k of H_fp is nonzero only on rows[k].  einsum and SciPy's
    # LAPACK: numpy's BLAS would add ~0.5 MiB of buffers.
    schur = _eigvalsh(H_pp - np.einsum("kr,krj->kj", E[rows, k], X[rows]))
    log.debug("inertia: Schur complement eigenvalues %s", schur)
    return int(np.sum(schur < 0.0))


@dataclass(frozen=True)
class CriticalPoint:
    """Converged Newton output: the state, its energy and the residual
    history.  It is not classified; harness.census takes its inertia and
    reduced phases."""

    state: LayeredState
    residual: float
    energy: float
    newton_iterations: int
    residual_history: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {"residual": self.residual, "energy": self.energy,
                "newton_iterations": self.newton_iterations,
                "residual_history": self.residual_history.tolist()}


def default_newton_tol(params: LdParameters) -> float:
    """The Hessian has N eigenvalues of size O(r) near critical points, so
    chasing residuals far below 1e-4*r resolves nothing."""
    return max(1e-10, 1e-4 * params.coupling)


def newton_critical(state0: LayeredState, params: LdParameters, grid: Grid1D,
                    tol: float | None = None, max_newton: int = 60) -> CriticalPoint:
    """Full Newton iteration on grad(energy) = 0 with a direct banded solve.

    Each step assembles the band and solves H d = -g by one banded LU
    (banded_solve, no shift: saddles make H indefinite), then backtracks
    with the descent's Armijo search on the merit |grad|^2.  A failed LU, a
    non-finite step or a stalled search raises NoConvergence at once, with
    the residual it stopped at.  It finds the point and does not classify
    it: inertia and delta_estimate do that (see harness.census).
    Requires r > 0: at r = 0 the Hessian has an exact N-dimensional kernel.
    """
    state0.check_grid(params, grid)
    if params.coupling == 0.0:
        raise SingularHessian("r = 0: the phase manifold gives an exact kernel")
    if tol is None:
        tol = default_newton_tol(params)

    layout = Layout.build(params.num_gaps, grid.M)
    fun = _flat_functions(params, grid, layout)
    x = _state_to_x(state0, layout)
    e, g = fun(x)
    if not np.isfinite(g).all():
        raise NonFinite("non-finite gradient at the Newton start")
    history = [float(abs(g).max())]

    for _ in range(max_newton):
        if history[-1] <= tol:
            break
        ab, _ = assemble_banded_hessian(*_x_to_arrays(x, layout), params, grid)
        d = banded_solve(ab, -g, False, 0.0)
        if d is None or not np.isfinite(d).all():
            what = "failed" if d is None else "gave a non-finite step"
            raise NoConvergence(
                f"Newton step: the banded LU {what} at residual {history[-1]:.3e}")
        m = float(g @ g)
        step = _armijo(fun, _residual_merit, x, m, d, -2.0 * m)
        if step is None:
            raise NoConvergence(
                f"Newton stalled at residual {history[-1]:.3e} (tol {tol:.1e})")
        x, e, g, _ = step
        history.append(float(abs(g).max()))

    if history[-1] > tol:
        raise NoConvergence(
            f"Newton used {max_newton} iterations, residual {history[-1]:.3e} > tol {tol:.1e}")

    return CriticalPoint(state=_x_to_state(x, layout), residual=history[-1],
                         energy=e, newton_iterations=len(history) - 1,
                         residual_history=np.asarray(history))
