"""Minimization and critical-point search over the free DOFs.

The solvers work on the flat vector of free DOFs that state.Layout packs
from a gauge-fixed state and hand the kernels the whole (f, phi, a) it
unpacks.  The packing is plane-major, so the Hessian is a symmetric banded
matrix with bandwidth 3N+3: couplings reach at most one grid column and
one plane away.  The band is the one Hessian of the package, assembled
straight from the stencil: every energy term is local, so its second
derivatives form small dense blocks that one bincount sums into the band
in O(n).  hessian_apply is its product with packed directions.
Minimization and the saddle search share the band, its one-call LAPACK solve
(banded_solve) and one Armijo backtracking search (_armijo).  A descent step
raises a Levenberg shift mu until H + mu I factors by Cholesky (dpbsv) and
searches on the energy; a Newton step solves H d = -g once by banded LU
(dgbsv), as saddles make H indefinite, and searches on |grad|^2.  Each trial
point costs one call of the energy kernel (energy.energy_arrays), whose
gradient the accepted trial hands to the next step.  Descent takes Newton
steps because the Hessian mixes N eigenvalues of size O(r) along the phase
torus with stiff modes of size O(1/(kappa dx)^2), which a gradient-based
descent crawls across.  For the same reason every solve stops by one rule:
stop_tol on the residual, scaled with r, and CORRECTION_TOL on the Newton
correction from the last step's factor.

Those N soft modes also say where the descent's shift starts.  The
plane-constant phase vectors have the Ritz matrix K/(M+1), K = D^T diag(c) D
with D the gap difference and c_n the x-sum of the Josephson curvature
r p w f_n f_n-1 cos Phi_n; at a seed c_n = r (2 sin HpL / H) cos delta_n +
O(r^2), so K/r is the discrete form of the paper's reduced Hessian
T^T diag((2 sin HpL / H) cos delta_n) T.  Since lambda_min(H) <=
lambda_min(K)/(M+1), no shift below -lambda_min(K)/(M+1) factors; each step
starts at twice that bound or at a tenth of the last accepted shift,
whichever is larger, so next to a saddle of the reduced energy it leaves
along the negative mode instead of creeping off it at |g|/mu per step (More
& Sorensen, Math. Prog. 16 (1979) 1; Nocedal & Wright (2006) 3.4).

Inertia is the discrete Lyapunov-Schmidt reduction: with one phase per plane
pinned, a Hessian whose other block factors by Cholesky has the inertia of
the NxN Schur complement on the pinned phases (Haynsworth), the Morse index
from one banded solve; where that block is indefinite, inertia raises.
Shift-invert Lanczos on a banded Cholesky (nearest_eigenvalues) solves the
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
from .errors import (FactorizationFailure, InvalidParameters, NoConvergence,
                     NonFinite, ShapeMismatch, SingularHessian)
from .energy import _check, energy_arrays
from .observables import _fields
from .params import Grid1D, LdParameters
from .state import LayeredState, Layout

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
MAX_SHIFTS = 20  # Levenberg escalations tried per descent step
#: Step budget of every descent.  The longest descent of the tests, of
#: `ldvortex check` and of the small-coupling cloud takes 32 steps.
MAX_DESCENT_STEPS = 500
#: Step budget of newton_critical: three times the 4 steps of its longest
#: converging run in the tests and `ldvortex check`.  From a seed O(r^2)
#: from its point Newton converges quadratically in a step or two; a run
#: still short of tol after this many steps has lost its point.
MAX_NEWTON_STEPS = 12
#: The distance half of the stopping rule: the simplified Newton correction
#: |F^-1 g|inf, F the factor of the last step, estimates the distance to the
#: critical point (Deuflhard, Newton Methods for Nonlinear Problems, 2004,
#: 2.1), and the census matches descent ends within 1e-3 of a point
#: (match_threshold): 1e-5 keeps each end a hundred times inside that.
CORRECTION_TOL = 1e-5
LANCZOS_MAX_BASIS = 200  # Lanczos vectors before nearest_eigenvalues gives up
LANCZOS_TOL = float(np.finfo(float).eps)  # relative Ritz residual estimate

log = logging.getLogger("ldvortex")


def __getattr__(name: str):
    # scipy.linalg as `sla`, imported when read: only perfbench/spans.py reads it.
    if name == "sla":
        import scipy.linalg
        return scipy.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Upper-triangle entries (row, column) of the local Hessian blocks, in the
# order _scatter_band takes their values.  Midpoint block over
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
    _scatter_band writes, always in the lower triangle
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


def _flat_functions(params: LdParameters, grid: Grid1D, layout: Layout):
    """The kernel over packed free DOFs: x -> (energy, gradient, (f, phi,
    a)), one energy_arrays call; the band and the final state reuse the
    unpacked arrays."""

    def fun(x: np.ndarray) -> tuple[float, np.ndarray, tuple]:
        fields = layout.unpack(x)
        (b, j, fl), grads = energy_arrays(*fields, params, grid)
        return b + j + fl, layout.pack(*grads), fields

    return fun


@dataclass(frozen=True)
class MinimizeReport:
    """Descent outcome with the full per-iteration trace.  Every iteration
    is a Newton or a steepest-descent step; levenberg_shifts counts the
    Cholesky factorizations that failed; correction is the final Newton
    correction (NaN where none was taken)."""

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
    correction: float = math.nan

    def to_dict(self) -> dict:
        return {"iterations": self.iterations, "grad_norm": self.grad_norm,
                "energy": self.energy, "converged": self.converged,
                "line_search_failures": self.line_search_failures,
                "newton_steps": self.newton_steps,
                "steepest_steps": self.steepest_steps,
                "levenberg_shifts": self.levenberg_shifts,
                "correction": self.correction}


def _armijo(fun, merit, x: np.ndarray, m: float, d: np.ndarray, slope: float):
    """Backtrack t = 1, 1/2, ... along d, one kernel call fun(x + t d) =
    (e, g, fields) per trial, until merit(e, g) (the energy for minimize,
    |g|^2 for newton_critical) drops below m by at least ARMIJO_C * t *
    slope; returns (x_new, e_new, g_new, fields, t), or None on a stall."""
    t, x_new = 1.0, x + d
    for _ in range(MAX_BACKTRACKS):
        e_new, g_new, fields = fun(x_new)
        m_new = merit(e_new, g_new)
        if math.isfinite(m_new) and m_new <= m + ARMIJO_C * t * slope:
            return x_new, e_new, g_new, fields, t
        t *= BACKTRACK
        x_new = x + t * d
    return None


def _energy_merit(e: float, g: np.ndarray) -> float:
    return e


def _residual_merit(e: float, g: np.ndarray) -> float:
    return float(g @ g)


@one_blas_thread
def banded_solve(ab: np.ndarray, rhs: np.ndarray, definite: bool,
                 mu: float) -> tuple | None:
    """Solve (H + mu I) x = rhs for H in the (2*bw+1, n) band of
    assemble_banded_hessian, factoring and solving in one LAPACK driver
    call: dpbsv on the upper half when definite (its success is the
    positive-definiteness test), dgbsv otherwise.  These are the routines
    that scipy.linalg's cholesky_banded/cho_solve_banded and solve_banded
    call, so x is the same to the bit; no finiteness check is made.
    Returns (x, resolve), resolve(b) = (H + mu I)^-1 b by one dpbtrs or
    dgbtrs on the factor dpbsv or dgbsv made, or None when the factorization
    fails.  Runs on one OpenBLAS thread: at bandwidth 27 (N = 8) two
    threads make dpbsv several times slower."""
    bw = (ab.shape[0] - 1) // 2
    if definite:
        upper = np.array(ab[:bw + 1], order="F")
        upper[bw] += mu
        factor, x, info = flapack.dpbsv(upper, rhs, overwrite_ab=True)

        def resolve(b):
            return flapack.dpbtrs(factor, b)[0]
    else:
        full = np.zeros((3 * bw + 1, ab.shape[1]), order="F")  # bw fill rows
        full[bw:] = ab
        full[2 * bw] += mu
        lu, piv, x, info = flapack.dgbsv(bw, bw, full, rhs, overwrite_ab=True)

        def resolve(b):
            return flapack.dgbtrs(lu, bw, bw, b, piv)[0]
    return (x, resolve) if info == 0 else None


def stop_tol(params: LdParameters) -> float:
    """The residual half of the stopping rule of every solve, |grad|inf <=
    3e-6 r clipped to [3e-12, 1e-9]; CORRECTION_TOL is the other half.  The
    phase modes have curvature O(r), so a residual g leaves the phases
    O(g / r) from the point, which the correction measures; the floor stays
    far above the rounding of the gradient.  At r = 0 H has an exact kernel,
    and the correction uses the shifted factor that the descent accepted."""
    return max(3e-12, min(1e-9, 3e-6 * params.coupling))


def _correction(resolve, g: np.ndarray) -> float:
    """|F^-1 g|inf through resolve from banded_solve, NaN without one."""
    return float(abs(resolve(g)).max()) if resolve else math.nan


def _shifted_newton(fields: tuple, g: np.ndarray, params: LdParameters,
                    grid: Grid1D, counts: dict[str, int],
                    mu_last: float = 0.0) -> tuple:
    """The descent step: solve (H + mu I) d = -g by Cholesky on the banded
    Hessian at (f, phi, a), assembled once.  mu starts at the larger of
    mu_last / 10 (0 below the floor 1e-8 max|diag H|) and
    2 max(0, -lambda_K), and rises to max(floor, 10 mu) each time
    banded_solve refuses it (one more in counts["shifts"]), at most
    MAX_SHIFTS rungs.  lambda_K, the smallest eigenvalue of the Ritz matrix
    K/(M+1) of the N plane-constant phase vectors, is one dstev (c_0/(M+1)
    at N = 1); as lambda_min(H) <= lambda_K, no lower shift factors.  At
    r = 0, K = 0 and the floor shifts the kernel of H.  Returns (solved, mu),
    solved = (d, resolve) from banded_solve at the shift mu, or
    (None, mu_last) if no shift factors or d is not finite; raises
    NonFinite for a non-finite band."""
    ab, bw, c = assemble_banded_hessian(*fields, params, grid)
    if not np.isfinite(ab[:bw + 1]).all():  # the upper half holds every entry
        raise NonFinite("non-finite Hessian band")
    floor = 1e-8 * (float(abs(ab[bw]).max()) or 1.0)
    e = -c[1:]  # K = D^T diag(c) D: off-diagonal -c_n+1, diagonal c_n + c_n+1
    c[:-1] -= e
    lam = (flapack.dstev(c, e, compute_v=0)[0][0] if e.size else c[0]) / (grid.M + 1)
    mu = max(mu_last / 10.0 if mu_last / 10.0 >= floor else 0.0, -2.0 * float(lam))
    for _ in range(MAX_SHIFTS):
        solved = banded_solve(ab, -g, True, mu)
        if solved is not None:
            return (solved, mu) if np.isfinite(solved[0]).all() else (None, mu_last)
        counts["shifts"] += 1
        mu = max(floor, 10.0 * mu)
    return None, mu_last


def minimize(state0: LayeredState, params: LdParameters, grid: Grid1D,
             tol: float | None = None,
             max_iter: int = MAX_DESCENT_STEPS) -> MinimizeReport:
    """Energy descent by modified Newton steps with Armijo backtracking.

    Each step solves the Levenberg-shifted banded Newton system (see
    _shifted_newton, Cholesky), starting from a tenth of the shift the last
    step accepted (the Levenberg-Marquardt damping update) or from twice the
    negative phase curvature, and backtracks along it on the energy.  When
    no shift factors, the direction is not a descent direction or its line
    search stalls, the step is one steepest-descent step under the same
    line search instead.  Every step lowers the energy, and the descent ends
    by the stopping rule: a minimum from a generic start, but from a seed
    next to a saddle possibly that saddle (below H_1 the desk stack's
    delta = pi seed stops at its index-2 saddle in one step).

    state0 must be gauge fixed.  The descent stops where |g|inf <= tol
    (stop_tol(params) by default) and the simplified Newton correction
    |F^-1 g|inf, F the last step's Cholesky factor (shifted where H is
    not definite, as at r = 0), is at most CORRECTION_TOL; a start within
    tol has no factor and is returned as it is.  It stops short after
    max_iter steps (MAX_DESCENT_STEPS by default, `ldvortex minimize
    --max-iter` sets it); a NaN tol raises InvalidParameters.  The energy
    trace is nonincreasing; a stalled steepest-descent line search returns
    the best state so far with converged=False.  At debug level it logs
    |g|inf, mu, t and the correction of every step.
    """
    tol = stop_tol(params) if tol is None else tol
    if math.isnan(tol):
        raise InvalidParameters("tol must not be NaN")
    state0.check_grid(params, grid)
    layout = Layout.build(params.num_gaps, grid.M)
    fun = _flat_functions(params, grid, layout)

    x = layout.pack_state(state0)
    e, g, fields = fun(x)
    if not (math.isfinite(e) and np.isfinite(g).all()):
        raise NonFinite("non-finite energy or gradient at the start state")

    energies = [e]
    gnorms = [float(abs(g).max())]
    steps: list[float] = []
    counts = {"newton": 0, "steepest": 0, "shifts": 0}
    failures = 0
    iterations = 0
    mu = 0.0
    correction = math.nan
    done = gnorms[-1] <= tol
    debug = log.isEnabledFor(logging.DEBUG)

    while not done and iterations < max_iter:
        step = None
        solved, mu = _shifted_newton(fields, g, params, grid, counts, mu_last=mu)
        d, resolve = solved or (None, None)
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
        x, e, g, fields, t = step
        if not np.isfinite(g).all():
            raise NonFinite("non-finite gradient during descent")
        iterations += 1
        energies.append(e)
        gnorms.append(float(abs(g).max()))
        steps.append(t)
        correction = _correction(resolve, g) if gnorms[-1] <= tol or debug else math.nan
        done = gnorms[-1] <= tol and correction <= CORRECTION_TOL
        if debug:
            log.debug("minimize step %d: |g|inf %.3e, mu %.3e, t %g, correction %.3e",
                      iterations, gnorms[-1], mu, t, correction)

    if debug:
        log.debug("minimize: %d iterations (%d Newton, %d steepest), %d Levenberg "
                  "shifts, |g|inf %.3e, correction %.3e", iterations, counts["newton"],
                  counts["steepest"], counts["shifts"], gnorms[-1], correction)
    return MinimizeReport(
        state=LayeredState(*fields),
        iterations=iterations,
        grad_norm=gnorms[-1],
        energy=e,
        converged=done,
        line_search_failures=failures,
        energy_trace=np.asarray(energies),
        grad_trace=np.asarray(gnorms),
        step_trace=np.asarray(steps),
        newton_steps=counts["newton"],
        steepest_steps=counts["steepest"],
        levenberg_shifts=counts["shifts"],
        correction=correction,
    )


def assemble_banded_hessian(f: np.ndarray, phi: np.ndarray, a: np.ndarray,
                            params: LdParameters, grid: Grid1D) -> tuple:
    """Assemble the free-DOF Hessian at the raw arrays (f, phi, a) of a
    gauge-fixed state in LAPACK banded storage ab[bw + i - j, j] = H[i, j]
    straight from the stencil, in O(n).

    The Hessian is a sum of local blocks: per plane and midpoint a 5x5
    block from (f')^2 and V^2 fm^2, the node term 2 p w (3 f^2 - 1) on the
    f diagonal, per gap and node a 4x4 Josephson block, and per gap and
    midpoint a 2x2 field block (their variables are listed above
    _MID_PAIRS), which _scatter_band sums into an exactly symmetric band.
    Returns (ab, bw, c): c_n is the x-sum of the Josephson phase curvature
    r p w f_n f_n-1 cos Phi_n of gap n (see _shifted_newton)."""
    N, M = params.num_gaps, grid.M
    p, kappa, r = params.spacing, params.kappa, params.coupling
    dx = grid.dx
    wt = grid.trapezoid_weights()
    bw = Layout.build(N, M).bandwidth

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
    ab = _scatter_band(N, M, np.concatenate([mid.ravel(), node.ravel(), jos.ravel(),
                                             np.array([s, s, -s]).repeat(N * M)]))
    return ab, bw, jpp.sum(axis=1)


def _scatter_band(N: int, M: int, values: np.ndarray) -> np.ndarray:
    """The (2*bw+1, n) band of the Hessian or the gap norm matrix, whose
    block entries values lists as _band_index_cached places them (per
    _MID_PAIRS, node, _JOS_PAIRS, _FLD_PAIRS).  One bincount sums them into
    the lower band, which is then mirrored: the band is exactly symmetric
    and its entries outside the matrix are exactly 0."""
    layout = Layout.build(N, M)
    n, bw = layout.size, layout.bandwidth
    # The last bin collects the entries on the gauge-fixed phi_0.
    ab = np.bincount(_band_index_cached(N, M), values,
                     minlength=(2 * bw + 1) * n + 1)[:-1].reshape(2 * bw + 1, n)
    for k in range(1, bw + 1):
        ab[bw - k, k:] = ab[bw + k, :n - k]
    return ab


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


def _band_matvec(mb: np.ndarray, offsets: range | list[int],
                 x: np.ndarray) -> np.ndarray:
    """M x for the symmetric M in the (2*bw+1, n) band mb, through its
    diagonal and the subdiagonals at offsets (the others are zero).  x may
    carry leading axes; each row of the product is the product of that row
    alone, to the bit."""
    bw = (mb.shape[0] - 1) // 2
    y = mb[bw] * x
    for k in offsets:
        e = mb[bw + k, :-k]
        y[..., k:] += e * x[..., :-k]
        y[..., :-k] += e * x[..., k:]
    return y


def hessian_apply(state: LayeredState, v: np.ndarray, params: LdParameters,
                  grid: Grid1D) -> np.ndarray:
    """The Hessian-vector product H v over the free DOFs, through the band
    of assemble_banded_hessian at the state.  v is packed by Layout and may
    carry leading axes, e.g. (k, n) for k directions; the products carry
    the same ones, each equal to the product along that direction alone
    to the bit."""
    _check(state, params, grid)
    layout = Layout.build(params.num_gaps, grid.M)
    if v.shape[-1:] != (layout.size,):
        raise ShapeMismatch(f"direction has shape {v.shape}, expected (..., {layout.size})")
    ab, bw, _ = assemble_banded_hessian(state.f, state.phi, state.a, params, grid)
    return _band_matvec(ab, range(1, bw + 1), v)


@one_blas_thread
def nearest_eigenvalues(ab: np.ndarray, k: int, sigma: float,
                        M: np.ndarray) -> np.ndarray:
    """The k eigenvalues nearest sigma, ascending, of the symmetric pencil
    (A, M), with A and M given by their (2*bw+1, n) bands
    ab[bw + i - j, j] = A[i, j], M positive definite and sigma below the
    spectrum (A - sigma M positive definite): the spectral-gap pencil of
    validity.gap_spectrum, A semidefinite and sigma < 0.

    Shift-invert Lanczos (Ericsson & Ruhe 1980) on one banded Cholesky
    factorization (LAPACK dpbtrf) of A - sigma M: the operator
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
    FactorizationFailure when A - sigma M is not positive definite, when
    the values are not finite, or when LANCZOS_MAX_BASIS vectors do not
    converge."""
    bw, n = (ab.shape[0] - 1) // 2, ab.shape[1]
    shifted = np.array(ab[:bw + 1] - sigma * M[:bw + 1], order="F")  # upper half
    offsets = (M[bw + 1:].any(axis=1).nonzero()[0] + 1).tolist()
    chol, info = flapack.dpbtrf(shifted, overwrite_ab=True)
    if info != 0:
        raise FactorizationFailure(f"banded Cholesky of the shifted matrix failed ({info})")

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
        w = flapack.dpbtrs(chol, P[j])[0]
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
    ab, bw, _ = assemble_banded_hessian(state.f, state.phi, state.a, params, grid)
    pin = Layout.build(params.num_gaps, grid.M).idx_phi[:, grid.M // 2]
    rows = pin[:, None] + np.arange(-bw, bw + 1)  # H[rows[k], pin[k]] = ab[:, pin[k]]
    k = np.arange(pin.size)[:, None]
    E = np.zeros((ab.shape[1], pin.size), order="F")
    E[rows, k] = ab[:, pin].T
    H_pp, E[pin] = E[pin], 0.0
    # ab becomes H_ff, with the identity on the pinned DOFs.
    ab[:, pin] = ab[bw + pin[:, None] - rows, rows] = 0.0
    ab[bw, pin] = 1.0
    X, _ = banded_solve(ab, E, True, 0.0) or (None, None)
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
    """Converged Newton output: the state, its energy, the residual
    history and the final Newton correction (NaN where none was taken).  It
    is not classified; harness.census takes its inertia and reduced phases."""

    state: LayeredState
    residual: float
    energy: float
    newton_iterations: int
    residual_history: np.ndarray = field(repr=False)
    correction: float = math.nan

    def to_dict(self) -> dict:
        return {"residual": self.residual, "energy": self.energy,
                "newton_iterations": self.newton_iterations,
                "residual_history": self.residual_history.tolist(),
                "correction": self.correction}


def newton_critical(state0: LayeredState, params: LdParameters, grid: Grid1D,
                    tol: float | None = None) -> CriticalPoint:
    """Full Newton iteration on grad(energy) = 0 with a direct banded solve.

    Each step assembles the band and solves H d = -g by one banded LU
    (banded_solve, no shift: saddles make H indefinite), then backtracks
    with the descent's Armijo search on the merit |grad|^2.  A failed LU, a
    non-finite step or a stalled search raises NoConvergence at once, with
    the residual it stopped at.  It finds the point and does not classify
    it: inertia and delta_estimate do that (see harness.census).  It stops
    where |grad|inf <= tol, stop_tol(params) by default, and the simplified
    Newton correction |H(x_k)^-1 g(x_k+1)|inf from the last step's LU is at
    most CORRECTION_TOL (a start within tol has no factor and is returned),
    and raises NoConvergence when MAX_NEWTON_STEPS steps, each one
    banded_solve, do not reach it.  At debug level it logs every step.
    Requires a gauge-fixed state0 and r > 0: at r = 0 the Hessian has an
    exact N-dimensional kernel.  A NaN tol raises InvalidParameters.
    """
    state0.check_grid(params, grid)
    if params.coupling == 0.0:
        raise SingularHessian("r = 0: the phase manifold gives an exact kernel")
    tol = stop_tol(params) if tol is None else tol
    if math.isnan(tol):
        raise InvalidParameters("tol must not be NaN")

    layout = Layout.build(params.num_gaps, grid.M)
    fun = _flat_functions(params, grid, layout)
    x = layout.pack_state(state0)
    e, g, fields = fun(x)
    if not np.isfinite(g).all():
        raise NonFinite("non-finite gradient at the Newton start")
    history = [float(abs(g).max())]
    correction = math.nan
    done = history[-1] <= tol
    debug = log.isEnabledFor(logging.DEBUG)

    while not done:
        if len(history) > MAX_NEWTON_STEPS:
            raise NoConvergence(
                f"Newton used {MAX_NEWTON_STEPS} iterations, residual {history[-1]:.3e} "
                f"(tol {tol:.1e}), correction {correction:.3e}")
        ab, *_ = assemble_banded_hessian(*fields, params, grid)
        d, resolve = banded_solve(ab, -g, False, 0.0) or (None, None)
        if d is None or not np.isfinite(d).all():
            what = "failed" if d is None else "gave a non-finite step"
            raise NoConvergence(
                f"Newton step: the banded LU {what} at residual {history[-1]:.3e}")
        m = float(g @ g)
        step = _armijo(fun, _residual_merit, x, m, d, -2.0 * m)
        if step is None:
            raise NoConvergence(
                f"Newton stalled at residual {history[-1]:.3e} (tol {tol:.1e})")
        x, e, g, fields, _ = step
        history.append(float(abs(g).max()))
        correction = _correction(resolve, g) if history[-1] <= tol or debug else math.nan
        done = history[-1] <= tol and correction <= CORRECTION_TOL
        if debug:
            log.debug("newton_critical step %d: |g|inf %.3e, correction %.3e",
                      len(history) - 1, history[-1], correction)

    return CriticalPoint(state=LayeredState(*fields),
                         residual=history[-1], energy=e,
                         newton_iterations=len(history) - 1,
                         residual_history=np.asarray(history),
                         correction=correction)
