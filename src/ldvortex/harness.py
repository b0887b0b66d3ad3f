"""Verification experiments: convergence studies, the critical-point
census, field sweeps with transition detection, and flux quantization.

Every experiment is deterministic for fixed seeds; independent jobs
(random starts, field points) can fan out over a process pool and are
merged in deterministic key order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (DegenerateField, FactorizationFailure, InvalidParameters,
                     NoCompleteCycle, NoConvergence)
from .exports import params_dict
from .minimize import default_newton_tol, inertia, minimize, newton_critical
from .observables import delta_estimate, distances, observables, stacked
from .params import Grid1D, LdParameters, default_dx, wrap_to_pi
from .perturbation import (enumerate_seeds, g0, interior_u1_closed_form,
                           seed_state, vortex_plane_delta,
                           vortex_plane_observables)
from .state import LayeredState, random_low_energy_state
from .validity import energy_bound_coefficient

#: Step budget of every experiment descent.  Each step factors a band; the
#: descents of the acceptance census take at most 27 steps.
DESCENT_MAX_ITER = 500
#: Residual tolerance of the census's seed Newton solves.
CENSUS_NEWTON_TOL = 1e-9


def require_jobs(jobs: int) -> None:
    """Raise InvalidParameters unless 1 <= jobs <= the usable cores: the
    pool size of census and field_sweep (--jobs on the command line)."""
    cores = len(os.sched_getaffinity(0))
    if not 1 <= jobs <= cores:
        raise InvalidParameters(
            f"--jobs must be between 1 and the {cores} usable cores, got {jobs}")


def _fan_out(job, args: list, jobs: int) -> list:
    """[job(a) for a in args], run on `jobs` processes when jobs > 1 and
    there are at least two args.  The pool is imported only then: it loads
    multiprocessing and socket, which a jobs = 1 run does without."""
    if jobs > 1 and len(args) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(job, args))
    return [job(a) for a in args]


@dataclass
class ExperimentRecord:
    """Uniform container for experiment outputs."""

    name: str
    parameters: dict
    data: dict = dc_field(default_factory=dict)
    fits: dict = dc_field(default_factory=dict)
    checks: dict = dc_field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.checks.values())

    def to_dict(self) -> dict:
        return {"name": self.name, "parameters": self.parameters,
                "data": self.data, "fits": self.fits, "checks": self.checks,
                "passed": self.passed, "wall_time": self.wall_time}


def _loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x, dtype=float)),
                            np.log(np.asarray(y, dtype=float)), 1)[0])


# ---------------------------------------------------------------------------
# Convergence study.

def convergence_study(params: LdParameters, r_list,
                      dx: float | None = None) -> ExperimentRecord:
    """Sharpness of the small-r expansion: for each coupling, solve the
    vortex-plane branch by Newton from its seed (residual <= 1e-11) and
    record the energy-law gap |E/r - G(0, delta*)| and the sup-norm gaps of
    h, j_z, f and Phi against their closed forms;
    fit log-log slopes (expected 1 for the energy, 2 for the observables;
    Phi is compared modulo one per-gap additive constant)."""
    t0 = time.time()
    r_list = [float(r) for r in r_list]
    if len(r_list) < 3 or any(np.diff(r_list) >= 0):
        raise ValueError("r_list must be decreasing with at least 3 entries")
    if r_list[0] > 0.02:
        raise ValueError("convergence study expects couplings below the expansion scale")
    grid = Grid1D.build(params, dx)
    ds = vortex_plane_delta(params)

    e_gap, h_gap, jz_gap, f_gap, phi_gap, minima, bounds_ok = [], [], [], [], [], [], []
    for r in r_list:
        pr = params.with_coupling(r)
        cp = newton_critical(seed_state(pr, grid, ds), pr, grid, tol=1e-11)
        obs = observables(cp.state, pr, grid)
        ocf = vortex_plane_observables(pr, grid)
        e_gap.append(abs(cp.energy / r - g0(pr, ds)))
        h_gap.append(float(np.max(np.abs(obs.h - ocf.h))))
        jz_gap.append(float(np.max(np.abs(obs.jz - ocf.jz))))
        u_int = interior_u1_closed_form(pr, ds, grid.nodes)
        scale = np.full(pr.num_gaps + 1, 1.0)
        scale[0] = scale[-1] = 0.5
        f_cf = 1.0 + r * scale[:, None] * u_int[None, :]
        f_gap.append(float(np.max(np.abs(cp.state.f - f_cf))))
        dphi = obs.Phi - ocf.Phi
        dphi -= np.mean(dphi, axis=1, keepdims=True)
        phi_gap.append(float(np.max(np.abs(dphi))))
        minima.append(cp.energy)
        bounds_ok.append(cp.energy <= energy_bound_coefficient(pr) * r)

    rec = ExperimentRecord("convergence_study", params_dict(params))
    rec.parameters["dx"] = grid.dx
    rec.data = {"r_list": r_list, "energy_gap": e_gap, "h_gap": h_gap,
                "jz_gap": jz_gap, "f_gap": f_gap, "phi_gap": phi_gap,
                "minima": minima}
    rec.fits = {"n_samples": len(r_list),
                "energy_slope": _loglog_slope(r_list, e_gap),
                "h_slope": _loglog_slope(r_list, h_gap),
                "jz_slope": _loglog_slope(r_list, jz_gap),
                "f_slope": _loglog_slope(r_list, f_gap),
                "phi_slope": _loglog_slope(r_list, phi_gap)}
    rec.checks = {"energy_bound_every_r": all(bounds_ok)}
    rec.wall_time = time.time() - t0
    return rec


# ---------------------------------------------------------------------------
# Critical-point census.

def _circ_dist(a: float, b: float) -> float:
    return abs(float(wrap_to_pi(a - b)))


def _census_descent_job(args) -> dict:
    params, dx, seed = args
    grid = Grid1D.build(params, dx)
    rng = np.random.default_rng(seed)
    start = random_low_energy_state(params, grid, rng)
    rep = minimize(start, params, grid, tol=1e-8, max_iter=DESCENT_MAX_ITER)
    return {"energy": rep.energy, "grad_norm": rep.grad_norm,
            "converged": rep.converged, "state": rep.state}


def census(params: LdParameters, r: float, n_random: int = 50,
           dx: float | None = None, seed: int = 0, jobs: int = 1,
           match_threshold: float = 1e-3) -> ExperimentRecord:
    """Enumerate all low-energy critical points at coupling r.

    Newton from the 2^N perturbative seeds (residual <= CENSUS_NEWTON_TOL),
    required to lie at least 0.1 apart in observable distance, classified
    here: the Morse index by inertia (each its own seed's prediction), the
    reduced phases by delta_estimate.  A seed whose Newton or inertia fails
    is listed in newton_failures.  Then n_random random-start descents, each
    counted as converged or not and matched to a census member.  The energy
    shell is three times the linear upper bound (the analytic cutoff below
    which the census is exhaustive is not constructive).
    """
    t0 = time.time()
    require_jobs(jobs)
    pr = params.with_coupling(float(r))
    if pr.is_degenerate:
        raise DegenerateField(f"census needs sin(HpL) != 0, got HpL = {pr.hpl:.6g}")
    grid = Grid1D.build(pr, dx)
    N = pr.num_gaps

    seeds = enumerate_seeds(pr)
    starts = seed_state(pr, grid, np.array([s.delta.delta for s in seeds]))
    points, inertias, predicted, failures = [], [], [], []
    for s, start in zip(seeds, starts):
        try:
            cp = newton_critical(start, pr, grid, tol=CENSUS_NEWTON_TOL)
            inertias.append(inertia(cp.state, pr, grid))
        except (NoConvergence, FactorizationFailure) as exc:
            failures.append({"delta": s.delta.delta.tolist(), "error": str(exc)})
        else:
            points.append(cp)
            predicted.append(s.predicted_inertia)

    # Pairwise distances one row of the upper triangle at a time: one
    # broadcast over all 32 640 pairs at N = 8 would hold ~130 MB per field.
    n_pts = len(points)
    obs_pts = stacked([observables(c.state, pr, grid) for c in points]) if points else None
    min_pair = min((float(distances(obs_pts[i], obs_pts[i + 1:]).min())
                    for i in range(n_pts - 1)), default=math.inf)
    delta_hat = [delta_estimate(obs_pts[i], pr, grid) for i in range(n_pts)]

    binom = sorted(m for m in range(N + 1) for _ in range(math.comb(N, m)))

    energies = np.array([c.energy for c in points])
    i_min = int(np.argmin(energies)) if n_pts else -1
    ds = vortex_plane_delta(pr)
    min_is_vp = (n_pts == 2**N and inertias[i_min] == 0
                 and all(_circ_dist(dh, ds) < 0.05 for dh in delta_hat[i_min])
                 and inertias.count(0) == 1)

    # Energy order must follow the reduced-energy order (ties grouped).
    order_ok = True
    if n_pts == 2**N:
        g0s = np.array([s.g0 for s in seeds])
        for lo, hi in zip(np.unique(np.round(g0s, 12))[:-1],
                          np.unique(np.round(g0s, 12))[1:]):
            emax_lo = energies[np.isclose(g0s, lo)].max()
            emin_hi = energies[np.isclose(g0s, hi)].min()
            order_ok = order_ok and emax_lo < emin_hi

    # Random-start descents.
    job_args = [(pr, grid.dx, seed * 100003 + 17 * i) for i in range(n_random)]
    descents = _fan_out(_census_descent_job, job_args, jobs)

    shell = 3.0 * energy_bound_coefficient(pr) * pr.coupling
    n_converged = sum(d["converged"] for d in descents)
    match_dists, matched, in_shell = [], 0, 0
    for d in descents:
        dist_min = (float(distances(observables(d["state"], pr, grid), obs_pts).min())
                    if points else math.inf)
        match_dists.append(dist_min)
        matched += dist_min <= match_threshold
        in_shell += bool(d["energy"] <= shell)

    rec = ExperimentRecord("census", params_dict(pr))
    rec.parameters["dx"] = grid.dx
    rec.data = {
        "count": n_pts, "expected": 2**N,
        "residuals": [c.residual for c in points],
        "energies": energies.tolist(),
        "inertias": inertias,
        "delta_hat": [dh.tolist() for dh in delta_hat],
        "newton_iterations": [c.newton_iterations for c in points],
        "min_pairwise_distance": min_pair,
        "newton_failures": failures,
        "n_random": n_random, "n_converged": n_converged, "n_matched": matched,
        "match_distances": match_dists, "n_in_shell": in_shell,
        "energy_shell": shell,
    }
    rec.checks = {
        "census_complete": n_pts == 2**N and not failures,
        "pairwise_distinct": min_pair >= 0.1,
        "residuals_small": all(c.residual <= CENSUS_NEWTON_TOL for c in points),
        "inertia_multiset_binomial": sorted(inertias) == binom,
        "inertia_matches_seed": inertias == predicted,
        "unique_minimizer_is_vortex_plane": bool(min_is_vp),
        "energy_order_matches_g0": bool(order_ok),
        "all_descents_converged": n_converged == n_random,
        "all_descents_matched": matched == n_random,
    }
    rec.wall_time = time.time() - t0
    return rec


# ---------------------------------------------------------------------------
# Field sweep.

def count_interior_maxima(profile: np.ndarray) -> int:
    """Interior local maxima of a 1D profile: rises followed by falls, with
    steps below 1e-12 * max(1, max|y|) taken as flat, so a flat top (or a
    top whose tie is broken by rounding noise) counts once."""
    y = np.asarray(profile, dtype=float)
    dy = np.diff(y)
    dy = dy[np.abs(dy) > 1e-12 * max(1.0, float(np.max(np.abs(y))))]
    return int(np.sum((dy[:-1] > 0.0) & (dy[1:] < 0.0)))


def _extrapolate(x: np.ndarray, y: np.ndarray, x0: float) -> float:
    """The value at x0 of the polynomial of degree len(x) - 1 through (x, y)."""
    return float(np.polyfit(x - x0, y, len(x) - 1)[-1])


def _sweep_point_job(args) -> dict:
    params, H, dx, tol = args
    ph = params.with_field(float(H))
    grid = Grid1D.build(ph, dx)
    best = None
    branches = np.array([[0.0], [math.pi]]).repeat(ph.num_gaps, axis=1)
    for start in seed_state(ph, grid, branches):
        rep = minimize(start, ph, grid, tol=tol, max_iter=DESCENT_MAX_ITER)
        if best is None or rep.energy < best.energy:
            best = rep
    obs = observables(best.state, ph, grid)
    dh = delta_estimate(obs, ph, grid)
    if all(_circ_dist(v, 0.0) < 0.5 * math.pi for v in dh):
        config = 0.0
    elif all(_circ_dist(v, math.pi) < 0.5 * math.pi for v in dh):
        config = math.pi
    else:
        config = math.nan
    # Exact at a critical state (envelope theorem): H is only in the field term.
    dE_dH = -2.0 * ph.spacing * grid.dx / ph.kappa**2 * float((obs.h - H).sum())
    return {"energy": best.energy, "config": config, "dE_dH": dE_dH,
            "delta_hat": dh.tolist(),
            "n_maxima": count_interior_maxima(np.mean(obs.h, axis=0))}


def field_sweep(params: LdParameters, H_grid, dx: float | None = None,
                jobs: int = 1) -> ExperimentRecord:
    """Minimization along an increasing field grid: each field keeps the
    lower of the descents from the seeds delta = 0 and pi (a tie keeps 0).

    Detects the collective flips of the reduced phases (robust first-order
    transition marker), counts interior maxima of h, and measures the
    magnetization jump at each detected transition against
    4 N p^2 L^2 r / (k pi) to 10%: M- and M+ at H_k extrapolate the exact
    dE/dH of each field from the <= 3 nearest fields of its branch.
    """
    t0 = time.time()
    require_jobs(jobs)
    H_grid = np.asarray(H_grid, dtype=float)
    if np.any(np.diff(H_grid) <= 0) or H_grid.size < 8:
        raise InvalidParameters("H_grid must be increasing with enough points to fit")
    steps = math.pi / (params.spacing * params.half_width)
    if any(abs(H - k * steps) < 1e-3
           for H in H_grid for k in range(1, int(H_grid[-1] / steps) + 2)):
        raise InvalidParameters("H_grid passes within 1e-3 of a degenerate field")
    if dx is None:
        dx = default_dx(params.with_field(float(H_grid[-1])))
    tol = 3.0 * default_newton_tol(params) / 10.0  # ~3e-8 at r=1e-3

    results = _fan_out(_sweep_point_job,
                       [(params, H, dx, tol) for H in H_grid], jobs)

    eps = np.array([res["energy"] for res in results])
    dE_dH = np.array([res["dE_dH"] for res in results])
    configs = np.array([res["config"] for res in results])
    maxima = np.array([res["n_maxima"] for res in results])

    flips = [j for j in range(1, len(H_grid))
             if not math.isclose(configs[j], configs[j - 1], abs_tol=1e-9)]
    dH = float(np.min(np.diff(H_grid)))
    transitions = []
    bounds = [0] + flips + [len(H_grid)]
    for i, j in enumerate(flips):
        loc = 0.5 * (H_grid[j - 1] + H_grid[j])
        k = max(1, round(loc / steps))
        Hk = k * steps
        below = slice(max(bounds[i], j - 3), j)
        above = slice(j, min(bounds[i + 2], j + 3))
        m_minus = _extrapolate(H_grid[below], dE_dH[below], Hk)
        m_plus = _extrapolate(H_grid[above], dE_dH[above], Hk)
        jump = abs(m_plus - m_minus)
        predicted = 4.0 * params.num_gaps * params.spacing**2 \
            * params.half_width**2 * params.coupling / (k * math.pi)
        transitions.append({
            "interval": [float(H_grid[j - 1]), float(H_grid[j])],
            "location": float(loc), "k": k, "H_k": Hk,
            "within_one_step": bool(abs(loc - Hk) <= dH),
            "maxima_before": int(maxima[j - 1]), "maxima_after": int(maxima[j]),
            "maxima_increment": int(maxima[j] - maxima[j - 1]),
            "M_minus": m_minus, "M_plus": m_plus, "jump": jump,
            "jump_predicted": predicted,
            "jump_rel_err": abs(jump - predicted) / predicted,
        })

    expected_flips = [k * steps for k in range(1, int(H_grid[-1] / steps) + 1)
                      if H_grid[0] < k * steps < H_grid[-1]]

    rec = ExperimentRecord("field_sweep", params_dict(params))
    rec.parameters["dx"] = dx
    rec.data = {"H_grid": H_grid.tolist(), "epsilon": eps.tolist(),
                "dE_dH": dE_dH.tolist(),
                "configs": configs.tolist(), "n_maxima": maxima.tolist(),
                "delta_hat": [res["delta_hat"] for res in results],
                "transitions": transitions,
                "expected_transitions": expected_flips}
    rec.checks = {
        "found_all_transitions": len(transitions) == len(expected_flips),
        "locations_within_grid_step": all(t["within_one_step"] for t in transitions),
        "collective_flips": bool(np.all(~np.isnan(configs))),
        "maxima_increment_one": all(t["maxima_increment"] == 1 for t in transitions),
        "jumps_within_tolerance": all(t["jump_rel_err"] <= 0.10
                                      for t in transitions),
    }
    rec.wall_time = time.time() - t0
    return rec


# ---------------------------------------------------------------------------
# Flux quantization.

@dataclass(frozen=True)
class CycleFlux:
    gap: int
    x_start: float
    x_end: float
    flux: float

    def to_dict(self) -> dict:
        return {"gap": self.gap, "x_start": self.x_start,
                "x_end": self.x_end, "flux": self.flux}


def flux_check(state: LayeredState, params: LdParameters,
               grid: Grid1D) -> list[CycleFlux]:
    """Flux p * int h dx over every complete Josephson-current cycle.

    A cycle runs between consecutive same-sign zero crossings of j_z in a
    gap; each complete cycle should carry one flux quantum (2*pi).  The
    integral is exact for h interpolated linearly between midpoints.
    """
    obs = observables(state, params, grid)
    out: list[CycleFlux] = []
    for n in range(obs.num_gaps):
        y = obs.jz[n]
        x = grid.mids
        crossings = []
        for k in range(len(y) - 1):
            if y[k] == 0.0 or y[k] * y[k + 1] < 0.0:
                if y[k] == 0.0:
                    xc = x[k]
                else:
                    xc = x[k] - y[k] * (x[k + 1] - x[k]) / (y[k + 1] - y[k])
                crossings.append(xc)
        for xa, xb in zip(crossings, crossings[2:]):
            knots = np.concatenate(([xa], x[(x > xa) & (x < xb)], [xb]))
            hval = np.interp(knots, x, obs.h[n])
            flux = params.spacing * float(np.trapezoid(hval, knots))
            out.append(CycleFlux(n, float(xa), float(xb), flux))
    if not out:
        raise NoCompleteCycle("no complete Josephson cycle inside the sample")
    return out
