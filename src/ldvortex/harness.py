"""Verification experiments: convergence studies, the critical-point
census, field sweeps that locate each first-order transition at the root
of E_pi - E_0, and flux quantization.

Every experiment is deterministic for fixed seeds.  Its descents (from the
census's random starts or the sweep's branch seeds, all built in this
process) run through one job, _descent_job, which can fan out over a
process pool; the results come back in input order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (FactorizationFailure, InvalidParameters, NoCompleteCycle,
                     NoConvergence)
from .exports import params_dict
from .minimize import (MinimizeReport, inertia, minimize, newton_critical,
                       stop_tol)
from .observables import circular_mean, delta_estimate, distances, observables
from .params import Grid1D, LdParameters, default_dx, wrap_angle, wrap_to_pi
from .perturbation import (enumerate_seeds, g0, interior_u1_closed_form,
                           magnetization_jump, nucleation_field,
                           nucleation_fields, seed_state, vortex_plane_delta,
                           vortex_plane_observables)
from .state import LayeredState, random_low_energy_state
from .validity import energy_bound_coefficient


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


def _descent_job(args) -> MinimizeReport:
    """One experiment descent from start to |g|inf <= stop_tol(params),
    within minimize's MAX_DESCENT_STEPS: a random start of census or a
    branch seed of field_sweep."""
    params, grid, start = args
    return minimize(start, params, grid)


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
        raise InvalidParameters("r_list must be decreasing with at least 3 entries")
    if r_list[0] > 0.02:
        raise InvalidParameters(
            "convergence study expects couplings below the expansion scale")
    grid = Grid1D.build(params, dx)
    ds = vortex_plane_delta(params)

    e_gap, h_gap, jz_gap, f_gap, phi_gap, minima, bounds_ok = [], [], [], [], [], [], []
    for r in r_list:
        pr = params.with_coupling(r)
        cp = newton_critical(seed_state(pr, grid, ds), pr, grid, tol=1e-11)
        obs = observables(cp.state, pr, grid)
        ocf = vortex_plane_observables(pr, grid)
        e_gap.append(float(abs(cp.energy / r - g0(pr, ds))))
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
        minima.append(float(cp.energy))
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

def census(params: LdParameters, r: float, n_random: int = 50,
           dx: float | None = None, seed: int = 0, jobs: int = 1,
           match_threshold: float = 1e-3) -> ExperimentRecord:
    """Enumerate all low-energy critical points at coupling r.

    Three passes: Newton from the 2^N perturbative seeds with each point's
    Morse index by inertia (its own seed's prediction), a seed whose Newton
    or inertia fails listed in newton_failures; then n_random descents from
    random starts drawn here (the one pass that fans out over `jobs`); then
    one observables call over the points and the descent ends: points at
    least 0.1 apart in observable distance, delta_hat by delta_estimate,
    each descent matched to a point.  The Newton solves and the descents
    stop at the one rule stop_tol(pr), which tightens with r as the phase
    modes' curvature is O(r), so residuals_small compares with it.  The
    energy shell is three times the linear upper bound (the analytic cutoff
    below which the census is exhaustive is not constructive).  A bad jobs
    count, or a degenerate field (enumerate_seeds raises DegenerateField),
    is refused before any solve.
    """
    t0 = time.time()
    require_jobs(jobs)
    pr = params.with_coupling(float(r))
    grid = Grid1D.build(pr, dx)
    N = pr.num_gaps

    tol = stop_tol(pr)
    deltas, seed_inertias, g0s = enumerate_seeds(pr)
    starts = seed_state(pr, grid, deltas)
    points, inertias, predicted, failures = [], [], [], []
    for delta, seed_inertia, start in zip(deltas, seed_inertias, starts):
        try:
            cp = newton_critical(start, pr, grid, tol=tol)
            inertias.append(inertia(cp.state, pr, grid))
        except (NoConvergence, FactorizationFailure) as exc:
            failures.append({"delta": delta.tolist(), "error": str(exc)})
        else:
            points.append(cp)
            predicted.append(int(seed_inertia))

    rngs = [np.random.default_rng(seed * 100003 + 17 * i) for i in range(n_random)]
    descents = _fan_out(_descent_job, [(pr, grid, random_low_energy_state(pr, grid, rng))
                                       for rng in rngs], jobs)

    # One observables pass over the points followed by the descent ends.
    n_pts = len(points)
    states = [c.state for c in points] + [rep.state for rep in descents]
    obs = observables(states, pr, grid) if states else None
    pts = obs[:n_pts] if points else None
    # Pairwise distances one row of the upper triangle at a time: one
    # broadcast over all 32 640 pairs at N = 8 would hold ~130 MB per field.
    min_pair = min((float(distances(pts[i], pts[i + 1:]).min())
                    for i in range(n_pts - 1)), default=math.inf)
    delta_hat = delta_estimate(pts, pr, grid) if points else np.empty((0, N))
    match_dists = [float(distances(obs[k], pts).min()) if points else math.inf
                   for k in range(n_pts, len(states))]

    binom = sorted(m for m in range(N + 1) for _ in range(math.comb(N, m)))

    energies = np.array([c.energy for c in points])
    i_min = int(np.argmin(energies)) if n_pts else -1
    ds = vortex_plane_delta(pr)
    min_is_vp = (n_pts == 2**N and inertias[i_min] == 0
                 and (abs(wrap_to_pi(delta_hat[i_min] - ds)) < 0.05).all()
                 and inertias.count(0) == 1)

    # Energy order must follow the reduced-energy order (ties grouped).
    levels = np.unique(np.round(g0s, 12))
    order_ok = n_pts != 2**N or all(
        energies[np.isclose(g0s, lo)].max() < energies[np.isclose(g0s, hi)].min()
        for lo, hi in zip(levels[:-1], levels[1:]))

    shell = 3.0 * energy_bound_coefficient(pr) * pr.coupling
    n_converged = sum(rep.converged for rep in descents)
    matched = sum(dist <= match_threshold for dist in match_dists)
    in_shell = sum(bool(rep.energy <= shell) for rep in descents)

    rec = ExperimentRecord("census", params_dict(pr))
    rec.parameters["dx"] = grid.dx
    rec.data = {
        "count": n_pts, "expected": 2**N,
        "residuals": [c.residual for c in points],
        "energies": energies.tolist(),
        "inertias": inertias,
        "delta_hat": delta_hat.tolist(),
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
        "residuals_small": all(c.residual <= tol for c in points),
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


def field_sweep(params: LdParameters, H_grid, dx: float | None = None,
                jobs: int = 1) -> ExperimentRecord:
    """Minimization along an increasing field grid: each field keeps the
    lower of the descents from the seeds delta = 0 and pi (a tie keeps 0).

    Three passes over one grid, which every field shares (L and dx; the
    record holds the grid's dx): the seeds of all fields from one
    seed_state call with one field per member (one dgtsv), then one descent
    per seed, 2K for K fields (the only pass that fans out over `jobs`
    processes), then one observables call over all 2K ends for delta_hat,
    the collective configurations, dE/dH and the maxima of the gap-averaged
    h.  All seeds are held at once, so memory grows as O(len(H_grid) n).
    A grid of fewer than two fields, or one that is not finite, positive
    and increasing, raises InvalidParameters before any solve.

    Each descent stops at stop_tol(params), the census's rule, at a
    critical point of its seed's branch (a saddle where that branch is not
    a minimum), and branches_held checks that every end stays within pi/2
    of its seed configuration in every gap.
    The vortex-plane nucleations are first-order: a transition is a strict
    sign change of E_pi_minus_E_0 = E_pi - E_0 between two fields, located
    at its linear root H*.  dE/dH is exact at a critical point of either
    branch (envelope theorem), so M- and M+ are the dE/dH of the branches
    kept below and above H*, each interpolated linearly to H*; their
    difference is measured against perturbation.magnetization_jump to 10%,
    and H* must lie within 0.05 of the smallest grid step of its nucleation
    field H_k.
    """
    t0 = time.time()
    require_jobs(jobs)
    H_grid = np.asarray(H_grid, dtype=float)
    if (not np.isfinite(H_grid).all() or np.any(np.diff(H_grid) <= 0)
            or H_grid.size < 2 or H_grid[0] <= 0.0):
        raise InvalidParameters("H_grid must be finite, positive and "
                                "increasing with at least 2 points")
    H_ks = nucleation_fields(params, float(H_grid[-1]) + 1e-3)
    if any(abs(H - Hk) < 1e-3 for H in H_grid for Hk in H_ks):
        raise InvalidParameters("H_grid passes within 1e-3 of a degenerate field")
    if dx is None:
        dx = default_dx(params.with_field(float(H_grid[-1])))
    grid = Grid1D.build(params, dx)

    # Rows 2j and 2j + 1 are field j's delta = 0 and pi branches.
    branches = np.tile([[0.0], [math.pi]], (H_grid.size, params.num_gaps))
    H_rows = H_grid.repeat(2)
    seeds = seed_state(params, grid, branches, H_rows)
    ends = _fan_out(_descent_job, [(params.with_field(float(H)), grid, start)
                                   for H, start in zip(H_rows, seeds)], jobs)

    # Pass 3 over all the ends.  dE/dH is exact at a critical state
    # (envelope theorem): H is only in the field term.
    obs = observables([rep.state for rep in ends], params, grid)
    H_col = H_rows[:, None, None]
    delta_rows = wrap_angle(circular_mean(obs.Phi - H_col * params.spacing * grid.nodes))
    energy = np.array([rep.energy for rep in ends]).reshape(-1, 2)
    slope = (-2.0 * params.spacing * grid.dx / params.kappa**2
             * (obs.h - H_col).reshape(H_rows.size, -1).sum(axis=1)).reshape(-1, 2)
    split = energy[:, 1] - energy[:, 0]  # E_pi - E_0 of each field
    pi_kept = split < 0.0
    kept = 2 * np.arange(H_grid.size) + pi_kept
    delta_hat = delta_rows[kept]
    near = {c: np.all(np.abs(wrap_to_pi(delta_hat - c)) < 0.5 * math.pi, axis=1)
            for c in (0.0, math.pi)}
    configs = np.where(near[0.0], 0.0, np.where(near[math.pi], math.pi, math.nan))
    maxima = np.array([count_interior_maxima(row) for row in obs.h[kept].mean(axis=1)])

    dH = float(np.min(np.diff(H_grid)))
    transitions = []
    for j in np.flatnonzero(np.sign(split[:-1]) * np.sign(split[1:]) < 0.0) + 1:
        fields = H_grid[j - 1:j + 1]
        loc = float(fields[0] + split[j - 1] / (split[j - 1] - split[j])
                    * (fields[1] - fields[0]))
        k = max(1, round(loc / nucleation_field(params, 1)))
        Hk = float(nucleation_field(params, k))
        # The branches kept at H_{j-1} (below H*) and at H_j (above H*).
        m_minus, m_plus = (float(np.interp(loc, fields, slope[j - 1:j + 1, int(b)]))
                           for b in pi_kept[j - 1:j + 1])
        jump = abs(m_plus - m_minus)
        predicted = float(magnetization_jump(params, k))
        transitions.append({
            "interval": fields.tolist(), "location": loc, "k": k, "H_k": Hk,
            "maxima_before": int(maxima[j - 1]), "maxima_after": int(maxima[j]),
            "maxima_increment": int(maxima[j] - maxima[j - 1]),
            "M_minus": m_minus, "M_plus": m_plus, "jump": jump,
            "jump_predicted": predicted,
            "jump_rel_err": abs(jump - predicted) / predicted,
        })

    expected_flips = [Hk for Hk in H_ks if H_grid[0] < Hk < H_grid[-1]]

    rec = ExperimentRecord("field_sweep", params_dict(params))
    rec.parameters["dx"] = grid.dx
    rec.data = {"H_grid": H_grid.tolist(), "epsilon": energy.ravel()[kept].tolist(),
                "dE_dH": slope.ravel()[kept].tolist(),
                "E_pi_minus_E_0": split.tolist(),
                "configs": configs.tolist(), "n_maxima": maxima.tolist(),
                "delta_hat": delta_hat.tolist(),
                "transitions": transitions,
                "expected_transitions": expected_flips}
    rec.checks = {
        "found_all_transitions": len(transitions) == len(expected_flips),
        "locations_near_H_k": all(abs(t["location"] - t["H_k"]) <= 0.05 * dH
                                  for t in transitions),
        "branches_held": bool(np.all(np.abs(wrap_to_pi(delta_rows - branches))
                                     < 0.5 * math.pi)),
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
    obs, x = observables(state, params, grid), grid.mids
    out: list[CycleFlux] = []
    for n, y in enumerate(obs.jz):
        crossings = [x[k] if y[k] == 0.0
                     else x[k] - y[k] * (x[k + 1] - x[k]) / (y[k + 1] - y[k])
                     for k in range(len(y) - 1) if y[k] == 0.0 or y[k] * y[k + 1] < 0.0]
        for xa, xb in zip(crossings, crossings[2:]):
            knots = np.concatenate(([xa], x[(x > xa) & (x < xb)], [xb]))
            flux = np.trapezoid(np.interp(knots, x, obs.h[n]), knots)
            out.append(CycleFlux(n, float(xa), float(xb), params.spacing * float(flux)))
    if not out:
        raise NoCompleteCycle("no complete Josephson cycle inside the sample")
    return out
