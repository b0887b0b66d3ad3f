"""The acceptance gate: ten quantitative criteria runnable on a laptop.

Each criterion pins its own tolerances and runtime budget; `run_acceptance`
executes the published preset and reports one verdict per criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .energy import energy_arrays, gradient_check, total_energy
from .errors import InvalidParameters, LdError
from .exports import jsonable
from .harness import census, convergence_study, field_sweep, flux_check
from .minimize import hessian_apply, minimize, newton_critical
from .observables import observables
from .params import Grid1D, LdParameters
from .perturbation import seed_state, vortex_plane_delta
from .state import (Layout, gauge_transform, random_low_energy_state,
                    random_rough_state, uniform_field_state)
from .validity import c0, lambda_lower, lambda_upper, rstar_lower


@dataclass(frozen=True)
class Preset:
    params: LdParameters
    dx: float


PRESETS: dict[str, Preset] = {
    "desk-N2": Preset(LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3), 1.0 / 30.0),
}


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{verdict}] criterion {self.index:2d} {self.name:<24s} "
                f"({self.elapsed:6.1f}s / budget {self.budget:.0f}s)")

    def to_dict(self) -> dict:
        return {"index": self.index, "name": self.name, "passed": self.passed,
                "elapsed": self.elapsed, "budget": self.budget,
                "details": jsonable(self.details)}


def _crit_gradient(preset: Preset) -> tuple[bool, dict]:
    p = preset.params
    grid = Grid1D.build(p, preset.dx)
    rng = np.random.default_rng(2024)
    errs = [gradient_check(random_rough_state(p, grid, rng), p, grid, seed=k)
            for k in range(5)]
    errs.append(gradient_check(uniform_field_state(p, grid), p, grid))
    layout = Layout.build(p.num_gaps, grid.M)
    asym = h_err = 0.0
    for k in range(2):
        state = random_rough_state(p, grid, rng)
        x = layout.pack_state(state)
        for _ in range(5):
            v = rng.standard_normal((2, layout.size))
            h = hessian_apply(state, v, p, grid)
            a, b = float(h[0] @ v[1]), float(h[1] @ v[0])
            asym = max(asym, abs(a - b) / max(abs(a), abs(b), 1e-30))
            for row, u in zip(h, v):  # against the complex-step product
                grads = energy_arrays(*layout.unpack(x + 1e-30j * u), p, grid)[1]
                ref = layout.pack(*grads).imag / 1e-30
                h_err = max(h_err, float(abs(row - ref).max() / abs(ref).max()))
    ok = max(errs) <= 1e-6 and h_err <= 1e-12 and asym <= 1e-10
    return ok, {"gradient_errors": errs, "hessian_error": h_err,
                "hessian_asymmetry": asym}


def _crit_zero_coupling(preset: Preset) -> tuple[bool, dict]:
    p = preset.params.with_coupling(0.0)
    grid = Grid1D.build(p, preset.dx)
    rng = np.random.default_rng(11)
    rep = minimize(random_low_energy_state(p, grid, rng), p, grid)
    obs = observables(rep.state, p, grid)
    f_dev = float(np.max(np.abs(rep.state.f - 1.0)))
    h_dev = float(np.max(np.abs(obs.h - p.applied_field)))
    ok = rep.energy <= 1e-8 and f_dev <= 1e-4 and h_dev <= 1e-4
    return ok, {"energy": rep.energy, "f_deviation": f_dev,
                "h_deviation": h_dev, "iterations": rep.iterations}


@lru_cache(maxsize=None)
def _study(preset: Preset):
    """The convergence study behind criteria 3 and 4, run once per preset."""
    return convergence_study(preset.params, [4e-3, 2e-3, 1e-3], dx=1.0 / 96.0)


def _crit_energy_law(preset: Preset) -> tuple[bool, dict]:
    rec = _study(preset)
    slope = rec.fits["energy_slope"]
    ok = abs(slope - 1.0) <= 0.3 and rec.checks["energy_bound_every_r"]
    return ok, {"energy_slope": slope, "gaps": rec.data["energy_gap"],
                "bound_every_r": rec.checks["energy_bound_every_r"]}


def _crit_observables(preset: Preset) -> tuple[bool, dict]:
    rec = _study(preset)
    ok = (abs(rec.fits["h_slope"] - 2.0) <= 0.4
          and abs(rec.fits["jz_slope"] - 2.0) <= 0.4
          and abs(rec.fits["f_slope"] - 2.0) <= 0.4
          and rec.fits["phi_slope"] >= 1.5)
    return ok, {k: rec.fits[k] for k in
                ("h_slope", "jz_slope", "f_slope", "phi_slope")}


def _crit_census(preset: Preset) -> tuple[bool, dict]:
    details = {}
    ok = True
    for N in (1, 2, 3):
        p = LdParameters(N, preset.params.half_width, preset.params.spacing,
                         preset.params.kappa, preset.params.applied_field,
                         1e-3)
        rec = census(p, 1e-3, n_random=50, dx=preset.dx, seed=31 + N)
        worst = max(rec.data["residuals"], default=None)
        details[f"N={N}"] = {"checks": rec.checks,
                             "count": rec.data["count"],
                             "max_residual": worst,
                             "n_matched": rec.data["n_matched"],
                             "wall_time": rec.wall_time}
        ok = ok and rec.passed and worst is not None and worst <= 1e-8
        if N == 3:
            ok = ok and rec.wall_time < 60.0
    return ok, details


def _crit_sweep(preset: Preset) -> tuple[bool, dict]:
    rec = field_sweep(preset.params, np.linspace(2.0, 8.0, 61))
    return rec.passed, {"checks": rec.checks,
                        "transitions": rec.data["transitions"]}


def _crit_flux(preset: Preset) -> tuple[bool, dict]:
    p = preset.params.with_field(8.0)
    grid = Grid1D.build(p, 1.0 / 40.0)
    cp = newton_critical(seed_state(p, grid, vortex_plane_delta(p)), p, grid,
                         tol=1e-10)
    cycles = flux_check(cp.state, p, grid)
    rels = [abs(c.flux - 2.0 * math.pi) / (2.0 * math.pi) for c in cycles]
    gaps = {c.gap for c in cycles}
    ok = len(cycles) >= 1 and max(rels) <= 0.02 and gaps == set(range(p.num_gaps))
    return ok, {"fluxes": [c.to_dict() for c in cycles],
                "max_rel_error": max(rels)}


def _crit_bounds(preset: Preset) -> tuple[bool, dict]:
    details = {}
    ok = True
    for r in (1e-3, 4e-3):
        p = preset.params.with_coupling(r)
        grid = Grid1D.build(p, preset.dx)
        cp = newton_critical(seed_state(p, grid, vortex_plane_delta(p)),
                             p, grid, tol=1e-10)
        fmax = float(np.max(cp.state.f))
        fmin = float(np.min(cp.state.f))
        C = (1.0 - fmin) / math.sqrt(r)
        details[f"r={r}"] = {"f_max": fmax, "f_min": fmin, "C": C}
        ok = ok and 0.0 < fmin and fmax <= 1.0 + 1e-8 and C <= 10.0
    return ok, details


def _crit_validity(preset: Preset) -> tuple[bool, dict]:
    p0 = LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3)
    v_c0 = c0(p0)
    v_lb = lambda_lower(LdParameters(2, 1.0, 0.5, 1.0, 3.0, 1e-3))
    v_ub = lambda_upper(LdParameters(2, 3.0, 0.5, 2.0, 3.0, 1e-3))
    ok = (abs(v_c0 - 2.3374) <= 1e-3
          and abs(v_lb - 0.0901) <= 1e-3
          and v_ub == 0.5)

    sandwich = True
    for L in np.linspace(1.0, 100.0, 10):
        for kappa in np.linspace(1.0, 100.0, 10):
            for p in np.linspace(0.2, 1.0, 5):
                q = LdParameters(2, L, p, kappa, 3.0, 1e-3)
                sandwich = sandwich and lambda_lower(q) <= lambda_upper(q)

    def rs(N=2, L=1.0, p=0.5, kappa=1.0, H=3.0):
        return rstar_lower(LdParameters(N, L, p, kappa, H, 1e-3))

    trends = (rs(L=1.0) > rs(L=2.0) > rs(L=4.0)
              and rs(kappa=1.0) > rs(kappa=2.0) > rs(kappa=4.0)
              and rs(H=1.0) < rs(H=3.0) < rs(H=10.0)
              and rs(N=1) == rs(N=5))
    ok = ok and sandwich and trends
    return ok, {"c0": v_c0, "lambda_lower": v_lb, "lambda_upper": v_ub,
                "sandwich_grid": sandwich, "rstar_trends": trends}


def _crit_gauge(preset: Preset) -> tuple[bool, dict]:
    p = preset.params
    grid = Grid1D.build(p, preset.dx)
    rng = np.random.default_rng(5)
    state = random_rough_state(p, grid, rng)
    e0 = total_energy(state, p, grid).total
    worst = 0.0
    L = p.half_width
    for _ in range(10):
        chi = np.zeros(grid.M + 1)
        for m in range(1, 4):
            chi += rng.standard_normal() * np.sin(0.5 * m * np.pi
                                                  * (grid.nodes + L) / L) / m
        chi += rng.standard_normal()
        e1 = total_energy(gauge_transform(state, chi, grid), p, grid).total
        worst = max(worst, abs(e1 - e0) / abs(e0))
    return worst <= 1e-13, {"max_relative_change": worst, "energy": e0}


CRITERIA = [
    (1, "gradient-correctness", 10.0, _crit_gradient),
    (2, "zero-coupling-ground", 30.0, _crit_zero_coupling),
    (3, "order-r-energy-law", 60.0, _crit_energy_law),
    (4, "observable-convergence", 60.0, _crit_observables),
    (5, "census", 60.0, _crit_census),
    (6, "nucleation-sweep", 30.0, _crit_sweep),
    (7, "flux-quantization", 60.0, _crit_flux),
    (8, "solution-bounds", 60.0, _crit_bounds),
    (9, "validity-formulas", 10.0, _crit_validity),
    (10, "gauge-invariance", 5.0, _crit_gauge),
]


@dataclass
class AcceptanceReport:
    preset: str
    results: list[CriterionResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {"preset": self.preset, "passed": self.passed,
                "criteria": [r.to_dict() for r in self.results]}


def run_criterion(index: int, preset_name: str = "desk-N2") -> CriterionResult:
    """Run a single acceptance criterion by index."""
    preset = get_preset(preset_name)
    for idx, name, budget, fn in CRITERIA:
        if idx == index:
            t0 = time.time()
            try:
                ok, details = fn(preset)
            except LdError as exc:
                ok, details = False, {"error": str(exc)}
            elapsed = time.time() - t0
            return CriterionResult(idx, name, bool(ok) and elapsed <= budget,
                                   elapsed, budget, details)
    raise InvalidParameters(f"no criterion with index {index}")


def get_preset(preset_name: str) -> Preset:
    if preset_name not in PRESETS:
        raise InvalidParameters(
            f"unknown preset {preset_name!r}; available: {sorted(PRESETS)}")
    return PRESETS[preset_name]


def run_acceptance(preset_name: str = "desk-N2") -> AcceptanceReport:
    """Run every acceptance criterion, printing one verdict line each."""
    get_preset(preset_name)
    results = []
    for idx, _, _, _ in CRITERIA:
        res = run_criterion(idx, preset_name)
        results.append(res)
        print(res.line())
    return AcceptanceReport(preset_name, results)
