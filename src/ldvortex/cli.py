"""Command-line entry point.

Subcommands: minimize, census, sweep, perturb, validity, flux, check,
export-field.  Model parameters come from flags, falling back to a JSON
config file (--config), falling back to built-in defaults; flags always
win.  LD_VORTEX_LOG in {error, warn, info, debug} controls verbosity.
Exit codes: 0 success, 1 failed acceptance, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exports
from .acceptance import PRESETS, run_acceptance
from .energy import total_energy
from .errors import LdError
from .harness import census, field_sweep, flux_check, require_jobs
from .minimize import minimize, newton_critical
from .observables import lift_field_2d, observables
from .params import Grid1D, LdParameters, validate
from .perturbation import (enumerate_seeds, epsilon_and_jumps, seed_state,
                           vortex_plane_delta)
from .state import uniform_field_state
from .validity import validity_report

log = logging.getLogger("ldvortex")

DEFAULTS = {"N": 2, "L": 1.0, "p": 0.5, "kappa": 1.0, "H": 3.0, "r": 1e-3,
            "dx": None, "tol": 1e-8, "max_iter": 4000, "seed": 0, "jobs": 1,
            "out": None, "format": "json"}


@dataclass(frozen=True)
class RunConfig:
    """Merged run configuration: flag > config file > default."""

    params: LdParameters
    dx: float | None
    tol: float
    max_iter: int
    seed: int
    jobs: int
    out: str | None
    format: str


def _setup_logging() -> None:
    level = os.environ.get("LD_VORTEX_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# Flags that only some subcommands read; each is registered only there.
OPTIONAL_FLAGS = {
    "dx": ("--dx", float, "grid spacing override"),
    "seed": ("--seed", int, "RNG seed"),
    "jobs": ("--jobs", int, "worker pool size"),
    "tol": ("--tol", float, "solver tolerance"),
    "max_iter": ("--max-iter", int, "descent step budget"),
    "format": ("--format", str, "output format", "json", "csv"),
}


def _add_common(parser: argparse.ArgumentParser, *optional: str) -> None:
    """The model flags, --out and --config, plus the named OPTIONAL_FLAGS."""
    parser.add_argument("--N", type=int, default=None, help="number of gaps")
    parser.add_argument("--L", type=float, default=None, help="half width")
    parser.add_argument("--p", type=float, default=None, help="plane spacing")
    parser.add_argument("--kappa", type=float, default=None, help="GL parameter")
    parser.add_argument("--H", type=float, default=None, help="applied field")
    parser.add_argument("--r", type=float, default=None, help="Josephson coupling")
    parser.add_argument("--out", type=str, default=None, help="output path")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file (flags override)")
    for key in optional:
        flag, kind, text, *choices = OPTIONAL_FLAGS[key]
        parser.add_argument(flag, type=kind, default=None, dest=key, help=text,
                            choices=choices or None)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if args.config is not None:
        file_cfg = json.loads(Path(args.config).read_text())
    merged = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else file_cfg.get(key, default)
    params = LdParameters(int(merged["N"]), float(merged["L"]),
                          float(merged["p"]), float(merged["kappa"]),
                          float(merged["H"]), float(merged["r"]))
    for w in validate(params):
        log.warning(w)
    jobs = int(merged["jobs"])
    require_jobs(jobs)
    return RunConfig(params, merged["dx"], float(merged["tol"]),
                     int(merged["max_iter"]), int(merged["seed"]),
                     jobs, merged["out"], merged["format"])


def _start_state(cfg: RunConfig, grid: Grid1D):
    if cfg.params.coupling > 0.0 and not cfg.params.is_degenerate:
        return seed_state(cfg.params, grid, vortex_plane_delta(cfg.params))
    return uniform_field_state(cfg.params, grid)


def _emit(cfg: RunConfig, payload: dict) -> None:
    if cfg.out:
        exports.write_json(cfg.out, payload)
        log.info("wrote %s", cfg.out)
    else:
        sys.stdout.write(exports.dumps(payload))


def _cmd_minimize(args) -> int:
    cfg = _merge_config(args)
    grid = Grid1D.build(cfg.params, cfg.dx)
    rep = minimize(_start_state(cfg, grid), cfg.params, grid,
                   tol=cfg.tol, max_iter=cfg.max_iter)
    payload = {"parameters": exports.params_dict(cfg.params), "dx": grid.dx,
               "report": rep.to_dict(),
               "energy_breakdown": total_energy(rep.state, cfg.params,
                                                grid).to_dict()}
    _emit(cfg, payload)
    if cfg.out:
        stem = Path(cfg.out).with_suffix("")
        exports.write_field_csv(f"{stem}.fields.csv", rep.state, cfg.params, grid)
        exports.write_trace_csv(f"{stem}.trace.csv", rep)
    return 0


def _cmd_census(args) -> int:
    cfg = _merge_config(args)
    rec = census(cfg.params, cfg.params.coupling, n_random=args.random_starts,
                 dx=cfg.dx, seed=cfg.seed, jobs=cfg.jobs)
    _emit(cfg, rec.to_dict())
    return 0


def _cmd_sweep(args) -> int:
    cfg = _merge_config(args)
    H_grid = np.linspace(args.H_min, args.H_max, args.H_points)
    rec = field_sweep(cfg.params, H_grid, dx=cfg.dx, jobs=cfg.jobs)
    _emit(cfg, rec.to_dict())
    if cfg.out and cfg.format == "csv":
        stem = Path(cfg.out).with_suffix("")
        rows = [[float(H), float(e), float(c), int(m)]
                for H, e, c, m in zip(rec.data["H_grid"], rec.data["epsilon"],
                                      rec.data["configs"], rec.data["n_maxima"])]
        exports.write_table_csv(f"{stem}.table.csv",
                                ["H", "epsilon", "config", "n_maxima"], rows)
    return 0


def _cmd_perturb(args) -> int:
    cfg = _merge_config(args)
    seeds = enumerate_seeds(cfg.params)
    payload = {"parameters": exports.params_dict(cfg.params),
               "seeds": [s.to_dict() for s in seeds]}
    _emit(cfg, payload)
    if cfg.out and cfg.format == "csv":
        H_max = args.H_max if args.H_max else 2.0 * cfg.params.applied_field
        grid = np.linspace(0.5, H_max, args.H_points)
        diagram = epsilon_and_jumps(cfg.params, grid)
        exports.write_nucleation_csv(
            str(Path(cfg.out).with_suffix("")) + ".nucleation.csv", diagram)
    return 0


def _cmd_validity(args) -> int:
    cfg = _merge_config(args)
    grid = Grid1D.build(cfg.params, cfg.dx) if args.numerical_gap else None
    rep = validity_report(cfg.params, grid=grid)
    if cfg.format == "csv":
        rows = []
        for L in (1.0, 2.0, 4.0):
            for kappa in (1.0, 2.0, 4.0):
                q = LdParameters(cfg.params.num_gaps, L, cfg.params.spacing,
                                 kappa, cfg.params.applied_field,
                                 cfg.params.coupling)
                v = validity_report(q)
                rows.append([L, kappa, v.c0, v.lambda_lower, v.lambda_upper,
                             v.rstar_lower, v.f_dip_threshold])
        header = ["L", "kappa", "c0", "lambda_lower", "lambda_upper",
                  "rstar_lower", "f_dip_threshold"]
        if cfg.out:
            exports.write_table_csv(cfg.out, header, rows)
        else:
            print(",".join(header))
            for row in rows:
                print(",".join(repr(float(v)) for v in row))
        return 0
    _emit(cfg, {"parameters": exports.params_dict(cfg.params),
                "report": rep.to_dict()})
    return 0


def _cmd_flux(args) -> int:
    cfg = _merge_config(args)
    grid = Grid1D.build(cfg.params, cfg.dx)
    cp = newton_critical(_start_state(cfg, grid), cfg.params, grid)
    cycles = flux_check(cp.state, cfg.params, grid)
    _emit(cfg, {"parameters": exports.params_dict(cfg.params),
                "flux_quantum": 2.0 * math.pi,
                "cycles": [c.to_dict() for c in cycles]})
    return 0


def _cmd_check(args) -> int:
    if args.preset not in PRESETS:
        print(f"error: unknown preset {args.preset!r}; available: "
              f"{', '.join(sorted(PRESETS))}", file=sys.stderr)
        return 2
    report = run_acceptance(args.preset)
    if args.out:
        exports.write_json(args.out, report.to_dict())
    print(f"acceptance {'PASSED' if report.passed else 'FAILED'} "
          f"({sum(r.passed for r in report.results)}/{len(report.results)})")
    return 0 if report.passed else 1


def _cmd_export_field(args) -> int:
    cfg = _merge_config(args)
    if not cfg.out:
        raise LdError("export-field requires --out")
    grid = Grid1D.build(cfg.params, cfg.dx)
    if args.source == "uniform":
        state = uniform_field_state(cfg.params, grid)
    elif args.source == "seed":
        state = _start_state(cfg, grid)
    else:
        rep = minimize(_start_state(cfg, grid), cfg.params, grid,
                       tol=cfg.tol, max_iter=cfg.max_iter)
        state = rep.state
    exports.write_field_csv(cfg.out, state, cfg.params, grid)
    if args.nz_per_gap > 0:
        obs = observables(state, cfg.params, grid)
        z, hmap = lift_field_2d(obs, cfg.params, args.nz_per_gap)
        exports.write_lift_csv(str(Path(cfg.out).with_suffix("")) + ".lift.csv",
                               grid.mids, z, hmap)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldvortex",
        description="Layered-superconductor stack in a parallel field: "
                    "free-energy minimization, critical-point census and "
                    "small-coupling verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("minimize", help="minimize the free energy")
    _add_common(cmd, "dx", "tol", "max_iter")
    cmd.set_defaults(fn=_cmd_minimize)

    cmd = sub.add_parser("census", help="enumerate low-energy critical points")
    _add_common(cmd, "dx", "seed", "jobs")
    cmd.add_argument("--random-starts", type=int, default=50)
    cmd.set_defaults(fn=_cmd_census)

    cmd = sub.add_parser("sweep", help="field sweep with transition detection")
    _add_common(cmd, "dx", "jobs", "format")
    cmd.add_argument("--H-min", type=float, default=2.0)
    cmd.add_argument("--H-max", type=float, default=8.0)
    cmd.add_argument("--H-points", type=int, default=61)
    cmd.set_defaults(fn=_cmd_sweep)

    cmd = sub.add_parser("perturb", help="small-coupling enumeration and diagram")
    _add_common(cmd, "format")
    cmd.add_argument("--H-max", type=float, default=None)
    cmd.add_argument("--H-points", type=int, default=121)
    cmd.set_defaults(fn=_cmd_perturb)

    cmd = sub.add_parser("validity", help="analytic validity bounds")
    _add_common(cmd, "dx", "format")
    cmd.add_argument("--numerical-gap", action="store_true",
                     dest="numerical_gap",
                     help="include the measured spectral gap (needs a solve)")
    cmd.set_defaults(fn=_cmd_validity)

    cmd = sub.add_parser("flux", help="per-cycle flux quantization check")
    _add_common(cmd, "dx")
    cmd.set_defaults(fn=_cmd_flux)

    cmd = sub.add_parser("check", help="run the acceptance suite")
    cmd.add_argument("--preset", type=str, default="desk-N2")
    cmd.add_argument("--out", type=str, default=None, help="report path")
    cmd.set_defaults(fn=_cmd_check)

    cmd = sub.add_parser("export-field", help="export observable fields as CSV")
    _add_common(cmd, "dx", "tol", "max_iter")
    cmd.add_argument("--source", choices=("minimize", "seed", "uniform"),
                     default="minimize")
    cmd.add_argument("--nz-per-gap", type=int, default=0, dest="nz_per_gap")
    cmd.set_defaults(fn=_cmd_export_field)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
