"""Command-line entry point.

Subcommands: minimize, census, sweep, perturb, validity, flux, check,
export-field.  A --config file is a JSON object of flag names and values,
such as {"N": 3, "max_iter": 200}, read as those flags (--N 3
--max-iter 200) before the command line's own: a flag beats the file, the
file beats the default, and a bad file value fails like the same bad flag.
A key must name a flag exactly; only the command line may abbreviate.
No key may be config: a config file cannot name another.
A switch such as --numerical-gap takes no value, so no file can set it.
LD_VORTEX_LOG in {error, warn, info, debug} controls verbosity.
Exit codes: 0 success; 1 failed acceptance, a census or sweep record
that fails its own checks (the record and its CSV are written all the
same, and stderr names the failed checks), a solver failure, parameters
outside the model's domain or an input the solvers refuse (a field grid
that is not finite, a NaN --tol, a grid finer than MAX_INTERVALS
intervals); 2 usage error, a bad config file included.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import exports
from .acceptance import PRESETS, run_acceptance
from .energy import total_energy
from .errors import InvalidParameters, LdError
from .harness import census, field_sweep, flux_check
from .minimize import MAX_DESCENT_STEPS, minimize, newton_critical
from .observables import lift_field_2d, observables
from .params import Grid1D, LdParameters, validate
from .perturbation import (enumerate_seeds, epsilon_and_jumps, seed_state,
                           vortex_plane_delta)
from .state import uniform_field_state
from .validity import validity_report

log = logging.getLogger("ldvortex")


def _setup_logging() -> None:
    level = os.environ.get("LD_VORTEX_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def count(text: str) -> int:
    """argparse type of the count flags: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _config_flags(path: str) -> list[str]:
    """argparse type of --config: the file's {"key": value} pairs as the
    flags ["--key", "value", ...], with "_" in a key read as "-"."""
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise argparse.ArgumentTypeError(f"{path} must hold a JSON object")
    return [text for key, value in config.items()
            for text in ("--" + key.replace("_", "-"), str(value))]


# Flags that only some subcommands read; each is registered only there.
OPTIONAL_FLAGS = {
    "dx": ("--dx", float, None, "grid spacing override"),
    "seed": ("--seed", int, 0, "RNG seed"),
    "jobs": ("--jobs", int, 1, "worker pool size"),
    "tol": ("--tol", float, None, "stop at |grad|inf <= TOL (default "
            "minimize.stop_tol: 3e-6 r clipped to [3e-12, 1e-9])"),
    "max_iter": ("--max-iter", count, MAX_DESCENT_STEPS, "stop the descent "
                 "after MAX_ITER steps (default minimize.MAX_DESCENT_STEPS = "
                 f"{MAX_DESCENT_STEPS})"),
    "format": ("--format", str, "json", "output format", "json", "csv"),
}


def _add_common(parser: argparse.ArgumentParser, *optional: str) -> None:
    """The model flags, --out and --config, plus the named OPTIONAL_FLAGS."""
    parser.add_argument("--N", type=int, default=2, help="number of gaps")
    parser.add_argument("--L", type=float, default=1.0, help="half width")
    parser.add_argument("--p", type=float, default=0.5, help="plane spacing")
    parser.add_argument("--kappa", type=float, default=1.0, help="GL parameter")
    parser.add_argument("--H", type=float, default=3.0, help="applied field")
    parser.add_argument("--r", type=float, default=1e-3, help="Josephson coupling")
    parser.add_argument("--out", type=str, default=None, help="output path")
    parser.add_argument("--config", type=_config_flags, default=None,
                        help="JSON file holding an object of flag names (N, "
                             "max_iter, ...) and values, read as those flags "
                             "before the command line's own")
    for key in optional:
        flag, kind, default, text, *choices = OPTIONAL_FLAGS[key]
        parser.add_argument(flag, type=kind, default=default, dest=key,
                            help=text, choices=choices or None)


def _params(args: argparse.Namespace) -> LdParameters:
    params = LdParameters(args.N, args.L, args.p, args.kappa, args.H, args.r)
    for w in validate(params):
        log.warning(w)
    return params


def _start_state(params: LdParameters, grid: Grid1D):
    if params.coupling > 0.0 and not params.is_degenerate:
        return seed_state(params, grid, vortex_plane_delta(params))
    return uniform_field_state(params, grid)


def _emit(out: str | None, payload: dict) -> None:
    if out:
        exports.write_json(out, payload)
        log.info("wrote %s", out)
    else:
        sys.stdout.write(exports.dumps(payload))


def _field_grid(H_min: float, H_max: float, points: int) -> np.ndarray:
    """np.linspace(H_min, H_max, points); a non-finite end is refused first."""
    if not (math.isfinite(H_min) and math.isfinite(H_max)):
        raise InvalidParameters(f"H_grid must be finite, got ends {H_min} and {H_max}")
    return np.linspace(H_min, H_max, points)


def _record_status(rec) -> int:
    """The exit code of a written census or sweep record: 0 when it passes
    its own checks, else 1 with the failed checks named on stderr."""
    failed = [name for name, ok in rec.checks.items() if not ok]
    if failed:
        print(f"error: the record fails its checks: {', '.join(failed)}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_minimize(args) -> int:
    params = _params(args)
    grid = Grid1D.build(params, args.dx)
    rep = minimize(_start_state(params, grid), params, grid,
                   tol=args.tol, max_iter=args.max_iter)
    payload = {"parameters": exports.params_dict(params), "dx": grid.dx,
               "report": rep.to_dict(),
               "energy_breakdown": total_energy(rep.state, params,
                                                grid).to_dict()}
    _emit(args.out, payload)
    if args.out:
        stem = Path(args.out).with_suffix("")
        exports.write_field_csv(f"{stem}.fields.csv", rep.state, params, grid)
        exports.write_trace_csv(f"{stem}.trace.csv", rep)
    return 0


def _cmd_census(args) -> int:
    params = _params(args)
    rec = census(params, params.coupling, n_random=args.random_starts,
                 dx=args.dx, seed=args.seed, jobs=args.jobs)
    _emit(args.out, rec.to_dict())
    return _record_status(rec)


def _cmd_sweep(args) -> int:
    params = _params(args)
    H_grid = _field_grid(args.H_min, args.H_max, args.H_points)
    rec = field_sweep(params, H_grid, dx=args.dx, jobs=args.jobs)
    _emit(args.out, rec.to_dict())
    if args.out and args.format == "csv":
        stem = Path(args.out).with_suffix("")
        rows = [[float(H), float(e), float(c), int(m)]
                for H, e, c, m in zip(rec.data["H_grid"], rec.data["epsilon"],
                                      rec.data["configs"], rec.data["n_maxima"])]
        exports.write_table_csv(f"{stem}.table.csv",
                                ["H", "epsilon", "config", "n_maxima"], rows)
    return _record_status(rec)


def _cmd_perturb(args) -> int:
    params = _params(args)
    if args.format == "csv":  # the diagram first: a refused grid writes nothing
        H_max = 2.0 * params.applied_field if args.H_max is None else args.H_max
        diagram = epsilon_and_jumps(params, _field_grid(0.5, H_max, args.H_points))
    table = (column.tolist() for column in enumerate_seeds(params))
    payload = {"parameters": exports.params_dict(params),
               "seeds": [{"delta": d, "inertia": i, "g0": e} for d, i, e in zip(*table)]}
    _emit(args.out, payload)
    if args.format == "csv":
        exports.write_nucleation_csv(
            str(Path(args.out).with_suffix("")) + ".nucleation.csv", diagram)
    return 0


def _cmd_validity(args) -> int:
    params = _params(args)
    if args.format == "csv":
        rows = []
        for L in (1.0, 2.0, 4.0):
            for kappa in (1.0, 2.0, 4.0):
                q = LdParameters(params.num_gaps, L, params.spacing, kappa,
                                 params.applied_field, params.coupling)
                v = validity_report(q)
                rows.append([L, kappa, v.c0, v.lambda_lower, v.lambda_upper,
                             v.rstar_lower, v.f_dip_threshold])
        header = ["L", "kappa", "c0", "lambda_lower", "lambda_upper",
                  "rstar_lower", "f_dip_threshold"]
        if args.out:
            exports.write_table_csv(args.out, header, rows)
        else:
            print(",".join(header))
            for row in rows:
                print(",".join(repr(float(v)) for v in row))
        return 0
    grid = Grid1D.build(params, args.dx) if args.numerical_gap else None
    _emit(args.out, {"parameters": exports.params_dict(params),
                     "report": validity_report(params, grid=grid).to_dict()})
    return 0


def _cmd_flux(args) -> int:
    params = _params(args)
    grid = Grid1D.build(params, args.dx)
    cp = newton_critical(_start_state(params, grid), params, grid)
    cycles = flux_check(cp.state, params, grid)
    _emit(args.out, {"parameters": exports.params_dict(params),
                     "flux_quantum": 2.0 * math.pi,
                     "cycles": [c.to_dict() for c in cycles]})
    return 0


def _cmd_check(args) -> int:
    report = run_acceptance(args.preset)
    if args.out:
        exports.write_json(args.out, report.to_dict())
    print(f"acceptance {'PASSED' if report.passed else 'FAILED'} "
          f"({sum(r.passed for r in report.results)}/{len(report.results)})")
    return 0 if report.passed else 1


def _cmd_export_field(args) -> int:
    params = _params(args)
    grid = Grid1D.build(params, args.dx)
    if args.source == "uniform":
        state = uniform_field_state(params, grid)
    elif args.source == "seed":
        state = _start_state(params, grid)
    else:
        rep = minimize(_start_state(params, grid), params, grid,
                       tol=args.tol, max_iter=args.max_iter)
        state = rep.state
    exports.write_field_csv(args.out, state, params, grid)
    if args.nz_per_gap > 0:
        obs = observables(state, params, grid)
        z, hmap = lift_field_2d(obs, params, args.nz_per_gap)
        exports.write_lift_csv(str(Path(args.out).with_suffix("")) + ".lift.csv",
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
    cmd.add_argument("--random-starts", type=count, default=50)
    cmd.set_defaults(fn=_cmd_census)

    cmd = sub.add_parser("sweep", help="field sweep with transition detection")
    _add_common(cmd, "dx", "jobs", "format")
    cmd.add_argument("--H-min", type=float, default=2.0)
    cmd.add_argument("--H-max", type=float, default=8.0)
    cmd.add_argument("--H-points", type=count, default=61)
    cmd.set_defaults(fn=_cmd_sweep)

    cmd = sub.add_parser("perturb", help="small-coupling enumeration and diagram")
    _add_common(cmd, "format")
    cmd.add_argument("--H-max", type=float, default=None)
    cmd.add_argument("--H-points", type=count, default=121)
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
    cmd.add_argument("--preset", choices=sorted(PRESETS), default="desk-N2")
    cmd.add_argument("--out", type=str, default=None, help="report path")
    cmd.set_defaults(fn=_cmd_check)

    cmd = sub.add_parser("export-field", help="export observable fields as CSV")
    _add_common(cmd, "dx", "tol", "max_iter")
    cmd.add_argument("--source", choices=("minimize", "seed", "uniform"),
                     default="minimize")
    cmd.add_argument("--nz-per-gap", type=count, default=0, dest="nz_per_gap")
    cmd.set_defaults(fn=_cmd_export_field)
    return parser


def _check_validity_flags(parser: argparse.ArgumentParser,
                          args: argparse.Namespace) -> None:
    """Exit 2 on a validity flag set away from its default that would be
    ignored: the CSV table is over a fixed grid of L and kappa and has no
    gap, and --dx only sets the grid of the gap."""
    default = parser.parse_args(["validity"])
    moved = [f"--{key}" for key in ("L", "kappa", "dx")
             if getattr(args, key) != getattr(default, key)]
    if args.format == "csv":
        if args.numerical_gap:
            parser.error("--numerical-gap and --format csv do not combine")
        if moved:
            parser.error(f"--format csv tabulates a fixed L, kappa grid and "
                         f"ignores {' '.join(moved)}")
    elif "--dx" in moved and not args.numerical_gap:
        parser.error("--dx sets the grid of --numerical-gap and needs it")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        if "--config" in args.config[::2]:
            parser.error("a config file may not hold the key config")
        unknown = [flag for flag in args.config[::2]
                   if flag[2:].replace("-", "_") not in vars(args)]
        if unknown:
            parser.error(f"config keys name no {argv[0]} flag: {' '.join(unknown)}")
        # argv[0] is the subcommand: the top-level parser has no options.
        args = parser.parse_args([argv[0], *args.config, *argv[1:]])
    if args.command == "validity":
        _check_validity_flags(parser, args)
    elif args.command == "export-field" and not args.out:
        parser.error("export-field writes its CSV to --out and needs it")
    elif getattr(args, "format", None) == "csv" and not args.out:
        # sweep and perturb write their CSV tables beside the --out file.
        parser.error("--format csv writes its table beside --out and needs it")
    try:
        return args.fn(args)
    except LdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
