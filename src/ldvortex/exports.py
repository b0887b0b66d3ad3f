"""CSV and JSON writers for states, observables and experiment records.

Floats are written with repr (shortest round-trip form), so re-parsing a
CSV reproduces the exported values bit for bit.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .observables import mids_to_nodes, observables
from .params import Grid1D, LdParameters
from .state import LayeredState

FIELD_HEADER = ["x", "gap_or_plane", "f", "V", "Phi", "h", "jx", "jz"]


def _fmt(value) -> str:
    return repr(float(value))


def jsonable(value):
    """Copy of a JSON payload in plain Python types: NumPy scalars and
    arrays inside dicts, lists and tuples become bools, ints, floats and
    lists."""
    if isinstance(value, dict):
        return {key: jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def dumps(payload: dict) -> str:
    """The JSON text of a payload, as written by write_json and the CLI."""
    return json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"


def write_json(path, payload: dict) -> None:
    Path(path).write_text(dumps(payload))


def params_dict(params: LdParameters) -> dict:
    return {"N": params.num_gaps, "L": params.half_width, "p": params.spacing,
            "kappa": params.kappa, "H": params.applied_field, "r": params.coupling}


def write_field_csv(path, state: LayeredState, params: LdParameters,
                    grid: Grid1D) -> None:
    """One row per (node, plane index): plane quantities f, V, jx and, for
    rows with index n >= 1, the gap-n quantities Phi, h, jz.  Midpoint
    fields are interpolated to nodes for a uniform table."""
    obs = observables(state, params, grid)
    V_n = mids_to_nodes(obs.V)
    h_n = mids_to_nodes(obs.h)
    jx_n = mids_to_nodes(obs.jx)
    jz_n = mids_to_nodes(obs.jz)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELD_HEADER)
        for n in range(state.num_planes):
            for i, x in enumerate(grid.nodes):
                row = [_fmt(x), str(n), _fmt(state.f[n, i]), _fmt(V_n[n, i])]
                if n >= 1:
                    row += [_fmt(obs.Phi[n - 1, i]), _fmt(h_n[n - 1, i])]
                else:
                    row += ["", ""]
                row.append(_fmt(jx_n[n, i]))
                row.append(_fmt(jz_n[n - 1, i]) if n >= 1 else "")
                writer.writerow(row)


def write_lift_csv(path, x: np.ndarray, z: np.ndarray, hmap: np.ndarray) -> None:
    """2D lift of the local field as a long-form grid x,z,h."""
    write_table_csv(path, ["x", "z", "h"],
                    [[xx, zz, hmap[j, i]] for j, zz in enumerate(z)
                     for i, xx in enumerate(x)])


def write_trace_csv(path, report) -> None:
    """Per-iteration descent trace: iter, energy, grad_norm, step; the step
    column of iteration 0 is empty."""
    write_table_csv(path, ["iter", "energy", "grad_norm", "step"],
                    [[i, e, gn, t] for i, (e, gn, t) in enumerate(zip(
                        report.energy_trace, report.grad_trace,
                        ["", *report.step_trace]))])


def write_table_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else str(v)
                             for v in row])


def write_nucleation_csv(path, diagram) -> None:
    rows = [[float(H), float(e), float(mm), float(mp), str(bool(t))]
            for H, e, mm, mp, t in zip(diagram.H_grid, diagram.epsilon,
                                       diagram.M_minus, diagram.M_plus,
                                       diagram.is_transition)]
    write_table_csv(path, ["H", "epsilon", "M_minus", "M_plus", "is_transition"], rows)
