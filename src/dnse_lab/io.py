"""File formats shared by the CLI and the experiment scripts.

All floating-point output uses 17 significant digits so repeated runs with
the same resolved configuration are byte-identical.

State:        CSV `index,psi` plus a sidecar JSON {"N", "boundary", "c", "E"}.
Orbit:        CSV `step,psi,Z`.
Portrait:     CSV `psi,dpsi`.
Box counts:   CSV `scale,occupied`.
Reports:      plain JSON (solver report, classification, pattern counts).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .analysis import BoxCountResult, PhasePortrait
from .lattice import Boundary, LatticeState
from .mapdyn import MapOrbit


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_state(csv_path, state: LatticeState, c: float, energy):
    """Write the amplitude CSV and its sidecar JSON (same stem, .json)."""
    csv_path = Path(csv_path)
    # streamed: a list of the lines held about 12 MB at N = 10^5
    with csv_path.open("w") as out:
        out.write("index,psi\n")
        out.writelines(f"{i},{fmt(v)}\n" for i, v in enumerate(state.values))
    sidecar = {
        "N": state.n_sites,
        "boundary": state.boundary.value,
        "c": c,
        "E": energy,
    }
    csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return csv_path


def read_state(csv_path):
    """Read a state CSV plus sidecar; returns (state, meta dict)."""
    csv_path = Path(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    if not lines or lines[0] != "index,psi":
        raise ValueError(f"{csv_path}: expected header 'index,psi'")
    values = np.empty(len(lines) - 1)
    for row, line in enumerate(lines[1:]):
        idx_s, psi_s = line.split(",")
        if int(idx_s) != row:
            raise ValueError(f"{csv_path}: non-contiguous index at row {row}")
        values[row] = float(psi_s)
    meta = json.loads(csv_path.with_suffix(".json").read_text())
    state = LatticeState(values, Boundary(meta["boundary"]))
    if state.n_sites != meta["N"]:
        raise ValueError(f"{csv_path}: sidecar N={meta['N']} != {state.n_sites} rows")
    return state, meta


def write_portrait(path, portrait: PhasePortrait):
    path = Path(path)
    lines = ["psi,dpsi"]
    lines += [f"{fmt(x)},{fmt(y)}" for x, y in portrait.points]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_orbit(path, orbit: MapOrbit):
    path = Path(path)
    lines = ["step,psi,Z"]
    lines += [f"{k},{fmt(p)},{fmt(z)}" for k, (p, z) in enumerate(orbit.points)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_box_counts(path, result: BoxCountResult):
    path = Path(path)
    lines = ["scale,occupied"]
    lines += [f"{fmt(s)},{occ}" for s, occ in result.counts]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path, payload: dict):
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
