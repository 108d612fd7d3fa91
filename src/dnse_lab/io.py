"""File formats shared by the CLI and the experiment scripts.

All floating-point output uses 17 significant digits so repeated runs with
the same resolved configuration are byte-identical.  Every writer creates
the parent directory of its file and returns the file's path, so a run
that fails before its first write leaves nothing behind.

State:        CSV `index,psi` plus a sidecar JSON {"N", "boundary", "c", "E"}.
Orbit:        CSV `step,psi,Z`.
Portrait:     CSV `psi,dpsi`.
Box counts:   CSV `scale,occupied`.
Pattern:      one line of +, 0 and - trits.
Tables:       CSV with a header row (sweeps and experiment summaries).
Reports:      plain JSON (solver report, classification, pattern counts).
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import BoxCountResult, PhasePortrait
from .lattice import Boundary, LatticeState
from .mapdyn import MapOrbit
from .patterns import PatternSpec

# Rows formatted and written at a time: a list of all the lines of a
# 2 10^4-point portrait held 3.6 MB, and a formatting call per line took
# 1.5 times as long as one per block.
_CHUNK_LINES = 1024


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _rows(row: str, *columns, numbered: bool):
    """The text of the columns, row % (k, *values) for row k, or row %
    values when not numbered, in blocks of _CHUNK_LINES rows.

    Each block reads its rows as Python floats and is formatted by one %
    operation; a %.17g field writes its value as fmt does."""
    for start in range(0, len(columns[0]), _CHUNK_LINES):
        block = [col[start:start + _CHUNK_LINES].tolist() for col in columns]
        if numbered:
            block.insert(0, range(start, start + len(block[0])))
        yield (row * len(block[0])) % tuple(chain.from_iterable(zip(*block)))


def _write(path, first: str, blocks=()):
    """Write the text first and a newline, then the blocks of
    newline-terminated text, to path, creating its directory.  Returns
    the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write(first + "\n")
        out.writelines(blocks)
    return path


def write_state(csv_path, state: LatticeState, c: float, energy):
    """Write the amplitude CSV and its sidecar JSON (same stem, .json)."""
    csv_path = _write(csv_path, "index,psi", _rows("%d,%.17g\n", state.values, numbered=True))
    sidecar = {
        "N": state.n_sites,
        "boundary": state.boundary.value,
        "c": c,
        "E": energy,
    }
    _write(csv_path.with_suffix(".json"), json.dumps(sidecar, indent=2))
    return csv_path


def read_state(csv_path):
    """Read a state CSV plus sidecar; returns (state, meta dict)."""
    csv_path = Path(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    if not lines or lines[0] != "index,psi":
        raise ValueError(f"{csv_path}: expected header 'index,psi'")
    values = np.empty(len(lines) - 1)
    for row, line in enumerate(lines[1:]):
        try:
            idx_s, psi_s = line.split(",")
            index, values[row] = int(idx_s), float(psi_s)
        except ValueError:
            raise ValueError(f"{csv_path}: row {row} is not 'index,psi': {line!r}") from None
        if index != row:
            raise ValueError(f"{csv_path}: non-contiguous index at row {row}")
    sidecar = csv_path.with_suffix(".json")
    try:
        meta = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{sidecar}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: expected a JSON object")
    if type(meta.get("N")) is not int:
        raise ValueError(f"{sidecar}: key 'N' missing or not an integer")
    boundaries = [b.value for b in Boundary]
    if meta.get("boundary") not in boundaries:
        raise ValueError(f"{sidecar}: key 'boundary' missing or not one of "
                         f"{', '.join(boundaries)}")
    try:
        state = LatticeState(values, Boundary(meta["boundary"]))
    except ValueError as exc:  # no rows, or an amplitude that is not finite
        raise ValueError(f"{csv_path}: {exc}") from None
    if state.n_sites != meta["N"]:
        raise ValueError(f"{csv_path}: sidecar N={meta['N']} != {state.n_sites} rows")
    return state, meta


def write_portrait(path, portrait: PhasePortrait):
    return _write(path, "psi,dpsi", _rows("%.17g,%.17g\n", *portrait.points.T, numbered=False))


def write_orbit(path, orbit: MapOrbit):
    return _write(path, "step,psi,Z", _rows("%d,%.17g,%.17g\n", *orbit.points.T, numbered=True))


def write_box_counts(path, result: BoxCountResult):
    return write_csv(path, ["scale", "occupied"], result.counts)


def write_pattern(path, spec: PatternSpec):
    return _write(path, spec.text())


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else fmt(value)


def write_csv(path, header, rows):
    """Write a small table: the column names, then one line per row.

    A cell that is None is left empty, a str is written as is, and a
    number is written by fmt.
    """
    return _write(path, ",".join(header), (",".join(map(_cell, row)) + "\n" for row in rows))


def write_json(path, payload: dict):
    return _write(path, json.dumps(payload, indent=2, sort_keys=True))
