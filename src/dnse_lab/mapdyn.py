"""The lattice recursion as an iterated 2D map.

With the auxiliary difference variable Z[i+1] = psi[i+1] - psi[i] the
stationary equation becomes the area-preserving map

    Z' = Z - E psi - c psi**3
    psi' = psi + Z'

so a lattice solution is a map orbit and vice versa.  Orbits may diverge;
escape is recorded as data, not raised.  A step whose psi**3 leaves the
float range takes the general path too: the cube reads +-inf, as float64
gives, where a Python float raises OverflowError, so the step returns a
non-finite point.

iterate_map steps on plain floats in its loop body, with _step's
expressions in _step's order, so every point has map_step's bits; the
call and the tuple a step that it saves were about a fifth of its time.
_step stays for map_step, map_step_inverse and the Decimal map check.
iterate_map records psi and Z into one flat list, two appends a step,
which becomes the orbit's (k, 2) array without a second copy.  Its
escape test is one chain of comparisons against the bound clamped to
the largest float: a NaN fails every comparison and an infinity fails
the clamped bound, so a point that leaves the float range escapes under
any bound, inf included.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import EscapedOrbit
from .lattice import Boundary, LatticeState, _as_index, _as_points, _held

DEFAULT_ESCAPE_BOUND = 1e8


class MapState(NamedTuple):
    psi: float
    Z: float


@dataclass(frozen=True)
class MapOrbit:
    """Visited (psi, Z) points; truncated at the first escape if any."""

    points: np.ndarray  # shape (k, 2), columns psi, Z
    escaped: bool = False
    escape_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points, "orbit"))

    @property
    def psi(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def Z(self) -> np.ndarray:
        return self.points[:, 1]


def map_step(s: MapState, energy: float, c: float) -> MapState:
    """One forward application of the map; non-finite once it overflows."""
    return MapState(*_step(s.psi, s.Z, energy, c))


def _step(psi, z, energy, c) -> tuple:
    """map_step on plain numbers: (psi', Z')."""
    try:
        cube = psi**3
    except OverflowError:  # a Python float; float64 gives +-inf
        cube = math.copysign(math.inf, psi)
    z_next = z - energy * psi - c * cube
    return psi + z_next, z_next


def map_step_inverse(s: MapState, energy: float, c: float) -> MapState:
    """Exact inverse: psi = psi' - Z', Z = Z' + E psi + c psi**3, the
    negated Z' of a forward step from (psi, -Z').  Rounding is symmetric,
    so the values are those of the formula; only a Z of exactly zero may
    differ in sign."""
    psi_prev = s.psi - s.Z
    return MapState(psi_prev, -_step(psi_prev, -s.Z, energy, c)[1])


def iterate_map(
    initial: MapState,
    energy: float,
    c: float,
    steps: int,
    escape_bound: float = DEFAULT_ESCAPE_BOUND,
) -> MapOrbit:
    """Iterate the map, recording visited points (including the seed).

    Stops early once |psi| or |Z| exceeds escape_bound or leaves the
    float range; the offending point (inf or nan in the latter case) is
    kept and the orbit is flagged escaped.  E, c and the seed must be
    finite, and escape_bound positive (inf included).  Each step is
    _step written out in the loop, psi**3 and its OverflowError fallback
    included, so the points are map_step's to the bit.
    """
    steps = _as_index(steps, "steps")
    if steps < 1:
        raise ValueError("need at least one step")
    if not all(map(math.isfinite, (energy, c, initial.psi, initial.Z))):
        raise ValueError("E, c and the seed must be finite")
    if not escape_bound > 0:
        raise ValueError("escape bound must be positive")
    psi, z = float(initial.psi), float(initial.Z)
    # -bound <= v <= bound is abs(v) <= escape_bound for a finite v, and
    # false for a NaN or an infinite v
    bound = min(escape_bound, sys.float_info.max)
    recorded = [psi, z]
    append = recorded.append
    escape_index = None
    for k in range(1, steps + 1):
        # _step, written out: the same expressions in the same order
        try:
            cube = psi**3
        except OverflowError:
            cube = math.copysign(math.inf, psi)
        z = z - energy * psi - c * cube
        psi = psi + z
        append(psi)
        append(z)
        if not (-bound <= psi <= bound and -bound <= z <= bound):
            escape_index = k
            break
    points = np.array(recorded, dtype=float).reshape(-1, 2)
    return _held(MapOrbit, points, escape_index is not None, escape_index)


def seed_from_lattice(state: LatticeState) -> MapState:
    """Map seed (psi[1], psi[1]-psi[0]) reproducing the lattice recursion."""
    if state.n_sites < 2:
        raise ValueError("need at least two sites to seed the map")
    psi = state.values
    return MapState(float(psi[1]), float(psi[1] - psi[0]))


def lattice_from_orbit(orbit: MapOrbit) -> LatticeState:
    """Read the psi track of a bounded orbit as an open-boundary state.

    Interior residual components vanish by construction when the orbit's
    (E, c) are used; the state is not normalized.
    """
    if orbit.escaped:
        raise EscapedOrbit("cannot extract a lattice state from an escaped orbit")
    return LatticeState(orbit.psi, Boundary.OPEN)
