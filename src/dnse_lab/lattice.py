"""Lattice states and the core nonlinear eigenproblem.

The stationary problem on a 1D chain of N sites is

    -psi[i-1] + 2 psi[i] - psi[i+1] - c psi[i]**3 = E psi[i]

with indices wrapped modulo N under periodic boundary conditions, or with
psi[-1] = psi[N] = 0 under open boundaries.  Only real amplitudes are
handled.  This module holds the value types plus the residual, the energy
functional it derives from, and the exact symmetry transforms (staggering
and the amplitude/coupling similarity rescaling).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import OddPeriodicLattice, ZeroState

class Boundary(str, Enum):
    PERIODIC = "periodic"
    OPEN = "open"


def _as_readonly(values) -> np.ndarray:
    """A float64 copy of values, marked read-only: the arrays that the
    frozen value types hold."""
    arr = np.array(values, dtype=float, copy=True)
    arr.flags.writeable = False
    return arr


def _held(value_type, array: np.ndarray, *rest):
    """value_type(array, *rest) without the copy and the checks of its
    __post_init__: the instance holds array itself, marked read-only.
    For a float64 array that the caller has just made, found valid and
    hands over, as a Newton iterate or a Jacobian diagonal."""
    array.flags.writeable = False
    held = object.__new__(value_type)
    vars(held).update(zip(value_type.__dataclass_fields__, (array, *rest)))
    return held


def _as_index(value, name: str) -> int:
    """A count or shift argument as an int, by operator.index, so that a
    numpy integer is taken; a bool (True would pass for 1), a float or
    any other non-integer raises ValueError naming the argument."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


def _as_points(points, owner: str) -> np.ndarray:
    """A read-only float64 copy of a nonempty (k, 2) point array; owner
    names the value type in the error."""
    pts = _as_readonly(points)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError(f"{owner} needs a nonempty (k, 2) point array")
    return pts


@dataclass(frozen=True)
class LatticeState:
    """Real amplitudes on N sites plus a boundary-condition tag.

    Immutable after construction; the amplitude array is marked read-only.
    """

    values: np.ndarray
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values))
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("state needs a 1D array with at least one site")
        if not np.isfinite(self.values).all():
            raise ValueError("amplitudes must be finite")

    @property
    def n_sites(self) -> int:
        return self.values.size

    def norm_squared(self) -> float:
        return float(np.dot(self.values, self.values))

    def rotated(self, shift: int) -> "LatticeState":
        """Cyclic shift of the amplitudes (meaningful under PBC)."""
        return LatticeState(np.roll(self.values, _as_index(shift, "shift")), self.boundary)


@dataclass(frozen=True)
class ModelParams:
    """Coupling constant and boundary condition.

    c > 0 is the self-trapping (quantum) sign; c < 0 corresponds to the
    classical coupled-oscillator problem, related by the staggering
    transform.
    """

    c: float
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if not np.isfinite(self.c):
            raise ValueError("coupling must be finite")


def _check_boundary(state: LatticeState, params: ModelParams):
    if state.boundary is not params.boundary:
        raise ValueError(
            f"boundary mismatch: state {state.boundary.value}, params {params.boundary.value}"
        )


def normalize(state: LatticeState) -> LatticeState:
    """Scale the amplitudes to unit sum of squares, preserving direction."""
    return _held(LatticeState, _normalized(np.array(state.values)), state.boundary)


def _normalized(values: np.ndarray) -> np.ndarray:
    """values divided in place by the square root of their sum of squares,
    and returned: normalize's arithmetic, for a new Newton iterate."""
    norm2 = float(np.dot(values, values))
    if norm2 == 0.0:
        raise ZeroState("cannot normalize the zero state")
    values /= math.sqrt(norm2)
    return values


def _neighbors(psi: np.ndarray, boundary: Boundary):
    """(left, right) neighbour of every site; past an open end reads 0."""
    if boundary is Boundary.PERIODIC:
        first, last = psi[-1:], psi[:1]  # the sites across the wrap
    else:
        first = last = [0.0]
    return np.concatenate((first, psi[:-1])), np.concatenate((psi[1:], last))


def residual(state: LatticeState, params: ModelParams, energy: float) -> np.ndarray:
    """Componentwise defect of the stationary equation.

    The state is an exact solution at (c, E) iff every component vanishes.
    """
    _check_boundary(state, params)
    return _stencil_residual(state.values, params.c, energy, state.boundary)


def _stencil_residual(psi: np.ndarray, c, energy, boundary: Boundary) -> np.ndarray:
    """The residual of bare amplitudes: a float array, or an object array
    of Decimal with Decimal c and energy for the high-precision polish.
    No float literal enters it (psi * 2, not 2.0 * psi): Decimal refuses
    a float operand.  On float64, psi * 2 is as fast as 2.0 * psi, where
    psi + psi takes a fifth longer.

    The hops are subtracted in place, in the order of psi * 2 - left -
    right: each site loses its left neighbour first and its right one
    second, site 0's left neighbour being the one across the wrap.  An
    open end subtracts nothing, which is what subtracting its 0.0 did."""
    res = psi * 2
    res[1:] -= psi[:-1]
    if boundary is Boundary.PERIODIC:
        res[0] -= psi[-1]
    res[:-1] -= psi[1:]
    if boundary is Boundary.PERIODIC:
        res[-1] -= psi[0]
    # psi*psi*psi, not psi**3: numpy's pow costs about 50 times as much.
    # The cube and then E psi go into one scratch array, so the residual
    # holds two arrays of N numbers.
    scratch = psi * psi
    scratch *= psi
    scratch *= c
    res -= scratch
    # psi on the left: an mpf energy on the left of an object array makes
    # mpmath's operator format the whole array into an error message
    # before numpy takes over
    res -= np.multiply(psi, energy, out=scratch)
    return res


def hamiltonian(state: LatticeState, params: ModelParams, energy: float) -> float:
    """Energy functional whose stationary points solve the lattice equation.

    H = sum (psi[i] - psi[i+1])**2 - (c/2) sum psi**4 - E sum psi**2,
    with the difference sum wrapping under PBC and running over
    i = 0..N-2 under open boundaries.
    """
    _check_boundary(state, params)
    psi = state.values
    bonds = psi - _neighbors(psi, state.boundary)[1]
    if state.boundary is Boundary.OPEN:
        bonds = bonds[:-1]  # the last site's right neighbour is the zero pad
    kinetic = float(np.sum(bonds**2))
    square = psi * psi
    quartic = float(np.sum(square * square))
    return kinetic - 0.5 * params.c * quartic - energy * state.norm_squared()


def gradient(state: LatticeState, params: ModelParams, energy: float) -> np.ndarray:
    """dH/dpsi[i]; exactly 2 * residual (the 2 comes from the quadratic forms).

    The Newton step is insensitive to the constant because it cancels
    between the gradient and the Hessian.
    """
    return 2.0 * residual(state, params, energy)


def stagger(state: LatticeState) -> LatticeState:
    """Alternate-site sign flip x[i] = (-1)**i psi[i].

    Maps the self-trapping problem at (c, E) onto the oscillator problem
    with eigenvalue e = 4 - E and reversed coupling sign.  An involution.
    Rejected for odd-N periodic lattices, where the flip is inconsistent
    at the wrap.
    """
    n = state.n_sites
    if state.boundary is Boundary.PERIODIC and n % 2 == 1:
        raise OddPeriodicLattice(f"staggering undefined for periodic N={n}")
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return LatticeState(signs * state.values, state.boundary)


def rescale(state: LatticeState, params: ModelParams, beta: float):
    """Similarity transform psi -> beta*psi, c -> c/beta**2.

    Solutions map to solutions with the same E: the residual of the new
    pair is exactly beta times the old one.  The squared norm scales by
    beta**2.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    new_state = LatticeState(beta * state.values, state.boundary)
    new_params = ModelParams(params.c / beta**2, params.boundary)
    return new_state, new_params
