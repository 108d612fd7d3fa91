"""Newton continuation of strong-coupling patterns to finite coupling.

The Hessian of the energy functional is (up to a factor 2 shared with the
gradient) a symmetric tridiagonal matrix with diagonal 2 - E - 3 c psi**2,
off-diagonal -1 and, under PBC, -1 in the two corners.  One private
kernel, _tridiag_solve, solves this system in O(N) for any N, for float64
here and for mpmath in the high-precision polish: it factors the matrix
once by Thomas elimination, restores the corners by a rank-1
Sherman-Morrison correction, and sweeps every right-hand side through the
one factorization.  One private loop, _newton_loop, iterates both solvers;
each supplies only its step.  The float64 step freezes E at the estimate

    E(k) = -c sum psi**3 / sum psi        (PBC)

falling back to the Rayleigh quotient when the amplitude sum is too small
(exactly antisymmetric states make the formula 0/0; both estimators agree
at any true solution).  After each step the state is renormalized to unit
norm, which pins the iteration to the normalized solution branch instead
of drifting along the amplitude-rescaling family.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, count, repeat
from typing import Optional

import numpy as np

from .errors import (
    AllZero,
    NoConvergence,
    SingularJacobian,
    SumTooSmall,
    ZeroState,
)
from .lattice import Boundary, LatticeState, ModelParams, normalize, residual
from .patterns import PatternCounts, count_pattern, quantize_state

# The cubic energy estimator is abandoned when |sum psi| falls below
# SUM_REL_THRESHOLD * sqrt(N); the sqrt(N) scaling handles random
# cancellation on large lattices uniformly.
SUM_REL_THRESHOLD = 1e-8
# A pivot below PIVOT_REL_THRESHOLD * max(max|diag|, 1), or a
# Sherman-Morrison denominator below PIVOT_REL_THRESHOLD, is singular.
PIVOT_REL_THRESHOLD = 1e-14
# An energy jump larger than this between iterations, after the second,
# flags a change of localization pattern.
STRUCTURE_CHANGE_THRESHOLD = 1.0
# The nearest-neighbour hop: the off-diagonal and ring-corner entry of J.
OFF_DIAGONAL = -1.0


@dataclass(frozen=True)
class JacobianMatrix:
    """Symmetric (cyclic) tridiagonal Hessian/2, stored in O(N)."""

    diag: np.ndarray
    periodic: bool

    def __post_init__(self):
        d = np.array(self.diag, dtype=float, copy=True)
        d.flags.writeable = False
        object.__setattr__(self, "diag", d)

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[1:] += OFF_DIAGONAL * x[:-1]
        y[:-1] += OFF_DIAGONAL * x[1:]
        if self.periodic:
            y[0] += OFF_DIAGONAL * x[-1]
            y[-1] += OFF_DIAGONAL * x[0]
        return y

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (tests and tiny systems only)."""
        a = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        a[idx, idx + 1] = OFF_DIAGONAL
        a[idx + 1, idx] = OFF_DIAGONAL
        if self.periodic:
            a[0, -1] += OFF_DIAGONAL
            a[-1, 0] += OFF_DIAGONAL
        return a


@dataclass(frozen=True)
class NewtonConfig:
    """Residual max-norm tolerance and iteration budget."""

    tol_residual: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if self.tol_residual <= 0 or self.max_iter <= 0:
            raise ValueError("tolerance and max_iter must be positive")


@dataclass(frozen=True)
class NewtonReport:
    """Per-run diagnostics; histories have length iterations + 1."""

    iterations: int
    energy_history: tuple
    residual_history: tuple
    converged: bool
    structure_changed: bool = False
    structure_change_iteration: Optional[int] = None
    final_counts: Optional[PatternCounts] = None
    final_norm: float = 0.0
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "E": self.energy_history[-1],
            "E_history": list(self.energy_history),
            "residual_history": list(self.residual_history),
            "structure_changed": self.structure_changed,
            "structure_change_iteration": self.structure_change_iteration,
            "counts": self.final_counts.as_dict() if self.final_counts else None,
            "final_norm": self.final_norm,
            "seed": self.seed,
        }


def energy_estimate(state: LatticeState, params: ModelParams) -> float:
    """Cubic-sum energy estimator, defined for PBC only."""
    if params.boundary is not Boundary.PERIODIC:
        raise ValueError("the cubic energy estimator is defined for PBC only")
    psi = state.values
    total = float(np.sum(psi))
    cutoff = SUM_REL_THRESHOLD * np.sqrt(psi.size)
    if abs(total) < cutoff:
        raise SumTooSmall(f"|sum psi| = {abs(total):.3e} below {cutoff:.3e}")
    return -params.c * float(np.sum(psi**3)) / total


def rayleigh_energy(state: LatticeState, params: ModelParams) -> float:
    """Rayleigh-quotient energy; agrees with the cubic estimator at solutions."""
    norm2 = state.norm_squared()
    if norm2 == 0.0:
        raise ZeroState("Rayleigh quotient undefined for the zero state")
    # residual at E = 0 is the operator applied to psi
    applied = residual(state, params, 0.0)
    return float(np.dot(state.values, applied)) / norm2


def assemble_jacobian(state: LatticeState, params: ModelParams, energy: float) -> JacobianMatrix:
    """Build the (cyclic) tridiagonal Newton matrix at a state, any N."""
    diag = 2.0 - energy - 3.0 * params.c * state.values**2
    return JacobianMatrix(diag=diag, periodic=state.boundary is Boundary.PERIODIC)


def _sweep(inv, rhs):
    """Forward and back substitution through the reciprocal pivots inv."""
    x = inv[:]  # sized up front: growing it by append raised peak RSS
    prev = 0
    for i, (b, w) in enumerate(zip(rhs, inv)):
        prev = x[i] = (b + prev) * w
    for i in range(len(x) - 2, -1, -1):
        prev = x[i] = x[i] + inv[i] * prev
    return x


def _tridiag_solve(diag, rhss, periodic: bool):
    """Solve T x = b for every b in rhss, factoring T once.

    T has the diagonal diag, off-diagonals -1 and, when periodic, -1 in
    the two corners.  The loops run on the elements as plain Python
    numbers, so one code serves float (diag an array('d')) and mpmath
    (diag a list of mpf); each solution comes back in the container type
    of diag.  A ring is solved as in Numerical Recipes 2.7: the corners
    are peeled off as a rank-1 update u v^T of an open chain, and
    Sherman-Morrison restores them with one more sweep, of u.  On a
    two-site ring the corners land on the off-diagonals, which become -2;
    a one-site ring is the 1x1 system d - 2.

    Raises SingularJacobian on a pivot below PIVOT_REL_THRESHOLD times
    max(max|diag|, 1), or a Sherman-Morrison denominator below
    PIVOT_REL_THRESHOLD, before dividing by it.
    """
    n = len(diag)
    if periodic and n == 1:
        diag = diag[:]
        diag[0] -= 2  # both hops land on the site itself
        periodic = False
    pivot_tol = PIVOT_REL_THRESHOLD * max(max(map(abs, diag)), 1)
    inv = diag[:]  # the modified diagonal, then the reciprocal pivots
    if periodic:
        gamma = -(abs(diag[0]) + 1)
        inv[0] -= gamma
        inv[-1] -= 1 / gamma  # corners are -1, -1: product/gamma
    w = 0
    for i, d in enumerate(inv):
        den = d - w
        if abs(den) < pivot_tol:
            raise SingularJacobian(f"pivot {float(den):.3e} at row {i}")
        w = inv[i] = 1 / den
    if not periodic:
        return [_sweep(inv, b) for b in rhss]

    # u = (gamma, 0, ..., 0, -1), v = (1, 0, ..., 0, -1/gamma)
    q = _sweep(inv, chain((gamma,), repeat(0, n - 2), (-1,)))
    den = 1 + q[0] - q[-1] / gamma
    if abs(den) < PIVOT_REL_THRESHOLD:
        raise SingularJacobian(f"rank-1 correction denominator {float(den):.3e}")
    solutions = []
    for b in rhss:
        y = _sweep(inv, b)
        factor = (y[0] - y[-1] / gamma) / den
        for i, qi in enumerate(q):
            y[i] -= qi * factor
        solutions.append(y)
    return solutions


def solve_linear(jac: JacobianMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve J x = rhs in O(N).

    Open boundary: plain Thomas elimination.  PBC: the corner entries are
    peeled off as a rank-1 update and restored by the Sherman-Morrison
    formula.  A pivot below PIVOT_REL_THRESHOLD times the matrix scale
    raises SingularJacobian.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (jac.n,):
        raise ValueError("rhs length does not match the matrix")
    # array('d') holds a site in 8 bytes, where a list of floats takes 32
    [x] = _tridiag_solve(array("d", jac.diag.tobytes()), [array("d", rhs.tobytes())],
                         jac.periodic)
    return np.frombuffer(x)


def _estimate(state: LatticeState, params: ModelParams) -> float:
    if params.boundary is Boundary.PERIODIC:
        try:
            return energy_estimate(state, params)
        except SumTooSmall:
            return rayleigh_energy(state, params)
    return rayleigh_energy(state, params)


def _finalize(state, iterations, e_hist, r_hist, converged, seed):
    changed_at = None
    for j in range(3, len(e_hist)):
        if abs(e_hist[j] - e_hist[j - 1]) > STRUCTURE_CHANGE_THRESHOLD:
            changed_at = j
            break
    try:
        counts = count_pattern(quantize_state(state))
    except AllZero:
        counts = None
    return NewtonReport(
        iterations=iterations,
        energy_history=tuple(e_hist),
        residual_history=tuple(r_hist),
        converged=converged,
        structure_changed=changed_at is not None,
        structure_change_iteration=changed_at,
        final_counts=counts,
        final_norm=state.norm_squared(),
        seed=seed,
    )


def _newton_loop(state, energy, residual_of, step, tol, max_iter, report):
    """The Newton iteration of newton_solve and the mpmath polish.

    Each iteration evaluates res = residual_of(state, energy) once and
    records E and the residual max-norm.  It stops when the norm is not
    above tol (tested before stepping; NaN stops unconverged) or after
    max_iter steps; otherwise step(state, energy, res) gives the next
    (state, energy).  Returns (state, energy, report(state, iterations,
    e_hist, r_hist, converged)).  Raises NoConvergence, or SingularJacobian
    when a step does, with the last iterate, its E and the report attached.
    """
    e_hist, r_hist = [], []
    for iterations in count():
        res = residual_of(state, energy)
        res_norm = np.max(np.abs(res))
        e_hist.append(float(energy))
        r_hist.append(float(res_norm))
        if not res_norm > tol or iterations == max_iter:
            break
        try:
            state, energy = step(state, energy, res)
        except SingularJacobian as exc:
            failed = report(state, iterations, e_hist, r_hist, False)
            raise SingularJacobian(str(exc), state=state, energy=energy, report=failed) from exc
        # drop it before the next residual is built: holding both raised
        # peak memory by about 3 MB at N = 10^5
        del res
    converged = bool(res_norm <= tol)
    final = report(state, iterations, e_hist, r_hist, converged)
    if not converged:
        raise NoConvergence(state, energy, final)
    return state, energy, final


def newton_solve(
    initial: LatticeState,
    params: ModelParams,
    config: NewtonConfig = NewtonConfig(),
    seed: Optional[int] = None,
):
    """Iterate Newton steps from a (normalized) starting state.

    Each step freezes E at its estimate, solves J step = F at (psi, E)
    for the residual F the loop has just evaluated, renormalizes and
    re-estimates E.  Stops when the residual max-norm drops below tol
    (checked before stepping, so an exact start converges at iteration
    0).  A jump in the energy history larger than the structure-change
    threshold after the second iteration is flagged as a change of
    localization pattern; the run still converges to the new structure,
    which is a solution in its own right.

    Returns (state, energy, report).  Raises NoConvergence or
    SingularJacobian with the best iterate attached.
    """

    def frozen_energy_step(state, energy, res):
        new_values = state.values - solve_linear(assemble_jacobian(state, params, energy), res)
        if not np.all(np.isfinite(new_values)) or not np.any(new_values):
            raise SingularJacobian("Newton step produced a degenerate state")
        state = normalize(LatticeState(new_values, state.boundary))
        return state, _estimate(state, params)

    state = normalize(initial)
    return _newton_loop(state, _estimate(state, params),
                        lambda state, energy: residual(state, params, energy),
                        frozen_energy_step, config.tol_residual, config.max_iter,
                        partial(_finalize, seed=seed))


@dataclass(frozen=True)
class SweepRecord:
    """One continuation point of a coupling sweep."""

    c: float
    energy: Optional[float]
    converged: bool
    counts: Optional[PatternCounts]
    max_amplitude: Optional[float]
    structure_changed: bool = False
    error: Optional[str] = None


def sweep_c(
    initial: LatticeState,
    params: ModelParams,
    c_values,
    config: NewtonConfig = NewtonConfig(),
):
    """Warm-started continuation over a monotone sequence of couplings.

    Each solve starts from the previous converged state; failures are
    recorded per point and the sweep continues from the last good state.
    """
    c_values = list(c_values)
    if len(c_values) > 1:
        diffs = np.diff(c_values)
        if not (np.all(diffs >= 0) or np.all(diffs <= 0)):
            raise ValueError("c_values must be monotone")
    records = []
    current = normalize(initial)
    for c in c_values:
        point_params = replace(params, c=float(c))
        try:
            solved, energy, report = newton_solve(current, point_params, config)
        except (NoConvergence, SingularJacobian) as exc:
            report = getattr(exc, "report", None)
            records.append(
                SweepRecord(
                    c=float(c),
                    energy=getattr(exc, "energy", None),
                    converged=False,
                    counts=report.final_counts if report else None,
                    max_amplitude=None,
                    structure_changed=report.structure_changed if report else False,
                    error=type(exc).__name__,
                )
            )
            continue
        current = solved
        records.append(
            SweepRecord(
                c=float(c),
                energy=energy,
                converged=True,
                counts=report.final_counts,
                max_amplitude=float(np.max(np.abs(solved.values))),
                structure_changed=report.structure_changed,
            )
        )
    return records
