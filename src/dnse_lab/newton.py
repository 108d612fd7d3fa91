"""Newton continuation of strong-coupling patterns to finite coupling.

The Hessian of the energy functional is (up to a factor 2 shared with the
gradient) a symmetric tridiagonal matrix with diagonal 2 - E - 3 c psi**2,
off-diagonal -1 and, under PBC, -1 in the two corners.  solve_linear
solves it in O(N), for one right-hand side or a stack of them through one
factorization.  Below REDUCTION_MIN_SITES it calls the scalar kernel,
_tridiag_solve, which also serves the high-precision polish's Decimal: it
factors the matrix once by Thomas elimination, restores the corners by a
rank-1 Sherman-Morrison correction, and sweeps every right-hand side
through the one factorization, site by site on lists of floats or Decimal.
From REDUCTION_MIN_SITES float64 sites on (640, the measured crossover;
its timing table is at the constant) it takes odd-even cyclic reduction
(Hockney 1965; Buzbee, Golub & Nielson 1970), one recursion over the
levels: _reduce eliminates the odd sites of a ring by numpy operations
across it, solves the ring of its even sites, half the size, by calling
itself down to one site, and back-substitutes the odd sites.  The copy of
the diagonal it works in ends holding every reciprocal pivot, and those
are tested once; a small pivot, or a solution whose backward error is not
small, sends the system to the scalar kernel.  One private loop,
_newton_loop, iterates both solvers and builds both runs' NewtonReport
from what it recorded; each solver supplies only its step, and adds to
the report only what depends on its state.  newton_solve stops at its
tolerance or, where that is larger, at the residual that rounding alone
can leave.

An iteration allocates only the arrays of N numbers its arithmetic uses,
and copies and tests none of them again: the residual is built in place
from psi * 2 with one scratch array, the Jacobian's diagonal in one
array, which the JacobianMatrix holds as made, the bordered step's two
right-hand sides are handed to solve_linear as rows and copied once, into
the array the reduction solves in place, and its new psi is one array,
psi - a, which frees the rows with the step.  A frozen-E step subtracts,
checks and normalizes its new iterate in the array of its solution.  The
new iterate is tested finite and nonzero once, and the next LatticeState
holds that array itself, read-only (lattice._held), as normalize holds
its one copy.  The reduction's first level forms no hop products and
hands the second its hops as a view of its own pivots, the pivot copy is
freed before the backward-error residuals, and the normalized start is
freed after the first step.  The traced peak of a solve is about 6.5
arrays of N float64: 5.0 MiB at 10^5 sites and 50 MiB at 10^6.  On the
paper's chains a warm-started sweep point takes one bordered step, and
the scalar kernel takes 35-41% of a sweep's time (see the README).

newton_solve runs in two phases, chosen at each step from the residual
max-norm the loop has just evaluated.  Above BORDERED_RESIDUAL the step
freezes E at the estimate

    E(k) = -c sum psi**3 / sum psi        (PBC)

falling back to the Rayleigh quotient when the amplitude sum is too small
(exactly antisymmetric states make the formula 0/0; both estimators agree
at any true solution), and renormalizes the state to unit norm, which pins
the iteration to the normalized solution branch instead of drifting along
the amplitude-rescaling family.  This phase converges linearly, and it is
the one that picks the state a cold start ends on.  At or below
BORDERED_RESIDUAL the step is _bordered_step, the Newton step on (psi, E)
with the norm as the border that the high-precision polish takes too; it
converges quadratically to the state the first phase has settled near.

sweep_c continues a state over a monotone sequence of couplings.  It
predicts each start by the Lagrange extrapolation in c through the last
PREDICTOR_POINTS converged states (Allgower & Georg 1990, ch. 2), and
newton_solve corrects it: on the paper's chains the start lies well
inside the bordered phase, and a warm-started point takes one step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, getcontext
from itertools import count
from typing import Optional

import numpy as np

from .errors import NoConvergence, SingularJacobian, SumTooSmall, ZeroState
from .lattice import (Boundary, LatticeState, ModelParams, _as_index, _as_readonly, _held,
                      _normalized, normalize, residual)
from .patterns import PatternCounts, _count, _trits

# The cubic energy estimator is abandoned when |sum psi| falls below
# SUM_REL_THRESHOLD * sqrt(N); the sqrt(N) scaling handles random
# cancellation on large lattices uniformly.
SUM_REL_THRESHOLD = 1e-8
# A pivot below PIVOT_REL_THRESHOLD * max(max|diag|, 1), or a
# Sherman-Morrison denominator below PIVOT_REL_THRESHOLD, is singular.
# It is 10**(2 - 16) for float64's 16 digits; on Decimal _tridiag_solve
# takes 10**(2 - prec) for the context's prec digits instead.
PIVOT_REL_THRESHOLD = 1e-14
# A cyclic-reduction solution is kept when |J x - b| is at most this times
# max|diag| + 2 times max|x|, plus max|b| (about 450 machine epsilons).
# Seen: up to 1.8 eps on Newton steps and 8.1 eps on random diagonals in
# (-1.9, 1.9), where the scalar sweep itself reaches 59 eps; a pivot of
# 1e-6 that passes the pivot test gives 13500 eps.
BACKWARD_REL_THRESHOLD = 1e-13
# An energy jump larger than this between iterations, after the second,
# flags a change of localization pattern.
STRUCTURE_CHANGE_THRESHOLD = 1.0
# newton_solve takes the bordered (psi, E) step once the residual max-norm
# is at most this, and the frozen-E step above it.  The frozen-E phase
# chooses the state; 1e-2 and 1e-4 ended on the same states as 1e-3 on the
# random rings of 10^4 sites, pattern seeds 0-199, at c = 4N.
BORDERED_RESIDUAL = 1e-3
# solve_linear takes cyclic reduction from this many sites on: the smallest
# size of the table below at which the reduction is faster both for one
# right-hand side and for two.  Microseconds per call on converged Newton
# Jacobians of random rings (pattern seed 1, c = 4N); median of nine runs
# (five let the crossover wander from 512 to 1000 between passes), each
# the best of 7 x 300 calls with the four cases timed in turn (2-vCPU
# Xeon, Python 3.11, numpy 2.4):
#
#     N                    256  320  400  448  512  576  640  768  1000
#     scalar sweep, 1 rhs  238  267  341  373  420  459  567  605   953
#     reduction, 1 rhs     422  417  431  431  452  531  486  515   572
#     scalar sweep, 2 rhs  326  359  486  544  566  702  810  905  1361
#     reduction, 2 rhs     587  538  467  597  636  661  739  672   724
#
# The paper's chains (100 and 130 sites) stay on the scalar sweep.
REDUCTION_MIN_SITES = 640
# sweep_c starts each point from the extrapolation through this many
# converged states.  Newton iterations of the two 61-point sweeps of the
# benchmark (chain100 over c = 24..30 and chain130 over c = 40..46, step
# 0.1); 5 points take as many as 4:
#
#     points (polynomial order)   1 (0)  2 (1)  3 (2)  4 (3)
#     iterations                    378    262    202    150
PREDICTOR_POINTS = 4


@dataclass(frozen=True)
class JacobianMatrix:
    """Symmetric (cyclic) tridiagonal Hessian/2, stored in O(N)."""

    diag: np.ndarray
    periodic: bool

    def __post_init__(self):
        object.__setattr__(self, "diag", _as_readonly(self.diag))

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _matvec(self.diag, x, self.periodic)

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (for tests and checks)."""
        return _matvec(self.diag[:, None], np.eye(self.n), self.periodic)


def _matvec(diag, x, periodic: bool) -> np.ndarray:
    """J x for the J with diagonal diag and hops -1; a column diag[:, None]
    applies J to each column of a matrix x."""
    y = diag * x
    y[1:] -= x[:-1]
    y[:-1] -= x[1:]
    if periodic:
        y[0] -= x[-1]
        y[-1] -= x[0]
    return y


@dataclass(frozen=True)
class NewtonConfig:
    """Residual max-norm tolerance and iteration budget (an integer >= 1).
    newton_solve accepts a residual up to the rounding floor where larger."""

    tol_residual: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not 0 < self.tol_residual < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if _as_index(self.max_iter, "max_iter") < 1:
            raise ValueError("max_iter must be a positive integer")


@dataclass(frozen=True)
class NewtonReport:
    """Per-run diagnostics; histories have length iterations + 1.

    bordered_from is the first iteration j whose step, taken from iterate
    j, was a bordered (psi, E) step, or None when none was.
    structure_change_iteration is the first j >= 3 whose E jumped by more
    than STRUCTURE_CHANGE_THRESHOLD from iterate j - 1, or None.
    final_counts and final_norm describe the last iterate; the polish
    leaves final_counts None.
    """

    iterations: int
    energy_history: tuple
    residual_history: tuple
    converged: bool
    structure_change_iteration: Optional[int] = None
    final_counts: Optional[PatternCounts] = None
    final_norm: float = 0.0
    bordered_from: Optional[int] = None

    @property
    def structure_changed(self) -> bool:
        return self.structure_change_iteration is not None

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "bordered_from": self.bordered_from,
            "converged": self.converged,
            "E": self.energy_history[-1],
            "E_history": list(self.energy_history),
            "residual_history": list(self.residual_history),
            "structure_changed": self.structure_changed,
            "structure_change_iteration": self.structure_change_iteration,
            "counts": self.final_counts.as_dict() if self.final_counts else None,
            "final_norm": self.final_norm,
        }


def energy_estimate(state: LatticeState, params: ModelParams) -> float:
    """Cubic-sum energy estimator, defined for PBC only."""
    if params.boundary is not Boundary.PERIODIC:
        raise ValueError("the cubic energy estimator is defined for PBC only")
    psi = state.values
    total = float(psi.sum())
    cutoff = SUM_REL_THRESHOLD * math.sqrt(psi.size)
    if abs(total) < cutoff:
        raise SumTooSmall(f"|sum psi| = {abs(total):.3e} below {cutoff:.3e}")
    cube = psi * psi
    cube *= psi
    return -params.c * float(cube.sum()) / total


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
    return _held(JacobianMatrix, _jacobian_diagonal(state.values, params.c, energy),
                 state.boundary is Boundary.PERIODIC)


def _jacobian_diagonal(psi, c, energy):
    """2 - E - 3 c psi**2, on float64 or on an object array of Decimal;
    as in _stencil_residual, no float literal enters it and the array
    stays on the left of every operator."""
    diag = psi * psi
    diag *= 3 * c
    return np.subtract(2 - energy, diag, out=diag)


def _sweep(inv, rhs):
    """Forward and back substitution through the reciprocal pivots inv of
    the chain whose hops are -1."""
    prev = 0
    x = [prev := (b + prev) * w for b, w in zip(rhs, inv)]  # prev carries x[i - 1]
    for i in range(len(x) - 2, -1, -1):
        prev = x[i] = x[i] + inv[i] * prev
    return x


def _tridiag_solve(diag, rhss, periodic: bool):
    """Solve J x = b for every b in rhss, factoring J once.

    J is symmetric with the diagonal diag, off-diagonals -1 and, when
    periodic, -1 in the two corners.  diag and each b are lists, of floats
    or of Decimal, and each solution comes back as a list: the loops run on
    plain Python numbers, so one code serves float64 and the high-precision
    polish alike.  The singularity threshold scales with the precision:
    PIVOT_REL_THRESHOLD, 10**(2 - 16), for floats, and 10**(2 - prec) for
    Decimal at the context's prec digits, formed in Decimal, so that no
    float enters the arithmetic.  A
    ring is solved as in Numerical Recipes 2.7: the corners are peeled off
    as a rank-1 update u v^T of an open chain, and Sherman-Morrison
    restores them with one more sweep, of u.  On a two-site ring the
    corners land on the off-diagonals; a one-site ring is the 1x1 system
    d - 2.

    Raises SingularJacobian on a pivot below the threshold times
    max(max|diag|, 1), or a Sherman-Morrison denominator below the
    threshold, before dividing by it; a NaN pivot or denominator counts as
    below.
    """
    n = len(diag)
    if periodic and n == 1:
        diag = diag[:]
        diag[0] -= 2  # both hops land on the site itself
        periodic = False
    rel = Decimal(10).scaleb(2 - getcontext().prec) if isinstance(diag[0], Decimal) else PIVOT_REL_THRESHOLD
    pivot_tol = rel * max(max(diag), -min(diag), 1)
    inv = diag[:]  # the modified diagonal, then the reciprocal pivots
    if periodic:
        gamma = -(abs(diag[0]) + 1)
        inv[0] -= gamma
        inv[-1] -= 1 / gamma  # corners are -1, -1: product/gamma
    w = 0
    for i, d in enumerate(inv):
        den = d - w
        if not abs(den) >= pivot_tol:  # a NaN pivot is singular too
            raise SingularJacobian(f"pivot {float(den):.3e} at row {i}")
        w = inv[i] = 1 / den
    if not periodic:
        return [_sweep(inv, b) for b in rhss]

    # u = (gamma, 0, ..., 0, -1), v = (1, 0, ..., 0, -1/gamma)
    q = _sweep(inv, [gamma] + [0] * (n - 2) + [-1])
    den = 1 + q[0] - q[-1] / gamma
    if not abs(den) >= rel:
        raise SingularJacobian(f"rank-1 correction denominator {float(den):.3e}")
    solutions = []
    for b in rhss:
        y = _sweep(inv, b)
        factor = (y[0] - y[-1] / gamma) / den
        for i, qi in enumerate(q):
            y[i] -= qi * factor
        solutions.append(y)
    return solutions


def _reduce(d, g, wrap, b):
    """Solve one level of odd-even cyclic reduction, and every level below
    it, in place.

    The level is a ring (or a chain) of m sites with diagonal d, the hop
    -g[j] between sites j and j + 1 and the hop -wrap between sites m - 1
    and 0 (wrap is -0.0, the negated 0, on a chain); b holds the
    right-hand sides, one per row.  Each hop is carried negated, which
    rounds every result as the hop itself would: squares keep their bits,
    and x + g y is x - (-g) y.  g None stands for J's own hops, g = 1, on
    the first level, where every hop product is its other factor.  With
    w = 1/d on an odd site j, its neighbours i get d[i] -= g**2 w and
    b[i] += g w b[j] through the hop -g that joins them, and the two even
    neighbours of j are joined by the new hop -g[j-1] g[j] w; on the first
    level that is -w, so the next level's g is a view of this level's
    pivots.  Parity settles the wrap: on an even ring the last odd site
    has site 0 as its right neighbour and the new wrap passes through it,
    and on an odd ring sites m - 1 and 0 stay joined by wrap; on a
    two-site ring both hops join the same pair and add.  The even sites
    form the next level, half the size, solved by the recursion; a
    one-site level is the 1x1 system d - 2 wrap.  Back substitution then
    gives each odd site from its two solved neighbours.

    d ends holding every reciprocal pivot of the level and of those below
    it (w on each level's odd sites, and 1/(d - 2 wrap) of the one-site
    level on site 0), and b the solutions.  b is a 2-D view and may have
    no rows; its rows are updated one at a time to bound the temporaries.
    Nothing is checked here.
    """
    m = d.size
    if m == 1:
        d[0] = 1 / (d[0] - 2 * wrap)
        b[:, 0] *= d[0]
        return
    h, k = m // 2, (m - 1) // 2  # odd sites, those with a right neighbour before the wrap
    w = np.divide(1.0, d[1::2], out=d[1::2])
    unit = g is None
    if not unit:
        left, right = g[0:2 * h:2], g[1::2]
    d[::2][:h] -= w if unit else left * left * w
    d[2::2] -= w[:k] if unit else right * right * w[:k]
    for row in b:
        y = row[1::2]
        y *= w  # w b on the odd sites, until back substitution
        row[::2][:h] += y if unit else left * y
        row[2::2] += y[:k] if unit else right * y[:k]
    next_wrap = wrap
    if k < h:  # the last odd site's right neighbour is site 0
        d[0] -= wrap * wrap * w[-1]
        b[:, 0] += wrap * b[:, -1]
        next_wrap = wrap * (w[-1] if unit else left[-1] * w[-1])
    _reduce(d[::2], w[:k] if unit else left[:k] * right * w[:k], next_wrap, b[:, ::2])
    for row in b:
        xe, xo = row[::2], row[1::2]
        xo += (w if unit else w * left) * xe[:h]
        xo[:k] += (w[:k] if unit else w[:k] * right) * xe[1:]
        if k < h:
            xo[-1] += w[-1] * wrap * xe[0]


def _cyclic_reduction(diag: np.ndarray, rhs: np.ndarray, periodic: bool):
    """Solve J x = rhs by odd-even cyclic reduction, or return None.

    rhs is one right-hand side of shape (N,), a stack (K, N) or a sequence
    of K rows of N; the pivots are computed once for all of them.  The
    rows are copied once, into the (K, N) result, and the backward-error
    test reads the caller's rows, which are left unchanged.  _reduce
    eliminates the odd sites of the ring, solves the ring of its even
    sites by recursion down to one site, and back-substitutes, so no
    rank-1 correction and no reduced system are needed (Hockney 1965;
    Buzbee, Golub & Nielson 1970).  It carries the hops negated, and the
    first level's, the unit hops of J, as None: that level forms no hop
    products, and its pivots are the second level's hops.  x is solved in
    place in the rows of the result, and every level's diagonal in one
    copy of diag, so only the hops of the third level on are made.

    The copy ends holding every reciprocal pivot, and those are tested
    once, after the recursion; the copy is freed as soon as they pass,
    before the backward-error residuals.  Returns None, so that the caller
    falls back to the scalar sweep and its singularity test, when a pivot
    at any level is below the threshold of that test (NaN included), or
    when the backward error of any solution of the stack is above
    BACKWARD_REL_THRESHOLD.  No pivoting is done, so a pivot just above
    the threshold leaves large weights whose contributions cancel; the
    backward-error test catches what results.
    """
    n = diag.size
    x = np.array(rhs, dtype=float)  # the one copy, solved in place
    rows = x.reshape(-1, n)
    diag_max = max(diag.max(), -diag.min())
    limit = 1 / (PIVOT_REL_THRESHOLD * max(diag_max, 1.0))
    pivots = diag.copy()
    with np.errstate(all="ignore"):  # a zero pivot is caught below
        _reduce(pivots, None, 1.0 if periodic else -0.0, rows)
        if not (-limit <= pivots.min() and pivots.max() <= limit):
            return None
    del pivots  # before the residuals: holding it kept one more array of N
    # one residual at a time: holding both of a bordered step's raised the
    # traced peak of a solve at N = 10^5 from 8.2 to 9.0 MB
    for xk, bk in zip(rows, rhs if x.ndim == 2 else (rhs,)):
        bk = np.asarray(bk, dtype=float)
        r = _matvec(diag, xk, periodic)
        r -= bk
        scale = (diag_max + 2) * max(xk.max(), -xk.min()) + max(bk.max(), -bk.min())
        if not max(r.max(), -r.min()) <= BACKWARD_REL_THRESHOLD * scale:
            return None
        del r
    return x


def solve_linear(jac: JacobianMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve J x = rhs in O(N), for rhs of shape (N,), or a stack (K, N)
    or a sequence of K rows of N whose K solutions share one
    factorization of J.  Returns a new array of rhs's shape and leaves
    rhs unchanged; the cyclic reduction copies the rows once, so a
    caller need not stack them.

    From REDUCTION_MIN_SITES sites on by cyclic reduction, one numpy
    operation across a level at a time; below that, and when the
    reduction finds a small pivot or a backward error above
    BACKWARD_REL_THRESHOLD, by the scalar kernel (Thomas elimination, and
    for PBC a Sherman-Morrison restore of the corners).
    Only the scalar kernel decides that J is singular: a pivot below
    PIVOT_REL_THRESHOLD times the matrix scale raises SingularJacobian.
    """
    if isinstance(rhs, np.ndarray):
        shape = rhs.shape
    else:  # from the first row: np.shape would stack the rows; ragged ones fail at the copy
        shape = (len(rhs), *np.shape(rhs[0]))
    if len(shape) not in (1, 2) or shape[-1] != jac.n:
        raise ValueError("rhs length does not match the matrix")
    if jac.n >= REDUCTION_MIN_SITES:
        x = _cyclic_reduction(jac.diag, rhs, jac.periodic)
        if x is not None:
            return x
    rows = np.asarray(rhs, dtype=float).reshape(-1, jac.n).tolist()
    return np.array(_tridiag_solve(jac.diag.tolist(), rows, jac.periodic), dtype=float).reshape(shape)


def _estimate(state: LatticeState, params: ModelParams) -> float:
    if params.boundary is Boundary.PERIODIC:
        try:
            return energy_estimate(state, params)
        except SumTooSmall:
            pass
    return rayleigh_energy(state, params)


def _bordered_step(psi, energy, res, solve):
    """One Newton step on (psi, E), bordered by the norm condition
    g = (psi.psi - 1)/2 = 0 (Keller 1977).

    solve(rhss) returns J^-1 r for each r of rhss, with J the Jacobian in
    psi at fixed E.  With F the residual, a = J^-1 F and b = J^-1 psi, the
    step is

        dE = (psi.a - g) / (psi.b),    dpsi = -a + b dE,

    which converges quadratically near a solution.  Serves float64 arrays
    and object arrays of Decimal alike; returns (psi + dpsi, E + dE), the
    new psi an array of its own, so that it does not keep the rows solve
    returned, and b dE built in b.  Raises SingularJacobian when psi.b = 0.
    """
    a, b = solve((res, psi))
    den = np.dot(psi, b)
    if not den:
        raise SingularJacobian("bordered step: psi.b = 0")
    d_energy = (np.dot(psi, a) - (np.dot(psi, psi) - 1) / 2) / den
    new_psi = psi - a
    b *= d_energy
    new_psi += b
    return new_psi, energy + d_energy


def _rounding_floor(state: LatticeState, params: ModelParams, energy: float) -> float:
    """A bound on the residual max-norm that rounding alone can leave.

    Newton's method in floating point stops improving once the residual
    is as small as the errors of evaluating it and of storing the state
    (Tisseur 2001, SIAM J. Matrix Anal. Appl. 22, 1038).  The residual
    at site i sums psi[i-1], 2 psi[i], psi[i+1], c psi[i]**3 and E psi[i]:
    evaluating it errs by up to about eps times the sum of their
    magnitudes, and rounding psi and E to float64 moves it by up to eps/2
    times |J_ii psi[i]| + |psi[i-1]| + |psi[i+1]| + |E psi[i]|.  With
    m = max|psi| and |J_ii| <= 2 + |E| + 3|c| m**2 the two add up to at
    most eps m (6 + 2|E| + 2.5|c| m**2).  A ring of 10^4 sites at
    c = 4 10^4 that collapses onto two sites of amplitude 1/sqrt(2)
    computes its residual there in steps of 2**-39 = 1.8e-12; its bound
    is 1.4e-11.
    """
    m = float(max(state.values.max(), -state.values.min()))
    return sys.float_info.epsilon * m * (6.0 + 2.0 * abs(energy) + 2.5 * abs(params.c) * m * m)


def _newton_loop(state, energy, residual_of, step, tol_of, max_iter,
                 describe=lambda state: (None, 0.0)):
    """The Newton iteration of newton_solve and the high-precision polish.

    Each iteration evaluates res = residual_of(state, energy) once and
    records E and the residual max-norm.  It stops when the norm is not
    above tol_of(state, energy) (tested before stepping; NaN stops
    unconverged) or after max_iter steps; otherwise step(state, energy,
    res, norm) gives the next (state, energy, bordered), bordered telling
    whether that step was a bordered (psi, E) step.  The loop builds the
    run's NewtonReport from what it recorded: the histories, convergence,
    bordered_from and the first energy jump, with the final_counts and
    final_norm that describe(state) gives for the last iterate (by
    default, the report's defaults).  Returns (state, energy, report).
    Raises NoConvergence, or SingularJacobian when a step does, with the
    last iterate, its E and the report attached.
    """
    e_hist, r_hist, bordered_from, failure = [], [], None, None
    for iterations in count():
        res = residual_of(state, energy)
        res_norm = max(res.max(), -res.min())
        e_hist.append(float(energy))
        r_hist.append(float(res_norm))
        tol = tol_of(state, energy)
        if not res_norm > tol or iterations == max_iter:
            break
        try:
            state, energy, bordered = step(state, energy, res, res_norm)
        except SingularJacobian as exc:
            failure = exc
            break
        if bordered and bordered_from is None:
            bordered_from = iterations
        # drop it before the next residual is built: holding both raised
        # peak memory by about 3 MB at N = 10^5
        del res
    changed_at = next((j for j in range(3, len(e_hist))
                       if abs(e_hist[j] - e_hist[j - 1]) > STRUCTURE_CHANGE_THRESHOLD), None)
    # a step is taken only above tol, so a failed step leaves the run unconverged
    final_counts, final_norm = describe(state)
    report = NewtonReport(iterations, tuple(e_hist), tuple(r_hist),
                          converged=bool(res_norm <= tol),
                          structure_change_iteration=changed_at, final_counts=final_counts,
                          final_norm=final_norm, bordered_from=bordered_from)
    if failure is not None:
        raise SingularJacobian(str(failure), state=state, energy=energy, report=report) from failure
    if not report.converged:
        raise NoConvergence(state, energy, report)
    return state, energy, report


def newton_solve(
    initial: LatticeState,
    params: ModelParams,
    config: NewtonConfig = NewtonConfig(),
):
    """Iterate Newton steps from a (normalized) starting state.

    Each step is chosen by the max-norm of the residual F the loop has
    just evaluated.  Above BORDERED_RESIDUAL (1e-3) the step freezes E at
    its estimate, solves J step = F at (psi, E), renormalizes and
    re-estimates E; this phase converges linearly and settles which state
    the run ends on.  At or below it the step is the bordered (psi, E)
    step of the high-precision polish, which solves J a = F and J b = psi
    through one factorization and converges quadratically; its E is the
    previous E plus the bordered correction, not a fresh estimate.  The
    report's bordered_from is the first iteration that took a bordered
    step.

    Stops when the residual max-norm is not above the tolerance or, where
    that is larger, the residual that rounding alone can leave
    (_rounding_floor); this is checked before stepping, so an exact start
    converges at iteration 0.  A jump in the energy history larger than
    the structure-change threshold after the second iteration is flagged
    as a change of localization pattern; the run still converges to the
    new structure, which is a solution in its own right.

    Returns (state, energy, report), the report completed with the
    quantized counts and the norm of the last iterate.  Raises
    NoConvergence or SingularJacobian with the best iterate and its
    report, completed the same way, attached.
    """

    def checked(values):
        if not (np.isfinite(values).all() and values.any()):
            raise SingularJacobian("Newton step produced a degenerate state")
        return values

    # each step's new values are an array of its own, which the next state holds
    def step(state, energy, res, res_norm):
        jac = assemble_jacobian(state, params, energy)
        if res_norm <= BORDERED_RESIDUAL:
            values, energy = _bordered_step(state.values, energy, res,
                                            lambda rhss: solve_linear(jac, rhss))
            return _held(LatticeState, checked(values), state.boundary), float(energy), True
        delta = solve_linear(jac, res)
        values = _normalized(checked(np.subtract(state.values, delta, out=delta)))
        state = _held(LatticeState, values, state.boundary)
        return state, _estimate(state, params), False

    def tolerance(state, energy):
        return max(config.tol_residual, _rounding_floor(state, params, energy))

    def describe(state):
        return _count(_trits(state.values), state.boundary), state.norm_squared()

    # the loop gets the only reference to the start, and frees it after its first step
    start = [normalize(initial)]
    energy = _estimate(start[0], params)
    return _newton_loop(start.pop(), energy, lambda state, energy: residual(state, params, energy),
                        step, tolerance, config.max_iter, describe)


@dataclass(frozen=True)
class SweepRecord:
    """One continuation point of a coupling sweep."""

    c: float
    energy: float
    converged: bool
    counts: PatternCounts
    max_amplitude: Optional[float]
    iterations: int
    structure_changed: bool = False
    error: Optional[str] = None


def _extrapolate(history, c):
    """The Lagrange polynomial in the coupling through the (c_k, psi_k) of
    history, at c; the couplings c_k are distinct.  Through one point it
    is that point's psi."""
    terms = [math.prod((c - ck) / (cj - ck) for ck, _ in history if ck != cj) * psi
             for cj, psi in history]
    return sum(terms[1:], terms[0])


def sweep_c(
    initial: LatticeState,
    params: ModelParams,
    c_values,
    config: NewtonConfig = NewtonConfig(),
):
    """Continuation over a monotone sequence of couplings.

    newton_solve solves each point from the Lagrange extrapolation in c
    through the last PREDICTOR_POINTS (or fewer) converged states at
    distinct couplings: from the one converged state while there is only
    one, and from the initial state before any.  A converged point at the
    coupling of the last one takes its place in that history; one whose
    quantized counts differ from the previous converged point's restarts
    the history from itself.  A failed point is recorded with its error
    and leaves the history as it is.
    """
    c_values = list(c_values)
    diffs = np.diff(c_values)
    if not ((diffs >= 0).all() or (diffs <= 0).all()):
        raise ValueError("c_values must be monotone")
    records = []
    initial = normalize(initial)
    history, counts = [], None  # (c, psi) of the converged points the predictor uses
    for c in map(float, c_values):
        start = LatticeState(_extrapolate(history, c), initial.boundary) if history else initial
        try:
            solved, energy, report = newton_solve(start, ModelParams(c, params.boundary), config)
        except (NoConvergence, SingularJacobian) as exc:
            solved, energy, report, error = None, exc.energy, exc.report, type(exc).__name__
        else:
            error = None
            if report.final_counts != counts:
                history.clear()
            elif history[-1][0] == c:
                history.pop()
            history.append((c, solved.values))
            del history[:-PREDICTOR_POINTS]
            counts = report.final_counts
        records.append(SweepRecord(
            c=c,
            energy=energy,
            converged=solved is not None,
            counts=report.final_counts,
            max_amplitude=None if solved is None else float(max(solved.values.max(),
                                                                 -solved.values.min())),
            iterations=report.iterations,
            structure_changed=report.structure_changed,
            error=error,
        ))
    return records
