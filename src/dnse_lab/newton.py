"""Newton continuation of strong-coupling patterns to finite coupling.

The Hessian of the energy functional is (up to a factor 2 shared with the
gradient) a symmetric tridiagonal matrix with diagonal 2 - E - 3 c psi**2,
off-diagonal -1 and, under PBC, -1 in the two corners.  solve_linear
solves it in O(N), for one right-hand side or a stack of them through one
factorization.  Below PARTITION_MIN_SITES it calls the scalar kernel,
_tridiag_solve, which also serves mpmath in the high-precision polish: it
factors the matrix once by Thomas elimination, restores the corners by a
rank-1 Sherman-Morrison correction, and sweeps every right-hand side
through the one factorization, one site at a time in Python.  From
PARTITION_MIN_SITES float64 sites on it takes the partition method
(Wang 1981; SPIKE, Polizzi & Sameh 2006): short chains are eliminated all
at once by numpy operations across the chains, and the sites between them
satisfy a small tridiagonal Schur complement that the scalar kernel
solves; a solution whose backward error is not small is solved again by
the scalar kernel.  One private loop, _newton_loop, iterates both
solvers; each supplies only its step.  newton_solve stops at its
tolerance or, where that is larger, at the residual that rounding alone
can leave.

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
with the norm as the border that the mpmath polish takes too; it converges
quadratically to the state the first phase has settled near.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, count, repeat
from typing import Optional

import numpy as np

from .errors import NoConvergence, SingularJacobian, SumTooSmall, ZeroState
from .lattice import Boundary, LatticeState, ModelParams, normalize, residual
from .patterns import PatternCounts, _count, _trits

# The cubic energy estimator is abandoned when |sum psi| falls below
# SUM_REL_THRESHOLD * sqrt(N); the sqrt(N) scaling handles random
# cancellation on large lattices uniformly.
SUM_REL_THRESHOLD = 1e-8
# A pivot below PIVOT_REL_THRESHOLD * max(max|diag|, 1), or a
# Sherman-Morrison denominator below PIVOT_REL_THRESHOLD, is singular.
PIVOT_REL_THRESHOLD = 1e-14
# The partitioned solve is kept when |J x - b| is at most this times
# max|diag| + 2 times max|x|, plus max|b| (about 450 machine epsilons).
# Seen: up to 6.5 eps on Newton steps and 35 eps on random diagonals in
# (-1.9, 1.9), where the scalar sweep itself reaches 59 eps; a chain pivot
# of 1e-6 that passes the pivot test gives 6800 eps.
BACKWARD_REL_THRESHOLD = 1e-13
# An energy jump larger than this between iterations, after the second,
# flags a change of localization pattern.
STRUCTURE_CHANGE_THRESHOLD = 1.0
# newton_solve takes the bordered (psi, E) step once the residual max-norm
# is at most this, and the frozen-E step above it.  The frozen-E phase
# chooses the state; 1e-2 and 1e-4 ended on the same states as 1e-3 on the
# random rings of 10^4 sites, pattern seeds 0-199, at c = 4N.
BORDERED_RESIDUAL = 1e-3
# The nearest-neighbour hop: the off-diagonal and ring-corner entry of J.
OFF_DIAGONAL = -1.0
# solve_linear takes the partitioned path from this many sites on.  The
# scalar sweep costs about 1.2 us a site and the partitioned path wins from
# a few hundred sites; the threshold keeps the paper's chains and the rings
# of up to 10^3 sites on the scalar path.
PARTITION_MIN_SITES = 2000


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
    """Residual max-norm tolerance and iteration budget.  newton_solve
    accepts a residual up to the rounding floor where that is larger."""

    tol_residual: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not 0 < self.tol_residual < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class NewtonReport:
    """Per-run diagnostics; histories have length iterations + 1.

    bordered_from is the first iteration that took a bordered (psi, E)
    step, or None when none did.
    """

    iterations: int
    energy_history: tuple
    residual_history: tuple
    converged: bool
    structure_changed: bool = False
    structure_change_iteration: Optional[int] = None
    final_counts: Optional[PatternCounts] = None
    final_norm: float = 0.0
    seed: Optional[int] = None
    bordered_from: Optional[int] = None

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
    cube = psi * psi
    cube *= psi
    return -params.c * float(np.sum(cube)) / total


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
    return JacobianMatrix(diag=_jacobian_diagonal(state.values, params.c, energy),
                          periodic=state.boundary is Boundary.PERIODIC)


def _jacobian_diagonal(psi, c, energy):
    """2 - E - 3 c psi**2, on float64 or on an object array of mpf."""
    return 2.0 - energy - 3.0 * c * psi**2


def _sweep(inv, rhs, off=None):
    """Forward and back substitution through the reciprocal pivots inv.

    off as in _tridiag_solve.  Without it the hops are -1 and the loops
    skip their multiplications, and mpmath its conversions of the float
    hops.  With the general loops alone the chain_continuation benchmark
    read wall_s 1.16x its parent, higher in 6 of 6 pairs; with these
    loops 1.04x, higher in 7 of 10 and inside the parent's spread.
    """
    x = inv[:]  # sized up front: growing it by append raised peak RSS
    prev = 0
    if off is None:
        for i, (b, w) in enumerate(zip(rhs, inv)):
            prev = x[i] = (b + prev) * w
        for i in range(len(x) - 2, -1, -1):
            prev = x[i] = x[i] + inv[i] * prev
        return x
    for i, (b, w, e) in enumerate(zip(rhs, inv, chain((0,), off))):
        prev = x[i] = (b - e * prev) * w
    for i in range(len(x) - 2, -1, -1):
        prev = x[i] = x[i] - off[i] * inv[i] * prev
    return x


def _tridiag_solve(diag, rhss, periodic: bool, off=None, pivot_rel=PIVOT_REL_THRESHOLD):
    """Solve T x = b for every b in rhss, factoring T once.

    T is symmetric with the diagonal diag and, when periodic, -1 in the
    two corners.  Its off-diagonals are -1, or off[i] between rows i and
    i + 1 when off is given.  The loops run on the elements as plain
    Python numbers, so one code serves float (diag an array('d')) and
    mpmath (diag a list of mpf); each solution comes back in the container
    type of diag.  A ring is solved as in Numerical Recipes 2.7: the
    corners are peeled off as a rank-1 update u v^T of an open chain, and
    Sherman-Morrison restores them with one more sweep, of u.  On a
    two-site ring the corners land on the off-diagonals; a one-site ring
    is the 1x1 system d - 2.

    Raises SingularJacobian on a pivot below pivot_rel times
    max(max|diag|, 1), or a Sherman-Morrison denominator below pivot_rel,
    before dividing by it; a NaN pivot or denominator counts as below.
    """
    n = len(diag)
    if periodic and n == 1:
        diag = diag[:]
        diag[0] -= 2  # both hops land on the site itself
        periodic = False
    pivot_tol = pivot_rel * max(max(map(abs, diag)), 1)
    inv = diag[:]  # the modified diagonal, then the reciprocal pivots
    if periodic:
        gamma = -(abs(diag[0]) + 1)
        inv[0] -= gamma
        inv[-1] -= 1 / gamma  # corners are -1, -1: product/gamma
    squares = None if off is None else [0, *(e * e for e in off)]
    w = 0
    for i, d in enumerate(inv):
        den = d - w if squares is None else d - squares[i] * w
        if not abs(den) >= pivot_tol:  # a NaN pivot is singular too
            raise SingularJacobian(f"pivot {float(den):.3e} at row {i}")
        w = inv[i] = 1 / den
    if not periodic:
        return [_sweep(inv, b, off) for b in rhss]

    # u = (gamma, 0, ..., 0, -1), v = (1, 0, ..., 0, -1/gamma)
    q = _sweep(inv, chain((gamma,), repeat(0, n - 2), (-1,)), off)
    den = 1 + q[0] - q[-1] / gamma
    if not abs(den) >= pivot_rel:
        raise SingularJacobian(f"rank-1 correction denominator {float(den):.3e}")
    solutions = []
    for b in rhss:
        y = _sweep(inv, b, off)
        factor = (y[0] - y[-1] / gamma) / den
        for i, qi in enumerate(q):
            y[i] -= qi * factor
        solutions.append(y)
    return solutions


def _partitioned_solve(diag: np.ndarray, rhs: np.ndarray, periodic: bool):
    """Solve J x = rhs by the partition method, or return None.

    rhs is one right-hand side of shape (N,) or a stack (K, N); the pivot
    recurrences run once, and the recurrences of b broadcast over the
    stack.

    The first P m sites form P blocks of m = isqrt(N) // 2 sites (fastest
    at N = 10^4 and 10^5): one separator row, then a chain of L = m - 1
    interior rows.  The last r sites, 1 <= r <= m, stay whole.  Each
    Python loop below runs over the L rows of a chain, and each of its
    steps is one numpy operation across all P chains.  With A a chain's
    matrix and g = A^-1 b, the separators and the last r sites satisfy a
    symmetric tridiagonal system of size P + r: A^-1_11 and A^-1_LL come
    off the separators' diagonal, -A^-1_1L (the product of the chain's
    reciprocal pivots, negated) is the hop across the chain, and g[0] and
    g[-1] join the right-hand side.  Only these end entries are needed: a
    forward elimination gives A^-1_LL, A^-1_1L and g[-1], a backward one
    A^-1_11 and g[0].  _tridiag_solve solves the reduced system; since
    site N - 1 is in it, a ring's corner stays -1.  A last sweep through
    the stored forward pivots then gives each chain's interior from its
    own b and its two separators.

    Returns None, so that the caller falls back to the scalar sweep and
    its singularity test, when a chain pivot (either direction) is below
    the threshold of that test, when the reduced system fails it with the
    threshold widened m-fold, or when the backward error of any solution
    of the stack is above BACKWARD_REL_THRESHOLD (NaN included).  The
    reduced diagonal is d_s - A^-1_11 - A^-1_LL, which cancels to rounding
    times m when J is near singular: on the all-2 ring of 10^4 sites its
    Sherman-Morrison denominator is 3.8e-14, where the scalar sweep's is
    1.1e-15.  No pivoting is done, so a chain pivot just above the
    threshold leaves huge entries in A^-1 that later cancel: before the
    backward-error test, a chain pivot of 1e-8 in an all-4 ring, which
    the scalar sweep does not meet, gave x a relative error of 5e-10.
    """
    n = diag.size
    m = max(2, math.isqrt(n) // 2)
    blocks = (n - 1) // m
    edge = blocks * m

    def interiors(a):  # the chains of a site array (..., N), as an (L, ..., P) view
        return np.moveaxis(a[..., :edge].reshape(*a.shape[:-1], blocks, m)[..., 1:], -1, 0)

    d, b = list(interiors(diag)), list(interiors(rhs))
    diag_max = max(diag.max(), -diag.min())
    limit = 1 / (PIVOT_REL_THRESHOLD * max(diag_max, 1.0))
    inv = np.empty((m - 1, blocks))  # reciprocal forward pivots
    x = np.empty(rhs.shape)
    backward = interiors(x.reshape(-1, n)[0])
    xs, ws = list(interiors(x)), list(inv)
    with np.errstate(all="ignore"):  # a zero pivot is caught below
        w = z = 0.0
        for dj, bj, wj in zip(d, b, ws):
            w = np.divide(1.0, dj - w, out=wj)
            z = (bj + z) * w
        w0 = z0 = 0.0
        # until the last sweep, the interiors of the first solution hold
        # the backward pivots
        for dj, bj, vj in zip(d[::-1], b[::-1], list(backward)[::-1]):
            w0 = np.divide(1.0, dj - w0, out=vj)
            z0 = (bj + z0) * w0
        if not all(-limit <= a.min() and a.max() <= limit for a in (inv, backward)):
            return None
        hop = -inv.prod(axis=0)
    reduced_diag = np.concatenate((diag[:edge:m], diag[edge:]))
    reduced_diag[:blocks] -= w0
    reduced_diag[1:blocks + 1] -= w
    reduced_rhs = np.concatenate((rhs[..., :edge:m], rhs[..., edge:]), axis=-1)
    reduced_rhs[..., :blocks] += z0
    reduced_rhs[..., 1:blocks + 1] += z
    off = np.full(reduced_diag.size - 1, OFF_DIAGONAL)
    off[:blocks] = hop
    try:
        seps = _tridiag_solve(array("d", reduced_diag.tobytes()),
                              [array("d", r.tobytes())
                               for r in reduced_rhs.reshape(-1, reduced_diag.size)],
                              periodic, array("d", off.tobytes()), PIVOT_REL_THRESHOLD * m)
    except SingularJacobian:
        return None
    sep = np.stack([np.frombuffer(s) for s in seps]).reshape(reduced_rhs.shape)
    x[..., :edge:m] = sep[..., :blocks]
    x[..., edge:] = sep[..., blocks:]
    z = sep[..., :blocks]  # the left separators enter as the row before each chain
    for bj, wj, xj in zip(b, ws, xs):
        np.add(bj, z, out=xj)
        z = np.multiply(xj, wj, out=xj)
    xs[-1] += sep[..., 1:blocks + 1] * ws[-1]  # the right separators, on the last row
    for j in range(m - 3, -1, -1):
        xs[j] += ws[j] * xs[j + 1]
    # one residual at a time: holding both of a bordered step's raised the
    # traced peak of a solve at N = 10^5 from 8.2 to 9.0 MB
    for xk, bk in zip(x.reshape(-1, n), rhs.reshape(-1, n)):
        r = _matvec(diag, xk, periodic)
        r -= bk
        scale = (diag_max + 2) * max(xk.max(), -xk.min()) + max(bk.max(), -bk.min())
        if not max(r.max(), -r.min()) <= BACKWARD_REL_THRESHOLD * scale:
            return None
        del r
    return x


def solve_linear(jac: JacobianMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve J x = rhs in O(N), for rhs of shape (N,) or a stack (K, N)
    whose K solutions share one factorization of J.

    From PARTITION_MIN_SITES sites on by the partition method, with a
    numpy operation across all chains at each row; below that, and when
    the partitioned path finds a small pivot or a backward error above
    BACKWARD_REL_THRESHOLD, by the scalar kernel (Thomas elimination, and
    for PBC a Sherman-Morrison restore of the corners).
    Only the scalar kernel decides that J is singular: a pivot below
    PIVOT_REL_THRESHOLD times the matrix scale raises SingularJacobian.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[-1] != jac.n:
        raise ValueError("rhs length does not match the matrix")
    if jac.n >= PARTITION_MIN_SITES:
        x = _partitioned_solve(jac.diag, rhs, jac.periodic)
        if x is not None:
            return x
    # array('d') holds a site in 8 bytes, where a list of floats takes 32
    xs = [np.frombuffer(x) for x in
          _tridiag_solve(array("d", jac.diag.tobytes()),
                         [array("d", b.tobytes()) for b in rhs.reshape(-1, jac.n)], jac.periodic)]
    return xs[0] if rhs.ndim == 1 else np.stack(xs)


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
    and object arrays of mpf alike; returns (psi + dpsi, E + dE), built in
    the arrays solve returned.  Raises SingularJacobian when psi.b = 0.
    """
    a, b = solve((res, psi))
    den = np.dot(psi, b)
    if not den:
        raise SingularJacobian("bordered step: psi.b = 0")
    d_energy = (np.dot(psi, a) - (np.dot(psi, psi) - 1) / 2) / den
    new_psi = np.subtract(psi, a, out=a)
    b *= d_energy
    new_psi += b
    return new_psi, energy + d_energy


def _finalize(state, iterations, e_hist, r_hist, converged, seed):
    changed_at = None
    for j in range(3, len(e_hist)):
        if abs(e_hist[j] - e_hist[j - 1]) > STRUCTURE_CHANGE_THRESHOLD:
            changed_at = j
            break
    # newton_solve chose each step from the residual recorded before it
    bordered_from = next((j for j in range(iterations) if r_hist[j] <= BORDERED_RESIDUAL), None)
    return NewtonReport(
        iterations=iterations,
        energy_history=tuple(e_hist),
        residual_history=tuple(r_hist),
        converged=converged,
        structure_changed=changed_at is not None,
        structure_change_iteration=changed_at,
        final_counts=_count(_trits(state.values), state.boundary),
        final_norm=state.norm_squared(),
        seed=seed,
        bordered_from=bordered_from,
    )


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
    m = float(abs(state.values).max())
    return float(np.finfo(float).eps * m
                 * (6.0 + 2.0 * abs(energy) + 2.5 * abs(params.c) * m * m))


def _newton_loop(state, energy, residual_of, step, tol_of, max_iter, report):
    """The Newton iteration of newton_solve and the mpmath polish.

    Each iteration evaluates res = residual_of(state, energy) once and
    records E and the residual max-norm.  It stops when the norm is not
    above tol_of(state, energy) (tested before stepping; NaN stops
    unconverged) or after max_iter steps; otherwise step(state, energy,
    res, norm) gives the next (state, energy).  Returns (state, energy,
    report(state, iterations, e_hist, r_hist, converged)).  Raises
    NoConvergence, or SingularJacobian when a step does, with the last
    iterate, its E and the report attached.
    """
    e_hist, r_hist = [], []
    for iterations in count():
        res = residual_of(state, energy)
        res_norm = np.max(np.abs(res))
        e_hist.append(float(energy))
        r_hist.append(float(res_norm))
        tol = tol_of(state, energy)
        if not res_norm > tol or iterations == max_iter:
            break
        try:
            state, energy = step(state, energy, res, res_norm)
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

    Each step is chosen by the max-norm of the residual F the loop has
    just evaluated.  Above BORDERED_RESIDUAL (1e-3) the step freezes E at
    its estimate, solves J step = F at (psi, E), renormalizes and
    re-estimates E; this phase converges linearly and settles which state
    the run ends on.  At or below it the step is the bordered (psi, E)
    step of the mpmath polish, which solves J a = F and J b = psi through
    one factorization and converges quadratically; its E is the previous
    E plus the bordered correction, not a fresh estimate.  The report's
    bordered_from is the first iteration that took a bordered step.

    Stops when the residual max-norm is not above the tolerance or, where
    that is larger, the residual that rounding alone can leave
    (_rounding_floor); this is checked before stepping, so an exact start
    converges at iteration 0.  A jump in the energy history larger than
    the structure-change threshold after the second iteration is flagged
    as a change of localization pattern; the run still converges to the
    new structure, which is a solution in its own right.

    Returns (state, energy, report).  Raises NoConvergence or
    SingularJacobian with the best iterate attached.
    """

    def checked(values, boundary):
        if not np.all(np.isfinite(values)) or not np.any(values):
            raise SingularJacobian("Newton step produced a degenerate state")
        return LatticeState(values, boundary)

    def step(state, energy, res, res_norm):
        jac = assemble_jacobian(state, params, energy)
        if res_norm <= BORDERED_RESIDUAL:
            values, energy = _bordered_step(state.values, energy, res,
                                            lambda rhss: solve_linear(jac, np.stack(rhss)))
            return checked(values, state.boundary), float(energy)
        state = normalize(checked(state.values - solve_linear(jac, res), state.boundary))
        return state, _estimate(state, params)

    def tolerance(state, energy):
        return max(config.tol_residual, _rounding_floor(state, params, energy))

    state = normalize(initial)
    return _newton_loop(state, _estimate(state, params),
                        lambda state, energy: residual(state, params, energy),
                        step, tolerance, config.max_iter,
                        partial(_finalize, seed=seed))


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
        try:
            solved, energy, report = newton_solve(current, replace(params, c=float(c)), config)
        except (NoConvergence, SingularJacobian) as exc:
            solved, energy, report, error = None, exc.energy, exc.report, type(exc).__name__
        else:
            current, error = solved, None
        records.append(SweepRecord(
            c=float(c),
            energy=energy,
            converged=solved is not None,
            counts=report.final_counts,
            max_amplitude=None if solved is None else float(np.max(np.abs(solved.values))),
            iterations=report.iterations,
            structure_changed=report.structure_changed,
            error=error,
        ))
    return records
