"""Extended-precision verification of the map/lattice identity.

Localized lattice solutions correspond to hyperbolic orbits of the 2D
map: the linearized per-period multiplier is large, so iterating the map
from a double-precision solution amplifies the residual floor (~1e-15)
far above any useful tolerance after ~100 sites.  The identity itself is
exact, and becomes visible numerically once the solution is polished and
the map iterated at sufficient precision.  This module does both at a
configurable number of decimal digits.  The polish takes bordered Newton
steps on (psi, E), built from the float64 code run on the standard
library's decimal numbers (libmpdec, correctly rounded; several times
faster than mpmath without gmpy2): the Newton loop, the bordered step and
the tridiagonal kernel of newton, and the lattice residual.  It serves
rings and open chains alike, taking the boundary from the state as
newton_solve does.  Each conversion between the two number types rounds
one exact integer ratio once, with nothing cached between values: a
Decimal result comes back as the mpf of its integer ratio, and an mpf
input man * 2**exp goes in as the Decimal of man times or over a power of
two.  The map check iterates mapdyn's step on Decimal too, at dps + 1
digits, the precision mpmath gives dps, from its mpf, float or integer
inputs converted once each by that one converter; its closure is taken
over a ring's wrap or at an open chain's zero pad.
"""

from __future__ import annotations

from decimal import Context, Decimal, Overflow, localcontext

import numpy as np
from mpmath import libmp, mp, mpf

from .errors import NoConvergence, SingularJacobian
from .lattice import Boundary, LatticeState, ModelParams, _as_index, _stencil_residual
from .mapdyn import _step
from .newton import _bordered_step, _jacobian_diagonal, _newton_loop, _tridiag_solve, rayleigh_energy

# The polish stops once the residual max-norm and |psi.psi - 1|/2 are at
# most 10**-(dps - 10), or raises NoConvergence after POLISH_MAX_ITER
# steps.  From a float64 solution its quadratic steps need a few: two for
# chain100 at 60 digits, three for chain130 at 80.
POLISH_MAX_ITER = 60


def _check_dps(dps) -> int:
    """A precision as an int of digits, rejecting one that is not a whole
    number of digits, at least float64's 15 (its 53 bits): fewer would
    round the float64 input."""
    dps = _as_index(dps, "dps")
    if dps < 15:
        raise ValueError(f"dps {dps} is below the 15 digits of float64")
    return dps


def _as_mpf(psi, energy, dps):
    """The polish's Decimal psi and E as an object array of mpf and an mpf,
    each rounded once, to nearest, at dps digits: from the Decimal's exact
    integer ratio, with no decimal string formatted and parsed back."""
    prec = libmp.dps_to_prec(dps)  # the bits of mp.workdps(dps)
    *psi, energy = [mp.make_mpf(libmp.from_rational(*v.as_integer_ratio(), prec, libmp.round_nearest))
                    for v in (*psi, energy)]
    return np.array(psi, dtype=object), energy


def polish_solution(state: LatticeState, params: ModelParams, dps: int = 60):
    """Re-converge a double-precision solution with bordered Newton steps
    on Decimal numbers of dps significant digits.

    The unknowns are (psi, E); the border is the norm condition
    g = (psi.psi - 1)/2 = 0 (Keller 1977).  Each step is newton's
    _bordered_step, solving J a = F and J b = psi in one kernel call, which
    converges quadratically from the float64 state and its Rayleigh
    energy, both taken exactly.  Returns (psi list, E) as mpf at dps once
    the residual max-norm and |g| are at most 10**-(dps-10).  Serves a
    ring and an open chain alike: the residual and the kernel take the
    state's boundary, and params must carry the same one (ValueError
    otherwise, from rayleigh_energy).  The coupling enters through
    _decimal, so a numpy integer or float is taken as newton_solve takes
    it.  dps is an integer >= 15.

    Raises NoConvergence when POLISH_MAX_ITER steps do not reach that
    tolerance; it carries the last iterate (an object array of mpf), its E
    (an mpf) and the Newton loop's report, with the iterate's norm as
    final_norm.  A singular Jacobian raises SingularJacobian carrying the
    same.
    """
    dps = _check_dps(dps)
    periodic = state.boundary is Boundary.PERIODIC
    with localcontext(Context(prec=dps)):
        c = _decimal(params.c)

        def step(psi, energy, res, _res_norm):
            diag = _jacobian_diagonal(psi, c, energy).tolist()
            return *_bordered_step(psi, energy, res, lambda rhss: np.array(
                _tridiag_solve(diag, np.stack(rhss).tolist(), periodic), dtype=object)), True

        try:
            psi, energy, _ = _newton_loop(
                np.array([Decimal(v) for v in state.values.tolist()], dtype=object),
                Decimal(rayleigh_energy(state, params)),
                lambda psi, energy: _stencil_residual(psi, c, energy, state.boundary),
                step, lambda *_: Decimal(10) ** (10 - dps), POLISH_MAX_ITER)
        except (NoConvergence, SingularJacobian) as exc:
            exc.state, exc.energy = _as_mpf(exc.state, exc.energy, dps)
            raise
    psi, energy = _as_mpf(psi, energy, dps)
    return psi.tolist(), energy


def _decimal(x):
    """x as a Decimal, the one way the polish and the map check take their
    inputs.  An mpf, man * 2**exp, is rounded once to the context's
    precision from that exact ratio: Decimal(man) times 2**exp, or divided
    by 2**-exp, the integer taken exactly; an infinite or NaN one goes
    through float.  An int or a float is taken exactly by Decimal; a numpy
    integer or float, which Decimal refuses, goes through int() or float()
    first."""
    if not isinstance(x, mpf):
        return Decimal(int(x) if isinstance(x, np.integer)
                       else float(x) if isinstance(x, np.floating) else x)
    sign, man, exp, _ = x._mpf_
    if not man and exp:  # mpmath's inf, -inf and nan: no mantissa, an exponent
        return Decimal(float(x))
    man = Decimal(-man if sign else man)
    return man * (1 << exp) if exp >= 0 else man / (1 << -exp)


def map_reproduction_error(psi, energy, c, dps: int = 60, boundary=Boundary.PERIODIC):
    """Iterate the map along psi and past its last site.

    Returns (max deviation, closure error) as floats.  On a ring (the
    default boundary) the orbit starts at (psi[1], psi[1]-psi[0]), the
    deviation is over psi[2..N-1], and the closure runs through one full
    wrap and compares the orbit with psi[0] and psi[1] again.  On an open
    chain it starts at (psi[0], psi[0]), from the zero pad before site 0,
    the deviation is over psi[1..N-1], and the closure is |x_N|, the
    orbit at the zero pad after the last site.  Pass mpf values from
    polish_solution and a dps matching the polish so the hyperbolic
    amplification acts on the polished residual, not on double-precision
    round-off.  dps is an integer >= 15.

    The map runs on Decimal at dps + 1 significant digits, the precision
    that mpmath gives dps (203 bits at 60).  Each input, psi, E and c, is
    converted once by _decimal: an mpf is rounded to that precision, a
    float or an int taken exactly, a numpy scalar through int() or float().
    An orbit that leaves Decimal's exponent range (10**999999) has left
    float's long before: that deviation, and every later one, reads inf.
    """
    if (n := len(psi)) < 2:
        raise ValueError("the map needs at least 2 sites")
    dps = _check_dps(dps)
    with localcontext(Context(prec=dps + 1, traps=[Overflow])):
        *psi, energy, c = map(_decimal, (*psi, energy, c))
        # the start, and the values the orbit should meet: psi[first..N-1],
        # then a ring's psi[0] and psi[1] again or an open chain's zero pad
        if Boundary(boundary) is Boundary.PERIODIC:
            x, z, first = psi[1], psi[1] - psi[0], 2
            targets = psi[2:] + psi[:2]
        else:
            x = z = psi[0]  # psi[0] - psi[-1], with the zero pad psi[-1]
            first, targets = 1, psi[1:] + [Decimal(0)]
        max_dev = closure = Decimal(0)
        try:
            for i, target in enumerate(targets, first):
                x, z = _step(x, z, energy, c)
                dev = abs(x - target)
                if i < n:
                    max_dev = max(max_dev, dev)
                else:
                    closure = max(closure, dev)
        except Overflow:
            closure = Decimal("Infinity")
            if i < n:
                max_dev = closure
    return float(max_dev), float(closure)
