"""Every solver entry point reaches its documented tolerance, or says that
it did not, across inputs and not only on the corpus.

newton_solve runs on small lattices (N <= 60, either boundary, c
log-uniform in [0.01, 1000]) from a normal start, a strong-coupling
pattern or a linear mode.  It either raises NoConvergence or
SingularJacobian with an unconverged report, or returns a state whose
recomputed residual max-norm and |psi.psi - 1|/2 are both at or below
its tolerance, max(tol_residual, the rounding floor), with that residual
the report's last.  polish_solution at 30 digits, from the states it
returns, meets 10**(10 - dps) on both in Decimal, or raises.  sweep_c
keeps no state in its records, so its contract is newton_solve's.
"""

from decimal import Context, localcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dnse_lab as dl
from dnse_lab.errors import NoConvergence, SingularJacobian
from dnse_lab.highprec import _decimal, polish_solution
from dnse_lab.lattice import _stencil_residual
from dnse_lab.newton import _rounding_floor

POLISH_DPS = 30

cases = st.tuples(
    st.integers(1, 60),
    st.sampled_from(list(dl.Boundary)),
    st.floats(-2.0, 3.0),  # log10 c
    st.sampled_from(["normal", "pattern", "linear"]),
    st.integers(0, 2**32 - 1),
)


def _start(n, boundary, kind, seed):
    if kind == "normal":
        values = np.random.default_rng(seed).standard_normal(n)
    elif kind == "pattern":
        values = dl.build_asymptotic_state(dl.random_pattern(n, seed)).values
    elif boundary is dl.Boundary.PERIODIC:  # a ring's mode cos(2 pi k j / N)
        values = np.cos(2 * np.pi * (seed % n) * np.arange(n) / n)
    else:  # an open chain's mode sin(pi k (j + 1) / (N + 1)), k = 1..N
        values = np.sin(np.pi * (seed % n + 1) * np.arange(1, n + 1) / (n + 1))
    return dl.LatticeState(values, boundary)


def _solve(case):
    """(state, energy, params) of newton_solve on case, or None where it
    raised, after checking what it returned or raised."""
    n, boundary, log_c, kind, seed = case
    params = dl.ModelParams(10.0 ** log_c, boundary)
    try:
        state, energy, report = dl.newton_solve(_start(n, boundary, kind, seed), params)
    except (NoConvergence, SingularJacobian) as exc:
        assert not exc.report.converged
        return None
    res = dl.residual(state, params, energy)
    res_norm = float(max(res.max(), -res.min()))
    tol = max(dl.NewtonConfig().tol_residual, _rounding_floor(state, params, energy))
    assert report.converged
    assert res_norm <= tol
    assert abs(np.dot(state.values, state.values) - 1) / 2 <= tol, report
    assert report.residual_history[-1] == res_norm
    return state, energy, params


@given(cases)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_newton_solve(case):
    _solve(case)


@given(cases)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_polish_solution(case):
    solved = _solve(case)
    if solved is None:
        return
    state, _, params = solved
    try:
        psi, energy = polish_solution(state, params, POLISH_DPS)
    except (NoConvergence, SingularJacobian) as exc:
        assert not exc.report.converged
        return
    with localcontext(Context(prec=POLISH_DPS)):
        tol = _decimal(10) ** (10 - POLISH_DPS)
        psi = np.array([_decimal(v) for v in psi], dtype=object)
        res = _stencil_residual(psi, _decimal(params.c), _decimal(energy), params.boundary)
        assert max(res.max(), -res.min()) <= tol
        assert abs(np.dot(psi, psi) - 1) / 2 <= tol
