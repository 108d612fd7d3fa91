from itertools import chain, repeat

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab.errors import SingularJacobian
from dnse_lab.newton import PIVOT_REL_THRESHOLD


def alternating_spot_pattern():
    """100 sites, 10 isolated spots spaced 10 apart, alternating signs."""
    signs = [(-1) ** k for k in range(10)]
    return dl.spot_pattern(100, [10 * k for k in range(10)], 1, signs)


IRREGULAR_SIGNS = [1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1, -1]


def irregular_pair_pattern():
    """130 sites, 13 two-site same-sign spots spaced 10 apart, irregular signs."""
    return dl.spot_pattern(130, [10 * k for k in range(13)], 2, IRREGULAR_SIGNS)


@pytest.fixture(scope="session")
def chain100_solution():
    spec = alternating_spot_pattern()
    state, energy, report = dl.newton_solve(
        dl.build_asymptotic_state(spec), dl.ModelParams(24.0)
    )
    return spec, state, energy, report


@pytest.fixture(scope="session")
def chain130_solution():
    spec = irregular_pair_pattern()
    state, energy, report = dl.newton_solve(
        dl.build_asymptotic_state(spec), dl.ModelParams(40.0)
    )
    return spec, state, energy, report


def random_state(rng, n, boundary=dl.Boundary.PERIODIC, amp=1.0):
    return dl.LatticeState(rng.uniform(-amp, amp, n), boundary)


def kernel_corpus():
    """(name, state, c): the acceptance chains, solved, and the random
    rings with N in {208, 1000} and seeds 0-9 at their strong-coupling
    start, c = 4N."""
    for name, spec, c in [("chain100", alternating_spot_pattern(), 24.0),
                          ("chain130", irregular_pair_pattern(), 40.0)]:
        state, _, _ = dl.newton_solve(dl.build_asymptotic_state(spec), dl.ModelParams(c))
        yield name, state, c
    for n in (208, 1000):
        for seed in range(10):
            state = dl.normalize(dl.build_asymptotic_state(dl.random_pattern(n, seed)))
            yield f"ring{n}/{seed}", state, 4.0 * n


def reference_tridiag_solve(diag, rhss, periodic):
    """The scalar kernel as it ran while float64 passed it array('d'):
    each solution fills a copy of diag's container in place, and the
    Sherman-Morrison vector is streamed.  The oracle of the list kernel,
    for float64, mpf and Decimal alike."""

    def sweep(inv, rhs):
        x = inv[:]
        prev = 0
        for i, (b, w) in enumerate(zip(rhs, inv)):
            prev = x[i] = (b + prev) * w
        for i in range(len(x) - 2, -1, -1):
            prev = x[i] = x[i] + inv[i] * prev
        return x

    n = len(diag)
    if periodic and n == 1:
        diag = diag[:]
        diag[0] -= 2
        periodic = False
    pivot_tol = PIVOT_REL_THRESHOLD * float(max(max(map(abs, diag)), 1))
    inv = diag[:]
    if periodic:
        gamma = -(abs(diag[0]) + 1)
        inv[0] -= gamma
        inv[-1] -= 1 / gamma
    w = 0
    for i, d in enumerate(inv):
        den = d - w
        if not abs(den) >= pivot_tol:
            raise SingularJacobian(f"pivot {float(den):.3e} at row {i}")
        w = inv[i] = 1 / den
    if not periodic:
        return [sweep(inv, b) for b in rhss]
    q = sweep(inv, chain((gamma,), repeat(0, n - 2), (-1,)))
    den = 1 + q[0] - q[-1] / gamma
    if not abs(den) >= PIVOT_REL_THRESHOLD:
        raise SingularJacobian(f"rank-1 correction denominator {float(den):.3e}")
    solutions = []
    for b in rhss:
        y = sweep(inv, b)
        factor = (y[0] - y[-1] / gamma) / den
        for i, qi in enumerate(q):
            y[i] -= qi * factor
        solutions.append(y)
    return solutions
