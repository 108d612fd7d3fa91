"""Cyclic reduction's recursion against the level loop it replaced.

newton._cyclic_reduction runs newton._reduce, which eliminates the odd
sites of one level, solves the ring of its even sites by recursion and
back-substitutes.  It replaced a loop that walked the levels down by a
stride, kept each level's hops on a stack and walked them back up in a
second loop.  _loop_reduction below is that loop, verbatim.  Every
arithmetic operation kept its operands and their order, and the
recursion carries each hop negated, which rounds every result the same
(squares keep their bits, and x + g y is x - (-g) y), so the two must
return the same bytes, or both None, on every system here.  The
recursion must also trace a lower peak than the loop: its first level,
whose hops are J's unit hops, forms no hop products and hands the second
level its hops as a view of its pivots, and its pivot copy is freed
before the backward-error residuals.
"""

import numpy as np
import pytest

from dnse_lab.newton import (BACKWARD_REL_THRESHOLD, PIVOT_REL_THRESHOLD, _cyclic_reduction,
                             _matvec)

from conftest import newton_system, traced_peak

SIZES = (*range(1, 65), 511, 512, 513, 640, 1000, 1023, 1024, 1025, 4097, 10_000, 100_000)


def _loop_reduction(diag, rhs, periodic):
    """_cyclic_reduction as one loop over the levels and one back: the
    oracle of the recursion."""
    n = diag.size
    x = np.array(rhs, dtype=float)
    rows = x.reshape(-1, n)  # rows are updated one at a time to bound temporaries
    diag_max = max(diag.max(), -diag.min())
    limit = 1 / (PIVOT_REL_THRESHOLD * max(diag_max, 1.0))
    pivots = diag.copy()
    e, wrap = np.broadcast_to(-1.0, n - 1), -1.0 if periodic else 0.0
    levels = []  # (hops left and right of the odd sites, wrap) of each level
    s = 1  # sites of a level are every s-th site of the ring
    with np.errstate(all="ignore"):  # a zero pivot is caught below
        while (m := (d := pivots[::s]).size) > 1:
            h, k = m // 2, (m - 1) // 2  # odd sites, those with a right neighbour before the wrap
            w = np.divide(1.0, d[1::2], out=d[1::2])
            left, right = e[0:2 * h:2], e[1::2]
            levels.append((left, right, wrap))
            d[::2][:h] -= left * left * w
            d[2::2] -= right * right * w[:k]
            for row in rows:
                b = row[::s]
                y = b[1::2]
                y *= w  # w b on the odd sites, until back substitution
                b[::2][:h] -= left * y
                b[2::2] -= right * y[:k]
            if k < h:  # the last odd site's right neighbour is site 0
                d[0] -= wrap * wrap * w[-1]
                rows[:, 0] -= wrap * rows[:, s * (m - 1)]
                wrap *= -left[-1] * w[-1]
            e = -left[:k] * right * w[:k]
            s *= 2
        pivots[0] = 1 / (pivots[0] + 2 * wrap)
        # every level's w, and the last 1/pivot, are now in pivots
        if not (-limit <= pivots.min() and pivots.max() <= limit):
            return None
        rows[:, 0] *= pivots[0]
        while levels:
            left, right, wrap = levels.pop()
            s //= 2
            w = pivots[s::2 * s]
            h, k = w.size, right.size
            for row in rows:
                xe, xo = row[::2 * s], row[s::2 * s]
                xo -= w * left * xe[:h]
                xo[:k] -= w[:k] * right * xe[1:]
                if k < h:
                    xo[-1] -= w[-1] * wrap * xe[0]
    # one residual at a time: holding both of a bordered step's raised the
    # traced peak of a solve at N = 10^5 from 8.2 to 9.0 MB
    for xk, bk in zip(rows, rhs.reshape(-1, n)):
        r = _matvec(diag, xk, periodic)
        r -= bk
        scale = (diag_max + 2) * max(xk.max(), -xk.min()) + max(bk.max(), -bk.min())
        if not max(r.max(), -r.min()) <= BACKWARD_REL_THRESHOLD * scale:
            return None
        del r
    return x


def _assert_same(diag, rhs, periodic, name):
    ref = _loop_reduction(diag, rhs, periodic)
    x = _cyclic_reduction(diag, rhs, periodic)
    if ref is None:
        assert x is None, name
    else:
        assert x is not None and x.dtype == ref.dtype and x.shape == ref.shape, name
        assert x.tobytes() == ref.tobytes(), name


def _diagonals(rng, n):
    """|d| in (3, 8) with random signs, d in (-1.9, 1.9) (no diagonal
    dominance) and d in (-10, 10) (both, and some refusals)."""
    yield "dominant", rng.uniform(3.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
    yield "weak", rng.uniform(-1.9, 1.9, n)
    yield "wide", rng.uniform(-10.0, 10.0, n)


@pytest.mark.parametrize("periodic", [True, False], ids=["ring", "chain"])
def test_random_diagonals(periodic):
    rng = np.random.default_rng(23 + periodic)
    for n in SIZES:
        for kind, diag in _diagonals(rng, n):
            for rhs in (rng.standard_normal(n), rng.standard_normal((2, n))):
                _assert_same(diag, rhs, periodic, (n, kind, rhs.shape))


@pytest.mark.parametrize("periodic", [True, False], ids=["ring", "chain"])
def test_signed_zeros(periodic):
    # right-hand sides full of 0.0 and -0.0: x - p and x + (-p) round to
    # the same zero only when the carried hop, and a chain's wrap (-0.0),
    # is exactly the negated one
    rng = np.random.default_rng(31 + periodic)
    for n in SIZES[:64]:
        diag = rng.uniform(3.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
        for _ in range(20):
            _assert_same(diag, rng.choice([0.0, -0.0, 1.0, -2.0], (2, n)), periodic, n)


@pytest.mark.parametrize("site, value", [(1, 0.0), (2, 0.5), (1, 1e-12), (1, 1e-8), (1, 1e-6)],
                         ids=["zero-level0", "zero-level1", "gap1e-12", "gap1e-8", "gap1e-6"])
def test_refusals(site, value):
    # the refused systems of test_partition.TestSingularity: a zero pivot on
    # the first and on the second level, and small first-level pivots
    n = 10_000
    diag = np.full(n, 4.0)
    diag[site] = value
    rhs = np.random.default_rng(4).standard_normal(n)
    assert _cyclic_reduction(diag, rhs, True) is None
    _assert_same(diag, rhs, True, (site, value))
    _assert_same(diag, np.stack((rhs, np.ones(n))), True, (site, value))


def test_singular_ring():
    n = 10_000
    diag = np.full(n, 2.0)
    assert _cyclic_reduction(diag, np.ones(n), True) is None
    _assert_same(diag, np.ones(n), True, "all-2")


@pytest.mark.parametrize("n, seeds", [(208, 10), (1000, 10), (10_000, 10), (100_000, 2)])
def test_newton_systems(n, seeds):
    # the step system J x = F and the bordered step's stack (F, psi)
    for seed in range(seeds):
        jac, res, psi = newton_system(n, seed)
        _assert_same(jac.diag, res, True, (n, seed))
        _assert_same(jac.diag, np.stack((res, psi)), True, (n, seed))


@pytest.mark.parametrize("rhs_count", [1, 2])
def test_peak_memory(rhs_count):
    # one Newton system at 10^5 sites: the recursion's first level makes no
    # hop products and hands the second its hops as a view of its pivots,
    # and the pivot copy is freed before the residuals, where the loop
    # holds N / 2 hops and the copy; 0.49 N doubles below the loop's peak
    # with one row and with two
    n = 100_000
    jac, res, psi = newton_system(n, 1)
    rhs = res if rhs_count == 1 else np.stack((res, psi))
    peaks = [traced_peak(lambda: solve(jac.diag, rhs, True))[1]
             for solve in (_loop_reduction, _cyclic_reduction)]
    assert peaks[1] <= peaks[0] - 0.4 * n * 8, peaks
