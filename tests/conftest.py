"""Shared test inputs and oracles: the paper's chains, the corpus that
every differential test compares on, the benchmark's two sweeps and the
map starts, the writers' tie values, the one reference implementation
of each kernel that two test modules compare with, the axis-reducing
forms of the portrait's frame, finite-row mask and dedupe, the one
memory probe (traced_peak), and the one parser and the one walker of
the AST guards' sources (parse_module, node_scopes).  A member starts from
build_asymptotic_state, as `solve --pattern` and `solve --random` do;
tests/test_corpus.py pins the corpus to the benchmark's."""

import ast
import math
import tracemalloc
from collections import namedtuple
from decimal import Decimal
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab.errors import AllZero, NoConvergence, SingularJacobian
from dnse_lab.newton import PIVOT_REL_THRESHOLD
from dnse_lab.patterns import OCCUPIED_REL_THRESHOLD


def alternating_spot_pattern():
    """100 sites, 10 isolated spots spaced 10 apart, alternating signs."""
    signs = [(-1) ** k for k in range(10)]
    return dl.spot_pattern(100, [10 * k for k in range(10)], 1, signs)


IRREGULAR_SIGNS = [1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1, -1]


def irregular_pair_pattern():
    """130 sites, 13 two-site same-sign spots spaced 10 apart, irregular signs."""
    return dl.spot_pattern(130, [10 * k for k in range(13)], 2, IRREGULAR_SIGNS)


class Member(namedtuple("Member", "name n seed pattern c")):
    """A pattern on n sites and its coupling c; seed is a random ring's
    pattern seed, None for a paper chain."""

    def start(self):
        return dl.build_asymptotic_state(self.pattern)


# the North star's corpus, in its order
CORPUS = [Member("chain100", 100, None, alternating_spot_pattern(), 24.0),
          Member("chain130", 130, None, irregular_pair_pattern(), 40.0)] + [
    Member(f"ring{n}/{seed}", n, seed, dl.random_pattern(n, seed), 4.0 * n)
    for n in (208, 1000) for seed in range(10)]
CHAINS, RINGS = CORPUS[:2], CORPUS[2:]

# the benchmark's sweeps of the chains: 61 couplings each from the
# member's c, c_from + k 0.1 as the CLI's sweep makes them
BENCH_SWEEPS = {m.name: [m.c + k * 0.1 for k in range(61)] for m in CHAINS}

# the map starts of `map --E 1 --c 1`: psi0 = 0.05 (k + 1), z0 = 0, k = 0-9
MAP_E = MAP_C = 1.0
MAP_STEPS = 2000
MAP_STARTS = [0.05 * (k + 1) for k in range(10)]


def map_orbit(psi0):
    return dl.iterate_map(dl.MapState(psi0, 0.0), MAP_E, MAP_C, MAP_STEPS)


Solved = namedtuple("Solved", "state energy report error")


def solve_member(member):
    """Newton from the member's start at its c.  Where Newton gives up,
    the last iterate, its E and report, and the error's name; error is
    None where it converged."""
    try:
        return Solved(*dl.newton_solve(member.start(), dl.ModelParams(member.c)), None)
    except (NoConvergence, SingularJacobian) as exc:
        return Solved(exc.state, exc.energy, exc.report, type(exc).__name__)


@pytest.fixture(scope="session")
def solved_corpus():
    """name -> Solved of every member, solved once per session."""
    return {m.name: solve_member(m) for m in CORPUS}


@pytest.fixture(scope="session")
def chain100_solution(solved_corpus):
    return (CHAINS[0].pattern, *solved_corpus["chain100"][:3])


@pytest.fixture(scope="session")
def chain130_solution(solved_corpus):
    return (CHAINS[1].pattern, *solved_corpus["chain130"][:3])


def random_state(rng, n, boundary=dl.Boundary.PERIODIC, amp=1.0):
    return dl.LatticeState(rng.uniform(-amp, amp, n), boundary)


@pytest.fixture(scope="session")
def kernel_corpus(solved_corpus):
    """(name, state, c): the chains solved and the rings at their start."""
    return ([(m.name, solved_corpus[m.name].state, m.c) for m in CHAINS]
            + [(m.name, m.start(), m.c) for m in RINGS])


def newton_system(n, seed, boundary=dl.Boundary.PERIODIC):
    """(J, F, psi) at the strong-coupling start of a random pattern on n
    sites, normalized, at c = 4n and its Rayleigh energy."""
    values = dl.build_asymptotic_state(dl.random_pattern(n, seed)).values
    state = dl.normalize(dl.LatticeState(values, boundary))
    params = dl.ModelParams(4.0 * n, boundary)
    energy = dl.rayleigh_energy(state, params)
    return (dl.assemble_jacobian(state, params, energy), dl.residual(state, params, energy),
            state.values)


def reference_quantize(state):
    """quantize_state as it was, trit by trit from one np.where."""
    psi = state.values
    peak = np.max(np.abs(psi))
    if peak == 0.0:
        raise AllZero("zero state has no pattern")
    occ = np.abs(psi) > OCCUPIED_REL_THRESHOLD * peak
    trits = np.where(occ, np.sign(psi).astype(int), 0)
    return dl.PatternSpec(tuple(int(t) for t in trits), state.boundary)


def reference_rows(*columns, numbered):
    """The writers' row text, value by value: row k is k where numbered,
    then '%.17g' of each column's value, joined by commas and ended by a
    newline."""
    values = (",".join(f"{v:.17g}" for v in row) for row in zip(*(c.tolist() for c in columns)))
    return "".join(f"{k},{text}\n" if numbered else f"{text}\n"
                   for k, text in enumerate(values))


def tie_values():
    """m 2**-e, m odd: an exact 17-digit tie where the value has 18
    significant digits, so half-even and half-up rounding differ on half
    of them."""
    values = [m * 2.0**-e for e in range(19, 50) for m in range(1, 4096, 2)]
    ties = np.array([x for x in values if len(Decimal(x).as_tuple().digits) == 18])
    assert 2.0**-25 in ties and 3 * 2.0**-25 in ties and len(ties) > 1000
    return ties


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


def reference_frame(pts):
    """analysis._frame as it was, reducing the (k, 2) rows along axis 0:
    the rows moved to their lower corner and scaled by the power of two
    that puts the diameter in [0.5, 1), quartered first where the span
    overflows, and that diameter."""
    lo = pts.min(axis=0)
    with np.errstate(over="ignore"):
        rel = pts - lo
        diameter = float(np.hypot(*rel.max(axis=0)))
    if diameter == np.inf:
        rel = pts * 0.25 - lo * 0.25
        diameter = float(np.hypot(*rel.max(axis=0)))
    scale = -math.frexp(diameter)[1]
    return np.ldexp(rel, scale), math.ldexp(diameter, scale)


def reference_finite_rows(points):
    """Whether each row is finite, as distinct_points' mask was taken."""
    return np.isfinite(points).all(axis=1)


def reference_distinct_rows(points):
    """analysis._distinct_rows as it was, testing adjacent rows with
    np.any along axis 1."""
    rows = points[np.lexsort((points[:, 1], points[:, 0]))]
    fresh = np.ones(rows.shape[0], dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=fresh[1:])
    return rows[fresh]


def parse_module(path):
    """The AST of the Python source at path, parsed from its bytes, so that
    no locale decodes it."""
    return ast.parse(path.read_bytes(), filename=str(path))


def node_scopes(matches, paths=None):
    """'file:scope' of every AST node that matches, in the modules at paths
    (the package's modules by default); scope is the dotted names of the
    defs and classes around the node, empty at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                yield ".".join(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from visit(child, scope + (child.name,) if named else scope)
    if paths is None:
        paths = sorted(Path(dl.__file__).parent.rglob("*.py"))
    return [f"{path.name}:{scope}" for path in paths for scope in visit(parse_module(path), ())]


def traced_peak(call):
    """(call(), the peak of the memory traced while it ran, in bytes)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
