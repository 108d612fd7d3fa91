"""The ring-solve path without numpy's pow and per-site Python, against the
code it replaced.

The residual and the cubic energy estimate form psi**3 as psi*psi*psi,
quantize_state builds its trits with one numpy expression, and the state,
portrait and orbit writers format their rows in numpy, the orbit's
portrait from the orbit's own digits.  The residual and
energy code they replaced is kept here as the oracle, and the quantizer
and the row text in conftest (reference_quantize, reference_rows): Newton
from either must find the same states on the corpus, quantization must
agree exactly, and the files must be byte-identical.  An AST scan keeps
integer powers of 3 and up out of the package, but for the scalar map
steps, _step and iterate_map's loop.
"""

import ast

import mpmath as mp
import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab import io as lab_io
from dnse_lab import lattice, newton
from dnse_lab.errors import SumTooSmall

from conftest import CORPUS, node_scopes, reference_quantize, reference_rows, solve_member

EPS = np.finfo(float).eps


# ------------------------------------------------------------ the oracles

def _stencil_residual_oracle(psi, c, energy, boundary):
    left, right = lattice._neighbors(psi, boundary)
    return -left + 2.0 * psi - right - c * psi**3 - energy * psi


def _energy_estimate_oracle(state, params):
    if params.boundary is not dl.Boundary.PERIODIC:
        raise ValueError("the cubic energy estimator is defined for PBC only")
    psi = state.values
    total = float(np.sum(psi))
    cutoff = newton.SUM_REL_THRESHOLD * np.sqrt(psi.size)
    if abs(total) < cutoff:
        raise SumTooSmall(f"|sum psi| = {abs(total):.3e} below {cutoff:.3e}")
    return -params.c * float(np.sum(psi**3)) / total


def _hamiltonian_oracle(state, params, energy):
    psi = state.values
    bonds = psi - lattice._neighbors(psi, state.boundary)[1]
    if state.boundary is dl.Boundary.OPEN:
        bonds = bonds[:-1]
    kinetic = float(np.sum(bonds**2))
    return kinetic - 0.5 * params.c * float(np.sum(psi**4)) - energy * state.norm_squared()


# ------------------------------------------------- Newton on the corpus

@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_newton_finds_the_oracle_state(monkeypatch, solved_corpus, member):
    got = solved_corpus[member.name]
    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_stencil_residual", _stencil_residual_oracle)
        patch.setattr(newton, "energy_estimate", _energy_estimate_oracle)
        ref = solve_member(member)
    assert got.error is ref.error is None
    assert got.report.final_counts == ref.report.final_counts
    assert abs(got.energy - ref.energy) <= 1e-9 * abs(ref.energy)
    assert np.max(np.abs(got.state.values - ref.state.values)) <= 1e-10


# --------------------------------------------------------- the kernels

@pytest.mark.parametrize("boundary", list(dl.Boundary))
@pytest.mark.parametrize("seed", range(5))
def test_residual_and_energy_within_rounding(boundary, seed):
    rng = np.random.default_rng(seed)
    psi = rng.uniform(-1.0, 1.0, 50 + seed)
    c, energy = rng.uniform(-100.0, 100.0, 2)
    state, params = dl.LatticeState(psi, boundary), dl.ModelParams(c, boundary)
    peak = np.max(np.abs(psi))
    # psi*psi*psi rounds twice where pow rounds once; the sums are the same
    scale = abs(c) * peak**3 + 4.0 * peak + abs(energy) * peak
    got = dl.residual(state, params, energy)
    want = _stencil_residual_oracle(psi, c, energy, boundary)
    assert np.max(np.abs(got - want)) <= 8 * EPS * scale
    got_h = dl.hamiltonian(state, params, energy)
    want_h = _hamiltonian_oracle(state, params, energy)
    assert abs(got_h - want_h) <= 8 * EPS * psi.size * (abs(c) + 4.0 + abs(energy))
    if boundary is dl.Boundary.PERIODIC:
        got_e = dl.energy_estimate(state, params)
        want_e = _energy_estimate_oracle(state, params)
        assert abs(got_e - want_e) <= 8 * EPS * psi.size * abs(c) / abs(np.sum(psi))


def test_residual_of_mpf_amplitudes():
    """The high-precision polish evaluates the same expression on mpf."""
    rng = np.random.default_rng(11)
    with mp.workdps(50):
        psi = np.array([mp.mpf(v) for v in rng.uniform(-1.0, 1.0, 40).tolist()], dtype=object)
        c, energy = mp.mpf(24), mp.mpf("-0.42")
        for boundary in dl.Boundary:
            got = lattice._stencil_residual(psi, c, energy, boundary)
            want = _stencil_residual_oracle(psi, c, energy, boundary)
            assert got.dtype == object
            assert max(abs(g - w) for g, w in zip(got, want)) < mp.mpf(10) ** -45


# -------------------------------------------------------- quantization

def _quantize_inputs():
    rng = np.random.default_rng(2)
    yield dl.LatticeState([1.0])
    yield dl.LatticeState([-3.0, 0.0, -0.0, 1.5, -1.5, 1.5000000000000002])
    yield dl.LatticeState([0.5, -1.0, -0.5, 0.25], dl.Boundary.OPEN)
    yield dl.LatticeState([5e-324, -5e-324, 0.0, 1e-320])
    yield dl.LatticeState([1e300, -1e300, 5e299, 5.000000000000001e299])
    for n in (3, 208, 1000, 10_000):
        yield dl.LatticeState(rng.standard_normal(n))
        yield dl.normalize(dl.build_asymptotic_state(dl.random_pattern(n, n)))


@pytest.mark.parametrize("state", list(_quantize_inputs()))
def test_quantize_equals_oracle(state):
    got, want = dl.quantize_state(state), reference_quantize(state)
    assert got == want
    assert all(type(t) is int for t in got.trits)


def test_quantize_corpus_states(chain100_solution, chain130_solution):
    for _, state, _, _ in (chain100_solution, chain130_solution):
        assert dl.quantize_state(state) == reference_quantize(state)


# ------------------------------------------------------------- writers

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
            1e300, -1e300, 1.0, -1.0, 0.1, 1 / 3, 123456789.0, 2.0**53 + 2]


# around the old block of 1024 rows and the block of io._CHUNK_LINES = 4096
WRITER_SIZES = [1, 1023, 1024, 1025, 4095, 4096, 4097, 8193]


def _values(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[:min(n, len(SPECIALS))] = SPECIALS[:n]
    return rng.permutation(values)


@pytest.mark.parametrize("n", WRITER_SIZES)
def test_state_file_bytes(tmp_path, n):
    state = dl.LatticeState(_values(n, n))
    path = lab_io.write_state(tmp_path / "s.csv", state, 4.0 * n, -1.5)
    want = "index,psi\n" + reference_rows(state.values, numbered=True)
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("n", WRITER_SIZES)
def test_portrait_and_orbit_file_bytes(tmp_path, n):
    points = np.column_stack([_values(n, n + 1), _values(n, n + 2)])
    portrait = dl.PhasePortrait(points)
    path = lab_io.write_portrait(tmp_path / "p.csv", portrait)
    want = "psi,dpsi\n" + reference_rows(*portrait.points.T, numbered=False)
    assert path.read_bytes() == want.encode()
    # the orbit and, from the same digits, its portrait (psi[k], Z[k + 1])
    orbit = dl.MapOrbit(points)
    derived = tmp_path / "op.csv"
    if n == 1:
        with pytest.raises(ValueError, match="orbit portrait needs at least two points"):
            lab_io.write_orbit(tmp_path / "o.csv", orbit, derived)
        assert not (tmp_path / "o.csv").exists() and not derived.exists()
        return
    path = lab_io.write_orbit(tmp_path / "o.csv", orbit, derived)
    want = "step,psi,Z\n" + reference_rows(*orbit.points.T, numbered=True)
    assert path.read_bytes() == want.encode()
    want = "psi,dpsi\n" + reference_rows(points[:-1, 0], points[1:, 1], numbered=False)
    assert derived.read_bytes() == want.encode()
    path = lab_io.write_portrait(tmp_path / "q.csv", dl.portrait_from_orbit(orbit))
    assert derived.read_bytes() == path.read_bytes()


# ---------------------------------------------------------- the guard

def _integer_power(node):
    """x**k or x **= k, k an integer constant >= 3.  A power of two
    constants is folded when the module is compiled."""
    if not (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)):
        return False
    base = node.left if isinstance(node, ast.BinOp) else node.target
    exponent = node.right if isinstance(node, ast.BinOp) else node.value
    return (isinstance(exponent, ast.Constant) and type(exponent.value) is int
            and exponent.value >= 3 and not isinstance(base, ast.Constant))


def test_integer_powers_only_in_scalar_map_steps():
    """Array code forms cubes by multiplication; the scalar map steps keep
    psi**3, since their orbits are compared digit for digit.  iterate_map
    steps in its loop body, which _iterate_map_oracle pins to map_step."""
    assert node_scopes(_integer_power) == ["mapdyn.py:_step", "mapdyn.py:iterate_map"]
