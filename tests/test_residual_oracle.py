"""The in-place residual and Jacobian diagonal against the forms they replaced.

lattice._stencil_residual subtracts the hops from psi * 2 in place and puts
the cube and E psi into one scratch array; it replaced a body that built
the two shifted copies of psi by concatenation.  newton._jacobian_diagonal
builds 2 - E - 3 c psi**2 in one array where it made three.  The old
bodies are kept below as the oracles.  Every arithmetic operation kept its
operands and their order, so both must give the same bytes on float64 and
the same Decimal numbers on the high-precision polish's object arrays.
"""

from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab.lattice import _stencil_residual
from dnse_lab.newton import _jacobian_diagonal

SIZES = (1, 2, 3, 5, 100, 1000, 10_000)
BOUNDARIES = (dl.Boundary.PERIODIC, dl.Boundary.OPEN)


def _concatenated_residual(psi, c, energy, boundary):
    """_stencil_residual as it built both neighbours by concatenation."""
    if boundary is dl.Boundary.PERIODIC:
        first, last = psi[-1:], psi[:1]  # the sites across the wrap
    else:
        first = last = [0.0]
    left, right = np.concatenate((first, psi[:-1])), np.concatenate((psi[1:], last))
    res = psi * 2 - left - right
    cube = np.multiply(psi, psi, out=left)
    cube *= psi
    cube *= c
    res -= cube
    res -= psi * energy
    return res


def _three_array_diagonal(psi, c, energy):
    """_jacobian_diagonal as it made psi**2, its product and the result."""
    return np.subtract(2 - energy, psi**2 * (3 * c))


def _cases(n, seed):
    """Random (psi, c, E): amplitudes over several decades, with signs."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 1, n)
    return psi, float(rng.uniform(-4 * n, 4 * n)), float(rng.normal(0, 10))


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.value)
@pytest.mark.parametrize("n", SIZES)
def test_float_residual_bytes(n, boundary):
    for seed in range(5):
        psi, c, energy = _cases(n, seed)
        res = _stencil_residual(psi, c, energy, boundary)
        assert res.tobytes() == _concatenated_residual(psi, c, energy, boundary).tobytes(), seed


@pytest.mark.parametrize("n", SIZES)
def test_float_jacobian_diagonal_bytes(n):
    for seed in range(5):
        psi, c, energy = _cases(n, seed)
        assert (_jacobian_diagonal(psi, c, energy).tobytes()
                == _three_array_diagonal(psi, c, energy).tobytes()), seed


def test_solved_ring_residual_bytes():
    # near a solution the residual is the cancellation of large terms
    n = 1000
    state, energy, _ = dl.newton_solve(dl.build_asymptotic_state(dl.random_pattern(n, 3)),
                                       dl.ModelParams(4.0 * n))
    psi = state.values
    for boundary in BOUNDARIES:
        assert (_stencil_residual(psi, 4.0 * n, energy, boundary).tobytes()
                == _concatenated_residual(psi, 4.0 * n, energy, boundary).tobytes())


def test_corpus_residual_and_diagonal_bytes(kernel_corpus):
    # the chains solved and the rings at their starts, at the Rayleigh E
    for name, state, c in kernel_corpus:
        psi = state.values
        energy = dl.rayleigh_energy(state, dl.ModelParams(c))
        assert (_stencil_residual(psi, c, energy, state.boundary).tobytes()
                == _concatenated_residual(psi, c, energy, state.boundary).tobytes()), name
        assert (_jacobian_diagonal(psi, c, energy).tobytes()
                == _three_array_diagonal(psi, c, energy).tobytes()), name


@pytest.mark.parametrize("n", (1, 2, 3, 5, 100))
def test_decimal_residual_and_diagonal(n):
    # the polish's numbers: periodic object arrays of Decimal at 60 digits
    for seed in range(3):
        psi, c, energy = _cases(n, seed)
        with localcontext(Context(prec=60)):
            third = Decimal(1) / 3
            psi = np.array([Decimal(v) * third for v in psi.tolist()], dtype=object)
            c, energy = Decimal(c) * third, Decimal(energy) * third
            res = _stencil_residual(psi, c, energy, dl.Boundary.PERIODIC)
            ref = _concatenated_residual(psi, c, energy, dl.Boundary.PERIODIC)
            diag = _jacobian_diagonal(psi, c, energy)
            ref_diag = _three_array_diagonal(psi, c, energy)
        assert res.dtype == object and diag.dtype == object
        assert [str(v) for v in res] == [str(v) for v in ref], seed
        assert [str(v) for v in diag] == [str(v) for v in ref_diag], seed
