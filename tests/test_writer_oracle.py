"""io._rows against the formatting it replaced: the same bytes, value by value.

The oracle is conftest.reference_rows, '%.17g' of each value in Python.
The value sets aim at the places where the numpy digits could go wrong:
exact and near ties, the neighbours of powers of ten (where log10's
exponent is off by one), the switch between the 0.000ddd and the
exponent layouts, the ends of the decided range (1e-280 and 1), and
values that only '%.17g' writes.  The last test bounds how many values
of the solver's own outputs are left to '%.17g'.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab import io as lab_io

from conftest import MAP_STARTS, map_orbit, reference_rows, tie_values


def _assert_same_bytes(*columns):
    """The rows of the columns, numbered and not, as the oracle writes them."""
    for numbered in (True, False):
        got = b"".join(lab_io._rows("h", *columns, numbered=numbered)).decode().splitlines()
        want = ["h", *reference_rows(*columns, numbered=numbered).splitlines()]
        assert len(got) == len(want)
        wrong = [(k, g, w) for k, (g, w) in enumerate(zip(got, want)) if g != w]
        assert not wrong, f"{len(wrong)} rows differ, first (row, written, expected): {wrong[0]}"


def _random_bits(n, seed):
    """Floats from uniform random bit patterns: every exponent alike,
    subnormals, infinities and nan included."""
    return np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def _scaled_normals(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)


def _powers_of_ten():
    """10**j and both of its float neighbours, j = -300 ... 300."""
    powers = np.array([float(f"1e{j}") for j in range(-300, 301)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
    1e-300, 1e-281, 1e-280, np.nextafter(1e-280, 0), np.nextafter(1e-280, 1),
    -1e-280, 1.0000000000000001e-280,
    1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), -1e-4, 9.9999999999999995e-5,
    1e-5, np.nextafter(1e-5, 0), 0.1, np.nextafter(0.1, 0), np.nextafter(1.0, 0), -np.nextafter(1.0, 0),
    1.0, -1.0, 1.7976931348623157e308, 2.0**-25, 0.5, 0.25, 0.02, 2e-5, -3e-200,
])

VALUE_SETS = {
    "random bits": lambda: _random_bits(100_000, 1),
    "scaled normals": lambda: _scaled_normals(100_000, 2),
    "ties": tie_values,
    "powers of ten": _powers_of_ten,
    "edges": lambda: EDGES,
}


@pytest.mark.parametrize("name", VALUE_SETS)
def test_one_column(name):
    values = VALUE_SETS[name]()
    _assert_same_bytes(values)
    _assert_same_bytes(-values)


@pytest.mark.parametrize("name", VALUE_SETS)
def test_two_columns(name):
    values = VALUE_SETS[name]()
    _assert_same_bytes(values, np.random.default_rng(3).permutation(values))


def test_columns_of_a_stack():
    # the portrait and orbit writers pass the columns of an (n, 2) array
    points = np.column_stack([_scaled_normals(9000, 4), _random_bits(9000, 5)])
    _assert_same_bytes(*points.T)


def test_index_width_changes_inside_a_block():
    # 9 -> 10, 99 -> 100 and 999 -> 1000 in the first block, 9999 -> 10000
    # inside a later one
    _assert_same_bytes(_scaled_normals(10_001, 6) * 1e-3)


def _exact(x):
    """(D, k, undecidable) for the float x, by exact rational arithmetic:
    |x| rounds half-even to 17 digits as D 10**(k - 16) with k the
    exponent of |x|; undecidable where _decimal_digits may leave x to
    '%.17g', that is outside (1e-280, 1), within a little more than the
    margin of a tie, where D is a power of ten, or within 1e-15 relative
    of a power of ten (where log10's exponent may be one off)."""
    a = abs(Fraction(x))
    k = Decimal(abs(x)).adjusted()
    scaled = a * Fraction(10) ** (16 - k)
    digits = round(scaled)
    near_tie = abs(scaled - int(scaled) - Fraction(1, 2)) < lab_io._TIE_MARGIN + 1e-12
    near_power = any(abs(a / Fraction(10) ** j - 1) < 1e-15 for j in (k, k + 1))
    undecidable = (not 1e-280 < abs(x) < 1 or near_tie or near_power
                   or digits in (10**16, 10**17))
    return digits, k, undecidable


@pytest.mark.parametrize("name", VALUE_SETS)
def test_digits_decided_exactly(name):
    """Every decided value has the exact digits and exponent, and only a
    value that cannot be decided is left to '%.17g'."""
    values = VALUE_SETS[name]()[:5000]
    values = values[np.isfinite(values)]
    digits, k, decided = lab_io._decimal_digits(values)
    for x, d, e, ok in zip(values.tolist(), digits.tolist(), k.tolist(), decided.tolist()):
        exact, exponent, undecidable = _exact(x)
        if ok:
            assert (d, e) == (exact, exponent), x
        else:
            assert undecidable, f"{x!r} left to '%.17g'"


def test_fast_path_decides_the_corpus(solved_corpus):
    """The writers' numpy digits decide nearly every value they are given:
    the solved states and portraits of the corpus and the first 2000-step
    orbit of `map --E 1 --c 1`.  99.75% are decided; '%.17g' writes the
    rest."""
    columns = [map_orbit(MAP_STARTS[0]).points.ravel()]
    for solved in solved_corpus.values():
        columns += [solved.state.values, dl.phase_portrait(solved.state).points.ravel()]
    _, _, decided = lab_io._decimal_digits(np.concatenate(columns))
    assert decided.mean() >= 0.995, f"{decided.sum()} of {len(decided)} values decided"
