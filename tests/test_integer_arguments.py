"""Count and shift arguments are taken through operator.index: a float
raises a ValueError that names the argument, where range, list repetition,
slicing or np.roll would raise TypeError or truncate it, and so does a
bool, which they would take for 0 or 1; a numpy
integer gives what the Python int it holds gives (a uint8 shift of a
pattern wrapped around when negated for the slice)."""

import numpy as np
import pytest

import dnse_lab as dl

SPEC = dl.parse_pattern("+0-00+0")
STATE = dl.LatticeState([0.1, 0.2, 0.3, 0.4, 0.5])
PORTRAIT = dl.phase_portrait(dl.build_asymptotic_state(SPEC))
SEED = dl.MapState(0.1, 0.0)

# (argument name, the call with a given value of that argument)
CALLS = {
    "steps": lambda v: dl.iterate_map(SEED, 1.0, 0.5, v).points.tolist(),
    "levels": lambda v: [level.points.tolist() for level in dl.zoom_report(PORTRAIT, (-1, 1, -1, 1), v)],
    "n_sites/random": lambda v: dl.random_pattern(v, 3).trits,
    "n_sites/spot": lambda v: dl.spot_pattern(v, [0, 5], 2, [1, -1]).trits,
    "spot_starts": lambda v: dl.spot_pattern(10, [v, 5], 2, [1, -1]).trits,
    "spot_len": lambda v: dl.spot_pattern(10, [0, 5], v, [1, -1]).trits,
    "shift/pattern": lambda v: SPEC.rotated(v).trits,
    "shift/state": lambda v: STATE.rotated(v).values.tolist(),
}


@pytest.mark.parametrize("value", [2.5, 1.0, "2", None, True, False],
                         ids=["2.5", "1.0", "str", "None", "True", "False"])
@pytest.mark.parametrize("argument", sorted(CALLS))
def test_non_integer_rejected(argument, value):
    name = argument.split("/")[0]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        CALLS[argument](value)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("argument", sorted(CALLS))
def test_numpy_integer_taken(argument, kind):
    assert CALLS[argument](kind(3)) == CALLS[argument](3)



@pytest.mark.parametrize("n_sites", [0, -3])
def test_spot_pattern_needs_a_site(n_sites):
    # as random_pattern: no ZeroDivisionError from the cyclic index at 0,
    # no IndexError at a negative count
    with pytest.raises(ValueError, match="^need at least one site$"):
        dl.spot_pattern(n_sites, [0], 1, [1])
    with pytest.raises(ValueError, match="^need at least one site$"):
        dl.random_pattern(n_sites, 0)
