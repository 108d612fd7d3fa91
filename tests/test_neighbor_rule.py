"""count_pattern and phase_portrait read neighbours through lattice._neighbors.

Each is compared on every pattern of up to 8 sites, under both boundaries,
with the code it replaced, which handled each boundary on its own.  No
other package code shifts a whole track with np.roll.
"""

import ast
from itertools import product

import numpy as np
import pytest

import dnse_lab as dl

from conftest import node_scopes

PATTERNS = [trits for n in range(1, 9) for trits in product((-1, 0, 1), repeat=n) if any(trits)]


def _count_pattern_oracle(spec):
    trits = np.array(spec.trits)
    occ = trits != 0
    n = int(np.count_nonzero(occ))
    if spec.boundary is dl.Boundary.PERIODIC:
        if occ.all():
            m = 0
        else:
            m = int(np.count_nonzero(occ & ~np.roll(occ, 1)))
        pair_a, pair_b = trits, np.roll(trits, -1)
    else:
        prev = np.concatenate(([False], occ[:-1]))
        m = int(np.count_nonzero(occ & ~prev))
        pair_a, pair_b = trits[:-1], trits[1:]
    l = int(np.count_nonzero((pair_a * pair_b) == -1))
    return dl.PatternCounts(n=n, m=m, l=l)


def _phase_portrait_oracle(state):
    psi = state.values
    if state.boundary is dl.Boundary.PERIODIC:
        return np.column_stack([psi, np.roll(psi, -1) - psi]), True
    return np.column_stack([psi[:-1], psi[1:] - psi[:-1]]), False


@pytest.mark.parametrize("boundary", list(dl.Boundary))
def test_count_pattern_matches_oracle(boundary):
    for trits in PATTERNS:
        spec = dl.PatternSpec(trits, boundary)
        assert dl.count_pattern(spec) == _count_pattern_oracle(spec), trits


@pytest.mark.parametrize("boundary", list(dl.Boundary))
def test_phase_portrait_matches_oracle(boundary):
    for trits in PATTERNS:
        if len(trits) < 2:
            continue
        state = dl.build_asymptotic_state(dl.PatternSpec(trits, boundary))
        portrait = dl.phase_portrait(state)
        points, cyclic = _phase_portrait_oracle(state)
        assert np.array_equal(portrait.points, points), trits
        assert portrait.cyclic is cyclic
        assert np.array_equal(portrait.psi_sequence, state.values)


def _names_roll(node):
    return (isinstance(node, ast.Attribute) and node.attr == "roll"
            or isinstance(node, ast.Name) and node.id == "roll"
            or isinstance(node, ast.alias) and node.name.split(".")[-1] == "roll")


def test_np_roll_only_rotates_states():
    assert node_scopes(_names_roll) == ["lattice.py:LatticeState.rotated"]
