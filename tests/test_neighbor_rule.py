"""count_pattern and phase_portrait read neighbours through lattice._neighbors.

Each is compared on every pattern of up to 8 sites, under both boundaries,
with the code it replaced, which handled each boundary on its own.  No
other package code shifts a whole track with np.roll.
"""

import ast
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import dnse_lab as dl

from conftest import parse_module

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


def _roll_uses(path):
    """'file:enclosing.scope' of every name `roll` the module refers to."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "roll"
                    or isinstance(child, ast.Name) and child.id == "roll"
                    or isinstance(child, ast.alias) and child.name.split(".")[-1] == "roll"):
                yield f"{path.name}:{'.'.join(scope)}"
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from visit(child, scope + (child.name,) if named else scope)
    return list(visit(parse_module(path), ()))


def test_np_roll_only_rotates_states():
    package = Path(dl.__file__).parent
    found = [use for path in sorted(package.rglob("*.py")) for use in _roll_uses(path)]
    assert found == ["lattice.py:LatticeState.rotated"]
