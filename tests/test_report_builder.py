"""Newton's run report has one builder.

newton_solve and the high-precision polish run the one loop,
newton._newton_loop, and it writes the NewtonReport of both from what it
recorded; the phase switch BORDERED_RESIDUAL is read only where
newton_solve chooses its step.  A second construction or reader would let
the two runs' reports drift apart.
"""

import ast
from pathlib import Path

from conftest import parse_module

SRC = Path(__file__).resolve().parents[1] / "src" / "dnse_lab"


def _sites(matches):
    """(module, top-level definition) of every node of the package that
    matches; code outside any definition is in "<module>"."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for top in parse_module(path).body:
            owner = getattr(top, "name", "<module>")
            sites += [(path.stem, owner) for node in ast.walk(top) if matches(node)]
    return sites


def _named(node, name):
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def test_one_report_construction():
    calls = _sites(lambda node: isinstance(node, ast.Call) and _named(node.func, "NewtonReport"))
    assert calls == [("newton", "_newton_loop")]


def test_phase_switch_read_only_by_newton_solve():
    reads = _sites(lambda node: isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load) and _named(node, "BORDERED_RESIDUAL"))
    assert reads and set(reads) == {("newton", "newton_solve")}
