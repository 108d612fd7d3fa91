"""Newton's run report has one builder.

newton_solve and the high-precision polish run the one loop,
newton._newton_loop, and it writes the NewtonReport of both from what it
recorded; the phase switch BORDERED_RESIDUAL is read only where
newton_solve chooses its step.  A second construction or reader would let
the two runs' reports drift apart.
"""

import ast

from conftest import node_scopes


def _named(node, name):
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def test_one_report_construction():
    calls = node_scopes(lambda node: isinstance(node, ast.Call) and _named(node.func, "NewtonReport"))
    assert calls == ["newton.py:_newton_loop"]


def test_phase_switch_read_only_by_newton_solve():
    reads = node_scopes(lambda node: isinstance(node, (ast.Name, ast.Attribute))
                        and isinstance(node.ctx, ast.Load) and _named(node, "BORDERED_RESIDUAL"))
    # newton_solve's step function chooses the step
    assert reads and set(reads) == {"newton.py:newton_solve.step"}
