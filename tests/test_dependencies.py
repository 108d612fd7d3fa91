"""The package imports only the standard library, numpy and mpmath, and
reaches BLAS or LAPACK, or reduces along an axis, only from the scopes
listed here."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import dnse_lab

from conftest import node_scopes, parse_module

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mpmath", "dnse_lab"}


def _imported_packages(path):
    for node in ast.walk(parse_module(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_are_stdlib_numpy_mpmath():
    sources = sorted(Path(dnse_lab.__file__).parent.rglob("*.py"))
    assert sources
    stray = {(path.name, name) for path in sources for name in _imported_packages(path)
             if name not in ALLOWED}
    assert not stray, f"imports outside stdlib, numpy and mpmath: {sorted(stray)}"


# numpy hands these to BLAS or LAPACK, whose results depend on the kernel
# and thread count; np.polyfit solves through lstsq
_BLAS_NAMES = {"matmul", "dot", "inner", "vdot", "polyfit"}


def _enters_blas(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return isinstance(node, ast.Attribute) and (
        ast.unparse(node.value) == "np.linalg"
        or ast.unparse(node.value) == "np" and node.attr in _BLAS_NAMES)


def test_blas_entry_points_are_listed():
    assert set(node_scopes(_enters_blas)) == {
        "lattice.py:LatticeState.norm_squared",
        "lattice.py:_normalized",
        "newton.py:rayleigh_energy",
        "newton.py:_bordered_step",
        "newton.py:_newton_loop",
        "analysis.py:fit_tail",
    }


def _reduces_along_an_axis(node):
    return isinstance(node, ast.keyword) and node.arg == "axis"


def test_axis_reductions_are_listed():
    # numpy reduces a (k, 2) array along either axis slowly, so the
    # portrait's frame, its finite-row mask and its dedupe go one column
    # at a time; these scopes work on wider rows
    assert set(node_scopes(_reduces_along_an_axis)) == {
        "analysis.py:_curve_thickness",
        "analysis.py:_nearest_neighbors",
        "io.py:_digit_words",
    }


# a uniform cloud, which _crowded declines, so the exact thickness labels
# it, and a dense circle, which _crowded settles
_LABELLING = """
import json, sys
import dnse_lab as dl
from dnse_lab import analysis
import numpy as np
t = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
portraits = [dl.PhasePortrait(np.random.default_rng(53).uniform(-1.0, 1.0, (300, 2))),
             dl.PhasePortrait(np.column_stack([np.cos(t), np.sin(t)]))]
loaded = set(sys.modules)
for p in portraits:
    dl.classify_portrait(p)
added = sorted(set(sys.modules) - loaded)
print(json.dumps({"added": added,
                  "crowded": [bool(analysis._crowded(p.points)) for p in portraits]}))
"""


def test_labelling_loads_no_module():
    # np.median's NaN check imports numpy.ma, about 1 MB, on its first call
    env = {**os.environ, "PYTHONPATH": str(Path(dnse_lab.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", _LABELLING], capture_output=True, text=True,
                         env=env, check=True)
    got = json.loads(run.stdout)
    assert got["crowded"] == [False, True]
    assert got["added"] == []
