"""The package imports only the standard library, numpy and mpmath."""

import ast
import sys
from pathlib import Path

import dnse_lab

from conftest import parse_module

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
