"""Only dnse_lab.io writes files: no other package module and no script
calls write_text, write_bytes, mkdir or opens a file for writing."""

import ast
from pathlib import Path

import dnse_lab
from dnse_lab import io as lab_io

ROOT = Path(__file__).resolve().parents[1]
WRITE_METHODS = {"write_text", "write_bytes", "mkdir"}


def _opens_for_writing(call):
    modes = [a.value for a in call.args if isinstance(a, ast.Constant)]
    modes += [k.value.value for k in call.keywords
              if k.arg == "mode" and isinstance(k.value, ast.Constant)]
    return any(isinstance(m, str) and set(m) <= set("rwxabt+") and set(m) & set("wxa+")
               for m in modes)


def _writes(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WRITE_METHODS or (name == "open" and _opens_for_writing(node)):
            yield f"{path.parent.name}/{path.name}:{node.lineno} {name}"


def test_only_io_writes_files():
    package = Path(dnse_lab.__file__).parent
    sources = sorted(package.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert (package / "io.py") in sources
    found = [hit for path in sources if path.name != "io.py" or path.parent != package
             for hit in _writes(path)]
    assert not found, f"files written outside dnse_lab.io: {found}"


def test_guard_sees_writes():
    assert list(_writes(Path(lab_io.__file__)))
