"""Only dnse_lab.io writes files: no other package module and no script
calls write_text, write_bytes, mkdir, truncate or ftruncate, or opens a
file for writing, by a mode string or by os.open's write flags.  And the
package reads and writes bytes: each of its open(...) calls has a
constant mode holding b, and none calls read_text, so no file is decoded
by the host's locale."""

import ast
from pathlib import Path

import dnse_lab
from dnse_lab import io as lab_io

from conftest import parse_module

ROOT = Path(__file__).resolve().parents[1]
WRITE_METHODS = {"write_text", "write_bytes", "mkdir", "truncate", "ftruncate"}
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _mode_position(func):
    """Where a call's positional mode sits: second in open(...) and
    io.open(...), first in any other .open(...) (Path.open), and nowhere
    in os.open(...), which takes flags."""
    owner = getattr(getattr(func, "value", None), "id", None)
    if isinstance(func, ast.Name) or owner == "io":
        return 1
    return None if owner == "os" else 0


def _opens_for_writing(call):
    arguments = call.args + [k.value for k in call.keywords]
    names = {getattr(node, "attr", getattr(node, "id", None))
             for argument in arguments for node in ast.walk(argument)}
    position = _mode_position(call.func)
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    if position is not None and len(call.args) > position:
        modes.append(call.args[position])
    modes = [m.value for m in modes if isinstance(m, ast.Constant)]
    return bool(names & WRITE_FLAGS) or any(
        isinstance(m, str) and set(m) <= set("rwxabt+") and set(m) & set("wxa+") for m in modes)


def _opens_in_text_mode(call):
    """Whether an open(...) call (not os.open) lacks a constant mode
    holding b."""
    position = _mode_position(call.func)
    if position is None:
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:position + 1]
    return not any(isinstance(m, ast.Constant) and isinstance(m.value, str) and "b" in m.value
                   for m in modes)


def _calls(path, found):
    """Each call in the module at path for which found(name, call) holds,
    as 'directory/file:line function'."""
    for node in ast.walk(parse_module(path)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if found(name, node):
            yield f"{path.parent.name}/{path.name}:{node.lineno} {ast.unparse(func)}"


def _writes(path):
    return _calls(path, lambda name, call: name in WRITE_METHODS
                  or (name == "open" and _opens_for_writing(call)))


def _text_reads_and_writes(path):
    return _calls(path, lambda name, call: name == "read_text"
                  or (name == "open" and _opens_in_text_mode(call)))


def test_only_io_writes_files():
    package = Path(dnse_lab.__file__).parent
    sources = sorted(package.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert (package / "io.py") in sources
    found = [hit for path in sources if path.name != "io.py" or path.parent != package
             for hit in _writes(path)]
    assert not found, f"files written outside dnse_lab.io: {found}"


def test_package_reads_and_writes_bytes():
    found = [hit for path in sorted(Path(dnse_lab.__file__).parent.rglob("*.py"))
             for hit in _text_reads_and_writes(path)]
    assert not found, f"files opened in text mode or read by read_text: {found}"


def test_guard_sees_writes():
    calls = {hit.split()[-1] for hit in _writes(Path(lab_io.__file__))}
    assert {"os.open", "open", "out.truncate"} <= calls


def test_guard_reads_open_flags(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import os\n"
                      "os.open('f.txt', os.O_RDONLY)\n"
                      "open('f.txt')\n"
                      "os.open('f.txt', flags=os.O_RDWR)\n"
                      "os.open('f.txt', O_APPEND | os.O_CREAT)\n"
                      "os.open('f.txt', os.O_WRONLY | os.O_TRUNC, 0o600)\n"
                      "os.ftruncate(3, 0)\n"
                      "open('a')\n"
                      "open('f', 'a')\n"
                      "Path('x').open('w')\n"
                      "io.open('f', 'wb')\n"
                      "os.open('a', os.O_RDONLY)\n"
                      "open('w', mode='r')\n"
                      "Path('a').open()\n"
                      "open('f', mode='x')\n")
    assert [hit.split(":")[1] for hit in _writes(source)] == [
        "4 os.open", "5 os.open", "6 os.open", "7 os.ftruncate", "9 open",
        "10 Path('x').open", "11 io.open", "15 open"]


def test_guard_reads_text_modes(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("open('f')\n"
                      "open('f', 'rb')\n"
                      "open(os.open('f', os.O_WRONLY), mode)\n"
                      "open(3, 'wb')\n"
                      "os.open('f', os.O_RDONLY)\n"
                      "Path('f').open()\n"
                      "Path('f').open(mode='br')\n"
                      "io.open('f', 'r+')\n"
                      "Path('f').read_text()\n"
                      "Path('f').read_bytes()\n"
                      "open('f', mode='w', encoding='utf-8')\n")
    assert [hit.split(":")[1] for hit in _text_reads_and_writes(source)] == [
        "1 open", "3 open", "6 Path('f').open", "8 io.open", "9 Path('f').read_text", "11 open"]
