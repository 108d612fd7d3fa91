"""The shared corpus of tests/conftest.py pinned to the North star's and to
the benchmark's inputs, so that the tests and the benchmark cannot drift
apart: the 22 members with their names, sizes, seeds and couplings, the
chain patterns of bench/workloads.py and the couplings of its two sweep
commands.  An AST scan keeps each helper and oracle in one home: no
top-level function is defined in two test modules, and conftest.py holds
only what some test module uses.  Another finds imports that a test
module never reads, a third a def or class that a later one of the
same module or class body replaces, and a fourth a test module that
starts tracemalloc itself rather than through conftest.traced_peak."""

import ast
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import dnse_lab as dl
from dnse_lab import cli

from conftest import BENCH_SWEEPS, CHAINS, CORPUS, node_scopes, parse_module

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, imported read-only."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_members_are_the_north_stars():
    # chain100 at c = 24, chain130 at c = 40, then random rings with N in
    # {208, 1000} and seeds 0-9 at c = 4N
    expected = [("chain100", 100, None, 24.0), ("chain130", 130, None, 40.0)]
    expected += [(f"ring{n}/{seed}", n, seed, 4.0 * n) for n in (208, 1000) for seed in range(10)]
    assert [(m.name, m.n, m.seed, m.c) for m in CORPUS] == expected
    for m in CORPUS:
        assert len(m.pattern.trits) == m.n and m.pattern.boundary is dl.Boundary.PERIODIC, m.name
        if m.seed is not None:
            assert m.pattern == dl.random_pattern(m.n, m.seed), m.name


def test_chain_patterns_are_the_benchmarks(workloads):
    for m in CHAINS:
        assert m.pattern == workloads.chain_pattern(m.name), m.name


def test_sweeps_are_the_benchmarks(workloads, tmp_path, monkeypatch):
    # the couplings that the CLI makes of each sweep command of the
    # benchmark's full profile
    profile = workloads.PROFILES["full"]
    made = {}

    def recording(initial, params, c_values, config):
        made[name] = list(c_values)
        return []

    monkeypatch.setattr(cli, "sweep_c", recording)
    for name, c_from, c_to in profile["sweeps"]:
        assert cli.main(["sweep", "--pattern", workloads.chain_pattern(name).text(),
                         "--c-from", repr(c_from), "--c-to", repr(c_to),
                         "--c-step", repr(profile["c_step"]), "--out", str(tmp_path / name)]) == 0
    assert made == BENCH_SWEEPS


def _top_level_functions(path):
    return [node.name for node in parse_module(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_no_function_defined_in_two_test_modules():
    homes = defaultdict(list)
    for path in sorted(TESTS.glob("*.py")):
        for name in _top_level_functions(path):
            homes[name].append(path.name)
    assert {name: found for name, found in homes.items() if len(found) > 1} == {}


def _names_defined_twice(path):
    """'line name' of each def or class of a module body or a class body
    whose name an earlier def or class of that body took: the later one
    replaces it, and pytest never sees the first."""
    tree = parse_module(path)
    twice = []
    for owner in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
        seen = set()
        for node in owner.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    twice.append(f"{node.lineno} {node.name}")
                seen.add(node.name)
    return twice


def test_no_name_defined_twice_in_one_body():
    twice = [f"{path.name}:{hit}" for path in sorted(TESTS.glob("*.py"))
             for hit in _names_defined_twice(path)]
    assert not twice, f"defined twice in one body: {twice}"


def test_guard_sees_names_defined_twice(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("def test_a(): pass\n"
                      "class TestB:\n"
                      "    def test_a(self): pass\n"
                      "    def test_c(self):\n"
                      "        def test_c(): pass\n"
                      "    async def test_c(self): pass\n"
                      "def test_a(): pass\n"
                      "class TestD:\n"
                      "    def test_c(self): pass\n"
                      "class TestB: pass\n"
                      "test_e = 1\n"
                      "def test_e(): pass\n")
    assert _names_defined_twice(source) == ["7 test_a", "10 TestB", "6 test_c"]


def _unread_imports(path):
    """The names that the module at path imports and never reads."""
    tree = parse_module(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_import_is_read():
    unread = [f"{path.name}: {name}" for path in sorted(TESTS.glob("*.py"))
              for name in _unread_imports(path)]
    assert not unread, f"imported and never read: {unread}"


def test_every_conftest_function_is_used():
    # a name read, or a fixture asked for by argument, in some test module
    used = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(parse_module(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.arg):
                used.add(node.arg)
    assert set(_top_level_functions(TESTS / "conftest.py")) - used == set()


def _starts_tracemalloc(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "start" and getattr(node.func.value, "id", None) == "tracemalloc")


def test_only_conftest_starts_tracemalloc():
    # conftest.traced_peak is the one memory probe
    assert node_scopes(_starts_tracemalloc, sorted(TESTS.glob("test_*.py"))) == []


def test_guard_sees_tracemalloc_started(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import tracemalloc\n"
                      "class TestA:\n"
                      "    def test_b(self):\n"
                      "        tracemalloc.start()\n"
                      "        tracemalloc.get_traced_memory()\n"
                      "        tracemalloc.stop()\n")
    assert node_scopes(_starts_tracemalloc, [source]) == ["probe.py:TestA.test_b"]
