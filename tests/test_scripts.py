"""Each experiment script under scripts/ runs to the end at a toy size."""

import importlib.util
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dnse_lab import io as lab_io

ROOT = Path(__file__).resolve().parents[1]

TOY_ARGS = {
    "code_lines.py": [],
    "irregular_chain.py": [],
    "map_portraits.py": ["--seeds", "1", "--steps", "200"],
    "newton_scaling.py": ["--sizes", "208", "1000"],
    "periodic_chain.py": [],
    "random_chains.py": ["--seeds", "1", "--cases", "208:260"],
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(TOY_ARGS)


def _run(script, out, args):
    """Run a script with --out and those arguments, on this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(out), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("script", sorted(TOY_ARGS))
def test_script_runs(tmp_path, script):
    _run(script, tmp_path, TOY_ARGS[script])
    assert any(tmp_path.iterdir())


def test_map_portraits_counts_its_boxes(tmp_path):
    _run("map_portraits.py", tmp_path, TOY_ARGS["map_portraits.py"])
    lines = (tmp_path / "box_counts.csv").read_text().splitlines()
    assert lines[0] == "scale,occupied" and len(lines) == 8
    scales = np.logspace(-3, -1, 7)
    assert [line.split(",")[0] for line in lines[1:]] == [lab_io.fmt(s) for s in scales]
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    points = np.loadtxt(tmp_path / "portrait.csv", delimiter=",", skiprows=1)
    lo = points.min(axis=0)
    # occupied boxes of side s, counted as distinct cell tuples
    assert counts == [len({tuple(cell) for cell in np.floor((points - lo) / s)})
                      for s in scales]
    assert counts == sorted(counts, reverse=True)


SAMPLE = '''"""A module docstring
over two lines."""

import math  # a comment after code counts


class Shape:
    """A class docstring."""

    # a comment alone does not count
    def area(self):
        """A function docstring
        over two lines."""
        text = """a string that is
        not a docstring"""
        return math.pi

    async def wait(self):
        "Async functions have docstrings too."
        return (1,
                2)
'''


def test_code_line_rule():
    # counted: the import, the class, the def, both lines of the string
    # and the return, the async def and both lines of its return
    assert _load(ROOT / "scripts" / "code_lines.py").count_code_lines(SAMPLE) == 9


def test_code_lines_counts_src_and_tests(tmp_path):
    # raw lines as wc -l counts them, and code lines, of every file of
    # the package, the tests and the scripts, with each directory's sums
    _run("code_lines.py", tmp_path, [])
    counts = json.loads((tmp_path / "code_lines.json").read_text())
    assert sorted(counts) == ["scripts", "src/dnse_lab", "tests"]
    count = _load(ROOT / "scripts" / "code_lines.py").count_code_lines
    for name, files in counts.items():
        total = files.pop("total")
        assert sorted(files) == sorted(p.name for p in (ROOT / name).glob("*.py"))
        for file, lines in files.items():
            source = (ROOT / name / file).read_bytes().decode()
            assert lines == {"raw": source.count("\n"), "code": count(source)}, file
        assert total == {key: sum(lines[key] for lines in files.values())
                         for key in ("raw", "code")}


def _load(script: Path):
    """The script at that path, imported as a module."""
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_newton_scaling_times_classification():
    row = _load(ROOT / "scripts" / "newton_scaling.py").measure(208, 1)
    assert row["classify_ms"] > 0 and row["distinct_ms"] > 0
    assert row["write_state_ms"] > 0 and row["read_state_ms"] > 0
    # read again after classification, which can set the run's peak
    assert row["ru_maxrss_classified_mib"] >= row["ru_maxrss_mib"] > 0


def test_newton_scaling_runs_each_size_in_fresh_processes(tmp_path):
    # a process's ru_maxrss follows what ran before it, so each N is
    # measured in RUNS children, every row kept and their min-max printed
    assert _load(ROOT / "scripts" / "newton_scaling.py").RUNS == 3
    proc = _run("newton_scaling.py", tmp_path, ["--sizes", "130", "100"])
    runs = json.loads((tmp_path / "newton_scaling.json").read_text())["runs"]
    assert [run["n"] for run in runs] == [130] * 3 + [100] * 3
    lines = proc.stdout.splitlines()
    for line, n in zip(lines, (130, 100)):
        assert re.match(rf"N=\s*{n}\s", line)
        assert re.search(r"ru_maxrss [\d.]+-[\d.]+ MiB, [\d.]+-[\d.]+ MiB classified", line)


def test_newton_scaling_records_its_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    for name in ("OPENBLAS_CORETYPE", "OPENBLAS_VERBOSE"):
        monkeypatch.delenv(name, raising=False)
    env = _load(ROOT / "scripts" / "newton_scaling.py").environment()
    assert sorted(env) == ["blas", "cpu_count", "git_sha", "machine", "mpmath", "numpy",
                           "openblas_core", "openblas_coretype", "openblas_num_threads",
                           "python"]
    # numpy's BLAS, the kernel a child reports (null where it names none)
    # and the OpenBLAS variables as set, null where unset; OPENBLAS_VERBOSE
    # is set for the child only
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"],
                           "configuration": blas.get("openblas configuration")}
    assert env["openblas_core"] is None or re.fullmatch(r"\w+", env["openblas_core"])
    assert env["openblas_num_threads"] == "2" and env["openblas_coretype"] is None
    assert "OPENBLAS_VERBOSE" not in os.environ
    # null where the scripts do not sit in a git checkout of their own
    assert env["git_sha"] is None or re.fullmatch("[0-9a-f]{40}", env["git_sha"])
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["mpmath"] == mpmath.__version__ and env["machine"] == platform.machine()
    assert env["cpu_count"] == os.cpu_count()
    # a copy without its .git records null, even inside another repository
    copy = tmp_path / "copy"
    (copy / "scripts").mkdir(parents=True)
    shutil.copy(ROOT / "scripts" / "newton_scaling.py", copy / "scripts")
    if shutil.which("git"):
        git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "outer"], check=True)
    assert _load(copy / "scripts" / "newton_scaling.py").environment()["git_sha"] is None
