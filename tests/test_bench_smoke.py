"""The benchmark's smoke run passes against the current package.

The benchmark pins parts of the API: ModelParams(c, boundary), jac.n on
solve_linear's first argument, NewtonReport.as_dict and the portrait, map
and sweep commands.  The smoke run exercises them all at toy sizes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok", proc.stdout
