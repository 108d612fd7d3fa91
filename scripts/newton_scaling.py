#!/usr/bin/env python3
"""Time and memory of newton_solve on random rings of growing size.

For each N of --sizes (default 10^4, 10^5 and 10^6) each of RUNS fresh
interpreters builds the strong-coupling start of the random pattern with
--seed on an N-site ring, at c = 4N, and solves it WRITE_REPEATS times
without tracing, for the median and the range of the wall time, the
iteration count and the process's ru_maxrss after the first solve, then
once more under tracemalloc, for the traced peak of the solve alone.  It then
writes the solved state with write_state WRITE_REPEATS times, to one
path in a temporary directory, for the median time of the state writer:
the first call creates the state file, its sidecar and its binary copy
and the others rewrite them, so the median is of rewrites.  It reads
the state back with read_state as many times, for the median time of
the reader, which takes the amplitudes from the binary copy.  It then
counts the distinct points of its phase portrait at DISTINCT_TOL as many
times, for the median time of distinct_points, and classifies the
portrait as many times, for the median time of classify_portrait, and
reads ru_maxrss again: classification sets the peak of a whole run at
10^6.
Prints one line per N with the min-max of each figure over its runs, and
writes every run's figures to newton_scaling.json under --out, beside an
environment block: the git SHA of the checkout (null outside one, as in
a git archive copy), the Python, numpy and mpmath versions, the machine
type and the CPU count, numpy's BLAS (name, version and configuration),
the OpenBLAS kernel that a child process reports under OPENBLAS_VERBOSE=2
(null where it reports none), and OPENBLAS_NUM_THREADS and
OPENBLAS_CORETYPE as set (null where unset).  The BLAS kernel and thread
count decide the last bits of numpy's dot products.
"""

import argparse
import functools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import dnse_lab as dl
from dnse_lab import io as lab_io
from dnse_lab.analysis import DISTINCT_TOL

WRITE_REPEATS = 5
# Fresh processes per N: a process's ru_maxrss peak follows what ran
# before it in that process, so one child gives one draw of it.
RUNS = 3
ROOT = Path(__file__).resolve().parents[1]


def _median_ms(call) -> float:
    """The median wall time of WRITE_REPEATS calls of call(), in ms."""
    times = []
    for _ in range(WRITE_REPEATS):
        began = time.perf_counter()
        call()
        times.append(time.perf_counter() - began)
    return 1e3 * statistics.median(times)


def _span(runs, key, digits) -> str:
    """The min-max of one figure over the runs of one N."""
    values = [run[key] for run in runs]
    return f"{min(values):.{digits}f}-{max(values):.{digits}f}"


def environment() -> dict:
    """What the figures were measured with.  git looks for a repository
    at ROOT only, so a copy inside another checkout records null.  mpmath
    is imported here, so the children's ru_maxrss does not count it."""
    import mpmath

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # no git on the machine
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "configuration": blas.get("openblas configuration")},
            "openblas_core": openblas_core(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE")}


def openblas_core():
    """The kernel OpenBLAS picks in a child that imports numpy, from the
    "Core: <name>" line that OPENBLAS_VERBOSE=2 makes it print."""
    child = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    found = re.search(r"^Core: (\S+)", child.stdout + child.stderr, re.MULTILINE)
    return found.group(1) if found else None


def measure(n: int, seed: int) -> dict:
    """The figures of one N, measured in this process."""
    start = dl.build_asymptotic_state(dl.random_pattern(n, seed))
    params = dl.ModelParams(4.0 * n)
    walls = []
    for k in range(WRITE_REPEATS):
        began = time.perf_counter()
        state, energy, report = dl.newton_solve(start, params)
        walls.append(time.perf_counter() - began)
        if k == 0:  # the peak of one solve: later ones raise it by a MiB at 10^5
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    try:
        dl.newton_solve(start, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.csv"
        write_ms = _median_ms(lambda: lab_io.write_state(path, state, params.c, energy))
        read_ms = _median_ms(lambda: lab_io.read_state(path))
    portrait = dl.phase_portrait(state)
    return {"n": n, "seed": seed, "wall_ms": 1e3 * statistics.median(walls),
            "wall_min_ms": 1e3 * min(walls), "wall_max_ms": 1e3 * max(walls),
            "iterations": report.iterations,
            "converged": report.converged, "traced_peak_mib": peak / 2**20,
            "ru_maxrss_mib": maxrss_kb / 2**10,
            "write_state_ms": write_ms,
            "read_state_ms": read_ms,
            "distinct_ms": _median_ms(lambda: dl.distinct_points(portrait, DISTINCT_TOL)),
            "classify_ms": _median_ms(lambda: dl.classify_portrait(portrait)),
            "ru_maxrss_classified_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="out/newton_scaling")
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000, 1_000_000])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one is not None:  # the child: one N, its figures on stdout
        print(json.dumps(measure(args.one, args.seed)))
        return
    rows = []
    for n in args.sizes:
        runs = [json.loads(subprocess.run(
            [sys.executable, __file__, "--one", str(n), "--seed", str(args.seed)],
            capture_output=True, text=True, check=True).stdout) for _ in range(RUNS)]
        rows += runs
        span = functools.partial(_span, runs)
        print(f"N={n:8d}  {span('wall_ms', 1)} ms  {span('iterations', 0)} iterations  "
              f"traced peak {span('traced_peak_mib', 2)} MiB  "
              f"ru_maxrss {span('ru_maxrss_mib', 1)} MiB, "
              f"{span('ru_maxrss_classified_mib', 1)} MiB classified  "
              f"write_state {span('write_state_ms', 1)} ms  "
              f"read_state {span('read_state_ms', 2)} ms  "
              f"distinct_points {span('distinct_ms', 1)} ms  "
              f"classify_portrait {span('classify_ms', 1)} ms  ({RUNS} runs)")
    path = lab_io.write_json(Path(args.out) / "newton_scaling.json",
                             {"environment": environment(), "runs": rows})
    print(f"written to {path}")


if __name__ == "__main__":
    main()
