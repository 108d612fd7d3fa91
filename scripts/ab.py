#!/usr/bin/env python3
"""Paired A/B runs of two trees through bench/run.py.

    python3 scripts/ab.py --base HEAD~1 --head HEAD --label my-change \\
        --workloads portrait_scan --pairs 10 --seconds 25 --seed 8101

--base and --head each name a git revision of this repository, copied
with git archive, or a directory, copied without its .git and the files
that building, testing and running leave behind.  Both copies go into a
temporary directory, so neither run reads the working checkout's
caches or run directories.  For each workload, pair i runs bench/run.py
--workload W --seed (--seed + i) --seconds --seconds --trace 0 once in
each copy, the base first in even pairs and the head first in odd ones.

Writes BENCH_<label>.json under --out (the repository root by default):
every run's correct flag and end-to-end metrics, and per workload and
metric the medians and quartiles of both sides, the ratio head/base of
the medians, the pairs the head won (ties count for neither) and
whether the head's gain holds: wins in at least 9 of every 10 pairs, and
a median better than the base's by more than the base's interquartile
range.  The environment block holds the SHAs of the revisions (null for
a directory), the Python and numpy versions, the CPU count, the OpenBLAS
kernel that a child reports under OPENBLAS_VERBOSE=2 (newton_scaling.py's
openblas_core; null where it reports none), and OPENBLAS_NUM_THREADS
and OPENBLAS_CORETYPE as set (null where unset; bench/run.py pins
OPENBLAS_NUM_THREADS to 1 in its own process).
"""

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

from dnse_lab import io as lab_io

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")
WORKLOADS = ("ring_solve", "portrait_scan", "chain_continuation")
# what a directory copy leaves out: version control, and what building,
# testing and running leave behind
LEFT_BEHIND = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_run",
               ".benchmarks", "out")


def checkout(tree: str, dest: Path):
    """Copy tree, a directory or a revision, to dest; return its SHA, or
    None for a directory."""
    if Path(tree).is_dir():
        shutil.copytree(tree, dest, ignore=shutil.ignore_patterns(*LEFT_BEHIND))
        return None
    git = ["git", "-C", str(ROOT)]
    rev = subprocess.run([*git, "rev-parse", "--verify", "--quiet", f"{tree}^{{commit}}"],
                         stdout=subprocess.PIPE, text=True)
    if rev.returncode != 0:
        sys.exit(f"{tree} is neither a directory nor a revision of {ROOT}")
    sha = rev.stdout.strip()
    archive = subprocess.run([*git, "archive", "--format=tar", sha], stdout=subprocess.PIPE,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def bench(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of bench/run.py in copy: its last line."""
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=copy, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"bench/run.py failed in {copy.name}, {workload} seed {seed}:\n{run.stderr}")
    return json.loads(run.stdout.splitlines()[-1])


def summary(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(base, head, better: str) -> dict:
    """Both sides' medians and quartiles over paired values, the ratio of
    the medians, the head's wins, and whether its gain holds."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    sides = {"base": summary(base), "head": summary(head)}
    gap = sign * (sides["base"]["median"] - sides["head"]["median"])
    iqr = sides["base"]["q3"] - sides["base"]["q1"]
    ratio = sides["head"]["median"] / sides["base"]["median"] if sides["base"]["median"] else None
    return {**sides, "ratio": ratio, "better": better, "head_wins": wins, "pairs": len(base),
            "gain": 10 * wins >= 9 * len(base) and gap > iqr}


def environment(shas: dict) -> dict:
    # newton_scaling.py sits beside this script, on sys.path when it runs
    from newton_scaling import openblas_core

    return {"sha": shas, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "openblas_core": openblas_core(),
            "openblas": {name: os.environ.get(name)
                         for name in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision or directory")
    parser.add_argument("--head", required=True, help="git revision or directory")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0, help="the seed of the first pair")
    parser.add_argument("--label", help="names BENCH_<label>.json; by default the head's SHA")
    parser.add_argument("--out", default=str(ROOT))
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        shas = {side: checkout(getattr(args, side), copies[side]) for side in SIDES}
        better = {m["name"]: m["better"] for m in
                  json.loads((copies["head"] / "BENCHMARK.json").read_text())["end_to_end"]}
        workloads = {}
        for workload in args.workloads:
            runs = []
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                run = {"pair": pair, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = bench(copies[side], workload, seed, args.seconds)
                runs.append(run)
                print(f"{workload} pair {pair} seed {seed}: base correct {run['base']['correct']},"
                      f" head correct {run['head']['correct']}", flush=True)
            metrics = {name: {"unit": value["unit"], **compare(
                           [run["base"]["metrics"][name]["value"] for run in runs],
                           [run["head"]["metrics"][name]["value"] for run in runs], better[name])}
                       for name, value in runs[0]["base"]["metrics"].items()}
            workloads[workload] = {"metrics": metrics, "runs": runs}

    label = args.label or (shas["head"] or "head")[:12]
    path = lab_io.write_json(Path(args.out) / f"BENCH_{label}.json", {
        "label": label, "base": args.base, "head": args.head,
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "workloads": args.workloads},
        "environment": environment(shas), "workloads": workloads})
    for workload, result in workloads.items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: median base {m['base']['median']:.6g}, "
                  f"head {m['head']['median']:.6g} {m['unit']}; head won {m['head_wins']} "
                  f"of {m['pairs']}; gain {m['gain']}")
    print(f"written to {path}")


if __name__ == "__main__":
    main()
