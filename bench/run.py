#!/usr/bin/env python3
"""dnse-lab benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload ring_solve --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; the package is imported from ./src.  Load is
a closed loop: one client in this one process runs the workload's
operations back to back.  A pass runs every operation once; a run makes
round(--seconds / pass_s) passes, pass_s being a constant per workload, so
a run does the same work whatever its speed.  The program is single-threaded
with no queues and no layer waits on another, so there are no wait-time
metrics.

Times are scaled to a reference host speed.  A core of a shared host
flips between a fast and a slow state (up to half again as slow) every few
seconds, for every program alike.  While untraced passes run, a timer
signal interrupts them every CALIBRATION_EVERY_S to time a fixed
calibration loop that uses nothing of dnse_lab; the interruptions are left
out of the measured times, and every time of a run is multiplied by
CALIBRATION_REF_S over the trimmed mean of the run's calibration times.
The unscaled medians are printed as comments.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced passes and prints the per-layer metrics (see spans.py).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for the workloads and for
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# The machine has few cores and the solver is single-threaded: keep numpy's
# BLAS/OpenMP pools, here and in the set-up child, at one thread.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # operations that must lie beyond the reported tail percentile
STOP_AFTER = 1.5  # stop early once a run has used this many times --seconds
# Time of calibration_loop on an idle core of the reference host (a 2.1 GHz
# Xeon, Python 3.11, numpy 2.4); a run's times are scaled by this over the
# trimmed mean calibration time measured during the run.  A trimmed mean and
# not a median: with two speed states the median jumps from one to the other.
CALIBRATION_REF_S = 0.010
CALIBRATION_TRIM = 0.1  # share of samples dropped at each end
# Sampling period: spread evenly over wall time, the samples weigh every
# second of a run alike, inside a long operation too; at 10-15 ms a sample
# this costs 2-3% of a run's time.
CALIBRATION_EVERY_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workloads, args, profile):
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        **workloads.package_versions(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": PINNED_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": profile,
    }


@functools.cache
def _calibration_inputs():
    import numpy  # after main() has pinned numpy's threads

    rng = numpy.random.default_rng(20011)
    return numpy, rng.standard_normal((240, 2)), rng.standard_normal(20_000)


def calibration_loop():
    """The kinds of work dnse_lab does, in fixed amounts and without its
    code: an interpreted loop over numpy scalars, then whole-array calls."""
    numpy, points, vector = _calibration_inputs()
    for p in points:
        for r in points[:100]:
            if abs(p[0] - r[0]) <= 1e-12 and abs(p[1] - r[1]) <= 1e-12:
                break
    for _ in range(20):
        numpy.sort(vector + 1.0)
        numpy.cumsum(vector)


class HostSpeed:
    """Calibration samples taken by a SIGALRM handler while sampling is on,
    and a clock that leaves out the time the handler ran."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0  # seconds spent in the handler
        self._previous_handler = None

    def _sample(self, *_signal_args):
        t0 = perf_counter()
        calibration_loop()
        self.samples.append(perf_counter() - t0)
        self.stolen += perf_counter() - t0

    def start(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def clock(self):
        """perf_counter() less the time spent sampling; read again if a
        sample ran between the two reads."""
        while True:
            stolen = self.stolen
            now = perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def factor(self):
        """Multiplier that scales the run's times to the reference speed."""
        return CALIBRATION_REF_S / trimmed_mean(self.samples)


def trimmed_mean(values):
    """Mean without the lowest and highest CALIBRATION_TRIM share of the
    values, so that a sample stretched by a preemption does not move it."""
    ordered = sorted(values)
    k = int(len(ordered) * CALIBRATION_TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


def import_in_child():
    """Interpreter start plus package import, the part of set-up a user pays
    on every command; run in a child so it can be repeated."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import dnse_lab"], env=env, cwd=ROOT,
                   check=True, timeout=120)


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND operations beyond it, by nearest rank."""
    n = len(latencies)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    ordered = sorted(latencies)
    return pct, ordered[max(math.ceil(pct * n / 100), 1) - 1]


def run_pass(workloads, ops, skip, speed, sample):
    """Run each operation once, in order, except those indexed in skip,
    timed by speed.clock(), and sampling the host speed if `sample`.
    Returns (wall, latencies, raw results), wall being the sum of the
    latencies, with None for a skipped operation; all times are unscaled."""
    latencies, raws = [], []
    if sample:
        speed.start()
    try:
        for index, op in enumerate(ops):
            raw = elapsed = None
            if index not in skip:
                t_op = speed.clock()
                try:
                    raw = op.run()
                except Exception as exc:  # a failed operation is data, not a crash
                    raw = workloads.Failure(type(exc).__name__)
                elapsed = speed.clock() - t_op
            latencies.append(elapsed)
            raws.append(raw)
    finally:
        if sample:
            speed.stop()
    return sum(t for t in latencies if t is not None), latencies, raws


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list = field(default_factory=list)  # printed before the metrics


def run_workload(workloads, spans, name, seed, seconds, trace, profile_name, reference):
    profile = workloads.PROFILES[profile_name]
    result = Result()
    shutil.rmtree(WORK, ignore_errors=True)
    setup_times = []
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        import_in_child()
        ops = workloads.SETUPS[name](profile, seed, reference["corpus"], WORK / f"setup{k}")
        setup_times.append(perf_counter() - t0)
    random.Random(seed).shuffle(ops)

    pass_s = profile["pass_s"][name]
    min_passes = math.ceil((TAIL_BEYOND + 1) / len(ops))
    if trace:
        passes = 2 * max(1, round(seconds / (2 * pass_s)))
    else:
        passes = max(min_passes, round(seconds / pass_s))

    import dnse_lab

    tracer = spans.Tracer(dnse_lab)
    speed = HostSpeed()
    latencies, by_class, walls = [], {}, []
    layer_passes, overheads, previous = [], [], []
    reported = set()
    start = perf_counter()
    for index in range(passes):
        traced = trace and index % 2 == 0
        skip = frozenset()
        if trace and not traced:
            # The untraced half of a pair repeats the traced pass, except an
            # operation that alone outlasts the run: a solve that stops
            # converging must not push the run past its time limit.
            skip = frozenset(i for i, t in enumerate(previous) if t > seconds)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            # Spans of a traced pass would count the samples, so only untraced
            # passes sample the host speed.
            wall, lat, raws = run_pass(workloads, ops, skip, speed, sample=not traced)
        finally:
            if traced:
                tracer.uninstall()
        if not trace:
            walls.append(wall)
            latencies += lat
            for op, t in zip(ops, lat):
                by_class.setdefault(op.key.rpartition("/")[0], []).append(t)
        elif not traced:
            overheads.append(sum(t - u for t, u in zip(previous, lat) if u is not None))
        previous = lat

        polish = []
        for op, raw in zip(ops, raws):
            if raw is None:
                continue
            out = workloads.outputs_of(op, raw)
            ref = reference["outputs"].get(op.key)
            correct, ok = workloads.check(op.kind, out, ref)
            result.attempted += 1
            result.failed += not ok
            result.correct &= correct
            if op.kind == "polish" and "error" not in out:
                polish.append(out)
            if (not correct or not ok) and op.key not in reported:
                reported.add(op.key)
                verdict = "MISMATCH" if not correct else "failed"
                print(f"# {verdict} {op.key}: got {json.dumps(out)} reference {json.dumps(ref)}",
                      file=sys.stderr)
        if traced:
            layer = spans.pass_metrics(tracer)
            layer["highprec.polish_solution.reached_tol"] = sum(
                p["log10_residual"] <= p["log10_tol"] for p in polish)
            layer["highprec.polish_solution.worst_log10_residual"] = max(
                (p["log10_residual"] for p in polish), default=0.0)
            layer_passes.append(layer)
        done = index + 1
        if (done >= (2 if trace else min_passes) and (not trace or done % 2 == 0)
                and perf_counter() - start >= STOP_AFTER * seconds):
            break
    shutil.rmtree(WORK, ignore_errors=True)

    result.notes.append(f"{done} passes of {len(ops)} operations"
                        + (f", {len(layer_passes)} of them traced" if trace else ""))
    factor = speed.factor()
    result.notes.append(f"host speed factor {factor!r} from {len(speed.samples)} calibration "
                        f"samples (trimmed mean {trimmed_mean(speed.samples) * 1e3:.3f} ms, "
                        f"reference {CALIBRATION_REF_S * 1e3:.3f} ms); times below are scaled by it")
    if trace:
        for name_, unit in spans.PER_LAYER_UNITS.items():
            values = [layer[name_] for layer in layer_passes]
            if unit in ("s", "ns"):
                value = statistics.median(values) * factor
            else:
                value = values[0]
                if any(v != value for v in values):
                    result.correct = False
                    result.notes.append(f"{name_} differs between traced passes: {values}")
            result.metrics[name_] = (value, unit)
        result.metrics["trace.overhead_s"] = (statistics.median(overheads) * factor, "s")
        return result

    pct, tail_value = tail(latencies)
    result.notes.append(f"op_tail_ms is p{pct} of {len(latencies)} operations")
    result.notes.append(f"unscaled: setup_s {statistics.median(setup_times)!r} s, "
                        f"wall_s {statistics.median(walls)!r} s")
    for cls, values in sorted(by_class.items()):
        result.notes.append(f"median op latency {cls}: "
                            f"{statistics.median(values) * factor * 1e3:.3f} ms over {len(values)} ops")
    result.notes.append(f"failed_frac {result.failed / result.attempted!r} fraction "
                        f"({result.failed} of {result.attempted} operations failed)")
    values = {
        "setup_s": statistics.median(setup_times) * factor,
        "wall_s": statistics.median(walls) * factor,
        "op_p50_ms": statistics.median(latencies) * factor * 1e3,
        "op_tail_ms": tail_value * factor * 1e3,
        "ok_frac": 1.0 - result.failed / result.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    return result


def report_lines(result):
    lines = [f"# {note}" for note in result.notes]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in result.metrics.items()]
    return lines


def final_line(result):
    return json.dumps({
        "correct": bool(result.correct),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    })


def smoke(workloads, spans, reference):
    """All workloads at toy sizes, untraced and traced: every metric must be
    printed with its unit, match BENCHMARK.json, and pass the gate."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for kind, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", spans.PER_LAYER_UNITS)):
        names = {m["name"]: m["unit"] for m in declared[kind]}
        if names != units:
            problems.append(f"BENCHMARK.json {kind} {names} != {units}")
    expected = {0: dict(END_TO_END_UNITS, failed_frac="fraction"), 1: spans.PER_LAYER_UNITS}
    for name in workloads.SETUPS:
        for trace in (0, 1):
            result = run_workload(workloads, spans, name, 0, 1.0, trace, "smoke", reference)
            lines = [line.removeprefix("# ").split() for line in report_lines(result)]
            missing = [m for m, unit in expected[trace].items()
                       if not any(words[:1] == [m] and words[2:3] == [unit] for words in lines)]
            if missing:
                problems.append(f"{name} trace={trace}: not printed with a unit: {missing}")
            if not result.correct:
                problems.append(f"{name} trace={trace}: outputs differ from the reference")
            print(f"# smoke {name} trace={trace}: {result.attempted} ops, {result.failed} failed")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    if not problems:
        print("smoke ok")
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["ring_solve", "portrait_scan", "chain_continuation"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy sizes and check the printed metrics")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dnse_lab" / "__init__.py").is_file():
        print(f"error: no dnse_lab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    reference = json.loads((BENCH / "reference.json").read_text())
    if args.smoke:
        return smoke(workloads, spans, reference)
    profile = "full"
    print(f"# env {json.dumps(environment(workloads, args, profile), sort_keys=True)}")
    print("# closed loop, one client, one process; no layer waits on another, "
          "so there are no wait-time metrics")
    result = run_workload(workloads, spans, args.workload, args.seed, args.seconds,
                          args.trace, profile, reference)
    for line in report_lines(result):
        print(line)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
