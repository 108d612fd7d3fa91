"""Span tracing of the dnse_lab layers, installed from outside the package.

`Tracer.install()` replaces every public function of the layer modules
with a wrapper, at every module attribute that holds it (for example both
`dnse_lab.lattice.residual` and `dnse_lab.newton.residual`), because each
caller looks the function up in its own module's namespace.  Each call
records a span (name, start, end, parent); a span's self time is its
duration minus the durations of its direct children.  Private helpers are
not wrapped, so their time is the self time of their public caller.

Functions called once per lattice site or map step (`io.fmt`,
`mapdyn.map_step`, `mapdyn.map_step_inverse`) are not wrapped either: a
span per element would cost more than the work it measures.  Their time is
part of the self time of the `io.write_*` or `mapdyn.iterate_map` call that
runs them.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("lattice", "patterns", "newton", "mapdyn", "analysis", "highprec", "io", "cli")
PER_ELEMENT = frozenset({"io.fmt", "mapdyn.map_step", "mapdyn.map_step_inverse"})


def _count_sites(counts, args, result, exc):
    counts["newton.solve_linear.sites"] += args[0].n


def _count_iterations(counts, args, result, exc):
    report = result[2] if exc is None else getattr(exc, "report", None)
    if report is not None:
        counts["newton.iterations"] += report.iterations


def _count_points(counts, args, result, exc):
    counts["analysis.distinct_points.points"] += args[0].size


def _count_steps(counts, args, result, exc):
    counts["mapdyn.iterate_map.steps"] += result.points.shape[0] - 1


def _count_bytes(counts, args, result, exc):
    counts["io.bytes_written"] += Path(result).stat().st_size


def _count_state_bytes(counts, args, result, exc):
    path = Path(result)
    counts["io.bytes_written"] += path.stat().st_size + path.with_suffix(".json").stat().st_size


# Exact work counts taken at the layer boundary: (args, result or exception).
COUNTERS = {
    "newton.solve_linear": _count_sites,
    "newton.newton_solve": _count_iterations,
    "analysis.distinct_points": _count_points,
    "mapdyn.iterate_map": _count_steps,
    "io.write_state": _count_state_bytes,
    "io.write_portrait": _count_bytes,
    "io.write_orbit": _count_bytes,
    "io.write_box_counts": _count_bytes,
    "io.write_json": _count_bytes,
}


def public_functions(package):
    """(span name, function) for every public function of the layer modules."""
    found = []
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, obj in vars(module).items():
            span = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and span not in PER_ELEMENT):
                found.append((span, obj))
    return found


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _wrap(self, span, fn):
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [span, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            exc = result = None
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                record[2] = perf_counter()
                self._stack.pop()
                if counter is not None:
                    counter(self.counts, args, result, exc)

        return wrapper

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(span, fn)) for span, fn in public_functions(self.package)}
        modules = [self.package] + [getattr(self.package, layer) for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def self_times(self):
        """{span name: (calls, self seconds)} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += end - start - child[index]
        return {name: tuple(v) for name, v in totals.items()}


# Per-layer metric name -> unit.  Count metrics are exact and must repeat on
# every pass of one commit; time metrics are medians over traced passes.
PER_LAYER_UNITS = {
    "newton.solve_linear.calls": "count",
    "newton.solve_linear.self_s": "s",
    "newton.solve_linear.sites": "count",
    "newton.solve_linear.ns_per_site": "ns",
    "lattice.residual.calls": "count",
    "lattice.residual.self_s": "s",
    "newton.newton_solve.calls": "count",
    "newton.newton_solve.self_s": "s",
    "newton.iterations": "count",
    "newton.energy_estimate.calls": "count",
    "newton.rayleigh_energy.calls": "count",
    "analysis.distinct_points.calls": "count",
    "analysis.distinct_points.self_s": "s",
    "analysis.distinct_points.points": "count",
    "analysis.classify_portrait.calls": "count",
    "analysis.classify_portrait.self_s": "s",
    "analysis.phase_portrait.self_s": "s",
    "highprec.polish_solution.calls": "count",
    "highprec.polish_solution.self_s": "s",
    "highprec.polish_solution.reached_tol": "count",
    "highprec.polish_solution.worst_log10_residual": "log10",
    "highprec.map_reproduction_error.self_s": "s",
    "mapdyn.iterate_map.calls": "count",
    "mapdyn.iterate_map.self_s": "s",
    "mapdyn.iterate_map.steps": "count",
    "io.read_state.self_s": "s",
    "io.write.self_s": "s",
    "io.bytes_written": "count",
    "patterns.quantize_state.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def pass_metrics(tracer):
    """Per-layer metrics of one traced pass, except the two that need op
    outputs or an untraced pass (polish outcome, trace overhead)."""
    times = tracer.self_times()
    metrics = dict(tracer.counts)
    for name in PER_LAYER_UNITS:
        span, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = times.get(span, (0, 0.0))[0]
        elif field == "self_s" and span != "io.write":
            metrics[name] = times.get(span, (0, 0.0))[1]
        else:
            metrics.setdefault(name, 0)
    metrics["io.write.self_s"] = sum(t for span, (_, t) in times.items()
                                     if span.startswith("io.write_"))
    sites = metrics["newton.solve_linear.sites"]
    metrics["newton.solve_linear.ns_per_site"] = (
        metrics["newton.solve_linear.self_s"] / sites * 1e9 if sites else 0.0)
    return metrics
