"""Command-line front end.

Subcommands: pattern, solve, sweep, map, portrait, random.  Every run
writes a `run.json` into its output directory echoing the fully resolved
options, so any result can be reproduced exactly.  Exit codes: 0 success,
2 input error, 3 no convergence, 4 singular Jacobian.  A run that exits 2
writes nothing: an --out that cannot be a directory is rejected before
the command runs, the writers create the output directory, and each
command checks its input before its first write.

The only environment variable consulted is DNSE_LAB_OUTDIR (default
output directory); everything else is flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import io as lab_io
from .analysis import DISTINCT_TOL, classify_portrait, phase_portrait, portrait_from_orbit
from .errors import DnseError, NoConvergence, SingularJacobian
from .lattice import Boundary, ModelParams, normalize
from .mapdyn import DEFAULT_ESCAPE_BOUND, MapState, iterate_map
from .newton import NewtonConfig, newton_solve, sweep_c
from .patterns import (
    build_asymptotic_state,
    count_pattern,
    parse_pattern,
    random_pattern,
    strong_coupling_energy,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SINGULAR = 4


def _default_outdir() -> str:
    return os.environ.get("DNSE_LAB_OUTDIR", ".")


def _write_run_json(args):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    lab_io.write_json(Path(args.out) / "run.json",
                      {"command": args.command, "options": resolved})


def _check_out(out, flag="--out"):
    """Reject an --out that cannot become a directory, before any work.

    The writers make the directory, and so any missing parents, at the
    first write; the first existing path above it must be a directory.
    """
    path = Path(out)
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise DnseError(f"{flag} {out}: {path} is not a directory")


def _newton_config(args) -> NewtonConfig:
    return NewtonConfig(tol_residual=args.tol, max_iter=args.max_iter)


def _write_classified(portrait_path, class_path, portrait, tol: float):
    """Write a portrait and its classification; return the classification payload."""
    lab_io.write_portrait(portrait_path, portrait)
    payload = classify_portrait(portrait, tol).as_dict()
    lab_io.write_json(class_path, payload)
    return payload


def cmd_pattern(args) -> int:
    if not all(map(math.isfinite, args.c)):
        raise DnseError("--c must be finite")
    spec = parse_pattern(args.text, Boundary(args.bc))
    counts = count_pattern(spec)
    payload = counts.as_dict()
    payload["E_table"] = [[c, strong_coupling_energy(counts, c)] for c in args.c]
    if len(args.c) == 1:
        payload["E_infinity"] = payload["E_table"][0][1]
    print(json.dumps(payload, sort_keys=True))
    lab_io.write_json(Path(args.out) / "pattern.json", payload)
    return EXIT_OK


def _build_initial(args):
    given = [args.pattern is not None, args.state_file is not None, args.random is not None]
    if sum(given) != 1:
        raise DnseError("exactly one of --pattern, --state-file, --random is required")
    if args.pattern is not None:
        spec = parse_pattern(args.pattern, Boundary(args.bc))
        return build_asymptotic_state(spec), None
    if args.state_file is not None:
        state, _meta = lab_io.read_state(args.state_file)
        return normalize(state), None
    spec = replace(random_pattern(args.random, args.seed), boundary=Boundary(args.bc))
    return build_asymptotic_state(spec), args.seed


def cmd_solve(args) -> int:
    prefix = Path(args.out_prefix)
    if not prefix.parts or prefix.is_absolute() or ".." in prefix.parts:
        raise DnseError(f"--out-prefix {args.out_prefix!r}: not a file name inside --out")
    stem = Path(args.out) / prefix
    _check_out(stem.parent, "--out-prefix")
    config = _newton_config(args)
    initial, seed = _build_initial(args)
    params = ModelParams(args.c, initial.boundary)

    def _write(state, energy, report, failed: str | None):
        lab_io.write_state(f"{stem}.state.csv", state, args.c, energy)
        payload = {**report.as_dict(), "seed": seed}
        if failed:
            payload["failed"] = failed
        lab_io.write_json(f"{stem}.report.json", payload)
        if state.n_sites >= 2:
            _write_classified(f"{stem}.portrait.csv", f"{stem}.class.json",
                              phase_portrait(state), args.tol_distinct)

    try:
        state, energy, report = newton_solve(initial, params, config)
    except NoConvergence as exc:
        _write(exc.state, exc.energy, exc.report, failed="no_convergence")
        print("no convergence", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except SingularJacobian as exc:
        _write(exc.state, exc.energy, exc.report, failed="singular_jacobian")
        print(f"singular Jacobian: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    _write(state, energy, report, failed=None)
    print(json.dumps({"E": energy, "iterations": report.iterations,
                      "converged": report.converged}, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _newton_config(args)
    spec = parse_pattern(args.pattern, Boundary(args.bc))
    initial = build_asymptotic_state(spec)
    params = ModelParams(args.c_from, initial.boundary)
    if not args.c_step > 0:
        raise DnseError("--c-step must be positive")
    if not math.isfinite(args.c_to):
        raise DnseError("--c-to must be finite")
    # c_from + k*step, not a running sum, so rounding does not accumulate;
    # the step points from c_from toward c_to
    step = math.copysign(args.c_step, args.c_to - args.c_from)
    slack = math.copysign(1e-12 * max(1.0, abs(args.c_to)), step)
    span = (args.c_to + slack - args.c_from) / step
    if not math.isfinite(span):
        raise DnseError("the number of coupling steps is not finite")
    n_steps = math.floor(span)
    c_values = [args.c_from + k * step for k in range(n_steps + 1)]
    records = sweep_c(initial, params, c_values, config)
    rows = [[rec.c, rec.energy, int(rec.converged), rec.counts.n, rec.counts.m, rec.counts.l,
             rec.max_amplitude, rec.iterations] for rec in records]
    lab_io.write_csv(Path(args.out) / "sweep.csv",
                     ["c", "E", "converged", "n", "m", "l", "max_amp", "iterations"], rows)
    print(f"{sum(r.converged for r in records)}/{len(records)} points converged")
    return EXIT_OK


def cmd_map(args) -> int:
    # iterate_map clamps an infinite bound to the largest float, but JSON has no inf
    if not args.escape < math.inf:
        raise DnseError("--escape must be finite")
    orbit = iterate_map(
        MapState(args.psi0, args.z0), args.E, args.c, args.steps,
        escape_bound=args.escape,
    )
    outdir = Path(args.out)
    lab_io.write_orbit(outdir / "orbit.csv", orbit, outdir / "portrait.csv")
    lab_io.write_json(outdir / "classification.json",
                      classify_portrait(portrait_from_orbit(orbit), args.tol_distinct).as_dict())
    print(json.dumps({"steps_recorded": int(orbit.points.shape[0]),
                      "escaped": orbit.escaped,
                      "escape_index": orbit.escape_index}, sort_keys=True))
    return EXIT_OK


def cmd_portrait(args) -> int:
    state, _meta = lab_io.read_state(args.state_file)
    outdir = Path(args.out)
    payload = _write_classified(outdir / "portrait.csv", outdir / "classification.json",
                                phase_portrait(state), args.tol_distinct)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_random(args) -> int:
    spec = random_pattern(args.n_sites, args.seed)
    print(spec.text())
    lab_io.write_pattern(Path(args.out) / "pattern.txt", spec)
    return EXIT_OK


def _add_out(p):
    # None until main resolves it, so the environment is read at each call
    p.add_argument("--out", default=None,
                   help="output directory (default: $DNSE_LAB_OUTDIR or .)")


def _add_solver_flags(p):
    p.add_argument("--tol", type=float, default=NewtonConfig.tol_residual,
                   help="tolerance on the residual max-norm and |psi.psi - 1|/2 "
                        "(or the rounding floor, where larger)")
    p.add_argument("--max-iter", type=int, default=NewtonConfig.max_iter)


def _add_classify_flags(p):
    p.add_argument("--tol-distinct", type=float, default=DISTINCT_TOL,
                   help="clustering tolerance for distinct portrait points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnse-lab",
        description="Stationary states of the 1D discrete nonlinear Schrodinger lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="counts and strong-coupling energies of a pattern")
    p.add_argument("text")
    p.add_argument("--bc", choices=["periodic", "open"], default="periodic")
    # a tuple: the one parser hands this default to every parse
    p.add_argument("--c", type=float, nargs="+", default=(0.0,))
    _add_out(p)
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("solve", help="Newton-solve from a pattern, file or random start")
    p.add_argument("--pattern")
    p.add_argument("--state-file")
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bc", choices=["periodic", "open"], default="periodic",
                   help="boundary of a --pattern or --random start; a --state-file "
                        "start keeps the boundary its sidecar records")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--out-prefix", default="solve",
                   help="stem of the artifact names, relative to --out; it may name a "
                        "subdirectory, but not climb out of --out")
    _add_solver_flags(p)
    _add_classify_flags(p)
    _add_out(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="predictor-corrector continuation over the coupling")
    p.add_argument("--pattern", required=True)
    p.add_argument("--bc", choices=["periodic", "open"], default="periodic")
    p.add_argument("--c-from", type=float, required=True)
    p.add_argument("--c-to", type=float, required=True)
    p.add_argument("--c-step", type=float, default=1.0,
                   help="step size (> 0), taken from --c-from toward --c-to")
    _add_solver_flags(p)
    _add_out(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("map", help="iterate the 2D map from an initial condition")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--psi0", type=float, required=True)
    p.add_argument("--z0", type=float, required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--escape", type=float, default=DEFAULT_ESCAPE_BOUND)
    _add_classify_flags(p)
    _add_out(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("portrait", help="re-analyze a stored state file")
    p.add_argument("--state-file", required=True)
    _add_classify_flags(p)
    _add_out(p)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("random", help="emit a reproducible random pattern string")
    p.add_argument("n_sites", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=cmd_random)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building one costs ten to twenty parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.out is None:
        args.out = _default_outdir()
    try:
        _check_out(args.out)
        # the commands that classify check their tolerance before any work
        if not 0 < vars(args).get("tol_distinct", DISTINCT_TOL) < math.inf:
            raise DnseError("--tol-distinct must be positive and finite")
        code = args.func(args)
        _write_run_json(args)
    except (DnseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
