#!/usr/bin/env python3
"""Random strong-coupling patterns on large rings.

For each seed, draws a uniform random trit pattern, continues it to the
requested coupling and reports convergence, structure changes, the final
quantized pattern counts and the portrait classification.
"""

import argparse
from pathlib import Path

import dnse_lab as dl
from dnse_lab import io as lab_io
from dnse_lab.errors import NoConvergence, SingularJacobian


def run_case(n_sites, c, seed, outdir):
    spec = dl.random_pattern(n_sites, seed)
    params = dl.ModelParams(c)
    try:
        state, energy, report = dl.newton_solve(dl.build_asymptotic_state(spec), params)
    except (NoConvergence, SingularJacobian) as exc:
        print(f"  seed {seed}: {type(exc).__name__} "
              f"(structure change: {exc.report.structure_changed})")
        return None
    counts = report.final_counts
    limit = dl.strong_coupling_energy(counts, c)
    cls = dl.classify_portrait(dl.phase_portrait(state))
    flag = " [structure changed]" if report.structure_changed else ""
    print(f"  seed {seed}: E={energy:+.6f} (limit {limit:+.6f}), "
          f"n={counts.n} m={counts.m} l={counts.l}, {cls.label.value}{flag}")
    prefix = outdir / f"n{n_sites}_seed{seed}"
    lab_io.write_state(prefix.with_suffix(".state.csv"), state, c, energy)
    lab_io.write_json(prefix.with_suffix(".report.json"), {**report.as_dict(), "seed": seed})
    return energy


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/random_chains")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--cases", nargs="+", default=["208:260", "1000:4000"],
                        help="N:c pairs")
    args = parser.parse_args()
    outdir = Path(args.out)

    for case in args.cases:
        n_str, c_str = case.split(":")
        n_sites, c = int(n_str), float(c_str)
        print(f"N={n_sites}, c={c}:")
        for seed in range(args.seeds):
            run_case(n_sites, c, seed, outdir)
    print(f"artifacts in {outdir}")


if __name__ == "__main__":
    main()
