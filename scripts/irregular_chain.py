#!/usr/bin/env python3
"""Irregularly signed two-site spots on a 130-site ring.

Solves the 13-pair pattern at c = 40 and compares the converged energy
with the strong-coupling limit formula, then shows how the gap closes as
the coupling grows.
"""

import argparse
from pathlib import Path

import dnse_lab as dl
from dnse_lab import io as lab_io

SIGNS = [1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1, -1]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/irregular_chain")
    parser.add_argument("--c", type=float, default=40.0)
    args = parser.parse_args()
    outdir = Path(args.out)

    spec = dl.spot_pattern(130, [10 * k for k in range(13)], 2, SIGNS)
    counts = dl.count_pattern(spec)
    limit = dl.strong_coupling_energy(counts, args.c)
    print(f"pattern: {spec.text()}")
    print(f"n={counts.n} m={counts.m} l={counts.l}, strong-coupling E = {limit:.6f}")

    state, energy, report = dl.newton_solve(
        dl.build_asymptotic_state(spec), dl.ModelParams(args.c)
    )
    print(f"solved c={args.c}: E={energy:.12g} "
          f"(gap to limit {energy - limit:+.4f}; a series in eps = n/c = "
          f"{counts.n / args.c:.4f} that starts at -eps^2)")
    lab_io.write_state(outdir / "solution.state.csv", state, args.c, energy)
    lab_io.write_json(outdir / "solution.report.json", report.as_dict())

    portrait = dl.phase_portrait(state)
    lab_io.write_portrait(outdir / "portrait.csv", portrait)
    cls = dl.classify_portrait(portrait)
    print(f"classification: {cls.label.value}, {cls.distinct_points} distinct points")
    lab_io.write_json(outdir / "classification.json", cls.as_dict())

    rows = []
    for c in (args.c, 2 * args.c, 10 * args.c, 100 * args.c):
        s, e, _ = dl.newton_solve(dl.build_asymptotic_state(spec), dl.ModelParams(c))
        lim = dl.strong_coupling_energy(counts, c)
        rows.append((c, e, lim, e - lim))
        print(f"  c={c:7.0f}  E={e:+.6f}  limit={lim:+.6f}  gap={e - lim:+.6f}")
    lab_io.write_csv(outdir / "limit_gap.csv", ["c", "E", "E_limit", "gap"], rows)
    print(f"artifacts in {outdir}")


if __name__ == "__main__":
    main()
