#!/usr/bin/env python3
"""Phase portraits of the equivalent 2D map.

Iterates the map for a grid of seeds at fixed (E, c), keeping the bounded
orbits, and writes one combined portrait plus per-orbit classifications.
Bounded quasi-periodic orbits trace closed curves; chaotic seeds smear
out or escape.
"""

import argparse
from pathlib import Path

import numpy as np

import dnse_lab as dl
from dnse_lab import io as lab_io


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/map_portraits")
    parser.add_argument("--E", type=float, default=1.0)
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--seeds", type=int, default=12)
    args = parser.parse_args()
    outdir = Path(args.out)

    kept = []
    rows = []
    for psi0 in np.linspace(0.05, 0.6, args.seeds):
        orbit = dl.iterate_map(dl.MapState(float(psi0), 0.0), args.E, args.c, args.steps)
        if orbit.escaped:
            rows.append((psi0, 0, 1, None, None))
            print(f"  psi0={psi0:.3f}: escaped at step {orbit.escape_index}")
            continue
        portrait = dl.portrait_from_orbit(orbit)
        cls = dl.classify_portrait(portrait)
        kept.append(portrait.points)
        rows.append((psi0, 0, 0, cls.label.value, cls.distinct_points))
        print(f"  psi0={psi0:.3f}: bounded, {cls.label.value}, "
              f"{cls.distinct_points} distinct points")

    lab_io.write_csv(outdir / "orbits.csv", ["psi0", "z0", "escaped", "label", "distinct"], rows)
    if kept:
        combined = dl.PhasePortrait(np.vstack(kept))
        lab_io.write_portrait(outdir / "portrait.csv", combined)
        # boxes of side s from the portrait's lower corner: an exploratory
        # dimension statistic, not a rigorous one
        pts = combined.points
        lo = pts.min(axis=0)
        scales = np.logspace(-3, -1, 7)
        counts = [len(np.unique(np.floor((pts - lo) / s), axis=0)) for s in scales]
        lab_io.write_csv(outdir / "box_counts.csv", ["scale", "occupied"], zip(scales, counts))
        slope = np.polyfit(np.log(1 / scales), np.log(counts), 1)[0]
        print(f"combined portrait: {combined.size} points, "
              f"box-count slope {slope:.3f} (exploratory)")
    print(f"artifacts in {outdir}")


if __name__ == "__main__":
    main()
