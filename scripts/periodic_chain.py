#!/usr/bin/env python3
"""Regularly spaced alternating spots on a 100-site ring.

Solves the 10-spot pattern at c = 24, classifies its phase portrait,
then sweeps the coupling to c = 30 recording peak amplitude and the
fitted tail decay factor at every step.
"""

import argparse
from pathlib import Path

import numpy as np

import dnse_lab as dl
from dnse_lab import io as lab_io


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/periodic_chain")
    parser.add_argument("--c", type=float, default=24.0)
    parser.add_argument("--c-to", type=float, default=30.0)
    args = parser.parse_args()
    outdir = Path(args.out)

    spec = dl.spot_pattern(100, [10 * k for k in range(10)], 1,
                           [(-1) ** k for k in range(10)])
    print(f"pattern: {spec.text()}")
    print(f"counts:  {dl.counts_report(spec, args.c)}")

    state, energy, report = dl.newton_solve(
        dl.build_asymptotic_state(spec), dl.ModelParams(args.c)
    )
    print(f"solved c={args.c}: E={energy:.12g} in {report.iterations} iterations")
    lab_io.write_state(outdir / "solution.state.csv", state, args.c, energy)
    lab_io.write_json(outdir / "solution.report.json", report.as_dict())

    portrait = dl.phase_portrait(state)
    lab_io.write_portrait(outdir / "portrait.csv", portrait)
    cls = dl.classify_portrait(portrait)
    print(f"classification: {cls.label.value}, period={cls.period}, "
          f"{cls.distinct_points} distinct points")
    lab_io.write_json(outdir / "classification.json", cls.as_dict())

    rows = []
    current = state
    for c in np.arange(args.c, args.c_to + 0.5, 1.0):
        current, e, _ = dl.newton_solve(current, dl.ModelParams(float(c)))
        fit = dl.fit_tail(current, 0, (1, 4), energy=e)
        rows.append((c, e, np.max(np.abs(current.values)),
                     fit.decay_factor_measured, fit.decay_factor_predicted))
        print(f"  c={c:5.1f}  E={e:+.6f}  max|psi|={np.max(np.abs(current.values)):.4f}  "
              f"mu={fit.decay_factor_measured:.4f} (pred {fit.decay_factor_predicted:.4f})")
    lab_io.write_csv(outdir / "sweep.csv",
                     ["c", "E", "max_amp", "mu_measured", "mu_predicted"], rows)
    print(f"artifacts in {outdir}")


if __name__ == "__main__":
    main()
