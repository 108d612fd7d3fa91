#!/usr/bin/env python3
"""Record bench/reference.json, the correctness gate of the benchmark.

    python3 bench/record_reference.py

Runs every operation of every corpus once with the code in ./src and
stores its outputs (convergence, quantized counts, energy, portrait label,
period and distinct-point count, polish residual), keyed by operation.
Re-record only when a change is meant to alter these outputs, and say why
in the change.  Takes about five minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main():
    os.environ.update(run.PINNED_THREADS)
    sys.path.insert(0, str(run.SRC))
    import workloads

    reference = {"corpus": {}, "outputs": {}}
    outputs, corpus = reference["outputs"], reference["corpus"]

    def record(name, ops):
        for op in ops:
            try:
                raw = op.run()
            except Exception as exc:  # recorded as the expected outcome
                raw = workloads.Failure(type(exc).__name__)
            outputs[op.key] = workloads.outputs_of(op, raw)
            print(f"{name} {op.key} {json.dumps(outputs[op.key])}", file=sys.stderr, flush=True)

    workdir = run.WORK / "record"
    shutil.rmtree(run.WORK, ignore_errors=True)
    for name, profile in workloads.PROFILES.items():
        rings = profile["rings"]
        record(name, workloads.ring_ops([(n, s) for n, _per, size in rings for s in range(size)],
                                        workdir / name))
        for n, _per, size in rings:
            corpus[f"converged/{n}"] = [s for s in range(size)
                                        if outputs[f"ring/{n}/{s}"].get("converged")]
        n = profile["portrait_n"]
        corpus[f"converged/{n}"] = workloads.converged_ring_seeds(n, profile["portrait_corpus"])
        record(name, workloads.portrait_ops(profile, corpus[f"converged/{n}"],
                                            range(profile["map_corpus"]), workdir / name))
        record(name, workloads.chain_ops(profile, workdir / name))
    shutil.rmtree(run.WORK, ignore_errors=True)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference['outputs'])} reference records to {path}")


if __name__ == "__main__":
    main()
