"""The CLI's artifacts and the polish's digits on a fixed corpus, byte for byte.

The corpus runs through cli.main in one process:

- solve --random N --seed s --c 4N for N in {208, 1000} and s in 0-9;
- map --E 1 --c 1 from psi0 = 0.05 (k + 1), z0 = 0, 2000 steps, k = 0-9;
- portrait --state-file on the state each ring1000_s solve wrote, the
  path the benchmark's portrait_scan times;
- for each paper chain (chain100 at c = 24, chain130 at c = 40): solve,
  a sweep from c to c + 2 in steps of 0.25, a solve stopped by
  --max-iter 2 (the partial artifacts of NoConvergence), pattern, and
  solve --state-file from the state its solve wrote, at the same c;

plus the high-precision polish of each chain's solution, its psi and E
written as strings at 60 digits.  Every file a run writes is one
artifact, and so is its console (exit code, stdout and stderr).  run.json
is left out: it records the absolute --out path.  The SHA-256 of each
artifact is compared with identity_digests.json, which also records the
Python, numpy and mpmath versions, the name and version of numpy's BLAS
and the machine type it was made on: numpy's sums and dot products may
round differently on another CPU or BLAS, and the failure message says
so, naming both environments, when they differ.

A change that moves outputs on purpose re-records the file, and lists the
artifacts it changed and why, by running this module as a script:

    PYTHONPATH=src python tests/test_identity_corpus.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np
from mpmath import mp

import dnse_lab as dl
from dnse_lab.cli import main
from dnse_lab.highprec import polish_solution

from conftest import CHAINS, MAP_C, MAP_E, MAP_STARTS, MAP_STEPS, RINGS

DIGESTS = Path(__file__).with_name("identity_digests.json")
POLISH_DPS = 60


def _runs(root: Path):
    """(name, argv without --out) of every CLI run of the corpus, in order:
    a --state-file run reads a state that an earlier run wrote under root."""
    for m in RINGS:
        yield f"ring{m.n}_{m.seed}", ["solve", "--random", str(m.n), "--seed", str(m.seed),
                                      "--c", str(int(m.c))]
    for m in RINGS:
        if m.n == 1000:
            yield f"ring1000_{m.seed}_portrait", [
                "portrait", "--state-file", str(root / f"ring1000_{m.seed}" / "solve.state.csv")]
    for k, psi0 in enumerate(MAP_STARTS):
        yield f"map{k}", ["map", "--E", f"{MAP_E:g}", "--c", f"{MAP_C:g}", "--psi0", repr(psi0),
                          "--z0", "0", "--steps", str(MAP_STEPS)]
    for m in CHAINS:
        name, text, c = m.name, m.pattern.text(), m.c
        yield f"{name}_solve", ["solve", "--pattern", text, "--c", repr(c)]
        yield f"{name}_sweep", ["sweep", "--pattern", text, "--c-from", repr(c),
                                "--c-to", repr(c + 2), "--c-step", "0.25"]
        yield f"{name}_partial", ["solve", "--pattern", text, "--c", repr(c),
                                  "--max-iter", "2"]
        yield f"{name}_pattern", ["pattern", text, "--c", repr(c)]
        yield f"{name}_state_solve", ["solve", "--state-file",
                                      str(root / f"{name}_solve" / "solve.state.csv"), "--c", repr(c)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_digests(root: Path) -> dict:
    """{artifact name: SHA-256} of the corpus, its runs written under root."""
    digests = {}
    for name, argv in _runs(root):
        out = root / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        console = f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"
        digests[f"{name}/console"] = _sha256(console.encode())
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "run.json":
                digests[f"{name}/{path.relative_to(out).as_posix()}"] = _sha256(path.read_bytes())
    for m in CHAINS:
        params = dl.ModelParams(m.c)
        state, _, _ = dl.newton_solve(m.start(), params)
        psi, energy = polish_solution(state, params, POLISH_DPS)
        with mp.workdps(POLISH_DPS):
            digests[f"{m.name}_polish/psi"] = _sha256("\n".join(map(str, psi)).encode())
            digests[f"{m.name}_polish/E"] = _sha256(str(energy).encode())
    return digests


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "mpmath": mpmath.__version__,
            "machine": platform.machine()}


def test_identity_corpus(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    digests = corpus_digests(tmp_path)
    expected = recorded["digests"]
    differ = sorted(k for k in expected.keys() & digests.keys() if expected[k] != digests[k])
    missing = sorted(expected.keys() - digests.keys())
    extra = sorted(digests.keys() - expected.keys())
    if differ or missing or extra:
        lines = [f"{len(differ)} artifacts differ: {differ}",
                 f"{len(missing)} recorded artifacts not written: {missing}",
                 f"{len(extra)} artifacts not recorded: {extra}"]
        if recorded["environment"] != environment():
            lines.append(f"the digests were recorded on {recorded['environment']}, "
                         f"and this run is on {environment()}")
        raise AssertionError("\n".join(lines))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = corpus_digests(Path(tmp))
    DIGESTS.write_text(json.dumps({"environment": environment(), "digests": digests},
                                  indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
