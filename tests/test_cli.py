import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab import io as lab_io
from dnse_lab import cli
from dnse_lab.cli import (
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SINGULAR,
    main,
)


def run_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestPatternCommand:
    def test_counts_and_energy(self, tmp_path, capsys):
        code = main(["pattern", "+-0", "--c", "40", "--out", str(tmp_path)])
        assert code == EXIT_OK
        payload = run_json(capsys)
        assert payload["n"] == 2 and payload["m"] == 1 and payload["l"] == 1
        assert payload["E_infinity"] == -17.0
        assert (tmp_path / "pattern.json").exists()
        assert (tmp_path / "run.json").exists()

    def test_energy_table(self, tmp_path, capsys):
        code = main(["pattern", "+++", "--c", "30", "60", "--out", str(tmp_path)])
        assert code == EXIT_OK
        payload = run_json(capsys)
        assert payload["E_table"] == [[30.0, -10.0], [60.0, -20.0]]


class TestSolveCommand:
    def test_artifacts_written(self, tmp_path, capsys):
        code = main([
            "solve", "--pattern", "+0000-0000", "--c", "30",
            "--out", str(tmp_path), "--out-prefix", "run",
        ])
        assert code == EXIT_OK
        summary = run_json(capsys)
        assert summary["converged"]
        for name in ("run.state.csv", "run.state.json", "run.report.json",
                     "run.portrait.csv", "run.class.json", "run.json"):
            assert (tmp_path / name).exists(), name
        state, meta = lab_io.read_state(tmp_path / "run.state.csv")
        res = dl.residual(state, dl.ModelParams(30.0), meta["E"])
        assert np.max(np.abs(res)) <= 1e-12

    def test_seed_recorded(self, tmp_path, capsys):
        assert main(["solve", "--random", "12", "--seed", "77", "--c", "120",
                     "--out", str(tmp_path / "random")]) == EXIT_OK
        assert main(["solve", "--pattern", "+0000-0000", "--c", "30",
                     "--out", str(tmp_path / "pattern")]) == EXIT_OK
        for start, seed in [("random", 77), ("pattern", None)]:
            report = json.loads((tmp_path / start / "solve.report.json").read_text())
            assert report["seed"] == seed

    def test_report_records_bordered_phase(self, tmp_path, capsys):
        assert main(["solve", "--pattern", "+0000-0000", "--c", "30",
                     "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "solve.report.json").read_text())
        k = report["bordered_from"]
        assert 0 <= k < report["iterations"]
        assert report["residual_history"][k] <= 1e-3 < min(report["residual_history"][:k],
                                                            default=1.0)

    def test_strong_coupling_energy(self, tmp_path, capsys):
        pattern = "0" * 10 + "+" + "0" * 10
        code = main(["solve", "--pattern", pattern, "--c", "1e6", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = run_json(capsys)
        assert abs(summary["E"] - (2.0 - 1e6)) <= 1e-3

    def test_deterministic_reruns(self, tmp_path, capsys):
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["solve", "--random", "40", "--seed", "5", "--c", "80",
                         "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "a/solve.state.csv").read_bytes() == \
            (tmp_path / "b/solve.state.csv").read_bytes()

    def test_no_convergence_exit_and_partials(self, tmp_path, capsys):
        code = main([
            "solve", "--pattern", "+000000-000000+0000000-0000000", "--c", "5",
            "--max-iter", "2", "--out", str(tmp_path),
        ])
        assert code == EXIT_NO_CONVERGENCE
        report = json.loads((tmp_path / "solve.report.json").read_text())
        assert report["failed"] == "no_convergence"
        assert not report["converged"]
        assert (tmp_path / "solve.state.csv").exists()

    def test_singular_exit_and_partials(self, tmp_path, capsys):
        # at c = 0 the Jacobian at +0+0 is the singular ring Laplacian
        code = main(["solve", "--pattern", "+0+0", "--c", "0", "--out", str(tmp_path)])
        assert code == EXIT_SINGULAR
        report = json.loads((tmp_path / "solve.report.json").read_text())
        assert report["failed"] == "singular_jacobian"
        assert report["iterations"] == 0 and not report["converged"]
        assert (tmp_path / "solve.state.csv").exists()

    def test_random_start_on_open_chain(self, tmp_path, capsys):
        assert main(["solve", "--random", "40", "--seed", "5", "--bc", "open", "--c", "80",
                     "--out", str(tmp_path)]) == EXIT_OK
        meta = json.loads((tmp_path / "solve.state.json").read_text())
        assert meta["boundary"] == "open"
        # an open chain of N sites has N - 1 portrait points
        assert len((tmp_path / "solve.portrait.csv").read_text().splitlines()) == 1 + 39

    def test_state_file_round_trip(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["solve", "--pattern", "+0000-0000", "--c", "30",
                     "--out", str(first)]) == EXIT_OK
        second = tmp_path / "second"
        code = main(["solve", "--state-file", str(first / "solve.state.csv"),
                     "--c", "30", "--out", str(second)])
        assert code == EXIT_OK
        capsys.readouterr()
        a, _ = lab_io.read_state(first / "solve.state.csv")
        b, _ = lab_io.read_state(second / "solve.state.csv")
        assert np.max(np.abs(a.values - b.values)) <= 1e-12


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        pattern = "0" * 10 + "+" + "0" * 10
        code = main(["sweep", "--pattern", pattern, "--c-from", "20",
                     "--c-to", "24", "--c-step", "2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "c,E,converged,n,m,l,max_amp,iterations"
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.split(",")[2] == "1"
            assert int(line.split(",")[7]) >= 0

    def test_grid_has_no_rounding_drift(self, tmp_path, capsys):
        # 24 -> 30 at step 0.1: a running sum ends at 30.000000000000085
        code = main(["sweep", "--pattern", "+" + "0" * 9, "--c-from", "24",
                     "--c-to", "30", "--c-step", "0.1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 61
        assert float(rows[-1].split(",")[0]) == 30.0

    def test_downward_range(self, tmp_path, capsys):
        code = main(["sweep", "--pattern", "+00+0", "--c-from", "10",
                     "--c-to", "5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "6/6 points converged"
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [10.0, 9.0, 8.0, 7.0, 6.0, 5.0]

    @staticmethod
    def _swept(tmp_path, c_from, c_to, c_step):
        out = tmp_path / f"{c_from}_{c_to}_{c_step}"
        assert main(["sweep", "--pattern", "+", "--c-from", repr(c_from), "--c-to", repr(c_to),
                     "--c-step", repr(c_step), "--out", str(out)]) == EXIT_OK
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        return [float(r.split(",")[0]) for r in rows]

    @pytest.mark.parametrize("c_from, c_to, c_step", [
        (24.0, 30.0, 0.1), (40.0, 46.0, 0.1), (0.0, 1.0, 0.1), (1.0, 2.0, 1.0 / 3.0),
        (-3.0, 7.5, 0.7), (5.0, 5.0, 1.0), (1e6, 1e6 + 1.0, 0.25),
    ])
    def test_grid_in_either_direction(self, tmp_path, capsys, c_from, c_to, c_step):
        # upward: c_from + k*c_step for k up to the bound upward sweeps have
        # always used, bit for bit; downward: as many steps from c_to down
        slack = 1e-12 * max(1.0, abs(c_to))
        n_steps = math.floor((c_to + slack - c_from) / c_step)
        upward = [c_from + k * c_step for k in range(n_steps + 1)]
        assert self._swept(tmp_path, c_from, c_to, c_step) == upward
        downward = [c_to - k * c_step for k in range(n_steps + 1)]
        assert self._swept(tmp_path, c_to, c_from, c_step) == downward

    def test_no_distinct_tolerance(self, tmp_path, capsys):
        # sweep never classifies, so it takes no --tol-distinct
        argv = ["sweep", "--pattern", "+00", "--c-from", "10", "--c-to", "10"]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol-distinct", "nan", "--out", str(out)])
        assert exc.value.code == EXIT_INPUT
        assert not out.exists()
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert "tol_distinct" not in json.loads((out / "run.json").read_text())["options"]


class TestMapCommand:
    def test_orbit_files(self, tmp_path, capsys):
        code = main(["map", "--E", "1.0", "--c", "0.0", "--psi0", "0.1",
                     "--z0", "0.0", "--steps", "100", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = run_json(capsys)
        assert not summary["escaped"]
        assert summary["steps_recorded"] == 101
        for name in ("orbit.csv", "portrait.csv", "classification.json", "run.json"):
            assert (tmp_path / name).exists(), name

    def test_escape_reported(self, tmp_path, capsys):
        code = main(["map", "--E", "-2.0", "--c", "24.0", "--psi0", "5.0",
                     "--z0", "0.0", "--steps", "100", "--escape", "1e6",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = run_json(capsys)
        assert summary["escaped"]
        assert summary["escape_index"] is not None

    def test_overflow_reported_as_escape(self, tmp_path, capsys):
        code = main(["map", "--E", "1", "--c", "1", "--psi0", "1e200", "--z0", "0",
                     "--escape", "1e300", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = run_json(capsys)
        assert summary["escaped"]
        assert summary["escape_index"] == 1


class TestPortraitCommand:
    def test_reanalyze_stored_state(self, tmp_path, capsys):
        solve_dir = tmp_path / "solve"
        assert main(["solve", "--pattern", "+0000-0000", "--c", "30",
                     "--out", str(solve_dir)]) == EXIT_OK
        capsys.readouterr()
        code = main(["portrait", "--state-file", str(solve_dir / "solve.state.csv"),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        payload = run_json(capsys)
        assert payload["label"] in {
            "regular_periodic", "irregular_commensurate", "irregular_incommensurate"
        }
        assert (tmp_path / "classification.json").exists()


class TestBadDistinctTolerance:
    """A bad --tol-distinct is rejected before any work, leaving no file."""

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("command", [
        ["solve", "--pattern", "+0000-0000", "--c", "30"],
        ["map", "--E", "1", "--c", "1", "--psi0", "0.1", "--z0", "0", "--steps", "10"],
        ["portrait", "--state-file", "STATE"],
    ], ids=["solve", "map", "portrait"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command, tol):
        state_file = tmp_path / "in" / "solve.state.csv"
        if "STATE" in command:
            assert main(["solve", "--pattern", "+0000-0000", "--c", "30",
                         "--out", str(state_file.parent)]) == EXIT_OK
        out = tmp_path / "out"
        argv = [str(state_file) if a == "STATE" else a for a in command]
        assert main(argv + ["--tol-distinct", tol, "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()


def _no_solve(*args, **kwargs):
    pytest.fail("solved although the output cannot be written")


class TestOutNotADirectory:
    """An --out, or an --out-prefix directory, under an existing file
    exits 2 before any work."""

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "file-sub"])
    def test_exits_2_before_solving(self, tmp_path, capsys, monkeypatch, below):
        monkeypatch.setattr(cli, "newton_solve", _no_solve)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        argv = ["solve", "--pattern", "+0000-0000", "--c", "30",
                "--out", str(taken.joinpath(*below))]
        assert main(argv) == EXIT_INPUT
        assert "not a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "kept"

    def test_prefix_under_a_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "newton_solve", _no_solve)
        out = tmp_path / "out"
        out.mkdir()
        (out / "taken").write_text("kept")
        argv = ["solve", "--pattern", "+0000-0000", "--c", "30",
                "--out-prefix", "taken/x", "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert "not a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["taken"]


class TestOutPrefix:
    """--out-prefix names files inside --out: an absolute prefix, or one
    that climbs out, exits 2 before any work and writes nothing."""

    @pytest.mark.parametrize("prefix", ["ABSOLUTE", "../a_file/x", "sub/../../x", "..", ""],
                             ids=["absolute", "parent", "climbs-out", "dotdot", "empty"])
    def test_outside_out_rejected(self, tmp_path, capsys, monkeypatch, prefix):
        monkeypatch.setattr(cli, "newton_solve", _no_solve)
        (tmp_path / "a_file").write_text("kept")
        prefix = str(tmp_path / "abs" / "x") if prefix == "ABSOLUTE" else prefix
        argv = ["solve", "--pattern", "+0000-0000", "--c", "30",
                "--out-prefix", prefix, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INPUT
        assert "--out-prefix" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["a_file"]

    def test_subdirectory_prefix(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--pattern", "+0000-0000", "--c", "30",
                     "--out-prefix", "sub/x", "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in (out / "sub").iterdir()) == [
            "x.class.json", "x.portrait.csv", "x.report.json", "x.state.bin", "x.state.csv",
            "x.state.json"]
        assert sorted(p.name for p in out.iterdir()) == ["run.json", "sub"]


MAP = ["map", "--E", "1", "--c", "1", "--psi0", "0.1", "--z0", "0", "--steps", "10"]
# a non-positive or non-finite --tol for each command that solves
BAD_SOLVER_TOL = [
    pytest.param([command, "--pattern", "+0000-0000", *coupling, "--tol", tol],
                 id=f"{command}-tol-{tol}")
    for command, coupling in [("solve", ["--c", "30"]),
                              ("sweep", ["--c-from", "30", "--c-to", "31"])]
    for tol in ("inf", "nan", "0", "-1")]


def _with(argv, flag, value):
    """argv with the value of flag replaced, or the flag appended."""
    if flag in argv:
        at = argv.index(flag) + 1
        return argv[:at] + [value] + argv[at + 1:]
    return argv + [flag, value]


class TestBadInput:
    """Input rejected with exit 2 leaves no output directory behind."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["solve", "--pattern", "+0000-0000", "--c", "nan"], id="solve-c-nan"),
        pytest.param(["solve", "--pattern", "+x0", "--c", "30"], id="solve-bad-pattern"),
        pytest.param(["solve", "--state-file", "MISSING", "--c", "30"], id="solve-missing-file"),
        pytest.param(["solve", "--pattern", "+", "--random", "4", "--c", "10"],
                     id="solve-two-sources"),
        pytest.param(["solve", "--c", "10"], id="solve-no-source"),
        pytest.param(["solve", "--random", "0", "--c", "10"], id="solve-random-0"),
        pytest.param(["sweep", "--pattern", "+x0", "--c-from", "1", "--c-to", "2"],
                     id="sweep-bad-pattern"),
        pytest.param(["sweep", "--pattern", "+", "--c-from", "1", "--c-to", "2",
                      "--c-step", "0"], id="sweep-step-0"),
        pytest.param(["sweep", "--pattern", "+", "--c-from", "1", "--c-to", "inf"],
                     id="sweep-to-inf"),
        pytest.param(["sweep", "--pattern", "+", "--c-from", "nan", "--c-to", "2"],
                     id="sweep-from-nan"),
        pytest.param(["sweep", "--pattern", "+", "--c-from=-1e308", "--c-to=1e308",
                      "--c-step", "1"], id="sweep-steps-overflow"),
        pytest.param(_with(MAP, "--steps", "0"), id="map-steps-0"),
        pytest.param(_with(MAP, "--E", "nan"), id="map-E-nan"),
        pytest.param(_with(MAP, "--E", "inf"), id="map-E-inf"),
        pytest.param(_with(MAP, "--c", "nan"), id="map-c-nan"),
        pytest.param(_with(MAP, "--psi0", "nan"), id="map-psi0-nan"),
        pytest.param(_with(MAP, "--z0", "inf"), id="map-z0-inf"),
        pytest.param(_with(MAP, "--escape", "nan"), id="map-escape-nan"),
        pytest.param(_with(MAP, "--escape", "0"), id="map-escape-0"),
        pytest.param(_with(MAP, "--escape", "-1"), id="map-escape-negative"),
        pytest.param(_with(MAP, "--escape", "inf"), id="map-escape-inf"),
        pytest.param(["portrait", "--state-file", "MISSING"], id="portrait-missing-file"),
        pytest.param(["pattern", "+-0", "--c", "nan"], id="pattern-c-nan"),
        pytest.param(["pattern", "+-0", "--c", "30", "inf"], id="pattern-c-inf"),
        pytest.param(["pattern", "+x-"], id="pattern-bad-char"),
        pytest.param(["pattern", "000"], id="pattern-all-zero"),
        pytest.param(["random", "0"], id="random-0"),
        *BAD_SOLVER_TOL,
    ])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = [str(tmp_path / "nope.csv") if a == "MISSING" else a for a in argv]
        assert main(argv + ["--out", str(out)]) == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("sidecar, key", [
        ('{"N": 2}', "'boundary'"),
        ("[1, 2]", "JSON object"),
        ('{"boundary": "periodic"}', "'N'"),
        ('{"N": "2", "boundary": "periodic"}', "'N'"),
        ('{"N": 2, "boundary": ["open"]}', "'boundary'"),
        ("{N:2", "not valid JSON"),
    ], ids=["no-boundary", "not-an-object", "no-N", "N-a-string", "boundary-a-list",
            "not-json"])
    @pytest.mark.parametrize("command", [["portrait"], ["solve", "--c", "30"]],
                             ids=["portrait", "solve"])
    def test_malformed_sidecar(self, tmp_path, capsys, command, sidecar, key):
        state_file = tmp_path / "in.state.csv"
        state_file.write_text("index,psi\n0,1.0\n1,0.5\n")
        state_file.with_suffix(".json").write_text(sidecar)
        out = tmp_path / "out"
        argv = command + ["--state-file", str(state_file), "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(state_file.with_suffix(".json")) in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("row, key", [
        ("1,x", "'1,x'"),
        ("1,2,3", "'1,2,3'"),
        ("1.5,2", "'1.5,2'"),
        ("1", "'1'"),
        ("1,inf", "finite"),
    ], ids=["psi-not-a-number", "three-columns", "index-not-an-int", "one-column",
            "psi-infinite"])
    @pytest.mark.parametrize("command", [["portrait"], ["solve", "--c", "30"]],
                             ids=["portrait", "solve"])
    def test_malformed_row(self, tmp_path, capsys, command, row, key):
        state_file = tmp_path / "in.state.csv"
        state_file.write_text(f"index,psi\n0,1.0\n{row}\n")
        state_file.with_suffix(".json").write_text('{"N": 2, "boundary": "periodic"}')
        out = tmp_path / "out"
        argv = command + ["--state-file", str(state_file), "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(state_file) in err and key in err
        assert not out.exists()


class TestRandomCommand:
    def test_deterministic_pattern(self, tmp_path, capsys):
        assert main(["random", "30", "--seed", "9", "--out", str(tmp_path)]) == EXIT_OK
        text = capsys.readouterr().out.strip()
        assert text == dl.random_pattern(30, 9).text()
        assert (tmp_path / "pattern.txt").read_text().strip() == text


class TestEnvironment:
    def test_outdir_env_var(self, tmp_path, monkeypatch, capsys):
        assert main(["random", "10", "--out", str(tmp_path / "first")]) == EXIT_OK
        monkeypatch.setenv("DNSE_LAB_OUTDIR", str(tmp_path / "envout"))
        # read when main parses, after the parser was built
        assert main(["random", "10"]) == EXIT_OK
        assert (tmp_path / "envout" / "pattern.txt").exists()

    def test_console_script_help(self):
        # the child imports the package from this checkout, as pytest does
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dnse_lab.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout


class TestRunJson:
    def test_options_echoed(self, tmp_path, capsys):
        assert main(["pattern", "+0-", "--c", "12", "--out", str(tmp_path)]) == EXIT_OK
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["command"] == "pattern"
        assert run["options"]["text"] == "+0-"
        assert run["options"]["c"] == [12.0]
