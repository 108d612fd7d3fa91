import codecs
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mpf

import dnse_lab as dl
from dnse_lab import io as lab_io

from conftest import tie_values, traced_peak


class TestFormat:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200):
            assert float(lab_io.fmt(x)) == x

    def test_integers_stay_short(self):
        assert lab_io.fmt(2.0) == "2"


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        state = dl.LatticeState(rng.standard_normal(17))
        path = tmp_path / "sol.state.csv"
        lab_io.write_state(path, state, 24.0, -0.42)
        loaded, meta = lab_io.read_state(path)
        assert np.array_equal(loaded.values, state.values)
        assert loaded.boundary is dl.Boundary.PERIODIC
        assert meta == {"N": 17, "boundary": "periodic", "c": 24.0, "E": -0.42}

    def test_open_boundary_round_trip(self, tmp_path):
        state = dl.LatticeState([1.0, 0.5], dl.Boundary.OPEN)
        path = tmp_path / "s.csv"
        lab_io.write_state(path, state, 1.0, None)
        loaded, meta = lab_io.read_state(path)
        assert loaded.boundary is dl.Boundary.OPEN
        assert meta["E"] is None

    @pytest.mark.parametrize("c, energy", [(np.float32(1.0), 0.5), (1.0, mpf("0.5"))],
                             ids=["numpy c", "mpmath energy"])
    def test_sidecar_numbers_are_floats(self, tmp_path, c, energy):
        path = lab_io.write_state(tmp_path / "s.csv", dl.LatticeState([0.5, -0.25]), c, energy)
        meta = lab_io.read_state(path)[1]
        assert (meta["c"], meta["E"]) == (1.0, 0.5)
        assert type(meta["c"]) is type(meta["E"]) is float

    def test_bad_number_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            lab_io.write_state(tmp_path / "out" / "s.csv", dl.LatticeState([0.5]), "x", 0.5)
        assert list(tmp_path.iterdir()) == []

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path, sidecar = tmp_path / "s.csv", tmp_path / "s.json"
        for bad, csv, meta in ((path, b"0,0.\xff5", b""), (sidecar, b"0,0.5", b', "note": "\xff"')):
            path.write_bytes(b"index,psi\n" + csv + b"\n")
            sidecar.write_bytes(b'{"N": 1, "boundary": "open"' + meta + b"}")
            with pytest.raises(ValueError) as got:
                lab_io.read_state(path)
            assert str(got.value).startswith(f"{bad}: not UTF-8")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("psi,index\n0,1.0\n")
        with pytest.raises(ValueError):
            lab_io.read_state(path)


def _outcome(path):
    """What read_state makes of path: the value bytes, boundary and meta,
    or the error's type and message."""
    try:
        state, meta = lab_io.read_state(path)
    except (OSError, ValueError) as exc:
        return type(exc), str(exc)
    return state.values.tobytes(), state.boundary, meta


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


@pytest.fixture
def parses(monkeypatch):
    """The CSV paths whose text read_state has parsed, in order."""
    calls = []
    parse = lab_io._parsed_values

    def counted(csv_path, data):
        calls.append(csv_path)
        return parse(csv_path, data)

    monkeypatch.setattr(lab_io, "_parsed_values", counted)
    return calls


def _flip(path, at):
    data = bytearray(path.read_bytes())
    data[at] ^= 1
    path.write_bytes(bytes(data))


def _cut_last_row(csv, copy, other):
    csv.write_bytes(csv.read_bytes().rstrip(b"\n").rpartition(b"\n")[0] + b"\n")


def _change_last_digit(csv, copy, other):
    data = csv.read_bytes()
    csv.write_bytes(data[:-2] + (b"1" if data[-2:-1] == b"0" else b"0") + b"\n")


# ways the copy stops matching its CSV: (csv, copy, another state's copy)
STALE = {
    "csv byte changed": _change_last_digit,
    "row added": lambda csv, copy, other: csv.write_bytes(csv.read_bytes() + b"7,0.5\n"),
    "row cut": _cut_last_row,
    "copy missing": lambda csv, copy, other: copy.unlink(),
    "copy cut by a value": lambda csv, copy, other: copy.write_bytes(copy.read_bytes()[:-8]),
    "copy cut inside the digest": lambda csv, copy, other: copy.write_bytes(copy.read_bytes()[:20]),
    "copy of the digest alone": lambda csv, copy, other: copy.write_bytes(copy.read_bytes()[:32]),
    "copy one byte long": lambda csv, copy, other: copy.write_bytes(copy.read_bytes() + b"\0"),
    "copy one byte short": lambda csv, copy, other: copy.write_bytes(copy.read_bytes()[:-1]),
    "digest byte flipped": lambda csv, copy, other: _flip(copy, 31),
    "value byte flipped": lambda csv, copy, other: _flip(copy, 32 + 8 * 3),
    "copy of another state": lambda csv, copy, other: copy.write_bytes(other.read_bytes()),
    "copy is a directory": lambda csv, copy, other: (copy.unlink(), copy.mkdir()),
}


class TestBinaryCopy:
    """read_state takes the amplitudes from the .bin only where it matches
    the CSV, and then returns what parsing the text returns: the text
    parse is the oracle."""

    def _assert_same_as_text(self, path, parses, copied):
        """read_state(path) gives the same with its copy as without it,
        took the copy if copied and parsed the text otherwise, and wrote
        nothing."""
        before = _files(path.parent)
        parses.clear()
        got = _outcome(path)
        assert parses == ([] if copied else [path])
        assert _files(path.parent) == before
        copy = path.with_suffix(".bin")
        if copy.is_dir():
            copy.rmdir()
        copy.unlink(missing_ok=True)
        assert _outcome(path) == got
        return got

    def test_layout(self, tmp_path):
        values = np.random.default_rng(6).standard_normal(5)
        path = lab_io.write_state(tmp_path / "s.state.csv", dl.LatticeState(values), 4.0, -0.5)
        amplitudes = values.astype("<f8").tobytes()
        digest = hashlib.sha256(path.read_bytes() + amplitudes).digest()
        assert path.with_suffix(".bin").read_bytes() == digest + amplitudes

    def test_corpus(self, tmp_path, solved_corpus, parses):
        for name, solved in solved_corpus.items():
            path = lab_io.write_state(tmp_path / name / "solve.state.csv", solved.state,
                                      4.0, solved.energy)
            got = self._assert_same_as_text(path, parses, copied=True)
            assert got[0] == solved.state.values.tobytes(), name

    def test_edge_values(self, tmp_path, parses):
        edges = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                          1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308])
        values = np.concatenate([edges, tie_values(), -tie_values()])
        path = lab_io.write_state(tmp_path / "s.csv", dl.LatticeState(values), 1.0, None)
        got = self._assert_same_as_text(path, parses, copied=True)
        assert got[0] == values.tobytes()

    @pytest.mark.parametrize("name", STALE)
    def test_stale_copy_falls_back_to_the_text(self, tmp_path, parses, name):
        rng = np.random.default_rng(7)
        path, other = (lab_io.write_state(tmp_path / f"{stem}.csv",
                                          dl.LatticeState(rng.standard_normal(7)), 2.0, -1.0)
                       for stem in ("s", "other"))
        STALE[name](path, path.with_suffix(".bin"), other.with_suffix(".bin"))
        self._assert_same_as_text(path, parses, copied=False)

    def test_hashlib_waits_for_a_state(self):
        # commands that read and write no state do not load OpenSSL
        code = "import sys, dnse_lab.cli; print('hashlib' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dl.__file__))}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert run.stdout == "False\n"

    def test_csv_named_json_or_bin_is_refused(self, tmp_path):
        # the sidecar or the copy would overwrite the CSV
        for name in ("s.json", "s.bin"):
            with pytest.raises(ValueError, match="cannot be named .json or .bin"):
                lab_io.write_state(tmp_path / name, dl.LatticeState([0.5, -0.25]), 1.0, 0.0)
        assert list(tmp_path.iterdir()) == []


class TestOtherWriters:
    def test_json_sorted_and_stable(self, tmp_path):
        payload = {"b": 1, "a": [1.5, None]}
        path = lab_io.write_json(tmp_path / "r.json", payload)
        text = path.read_text()
        assert json.loads(text) == payload
        assert text.index('"a"') < text.index('"b"')

    def test_csv_cells(self, tmp_path):
        path = lab_io.write_csv(tmp_path / "t.csv", ["c", "E", "label"],
                                [[0.1, None, "x"], [2, np.float64(1.5), ""]])
        assert path.read_text() == "c,E,label\n0.10000000000000001,,x\n2,1.5,\n"

    def test_box_counts_bytes(self, tmp_path):
        # a "scale,occupied" table: float scales at 17 digits, int counts
        scales = [1.0 / 3.0, 0.1, 2.0**-20, 7.0, 1e-3 * np.pi]
        path = lab_io.write_csv(tmp_path / "b.csv", ["scale", "occupied"],
                                zip(scales, [500, 37, 1, 2, np.int64(499)]))
        assert path.read_bytes() == (b"scale,occupied\n0.33333333333333331,500\n"
                                     b"0.10000000000000001,37\n9.5367431640625e-07,1\n"
                                     b"7,2\n0.0031415926535897933,499\n")

    def test_writers_create_their_directory(self, tmp_path):
        state = dl.LatticeState([1.0, 0.5])
        path = lab_io.write_state(tmp_path / "a" / "b" / "s.csv", state, 1.0, 0.0)
        assert path.is_file() and path.with_suffix(".json").is_file()
        assert lab_io.write_json(tmp_path / "c" / "r.json", {}).is_file()
        pattern = lab_io.write_pattern(tmp_path / "d" / "p.txt", dl.parse_pattern("+0-"))
        assert pattern.read_text() == "+0-\n"
        orbit = dl.MapOrbit([[0.5, 0.0], [0.25, -0.25]])
        assert lab_io.write_orbit(tmp_path / "e" / "o.csv", orbit, tmp_path / "f" / "p.csv").is_file()
        assert (tmp_path / "f" / "p.csv").read_text() == "psi,dpsi\n0.5,-0.25\n"

    @pytest.mark.parametrize("old_sites, new_sites", [(50, 3), (3, 50)])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old_sites, new_sites):
        rng = np.random.default_rng(5)
        old, new = (dl.LatticeState(rng.standard_normal(n)) for n in (old_sites, new_sites))
        path = tmp_path / "s.csv"
        lab_io.write_state(path, old, 1.0, -1.0)
        lab_io.write_state(path, new, 2.0, None)
        fresh = lab_io.write_state(tmp_path / "fresh" / "s.csv", new, 2.0, None)
        for suffix in (".csv", ".json", ".bin"):
            assert path.with_suffix(suffix).read_bytes() == fresh.with_suffix(suffix).read_bytes()
        # the orbit writer's two files, each rewritten in place
        old, new = (dl.MapOrbit(rng.standard_normal((n + 1, 2))) for n in (old_sites, new_sites))
        lab_io.write_orbit(tmp_path / "o.csv", old, tmp_path / "p.csv")
        lab_io.write_orbit(tmp_path / "o.csv", new, tmp_path / "p.csv")
        lab_io.write_orbit(tmp_path / "fresh" / "o.csv", new, tmp_path / "fresh" / "p.csv")
        for name in ("o.csv", "p.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_rewrite_keeps_inode_and_mode(self, tmp_path):
        path = lab_io.write_json(tmp_path / "r.json", {"a": list(range(100))})
        path.chmod(0o640)
        before = path.stat()
        lab_io.write_json(path, {"b": 1})
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert path.read_text() == '{\n  "b": 1\n}\n'

    def test_new_file_mode_follows_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            path = lab_io.write_json(tmp_path / "r.json", {})
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_rewrite_writes_through_a_symlink(self, tmp_path):
        target = lab_io.write_csv(tmp_path / "target.csv", ["x"], [[k] for k in range(100)])
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        lab_io.write_csv(link, ["y"], [[1.5]])
        assert link.is_symlink()
        assert target.read_text() == "y\n1.5\n"

    def test_failed_rewrite_leaves_no_old_tail(self, tmp_path):
        path = lab_io.write_csv(tmp_path / "t.csv", ["x"], [[k] for k in range(1000)])

        def rows():
            yield [1]
            yield [2]
            raise RuntimeError("row generator failed")

        with pytest.raises(RuntimeError, match="row generator failed"):
            lab_io.write_csv(path, ["y"], rows())
        assert path.read_text() == "y\n1\n2\n"

    def test_directory_path_refused(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            lab_io.write_json(tmp_path, {})

    def test_portrait_memory_bounded(self, tmp_path):
        rng = np.random.default_rng(3)
        portrait = dl.phase_portrait(dl.LatticeState(rng.standard_normal(20_000)))
        path = tmp_path / "p.csv"
        _, peak = traced_peak(lambda: lab_io.write_portrait(path, portrait))
        assert peak < 1.5e6
        assert len(path.read_text().splitlines()) == 20_001
        # the orbit and its portrait from one pass, a block of both at a
        # time: the orbit file alone traced 0.89 MB, and a writer that
        # held both files' blocks 1.36-1.65 MB
        orbit = dl.iterate_map(dl.MapState(0.1, 0.0), 1.0, 1.0, 20_000)
        _, peak = traced_peak(lambda: lab_io.write_orbit(tmp_path / "o.csv", orbit, path))
        assert peak < 1.0e6
        assert len(path.read_text().splitlines()) == 20_001


# a state whose rows spell numbers in Arabic-Indic digits, which int() and
# float() read, with a sidecar holding a non-ASCII string
DIGITS_CSV = "index,psi\n0,0.5\n\u0661,-\u0663e-3\n\u0662,\u0661.5\n"
DIGITS_SIDECAR = '{"N": 3, "boundary": "open", "note": "\u03c8"}'


def _unicode_calls(digits, out):
    """read_state of the state at digits, and write_csv of a non-ASCII
    cell and write_state and write_portrait of a small state into the
    directory out.  Returns what read_state read, as ASCII JSON."""
    out = Path(out)
    lab_io.write_csv(out / "t.csv", ["name", "E"], [["\u03c8\u2080 \u0663 \u00e9", 1.5]])
    small = dl.LatticeState([0.5, -0.25, 1e-300])
    lab_io.write_state(out / "s.csv", small, 4.0, -0.5)
    lab_io.write_portrait(out / "p.csv", dl.phase_portrait(small))
    state, meta = lab_io.read_state(digits)
    return json.dumps([state.values.tobytes().hex(), meta])


def test_same_bytes_under_an_ascii_locale(tmp_path):
    # the calls here and in a child process whose locale encoding is ASCII
    digits = tmp_path / "digits.csv"
    digits.write_bytes(DIGITS_CSV.encode())
    digits.with_suffix(".json").write_bytes(DIGITS_SIDECAR.encode())
    here = _unicode_calls(digits, tmp_path / "here")
    code = ("import locale, sys; sys.path.insert(0, sys.argv[1]); import test_io; "
            "print(locale.getpreferredencoding(False)); print(test_io._unicode_calls(*sys.argv[2:]))")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.path.dirname(os.path.dirname(dl.__file__))}
    run = subprocess.run([sys.executable, "-c", code, os.path.dirname(__file__), str(digits),
                          str(tmp_path / "ascii")], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    encoding, there = run.stdout.splitlines()
    assert codecs.lookup(encoding).name == "ascii"
    assert there == here
    assert json.loads(here)[1]["note"] == "\u03c8"
    assert _files(tmp_path / "ascii") == _files(tmp_path / "here")
    assert len(_files(tmp_path / "here")) == 5
