import json
import os
import stat
import tracemalloc

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab import io as lab_io


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

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        state = dl.LatticeState(rng.standard_normal(9))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        lab_io.write_state(a, state, 3.0, -1.0)
        lab_io.write_state(b, state, 3.0, -1.0)
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()
        rows = "".join(f"{i},{lab_io.fmt(v)}\n" for i, v in enumerate(state.values))
        assert a.read_text() == "index,psi\n" + rows

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("psi,index\n0,1.0\n")
        with pytest.raises(ValueError):
            lab_io.read_state(path)

    def test_gapped_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,psi\n0,1.0\n2,0.5\n")
        path.with_suffix(".json").write_text('{"N": 2, "boundary": "periodic", "c": 1, "E": 0}')
        with pytest.raises(ValueError):
            lab_io.read_state(path)

    def test_sidecar_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,psi\n0,1.0\n")
        path.with_suffix(".json").write_text('{"N": 5, "boundary": "periodic", "c": 1, "E": 0}')
        with pytest.raises(ValueError):
            lab_io.read_state(path)


class TestOtherWriters:
    def test_portrait_file(self, tmp_path):
        portrait = dl.phase_portrait(dl.LatticeState([1.0, 0.0, 0.0]))
        path = lab_io.write_portrait(tmp_path / "p.csv", portrait)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "psi,dpsi"
        assert len(lines) == 4

    def test_orbit_file(self, tmp_path):
        orbit = dl.iterate_map(dl.MapState(0.1, 0.0), 1.0, 0.0, 5)
        path = lab_io.write_orbit(tmp_path / "o.csv", orbit)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,psi,Z"
        assert len(lines) == 7
        assert lines[1].startswith("0,")

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

    @pytest.mark.parametrize("old_sites, new_sites", [(50, 3), (3, 50)])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old_sites, new_sites):
        rng = np.random.default_rng(5)
        old, new = (dl.LatticeState(rng.standard_normal(n)) for n in (old_sites, new_sites))
        path = tmp_path / "s.csv"
        lab_io.write_state(path, old, 1.0, -1.0)
        lab_io.write_state(path, new, 2.0, None)
        fresh = lab_io.write_state(tmp_path / "fresh" / "s.csv", new, 2.0, None)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.with_suffix(".json").read_bytes() == fresh.with_suffix(".json").read_bytes()

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
        tracemalloc.start()
        try:
            lab_io.write_portrait(path, portrait)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
        assert len(path.read_text().splitlines()) == 20_001
