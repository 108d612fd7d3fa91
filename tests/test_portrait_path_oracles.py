"""The portrait and map commands without per-point Python, against the code
it replaced.

distinct_points counts the points whose 3 x 3 block of cells holds no
other point in one numpy pass and computes the other points' cells with
numpy before its greedy loop, and iterate_map steps on plain floats.  The
per-point loop and the MapState loop they replaced are kept here as the
oracles: counts must be equal and orbits must be bit-identical.
read_state is checked directly: which files it accepts, and the row its
errors name, with and without a stale binary copy beside them.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnse_lab as dl
from dnse_lab import analysis
from dnse_lab import io as lab_io
from dnse_lab.analysis import _GRID_LIMIT, _KEY_LIMIT
from dnse_lab.errors import NoConvergence
from dnse_lab.mapdyn import MapState

from conftest import MAP_STARTS, map_orbit


# ------------------------------------------------------------ the oracles

def _distinct_oracle(portrait, tol):
    """The greedy first-fit count, one point at a time, each looking up
    the cells its tol-box reaches."""
    limit = _GRID_LIMIT * tol
    if not math.isfinite(limit):
        limit = 0.0
    reach = math.nextafter(tol, math.inf)
    reps = []
    loose = []
    buckets = {}
    for x, y in zip(portrait.points[:, 0].tolist(), portrait.points[:, 1].tolist()):
        gridded = abs(x) < limit and abs(y) < limit
        finite = gridded or (math.isfinite(x) and math.isfinite(y))
        if gridded:
            near = [r for cx in range(math.floor((x - reach) / tol), math.floor((x + reach) / tol) + 1)
                    for cy in range(math.floor((y - reach) / tol), math.floor((y + reach) / tol) + 1)
                    for r in buckets.get((cx, cy), ())]
            near += loose
        else:
            near = reps if finite or tol == math.inf else ()
        if any(abs(x - rx) <= tol and abs(y - ry) <= tol for rx, ry in near):
            continue
        reps.append((x, y))
        if gridded:
            buckets.setdefault((math.floor(x / tol), math.floor(y / tol)), []).append((x, y))
        elif finite:
            loose.append((x, y))
    return len(reps)


def _oracle_step(s, energy, c):
    z_next = s.Z - energy * s.psi - c * s.psi**3
    return MapState(s.psi + z_next, z_next)


def _iterate_map_oracle(initial, energy, c, steps, escape_bound):
    """iterate_map, one MapState per step."""
    s = MapState(float(initial.psi), float(initial.Z))
    recorded = [s]
    escape_index = None
    for k in range(1, steps + 1):
        try:
            s = _oracle_step(s, energy, c)
        except OverflowError:
            with np.errstate(over="ignore", invalid="ignore"):
                s = _oracle_step(MapState(np.float64(s.psi), np.float64(s.Z)), energy, c)
        escaped = not (math.isfinite(s.psi) and abs(s.psi) <= escape_bound
                       and abs(s.Z) <= escape_bound)
        recorded.append(s)
        if escaped:
            escape_index = k
            break
    return np.array(recorded, dtype=float), escape_index


# ---------------------------------------------------------- distinct points

# 1e-17, 1e-300 and 5e-324 put most points of a cloud or a ring past the
# clamp, in the edge cells, beside gridded ones
DISTINCT_TOLS = (1e-6, 0.1, math.inf, 1e-17, 1e-300, 5e-324)
# the clamp's edge, _GRID_LIMIT cells of side 2 tol from the origin
EDGE = 2 * _GRID_LIMIT


def _cloud_point(kind, kx, ky, ulps, tol):
    """A point of one kind: on a coarse grid of step tol (1 for tol = inf)
    nudged by a few ulps, past the clamp's edge, astride it (its x near
    +EDGE tol and its y near -EDGE tol), or not finite."""
    step = tol if math.isfinite(tol) else 1.0
    x, y = kx * step, ky * step
    if kind == "far":
        x = math.copysign(2 * EDGE * step, kx or 1) + kx * step
    elif kind == "edge":
        x, y = EDGE * step + x, y - EDGE * step
    elif kind == "nan":
        x = math.nan
    elif kind == "inf":
        x, y = math.copysign(math.inf, kx or 1), (math.inf if ky > 0 else y)
    for _ in range(abs(ulps)):
        y = math.nextafter(y, math.copysign(math.inf, ulps))
    return [x, y]


@given(st.lists(st.tuples(st.sampled_from(["grid", "grid", "grid", "far", "edge", "edge", "nan",
                                            "inf"]),
                          st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2)),
                min_size=1, max_size=60),
       st.sampled_from(DISTINCT_TOLS))
@settings(max_examples=400, deadline=None)
def test_distinct_clouds(cloud, tol):
    portrait = dl.PhasePortrait([_cloud_point(*point, tol) for point in cloud])
    assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol)


@pytest.mark.parametrize("tol", [tol for tol in DISTINCT_TOLS if math.isfinite(tol)])
def test_distinct_pairs_astride_a_cell(tol):
    # (x, -5e-324) and (x, tol) match for a normal tol, and lie in the
    # cells -1 and 0 of side 2 tol, but in the cells -1 and 1 of side tol
    for x in (0.0, 3 * tol, -EDGE * tol, EDGE * tol):
        portrait = dl.PhasePortrait([[x, -5e-324], [x, tol]])
        expected = _distinct_oracle(portrait, tol)
        assert expected == (2 if tol == 5e-324 else 1)
        assert dl.distinct_points(portrait, tol) == expected, x


# 1e-17 mixes gridded and clamped points of the rings; the tols that put
# every point past the clamp are left to the clouds, whose points are few
@pytest.mark.parametrize("tol", (1e-6, 0.1, math.inf, 1e-17, 1e-3, 1e300, 1e308))
def test_distinct_on_solved_rings_and_orbits(tol):
    for seed in range(3):
        state = dl.build_asymptotic_state(dl.random_pattern(3000, seed))
        try:
            solved, _, _ = dl.newton_solve(state, dl.ModelParams(12000.0))
        except NoConvergence as exc:
            solved = exc.state
        portrait = dl.phase_portrait(solved)
        assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol), seed
    # most orbit points lie past the clamp at 1e-17, where both counts
    # scan the edge cells' representatives for every point
    steps = 9000 if _GRID_LIMIT * tol >= 1.0 else 1000
    orbits = [dl.iterate_map(dl.MapState(0.3, 0.0), 1.0, 1.0, steps)]
    if tol == 1e-6:
        # from (0.1, 0) every point is lonely up to 5 10^4 steps; over
        # 10^5, 22 312 are lonely among 77 688 crowded ones
        orbits.append(dl.iterate_map(dl.MapState(0.1, 0.0), 1.0, 1.0, 100_000))
        cells = analysis._cells(dl.portrait_from_orbit(orbits[-1]).points, tol)
        assert np.count_nonzero(analysis._lonely(cells)) == 22_312
    for orbit in orbits:
        portrait = dl.portrait_from_orbit(orbit)
        assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol)


def test_distinct_past_a_block():
    # 3 blocks of cells, and clusters that straddle the block edges
    rng = np.random.default_rng(5)
    points = np.round(rng.uniform(-1, 1, (9000, 2)), 2)
    for tol in (1e-3, 0.02):
        portrait = dl.PhasePortrait(points)
        assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol)


@pytest.mark.parametrize("tol", (1e292, 1e300, 1e308, 1.5e308))
def test_distinct_near_float_max(tol):
    # p / (2 tol) overflows for points near the largest float, and 2 tol
    # itself overflows at 1e308 and 1.5e308, which puts every point in
    # cell 0
    big = np.finfo(np.float64).max
    rng = np.random.default_rng(11)
    points = np.vstack([big * rng.uniform(0.9, 1.0, (60, 2)) * rng.choice([-1.0, 1.0], (60, 2)),
                        rng.uniform(-1.0, 1.0, (20, 2)) * min(3 * tol, big),
                        [[big, 0.0], [-big, big], [1e308, 0.0]]])
    portrait = dl.PhasePortrait(rng.permutation(points))
    assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol)
    assert dl.distinct_points(dl.PhasePortrait([[1e308, 0.0]]), tol) == 1


def test_far_points_stay_in_their_cells(monkeypatch):
    # 300 points near 1e300 and then a 20 001-point map orbit: the far
    # points share the edge cells, which no orbit point reaches.  When
    # they went on an off-grid list that every later point scanned, the
    # count scanned 6 044 850 representatives here.
    far = 1e300 * np.random.default_rng(7).uniform(1.0, 2.0, (300, 2))
    orbit = dl.portrait_from_orbit(dl.iterate_map(dl.MapState(0.3, 0.0), 1.0, 1.0, 20_000))
    portrait = dl.PhasePortrait(np.vstack([far, orbit.points]))
    expected = _distinct_oracle(portrait, 1e-6)
    scanned = 0
    matches = analysis._matches

    def counting_matches(x, y, reps, tol):
        nonlocal scanned
        scanned += len(reps)
        return matches(x, y, reps, tol)

    monkeypatch.setattr(analysis, "_matches", counting_matches)
    assert dl.distinct_points(portrait, 1e-6) == expected
    assert scanned < 10 * portrait.size


def test_distinct_on_the_corpus(solved_corpus):
    # the solved, uncollapsed rings have most of their points lonely at
    # 1e-6, the chains and the collapsed rings none; 1e-17 and below put
    # points past the clamps
    for name, solved in solved_corpus.items():
        portrait = dl.phase_portrait(solved.state)
        for tol in [tol for tol in DISTINCT_TOLS if math.isfinite(tol)]:
            assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol), (name, tol)


def _crowded_count(points, tol):
    """How many points have another point in the 3 x 3 block of cells
    floor(p / (2 tol)) around their own, for points well inside the
    clamps."""
    cells = [(math.floor(x / (2 * tol)), math.floor(y / (2 * tol))) for x, y in points.tolist()]
    occupied = {}
    for cell in cells:
        occupied[cell] = occupied.get(cell, 0) + 1
    return sum(sum(occupied.get((cx + dx, cy + dy), 0) for dx in (-1, 0, 1) for dy in (-1, 0, 1)) > 1
               for cx, cy in cells)


def _near_calls(monkeypatch):
    """A list that grows by one at each later call of analysis._near."""
    calls = []
    near = analysis._near

    def counting_near(*args):
        calls.append(args)
        return near(*args)

    monkeypatch.setattr(analysis, "_near", counting_near)
    return calls


def test_lonely_points_skip_the_greedy_loop(monkeypatch):
    # the orbit of `map --E 1 --c 1 --psi0 0.1 --z0 0 --steps 2000`: the
    # greedy loop looks up only the points that share their 3 x 3 block
    # of cells, all others are counted in bulk
    portrait = dl.portrait_from_orbit(map_orbit(MAP_STARTS[1]))
    expected = _distinct_oracle(portrait, 1e-6)
    calls = _near_calls(monkeypatch)
    assert dl.distinct_points(portrait, 1e-6) == expected
    assert len(calls) == _crowded_count(portrait.points, 1e-6) < portrait.size // 100


@pytest.mark.parametrize("cells", (1, 2, 7))
def test_lonely_pass_in_small_blocks(monkeypatch, cells):
    # the pass keys the cells, and compares neighbouring sorted keys,
    # _CELLS points at a time; small blocks put many block edges inside
    # runs of equal or adjacent keys
    monkeypatch.setattr(analysis, "_CELLS", cells)
    orbit = dl.portrait_from_orbit(map_orbit(MAP_STARTS[1]))
    ring = dl.phase_portrait(dl.build_asymptotic_state(dl.random_pattern(208, 0)))
    calls = _near_calls(monkeypatch)
    for portrait in (orbit, ring):
        for tol in (1e-6, 0.1):
            del calls[:]
            assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol)
            assert len(calls) == _crowded_count(portrait.points, tol)


def _straddling(kx, ky, tol):
    """Points near the corner shared by the cells kx, kx + 1 (in x) and
    ky, ky + 1 (in y) of side 2 tol: a few on each side of both edges,
    tol / 4 apart, so that true neighbours lie in different cells."""
    return [[(2 * kx + 2) * tol + i * tol / 4, (2 * ky + 2) * tol + j * tol / 4]
            for i in (-3, -1, 0, 2) for j in (-2, 1)]


# cells at and past the key clamp, at and past _GRID_LIMIT, and on both
# sides of the cells whose cx * 2**51 leaves int64 (|cx| >= 2**12)
CLAMPED_CELLS = [_KEY_LIMIT - 1, _KEY_LIMIT, _KEY_LIMIT + 1, int(_GRID_LIMIT) - 1, int(_GRID_LIMIT),
                 2**12 - 1, 2**12, 2**13]


@pytest.mark.parametrize("tol", (1e-6, 2.0**-20))
@pytest.mark.parametrize("cell", CLAMPED_CELLS + [-cell - 1 for cell in CLAMPED_CELLS])
def test_distinct_neighbours_astride_the_clamps(cell, tol):
    # each corner's points, alone, in one column and in one row of corners
    for kx, ky in ((cell, cell), (cell, -1), (-1, cell), (cell, 0)):
        portrait = dl.PhasePortrait(_straddling(kx, ky, tol))
        assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol), (kx, ky)
    points = [p for ky in (-1, 5, cell) for p in _straddling(cell, ky, tol)]
    points += [[(2 * cell + 9) * tol, 0.0], [0.0, (2 * cell + 9) * tol]]  # lonely, or not
    portrait = dl.PhasePortrait(np.random.default_rng(abs(cell) % 97).permutation(points))
    assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol)


def test_distinct_across_every_neighbour_cell():
    # a point alone in its cell matches a point in each of its 8
    # neighbour cells in turn, with the other cells two away crowded
    tol = 1e-6
    crowd = [[x * tol + 0.1 * k * tol, y * tol] for x in (-5, 5) for y in (-5, 5) for k in range(4)]
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx or dy:
                pair = [[0.9 * tol, 0.9 * tol], [0.9 * tol + 0.5 * dx * tol, 0.9 * tol + 0.8 * dy * tol]]
                for points in (pair, pair + crowd, crowd + pair[::-1]):
                    portrait = dl.PhasePortrait(points)
                    assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol)
                assert dl.distinct_points(dl.PhasePortrait(pair), tol) == 1


def test_lonely_point_beside_a_crowded_cell():
    tol = 1e-6
    crowd = [[2.5 * tol + 0.01 * k * tol, 0.5 * tol] for k in range(5)]
    for x in (-4.5, -2.5, -0.5, 0.5, 1.5, 4.5, 6.5, 8.5):  # cells -3 ... 4, the crowd's is 1
        points = [[x * tol, 0.5 * tol]] + crowd
        for order in (points, points[::-1]):
            portrait = dl.PhasePortrait(order)
            assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol), x


@pytest.mark.parametrize("tol", (1e-6, 0.1, math.inf))
def test_lonely_non_finite_points(tol):
    nan, inf = math.nan, math.inf
    for points in ([[nan, 0.0]], [[inf, 0.0]], [[nan, nan], [0.0, 0.0]], [[0.0, 0.0], [-inf, 1.0]],
                   [[inf, inf], [1.0, 1.0], [inf, 0.0]], [[nan, 0.0], [0.0, 0.0], [3e-6, 0.0]],
                   [[1e308, 0.0], [inf, 0.0], [-inf, -inf], [0.5, nan]]):
        portrait = dl.PhasePortrait(points)
        assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol), points


@pytest.mark.parametrize("tol", (1e-6, 0.1, math.inf))
def test_non_finite_points_skip_the_greedy_loop(monkeypatch, tol):
    # NaN and inf points, some in the crowded cell 0 of the finite pairs:
    # at a finite tol they are counted in bulk, and _near sees only the
    # crowded finite points; at tol = inf every cell is 0 and it sees all
    nan, inf = math.nan, math.inf
    finite = [[k * 1e-8, 0.0] for k in range(6)] + [[0.5 + k * 1e-8, 0.5] for k in range(4)] + [[0.9, -0.9]]
    points = np.random.default_rng(5).permutation(
        finite + [[nan, 0.0], [0.0, nan], [inf, 0.0], [-inf, inf], [nan, nan], [0.0, -inf]] * 2)
    portrait = dl.PhasePortrait(points)
    expected = _distinct_oracle(portrait, tol)
    calls = _near_calls(monkeypatch)
    assert dl.distinct_points(portrait, tol) == expected
    if tol < math.inf:
        assert len(calls) == _crowded_count(np.array(finite), tol) == 10
    else:
        assert len(calls) == portrait.size


def test_distinct_cloud_past_the_int64_row(monkeypatch):
    # cells (cx, cy) with |cx| from 2**12 to 2**20, where cx * 2**51
    # leaves int64: pairs that match across cy = -1 and 0, and lone
    # points, some in the cells that keys wrapped in int64 would merge
    # (cx and cx + 2**13, or cx and cx + 2**32 without the key clamp)
    tol = 1e-6
    rng = np.random.default_rng(3)
    cx = rng.integers(2**12, 2**20, 300) * rng.choice([-1, 1], 300)
    x = (2 * cx + 1) * tol
    lone = rng.integers(2**12, 2**20, 300) * rng.choice([-1, 1], 300)
    lone = np.concatenate([lone, [5, 5 + 2**13, 2**32 + 5, -2**12, 2**12]])
    points = np.concatenate([np.column_stack([x, np.full(300, -0.3 * tol)]),
                             np.column_stack([x + 0.2 * tol, np.full(300, 0.4 * tol)]),
                             np.column_stack([(2 * lone + 1) * tol, np.full(lone.size, 7 * tol)])])
    portrait = dl.PhasePortrait(rng.permutation(points))
    expected = _distinct_oracle(portrait, tol)
    calls = _near_calls(monkeypatch)
    assert dl.distinct_points(portrait, tol) == expected
    # only the cell of 2**32 + 5 lies past the key clamp, alone there
    assert len(calls) == _crowded_count(portrait.points, tol) < 700


# ---------------------------------------------------------------- read_state

def _write_rows(tmp_path, name, rows, n=None):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(("index,psi\n" + "".join(row + "\n" for row in rows)).encode())
    sidecar = {"N": len(rows) if n is None else n, "boundary": "open", "c": 1.0, "E": 0.0}
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    return path


GOOD = [f"{k},{0.25 * k - 1:.17g}" for k in range(12)]

NOT_A_ROW = "row {} is not 'index,psi'"
GAP = "non-contiguous index at row {}"

# rows, and the message read_state gives after the file name
MALFORMED = {
    "extra column": (GOOD[:3] + ["3,0.5,7"] + GOOD[4:], NOT_A_ROW.format(3)),
    "missing column": (GOOD[:5] + ["5"] + GOOD[6:], NOT_A_ROW.format(5)),
    "missing then extra": (GOOD[:2] + ["2", "0.5,3,0.25"] + GOOD[4:], NOT_A_ROW.format(2)),
    "empty psi": (GOOD[:4] + ["4,"] + GOOD[5:], NOT_A_ROW.format(4)),
    "float index": (GOOD[:1] + ["1.0,0.5"] + GOOD[2:], NOT_A_ROW.format(1)),
    "word index": (GOOD[:7] + ["seven,0.5"] + GOOD[8:], NOT_A_ROW.format(7)),
    "blank row": (GOOD[:6] + [""] + GOOD[6:], NOT_A_ROW.format(6)),
    "whitespace row": (GOOD[:6] + ["  "] + GOOD[6:], NOT_A_ROW.format(6)),
    "nan": (GOOD[:3] + ["3,nan"] + GOOD[4:], "amplitudes must be finite"),
    "inf": (GOOD[:3] + ["3,-inf"] + GOOD[4:], "amplitudes must be finite"),
    "gapped index": (GOOD[:3] + GOOD[4:], GAP.format(3)),
    "gapped last row": (GOOD[:1] + ["2,0.5"], GAP.format(1)),
    "index past int64": (GOOD[:3] + ["99999999999999999999999,0.5"] + GOOD[4:], GAP.format(3)),
    "bad psi after a gap": (GOOD[:2] + ["5,0.5", "3,x"] + GOOD[4:], GAP.format(2)),
    "gap after a bad psi": (GOOD[:2] + ["2,x", "9,0.5"] + GOOD[4:], NOT_A_ROW.format(2)),
    "semicolon": (GOOD[:2] + ["2;0.5"] + GOOD[3:], NOT_A_ROW.format(2)),
}

ACCEPTED = {
    "canonical": GOOD,
    "underscored index and psi": GOOD[:10] + ["1_0,1_0", "11,0.5"],
    "padded fields": GOOD[:4] + [" 4 , 0.5 ", "+5,-0"] + GOOD[6:],
    "unicode digits": GOOD[:3] + ["٣,١.5"] + GOOD[4:],
    "exponents": GOOD[:2] + ["2,1e-300", "3,-2.5E+3"] + GOOD[4:],
    "one row": GOOD[:1],
}


def _with_copy_of_good(tmp_path, path):
    """Put beside path the binary copy that write_state makes of GOOD."""
    values = [float(row.split(",")[1]) for row in GOOD]
    good = lab_io.write_state(tmp_path / "good" / "s.csv",
                              dl.LatticeState(values, dl.Boundary.OPEN), 1.0, 0.0)
    path.with_suffix(".bin").write_bytes(good.with_suffix(".bin").read_bytes())


# each read_state case runs on the text alone, then with a stale copy of
# GOOD beside it, which must change nothing
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_read_state_names_the_bad_row(tmp_path, name):
    rows, message = MALFORMED[name]
    path = _write_rows(tmp_path, "s", rows)
    for _ in range(2):
        with pytest.raises(ValueError) as got:
            lab_io.read_state(path)
        assert str(got.value).startswith(f"{path}: {message}")
        _with_copy_of_good(tmp_path, path)


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_read_state_accepts_python_numbers(tmp_path, name):
    rows = ACCEPTED[name]
    path = _write_rows(tmp_path, "s", rows)
    expected = np.array([float(row.split(",")[1]) for row in rows])
    for _ in range(2):
        state, meta = lab_io.read_state(path)
        assert state.values.tobytes() == expected.tobytes()
        assert meta["N"] == len(rows)
        _with_copy_of_good(tmp_path, path)


def test_read_state_edges(tmp_path):
    empty = _write_rows(tmp_path, "empty", [], n=0)
    with pytest.raises(ValueError, match="at least one site"):
        lab_io.read_state(empty)
    short = _write_rows(tmp_path, "short", GOOD, n=13)
    with pytest.raises(ValueError, match="sidecar N=13 != 12 rows"):
        lab_io.read_state(short)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"index,psi\r\n0,0.5\r\n1,0.25\r\n\r\n\n")
    crlf.with_suffix(".json").write_text('{"N": 2, "boundary": "periodic"}')
    assert lab_io.read_state(crlf)[0].values.tolist() == [0.5, 0.25]


def test_read_state_round_trips(tmp_path):
    for n, seed in ((1, 0), (2, 1), (1000, 2), (4097, 3)):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        path = lab_io.write_state(tmp_path / f"s{n}.csv", dl.LatticeState(values), 24.0, -0.5)
        assert lab_io.read_state(path)[0].values.tobytes() == values.tobytes()


# ---------------------------------------------------------------- iterate_map

ORBITS = [
    # (psi0, Z0, E, c, steps, escape bound)
    (0.1, 0.0, 1.0, 1.0, 2000, 1e8),
    (0.5, 0.0, 1.0, 1.0, 2000, 1e8),
    (0.05, 0.02, 1.0, 0.0, 5000, math.inf),
    (1 / math.sqrt(3), 0.0, -1.0, 3.0, 500, 1e8),
    (5.0, 0.0, -2.0, 24.0, 1000, 1e6),  # escapes past the bound
    (3.0, 0.0, 1.0, 1.0, 100, math.inf),  # escapes when psi**3 overflows
    (1e200, 0.0, 1.0, 1.0, 10, 1e300),  # overflows at the first step
    (1e200, 0.0, 1.0, 1.0, 10, math.inf),
    (1e100, -1e100, 1.0, -1.0, 10, math.inf),  # Z - c psi**3 overflows to inf
    (0.1, 0.0, 1.0, 0.0, 100, math.inf),  # bounded under an infinite bound
    (0.0, 0.0, -1.0, 24.0, 1000, 1e8),
    (1e8, 0.0, 0.0, 0.0, 100, 1e8),  # exactly on the bound: bounded
    (-1e8, 0.0, 0.0, 0.0, 100, 1e8),
    (1e8, 1.0, 0.0, 0.0, 100, 1e8),  # a unit past it: escapes at step 1
    (1e200, 0.0, 1.0, 1.0, 10, sys.float_info.max),  # overflows under the largest bound
]


def _same_orbit(psi0, z0, energy, c, steps, bound):
    orbit = dl.iterate_map(dl.MapState(psi0, z0), energy, c, steps, escape_bound=bound)
    points, escape_index = _iterate_map_oracle(dl.MapState(psi0, z0), energy, c, steps, bound)
    assert orbit.points.tobytes() == points.tobytes()
    assert orbit.escape_index == escape_index
    assert orbit.escaped is (escape_index is not None)


@pytest.mark.parametrize("psi0,z0,energy,c,steps,bound", ORBITS)
def test_orbits_bit_identical(psi0, z0, energy, c, steps, bound):
    _same_orbit(psi0, z0, energy, c, steps, bound)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-4, 4), st.floats(-30, 30),
       st.sampled_from([1e3, 1e8, math.inf]))
@settings(max_examples=200, deadline=None)
def test_random_orbits_bit_identical(psi0, z0, energy, c, bound):
    _same_orbit(psi0, z0, energy, c, 300, bound)


def test_numpy_scalar_arguments_bit_identical():
    _same_orbit(np.float64(0.2), np.float64(0.0), np.float64(1.0), np.float64(1.0), 500, 1e8)
    with np.errstate(over="ignore", invalid="ignore"):  # float64 steps overflow quietly
        _same_orbit(np.float64(2.0), 0.0, np.float64(1.0), 1.0, 50, math.inf)
