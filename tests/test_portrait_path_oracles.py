"""The portrait and map commands without per-point Python, against the code
it replaced.

distinct_points computes every point's cells with numpy before its greedy
loop, and iterate_map steps on plain floats.  The per-point loop and the
MapState loop they replaced are kept here as the oracles: counts must be
equal and orbits must be bit-identical.  read_state is checked directly:
which files it accepts, and the row its errors name.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnse_lab as dl
from dnse_lab import analysis
from dnse_lab import io as lab_io
from dnse_lab.analysis import _GRID_LIMIT
from dnse_lab.errors import NoConvergence
from dnse_lab.mapdyn import MapState


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


def _cloud_point(kind, kx, ky, ulps, tol):
    """A point of one kind: on a coarse grid of step tol (1 for tol = inf)
    nudged by a few ulps, far off the cell grid, or not finite."""
    step = tol if math.isfinite(tol) else 1.0
    x, y = kx * step, ky * step
    if kind == "far":
        x = math.copysign(_GRID_LIMIT * step, kx or 1) + kx * step
    elif kind == "nan":
        x = math.nan
    elif kind == "inf":
        x, y = math.copysign(math.inf, kx or 1), (math.inf if ky > 0 else y)
    for _ in range(abs(ulps)):
        y = math.nextafter(y, math.copysign(math.inf, ulps))
    return [x, y]


@given(st.lists(st.tuples(st.sampled_from(["grid", "grid", "grid", "far", "nan", "inf"]),
                          st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2)),
                min_size=1, max_size=60),
       st.sampled_from(DISTINCT_TOLS))
@settings(max_examples=400, deadline=None)
def test_distinct_clouds(cloud, tol):
    portrait = dl.PhasePortrait([_cloud_point(*point, tol) for point in cloud])
    assert dl.distinct_points(portrait, tol) == _distinct_oracle(portrait, tol)


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
    orbit = dl.iterate_map(dl.MapState(0.3, 0.0), 1.0, 1.0, steps)
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
def test_distinct_near_float_max(monkeypatch, tol):
    # p + tol overflows to inf for points within tol of the largest float;
    # its cell must not stretch the span of five or fewer cells a side out
    # to the clamp, where _reaches would walk 2**49 columns
    reaches = analysis._reaches

    def checked_reaches(buckets, columns, x, y, cx, cy, lx, ly, hx, hy, tol):
        assert hx - lx <= 4 and hy - ly <= 4, (x, y, lx, hx, ly, hy)
        return reaches(buckets, columns, x, y, cx, cy, lx, ly, hx, hy, tol)

    monkeypatch.setattr(analysis, "_reaches", checked_reaches)
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


# ---------------------------------------------------------------- read_state

def _write_rows(tmp_path, name, rows, n=None):
    path = tmp_path / f"{name}.csv"
    path.write_text("index,psi\n" + "".join(row + "\n" for row in rows))
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


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_read_state_names_the_bad_row(tmp_path, name):
    rows, message = MALFORMED[name]
    path = _write_rows(tmp_path, "s", rows)
    with pytest.raises(ValueError) as got:
        lab_io.read_state(path)
    assert str(got.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_read_state_accepts_python_numbers(tmp_path, name):
    rows = ACCEPTED[name]
    state, meta = lab_io.read_state(_write_rows(tmp_path, "s", rows))
    expected = np.array([float(row.split(",")[1]) for row in rows])
    assert state.values.tobytes() == expected.tobytes()
    assert meta["N"] == len(rows)


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
    (0.0, 0.0, -1.0, 24.0, 100, 1e8),
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
