import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnse_lab as dl
from dnse_lab import analysis
from dnse_lab import io as lab_io
from dnse_lab.errors import (
    NotLocalized,
    WindowTouchesPeak,
    ZeroAmplitudeInWindow,
)

from conftest import CORPUS, MAP_STARTS, RINGS, map_orbit, traced_peak


class TestPhasePortrait:
    def test_uniform_ring_single_point(self):
        state = dl.LatticeState(np.full(4, 0.5))
        portrait = dl.phase_portrait(state)
        assert portrait.size == 4
        assert np.allclose(portrait.points, [[0.5, 0.0]] * 4)

    def test_periodic_wraps(self):
        state = dl.LatticeState([1.0, 0.0, 0.0, 0.0, 0.0])
        portrait = dl.phase_portrait(state)
        assert portrait.size == 5
        assert np.allclose(portrait.points[0], [1.0, -1.0])
        assert np.allclose(portrait.points[-1], [0.0, 1.0])  # wrap pair

    def test_open_drops_wrap(self):
        state = dl.LatticeState([1.0, 0.0, 0.0], dl.Boundary.OPEN)
        assert dl.phase_portrait(state).size == 2

    def test_rotation_leaves_point_set(self):
        rng = np.random.default_rng(12)
        state = dl.LatticeState(rng.uniform(-1, 1, 15))
        a = dl.phase_portrait(state).points
        b = dl.phase_portrait(state.rotated(6)).points
        order = lambda p: p[np.lexsort(p.T)]
        assert np.allclose(order(a), order(b))

    def test_orbit_portrait_pairs(self):
        orbit = dl.iterate_map(dl.MapState(0.1, 0.0), 1.0, 0.0, 20)
        portrait = dl.portrait_from_orbit(orbit)
        assert portrait.size == 20
        assert np.allclose(portrait.points[:, 0], orbit.psi[:-1])
        assert np.allclose(portrait.points[:, 1], orbit.Z[1:])

    def test_one_site_rejected(self):
        with pytest.raises(ValueError):
            dl.phase_portrait(dl.LatticeState([0.5]))

    def test_one_point_orbit_rejected(self):
        with pytest.raises(ValueError):
            dl.portrait_from_orbit(dl.MapOrbit([[0.1, 0.0]]))

    @pytest.mark.parametrize("psi_sequence", [np.zeros((2, 2)), [[0.1, 0.2, 0.3]], 0.5],
                             ids=["2x2", "1x3", "scalar"])
    def test_psi_sequence_not_1d_rejected(self, psi_sequence):
        with pytest.raises(ValueError, match="psi_sequence"):
            dl.PhasePortrait(np.zeros((4, 2)), psi_sequence=psi_sequence)


class TestDistinctPoints:
    def test_identical_collapse(self):
        portrait = dl.PhasePortrait(np.zeros((7, 2)))
        assert dl.distinct_points(portrait, 1e-9) == 1

    def test_separated_survive(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert dl.distinct_points(dl.PhasePortrait(pts), 0.5) == 3

    def test_bad_tol(self):
        for tol in (0.0, -1e-6, np.nan):
            with pytest.raises(ValueError):
                dl.distinct_points(dl.PhasePortrait(np.zeros((2, 2))), tol)
            with pytest.raises(ValueError):
                dl.classify_portrait(dl.PhasePortrait(np.zeros((2, 2))), tol)

    @given(
        st.lists(
            st.tuples(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)),
            min_size=1,
            max_size=30,
        ),
        st.floats(1e-6, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_count_bounds(self, pts, tol):
        portrait = dl.PhasePortrait(np.array(pts))
        count = dl.distinct_points(portrait, tol)
        assert 1 <= count <= len(pts)
        # a tolerance covering the whole cloud collapses it to one cluster
        span = float(np.max(np.abs(portrait.points - portrait.points[0])))
        assert dl.distinct_points(portrait, span + tol) == 1


class TestClassification:
    def test_uniform_ring_period_one(self):
        cls = dl.classify_portrait(dl.phase_portrait(dl.LatticeState(np.full(6, 0.4))))
        assert cls.label is dl.PortraitLabel.REGULAR_PERIODIC
        assert cls.period == 1

    def test_irregular_chain_not_regular(self, chain130_solution):
        _, state, _, _ = chain130_solution
        cls = dl.classify_portrait(dl.phase_portrait(state))
        assert cls.label is not dl.PortraitLabel.REGULAR_PERIODIC
        assert cls.distinct_points > 26

    def test_smeared_cloud_incommensurate(self, monkeypatch):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (300, 2))
        # dense clouds need a tighter band cutoff than sparse solution sets
        monkeypatch.setattr(analysis, "BAND_FRAC", 0.01)
        cls = dl.classify_portrait(dl.PhasePortrait(pts))
        assert cls.label is dl.PortraitLabel.IRREGULAR_INCOMMENSURATE

    def test_thin_curve_commensurate(self):
        theta = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        # non-repeating amplitude track, points on a thin circle
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        portrait = dl.PhasePortrait(pts, psi_sequence=np.cos(theta) + theta * 1e-3)
        cls = dl.classify_portrait(portrait)
        assert cls.label is dl.PortraitLabel.IRREGULAR_COMMENSURATE

    def test_non_finite_point_has_no_thickness(self):
        theta = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        pts[7] = [-np.inf, np.inf]
        portrait = dl.PhasePortrait(pts, psi_sequence=pts[:, 0] + theta * 1e-3)
        cls = dl.classify_portrait(portrait)
        assert not analysis._crowded(analysis._distinct_rows(pts))
        assert analysis._curve_thickness(pts) is None
        assert cls.label is dl.PortraitLabel.IRREGULAR_INCOMMENSURATE

    def test_subnormal_extent_has_zero_thickness(self):
        # four distinct points whose squared extent underflows to 0
        pts = np.array([[0.0, 0.0], [5e-324, 0.0], [1e-323, 0.0], [1.5e-323, 0.0]])
        assert np.unique(pts, axis=0).shape[0] == 4
        assert analysis._curve_thickness(pts) == 0.0

    def test_as_dict_payload(self):
        cls = dl.classify_portrait(dl.phase_portrait(dl.LatticeState(np.full(4, 0.5))))
        payload = cls.as_dict()
        assert payload == {
            "label": "regular_periodic",
            "period": 1,
            "distinct_points": 1,
            "tol": 1e-6,
        }

    def test_records_its_tolerance_and_thickness(self):
        theta = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        portrait = dl.PhasePortrait(pts, psi_sequence=np.cos(theta) + theta * 1e-3)
        cls = dl.classify_portrait(portrait, 0.5)
        assert cls.tol == 0.5
        assert cls.as_dict()["tol"] == 0.5
        assert cls.as_dict()["distinct_points"] == dl.distinct_points(portrait, 0.5)
        # the label is the thickness's, whichever path decides it
        assert cls.label is dl.PortraitLabel.IRREGULAR_COMMENSURATE
        assert analysis._curve_thickness(pts) <= analysis.BAND_FRAC

    @pytest.mark.parametrize("tol", [np.float32(1e-6), np.float64(1e-6), 1e-6],
                             ids=["float32", "float64", "float"])
    def test_numpy_tolerance_is_written(self, tmp_path, tol):
        # the recorded tolerance is a Python float, so json can write it
        cls = dl.classify_portrait(dl.phase_portrait(dl.LatticeState(np.full(4, 0.5))), tol)
        path = lab_io.write_json(tmp_path / "class.json", cls.as_dict())
        assert json.loads(path.read_text())["tol"] == float(tol)
        assert type(cls.tol) is float


class TestTailDecay:
    def test_reference_value(self):
        assert abs(dl.tail_decay_predicted(-0.4) - 0.5367) <= 1e-4
        assert abs(dl.tail_decay_continuum(-0.4) - 0.5313) <= 1e-4

    def test_deep_binding(self):
        assert abs(dl.tail_decay_predicted(-2.0) - (2.0 - np.sqrt(3.0))) <= 1e-12

    def test_shallow_limit_agrees_with_continuum(self):
        for energy in (-1e-4, -1e-6):
            mu_d = dl.tail_decay_predicted(energy)
            mu_c = dl.tail_decay_continuum(energy)
            assert abs(mu_d - mu_c) <= 10.0 * abs(energy)

    def test_not_localized(self):
        with pytest.raises(NotLocalized):
            dl.tail_decay_predicted(0.0)
        with pytest.raises(NotLocalized):
            dl.tail_decay_continuum(0.5)

    @pytest.mark.parametrize("energy", [np.nan, -np.inf])
    def test_non_finite_energy(self, energy):
        for tail_decay in (dl.tail_decay_predicted, dl.tail_decay_continuum):
            with pytest.raises(ValueError):
                tail_decay(energy)

    @given(st.floats(-50.0, -1e-6))
    @settings(max_examples=200)
    def test_characteristic_identity(self, energy):
        # mu solves mu + 1/mu = 2 - E, equivalently mu * (2 - E - mu) = 1
        mu = dl.tail_decay_predicted(energy)
        assert 0.0 < mu < 1.0
        assert abs(mu * (2.0 - energy - mu) - 1.0) <= 1e-9


class TestFitTail:
    def test_recovers_exact_geometric_decay(self):
        mu = 0.37
        values = mu ** np.arange(12)
        state = dl.LatticeState(values, dl.Boundary.OPEN)
        fit = dl.fit_tail(state, 0, (1, 8))
        assert abs(fit.decay_factor_measured - mu) <= 1e-12
        assert fit.decay_factor_predicted is None

    def test_prediction_attached(self):
        mu = dl.tail_decay_predicted(-0.4)
        values = mu ** np.arange(12)
        state = dl.LatticeState(values, dl.Boundary.OPEN)
        fit = dl.fit_tail(state, 0, (2, 9), energy=-0.4)
        assert abs(fit.decay_factor_measured - fit.decay_factor_predicted) <= 1e-10
        assert abs(fit.continuum_predicted - dl.tail_decay_continuum(-0.4)) <= 1e-12

    def test_solution_tail_matches_prediction(self, chain100_solution):
        _, state, energy, _ = chain100_solution
        fit = dl.fit_tail(state, 0, (1, 4), energy=energy)
        assert abs(fit.decay_factor_measured - fit.decay_factor_predicted) <= 0.1 * fit.decay_factor_predicted

    def test_window_touching_next_peak_rejected(self, chain100_solution):
        _, state, _, _ = chain100_solution
        with pytest.raises(WindowTouchesPeak):
            dl.fit_tail(state, 0, (1, 10))

    def test_zero_amplitude_rejected(self):
        state = dl.LatticeState([1.0, 0.5, 0.0, 0.0], dl.Boundary.OPEN)
        with pytest.raises(ZeroAmplitudeInWindow):
            dl.fit_tail(state, 0, (1, 2))

    def test_window_past_edge_rejected(self):
        state = dl.LatticeState([1.0, 0.5, 0.2], dl.Boundary.OPEN)
        with pytest.raises(ValueError):
            dl.fit_tail(state, 0, (1, 5))

    def test_bad_window_rejected(self):
        state = dl.LatticeState([1.0, 0.5, 0.2], dl.Boundary.OPEN)
        # (1, 1) is one site, through which no slope is determined
        for window in [(0, 2), (1, 1)]:
            with pytest.raises(ValueError):
                dl.fit_tail(state, 0, window)

    def test_peak_index_outside_lattice_rejected(self):
        values = 0.5 ** np.arange(7)
        for boundary in (dl.Boundary.OPEN, dl.Boundary.PERIODIC):
            state = dl.LatticeState(values, boundary)
            for index in (-1, -3, 7, 12):
                with pytest.raises(ValueError, match="peak_index"):
                    dl.fit_tail(state, index, (1, 2))
        # the last site of a ring is a valid peak; its window wraps
        ring = dl.LatticeState(0.5 ** ((np.arange(7) + 1) % 7), dl.Boundary.PERIODIC)
        assert abs(dl.fit_tail(ring, 6, (1, 3)).decay_factor_measured - 0.5) <= 1e-12

    def test_non_integer_sites_rejected(self):
        state = dl.LatticeState(0.5 ** np.arange(7), dl.Boundary.OPEN)
        for index, window in [(2.5, (1, 2)), (np.float64(0.0), (1, 2)), (0, (1.0, 3.0)), (0, (1, 2.5)),
                              (True, (1, 2)), (0, (True, 3))]:
            with pytest.raises(ValueError, match="integers"):
                dl.fit_tail(state, index, window)
        # numpy integers are integers
        fit = dl.fit_tail(state, np.int64(0), (np.int32(1), 3))
        assert fit.window == (1, 3)
        assert abs(fit.decay_factor_measured - 0.5) <= 1e-12

    def test_cubic_flag(self):
        state = dl.LatticeState([1.0, 0.5, 0.25, 0.0001, 0.00005, 0.000025], dl.Boundary.OPEN)
        near = dl.fit_tail(state, 0, (1, 2))
        far = dl.fit_tail(state, 0, (3, 5))
        assert near.cubic_term_significant
        assert not far.cubic_term_significant


class TestZoom:
    def test_nested_levels(self):
        rng = np.random.default_rng(5)
        portrait = dl.PhasePortrait(rng.uniform(-1, 1, (500, 2)))
        levels = dl.zoom_report(portrait, (-1, 1, -1, 1), 4)
        assert len(levels) == 4
        sizes = [lv.points.shape[0] for lv in levels]
        assert sizes[0] == 500
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
        for lv in levels:
            x0, x1, y0, y1 = lv.region
            assert np.all((lv.points[:, 0] >= x0) & (lv.points[:, 0] <= x1))

    def test_empty_region_flagged_not_raised(self):
        portrait = dl.PhasePortrait(np.array([[5.0, 5.0]]))
        levels = dl.zoom_report(portrait, (0.0, 1.0, 0.0, 1.0), 2)
        assert all(lv.empty for lv in levels)

    def test_bad_arguments(self):
        portrait = dl.PhasePortrait(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dl.zoom_report(portrait, (0, 1, 0, 1), 0)
        with pytest.raises(ValueError):
            dl.zoom_report(portrait, (1, 0, 0, 1), 2)

    def test_levels_past_the_float_exponent(self):
        # 2.0**level overflows from level 1024; the boxes keep halving
        # through the subnormals to the center, and below level 1024 they
        # are those of hx / 2.0**level
        portrait = dl.PhasePortrait(np.array([[0.0, 0.0], [0.5, 0.5]]))
        levels = dl.zoom_report(portrait, (-1.0, 1.0, -1.0, 1.0), 1100)
        assert len(levels) == 1100
        assert [lv.region for lv in levels[:1024]] == [
            (-1 / 2.0**k, 1 / 2.0**k) * 2 for k in range(1024)]
        assert levels[1074].region == (-5e-324, 5e-324, -5e-324, 5e-324)
        assert levels[-1].region == (0.0, 0.0, 0.0, 0.0)
        assert all(lv.points.tolist() == [[0.0, 0.0]] for lv in levels[2:])

    @pytest.mark.parametrize("region", [(0, np.inf, 0, 1), (-np.inf, 1, 0, 1),
                                        (0, 1, np.nan, 1), (0, 1, 0, np.nan)])
    def test_non_finite_region(self, region):
        portrait = dl.PhasePortrait(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dl.zoom_report(portrait, region, 2)


# --- differential test: the quadratic kernels the near-linear ones replaced

def _oracle_representatives(points, tol):
    """Greedy first-fit clustering, every point against every cluster.

    Given `points.tolist()` it runs on Python floats, which compare and
    subtract exactly as float64 does, only faster."""
    reps = []
    for p in points:
        placed = False
        for r in reps:
            if abs(p[0] - r[0]) <= tol and abs(p[1] - r[1]) <= tol:
                placed = True
                break
        if not placed:
            reps.append(p)
    return np.array(reps)


def _oracle_period(psi, cyclic, tol):
    """Every shift tested in full."""
    n = psi.size
    if cyclic:
        for p in range(1, n):
            if np.max(np.abs(psi - np.roll(psi, p))) <= tol:
                return p
        return None
    for p in range(1, n // 2 + 1):
        if np.max(np.abs(psi[p:] - psi[:-p])) <= tol:
            return p
    return None


def _oracle_thickness(points, neighbors):
    """A full ranking of the distances by (squared distance, index) for
    every point, in the portrait's own frame."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] < 4:
        return 0.0
    # the frame: the lower corner at 0, and the diameter, scaled by a
    # power of two, in [0.5, 1); quartered first where the span overflows
    lo = pts.min(axis=0)
    with np.errstate(over="ignore"):
        rel = pts - lo
        diameter = float(np.hypot(*rel.max(axis=0)))
    if diameter == np.inf:
        rel = pts * 0.25 - lo * 0.25
        diameter = float(np.hypot(*rel.max(axis=0)))
    scale = -math.frexp(diameter)[1]
    pts, diameter = np.ldexp(rel, scale), math.ldexp(diameter, scale)
    spreads = []
    for near in _brute_neighbors(pts, min(neighbors, pts.shape[0] - 1) + 1):
        local = near - near.mean(axis=0)
        cov = local.T @ local / local.shape[0]
        eigvals = np.linalg.eigvalsh(cov)
        spreads.append(np.sqrt(max(eigvals[0], 0.0)))
    return float(np.median(spreads)) / diameter


def _thickness_agrees(new, old):
    return abs(new - old) <= max(1e-9 * abs(old), 1e-15)


DISTINCT_TOLS = (1e-9, 1e-6, 1e-3, 1e-1)


@pytest.fixture(scope="module")
def portrait_corpus(solved_corpus):
    """(name, portrait): the corpus members solved (the last iterate
    where Newton gives up), the rings also at their start, and the map
    orbits."""
    corpus = [(m.name, dl.phase_portrait(solved_corpus[m.name].state)) for m in CORPUS]
    corpus += [(f"{m.name}/asymptotic", dl.phase_portrait(m.start())) for m in RINGS]
    corpus += [(f"map/{k}", dl.portrait_from_orbit(map_orbit(psi0)))
               for k, psi0 in enumerate(MAP_STARTS)]
    return corpus


def _brute_neighbors(pts, count):
    """Rows of the `count` nearest points by (squared distance, index)."""
    rows = []
    for p in pts:
        d = pts - p
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        rows.append(pts[np.lexsort((np.arange(pts.shape[0]), d2))[:count]])
    return np.array(rows)


def _row_multiset(rows):
    return sorted(map(tuple, rows.reshape(rows.shape[0], -1).tolist()))


class TestAgainstOracle:
    def test_counts(self, portrait_corpus):
        for name, portrait in portrait_corpus:
            for tol in DISTINCT_TOLS:
                expected = len(_oracle_representatives(portrait.points.tolist(), tol))
                assert dl.distinct_points(portrait, tol) == expected, (name, tol)

    def test_periods(self, portrait_corpus):
        for name, portrait in portrait_corpus:
            psi = portrait.psi_sequence
            for tol in (1e-6, 1e-1):
                for cyclic in (True, False):
                    assert analysis._detect_period(psi, cyclic, tol) == \
                        _oracle_period(psi, cyclic, tol), (name, tol, cyclic)

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=6),
        st.integers(1, 8),
        st.integers(0, 5),
        st.lists(st.tuples(st.integers(0, 60), st.sampled_from([-1.001, -0.999, 0.999, 1.001])),
                 max_size=4),
        st.sampled_from([1e-6, 0.1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_periods_of_perturbed_tilings(self, block, repeats, extra, kicks, tol):
        # a tiled block of a few levels, so that shifts and anchor sites
        # tie, with sites moved by just under or just over tol
        psi = np.resize(0.25 * np.array(block, dtype=float), len(block) * repeats + extra)
        for site, factor in kicks:
            psi[site % psi.size] += factor * tol
        for cyclic in (True, False):
            assert analysis._detect_period(psi, cyclic, tol) == \
                _oracle_period(psi, cyclic, tol), (psi.tolist(), cyclic)

    def test_thickness_and_labels(self, portrait_corpus):
        for name, portrait in portrait_corpus:
            new = analysis._curve_thickness(portrait.points)
            old = _oracle_thickness(portrait.points, analysis.NEIGHBORS)
            assert _thickness_agrees(new, old), (name, new, old)
            if _oracle_period(portrait.psi_sequence, portrait.cyclic, analysis.SHIFT_TOL) is not None:
                expected = dl.PortraitLabel.REGULAR_PERIODIC
            elif old <= analysis.BAND_FRAC:
                expected = dl.PortraitLabel.IRREGULAR_COMMENSURATE
            else:
                expected = dl.PortraitLabel.IRREGULAR_INCOMMENSURATE
            assert dl.classify_portrait(portrait).label is expected, name

    def test_thickness_with_forty_neighbors(self, portrait_corpus, monkeypatch):
        # k + 1 = 41 points per neighbourhood
        monkeypatch.setattr(analysis, "NEIGHBORS", 40)
        picked = dict(portrait_corpus)
        for name in ("chain130", "ring1000/0", "ring208/3", "map/0", "map/7"):
            new = analysis._curve_thickness(picked[name].points)
            old = _oracle_thickness(picked[name].points, 40)
            assert _thickness_agrees(new, old), (name, new, old)


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return x


def _label_by_thickness(points):
    """The label of the exact path, at today's BAND_FRAC and NEIGHBORS."""
    thickness = analysis._curve_thickness(points)
    if thickness is not None and thickness <= analysis.BAND_FRAC:
        return dl.PortraitLabel.IRREGULAR_COMMENSURATE
    return dl.PortraitLabel.IRREGULAR_INCOMMENSURATE


class TestCrowdedCertificate:
    """The grid certificate says thin only where the exact thickness is
    at most BAND_FRAC, indeed at most sqrt(k / (k + 1)) BAND_FRAC."""

    def test_corpus(self, portrait_corpus):
        certified = set()
        for name, portrait in portrait_corpus:
            if analysis._crowded(analysis._distinct_rows(portrait.points)):
                certified.add(name)
                assert analysis._curve_thickness(portrait.points) <= analysis.BAND_FRAC, name
        # every solved N = 1000 ring and every map orbit skips the search
        assert {f"ring1000/{seed}" for seed in range(10)} <= certified
        assert {f"map/{k}" for k in range(10)} <= certified

    @given(
        st.sampled_from([0.05, 0.02, 0.2]),
        st.sampled_from([6, 4, 8]),
        st.sampled_from([(0.0, 0.0), (-0.3, 1.7), (1e3, -2e3)]),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1),
                           st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
                                              st.sampled_from([0.0, 0.5, 1.0]),
                                              st.sampled_from([-1, 0, 0, 1]),
                                              st.sampled_from([-1, 0, 0, 1])),
                                    min_size=5, max_size=9),
                           st.integers(0, 3)),
                 min_size=1, max_size=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_clusters_at_the_cell_scale(self, band, neighbors, lo, clusters):
        # two anchors fix lo and the diameter, hence the cell side t; the
        # clusters sit at lo + j t, one ulp to either side of the cell
        # edges, with repeats that add raw points to a cell but no
        # distinct ones
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "BAND_FRAC", band)
            mp.setattr(analysis, "NEIGHBORS", neighbors)
            anchors = np.array([lo, (lo[0] + 1.0, lo[1] + 0.5)])
            t = band * float(np.linalg.norm(anchors[1] - anchors[0]))
            pts = list(anchors)
            for j, m, members, repeats in clusters:
                cluster = [(_nudged(lo[0] + (j + ox) * t, ux), _nudged(lo[1] + (m + oy) * t, uy))
                           for ox, oy, ux, uy in members]
                pts += cluster + cluster[:repeats]
            pts = np.array(pts)
            distinct = analysis._distinct_rows(pts)
            k = min(neighbors, distinct.shape[0] - 1)
            thickness = analysis._curve_thickness(pts)
            if analysis._crowded(distinct):
                assert thickness <= band * np.sqrt(k / (k + 1)) * (1 + 1e-9)
            assert dl.classify_portrait(dl.PhasePortrait(pts)).label is _label_by_thickness(pts)

    def test_repeats_do_not_crowd_a_cell(self):
        # each point of a smeared cloud seven times: every occupied cell
        # holds k + 1 raw points but one distinct point, so only the
        # exact thickness can label it, and it is thick
        rng = np.random.default_rng(3)
        pts = np.repeat(rng.uniform(-1, 1, (300, 2)), analysis.NEIGHBORS + 1, axis=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "BAND_FRAC", 0.01)
            assert not analysis._crowded(analysis._distinct_rows(pts))
            cls = dl.classify_portrait(dl.PhasePortrait(pts))
            assert cls.label is dl.PortraitLabel.IRREGULAR_INCOMMENSURATE
            assert cls.label is _label_by_thickness(pts)

    def test_cells_are_counted_apart(self):
        # t = 0.05 * hypot(1, 0.5): 4 points in the top cell of column 0,
        # (0, 8), and 3 in cell (1, 0), whose keys would meet were the
        # key cx * 8 + cy; no cell holds 7
        t = 0.05 * float(np.hypot(1.0, 0.5))
        top = [(0.01 * j, 0.49 + 0.003 * j) for j in range(4)]
        bottom = [(t + 0.01 * j, 0.01 * j) for j in range(3)]
        pts = np.array([(0.0, 0.0), (1.0, 0.5)] + top + bottom)
        assert not analysis._crowded(analysis._distinct_rows(pts))

    def test_half_crowded_is_not_enough(self):
        # 8 of 16 points crowd one cell and 8 sit on an octagon around it:
        # the median averages a cluster's spread with a vertex's, 3.8 t,
        # and the portrait is thick
        angles = np.arange(8) * np.pi / 4
        cluster = 0.03 + 0.01 * np.array([[i % 3, i // 3] for i in range(8)])
        pts = np.concatenate([np.column_stack([np.cos(angles), np.sin(angles)]), cluster])
        assert not analysis._crowded(analysis._distinct_rows(pts))
        assert dl.classify_portrait(dl.PhasePortrait(pts)).label is \
            dl.PortraitLabel.IRREGULAR_INCOMMENSURATE

    def test_declined_portraits_are_small(self, portrait_corpus, monkeypatch):
        # where it declines, at least half the points lie in cells of at
        # most k points, and at most 15 x 15 cells are occupied: the exact
        # path ranks at most 2 NEIGHBORS 225 points
        sizes = []
        search = analysis._nearest_neighbors

        def recorded(pts, count):
            sizes.append(pts.shape[0])
            return search(pts, count)

        monkeypatch.setattr(analysis, "_nearest_neighbors", recorded)
        for _, portrait in portrait_corpus:
            dl.classify_portrait(portrait)
        rng = np.random.default_rng(13)
        for n in (4, 10, 30, 100, 300, 1000, 2700, 4000, 8000):
            for cloud in (rng.uniform(-1, 1, (n, 2)), rng.standard_normal((n, 2)) * [1.0, 0.01]):
                dl.classify_portrait(dl.PhasePortrait(cloud))
        # near the bound: anchors at (0, 0) and (1, 1) fix the cell side,
        # sqrt(2) / 20, and each of the 15 x 15 cells holds 6 points (5
        # beside an anchor) but one, which holds half of all 2688
        side = 0.05 * math.sqrt(2)
        pts = [np.array([[0.0, 0.0], [1.0, 1.0]])]
        for i in range(15):
            for j in range(15):
                m = 1344 if (i, j) == (7, 7) else 5 if (i, j) in ((0, 0), (14, 14)) else 6
                corner = np.array([i, j]) * side
                pts.append(corner + rng.uniform(0.1, 0.9, (m, 2)) * np.minimum(side, 1.0 - corner))
        dl.classify_portrait(dl.PhasePortrait(np.concatenate(pts)))
        assert sizes[-1] == 2688
        assert max(sizes) <= 2 * analysis.NEIGHBORS * 225

    def test_certifies_at_any_scale(self):
        # 10^5-point portraits far from the unit scale, each crowded in
        # its own frame
        rng = np.random.default_rng(14)
        theta = rng.uniform(0, 2 * np.pi, 100_000)
        cloud = rng.uniform(-1, 1, (100_000, 2))
        portraits = {
            "circle of radius 1e-7 around (1e5, 0)":
                np.column_stack([1e5 + 1e-7 * np.cos(theta), 1e-7 * np.sin(theta)]),
            "one 1e300 outlier": np.concatenate([cloud, [[1e300, 0.0]]]),
            "a +-1.7e308 span": cloud * 1.7e308,
            "subnormal": cloud * 2.0**-1050,
        }
        for name, pts in portraits.items():
            assert analysis._crowded(analysis._distinct_rows(pts)), name

    @pytest.mark.parametrize("pts", [
        # the extent overflows: the diameter is inf
        [[-1e308, -1e308], [1e308, 1e308]] + [[1e308, 1e308 - j * 1e292] for j in range(1, 9)],
        # four distinct points whose extent is subnormal: t = 0
        [[0.0, 0.0], [5e-324, 0.0], [1e-323, 0.0], [1.5e-323, 0.0]],
        # a non-finite point among a crowded cell's
        [[np.inf, 0.0]] + [[0.1 * j, 0.0] for j in range(9)] + [[1e-9 * j, 1e-9] for j in range(9)],
        # fewer than four distinct points, repeated
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]] * 5,
        # a crowded band one ulp apart at 1e15, far above its diameter
        [[1e15 + 0.125 * j, 1e15 + 0.125 * m] for j in range(64) for m in range(5)],
        # every row distinct at tol, so classify_portrait skips the
        # dedupe, but (inf, 0) twice, which _distinct_rows merges, and a NaN
        [[np.inf, 0.0], [np.nan, 0.0]] + [[0.1 * j, 0.01 * j * j] for j in range(9)] + [[np.inf, 0.0]],
    ])
    def test_declines(self, pts):
        # it must decline on fewer than four distinct points and on a
        # non-finite one; elsewhere it may certify, in the portrait's
        # frame, only a thin portrait
        pts = np.array(pts)
        distinct = analysis._distinct_rows(pts)
        k = min(analysis.NEIGHBORS, distinct.shape[0] - 1)
        if distinct.shape[0] < 4 or not np.all(np.isfinite(pts)):
            assert not analysis._crowded(distinct)
        elif analysis._crowded(distinct):
            assert analysis._curve_thickness(pts) <= analysis.BAND_FRAC * np.sqrt(k / (k + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            label = dl.classify_portrait(dl.PhasePortrait(pts)).label
            assert label is _label_by_thickness(pts)

    def test_distinct_rows_match_unique(self, portrait_corpus):
        for name, portrait in portrait_corpus:
            assert analysis._distinct_rows(portrait.points).tobytes() == \
                np.unique(portrait.points, axis=0).tobytes(), name
        rng = np.random.default_rng(5)
        for size in (1, 2, 5, 16):
            for _ in range(50):
                pts = rng.choice([0.0, -0.0, 1.0, -1.0, np.nan, np.inf], (size, 2))
                assert analysis._distinct_rows(pts).tobytes() == np.unique(pts, axis=0).tobytes()
        # past 16 rows np.unique's unstable sort may keep the other zero
        # of two rows equal up to a zero's sign; the rows still compare equal
        pts = rng.choice([0.0, -0.0, 1.0, -1.0], (200, 2))
        assert np.array_equal(analysis._distinct_rows(pts), np.unique(pts, axis=0))


class TestNearestNeighbors:
    """The blocked ranking against a per-point ranking by (squared
    distance, index)."""

    def _check(self, points, count):
        pts = np.unique(points, axis=0)
        found = pts[np.concatenate(list(analysis._nearest_neighbors(pts, count)))]
        assert _row_multiset(found) == _row_multiset(_brute_neighbors(pts, count))

    def test_random_cloud(self):
        rng = np.random.default_rng(8)
        for count in (7, 21):
            self._check(rng.uniform(-1, 1, (1500, 2)), count)

    def test_lattice_ties_go_to_lower_index(self):
        g = np.arange(-12, 13, dtype=float)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        for count in (5, 7, 21):
            self._check(pts, count)

    def test_underflow_ring(self):
        # one peak on a solved N = 1000 ring (pattern seed 2): hundreds of
        # its 757 distinct points sit so close to the origin that their
        # squared distances underflow to 0, so distances tie, and in the
        # portrait's frame those points meet
        initial = dl.normalize(dl.build_asymptotic_state(dl.random_pattern(1000, 2)))
        state, _, _ = dl.newton_solve(initial, dl.ModelParams(4000.0))
        points = dl.phase_portrait(state).points
        for count in (7, 21):
            self._check(points, count)
        assert analysis._curve_thickness(points) == _oracle_thickness(points, analysis.NEIGHBORS)

    def test_budget_below_one_query(self, monkeypatch):
        # blocks of one query, each over the budget
        monkeypatch.setattr(analysis, "_CELLS", 160)
        g = np.arange(-6, 7, dtype=float)
        xx, yy = np.meshgrid(g, g)
        cloud = np.random.default_rng(10).uniform(-1, 1, (300, 2))
        for pts in (np.column_stack([xx.ravel(), yy.ravel()]), cloud):
            for count in (7, 21):
                self._check(pts, count)

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=150),
           st.sampled_from([2, 7, 21]))
    @settings(max_examples=200, deadline=None)
    def test_grid_clouds(self, cells, count):
        # a coarse integer grid, so that many distances tie
        pts = np.array(cells, dtype=float)
        self._check(pts, min(count, np.unique(pts, axis=0).shape[0]))

    def test_tiny_sets(self):
        rng = np.random.default_rng(9)
        for m in (4, 5, 8, 16, 17, 33):
            pts = rng.uniform(-1, 1, (m, 2))
            for count in sorted({2, min(7, m), m}):
                self._check(pts, count)


class TestDistinctEdgeCases:
    def _check(self, points, tol):
        points = np.asarray(points, dtype=float)
        expected = len(_oracle_representatives(points.tolist(), tol))
        assert dl.distinct_points(dl.PhasePortrait(points), tol) == expected

    def test_multiples_of_tol(self):
        rng = np.random.default_rng(4)
        for tol in (0.1, 1e-3, 1e-6, 3.0):
            k = rng.integers(-6, 7, (400, 2)).astype(float)
            pts = k * tol
            # one ulp either way moves points across cell edges
            nudged = np.nextafter(pts, rng.choice([-np.inf, np.inf], pts.shape))
            self._check(pts, tol)
            self._check(np.concatenate([pts, nudged]), tol)
            self._check(rng.permutation(np.concatenate([nudged, pts])), tol)

    def test_exactly_tol_apart(self):
        tol = 0.1
        for base in (0.0, 0.05, 0.3, -0.7, 12345.6789):
            chain = [[base + j * tol, base] for j in range(6)]
            chain += [[base, base + j * tol] for j in range(6)]
            self._check(chain, tol)
            self._check(chain[::-1], tol)

    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                           st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=40),
        st.sampled_from([0.1, 0.3, 1e-3, 2.0**-3, 7e-7]),
    )
    @settings(max_examples=200, deadline=None)
    def test_near_cell_edges(self, cells, tol):
        pts = []
        for kx, ky, ux, uy in cells:
            x, y = kx * tol, ky * tol
            for _ in range(abs(ux)):
                x = np.nextafter(x, np.inf if ux > 0 else -np.inf)
            for _ in range(abs(uy)):
                y = np.nextafter(y, np.inf if uy > 0 else -np.inf)
            pts.append([x, y])
        self._check(pts, tol)

    def test_non_finite_points_count_alone(self):
        nan, inf = np.nan, np.inf
        pts = [[0.0, 0.0], [nan, 0.0], [0.0, 0.0], [inf, 0.0], [inf, 0.0],
               [-inf, inf], [nan, nan], [1e-9, 0.0], [0.0, -inf]]
        for tol in (1e-6, 1.0, 1e300, inf):
            self._check(pts, tol)
        assert dl.distinct_points(dl.PhasePortrait(pts), 1e-6) == 7

    def test_beyond_the_grid(self):
        # |p| >= 2**50 tol, _GRID_LIMIT cells of side 2 tol, lands in an
        # edge cell; such points still merge with neighbors within tol in
        # the cells next to it
        tol = 1e-6
        edge = 2 * analysis._GRID_LIMIT * tol
        pts = [[edge - 0.5 * tol, 0.0], [edge, 0.0], [edge + 0.7 * tol, 0.0],
               [-edge, edge], [-edge + tol, edge - tol], [1e30, 1e30], [1e30, 1e30]]
        self._check(pts, tol)
        self._check(pts[::-1], tol)
        self._check(pts, 1e-300)


def test_classification_memory_bounded(monkeypatch):
    # a solved 10^5-site ring (pattern seed 1, c = 4N): 24143 distinct
    # points on a commensurate curve, which the grid certificate labels
    # with no neighbour search.  The count and the period test peak at
    # about 5.9 MB and the label step, from the dedupe on, at 5.1 MB in
    # the portrait's frame; the bounds, 9.5 and 7.6 MB, are those the
    # count and the earlier k-d thickness were held to, so a block that
    # grows is caught.  The code the blocked passes replaced peaked at
    # 15.51 and 9.94 MB.
    initial = dl.build_asymptotic_state(dl.random_pattern(100_000, 1))
    state, _, _ = dl.newton_solve(initial, dl.ModelParams(4e5))
    portrait = dl.phase_portrait(state)
    peaks = {}
    distinct_rows = analysis._distinct_rows

    def traced_rows(points):
        peaks["distinct points"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return distinct_rows(points)

    def no_search(pts, count):
        raise AssertionError("the certificate should decide this ring")

    monkeypatch.setattr(analysis, "_distinct_rows", traced_rows)
    monkeypatch.setattr(analysis, "_nearest_neighbors", no_search)
    result, peaks["label"] = traced_peak(lambda: dl.classify_portrait(portrait))
    assert result.distinct_points == 24143
    assert result.label is dl.PortraitLabel.IRREGULAR_COMMENSURATE
    assert peaks["distinct points"] < 9.5e6
    assert peaks["label"] < 7.6e6
