import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnse_lab as dl
from dnse_lab import analysis
from dnse_lab.errors import (
    NoConvergence,
    NotLocalized,
    WindowTouchesPeak,
    ZeroAmplitudeInWindow,
)


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

    def test_asymptotic_state_matches_limit_points(self):
        for seed in range(5):
            spec = dl.random_pattern(40, seed)
            portrait = dl.phase_portrait(dl.build_asymptotic_state(spec))
            assert dl.distinct_points(portrait, 1e-9) == len(dl.limit_points(spec))


class TestClassification:
    def test_periodic_chain_is_regular(self, chain100_solution):
        _, state, _, _ = chain100_solution
        cls = dl.classify_portrait(dl.phase_portrait(state))
        assert cls.label is dl.PortraitLabel.REGULAR_PERIODIC
        assert cls.period == 20
        assert cls.distinct_points == 20

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
        assert cls.curve_thickness is None
        assert cls.label is dl.PortraitLabel.IRREGULAR_INCOMMENSURATE

    def test_subnormal_extent_has_zero_thickness(self):
        # four distinct points whose squared extent underflows to 0
        pts = np.array([[0.0, 0.0], [5e-324, 0.0], [1e-323, 0.0], [1.5e-323, 0.0]])
        assert np.unique(pts, axis=0).shape[0] == 4
        assert analysis._curve_thickness(pts) == 0.0

    def test_as_dict_payload(self):
        cls = dl.classify_portrait(dl.phase_portrait(dl.LatticeState(np.full(4, 0.5))))
        assert cls.curve_thickness is None  # a periodic portrait is not measured
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
        assert cls.curve_thickness == analysis._curve_thickness(pts)


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
        with pytest.raises(ValueError):
            dl.fit_tail(state, 0, (0, 2))

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

    def test_cubic_flag(self):
        state = dl.LatticeState([1.0, 0.5, 0.25, 0.0001, 0.00005, 0.000025], dl.Boundary.OPEN)
        near = dl.fit_tail(state, 0, (1, 2))
        far = dl.fit_tail(state, 0, (3, 5))
        assert near.cubic_term_significant
        assert not far.cubic_term_significant


class TestBoxCount:
    def test_single_point(self):
        portrait = dl.PhasePortrait(np.tile([[0.3, 0.4]], (50, 1)))
        result = dl.box_count(portrait, [1.0, 0.5, 0.25])
        assert all(occ == 1 for _, occ in result.counts)
        assert abs(result.slope_estimate) <= 1e-12

    def test_line_slope_near_one(self):
        xs = np.linspace(0.0, 1.0, 2000)
        portrait = dl.PhasePortrait(np.column_stack([xs, np.zeros_like(xs)]))
        result = dl.box_count(portrait, np.logspace(-2, -0.5, 8))
        assert abs(result.slope_estimate - 1.0) <= 0.15

    def test_filled_square_slope_near_two(self):
        g = np.linspace(0.0, 1.0, 150)
        xx, yy = np.meshgrid(g, g)
        portrait = dl.PhasePortrait(np.column_stack([xx.ravel(), yy.ravel()]))
        result = dl.box_count(portrait, np.logspace(-1.5, -0.5, 6))
        assert abs(result.slope_estimate - 2.0) <= 0.3

    def test_bad_scales(self):
        portrait = dl.PhasePortrait(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            dl.box_count(portrait, [0.5])
        with pytest.raises(ValueError):
            dl.box_count(portrait, [0.5, -0.1])

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_scale(self, scale):
        portrait = dl.PhasePortrait(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            dl.box_count(portrait, [0.5, scale])

    @pytest.mark.parametrize("scale", [1e-19, 1e-300, 5e-324])
    def test_scale_too_fine(self, scale):
        # 2 / scale boxes a side: the int64 box indices used to wrap
        # (730 boxes at 1e-19, 3 at 1e-300) or the slope fit failed (5e-324)
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (1000, 2))
        with pytest.raises(ValueError, match=f"scale {scale!r}"):
            dl.box_count(dl.PhasePortrait(pts), [0.5, scale])

    def test_extent_overflows(self):
        # finite points more than the largest float apart
        portrait = dl.PhasePortrait([[-1e308, 0.0], [1e308, 1.0]])
        with pytest.raises(ValueError, match="extent overflows"):
            dl.box_count(portrait, [1e300, 1e306])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_point(self, bad):
        # floor(inf) has no int64 cell
        portrait = dl.PhasePortrait([[0.0, 0.0], [1.0, bad], [0.5, 0.5]])
        with pytest.raises(ValueError):
            dl.box_count(portrait, [0.1, 0.5])


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


def _oracle_thickness(points, neighbors=analysis.NEIGHBORS):
    """A full argsort of the distances for every point."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] < 4:
        return 0.0
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    diameter = float(np.linalg.norm(hi - lo))
    if diameter == 0.0:
        return 0.0
    k = min(neighbors, pts.shape[0] - 1)
    spreads = []
    for p in pts:
        d2 = np.sum((pts - p) ** 2, axis=1)
        idx = np.argsort(d2)[: k + 1]
        local = pts[idx] - pts[idx].mean(axis=0)
        cov = local.T @ local / local.shape[0]
        eigvals = np.linalg.eigvalsh(cov)
        spreads.append(np.sqrt(max(eigvals[0], 0.0)))
    return float(np.median(spreads)) / diameter


def _thickness_agrees(new, old):
    return abs(new - old) <= max(1e-9 * abs(old), 1e-15)


DISTINCT_TOLS = (1e-9, 1e-6, 1e-3, 1e-1)


@pytest.fixture(scope="module")
def portrait_corpus(chain100_solution, chain130_solution):
    """(name, portrait): the acceptance chains; the random rings with
    N in {208, 1000} and seeds 0-9, solved at c = 4N (the last iterate
    where Newton gives up) and as their asymptotic initial states; and
    ten 2000-step orbits of the map at E = 1, c = 1."""
    corpus = [("chain100", dl.phase_portrait(chain100_solution[1])),
              ("chain130", dl.phase_portrait(chain130_solution[1]))]
    for n in (208, 1000):
        for seed in range(10):
            initial = dl.normalize(dl.build_asymptotic_state(dl.random_pattern(n, seed)))
            try:
                solved, _, _ = dl.newton_solve(initial, dl.ModelParams(4.0 * n))
            except NoConvergence as exc:
                solved = exc.state
            corpus.append((f"ring{n}/{seed}", dl.phase_portrait(solved)))
            corpus.append((f"ring{n}/{seed}/asymptotic", dl.phase_portrait(initial)))
    for k in range(10):
        orbit = dl.iterate_map(dl.MapState(0.05 * (k + 1), 0.0), 1.0, 1.0, 2000)
        corpus.append((f"map/{k}", dl.portrait_from_orbit(orbit)))
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
            old = _oracle_thickness(portrait.points)
            assert _thickness_agrees(new, old), (name, new, old)
            if _oracle_period(portrait.psi_sequence, portrait.cyclic, analysis.SHIFT_TOL) is not None:
                expected = dl.PortraitLabel.REGULAR_PERIODIC
            elif old <= analysis.BAND_FRAC:
                expected = dl.PortraitLabel.IRREGULAR_COMMENSURATE
            else:
                expected = dl.PortraitLabel.IRREGULAR_INCOMMENSURATE
            assert dl.classify_portrait(portrait).label is expected, name

    def test_thickness_more_neighbors_than_a_leaf(self, portrait_corpus, monkeypatch):
        # k + 1 = 41 points per neighbourhood, more than the _LEAF / 2 a
        # leaf may hold: leaves grow to hold at least that many
        monkeypatch.setattr(analysis, "NEIGHBORS", 40)
        assert analysis.NEIGHBORS + 1 > analysis._LEAF // 2
        picked = dict(portrait_corpus)
        for name in ("chain130", "ring1000/0", "ring208/3", "map/0", "map/7"):
            new = analysis._curve_thickness(picked[name].points)
            old = _oracle_thickness(picked[name].points, 40)
            assert _thickness_agrees(new, old), (name, new, old)


class TestNearestNeighbors:
    """The k-d search against a full ranking by (squared distance, index)."""

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
        # squared distances underflow to 0, and the descent frontier
        # outgrows the budget, so batches are retried with fewer queries
        initial = dl.normalize(dl.build_asymptotic_state(dl.random_pattern(1000, 2)))
        state, _, _ = dl.newton_solve(initial, dl.ModelParams(4000.0))
        points = dl.phase_portrait(state).points
        for count in (7, 21):
            self._check(points, count)
        assert analysis._curve_thickness(points) == _oracle_thickness(points)

    def test_budget_below_one_query(self, monkeypatch):
        # leaves ranked in blocks of a few queries, and many one query at
        # a time over the budget
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
        # |p| >= 2**49 tol lands in an edge cell; such points still merge
        # with neighbors within tol in the cells next to it
        tol = 1e-6
        edge = 2.0**49 * tol
        pts = [[edge - 0.5 * tol, 0.0], [edge, 0.0], [edge + 0.7 * tol, 0.0],
               [-edge, edge], [-edge + tol, edge - tol], [1e30, 1e30], [1e30, 1e30]]
        self._check(pts, tol)
        self._check(pts[::-1], tol)
        self._check(pts, 1e-300)


def test_classification_memory_bounded(monkeypatch):
    # a solved 10^5-site ring (pattern seed 1, c = 4N): 24143 distinct
    # points on a commensurate curve.  The count and the thickness peak at
    # about 8.7 and 6.9 MB, and the bounds sit about 10% above, so a
    # block that grows is caught; the code the blocked passes replaced
    # peaked at 15.51 and 9.94 MB.
    initial = dl.build_asymptotic_state(dl.random_pattern(100_000, 1))
    state, _, _ = dl.newton_solve(initial, dl.ModelParams(4e5))
    portrait = dl.phase_portrait(state)
    peaks = {}
    thickness = analysis._curve_thickness

    def traced_thickness(points):
        peaks["distinct points"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return thickness(points)

    monkeypatch.setattr(analysis, "_curve_thickness", traced_thickness)
    tracemalloc.start()
    try:
        result = dl.classify_portrait(portrait)
        peaks["thickness"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.distinct_points == 24143
    assert result.label is dl.PortraitLabel.IRREGULAR_COMMENSURATE
    assert peaks["distinct points"] < 9.5e6
    assert peaks["thickness"] < 7.6e6
