import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dnse_lab as dl
from dnse_lab.errors import AllZero, BadCharacter, EmptyPattern

trit_strategy = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=40).filter(
    lambda ts: any(ts)
)


class TestParse:
    def test_round_trip(self):
        spec = dl.parse_pattern("+0-")
        assert spec.trits == (1, 0, -1)
        assert spec.text() == "+0-"

    def test_bad_character_position(self):
        with pytest.raises(BadCharacter) as exc:
            dl.parse_pattern("+0x-")
        assert exc.value.position == 2
        assert exc.value.char == "x"

    def test_empty_rejected(self):
        with pytest.raises(EmptyPattern):
            dl.parse_pattern("")

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            dl.parse_pattern("000")

    @given(trit_strategy)
    def test_text_parse_inverse(self, trits):
        spec = dl.PatternSpec(tuple(trits))
        assert dl.parse_pattern(spec.text()).trits == spec.trits


class TestPatternSpecInput:
    @pytest.mark.parametrize("trits,error", [
        ((1, 2), ValueError),
        ((0, 2), ValueError),
        ((0, 0), AllZero),
        ((), EmptyPattern),
        ((0.7, 1), ValueError),  # int() would make it 0
        ((-1.2, 1), ValueError),  # int() would make it -1
    ])
    def test_rejected(self, trits, error):
        with pytest.raises(error) as exc:
            dl.PatternSpec(trits)
        assert type(exc.value) is error

    @pytest.mark.parametrize("trits", [
        tuple(np.array([1, 0, -1], dtype=np.int64)),
        (1.0, 0.0, -1.0),
        [1, 0, -1],
    ])
    def test_numbers_become_ints(self, trits):
        spec = dl.PatternSpec(trits)
        assert spec.trits == (1, 0, -1)
        assert all(type(t) is int for t in spec.trits)


class TestCounts:
    @pytest.mark.parametrize(
        "text,bc,n,m,l",
        [
            ("+++", "periodic", 3, 0, 0),  # fully occupied ring: no spot edges
            ("+0-", "periodic", 2, 1, 1),  # wrap joins the ends into one spot
            ("+-0", "periodic", 2, 1, 1),
            ("+00-00", "periodic", 2, 2, 0),
            ("+-+-", "periodic", 4, 0, 4),  # staggered ring, wrap kink included
            ("++--0", "periodic", 4, 1, 1),
            ("+++", "open", 3, 1, 0),
            ("+-+-", "open", 4, 1, 3),
            ("0+0", "open", 1, 1, 0),
        ],
    )
    def test_examples(self, text, bc, n, m, l):
        counts = dl.count_pattern(dl.parse_pattern(text, dl.Boundary(bc)))
        assert (counts.n, counts.m, counts.l) == (n, m, l)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            spec = dl.random_pattern(int(rng.integers(2, 30)), int(rng.integers(0, 1000)))
            base = dl.count_pattern(spec)
            k = int(rng.integers(1, spec.n_sites))
            assert dl.count_pattern(spec.rotated(k)) == base

    def test_sign_flip_invariance(self):
        spec = dl.parse_pattern("++--0+0-")
        flipped = dl.PatternSpec(tuple(-t for t in spec.trits))
        assert dl.count_pattern(flipped) == dl.count_pattern(spec)

    @given(trit_strategy)
    def test_bounds(self, trits):
        counts = dl.count_pattern(dl.PatternSpec(tuple(trits)))
        assert 1 <= counts.n <= len(trits)
        assert 0 <= counts.m <= counts.n
        assert 0 <= counts.l <= counts.n

    @pytest.mark.parametrize("n,m,l", [(0, 0, 0), (-1, 0, 0), (2, 3, 0), (2, -1, 0),
                                       (2, 1, 3), (2, 1, -1)])
    def test_counts_out_of_range_rejected(self, n, m, l):
        with pytest.raises(ValueError):
            dl.PatternCounts(n, m, l)


class TestSpectrum:
    def test_uniform_ring(self):
        counts = dl.count_pattern(dl.parse_pattern("+++"))
        assert dl.strong_coupling_energy(counts, 30.0) == -10.0

    def test_kink_pair(self):
        counts = dl.count_pattern(dl.parse_pattern("+-0"))
        assert dl.strong_coupling_energy(counts, 40.0) == -17.0

    def test_matches_rayleigh_of_limit_state(self):
        # E = (2m + 4l - c)/n must equal the Rayleigh quotient of the
        # limiting state in the strong-coupling limit: the kinetic part
        # supplies (2m + 4l)/n and the cubic part -c/n exactly.
        rng = np.random.default_rng(17)
        for _ in range(200):
            spec = dl.random_pattern(int(rng.integers(2, 40)), int(rng.integers(0, 10**6)))
            c = float(rng.uniform(1.0, 100.0))
            counts = dl.count_pattern(spec)
            state = dl.build_asymptotic_state(spec)
            psi = state.values
            kinetic = float(np.sum((psi - np.roll(psi, -1)) ** 2))
            quartic = -c * float(np.sum(psi**4))
            expected = kinetic + quartic
            assert abs(dl.strong_coupling_energy(counts, c) - expected) <= 1e-12 * max(1.0, abs(expected))


class TestAsymptoticState:
    def test_amplitudes(self):
        state = dl.build_asymptotic_state(dl.parse_pattern("+0-0"))
        assert np.allclose(state.values, [1 / np.sqrt(2), 0, -1 / np.sqrt(2), 0])

    def test_unit_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            spec = dl.random_pattern(int(rng.integers(1, 50)), int(rng.integers(0, 1000)))
            assert abs(dl.build_asymptotic_state(spec).norm_squared() - 1.0) <= 1e-12


class TestQuantize:
    def test_recovers_asymptotic_pattern(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            spec = dl.random_pattern(int(rng.integers(1, 40)), int(rng.integers(0, 1000)))
            assert dl.quantize_state(dl.build_asymptotic_state(spec)).trits == spec.trits

    def test_threshold_cut(self):
        state = dl.LatticeState([1.0, 0.4, -0.6, 0.0])
        spec = dl.quantize_state(state)
        assert spec.trits == (1, 0, -1, 0)

    def test_zero_state_rejected(self):
        with pytest.raises(AllZero):
            dl.quantize_state(dl.LatticeState([0.0, 0.0]))


class TestLimitPoints:
    def test_uniform_ring_single_point(self):
        assert dl.limit_points(dl.parse_pattern("+++")) == {(1 / np.sqrt(3), 0.0)}

    def test_staggered_ring_two_points(self):
        pts = dl.limit_points(dl.parse_pattern("+-+-"))
        assert pts == {(0.5, -1.0), (-0.5, 1.0)}

    def test_at_most_nine(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            spec = dl.random_pattern(int(rng.integers(1, 60)), int(rng.integers(0, 10**5)))
            pts = dl.limit_points(spec)
            assert 1 <= len(pts) <= 9

    def test_matches_portrait_of_limit_state(self):
        rng = np.random.default_rng(8)
        drawn = [(int(rng.integers(2, 50)), int(rng.integers(0, 10**5))) for _ in range(50)]
        for n, seed in [(40, seed) for seed in range(5)] + drawn:
            trits = dl.random_pattern(n, seed).trits
            for boundary in dl.Boundary:
                spec = dl.PatternSpec(trits, boundary)
                portrait = dl.phase_portrait(dl.build_asymptotic_state(spec))
                expected = dl.limit_points(spec)
                got = {(round(x, 12), round(y, 12)) for x, y in portrait.points}
                want = {(round(x, 12), round(y, 12)) for x, y in expected}
                assert got == want, (spec.text(), boundary)


class TestRandomPattern:
    def test_deterministic(self):
        a = dl.random_pattern(60, 123)
        b = dl.random_pattern(60, 123)
        assert a.trits == b.trits

    def test_seeds_differ(self):
        assert dl.random_pattern(60, 0).trits != dl.random_pattern(60, 1).trits

    def test_never_all_zero(self):
        for seed in range(200):
            spec = dl.random_pattern(3, seed)
            assert any(spec.trits)

    def test_roughly_uniform_trits(self):
        trits = np.concatenate([dl.random_pattern(1000, s).trits for s in range(5)])
        for value in (-1, 0, 1):
            frac = np.mean(trits == value)
            assert 0.28 <= frac <= 0.39


class TestSpotPattern:
    def test_single_site_spots(self):
        spec = dl.spot_pattern(10, [0, 5], 1, [1, -1])
        assert spec.text() == "+0000-0000"

    def test_pair_spots_wrap(self):
        spec = dl.spot_pattern(6, [5], 2, [1])
        assert spec.text() == "+0000+"
        assert dl.count_pattern(spec).m == 1  # wraps into one spot

    @pytest.mark.parametrize("starts,signs", [([0, 10, 20], [1, -1]), ([0], [1, -1]),
                                              ([0, 10], [0.7, 1])])
    def test_one_valid_sign_per_spot(self, starts, signs):
        with pytest.raises(ValueError):
            dl.spot_pattern(30, starts, 1, signs)


class TestCountsReport:
    def test_fields(self):
        report = dl.counts_report(dl.parse_pattern("+00-00"), 10.0)
        assert report == {"n": 2, "m": 2, "l": 0, "E_infinity": (4.0 - 10.0) / 2.0}
