import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnse_lab as dl
from dnse_lab.errors import EscapedOrbit

from conftest import traced_peak

finite_float = st.floats(-10.0, 10.0, allow_nan=False)


class TestMapStep:
    def test_origin_fixed(self):
        s = dl.map_step(dl.MapState(0.0, 0.0), -1.3, 24.0)
        assert s == dl.MapState(0.0, 0.0)

    def test_linear_example(self):
        s = dl.map_step(dl.MapState(1.0, 0.0), -1.0, 0.0)
        assert s == dl.MapState(2.0, 1.0)

    @given(finite_float, finite_float, finite_float, finite_float)
    @settings(max_examples=200)
    def test_inverse_round_trip(self, psi, z, energy, c):
        s = dl.MapState(psi, z)
        fwd = dl.map_step(s, energy, c)
        back = dl.map_step_inverse(fwd, energy, c)
        assert abs(back.psi - s.psi) <= 1e-9 * max(1.0, abs(s.psi))
        assert abs(back.Z - s.Z) <= 1e-9 * max(1.0, abs(s.Z), abs(fwd.Z))

    def test_area_preserving_jacobian(self):
        # |det d(psi', Z')/d(psi, Z)| = 1 at any point
        h = 1e-6
        for psi, z, energy, c in [(0.3, -0.2, -0.8, 24.0), (1.1, 0.4, 0.5, -3.0)]:
            def f(p, zz):
                s = dl.map_step(dl.MapState(p, zz), energy, c)
                return np.array([s.psi, s.Z])

            jac = np.column_stack([
                (f(psi + h, z) - f(psi - h, z)) / (2 * h),
                (f(psi, z + h) - f(psi, z - h)) / (2 * h),
            ])
            assert abs(abs(np.linalg.det(jac)) - 1.0) <= 1e-6


class TestIterateMap:
    def test_uniform_solution_is_fixed_point(self):
        # uniform ring state: Z = 0 and E psi + c psi**3 = 0 at E = -c/3;
        # c < 6 keeps the fixed point elliptic so round-off is not amplified
        psi = 1 / np.sqrt(3)
        orbit = dl.iterate_map(dl.MapState(psi, 0.0), -1.0, 3.0, 50)
        assert np.max(np.abs(orbit.psi - psi)) <= 1e-12
        assert np.max(np.abs(orbit.Z)) <= 1e-12

    def test_overflowing_step_is_not_finite(self):
        # psi**3 overflows a Python float in one step, forward and back
        s = dl.MapState(1e200, 0.0)
        for step in (dl.map_step, dl.map_step_inverse):
            point = step(s, 1.0, 1.0)
            assert not np.all(np.isfinite(point)), step.__name__

    def test_bounded_elliptic_orbit(self):
        # linear map at E in (0, 4) is a rotation: stays bounded forever
        orbit = dl.iterate_map(dl.MapState(0.1, 0.0), 1.0, 0.0, 10_000)
        assert not orbit.escaped
        assert np.max(np.abs(orbit.points)) <= 1.0

    def test_long_reversibility(self):
        energy, c = 1.0, 0.0
        s = dl.MapState(0.1, 0.05)
        fwd = s
        for _ in range(10_000):
            fwd = dl.map_step(fwd, energy, c)
        back = fwd
        for _ in range(10_000):
            back = dl.map_step_inverse(back, energy, c)
        assert abs(back.psi - s.psi) <= 1e-9
        assert abs(back.Z - s.Z) <= 1e-9

    def test_orbit_memory(self):
        # two floats a step in a flat list, then the orbit's array: about
        # 80 bytes a step; a tuple a step (160), or a second copy of the
        # array (96), passes 88
        steps = 10**5
        orbit, peak = traced_peak(lambda: dl.iterate_map(dl.MapState(0.05, 0), 1, 1, steps))
        assert not orbit.escaped
        assert peak <= 88 * steps

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            dl.iterate_map(dl.MapState(0.0, 0.0), 0.0, 0.0, 0)

    @pytest.mark.parametrize("seed,energy,c", [
        ((np.nan, 0.0), 1.0, 1.0), ((0.1, np.inf), 1.0, 1.0),
        ((0.1, 0.0), np.nan, 1.0), ((0.1, 0.0), -np.inf, 1.0), ((0.1, 0.0), 1.0, np.nan),
    ])
    def test_non_finite_input_rejected(self, seed, energy, c):
        with pytest.raises(ValueError):
            dl.iterate_map(dl.MapState(*seed), energy, c, 10)

    @pytest.mark.parametrize("bound", [np.nan, 0.0, -1.0])
    def test_escape_bound_must_be_positive(self, bound):
        with pytest.raises(ValueError):
            dl.iterate_map(dl.MapState(0.1, 0.0), 1.0, 1.0, 10, escape_bound=bound)


class TestLatticeMapEquivalence:
    def test_seed_from_lattice(self):
        state = dl.LatticeState([0.3, 0.5, 0.1])
        seed = dl.seed_from_lattice(state)
        assert seed == dl.MapState(0.5, 0.2)

    def test_seed_needs_two_sites(self):
        with pytest.raises(ValueError):
            dl.seed_from_lattice(dl.LatticeState([0.3]))

    def test_orbit_lattice_interior_residual_nonlinear(self):
        # any map orbit read back as an open chain satisfies the interior
        # stencil: the recursion IS the map, exactly where it is linear
        for seed, energy, c, steps, bound in [((0.2, -0.1), -0.5, 5.0, 40, 1e-9),
                                              ((0.1, 0.05), 1.0, 0.0, 50, 1e-12)]:
            orbit = dl.iterate_map(dl.MapState(*seed), energy, c, steps)
            assert not orbit.escaped
            state = dl.lattice_from_orbit(orbit)
            res = dl.residual(state, dl.ModelParams(c, dl.Boundary.OPEN), energy)
            assert np.max(np.abs(res[1:-1])) <= bound, c

    def test_escaped_orbit_rejected(self):
        orbit = dl.iterate_map(dl.MapState(5.0, 0.0), -2.0, 24.0, 100, escape_bound=1e3)
        assert orbit.escaped
        with pytest.raises(EscapedOrbit):
            dl.lattice_from_orbit(orbit)

    def test_solution_reproduced_over_a_few_sites(self, chain100_solution):
        # hyperbolic amplification limits double precision to a handful of
        # sites; the first few must still match closely
        _, state, energy, _ = chain100_solution
        orbit = dl.iterate_map(dl.seed_from_lattice(state), energy, 24.0, 6)
        assert np.max(np.abs(orbit.psi - state.values[1:8])) <= 1e-8
