import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnse_lab as dl
from dnse_lab import lattice
from dnse_lab.errors import OddPeriodicLattice, ZeroState

from conftest import random_state


class TestNormalize:
    def test_already_unit(self):
        s = dl.normalize(dl.LatticeState([1.0, 0.0, 0.0]))
        assert np.allclose(s.values, [1, 0, 0])

    def test_equal_pair(self):
        s = dl.normalize(dl.LatticeState([1.0, 1.0, 0.0]))
        assert np.allclose(s.values, [1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_signs_preserved(self):
        s = dl.normalize(dl.LatticeState([2.0, 0.0, -2.0]))
        assert np.allclose(s.values, [1 / np.sqrt(2), 0, -1 / np.sqrt(2)])

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroState):
            dl.normalize(dl.LatticeState([0.0, 0.0]))

    @given(st.integers(0, 2**32), st.integers(2, 40))
    @settings(max_examples=50, deadline=None)
    def test_unit_norm_and_direction(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_state(rng, n)
        if s.norm_squared() == 0:
            return
        out = dl.normalize(s)
        assert abs(out.norm_squared() - 1.0) <= 1e-12
        # same direction: positive scalar multiple
        factor = out.values[np.argmax(np.abs(s.values))] / s.values[np.argmax(np.abs(s.values))]
        assert factor > 0
        assert np.allclose(out.values, factor * s.values)


class TestResidual:
    def test_uniform_three_site_solution(self):
        s = dl.LatticeState(np.full(3, 1 / np.sqrt(3)))
        r = dl.residual(s, dl.ModelParams(30.0), -10.0)
        assert np.max(np.abs(r)) <= 1e-14

    def test_zero_fixed_point(self):
        s = dl.LatticeState(np.zeros(5))
        assert np.all(dl.residual(s, dl.ModelParams(7.0), 3.0) == 0)

    def test_open_linear_stencil(self):
        s = dl.LatticeState([1.0, 0.0, 0.0], dl.Boundary.OPEN)
        r = dl.residual(s, dl.ModelParams(0.0, dl.Boundary.OPEN), 2.0)
        assert np.allclose(r, [0.0, -1.0, 0.0])

    def test_boundary_mismatch_rejected(self):
        s = dl.LatticeState([1.0, 0.0], dl.Boundary.OPEN)
        with pytest.raises(ValueError):
            dl.residual(s, dl.ModelParams(1.0), 0.0)

    @given(st.integers(0, 2**32), st.integers(3, 30), st.integers(1, 29))
    @settings(max_examples=50, deadline=None)
    def test_translation_covariance(self, seed, n, k):
        rng = np.random.default_rng(seed)
        s = random_state(rng, n)
        p = dl.ModelParams(rng.uniform(-20, 20))
        energy = rng.uniform(-5, 5)
        lhs = dl.residual(s.rotated(k), p, energy)
        rhs = np.roll(dl.residual(s, p, energy), k)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @given(st.integers(0, 2**32), st.integers(2, 30))
    @settings(max_examples=50, deadline=None)
    def test_odd_in_psi(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_state(rng, n)
        p = dl.ModelParams(rng.uniform(-20, 20))
        energy = rng.uniform(-5, 5)
        flipped = dl.LatticeState(-s.values, s.boundary)
        assert np.allclose(dl.residual(flipped, p, energy), -dl.residual(s, p, energy))


class TestHamiltonian:
    def test_zero_state(self):
        s = dl.LatticeState(np.zeros(4))
        assert dl.hamiltonian(s, dl.ModelParams(3.0), 1.0) == 0.0

    def test_uniform_value(self):
        s = dl.LatticeState(np.full(3, 1 / np.sqrt(3)))
        h = dl.hamiltonian(s, dl.ModelParams(30.0), -10.0)
        assert abs(h - 5.0) <= 1e-12

    def test_single_site_open(self):
        s = dl.LatticeState([1.0, 0.0, 0.0], dl.Boundary.OPEN)
        h = dl.hamiltonian(s, dl.ModelParams(0.0, dl.Boundary.OPEN), 0.0)
        assert abs(h - 1.0) <= 1e-14


class TestGradient:
    def test_twice_residual(self):
        rng = np.random.default_rng(0)
        s = random_state(rng, 12)
        p = dl.ModelParams(5.0)
        assert np.array_equal(dl.gradient(s, p, -1.0), 2 * dl.residual(s, p, -1.0))

    def test_zero_state(self):
        s = dl.LatticeState(np.zeros(6))
        assert np.all(dl.gradient(s, dl.ModelParams(2.0), 0.5) == 0)

    @pytest.mark.parametrize("boundary", [dl.Boundary.PERIODIC, dl.Boundary.OPEN])
    def test_matches_finite_differences(self, boundary):
        # the open Hamiltonian counts only the N-1 existing bonds while the
        # residual zero-pads the stencil, so at the two open edge sites the
        # gradient corresponds to the Dirichlet (padded) functional and is
        # checked only on interior sites there
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(20):
            n = rng.integers(4, 15)
            s = random_state(rng, n, boundary)
            p = dl.ModelParams(rng.uniform(-10, 10), boundary)
            energy = rng.uniform(-3, 3)
            grad = dl.gradient(s, p, energy)
            sites = range(n) if boundary is dl.Boundary.PERIODIC else range(1, n - 1)
            for i in sites:
                bump = np.zeros(n)
                bump[i] = h
                hp = dl.hamiltonian(dl.LatticeState(s.values + bump, boundary), p, energy)
                hm = dl.hamiltonian(dl.LatticeState(s.values - bump, boundary), p, energy)
                assert abs(grad[i] - (hp - hm) / (2 * h)) <= 1e-6


class TestStagger:
    def test_alternating_signs(self):
        s = dl.stagger(dl.LatticeState([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(s.values, [1, -2, 3, -4])

    def test_involution(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 10)
        assert np.array_equal(dl.stagger(dl.stagger(s)).values, s.values)

    def test_odd_periodic_rejected(self):
        with pytest.raises(OddPeriodicLattice):
            dl.stagger(dl.LatticeState([1.0, 2.0, 3.0]))

    def test_odd_open_allowed(self):
        s = dl.stagger(dl.LatticeState([1.0, 2.0, 3.0], dl.Boundary.OPEN))
        assert np.allclose(s.values, [1, -2, 3])

    def test_oscillator_equivalence(self):
        # staggered states satisfy the oscillator equation with e = 4 - E
        # and reversed coupling sign: osc residual = -stagger(residual)
        def oscillator_residual(x, c, e):
            left, right = np.roll(x, 1), np.roll(x, -1)
            return -left + 2 * x - right + c * x**3 - e * x

        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 2 * rng.integers(2, 12)
            s = random_state(rng, n)
            c = rng.uniform(-20, 20)
            energy = rng.uniform(-5, 5)
            res = dl.residual(s, dl.ModelParams(c), energy)
            x = dl.stagger(s)
            osc = oscillator_residual(x.values, c, 4.0 - energy)
            assert np.allclose(osc, -dl.stagger(dl.LatticeState(res)).values, atol=1e-10)


class TestRescale:
    def test_identity_at_one(self):
        s = dl.LatticeState([0.3, -0.4])
        p = dl.ModelParams(9.0)
        s2, p2 = dl.rescale(s, p, 1.0)
        assert np.array_equal(s2.values, s.values)
        assert p2.c == p.c

    def test_uniform_solution_maps_to_solution(self):
        s = dl.LatticeState(np.full(3, 1 / np.sqrt(3)))
        s2, p2 = dl.rescale(s, dl.ModelParams(30.0), 2.0)
        assert p2.c == 7.5
        assert np.max(np.abs(dl.residual(s2, p2, -10.0))) <= 1e-12

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            dl.rescale(dl.LatticeState([1.0]), dl.ModelParams(1.0), -1.0)

    @given(
        st.integers(0, 2**32),
        st.floats(0.1, 10.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_residual_scaling(self, seed, beta):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        s = random_state(rng, n)
        p = dl.ModelParams(rng.uniform(-20, 20))
        energy = rng.uniform(-5, 5)
        s2, p2 = dl.rescale(s, p, beta)
        r_old = dl.residual(s, p, energy)
        r_new = dl.residual(s2, p2, energy)
        scale = max(1.0, np.max(np.abs(r_old)))
        assert np.max(np.abs(r_new - beta * r_old)) <= 1e-12 * scale * max(beta, 1.0)
        assert abs(s2.norm_squared() - beta**2 * s.norm_squared()) <= 1e-10


class TestStateInvariants:
    def test_immutable_values(self):
        s = dl.LatticeState([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dl.LatticeState([1.0, np.nan])

    @pytest.mark.parametrize("values", [[], [[1.0, 0.0], [0.0, 1.0]]])
    def test_not_one_dimensional_rejected(self, values):
        with pytest.raises(ValueError):
            dl.LatticeState(values)

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros((3, 3)), np.zeros(4),
                                        np.zeros((2, 2, 2))])
    def test_point_array_shape_rejected(self, points):
        with pytest.raises(ValueError):
            lattice._as_points(points, "portrait")

    def test_large_lattice_linear_memory(self):
        # O(N) pipeline smoke test on a big lattice
        n = 200_000
        psi = np.zeros(n)
        psi[n // 2] = 1.0
        s = dl.LatticeState(psi)
        r = dl.residual(s, dl.ModelParams(100.0), 2.0 - 100.0)
        assert r.shape == (n,)
