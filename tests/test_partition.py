"""The partitioned float64 solve against the scalar kernel as its oracle.

solve_linear takes the partitioned path from PARTITION_MIN_SITES sites on
and the scalar kernel below.  Here the partitioned path is also called
directly on the small systems of the corpus, so that both paths meet on
every system; they must agree to 1e-13 relative.  Systems that are not
diagonally dominant are ill-conditioned, and there the two are compared
by backward error.
"""

from array import array

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab.errors import SingularJacobian
from dnse_lab.newton import PARTITION_MIN_SITES, _partitioned_solve, _tridiag_solve

from conftest import kernel_corpus


def _scalar(diag, rhs, periodic):
    [x] = _tridiag_solve(array("d", diag.tobytes()), [array("d", rhs.tobytes())], periodic)
    return np.frombuffer(x)


def _backward_error(diag, periodic, x, rhs):
    """max|J x - rhs| over max|J| max|x| + max|rhs|, in machine epsilons."""
    r = dl.JacobianMatrix(diag, periodic).matvec(x) - rhs
    scale = (np.max(np.abs(diag)) + 2) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    return np.max(np.abs(r)) / scale / np.finfo(float).eps


def _assert_agrees(x, ref, name):
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(x - ref)) <= 1e-13 * scale, name


def _newton_system(n, seed, boundary=dl.Boundary.PERIODIC):
    """J and the residual at the strong-coupling start of a random
    pattern on n sites, c = 4n, at its Rayleigh energy."""
    values = dl.build_asymptotic_state(dl.random_pattern(n, seed)).values
    state = dl.normalize(dl.LatticeState(values, boundary))
    params = dl.ModelParams(4.0 * n, boundary)
    energy = dl.rayleigh_energy(state, params)
    return dl.assemble_jacobian(state, params, energy), dl.residual(state, params, energy)


class TestAgainstScalarKernel:
    def test_corpus_systems(self):
        # the step system J x = F and the bordering system J x = psi
        for name, state, c in kernel_corpus():
            params = dl.ModelParams(c)
            energy = dl.rayleigh_energy(state, params)
            jac = dl.assemble_jacobian(state, params, energy)
            for rhs in (dl.residual(state, params, energy), state.values):
                ref = _scalar(jac.diag, rhs, jac.periodic)
                # below the threshold solve_linear is the scalar kernel itself
                assert np.array_equal(dl.solve_linear(jac, rhs), ref), name
                _assert_agrees(_partitioned_solve(jac.diag, rhs, jac.periodic), ref, name)

    @pytest.mark.parametrize("n", [10_000, 100_000, 1_000_000])
    def test_large_rings(self, n):
        jac, rhs = _newton_system(n, 1)
        x = dl.solve_linear(jac, rhs)
        assert np.array_equal(x, _partitioned_solve(jac.diag, rhs, True))
        _assert_agrees(x, _scalar(jac.diag, rhs, True), n)

    @pytest.mark.parametrize("boundary", [dl.Boundary.PERIODIC, dl.Boundary.OPEN])
    def test_prime_size(self, boundary):
        # 10007 sites: the blocks do not divide the ring
        jac, rhs = _newton_system(10_007, 2, boundary)
        _assert_agrees(dl.solve_linear(jac, rhs), _scalar(jac.diag, rhs, jac.periodic), 10_007)

    def test_open_chain(self):
        jac, rhs = _newton_system(20_000, 3, dl.Boundary.OPEN)
        assert not jac.periodic
        x = dl.solve_linear(jac, rhs)
        assert np.array_equal(x, _partitioned_solve(jac.diag, rhs, False))
        _assert_agrees(x, _scalar(jac.diag, rhs, False), "open")

    @pytest.mark.parametrize("periodic", [True, False])
    def test_weak_diagonal(self, periodic):
        # |d| < 2 everywhere, as at weak coupling: no diagonal dominance,
        # and |x| reaches 10^3-10^5 for |b| ~ 1, so two stable solvers
        # differ by up to the condition number times eps (7.7e-12 relative
        # on seed 7).  Both must solve to a small backward error; the
        # scalar kernel reaches up to 59 eps on such systems.
        n = 10_000
        for seed in range(5):
            rng = np.random.default_rng(seed)
            diag = rng.uniform(-1.9, 1.9, n)
            rhs = rng.standard_normal(n)
            x = dl.solve_linear(dl.JacobianMatrix(diag, periodic), rhs)
            # the partitioned path was taken, not the fallback
            assert np.array_equal(x, _partitioned_solve(diag, rhs, periodic)), seed
            assert _backward_error(diag, periodic, x, rhs) <= 64, seed
            ref = _scalar(diag, rhs, periodic)
            assert _backward_error(diag, periodic, ref, rhs) <= 64, seed

    @pytest.mark.parametrize("n, periodic", [(150, True), (10_000, True), (10_007, False),
                                             (100_000, True)])
    def test_stack_solves_each_row_alone(self, n, periodic):
        # the bordered step's pair J a = F, J b = psi through one
        # factorization: each row as if it were solved alone
        boundary = dl.Boundary.PERIODIC if periodic else dl.Boundary.OPEN
        jac, res = _newton_system(n, 4, boundary)
        psi = dl.normalize(dl.build_asymptotic_state(dl.random_pattern(n, 4))).values
        x = dl.solve_linear(jac, np.stack((res, psi)))
        assert x.shape == (2, n)
        for row, rhs in zip(x, (res, psi)):
            assert np.array_equal(row, dl.solve_linear(jac, rhs)), n
            _assert_agrees(row, _scalar(jac.diag, rhs, periodic), n)

    def test_stack_shape_checked(self):
        jac = dl.JacobianMatrix([4.0, 4.0, 4.0], periodic=True)
        for shape in ((2, 4), (2, 2, 3), ()):
            with pytest.raises(ValueError):
                dl.solve_linear(jac, np.ones(shape))

    def test_every_small_size(self):
        # every layout from one block on, random signs in the diagonal
        rng = np.random.default_rng(11)
        for n in range(3, 200):
            for periodic in (True, False):
                diag = rng.uniform(3.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
                rhs = rng.standard_normal(n)
                _assert_agrees(_partitioned_solve(diag, rhs, periodic),
                               _scalar(diag, rhs, periodic), (n, periodic))

    def test_every_small_size_stacked(self):
        rng = np.random.default_rng(12)
        for n in range(3, 200):
            for periodic in (True, False):
                diag = rng.uniform(3.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
                stack = rng.standard_normal((2, n))
                x = _partitioned_solve(diag, stack, periodic)
                for row, rhs in zip(x, stack):
                    _assert_agrees(row, _scalar(diag, rhs, periodic), (n, periodic))


class TestSingularity:
    def test_zero_chain_pivot_falls_back(self):
        # sites 1 and 2 open the first chain: its pivots are 1 and 1 - 1 = 0,
        # while the ring's own pivots there are about 0.89 and -0.13
        n = 10_000
        diag = np.full(n, 4.0)
        diag[1:3] = 1.0
        rhs = np.random.default_rng(4).standard_normal(n)
        assert _partitioned_solve(diag, rhs, True) is None
        x = dl.solve_linear(dl.JacobianMatrix(diag, periodic=True), rhs)
        assert np.array_equal(x, _scalar(diag, rhs, True))

    @pytest.mark.parametrize("gap", [1e-12, 1e-8, 1e-6])
    def test_small_chain_pivot_falls_back(self, gap):
        # the first chain's pivots are 1 and gap, above the pivot test; the
        # chain's inverse then holds entries of about 1/gap that cancel in
        # the last sweep, and only the backward-error test catches it
        n = 10_000
        diag = np.full(n, 4.0)
        diag[1:3] = 1.0, 1.0 + gap
        rhs = np.random.default_rng(4).standard_normal(n)
        assert _partitioned_solve(diag, rhs, True) is None
        x = dl.solve_linear(dl.JacobianMatrix(diag, periodic=True), rhs)
        assert np.array_equal(x, _scalar(diag, rhs, True))

    def test_nan_pivot_is_singular(self):
        diag = array("d", [4.0, float("nan"), 4.0])
        for periodic in (False, True):
            with pytest.raises(SingularJacobian):
                _tridiag_solve(diag, [array("d", [1.0, 1.0, 1.0])], periodic)
        with pytest.raises(SingularJacobian):
            dl.solve_linear(dl.JacobianMatrix(np.frombuffer(diag), periodic=True), np.ones(3))

    def test_singular_ring_raises(self):
        # the all-2 ring is the ring Laplacian, exactly singular
        n = 10_000
        diag = np.full(n, 2.0)
        assert n >= PARTITION_MIN_SITES
        assert _partitioned_solve(diag, np.ones(n), True) is None
        with pytest.raises(SingularJacobian):
            dl.solve_linear(dl.JacobianMatrix(diag, periodic=True), np.ones(n))


class TestGeneralOffDiagonal:
    """The scalar kernel with the hops of a reduced system."""

    def test_against_dense_solve(self):
        rng = np.random.default_rng(8)
        for n in (3, 4, 7, 30):
            for periodic in (False, True):
                diag = rng.uniform(3.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
                off = rng.uniform(-1.0, 1.0, n - 1)
                off[n // 2] = 0.0  # a hop that underflowed
                rhs = rng.standard_normal(n)
                [x] = _tridiag_solve(array("d", diag.tobytes()), [array("d", rhs.tobytes())],
                                     periodic, array("d", off.tobytes()))
                dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                if periodic:
                    dense[0, -1] += dl.newton.OFF_DIAGONAL
                    dense[-1, 0] += dl.newton.OFF_DIAGONAL
                ref = np.linalg.solve(dense, rhs)
                _assert_agrees(np.frombuffer(x), ref, (n, periodic))

    def test_unit_hops_are_the_default(self):
        rng = np.random.default_rng(9)
        n = 50
        diag = array("d", rng.uniform(3.0, 8.0, n).tobytes())
        rhs = array("d", rng.standard_normal(n).tobytes())
        for periodic in (False, True):
            assert (_tridiag_solve(diag, [rhs], periodic, array("d", [-1.0] * (n - 1)))
                    == _tridiag_solve(diag, [rhs], periodic))
