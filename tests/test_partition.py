"""The cyclic-reduction float64 solve against the scalar kernel as its oracle.

solve_linear takes cyclic reduction from REDUCTION_MIN_SITES sites on and
the scalar kernel below.  Here both kernels are also called directly on
every system of the corpus, so that both paths meet on each of them;
they must agree to 1e-13 relative.  Systems that are not diagonally
dominant are ill-conditioned, and there the two are compared by backward
error.
"""

from array import array

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab import newton
from dnse_lab.errors import SingularJacobian
from dnse_lab.newton import REDUCTION_MIN_SITES, _cyclic_reduction, _reduce, _tridiag_solve

from conftest import (CORPUS, alternating_spot_pattern, irregular_pair_pattern, newton_system,
                      reference_tridiag_solve, traced_peak)


def _scalar(diag, rhs, periodic):
    """The scalar kernel on array('d') copies of diag and of each row of
    rhs, (N,) or (K, N): solve_linear's float64 glue and kernel before the
    kernel ran on lists, kept as the oracle of its scalar branch."""
    xs = [np.frombuffer(x) for x in
          reference_tridiag_solve(array("d", diag.tobytes()),
                                  [array("d", b.tobytes()) for b in rhs.reshape(-1, diag.size)],
                                  periodic)]
    return xs[0] if rhs.ndim == 1 else np.stack(xs)


def _backward_error(diag, periodic, x, rhs):
    """max|J x - rhs| over max|J| max|x| + max|rhs|, in machine epsilons."""
    r = dl.JacobianMatrix(diag, periodic).matvec(x) - rhs
    scale = (np.max(np.abs(diag)) + 2) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    return np.max(np.abs(r)) / scale / np.finfo(float).eps


def _assert_agrees(x, ref, name):
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(x - ref)) <= 1e-13 * scale, name


class TestAgainstScalarKernel:
    def test_corpus_systems(self, kernel_corpus):
        # the step system J x = F and the bordering system J x = psi
        for name, state, c in kernel_corpus:
            params = dl.ModelParams(c)
            energy = dl.rayleigh_energy(state, params)
            jac = dl.assemble_jacobian(state, params, energy)
            for rhs in (dl.residual(state, params, energy), state.values):
                ref = _scalar(jac.diag, rhs, jac.periodic)
                reduced = _cyclic_reduction(jac.diag, rhs, jac.periodic)
                # solve_linear is the kernel the threshold selects, bit for bit
                chosen = reduced if jac.n >= REDUCTION_MIN_SITES else ref
                assert np.array_equal(dl.solve_linear(jac, rhs), chosen), name
                _assert_agrees(reduced, ref, name)

    @pytest.mark.parametrize("n", [10_000, 100_000, 1_000_000])
    def test_large_rings(self, n):
        jac, rhs, _ = newton_system(n, 1)
        x = dl.solve_linear(jac, rhs)
        assert np.array_equal(x, _cyclic_reduction(jac.diag, rhs, True))
        _assert_agrees(x, _scalar(jac.diag, rhs, True), n)

    @pytest.mark.parametrize("boundary", [dl.Boundary.PERIODIC, dl.Boundary.OPEN])
    def test_prime_size(self, boundary):
        # 10007 sites: levels of odd size, on a ring and on a chain
        jac, rhs, _ = newton_system(10_007, 2, boundary)
        _assert_agrees(dl.solve_linear(jac, rhs), _scalar(jac.diag, rhs, jac.periodic), 10_007)

    def test_open_chain(self):
        jac, rhs, _ = newton_system(20_000, 3, dl.Boundary.OPEN)
        assert not jac.periodic
        x = dl.solve_linear(jac, rhs)
        assert np.array_equal(x, _cyclic_reduction(jac.diag, rhs, False))
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
            # the reduction was taken, not the fallback
            assert np.array_equal(x, _cyclic_reduction(diag, rhs, periodic)), seed
            assert _backward_error(diag, periodic, x, rhs) <= 64, seed
            ref = _scalar(diag, rhs, periodic)
            assert _backward_error(diag, periodic, ref, rhs) <= 64, seed

    @pytest.mark.parametrize("n, periodic", [(150, True), (10_000, True), (10_007, False),
                                             (100_000, True)])
    def test_stack_solves_each_row_alone(self, n, periodic):
        # the bordered step's pair J a = F, J b = psi through one
        # factorization: each row as if it were solved alone
        boundary = dl.Boundary.PERIODIC if periodic else dl.Boundary.OPEN
        jac, res, psi = newton_system(n, 4, boundary)
        x = dl.solve_linear(jac, np.stack((res, psi)))
        assert x.shape == (2, n)
        for row, rhs in zip(x, (res, psi)):
            assert np.array_equal(row, dl.solve_linear(jac, rhs)), n
            _assert_agrees(row, _scalar(jac.diag, rhs, periodic), n)

    @pytest.mark.parametrize("n", [208, 1000, 10_000])
    @pytest.mark.parametrize("boundary", [dl.Boundary.PERIODIC, dl.Boundary.OPEN],
                             ids=lambda b: b.value)
    def test_rows_solve_as_their_stack(self, n, boundary):
        # the bordered step hands solve_linear its two rows unstacked: the
        # same bytes as the stack, by the scalar kernel below
        # REDUCTION_MIN_SITES and by the reduction above, rows untouched
        jac, res, psi = newton_system(n, 2, boundary)
        a, b = res.copy(), psi.copy()
        x = dl.solve_linear(jac, (a, b))
        assert x.shape == (2, n)
        assert x.tobytes() == dl.solve_linear(jac, np.stack((res, psi))).tobytes()
        assert a.tobytes() == res.tobytes() and b.tobytes() == psi.tobytes()

    def test_ragged_rows_rejected(self):
        for n in (3, 1000):
            jac = dl.JacobianMatrix(np.full(n, 4.0), periodic=True)
            with pytest.raises(ValueError):
                dl.solve_linear(jac, (np.ones(n), np.ones(n - 1)))

    def test_stack_shape_checked(self):
        jac = dl.JacobianMatrix([4.0, 4.0, 4.0], periodic=True)
        for shape in ((2, 4), (2, 2, 3), ()):
            with pytest.raises(ValueError):
                dl.solve_linear(jac, np.ones(shape))

    def test_every_small_size(self):
        # every parity of the levels, random signs in the diagonal: the
        # wrap of an even ring closes on site 0, an odd one keeps its wrap
        # hop, a two-site ring adds its hops and a one-site ring folds to
        # d + 2 wrap
        rng = np.random.default_rng(11)
        for n in range(1, 200):
            for periodic in (True, False):
                diag = rng.uniform(3.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
                rhs = rng.standard_normal(n)
                _assert_agrees(_cyclic_reduction(diag, rhs, periodic),
                               _scalar(diag, rhs, periodic), (n, periodic))

    def test_every_small_size_stacked(self):
        rng = np.random.default_rng(12)
        for n in range(1, 200):
            for periodic in (True, False):
                diag = rng.uniform(3.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
                stack = rng.standard_normal((2, n))
                x = _cyclic_reduction(diag, stack, periodic)
                for row, rhs in zip(x, stack):
                    _assert_agrees(row, _scalar(diag, rhs, periodic), (n, periodic))


class TestScalarBranchAgainstArrayGlue:
    """solve_linear's scalar branch runs the kernel on lists; its old
    array('d') glue must give the same bits."""

    @pytest.fixture(autouse=True)
    def scalar_branch(self, monkeypatch):
        monkeypatch.setattr(newton, "REDUCTION_MIN_SITES", 10**9)

    @staticmethod
    def _check(diag, rhs, periodic, name):
        x = dl.solve_linear(dl.JacobianMatrix(diag, periodic), rhs)
        assert x.shape == rhs.shape and x.dtype == np.float64, name
        assert x.tobytes() == _scalar(np.asarray(diag, dtype=float), rhs, periodic).tobytes(), name

    def test_corpus_systems(self, kernel_corpus):
        # the acceptance chains at their couplings and the random rings at
        # their c = 4N starts; open and periodic, one rhs and two
        for name, state, c in kernel_corpus:
            params = dl.ModelParams(c)
            energy = dl.rayleigh_energy(state, params)
            diag = dl.assemble_jacobian(state, params, energy).diag
            res = dl.residual(state, params, energy)
            for periodic in (True, False):
                for rhs in (res, state.values, np.stack((res, state.values))):
                    self._check(diag, rhs, periodic, (name, periodic, rhs.shape))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_rings(self, n):
        # a one-site ring folds its hops into the diagonal; on two sites
        # the corners land on the off-diagonals
        rng = np.random.default_rng(n)
        for periodic in (True, False):
            diag = rng.uniform(3.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
            for rhs in (rng.standard_normal(n), rng.standard_normal((2, n))):
                self._check(diag, rhs, periodic, (n, periodic, rhs.shape))


class TestThreshold:
    """The fork in solve_linear: the scalar kernel below REDUCTION_MIN_SITES
    sites, cyclic reduction from it on."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["one-rhs", "two-rhs"])
    def test_kernel_on_either_side(self, stacked):
        for n in (REDUCTION_MIN_SITES - 1, REDUCTION_MIN_SITES):
            jac, res, _ = newton_system(n, 5)
            rhs = np.stack((res, np.ones(n))) if stacked else res
            if n < REDUCTION_MIN_SITES:
                ref = _scalar(jac.diag, rhs, True)
            else:
                ref = _cyclic_reduction(jac.diag, rhs, True)
            assert np.array_equal(dl.solve_linear(jac, rhs), ref), n

    def test_paper_chains_take_the_scalar_kernel(self):
        for spec in (alternating_spot_pattern(), irregular_pair_pattern()):
            assert len(spec.trits) < REDUCTION_MIN_SITES


class TestSingularity:
    @pytest.mark.parametrize("site, value", [(1, 0.0), (2, 0.5)], ids=["level0", "level1"])
    def test_zero_pivot_falls_back(self, site, value):
        # with the rest of the ring at 4, d = 0 on site 1 is a zero pivot on
        # the first level, and d = 0.5 on site 2 becomes 0.5 - 1/4 - 1/4 = 0
        # on the second; the ring's own Thomas pivots there are not small
        n = 10_000
        diag = np.full(n, 4.0)
        diag[site] = value
        rhs = np.random.default_rng(4).standard_normal(n)
        assert _cyclic_reduction(diag, rhs, True) is None
        x = dl.solve_linear(dl.JacobianMatrix(diag, periodic=True), rhs)
        assert np.array_equal(x, _scalar(diag, rhs, True))
        assert _backward_error(diag, True, x, rhs) <= 64

    @pytest.mark.parametrize("gap", [1e-12, 1e-8, 1e-6])
    def test_small_pivot_falls_back(self, gap):
        # a first-level pivot of gap passes the pivot test; its weight 1/gap
        # enters both neighbours and cancels only to about eps/gap, so the
        # backward-error test sends the system to the scalar sweep
        n = 10_000
        diag = np.full(n, 4.0)
        diag[1] = gap
        rhs = np.random.default_rng(4).standard_normal(n)
        assert _cyclic_reduction(diag, rhs, True) is None
        x = dl.solve_linear(dl.JacobianMatrix(diag, periodic=True), rhs)
        assert np.array_equal(x, _scalar(diag, rhs, True))

    def test_nan_pivot_is_singular(self):
        diag = [4.0, float("nan"), 4.0]
        for periodic in (False, True):
            with pytest.raises(SingularJacobian):
                _tridiag_solve(diag, [[1.0, 1.0, 1.0]], periodic)
        with pytest.raises(SingularJacobian):
            dl.solve_linear(dl.JacobianMatrix(diag, periodic=True), np.ones(3))

    def test_singular_ring_raises(self):
        # the all-2 ring is the ring Laplacian, exactly singular
        n = 10_000
        diag = np.full(n, 2.0)
        assert n >= REDUCTION_MIN_SITES
        assert _cyclic_reduction(diag, np.ones(n), True) is None
        with pytest.raises(SingularJacobian):
            dl.solve_linear(dl.JacobianMatrix(diag, periodic=True), np.ones(n))


class TestPivotSigns:
    """The copy of the diagonal that the reduction leaves holds every
    reciprocal pivot of a chain of Schur complements, so by Sylvester's law
    of inertia (Haynsworth 1968) its negative entries are as many as the
    negative eigenvalues of J: the Morse index of the state.  On an open
    chain or an even ring, flipping the sign of every hop is a similarity
    (diag(+-1) on alternate sites) and leaves the eigenvalues as they are;
    on an odd ring it is not, so only an odd ring can show a hop of the
    wrong sign.  The random odd rings at c = 4N do not: their states are
    localized and their diagonals dominant, so their Morse index is the
    same for either sign.  The uniform state of an odd ring at weak
    coupling is extended, and the sign moves its index by one."""

    @pytest.fixture(scope="class")
    def final_iterates(self, solved_corpus):
        """(name, psi, c, E) of the corpus, of odd rings (N in {207, 1001},
        seeds 0-2) at c = 4N, and of the uniform state of the odd rings at
        c = N/10 and 9N/10, solved."""
        found = [(m.name, solved_corpus[m.name].state.values, m.c, solved_corpus[m.name].energy)
                 for m in CORPUS]
        for n in (207, 1001):
            for seed in range(3):
                start = dl.build_asymptotic_state(dl.random_pattern(n, seed))
                state, energy, _ = dl.newton_solve(start, dl.ModelParams(4.0 * n))
                found.append((f"ring{n}/{seed}", state.values, 4.0 * n, energy))
            for c in (n / 10, 9 * n / 10):
                state, energy, _ = dl.newton_solve(dl.LatticeState(np.ones(n)), dl.ModelParams(c))
                found.append((f"uniform{n}/{c:g}", state.values, c, energy))
        return found

    @staticmethod
    def _counts(psi, c, energy, boundary, g, wrap):
        """The negative pivots that _reduce leaves with the hops g and the
        wrap wrap, and the negative eigenvalues of J."""
        jac = dl.assemble_jacobian(dl.LatticeState(psi, boundary), dl.ModelParams(c, boundary),
                                   energy)
        pivots = jac.diag.copy()
        _reduce(pivots, g, wrap, np.empty((0, jac.n)))
        return (np.count_nonzero(pivots < 0),
                np.count_nonzero(np.linalg.eigvalsh(jac.dense()) < 0))

    @pytest.mark.parametrize("boundary", [dl.Boundary.PERIODIC, dl.Boundary.OPEN])
    def test_negative_pivots_count_negative_eigenvalues(self, final_iterates, boundary):
        wrap = 1.0 if boundary is dl.Boundary.PERIODIC else -0.0
        for name, psi, c, energy in final_iterates:
            negative, index = self._counts(psi, c, energy, boundary, None, wrap)
            assert negative == index, name

    def test_wrong_hop_sign_miscounts(self, final_iterates):
        # J's hops -1 passed as they are, where _reduce carries them negated
        for name, psi, c, energy in final_iterates:
            if name.startswith("uniform"):
                negative, index = self._counts(psi, c, energy, dl.Boundary.PERIODIC,
                                               np.broadcast_to(-1.0, psi.size - 1), -1.0)
                assert abs(negative - index) == 1, name


def test_stacked_solve_memory():
    # the bordered step's (2, N) solve at N = 10^5: the solutions, one copy
    # of the diagonal and the hops of the third level on, 3.52 N doubles;
    # hop products on the first level, or the pivot copy held through the
    # residuals, read 4.0 N
    n = 100_000
    jac, res, _ = newton_system(n, 1)
    rhs = np.stack((res, np.ones(n)))
    _, peak = traced_peak(lambda: dl.solve_linear(jac, rhs))
    assert peak <= 3.75 * n * 8, peak


def test_scalar_fallback_memory():
    # a ring the reduction refuses (a pivot of 1e-8 on site 1) falls back to
    # the scalar kernel on lists of floats, 32 bytes a site where the
    # array('d') glue took 8: traced peak 22.4 MB with two rhs at 10^5
    # sites, against 5.8 MB for that glue
    n = 100_000
    diag = np.full(n, 4.0)
    diag[1] = 1e-8
    rhs = np.random.default_rng(4).standard_normal((2, n))
    assert _cyclic_reduction(diag, rhs, True) is None
    jac = dl.JacobianMatrix(diag, periodic=True)
    _, peak = traced_peak(lambda: dl.solve_linear(jac, rhs))
    assert peak <= 24e6


def test_newton_solve_against_scalar_kernel(monkeypatch):
    # whole solves with the reduction and with the scalar sweep forced, on
    # rings of 10^4 sites at c = 4N: same state, energy and iteration count
    n = 10_000
    runs = {}
    for threshold in (REDUCTION_MIN_SITES, n + 1):
        monkeypatch.setattr(newton, "REDUCTION_MIN_SITES", threshold)
        runs[threshold] = [dl.newton_solve(dl.build_asymptotic_state(dl.random_pattern(n, seed)),
                                           dl.ModelParams(4.0 * n)) for seed in range(20)]
    for seed, (fast, scalar) in enumerate(zip(runs[REDUCTION_MIN_SITES], runs[n + 1])):
        assert (dl.count_pattern(dl.quantize_state(fast[0]))
                == dl.count_pattern(dl.quantize_state(scalar[0]))), seed
        assert abs(fast[1] - scalar[1]) <= 1e-9, seed
        assert fast[2].iterations == scalar[2].iterations, seed
