import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab.errors import (
    NoConvergence,
    SingularJacobian,
    SumTooSmall,
    ZeroState,
)
from dnse_lab import newton
from dnse_lab.newton import _rounding_floor

from conftest import alternating_spot_pattern, irregular_pair_pattern, random_state, traced_peak


class TestEnergyEstimate:
    def test_uniform_ring(self):
        state = dl.LatticeState(np.full(3, 1 / np.sqrt(3)))
        assert abs(dl.energy_estimate(state, dl.ModelParams(30.0)) + 10.0) <= 1e-12

    def test_single_spot(self):
        psi = np.zeros(9)
        psi[4] = 1.0
        assert dl.energy_estimate(dl.LatticeState(psi), dl.ModelParams(100.0)) == -100.0

    def test_antisymmetric_raises(self):
        state = dl.LatticeState([0.5, -0.5, 0.5, -0.5])
        with pytest.raises(SumTooSmall):
            dl.energy_estimate(state, dl.ModelParams(10.0))

    def test_open_boundary_rejected(self):
        state = dl.LatticeState([1.0, 0.0], dl.Boundary.OPEN)
        with pytest.raises(ValueError):
            dl.energy_estimate(state, dl.ModelParams(1.0, dl.Boundary.OPEN))


class TestRayleighEnergy:
    def test_uniform_ring(self):
        state = dl.LatticeState(np.full(3, 1 / np.sqrt(3)))
        assert abs(dl.rayleigh_energy(state, dl.ModelParams(30.0)) + 10.0) <= 1e-12

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroState):
            dl.rayleigh_energy(dl.LatticeState(np.zeros(3)), dl.ModelParams(1.0))

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        s = random_state(rng, 10)
        p = dl.ModelParams(0.0)  # linear operator: quotient is amplitude-free
        a = dl.rayleigh_energy(s, p)
        b = dl.rayleigh_energy(dl.LatticeState(3.0 * s.values), p)
        assert abs(a - b) <= 1e-12


class TestJacobianAssembly:
    def test_uniform_diag(self):
        state = dl.LatticeState(np.full(3, 1 / np.sqrt(3)))
        jac = dl.assemble_jacobian(state, dl.ModelParams(30.0), -10.0)
        assert np.allclose(jac.diag, 2.0 + 10.0 - 30.0)
        assert jac.periodic

    def test_zero_state_diag(self):
        jac = dl.assemble_jacobian(dl.LatticeState(np.zeros(4)), dl.ModelParams(5.0), 0.0)
        assert np.allclose(jac.diag, 2.0)

    def test_dense_matches_matvec(self):
        rng = np.random.default_rng(6)
        for periodic in (True, False):
            diag = rng.uniform(3, 6, 12)
            jac = dl.JacobianMatrix(diag, periodic=periodic)
            x = rng.standard_normal(12)
            assert np.allclose(jac.dense() @ x, jac.matvec(x))

    @pytest.mark.parametrize("periodic", [True, False])
    def test_dense_entries(self, periodic):
        # entry by entry: on rings of one and two sites the corners land on
        # the diagonal and on the hops
        rng = np.random.default_rng(7)
        for n in range(1, 30):
            diag = rng.uniform(-3, 3, n)
            ref = np.diag(diag)
            idx = np.arange(n - 1)
            ref[idx, idx + 1] = ref[idx + 1, idx] = -1.0
            if periodic:
                ref[0, -1] -= 1.0
                ref[-1, 0] -= 1.0
            assert np.array_equal(dl.JacobianMatrix(diag, periodic).dense(), ref), n


class TestLinearSolve:
    def test_residual_small(self):
        rng = np.random.default_rng(3)
        diag = rng.uniform(3.0, 8.0, 40)
        jac = dl.JacobianMatrix(diag, periodic=True)
        rhs = rng.standard_normal(40)
        x = dl.solve_linear(jac, rhs)
        assert np.max(np.abs(jac.matvec(x) - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_zero_pivot_detected(self):
        # open chain with diag (1, 1, ...): second pivot is 1 - 1 = 0
        jac = dl.JacobianMatrix([1.0, 1.0, 5.0], periodic=False)
        with pytest.raises(SingularJacobian):
            dl.solve_linear(jac, np.ones(3))

    def test_rhs_length_checked(self):
        jac = dl.JacobianMatrix([4.0, 4.0, 4.0], periodic=False)
        with pytest.raises(ValueError):
            dl.solve_linear(jac, np.ones(4))


class TestNewtonSolve:
    def test_uniform_ring_exact_start(self):
        state = dl.LatticeState(np.full(3, 1 / np.sqrt(3)))
        solved, energy, report = dl.newton_solve(state, dl.ModelParams(50.0))
        assert report.iterations == 0
        assert abs(energy + 50.0 / 3.0) <= 1e-12
        assert np.allclose(solved.values, state.values)

    def test_kink_state_exact_start(self):
        state = dl.build_asymptotic_state(dl.parse_pattern("+-0"))
        solved, energy, report = dl.newton_solve(state, dl.ModelParams(40.0))
        assert report.converged and report.iterations == 0
        assert abs(energy + 17.0) <= 1e-12

    def test_degenerate_coupling_still_converges(self):
        # at c = 18 the kink state and the uniform ring share E = -6
        state = dl.build_asymptotic_state(dl.parse_pattern("+-0"))
        solved, energy, report = dl.newton_solve(state, dl.ModelParams(18.0))
        assert report.converged
        assert abs(energy + 6.0) <= 1e-12

    def test_single_spot_fast_contraction(self):
        spec = dl.spot_pattern(21, [10], 1, [1])
        _, energy, report = dl.newton_solve(
            dl.build_asymptotic_state(spec), dl.ModelParams(100.0)
        )
        assert report.converged
        assert abs(energy - (2.0 - 100.0)) <= 2.0 / 100.0 * 2
        # strong-coupling contraction: each step shrinks the residual by >10x
        hist = report.residual_history
        for a, b in zip(hist[1:-1], hist[2:]):
            assert b <= 0.1 * a

    def test_translation_equivariance(self):
        spec = dl.spot_pattern(20, [3, 11], 1, [1, -1])
        base, e0, _ = dl.newton_solve(dl.build_asymptotic_state(spec), dl.ModelParams(30.0))
        for k in (1, 7):
            rot, ek, _ = dl.newton_solve(
                dl.build_asymptotic_state(spec.rotated(k)), dl.ModelParams(30.0)
            )
            assert abs(ek - e0) <= 1e-10
            assert np.max(np.abs(rot.values - base.rotated(k).values)) <= 1e-8

    def test_sign_flip_equivariance(self):
        spec = dl.spot_pattern(20, [3, 11], 1, [1, -1])
        start = dl.build_asymptotic_state(spec)
        a, ea, _ = dl.newton_solve(start, dl.ModelParams(30.0))
        b, eb, _ = dl.newton_solve(dl.LatticeState(-start.values), dl.ModelParams(30.0))
        assert abs(ea - eb) <= 1e-12
        assert np.max(np.abs(a.values + b.values)) <= 1e-10

    def test_report_histories_consistent(self, chain100_solution):
        _, _, energy, report = chain100_solution
        assert report.converged
        assert len(report.energy_history) == report.iterations + 1
        assert len(report.residual_history) == report.iterations + 1
        assert report.energy_history[-1] == energy
        assert report.residual_history[-1] <= 1e-12
        assert not report.structure_changed
        assert abs(report.final_norm - 1.0) <= 1e-12

    def test_converged_state_is_solution(self, chain100_solution):
        _, state, energy, _ = chain100_solution
        res = dl.residual(state, dl.ModelParams(24.0), energy)
        assert np.max(np.abs(res)) <= 1e-12

    def test_no_convergence_carries_report(self):
        # weak coupling from a poor start within a tiny iteration budget
        spec = dl.spot_pattern(30, [0, 7, 15, 22], 1, [1, -1, 1, -1])
        with pytest.raises(NoConvergence) as exc:
            dl.newton_solve(
                dl.build_asymptotic_state(spec),
                dl.ModelParams(5.0),
                dl.NewtonConfig(max_iter=2),
            )
        assert exc.value.report.iterations == 2
        assert not exc.value.report.converged
        assert isinstance(exc.value.state, dl.LatticeState)

    def test_singular_jacobian_carries_iterate(self):
        # at c = 0 the Jacobian at +0+0 is the singular ring Laplacian
        start = dl.normalize(dl.build_asymptotic_state(dl.parse_pattern("+0+0")))
        with pytest.raises(SingularJacobian) as exc:
            dl.newton_solve(start, dl.ModelParams(0.0))
        assert np.array_equal(exc.value.state.values, start.values)
        assert exc.value.energy == 0.0
        report = exc.value.report
        assert report.iterations == 0 and not report.converged
        assert report.energy_history == (exc.value.energy,)
        assert report.final_counts == dl.PatternCounts(2, 2, 0)

    @pytest.mark.parametrize("step", ["zero_state", "nan"])
    def test_degenerate_step_raises_with_iterate(self, monkeypatch, step):
        # a linear solve that returns psi itself steps to the all-zero state
        start = dl.normalize(dl.build_asymptotic_state(dl.parse_pattern("+0000+0000")))
        params = dl.ModelParams(30.0)
        fake = (lambda jac, res: start.values.copy()) if step == "zero_state" \
            else (lambda jac, res: np.full(jac.n, np.nan))
        monkeypatch.setattr(newton, "solve_linear", fake)
        with pytest.raises(SingularJacobian, match="degenerate state") as exc:
            dl.newton_solve(start, params)
        assert np.array_equal(exc.value.state.values, start.values)
        assert exc.value.energy == dl.energy_estimate(start, params)
        report = exc.value.report
        assert report.iterations == 0 and not report.converged
        assert report.energy_history == (exc.value.energy,)

    def test_open_chain_takes_rayleigh_energy(self):
        # the cubic estimator is defined for rings only: the first E is the
        # Rayleigh quotient of the start, and the last, after a bordered
        # correction, agrees with the Rayleigh quotient of the solution
        spec = dl.parse_pattern("+0000-0000", dl.Boundary.OPEN)
        params = dl.ModelParams(30.0, dl.Boundary.OPEN)
        start = dl.build_asymptotic_state(spec)
        state, energy, report = dl.newton_solve(start, params)
        assert report.converged and report.iterations > 0
        assert report.energy_history[0] == dl.rayleigh_energy(dl.normalize(start), params)
        assert abs(energy - dl.rayleigh_energy(state, params)) <= 1e-12
        assert np.max(np.abs(dl.residual(state, params, energy))) <= 1e-12

    def test_structure_change_flagged(self):
        # a random delocalized pattern at strong coupling collapses to a
        # localized ground state; the energy history jump must be flagged
        spec = dl.random_pattern(208, 0)
        _, energy, report = dl.newton_solve(
            dl.build_asymptotic_state(spec), dl.ModelParams(260.0)
        )
        assert report.converged
        assert report.structure_changed
        assert report.structure_change_iteration is not None
        assert report.structure_change_iteration >= 3

    def test_failure_report_describes_its_iterate(self):
        state = dl.build_asymptotic_state(irregular_pair_pattern())
        with pytest.raises(NoConvergence) as exc:
            dl.newton_solve(state, dl.ModelParams(40.0), dl.NewtonConfig(max_iter=2))
        report, last = exc.value.report, exc.value.state
        assert report.iterations == 2
        assert report.final_counts == dl.count_pattern(dl.quantize_state(last))
        assert report.final_norm == last.norm_squared()

    def test_bad_config_rejected(self):
        for tol in (-1.0, 0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                dl.NewtonConfig(tol_residual=tol)
        # at least one whole step: the loop's count never equals 2.5 or inf,
        # and a bool is an Integral, so True would pass for a budget of one
        for max_iter in (0, -1, 2.5, 2.0, float("inf"), float("nan"), True, False):
            with pytest.raises(ValueError):
                dl.NewtonConfig(max_iter=max_iter)
        assert dl.NewtonConfig(max_iter=np.int64(2)).max_iter == 2


class TestRoundingFloor:
    """At c = 4 10^4 a ring collapsed onto two sites of amplitude 1/sqrt(2)
    computes its residual there in steps of 2**-39 = 1.8e-12, above the
    default tolerance; it converges once the residual is within the
    rounding floor."""

    def test_two_site_floor(self):
        psi = np.zeros(10_000)
        psi[:2] = 1 / np.sqrt(2)
        floor = _rounding_floor(dl.LatticeState(psi), dl.ModelParams(4e4), -2e4)
        # above the stalls seen, 1 and 3 steps of 2**-39
        assert 3 * 2.0**-39 < floor < 8 * 2.0**-39

    @pytest.mark.parametrize("n, seed, spots", [(10_000, 73, 2), (10_000, 77, 2),
                                                (10_000, 86, 2), (10_000, 99, 2),
                                                (1000, 9, 1)])
    def test_collapsed_rings_converge(self, n, seed, spots):
        # each stalled at 1.8e-12 or 5.5e-12 until max_iter under one of
        # the two linear kernels, or both
        params = dl.ModelParams(4.0 * n)
        state, energy, report = dl.newton_solve(
            dl.build_asymptotic_state(dl.random_pattern(n, seed)), params)
        assert report.iterations <= 12
        assert report.residual_history[-1] <= _rounding_floor(state, params, energy)
        assert report.final_counts.n == spots

    def test_floor_below_tolerance(self, chain100_solution):
        # at the paper's couplings the floor is far below the tolerance
        _, state, energy, report = chain100_solution
        assert _rounding_floor(state, dl.ModelParams(24.0), energy) < 1e-13
        assert report.residual_history[-1] <= 1e-12


def _oracle_small_jacobian(state, params, energy):
    """The dense Newton matrix that N <= 2 lattices were once solved with."""
    psi = state.values
    n = psi.size
    diag = 2.0 - energy - 3.0 * params.c * psi**2
    if n == 1:
        if state.boundary is dl.Boundary.PERIODIC:
            # both neighbors are the site itself, the hops cancel
            return np.array([[-energy - 3.0 * params.c * psi[0] ** 2]])
        return np.array([[diag[0]]])
    off = -2.0 if state.boundary is dl.Boundary.PERIODIC else -1.0
    return np.array([[diag[0], off], [off, diag[1]]])


def _small_systems():
    """(state, params, energy) on 1 and 2 sites under both boundaries."""
    rng = np.random.default_rng(12)
    for n in (1, 2):
        for boundary in dl.Boundary:
            for _ in range(25):
                state = dl.LatticeState(rng.uniform(-1.0, 1.0, n), boundary)
                params = dl.ModelParams(float(rng.uniform(-30.0, 30.0)), boundary)
                yield state, params, float(rng.uniform(-20.0, 20.0))


class TestSmallLattices:
    def test_jacobian_matches_dense_oracle(self):
        for state, params, energy in _small_systems():
            ref = _oracle_small_jacobian(state, params, energy)
            jac = dl.assemble_jacobian(state, params, energy).dense()
            # a one-site ring folds its hops into d - 2: equal up to rounding
            assert np.max(np.abs(jac - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))

    def test_solve_matches_dense_solve(self):
        rng = np.random.default_rng(13)
        for state, params, energy in _small_systems():
            ref_matrix = _oracle_small_jacobian(state, params, energy)
            rhs = rng.standard_normal(state.n_sites)
            x = dl.solve_linear(dl.assemble_jacobian(state, params, energy), rhs)
            ref = np.linalg.solve(ref_matrix, rhs)
            scale = np.linalg.cond(ref_matrix) * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(x - ref)) <= 1e-14 * scale

    @pytest.mark.parametrize("diag", [[2.0, 2.0], [2.0], [2.0] * 4],
                             ids=["two_site", "one_site", "four_site"])
    def test_singular_ring_detected(self, diag):
        # [[2, -2], [-2, 2]], the 1x1 system 2 - 2 = 0, and the 4-site
        # ring Laplacian, diag 2 with corners -1
        with pytest.raises(SingularJacobian):
            dl.solve_linear(dl.JacobianMatrix(diag, periodic=True), np.ones(len(diag)))

    def test_single_site_ring(self):
        # both hops act on the same site and cancel: E = -c exactly
        state = dl.LatticeState([1.0])
        _, energy, report = dl.newton_solve(state, dl.ModelParams(7.0))
        assert report.converged
        assert abs(energy + 7.0) <= 1e-12

    def test_two_site_ring(self):
        state = dl.LatticeState(np.full(2, 1 / np.sqrt(2)))
        _, energy, report = dl.newton_solve(state, dl.ModelParams(10.0))
        assert report.converged
        assert abs(energy + 5.0) <= 1e-12


class TestSweep:
    def test_empty(self):
        state = dl.LatticeState([1.0, 0.0, 0.0])
        assert dl.sweep_c(state, dl.ModelParams(10.0), []) == []

    def test_non_monotone_rejected(self):
        state = dl.LatticeState([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            dl.sweep_c(state, dl.ModelParams(10.0), [10.0, 12.0, 11.0])

    def test_warm_start_continuation(self):
        spec = dl.spot_pattern(21, [10], 1, [1])
        initial = dl.build_asymptotic_state(spec)
        records = dl.sweep_c(initial, dl.ModelParams(20.0), np.arange(20.0, 41.0, 5.0))
        assert all(r.converged for r in records)
        energies = [r.energy for r in records]
        assert all(b < a for a, b in zip(energies, energies[1:]))  # E drops with c
        for rec in records:
            assert rec.counts == dl.PatternCounts(1, 1, 0)

    def test_strong_coupling_limit(self):
        spec = dl.spot_pattern(21, [10], 1, [1])
        initial = dl.build_asymptotic_state(spec)
        [rec] = dl.sweep_c(initial, dl.ModelParams(1e6), [1e6])
        assert rec.converged
        assert abs(rec.energy - (2.0 - 1e6)) <= 1e-3
        assert abs(rec.max_amplitude - 1.0) <= 1e-3

    @pytest.mark.parametrize("spec, c_values", [
        (alternating_spot_pattern(), [24.0, 24.0, 24.1, 24.1, 24.1, 24.2, 24.3, 24.4, 24.4]),
        # the CLI's c_from + k step with a step below the float spacing
        # at c_from (16384 at 1e20): 1e20 three times, then the next float
        (dl.spot_pattern(21, [10], 1, [1]), [1e20 + k * 4096.0 for k in range(6)]),
    ], ids=["chain100", "1e20"])
    def test_repeated_couplings(self, spec, c_values):
        records = dl.sweep_c(dl.build_asymptotic_state(spec), dl.ModelParams(c_values[0]),
                             c_values)
        assert all(r.converged for r in records)
        assert len({r.c for r in records}) < len(records)
        for a, b in zip(records, records[1:]):
            if a.c == b.c:
                assert abs(b.energy - a.energy) <= 1e-12 * abs(a.energy)

    def test_failure_recorded_not_raised(self):
        spec = dl.spot_pattern(30, [0, 7, 15, 22], 1, [1, -1, 1, -1])
        initial = dl.build_asymptotic_state(spec)
        config = dl.NewtonConfig(max_iter=2)
        records = dl.sweep_c(initial, dl.ModelParams(5.0), [5.0, 6.0], config)
        assert len(records) == 2
        assert any(not r.converged for r in records)
        for rec in records:
            if not rec.converged:
                assert rec.error in ("NoConvergence", "SingularJacobian")


def test_solve_memory_budget():
    # the traced peak of a 10^5-site solve (random ring, pattern seed 1,
    # c = 4N) is 4.98 MiB, about 6.5 arrays of N doubles, when each
    # iteration allocates only the arrays its arithmetic uses; holding the
    # start through the loop reads 5.74 MiB, hop products on the first
    # reduction level 5.36 MiB and keeping the pivot copy through the
    # residuals 5.35 MiB, and each breaks the budget
    n = 100_000
    start = dl.build_asymptotic_state(dl.random_pattern(n, 1))
    (_, _, report), peak = traced_peak(lambda: dl.newton_solve(start, dl.ModelParams(4.0 * n)))
    assert report.converged and report.bordered_from is not None
    assert peak <= 5.25 * 2**20, peak
