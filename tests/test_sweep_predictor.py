"""sweep_c's predicted starts against the zero-order sweep as oracle.

sweep_c starts each point from the Lagrange extrapolation in c through the
last newton.PREDICTOR_POINTS converged states.  The oracle,
_zero_order_sweep, is sweep_c before the predictor: each point starts from
the previous converged state.  Both must agree at every point: the same
convergence and quantized (n, m, l), E within 1e-9 relative and the
largest amplitude within 1e-10 wherever the state is determined that
closely (see _smallest_singular_value).  The sweeps are the benchmark's two
61-point sweeps of the paper's chains, chain130 down across its branch
point at c = 33.25, chain100 down to c = 0.5 (its n drifts 30 -> 50 -> 70),
an open chain, and a sweep with a failing point.
"""

from dataclasses import replace

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab import newton
from dnse_lab.errors import NoConvergence, SingularJacobian

from conftest import BENCH_SWEEPS, CHAINS, alternating_spot_pattern, irregular_pair_pattern


def _zero_order_sweep(initial, params, c_values, config=dl.NewtonConfig()):
    """(converged, counts, E, state, iterations) per point, each solve
    started from the previous converged state; state is None where the
    solve failed."""
    points, current = [], dl.normalize(initial)
    for c in c_values:
        try:
            solved, energy, report = dl.newton_solve(current, replace(params, c=float(c)), config)
        except (NoConvergence, SingularJacobian) as exc:
            solved, energy, report = None, exc.energy, exc.report
        else:
            current = solved
        points.append((solved is not None, report.final_counts, energy, solved,
                       report.iterations))
    return points


def _smallest_singular_value(state, c, energy):
    """Smallest singular value of the bordered (psi, E) Jacobian.

    Where it is below 1e-10 the residual tolerance 1e-12 leaves the state
    free along the near-null vector by more than 1e-2, and two starts
    converge to different points of that near-continuous family: chain100
    below c = 3.75 (it is 8e-11 at 3.5 and 6e-14 at 2.0), where sweep_c and
    the oracle differ in the largest amplitude by up to 3e-4 while E agrees
    to 1e-12."""
    params = dl.ModelParams(c, state.boundary)
    n = state.n_sites
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = dl.assemble_jacobian(state, params, energy).dense()
    bordered[:n, n] = -state.values
    bordered[n, :n] = state.values
    return np.linalg.svd(bordered, compute_uv=False)[-1]


def _steps(c_from, c_to, step):
    return [c_from + k * step for k in range(round((c_to - c_from) / step) + 1)]


def _chain_sweep(spec, c_from, c_to, step):
    return (dl.build_asymptotic_state(spec), dl.ModelParams(c_from),
            _steps(c_from, c_to, step), dl.NewtonConfig())


BENCHMARK_SWEEPS = ["chain100-up", "chain130-up"]
# name -> (initial state, params, couplings, config)
SWEEPS = {
    **{f"{m.name}-up": (m.start(), dl.ModelParams(m.c), BENCH_SWEEPS[m.name], dl.NewtonConfig())
       for m in CHAINS},
    "chain130-down": _chain_sweep(irregular_pair_pattern(), 40.0, 32.5, -0.25),
    "chain100-down": _chain_sweep(alternating_spot_pattern(), 24.0, 0.5, -0.25),
    "open": (dl.build_asymptotic_state(dl.parse_pattern("00+00000-000+0000-+000",
                                                        dl.Boundary.OPEN)),
             dl.ModelParams(30.0, dl.Boundary.OPEN), _steps(30.0, 20.0, -0.5),
             dl.NewtonConfig()),
    # the sweep of test_newton's TestSweep::test_failure_recorded_not_raised
    "failing": (dl.build_asymptotic_state(dl.spot_pattern(30, [0, 7, 15, 22], 1, [1, -1, 1, -1])),
                dl.ModelParams(5.0), [5.0, 6.0], dl.NewtonConfig(max_iter=2)),
}


@pytest.fixture(scope="module")
def sweeps():
    """name -> (sweep_c records, oracle points)."""
    return {name: (dl.sweep_c(*case), _zero_order_sweep(*case)) for name, case in SWEEPS.items()}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_same_states_as_zero_order_sweep(sweeps, name):
    records, oracle = sweeps[name]
    assert len(records) == len(oracle)
    for rec, (converged, counts, energy, state, _) in zip(records, oracle):
        where = f"{name}@{rec.c}"
        assert rec.converged == converged and rec.counts == counts, where
        assert abs(rec.energy - energy) <= 1e-9 * max(1.0, abs(energy)), where
        if converged and abs(rec.max_amplitude - np.max(np.abs(state.values))) > 1e-10:
            assert _smallest_singular_value(state, rec.c, energy) < 1e-10, where


def test_failing_sweep_keeps_its_failure(sweeps):
    records, _ = sweeps["failing"]
    assert any(not rec.converged for rec in records)


def test_chain130_crosses_the_branch_point_where_the_oracle_does(sweeps):
    records, _ = sweeps["chain130-down"]
    jump = next(rec for prev, rec in zip(records, records[1:])
                if abs(rec.energy - prev.energy) > 1.0)
    assert jump.c == 33.25 and jump.counts.n == 2
    assert abs(jump.energy + 14.6) < 0.1


def test_chain100_drifts_across_counts(sweeps):
    records, _ = sweeps["chain100-down"]
    assert all(rec.converged for rec in records)
    assert {30, 50, 70} <= {rec.counts.n for rec in records}


@pytest.mark.parametrize("name", BENCHMARK_SWEEPS)
def test_predicted_points_take_one_or_two_steps(sweeps, name):
    # The oracle takes 3 at every warm-started point.  A point after a
    # change of the quantized counts starts from that one state and takes
    # 3 as well: on chain130-up, n falls 52 -> 38 -> 26 at c = 42.5, 42.6.
    records, oracle = sweeps[name]
    assert all(point[-1] == 3 for point in oracle[1:]), name
    for k in range(newton.PREDICTOR_POINTS, len(records)):
        if records[k - 1].counts == records[k - 2].counts:
            assert records[k].iterations <= 2, f"{name}@{records[k].c}"
    assert sum(rec.iterations for rec in records) <= sum(point[-1] for point in oracle) / 2


class TestExtrapolate:
    def test_one_point_is_that_point(self):
        psi = np.array([0.5, -0.0, 1.0])
        start = newton._extrapolate([(2.0, psi)], 3.0)
        assert start.tobytes() == psi.tobytes()

    def test_reproduces_a_cubic(self):
        def psi(c):
            return np.array([c**3 - 2 * c, 1.0 + c**2])

        history = [(c, psi(c)) for c in (1.0, 1.5, 2.5, 3.0)]
        assert np.allclose(newton._extrapolate(history, 3.5), psi(3.5), rtol=1e-12, atol=0)
