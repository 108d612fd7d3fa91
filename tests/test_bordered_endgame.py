"""newton_solve's bordered endgame against the frozen-E iteration as oracle.

newton_solve takes frozen-E steps while the residual max-norm is above
newton.BORDERED_RESIDUAL and bordered (psi, E) steps below it.  The oracle,
_frozen_energy_solve, is the solver before the bordered steps were added:
frozen-E steps all the way down.  Both must end on the same states: same
convergence, same quantized (n, m, l), E within 1e-9 relative and psi
within 1e-10, on the paper's chains, random rings with N in {208, 1000}
and seeds 0-9 at c = 4N, an open chain of 500 sites, and the two 61-point
coupling sweeps of the chains.
"""

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab import newton
from dnse_lab.errors import SingularJacobian
from dnse_lab.newton import BORDERED_RESIDUAL, _estimate, _rounding_floor

from conftest import BENCH_SWEEPS, CHAINS, CORPUS, irregular_pair_pattern


def _frozen_energy_solve(initial, params, config=dl.NewtonConfig()):
    """(state, E, converged) of frozen-E Newton steps, each followed by
    renormalization and a fresh energy estimate (the solver's own
    newton._estimate), stopping at the tolerance or the rounding floor."""
    state = dl.normalize(initial)
    energy = _estimate(state, params)
    for iterations in range(config.max_iter + 1):
        res = dl.residual(state, params, energy)
        tol = max(config.tol_residual, _rounding_floor(state, params, energy))
        if np.max(np.abs(res)) <= tol:
            return state, energy, True
        if iterations == config.max_iter:
            break
        step = dl.solve_linear(dl.assemble_jacobian(state, params, energy), res)
        state = dl.normalize(dl.LatticeState(state.values - step, state.boundary))
        energy = _estimate(state, params)
    return state, energy, False


def _counts(state):
    return dl.count_pattern(dl.quantize_state(state))


@pytest.fixture(scope="module")
def solved(solved_corpus):
    """name -> (start, params, newton_solve result) of the corpus and of
    an open 500-site chain."""
    found = {m.name: (m.start(), dl.ModelParams(m.c), solved_corpus[m.name][:3]) for m in CORPUS}
    start = dl.LatticeState(dl.build_asymptotic_state(dl.random_pattern(500, 0)).values,
                            dl.Boundary.OPEN)
    params = dl.ModelParams(2000.0, dl.Boundary.OPEN)
    found["open500/0"] = (start, params, dl.newton_solve(start, params))
    return found


def _sweeps():
    for m in CHAINS:
        yield m.name, m.start(), m.c, BENCH_SWEEPS[m.name]


def _oracle_sweep(initial, c0, c_values):
    """(state, E, converged) per point, each warm-started from the last
    converged state, as sweep_c does."""
    current, points = dl.normalize(initial), []
    for c in c_values:
        state, energy, converged = _frozen_energy_solve(current, dl.ModelParams(c))
        points.append((state, energy, converged))
        if converged:
            current = state
    return points


def _assert_same_state(name, state, energy, converged, ref):
    ref_state, ref_energy, ref_converged = ref
    assert converged == ref_converged, name
    assert _counts(state) == _counts(ref_state), name
    assert abs(energy - ref_energy) <= 1e-9 * max(1.0, abs(ref_energy)), name
    assert np.max(np.abs(state.values - ref_state.values)) <= 1e-10, name


def test_same_states_as_frozen_energy_iteration(solved):
    for name, (start, params, (state, energy, report)) in solved.items():
        _assert_same_state(name, state, energy, report.converged,
                           _frozen_energy_solve(start, params))


def test_sweeps_find_the_same_states(monkeypatch):
    starts = []

    def recording(start, *args):
        starts.append(start)
        return dl.newton_solve(start, *args)

    monkeypatch.setattr(newton, "newton_solve", recording)
    for name, initial, c0, c_values in _sweeps():
        starts.clear()
        records = dl.sweep_c(initial, dl.ModelParams(c0), c_values)
        # re-solve each point from the state sweep_c predicted for it
        for rec, start, ref in zip(records, starts, _oracle_sweep(initial, c0, c_values),
                                   strict=True):
            state, energy, report = dl.newton_solve(start, dl.ModelParams(rec.c))
            assert rec.energy == energy and rec.iterations == report.iterations
            _assert_same_state(f"{name}@{rec.c}", state, energy, rec.converged, ref)


def test_warm_started_sweep_points_converge_quadratically():
    # the frozen-E iteration took 20-44 iterations at each of these points
    for name, initial, c0, c_values in _sweeps():
        records = dl.sweep_c(initial, dl.ModelParams(c0), c_values)
        assert all(rec.converged for rec in records), name
        assert max(rec.iterations for rec in records[1:]) <= 5, name


def test_bordered_from_marks_the_switch(solved):
    for name, (_, _, (_, _, report)) in solved.items():
        k = report.bordered_from
        assert report.as_dict()["bordered_from"] == k
        if k is None:
            assert all(r > BORDERED_RESIDUAL for r in report.residual_history[:-1]), name
            continue
        hist = report.residual_history
        assert all(r > BORDERED_RESIDUAL for r in hist[:k]), name
        assert hist[k] <= BORDERED_RESIDUAL and k < report.iterations, name
    # a start within the bordered phase takes only bordered steps
    state, _, report = solved["chain100"][2]
    _, _, warm = dl.newton_solve(state, dl.ModelParams(24.1))
    assert warm.bordered_from == 0


def test_report_counts_are_the_quantized_pattern(solved):
    for name, (_, _, (state, _, report)) in solved.items():
        assert report.final_counts == _counts(state), name


def test_bordered_step_uses_one_stacked_solve(monkeypatch):
    calls = []

    def counting(jac, rhs):
        calls.append(np.shape(rhs))
        return solve(jac, rhs)

    solve = newton.solve_linear
    monkeypatch.setattr(newton, "solve_linear", counting)
    _, _, report = dl.newton_solve(dl.build_asymptotic_state(irregular_pair_pattern()),
                                   dl.ModelParams(40.0))
    k = report.bordered_from
    assert len(calls) == report.iterations
    assert calls[:k] == [(130,)] * k and calls[k:] == [(2, 130)] * (report.iterations - k)


def test_zero_border_product_is_singular():
    # psi.b = 0 leaves dE undefined
    psi = np.array([1.0, -1.0])
    with pytest.raises(SingularJacobian, match="psi.b = 0"):
        newton._bordered_step(psi, 0.0, psi, lambda rhss: (rhss[0], np.array([1.0, 1.0])))
