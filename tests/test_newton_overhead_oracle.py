"""newton_solve and sweep_c without their per-iteration wrappers, against
the code they replaced.

A Newton iterate, the Jacobian's diagonal and normalize's result are now
held as made, without a second copy and finiteness test (lattice._held);
the sums, the rounding floor's eps and the trits' magnitudes are each
taken once, with array methods; the loop builds the report once, with
its final counts and norm, and sweep_c makes each point's parameters
without dataclasses.replace; the bordered step's new psi is an array of
its own, and the scalar kernel takes its scale as max(max diag, -min
diag).  The code they replaced is kept below as the oracle, with the
scalar kernel and the quantizer of conftest (reference_tridiag_solve,
which scales by max(map(abs, diag)), and reference_quantize).  Both
must give the same bytes on the corpus, on the benchmark's two sweeps
and on every pattern of a 6-site ring at c = 400.  The layer calls that
the benchmark traces on those sweeps are pinned too.
"""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import dnse_lab as dl
from dnse_lab import newton
from dnse_lab.errors import NoConvergence, SingularJacobian, SumTooSmall, ZeroState
from dnse_lab.newton import (BORDERED_RESIDUAL, PREDICTOR_POINTS, STRUCTURE_CHANGE_THRESHOLD,
                             SUM_REL_THRESHOLD, JacobianMatrix, NewtonReport, SweepRecord,
                             _cyclic_reduction, _extrapolate, _jacobian_diagonal)

from conftest import BENCH_SWEEPS, CHAINS, CORPUS, reference_quantize, reference_tridiag_solve

# ------------------------------------------------------------ the oracles


def _oracle_normalized(values):
    norm2 = float(np.dot(values, values))
    if norm2 == 0.0:
        raise ZeroState("cannot normalize the zero state")
    values /= np.sqrt(norm2)
    return values


def _oracle_normalize(state):
    return dl.LatticeState(_oracle_normalized(np.array(state.values)), state.boundary)


def _oracle_energy_estimate(state, params):
    psi = state.values
    total = float(np.sum(psi))
    cutoff = SUM_REL_THRESHOLD * np.sqrt(psi.size)
    if abs(total) < cutoff:
        raise SumTooSmall(f"|sum psi| = {abs(total):.3e} below {cutoff:.3e}")
    cube = psi * psi
    cube *= psi
    return -params.c * float(np.sum(cube)) / total


def _oracle_estimate(state, params):
    if params.boundary is dl.Boundary.PERIODIC:
        try:
            return _oracle_energy_estimate(state, params)
        except SumTooSmall:
            pass
    return dl.rayleigh_energy(state, params)


def _oracle_solve_linear(jac, rhs):
    if isinstance(rhs, np.ndarray):
        shape = rhs.shape
    else:
        shape = (len(rhs), *np.shape(rhs[0]))
    if jac.n >= newton.REDUCTION_MIN_SITES:
        x = _cyclic_reduction(jac.diag, rhs, jac.periodic)
        if x is not None:
            return x
    rows = np.asarray(rhs, dtype=float).reshape(-1, jac.n).tolist()
    return np.array(reference_tridiag_solve(jac.diag.tolist(), rows, jac.periodic)).reshape(shape)


def _oracle_bordered_step(psi, energy, res, solve):
    a, b = solve((res, psi))
    den = np.dot(psi, b)
    if not den:
        raise SingularJacobian("bordered step: psi.b = 0")
    d_energy = (np.dot(psi, a) - (np.dot(psi, psi) - 1) / 2) / den
    new_psi = np.subtract(psi, a, out=a)
    b *= d_energy
    new_psi += b
    return new_psi, energy + d_energy


def _oracle_rounding_floor(state, params, energy):
    m = float(max(state.values.max(), -state.values.min()))
    return float(np.finfo(float).eps * m
                 * (6.0 + 2.0 * abs(energy) + 2.5 * abs(params.c) * m * m))


def _oracle_loop(state, energy, residual_of, step, tol_of, max_iter):
    e_hist, r_hist, bordered_from, failure = [], [], None, None
    for iterations in itertools.count():
        res = residual_of(state, energy)
        res_norm = max(res.max(), -res.min())
        e_hist.append(float(energy))
        r_hist.append(float(res_norm))
        tol = tol_of(state, energy)
        if not res_norm > tol or iterations == max_iter:
            break
        try:
            state, energy, bordered = step(state, energy, res, res_norm)
        except SingularJacobian as exc:
            failure = exc
            break
        if bordered and bordered_from is None:
            bordered_from = iterations
        del res
    changed_at = next((j for j in range(3, len(e_hist))
                       if abs(e_hist[j] - e_hist[j - 1]) > STRUCTURE_CHANGE_THRESHOLD), None)
    report = NewtonReport(iterations, tuple(e_hist), tuple(r_hist),
                          converged=bool(res_norm <= tol),
                          structure_change_iteration=changed_at, bordered_from=bordered_from)
    if failure is not None:
        raise SingularJacobian(str(failure), state=state, energy=energy, report=report) from failure
    if not report.converged:
        raise NoConvergence(state, energy, report)
    return state, energy, report


def _oracle_newton_solve(initial, params, config=dl.NewtonConfig()):
    """newton_solve as it was before the wrappers were trimmed."""

    def checked(values):
        if not np.all(np.isfinite(values)) or not np.any(values):
            raise SingularJacobian("Newton step produced a degenerate state")
        return values

    def step(state, energy, res, res_norm):
        jac = JacobianMatrix(diag=_jacobian_diagonal(state.values, params.c, energy),
                             periodic=state.boundary is dl.Boundary.PERIODIC)
        if res_norm <= BORDERED_RESIDUAL:
            values, energy = _oracle_bordered_step(state.values, energy, res,
                                                   lambda rhss: _oracle_solve_linear(jac, rhss))
            return dl.LatticeState(checked(values), state.boundary), float(energy), True
        delta = _oracle_solve_linear(jac, res)
        values = _oracle_normalized(checked(np.subtract(state.values, delta, out=delta)))
        state = dl.LatticeState(values, state.boundary)
        return state, _oracle_estimate(state, params), False

    def tolerance(state, energy):
        return max(config.tol_residual, _oracle_rounding_floor(state, params, energy))

    def described(report, state):
        return replace(report, final_counts=dl.count_pattern(reference_quantize(state)),
                       final_norm=state.norm_squared())

    start = [_oracle_normalize(initial)]
    energy = _oracle_estimate(start[0], params)
    try:
        state, energy, report = _oracle_loop(
            start.pop(), energy,
            lambda state, energy: dl.residual(state, params, energy),
            step, tolerance, config.max_iter)
    except (NoConvergence, SingularJacobian) as exc:
        exc.report = described(exc.report, exc.state)
        raise
    return state, energy, described(report, state)


def _oracle_sweep_c(initial, params, c_values, config=dl.NewtonConfig()):
    """sweep_c as it was before the wrappers were trimmed."""
    c_values = list(c_values)
    diffs = np.diff(c_values)
    if not (np.all(diffs >= 0) or np.all(diffs <= 0)):
        raise ValueError("c_values must be monotone")
    records = []
    initial = _oracle_normalize(initial)
    history, counts = [], None
    for c in map(float, c_values):
        start = (dl.LatticeState(_extrapolate(history, c), initial.boundary) if history
                 else initial)
        try:
            solved, energy, report = _oracle_newton_solve(start, replace(params, c=c), config)
        except (NoConvergence, SingularJacobian) as exc:
            solved, energy, report, error = None, exc.energy, exc.report, type(exc).__name__
        else:
            error = None
            if report.final_counts != counts:
                history.clear()
            elif history[-1][0] == c:
                history.pop()
            history.append((c, solved.values))
            del history[:-PREDICTOR_POINTS]
            counts = report.final_counts
        records.append(SweepRecord(
            c=c, energy=energy, converged=solved is not None, counts=report.final_counts,
            max_amplitude=None if solved is None else float(np.max(np.abs(solved.values))),
            iterations=report.iterations, structure_changed=report.structure_changed,
            error=error))
    return records


# ------------------------------------------------------------ comparisons


def _float_bits(x):
    return None if x is None else float(x).hex()


def _report_bits(report):
    return (report.iterations, np.array(report.energy_history).tobytes(),
            np.array(report.residual_history).tobytes(), report.converged,
            report.structure_change_iteration, report.final_counts,
            _float_bits(report.final_norm), report.bordered_from)


def _solve_bits(solve, initial, params, config=dl.NewtonConfig()):
    """The bytes of a solve's state, E and report, or of the failure it
    raised: its type, message, iterate, E and report."""
    try:
        state, energy, report = solve(initial, params, config)
        kind = "converged"
    except (NoConvergence, SingularJacobian) as exc:
        state, energy, report, kind = exc.state, exc.energy, exc.report, repr(exc)
    return kind, state.values.tobytes(), _float_bits(energy), _report_bits(report)


def _record_bits(record):
    return (_float_bits(record.c), _float_bits(record.energy), record.converged, record.counts,
            _float_bits(record.max_amplitude), record.iterations, record.structure_changed,
            record.error)


def _bench_sweep(member, sweep):
    """One of the benchmark's sweeps, from the chain's start."""
    return sweep(member.start(), dl.ModelParams(member.c), BENCH_SWEEPS[member.name])


# ------------------------------------------------------------ the tests


@pytest.mark.parametrize("member", CORPUS, ids=lambda m: m.name)
def test_corpus_solves_byte_equal(member):
    start, params = member.start(), dl.ModelParams(member.c)
    assert _solve_bits(dl.newton_solve, start, params) \
        == _solve_bits(_oracle_newton_solve, start, params)


def test_budget_exhausted_byte_equal():
    # a failure carries its report, completed with the final counts and norm
    start = dl.build_asymptotic_state(dl.random_pattern(208, 0))
    params, config = dl.ModelParams(832.0), dl.NewtonConfig(max_iter=2)
    bits = _solve_bits(dl.newton_solve, start, params, config)
    assert bits[0].startswith("NoConvergence")
    assert bits == _solve_bits(_oracle_newton_solve, start, params, config)


@pytest.mark.parametrize("member", CHAINS, ids=lambda m: m.name)
def test_benchmark_sweeps_byte_equal(member):
    records = _bench_sweep(member, newton.sweep_c)
    assert len(records) == 61 and all(r.converged for r in records)
    assert [_record_bits(r) for r in records] \
        == [_record_bits(r) for r in _bench_sweep(member, _oracle_sweep_c)]


def test_six_site_census_byte_equal():
    # every pattern of a 6-site ring, 3**6 - 1 = 728, from its
    # strong-coupling start at c = 400
    params = dl.ModelParams(400.0)
    patterns = [t for t in itertools.product((-1, 0, 1), repeat=6) if any(t)]
    assert len(patterns) == 728
    for trits in patterns:
        start = dl.build_asymptotic_state(dl.PatternSpec(trits))
        assert _solve_bits(dl.newton_solve, start, params) \
            == _solve_bits(_oracle_newton_solve, start, params), trits


def test_benchmark_sweeps_layer_calls(monkeypatch):
    # the calls bench/spans.py counts, wrapped where it wraps them: at the
    # newton module attributes through which the solver calls them
    calls = Counter()
    for name in ("solve_linear", "residual", "energy_estimate", "rayleigh_energy"):
        def counted(*args, _fn=getattr(newton, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "solve_linear":
                calls["sites"] += args[0].n
            return _fn(*args, **kwargs)

        monkeypatch.setattr(newton, name, counted)
    for member in CHAINS:
        _bench_sweep(member, newton.sweep_c)
    # a traced benchmark pass reads 340 and 68 Rayleigh calls: its two
    # polishes add one Rayleigh start each
    assert calls == {"solve_linear": 150, "sites": 17_340, "residual": 338,
                     "energy_estimate": 134, "rayleigh_energy": 66}


def test_iterates_hold_their_own_arrays(solved_corpus):
    # a held iterate is read-only and keeps no larger array alive
    state = solved_corpus["chain130"].state
    assert not state.values.flags.writeable and state.values.base is None
    jac = dl.assemble_jacobian(state, dl.ModelParams(40.0), -0.6)
    assert not jac.diag.flags.writeable and jac.diag.base is None
    normalized = dl.normalize(dl.LatticeState([3.0, 4.0]))
    assert not normalized.values.flags.writeable and normalized.values.tolist() == [0.6, 0.8]
    assert math.isclose(normalized.norm_squared(), 1.0)
