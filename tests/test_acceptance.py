"""End-to-end acceptance checks for the solver laboratory.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all); the assertions carry the same tolerances as the printed verdicts.
"""

import time

import numpy as np

import dnse_lab as dl
from dnse_lab.highprec import map_reproduction_error, polish_solution

from conftest import alternating_spot_pattern, irregular_pair_pattern


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def _solve_pattern(spec, c, **config_kwargs):
    config = dl.NewtonConfig(**config_kwargs) if config_kwargs else dl.NewtonConfig()
    return dl.newton_solve(dl.build_asymptotic_state(spec), dl.ModelParams(c), config)


def test_criterion_01_exact_three_site_eigenvalues():
    t0 = time.perf_counter()
    uniform = dl.parse_pattern("+++")
    uniform_ok = True
    for c in (10.0, 30.0, 50.0):
        state, energy, report = _solve_pattern(uniform, c)
        res = np.max(np.abs(dl.residual(state, dl.ModelParams(c), energy)))
        uniform_ok &= report.converged and res <= 1e-12 and abs(energy + c / 3.0) <= 1e-12

    kink = dl.parse_pattern("+-0")
    state, energy, report = _solve_pattern(kink, 40.0)
    res = np.max(np.abs(dl.residual(state, dl.ModelParams(40.0), energy)))
    kink_ok = report.converged and res <= 1e-12 and abs(energy + 17.0) <= 0.5
    elapsed = time.perf_counter() - t0
    ok = uniform_ok and kink_ok and elapsed < 1.0
    _report(1, ok, f"uniform E=-c/3 exact, kink E={energy:.6f} (target -17), {elapsed:.2f}s")
    assert uniform_ok and kink_ok
    assert elapsed < 1.0


def test_criterion_02_periodic_chain_reproduction():
    t0 = time.perf_counter()
    spec = alternating_spot_pattern()
    state, energy, report = _solve_pattern(spec, 24.0)
    cls = dl.classify_portrait(dl.phase_portrait(state))
    n_distinct = dl.distinct_points(dl.phase_portrait(state), 1e-6)
    elapsed = time.perf_counter() - t0
    ok = (
        report.converged
        and abs(energy + 0.4) <= 0.05
        and cls.label is dl.PortraitLabel.REGULAR_PERIODIC
        and cls.period == 20
        and n_distinct == 20
        and elapsed < 5.0
    )
    _report(2, ok, f"E={energy:.4f}, {cls.label.value} period={cls.period}, "
                   f"{n_distinct} distinct pts, {elapsed:.2f}s")
    assert report.converged
    assert abs(energy + 0.4) <= 0.05
    assert cls.label is dl.PortraitLabel.REGULAR_PERIODIC and cls.period == 20
    assert n_distinct == 20
    assert elapsed < 5.0


def test_criterion_03_amplitude_and_tail_trend():
    t0 = time.perf_counter()
    spec = alternating_spot_pattern()
    current = dl.build_asymptotic_state(spec)
    max_amps, tail_factors = [], []
    for c in np.arange(24.0, 30.0 + 0.5, 1.0):
        current, energy, _ = dl.newton_solve(current, dl.ModelParams(float(c)))
        max_amps.append(float(np.max(np.abs(current.values))))
        fit = dl.fit_tail(current, 0, (1, 4), energy=energy)
        tail_factors.append(fit.decay_factor_measured)
    elapsed = time.perf_counter() - t0
    amps_up = all(b > a for a, b in zip(max_amps, max_amps[1:]))
    tails_down = all(b < a for a, b in zip(tail_factors, tail_factors[1:]))
    ok = amps_up and tails_down and elapsed < 30.0
    _report(3, ok, f"max|psi| {max_amps[0]:.3f}->{max_amps[-1]:.3f} increasing={amps_up}, "
                   f"mu {tail_factors[0]:.3f}->{tail_factors[-1]:.3f} decreasing={tails_down}, "
                   f"{elapsed:.2f}s")
    assert amps_up and tails_down
    assert elapsed < 30.0


def test_criterion_04_irregular_chain_energy():
    t0 = time.perf_counter()
    spec = irregular_pair_pattern()
    state, energy, report = _solve_pattern(spec, 40.0)
    cls = dl.classify_portrait(dl.phase_portrait(state))
    elapsed = time.perf_counter() - t0
    target = (26.0 - 40.0) / 26.0
    energy_ok = abs(energy - target) <= 0.05
    ok = report.converged and energy_ok \
        and cls.label is not dl.PortraitLabel.REGULAR_PERIODIC and elapsed < 10.0
    _report(4, ok, f"E={energy:.4f} vs limit {target:.4f} (|dE|={abs(energy - target):.4f}, "
                   f"tol 0.05), {cls.label.value}, {elapsed:.2f}s; at c=40 the finite-c "
                   f"gap is a series in eps = n/c = {26 / 40:.2f} that starts at -eps^2 "
                   f"and sums to more than the tolerance, so the limit formula cannot be "
                   f"this sharp")
    assert report.converged
    assert cls.label is not dl.PortraitLabel.REGULAR_PERIODIC
    assert elapsed < 10.0
    # genuinely unattainable at c = 40: the converged energy sits a finite-c
    # correction below the strong-coupling value, a series in eps = n/c that
    # starts at -eps^2.  At eps = 0.65 it sums to -0.127; measured, it is
    # -0.045, -0.016 and -0.005 at c = 80, 160 and 320, not a 1/c decay
    assert energy_ok


def _portrait_matches_limit(state, spec, tol=1e-2):
    pts = dl.phase_portrait(state).points
    limits = np.array(sorted(dl.limit_points(spec)))
    dist = np.max(np.abs(pts[:, None, :] - limits[None, :, :]), axis=2)
    covered = np.all(dist.min(axis=1) <= tol)  # every portrait point near a limit
    hit = np.all(dist.min(axis=0) <= tol)      # every limit point realized
    return covered and hit


def test_criterion_05_strong_coupling_limit_points():
    t0 = time.perf_counter()
    details = []
    ok = True

    for name, spec, expected in [
        ("chain100", alternating_spot_pattern(), 5),
        ("chain130", irregular_pair_pattern(), 7),
    ]:
        n = dl.count_pattern(spec).n
        state, _, _ = _solve_pattern(spec, 1e4 * n)
        portrait = dl.phase_portrait(state)
        count = dl.distinct_points(portrait, 1e-2)
        match = _portrait_matches_limit(state, spec)
        ok &= count == expected == len(dl.limit_points(spec)) and match
        details.append(f"{name}:{count}/{expected}")

    for seed in range(3):
        spec = dl.random_pattern(60, seed)
        n = dl.count_pattern(spec).n
        state, _, _ = _solve_pattern(spec, 1e4 * n)
        portrait = dl.phase_portrait(state)
        count = dl.distinct_points(portrait, 1e-2)
        predicted = len(dl.limit_points(spec))
        ok &= count == predicted <= 9 and _portrait_matches_limit(state, spec)
        details.append(f"seed{seed}:{count}/{predicted}")

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(5, ok, f"clusters at tol 1e-2 [{', '.join(details)}], {elapsed:.2f}s")
    assert ok


def test_criterion_06_correction_scaling_law():
    spec = dl.spot_pattern(31, [15], 1, [1])
    limit = dl.build_asymptotic_state(spec)
    couplings = [1e2, 1e3, 1e4]
    deviations = []
    for c in couplings:
        state, _, _ = _solve_pattern(spec, c)
        deviations.append(float(np.max(np.abs(state.values - limit.values))))
    slope = float(np.polyfit(np.log(couplings), np.log(deviations), 1)[0])
    ok = abs(slope + 1.0) <= 0.1
    _report(6, ok, f"||psi(c)-psi_inf|| = {deviations}, log-log slope {slope:.4f} "
                   f"(target -1.0 +/- 0.1)")
    assert ok


def test_criterion_07_map_lattice_equivalence():
    # double precision cannot follow these hyperbolic orbits around the
    # ring (the per-period multiplier is ~1e2), so the identity is checked
    # after an extended-precision polish of each converged solution
    details = []
    ok = True
    for name, spec, c, dps in [
        ("chain100", alternating_spot_pattern(), 24.0, 60),
        ("chain130", irregular_pair_pattern(), 40.0, 80),
    ]:
        state, _, _ = _solve_pattern(spec, c)
        psi, energy = polish_solution(state, dl.ModelParams(c), dps=dps)
        max_dev, closure = map_reproduction_error(psi, energy, c, dps=dps)
        ok &= max_dev <= 1e-6 and closure <= 1e-6
        details.append(f"{name}: dev={max_dev:.2e} closure={closure:.2e}")
    _report(7, ok, "; ".join(details) + " (tol 1e-6)")
    assert ok


def test_criterion_08_energy_estimator_agreement():
    solutions = []
    state, _, _ = _solve_pattern(irregular_pair_pattern(), 40.0)
    solutions.append((state, 40.0))
    state, _, _ = _solve_pattern(dl.spot_pattern(21, [10], 1, [1]), 50.0)
    solutions.append((state, 50.0))
    for seed in (0, 3, 4):
        spec = dl.random_pattern(40, seed)
        state, _, _ = _solve_pattern(spec, 400.0)
        solutions.append((state, 400.0))

    checked = 0
    worst = 0.0
    for state, c in solutions:
        params = dl.ModelParams(c)
        total = abs(float(np.sum(state.values)))
        if total <= 1e-8 * np.sqrt(state.n_sites):
            continue
        gap = abs(dl.energy_estimate(state, params) - dl.rayleigh_energy(state, params))
        worst = max(worst, gap)
        checked += 1
    ok = checked >= 3 and worst <= 1e-8
    _report(8, ok, f"{checked} solutions, worst estimator gap {worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_09_random_configuration_properties():
    t0 = time.perf_counter()
    config = dl.NewtonConfig(tol_residual=1e-10)
    failures = []
    checked = 0
    for n_sites, c in [(208, 260.0), (1000, 4000.0)]:
        for seed in range(10):
            spec = dl.random_pattern(n_sites, seed)
            params = dl.ModelParams(c)
            try:
                state, energy, report = dl.newton_solve(
                    dl.build_asymptotic_state(spec), params, config
                )
            except (dl.errors.NoConvergence, dl.errors.SingularJacobian) as exc:
                if not (exc.report is not None and exc.report.structure_changed):
                    failures.append(f"{n_sites}/{seed}: no convergence, no structure flag")
                continue
            checked += 1
            counts = dl.count_pattern(dl.quantize_state(state))
            limit_energy = dl.strong_coupling_energy(counts, c)
            if abs(energy - limit_energy) > 0.1:
                failures.append(f"{n_sites}/{seed}: dE={abs(energy - limit_energy):.3f}")
            portrait = dl.phase_portrait(state)
            cls = dl.classify_portrait(portrait)
            if cls.label is dl.PortraitLabel.REGULAR_PERIODIC:
                failures.append(f"{n_sites}/{seed}: classified regular")
            # magnify around the densest part of the portrait: the point
            # closest to the centroid is guaranteed to survive every level
            pts = portrait.points
            center = pts[np.argmin(np.sum((pts - pts.mean(axis=0)) ** 2, axis=1))]
            half = np.maximum(np.ptp(pts, axis=0) / 2.0, 1e-6)
            levels = dl.zoom_report(
                portrait,
                (center[0] - half[0], center[0] + half[0],
                 center[1] - half[1], center[1] + half[1]),
                2,
            )
            if any(lv.empty for lv in levels):
                failures.append(f"{n_sites}/{seed}: empty zoom level")
            sizes = [lv.points.shape[0] for lv in levels]
            if sizes[1] > sizes[0]:
                failures.append(f"{n_sites}/{seed}: zoom not nested")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _report(9, ok, f"{checked}/20 converged runs checked, failures={failures or 'none'}, "
                   f"{elapsed:.1f}s")
    assert not failures
    assert elapsed < 300.0


def test_criterion_10_numerical_infrastructure():
    rng = np.random.default_rng(2024)
    worst_solve = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 51))
        periodic = bool(rng.integers(0, 2))
        diag = rng.uniform(3.0, 9.0, n) * rng.choice([-1.0, 1.0], n)
        jac = dl.JacobianMatrix(diag, periodic=periodic)
        rhs = rng.standard_normal(n)
        x = dl.solve_linear(jac, rhs)
        ref = np.linalg.solve(jac.dense(), rhs)
        worst_solve = max(worst_solve, float(np.max(np.abs(x - ref))))

    worst_grad = 0.0
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(3, 20))
        boundary = dl.Boundary.PERIODIC
        state = dl.LatticeState(rng.uniform(-1, 1, n), boundary)
        params = dl.ModelParams(float(rng.uniform(-10, 10)), boundary)
        energy = float(rng.uniform(-3, 3))
        grad = dl.gradient(state, params, energy)
        i = int(rng.integers(0, n))
        bump = np.zeros(n)
        bump[i] = h
        hp = dl.hamiltonian(dl.LatticeState(state.values + bump, boundary), params, energy)
        hm = dl.hamiltonian(dl.LatticeState(state.values - bump, boundary), params, energy)
        worst_grad = max(worst_grad, abs(grad[i] - (hp - hm) / (2 * h)))

    ok = worst_solve <= 1e-10 and worst_grad <= 1e-6
    _report(10, ok, f"linear solve vs dense oracle {worst_solve:.2e} (tol 1e-10), "
                    f"gradient vs finite differences {worst_grad:.2e} (tol 1e-6)")
    assert worst_solve <= 1e-10
    assert worst_grad <= 1e-6
