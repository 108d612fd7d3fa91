import functools
import math
import random
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from mpmath import libmp, mp, mpf

import dnse_lab as dl
from dnse_lab.errors import NoConvergence, SingularJacobian
from dnse_lab import highprec
from dnse_lab.highprec import map_reproduction_error, polish_solution
from dnse_lab.lattice import _stencil_residual
from dnse_lab.mapdyn import MapState, map_step
from dnse_lab.newton import _bordered_step, _jacobian_diagonal, _newton_loop, _tridiag_solve

from conftest import alternating_spot_pattern, irregular_pair_pattern, reference_tridiag_solve


def _random_system(rng, n):
    diag = rng.uniform(3.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
    return [mpf(float(d)) for d in diag], [mpf(float(b)) for b in rng.standard_normal(n)]


def _dense_mp(diag, periodic):
    n = len(diag)
    a = mp.matrix(n, n)
    for i in range(n):
        a[i, i] = diag[i]
        if i + 1 < n:
            a[i, i + 1] = a[i + 1, i] = -1
    if periodic:
        a[0, n - 1] += -1
        a[n - 1, 0] += -1
    return a


class TestMpKernel:
    def test_against_dense_lu(self):
        rng = np.random.default_rng(5)
        with mp.workdps(50):
            for n in (3, 4, 5, 9, 23, 40):
                for periodic in (False, True):
                    diag, b = _random_system(rng, n)
                    _, b2 = _random_system(rng, n)
                    xs = _tridiag_solve(diag, [b, b2], periodic)
                    a = _dense_mp(diag, periodic)
                    for x, rhs in zip(xs, (b, b2)):
                        ref = mp.lu_solve(a, mp.matrix(rhs))
                        err = max(abs(x[i] - ref[i]) for i in range(n))
                        assert err <= mpf(10) ** -45 * max(1, mp.norm(ref, mp.inf))

    def test_singular_ring_detected(self):
        # the ring Laplacian: exactly singular, caught by the
        # Sherman-Morrison denominator at any precision
        with mp.workdps(50):
            with pytest.raises(SingularJacobian):
                _tridiag_solve([mpf(2)] * 6, [[mpf(1)] * 6], True)

    def test_zero_pivot_detected(self):
        with mp.workdps(50):
            with pytest.raises(SingularJacobian):
                _tridiag_solve([mpf(1), mpf(1), mpf(5)], [[mpf(1)] * 3], False)

    @pytest.mark.parametrize("prec, singular", [(22, True), (25, False)])
    def test_decimal_threshold_scales_with_precision(self, prec, singular):
        # the second pivot is 1e-20, against 10**(2 - prec) times max|diag| = 5
        with localcontext(Context(prec=prec)):
            diag = [Decimal(1), 1 + Decimal("1e-20"), Decimal(5)]
            if singular:
                with pytest.raises(SingularJacobian):
                    _tridiag_solve(diag, [[Decimal(1)] * 3], False)
            else:
                (x,) = _tridiag_solve(diag, [[Decimal(1)] * 3], False)
                x = [Decimal(0)] + x + [Decimal(0)]
                for i, d in enumerate(diag, 1):  # |x| ~ 1e20 at 25 digits
                    assert abs(d * x[i] - x[i - 1] - x[i + 1] - 1) <= Decimal("1e-3")


# E of the polish that renormalized and re-estimated E every step, 40 digits
# (its residual stalled at 1.9e-38 and 1.2e-43)
RENORMALIZING_POLISH_E = {
    "chain100": "-0.4213203609592210949127558806323730343516",
    "chain130": "-0.6657632012610528134493780078988540092373",
}


def _mpf_polish(state, params, dps):
    """polish_solution as it ran on mpf before it ran on Decimal: the same
    loop, step and kernel at dps decimal digits of mpmath."""
    with mp.workdps(dps):
        c = mpf(params.c)

        def step(psi, energy, res, _res_norm):
            diag = _jacobian_diagonal(psi, c, energy).tolist()
            return *_bordered_step(psi, energy, res, lambda rhss: np.array(
                _tridiag_solve(diag, np.stack(rhss).tolist(), True), dtype=object)), True

        psi, energy, _ = _newton_loop(
            np.array([mpf(v) for v in state.values.tolist()], dtype=object),
            mpf(dl.rayleigh_energy(state, params)),
            lambda psi, energy: _stencil_residual(psi, c, energy, dl.Boundary.PERIODIC),
            step, lambda *_: mpf(10) ** (10 - dps), highprec.POLISH_MAX_ITER)
        return psi.tolist(), energy


def _list_of_arrays_polish(state, params, dps):
    """polish_solution with the step glue and kernel it had while the
    kernel's solutions came back as one object array each: the oracle of
    the stacked glue, on the polish's Decimal numbers."""
    with localcontext(Context(prec=dps)):
        c = Decimal(params.c)

        def step(psi, energy, res, _res_norm):
            diag = _jacobian_diagonal(psi, c, energy).tolist()
            return *_bordered_step(psi, energy, res, lambda rhss: [
                np.array(x, dtype=object)
                for x in reference_tridiag_solve(diag, [r.tolist() for r in rhss], True)]), True

        psi, energy, _ = _newton_loop(
            np.array([Decimal(v) for v in state.values.tolist()], dtype=object),
            Decimal(dl.rayleigh_energy(state, params)),
            lambda psi, energy: _stencil_residual(psi, c, energy, dl.Boundary.PERIODIC),
            step, lambda *_: Decimal(10) ** (10 - dps), highprec.POLISH_MAX_ITER)
    psi, energy = highprec._as_mpf(psi, energy, dps)
    return psi.tolist(), energy


def _worst_residual(psi, energy, c, dps, boundary=dl.Boundary.PERIODIC):
    """The residual max-norm at dps: a ring wraps, and an open chain has a
    zero pad past each end."""
    first, last = (psi[-1], psi[0]) if boundary is dl.Boundary.PERIODIC else (mpf(0), mpf(0))
    padded = [first, *psi, last]
    with mp.workdps(dps):
        return max(abs(-padded[i - 1] + 2 * padded[i] - padded[i + 1]
                       - c * padded[i] ** 3 - energy * padded[i])
                   for i in range(1, len(padded) - 1))


def _assert_mpf_iterate(exc, dps):
    """The iterate a polish failure carries is mpf, rounded at dps digits."""
    assert exc.state.dtype == object and all(isinstance(p, mpf) for p in exc.state)
    assert isinstance(exc.energy, mpf)
    with mp.workdps(dps):
        assert mpf(exc.energy) == exc.energy and all(mpf(p) == p for p in exc.state)


class TestPolish:
    def test_same_bits_as_list_of_arrays_glue(self, chain100_solution, chain130_solution):
        for (_, state, _, _), c, dps in [(chain100_solution, 24.0, 60),
                                         (chain130_solution, 40.0, 80)]:
            psi, energy = polish_solution(state, dl.ModelParams(c), dps=dps)
            ref_psi, ref_energy = _list_of_arrays_polish(state, dl.ModelParams(c), dps)
            assert energy._mpf_ == ref_energy._mpf_, dps
            assert [p._mpf_ for p in psi] == [p._mpf_ for p in ref_psi], dps

    def test_agrees_with_mpf_polish(self, chain100_solution, chain130_solution):
        # measured: E agrees to 8.3e-60 and 1.2e-79, psi to 6e-60 and 2.5e-80
        for (_, state, _, _), c, dps in [(chain100_solution, 24.0, 60),
                                         (chain130_solution, 40.0, 80)]:
            psi, energy = polish_solution(state, dl.ModelParams(c), dps=dps)
            ref_psi, ref_energy = _mpf_polish(state, dl.ModelParams(c), dps)
            with mp.workdps(dps):
                tol = mpf(10) ** (10 - dps)
                assert _worst_residual(psi, energy, c, dps) <= tol, dps
                assert _worst_residual(ref_psi, ref_energy, c, dps) <= tol, dps
                assert abs(energy - ref_energy) <= tol, dps
                assert max(abs(p - q) for p, q in zip(psi, ref_psi)) <= tol, dps

    @pytest.mark.parametrize("name, spec, c, dps", [
        ("chain100", alternating_spot_pattern(), 24.0, 60),
        ("chain130", irregular_pair_pattern(), 40.0, 80),
    ], ids=["chain100", "chain130"])
    def test_reaches_tolerance(self, name, spec, c, dps):
        state, _, _ = dl.newton_solve(dl.build_asymptotic_state(spec), dl.ModelParams(c))
        psi, energy = polish_solution(state, dl.ModelParams(c), dps=dps)
        assert isinstance(energy, mpf) and all(isinstance(p, mpf) for p in psi)
        with mp.workdps(dps):
            assert _worst_residual(psi, energy, c, dps) <= mpf(10) ** (10 - dps)
            assert abs(mp.fsum(p * p for p in psi) - 1) <= mpf(10) ** (10 - dps)
            assert abs(energy - mpf(RENORMALIZING_POLISH_E[name])) <= mpf(10) ** -30
        assert max(abs(float(p) - v) for p, v in zip(psi, state.values)) <= 1e-10
        max_dev, closure = map_reproduction_error(psi, energy, c, dps=dps)
        assert max_dev <= 1e-40 and closure <= 1e-40

    @pytest.mark.parametrize("code", ["+", "++"])
    def test_weak_coupling_polarons(self, code):
        # the site- and bond-centred polarons of a 64-site ring, continued
        # from c = 20 in 80 geometric steps: at c = 0.7 their
        # Sherman-Morrison denominators, 1.7e-15 and -2.0e-16, are far
        # from singular at 60 digits, though below float64's 1e-14
        state = dl.normalize(dl.build_asymptotic_state(dl.parse_pattern(code.ljust(64, "0"))))
        for c in np.geomspace(20.0, 0.7, 80):
            state, _, _ = dl.newton_solve(state, dl.ModelParams(float(c)))
        psi, energy = polish_solution(state, dl.ModelParams(0.7), dps=60)
        with mp.workdps(60):
            assert _worst_residual(psi, energy, 0.7, 60) <= mpf(10) ** -50

    def test_budget_exhausted_raises(self, chain130_solution, monkeypatch):
        _, state, _, _ = chain130_solution
        monkeypatch.setattr(highprec, "POLISH_MAX_ITER", 1)
        with pytest.raises(NoConvergence) as exc:
            polish_solution(state, dl.ModelParams(40.0), dps=80)
        report = exc.value.report
        assert report.iterations == 1 and not report.converged
        assert len(report.residual_history) == 2
        assert report.residual_history[1] < report.residual_history[0]
        assert report.residual_history[1] > 1e-70
        assert len(exc.value.state) == 130
        _assert_mpf_iterate(exc.value, 80)

    def test_singular_jacobian_carries_mpf(self, chain130_solution, monkeypatch):
        def singular(*_):
            raise SingularJacobian("forced")

        _, state, _, _ = chain130_solution
        monkeypatch.setattr(highprec, "_tridiag_solve", singular)
        with pytest.raises(SingularJacobian) as exc:
            polish_solution(state, dl.ModelParams(40.0), dps=80)
        assert exc.value.report.iterations == 0 and len(exc.value.state) == 130
        _assert_mpf_iterate(exc.value, 80)

    def test_boundary_mismatch_rejected(self):
        state = dl.LatticeState([0.0, 1.0, 0.0], dl.Boundary.OPEN)
        with pytest.raises(ValueError):
            polish_solution(state, dl.ModelParams(10.0))

    @staticmethod
    def _assert_both_reject(dps, state):
        with pytest.raises(ValueError):
            polish_solution(state, dl.ModelParams(24.0), dps=dps)
        with pytest.raises(ValueError):
            map_reproduction_error([mpf(0), mpf(1), mpf(0)], -1.0, 10.0, dps=dps)

    @pytest.mark.parametrize("dps", [14, 0, -3])
    def test_precision_below_float64_rejected(self, dps, chain100_solution):
        # by the polish and the map check: mp.workdps(0) would round the
        # float64 input and return E = -0.4375
        self._assert_both_reject(dps, chain100_solution[1])

    @pytest.mark.parametrize("dps", [15.5, 60.0, float("inf"), float("nan")])
    def test_non_integer_precision_rejected(self, dps, chain100_solution):
        # by the polish and the map check: mp.workdps(15.5) would work to 15
        # digits against a 10**-5.5 tolerance, and inf would escape as
        # mpmath's OverflowError
        self._assert_both_reject(dps, chain100_solution[1])

    def test_float64_precision_accepted(self, chain100_solution):
        _, state, energy, _ = chain100_solution
        assert abs(polish_solution(state, dl.ModelParams(24.0), dps=15)[1] - energy) <= 1e-9

    def test_numpy_integer_precision_accepted(self, chain100_solution):
        # a numpy integer is not an int to decimal's context
        _, state, _, _ = chain100_solution
        psi, energy = polish_solution(state, dl.ModelParams(24.0), dps=np.int64(60))
        ref_psi, ref_energy = polish_solution(state, dl.ModelParams(24.0), dps=60)
        assert energy._mpf_ == ref_energy._mpf_
        assert [p._mpf_ for p in psi] == [p._mpf_ for p in ref_psi]


def _string_as_mpf(v, dps):
    """A Decimal to mpf as the polish converted its results before the
    exact integer ratio: formatted, and the string parsed back at dps."""
    with mp.workdps(dps):
        return mpf(str(v))


class TestExactConversion:
    """_as_mpf rounds each Decimal's exact integer ratio once at dps
    digits, to the same bits as formatting it and parsing the string."""

    @pytest.mark.parametrize("dps", [15, 30, 60, 80])
    def test_random_decimals(self, dps):
        rng = np.random.default_rng(dps)
        values = [Decimal(0), Decimal("-0")]
        with localcontext(Context(prec=dps)):
            for _ in range(500):
                digits = "".join(map(str, rng.integers(0, 10, dps)))
                sign = "-" if rng.integers(2) else ""
                values.append(+Decimal(f"{sign}0.{digits}e{rng.integers(-300, 301)}"))
        psi, energy = highprec._as_mpf(values, values[-1], dps)
        assert [p._mpf_ for p in psi] == [_string_as_mpf(v, dps)._mpf_ for v in values]
        assert energy._mpf_ == _string_as_mpf(values[-1], dps)._mpf_

    def test_polished_chains(self, chain100_solution, chain130_solution, monkeypatch):
        decimals, as_mpf = [], highprec._as_mpf

        def recording(psi, energy, dps):
            decimals.append((psi, energy))
            return as_mpf(psi, energy, dps)

        monkeypatch.setattr(highprec, "_as_mpf", recording)
        for (_, state, _, _), c, dps in [(chain100_solution, 24.0, 60),
                                         (chain130_solution, 40.0, 80)]:
            psi, energy = polish_solution(state, dl.ModelParams(c), dps=dps)
            (dec_psi, dec_energy), = decimals
            decimals.clear()
            assert energy._mpf_ == _string_as_mpf(dec_energy, dps)._mpf_, dps
            assert [p._mpf_ for p in psi] == [_string_as_mpf(v, dps)._mpf_ for v in dec_psi], dps


OPEN_CHAINS = [("00+00000-000+0000-+000", 30, 60), ("+0-0+00-", 12, 40)]


class TestOpenChains:
    """The polish takes the boundary from the state.  Measured: residuals
    1.7e-59 and 6.4e-40."""

    @pytest.mark.parametrize("code, c, dps", OPEN_CHAINS)
    def test_reaches_tolerance(self, code, c, dps):
        params = dl.ModelParams(c, dl.Boundary.OPEN)
        spec = dl.parse_pattern(code, dl.Boundary.OPEN)
        state, energy, _ = dl.newton_solve(dl.build_asymptotic_state(spec), params)
        psi, polished_energy = polish_solution(state, params, dps=dps)
        assert len(psi) == len(code)
        with mp.workdps(dps):
            tol = mpf(10) ** (10 - dps)
            assert _worst_residual(psi, polished_energy, c, dps, dl.Boundary.OPEN) <= tol
            assert abs(mp.fsum(p * p for p in psi) - 1) <= tol
        assert abs(float(polished_energy) - energy) <= 1e-12
        assert max(abs(float(p) - v) for p, v in zip(psi, state.values)) <= 1e-12

    @pytest.mark.parametrize("code, c, dps", OPEN_CHAINS)
    def test_map_check_closes_at_the_zero_pad(self, code, c, dps):
        # measured: deviations 1.1e-45 and 1.2e-36, closures 5.7e-45 and
        # 7.0e-36; read as rings, the closures were 0.083 and 0.50
        params = dl.ModelParams(c, dl.Boundary.OPEN)
        state, _, _ = dl.newton_solve(
            dl.build_asymptotic_state(dl.parse_pattern(code, dl.Boundary.OPEN)), params)
        psi, energy = polish_solution(state, params, dps=dps)
        max_dev, closure = map_reproduction_error(psi, energy, c, dps=dps,
                                                  boundary=dl.Boundary.OPEN)
        assert 0 < max_dev <= 10.0 ** (30 - dps) and closure <= 10 * max_dev

    def test_map_check_reads_site_0(self):
        # E = 0.61 solves site 1's equation, with the pad after it, and not
        # site 0's: its residual is -0.182, so the orbit from the pad before
        # site 0 misses psi[1] = 0.8 by 0.182
        max_dev, _ = map_reproduction_error([0.6, 0.8], 0.61, 1.0, boundary=dl.Boundary.OPEN)
        assert max_dev >= 0.1


class TestNumpyScalars:
    """A numpy integer or float coupling, or numpy psi entries, are taken
    as the Python int or float they hold, as newton_solve takes them."""

    @pytest.mark.parametrize("c", [np.int64(24), np.float32(24), np.float64(24)],
                             ids=["int64", "float32", "float64"])
    def test_polish_coupling(self, c, chain100_solution):
        _, state, _, _ = chain100_solution
        psi, energy = polish_solution(state, dl.ModelParams(c), dps=60)
        ref_psi, ref_energy = polish_solution(state, dl.ModelParams(24), dps=60)
        assert energy._mpf_ == ref_energy._mpf_
        assert [p._mpf_ for p in psi] == [p._mpf_ for p in ref_psi]

    @pytest.mark.parametrize("c", [np.int64(24), np.float32(24), np.float64(24)],
                             ids=["int64", "float32", "float64"])
    def test_map_coupling(self, c, polished_chains):
        _, _, _, psi, energy, _, dps = polished_chains[0]
        assert (map_reproduction_error(psi, energy, c, dps=dps)
                == map_reproduction_error(psi, energy, 24.0, dps=dps)
                == map_reproduction_error(psi, energy, 24, dps=dps))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_map_psi_entries(self, dtype, polished_chains):
        _, state, energy, _, _, c, dps = polished_chains[0]
        values = state.values.astype(dtype)
        assert (map_reproduction_error(list(values), dtype(energy), c, dps=dps)
                == map_reproduction_error(values.tolist(), float(dtype(energy)), c, dps=dps))


class TestMapReproduction:
    @pytest.mark.parametrize("psi", [[], [mpf(1)]], ids=["0-sites", "1-site"])
    def test_needs_two_sites(self, psi):
        with pytest.raises(ValueError):
            map_reproduction_error(psi, -1.0, 10.0)


def _mpf_map_reproduction_error(psi, energy, c, dps=60):
    """map_reproduction_error as it iterated map_step on mpf before it ran
    on Decimal: the oracle of the Decimal iteration."""
    n = len(psi)
    with mp.workdps(dps):
        energy, c = mpf(energy), mpf(c)
        s = MapState(psi[1], psi[1] - psi[0])
        max_dev = mpf(0)
        closure = mpf(0)
        for i in range(2, n + 2):
            s = map_step(s, energy, c)
            dev = abs(s.psi - psi[i % n])
            if i < n:
                max_dev = max(max_dev, dev)
            else:
                closure = max(closure, dev)
        return float(max_dev), float(closure)


def _within_ten_times(got, ref):
    return all(r / 10 <= g <= 10 * r for g, r in zip(got, ref))


@pytest.fixture(scope="module")
def polished_chains(chain100_solution, chain130_solution):
    """(name, float64 state, its E, polished psi, polished E, c, dps) of
    both chains, polished at the acceptance precisions."""
    chains = []
    for name, (_, state, energy, _), c, dps in [("chain100", chain100_solution, 24.0, 60),
                                                ("chain130", chain130_solution, 40.0, 80)]:
        psi, polished_energy = polish_solution(state, dl.ModelParams(c), dps=dps)
        chains.append((name, state, energy, psi, polished_energy, c, dps))
    return chains


class TestMapOnDecimal:
    """The map check runs on Decimal at dps + 1 digits; the deviations it
    reads stay within a factor 10 of the mpf iteration's.  Measured: 9.3e-50
    and 9.7e-50 against 9.4e-50 and 9.8e-50 for chain100, 1.4e-50 and
    2.8e-50 against 7.3e-51 and 1.4e-50 for chain130."""

    def test_mpf_inputs(self, polished_chains):
        for name, _, _, psi, energy, c, dps in polished_chains:
            got = map_reproduction_error(psi, energy, c, dps=dps)
            ref = _mpf_map_reproduction_error(psi, energy, c, dps=dps)
            assert max(got) <= 1e-40 and _within_ten_times(got, ref), (name, got, ref)

    def test_float_inputs(self, polished_chains):
        # chain100's float64 state itself: its round-off, amplified around
        # the ring, reads 1.2e-5 and 1.3e-5 (1.3e-5 and 1.4e-5 on mpf, which
        # took psi[1] - psi[0] in float64).  chain130's float64 orbit leaves
        # the state's neighbourhood, and where it goes then depends on the
        # last bits: 0.27 here, inf on mpf.
        _, state, energy, _, _, c, dps = polished_chains[0]
        psi = state.values.tolist()
        got = map_reproduction_error(psi, energy, c, dps=dps)
        ref = _mpf_map_reproduction_error(psi, energy, c, dps=dps)
        assert max(got) <= 1e-4 and _within_ten_times(got, ref), (got, ref)

    def test_numpy_integer_precision(self, polished_chains):
        for name, _, _, psi, energy, c, dps in polished_chains:
            assert (map_reproduction_error(psi, energy, c, dps=np.int64(dps))
                    == map_reproduction_error(psi, energy, c, dps=dps)), name

    @pytest.mark.parametrize("sites, escaped", [(20, (math.inf, math.inf)),
                                                (6, (1.7753190722690412e+78, math.inf))],
                             ids=["past-decimal-range", "past-float-range"])
    def test_escaping_orbit_reads_inf(self, sites, escaped):
        # from psi = 10 the orbit cubes its way past 10**999999, Decimal's
        # range, within 20 sites, and past float's within 6; the mpf
        # iteration reads inf for both
        psi = [mpf(0), mpf(10 if sites == 20 else 3)] + [mpf(0)] * (sites - 2)
        assert map_reproduction_error(psi, -1.0, 10.0, dps=30) == escaped
        assert _mpf_map_reproduction_error(psi, -1.0, 10.0, dps=30) == escaped


def _cached_product_decimal(x, powers):
    """_decimal as it converted an mpf before one rounded division:
    Decimal(man) times the exact Decimal of 2**exp, kept in powers by exp.
    The oracle of the conversion."""
    if not isinstance(x, mpf):
        return Decimal(int(x) if isinstance(x, np.integer)
                       else float(x) if isinstance(x, np.floating) else x)
    sign, man, exp, _ = x._mpf_
    if not man and exp:  # mpmath's inf, -inf and nan: no mantissa, an exponent
        return Decimal(float(x))
    power = powers.get(exp)
    if power is None:  # 2**-k is 5**k / 10**k, exactly
        power = powers[exp] = Decimal(1 << exp) if exp >= 0 else Decimal(f"{5 ** -exp}e{exp}")
    return Decimal(-man if sign else man) * power


def _mpf_corpus():
    """4 002 mpf, two at every third binary exponent from -3000 to 3000,
    with odd mantissas of 1 to 700 bits (up to twice the 668 bits of 201
    digits) and random signs."""
    rng = random.Random(34)
    values = []
    for exp in range(-3000, 3001, 3):
        for _ in range(2):
            man = (rng.getrandbits(rng.randint(1, 700)) | 1) * rng.choice((1, -1))
            values.append(mp.make_mpf(libmp.from_man_exp(man, exp)))
    return values


MPF_CORPUS = _mpf_corpus()
SPECIAL_VALUES = [mpf(0), mpf("inf"), mpf("-inf"), mpf("nan"), mpf(2) ** 500, -mpf(2) ** 500,
                  np.int64(-7), np.int32(2**31 - 1), np.uint64(2**64 - 1), np.float64(0.1),
                  np.float32(1 / 3), np.float16(-2.5), 10**30, -1e-300]


class TestDecimalAgainstCachedProduct:
    """_decimal divides by 2**-exp where it multiplied by the cached exact
    5**k e-k: one correctly rounded operation on the same exact value, so
    the same Decimal, coefficient and exponent alike."""

    def test_corpus_spans_the_exponents(self):
        exps = [x._mpf_[2] for x in MPF_CORPUS]
        assert len(exps) >= 4000 and min(exps) == -3000 and max(exps) == 3000

    @pytest.mark.parametrize("prec", [16, 31, 61, 81, 201])
    def test_mpf_values(self, prec):
        powers = {}
        with localcontext(Context(prec=prec)):
            got = [str(highprec._decimal(x)) for x in MPF_CORPUS]
            ref = [str(_cached_product_decimal(x, powers)) for x in MPF_CORPUS]
        assert got == ref

    @pytest.mark.parametrize("prec", [16, 31, 61, 81, 201])
    def test_special_and_numpy_values(self, prec):
        with localcontext(Context(prec=prec)):
            got = [str(highprec._decimal(x)) for x in SPECIAL_VALUES]
            ref = [str(_cached_product_decimal(x, {})) for x in SPECIAL_VALUES]
        assert got == ref
        assert got[1:4] == ["Infinity", "-Infinity", "NaN"]

    def _both(self, monkeypatch, psi, energy, c, dps):
        got = map_reproduction_error(psi, energy, c, dps=dps)
        with monkeypatch.context() as patched:
            patched.setattr(highprec, "_decimal", functools.partial(_cached_product_decimal, powers={}))
            ref = map_reproduction_error(psi, energy, c, dps=dps)
        return got, ref

    @pytest.mark.parametrize("dps", [30, 60, 80])
    def test_map_check_on_polished_chains(self, dps, polished_chains, monkeypatch):
        for name, _, _, psi, energy, c, _ in polished_chains:
            got, ref = self._both(monkeypatch, psi, energy, c, dps)
            assert got == ref, (name, got, ref)

    @pytest.mark.parametrize("sites", [20, 6])
    def test_map_check_on_escaping_orbits(self, sites, monkeypatch):
        psi = [mpf(0), mpf(10 if sites == 20 else 3)] + [mpf(0)] * (sites - 2)
        got, ref = self._both(monkeypatch, psi, -1.0, 10.0, 30)
        assert got == ref and math.inf in got

def _float_newton(spec, solved, k):
    return dl.newton_solve(dl.build_asymptotic_state(spec), dl.ModelParams(40.0),
                           dl.NewtonConfig(max_iter=k))


def _mp_polish(spec, solved, k):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(highprec, "POLISH_MAX_ITER", k)
        return polish_solution(solved, dl.ModelParams(40.0), dps=80)


class TestSharedStoppingRule:
    """newton_solve and polish_solution stop by the one Newton loop."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("solve", [_float_newton, _mp_polish],
                             ids=["newton_solve", "polish_solution"])
    def test_budget_of_k_steps(self, solve, k, chain130_solution):
        spec, solved, _, _ = chain130_solution
        with pytest.raises(NoConvergence) as exc:
            solve(spec, solved, k)
        report = exc.value.report
        assert report.iterations == k and not report.converged
        assert len(report.energy_history) == k + 1
        assert len(report.residual_history) == k + 1
        assert report.energy_history[-1] == float(exc.value.energy)

    def test_exhausted_polish_report(self, chain130_solution, monkeypatch):
        _, solved, _, _ = chain130_solution
        iterates, as_mpf = [], highprec._as_mpf

        def recording(psi, energy, dps):
            iterates.append(psi)
            return as_mpf(psi, energy, dps)

        monkeypatch.setattr(highprec, "_as_mpf", recording)
        monkeypatch.setattr(highprec, "POLISH_MAX_ITER", 1)
        with pytest.raises(NoConvergence) as exc:
            polish_solution(solved, dl.ModelParams(40.0), dps=80)
        report = exc.value.report
        assert report.bordered_from == 0
        assert report.structure_change_iteration is None and not report.structure_changed
        assert report.final_counts is None
        (psi,) = iterates  # the Decimal iterate the failure carried before mpf
        with localcontext(Context(prec=80)):
            assert report.final_norm == float(np.dot(psi, psi))


class TestArrayOperandOrder:
    """An mpf on the left of an object array makes mpmath's operator call
    npconvert on the array, which formats the whole array at full
    precision into a TypeError before numpy takes over.  The polish and
    the map check both run on Decimal and take mpf only one value at a
    time, at their ends, so no array should reach npconvert.  The shared
    kernels keep the array on the left all the same;
    tests/test_residual_oracle.py holds their float64 results to the
    bits of the forms they replaced."""

    def test_polish_never_converts_an_array(self, monkeypatch, chain100_solution,
                                            chain130_solution):
        seen = []
        convert = type(mp).npconvert

        def recording(ctx, x):
            seen.append(type(x))
            return convert(ctx, x)

        monkeypatch.setattr(type(mp), "npconvert", recording)
        for (_, state, _, _), c, dps in [(chain100_solution, 24.0, 60),
                                         (chain130_solution, 40.0, 80)]:
            psi, energy = polish_solution(state, dl.ModelParams(c), dps=dps)
            map_reproduction_error(psi, energy, c, dps=dps)
        assert np.ndarray not in seen
