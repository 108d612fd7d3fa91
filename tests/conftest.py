import numpy as np
import pytest

import dnse_lab as dl


def alternating_spot_pattern():
    """100 sites, 10 isolated spots spaced 10 apart, alternating signs."""
    signs = [(-1) ** k for k in range(10)]
    return dl.spot_pattern(100, [10 * k for k in range(10)], 1, signs)


IRREGULAR_SIGNS = [1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1, -1]


def irregular_pair_pattern():
    """130 sites, 13 two-site same-sign spots spaced 10 apart, irregular signs."""
    return dl.spot_pattern(130, [10 * k for k in range(13)], 2, IRREGULAR_SIGNS)


@pytest.fixture(scope="session")
def chain100_solution():
    spec = alternating_spot_pattern()
    state, energy, report = dl.newton_solve(
        dl.build_asymptotic_state(spec), dl.ModelParams(24.0)
    )
    return spec, state, energy, report


@pytest.fixture(scope="session")
def chain130_solution():
    spec = irregular_pair_pattern()
    state, energy, report = dl.newton_solve(
        dl.build_asymptotic_state(spec), dl.ModelParams(40.0)
    )
    return spec, state, energy, report


def random_state(rng, n, boundary=dl.Boundary.PERIODIC, amp=1.0):
    return dl.LatticeState(rng.uniform(-amp, amp, n), boundary)


def kernel_corpus():
    """(name, state, c): the acceptance chains, solved, and the random
    rings with N in {208, 1000} and seeds 0-9 at their strong-coupling
    start, c = 4N."""
    for name, spec, c in [("chain100", alternating_spot_pattern(), 24.0),
                          ("chain130", irregular_pair_pattern(), 40.0)]:
        state, _, _ = dl.newton_solve(dl.build_asymptotic_state(spec), dl.ModelParams(c))
        yield name, state, c
    for n in (208, 1000):
        for seed in range(10):
            state = dl.normalize(dl.build_asymptotic_state(dl.random_pattern(n, seed)))
            yield f"ring{n}/{seed}", state, 4.0 * n
