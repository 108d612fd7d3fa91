"""Strong-coupling localization patterns and their exact spectrum.

In the c -> infinity limit every stationary state is localized on n sites
carrying exactly +-1/sqrt(n), zero elsewhere.  A pattern is a per-site trit
(+1, 0, -1).  The occupied sites group into m spots (maximal runs of
nonzero trits separated by zeros) containing l kinks (adjacent occupied
pairs of opposite sign), and the eigenvalue of the pattern is

    E = (2m + 4l - c) / n.

Conventions pinned here: on a fully occupied periodic ring there are no
spot-boundary edges, so m = 0 (this is the only convention that makes the
formula match the kinetic energy of the limiting state); kink counting
under PBC includes the wrap pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, BadCharacter, EmptyPattern
from .lattice import Boundary, LatticeState, _as_index, _neighbors

_CHAR_TO_TRIT = {"+": 1, "0": 0, "-": -1}
_TRIT_TO_CHAR = {1: "+", 0: "0", -1: "-"}
# quantize_state counts a site as occupied above this fraction of max|psi|
OCCUPIED_REL_THRESHOLD = 0.5


@dataclass(frozen=True)
class PatternSpec:
    """Trit encoding of a localization pattern.

    trits is a tuple of ints; the same trits as a read-only int8 array are
    kept for the counts and states built from the pattern."""

    trits: tuple
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        values = np.asarray(self.trits if isinstance(self.trits, np.ndarray) else tuple(self.trits))
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if values.size == 0:
            raise EmptyPattern("pattern needs at least one site")
        # compared as numbers, so 0.7 is not taken for 0
        if (values.ndim != 1 or values.dtype.kind not in "biuf"
                or not np.all((values == -1) | (values == 0) | (values == 1))):
            raise ValueError("trits must be -1, 0 or +1")
        trits = values.astype(np.int8)
        if not trits.any():
            raise AllZero("pattern needs at least one occupied site")
        trits.flags.writeable = False
        object.__setattr__(self, "_int8", trits)
        object.__setattr__(self, "trits", tuple(trits.tolist()))

    @property
    def n_sites(self) -> int:
        return len(self.trits)

    def text(self) -> str:
        return "".join(_TRIT_TO_CHAR[t] for t in self.trits)

    def rotated(self, shift: int) -> "PatternSpec":
        n = self.n_sites
        shift = _as_index(shift, "shift") % n
        return PatternSpec(self.trits[-shift:] + self.trits[:-shift], self.boundary)


@dataclass(frozen=True)
class PatternCounts:
    """Occupied sites n, spots m, kinks l."""

    n: int
    m: int
    l: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (0 <= self.m <= self.n and 0 <= self.l <= self.n):
            raise ValueError("m and l must lie in [0, n]")

    def as_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "l": self.l}


def parse_pattern(text: str, boundary: Boundary = Boundary.PERIODIC) -> PatternSpec:
    """Parse a string over {+, -, 0} into a pattern."""
    if len(text) == 0:
        raise EmptyPattern("empty pattern string")
    trits = []
    for pos, ch in enumerate(text):
        if ch not in _CHAR_TO_TRIT:
            raise BadCharacter(pos, ch)
        trits.append(_CHAR_TO_TRIT[ch])
    return PatternSpec(tuple(trits), boundary)


def count_pattern(spec: PatternSpec) -> PatternCounts:
    """Count occupied sites, spots and kinks.

    Spots are maximal runs of nonzero trits delimited by zeros; under PBC a
    run may wrap, and a ring with no zero at all has m = 0 by convention.
    Kinks are adjacent occupied pairs with opposite sign (wrap pair
    included under PBC).
    """
    return _count(spec._int8, spec.boundary)


def _count(trits: np.ndarray, boundary: Boundary) -> PatternCounts:
    """count_pattern on an int8 trit array; every Newton report counts one."""
    left, right = _neighbors(trits, boundary)
    occ = trits != 0
    n = int(np.count_nonzero(occ))
    # a spot starts at each occupied site after an empty one (an open end
    # reads as empty), so a full ring has none
    m = int(np.count_nonzero(occ & (left == 0)))
    l = int(np.count_nonzero(trits * right == -1))
    return PatternCounts(n=n, m=m, l=l)


def strong_coupling_energy(counts: PatternCounts, c: float) -> float:
    """Exact eigenvalue of a pattern in the strong-coupling limit."""
    return (2.0 * counts.m + 4.0 * counts.l - c) / counts.n


def build_asymptotic_state(spec: PatternSpec) -> LatticeState:
    """Limiting state of a pattern: trit/sqrt(n) on every site."""
    counts = count_pattern(spec)
    values = spec._int8.astype(float) / np.sqrt(counts.n)
    return LatticeState(values, spec.boundary)


def quantize_state(state: LatticeState) -> PatternSpec:
    """Extract the pattern of a numeric state.

    A site counts as occupied iff |psi| exceeds OCCUPIED_REL_THRESHOLD *
    max|psi|; finite-c tails decay exponentially, so the relative cut
    separates peaks from tails.
    """
    return PatternSpec(_trits(state.values), state.boundary)


def _trits(psi: np.ndarray) -> np.ndarray:
    """The trits of quantize_state as an int8 array."""
    magnitude = np.abs(psi)
    peak = magnitude.max()
    if peak == 0.0:
        raise AllZero("zero state has no pattern")
    return np.sign(psi).astype(np.int8) * (magnitude > OCCUPIED_REL_THRESHOLD * peak)


def limit_points(spec: PatternSpec) -> set:
    """Predicted c -> infinity phase-portrait point set.

    Scans adjacent trit pairs (t, t'); each contributes the point
    (t/sqrt(n), (t'-t)/sqrt(n)) in the (psi_i, psi_{i+1}-psi_i) plane.
    At most nine distinct points are possible.
    """
    root = np.sqrt(count_pattern(spec).n)
    trits = spec._int8
    _, right = _neighbors(trits, spec.boundary)
    if spec.boundary is Boundary.OPEN:
        trits = trits[:-1]  # the last site's right neighbour is the zero pad
    return {(t / root, (t2 - t) / root) for t, t2 in zip(trits.tolist(), right.tolist())}


def random_pattern(n_sites: int, seed: int) -> PatternSpec:
    """Uniform random trits, re-rolled entirely if all come up zero.

    Uses numpy's default PCG64 generator so a (n_sites, seed) pair pins
    the pattern exactly.
    """
    if _as_index(n_sites, "n_sites") < 1:
        raise ValueError("need at least one site")
    rng = np.random.default_rng(seed)
    while True:
        trits = rng.integers(-1, 2, size=n_sites)
        if np.any(trits != 0):
            return PatternSpec(trits, Boundary.PERIODIC)


def spot_pattern(n_sites: int, spot_starts, spot_len: int, signs) -> PatternSpec:
    """Build a periodic pattern of equal-length spots at given start sites.

    Every site of spot k carries signs[k].  Convenience for the regularly
    spaced configurations used in experiments.
    """
    if len(spot_starts) != len(signs):
        raise ValueError("need one sign per spot")
    n_sites, spot_len = _as_index(n_sites, "n_sites"), _as_index(spot_len, "spot_len")
    if n_sites < 1:
        raise ValueError("need at least one site")
    trits = [0] * n_sites
    for start, sign in zip(spot_starts, signs):
        start = _as_index(start, "spot_starts")
        for off in range(spot_len):
            trits[(start + off) % n_sites] = sign
    return PatternSpec(tuple(trits), Boundary.PERIODIC)


def counts_report(spec: PatternSpec, c: float) -> dict:
    """JSON-ready summary {"n", "m", "l", "E_infinity"}."""
    counts = count_pattern(spec)
    return {**counts.as_dict(), "E_infinity": strong_coupling_energy(counts, c)}
