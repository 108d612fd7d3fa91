"""Phase portraits and spatial-structure diagnostics.

A lattice state is summarized by the planar point set
{(psi[i], psi[i+1]-psi[i])}.  Converged solutions fall into three classes:
regular periodic (the amplitude sequence repeats under a cyclic shift),
irregular commensurate (portrait points trace a thin closed curve) and
irregular incommensurate (the curve is smeared out).  The paper-level
criteria are qualitative, so the commensurate/incommensurate split is an
explicit heuristic with fixed thresholds, the named constants BAND_FRAC
and NEIGHBORS; the regular test is exact up to the shift tolerance
SHIFT_TOL.  The one setting is the distinct-point tolerance, tol of
classify_portrait (default DISTINCT_TOL).

Classification runs in near-linear time in the number of points: the
distinct-point count places the points on a grid of cell size 2 tol, so
every match of a point lies in the 3 x 3 cells around its own, and the
edge cells take every point beyond +-_GRID_LIMIT cells (the count turns
quadratic only when most points lie there).  A point whose 3 x 3 cells
hold no other point matches nothing; one pass over the sorted cell keys
finds these lonely points, which are counted in bulk, and the greedy
loop buckets cluster representatives among the other points.  The pass
tests each side column of a one-point cell with one left searchsorted,
two searches a cell, and maps the lonely cells back to the points
through the permutation that sorts their keys.  The period search tests
in full only the shifts that carry each of the 8 largest sites to within
tol of itself.  The thickness is taken in the portrait's own frame, the
distinct points moved to their lower corner and scaled by a power of two
so that the diameter lies in [0.5, 1).  The test first counts them, with
np.bincount, on a grid of cell side BAND_FRAC times the diameter, whose
at most 21 x 21 cells have keys below 441: when more than half of them
share a cell with NEIGHBORS others, the thickness is provably at most
BAND_FRAC (_crowded).  When every point is distinct at tol, the rows go
to that test as they are, without the dedupe's sort: two equal finite
rows lie within any tol > 0, so no two finite rows are equal, and the
test reads only the multiset of the rows and declines on a non-finite
one.  Only the other portraits, of at most 2700 distinct points, get
the exact thickness, whose nearest neighbors come from a ranking of all
pairs, breaking distance ties by the lower index.  The count and the
period search give the result their all-pairs versions would.  numpy
does the arithmetic in blocks: the count computes the cells of _CELLS
points at a time, once for its lonely-point pass and its greedy loop,
which then only looks up buckets, and the thickness ranks _CELLS
distances at a time on x and y columns.

Tail behaviour between well-separated peaks is exponential.  The discrete
per-site decay factor mu solves mu + 1/mu = 2 - E; the continuum
approximation exp(-sqrt(-E)) is its small-|E| limit and is reported
alongside.  Zoom reports are exploratory statistics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    NotLocalized,
    WindowTouchesPeak,
    ZeroAmplitudeInWindow,
)
from .lattice import Boundary, LatticeState, _as_index, _as_points, _as_readonly, _neighbors
from .mapdyn import MapOrbit


@dataclass(frozen=True)
class PhasePortrait:
    """Point set in the (psi, dpsi) plane plus the source amplitude track."""

    points: np.ndarray  # shape (k, 2)
    psi_sequence: Optional[np.ndarray] = None
    cyclic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points, "portrait"))
        if self.psi_sequence is not None:
            psi = _as_readonly(self.psi_sequence)
            if psi.ndim != 1:
                raise ValueError(f"psi_sequence must be 1-D, got shape {psi.shape}")
            object.__setattr__(self, "psi_sequence", psi)

    @property
    def size(self) -> int:
        return self.points.shape[0]


class PortraitLabel(str, Enum):
    REGULAR_PERIODIC = "regular_periodic"
    IRREGULAR_COMMENSURATE = "irregular_commensurate"
    IRREGULAR_INCOMMENSURATE = "irregular_incommensurate"


SHIFT_TOL = 1e-6  # a shift is a period when it moves no site by more
DISTINCT_TOL = 1e-6  # default clustering tolerance for distinct points
BAND_FRAC = 0.05  # a curve is thin up to this thickness / diameter
NEIGHBORS = 6  # nearest neighbours in each local spread


@dataclass(frozen=True)
class PortraitClass:
    """A portrait's label, its distinct-point count at tolerance tol, and
    the period of a regular_periodic one.  The curve thickness that splits
    the irregular labels is not kept: classify_portrait proves most thin
    portraits thin without computing it."""

    label: PortraitLabel
    distinct_points: int
    tol: float  # the distinct-point tolerance
    period: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "label": self.label.value,
            "period": self.period,
            "distinct_points": self.distinct_points,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class TailFit:
    decay_factor_measured: float
    decay_factor_predicted: Optional[float]
    continuum_predicted: Optional[float]
    window: tuple
    cubic_term_significant: bool


def phase_portrait(state: LatticeState) -> PhasePortrait:
    """All (psi[i], psi[i+1]-psi[i]) pairs in lattice order.

    PBC contributes N points (the last one wraps); open boundaries give
    N - 1.
    """
    if state.n_sites < 2:
        raise ValueError("portrait needs at least two sites")
    psi = state.values
    _, nxt = _neighbors(psi, state.boundary)
    pts = np.column_stack([psi, nxt - psi])
    cyclic = state.boundary is Boundary.PERIODIC
    return PhasePortrait(pts if cyclic else pts[:-1], psi_sequence=psi, cyclic=cyclic)


def portrait_from_orbit(orbit: MapOrbit) -> PhasePortrait:
    """Portrait of a map orbit: (psi[k], Z[k+1]) for consecutive points."""
    if orbit.points.shape[0] < 2:
        raise ValueError("orbit portrait needs at least two points")
    pts = np.column_stack([orbit.psi[:-1], orbit.Z[1:]])
    return PhasePortrait(pts, psi_sequence=orbit.psi, cyclic=False)


# cells floor(p / (2 tol)) are clamped to +-_GRID_LIMIT, where they are
# still exact integers well below 2**53; the points beyond share the edge
# cells
_GRID_LIMIT = 2.0**49
# points that distinct_points' greedy loop turns into Python numbers at
# a time: it bounds the temporaries, as io._CHUNK_LINES does the writers'
_BLOCK = 256
# entries that one numpy pass of the distinct-point count or of
# _nearest_neighbors holds at once: the points whose cells are computed
# or keyed, the distances that are ranked
_CELLS = 1 << 15
# cell (cx, cy) has the key cx * _ROW + cy, one int: |cy| <= _GRID_LIMIT + 1,
# so no two cells share a key
_ROW = 2**51
# the key offsets of a cell's 3 x 3 block, its own cell first
_AROUND = (0, *(dx * _ROW + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy))
# the lonely-point pass clamps cells to +-_KEY_LIMIT and keys them as
# cx * _KEY_ROW + cy in int64: a key plus or minus _KEY_ROW + 1 stays
# below 2**63, and no two cells share a key
_KEY_LIMIT = 2**30
_KEY_ROW = 2**32


def distinct_points(portrait: PhasePortrait, tol: float) -> int:
    """Greedy first-fit cluster count in max-norm, deterministic in order.

    A point opens a new cluster exactly when no earlier cluster
    representative lies within tol of it in both coordinates.  For a
    finite tol a point with a NaN or infinite coordinate matches nothing,
    so each one counts as a cluster of its own.

    Points are placed in the cells floor(p / (2 tol)), clamped to
    +-_GRID_LIMIT (_cells, two int64 per point).  A match r has
    |p - r| <= tol + ulp(tol)/2 exactly, at most 3/4 of a cell side, and
    below the clamp the quotients p / (2 tol) and r / (2 tol) each round
    by at most 2**-5, so their floors differ by at most one; the clamp
    and an overflowing quotient are monotone and keep them so.  When
    2 tol overflows every finite point has cell 0 and is compared exactly
    with the others.  A NaN quotient, from a non-finite point or from
    tol = inf, gives cell 0, so with tol = inf every point meets every
    representative.

    The relation is symmetric, so a point whose 3 x 3 block of cells
    holds no other point matches no point, earlier or later: it opens a
    cluster, and no later point can join it.  _lonely finds these points
    in one numpy pass over the sorted cell keys, and maps them back to
    the points through the sorting permutation only where one exists;
    they are counted in bulk and never stored, as are the non-finite
    points for a finite tol.  The greedy loop runs, in order, on the
    other points, _BLOCK of them at a time: each
    representative is bucketed by its cell, and for each point _near
    looks in its own cell and then in the 8 around it, and stops at the
    first match; a point it does not match joins the bucket of its cell.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    points = portrait.points
    cells = _cells(points, tol)
    alone = _lonely(cells)
    if tol < math.inf:  # a non-finite point matches nothing
        alone |= ~np.isfinite(points).all(axis=1)
    buckets: dict = {}  # cx * _ROW + cy -> the representatives in cell (cx, cy)
    crowded = np.flatnonzero(~alone)
    for start in range(0, crowded.size, _BLOCK):
        part = crowded[start:start + _BLOCK]
        for x, y, cx, cy in zip(*points[part].T.tolist(), *cells[:, part].tolist()):
            key = cx * _ROW + cy
            if not _near(buckets, x, y, key, tol):
                buckets.setdefault(key, []).append((x, y))
    return int(np.count_nonzero(alone)) + sum(map(len, buckets.values()))


def _cells(points: np.ndarray, tol: float) -> np.ndarray:
    """The cells floor(p / (2 tol)) of the points p, clamped to
    +-_GRID_LIMIT, with cell 0 for a NaN quotient: cx and cy as the rows
    of an int64 array, computed _CELLS points at a time."""
    cells = np.empty((2, len(points)), np.int64)
    for start in range(0, len(points), _CELLS):
        with np.errstate(over="ignore", invalid="ignore"):
            part = points[start:start + _CELLS].T / (2.0 * tol)
            np.floor(part, out=part)
        part.clip(-_GRID_LIMIT, _GRID_LIMIT, out=part)
        cells[:, start:start + _CELLS] = np.nan_to_num(part, copy=False, nan=0.0)
    return cells


def _lonely(cells: np.ndarray) -> np.ndarray:
    """Whether each point's 3 x 3 block of cells holds no other point.

    The cells are clamped to +-_KEY_LIMIT and keyed as cx * _KEY_ROW +
    cy, _CELLS points at a time.  That clamp is monotone and never moves
    two cells apart, so a point can be read as crowded when it is not,
    but never as lonely when it is not.  The keys within one of a key
    are those of its own cell and of the cells above and below it, so in
    the sorted keys a key more than one away from both its neighbours is
    a cell of one point with its column's two other cells empty.  That
    cell is lonely when the ranges [key + d _KEY_ROW - 1, key + d _KEY_ROW
    + 1], d = -1 and 1, which hold exactly the keys of the side columns'
    cells, hold no key.  The keys are sorted, so a range holds no key
    exactly when the first key at or above its low end, found by one
    left searchsorted, is absent or above its high end: two searches for
    the two side columns.  Where no cell is lonely the pass ends there,
    having held two int64 keys per point.  Otherwise the flags of the
    lonely cells, in sorted order, go back to the points through
    np.argsort of the keys, whose indices take the place of the sorted
    keys.  Equal keys are a crowded cell's, flagged False at each of
    their places, so an unstable sort gives the same mask.
    """
    n = cells.shape[1]
    keys = np.empty(n, np.int64)
    for start in range(0, n, _CELLS):
        cx, cy = cells[:, start:start + _CELLS].clip(-_KEY_LIMIT, _KEY_LIMIT)
        keys[start:start + _CELLS] = cx * _KEY_ROW + cy
    occupied = np.sort(keys)
    apart = np.ones(n + 1, bool)  # apart[i]: occupied[i - 1] < occupied[i] - 1
    for start in range(1, n, _CELLS):
        stop = min(start + _CELLS, n)
        np.greater(occupied[start:stop] - occupied[start - 1:stop - 1], 1, out=apart[start:stop])
    single = apart[:-1] & apart[1:]  # in sorted order
    del apart
    cell = occupied[single]
    alone = np.ones(cell.size, bool)
    for d in (-_KEY_ROW, _KEY_ROW):
        first = np.searchsorted(occupied, cell + (d - 1))
        alone &= (first == n) | (occupied.take(first, mode="clip") > cell + (d + 1))
    if not alone.any():
        return np.zeros(n, bool)
    del occupied, cell
    single[single] = alone  # now lonely, in sorted order
    lonely = np.empty(n, bool)
    lonely[np.argsort(keys)] = single
    return lonely


def _matches(x: float, y: float, reps, tol: float) -> bool:
    """Whether one of reps lies within tol of (x, y) in both coordinates."""
    for rx, ry in reps:
        if abs(x - rx) <= tol and abs(y - ry) <= tol:
            return True
    return False


def _near(buckets, x, y, key, tol) -> bool:
    """Whether a representative in the 3 x 3 cells around the cell of
    key lies within tol of (x, y): first in the bucket of that cell
    itself, then in those of the 8 around it."""
    for offset in _AROUND:
        near = buckets.get(key + offset)
        if near is not None and _matches(x, y, near, tol):
            return True
    return False


_PERIOD_ANCHORS = 8


def _detect_period(psi: np.ndarray, cyclic: bool, tol: float) -> Optional[int]:
    """Smallest shift that maps the amplitude track onto itself within tol.

    A shift p pairs psi[p:] with psi[:-p] and, on a ring, psi[:p] with
    psi[n-p:]; an open track is tried only for shifts whose overlap covers
    at least half the data.  A shift is tested in full only if it carries
    each of the _PERIOD_ANCHORS largest-magnitude sites a (for an open
    track, those in the part every shift overlaps) to a site a + p within
    tol of it.  That is a necessary condition, so the result is the one a
    full test of every shift gives; large sites make it selective, since a
    shift must map peaks onto peaks of the same height.
    """
    n = psi.size
    shifts = np.arange(1, n if cyclic else n // 2 + 1)
    for a in _largest_sites(psi if cyclic else psi[: n - n // 2]):
        shifts = shifts[np.abs(psi[(a + shifts) % n] - psi[a]) <= tol]
    for p in shifts.tolist():
        # a NaN difference fails <=, as a pair that does not match
        if (np.max(np.abs(psi[p:] - psi[:-p])) <= tol
                and (not cyclic or np.max(np.abs(psi[:p] - psi[n - p:])) <= tol)):
            return p
    return None


def _largest_sites(psi: np.ndarray) -> np.ndarray:
    count = min(_PERIOD_ANCHORS, psi.size)
    return np.argpartition(-np.abs(psi), count - 1)[:count]


def classify_portrait(portrait: PhasePortrait, tol: float = DISTINCT_TOL) -> PortraitClass:
    """Label a portrait, counting its distinct points at tolerance tol.

    A portrait that is not periodic is commensurate when its curve
    thickness is at most BAND_FRAC.  _crowded proves that for most thin
    portraits from a grid count; only when it cannot is the thickness
    itself computed.

    _crowded is given the distinct rows, _distinct_rows, except when
    distinct_points returned portrait.size: then it is given the rows as
    they are, and the lexsort is skipped.  Two equal finite rows, -0.0
    and 0.0 included, lie within any tol > 0 of each other, so one of
    them would have joined the other's cluster; every point opening a
    cluster of its own, no two finite rows are equal, and the dedupe
    would drop no finite row.  _crowded reads only the multiset of the
    rows and declines on any non-finite one, so the two inputs get the
    same answer.  _curve_thickness dedupes and sorts for itself."""
    n_distinct = distinct_points(portrait, tol)
    if portrait.psi_sequence is not None and portrait.psi_sequence.size >= 2:
        period = _detect_period(portrait.psi_sequence, portrait.cyclic, SHIFT_TOL)
        if period is not None:
            return PortraitClass(PortraitLabel.REGULAR_PERIODIC, n_distinct, float(tol), period)

    pts = portrait.points if n_distinct == portrait.size else _distinct_rows(portrait.points)
    thin = _crowded(pts)
    if not thin:
        thickness = _curve_thickness(pts)
        thin = thickness is not None and thickness <= BAND_FRAC
    label = PortraitLabel.IRREGULAR_COMMENSURATE if thin else PortraitLabel.IRREGULAR_INCOMMENSURATE
    return PortraitClass(label, n_distinct, float(tol))


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    """The rows of np.unique(points, axis=0), sorted on x and then y, each
    once: a stable lexsort and a test of adjacent rows, which counts -0.0
    and 0.0 as equal and every NaN as distinct, as np.unique does.  Of
    rows equal up to the sign of a zero it keeps the first, where
    np.unique keeps the one its unstable sort puts first."""
    rows = points[np.lexsort((points[:, 1], points[:, 0]))]
    fresh = np.ones(rows.shape[0], dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=fresh[1:])
    return rows[fresh]


def _frame(pts: np.ndarray):
    """The finite rows pts in the portrait's own frame, and its diameter:
    pts - lo, lo their lower corner, scaled by the power of two that puts
    the diameter, the hypot of the frame's extent, in [0.5, 1).

    The subtraction is the only rounding step: it moves a point by at
    most half an ulp of its distance from lo, so points closer together
    than that may meet.  A scaled value rounds only below 2**-1022.  Where
    the span passes the largest float, the rows are quartered before the
    subtraction, which rounds only values below 2**-1020, so no finite
    input overflows.
    """
    lo = pts.min(axis=0)
    with np.errstate(over="ignore"):
        rel = pts - lo
        diameter = float(np.hypot(*rel.max(axis=0)))
    if diameter == math.inf:
        rel = pts * 0.25 - lo * 0.25
        diameter = float(np.hypot(*rel.max(axis=0)))
    scale = -math.frexp(diameter)[1]
    return np.ldexp(rel, scale, out=rel), math.ldexp(diameter, scale)


def _crowded(pts: np.ndarray) -> bool:
    """Whether the distinct points pts provably have a curve thickness of
    at most BAND_FRAC, which it shows without a neighbour search.  It
    reads only the multiset of the rows: their minimum and maximum and
    the count in each cell; their order does not matter.

    Both it and _curve_thickness work in the frame of _frame, where every
    coordinate lies in [0, 1) and the diameter D in [0.5, 1).  Put the n
    points on a grid of cell side t = BAND_FRAC * D, with cells
    floor(p / t), and let k = min(NEIGHBORS, n - 1).  Take a point p whose
    cell holds at least k + 1 of the points, itself included.  Its k
    nearest others lie within R of it, R**2 <= 2 t**2 the cell's squared
    diagonal.  The covariance C of p and those k has trace
    sum |x - mean|**2 / (k + 1) <= sum |x - p|**2 / (k + 1) <= k R**2 / (k + 1),
    so its smaller eigenvalue is at most half that, k t**2 / (k + 1), and
    the spread of p at most sqrt(k / (k + 1)) t, 0.93 t for k = 6.  When
    more than n // 2 of the points are in such cells, the median spread,
    which np.median takes from the middle one or two, is at most that
    too, and the thickness at most sqrt(k / (k + 1)) BAND_FRAC.

    The factor's slack, 7% for k = 6, covers the rounding of the computed
    path.  The cell floors round by at most 1/BAND_FRAC ulps of t, and
    the squared distances that rank the neighbours by a few.  The
    neighbourhood mean rounds by at most k + 1 ulps of 1; that adds its
    square to the smaller eigenvalue, at most 2**-17 t**2 while
    k + 1 <= 2**42 BAND_FRAC.  eigvalsh, the median and the division
    by D each add a few ulps.  So it declines, and leaves the decision to
    _curve_thickness, only on fewer than 4 points, on a non-finite point,
    or where the count fails.  Then at least n - n // 2 points lie in
    cells of at most k points each, and the grid has at most
    (floor(1 / (sqrt(2) BAND_FRAC)) + 1)**2 = 225 occupied cells, so a
    portrait it declines has at most 2 NEIGHBORS 225 = 2700 points.

    Every coordinate in the frame lies in [0, extent], and the extent is
    at most D, so the cells run from 0 to 1/BAND_FRAC = 20 (a quotient
    above 20 by rounding still floors to 20).  The key cx (max cy + 1) +
    cy of a cell is then an exact integer below 21**2 = 441, and
    np.bincount counts the cells.
    """
    n = pts.shape[0]
    if n < 4 or not np.all(np.isfinite(pts)):
        return False
    k = min(NEIGHBORS, n - 1)
    rel, diameter = _frame(pts)
    rel /= BAND_FRAC * diameter
    cx, cy = np.floor(rel, out=rel).T
    # cells run from 0 to 1/BAND_FRAC = 20, so the keys are the integers
    # below 21**2 = 441
    sizes = np.bincount((cx * (cy.max() + 1) + cy).astype(np.intp))
    return int(sizes[sizes > k].sum()) > n // 2


def _curve_thickness(points: np.ndarray) -> Optional[float]:
    """Median local perpendicular spread relative to the portrait diameter.

    Points on a thin closed curve have locally collinear neighborhoods;
    a smeared cloud does not.  The distinct points are taken in the frame
    of _frame, and the neighborhood of each is its k + 1 nearest points
    there, itself included, with k = NEIGHBORS where there are that many
    others, by squared distance with ties going to the lower index in
    lexicographic order; the spread is the square root of the smaller
    eigenvalue of their covariance.  A portrait with a non-finite point
    has no thickness.  classify_portrait computes it only where _crowded
    declines, on at most 2700 points, so the spreads of all the
    neighbourhoods are taken in one batch: one covariance stack and one
    eigvalsh call.
    """
    pts = _distinct_rows(points)
    if not np.all(np.isfinite(pts)):
        return None
    if pts.shape[0] < 4:
        return 0.0
    pts, diameter = _frame(pts)
    k = min(NEIGHBORS, pts.shape[0] - 1)
    hood = pts[np.concatenate(list(_nearest_neighbors(pts, k + 1)))]
    local = hood - hood.mean(axis=1, keepdims=True)
    cov = local.transpose(0, 2, 1) @ local / (k + 1)
    spreads = np.sqrt(np.maximum(np.linalg.eigvalsh(cov)[:, 0], 0.0))
    return float(np.median(spreads)) / diameter


def _nearest_neighbors(pts: np.ndarray, count: int):
    """Yield the indices into pts of the `count` nearest points of every
    point, as arrays of shape (queries, count), for the queries in order.

    Exact: squared distances are dx*dx + dy*dy with dx = neighbor - query,
    and ties go to the lower index into pts.  Each block of queries ranks
    all its distances, at most _CELLS of them (one query at least), which
    bounds the working memory: np.partition finds each query's count-th
    distance, and a stable lexsort orders the pairs no farther than that
    by query and then distance, so ties keep the order of their indices.
    The work is quadratic; classify_portrait asks only where _crowded
    declines, on at most 2700 points.
    """
    x, y = pts.T
    step = max(1, _CELLS // x.size)
    for start in range(0, x.size, step):
        d2 = _sq_dist(x, y, x[start:start + step, None], y[start:start + step, None])
        kth = np.partition(d2, count - 1, axis=1)[:, count - 1:count]
        pairs = np.flatnonzero(d2 <= kth)  # by query, then by index
        rows = pairs // x.size
        pairs = pairs[np.lexsort((d2.ravel()[pairs], rows))]
        first = np.searchsorted(rows, rows)  # where each pair's query starts
        yield pairs[np.arange(rows.size) - first < count].reshape(-1, count) % x.size


def _sq_dist(x: np.ndarray, y: np.ndarray, qx, qy) -> np.ndarray:
    """Squared distances dx*dx + dy*dy from the queries (qx, qy) to the
    points (x, y), formed in two temporaries."""
    d2 = x - qx
    d2 *= d2
    dy = y - qy
    dy *= dy
    d2 += dy
    return d2


def _check_tail_energy(energy):
    if energy >= 0:
        raise NotLocalized("exponential tails require E < 0")
    if not math.isfinite(energy):  # NaN or -inf
        raise ValueError("energy must be finite")


def tail_decay_predicted(energy: float) -> float:
    """Discrete per-site decay factor from the linearized lattice equation.

    mu solves mu + 1/mu = 2 - E and lies in (0, 1) for E < 0.
    """
    _check_tail_energy(energy)
    s = 2.0 - energy
    return (s - np.sqrt(s * s - 4.0)) / 2.0


def tail_decay_continuum(energy: float) -> float:
    """Continuum-limit factor exp(-sqrt(-E)), the small-|E| approximation."""
    _check_tail_energy(energy)
    return float(np.exp(-np.sqrt(-energy)))


def fit_tail(
    state: LatticeState,
    peak_index: int,
    window: tuple,
    energy: Optional[float] = None,
) -> TailFit:
    """Least-squares exponential fit of the tail following a peak.

    peak_index is a site, an integer 0 <= peak_index < N.  window =
    (start, end) are integer offsets from the peak, inclusive, with
    start < end (a slope needs two sites); the sites must lie strictly
    between peaks.  Other values raise ValueError.  The fit is
    flagged when any window amplitude exceeds 0.1 * max|psi|, where the
    cubic term is no longer negligible and the pure exponential stops
    being a good model.
    """
    try:
        peak_index, *offsets = (_as_index(v, "site") for v in (peak_index, *window))
    except (TypeError, ValueError):  # a window that is not a sequence, a bool, a float
        raise ValueError("peak_index and the window offsets must be integers") from None
    start, end = offsets
    if not (1 <= start < end):
        raise ValueError("window offsets must satisfy 1 <= start < end")
    psi = state.values
    n = psi.size
    if not 0 <= peak_index < n:
        raise ValueError(f"peak_index {peak_index} outside the {n} lattice sites")
    peak_amp = np.max(np.abs(psi))
    offsets = np.arange(start, end + 1)
    if state.boundary is Boundary.PERIODIC:
        sites = (peak_index + offsets) % n
    else:
        sites = peak_index + offsets
        if np.any(sites >= n):
            raise ValueError("window extends past the open lattice edge")
    # peak sites are local maxima of |psi| carrying a substantial amplitude;
    # tail sites are monotone stretches and never local maxima
    mag = np.abs(psi)
    left, right = _neighbors(mag, state.boundary)
    is_peak = (mag >= left) & (mag >= right) & (mag > 0.5 * peak_amp)
    if np.any(is_peak[sites]):
        raise WindowTouchesPeak(f"window sites {sites.tolist()} include a peak")
    amps = mag[sites]
    if np.any(amps == 0.0):
        raise ZeroAmplitudeInWindow("zero amplitude in the fit window")

    slope, _ = np.polyfit(offsets.astype(float), np.log(amps), 1)
    measured = float(np.exp(slope))
    predicted = continuum = None
    if energy is not None:
        predicted = tail_decay_predicted(energy)
        continuum = tail_decay_continuum(energy)
    return TailFit(
        decay_factor_measured=measured,
        decay_factor_predicted=predicted,
        continuum_predicted=continuum,
        window=(start, end),
        cubic_term_significant=bool(np.any(amps > 0.1 * peak_amp)),
    )


@dataclass(frozen=True)
class ZoomLevel:
    region: tuple  # (xmin, xmax, ymin, ymax)
    points: np.ndarray
    empty: bool


def zoom_report(
    portrait: PhasePortrait,
    region: tuple,
    levels: int,
):
    """Nested magnifications of a portrait region about its center.

    Level 0 is the given rectangle; each further level halves the
    rectangle's sides.  Empty levels are reported with a flag, not
    raised.
    """
    levels = _as_index(levels, "levels")
    if levels < 1:
        raise ValueError("need at least one level")
    xmin, xmax, ymin, ymax = (float(v) for v in region)
    if not all(map(math.isfinite, (xmin, xmax, ymin, ymax))):
        raise ValueError("region must be finite")
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("degenerate region")
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    hx, hy = (xmax - xmin) / 2.0, (ymax - ymin) / 2.0
    pts = portrait.points
    out = []
    for level in range(levels):
        fx, fy = math.ldexp(hx, -level), math.ldexp(hy, -level)
        box = (cx - fx, cx + fx, cy - fy, cy + fy)
        inside = pts[
            (pts[:, 0] >= box[0]) & (pts[:, 0] <= box[1])
            & (pts[:, 1] >= box[2]) & (pts[:, 1] <= box[3])
        ]
        out.append(ZoomLevel(region=box, points=inside, empty=inside.shape[0] == 0))
    return out
