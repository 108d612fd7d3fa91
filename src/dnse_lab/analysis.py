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
distinct-point count buckets cluster representatives on a grid of cell
size tol, whose edge cells take every point beyond +-_GRID_LIMIT cells
(the count turns quadratic only when most points lie there), the period
search tests in full only the shifts that carry each of the 8 largest
sites to within tol of itself, and the curve thickness finds exact
nearest neighbors with a k-d tree searched one leaf's queries at a time,
breaking distance ties by the lower index.  Each gives the result the
all-pairs search would.  numpy does the arithmetic, in blocks of _BLOCK:
the count computes every point's cell before its greedy loop, which then
only looks up buckets, and the thickness ranks distances on x and y
columns and takes the spreads of many neighbourhoods at once.

Tail behaviour between well-separated peaks is exponential.  The discrete
per-site decay factor mu solves mu + 1/mu = 2 - E; the continuum
approximation exp(-sqrt(-E)) is its small-|E| limit and is reported
alongside.  Box counting and zoom reports are exploratory statistics
only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    NotLocalized,
    WindowTouchesPeak,
    ZeroAmplitudeInWindow,
)
from .lattice import Boundary, LatticeState, _as_points, _as_readonly, _neighbors
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
            object.__setattr__(self, "psi_sequence", _as_readonly(self.psi_sequence))

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
    label: PortraitLabel
    distinct_points: int
    tol: float  # the distinct-point tolerance
    period: Optional[int] = None
    curve_thickness: Optional[float] = None  # None if periodic or non-finite

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


# cells floor(p / tol) are clamped to +-_GRID_LIMIT, where they are still
# exact integers well below 2**53; the points beyond share the edge cells
_GRID_LIMIT = 2.0**49
# points whose cells, or neighbourhoods whose spreads, one numpy pass
# computes: it bounds the temporaries, as io._CHUNK_LINES does the writers'
_BLOCK = 256
# cell (cx, cy) has the key cx * _ROW + cy, one int: |cy| <= _GRID_LIMIT,
# so no two cells share a key
_ROW = 2**51


def distinct_points(portrait: PhasePortrait, tol: float) -> int:
    """Greedy first-fit cluster count in max-norm, deterministic in order.

    A point opens a new cluster exactly when no earlier cluster
    representative lies within tol of it in both coordinates.  For a
    finite tol a point with a NaN or infinite coordinate matches nothing,
    so each one counts as a cluster of its own.

    Representatives are bucketed by the cell floor(p / tol), clamped to
    +-_GRID_LIMIT, and a point is compared only with the cells its tol-box
    can reach.  Those cells run from the cell of p - reach to the cell of
    p + reach, with reach the float just above tol and both ends clipped
    to +-the largest float: a match r has |p - r| <= tol + ulp(tol)/2
    exactly, so fl(p - reach) <= r <= fl(p + reach) with r finite, and a
    correctly rounded p / tol (an overflow included) followed by floor
    and the clamp is monotone in p.  The span is three cells, or four when
    p + reach or p - reach lands on a cell edge (five at tol 5e-324, whose
    reach is 2 tol); the clip keeps an overflowing p + reach from widening
    it, and the clamp shrinks it, down to the edge cell alone, whose
    points are compared exactly.  A NaN quotient, from a non-finite point
    or from tol = inf, gives cell 0, so with tol = inf every point meets
    every representative.  numpy computes these cells for _BLOCK points
    at a time.  The loop then looks in the point's own cell, and after
    that only in the columns of cells that hold representatives, and
    stops at the first match.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    reach = math.nextafter(tol, math.inf)
    big = sys.float_info.max
    count = 0
    buckets: dict = {}  # cx * _ROW + cy -> the representatives in cell (cx, cy)
    columns = set()  # the cx of every bucket
    for start in range(0, portrait.size, _BLOCK):
        xs, ys = portrait.points[start:start + _BLOCK].T
        # a non-finite point matches nothing unless tol itself is inf
        apart = ~(np.isfinite(xs) & np.isfinite(ys)) & (tol < math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            edges = np.clip([xs - reach, ys - reach, xs + reach, ys + reach], -big, big)
            cells = np.floor(np.vstack([xs, ys, edges]) / tol)
            cells = np.nan_to_num(cells.clip(-_GRID_LIMIT, _GRID_LIMIT), nan=0.0).astype(np.int64)
        # the reach range relative to the own cell, in small ints that
        # Python does not allocate one by one
        cells[2:4] -= cells[:2]
        cells[4:] -= cells[:2]
        for x, y, alone, cx, cy, lx, ly, hx, hy in zip(
                xs.tolist(), ys.tolist(), apart.tolist(), *cells.tolist()):
            if not alone:
                key = cx * _ROW + cy
                own = buckets.get(key)
                if ((own is not None and _matches(x, y, own, tol))
                        or _reaches(buckets, columns, x, y, cx, cy, lx, ly, hx, hy, tol)):
                    continue
                if own is None:
                    buckets[key] = own = []
                    columns.add(cx)
                own.append((x, y))
            count += 1
    return count


def _matches(x: float, y: float, reps, tol: float) -> bool:
    """Whether one of reps lies within tol of (x, y) in both coordinates."""
    for rx, ry in reps:
        if abs(x - rx) <= tol and abs(y - ry) <= tol:
            return True
    return False


def _reaches(buckets, columns, x, y, cx, cy, lx, ly, hx, hy, tol) -> bool:
    """Whether a representative in the cells from (cx + lx, cy + ly) to
    (cx + hx, cy + hy) matches (x, y)."""
    for ax in range(cx + lx, cx + hx + 1):
        if ax in columns:
            for key in range(ax * _ROW + cy + ly, ax * _ROW + cy + hy + 1):
                near = buckets.get(key)
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
    """Label a portrait, counting its distinct points at tolerance tol."""
    n_distinct = distinct_points(portrait, tol)
    if portrait.psi_sequence is not None and portrait.psi_sequence.size >= 2:
        period = _detect_period(portrait.psi_sequence, portrait.cyclic, SHIFT_TOL)
        if period is not None:
            return PortraitClass(PortraitLabel.REGULAR_PERIODIC, n_distinct, tol, period)

    thickness = _curve_thickness(portrait.points)
    if thickness is not None and thickness <= BAND_FRAC:
        label = PortraitLabel.IRREGULAR_COMMENSURATE
    else:
        label = PortraitLabel.IRREGULAR_INCOMMENSURATE
    return PortraitClass(label, n_distinct, tol, curve_thickness=thickness)


def _curve_thickness(points: np.ndarray) -> Optional[float]:
    """Median local perpendicular spread relative to the portrait diameter.

    Points on a thin closed curve have locally collinear neighborhoods;
    a smeared cloud does not.  The neighborhood of a distinct point is
    its k + 1 nearest distinct points, itself included, with k = NEIGHBORS
    where there are that many others, by squared distance with ties
    going to the lower index in lexicographic order;
    the spread is the square root of the smaller eigenvalue of their
    covariance.  A portrait with a non-finite point has no thickness.
    """
    pts = np.unique(points, axis=0)
    if not np.all(np.isfinite(pts)):
        return None
    if pts.shape[0] < 4:
        return 0.0
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    diameter = float(np.linalg.norm(hi - lo))
    if diameter == 0.0:
        return 0.0
    k = min(NEIGHBORS, pts.shape[0] - 1)
    spreads = []
    for hoods in _nearest_neighbors(pts, k + 1):
        hood = pts[hoods]
        local = hood - hood.mean(axis=1, keepdims=True)
        cov = local.transpose(0, 2, 1) @ local / (k + 1)
        spreads.append(np.sqrt(np.maximum(np.linalg.eigvalsh(cov)[:, 0], 0.0)))
    return float(np.median(np.concatenate(spreads))) / diameter


_LEAF = 64  # a k-d node with fewer than max(_LEAF, 2 * count) points is a leaf
_CELLS = 1 << 16  # distances the kNN search ranks at once


def _nearest_neighbors(pts: np.ndarray, count: int):
    """Yield the indices into pts of the `count` nearest points of every
    point, as arrays of shape (queries, count), _BLOCK queries or more at
    a time.

    Exact: squared distances are dx*dx + dy*dy with dx = neighbor - query,
    and ties go to the lower index into pts.  A 2-d tree (Friedman,
    Bentley & Finkel 1977) splits a node at its middle along the wider
    side of its box until it holds fewer than max(_LEAF, 2 * count)
    points, so every leaf holds at least `count`.  Each query of a leaf
    bounds its count-th distance by the leaf's own points.  The search
    keeps the leaves whose box lies within the largest of those bounds of
    the leaf's box, and each query then only the leaves within its own
    bound of it; box gaps round the same way as point distances, so no
    point is nearer than its box.  The queries are ranked in order of
    their bounds, against the leaves the queries so far keep, in blocks
    of at most _CELLS distances (one query at least), which bounds the
    working memory.
    """
    x, y = pts.T
    leaf_size = max(_LEAF, 2 * count)
    order = np.arange(pts.shape[0])
    boxes, slices = [], []  # of the leaves

    def build(s, e):
        ids = order[s:e]
        bx, by = x[ids], y[ids]
        box = (float(bx.min()), float(by.min()), float(bx.max()), float(by.max()))
        if e - s < leaf_size:
            boxes.append(box)
            slices.append(slice(s, e))
            return box, len(slices) - 1
        wider = bx if box[2] - box[0] >= box[3] - box[1] else by  # x on a tie
        order[s:e] = ids[np.argsort(wider, kind="stable")]
        del bx, by, wider  # before the subtrees gather theirs
        return box, build(s, (s + e) // 2), build((s + e) // 2, e)

    root = build(0, pts.shape[0])
    lo_x, lo_y, hi_x, hi_y = np.array(boxes).T
    sizes = np.array([at.stop - at.start for at in slices])
    held, found = 0, []
    for (lx, ly, hx, hy), at in zip(boxes, slices):
        q = order[at]
        qx, qy = x[q], y[q]
        bound = np.partition(_sq_dist(qx, qy, qx[:, None], qy[:, None]), count - 1, axis=1)[:, count - 1]
        reach = float(bound.max())
        near, stack = [], [root]
        while stack:
            node = stack.pop()
            nlx, nly, nhx, nhy = node[0]
            gx, gy = max(nlx - hx, lx - nhx, 0.0), max(nly - hy, ly - nhy, 0.0)
            if gx * gx + gy * gy <= reach:
                if len(node) == 2:
                    near.append(node[1])
                else:
                    stack += node[1:]
        near = np.array(near)
        # the leaves within each query's own bound of it, queries by bound
        rank = np.argsort(bound, kind="stable")
        qx, qy, bound = qx[rank, None], qy[rank, None], bound[rank]
        gx = np.maximum(np.maximum(lo_x[near] - qx, qx - hi_x[near]), 0.0)
        gy = np.maximum(np.maximum(lo_y[near] - qy, qy - hi_y[near]), 0.0)
        kept = np.logical_or.accumulate(gx * gx + gy * gy <= bound[:, None], axis=0)
        width = kept @ sizes[near]  # candidates of the queries so far
        r0 = 0
        while r0 < bound.size:  # as many queries as fit in _CELLS distances
            r1 = r0 + max(1, np.count_nonzero(np.arange(1, bound.size - r0 + 1) * width[r0:] <= _CELLS))
            leaves = near[kept[r1 - 1]]
            cand = np.sort(np.concatenate([order[slices[leaf]] for leaf in leaves.tolist()]))
            d2 = _sq_dist(x[cand], y[cand], qx[r0:r1], qy[r0:r1])
            close = (d2 <= bound[r0:r1, None]).any(axis=0)
            found.append(cand[close][np.argsort(d2[:, close], axis=1, kind="stable")[:, :count]])
            held += r1 - r0
            r0 = r1
        if held >= _BLOCK:
            yield np.concatenate(found)
            held, found = 0, []
    if found:
        yield np.concatenate(found)


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

    peak_index is a site, 0 <= peak_index < N.  window = (start, end)
    offsets from the peak, inclusive; the sites must lie strictly between
    peaks.  The fit is flagged when any window amplitude exceeds
    0.1 * max|psi|, where the cubic term is no longer negligible and the
    pure exponential stops being a good model.
    """
    start, end = window
    if not (1 <= start <= end):
        raise ValueError("window offsets must satisfy 1 <= start <= end")
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
        window=(int(start), int(end)),
        cubic_term_significant=bool(np.any(amps > 0.1 * peak_amp)),
    )


@dataclass(frozen=True)
class BoxCountResult:
    counts: tuple  # of (scale, occupied) pairs
    slope_estimate: float  # exploratory, non-rigorous dimension statistic


def box_count(portrait: PhasePortrait, scales) -> BoxCountResult:
    """Occupied-box counts on the portrait bounding square.

    The log-log slope is reported as an exploratory statistic only; no
    rigorous fractal-dimension claim is attached to it.  A scale is
    refused when the portrait's extent spans _GRID_LIMIT boxes of it.
    """
    scales = [float(s) for s in scales]
    if len(scales) < 2:
        raise ValueError("need at least two scales")
    if not all(0 < s < math.inf for s in scales):  # NaN fails too
        raise ValueError("scales must be positive and finite")
    pts = portrait.points
    if not np.all(np.isfinite(pts)):
        raise ValueError("box counting needs finite points")
    lo = pts.min(axis=0)
    with np.errstate(over="ignore"):
        extent = float(np.max(pts.max(axis=0) - lo))
    if extent == math.inf:
        raise ValueError("portrait extent overflows float64")
    counts = []
    for s in scales:
        if extent >= _GRID_LIMIT * s:  # box indices past it are not exact
            raise ValueError(f"scale {s!r} is too fine for exact boxes on this portrait")
        cells = np.floor((pts - lo) / s).astype(np.int64)
        counts.append((s, int(np.unique(cells, axis=0).shape[0])))
    xs = np.log([1.0 / s for s, _ in counts])
    ys = np.log([max(c, 1) for _, c in counts])
    slope = float(np.polyfit(xs, ys, 1)[0]) if np.ptp(xs) > 0 else 0.0
    return BoxCountResult(counts=tuple(counts), slope_estimate=slope)


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
        fx, fy = hx / 2.0**level, hy / 2.0**level
        box = (cx - fx, cx + fx, cy - fy, cy + fy)
        inside = pts[
            (pts[:, 0] >= box[0]) & (pts[:, 0] <= box[1])
            & (pts[:, 1] >= box[2]) & (pts[:, 1] <= box[3])
        ]
        out.append(ZoomLevel(region=box, points=inside, empty=inside.shape[0] == 0))
    return out
