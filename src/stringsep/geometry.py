"""Polygonal curves and exact intersection predicates.

All predicates use integer (or exact rational) arithmetic: orientations are
signs of 2x2 determinants and intersection points are exact, kept as
normalised integer triples (X, Y, D) and returned as Fractions, so results
are invariant under integer translation and never depend on an epsilon.

Many segment pairs at once go through one screen, the sweep
`_segment_pairs`: it decides exactly and as arrays whether closed segments
share a point, from the four orientation signs of each candidate pair, and
yields the pairs that do with their signs.  Its one caller `_meeting_keys`
reuses those signs to find where distinct curves meet, as `_meeting` does
for one pair, and reads each curve's simplicity off the same pairs.  Both
compute in int64 below a stated bound on every |coordinate| (2^30 for the
screen's cross products, 2^19 for a key's products) and otherwise on Python
ints (dtype=object); the code is the same and the dtype follows from the
input.  The scalar `_meeting` serves single pairs: the generator's box hits
and `segments_intersect`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .errors import ContractViolation, GenerationError, ParseError, StandardnessError, _integer
from .graphs import Graph, int_tokens, numbered_lines

Point = tuple[int, int]
RatPoint = tuple[Fraction, Fraction]
# the exact point (X/D, Y/D) as the integers (X, Y, D), D > 0 and gcd(X, Y, D) = 1,
# so equal points have equal keys
PointKey = tuple[int, int, int]

# below this bound on |coordinate|, differences stay below 2^31 and every
# cross product of _segment_pairs below 2^63, so int64 is exact
_INT64_BOUND = 1 << 30
# below this bound, every intermediate of a key in _meeting_keys fits in
# int64: differences stay below 2^20, den and num below 2^41, and
# p den + num d below 2^60 + 2^61
_KEY_BOUND = 1 << 19
# candidate segment pairs expanded at once by _segment_pairs
_PAIR_CHUNK = 1 << 18


class SegmentRelation(Enum):
    DISJOINT = "disjoint"
    PROPER_CROSSING = "proper_crossing"
    TOUCHING = "touching"
    OVERLAPPING = "overlapping"


def orientation(p, q, r) -> int:
    """Sign of the cross product (q - p) x (r - p): +1 left turn, -1 right, 0 collinear."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def segments_intersect(p, q, r, s) -> SegmentRelation:
    """Exact classification of how closed segments pq and rs meet.

    PROPER_CROSSING: interiors cross transversally.  TOUCHING: exactly one
    shared point, an endpoint of at least one segment.  OVERLAPPING: collinear
    with a common sub-segment of positive length.
    """
    return _meeting(p, q, r, s)[0]


def _meeting(p, q, r, s) -> tuple[SegmentRelation, PointKey | None]:
    """How pq and rs meet (as segments_intersect), and their shared point
    when there is exactly one, all from the four orientations o(p,q,r),
    o(p,q,s), o(r,s,p) and o(r,s,q)."""
    if p == q or r == s:
        raise ContractViolation("degenerate segment")
    o1 = orientation(p, q, r)
    o2 = orientation(p, q, s)
    o3 = orientation(r, s, p)
    o4 = orientation(r, s, q)
    if o1 * o2 < 0 and o3 * o4 < 0:
        # p + t (q - p) with t = num / den = cross(r - p, s - r) / cross(q - p, s - r)
        dx, dy = q[0] - p[0], q[1] - p[1]
        ex, ey = s[0] - r[0], s[1] - r[1]
        den = dx * ey - dy * ex
        num = (r[0] - p[0]) * ey - (r[1] - p[1]) * ex
        x, y = p[0] * den + num * dx, p[1] * den + num * dy
        if den < 0:
            x, y, den = -x, -y, -den
        g = gcd(x, y, den)
        return SegmentRelation.PROPER_CROSSING, (x // g, y // g, den // g)
    if o1 == 0 and o2 == 0:
        # collinear: compare 1-d extents along an axis the line is not constant on
        axis = 0 if p[0] != q[0] else 1
        pa, qa = sorted((p[axis], q[axis]))
        ra, sa = sorted((r[axis], s[axis]))
        lo, hi = max(pa, ra), min(qa, sa)
        if lo > hi:
            return SegmentRelation.DISJOINT, None
        if lo < hi:
            return SegmentRelation.OVERLAPPING, None
        # on this line one value of the axis is one point
        pt = next(t for t in (p, q, r, s) if t[axis] == lo)
        return SegmentRelation.TOUCHING, (pt[0], pt[1], 1)
    if o1 * o2 > 0 or o3 * o4 > 0:
        return SegmentRelation.DISJOINT, None
    # the lines differ and each segment reaches the other's line, so the
    # endpoint whose orientation is 0 lies where the lines meet, on both segments
    pt = r if o1 == 0 else s if o2 == 0 else p if o3 == 0 else q
    return SegmentRelation.TOUCHING, (pt[0], pt[1], 1)


def _coords(values) -> np.ndarray:
    """Integer coordinates as an int64 array, or as Python ints (dtype=object)
    when some do not fit in int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _exact(ends, bound) -> np.ndarray:
    """The _coords array `ends` on Python ints (dtype=object) unless every
    |coordinate| is below `bound`."""
    big = ends.dtype == object or ends.size and (ends.max() >= bound or ends.min() <= -bound)
    return ends.astype(object) if big else ends


def _rational(key: PointKey) -> RatPoint:
    x, y, den = key
    return (Fraction(x, den), Fraction(y, den))


def sq_dist_points(p, q) -> Fraction:
    return Fraction((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)


def sq_dist_point_segment(x, p, q) -> Fraction:
    """Exact squared Euclidean distance from point x to closed segment pq."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    ln = dx * dx + dy * dy
    if ln == 0:
        return sq_dist_points(x, p)
    t = Fraction((x[0] - p[0]) * dx + (x[1] - p[1]) * dy, ln)
    if t <= 0:
        return sq_dist_points(x, p)
    if t >= 1:
        return sq_dist_points(x, q)
    fx, fy = p[0] + t * dx, p[1] + t * dy
    return (x[0] - fx) ** 2 + (x[1] - fy) ** 2


def sq_dist_segments(p, q, r, s) -> Fraction:
    """Exact squared distance between closed segments (0 when they meet);
    either may be a single point p = q or r = s."""
    if p != q and r != s and segments_intersect(p, q, r, s) is not SegmentRelation.DISJOINT:
        return Fraction(0)
    return min(
        sq_dist_point_segment(r, p, q),
        sq_dist_point_segment(s, p, q),
        sq_dist_point_segment(p, r, s),
        sq_dist_point_segment(q, r, s),
    )


@dataclass(frozen=True)
class PolylineCurve:
    """A simple polygonal curve with integer coordinates.

    Adjacent segments share exactly their common endpoint; non-adjacent
    segments are disjoint.  Call validate() to enforce this.
    """

    id: str
    points: tuple[Point, ...]

    @cached_property
    def segments(self) -> tuple[tuple[Point, Point], ...]:
        return tuple(zip(self.points, self.points[1:]))

    def validate(self) -> None:
        """Raise ContractViolation for the first fault met: too few points, a
        repeated point, then in order of i, segments i, i+1 that double back
        or segments i < j - 1 that share a point.  This is
        validate_standardness of the curve alone."""
        validate_standardness(StringRepresentation((self,)))


def _fault(curve: PolylineCurve, s: int, t: int) -> str:
    """The message of the fault (s, t) that _meeting_keys finds in `curve`."""
    if len(curve.points) < 2:
        return f"curve {curve.id}: needs at least 2 points"
    if s < 0:
        return f"curve {curve.id}: repeated consecutive point {curve.points[t]}"
    if t == s + 1:
        return f"curve {curve.id}: segments {s},{t} double back at {curve.points[t]}"
    return f"curve {curve.id}: non-adjacent segments {s},{t} intersect"


def _meeting_keys(groups):
    """Every pair of segments of distinct groups that share a point, and
    each group's first fault as a curve, from one _segment_pairs call.

    The pairs come as arrays in order of (group pair, segments): the groups
    i < j, whether the pair overlaps on a sub-segment, and the key (X, Y, D)
    of its one shared point as a row of a (k, 3) array (a row of no meaning
    where it overlaps).  A group may hold a one-point segment (p, p).  The
    faults come as (group, s, t), in group order, for _fault to read.

    Decided as _meeting decides it, from the orientations o(p,q,r),
    o(p,q,s), o(r,s,p) and o(r,s,q) that _segment_pairs yields with each
    pair; a one-point segment makes both orientations about it 0, so its
    pairs are collinear touches.  The keys are computed in int64 when every
    |coordinate| is below _KEY_BOUND, else on Python ints.
    """
    sizes = np.array([len(group) for group in groups], dtype=np.int64)
    ends = _coords([p + q for group in groups for p, q in group]).reshape(-1, 4)
    curve_of = np.repeat(np.arange(len(groups)), sizes)
    # each segment's number in its group, and each group's least fault
    # (s, t) as s * base + t, (n, n) while none of its n segments has one
    within, base = np.arange(len(ends)) - (np.cumsum(sizes) - sizes)[curve_of], len(ends) + 1
    least = sizes * (base + 1)
    # consecutive segments pq, qs double back: (q - p) x (s - q) = 0 > (q - p) . (s - q)
    k, exact = np.flatnonzero(curve_of[1:] == curve_of[:-1]), _exact(ends, _INT64_BOUND)
    u, v = exact[k, 2:] - exact[k, :2], exact[k + 1, 2:] - exact[k, 2:]
    k = k[(u[:, 0] * v[:, 1] == u[:, 1] * v[:, 0]) & ((u * v).sum(axis=1) < 0)]
    np.minimum.at(least, curve_of[k], within[k] * (base + 1) + 1)
    # a one-point segment t comes first, as (-1, t)
    point = np.flatnonzero((ends[:, :2] == ends[:, 2:]).all(axis=1))
    np.minimum.at(least, curve_of[point], within[point] - base)
    found = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros((4, 0), dtype=np.int8),)]
    for a, b, o in _segment_pairs(ends, curve_of):
        # pairs of one group are reduced as they come, so they take one chunk
        one = curve_of[a] == curve_of[b]
        np.minimum.at(least, curve_of[a[one]], within[a[one]] * base + within[b[one]])
        found.append((a[~one], b[~one], o[:, ~one]))
    s, t = np.divmod(least, base)
    bad = np.flatnonzero((s < sizes) | (sizes == 0)).tolist()
    faults = [(g, int(s[g]), int(t[g])) for g in bad]
    a, b, o = (np.concatenate(c, axis=-1) for c in zip(*found))
    by = np.lexsort((b, a, curve_of[b], curve_of[a]))
    a, b, (o1, o2, o3, o4) = a[by], b[by], o[:, by]
    ends = _exact(ends, _KEY_BOUND)
    P, Q, R, S = ends[a, :2], ends[a, 2:], ends[b, :2], ends[b, 2:]
    (px, py), (qx, qy), (rx, ry), (sx, sy) = P.T, Q.T, R.T, S.T
    collinear = (o1 == 0) & (o2 == 0)
    # on a common line: 1-d extents along an axis pq is not constant on
    along = [np.where(px != qx, u[:, 0], u[:, 1]) for u in (P, Q, R, S)]
    lo = np.maximum(np.minimum(along[0], along[1]), np.minimum(along[2], along[3]))
    hi = np.minimum(np.maximum(along[0], along[1]), np.maximum(along[2], along[3]))
    overlap = collinear & (lo < hi)
    # a touch: on a common line the first end at lo, else the end whose
    # orientation is 0
    at = [collinear & (along[0] == lo), collinear & (along[1] == lo),
          collinear & (along[2] == lo), collinear, o1 == 0, o2 == 0, o3 == 0]
    key = np.ones((len(a), 3), dtype=ends.dtype)
    key[:, :2] = np.select([c[:, None] for c in at], [P, Q, R, S, R, S, P], Q)
    # a proper crossing: p + t (q - p), t = num / den as in _meeting
    k = np.flatnonzero((o1 * o2 < 0) & (o3 * o4 < 0))
    px, py, qx, qy, rx, ry, sx, sy = (v[k] for v in (px, py, qx, qy, rx, ry, sx, sy))
    dx, dy, ex, ey = qx - px, qy - py, sx - rx, sy - ry
    den = dx * ey - dy * ex
    num = (rx - px) * ey - (ry - py) * ex
    sign = np.where(den < 0, -1, 1)
    x, y, den = (px * den + num * dx) * sign, (py * den + num * dy) * sign, den * sign
    g = np.gcd(np.gcd(x, y), den)
    key[k] = np.stack([x // g, y // g, den // g], axis=1)
    return curve_of[a], curve_of[b], overlap, key, faults


def _segment_pairs(ends, curve_of):
    """Yield, a chunk at a time, the segment pairs (a, b), a < b, but for
    consecutive segments of one curve, that share a point, from the rows
    (x0, y0, x1, y1) of the _coords array `ends`: two index arrays and the
    (4, k) int8 array of each pair's orientations o(p,q,r), o(p,q,s),
    o(r,s,p) and o(r,s,q), pq segment a and rs segment b.  Segments must be
    listed curve by curve, so a is of the lower curve.

    Candidates come from a sweep over the closed segment boxes sorted by
    left edge: each box meets in x the boxes that start before it ends.
    They are expanded at most _PAIR_CHUNK at a time (or one box's worth),
    so the memory a chunk takes does not grow with the pairs found before
    it, and consecutive segments of one curve and pairs whose y-ranges miss
    are dropped.  The boxes of the rest meet, so a pair shares a point exactly when
    o(p,q,r) o(p,q,s) <= 0 and o(r,s,p) o(r,s,q) <= 0.  That holds for a
    one-point segment r = s too (and likewise p = q): both o(r,s,.) are 0,
    which leaves o(p,q,r)^2 <= 0, that is, r lies on the line pq and in its
    box, so on the closed segment pq.  The orientations are computed in int64 when
    every |coordinate| is below _INT64_BOUND, else on Python ints.
    """
    exact = _exact(ends, _INT64_BOUND)
    x0, x1 = np.minimum(ends[:, 0], ends[:, 2]), np.maximum(ends[:, 0], ends[:, 2])
    y0, y1 = np.minimum(ends[:, 1], ends[:, 3]), np.maximum(ends[:, 1], ends[:, 3])
    n = len(ends)
    order = np.argsort(x0, kind="stable")
    # position k meets positions k+1 .. stop[k]-1 in x
    width = np.searchsorted(x0[order], x1[order], side="right") - np.arange(1, n + 1)
    total = np.cumsum(width)
    lo = 0
    while lo < n:
        done = int(total[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(total, done + _PAIR_CHUNK, side="right")), lo + 1)
        w = width[lo:hi]
        first = np.repeat(np.arange(lo, hi), w)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(w) - w, w)
        a, b = np.minimum(order[first], order[second]), np.maximum(order[first], order[second])
        keep = ((b - a > 1) | (curve_of[a] != curve_of[b])) & (y0[a] <= y1[b]) & (y0[b] <= y1[a])
        a, b = a[keep], b[keep]
        (px, py, qx, qy), (rx, ry, sx, sy) = exact[a].T, exact[b].T
        dx, dy, ex, ey = qx - px, qy - py, sx - rx, sy - ry
        o = np.sign([dx * (ry - py) - dy * (rx - px), dx * (sy - py) - dy * (sx - px),
                     ex * (py - ry) - ey * (px - rx), ex * (qy - ry) - ey * (qx - rx)])
        o = o.astype(np.int8)
        hit = (o[0] * o[1] <= 0) & (o[2] * o[3] <= 0)
        yield a[hit], b[hit], o[:, hit]
        lo = hi


@dataclass(frozen=True)
class StringRepresentation:
    """A finite set of simple polygonal curves with distinct ids."""

    curves: tuple[PolylineCurve, ...]

    def __post_init__(self):
        ids = [c.id for c in self.curves]
        if len(set(ids)) != len(ids):
            raise ContractViolation("curve ids must be distinct")

    def sorted_curves(self) -> tuple[PolylineCurve, ...]:
        # length-then-lexicographic keeps plain decimal labels in numeric order
        return tuple(sorted(self.curves, key=lambda c: (len(c.id), c.id)))


def validate_standardness(rep: StringRepresentation) -> dict[tuple[int, int], int]:
    """Enforce the standard-representation invariants; return the point counts.

    Every curve is simple, every pairwise intersection set is finite (no
    collinear overlaps between distinct curves), and no point lies on three
    or more curves.  Returns the number of distinct intersection points of
    every pair (i, j), i < j, of curves that meet, indexed in id-sorted order
    and listed in lexicographic order.  The segment pairs come from one
    _meeting_keys call, and one sort of their points by (key, curve pair)
    gives each pair's distinct points and each point's first pair, its
    owner.  The first curve pair in lexicographic order that overlaps or
    has a point an earlier pair owns is reported, an overlap first, so the
    violation raised does not depend on how the pairs were found.
    """
    curves = rep.sorted_curves()
    i, j, overlap, key, faults = _meeting_keys([c.segments for c in curves])
    if faults:
        raise ContractViolation(_fault(curves[faults[0][0]], *faults[0][1:]))
    n = len(curves)
    pair = i * n + j
    rows = np.flatnonzero(~overlap)
    rows = rows[np.lexsort((pair[rows], key[rows, 2], key[rows, 1], key[rows, 0]))]
    keys, pairs = key[rows], pair[rows]
    new_key = np.ones(len(rows), dtype=bool)
    new_key[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    new_point = new_key.copy()
    new_point[1:] |= pairs[1:] != pairs[:-1]
    bad = np.concatenate([pair[overlap], pairs[new_point & ~new_key]])
    if bad.size:
        first = int(bad.min())
        i0, j0 = divmod(first, n)
        if (pair[overlap] == first).any():
            raise StandardnessError(
                f"curves {curves[i0].id} and {curves[j0].id} overlap on a common sub-segment"
            )
        # the first point of this pair that an earlier pair owns, in the
        # iteration order of its points as a set of Fractions built in key order
        points = dict.fromkeys(map(tuple, key[pair == first].tolist()))
        owner = {
            _rational(pt): divmod(p, n)
            for pt, p in zip(map(tuple, keys[new_key].tolist()), pairs[new_key].tolist())
            if pt in points and p < first
        }
        pt = next(pt for pt in {_rational(pk) for pk in points} if pt in owner)
        involved = ", ".join(sorted({curves[k].id for k in (i0, j0, *owner[pt])}))
        raise StandardnessError(f"triple point at ({pt[0]}, {pt[1]}): curves {involved}")
    found, counts = np.unique(pairs[new_point], return_counts=True)
    return {divmod(p, n): c for p, c in zip(found.tolist(), counts.tolist())}


def intersection_graph(rep: StringRepresentation) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Intersection graph of a standard string representation.

    Vertex i is the i-th curve in id-sorted order.  Also returns, for every
    adjacent pair, the number of distinct intersection points: the counts
    validate_standardness collects, in lexicographic order.
    """
    counts = validate_standardness(rep)
    return Graph(len(rep.curves), tuple(counts)), counts


def parse_points(coords: str, lineno: int) -> tuple[Point, ...]:
    """The points of the coordinate list "x0 y0 x1 y1 ..." on line lineno:
    an even count >= 4 of integers."""
    nums = coords.split()
    if len(nums) < 4 or len(nums) % 2:
        raise ParseError("need an even count >= 4 of coordinates", lineno)
    vals = int_tokens(nums, None, "coordinates must be integers", lineno)
    return tuple(zip(vals[::2], vals[1::2]))


def parse_strings_file(text: str) -> StringRepresentation:
    """Parse the strings format: one line per curve, "id: x0 y0 x1 y1 ...",
    each id on one line only."""
    curves: dict[str, PolylineCurve] = {}
    for lineno, raw in numbered_lines(text.splitlines()):
        label, colon, coords = raw.partition(":")
        if not colon:
            raise ParseError("expected 'id: x0 y0 ...'", lineno)
        label = label.strip()
        pts = parse_points(coords, lineno)
        if label in curves:
            raise ParseError(f"repeated curve id {label!r}", lineno)
        curves[label] = PolylineCurve(label, pts)
    return StringRepresentation(tuple(curves.values()))


def write_strings_file(rep: StringRepresentation) -> str:
    """The strings format of rep, which parse_strings_file reads back; an id
    holding ':' or a line break, or with whitespace at either end, is
    refused, as the reader could not return it."""
    lines = []
    for c in rep.sorted_curves():
        if ":" in c.id or c.id != c.id.strip() or len(c.id.splitlines()) > 1:
            raise ContractViolation(f"curve id {c.id!r} cannot be written: ':', a line "
                                    "break or whitespace at an end")
        coords = " ".join(f"{x} {y}" for x, y in c.points)
        lines.append(f"{c.id}: {coords}")
    return "\n".join(lines) + "\n"


def random_segment_instance(
    count: int, seed: int, span: int | None = None
) -> StringRepresentation:
    """Random standard collection of `count` straight segments (seeded).

    Each segment is resampled (up to 1000 times) until adding it keeps the
    collection standard: no collinear overlaps, no triple points, and its
    endpoints avoid the existing segments.  By default both endpoints are
    uniform over the box, which crosses any two segments with constant
    probability; passing `span` (at least 1) caps the segment extent,
    thinning the intersection graph of large instances.  A candidate's box
    is tested against the boxes of all placed segments at once, and
    _meeting decides the box hits in index order: a segment that shares a
    point with the candidate is a box hit, and any other box hit is
    DISJOINT, which neither rejects the candidate nor adds a point.
    """
    if _integer(count, "count") < 1:
        raise ContractViolation("count must be >= 1")
    seed = _integer(seed)
    if seed < 0:
        raise ContractViolation(f"seed must be non-negative, got {seed}")
    if span is not None and _integer(span, "span") < 1:
        raise ContractViolation("span must be >= 1")
    rng = np.random.default_rng((seed, 977))
    side = max(8, 2 * count)
    placed: list[tuple[Point, Point]] = []
    # the closed box of placed[k] as column k: x min, x max, y min, y max
    box = np.zeros((4, count), dtype=np.int64)
    known_points: set[PointKey] = set()
    for k in range(count):
        for _ in range(1000):
            if span is None:
                x0, y0, x1, y1 = (int(v) for v in rng.integers(0, side + 1, size=4))
            else:
                x0, y0 = (int(v) for v in rng.integers(0, side + 1, size=2))
                dx, dy = (int(v) for v in rng.integers(-span, span + 1, size=2))
                x1 = min(max(x0 + dx, 0), side)
                y1 = min(max(y0 + dy, 0), side)
            p, q = (x0, y0), (x1, y1)
            if p == q:
                continue
            new_pts: list[PointKey] = []
            x_lo, x_hi, y_lo, y_hi = cand = (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))
            hits = np.flatnonzero(
                (box[0, :k] <= x_hi) & (box[1, :k] >= x_lo)
                & (box[2, :k] <= y_hi) & (box[3, :k] >= y_lo)
            )
            for h in hits.tolist():
                rel, key = _meeting(p, q, *placed[h])
                if rel is SegmentRelation.OVERLAPPING or key in ((x0, y0, 1), (x1, y1, 1)):
                    break  # an overlap, or an end of the candidate on placed[h]
                if key is not None:
                    new_pts.append(key)
            else:
                # no two old segments through one point of the new one, and
                # no triple point
                if len(set(new_pts)) == len(new_pts) and known_points.isdisjoint(new_pts):
                    placed.append((p, q))
                    box[:, k] = cand
                    known_points.update(new_pts)
                    break
        else:
            raise GenerationError(f"segment {k}: resample cap (1000) exceeded")
    width = len(str(count - 1))
    curves = tuple(
        PolylineCurve(f"s{i:0{width}d}", (p, q)) for i, (p, q) in enumerate(placed)
    )
    return StringRepresentation(curves)
