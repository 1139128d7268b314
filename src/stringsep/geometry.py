"""Polygonal curves and exact intersection predicates.

All predicates use integer (or exact rational) arithmetic: orientations are
signs of 2x2 determinants and intersection points are exact, kept as
normalised integer triples (X, Y, D) and returned as Fractions, so results
are invariant under integer translation and never depend on an epsilon.

Many segment pairs at once go through one screen, `_meets`, that decides
exactly and as arrays whether closed segments share a point.  The pairs of
distinct curves that pass it go on, still as arrays, to `_meeting_keys`,
which finds where each pair meets as `_meeting` does for one pair.  Both
compute in int64 below a stated bound on every |coordinate| (2^30 for the
screen's cross products, 2^19 for a key's products) and otherwise on
Python ints (dtype=object); the code is the same and the dtype follows
from the input.  The scalar `_meeting` serves single pairs: the
generator's screened hits and `segments_intersect`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .errors import ContractViolation, GenerationError, ParseError, StandardnessError
from .graphs import Graph, int_tokens, numbered_lines

Point = tuple[int, int]
RatPoint = tuple[Fraction, Fraction]
# the exact point (X/D, Y/D) as the integers (X, Y, D), D > 0 and gcd(X, Y, D) = 1,
# so equal points have equal keys
PointKey = tuple[int, int, int]

# below this bound on |coordinate|, differences stay below 2^31 and every
# cross product of _meets below 2^63, so int64 is exact
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


def _meets(P, Q, R, S) -> np.ndarray:
    """For every k, whether the closed segments P[k]Q[k] and R[k]S[k] share a point.

    The arguments are integer arrays of shape (k, 2), or (2,) for one
    segment against many.  Exact for non-degenerate segments: the boxes
    meet, o(p,q,r) o(p,q,s) <= 0 and o(r,s,p) o(r,s,q) <= 0.  Also exact
    for a one-point segment r = s: both o(r,s,.) are 0, which leaves the box
    test and o(p,q,r)^2 <= 0, that is, r lies on the closed segment pq.
    Computed in int64 when every |coordinate| is below 2^30, else on Python
    ints.
    """
    args = [a if isinstance(a, np.ndarray) else _coords(a) for a in (P, Q, R, S)]
    flat = np.concatenate([a.ravel() for a in args])
    if flat.dtype == object or flat.size and (
        flat.max() >= _INT64_BOUND or flat.min() <= -_INT64_BOUND
    ):
        args = [a.astype(object) for a in args]
    cols = [a[..., i] for a in args for i in (0, 1)]
    px, py, qx, qy, rx, ry, sx, sy = cols
    hit = (
        (np.minimum(px, qx) <= np.maximum(rx, sx))
        & (np.minimum(rx, sx) <= np.maximum(px, qx))
        & (np.minimum(py, qy) <= np.maximum(ry, sy))
        & (np.minimum(ry, sy) <= np.maximum(py, qy))
    )
    # the orientations only where the boxes meet; a single point's columns broadcast
    k = np.flatnonzero(hit)
    px, py, qx, qy, rx, ry, sx, sy = (c[k] if c.ndim else c for c in cols)
    dx, dy, ex, ey = qx - px, qy - py, sx - rx, sy - ry
    hit[k] = (
        np.sign(dx * (ry - py) - dy * (rx - px)) * np.sign(dx * (sy - py) - dy * (sx - px)) <= 0
    ) & (np.sign(ex * (py - ry) - ey * (px - rx)) * np.sign(ex * (qy - ry) - ey * (qx - rx)) <= 0)
    return hit


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
        or segments i < j - 1 that share a point.  The segments that meet come
        from one _segment_pairs call, each segment its own curve."""
        if len(self.points) < 2:
            raise ContractViolation(f"curve {self.id}: needs at least 2 points")
        for a, b in self.segments:
            if a == b:
                raise ContractViolation(f"curve {self.id}: repeated consecutive point {a}")
        segs, n = self.segments, len(self.segments)
        # the least i * n + j over the segments i < j - 1 that meet, else n * n
        least = n * n
        if n > 2:
            ends = _coords([p + q for p, q in segs]).reshape(-1, 4)
            for a, b in _segment_pairs(ends, np.arange(n)):
                least = min(least, int((a * n + b)[b - a > 1].min(initial=least)))
        i0, j0 = divmod(least, n)
        for i, ((p, q), (_, s)) in enumerate(zip(segs[: i0 + 1], segs[1:])):
            # adjacent segments: only the shared corner, no doubling back
            if orientation(p, q, s) == 0:
                dot = (p[0] - q[0]) * (s[0] - q[0]) + (p[1] - q[1]) * (s[1] - q[1])
                if dot > 0:
                    raise ContractViolation(
                        f"curve {self.id}: segments {i},{i + 1} double back at {q}"
                    )
        if i0 < n:
            raise ContractViolation(f"curve {self.id}: non-adjacent segments {i0},{j0} intersect")


def _meeting_keys(groups):
    """Every pair of segments of distinct groups that share a point, from
    one _segment_pairs call, as arrays in order of (group pair, segments):
    the groups i < j, whether the pair overlaps on a sub-segment, and the
    key (X, Y, D) of its one shared point as a row of a (k, 3) array (a
    row of no meaning where it overlaps).  A group may hold a one-point
    segment (p, p).

    Decided as _meeting decides it, from the orientations o(p,q,r),
    o(p,q,s), o(r,s,p) and o(r,s,q); a one-point segment makes both
    orientations about it 0, so its pairs are collinear touches.  Computed
    in int64 when every |coordinate| is below _KEY_BOUND, else on Python
    ints.
    """
    ends = _coords([p + q for group in groups for p, q in group]).reshape(-1, 4)
    curve_of = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    found = [(np.zeros(0, dtype=np.int64),) * 2, *_segment_pairs(ends, curve_of)]
    a, b = (np.concatenate(column) for column in zip(*found))
    by = np.lexsort((b, a, curve_of[b], curve_of[a]))
    a, b = a[by], b[by]
    if ends.dtype == object or ends.size and (
        ends.max() >= _KEY_BOUND or ends.min() <= -_KEY_BOUND
    ):
        ends = ends.astype(object)
    P, Q, R, S = ends[a, :2], ends[a, 2:], ends[b, :2], ends[b, 2:]
    (px, py), (qx, qy), (rx, ry), (sx, sy) = P.T, Q.T, R.T, S.T
    dx, dy, ex, ey = qx - px, qy - py, sx - rx, sy - ry
    o1 = np.sign(dx * (ry - py) - dy * (rx - px))
    o2 = np.sign(dx * (sy - py) - dy * (sx - px))
    o3 = np.sign(ex * (py - ry) - ey * (px - rx))
    o4 = np.sign(ex * (qy - ry) - ey * (qx - rx))
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
    px, py, dx, dy, ex, ey = (v[k] for v in (px, py, dx, dy, ex, ey))
    den = dx * ey - dy * ex
    num = (rx[k] - px) * ey - (ry[k] - py) * ex
    sign = np.where(den < 0, -1, 1)
    x, y, den = (px * den + num * dx) * sign, (py * den + num * dy) * sign, den * sign
    g = np.gcd(np.gcd(x, y), den)
    key[k] = np.stack([x // g, y // g, den // g], axis=1)
    return curve_of[a], curve_of[b], overlap, key


def _segment_pairs(ends, curve_of):
    """Yield, a chunk at a time, the segment pairs (a, b), a < b, of distinct
    curves that share a point, as two index arrays, from the segments as the
    rows (x0, y0, x1, y1) of the _coords array `ends`.  Segments must be
    listed curve by curve, so a is of the lower curve.

    Candidates come from a sweep over the closed segment boxes sorted by
    left edge: each box meets in x the boxes that start before it ends.
    They are expanded at most _PAIR_CHUNK at a time (or one box's worth),
    pairs of one curve and pairs whose y-ranges miss are dropped, and the
    rest go through the exact screen _meets, so the memory a chunk takes
    does not grow with the pairs found before it.
    """
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
        a, b = order[first], order[second]
        keep = (curve_of[a] != curve_of[b]) & (y0[a] <= y1[b]) & (y0[b] <= y1[a])
        a, b = a[keep], b[keep]
        hit = _meets(ends[a, :2], ends[a, 2:], ends[b, :2], ends[b, 2:])
        yield np.minimum(a[hit], b[hit]), np.maximum(a[hit], b[hit])
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
    for c in curves:
        c.validate()
    n = len(curves)
    i, j, overlap, key = _meeting_keys([c.segments for c in curves])
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
        points = dict.fromkeys(map(tuple, key[pair == first].tolist()))
        owner = {
            pt: divmod(p, n)
            for pt, p in zip(map(tuple, keys[new_key].tolist()), pairs[new_key].tolist())
            if pt in points and p < first
        }
        _raise_triple_point(curves, owner, i0, j0, points)
    found, counts = np.unique(pairs[new_point], return_counts=True)
    return {divmod(p, n): c for p, c in zip(found.tolist(), counts.tolist())}


def _raise_triple_point(curves, owner, i, j, keys):
    """Report the first point of the pair (i, j) that an earlier pair already
    owns, in the iteration order of the pair's points as a set of Fractions
    built in key order."""
    key_of = {_rational(key): key for key in keys}
    for pt in {_rational(key) for key in keys}:
        prev = owner.get(key_of[pt])
        if prev is not None:
            involved = sorted({curves[k].id for k in (i, j, *prev)})
            raise StandardnessError(
                f"triple point at ({pt[0]}, {pt[1]}): curves {', '.join(involved)}"
            )
    raise AssertionError("a shared key must come from a shared point")


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
    lines = []
    for c in rep.sorted_curves():
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
    thinning the intersection graph of large instances.  A candidate goes
    through the array screen _meets against all placed segments at once,
    and only the placed segments it meets are checked exactly.
    """
    if count < 1:
        raise ContractViolation("count must be >= 1")
    if seed < 0:
        raise ContractViolation(f"seed must be non-negative, got {seed}")
    if span is not None and span < 1:
        raise ContractViolation("span must be >= 1")
    rng = np.random.default_rng((seed, 977))
    side = max(8, 2 * count)
    placed: list[tuple[Point, Point]] = []
    ends = np.zeros((count, 4), dtype=np.int64)  # placed[k] as (x0, y0, x1, y1)
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
            ok = True
            for h in np.flatnonzero(_meets(p, q, ends[:k, :2], ends[:k, 2:])).tolist():
                r, s = placed[h]
                rel, key = _meeting(p, q, r, s)
                if rel is SegmentRelation.OVERLAPPING:
                    ok = False
                    break
                if key is not None:
                    new_pts.append(key)
                if key in ((x0, y0, 1), (x1, y1, 1)):
                    ok = False  # an end of the candidate lies on rs
                    break
            if not ok:
                continue
            if len(set(new_pts)) != len(new_pts):
                continue  # two old segments through one point of the new one
            if any(pt in known_points for pt in new_pts):
                continue  # would create a triple point
            placed.append((p, q))
            ends[k] = (x0, y0, x1, y1)
            known_points.update(new_pts)
            break
        else:
            raise GenerationError(f"segment {k}: resample cap (1000) exceeded")
    width = len(str(count - 1))
    curves = tuple(
        PolylineCurve(f"s{i:0{width}d}", (p, q)) for i, (p, q) in enumerate(placed)
    )
    return StringRepresentation(curves)
