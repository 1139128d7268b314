"""Polygonal curves and exact intersection predicates.

All predicates use integer (or exact rational) arithmetic: orientations are
signs of 2x2 determinants and intersection points are exact, kept as
normalised integer triples (X, Y, D) and returned as Fractions, so results
are invariant under integer translation and never depend on an epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .errors import ContractViolation, GenerationError, ParseError, StandardnessError
from .graphs import Graph, graph_from_pairs

Point = tuple[int, int]
RatPoint = tuple[Fraction, Fraction]
# the exact point (X/D, Y/D) as the integers (X, Y, D), D > 0 and gcd(X, Y, D) = 1,
# so equal points have equal keys
PointKey = tuple[int, int, int]


class SegmentRelation(Enum):
    DISJOINT = "disjoint"
    PROPER_CROSSING = "proper_crossing"
    TOUCHING = "touching"
    OVERLAPPING = "overlapping"


def orientation(p, q, r) -> int:
    """Sign of the cross product (q - p) x (r - p): +1 left turn, -1 right, 0 collinear."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def _within(a, b, x) -> bool:
    return min(a, b) <= x <= max(a, b)


def on_segment(p, q, r) -> bool:
    """True iff r lies on the closed segment pq (r collinear and inside the bbox)."""
    return orientation(p, q, r) == 0 and _within(p[0], q[0], r[0]) and _within(p[1], q[1], r[1])


def segments_intersect(p, q, r, s) -> SegmentRelation:
    """Exact classification of how closed segments pq and rs meet.

    PROPER_CROSSING: interiors cross transversally.  TOUCHING: exactly one
    shared point, an endpoint of at least one segment.  OVERLAPPING: collinear
    with a common sub-segment of positive length.
    """
    if p == q or r == s:
        raise ContractViolation("degenerate segment")
    o1 = orientation(p, q, r)
    o2 = orientation(p, q, s)
    o3 = orientation(r, s, p)
    o4 = orientation(r, s, q)

    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return SegmentRelation.PROPER_CROSSING

    if o1 == 0 and o2 == 0:
        # collinear: compare 1-d extents along the dominant axis
        axis = 0 if p[0] != q[0] else 1
        pa, qa = sorted((p[axis], q[axis]))
        ra, sa = sorted((r[axis], s[axis]))
        lo, hi = max(pa, ra), min(qa, sa)
        if lo > hi:
            return SegmentRelation.DISJOINT
        if lo < hi:
            return SegmentRelation.OVERLAPPING
        return SegmentRelation.TOUCHING

    if (
        (o1 == 0 and on_segment(p, q, r))
        or (o2 == 0 and on_segment(p, q, s))
        or (o3 == 0 and on_segment(r, s, p))
        or (o4 == 0 and on_segment(r, s, q))
    ):
        return SegmentRelation.TOUCHING
    return SegmentRelation.DISJOINT


def segment_shared_point(p, q, r, s) -> RatPoint | None:
    """The unique shared point of pq and rs, or None when disjoint.

    Raises StandardnessError for overlapping segments (no unique point).
    """
    rel, key = _meeting(p, q, r, s)
    if rel is SegmentRelation.OVERLAPPING:
        raise StandardnessError("overlapping segments have no unique shared point")
    return None if key is None else _rational(key)


def _meeting(p, q, r, s) -> tuple[SegmentRelation, PointKey | None]:
    """How pq and rs meet, and their shared point when there is exactly one."""
    rel = segments_intersect(p, q, r, s)
    if rel is SegmentRelation.TOUCHING:
        # the one shared point is an endpoint lying on the other segment
        for pt in (r, s):
            if on_segment(p, q, pt):
                return rel, (pt[0], pt[1], 1)
        for pt in (p, q):
            if on_segment(r, s, pt):
                return rel, (pt[0], pt[1], 1)
        raise AssertionError("touching segments must share an endpoint of one of them")
    if rel is not SegmentRelation.PROPER_CROSSING:
        return rel, None
    # p + t (q - p) with t = num / den = cross(r - p, s - r) / cross(q - p, s - r)
    dx, dy = q[0] - p[0], q[1] - p[1]
    ex, ey = s[0] - r[0], s[1] - r[1]
    den = dx * ey - dy * ex
    num = (r[0] - p[0]) * ey - (r[1] - p[1]) * ex
    x, y = p[0] * den + num * dx, p[1] * den + num * dy
    if den < 0:
        x, y, den = -x, -y, -den
    g = gcd(x, y, den)
    return rel, (x // g, y // g, den // g)


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
    """Exact squared distance between closed segments (0 when they meet)."""
    if segments_intersect(p, q, r, s) is not SegmentRelation.DISJOINT:
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

    def bbox(self) -> tuple[int, int, int, int]:
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        return min(xs), min(ys), max(xs), max(ys)

    def validate(self) -> None:
        if len(self.points) < 2:
            raise ContractViolation(f"curve {self.id}: needs at least 2 points")
        for a, b in self.segments:
            if a == b:
                raise ContractViolation(f"curve {self.id}: repeated consecutive point {a}")
        segs = self.segments
        for i, (p, q) in enumerate(segs):
            # adjacent segment: only the shared corner, no doubling back
            if i + 1 < len(segs):
                r, s = segs[i + 1]
                if orientation(p, q, s) == 0:
                    dot = (p[0] - q[0]) * (s[0] - q[0]) + (p[1] - q[1]) * (s[1] - q[1])
                    if dot > 0:
                        raise ContractViolation(
                            f"curve {self.id}: segments {i},{i + 1} double back at {q}"
                        )
            for j in range(i + 2, len(segs)):
                r, s = segs[j]
                if segments_intersect(p, q, r, s) is not SegmentRelation.DISJOINT:
                    raise ContractViolation(
                        f"curve {self.id}: non-adjacent segments {i},{j} intersect"
                    )


def curve_pair_points(c1: PolylineCurve, c2: PolylineCurve) -> set[RatPoint]:
    """All intersection points of two distinct simple curves, as exact rationals.

    Raises StandardnessError when the curves share a sub-segment of positive
    length (infinitely many intersections).
    """
    return {_rational(key) for key in _pair_keys(c1, c2)}


def _pair_keys(c1: PolylineCurve, c2: PolylineCurve) -> dict[PointKey, None]:
    """The intersection points of c1 and c2 as keys, in the order first met."""
    keys: dict[PointKey, None] = {}
    for p, q in c1.segments:
        for r, s in _bbox_overlapping(c2.segments, p, q):
            rel, key = _meeting(p, q, r, s)
            if rel is SegmentRelation.OVERLAPPING:
                raise StandardnessError(
                    f"curves {c1.id} and {c2.id} overlap on a common sub-segment"
                )
            if key is not None:
                keys[key] = None
    return keys


def _bbox_overlapping(segs, p, q):
    """The segments of `segs` whose bounding box meets that of pq; a linear
    scan is fine at package scale."""
    x0, x1 = min(p[0], q[0]), max(p[0], q[0])
    y0, y1 = min(p[1], q[1]), max(p[1], q[1])
    for r, s in segs:
        if max(r[0], s[0]) < x0 or min(r[0], s[0]) > x1:
            continue
        if max(r[1], s[1]) < y0 or min(r[1], s[1]) > y1:
            continue
        yield r, s


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
    and listed in lexicographic order.  Only pairs whose bounding boxes meet
    are tested; they are visited in lexicographic order, so the first
    violation raised does not depend on how they were found.
    """
    curves = rep.sorted_curves()
    for c in curves:
        c.validate()
    owner: dict[PointKey, tuple[int, int]] = {}
    counts: dict[tuple[int, int], int] = {}
    for i, j in _box_pairs([c.bbox() for c in curves]):
        keys = _pair_keys(curves[i], curves[j])
        if not keys:
            continue
        if not owner.keys().isdisjoint(keys):
            _raise_triple_point(curves, owner, i, j, keys)
        owner.update(dict.fromkeys(keys, (i, j)))
        counts[(i, j)] = len(keys)
    return counts


def _box_pairs(boxes) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, whose closed boxes meet, in lexicographic
    order: a sweep over the boxes sorted by left edge."""
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0])
    pairs = []
    for k, i in enumerate(order):
        _, y0, x1, y1 = boxes[i]
        for m in range(k + 1, len(order)):
            j = order[m]
            b = boxes[j]
            if b[0] > x1:
                break
            if b[1] <= y1 and y0 <= b[3]:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def _raise_triple_point(curves, owner, i, j, keys):
    """Report the first point of the pair (i, j), in curve_pair_points'
    order, that an earlier pair already owns."""
    key_of = {_rational(key): key for key in keys}
    for pt in curve_pair_points(curves[i], curves[j]):
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
    validate_standardness collects in its one pass over the pairs.
    """
    counts = validate_standardness(rep)
    return graph_from_pairs(len(rep.curves), list(counts)), counts


def parse_strings_file(text: str) -> StringRepresentation:
    """Parse the strings format: one line per curve, "id: x0 y0 x1 y1 ..."."""
    curves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if ":" not in raw:
            raise ParseError("expected 'id: x0 y0 ...'", lineno)
        label, coords = raw.split(":", 1)
        nums = coords.split()
        if len(nums) < 4 or len(nums) % 2:
            raise ParseError("need an even count >= 4 of coordinates", lineno)
        try:
            vals = [int(t) for t in nums]
        except ValueError:
            raise ParseError("coordinates must be integers", lineno) from None
        pts = tuple(zip(vals[::2], vals[1::2]))
        curves.append(PolylineCurve(label.strip(), pts))
    return StringRepresentation(tuple(curves))


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
    probability; passing `span` caps the segment extent, thinning the
    intersection graph of large instances.
    """
    if count < 1:
        raise ContractViolation("count must be >= 1")
    rng = np.random.default_rng((seed, 977))
    side = max(8, 2 * count)
    placed: list[tuple[Point, Point]] = []
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
            for r, s in placed:
                rel, key = _meeting(p, q, r, s)
                if rel is SegmentRelation.OVERLAPPING:
                    ok = False
                    break
                if key is not None:
                    new_pts.append(key)
                if on_segment(r, s, p) or on_segment(r, s, q):
                    ok = False
                    break
            if not ok:
                continue
            if len(set(new_pts)) != len(new_pts):
                continue  # two old segments through one point of the new one
            if any(pt in known_points for pt in new_pts):
                continue  # would create a triple point
            placed.append((p, q))
            known_points.update(new_pts)
            break
        else:
            raise GenerationError(f"segment {k}: resample cap (1000) exceeded")
    width = len(str(count - 1))
    curves = tuple(
        PolylineCurve(f"s{i:0{width}d}", (p, q)) for i, (p, q) in enumerate(placed)
    )
    return StringRepresentation(curves)
