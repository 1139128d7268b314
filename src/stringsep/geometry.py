"""Polygonal curves and exact intersection predicates.

All predicates use integer (or exact rational) arithmetic: orientations are
signs of 2x2 determinants and intersection points are Fractions, so results
are invariant under integer translation and never depend on an epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ContractViolation, GenerationError, StandardnessError
from .graphs import Graph, graph_from_pairs

Point = tuple[int, int]
RatPoint = tuple[Fraction, Fraction]


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
    rel = segments_intersect(p, q, r, s)
    if rel is SegmentRelation.DISJOINT:
        return None
    if rel is SegmentRelation.OVERLAPPING:
        raise StandardnessError("overlapping segments have no unique shared point")
    if rel is SegmentRelation.TOUCHING:
        for pt in (r, s):
            if on_segment(p, q, pt):
                return (Fraction(pt[0]), Fraction(pt[1]))
        for pt in (p, q):
            if on_segment(r, s, pt):
                return (Fraction(pt[0]), Fraction(pt[1]))
        raise AssertionError("touching segments must share an endpoint of one of them")
    # proper crossing: solve p + t (q - p) with t = cross(r - p, s - r) / cross(q - p, s - r)
    dqp = (q[0] - p[0], q[1] - p[1])
    dsr = (s[0] - r[0], s[1] - r[1])
    denom = dqp[0] * dsr[1] - dqp[1] * dsr[0]
    num = (r[0] - p[0]) * dsr[1] - (r[1] - p[1]) * dsr[0]
    t = Fraction(num, denom)
    return (p[0] + t * dqp[0], p[1] + t * dqp[1])


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
    pts: set[RatPoint] = set()
    for p, q in c1.segments:
        for r, s in _bbox_overlapping(c2.segments, p, q):
            rel = segments_intersect(p, q, r, s)
            if rel is SegmentRelation.OVERLAPPING:
                raise StandardnessError(
                    f"curves {c1.id} and {c2.id} overlap on a common sub-segment"
                )
            if rel is not SegmentRelation.DISJOINT:
                pt = segment_shared_point(p, q, r, s)
                assert pt is not None
                pts.add(pt)
    return pts


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


def validate_standardness(rep: StringRepresentation) -> None:
    """Enforce the standard-representation invariants.

    Every curve is simple, every pairwise intersection set is finite (no
    collinear overlaps between distinct curves), and no point lies on three
    or more curves.
    """
    curves = rep.sorted_curves()
    for c in curves:
        c.validate()
    point_owner: dict[RatPoint, tuple[str, str]] = {}
    boxes = [c.bbox() for c in curves]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if not _boxes_meet(boxes[i], boxes[j]):
                continue
            for pt in curve_pair_points(curves[i], curves[j]):
                prev = point_owner.get(pt)
                if prev is not None and not set(prev).issubset({curves[i].id, curves[j].id}):
                    involved = sorted(set(prev) | {curves[i].id, curves[j].id})
                    raise StandardnessError(
                        f"triple point at ({pt[0]}, {pt[1]}): curves {', '.join(involved)}"
                    )
                point_owner[pt] = (curves[i].id, curves[j].id)


def _boxes_meet(a, b) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def intersection_graph(rep: StringRepresentation) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Intersection graph of a standard string representation.

    Vertex i is the i-th curve in id-sorted order.  Also returns, for every
    adjacent pair, the number of distinct intersection points.
    """
    validate_standardness(rep)
    curves = rep.sorted_curves()
    n = len(curves)
    boxes = [c.bbox() for c in curves]
    counts: dict[tuple[int, int], int] = {}
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if not _boxes_meet(boxes[i], boxes[j]):
                continue
            pts = curve_pair_points(curves[i], curves[j])
            if pts:
                pairs.append((i, j))
                counts[(i, j)] = len(pts)
    return graph_from_pairs(n, pairs), counts


def parse_strings_file(text: str) -> StringRepresentation:
    """Parse the strings format: one line per curve, "id: x0 y0 x1 y1 ..."."""
    curves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if ":" not in raw:
            raise ContractViolation(f"line {lineno}: expected 'id: x0 y0 ...'")
        label, coords = raw.split(":", 1)
        nums = coords.split()
        if len(nums) < 4 or len(nums) % 2:
            raise ContractViolation(f"line {lineno}: need an even count >= 4 of coordinates")
        try:
            vals = [int(t) for t in nums]
        except ValueError:
            raise ContractViolation(f"line {lineno}: coordinates must be integers") from None
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
    known_points: set[RatPoint] = set()
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
            new_pts: list[RatPoint] = []
            ok = True
            for r, s in placed:
                rel = segments_intersect(p, q, r, s)
                if rel is SegmentRelation.OVERLAPPING:
                    ok = False
                    break
                if rel is not SegmentRelation.DISJOINT:
                    pt = segment_shared_point(p, q, r, s)
                    new_pts.append(pt)
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
