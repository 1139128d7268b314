"""Abstract topological graphs, weak realizations, and constructions on them.

A weak realization draws a graph with polygonal edge curves so that every
crossing pair of independent edges belongs to the allowed relation.  Adjacent
edges may cross freely (the shared vertex never counts as a crossing), so
the validator does not report such crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, groupby
from operator import itemgetter

from .errors import ContractViolation, ParseError, _integer
from .geometry import (
    Point,
    PolylineCurve,
    RatPoint,
    StringRepresentation,
    _fault,
    _meeting_keys,
    _rational,
    parse_points,
    sq_dist_points,
    sq_dist_segments,
)
from .graphs import Edge, Graph, graph_from_pairs, int_tokens, parse_graph_block

EdgePair = frozenset  # frozenset of two Edge tuples


@dataclass(frozen=True)
class AbstractTopologicalGraph:
    """A graph together with the symmetric set of edge pairs allowed to cross."""

    graph: Graph
    allowed: frozenset[EdgePair]

    def __post_init__(self):
        for pair in self.allowed:
            if len(pair) != 2:
                raise ContractViolation(f"allowed entry {set(pair)} is not a pair")
            for e in pair:
                if e not in self.graph.edge_set:
                    raise ContractViolation(f"allowed pair references missing edge {e}")

    def permits(self, e1: Edge, e2: Edge) -> bool:
        return frozenset((e1, e2)) in self.allowed


@dataclass(frozen=True)
class WeakRealization:
    """A polyline drawing of an abstract topological graph.

    edge_curves[i] draws atg.graph.edges[i]; its first and last points must
    equal the endpoint coordinates (in either order).
    """

    atg: AbstractTopologicalGraph
    vertex_points: tuple[Point, ...]
    edge_curves: tuple[PolylineCurve, ...]

    def __post_init__(self):
        g = self.atg.graph
        if len(self.vertex_points) != g.n:
            raise ContractViolation("one point per vertex required")
        if len(self.edge_curves) != g.m:
            raise ContractViolation("one curve per edge required")
        for (u, v), c in zip(g.edges, self.edge_curves):
            ends = {c.points[0], c.points[-1]}
            if ends != {self.vertex_points[u], self.vertex_points[v]}:
                raise ContractViolation(
                    f"curve {c.id} endpoints {ends} do not match edge ({u}, {v})"
                )

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.atg.graph.edges)}

    def curve(self, e: Edge) -> PolylineCurve:
        return self.edge_curves[self.edge_index[e]]

    @cached_property
    def _meetings(self):
        """_meeting_keys of the groups: group i < m is edge curve i and group
        m + v the point of vertex v as a one-point segment."""
        groups = [c.segments for c in self.edge_curves] + [((p, p),) for p in self.vertex_points]
        return _meeting_keys(groups)

    @cached_property
    def crossings(self) -> dict[tuple[int, int], frozenset[RatPoint] | None]:
        """The points where edge curves i < j meet off their shared vertices,
        for each pair that does, in lexicographic order; None marks a pair
        that overlaps on a sub-segment."""
        edges = self.atg.graph.edges
        i, j, overlap, key, _ = self._meetings
        rows = zip(i.tolist(), j.tolist(), overlap.tolist(), map(tuple, key.tolist()))
        out: dict[tuple[int, int], frozenset[RatPoint] | None] = {}
        for (a, b), group in groupby(rows, key=itemgetter(0, 1)):
            if b >= len(edges):
                continue  # a vertex point
            group = list(group)
            if any(row[2] for row in group):
                out[(a, b)] = None
                continue
            keys = dict.fromkeys(row[3] for row in group)
            for v in set(edges[a]) & set(edges[b]):
                keys.pop((*self.vertex_points[v], 1), None)
            if keys:
                out[(a, b)] = frozenset(map(_rational, keys))
        return out


@dataclass(frozen=True)
class Violation:
    # not_simple | forbidden_crossing | overlap | triple_point | edge_through_vertex
    kind: str
    detail: str
    edges: tuple[Edge, ...] = ()
    point: RatPoint | None = None


def validate_weak_realization(w: WeakRealization) -> list[Violation]:
    """All standardness and allowed-relation violations of a drawing.

    Empty result means: curves are simple, pairwise intersections are finite,
    no triple points, no edge passes through a non-incident vertex, vertex
    points are distinct, and every crossing pair of independent edges is
    allowed.  Adjacent edges may cross.  A curve that is not simple gives one
    violation, the first fault that PolylineCurve.validate finds, read off
    the pair checks' pass; these come first, and the pair checks run on
    every drawing (a repeated point is a one-point segment there).
    """
    g = w.atg.graph
    first, second, _, _, faults = w._meetings
    out = [
        Violation("not_simple", _fault(w.edge_curves[k], s, t), edges=(g.edges[k],))
        for k, s, t in faults
        if k < g.m  # a vertex point is a one-point segment
    ]
    if len(set(w.vertex_points)) != g.n:
        out.append(Violation("overlap", "two vertices share a point"))

    for i, j in dict.fromkeys(zip(first.tolist(), second.tolist())):
        if not i < g.m <= j or j - g.m in g.edges[i]:
            continue  # two edge curves, two vertex points, or an edge at its end
        e, v = g.edges[i], j - g.m
        vp = w.vertex_points[v]
        out.append(
            Violation(
                "edge_through_vertex",
                f"edge {e} passes through vertex {v} at {vp}",
                edges=(e,),
                point=(Fraction(vp[0]), Fraction(vp[1])),
            )
        )

    point_users: dict[RatPoint, set[Edge]] = {}
    for (i, j), pts in w.crossings.items():
        e1, e2 = g.edges[i], g.edges[j]
        if pts is None:
            out.append(
                Violation("overlap", f"edges {e1} and {e2} share a sub-segment", edges=(e1, e2))
            )
            continue
        for pt in pts:
            point_users.setdefault(pt, set()).update((e1, e2))
        if not set(e1) & set(e2) and not w.atg.permits(e1, e2):
            out.append(
                Violation(
                    "forbidden_crossing",
                    f"independent edges {e1} and {e2} cross at "
                    f"({min(pts)[0]}, {min(pts)[1]}) but are not allowed to",
                    edges=(e1, e2),
                    point=min(pts),
                )
            )

    vertex_pts = {(Fraction(x), Fraction(y)) for x, y in w.vertex_points}
    # sort only the points on three or more edges, not every crossing point
    triples = {pt: users for pt, users in point_users.items() if len(users) >= 3}
    for pt, users in sorted(triples.items()):
        if pt not in vertex_pts:
            out.append(
                Violation(
                    "triple_point",
                    f"{len(users)} edges pass through ({pt[0]}, {pt[1]})",
                    edges=tuple(sorted(users)),
                    point=pt,
                )
            )
    return out


def crossing_count(w: WeakRealization, e1: Edge, e2: Edge) -> int:
    """Number of distinct intersection points of two drawn edges (shared vertex excluded)."""
    i, j = sorted((w.edge_index[e1], w.edge_index[e2]))
    # a curve overlaps itself
    pts = None if i == j else w.crossings.get((i, j), frozenset())
    if pts is None:
        raise ContractViolation(f"edges {e1} and {e2} overlap; count undefined")
    return len(pts)


# ---------------------------------------------------------------------------
# The exponential-crossing family
# ---------------------------------------------------------------------------


@dataclass
class ExpoFamily:
    """Ladder-with-frame family whose added chords are forced to cross the
    frame edge {a, b} exponentially often; the shipped drawing realizes
    at least 2^(i-1) crossings for the i-th chord."""

    atg: AbstractTopologicalGraph
    realization: WeakRealization
    spine: Edge
    added: tuple[Edge, ...]


def expo_family(k: int) -> ExpoFamily:
    """Build the k-level family and its weak realization.

    Layout: frame edge {a, b} drawn as a long horizontal spine; a ladder of
    top verticals {u_i, u'_i} above it and bottom verticals {v_i, v'_i}
    below, joined by rails; chords {u_i, v_i} routed over the top assembly
    into private zigzag strips where each crosses the spine 2^(i-1) times
    (plus one to fix parity), then back under to v_i.  The allowed relation
    contains exactly the chord-spine pairs, so the drawing has no forbidden
    crossings and the realized counts witness the exponential growth.
    """
    if not 1 <= _integer(k, "k") <= 12:
        raise ContractViolation("k must be in [1, 12]")

    a, b = 0, 1
    u = {i: 1 + i for i in range(1, k + 1)}          # 2 .. k+1
    up = {i: 1 + k + i for i in range(1, k + 1)}     # k+2 .. 2k+1
    v = {i: 1 + 2 * k + i for i in range(1, k + 1)}  # 2k+2 .. 3k+1
    vp = {i: 1 + 3 * k + i for i in range(1, k + 1)}
    n = 4 * k + 2

    xu = {i: 100 - 8 * i for i in range(1, k + 1)}   # u_k leftmost
    xv = {i: 200 + 8 * i for i in range(1, k + 1)}   # v_k rightmost

    # chord i makes n_i spine crossings; counts above 1 get +1 to keep the
    # above-to-below parity without wrapping around the spine's free end
    n_cross = {i: 1 if i == 1 else 2 ** (i - 1) + 1 for i in range(1, k + 1)}
    strip_start = {}
    x = 1000
    for i in range(1, k + 1):
        strip_start[i] = x
        x += 4 * (n_cross[i] - 1) + 8
    spine_right = x + 100

    pts: list[Point | None] = [None] * n
    pts[a] = (-100, 0)
    pts[b] = (spine_right, 0)
    for i in range(1, k + 1):
        pts[u[i]] = (xu[i], 100)
        pts[up[i]] = (xu[i], 200)
        pts[v[i]] = (xv[i], -100)
        pts[vp[i]] = (xv[i], -200)

    pairs: list[tuple[int, int]] = [(a, b), (a, u[k]), (a, v[1])]
    pairs += [(u[i + 1], u[i]) for i in range(1, k)]
    pairs += [(v[i], v[i + 1]) for i in range(1, k)]
    pairs += [(u[i], up[i]) for i in range(1, k + 1)]
    pairs += [(v[i], vp[i]) for i in range(1, k + 1)]
    pairs += [(u[i], v[i]) for i in range(1, k + 1)]
    graph = graph_from_pairs(n, pairs)

    spine: Edge = (a, b)
    added = tuple((min(u[i], v[i]), max(u[i], v[i])) for i in range(1, k + 1))
    allowed = frozenset(frozenset((spine, e)) for e in added)
    atg = AbstractTopologicalGraph(graph, allowed)

    def chord_path(i: int) -> tuple[Point, ...]:
        s = strip_start[i]
        lane = 300 + i
        depth = -(50 + i)
        path: list[Point] = [
            (xu[i], 100),
            (xu[i] - 6, 104),
            (xu[i] - 6, lane),
            (s, lane),
            (s, -20),
        ]
        y = -20
        for t in range(1, n_cross[i]):
            path.append((s + 4 * t, y))
            y = -y
            path.append((s + 4 * t, y))
        w_end = s + 4 * (n_cross[i] - 1)
        path += [(w_end, depth), (xv[i] + 6, depth), (xv[i] + 6, -96), (xv[i], -100)]
        return tuple(path)

    curves = []
    for idx, (p, q) in enumerate(graph.edges):
        label = f"e{idx}"
        chord_i = next((i for i in range(1, k + 1) if {p, q} == {u[i], v[i]}), None)
        if chord_i is not None:
            body = chord_path(chord_i)
            if body[0] != pts[p]:
                body = tuple(reversed(body))
            curves.append(PolylineCurve(label, body))
        else:
            curves.append(PolylineCurve(label, (pts[p], pts[q])))

    realization = WeakRealization(atg, tuple(pts), tuple(curves))
    return ExpoFamily(atg, realization, spine, added)


# ---------------------------------------------------------------------------
# Weak realization -> string representation
# ---------------------------------------------------------------------------


def weak_to_strings(w: WeakRealization) -> tuple[StringRepresentation, Graph]:
    """Replace vertices by tiny loop strings and edges by trimmed edge strings.

    Returns the representation together with the predicted intersection
    graph H on vertex set V + E: vertex-string i is H-vertex i, edge-string
    j is H-vertex n + j; H has an edge for every incidence and for every
    crossing pair of drawn edges.  intersection_graph of the output equals H.

    The drawing is rescaled by an integer factor so the loops (L-infinity
    radius 16) fit inside every clearance and each edge string can be
    re-attached at an integer boundary port within one unit of its exact
    exit point.
    """
    issues = validate_weak_realization(w)
    if issues:  # a curve's own fault reads as PolylineCurve.validate states it
        prefix = "" if issues[0].kind == "not_simple" else "realization invalid: "
        raise ContractViolation(prefix + issues[0].detail)
    g = w.atg.graph

    scale = _pick_scale(w)
    vp = [(x * scale, y * scale) for x, y in w.vertex_points]
    curves = [
        [(x * scale, y * scale) for x, y in c.points] for c in w.edge_curves
    ]

    # niceness: crossings must stay clear of every loop neighborhood.  A
    # crossing lies on both its edges, and _pick_scale puts every vertex at
    # least 64 units (so at least 45 in L-infinity) from each edge not
    # incident to it, so only a vertex the two edges share can come within
    # 32.  In integers: |X / D * scale - p| < 32 iff |X * scale - p * D| < 32 * D
    for (i, j), pts in w.crossings.items():
        for v in set(g.edges[i]) & set(g.edges[j]):
            px, py = vp[v]
            for x, y in pts:
                xn, xd = x.numerator * scale, x.denominator
                yn, yd = y.numerator * scale, y.denominator
                if abs(xn - px * xd) < 32 * xd and abs(yn - py * yd) < 32 * yd:
                    raise ContractViolation(
                        "an edge crossing lies too close to a vertex for the "
                        "loop construction"
                    )

    RHO = 16
    ports: dict[int, list[tuple[int, int]]] = {x: [] for x in g.vertices()}
    trimmed: list[tuple[Point, ...]] = []
    for (eu, ev), path in zip(g.edges, curves):
        if path[0] != vp[eu]:
            eu, ev = ev, eu
        pu, pv = _exit_port(vp[eu], path[1]), _exit_port(vp[ev], path[-2])
        trimmed.append((pu, *path[1:-1], pv))
        ports[eu].append(pu)
        ports[ev].append(pv)

    for x in g.vertices():
        for a, b in combinations(ports[x], 2):
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) < 3:
                # ports within 1/2 of their exact ring exits and strings
                # within 1/2 of their rays: separation 3 keeps the tubes
                # strictly apart
                raise ContractViolation(
                    f"two edges leave vertex {x} in nearly identical directions; "
                    "their loop ports would collide"
                )

    n, m = g.n, g.m
    width = len(str(n + m - 1))
    strings = [_open_loop(vp[x], RHO, ports[x]) for x in g.vertices()] + trimmed
    out_curves = [PolylineCurve(f"s{i:0{width}d}", pts) for i, pts in enumerate(strings)]

    h_pairs = [(x, n + ei) for ei, e in enumerate(g.edges) for x in e]
    h_pairs += [(n + i, n + j) for i, j in w.crossings]
    predicted = graph_from_pairs(n + m, h_pairs)
    return StringRepresentation(tuple(out_curves)), predicted


def _pick_scale(w: WeakRealization) -> int:
    """Smallest power of two making every exact clearance at least 64 units.

    Edge segments and vertex points (one-point boxes) are swept by left box
    edge; a vertex is not measured against its own edges.  A pair whose
    integer box gap is at least ceil(d2), for the least squared clearance d2
    so far, cannot lower it and is skipped, so d2 stays exact.
    """
    d2 = bound = math.inf  # bound = ceil(d2)

    def keep(val: Fraction):
        nonlocal d2, bound
        if 0 < val < d2:
            d2, bound = val, math.ceil(val)

    for c in w.edge_curves:
        # the first and last segments must span the loop ring: _exit_port
        # reads each port off the segment the curve exits on
        keep(sq_dist_points(c.points[0], c.points[1]))
        keep(sq_dist_points(c.points[-1], c.points[-2]))
    # (box, p, q, vertex or None, the ends of its edge or ()) per item
    items = [
        ((min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1])), p, q, None, e)
        for e, c in zip(w.atg.graph.edges, w.edge_curves)
        for p, q in c.segments
    ]
    items += [((p[0], p[0], p[1], p[1]), p, p, x, ()) for x, p in enumerate(w.vertex_points)]
    # by left box edge, so the x-gap to a later box is max(gx, 0) and only grows
    items.sort(key=lambda t: t[0][0])
    for pos, (box, p, q, x, e) in enumerate(items):
        for k in range(pos + 1, len(items)):
            other, r, s, y, f = items[k]
            gx = other[0] - box[1]
            if gx > 0 and gx * gx >= bound:
                break
            gy = max(0, other[2] - box[3], box[2] - other[3])
            # near a shared endpoint the separation is direction-governed
            if max(gx, 0) ** 2 + gy * gy >= bound or x in f or y in e or {p, q} & {r, s}:
                continue
            keep(sq_dist_segments(p, q, r, s))
    if d2 == math.inf:
        d2 = Fraction(1)
    scale = 1
    while scale * scale * d2 < 64 * 64:
        scale *= 2
    return scale


def _exit_port(center: Point, nxt: Point) -> Point:
    """Integer port where the segment from center to nxt leaves the
    L-infinity ring of radius 16 around center; nxt lies outside the ring,
    as _pick_scale makes every first and last segment at least 64 long."""
    cx, cy = center
    dx, dy = nxt[0] - cx, nxt[1] - cy
    # exact exit of the ray from the ring, then the nearest lattice point on
    # that ring side (< 1 unit away)
    if abs(dx) >= abs(dy):
        return cx + (16 if dx > 0 else -16), cy + round(Fraction(16, abs(dx)) * dy)
    return cx + round(Fraction(16, abs(dy)) * dx), cy + (16 if dy > 0 else -16)


def _open_loop(center: Point, rho: int, taken: list[Point]) -> tuple[Point, ...]:
    """Axis-aligned square ring around center, opened by a one-unit notch.

    The notch sits at a mid-side boundary lattice point with no port within
    one unit, so every incident edge string still meets the loop.
    """
    cx, cy = center
    corners = [
        (cx + rho, cy + rho),
        (cx - rho, cy + rho),
        (cx - rho, cy - rho),
        (cx + rho, cy - rho),
    ]
    corner_set = set(corners)
    boundary: list[Point] = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        sx = (b[0] > a[0]) - (b[0] < a[0])
        sy = (b[1] > a[1]) - (b[1] < a[1])
        x, y = a
        while (x, y) != b:
            boundary.append((x, y))
            x, y = x + sx, y + sy
    per = len(boundary)
    taken_set = set(taken)
    gap = None
    for idx, pt in enumerate(boundary):
        if pt in corner_set:
            continue
        window = {boundary[(idx + d) % per] for d in (-1, 0, 1)}
        if not (window & taken_set):
            gap = idx
            break
    if gap is None:
        raise ContractViolation("no free boundary stretch for the loop opening")
    walk = [boundary[(gap + step) % per] for step in range(1, per)]
    poly = [walk[0]]
    poly.extend(pt for pt in walk[1:-1] if pt in corner_set)
    poly.append(walk[-1])
    return tuple(poly)


# ---------------------------------------------------------------------------
# Weak-realization file format
# ---------------------------------------------------------------------------


def write_realization_file(w: WeakRealization) -> str:
    g = w.atg.graph
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    idx = w.edge_index
    allow = sorted(tuple(sorted(idx[e] for e in pair)) for pair in w.atg.allowed)
    lines += [f"allow {i} {j}" for i, j in allow]
    lines += [f"vertex {x} {p[0]} {p[1]}" for x, p in enumerate(w.vertex_points)]
    for i, c in enumerate(w.edge_curves):
        coords = " ".join(f"{x} {y}" for x, y in c.points)
        lines.append(f"edge {i}: {coords}")
    return "\n".join(lines) + "\n"


def parse_realization_file(text: str) -> WeakRealization:
    """Parse the realization format: the graph block of a graph file, then
    "allow i j", "vertex v x y" and "edge i: x0 y0 x1 y1 ..." lines, in any
    order; each curve must end at its edge's two vertices."""
    lines = text.splitlines()
    # every vertex and every edge has a line of its own
    n, edges, rest = parse_graph_block(lines, len(lines))
    m = len(edges)
    graph = Graph(n, tuple(sorted(edges)))
    # edge line i is edge rank[i] of the graph
    order = {e: i for i, e in enumerate(graph.edges)}
    rank = [order[e] for e in edges]

    allowed_pairs: set[EdgePair] = set()
    points: list[Point | None] = [None] * n
    curves: list[PolylineCurve | None] = [None] * m
    curve_lines: dict[int, int] = {}  # edge line i -> its line number, in file order
    for off, raw in rest:
        if raw.startswith("allow "):
            i, j = int_tokens(raw.split()[1:], 2, "expected 'allow i j'", off)
            if not (0 <= i < m and 0 <= j < m):
                raise ParseError("allow index out of range", off)
            if i == j:
                raise ParseError(f"edge {i} cannot be allowed to cross itself", off)
            allowed_pairs.add(frozenset((edges[i], edges[j])))
        elif raw.startswith("vertex "):
            v, x, y = int_tokens(raw.split()[1:], 3, "expected 'vertex v x y'", off)
            if not 0 <= v < n:
                raise ParseError(f"vertex index out of range [0, {n})", off)
            if points[v] is not None:
                raise ParseError(f"second line for vertex {v}", off)
            points[v] = (x, y)
        elif raw.startswith("edge "):
            head, colon, coords = raw.partition(":")
            usage = "expected 'edge i: x0 y0 x1 y1 ...'"
            (i,) = int_tokens(head.split()[1:], 1, usage, off)
            if not colon:
                raise ParseError(usage, off)
            pts = parse_points(coords, off)
            if not 0 <= i < m:
                raise ParseError("edge index out of range", off)
            if curves[rank[i]] is not None:
                raise ParseError(f"second line for edge {i}", off)
            curves[rank[i]] = PolylineCurve(f"e{rank[i]}", pts)
            curve_lines[i] = off
        else:
            raise ParseError(f"unrecognized line {raw!r}", off)
    if None in points:
        raise ParseError("missing vertex coordinate lines", len(lines))
    if None in curves:
        raise ParseError("missing edge curve lines", len(lines))
    # vertex lines may follow the edge lines, so the ends are checked last
    for i, off in curve_lines.items():
        (u, v), pts = edges[i], curves[rank[i]].points
        if {pts[0], pts[-1]} != {points[u], points[v]}:
            raise ParseError(
                f"edge {i}: curve from {pts[0]} to {pts[-1]} does not join "
                f"vertex {u} at {points[u]} and vertex {v} at {points[v]}",
                off,
            )
    atg = AbstractTopologicalGraph(graph, frozenset(allowed_pairs))
    return WeakRealization(atg, tuple(points), tuple(curves))
