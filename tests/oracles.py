"""Slow reference algorithms that the fast routines are tested against.

`edmonds_karp_vertex_cut` is a dict-based Edmonds-Karp on the same
node-split network as `stringsep.cuts.min_vertex_cut`, reading the cut from
the residual reachability of the super-source; `floyd_warshall` is the dense
all-pairs relaxation.  `fraction_validate_standardness` and
`fraction_intersection_graph` test every pair of curves and every pair of
segments with Fraction points; `pairwise_best_embedding` builds an
`Embedding` per trial and scores it by the n x n sum of |f(u) - f(v)|, and
`column_sample` is `embedding._sample` reading the anchors' columns, not
their rows.
`scan_split_by_target` and `scan_decompose_to_paths` peel flow paths by
scanning every residual arc at every step, and `scan_validate_flows` looks
up every arc in the edge set and sums a commodity's arcs once per vertex.
`split_merge_congestion` is `congestion._solve` as it stood before it
peeled the LP blocks directly: each source flow split by target with
`scan_split_by_target`, then the two halves of each pair merged.
`scan_random_segment_instance` tests each candidate segment against every
placed segment in turn.
`scan_segments_intersect` classifies a segment pair from four orientations
and up to four `on_segment` tests, and `scan_meeting` then scans the
endpoints with `on_segment` for the touching point; the Fraction oracles,
`segment_shared_point`, `scan_random_segment_instance`,
`scan_meeting_keys` (every pair of segments of distinct groups) and
`scan_validate_curve` (every pair of non-adjacent segments of a curve) use
them, not the package's `_meeting`.
`meeting_groups` and `point_keys` are the package's loop over the meeting
segment pairs as it stood before `_meeting_keys` decided them as arrays:
one `_meeting` call per pair, grouped by pair of curves, with a one-point
segment read as its point; `curve_pair_points` runs them on two curves, so
no oracle runs `_meeting_keys`.
`pairwise_validate_weak_realization` finds the crossings of a drawing with
one `curve_pair_points` call per pair of edge curves, `unpruned_pick_scale`
takes the exact distance of every pair of segments, and `scan_niceness`
tests every crossing point against every vertex.  `set_sweep` builds both
sides of every threshold split of an embedding as sets, with each split's
cut from `edmonds_karp_vertex_cut`, so it runs none of the package's flow
code.  `restart_sweep_cuts` is the sweep as it stood before it kept the
last position's source side: one flow carried across the positions, but
every search restarted from a copy of the source's arcs to all prefix
vertices, Theta(n^2) over a sweep.  It has its own search and augment and
runs no code of `stringsep.cuts`.
`reference_parse_graph` and `reference_parse_strings_file` are the graph
and strings parsers as they stood before the three input formats shared one
line grammar, each with its own loop over the lines and its own integer
reads.

`reference_find_separator` is the separator pipeline as a worklist of
parts, before it became one chain of cuts; `reference_min_separator_exact`
checks the greedy grouping's side sizes, which every candidate whose
components fit the limit already meets.  `scan_exit_port` reads a loop
port off the first segment and scans the path for its first point outside
the ring, as `weak_to_strings` did before it relied on the clearance that
`_pick_scale` guarantees.

`dict_aggregated_lp` is the congestion LP as it was built before its
assembly moved to arrays, one {column: coefficient} dict per row, and
`dual_of` the mechanical dual of a program, itself a program of the one
form `LpProblem` takes.

`scalar_mix` is splitmix64 one trial at a time in Python ints, as
`embedding._mix` computed it before it became one row of `_mix_block`.
`per_pair_gnp_connected` draws one scalar per vertex pair, as
`generate("gnp_connected")` did before each attempt drew all its pairs in
one call.  `conflict_experiment_from_paths` is the conflict experiment as
it was before it solved the vertex flow itself: the paths and vcong given
apart.

`on_segment`, `curve_pair_points`, `segment_shared_point`, `dense_rows`,
`dual_of` and `validate_metric` have no caller in the package; they serve
the tests only.
"""

from fractions import Fraction
from itertools import combinations, groupby
from math import gcd
from operator import itemgetter

import numpy as np
from scipy.sparse import coo_array

from stringsep.congestion import FLOW_TOL, FlowSolution, PathFlow, _aggregated_lp, _arc_ends
from stringsep.cuts import (
    SeparatorResult,
    SweepPosition,
    _embed_or_fallback,
    _greedy_sides,
    fhl_sweep,
)
from stringsep.embedding import Embedding, scale_count
from stringsep.errors import (
    ContractViolation,
    GenerationError,
    ParseError,
    SizeCapExceeded,
    StandardnessError,
)
from stringsep.experiments import ConflictStats, pcr_lower_bound
from stringsep.geometry import (
    PolylineCurve,
    SegmentRelation,
    StringRepresentation,
    _coords,
    _meeting,
    _rational,
    _segment_pairs,
    orientation,
    sq_dist_point_segment,
    sq_dist_points,
    sq_dist_segments,
)
from stringsep.graphs import (
    MAX_GRAPH_VERTICES,
    Graph,
    VertexCut,
    balance_limit,
    check_separator,
    graph_from_pairs,
)
from stringsep.lp import LpProblem, _row_matrix, lp_solve
from stringsep.topology import Violation


def edmonds_karp_vertex_cut(g, xs, ys) -> frozenset[int]:
    """Minimal source-side minimum X-Y vertex cut of g."""
    n = g.n
    big = n + 1
    src, snk = 2 * n, 2 * n + 1
    cap: dict[tuple[int, int], int] = {}

    def add(a: int, b: int, c: int) -> None:
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)

    for v in g.vertices():
        add(2 * v, 2 * v + 1, 1)
    for u, v in g.edges:
        add(2 * u + 1, 2 * v, big)
        add(2 * v + 1, 2 * u, big)
    for x in sorted(xs):
        add(src, 2 * x, big)
    for y in sorted(ys):
        add(2 * y + 1, snk, big)

    adj: dict[int, list[int]] = {}
    for a, b in cap:
        adj.setdefault(a, []).append(b)
    for a in adj:
        adj[a].sort()

    flow = {e: 0 for e in cap}
    while True:
        parent = {src: src}
        queue = [src]
        qi = 0
        while qi < len(queue) and snk not in parent:
            a = queue[qi]
            qi += 1
            for b in adj.get(a, ()):
                if b not in parent and cap[(a, b)] - flow[(a, b)] > 0:
                    parent[b] = a
                    queue.append(b)
        if snk not in parent:
            break
        path = [snk]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        aug = min(cap[(a, b)] - flow[(a, b)] for a, b in zip(path, path[1:]))
        for a, b in zip(path, path[1:]):
            flow[(a, b)] += aug
            flow[(b, a)] -= aug

    reach = {src}
    stack = [src]
    while stack:
        a = stack.pop()
        for b in adj.get(a, ()):
            if b not in reach and cap[(a, b)] - flow[(a, b)] > 0:
                reach.add(b)
                stack.append(b)
    return frozenset(v for v in g.vertices() if 2 * v in reach and 2 * v + 1 not in reach)


def floyd_warshall(g, weights) -> np.ndarray:
    """All-pairs shortest paths; `weights` has one entry per edge of g."""
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), we in zip(g.edges, weights):
        d[u, v] = d[v, u] = min(d[u, v], we)
    for k in range(g.n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def _within(a, b, x) -> bool:
    return min(a, b) <= x <= max(a, b)


def on_segment(p, q, r) -> bool:
    """True iff r lies on the closed segment pq (r collinear and inside the bbox)."""
    return orientation(p, q, r) == 0 and _within(p[0], q[0], r[0]) and _within(p[1], q[1], r[1])


def scan_segments_intersect(p, q, r, s) -> SegmentRelation:
    """segments_intersect from the four orientations and up to four
    on_segment tests."""
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


def scan_meeting(p, q, r, s):
    """geometry._meeting from scan_segments_intersect, then a scan of the
    endpoints with on_segment for the touching point."""
    rel = scan_segments_intersect(p, q, r, s)
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


def segment_shared_point(p, q, r, s):
    """The unique shared point of pq and rs as Fractions, from scan_meeting's
    normalised key, or None when disjoint.

    Raises StandardnessError for overlapping segments (no unique point).
    """
    rel, key = scan_meeting(p, q, r, s)
    if rel is SegmentRelation.OVERLAPPING:
        raise StandardnessError("overlapping segments have no unique shared point")
    return None if key is None else _rational(key)


def scan_meeting_keys(groups) -> list:
    """_meeting_keys as rows (i, j, overlap, key or None), from every pair of
    segments of distinct groups in turn: scan_meeting for two segments, and
    on_segment for a one-point segment (v, v)."""
    rows = []
    for i, j in combinations(range(len(groups)), 2):
        for p, q in groups[i]:
            for r, s in groups[j]:
                if p == q or r == s:
                    v, (a, b) = (p, (r, s)) if p == q else (r, (p, q))
                    if on_segment(a, b, v):
                        rows.append((i, j, False, (v[0], v[1], 1)))
                    continue
                rel, key = scan_meeting(p, q, r, s)
                if rel is not SegmentRelation.DISJOINT:
                    rows.append((i, j, rel is SegmentRelation.OVERLAPPING, key))
    return rows


def fraction_segment_point(p, q, r, s):
    """The unique shared point of segments pq and rs as Fractions, or None."""
    rel = scan_segments_intersect(p, q, r, s)
    if rel is SegmentRelation.DISJOINT:
        return None
    if rel is SegmentRelation.OVERLAPPING:
        raise StandardnessError("overlapping segments have no unique shared point")
    if rel is SegmentRelation.TOUCHING:
        for a, b, pt in ((p, q, r), (p, q, s), (r, s, p), (r, s, q)):
            if on_segment(a, b, pt):
                return (Fraction(pt[0]), Fraction(pt[1]))
        raise AssertionError("touching segments must share an endpoint of one of them")
    dqp = (q[0] - p[0], q[1] - p[1])
    dsr = (s[0] - r[0], s[1] - r[1])
    denom = dqp[0] * dsr[1] - dqp[1] * dsr[0]
    t = Fraction((r[0] - p[0]) * dsr[1] - (r[1] - p[1]) * dsr[0], denom)
    return (p[0] + t * dqp[0], p[1] + t * dqp[1])


def scan_validate_curve(c) -> None:
    """PolylineCurve.validate with one scan_segments_intersect call per pair
    of non-adjacent segments."""
    if len(c.points) < 2:
        raise ContractViolation(f"curve {c.id}: needs at least 2 points")
    for a, b in c.segments:
        if a == b:
            raise ContractViolation(f"curve {c.id}: repeated consecutive point {a}")
    segs = c.segments
    for i, (p, q) in enumerate(segs):
        if i + 1 < len(segs):
            r, s = segs[i + 1]
            if orientation(p, q, s) == 0:
                dot = (p[0] - q[0]) * (s[0] - q[0]) + (p[1] - q[1]) * (s[1] - q[1])
                if dot > 0:
                    raise ContractViolation(
                        f"curve {c.id}: segments {i},{i + 1} double back at {q}"
                    )
        for j in range(i + 2, len(segs)):
            r, s = segs[j]
            if scan_segments_intersect(p, q, r, s) is not SegmentRelation.DISJOINT:
                raise ContractViolation(
                    f"curve {c.id}: non-adjacent segments {i},{j} intersect"
                )


def fraction_curve_pair_points(c1, c2) -> set:
    """Every segment pair of c1 x c2, in order, into one set of Fraction points."""
    pts = set()
    for p, q in c1.segments:
        for r, s in c2.segments:
            rel = scan_segments_intersect(p, q, r, s)
            if rel is SegmentRelation.OVERLAPPING:
                raise StandardnessError(
                    f"curves {c1.id} and {c2.id} overlap on a common sub-segment"
                )
            if rel is not SegmentRelation.DISJOINT:
                pts.add(fraction_segment_point(p, q, r, s))
    return pts


def fraction_validate_standardness(rep) -> None:
    """Simple curves, then every pair of curves in lexicographic order."""
    curves = rep.sorted_curves()
    for c in curves:
        scan_validate_curve(c)
    point_owner = {}
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            ids = {curves[i].id, curves[j].id}
            for pt in fraction_curve_pair_points(curves[i], curves[j]):
                prev = point_owner.get(pt)
                if prev is not None and not set(prev).issubset(ids):
                    involved = sorted(set(prev) | ids)
                    raise StandardnessError(
                        f"triple point at ({pt[0]}, {pt[1]}): curves {', '.join(involved)}"
                    )
                point_owner[pt] = (curves[i].id, curves[j].id)


def fraction_intersection_graph(rep):
    """(graph, counts) from a second all-pairs pass after validation."""
    fraction_validate_standardness(rep)
    curves = rep.sorted_curves()
    counts = {}
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            pts = fraction_curve_pair_points(curves[i], curves[j])
            if pts:
                counts[(i, j)] = len(pts)
    return graph_from_pairs(len(curves), list(counts)), counts


def scalar_mix(seed: int, trial: int) -> int:
    """splitmix64 of (seed, trial) in Python ints, one trial at a time."""
    z = (seed * 0x9E3779B97F4A7C15 + trial + 1) % (1 << 64)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    return z ^ (z >> 31)


def pairwise_best_embedding(d, trials: int, seed: int) -> Embedding:
    """The trial with the largest n x n spread; the first of equal ones."""
    n = d.shape[0]
    k = scale_count(n)
    best, best_spread = None, -1.0
    for t in range(trials):
        trial_seed = scalar_mix(seed, t)
        rng = np.random.default_rng((trial_seed, 431))
        j = int(rng.integers(0, k + 1))
        members = rng.random(n) < 2.0 ** (-j)
        anchors = frozenset(int(i) for i in np.flatnonzero(members))
        f = d[:, sorted(anchors)].min(axis=1) if anchors else np.zeros(n)
        emb = Embedding(tuple(float(x) for x in f), trial_seed, j, anchors)
        v = np.asarray(emb.values)
        spread = float(np.abs(v[:, None] - v[None, :]).sum()) / 2.0
        if spread > best_spread:
            best, best_spread = emb, spread
    return best


def column_sample(d, rng, out):
    """embedding._sample as it was before it read the anchors' rows: f from
    the anchors' columns, d[:, anchors].min(axis=1)."""
    n = d.shape[0]
    j = int(rng.integers(0, scale_count(n) + 1))
    members = rng.random(n) < 2.0 ** (-j)
    anchors = members.nonzero()[0]
    if anchors.size:
        d[:, anchors].min(axis=1, out=out)
    else:
        out[:] = 0.0
    return j, members, out


def set_sweep(g, f):
    """(A, B, S, positions) of fhl_sweep's selection over the threshold
    splits of f: the sparsest split, then one with both sides nonempty,
    then the lowest position."""
    vals = np.asarray(f, dtype=float)
    order = sorted(g.vertices(), key=lambda v: (vals[v], v))
    best = None
    best_key = None
    positions = []
    for i in range(1, g.n):
        s_i = edmonds_karp_vertex_cut(g, order[:i], order[i:])
        a_i = frozenset(order[:i]) - s_i
        b_i = frozenset(order[i:]) - s_i
        val = Fraction(len(s_i), (len(a_i) + len(s_i)) * (len(b_i) + len(s_i)))
        positions.append(SweepPosition(i, len(s_i), val, len(a_i), len(b_i)))
        key = (val, not (a_i and b_i), i)
        if best is None or key < best_key:
            best, best_key = (a_i, b_i, s_i), key
    return (*best, tuple(positions))


def restart_sweep_cuts(g, order):
    """The cut min_vertex_cut(g, order[:i], order[i:]) for i = 1..n-1, with
    one flow kept across the positions but every search restarted from all
    prefix vertices.

    pred[v] is the vertex before v on its vertex-disjoint path, -2 if v
    starts it, -1 if v carries no flow.  Moving v into X cancels the one
    path that ended at v and adds the arc source -> in(v); breadth-first
    searches from a copy of the source's arcs augment until none succeeds,
    and the cut is read from that last search.
    """
    none, source = -1, -2
    n = g.n
    adj = [[2 * w for w in sorted(a)] for a in g.adjacency]
    pred = [none] * n
    is_y = [True] * n
    seed_par = [-1] * (2 * n)
    seeds = []
    value = 0
    for v in order[:-1]:
        if pred[v] != none:
            value -= 1
            u = v
            while u != source:
                p = pred[u]
                pred[u] = none
                u = p
        is_y[v] = False
        seed_par[2 * v] = 2 * n
        seeds.append(2 * v)
        while True:
            # search the node-split network: in(v) = 2v, out(v) = 2v + 1
            par = seed_par.copy()
            queue = seeds.copy()
            end = None
            for a in queue:
                p = pred[a >> 1]
                if p == none:
                    b = a + 1
                elif p == source:
                    continue
                else:
                    b = 2 * p + 1
                    if par[b - 1] == -1:
                        par[b - 1] = b
                        queue.append(b - 1)
                par[b] = a
                if is_y[b >> 1]:
                    end = b
                    break
                for c in adj[b >> 1]:
                    if par[c] == -1:
                        par[c] = b
                        queue.append(c)
            if end is None:
                break
            value += 1
            b = end
            while par[b] != 2 * n:
                a = par[b]
                if a & 1:
                    pred[b >> 1] = none if a == b + 1 else a >> 1
                b = a
            pred[b >> 1] = source
        cut = frozenset(a >> 1 for a in queue if par[a + 1] == -1)
        if len(cut) != value:
            raise RuntimeError("sweep flow value disagrees with the extracted cut")
        yield cut


def scan_split_by_target(g, s: int, flow: dict) -> dict:
    """Decompose a single-source flow (1/2 unit into every t != s) by target.

    Walks backward from each target to the source, cancelling any cycles met
    on the way; leftover circulation is discarded.
    """
    residual = {arc: w for arc, w in flow.items() if w > FLOW_TOL}
    per_target = {}
    for t in sorted(g.vertices()):
        if t == s:
            continue
        remaining = 0.5
        paths = []
        guard = 0
        while remaining > 1e-7:
            guard += 1
            if guard > 10000:
                raise RuntimeError("flow splitting failed to terminate")
            walk = [t]
            seen = {t: 0}
            cancelled = False
            while walk[-1] != s:
                here = walk[-1]
                prev = min(
                    (a for (a, b), w in residual.items() if b == here and w > FLOW_TOL),
                    default=None,
                )
                if prev is None:
                    break
                if prev in seen:
                    cyc = walk[seen[prev] :] + [prev]  # b <- a order
                    w = min(residual[(a, b)] for b, a in zip(cyc, cyc[1:]))
                    for b, a in zip(cyc, cyc[1:]):
                        residual[(a, b)] -= w
                        if residual[(a, b)] <= FLOW_TOL:
                            del residual[(a, b)]
                    cancelled = True
                    break
                seen[prev] = len(walk)
                walk.append(prev)
            if walk[-1] != s:
                if cancelled:
                    continue  # retry after removing the cycle
                if len(walk) > 1 and (walk[-1], walk[-2]) in residual:
                    # numerical dead end upstream; the arc carries roundoff only
                    del residual[(walk[-1], walk[-2])]
                    continue
                break
            path = tuple(reversed(walk))  # s .. t
            w = min(residual[(a, b)] for a, b in zip(path, path[1:]))
            w = min(w, remaining)
            for a, b in zip(path, path[1:]):
                residual[(a, b)] -= w
                if residual[(a, b)] <= FLOW_TOL:
                    del residual[(a, b)]
            paths.append((path, w))
            remaining -= w
        if remaining > 1e-6:
            raise RuntimeError(f"source {s}: target {t} under-served by {remaining}")
        per_target[t] = paths
    return per_target


def split_merge_congestion(g, mode: str) -> FlowSolution:
    """The congestion flows of a connected graph as `congestion._solve`
    built them before it peeled the LP blocks directly: the same LP, each
    source block as an {arc: weight} dict split by `scan_split_by_target`,
    and the two half-flows of each pair merged, one reversed."""
    sol = lp_solve(_aggregated_lp(g, mode))
    tail, head = _arc_ends(g)
    blocks = sol.x[1:].reshape(g.n, -1)
    commodities = {(u, v): {} for u in g.vertices() for v in g.vertices() if u < v}
    for s in g.vertices():
        nz = np.flatnonzero(blocks[s] > FLOW_TOL)
        flow = dict(zip(zip(tail[nz].tolist(), head[nz].tolist()), blocks[s, nz].tolist()))
        for t, paths in scan_split_by_target(g, s, flow).items():
            pair = (s, t) if s < t else (t, s)
            d = commodities[pair]
            for path, w in paths:
                seq = path if pair[0] == s else path[::-1]
                for a, b in zip(seq, seq[1:]):
                    d[(a, b)] = d.get((a, b), 0.0) + w
    keys = g.edges if mode == "edge" else g.vertices()
    duals = {key: max(0.0, -d) for key, d in zip(keys, sol.duals[g.n * (g.n - 1) :].tolist())}
    return FlowSolution(mode, float(sol.value), commodities, duals)


def scan_validate_flows(g, flows, tol: float = 1e-6) -> None:
    """Check per-pair arcs, conservation and the load cap; raises ContractViolation."""
    if not flows.is_finite():
        raise ContractViolation("infinite congestion carries no flows")
    for pair, fl in flows.commodities.items():
        for a, b in fl:
            whole = isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))
            if not (whole and 0 <= a < g.n and 0 <= b < g.n and g.has_edge(a, b)):
                raise ContractViolation(
                    f"commodity {pair}: arc ({a}, {b}) is not an edge of the graph"
                )
    for (s, t), fl in flows.commodities.items():
        for x in g.vertices():
            net = sum(w for (a, b), w in fl.items() if a == x) - sum(
                w for (a, b), w in fl.items() if b == x
            )
            want = 1.0 if x == s else -1.0 if x == t else 0.0
            if abs(net - want) > tol:
                raise ContractViolation(
                    f"commodity {(s, t)}: net flow {net:.2e} at vertex {x}, expected {want}"
                )
    if flows.mode == "edge":
        for u, v in g.edges:
            load = sum(
                fl.get((u, v), 0.0) + fl.get((v, u), 0.0)
                for fl in flows.commodities.values()
            )
            if load > flows.congestion + tol:
                raise ContractViolation(f"edge ({u},{v}) load {load} exceeds congestion")
    else:
        for x in g.vertices():
            load = 0.5 * sum(
                w
                for fl in flows.commodities.values()
                for (a, b), w in fl.items()
                if a == x or b == x
            )
            if load > flows.congestion + tol:
                raise ContractViolation(f"vertex {x} load {load} exceeds congestion")


def scan_decompose_to_paths(g, flows) -> PathFlow:
    """Flow decomposition: extract weighted simple paths, discard cycles.

    Per commodity, repeatedly follows positive residual arcs from the source
    (lowest-numbered neighbor first), cancels any cycle encountered, and
    subtracts each found path at its bottleneck weight.
    """
    scan_validate_flows(g, flows)
    out = {}
    for (s, t), fl in flows.commodities.items():
        residual = {arc: w for arc, w in fl.items() if w > FLOW_TOL}
        found = []
        guard = 0
        while True:
            guard += 1
            if guard > 10000:
                raise RuntimeError("path extraction failed to terminate")
            walk = [s]
            seen = {s: 0}
            reached = False
            cancelled = False
            while True:
                here = walk[-1]
                if here == t:
                    reached = True
                    break
                nxt = min(
                    (b for (a, b), w in residual.items() if a == here and w > FLOW_TOL),
                    default=None,
                )
                if nxt is None:
                    break
                if nxt in seen:
                    cyc = walk[seen[nxt] :] + [nxt]
                    w = min(residual[(a, b)] for a, b in zip(cyc, cyc[1:]))
                    for a, b in zip(cyc, cyc[1:]):
                        residual[(a, b)] -= w
                        if residual[(a, b)] <= FLOW_TOL:
                            del residual[(a, b)]
                    cancelled = True
                    break
                seen[nxt] = len(walk)
                walk.append(nxt)
            if reached:
                w = min(residual[(a, b)] for a, b in zip(walk, walk[1:]))
                for a, b in zip(walk, walk[1:]):
                    residual[(a, b)] -= w
                    if residual[(a, b)] <= FLOW_TOL:
                        del residual[(a, b)]
                found.append((tuple(walk), w))
            elif cancelled:
                continue  # retry after removing the cycle
            elif len(walk) == 1:
                break  # source exhausted
            elif (walk[-2], walk[-1]) in residual:
                # numerical dead end: the stranded arc carries only roundoff
                del residual[(walk[-2], walk[-1])]
        total = sum(w for _, w in found)
        if abs(total - 1.0) > 1e-6:
            raise ContractViolation(f"commodity {(s, t)} decomposes to {total}, not 1")
        merged = {}
        for path, w in found:
            merged[path] = merged.get(path, 0.0) + w
        out[(s, t)] = tuple(sorted(merged.items()))
    return PathFlow(out)


def dense_rows(problem: LpProblem) -> list[tuple[np.ndarray, str, float]]:
    """The rows as (dense coefficient vector, relation, rhs)."""
    out = []
    for (cols, vals), rel, rhs in problem.rows:
        row = np.zeros(problem.n_vars)
        row[cols] = vals
        out.append((row, rel, rhs))
    return out


def dict_aggregated_lp(g: Graph, mode: str) -> LpProblem:
    """The aggregated congestion LP of `congestion._aggregated_lp`, one
    {column: coefficient} dict per row, each added as a block of one row,
    in the same row and column order."""
    arcs = [arc for u, v in g.edges for arc in ((u, v), (v, u))]
    na = len(arcs)
    n = g.n
    nv = 1 + n * na
    out_idx: dict[int, list[int]] = {x: [] for x in g.vertices()}
    in_idx: dict[int, list[int]] = {x: [] for x in g.vertices()}
    for ai, (a, b) in enumerate(arcs):
        out_idx[a].append(ai)
        in_idx[b].append(ai)

    obj = np.zeros(nv)
    obj[0] = 1.0
    lp = LpProblem(obj)

    def add(row: dict, rel: str, rhs: float) -> None:
        cols = np.array(list(row), dtype=np.int64)
        vals = np.array(list(row.values()))
        lp.add_rows(coo_array((vals, (np.zeros_like(cols), cols)), shape=(1, nv)), rel, rhs)

    for s in g.vertices():
        base = 1 + s * na
        for x in g.vertices():
            if x == s:
                continue
            row = {base + ai: 1.0 for ai in in_idx[x]}
            row.update((base + ai, -1.0) for ai in out_idx[x])
            add(row, "=", 0.5)

    if mode == "edge":
        for ei in range(g.m):
            row = {0: -1.0}
            for s in g.vertices():
                base = 1 + s * na
                row[base + 2 * ei] = 1.0
                row[base + 2 * ei + 1] = 1.0
            add(row, "<=", 0.0)
    else:
        for x in g.vertices():
            row = {0: -1.0}
            for s in g.vertices():
                base = 1 + s * na
                row.update((base + ai, 0.5) for ai in out_idx[x] + in_idx[x])
            add(row, "<=", 0.0)
    return lp


def dual_of(problem: LpProblem) -> LpProblem:
    """Mechanically constructed dual, for duality spot-checks, as the min
    program whose value is minus the primal's.

    The dual of min c x over A x (= or <=) b, x >= 0 is max b y over
    A^T y <= c, with y free on "=" rows and y <= 0 on "<=" rows.  Free dual
    variables are split into differences of two nonnegatives and the others
    negated, so that every dual variable is nonnegative, and the objective
    is negated so that the dual minimises.
    """
    A = _row_matrix(problem).toarray()
    b = np.array([row[2] for row in problem.rows])
    rels = [row[1] for row in problem.rows]

    # columns of the dual LP: one var per "<=" row, two per "=" row
    cols = []  # (row index, multiplier)
    for i, rel in enumerate(rels):
        cols += [(i, -1.0)] if rel == "<=" else [(i, 1.0), (i, -1.0)]

    dual = LpProblem(np.array([-b[i] * mult for i, mult in cols]))
    rows = np.array([A[i] * mult for i, mult in cols]).reshape(len(cols), problem.n_vars)
    dual.add_rows(rows.T, "<=", problem.objective)
    return dual


def validate_metric(d: np.ndarray, tol: float = 1e-9) -> None:
    """Symmetry, zero diagonal, nonnegativity, triangle inequality."""
    n = d.shape[0]
    if d.shape != (n, n):
        raise ContractViolation("metric matrix must be square")
    if np.abs(np.diag(d)).max(initial=0.0) > tol:
        raise ContractViolation("nonzero diagonal")
    if (d < -tol).any():
        raise ContractViolation("negative distance")
    if np.abs(d - d.T).max(initial=0.0) > tol:
        raise ContractViolation("asymmetric matrix")
    for k in range(n):
        if (d - (d[:, k, None] + d[None, k, :])).max() > tol:
            raise ContractViolation("triangle inequality violated")


def scan_random_segment_instance(count: int, seed: int, span: int | None = None):
    """random_segment_instance with every candidate tested against every
    placed segment in turn."""
    if count < 1:
        raise ContractViolation("count must be >= 1")
    rng = np.random.default_rng((seed, 977))
    side = max(8, 2 * count)
    placed = []
    known_points = set()
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
            new_pts = []
            ok = True
            for r, s in placed:
                rel, key = scan_meeting(p, q, r, s)
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
                continue
            if any(pt in known_points for pt in new_pts):
                continue
            placed.append((p, q))
            known_points.update(new_pts)
            break
        else:
            raise GenerationError(f"segment {k}: resample cap (1000) exceeded")
    width = len(str(count - 1))
    return StringRepresentation(
        tuple(PolylineCurve(f"s{i:0{width}d}", (p, q)) for i, (p, q) in enumerate(placed))
    )


def meeting_groups(groups):
    """Yield (i, j, the segment pairs ((p, q), (r, s)) of groups[i] x groups[j]
    that meet) for each pair i < j of meeting groups of segments, in
    lexicographic order, all from one _segment_pairs call, whose pairs of
    one group are dropped; a group may hold a one-point segment (p, p)."""
    segs = [seg for group in groups for seg in group]
    ends = _coords([p + q for p, q in segs]).reshape(-1, 4)
    curve_of = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    found = [(np.zeros(0, dtype=np.int64),) * 2]
    found += [(a, b) for a, b, _ in _segment_pairs(ends, curve_of)]
    a, b = (np.concatenate(column) for column in zip(*found))
    a, b = a[curve_of[a] != curve_of[b]], b[curve_of[a] != curve_of[b]]
    by = np.lexsort((b, a, curve_of[b], curve_of[a]))
    a, b = a[by], b[by]
    rows = zip(curve_of[a].tolist(), curve_of[b].tolist(), a.tolist(), b.tolist())
    for (i, j), group in groupby(rows, key=itemgetter(0, 1)):
        yield i, j, ((segs[x], segs[y]) for _, _, x, y in group)


def point_keys(c1: PolylineCurve, c2: PolylineCurve, seg_pairs) -> dict:
    """The shared points of the segment pairs ((p, q), (r, s)) of c1 x c2, in
    order, one _meeting call each; raises StandardnessError when a pair
    overlaps.  A one-point segment (p, p) is the point p: it is the pair's
    shared point if it lies on the other segment."""
    keys = {}
    for (p, q), (r, s) in seg_pairs:
        if p == q or r == s:
            pt, (a, b) = (p, (r, s)) if p == q else (r, (p, q))
            if on_segment(a, b, pt):
                keys[(pt[0], pt[1], 1)] = None
            continue
        rel, key = _meeting(p, q, r, s)
        if rel is SegmentRelation.OVERLAPPING:
            raise StandardnessError(
                f"curves {c1.id} and {c2.id} overlap on a common sub-segment"
            )
        if key is not None:
            keys[key] = None
    return keys


def curve_pair_points(c1: PolylineCurve, c2: PolylineCurve) -> set:
    """All intersection points of two distinct simple curves, as exact
    rationals, from one meeting_groups pass over the two curves alone.

    Raises StandardnessError when the curves share a sub-segment of positive
    length (infinitely many intersections).
    """
    return {
        _rational(key)
        for _, _, seg_pairs in meeting_groups((c1.segments, c2.segments))
        for key in point_keys(c1, c2, seg_pairs)
    }


def pair_intersections(w, i: int, j: int) -> tuple[set, bool]:
    """Intersection points of edge curves i and j, with overlap flag; shared
    vertex points of adjacent edges are removed."""
    e1, e2 = w.atg.graph.edges[i], w.atg.graph.edges[j]
    try:
        pts = curve_pair_points(w.edge_curves[i], w.edge_curves[j])
    except StandardnessError:
        return set(), True
    for v in set(e1) & set(e2):
        vp = w.vertex_points[v]
        pts.discard((Fraction(vp[0]), Fraction(vp[1])))
    return pts, False


def pairwise_validate_weak_realization(w) -> list:
    """validate_weak_realization with pair_intersections on every pair of edges."""
    g = w.atg.graph
    out = []
    for e, c in zip(g.edges, w.edge_curves):
        try:
            scan_validate_curve(c)
        except ContractViolation as exc:
            out.append(Violation("not_simple", str(exc), edges=(e,)))
    if len(set(w.vertex_points)) != g.n:
        out.append(Violation("overlap", "two vertices share a point"))
    for i, c in enumerate(w.edge_curves):
        e = g.edges[i]
        for v in g.vertices():
            if v in e:
                continue
            vp = w.vertex_points[v]
            if any(on_segment(p, q, vp) for p, q in c.segments):
                out.append(
                    Violation(
                        "edge_through_vertex",
                        f"edge {e} passes through vertex {v} at {vp}",
                        edges=(e,),
                        point=(Fraction(vp[0]), Fraction(vp[1])),
                    )
                )
    point_users = {}
    for i in range(g.m):
        for j in range(i + 1, g.m):
            e1, e2 = g.edges[i], g.edges[j]
            pts, overlap = pair_intersections(w, i, j)
            if overlap:
                out.append(
                    Violation("overlap", f"edges {e1} and {e2} share a sub-segment", edges=(e1, e2))
                )
                continue
            if not pts:
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
    for pt, users in sorted(point_users.items()):
        if len(users) >= 3 and pt not in vertex_pts:
            out.append(
                Violation(
                    "triple_point",
                    f"{len(users)} edges pass through ({pt[0]}, {pt[1]})",
                    edges=tuple(sorted(users)),
                    point=pt,
                )
            )
    return out


def scan_niceness(w, scale: int) -> bool:
    """Whether some crossing point of w lies within L-infinity distance 32 of
    some vertex, both scaled by `scale`: weak_to_strings' niceness check over
    every crossing point and every vertex."""
    return any(
        abs(x - px) * scale < 32 and abs(y - py) * scale < 32
        for pts in w.crossings.values()
        for x, y in pts
        for px, py in w.vertex_points
    )


def unpruned_pick_scale(w) -> int:
    """topology._pick_scale with the exact distance of every pair of segments."""
    g = w.atg.graph
    d2 = None

    def keep(val):
        nonlocal d2
        if val > 0 and (d2 is None or val < d2):
            d2 = val

    for x in range(g.n):
        for y in range(x + 1, g.n):
            keep(sq_dist_points(w.vertex_points[x], w.vertex_points[y]))
    for x in g.vertices():
        p = w.vertex_points[x]
        for e, c in zip(g.edges, w.edge_curves):
            if x in e:
                continue
            for s0, s1 in c.segments:
                keep(sq_dist_point_segment(p, s0, s1))
    for c in w.edge_curves:
        keep(sq_dist_points(c.points[0], c.points[1]))
        keep(sq_dist_points(c.points[-1], c.points[-2]))
    all_segs = [
        (ci, si, seg) for ci, c in enumerate(w.edge_curves) for si, seg in enumerate(c.segments)
    ]
    for i in range(len(all_segs)):
        ci, si, (p, q) = all_segs[i]
        for j in range(i + 1, len(all_segs)):
            cj, sj, (r, s) = all_segs[j]
            if ci == cj and abs(si - sj) <= 1:
                continue
            if {p, q} & {r, s}:
                continue
            keep(sq_dist_segments(p, q, r, s))
    if d2 is None:
        d2 = Fraction(1)
    scale = 1
    while scale * scale * d2 < 64 * 64:
        scale *= 2
    return scale


def reference_parse_graph(text: str) -> Graph:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m', got {lines[0]!r}", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"expected integers 'n m', got {lines[0]!r}", 1) from None
    if n < 0 or m < 0:
        raise ParseError("n and m must be nonnegative", 1)
    if n > MAX_GRAPH_VERTICES:
        raise ParseError(f"n must be at most {MAX_GRAPH_VERTICES}", 1)
    if m > len(lines):
        raise ParseError(f"m must be at most the {len(lines)} lines of the input", 1)
    edges = []
    seen = set()
    row = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        if row > m:
            raise ParseError(f"more than {m} edge lines", lineno)
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected integers 'u v', got {raw!r}", lineno) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex id out of range [0, {n})", lineno)
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ParseError(f"duplicate edge ({u}, {v})", lineno)
        seen.add(e)
        edges.append(e)
        row += 1
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}", len(lines))
    return Graph(n, tuple(sorted(edges)))


def reference_parse_strings_file(text: str) -> StringRepresentation:
    """Raises ContractViolation, with no line, for a repeated curve id."""
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


def reference_find_separator(g: Graph, seed: int = 0, trials: int | None = None) -> SeparatorResult:
    """cuts.find_separator as a worklist of parts: each round takes the
    largest oversized part (ties: least vertex) and puts back the
    components of its uncut vertices, found by a walk over all of g."""
    if g.n < 2:
        raise ContractViolation("separator needs n >= 2")
    if trials is not None and trials < 1:
        raise ContractViolation("trials must be >= 1")
    limit = balance_limit(g.n)
    parts: list[frozenset[int]] = list(g.components())
    separator: set[int] = set()
    trace: list[tuple[int, float]] = []
    round_no = 0
    while True:
        oversized = [p for p in parts if len(p) > limit]
        if not oversized:
            break
        part = max(oversized, key=lambda p: (len(p), -min(p)))
        parts.remove(part)
        sub, back = g.induced(part)
        f = _embed_or_fallback(sub, seed * 1_000_003 + round_no, trials)
        round_no += 1
        res = fhl_sweep(sub, np.ones(sub.n), f)
        trace.append((sub.n, float(res.sparsity)))
        separator.update(back[v] for v in res.S)
        remaining = part - separator
        parts.extend(g.components(removed=frozenset(g.vertices()) - remaining))

    side_a, side_b = _greedy_sides(parts)
    cut = VertexCut(frozenset(side_a), frozenset(side_b), frozenset(separator))
    ok, why = check_separator(g, cut)
    if not ok:
        raise RuntimeError(f"pipeline produced an invalid separator: {why}")
    return SeparatorResult(cut, len(separator), (len(side_a), len(side_b), g.n), tuple(trace))


def reference_min_separator_exact(g: Graph) -> tuple[int, VertexCut]:
    """cuts.min_separator_exact that also checks the sizes of the greedy
    grouping's sides before it accepts a candidate S."""
    if g.n > 14:
        raise SizeCapExceeded(f"n={g.n} exceeds the brute-force cap 14")
    if g.n < 2:
        raise ContractViolation("needs n >= 2")
    limit = balance_limit(g.n)
    for size in range(g.n + 1):
        for s_tuple in combinations(range(g.n), size):
            s_set = frozenset(s_tuple)
            comps = g.components(removed=s_set)
            if any(len(c) > limit for c in comps):
                continue
            side_a, side_b = _greedy_sides(comps)
            if len(side_a) <= limit and len(side_b) <= limit:
                cut = VertexCut(frozenset(side_a), frozenset(side_b), s_set)
                ok, why = check_separator(g, cut)
                assert ok, why
                return size, cut
    raise RuntimeError("unreachable: S = V always succeeds")


def scan_exit_port(center, path) -> tuple[tuple[int, int], int]:
    """topology._exit_port as a scan: the port on the L-infinity ring of
    radius 16 read from the first segment of `path`, which starts at
    `center`, and the index of the first path point outside the ring."""
    cx, cy = center
    p0, p1 = path[0], path[1]
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    if abs(dx) >= abs(dy):
        t = Fraction(16, abs(dx))
        port = (cx + (16 if dx > 0 else -16), cy + round(t * dy))
    else:
        t = Fraction(16, abs(dy))
        port = (cx + round(t * dx), cy + (16 if dy > 0 else -16))
    for idx in range(1, len(path)):
        q = path[idx]
        if max(abs(q[0] - cx), abs(q[1] - cy)) > 16:
            return port, idx
    raise ContractViolation("edge curve never leaves its endpoint's loop ring")


def per_pair_gnp_connected(n: int, percent: int, seed: int | None = None) -> Graph:
    """generate("gnp_connected", (n, percent), seed) with one scalar draw
    per vertex pair, as it was before an attempt drew all its pairs at once."""
    base = 0 if seed is None else seed
    for attempt in range(1000):
        rng = np.random.default_rng((base, 211, attempt))
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.integers(0, 100) < percent
        ]
        g = graph_from_pairs(n, pairs)
        if g.is_connected():
            return g
    raise GenerationError("gnp_connected: no connected sample in 1000 attempts")


def conflict_experiment_from_paths(g, phi, trials: int, seed: int, vcong: float) -> ConflictStats:
    """The conflict experiment as it was before it solved the vertex flow itself:
    the paths `phi` and `vcong` given apart, every pair's weights checked to
    sum to one, then the same per-trial draws and the same pairwise count."""
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    if seed < 0:
        raise ContractViolation(f"seed must be non-negative, got {seed}")
    if not g.is_connected() or g.n < 2:
        raise ContractViolation("needs a connected graph on >= 2 vertices")
    pairs = [(u, v) for u in g.vertices() for v in range(u + 1, g.n)]
    for pair in pairs:
        if pair not in phi.paths:
            raise ContractViolation(f"path flow misses commodity {pair}")
        total = sum(w for _, w in phi.paths[pair])
        if abs(total - 1.0) > 1e-6:
            raise ContractViolation(f"commodity {pair} weights sum to {total}, not 1")

    path_masks = {}
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    for pair in pairs:
        entries = []
        acc = 0.0
        for path, w in phi.paths[pair]:
            mask = 0
            closed = 0
            for x in path:
                mask |= 1 << x
                closed |= (1 << x) | nbr[x]
            acc += w
            entries.append((mask, closed, acc))
        path_masks[pair] = entries

    counts = []
    for t in range(trials):
        rng = np.random.default_rng((seed, 59, t))
        draws = rng.random(len(pairs))
        chosen = []
        for pi, pair in enumerate(pairs):
            entries = path_masks[pair]
            r = draws[pi] * entries[-1][2]
            chosen.append(next(e for e in entries if e[2] >= r - 1e-12))
        x = 0
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                if chosen[i][1] & chosen[j][0]:
                    x += 1
        counts.append(x)

    arr = np.array(counts, dtype=float)
    return ConflictStats(
        trials=trials,
        counts=tuple(counts),
        mean=float(arr.mean()),
        variance=float(arr.var(ddof=1)) if trials > 1 else 0.0,
        upper_bound=8.0 * g.m * vcong * vcong,
        lower_bound=pcr_lower_bound(g.n) if g.n >= 5 else None,
        vcong=vcong,
        m=g.m,
    )
