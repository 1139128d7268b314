"""Vertex cuts by unit flow, the embedding sweep, and the separator pipeline.

Every minimum vertex cut comes from one unit flow on the node-split
network (_max_flow); min_vertex_cut runs it from an empty flow and checks
its Menger certificate.  The sweep orders vertices by a 1-Lipschitz
embedding, computes for every prefix/suffix split a minimum vertex cut
between the sides, and keeps the sparsest (A_i, B_i, S_i).  Its sparsity
never exceeds (sum of vertex weights) / (sum of embedding gaps over
pairs).

The sweep is a parametric flow: moving a vertex into the prefix raises its
source arc and lowers its sink arc, so the minimal source sides of the
minimum cuts of successive positions are nested (Gallo, Grigoriadis &
Tarjan, "A fast parametric maximum flow algorithm and applications", SIAM
J. Comput. 1989).  One flow and the last position's source side serve all
n-1 splits; each position searches only outside that side, so the final
searches of the whole sweep reach every node once (_sweep_cuts).  Only
the winner's sides are built as sets, and min_vertex_cut recomputes the
winner as a cross-check.

A sweep position whose A or B side is empty has sparsity exactly 1/n
(|S| / (|S| n)), while every non-complete graph admits a proper cut of
sparsity (n-2)/(n-1)^2 < 1/n, so degenerate positions never undercut true
cuts; among equal-sparsity positions the selection prefers both sides
nonempty, then the lower position.

At most one part exceeds ceil(2n/3), so the separator pipeline is one
chain of cuts: embed that part with unit weights, cut it with the sweep,
go on with its piece still above the limit.  The parts left are grouped
greedily by descending size; with every part at most ceil(2n/3), the
greedy grouping keeps both sides within ceil(2n/3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .embedding import _spread, best_embedding, default_trials
from .errors import ContractViolation, SizeCapExceeded, _integer
from .graphs import Graph, VertexCut, EdgeCut, balance_limit, check_separator
from .metrics import derived_edge_weights, shortest_path_metric, sparsity_exact, _vertex_weights


_NONE, _SRC = -1, -2  # pred entries that are not vertices


@dataclass(frozen=True)
class MengerCertificate:
    """A minimum X-Y vertex cut with equally many vertex-disjoint X-Y paths."""

    cut: frozenset[int]
    paths: tuple[tuple[int, ...], ...]


def min_vertex_cut(g: Graph, xs, ys) -> MengerCertificate:
    """Minimum set of vertices whose removal separates X from Y.

    _max_flow from an empty flow; the paths are walked back through pred
    from the Y vertices that carry a unit, and _check_menger checks them
    with the cut.  X or Y vertices may themselves be cut.
    """
    xs, ys = frozenset(xs), frozenset(ys)
    if not xs or not ys:
        raise ContractViolation("X and Y must be nonempty")
    if xs & ys:
        raise ContractViolation("X and Y must be disjoint")

    n = g.n
    adj = [[2 * w for w in sorted(a)] for a in g.adjacency]
    pred = [_NONE] * n
    is_y = [v in ys for v in range(n)]
    _, par = _max_flow(adj, pred, is_y, [2 * x for x in sorted(xs)], ())
    cut = frozenset(a >> 1 for a in par if not a & 1 and a + 1 not in par)
    paths = []
    for y in sorted(y for y in ys if pred[y] != _NONE):
        path = [y]
        while pred[path[-1]] >= 0 and len(path) <= n:  # a cycle fails the check
            path.append(pred[path[-1]])
        paths.append(tuple(reversed(path)))
    _check_menger(g, xs, ys, cut, paths)
    return MengerCertificate(cut, tuple(paths))


def _check_menger(g: Graph, xs, ys, cut, paths) -> None:
    """Raise RuntimeError unless `paths` are len(cut) vertex-disjoint X-Y
    paths along edges of g and no component of g - cut meets both X and Y,
    which proves `cut` a minimum X-Y separator."""
    if len(paths) != len(cut):
        raise RuntimeError("max-flow value disagrees with the extracted cut")
    flat = [v for p in paths for v in p]
    if len(flat) != len(set(flat)) or not all(
        p[0] in xs and p[-1] in ys and all(v in g.adjacency[u] for u, v in zip(p, p[1:]))
        for p in paths
    ):
        raise RuntimeError("Menger paths are not vertex-disjoint X-Y paths of the graph")
    if any(c & xs and c & ys for c in g.components(removed=cut)):
        raise RuntimeError("the cut does not separate X from Y")


@dataclass(frozen=True)
class SweepPosition:
    index: int
    cut_size: int
    sparsity: Fraction
    a_size: int
    b_size: int


@dataclass(frozen=True)
class SweepResult:
    A: frozenset[int]
    B: frozenset[int]
    S: frozenset[int]
    sparsity: Fraction
    positions: tuple[SweepPosition, ...]
    weight_total: float
    gap_total: float

    @property
    def bound(self) -> float:
        """The guarantee: sparsity <= weight_total / gap_total."""
        return self.weight_total / self.gap_total


def fhl_sweep(g: Graph, s, f) -> SweepResult:
    """Sweep the threshold cuts of a 1-Lipschitz embedding for a sparse vertex cut.

    Vertices are ordered by f (ties by id); position i separates the first i
    from the rest with a minimum vertex cut.  g must be connected and f
    finite, non-constant and 1-Lipschitz with respect to the metric of the
    derived edge weights of s, which is checked edge by edge.

    The cuts come from one flow and one source side carried across the
    positions (_sweep_cuts).
    Side sizes are counted from the places of the cut vertices in the
    order; only the winner's sides are built.  Checked at run time: the
    flow value equals the cut size at every position, min_vertex_cut
    recomputes the winner's cut from an empty flow and certifies it
    minimum, and the sparsity is within its bound.
    """
    weights = _vertex_weights(g, s)
    vals = np.asarray(f, dtype=float)
    if vals.shape != (g.n,):
        raise ContractViolation("need one embedding value per vertex")
    if not np.isfinite(vals).all():
        raise ContractViolation("f must be finite")
    if len(set(vals.tolist())) < 2:
        raise ContractViolation("f is constant")
    if not g.is_connected():
        raise ContractViolation("metric requires a connected graph")
    # every distance of d_s is a sum of edge weights along a path
    w = derived_edge_weights(g, weights)
    excess = np.abs(vals[g.ends[:, 0]] - vals[g.ends[:, 1]]) - w
    if excess.size and excess.max() > 1e-9:
        k = int(excess.argmax())
        u, v = g.edges[k]
        raise ContractViolation(
            f"f is not 1-Lipschitz for d_s: |f({u})-f({v})| = {abs(vals[u]-vals[v])} "
            f"> w({u},{v}) = {w[k]}"
        )

    order = sorted(g.vertices(), key=lambda v: (vals[v], v))
    place = {v: i for i, v in enumerate(order)}
    best = None
    best_key = None
    positions = []
    prev, k = frozenset(), 0  # the last cut and k = |its vertices in the prefix|
    for i, s_i in enumerate(_sweep_cuts(g, order), start=1):
        # |A_i| = i - k, |B_i| = n - i - |S_i in the suffix|; k follows the
        # vertex that joins the prefix and the vertices the cut gains or loses
        k += order[i - 1] in prev
        for u in prev ^ s_i:
            if place[u] < i:
                k += 1 if u in s_i else -1
        prev = s_i
        a_size, b_size = i - k, g.n - i - len(s_i) + k
        val = Fraction(len(s_i), (a_size + len(s_i)) * (b_size + len(s_i)))
        positions.append(SweepPosition(i, len(s_i), val, a_size, b_size))
        key = (val, not (a_size and b_size), i)  # prefer proper cuts at equal sparsity
        if best is None or key < best_key:
            best, best_key = s_i, key

    s_i, win = best, best_key[2]
    if min_vertex_cut(g, order[:win], order[win:]).cut != s_i:
        raise RuntimeError(f"warm-started sweep disagrees with a fresh max-flow at position {win}")
    total_w = float(weights.sum())
    total_gap = _spread(vals)
    res = SweepResult(
        frozenset(order[:win]) - s_i, frozenset(order[win:]) - s_i, s_i, best_key[0],
        tuple(positions), total_w, total_gap,
    )
    if float(res.sparsity) > res.bound + 1e-9:
        raise RuntimeError("sweep sparsity exceeded its theoretical bound")
    return res


def _sweep_cuts(g: Graph, order):
    """The cut min_vertex_cut(g, order[:i], order[i:]) for i = 1..n-1.

    One flow is kept across the positions, stored as pred[v]: the vertex
    before v on its vertex-disjoint path, _SRC if v starts it, _NONE if v
    carries no flow.  X and Y cover V, a search enters no X vertex along an
    edge, and it stops at the first Y vertex, so every path is an X vertex
    and a neighbouring Y vertex.

    `reached` is R, the minimal source side of the previous position: the
    nodes its last search reached.  Moving v into X adds the arc
    source -> in(v) and cancels the path that ended at v, which leaves v
    and its partner free X vertices, the marked ones.  Only arcs out of the
    source and of marked in-nodes changed, and R is closed under every
    other residual arc, so an augmenting path, after its last node in R,
    starts at a marked in-node and stays outside R.  The searches therefore
    start at the marked in-nodes and never enter R.  A path they augment
    lies outside R but for its first in-node, so the arcs it changes lead
    out of R nowhere new, and the next search is complete too.  The minimal
    source sides of successive positions are nested (Gallo, Grigoriadis &
    Tarjan, SIAM J. Comput. 1989), so R plus the nodes of the last search
    is this position's side.  The cut, the vertices whose in-node is in R
    and whose out-node is not, changes only at those nodes.  Every node
    joins R once, so the last searches cost O(n + m) over the sweep.
    """
    n = g.n
    adj = [[2 * w for w in sorted(a)] for a in g.adjacency]
    pred = [_NONE] * n
    is_y = [True] * n
    reached: set[int] = set()
    cut: set[int] = set()
    value = 0
    for v in order[:-1]:
        marked = [2 * v]
        if (p := pred[v]) != _NONE:  # cancel the path p -> v
            value -= 1
            pred[p] = pred[v] = _NONE
            marked.append(2 * p)
        is_y[v] = False
        units, par = _max_flow(adj, pred, is_y, marked, reached)
        value += units
        reached.update(par)
        for a in par:
            if a & 1 or a + 1 in reached:
                cut.discard(a >> 1)
            else:
                cut.add(a >> 1)
        if len(cut) != value:
            raise RuntimeError("sweep flow value disagrees with the extracted cut")
        yield frozenset(cut)


def _max_flow(adj, pred, is_y, seeds, blocked):
    """Augment the flow in pred to a maximum one by searches from the
    in-nodes `seeds` that never enter `blocked`.  Returns the number of
    units added and the parents of the last search, which found no
    augmenting path."""
    units = 0
    while True:
        par, _, end = _augmenting_search(adj, pred, is_y, seeds, blocked)
        if end is None:
            return units, par
        _augment(par, pred, end)
        units += 1


def _augmenting_search(adj, pred, is_y, seeds, blocked):
    """Breadth-first search of the residual node-split network.

    Vertex v is an arc of capacity one from in(v) = 2v to out(v) = 2v + 1.
    Unbounded arcs join out(u) to in(w) for each edge uw, the source to the
    in-nodes of X, and out(y) to the sink for each Y vertex (is_y).  adj[v]
    lists the in-nodes of v's neighbours.  The search starts at the
    in-nodes `seeds`, all of X for a fresh flow, and from them enters no
    node of `blocked`.  The queue holds in-nodes.  The one residual arc out of
    in(v) goes to out(v) when v is free, else back along the unit into v,
    so each out-node is reached once.  Reached back along the unit p -> v,
    out(p) also leads back through p's split arc to in(p).  Returns the
    parents of the nodes reached (a dict, _SRC for the seeds), the in-nodes
    reached in order, and the out-node of the first Y vertex reached, or
    None when no augmenting path is left.
    """
    par = dict.fromkeys(seeds, _SRC)
    queue = list(seeds)
    for a in queue:  # the queue grows while it is read
        p = pred[a >> 1]
        if p == _NONE:
            b = a + 1
        elif p == _SRC:  # the unit comes from the source: nothing to follow
            continue
        else:
            b = 2 * p + 1
        if b in blocked:
            continue
        if p >= 0 and b - 1 not in par and b - 1 not in blocked:
            par[b - 1] = b
            queue.append(b - 1)
        par[b] = a
        v = b >> 1
        if is_y[v]:
            return par, queue, b
        for c in adj[v]:
            if c not in par and c not in blocked:
                par[c] = b
                queue.append(c)
    return par, queue, None


def _augment(par, pred, end):
    """Push one unit along the search path from the source to out(end // 2).

    Only the arcs into in-nodes set pred: source -> in(x) and
    out(u) -> in(w) make their tail the vertex before, and out(p) -> in(p),
    which cancels p's own unit, leaves p free.  The arc in(u) -> out(w),
    which cancels the unit w -> u, finds pred[u] already set.
    """
    b = end
    while (a := par[b]) != _SRC:
        if a & 1:
            pred[b >> 1] = _NONE if a == b + 1 else a >> 1
        b = a
    pred[b >> 1] = _SRC


@dataclass(frozen=True)
class SeparatorResult:
    cut: VertexCut
    size: int
    balance: tuple[int, int, int]  # |A|, |B|, n
    trace: tuple[tuple[int, float], ...]  # (subgraph size, sweep sparsity)


def find_separator(g: Graph, seed: int = 0, trials: int | None = None) -> SeparatorResult:
    """Balanced separator by a chain of embed-and-sweep cuts.

    At most one part exceeds ceil(2n/3), so the pipeline is one chain of
    cuts: embed that part with unit vertex weights, sweep it for a sparse
    vertex cut, move the cut into the separator, and go on with the piece
    still above the limit.  The parts left are grouped greedily into two
    sides.  The output always satisfies check_separator.
    """
    if g.n < 2:
        raise ContractViolation("separator needs n >= 2")
    if trials is not None and trials < 1:
        raise ContractViolation("trials must be >= 1")
    seed = _integer(seed)
    limit = balance_limit(g.n)
    separator: set[int] = set()
    trace: list[tuple[int, float]] = []
    pieces, back = g.components(), range(g.n)
    while part := next((p for p in pieces if len(p) > limit), None):
        sub, back = g.induced({back[v] for v in part})
        f = _embed_or_fallback(sub, seed * 1_000_003 + len(trace), trials)
        res = fhl_sweep(sub, np.ones(sub.n), f)
        trace.append((sub.n, float(res.sparsity)))
        separator.update(back[v] for v in res.S)
        pieces = sub.components(removed=res.S)

    side_a, side_b = _greedy_sides(g.components(removed=separator))
    cut = VertexCut(frozenset(side_a), frozenset(side_b), frozenset(separator))
    ok, why = check_separator(g, cut)
    if not ok:
        raise RuntimeError(f"pipeline produced an invalid separator: {why}")
    return SeparatorResult(cut, len(separator), (len(side_a), len(side_b), g.n), tuple(trace))


def _embed_or_fallback(sub: Graph, seed: int, trials: int | None):
    """Values of the best hop-metric line embedding of `sub` (default trials
    when `trials` is None), or the distances from vertex 0 if every trial
    was constant."""
    d = shortest_path_metric(sub)
    t = default_trials(sub.n) if trials is None else trials
    emb = best_embedding(d, t, seed)
    if not emb.is_constant:
        return np.asarray(emb.values)
    # every trial was constant, as at scale 0 (all vertices anchors); distances
    # from the first vertex are 1-Lipschitz and non-constant when connected
    return d[0]


def min_separator_exact(g: Graph) -> tuple[int, VertexCut]:
    """Smallest S whose removal lets whole components group into two sides
    of at most ceil(2n/3) each (brute force, n <= 14)."""
    if g.n > 14:
        raise SizeCapExceeded(f"n={g.n} exceeds the brute-force cap 14")
    if g.n < 2:
        raise ContractViolation("needs n >= 2")
    limit = balance_limit(g.n)
    for size in range(g.n + 1):
        for s_tuple in combinations(range(g.n), size):
            s_set = frozenset(s_tuple)
            comps = g.components(removed=s_set)
            if all(len(c) <= limit for c in comps):
                a, b = _greedy_sides(comps)  # fits when every part does
                cut = VertexCut(frozenset(a), frozenset(b), s_set)
                ok, why = check_separator(g, cut)
                if not ok:
                    raise RuntimeError(why)
                return size, cut
    raise RuntimeError("unreachable: S = V always succeeds")


def _greedy_sides(parts) -> tuple[set[int], set[int]]:
    """Whole parts by descending size (ties: least vertex), each onto the
    currently smaller side."""
    side_a: set[int] = set()
    side_b: set[int] = set()
    for part in sorted(parts, key=lambda p: (-len(p), min(p))):
        if len(side_a) <= len(side_b):
            side_a |= part
        else:
            side_b |= part
    return side_a, side_b


@dataclass(frozen=True)
class PeelStep:
    subgraph_size: int
    sparsity: Fraction
    peeled: frozenset[int]


@dataclass(frozen=True)
class BalancedEdgeCutResult:
    cut: EdgeCut
    crossing_edges: int
    bound: Fraction  # beta * n^2
    steps: tuple[PeelStep, ...]
    hypothesis_failures: tuple[tuple[int, Fraction], ...]  # (size, sparsity) exceeding beta

    @property
    def hypothesis_held(self) -> bool:
        return not self.hypothesis_failures


def balanced_edge_cut(g: Graph, beta: Fraction) -> BalancedEdgeCutResult:
    """Peel sparsest edge cuts until one side reaches [n/3, 2n/3].

    Each peel takes the smaller side of the sparsest cut of the remaining
    induced subgraph; the accumulated side never overshoots 2n/3.  When some
    intermediate subgraph on >= 2n/3 vertices has sparsity above beta, the
    premise of the beta n^2 crossing-edge bound fails; the cut is still
    returned and the failures are reported.
    """
    if g.n < 3:
        raise ContractViolation("balanced edge cut needs n >= 3")
    beta = Fraction(beta)
    acc: set[int] = set()
    steps: list[PeelStep] = []
    failures: list[tuple[int, Fraction]] = []
    while 3 * len(acc) < g.n:
        rest = frozenset(g.vertices()) - acc
        sub, back = g.induced(rest)
        val, cut = sparsity_exact(sub, "edge")
        if val > beta:
            failures.append((sub.n, val))
        side = {back[v] for v in cut.A}
        other = set(rest) - side
        if len(side) > len(other) or (len(side) == len(other) and min(other) < min(side)):
            side = other
        steps.append(PeelStep(sub.n, val, frozenset(side)))
        acc |= side
    if 3 * len(acc) > 2 * g.n:
        raise RuntimeError("peeling overshot the balanced window")
    crossing = sum(1 for u, v in g.edges if (u in acc) != (v in acc))
    return BalancedEdgeCutResult(
        EdgeCut(frozenset(acc)), crossing, beta * g.n * g.n, tuple(steps), tuple(failures)
    )
