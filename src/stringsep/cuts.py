"""Vertex cuts by max-flow, the embedding sweep, and the separator pipeline.

The sweep orders vertices by a 1-Lipschitz embedding, computes for every
prefix/suffix split a minimum vertex cut between the sides, and keeps the
sparsest (A_i, B_i, S_i).  Its sparsity never exceeds
(sum of vertex weights) / (sum of embedding gaps over pairs).  One
warm-started unit flow on the node-split network serves all n-1 splits:
moving a vertex across cancels at most one path and re-augments.  Every
search starts from a copy of the source's arcs, kept up to date as the
prefix grows, and only the winning split's sides are built as sets.  The
winning split is recomputed from scratch by min_vertex_cut (scipy max-flow
with a Menger certificate of vertex-disjoint paths) as a cross-check.

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
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .embedding import _spread, best_embedding, default_trials
from .errors import ContractViolation, SizeCapExceeded
from .graphs import Graph, VertexCut, EdgeCut, balance_limit, check_separator
from .metrics import derived_edge_weights, shortest_path_metric, sparsity_exact, _vertex_weights


@dataclass(frozen=True)
class MengerCertificate:
    """A minimum X-Y vertex cut with equally many vertex-disjoint X-Y paths."""

    cut: frozenset[int]
    paths: tuple[tuple[int, ...], ...]


def min_vertex_cut(g: Graph, xs, ys) -> MengerCertificate:
    """Minimum set of vertices whose removal separates X from Y.

    Node-split reduction: vertex v becomes an arc in(v) -> out(v) of capacity
    one; graph edges and super-terminal attachments get capacity n+1.  The
    max-flow is scipy.sparse.csgraph.maximum_flow.  The cut is read from the
    residual reachability of the super-source (saturated split arcs on the
    frontier), the unique minimal source-side minimum cut; the certificate
    paths are peeled from the integral flow.  Vertices of X or Y may
    themselves be cut.
    """
    xs, ys = frozenset(xs), frozenset(ys)
    if not xs or not ys:
        raise ContractViolation("X and Y must be nonempty")
    if xs & ys:
        raise ContractViolation("X and Y must be disjoint")

    n = g.n
    big = n + 1
    src, snk = 2 * n, 2 * n + 1
    # in(v) = 2v, out(v) = 2v + 1
    verts = np.arange(n)
    x_arr, y_arr = np.array(sorted(xs)), np.array(sorted(ys))
    arc_from = np.concatenate([2 * verts, 2 * g.ends[:, 0] + 1, 2 * g.ends[:, 1] + 1,
                               np.full(len(x_arr), src), 2 * y_arr + 1])
    arc_to = np.concatenate([2 * verts + 1, 2 * g.ends[:, 1], 2 * g.ends[:, 0],
                             2 * x_arr, np.full(len(y_arr), snk)])
    caps = np.full(len(arc_from), big, dtype=np.int32)
    caps[:n] = 1
    cap = csr_array((caps, (arc_from, arc_to)), shape=(2 * n + 2, 2 * n + 2))
    res = maximum_flow(cap, src, snk)
    flow = res.flow.tocoo()

    residual = (cap - res.flow).tocsr()
    residual.eliminate_zeros()  # to csgraph, an explicit zero is an arc
    reach = np.zeros(2 * n + 2, dtype=bool)
    reach[breadth_first_order(residual, src, return_predecessors=False)] = True
    cut = frozenset(int(v) for v in np.flatnonzero(reach[0::2][:n] & ~reach[1::2][:n]))

    # every vertex carries at most one unit, so each node on a flow path has
    # exactly one successor with positive flow
    pos = flow.data > 0
    tails, heads = flow.row[pos], flow.col[pos]
    succ = dict(zip(tails.tolist(), heads.tolist()))
    paths = []
    for node in sorted(heads[tails == src].tolist()):
        path = []
        while node != snk:
            path.append(node // 2)
            node = succ[succ[node]]  # in(v) -> out(v) -> next in(w) or the sink
        paths.append(tuple(path))
    if res.flow_value != len(cut) or len(paths) != len(cut):
        raise RuntimeError("max-flow value disagrees with the extracted cut")
    return MengerCertificate(cut, tuple(paths))


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
    non-constant and 1-Lipschitz with respect to the metric of the derived
    edge weights of s, which is checked edge by edge.

    The cuts come from one flow carried from position to position
    (_sweep_cuts), each equal to what min_vertex_cut returns for that split.
    A position's side sizes are counted from the places of its cut vertices
    in the order; the sides themselves are built for the winner only.
    Checked at run time: the flow value equals the cut size at every
    position, min_vertex_cut recomputes the winning position's cut, and the
    result's sparsity is within its bound.
    """
    weights = _vertex_weights(g, s)
    vals = np.asarray(f, dtype=float)
    if vals.shape != (g.n,):
        raise ContractViolation("need one embedding value per vertex")
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
    for i, s_i in enumerate(_sweep_cuts(g, order), start=1):
        # |A_i| = i - |S_i in the prefix|, |B_i| = n - i - |S_i in the suffix|
        k = sum(place[u] < i for u in s_i)
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


_NONE, _SRC = -1, -2  # pred entries that are not vertices


def _sweep_cuts(g: Graph, order):
    """The cut min_vertex_cut(g, order[:i], order[i:]) for i = 1..n-1.

    One flow on min_vertex_cut's node-split network is kept across the
    positions.  Every vertex carries at most one unit, so the flow is a set
    of vertex-disjoint paths, stored as pred[v]: the vertex before v on its
    path, _SRC if v starts it, _NONE if v carries no flow.  An augmenting
    path stops at the first Y vertex it reaches, so every flow path runs
    through X vertices to one Y vertex, and a Y vertex that carries flow
    ends its path.  Moving v from Y to X removes the arc out(v) -> sink, so
    the one path that ended at v is cancelled, and adds source -> in(v);
    breadth-first augmentation then restores a maximum flow.  The source's
    arcs are kept as a parent template (the source at in(x) for every X
    vertex x) and a list of the in-nodes of X, in order, that each search
    starts from a copy of.  The last, failing search gives the residual
    reachability of the source, and the minimal source-side minimum cut
    read from the in-nodes it reached is the same for every maximum flow,
    so it does not depend on the order in which the searches go.
    """
    n = g.n
    # the in-nodes of each vertex's neighbours, in vertex order
    adj = [[2 * w for w in sorted(a)] for a in g.adjacency]
    pred = [_NONE] * n
    in_x = [False] * n
    seed_par = [-1] * (2 * n)
    seeds = []
    value = 0
    for v in order[:-1]:
        if pred[v] != _NONE:
            value -= 1
            u = v
            while u != _SRC:
                p = pred[u]
                pred[u] = _NONE
                u = p
        in_x[v] = True
        seed_par[2 * v] = 2 * n
        seeds.append(2 * v)
        while True:
            par, queue, end = _augmenting_search(adj, pred, in_x, seed_par, seeds)
            if end is None:
                break
            _augment(par, pred, end)
            value += 1
        cut = frozenset(a >> 1 for a in queue if par[a + 1] == -1)
        if len(cut) != value:
            raise RuntimeError("sweep flow value disagrees with the extracted cut")
        yield cut


def _augmenting_search(adj, pred, in_x, seed_par, seeds):
    """Breadth-first search of the residual network from the source.

    Node 2v is in(v), 2v + 1 is out(v) and 2n the source; adj[v] lists the
    in-nodes of v's neighbours.  The source's arcs to the in-nodes `seeds`
    of X are set in the parent template `seed_par`.  The queue holds
    in-nodes: the one residual arc out of in(v) leads to a single out-node,
    which is expanded as soon as it is reached.  Returns the parent of every
    node (-1 where unreached), the in-nodes reached in order, and the
    out-node of the first Y vertex reached, whose arc to the sink closes an
    augmenting path, or None when there is none.  The residual arc
    out(x) -> in(x) of a used X vertex is left out: the source reaches in(x)
    directly.
    """
    par = seed_par.copy()
    queue = seeds.copy()
    for a in queue:  # the queue grows while it is read
        # in(v): forward through a free vertex, else back along the unit
        # that enters it (none to follow when it comes from the source)
        p = pred[a >> 1]
        b = a + 1 if p == _NONE else 2 * p + 1
        if p == _SRC or par[b] != -1:
            continue
        par[b] = a
        v = b >> 1
        if not in_x[v]:
            return par, queue, b
        for c in adj[v]:
            if par[c] == -1:
                par[c] = b
                queue.append(c)
    return par, queue, None


def _augment(par, pred, end):
    """Push one unit along the search path from the source to out(end // 2).

    Only the arcs source -> in(x) and out(u) -> in(w) set a pred entry.  The
    split arc in(v) -> out(v) leaves it to the arc into in(v), and the arc
    in(u) -> out(w), which cancels the unit w -> u, finds pred[u] already
    set by the arc into in(u).
    """
    src = len(par)
    b = end
    while par[b] != src:
        a = par[b]
        if a & 1:
            pred[b >> 1] = a >> 1
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
                assert ok, why
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
    assert 3 * len(acc) <= 2 * g.n, "peeling overshot the balanced window"
    crossing = sum(1 for u, v in g.edges if (u in acc) != (v in acc))
    return BalancedEdgeCutResult(
        EdgeCut(frozenset(acc)), crossing, beta * g.n * g.n, tuple(steps), tuple(failures)
    )
