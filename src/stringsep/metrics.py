"""Shortest-path metrics, ratio functionals, and exact sparsity oracles.

Sparsity values are computed in exact rational arithmetic; ties between
witness cuts are broken toward the lexicographically smallest vertex sets so
symmetric graphs give reproducible witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from .errors import ContractViolation, NoVertexCut, SizeCapExceeded
from .graphs import EdgeCut, Graph, VertexCut

SPARSITY_CAP = 20


def shortest_path_metric(g: Graph, weights=None) -> np.ndarray:
    """All-pairs shortest-path distances under nonnegative edge weights.

    `weights` maps edges (or indexes g.edges) to weights; omitted means unit
    weights, for which csgraph counts hops.  Dijkstra from every source
    (scipy.sparse.csgraph); zero weights stay edges.  Disconnected input
    raises (infinite distances unsupported).
    """
    if not g.is_connected():
        raise ContractViolation("metric requires a connected graph")
    w = _edge_weights(g, weights)
    if (w < 0).any():
        raise ContractViolation("edge weights must be nonnegative")
    # explicit zeros in a sparse graph are zero-weight edges to csgraph
    adj = csr_array((w, (g.ends[:, 0], g.ends[:, 1])), shape=(g.n, g.n))
    return shortest_path(adj, method="D", directed=False, unweighted=weights is None)


def _edge_weights(g: Graph, weights) -> np.ndarray:
    if weights is None:
        return np.ones(g.m)
    arr = _weights(weights, g.edges, "edge")
    if arr.shape != (g.m,):
        raise ContractViolation("need one weight per edge")
    return arr


def _vertex_weights(g: Graph, s) -> np.ndarray:
    arr = _weights(s, g.vertices(), "vertex")
    if arr.shape != (g.n,):
        raise ContractViolation("need one weight per vertex")
    if (arr < 0).any():
        raise ContractViolation("vertex weights must be nonnegative")
    return arr


def _weights(weights, items, kind: str) -> np.ndarray:
    """The weights as a float array, read off a dict in the order of `items`;
    a missing item or a NaN or infinite weight is refused."""
    if isinstance(weights, dict):
        missing = next((x for x in items if x not in weights), None)
        if missing is not None:
            raise ContractViolation(f"no weight for {kind} {missing}")
        weights = [float(weights[x]) for x in items]
    arr = np.asarray(weights, dtype=float)
    if not np.isfinite(arr).all():
        raise ContractViolation(f"{kind} weights must be finite")
    return arr


def derived_edge_weights(g: Graph, s) -> np.ndarray:
    """Edge weights w({u,v}) = (s(u) + s(v)) / 2 induced by vertex weights."""
    arr = _vertex_weights(g, s)
    return (arr[g.ends[:, 0]] + arr[g.ends[:, 1]]) / 2.0


def pair_sum(d: np.ndarray) -> float:
    return float(np.triu(d, 1).sum())


def ratio_functional(g: Graph, mode: str, weights) -> float:
    """Edge mode: sum of d_w over edges / sum over all pairs, w edge weights.

    Vertex mode: sum of s / sum of d_s over pairs, with d_s the metric of the
    derived edge weights.  Both are at least 1/congestion for every feasible
    weighting, with equality at the LP-dual-optimal one.
    """
    if mode == "edge":
        w = own = _edge_weights(g, weights)
    elif mode == "vertex":
        own = _vertex_weights(g, weights)
        w = derived_edge_weights(g, own)
    else:
        raise ContractViolation(f"mode must be 'edge' or 'vertex', got {mode!r}")
    if not own.any():
        raise ContractViolation("weights must not be identically zero")
    d = shortest_path_metric(g, w)
    denom = pair_sum(d)
    if denom <= 0:
        raise ContractViolation("all distances are zero")
    num = sum(d[u, v] for u, v in g.edges) if mode == "edge" else own.sum()
    return float(num) / denom


def _edge_cut_size(g: Graph, a_mask: int) -> int:
    cnt = 0
    for u, v in g.edges:
        if ((a_mask >> u) & 1) != ((a_mask >> v) & 1):
            cnt += 1
    return cnt


def _mask_to_sorted(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if (mask >> v) & 1)


def sparsity_exact(g: Graph, mode: str) -> tuple[Fraction, EdgeCut | VertexCut]:
    """Exact minimum edge or vertex sparsity with a witness cut.

    Edge: min |E(A, V-A)| / (|A| |V-A|) over nonempty proper A, equivalently
    the minimum of the cut-metric ratio functional.  Vertex: min
    |S| / (|A+S| |B+S|) over vertex cuts (A, B nonempty, no A-B edge); for a
    fixed S the components of G - S are split to maximize the denominator.
    """
    if g.n > SPARSITY_CAP:
        raise SizeCapExceeded(f"n={g.n} exceeds the enumeration cap {SPARSITY_CAP}")
    if mode == "edge":
        return _espars_exact(g)
    if mode == "vertex":
        return _vspars_exact(g)
    raise ContractViolation(f"mode must be 'edge' or 'vertex', got {mode!r}")


def _espars_exact(g: Graph) -> tuple[Fraction, EdgeCut]:
    if g.n < 2:
        raise ContractViolation("edge sparsity needs n >= 2")
    best: Fraction | None = None
    best_rep: tuple[int, ...] | None = None
    full = (1 << g.n) - 1
    # fix vertex 0 in A; the complementary cut has the same value
    for rest in range(1 << (g.n - 1)):
        a_mask = (rest << 1) | 1
        if a_mask == full:
            continue
        size_a = bin(a_mask).count("1")
        val = Fraction(_edge_cut_size(g, a_mask), size_a * (g.n - size_a))
        side_a = _mask_to_sorted(a_mask, g.n)
        side_b = _mask_to_sorted(full ^ a_mask, g.n)
        rep = min(side_a, side_b)
        if best is None or val < best or (val == best and rep < best_rep):
            best, best_rep = val, rep
    return best, EdgeCut(frozenset(best_rep))


def _vspars_exact(g: Graph) -> tuple[Fraction, VertexCut]:
    if g.n < 2:
        raise ContractViolation("vertex sparsity needs n >= 2")
    best: Fraction | None = None
    best_key = None
    best_cut: VertexCut | None = None
    for size in range(0, g.n - 1):
        for s_tuple in combinations(range(g.n), size):
            s_set = frozenset(s_tuple)
            comps = g.components(removed=s_set)
            if len(comps) < 2:
                continue
            a_set, b_set = _balanced_split(comps, g.n - size)
            val = Fraction(size, (len(a_set) + size) * (len(b_set) + size))
            key = (val, tuple(sorted(s_set)), tuple(sorted(a_set)))
            if best is None or key < best_key:
                best = val
                best_key = key
                best_cut = VertexCut(frozenset(a_set), frozenset(b_set), s_set)
    if best is None:
        raise NoVertexCut("complete graph: no vertex cut exists")
    return best, best_cut


def _balanced_split(comps: list[frozenset[int]], total: int) -> tuple[set[int], set[int]]:
    """Split whole components into two nonempty groups with sizes as close to
    total/2 as possible (this maximizes the denominator product)."""
    comps = sorted(comps, key=min)
    sizes = [len(c) for c in comps]
    # reach[k] has bit t set when components k.. can sum to t
    reach = [1]
    for size in reversed(sizes):
        reach.append(reach[-1] | reach[-1] << size)
    reach.reverse()
    fits = [t for t in range(1, total) if reach[0] >> t & 1]
    t = min(fits, key=lambda t: (abs(2 * t - total), t))
    a: set[int] = set()
    for comp, size, rest in zip(comps, sizes, reach[1:]):
        # prefer taking earlier components when still completable
        if t >= size and rest >> (t - size) & 1:
            a |= comp
            t -= size
    if t != 0:
        raise RuntimeError(f"the components missed the split target by {t}")
    b = set().union(*comps) - a
    if min(b) < min(a):
        a, b = b, a
    return a, b


def line_to_cut_sweep(g: Graph, f) -> tuple[EdgeCut, Fraction]:
    """Best threshold cut A_t = {v : f(v) <= t} of a real vertex embedding.

    The minimum cut-sparsity over thresholds is at most the line-metric
    ratio (sum over edges of |f(u)-f(v)|) / (sum over pairs), which is how
    an embedding is rounded to a cut.
    """
    vals = np.asarray(f, dtype=float)
    if vals.shape != (g.n,):
        raise ContractViolation("need one value per vertex")
    if not np.isfinite(vals).all():
        raise ContractViolation("f must be finite")
    thresholds = np.unique(vals)[:-1]
    if not len(thresholds):
        raise ContractViolation("f is constant")
    # per threshold t: |A_t|, and the edges with lower end <= t < upper end
    lo, hi = np.sort(vals[g.ends], axis=1).T
    size, low, high = (np.searchsorted(np.sort(x), thresholds, "right") for x in (vals, lo, hi))
    ratios = [Fraction(c, s * (g.n - s)) for c, s in zip((low - high).tolist(), size.tolist())]
    i = ratios.index(min(ratios))  # the first minimum
    return EdgeCut(frozenset(np.flatnonzero(vals <= thresholds[i]).tolist())), ratios[i]
