"""Exact edge and vertex congestion via multicommodity-flow LPs.

The exponential path formulation (one variable per path) is replaced by a
polynomial edge-flow formulation.  Internally the commodities are aggregated
by source: every vertex s ships 1/2 unit to each other vertex, so an
unordered pair receives its unit demand as two half-units.  Splitting a
per-pair flow half/half onto its two endpoints, and conversely decomposing a
source flow by target, maps either formulation onto the other while keeping
every edge and vertex load unchanged, so the aggregated LP has the same
optimum with n instead of n(n-1)/2 commodity blocks.  Its matrix is built
from `Graph.ends` by index arithmetic, as two blocks of rows handed to
`LpProblem.add_rows`.  `validate_flows` checks that every arc of a flow is
an edge of the graph and sums all commodities at once with `bincount`.

Reported solutions are per unordered pair.  Each source block's nonzero
arcs are read, reversed, into the residual map of the path peel (`_peel`),
which walks it back from every target in ascending order; each half-unit
path found is added to its pair's flow walked from the pair's lower end, so
the two half-flows of a pair merge into a unit-demand per-pair flow that
satisfies the usual conservation identities.  The same peel, walking
forward from the source, serves the per-pair `decompose_to_paths`.

Vertex mode uses the load (inflow(v) + outflow(v)) / 2 per vertex.  Optimal
flows can be taken cycle-free, and on a cycle-free flow this half-sum equals
the path convention that counts an interior visit as 1 and each endpoint as
1/2, so the LP value is the vertex congestion under that convention.

Demands are always one unit per unordered pair; weighted demand functions
are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_array

from .errors import ContractViolation, SizeCapExceeded
from .graphs import Graph
from .lp import LpProblem, lp_solve

FLOW_TOL = 1e-9
VALIDATE_TOL = 1e-6  # validate_flows' slack on conservation and load

Pair = tuple[int, int]
Arc = tuple[int, int]


@dataclass
class FlowSolution:
    mode: str  # "edge" | "vertex"
    congestion: float
    commodities: dict[Pair, dict[Arc, float]]
    # duals of the load rows: the dual-optimal weights for the metric side
    load_duals: dict = field(default_factory=dict)

    def is_finite(self) -> bool:
        return math.isfinite(self.congestion)


@dataclass
class PathFlow:
    """Per commodity, simple paths with positive weights summing to one."""

    paths: dict[Pair, tuple[tuple[tuple[int, ...], float], ...]]


def _arc_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the arcs: arc 2i is edge i as (u, v), arc 2i + 1 as (v, u)."""
    return g.ends.ravel(), g.ends[:, ::-1].ravel()


def _aggregated_lp(g: Graph, mode: str) -> LpProblem:
    """min lambda; block s routes 1/2 unit from s to every other vertex.

    Column 0 is lambda and column 1 + s * 2m + a the flow of block s on arc
    a.  Conservation rows come first, one per source s and vertex x != s in
    that order, and demand net inflow 1/2 at x (the source's supply is
    implied).  Load rows come last, one per edge or vertex, each of the form
    load - lambda <= 0.  The matrix is built as arrays, with no loop over
    rows.
    """
    n, na = g.n, 2 * g.m
    nv = 1 + n * na
    tail, head = _arc_ends(g)
    obj = np.zeros(nv)
    obj[0] = 1.0
    lp = LpProblem(obj)

    # arc a of block s enters row (s, head[a]) at +1 and leaves row
    # (s, tail[a]) at -1, where row (s, x) is s * (n - 1) + x - (x > s)
    s = np.arange(n)[:, None]
    x = np.stack([head, tail])[:, None, :]
    keep = x != s
    rows = (s * (n - 1) + x - (x > s))[keep]
    cols = np.broadcast_to(1 + s * na + np.arange(na), keep.shape)[keep]
    vals = np.broadcast_to(np.array([1.0, -1.0])[:, None, None], keep.shape)[keep]
    lp.add_rows(coo_array((vals, (rows, cols)), shape=(n * (n - 1), nv)), "=", 0.5)

    # per load row, the arcs it counts and their weight in every block
    if mode == "edge":
        n_load, owner, arc, w = g.m, np.arange(na) // 2, np.arange(na), 1.0
    else:
        n_load, owner, arc, w = n, np.concatenate([tail, head]), np.tile(np.arange(na), 2), 0.5
    rows = np.concatenate([np.arange(n_load), np.tile(owner, n)])
    cols = np.concatenate([np.zeros(n_load, np.int64), (1 + s * na + arc).ravel()])
    vals = np.concatenate([np.full(n_load, -1.0), np.full(n * len(arc), w)])
    lp.add_rows(coo_array((vals, (rows, cols)), shape=(n_load, nv)), "<=", 0.0)
    return lp


def _peel(
    out: dict[int, dict[int, float]], start: int, stop: int, demand: float
) -> tuple[list[tuple[tuple[int, ...], float]], float]:
    """Peel paths start .. stop off the residual flow `out[a][b]`, in place.

    Walks from `start` to the first key of out[a], which must be in key
    order (a peel only deletes keys, so the first stays the least), cancels
    any cycle met on the way and drops the stranded arc at a dead end (it
    carries only roundoff).  Each path found is subtracted at its bottleneck
    weight, capped by the demand left.  Stops when the demand is served or
    `start` has no flow left; returns the paths and the unserved demand.
    Every other step removes an arc, so a step that removes none raises.
    """
    paths: list[tuple[tuple[int, ...], float]] = []
    while demand > 1e-7:
        walk = [start]
        seen = {start: 0}
        while walk[-1] != stop:
            nxt = next(iter(out.get(walk[-1], ())), None)
            if nxt is None or nxt in seen:
                break
            seen[nxt] = len(walk)
            walk.append(nxt)
        if walk[-1] == stop:
            seq, cap = walk, demand
        elif nxt is not None:
            seq, cap = walk[seen[nxt] :] + [nxt], math.inf  # cancel the cycle, retry
        elif len(walk) > 1:
            del out[walk[-2]][walk[-1]]
            continue
        else:
            break
        w = min(cap, *(out[a][b] for a, b in zip(seq, seq[1:])))
        spent = False
        for a, b in zip(seq, seq[1:]):
            out[a][b] -= w
            if out[a][b] <= FLOW_TOL:
                del out[a][b]
                spent = True
        if seq is walk:
            paths.append((tuple(walk), w))
            demand -= w
        if not spent and demand > 1e-7:
            raise RuntimeError("path peeling failed to terminate")
    return paths, demand


def _solve(g: Graph, mode: str, allow_large: bool) -> FlowSolution:
    if g.n < 2:
        raise ContractViolation("congestion needs n >= 2")
    if not allow_large and (g.n > 12 or g.m > 30):
        raise SizeCapExceeded(
            f"n={g.n}, m={g.m} beyond the congestion LP cap (n<=12, m<=30); "
            "pass allow_large=True to override"
        )
    if not g.is_connected():
        return FlowSolution(mode, math.inf, {})

    sol = lp_solve(_aggregated_lp(g, mode))
    if sol.status != "optimal":
        raise RuntimeError(f"congestion LP unexpectedly {sol.status}")
    tail, head = _arc_ends(g)
    blocks = sol.x[1:].reshape(g.n, -1)
    by_head = np.lexsort((tail, head))  # so each back[b] lists its tails in order

    # peel each source block backward from every target; add each path to
    # its pair walked from the pair's lower end
    commodities: dict[Pair, dict[Arc, float]] = {
        (u, v): {} for u in g.vertices() for v in g.vertices() if u < v
    }
    for s in g.vertices():
        nz = by_head[blocks[s, by_head] > FLOW_TOL]
        back: dict[int, dict[int, float]] = {}
        for a, b, w in zip(tail[nz].tolist(), head[nz].tolist(), blocks[s, nz].tolist()):
            back.setdefault(b, {})[a] = w
        for t in g.vertices():
            if t == s:
                continue
            paths, remaining = _peel(back, t, s, 0.5)
            if remaining > 1e-6:
                raise RuntimeError(f"source {s}: target {t} under-served by {remaining}")
            d = commodities[(t, s) if t < s else (s, t)]
            for path, w in paths:
                seq = path if t < s else path[::-1]
                for a, b in zip(seq, seq[1:]):
                    d[(a, b)] = d.get((a, b), 0.0) + w

    # the load rows follow the n(n-1) conservation rows; min problem, <=
    # rows: canonical duals are <= 0, the metric weights are their magnitudes
    keys = g.edges if mode == "edge" else g.vertices()
    load_duals = sol.duals[g.n * (g.n - 1) :].tolist()
    duals = {key: max(0.0, -d) for key, d in zip(keys, load_duals)}
    return FlowSolution(mode, float(sol.value), commodities, duals)


def edge_congestion(g: Graph, allow_large: bool = False) -> FlowSolution:
    """econg(g): minimax two-direction edge load over unit-demand flows.

    Disconnected graphs return congestion = inf (no feasible flow).
    load_duals holds the dual-optimal edge weights w* with
    ratio_functional(g, "edge", w*) = 1 / econg(g).
    """
    return _solve(g, "edge", allow_large)


def vertex_congestion(g: Graph, allow_large: bool = False) -> FlowSolution:
    """vcong(g) with endpoints of a path loaded 1/2 and interior vertices 1."""
    return _solve(g, "vertex", allow_large)


def validate_flows(g: Graph, flows: FlowSolution) -> None:
    """Check per-pair arcs, conservation and the load cap; raises ContractViolation.

    Every commodity's arcs are gathered into one (commodity, tail, head,
    weight) array, each arc is looked up once among the sorted edges, and the
    sums are taken with `bincount`, which adds each bin's terms in the order
    of the commodity dicts, as a loop over them would.  The first violation
    is reported: a key not of length 2; a pair that is not two distinct
    integers in [0, n); an arc that is not an edge (an end not an integer
    in [0, n), equal or not adjacent), then a weight not finite and >= 0,
    commodities then arcs in order; conservation, commodities then vertices
    in order; then edges or vertices in order.
    """
    if not flows.is_finite():
        raise ContractViolation("infinite congestion carries no flows")
    n, pairs, fls = g.n, list(flows.commodities), flows.commodities.values()
    k = np.repeat(np.arange(len(pairs)), [len(fl) for fl in fls])
    keys = pairs + [arc for fl in fls for arc in fl]
    if set(map(len, keys)) - {2}:
        i = next(i for i, key in enumerate(keys) if len(key) != 2)
        pair = pairs[i if i < len(pairs) else k[i - len(pairs)]]
        raise ContractViolation(f"commodity {pair}: key {keys[i]} is not of length 2")
    ends = np.array(keys).reshape(-1, 2)
    if ends.dtype.kind not in "iu":
        # a key with an end that is not an integer in [0, n) reads (-1, -1)
        whole = [all(isinstance(v, (int, np.integer)) and 0 <= v < n for v in key) for key in keys]
        ends = np.where(np.array(whole, bool).reshape(-1, 1), ends, -1).astype(np.int64)
    (st, arcs), flat = np.split(ends, [len(pairs)]), keys[len(pairs):]
    bad = np.flatnonzero(((st < 0) | (st >= n)).any(axis=1) | (st[:, 0] == st[:, 1]))
    if len(bad):
        pair = pairs[bad[0]]
        if pair[0] != pair[1] and all(isinstance(v, (int, np.integer)) for v in pair):
            raise ContractViolation(f"a commodity pair names a vertex outside [0, {n})")
        raise ContractViolation(f"commodity {pair}: not two distinct integers in [0, {n})")
    w = np.array([x for fl in fls for x in fl.values()], dtype=float)
    # edge index per arc, -1 off the graph: the arc's code min * n + max is
    # looked up among the edges' codes u * n + v, sorted; the appended code
    # n * n is no arc's, and an arc with an end outside [0, n) codes as -1
    codes = np.append(g.ends @ [n, 1], n * n)
    order = np.argsort(codes)
    ends = np.sort(arcs, axis=1)
    code = np.where((ends[:, 0] >= 0) & (ends[:, 1] < n), ends @ [n, 1], -1)
    e = order[np.searchsorted(codes, code, sorter=order)]
    e[codes[e] != code] = -1
    off = np.flatnonzero(e < 0)
    if len(off):
        i = int(off[0])
        raise ContractViolation(
            "commodity {}: arc ({}, {}) is not an edge of the graph".format(pairs[k[i]], *flat[i])
        )
    bad = np.flatnonzero(~np.isfinite(w) | (w < 0))
    if len(bad):
        i = int(bad[0])
        raise ContractViolation("commodity {}: arc ({}, {}) weight {} is not finite and >= 0"
                                .format(pairs[k[i]], *flat[i], float(w[i])))
    a, b = arcs.T
    size = len(pairs) * n
    net = (np.bincount(k * n + a, w, size) - np.bincount(k * n + b, w, size)).reshape(-1, n)
    want = np.zeros_like(net)
    want[np.arange(len(pairs)), st[:, 1]] = -1.0
    want[np.arange(len(pairs)), st[:, 0]] = 1.0
    bad = np.flatnonzero(np.abs(net - want) > VALIDATE_TOL)
    if len(bad):
        i, x = divmod(int(bad[0]), n)
        raise ContractViolation(
            f"commodity {pairs[i]}: net flow {net[i, x]:.2e} at vertex {x}, "
            f"expected {float(want[i, x])}"
        )
    if flows.mode == "edge":
        # per commodity an edge's two directions, then the commodities in order
        both = np.bincount(k * g.m + e, w, len(pairs) * g.m)
        load = np.bincount(np.tile(np.arange(g.m), len(pairs)), both, g.m)
    else:
        # each arc loads its tail and its head, in the order of the arcs
        load = 0.5 * np.bincount(arcs.ravel(), np.repeat(w, 2), n)
    over = np.flatnonzero(load > flows.congestion + VALIDATE_TOL)
    if len(over):
        j = int(over[0])
        what = "edge ({},{})".format(*g.edges[j]) if flows.mode == "edge" else f"vertex {j}"
        raise ContractViolation(f"{what} load {float(load[j])} exceeds congestion")


def decompose_to_paths(g: Graph, flows: FlowSolution) -> PathFlow:
    """Flow decomposition: extract weighted simple paths, discard cycles.

    Per commodity, peels the flow from the source (lowest-numbered neighbor
    first), cancelling any cycle encountered, until the source is exhausted.
    """
    validate_flows(g, flows)
    out: dict[Pair, tuple[tuple[tuple[int, ...], float], ...]] = {}
    for (s, t), fl in flows.commodities.items():
        fwd: dict[int, dict[int, float]] = {}
        for (a, b), w in sorted(fl.items()):
            if w > FLOW_TOL:
                fwd.setdefault(a, {})[b] = w
        found, _ = _peel(fwd, s, t, math.inf)
        total = sum(w for _, w in found)
        if abs(total - 1.0) > 1e-6:
            raise ContractViolation(f"commodity {(s, t)} decomposes to {total}, not 1")
        merged: dict[tuple[int, ...], float] = {}
        for path, w in found:
            merged[path] = merged.get(path, 0.0) + w
        out[(s, t)] = tuple(sorted(merged.items()))
    return PathFlow(out)
