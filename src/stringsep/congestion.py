"""Exact edge and vertex congestion via multicommodity-flow LPs.

The exponential path formulation (one variable per path) is replaced by a
polynomial edge-flow formulation.  Internally the commodities are aggregated
by source: every vertex s ships 1/2 unit to each other vertex, so an
unordered pair receives its unit demand as two half-units.  Splitting a
per-pair flow half/half onto its two endpoints, and conversely decomposing a
source flow by target, maps either formulation onto the other while keeping
every edge and vertex load unchanged, so the aggregated LP has the same
optimum with n instead of n(n-1)/2 commodity blocks.

Reported solutions are per unordered pair: each source flow is split by
target and the two half-flows of a pair are merged (one reversed), giving
unit-demand per-pair flows that satisfy the usual conservation identities.
One path peel (`_peel`) serves both that by-target split, which walks the
reversed source flow from each target, and the per-pair
`decompose_to_paths`.

Vertex mode uses the load (inflow(v) + outflow(v)) / 2 per vertex.  Optimal
flows can be taken cycle-free, and on a cycle-free flow this half-sum equals
the path convention that counts an interior visit as 1 and each endpoint as
1/2, so the LP value is the vertex congestion under that convention.

Demands are always one unit per unordered pair; weighted demand functions
are out of scope.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

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


def _arcs(g: Graph) -> list[Arc]:
    arcs: list[Arc] = []
    for u, v in g.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    return arcs


def _aggregated_lp(g: Graph, mode: str) -> tuple[LpProblem, list[Arc], int]:
    """min lambda; block s routes 1/2 unit from s to every other vertex.

    Conservation rows demand net inflow 1/2 at every x != s (the source's
    supply is implied).  Load rows come last, one per edge or vertex, each
    of the form load - lambda <= 0.
    """
    arcs = _arcs(g)
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
    lp = LpProblem(obj, "min")
    for s in g.vertices():
        base = 1 + s * na
        for x in g.vertices():
            if x == s:
                continue
            row = {base + ai: 1.0 for ai in in_idx[x]}
            row.update((base + ai, -1.0) for ai in out_idx[x])
            lp.add(row, "=", 0.5)

    if mode == "edge":
        for ei in range(g.m):
            row = {0: -1.0}
            for s in g.vertices():
                base = 1 + s * na
                row[base + 2 * ei] = 1.0
                row[base + 2 * ei + 1] = 1.0
            lp.add(row, "<=", 0.0)
    else:
        for x in g.vertices():
            row = {0: -1.0}
            for s in g.vertices():
                base = 1 + s * na
                row.update((base + ai, 0.5) for ai in out_idx[x] + in_idx[x])
            lp.add(row, "<=", 0.0)
    n_load = g.m if mode == "edge" else n
    return lp, arcs, n_load


def _peel(
    out: dict[int, dict[int, float]], start: int, stop: int, demand: float
) -> tuple[list[tuple[tuple[int, ...], float]], float]:
    """Peel paths start .. stop off the residual flow `out[a][b]`, in place.

    Walks from `start` to the lowest-numbered next node, cancels any cycle
    met on the way and drops the stranded arc at a dead end (it carries only
    roundoff).  Each path found is subtracted at its bottleneck weight,
    capped by the demand left.  Stops when the demand is served or `start`
    has no flow left; returns the paths and the unserved demand.
    """
    paths: list[tuple[tuple[int, ...], float]] = []
    guard = 0
    while demand > 1e-7:
        guard += 1
        if guard > 10000:
            raise RuntimeError("path peeling failed to terminate")
        walk = [start]
        seen = {start: 0}
        while walk[-1] != stop:
            nxt = min(out.get(walk[-1], ()), default=None)
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
        for a, b in zip(seq, seq[1:]):
            out[a][b] -= w
            if out[a][b] <= FLOW_TOL:
                del out[a][b]
        if seq is walk:
            paths.append((tuple(walk), w))
            demand -= w
    return paths, demand


def _split_by_target(
    g: Graph, s: int, flow: dict[Arc, float]
) -> dict[int, list[tuple[tuple[int, ...], float]]]:
    """Decompose a single-source flow (1/2 unit into every t != s) by target.

    Peels the reversed flow from each target back to the source; leftover
    circulation is discarded.
    """
    back: dict[int, dict[int, float]] = {}
    for (a, b), w in flow.items():
        if w > FLOW_TOL:
            back.setdefault(b, {})[a] = w
    per_target: dict[int, list[tuple[tuple[int, ...], float]]] = {}
    for t in sorted(g.vertices()):
        if t == s:
            continue
        paths, remaining = _peel(back, t, s, 0.5)
        if remaining > 1e-6:
            raise RuntimeError(f"source {s}: target {t} under-served by {remaining}")
        per_target[t] = [(path[::-1], w) for path, w in paths]
    return per_target


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

    lp, arcs, n_load = _aggregated_lp(g, mode)
    sol = lp_solve(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"congestion LP unexpectedly {sol.status}")
    na = len(arcs)

    # split each source block by target, then merge the two halves per pair
    commodities: dict[Pair, dict[Arc, float]] = {
        (u, v): {} for u in g.vertices() for v in g.vertices() if u < v
    }
    for s in g.vertices():
        base = 1 + s * na
        flow = dict(zip(arcs, sol.x[base : base + na].tolist()))
        for t, paths in _split_by_target(g, s, flow).items():
            pair = (s, t) if s < t else (t, s)
            d = commodities[pair]
            for path, w in paths:
                seq = path if pair[0] == s else path[::-1]
                for a, b in zip(seq, seq[1:]):
                    d[(a, b)] = d.get((a, b), 0.0) + w

    load_dual_vals = sol.duals[-n_load:]
    # min problem, <= rows: canonical duals are <= 0; the metric weights are
    # their magnitudes
    if mode == "edge":
        duals = {e: max(0.0, -float(d)) for e, d in zip(g.edges, load_dual_vals)}
    else:
        duals = {x: max(0.0, -float(d)) for x, d in zip(g.vertices(), load_dual_vals)}
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
    """Check per-pair conservation and the load cap; raises ContractViolation."""
    if not flows.is_finite():
        raise ContractViolation("infinite congestion carries no flows")
    edge = flows.mode == "edge"
    load: dict = defaultdict(int)  # per edge, or per vertex before halving
    for (s, t), fl in flows.commodities.items():
        outs: dict[int, float] = defaultdict(int)
        ins: dict[int, float] = defaultdict(int)
        for (a, b), w in fl.items():
            outs[a] += w
            ins[b] += w
            if not edge:
                for x in {a, b}:
                    load[x] += w
        for x in g.vertices():
            net = outs[x] - ins[x]
            want = 1.0 if x == s else -1.0 if x == t else 0.0
            if abs(net - want) > VALIDATE_TOL:
                raise ContractViolation(
                    f"commodity {(s, t)}: net flow {net:.2e} at vertex {x}, expected {want}"
                )
        if edge:
            for u, v in g.edges:
                load[(u, v)] += fl.get((u, v), 0.0) + fl.get((v, u), 0.0)
    if edge:
        for u, v in g.edges:
            if load[(u, v)] > flows.congestion + VALIDATE_TOL:
                raise ContractViolation(
                    f"edge ({u},{v}) load {load[(u, v)]} exceeds congestion"
                )
    else:
        for x in g.vertices():
            if 0.5 * load[x] > flows.congestion + VALIDATE_TOL:
                raise ContractViolation(f"vertex {x} load {0.5 * load[x]} exceeds congestion")


def decompose_to_paths(g: Graph, flows: FlowSolution) -> PathFlow:
    """Flow decomposition: extract weighted simple paths, discard cycles.

    Per commodity, peels the flow from the source (lowest-numbered neighbor
    first), cancelling any cycle encountered, until the source is exhausted.
    """
    validate_flows(g, flows)
    out: dict[Pair, tuple[tuple[tuple[int, ...], float], ...]] = {}
    for (s, t), fl in flows.commodities.items():
        fwd: dict[int, dict[int, float]] = {}
        for (a, b), w in fl.items():
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
