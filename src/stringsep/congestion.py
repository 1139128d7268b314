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

from .errors import ContractViolation, SizeCapExceeded
from .graphs import Graph
from .lp import LpProblem, lp_solve

FLOW_TOL = 1e-9

Pair = tuple[int, int]
Arc = tuple[int, int]


@dataclass
class FlowSolution:
    mode: str  # "edge" | "vertex"
    congestion: float
    commodities: dict[Pair, dict[Arc, float]]
    # duals of the load rows: the dual-optimal weights for the metric side
    load_duals: dict = field(default_factory=dict)
    iterations: int = 0

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


def _split_by_target(
    g: Graph, s: int, flow: dict[Arc, float]
) -> dict[int, list[tuple[tuple[int, ...], float]]]:
    """Decompose a single-source flow (1/2 unit into every t != s) by target.

    Walks backward from each target to the source, cancelling any cycles met
    on the way; leftover circulation is discarded.
    """
    residual = {arc: w for arc, w in flow.items() if w > FLOW_TOL}
    per_target: dict[int, list[tuple[tuple[int, ...], float]]] = {}
    for t in sorted(g.vertices()):
        if t == s:
            continue
        remaining = 0.5
        paths: list[tuple[tuple[int, ...], float]] = []
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

    def bump(pair: Pair, arc: Arc, w: float) -> None:
        d = commodities[pair]
        d[arc] = d.get(arc, 0.0) + w

    for s in g.vertices():
        base = 1 + s * na
        flow = {
            arcs[ai]: float(sol.x[base + ai])
            for ai in range(na)
            if sol.x[base + ai] > FLOW_TOL
        }
        for t, paths in _split_by_target(g, s, flow).items():
            pair = (s, t) if s < t else (t, s)
            forward = pair[0] == s
            for path, w in paths:
                seq = path if forward else tuple(reversed(path))
                for a, b in zip(seq, seq[1:]):
                    bump(pair, (a, b), w)

    load_dual_vals = sol.duals[-n_load:]
    # min problem, <= rows: canonical duals are <= 0; the metric weights are
    # their magnitudes
    if mode == "edge":
        duals = {e: max(0.0, -float(d)) for e, d in zip(g.edges, load_dual_vals)}
    else:
        duals = {x: max(0.0, -float(d)) for x, d in zip(g.vertices(), load_dual_vals)}
    return FlowSolution(mode, float(sol.value), commodities, duals, sol.iterations)


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


def validate_flows(g: Graph, flows: FlowSolution, tol: float = 1e-6) -> None:
    """Check per-pair conservation and the load cap; raises ContractViolation."""
    if not flows.is_finite():
        raise ContractViolation("infinite congestion carries no flows")
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


def decompose_to_paths(g: Graph, flows: FlowSolution) -> PathFlow:
    """Flow decomposition: extract weighted simple paths, discard cycles.

    Per commodity, repeatedly follows positive residual arcs from the source
    (lowest-numbered neighbor first), cancels any cycle encountered, and
    subtracts each found path at its bottleneck weight.
    """
    validate_flows(g, flows)
    out: dict[Pair, tuple[tuple[tuple[int, ...], float], ...]] = {}
    for (s, t), fl in flows.commodities.items():
        residual = {arc: w for arc, w in fl.items() if w > FLOW_TOL}
        found: list[tuple[tuple[int, ...], float]] = []
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
        merged: dict[tuple[int, ...], float] = {}
        for path, w in found:
            merged[path] = merged.get(path, 0.0) + w
        out[(s, t)] = tuple(sorted(merged.items()))
    return PathFlow(out)
