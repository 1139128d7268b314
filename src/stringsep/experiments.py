"""Randomized-drawing conflict counts, crossing-number bounds, the even
subword lemma, and the duality report harness.

The conflict experiment samples one path per vertex pair from a unit path
flow and counts pairs of commodities whose paths are related: sharing a
vertex or containing adjacent vertices.  Drawing each complete-graph edge
along its sampled path through a string representation can only cross where
paths are related, so the count dominates the intersecting pairs of an
actual drawing of K_n and is bounded below by the pair-crossing bound
C(n,5)/(n-4); its expectation is at most 8 m vcong^2.  The experiment
solves the vertex-congestion LP itself and samples the paths of that flow,
so the bound it reports holds for the paths it samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congestion import decompose_to_paths, edge_congestion, vertex_congestion
from .cuts import find_separator
from .errors import ContractViolation, NoVertexCut, _integer
from .graphs import Graph
from .metrics import sparsity_exact


def pcr_lower_bound(n: int) -> Fraction:
    """C(n, 5) / (n - 4): every 5 vertices of a drawn K_n force a crossing
    pair of independent edges, and a pair is charged at most n-4 times."""
    if n < 5:
        raise ContractViolation("needs n >= 5")
    return Fraction(math.comb(n, 5), n - 4)


@dataclass
class ConflictStats:
    trials: int
    counts: tuple[int, ...]
    mean: float
    variance: float  # sample variance
    upper_bound: float  # 8 m vcong^2
    lower_bound: Fraction | None  # C(n,5)/(n-4) when n >= 5
    vcong: float
    m: int

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


def drawing_conflict_experiment(g: Graph, trials: int, seed: int) -> ConflictStats:
    """Sample paths of the optimal vertex flow and count related commodity pairs per trial.

    The paths come from decompose_to_paths of vertex_congestion(g), whose
    congestion is the vcong of the upper bound.  Path sampling is
    cumulative-weight inversion on per-trial derived streams.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    # the LP refuses n < 2 and a graph beyond its cap, and decompose_to_paths
    # the infinite flow of a disconnected graph, before a bad seed is reported
    flows = vertex_congestion(g)
    phi = decompose_to_paths(g, flows)
    seed = _integer(seed)
    if seed < 0:
        raise ContractViolation(f"seed must be non-negative, got {seed}")
    pairs = [(u, v) for u in g.vertices() for v in range(u + 1, g.n)]
    vcong = flows.congestion

    # vertex-set and closed-neighborhood bitmasks per candidate path
    path_masks: dict[tuple[int, int], list[tuple[int, int, float]]] = {}
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
            sel = next(e for e in entries if e[2] >= r - 1e-12)
            chosen.append(sel)
        x = 0
        for i in range(len(chosen)):
            mi, ci, _ = chosen[i]
            for j in range(i + 1, len(chosen)):
                if ci & chosen[j][0]:
                    x += 1
        counts.append(x)

    x_max = math.comb(len(pairs), 2)
    if not all(0 <= x <= x_max for x in counts):
        raise RuntimeError(f"a conflict count lies outside [0, {x_max}]")
    arr = np.array(counts, dtype=float)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1)) if trials > 1 else 0.0
    return ConflictStats(
        trials=trials,
        counts=tuple(counts),
        mean=mean,
        variance=var,
        upper_bound=8.0 * g.m * vcong * vcong,
        lower_bound=pcr_lower_bound(g.n) if g.n >= 5 else None,
        vcong=vcong,
        m=g.m,
    )


def even_subword(word) -> tuple[int, int] | None:
    """First nonempty contiguous subword with every symbol count even.

    Scans prefix parity fingerprints; the first repeated fingerprint closes
    the subword (returned as half-open positions).  A word of length 2^k
    over a k-letter alphabet always has one, by pigeonhole.
    """
    symbols = {}
    fp = 0
    seen = {0: 0}
    for i, ch in enumerate(word, start=1):
        bit = symbols.setdefault(ch, len(symbols))
        fp ^= 1 << bit
        if fp in seen:
            return seen[fp], i
        seen[fp] = i
    return None


@dataclass
class DualityRow:
    name: str
    n: int
    m: int
    econg: float
    espars: float
    vcong: float
    vspars: float | None
    sep_size: int
    prod_edge: float
    prod_vertex: float | None

    # the approximate dualities promise products in [1, O(log n)]; these
    # ratios report each gap against its log n allowance
    @property
    def gap_edge(self) -> float:
        return self.prod_edge / max(1.0, math.log(self.n))

    @property
    def gap_vertex(self) -> float | None:
        if self.prod_vertex is None:
            return None
        return self.prod_vertex / max(1.0, math.log(self.n))


REPORT_HEADER = "graph,n,m,econg,espars,vcong,vspars,sep_size,prod_edge,prod_vertex"


def duality_report(g: Graph, name: str = "graph", seed: int = 0) -> DualityRow:
    """Congestions (LP), sparsities (exact), pipeline separator, and the
    easy-direction duality products espars*econg and 4*vspars*vcong."""
    if not g.is_connected():
        raise ContractViolation("duality report needs a connected graph")
    se = edge_congestion(g)
    sv = vertex_congestion(g)
    espars, _ = sparsity_exact(g, "edge")
    try:
        vspars, _ = sparsity_exact(g, "vertex")
    except NoVertexCut:
        vspars = None
    sep = find_separator(g, seed=seed)
    return DualityRow(
        name=name,
        n=g.n,
        m=g.m,
        econg=se.congestion,
        espars=float(espars),
        vcong=sv.congestion,
        vspars=None if vspars is None else float(vspars),
        sep_size=sep.size,
        prod_edge=float(espars) * se.congestion,
        prod_vertex=None if vspars is None else 4.0 * float(vspars) * sv.congestion,
    )


def report_csv(rows: list[DualityRow]) -> str:
    out = [REPORT_HEADER]
    for r in rows:
        name = r.name
        if any(c in name for c in ',"\r\n'):  # RFC 4180 quoting, quotes doubled
            name = '"' + name.replace('"', '""') + '"'
        vs = "" if r.vspars is None else repr(r.vspars)
        pv = "" if r.prod_vertex is None else repr(r.prod_vertex)
        out.append(
            f"{name},{r.n},{r.m},{r.econg!r},{r.espars!r},{r.vcong!r},{vs},"
            f"{r.sep_size},{r.prod_edge!r},{pv}"
        )
    return "\n".join(out) + "\n"
