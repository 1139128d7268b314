"""Core graph type, family generators, and separator validity checking.

Vertices are dense integers 0..n-1 throughout the package so that adjacency
matrices and metric matrices index directly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import ContractViolation, GenerationError, ParseError

Edge = tuple[int, int]


def balance_limit(n: int) -> int:
    """Side-size cap for a balanced separator: ceil(2n/3)."""
    return (2 * n + 2) // 3


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges stored as sorted (u, v) pairs with u < v."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ContractViolation(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ContractViolation(f"edge ({u}, {v}) out of range [0, {self.n})")
            if u > v:
                raise ContractViolation(f"edge ({u}, {v}) not sorted; store as ({v}, {u})")
            if (u, v) in seen:
                raise ContractViolation(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        neigh: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            neigh[u].add(v)
            neigh[v].add(u)
        return tuple(frozenset(s) for s in neigh)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def ends(self) -> np.ndarray:
        """The edges as a read-only (m, 2) int64 array."""
        arr = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        arr.flags.writeable = False
        return arr

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set

    def vertices(self) -> range:
        return range(self.n)

    def induced(self, keep: frozenset[int] | set[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on `keep`, relabeled to 0..k-1.

        Returns the subgraph and the map from new ids back to original ids.
        """
        order = sorted(keep)
        back = dict(enumerate(order))
        fwd = {v: i for i, v in back.items()}
        edges = tuple(
            (fwd[u], fwd[v]) for u, v in self.edges if u in fwd and v in fwd
        )
        return Graph(len(order), edges), back

    def components(self, removed=frozenset()) -> list[frozenset[int]]:
        """Connected components of the graph minus `removed`, ordered by
        their least vertex."""
        seen = [False] * self.n
        for v in removed:
            seen[v] = True
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in self.adjacency[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1


def graph_from_pairs(n: int, pairs) -> Graph:
    """Normalize unordered pairs (any orientation, any order) into a Graph."""
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    return Graph(n, tuple(edges))


@dataclass(frozen=True)
class VertexCut:
    """Partition (A, B, S) of the vertex set with no A-B edges intended."""

    A: frozenset[int]
    B: frozenset[int]
    S: frozenset[int]


@dataclass(frozen=True)
class EdgeCut:
    """One side A of an edge cut (A, V \\ A); the complement is implicit."""

    A: frozenset[int]


# A graph file lists only its edges, so n is not bounded by the input's
# length; this cap keeps a bad header from sizing per-vertex arrays.
MAX_GRAPH_VERTICES = 100_000


def numbered_lines(lines: list[str], first: int = 1) -> Iterator[tuple[int, str]]:
    """(number, line) for the non-blank lines from line `first` on, numbered
    from 1: every input format skips blank lines and names lines so."""
    return ((k, raw) for k, raw in enumerate(lines[first - 1 :], start=first) if raw.strip())


def int_tokens(tokens: list[str], count: int | None, message: str, lineno: int) -> list[int]:
    """The tokens as integers, `count` of them unless None, else ParseError."""
    try:
        vals = list(map(int, tokens))
    except ValueError:
        raise ParseError(message, lineno) from None
    if count is not None and len(vals) != count:
        raise ParseError(message, lineno)
    return vals


def _int_pair(raw: str, shape: str, lineno: int) -> list[int]:
    """The two integers of a line of the given shape, "n m" or "u v"."""
    parts = raw.split()
    if len(parts) != 2:
        raise ParseError(f"expected {shape}, got {raw!r}", lineno)
    return int_tokens(parts, None, f"expected integers {shape}, got {raw!r}", lineno)


def parse_graph_block(lines: list[str], max_n: int):
    """The graph block of a graph or realization file: the first line "n m",
    then m non-blank lines "u v", each a new edge between distinct vertices.

    n and m are nonnegative, n at most max_n, and m at most the number of
    lines, as every edge needs a line of its own.  Returns n, the edges in
    file order as sorted pairs, and the numbered lines after the block.
    """
    if not lines:
        raise ParseError("empty input", 1)
    n, m = _int_pair(lines[0], "'n m'", 1)
    if n < 0 or m < 0:
        raise ParseError("n and m must be nonnegative", 1)
    if n > max_n:
        raise ParseError(f"n must be at most {max_n}", 1)
    if m > len(lines):
        raise ParseError(f"m must be at most the {len(lines)} lines of the input", 1)
    rest = numbered_lines(lines, 2)
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, raw in islice(rest, m):
        u, v = _int_pair(raw, "'u v'", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex id out of range [0, {n})", lineno)
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ParseError(f"duplicate edge ({u}, {v})", lineno)
        seen.add(e)
        edges.append(e)
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}", len(lines))
    return n, edges, rest


def parse_graph(text: str) -> Graph:
    """Parse the plain graph format: first line "n m", then m lines "u v".

    n is capped at MAX_GRAPH_VERTICES.
    """
    n, edges, rest = parse_graph_block(text.splitlines(), MAX_GRAPH_VERTICES)
    for lineno, _ in rest:
        raise ParseError(f"more than {len(edges)} edge lines", lineno)
    return Graph(n, tuple(sorted(edges)))


def serialize_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"


def generate(kind: str, params: tuple[int, ...], seed: int | None = None) -> Graph:
    """Deterministic graph family generator.

    kinds:
      complete (n) | path (n) | cycle (n) | grid (a, b)
      gnp_connected (n, percent)  -- G(n, p) resampled until connected
      subdivided_complete (t)     -- K_t with every edge subdivided once
    """
    _require(seed is None or seed >= 0, f"seed must be non-negative, got {seed}")
    if kind == "complete":
        (n,) = params
        _require(n >= 1, "complete requires n >= 1")
        return graph_from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "path":
        (n,) = params
        _require(n >= 1, "path requires n >= 1")
        return graph_from_pairs(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        (n,) = params
        _require(n >= 3, "cycle requires n >= 3")
        return graph_from_pairs(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "grid":
        a, b = params
        _require(a >= 1 and b >= 1, "grid sides must be >= 1")
        idx = lambda r, c: r * b + c
        pairs = []
        for r in range(a):
            for c in range(b):
                if c + 1 < b:
                    pairs.append((idx(r, c), idx(r, c + 1)))
                if r + 1 < a:
                    pairs.append((idx(r, c), idx(r + 1, c)))
        return graph_from_pairs(a * b, pairs)
    if kind == "gnp_connected":
        n, percent = params
        _require(n >= 1, "gnp_connected requires n >= 1")
        _require(0 <= percent <= 100, "edge probability percent must be in [0, 100]")
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
    if kind == "subdivided_complete":
        (t,) = params
        _require(t >= 2, "subdivided_complete requires t >= 2")
        pairs = []
        mid = t
        for i in range(t):
            for j in range(i + 1, t):
                pairs.append((i, mid))
                pairs.append((j, mid))
                mid += 1
        return graph_from_pairs(mid, pairs)
    raise ContractViolation(f"unknown family kind {kind!r}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ContractViolation(msg)


def check_separator(g: Graph, cut: VertexCut) -> tuple[bool, str | None]:
    """Validity of (A, B, S) as a balanced separator of g.

    True iff no edge joins A and B and |A|, |B| <= ceil(2n/3).  Raises
    ContractViolation when (A, B, S) is not a partition of the vertex set.
    """
    a, b, s = cut.A, cut.B, cut.S
    if a & b or a & s or b & s:
        raise ContractViolation("A, B, S are not pairwise disjoint")
    if a | b | s != set(g.vertices()):
        raise ContractViolation("A, B, S do not cover the vertex set")
    for u, v in g.edges:
        if (u in a and v in b) or (u in b and v in a):
            return False, f"edge {{{u},{v}}} joins A and B"
    limit = balance_limit(g.n)
    if len(a) > limit:
        return False, f"|A| = {len(a)} exceeds ceil(2n/3) = {limit}"
    if len(b) > limit:
        return False, f"|B| = {len(b)} exceeds ceil(2n/3) = {limit}"
    return True, None
