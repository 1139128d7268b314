"""Slow reference algorithms that the scipy-backed routines are tested against.

`edmonds_karp_vertex_cut` is a dict-based Edmonds-Karp on the same
node-split network as `stringsep.cuts.min_vertex_cut`, reading the cut from
the residual reachability of the super-source; `floyd_warshall` is the dense
all-pairs relaxation.
"""

import numpy as np


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
