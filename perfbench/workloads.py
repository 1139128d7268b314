"""The benchmark's workloads: corpus generation, jobs, and output checks.

Inputs come from the package's own generators during set-up, and the program
receives only the generated files or graphs.  Instance i of seed s is drawn
with generator seed ``s * 1000 + i``, so different benchmark seeds share no
instance.  Every check runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from stringsep import cli, congestion, geometry, graphs, metrics

# Exact congestion of the grids, (edge, vertex), as the acceptance tests state.
GRID_EXACT = {
    (3, 4): (12.0, 55 / 4),
    (4, 4): (16.0, 64 / 3),
    (4, 5): (24.0, 243 / 8),
}
EXACT_TOL = 1e-9  # relative, on a congestion value
DUALITY_TOL = 1e-9  # on ratio_functional(load_duals) * congestion - 1
LIPSCHITZ_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Verdict:
    digest: str  # SHA-256 of the job's output
    error: str | None = None
    quality: float | None = None  # sep_size_cal or embed_spread_ratio


@dataclass
class Job:
    name: str
    run: Callable[[], Any]  # timed
    check: Callable[[Any], Verdict]  # untimed; receives what run returned


@dataclass
class Corpus:
    inputs: dict[str, str]  # input name -> SHA-256 of its bytes
    jobs: list[Job]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path, dict], Corpus]  # (seed, workdir, size) -> corpus
    full: dict  # corpus size of the benchmark
    toy: dict  # corpus size of the self-test
    spans: frozenset[str]  # spans a pass must fire (see tracing.TARGETS)
    quality: str | None = None  # per-job quality metric (see worker.WORST)


# ---------------------------------------------------------------- inputs


def connected_core(rep, size: int):
    """The first `size` curves, in breadth-first order from the lowest vertex,
    of the largest component of rep's intersection graph, with their
    intersection graph; None if that component is smaller.  A subset of the
    curves, so still a string graph, and connected."""
    g, _ = geometry.intersection_graph(rep)
    giant = max(g.components(), key=lambda c: (len(c), -min(c)))
    if len(giant) < size:
        return None
    order, seen = [min(giant)], {min(giant)}
    for v in order:
        if len(order) >= size:
            break
        for w in sorted(g.adjacency[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    keep = sorted(order[:size])
    curves = rep.sorted_curves()
    sub, _ = g.induced(keep)  # vertex order = id order of the kept curves
    return geometry.StringRepresentation(tuple(curves[v] for v in keep)), sub


def _instance(seed: int, i: int, size: dict):
    """Instance i of seed s as (curves, graph).  A core larger than the giant
    component moves on to another generator seed, deterministically."""
    for attempt in range(100):
        gen_seed = seed * 1000 + i + attempt * 100_000
        rep = geometry.random_segment_instance(size["count"], seed=gen_seed, span=size.get("span"))
        found = connected_core(rep, size["core"])
        if found is not None:
            return found
    raise RuntimeError(f"no component of {size['core']} curves in 100 instances")


def padded(rep, seed: int, span: int | None):
    """rep plus (n - 4) // 2 curves of another instance, placed to its right.

    For a connected rep with n even, the balance limit ceil(2N/3) of the
    N curves is then n - 1: the separator sweeps the core once, and every
    part left after removing the cut fits.  Left free, the number of rounds
    varies from 1 to 5 with the seeds and makes a pass's time vary with it.
    """
    n = len(rep.curves)
    extra = geometry.random_segment_instance((n - 4) // 2, seed=seed, span=span)
    dx = 1 + max(x for c in rep.curves for x, _ in c.points)
    moved = tuple(geometry.PolylineCurve(f"p{c.id}", tuple((x + dx, y) for x, y in c.points))
                  for c in extra.curves)
    return geometry.StringRepresentation(rep.curves + moved)


# ---------------------------------------------------------------- separator


def _build_separator(seed: int, workdir: Path, size: dict) -> Corpus:
    inputs, jobs = {}, []
    for i in range(size["instances"]):
        core, _ = _instance(seed, i, size)
        pad_seed = 10**9 + seed * 1000 + i  # a generator seed no core uses
        text = geometry.write_strings_file(padded(core, pad_seed, size.get("span")))
        tag = f"sep{i:03d}"
        src = workdir / f"{tag}.strings"
        src.write_text(text, encoding="utf-8")
        inputs[src.name] = sha256(text.encode())
        jobs.append(_separator_job(tag, src, workdir / f"{tag}.json", seed * 1000 + i))
    return Corpus(inputs, jobs)


def _separator_job(tag: str, src: Path, out: Path, job_seed: int) -> Job:
    argv = ["separator", "--strings", str(src), "--seed", str(job_seed), "--out", str(out)]
    graph = []  # rebuilt from the input on first check

    def check(rc) -> Verdict:
        if not graph:
            rep = geometry.parse_strings_file(src.read_text(encoding="utf-8"))
            graph.append(geometry.intersection_graph(rep)[0])
        return check_separator_output(rc, _take(out), graph[0])

    return Job(tag, lambda: cli.main(argv), check)


def check_separator_output(rc, data: bytes | None, g) -> Verdict:
    digest = sha256(data or b"")
    if rc != 0:
        return Verdict(digest, f"exit code {rc}")
    if data is None:
        return Verdict(digest, "no output file")
    obj = json.loads(data)
    a, b, s = (frozenset(obj[k]) for k in ("A", "B", "S"))
    if len(a) + len(b) + len(s) != g.n or a | b | s != frozenset(range(g.n)):
        return Verdict(digest, "A, B, S do not partition the vertex set")
    ok, why = graphs.check_separator(g, graphs.VertexCut(a, b, s))
    if not ok:
        return Verdict(digest, f"check_separator: {why}")
    if obj["size"] != len(s):
        return Verdict(digest, f"size {obj['size']} but |S| = {len(s)}")
    return Verdict(digest, quality=len(s) / (math.sqrt(g.m) * math.log(g.m + 2)))


def _take(path: Path) -> bytes | None:
    """Read and remove a job's output, so a later pass cannot pass on stale bytes."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    path.unlink()
    return data


# ---------------------------------------------------------------- embedding


def _build_embed(seed: int, workdir: Path, size: dict) -> Corpus:
    inputs, jobs = {}, []
    for i in range(size["instances"]):
        _, g = _instance(seed, i, size)
        text = graphs.serialize_graph(g)
        tag = f"embed{i:03d}"
        src = workdir / f"{tag}.graph"
        src.write_text(text, encoding="utf-8")
        inputs[src.name] = sha256(text.encode())
        out = workdir / f"{tag}.json"
        argv = ["embed", "--graph", str(src), "--seed", str(seed * 1000 + i), "--out", str(out)]
        jobs.append(Job(tag, lambda argv=argv: cli.main(argv),
                        lambda rc, out=out, g=g: check_embedding_output(rc, _take(out), g)))
    return Corpus(inputs, jobs)


def hop_metric(g) -> np.ndarray:
    """All-pairs hop distances by scipy's BFS, independent of stringsep.metrics."""
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    adj = csr_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(g.n, g.n))
    return shortest_path(adj, directed=False, unweighted=True)


def check_embedding_output(rc, data: bytes | None, g) -> Verdict:
    digest = sha256(data or b"")
    if rc != 0:
        return Verdict(digest, f"exit code {rc}")
    if data is None:
        return Verdict(digest, "no output file")
    obj = json.loads(data)
    f = np.asarray(obj["f"], dtype=float)
    if f.shape != (g.n,):
        return Verdict(digest, f"{f.size} values for {g.n} vertices")
    if not obj["non_constant"] or f.min() == f.max():
        return Verdict(digest, "embedding is constant")
    d = hop_metric(g)
    if not np.isfinite(d).all():
        return Verdict(digest, "input graph is disconnected")
    defect = float((np.abs(f[:, None] - f[None, :]) - d).max())
    if defect > LIPSCHITZ_TOL:
        return Verdict(digest, f"not 1-Lipschitz: defect {defect}")
    spread = pair_spread(f)
    if abs(spread - obj["spread"]) > 1e-9 * max(1.0, spread):
        return Verdict(digest, f"reported spread {obj['spread']} but pairs sum to {spread}")
    return Verdict(digest, quality=spread / (d.sum() / 2.0))


def pair_spread(f: np.ndarray) -> float:
    """Sum of |f(u) - f(v)| over unordered pairs, from the sorted values."""
    s = np.sort(f)
    n = len(s)
    return float(((2 * np.arange(n) - n + 1) * s).sum())


# ---------------------------------------------------------------- congestion


def _build_congestion(seed: int, workdir: Path, size: dict) -> Corpus:
    inputs, jobs = {}, []
    cases = [(f"grid{a}x{b}", graphs.generate("grid", (a, b)), GRID_EXACT[(a, b)])
             for a, b in size["grids"]]
    n, percent = size["gnp"]
    cases += [(f"gnp{j}", graphs.generate("gnp_connected", (n, percent), seed=seed * 1000 + j), None)
              for j in range(size["gnp_count"])]
    for tag, g, exact in cases:
        text = graphs.serialize_graph(g)
        inputs[tag] = sha256(text.encode())
        jobs.append(Job(tag, lambda g=g: solve_congestion(g),
                        lambda res, g=g, exact=exact: check_congestion(g, res, exact)))
    return Corpus(inputs, jobs)


def solve_congestion(g):
    econg = congestion.edge_congestion(g, allow_large=True)
    vcong = congestion.vertex_congestion(g, allow_large=True)
    return (econg, congestion.decompose_to_paths(g, econg),
            vcong, congestion.decompose_to_paths(g, vcong))


def check_congestion(g, res, exact) -> Verdict:
    econg, epaths, vcong, vpaths = res
    digest = sha256(json.dumps(
        [[sol.congestion, sorted((list(p), sorted((f"{a}->{b}", w) for (a, b), w in fl.items()))
                                 for p, fl in sol.commodities.items())]
         for sol in (econg, vcong)]).encode())
    pairs = {(u, v) for u in range(g.n) for v in range(u + 1, g.n)}
    for k, (mode, sol, paths) in enumerate((("edge", econg, epaths), ("vertex", vcong, vpaths))):
        try:
            congestion.validate_flows(g, sol)
        except ValueError as exc:
            return Verdict(digest, f"{mode}: validate_flows: {exc}")
        if set(paths.paths) != pairs:
            return Verdict(digest, f"{mode}: decomposition misses a commodity")
        for pair, plist in paths.paths.items():
            total = sum(w for _, w in plist)
            if abs(total - 1.0) > 1e-6:
                return Verdict(digest, f"{mode}: commodity {pair} decomposes to {total}")
        try:
            product = metrics.ratio_functional(g, mode, sol.load_duals) * sol.congestion
        except ValueError as exc:
            return Verdict(digest, f"{mode}: ratio_functional: {exc}")
        if abs(product - 1.0) > DUALITY_TOL:
            return Verdict(digest, f"{mode}: ratio_functional(duals) * congestion = {product!r}")
        if exact is not None and abs(sol.congestion - exact[k]) > EXACT_TOL * exact[k]:
            return Verdict(digest, f"{mode}: congestion {sol.congestion!r}, expected {exact[k]!r}")
    return Verdict(digest)


# ---------------------------------------------------------------- the table

_SEP_SPANS = frozenset({
    "cli.main", "geometry.parse_strings_file", "geometry.intersection_graph",
    "geometry.validate_standardness", "geometry.random_segment_instance",
    "cuts.find_separator", "cuts.fhl_sweep", "cuts.min_vertex_cut",
    "embedding.best_embedding", "metrics.shortest_path_metric",
    "graphs.Graph.induced", "graphs.Graph.components", "graphs.check_separator",
})

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sep_sparse",
            "sparse connected string graphs: the sweep's max-flows dominate, embedding and APSP follow",
            _build_separator,
            full={"instances": 10, "count": 140, "span": 110, "core": 100},
            toy={"instances": 2, "count": 40, "span": 40, "core": 20},
            spans=_SEP_SPANS,
            quality="sep_size_cal",
        ),
        Workload(
            "sep_dense",
            "dense string graphs with large cuts: many augmentations per max-flow, then induced and components",
            _build_separator,
            full={"instances": 16, "count": 60, "core": 56},
            toy={"instances": 2, "count": 16, "core": 12},
            spans=_SEP_SPANS,
            quality="sep_size_cal",
        ),
        Workload(
            "embed_giant",
            "a large connected string graph: APSP and best_embedding do the work, cuts none",
            _build_embed,
            full={"instances": 1, "count": 880, "span": 207, "core": 720},
            toy={"instances": 1, "count": 60, "span": 54, "core": 30},
            spans=frozenset({
                "cli.main", "graphs.parse_graph", "metrics.shortest_path_metric",
                "embedding.best_embedding", "graphs.Graph.components", "graphs.Graph.induced",
                "geometry.random_segment_instance", "geometry.intersection_graph",
                "geometry.validate_standardness",
            }),
            quality="embed_spread_ratio",
        ),
        Workload(
            "congestion_lp",
            "exact econg/vcong LPs and path decomposition on both sides of the CLI cap (n<=12, m<=30)",
            _build_congestion,
            full={"grids": [(3, 4), (4, 4), (4, 5)], "gnp": (12, 40), "gnp_count": 4},
            toy={"grids": [(3, 4)], "gnp": (8, 50), "gnp_count": 1},
            spans=frozenset({
                "lp.lp_solve", "congestion.edge_congestion", "congestion.vertex_congestion",
                "congestion.decompose_to_paths", "graphs.Graph.components",
            }),
        ),
    )
}
