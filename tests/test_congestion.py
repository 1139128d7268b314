"""Congestion LP checks.

The frozen small values are backed by two independent oracles: a counting
argument (a specific edge or vertex must carry a computable load, see each
case) and, on every graph up to five vertices, the exponential path LP built
over all simple paths, which the edge-flow formulation must match.  Path
peeling and flow validation are checked for exact equality against the
arc-scanning loops in `tests/oracles.py`, and the per-pair flows against the
split-and-merge of `split_merge_congestion`.
"""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

import stringsep.congestion
from stringsep.congestion import (
    FlowSolution,
    _peel,
    decompose_to_paths,
    edge_congestion,
    validate_flows,
    vertex_congestion,
)
from stringsep.errors import ContractViolation, SizeCapExceeded
from stringsep.graphs import Graph, generate, graph_from_pairs
from stringsep.lp import LpProblem, lp_solve

from .conftest import connected_graphs
from .oracles import (
    scan_decompose_to_paths,
    scan_split_by_target,
    scan_validate_flows,
    split_merge_congestion,
)


def all_simple_paths(g: Graph, u: int, v: int):
    out = []

    def walk(path, seen):
        here = path[-1]
        if here == v:
            out.append(tuple(path))
            return
        for nxt in sorted(g.adjacency[here]):
            if nxt not in seen:
                walk(path + [nxt], seen | {nxt})

    walk([u], {u})
    return out


def path_lp_congestion(g: Graph, mode: str) -> float:
    """The path formulation solved directly: min lambda over path weights."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    paths = {p: all_simple_paths(g, *p) for p in pairs}
    index = []
    for p in pairs:
        for pth in paths[p]:
            index.append((p, pth))
    nv = len(index) + 1  # lambda first
    lp = LpProblem(np.eye(nv)[0])
    for p in pairs:
        row = np.zeros(nv)
        for i, (pp, _) in enumerate(index):
            if pp == p:
                row[1 + i] = 1.0
        lp.add_rows(row[None], "=", 1.0)
    if mode == "edge":
        for e in g.edges:
            row = np.zeros(nv)
            for i, (_, pth) in enumerate(index):
                hits = sum(
                    1 for a, b in zip(pth, pth[1:]) if (min(a, b), max(a, b)) == e
                )
                row[1 + i] = float(hits)
            row[0] = -1.0
            lp.add_rows(row[None], "<=", 0.0)
    else:
        for v in g.vertices():
            row = np.zeros(nv)
            for i, (_, pth) in enumerate(index):
                if v in pth:
                    row[1 + i] = 0.5 if v in (pth[0], pth[-1]) else 1.0
            row[0] = -1.0
            lp.add_rows(row[None], "<=", 0.0)
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    return sol.value


def small_connected_graphs(max_n=5):
    for n in range(2, max_n + 1):
        all_pairs = list(combinations(range(n), 2))
        # a deterministic sample: path, cycle, complete, and a few others
        samples = [
            graph_from_pairs(n, [(i, i + 1) for i in range(n - 1)]),
            graph_from_pairs(n, all_pairs),
        ]
        if n >= 3:
            samples.append(graph_from_pairs(n, [(i, (i + 1) % n) for i in range(n)]))
        if n >= 4:
            samples.append(graph_from_pairs(n, [(0, i) for i in range(1, n)]))  # star
        yield from samples


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_edge_flow_formulation_matches_path_lp(mode):
    for g in small_connected_graphs():
        fast = edge_congestion(g) if mode == "edge" else vertex_congestion(g)
        slow = path_lp_congestion(g, mode)
        assert abs(fast.congestion - slow) < 1e-6, (g, fast.congestion, slow)


def test_econg_small_values(p3, c4):
    # P3: edge {0,1} carries pairs (0,1) and (0,2), so econg >= 2; routing meets it
    assert abs(edge_congestion(p3).congestion - 2.0) < 1e-6
    # C4: each edge carries its own pair plus half of both diagonals
    assert abs(edge_congestion(c4).congestion - 2.0) < 1e-6
    for n in range(3, 7):
        # K_n: direct routing has load 1; espars(K_n) = 1 forces econg >= 1
        sol = edge_congestion(generate("complete", (n,)))
        assert abs(sol.congestion - 1.0) < 1e-6


def test_vcong_small_values(p3, k4):
    # P3 middle vertex: through pair 1 + two endpoint halves
    assert abs(vertex_congestion(p3).congestion - 2.0) < 1e-6
    # K4: sum of loads >= C(4,2) since each pair contributes >= 1, so max >= 1.5
    assert abs(vertex_congestion(k4).congestion - 1.5) < 1e-6
    # K2: one path, both endpoints at 1/2
    assert abs(vertex_congestion(generate("complete", (2,))).congestion - 0.5) < 1e-6


def test_closed_forms_at_size_cap():
    # path: edge (i, i+1) must carry (i+1)(n-1-i) pairs
    p12 = generate("path", (12,))
    want = max((i + 1) * (11 - i) for i in range(11))
    assert abs(edge_congestion(p12).congestion - want) < 1e-6
    # star: each spoke carries its leaf's n-1 pairs; the center sees
    # C(k,2) through-pairs plus k endpoint halves = k^2 / 2
    star = graph_from_pairs(12, [(0, i) for i in range(1, 12)])
    assert abs(edge_congestion(star).congestion - 11.0) < 1e-6
    assert abs(vertex_congestion(star).congestion - 121 / 2) < 1e-6
    # even cycle: antipodal half/half splits balance every edge at n^2 / 8
    assert abs(edge_congestion(generate("cycle", (12,))).congestion - 18.0) < 1e-6


def test_disconnected_is_infinite():
    g = Graph(4, ((0, 1), (2, 3)))
    assert math.isinf(edge_congestion(g).congestion)
    assert math.isinf(vertex_congestion(g).congestion)


def test_flow_invariants_hold(p3, c4, k4):
    for g in (p3, c4, k4):
        validate_flows(g, edge_congestion(g))
        validate_flows(g, vertex_congestion(g))


def test_size_cap():
    big = generate("complete", (13,))
    with pytest.raises(SizeCapExceeded):
        edge_congestion(big)
    with pytest.raises(ContractViolation):
        edge_congestion(Graph(1, ()))


def test_decompose_p3(p3):
    pf = decompose_to_paths(p3, edge_congestion(p3))
    assert pf.paths[(0, 2)] == (((0, 1, 2), 1.0),)
    assert pf.paths[(0, 1)] == (((0, 1), 1.0),)


def test_decompose_c4_diagonals(c4):
    pf = decompose_to_paths(c4, edge_congestion(c4))
    for pair in ((0, 2), (1, 3)):
        weights = dict(pf.paths[pair])
        assert len(weights) == 2
        assert all(abs(w - 0.5) < 1e-6 for w in weights.values())


def test_decompose_discards_cycles(p3):
    sol = edge_congestion(p3)
    # inject a superfluous unit cycle into one commodity
    flows = {pair: dict(fl) for pair, fl in sol.commodities.items()}
    fl = flows[(0, 2)]
    for arc in ((0, 1), (1, 2), (2, 1), (1, 0)):
        fl[arc] = fl.get(arc, 0.0) + 1.0
    sol2 = type(sol)(sol.mode, sol.congestion + 2, flows)
    pf = decompose_to_paths(p3, sol2)
    assert pf.paths[(0, 2)] == (((0, 1, 2), 1.0),)


def test_decompose_reproduces_demand():
    for seed in range(4):
        g = generate("gnp_connected", (7, 45), seed=seed)
        pf = decompose_to_paths(g, edge_congestion(g))
        for pair, plist in pf.paths.items():
            assert abs(sum(w for _, w in plist) - 1.0) < 1e-6
            for path, w in plist:
                assert w > 0
                assert len(set(path)) == len(path)
                assert (path[0], path[-1]) == pair
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)


def test_decompose_rejects_bad_flows(p3):
    sol = edge_congestion(p3)
    broken = {pair: dict(fl) for pair, fl in sol.commodities.items()}
    broken[(0, 1)] = {(0, 1): 0.5}
    with pytest.raises(ContractViolation):
        decompose_to_paths(p3, type(sol)(sol.mode, sol.congestion, broken))


def _assert_matches_split_merge(g, allow_large=False):
    for solve in (edge_congestion, vertex_congestion):
        sol = solve(g, allow_large=allow_large)
        ref = split_merge_congestion(g, sol.mode)
        # same pairs, arcs, insertion order and float bits
        assert list(sol.commodities) == list(ref.commodities)
        for pair, fl in sol.commodities.items():
            assert list(fl.items()) == list(ref.commodities[pair].items())
        assert list(sol.load_duals.items()) == list(ref.load_duals.items())
        assert decompose_to_paths(g, sol).paths == scan_decompose_to_paths(g, ref).paths


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=8))
def test_peel_matches_scan_oracles(g):
    _assert_matches_split_merge(g)


# the graphs of the congestion benchmark at seed 1
BENCH_GRAPHS = {
    **{f"grid{a}x{b}": ("grid", (a, b), None) for a, b in ((3, 4), (4, 4), (4, 5))},
    **{f"gnp{seed}": ("gnp_connected", (12, 40), seed) for seed in range(1000, 1004)},
}


@pytest.mark.parametrize("name", sorted(BENCH_GRAPHS))
def test_peel_matches_split_merge_on_benchmark_graphs(name):
    kind, params, seed = BENCH_GRAPHS[name]
    _assert_matches_split_merge(generate(kind, params, seed=seed), allow_large=True)


# Hand-built flows for the two side branches of the peel.  "cycle": the
# lowest-numbered step leads back into the walk, which must cancel that cycle
# and retry.  "dead-end": the lowest-numbered step follows a 5e-8 roundoff arc
# to a node with no flow onward, whose arc must be dropped before a retry.
FORWARD = {
    "cycle": (
        graph_from_pairs(3, [(0, 1), (1, 2)]),
        {(0, 2): {(0, 1): 1.3, (1, 0): 0.3, (1, 2): 1.0}},
        {(0, 2): (((0, 1, 2), 1.0),)},
    ),
    "dead-end": (
        graph_from_pairs(4, [(0, 1), (0, 2), (2, 3)]),
        {(0, 3): {(0, 1): 5e-8, (0, 2): 1.0, (2, 3): 1.0}},
        {(0, 3): (((0, 2, 3), 1.0),)},
    ),
}
BACKWARD = {  # source s, then its flow of 1/2 into every other vertex
    "cycle": (
        graph_from_pairs(3, [(0, 1), (1, 2)]),
        2,
        {(2, 1): 1.0, (1, 0): 0.8, (0, 1): 0.3},
        {0: [((2, 1, 0), 0.5)], 1: [((2, 1), 0.5)]},
    ),
    "dead-end": (  # target 1 is served first, stranding the arc 1 -> 3
        graph_from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        0,
        {(0, 1): 0.5, (0, 2): 1.0, (2, 3): 0.5, (1, 3): 5e-8},
        {1: [((0, 1), 0.5)], 2: [((0, 2), 0.5)], 3: [((0, 2, 3), 0.5)]},
    ),
}


@pytest.mark.parametrize("case", sorted(FORWARD))
def test_decompose_side_branches(case):
    g, commodities, want = FORWARD[case]
    sol = FlowSolution("edge", 2.0, commodities)
    got = decompose_to_paths(g, sol).paths
    assert got == scan_decompose_to_paths(g, sol).paths
    assert got.keys() == want.keys()
    for pair, plist in want.items():
        assert [p for p, _ in got[pair]] == [p for p, _ in plist]
        assert [w for _, w in got[pair]] == pytest.approx([w for _, w in plist], abs=1e-12)


@pytest.mark.parametrize("case", sorted(BACKWARD))
def test_split_side_branches(case):
    g, s, flow, want = BACKWARD[case]
    back = {}
    for (a, b), w in flow.items():
        back.setdefault(b, {})[a] = w
    got = {}
    for t in g.vertices():
        if t != s:
            paths, remaining = _peel(back, t, s, 0.5)
            assert remaining <= 1e-6
            got[t] = [(path[::-1], w) for path, w in paths]
    assert got == scan_split_by_target(g, s, flow)
    assert got.keys() == want.keys()
    for t, plist in want.items():
        assert [p for p, _ in got[t]] == [p for p, _ in plist]
        assert [w for _, w in got[t]] == pytest.approx([w for _, w in plist], abs=1e-12)


def _verdict(check, g, flows):
    try:
        check(g, flows)
    except ContractViolation as exc:
        return str(exc)
    return None


def test_validate_flows_matches_scan_oracle(p3, c4, k4):
    verdicts = []
    for g in (p3, c4, k4, generate("gnp_connected", (7, 45), seed=1)):
        for solve in (edge_congestion, vertex_congestion):
            sol = solve(g)
            first, last = min(sol.commodities), max(sol.commodities)
            for delta in (0.0, 1e-7, 0.25):
                for slack in (0.0, -0.1):
                    flows = {pair: dict(fl) for pair, fl in sol.commodities.items()}
                    for pair in (first, last):
                        arc = min(flows[pair])
                        flows[pair][arc] += delta
                    broken = FlowSolution(sol.mode, sol.congestion + slack, flows)
                    verdict = _verdict(validate_flows, g, broken)
                    assert verdict == _verdict(scan_validate_flows, g, broken)
                    verdicts.append(verdict)
    infinite = FlowSolution("edge", math.inf, {})
    assert _verdict(validate_flows, p3, infinite) == _verdict(scan_validate_flows, p3, infinite)
    # valid flows, conservation errors and both load errors all occur above
    assert None in verdicts
    assert any(v and "net flow" in v for v in verdicts)
    assert any(v and v.startswith("edge") for v in verdicts)
    assert any(v and v.startswith("vertex") for v in verdicts)


def test_validate_flows_outside_the_graph(p3):
    # an arc with an end outside the graph is refused before conservation
    # and loads, as in the scan; so is a pair naming a vertex outside it
    verdicts = []
    for mode, cong in (("edge", 2.0), ("vertex", 2.25), ("vertex", 2.0)):
        sol = FlowSolution(mode, cong, {
            (0, 1): {(0, 1): 1.0, (1, 7): 0.25, (7, 1): 0.25},
            (0, 2): {(0, 1): 1.0, (1, 2): 1.0, (-1, 9): 3.0},
            (1, 2): {(1, 2): 1.0},
        })
        verdicts.append(_verdict(validate_flows, p3, sol))
        assert verdicts[-1] == _verdict(scan_validate_flows, p3, sol)
    assert verdicts == ["commodity (0, 1): arc (1, 7) is not an edge of the graph"] * 3
    outside = FlowSolution("edge", 2.0, {(0, 5): {}})
    with pytest.raises(ContractViolation, match=r"outside \[0, 3\)"):
        validate_flows(p3, outside)


# P3 flows that conserve every pair's unit within the graph, each with a
# first arc that is not an edge: a chord, a self-loop, ends outside [0, 3)
# and ends that are not integers, one of them a float equal to an integer
OFF_GRAPH = {  # pair, its flow, the arc to be named
    "chord": ((0, 2), {(0, 2): 1.0}, (0, 2)),
    "float ends": ((0, 1), {(0.6, 1.9): 1.0}, (0.6, 1.9)),
    "integral float ends": ((0, 1), {(0.0, 1.0): 1.0}, (0.0, 1.0)),
    "huge end": ((0, 2), {(0, 1): 1.0, (1, 2): 1.0, (1, 2**70): 0.5, (2**70, 1): 0.5}, (1, 2**70)),
    "self-loop": ((1, 2), {(1, 2): 1.0, (2, 2): 0.5}, (2, 2)),
    "end 7": ((0, 1), {(0, 1): 1.0, (1, 7): 0.25, (7, 1): 0.25}, (1, 7)),
    "ends -1, 9": ((0, 2), {(0, 1): 1.0, (1, 2): 1.0, (-1, 9): 3.0}, (-1, 9)),
}


@pytest.mark.parametrize("mode", ["edge", "vertex"])
@pytest.mark.parametrize("case", sorted(OFF_GRAPH))
def test_arcs_off_the_graph_are_refused(p3, case, mode):
    pair, fl, arc = OFF_GRAPH[case]
    flows = {(0, 1): {(0, 1): 1.0}, (0, 2): {(0, 1): 1.0, (1, 2): 1.0}, (1, 2): {(1, 2): 1.0}}
    flows[pair] = fl
    sol = FlowSolution(mode, 2.0, flows)
    want = f"commodity {pair}: arc {arc} is not an edge of the graph"
    assert _verdict(validate_flows, p3, sol) == want
    assert _verdict(scan_validate_flows, p3, sol) == want
    with pytest.raises(ContractViolation) as exc:
        decompose_to_paths(p3, sol)
    assert str(exc.value) == want


# P3 flows refused before conservation, each added to or replacing one
# valid commodity: weights that are not finite and >= 0, pairs that are not
# two distinct integers in [0, 3), and keys not of length 2
REFUSED = {  # commodity, its flow, the message
    "negative weight": ((0, 2), {(0, 1): 0.5, (1, 0): -0.5, (1, 2): 1.0},
                        "commodity (0, 2): arc (1, 0) weight -0.5 is not finite and >= 0"),
    "nan weight": ((0, 1), {(0, 1): math.nan},
                   "commodity (0, 1): arc (0, 1) weight nan is not finite and >= 0"),
    "inf weight": ((1, 2), {(1, 2): math.inf, (2, 1): math.inf},
                   "commodity (1, 2): arc (1, 2) weight inf is not finite and >= 0"),
    "float pair": ((0.5, 1), {(0, 1): 1.0},
                   "commodity (0.5, 1): not two distinct integers in [0, 3)"),
    "integral float pair": ((0.0, 1.0), {(0, 1): 1.0},
                            "commodity (0.0, 1.0): not two distinct integers in [0, 3)"),
    "one-vertex pair": ((1, 1), {}, "commodity (1, 1): not two distinct integers in [0, 3)"),
    "3-tuple pair": ((0, 1, 2), {(0, 1): 1.0, (1, 2): 1.0},
                     "commodity (0, 1, 2): key (0, 1, 2) is not of length 2"),
    "3-tuple arc": ((0, 1), {(0, 1, 2): 1.0}, "commodity (0, 1): key (0, 1, 2) is not of length 2"),
    "1-tuple arc": ((0, 2), {(0, 1): 1.0, (1, 2): 1.0, (2,): 0.5},
                    "commodity (0, 2): key (2,) is not of length 2"),
}


@pytest.mark.parametrize("mode", ["edge", "vertex"])
@pytest.mark.parametrize("case", sorted(REFUSED))
def test_validate_flows_refuses_what_is_not_a_flow(p3, case, mode):
    pair, fl, want = REFUSED[case]
    flows = {pair: fl}  # first, so that the pair (0.0, 1.0) keeps its key
    valid = {(0, 1): {(0, 1): 1.0}, (0, 2): {(0, 1): 1.0, (1, 2): 1.0}, (1, 2): {(1, 2): 1.0}}
    for other, other_fl in valid.items():
        flows.setdefault(other, other_fl)
    sol = FlowSolution(mode, 2.0, flows)
    assert _verdict(validate_flows, p3, sol) == want
    with pytest.raises(ContractViolation) as exc:
        decompose_to_paths(p3, sol)
    assert str(exc.value) == want


def test_validate_flows_keeps_the_message_of_a_pair_outside_the_graph(p3):
    # an integer pair outside [0, n) still reads as before, wherever it sits
    flows = {(0, 1): {(0, 1): 1.0}, (2, 3): {}, (0.5, 1): {}}
    want = "a commodity pair names a vertex outside [0, 3)"
    assert _verdict(validate_flows, p3, FlowSolution("edge", 2.0, flows)) == want


def test_validate_flows_memory_is_linear_in_n():
    # the arcs are looked up among the sorted edges; an (n+1) x (n+1) table
    # of edge indices would take 3.2 GB here
    g = generate("path", (20_000,))
    sol = FlowSolution("edge", 1.0, {(0, 1): {(0, 1): 1.0}})
    tracemalloc.start()
    try:
        validate_flows(g, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_peel_decomposes_a_flow_over_10001_parallel_paths():
    # one unit split evenly over the paths 0 - m - 1: every step peels a path
    # and spends its two arcs, so the peel takes 10,001 steps and ends
    k = 10_001
    mids = range(2, k + 2)
    g = graph_from_pairs(k + 2, [(0, m) for m in mids] + [(m, 1) for m in mids])
    flow = {arc: 1 / k for m in mids for arc in ((0, m), (m, 1))}
    paths = decompose_to_paths(g, FlowSolution("edge", 1.0, {(0, 1): flow})).paths[(0, 1)]
    assert [p for p, _ in paths] == [(0, m, 1) for m in mids]
    assert math.fsum(w for _, w in paths) == pytest.approx(1.0)


def test_decompose_does_not_depend_on_the_arc_order_of_a_commodity():
    # the peel's maps are built in key order, so a commodity listed in
    # descending arc order gives the paths of ascending order
    for seed in range(4):
        g = generate("gnp_connected", (7, 45), seed=seed)
        for solve in (edge_congestion, vertex_congestion):
            sol = solve(g)
            got = [
                decompose_to_paths(g, FlowSolution(sol.mode, sol.congestion, {
                    pair: dict(sorted(fl.items(), reverse=descending))
                    for pair, fl in sol.commodities.items()
                })).paths
                for descending in (False, True)
            ]
            assert got[0] == got[1] == scan_decompose_to_paths(g, sol).paths


def test_peel_receives_key_ordered_maps_on_benchmark_graphs(monkeypatch):
    # every map the peel is handed, the by-target split's after each peel of
    # it included, lists every node's next nodes in ascending order
    real, calls = _peel, []

    def spy(out, start, stop, demand):
        assert all(list(nxt) == sorted(nxt) for nxt in out.values())
        calls.append(start)
        return real(out, start, stop, demand)

    monkeypatch.setattr(stringsep.congestion, "_peel", spy)
    peels = 0
    for kind, params, seed in BENCH_GRAPHS.values():
        g = generate(kind, params, seed=seed)
        for solve in (edge_congestion, vertex_congestion):
            decompose_to_paths(g, solve(g, allow_large=True))
            # n (n - 1) peels by target, then n (n - 1) / 2 by pair
            peels += 3 * g.n * (g.n - 1) // 2
    assert len(calls) == peels


def test_peel_refuses_a_step_that_spends_no_arc():
    # an infinite cycle weight minus itself is nan, which is never spent
    out = {0: {1: math.inf}, 1: {0: math.inf}}
    with pytest.raises(RuntimeError, match="^path peeling failed to terminate$"):
        _peel(out, 0, 2, math.inf)
