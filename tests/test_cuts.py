from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stringsep.cuts
from stringsep.cuts import (
    _SRC,
    _check_menger,
    _embed_or_fallback,
    _sweep_cuts,
    balanced_edge_cut,
    fhl_sweep,
    find_separator,
    min_separator_exact,
    min_vertex_cut,
)
from stringsep.errors import ContractViolation
from stringsep.graphs import Graph, check_separator, generate, graph_from_pairs
from stringsep.metrics import derived_edge_weights, shortest_path_metric, sparsity_exact
from stringsep.embedding import best_embedding, default_trials
from stringsep.errors import NoVertexCut
from stringsep.geometry import intersection_graph, random_segment_instance

from .conftest import arbitrary_graphs, connected_graphs
from .oracles import (
    edmonds_karp_vertex_cut,
    reference_find_separator,
    reference_min_separator_exact,
    restart_sweep_cuts,
    set_sweep,
)


def brute_min_vertex_cut(g: Graph, xs, ys) -> int:
    for size in range(g.n + 1):
        for s_tuple in combinations(range(g.n), size):
            s = set(s_tuple)
            seen = set(xs) - s
            frontier = list(seen)
            while frontier:
                x = frontier.pop()
                for y in g.adjacency[x]:
                    if y not in s and y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if not (seen & (set(ys) - s)):
                return size
    raise AssertionError


def test_min_vertex_cut_examples(p3, k4):
    cert = min_vertex_cut(p3, {0}, {2})
    assert len(cert.cut) == 1 and len(cert.paths) == 1
    grid23 = generate("grid", (2, 3))
    cert = min_vertex_cut(grid23, {0, 3}, {2, 5})
    assert len(cert.cut) == 2 == brute_min_vertex_cut(grid23, {0, 3}, {2, 5})
    cert = min_vertex_cut(k4, {0}, {1})
    assert cert.cut == frozenset({0})


def test_min_vertex_cut_contract():
    g = generate("path", (3,))
    with pytest.raises(ContractViolation):
        min_vertex_cut(g, {0}, {0, 2})
    with pytest.raises(ContractViolation):
        min_vertex_cut(g, set(), {2})


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_n=3, max_n=8), st.data())
def test_min_vertex_cut_matches_brute_force(g, data):
    verts = sorted(g.vertices())
    x = data.draw(st.sampled_from(verts))
    y = data.draw(st.sampled_from([v for v in verts if v != x]))
    cert = min_vertex_cut(g, {x}, {y})
    assert len(cert.cut) == brute_min_vertex_cut(g, {x}, {y})
    # Menger: as many pairwise vertex-disjoint paths as cut vertices,
    # each meeting the cut exactly once
    flat = [v for p in cert.paths for v in p]
    assert len(flat) == len(set(flat))
    for p in cert.paths:
        assert p[0] == x and p[-1] == y
        assert len(set(p) & cert.cut) == 1
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)


def _assert_menger(g, xs, ys, cert):
    """The certificate proves the cut minimum: as many vertex-disjoint X-Y
    paths along edges of g as cut vertices, and no component of g minus the
    cut meets both X and Y."""
    assert len(cert.paths) == len(cert.cut)
    flat = [v for p in cert.paths for v in p]
    assert len(flat) == len(set(flat))
    for p in cert.paths:
        assert p[0] in xs and p[-1] in ys
        assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
    for comp in g.components(removed=cert.cut):
        assert not (comp & set(xs) and comp & set(ys))


@settings(max_examples=300, deadline=None)
@given(arbitrary_graphs(min_n=2, max_n=12), st.data())
def test_min_vertex_cut_general_sides_match_edmonds_karp(g, data):
    # X and Y disjoint and nonempty, X and Y together need not be V
    verts = data.draw(st.permutations(range(g.n)))
    k = data.draw(st.integers(1, g.n - 1))
    j = data.draw(st.integers(k + 1, g.n))
    xs, ys = set(verts[:k]), set(verts[k:j])
    cert = min_vertex_cut(g, xs, ys)
    assert cert.cut == edmonds_karp_vertex_cut(g, xs, ys)
    _assert_menger(g, xs, ys, cert)


def test_min_vertex_cut_small_sides_of_sparse_graphs_match_edmonds_karp():
    # sparse graphs with most vertices in neither side are where a flow path
    # through a vertex in neither side must be cancelled (a few percent here)
    rng = np.random.default_rng(12)
    for _ in range(400):
        n = 12
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        g = graph_from_pairs(n, pairs)
        verts = rng.permutation(n).tolist()
        xs, ys = set(verts[:4]), set(verts[4 : 4 + int(rng.integers(1, 3))])
        cert = min_vertex_cut(g, xs, ys)
        assert cert.cut == edmonds_karp_vertex_cut(g, xs, ys), (pairs, xs, ys)
        _assert_menger(g, xs, ys, cert)


def test_min_vertex_cut_cancels_a_unit_through_a_vertex_in_neither_side():
    # the flow is 0 -> 3 -> 2; the last search goes back from in(2) along the
    # unit 3 -> 2 to out(3), and must go on through 3's split arc to in(3)
    # and back to out(0); without that arc it reads the cut {0, 2}
    g = graph_from_pairs(6, [(0, 1), (0, 3), (0, 5), (1, 4), (1, 5), (2, 3), (2, 5)])
    cert = min_vertex_cut(g, {0, 1, 4}, {2})
    assert cert.cut == frozenset({2})
    _assert_menger(g, {0, 1, 4}, {2}, cert)


def test_min_vertex_cut_certificate_catches_a_non_maximum_flow(monkeypatch):
    g = generate("grid", (2, 3))
    real = stringsep.cuts._augmenting_search
    units = []

    def stop_after_one_unit(*args):
        par, queue, end = real(*args)
        units.append(end)
        return par, queue, end if len(units) == 1 else None

    monkeypatch.setattr(stringsep.cuts, "_augmenting_search", stop_after_one_unit)
    with pytest.raises(RuntimeError):
        min_vertex_cut(g, {0, 3}, {2, 5})


@pytest.mark.parametrize(
    "xs,cut,paths,why",
    [
        ({0}, {1}, (), "disagrees"),  # fewer paths than cut vertices
        ({0}, {1, 2}, ((0, 1, 2), (0, 2)), "vertex-disjoint"),  # 0 shared
        ({0}, {1}, ((0, 2),), "vertex-disjoint"),  # 0-2 is no edge of P3
        ({0}, {1}, ((1, 2),), "vertex-disjoint"),  # starts outside X
        ({0, 1}, {0}, ((1, 2),), "separate"),  # 1-2 survives the cut
    ],
)
def test_check_menger_rejects_bad_certificates(p3, xs, cut, paths, why):
    with pytest.raises(RuntimeError, match=why):
        _check_menger(p3, frozenset(xs), frozenset({2}), frozenset(cut), paths)


def _assert_sweep_cuts_match_oracle(g, seed):
    """Every prefix/suffix split of a sweep order gets the oracle's cut set,
    from min_vertex_cut and from the warm-started sweep alike."""
    emb = best_embedding(shortest_path_metric(g), default_trials(g.n), seed)
    order = sorted(g.vertices(), key=lambda v: (emb.values[v], v))
    warm = list(_sweep_cuts(g, order))
    assert len(warm) == g.n - 1
    for i in range(1, g.n):
        xs, ys = order[:i], order[i:]
        expected = edmonds_karp_vertex_cut(g, xs, ys)
        assert min_vertex_cut(g, xs, ys).cut == expected, (order, i)
        assert warm[i - 1] == expected, (order, i)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_n=2, max_n=10), st.integers(0, 1000))
def test_min_vertex_cut_matches_edmonds_karp_on_sweep_splits(g, seed):
    _assert_sweep_cuts_match_oracle(g, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_min_vertex_cut_matches_edmonds_karp_on_segment_instances(seed):
    rep = random_segment_instance(60, seed=seed, span=54)
    g, _ = intersection_graph(rep)
    giant = max(g.components(), key=lambda c: (len(c), -min(c)))
    sub, _ = g.induced(giant)
    assert sub.n >= 20
    _assert_sweep_cuts_match_oracle(sub, seed)


def test_sweep_cuts_match_edmonds_karp_on_dense_segment_instance():
    g, _ = intersection_graph(random_segment_instance(30, seed=4))
    giant = max(g.components(), key=lambda c: (len(c), -min(c)))
    sub, _ = g.induced(giant)
    assert sub.n >= 20 and sub.m >= 4 * sub.n
    _assert_sweep_cuts_match_oracle(sub, 4)


@settings(max_examples=300, deadline=None)
@given(arbitrary_graphs(min_n=2, max_n=12), st.data())
def test_sweep_cuts_match_edmonds_karp_in_any_vertex_order(g, data):
    # disconnected graphs too, in orders that no embedding need give
    order = data.draw(st.permutations(range(g.n)))
    cuts = list(_sweep_cuts(g, order))
    assert len(cuts) == g.n - 1
    for i, cut in enumerate(cuts, start=1):
        assert cut == edmonds_karp_vertex_cut(g, order[:i], order[i:]), (order, i)


@pytest.mark.parametrize("count,span", [(140, 110), (400, 140)])
def test_sweep_cuts_match_restart_oracle_on_segment_cores(count, span):
    g, _ = intersection_graph(random_segment_instance(count, seed=1, span=span))
    giant = max(g.components(), key=lambda c: (len(c), -min(c)))
    sub, _ = g.induced(giant)
    assert sub.n >= 90
    f = _embed_or_fallback(sub, 1, None)
    embedded = sorted(sub.vertices(), key=lambda v: (f[v], v))
    shuffled = np.random.default_rng(count).permutation(sub.n).tolist()
    for order in (embedded, shuffled):
        assert list(_sweep_cuts(sub, order)) == list(restart_sweep_cuts(sub, order))


def test_sweep_cuts_drop_a_vertex_once_its_out_node_is_reached():
    # P4 in the order 1, 0, 2, 3: vertex 1 is the cut of positions 1 and 2;
    # at position 3 the last search reaches out(1), so 1 leaves the cut
    assert list(_sweep_cuts(generate("path", (4,)), [1, 0, 2, 3])) == [{1}, {1}, {2}]


def test_sweep_cuts_search_from_the_partner_of_the_moved_vertex():
    # P3 in the order 1, 0, 2: position 1 sends the unit 1 -> 0; moving 0
    # into X cancels it, and the unit that replaces it, 1 -> 2, starts at
    # in(1), which a search from in(0) alone cannot enter
    assert list(_sweep_cuts(generate("path", (3,)), [1, 0, 2])) == [{1}, {1}]


def test_sweep_flow_paths_are_single_edges(monkeypatch):
    # a search enters no X vertex along an edge and stops at the first Y
    # vertex, so every unit runs from an X vertex to a neighbouring Y vertex,
    # and cancelling the path that ended at v frees v and one partner
    real = stringsep.cuts._max_flow

    def checked(adj, pred, is_y, seeds, blocked):
        res = real(adj, pred, is_y, seeds, blocked)
        for w, p in enumerate(pred):
            assert p < 0 or (is_y[w] and not is_y[p] and pred[p] == _SRC)
        return res

    monkeypatch.setattr(stringsep.cuts, "_max_flow", checked)
    rng = np.random.default_rng(3)
    for _ in range(100):
        pairs = [(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.3]
        g = graph_from_pairs(12, pairs)
        order = rng.permutation(12).tolist()
        assert list(_sweep_cuts(g, order)) == list(restart_sweep_cuts(g, order))


def _assert_sweep_matches_set_oracle(g, seed):
    f = _embed_or_fallback(g, seed, None)
    res = fhl_sweep(g, np.ones(g.n), f)
    a, b, s, positions = set_sweep(g, f)
    assert res.positions == positions
    assert (res.A, res.B, res.S) == (a, b, s)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_n=2, max_n=10), st.integers(0, 1000))
def test_fhl_sweep_matches_set_sweep_oracle(g, seed):
    _assert_sweep_matches_set_oracle(g, seed)


@pytest.mark.parametrize("count,span,seed", [(140, 110, 1), (60, 54, 2), (40, None, 3)])
def test_fhl_sweep_matches_set_sweep_oracle_on_segment_cores(count, span, seed):
    g, _ = intersection_graph(random_segment_instance(count, seed=seed, span=span))
    giant = max(g.components(), key=lambda c: (len(c), -min(c)))
    sub, _ = g.induced(giant)
    assert sub.n >= 20
    _assert_sweep_matches_set_oracle(sub, seed)


def test_fhl_sweep_cross_check_catches_a_wrong_cut(monkeypatch):
    g = generate("grid", (3, 3))
    f = shortest_path_metric(g)[0]
    fhl_sweep(g, np.ones(g.n), f)
    monkeypatch.setattr(
        stringsep.cuts, "_sweep_cuts", lambda g, order: (frozenset() for _ in order[1:])
    )
    with pytest.raises(RuntimeError, match="fresh max-flow"):
        fhl_sweep(g, np.ones(g.n), f)


def test_fhl_sweep_p3(p3):
    res = fhl_sweep(p3, np.ones(3), [0.0, 1.0, 2.0])
    assert res.sparsity == Fraction(1, 4)
    assert res.S == frozenset({1})
    assert res.bound == pytest.approx(3 / 4)


def test_embed_or_fallback_constant_trial_uses_first_row():
    # the one trial of seed 0 draws scale 0, where every vertex is an anchor,
    # so f falls back to the distances from vertex 0
    g = generate("grid", (4, 4))
    d = shortest_path_metric(g)
    assert best_embedding(d, 1, 0).is_constant
    f = _embed_or_fallback(g, 0, 1)
    assert np.array_equal(f, d[0])
    res = fhl_sweep(g, np.ones(g.n), f)
    assert res.S == frozenset({2, 5, 8})
    assert res.sparsity == Fraction(1, 26)


def test_fhl_sweep_contracts(p3):
    with pytest.raises(ContractViolation):
        fhl_sweep(p3, np.ones(3), [1.0, 1.0, 1.0])  # constant
    with pytest.raises(ContractViolation) as err:
        fhl_sweep(p3, np.ones(3), [0.0, 5.0, 2.0])  # not 1-Lipschitz
    assert str(err.value) == "f is not 1-Lipschitz for d_s: |f(0)-f(1)| = 5.0 > w(0,1) = 1.0"
    with pytest.raises(ContractViolation, match="connected"):
        fhl_sweep(graph_from_pairs(3, [(0, 1)]), np.ones(3), [0.0, 1.0, 2.0])


def test_fhl_sweep_refuses_a_non_finite_embedding(p3):
    # f = [0, nan, 1] used to pass the Lipschitz check and return S = {1}
    # with a NaN bound, so the bound check compared false and was skipped
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ContractViolation, match="f must be finite"):
            fhl_sweep(p3, np.ones(3), [0.0, bad, 1.0])


def test_fhl_sweep_refuses_non_finite_weights(p3):
    # s = [1, nan, 1] used to return a NaN bound
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ContractViolation, match="vertex weights must be finite"):
            fhl_sweep(p3, [1.0, bad, 1.0], [0.0, 1.0, 2.0])


def test_fhl_sweep_star_contract():
    # star K_{1,3}: leaf embedding value 0, center and other leaves at 1
    # (1-Lipschitz for unit weights); the theorem inequality is the contract
    star = graph_from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    res = fhl_sweep(star, np.ones(4), [1.0, 0.0, 1.0, 1.0])
    assert float(res.sparsity) <= res.bound + 1e-9


def _random_lipschitz(g, s, rng):
    d = shortest_path_metric(g, derived_edge_weights(g, s))
    f = rng.normal(size=g.n)
    gaps = np.abs(f[:, None] - f[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d > 0, gaps / np.where(d > 0, d, 1.0), 0.0)
    worst = ratio.max()
    if worst > 0:
        f = f / worst
    return f


def test_fhl_inequality_random_instances():
    rng = np.random.default_rng(17)
    done = 0
    while done < 40:
        n = int(rng.integers(4, 10))
        g = generate("gnp_connected", (n, 45), seed=int(rng.integers(10**6)))
        s = rng.integers(1, 5, g.n).astype(float)
        f = _random_lipschitz(g, s, rng)
        if len(set(f.tolist())) < 2:
            continue
        res = fhl_sweep(g, s, f)
        assert float(res.sparsity) <= res.bound + 1e-9
        # the per-position inequality |S_i| >= alpha * i * (n - i)
        alpha = res.sparsity
        for pos in res.positions:
            assert pos.cut_size >= alpha * pos.index * (g.n - pos.index) - Fraction(1, 10**9)
        done += 1


def test_fhl_not_below_exact_sparsity():
    rng = np.random.default_rng(23)
    done = 0
    while done < 25:
        n = int(rng.integers(4, 9))
        g = generate("gnp_connected", (n, 50), seed=int(rng.integers(10**6)))
        try:
            exact, _ = sparsity_exact(g, "vertex")
        except NoVertexCut:
            continue
        f = _random_lipschitz(g, np.ones(g.n), rng)
        if len(set(f.tolist())) < 2:
            continue
        res = fhl_sweep(g, np.ones(g.n), f)
        assert float(res.sparsity) >= float(exact) - 1e-9
        done += 1


def test_find_separator_p3(p3):
    res = find_separator(p3)
    ok, why = check_separator(p3, res.cut)
    assert ok, why
    assert res.size == 1


def test_find_separator_two_triangles():
    g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    res = find_separator(g)
    assert res.size == 0
    assert {len(res.cut.A), len(res.cut.B)} == {3}


def test_find_separator_5x5_grid():
    g = generate("grid", (5, 5))
    res = find_separator(g, seed=1)
    ok, why = check_separator(g, res.cut)
    assert ok, why
    # regression baseline: the sweep finds the (well separated) column cuts
    assert res.size <= 10


@settings(max_examples=30, deadline=None)
@given(connected_graphs(min_n=2, max_n=10), st.integers(0, 1000))
def test_find_separator_always_valid(g, seed):
    res = find_separator(g, seed=seed)
    ok, why = check_separator(g, res.cut)
    assert ok, why
    assert res.size >= 0


def test_find_separator_subdivided_k5():
    # the classic non-string graph (K_5 with every edge subdivided once)
    # still has small balanced separators as a plain graph
    g = generate("subdivided_complete", (5,))
    res = find_separator(g, seed=2)
    ok, why = check_separator(g, res.cut)
    assert ok, why
    assert res.size <= 5


def test_find_separator_not_below_exact():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        g = generate("gnp_connected", (n, 40), seed=int(rng.integers(10**6)))
        best, _ = min_separator_exact(g)
        res = find_separator(g, seed=3)
        assert res.size >= best


SEPARATOR_SETTINGS = [(seed, trials) for seed in (0, 3) for trials in (None, 1, 2)]


def _assert_separator_matches_reference(g):
    for seed, trials in SEPARATOR_SETTINGS:
        # equal results: the same A, B, S, size, balance and trace
        got = find_separator(g, seed=seed, trials=trials)
        assert got == reference_find_separator(g, seed=seed, trials=trials), (seed, trials)


@settings(max_examples=30, deadline=None)
@given(arbitrary_graphs(min_n=2, max_n=10))
def test_find_separator_matches_worklist_reference_on_arbitrary_graphs(g):
    _assert_separator_matches_reference(g)


@settings(max_examples=30, deadline=None)
@given(connected_graphs(min_n=2, max_n=12))
def test_find_separator_matches_worklist_reference_on_connected_graphs(g):
    _assert_separator_matches_reference(g)


@pytest.mark.parametrize(
    "kind,params",
    [("grid", (4, 4)), ("grid", (6, 6)), ("grid", (8, 5)), ("grid", (10, 10)),
     ("subdivided_complete", (5,)), ("subdivided_complete", (6,))],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_find_separator_matches_worklist_reference_on_families(kind, params):
    _assert_separator_matches_reference(generate(kind, params))


@pytest.mark.parametrize(
    "count,span,seed", [(60, 120, 1), (60, 90, 2), (100, 100, 1), (100, None, 2), (200, 300, 1)]
)
def test_find_separator_matches_worklist_reference_on_segment_instances(count, span, seed):
    g, _ = intersection_graph(random_segment_instance(count, seed=seed, span=span))
    assert len(find_separator(g).trace) >= 3  # several rounds, each on a piece of the last
    _assert_separator_matches_reference(g)


@settings(max_examples=40, deadline=None)
@given(arbitrary_graphs(min_n=2, max_n=9))
def test_min_separator_exact_matches_reference(g):
    assert min_separator_exact(g) == reference_min_separator_exact(g)


def test_min_separator_exact_values(p3):
    size, cut = min_separator_exact(p3)
    assert size == 1
    size, cut = min_separator_exact(generate("grid", (3, 3)))
    assert size == 2
    ok, _ = check_separator(generate("grid", (3, 3)), cut)
    assert ok


def _no_separator_of_size(g, cap):
    """Exhaustively certify that no S with |S| <= cap separates g.

    Removing S admits a balanced grouping iff every leftover component has
    at most ceil(2n/3) vertices.
    """
    limit = (2 * g.n + 2) // 3
    for size in range(cap + 1):
        for s_tuple in combinations(range(g.n), size):
            s = set(s_tuple)
            alive = set(g.vertices()) - s
            while alive:
                comp = {min(alive)}
                frontier = [min(alive)]
                alive -= comp
                while frontier:
                    x = frontier.pop()
                    for y in g.adjacency[x]:
                        if y in alive:
                            alive.discard(y)
                            comp.add(y)
                            frontier.append(y)
                if len(comp) > limit:
                    break
            else:
                return False  # all components fit: S separates
    return True


def test_grid_exercise_min_separator_exceeds_quarter_side():
    # 3x3 fits the exact oracle; for 4x4 (n = 16, past the oracle cap)
    # certify directly that no separator of size <= m/4 exists
    size, _ = min_separator_exact(generate("grid", (3, 3)))
    assert size > 3 / 4
    assert _no_separator_of_size(generate("grid", (4, 4)), 1)


def test_balanced_edge_cut_p6():
    res = balanced_edge_cut(generate("path", (6,)), Fraction(1))
    assert res.cut.A == frozenset({0, 1, 2})
    assert res.crossing_edges == 1 <= res.bound
    assert res.hypothesis_held


def test_balanced_edge_cut_k6_window_and_bound():
    res = balanced_edge_cut(generate("complete", (6,)), Fraction(1))
    a = len(res.cut.A)
    assert 2 <= a <= 4  # inside [n/3, 2n/3]
    assert res.crossing_edges <= res.bound
    assert res.hypothesis_held


def test_balanced_edge_cut_c6_reports_failed_hypothesis():
    res = balanced_edge_cut(generate("cycle", (6,)), Fraction(1, 6))
    assert res.crossing_edges == 2
    assert res.crossing_edges <= res.bound  # the bound held anyway
    assert not res.hypothesis_held  # espars(C6) = 2/9 > 1/6
    assert res.hypothesis_failures[0] == (6, Fraction(2, 9))


@settings(max_examples=20, deadline=None)
@given(connected_graphs(min_n=3, max_n=9))
def test_balanced_edge_cut_window_property(g):
    res = balanced_edge_cut(g, Fraction(1))
    a = len(res.cut.A)
    assert g.n <= 3 * a <= 2 * g.n
    recount = sum(1 for u, v in g.edges if (u in res.cut.A) != (v in res.cut.A))
    assert recount == res.crossing_edges
