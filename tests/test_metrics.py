from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stringsep.congestion import edge_congestion, vertex_congestion
from stringsep.errors import ContractViolation, NoVertexCut
from stringsep.graphs import generate
from stringsep.metrics import (
    _balanced_split,
    derived_edge_weights,
    line_to_cut_sweep,
    ratio_functional,
    shortest_path_metric,
    sparsity_exact,
)

from .conftest import arbitrary_graphs, connected_graphs
from .oracles import floyd_warshall, scan_line_to_cut_sweep, table_balanced_split, validate_metric


def test_shortest_path_examples(p3):
    d = shortest_path_metric(p3)
    assert (d == np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])).all()
    k3 = generate("complete", (3,))
    assert (shortest_path_metric(k3) == 1 - np.eye(3)).all()
    assert shortest_path_metric(p3, [3, 5])[0, 2] == 8


def test_derived_weights(p3):
    assert (derived_edge_weights(p3, [2, 4, 6]) == [3, 5]).all()
    assert (derived_edge_weights(p3, [0, 0, 0]) == [0, 0]).all()
    k3 = generate("complete", (3,))
    assert (derived_edge_weights(k3, [1, 1, 1]) == [1, 1, 1]).all()


@settings(max_examples=40)
@given(connected_graphs(), st.integers(0, 2**31))
def test_metric_matrix_is_metric(g, seed):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 8, g.m).astype(float)
    d = shortest_path_metric(g, w)
    validate_metric(d)


@settings(max_examples=40)
@given(connected_graphs(min_n=1, max_n=9), st.integers(0, 2**31))
def test_shortest_path_metric_matches_floyd_warshall(g, seed):
    rng = np.random.default_rng(seed)
    assert (shortest_path_metric(g) == floyd_warshall(g, np.ones(g.m))).all()
    w = rng.integers(0, 4, g.m).astype(float)  # about a quarter are zeros
    assert (shortest_path_metric(g, w) == floyd_warshall(g, w)).all()
    w = np.where(rng.random(g.m) < 0.3, 0.0, rng.random(g.m))
    assert np.allclose(shortest_path_metric(g, w), floyd_warshall(g, w), rtol=1e-12, atol=1e-15)


def test_shortest_path_metric_matches_floyd_warshall_on_load_duals():
    zeros = 0
    for seed in range(6):
        g = generate("gnp_connected", (7, 45), seed=seed)
        w = np.array([edge_congestion(g).load_duals[e] for e in g.edges])
        s = vertex_congestion(g).load_duals
        for weights in (w, derived_edge_weights(g, s)):
            zeros += int((weights == 0).sum())
            d = shortest_path_metric(g, weights)
            assert np.allclose(d, floyd_warshall(g, weights), rtol=1e-12, atol=1e-15)
    assert zeros > 0  # the dual weights do exercise zero-weight edges


def test_ratio_functional_examples(p3):
    assert abs(ratio_functional(p3, "edge", [1, 1]) - 0.5) < 1e-12
    k3 = generate("complete", (3,))
    assert abs(ratio_functional(k3, "edge", [1, 1, 1]) - 1.0) < 1e-12
    assert abs(ratio_functional(p3, "vertex", [1, 1, 1]) - 0.75) < 1e-12


def test_ratio_functional_rejects_zero(p3):
    with pytest.raises(ContractViolation):
        ratio_functional(p3, "edge", [0, 0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_shortest_path_metric_refuses_non_finite_weights(p3, bad):
    # a NaN weight used to give infinite distances on a connected graph
    with pytest.raises(ContractViolation, match="edge weights must be finite"):
        shortest_path_metric(p3, [bad, 1])
    with pytest.raises(ContractViolation, match="edge weights must be finite"):
        shortest_path_metric(p3, {(0, 1): 1, (1, 2): bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_ratio_functional_refuses_non_finite_weights(p3, bad):
    # a NaN weight used to give a NaN ratio
    with pytest.raises(ContractViolation, match="edge weights must be finite"):
        ratio_functional(p3, "edge", [bad, 1])
    with pytest.raises(ContractViolation, match="vertex weights must be finite"):
        ratio_functional(p3, "vertex", [1, bad, 1])


def test_ratio_functional_names_a_missing_weight(p3):
    # an empty dict used to raise a bare KeyError
    with pytest.raises(ContractViolation, match=r"no weight for edge \(0, 1\)"):
        ratio_functional(p3, "edge", {})
    with pytest.raises(ContractViolation, match=r"no weight for edge \(1, 2\)"):
        ratio_functional(p3, "edge", {(0, 1): 1.0})
    with pytest.raises(ContractViolation, match="no weight for vertex 2"):
        ratio_functional(p3, "vertex", {0: 1.0, 1: 1.0})
    assert ratio_functional(p3, "edge", {(0, 1): 1, (1, 2): 1}) == ratio_functional(
        p3, "edge", [1, 1]
    )


def test_ratio_edge_lower_bounds_inverse_congestion():
    rng = np.random.default_rng(11)
    for seed in range(6):
        g = generate("gnp_connected", (7, 45), seed=seed)
        inv = 1.0 / edge_congestion(g).congestion
        for _ in range(50):
            w = rng.random(g.m)
            assert ratio_functional(g, "edge", w) >= inv - 1e-6


def test_dual_metric_attains_equality():
    for seed in range(6):
        g = generate("gnp_connected", (7, 45), seed=seed)
        sol = edge_congestion(g)
        r = ratio_functional(g, "edge", sol.load_duals)
        assert abs(r - 1.0 / sol.congestion) < 1e-6
        sv = vertex_congestion(g)
        rv = ratio_functional(g, "vertex", sv.load_duals)
        assert abs(rv - 1.0 / sv.congestion) < 1e-6


def _espars_recount(g, a_set):
    cross = sum(1 for u, v in g.edges if (u in a_set) != (v in a_set))
    return Fraction(cross, len(a_set) * (g.n - len(a_set)))


def test_sparsity_edge_examples(p3):
    val, cut = sparsity_exact(p3, "edge")
    assert val == Fraction(1, 2) and cut.A == frozenset({0})
    k5 = generate("complete", (5,))
    val, _ = sparsity_exact(k5, "edge")
    assert val == 1


def test_sparsity_edge_matches_plain_enumeration():
    from itertools import combinations

    for seed in range(5):
        g = generate("gnp_connected", (7, 40), seed=seed)
        val, cut = sparsity_exact(g, "edge")
        assert _espars_recount(g, cut.A) == val
        best = min(
            _espars_recount(g, set(a))
            for r in range(1, g.n)
            for a in combinations(range(g.n), r)
        )
        assert best == val


def test_sparsity_vertex_examples(p3):
    val, cut = sparsity_exact(p3, "vertex")
    assert val == Fraction(1, 4)
    assert (cut.A, cut.B, cut.S) == (frozenset({0}), frozenset({2}), frozenset({1}))
    with pytest.raises(NoVertexCut):
        sparsity_exact(generate("complete", (5,)), "vertex")


def test_sparsity_vertex_witness_is_valid_and_minimal():
    from itertools import combinations

    for seed in range(4):
        g = generate("gnp_connected", (7, 35), seed=seed)
        try:
            val, cut = sparsity_exact(g, "vertex")
        except NoVertexCut:
            continue
        assert cut.A and cut.B
        assert not any(
            (u in cut.A and v in cut.B) or (u in cut.B and v in cut.A)
            for u, v in g.edges
        )
        assert Fraction(len(cut.S), (len(cut.A) + len(cut.S)) * (len(cut.B) + len(cut.S))) == val
        # brute-force all (A,B,S): assignments of vertices to 3 classes
        best = None
        for assign in range(3**g.n):
            a, b, s = set(), set(), set()
            x = assign
            for v in range(g.n):
                (a, b, s)[x % 3].add(v)
                x //= 3
            if not a or not b:
                continue
            if any((u in a and v in b) or (u in b and v in a) for u, v in g.edges):
                continue
            cand = Fraction(len(s), (len(a) + len(s)) * (len(b) + len(s)))
            if best is None or cand < best:
                best = cand
        assert best == val


def test_line_to_cut_sweep_examples(p3, c4, k4):
    cut, val = line_to_cut_sweep(p3, [0, 1, 2])
    assert val == Fraction(1, 2)
    cut, val = line_to_cut_sweep(k4, [0, 0, 1, 1])
    assert val == Fraction(1, 1) and cut.A == frozenset({0, 1})
    cut, val = line_to_cut_sweep(c4, [0, 0, 1, 1])
    assert val == Fraction(1, 2) and cut.A == frozenset({0, 1})
    with pytest.raises(ContractViolation):
        line_to_cut_sweep(p3, [1, 1, 1])
    with pytest.raises(ContractViolation, match="f must be finite"):
        line_to_cut_sweep(p3, [0, float("nan"), 1])
    with pytest.raises(ContractViolation, match="f must be finite"):
        line_to_cut_sweep(p3, [0, 1, float("inf")])


@pytest.mark.parametrize(
    "values", [st.integers(0, 3), st.floats(-1e3, 1e3)], ids=["integers", "floats"]
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_line_to_cut_sweep_matches_the_scan_oracle(values, data):
    # few integer values tie at many thresholds; the first minimum is kept
    g = data.draw(arbitrary_graphs(min_n=2, max_n=10))
    f = data.draw(st.lists(values, min_size=g.n, max_size=g.n))
    assume(len(set(f)) > 1)
    assert line_to_cut_sweep(g, f) == scan_line_to_cut_sweep(g, f)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 7), min_size=2, max_size=8), data=st.data())
def test_balanced_split_matches_the_table_oracle(sizes, data):
    # whole components of the given sizes over shuffled vertex labels
    labels = data.draw(st.permutations(range(sum(sizes))))
    ends = np.cumsum([0] + sizes).tolist()
    comps = [frozenset(labels[a:b]) for a, b in zip(ends, ends[1:])]
    assert _balanced_split(comps, sum(sizes)) == table_balanced_split(comps, sum(sizes))


def test_sweep_beats_line_metric_ratio():
    rng = np.random.default_rng(2)
    for seed in range(5):
        g = generate("gnp_connected", (8, 40), seed=seed)
        for _ in range(20):
            f = rng.normal(size=g.n)
            if len(set(f.tolist())) < 2:
                continue
            _, val = line_to_cut_sweep(g, f)
            gaps = np.abs(f[:, None] - f[None, :])
            num = sum(gaps[u, v] for u, v in g.edges)
            ratio = num / (gaps.sum() / 2.0)
            assert float(val) <= ratio + 1e-9
