import pytest
from hypothesis import given
from hypothesis import strategies as st

from stringsep import graphs
from stringsep.errors import ContractViolation, GenerationError, ParseError
from stringsep.graphs import (
    Graph,
    VertexCut,
    balance_limit,
    check_separator,
    generate,
    graph_from_pairs,
    parse_graph,
    serialize_graph,
)

from . import oracles
from .conftest import arbitrary_graphs


def test_parse_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


def test_parse_k4():
    g = parse_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert g.m == 6


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("2 1\n0 0", "self-loop"),
        ("2 1\n0 5", "out of range"),
        ("2 2\n0 1\n1 0", "duplicate"),
        ("2 1\nx y", "integers"),
        ("junk", "n m"),
    ],
)
def test_parse_errors_name_line(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


@given(arbitrary_graphs())
def test_serialize_round_trip(g: Graph):
    assert parse_graph(serialize_graph(g)) == g


def test_generate_families():
    assert generate("complete", (4,)).m == 6
    assert generate("path", (5,)).m == 4
    assert generate("cycle", (5,)).m == 5
    assert generate("grid", (3, 3)).n == 9
    assert generate("grid", (3, 3)).m == 12
    sd = generate("subdivided_complete", (5,))
    assert sd.n == 15 and sd.m == 20


@given(st.integers(2, 9))
def test_complete_edge_count(n):
    assert generate("complete", (n,)).m == n * (n - 1) // 2


@given(st.integers(1, 5), st.integers(1, 5))
def test_grid_edge_count(a, b):
    assert generate("grid", (a, b)).m == 2 * a * b - a - b


def test_generate_deterministic():
    g1 = generate("gnp_connected", (8, 40), seed=9)
    g2 = generate("gnp_connected", (8, 40), seed=9)
    assert g1 == g2 and g1.is_connected()


class _Stop(Exception):
    pass


def _first_attempts(monkeypatch, module, build, limit=3):
    """The pairs of the first `limit` G(n, p) attempts that build makes
    through module.graph_from_pairs, and the graph it returns, or None if it
    is still sampling after them."""
    seen = []

    def record(n, pairs):
        if len(seen) == limit:
            raise _Stop
        seen.append(list(pairs))
        return graph_from_pairs(n, seen[-1])

    monkeypatch.setattr(module, "graph_from_pairs", record)
    try:
        return seen, build()
    except _Stop:
        return seen, None


@pytest.mark.parametrize("percent", [0, 1, 40, 99, 100])
def test_gnp_connected_draws_as_the_per_pair_loop(monkeypatch, percent):
    for n in range(1, 16):
        for seed in range(20):
            got = _first_attempts(
                monkeypatch, graphs, lambda: generate("gnp_connected", (n, percent), seed)
            )
            want = _first_attempts(
                monkeypatch, oracles, lambda: oracles.per_pair_gnp_connected(n, percent, seed)
            )
            assert got == want, (n, seed)


def test_gnp_connected_ends_as_the_per_pair_loop():
    # whole runs: up to the first connected attempt, or to giving up
    for seed in range(3):
        assert generate("gnp_connected", (12, 40), seed) == oracles.per_pair_gnp_connected(12, 40, seed)
    with pytest.raises(GenerationError, match="no connected sample in 1000 attempts"):
        generate("gnp_connected", (3, 0))
    with pytest.raises(GenerationError, match="no connected sample in 1000 attempts"):
        oracles.per_pair_gnp_connected(3, 0)


def test_generate_rejects():
    with pytest.raises(ContractViolation):
        generate("grid", (0, 3))
    with pytest.raises(ContractViolation):
        generate("mystery", (3,))
    for kind, params in (("gnp_connected", (8, 40)), ("path", (3,))):
        with pytest.raises(ContractViolation, match="^seed must be non-negative, got -1$"):
            generate(kind, params, seed=-1)


def test_check_separator_examples(p3, k4):
    ok, _ = check_separator(p3, VertexCut(frozenset({0}), frozenset({2}), frozenset({1})))
    assert ok
    ok, why = check_separator(p3, VertexCut(frozenset({0, 1}), frozenset({2}), frozenset()))
    assert not ok and "{1,2}" in why
    ok, why = check_separator(k4, VertexCut(frozenset({0}), frozenset({1}), frozenset({2, 3})))
    assert not ok and "{0,1}" in why


def test_check_separator_needs_partition(p3):
    with pytest.raises(ContractViolation):
        check_separator(p3, VertexCut(frozenset({0}), frozenset({0}), frozenset({1, 2})))
    with pytest.raises(ContractViolation):
        check_separator(p3, VertexCut(frozenset({0}), frozenset({2}), frozenset()))


def test_balance_limit_convention():
    assert balance_limit(3) == 2
    assert balance_limit(9) == 6
    assert balance_limit(10) == 7
