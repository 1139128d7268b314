import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringsep.congestion import decompose_to_paths, vertex_congestion
from stringsep.errors import ContractViolation
from stringsep.experiments import (
    drawing_conflict_experiment,
    duality_report,
    even_subword,
    pcr_lower_bound,
    report_csv,
)
from stringsep.geometry import intersection_graph, random_segment_instance
from stringsep.graphs import generate, parse_graph

from .oracles import conflict_experiment_from_paths
from .test_acceptance import CONFLICT_INSTANCES


def test_pcr_lower_bound_values():
    assert pcr_lower_bound(5) == 1
    assert pcr_lower_bound(6) == 3  # C(6,5)/2
    assert pcr_lower_bound(10) == 42  # C(10,5)/6
    with pytest.raises(ContractViolation):
        pcr_lower_bound(4)


def test_even_subword_examples():
    assert even_subword("abba") == (1, 3)
    assert even_subword("aa") == (0, 2)
    assert even_subword("ab") is None


def _recount_even(word, span):
    i, j = span
    assert j > i
    sub = word[i:j]
    return all(sub.count(ch) % 2 == 0 for ch in set(sub))


def test_even_subword_exhaustive_pigeonhole():
    # every 2-letter word of length 4 = 2^2 and 3-letter word of length 8 = 2^3
    for word in product("ab", repeat=4):
        span = even_subword(word)
        assert span is not None
        assert _recount_even(list(word), span)
    for word in product("abc", repeat=8):
        span = even_subword(word)
        assert span is not None
        assert _recount_even(list(word), span)


@settings(max_examples=300)
@given(st.text(alphabet="abcd", min_size=0, max_size=24))
def test_even_subword_recount(word):
    span = even_subword(word)
    if span is not None:
        assert _recount_even(word, span)
    elif len(word) >= 16:
        raise AssertionError("length >= 2^|alphabet| must contain an even subword")


def test_conflicts_p3_deterministic_three(p3):
    stats = drawing_conflict_experiment(p3, trials=25, seed=0)
    assert stats.counts == (3,) * 25  # all three path pairs meet
    assert stats.lower_bound is None


def test_conflicts_k4_bound(k4):
    stats = drawing_conflict_experiment(k4, trials=10, seed=1)
    assert all(c == 15 for c in stats.counts)  # every pair of K4 edges is related
    assert stats.upper_bound == pytest.approx(8 * 6 * 1.5**2)
    assert stats.mean <= stats.upper_bound


def test_conflicts_lower_bound_on_k6():
    g = generate("complete", (6,))
    stats = drawing_conflict_experiment(g, trials=50, seed=2)
    assert stats.lower_bound == 3
    assert all(c >= 3 for c in stats.counts)
    assert stats.mean <= stats.upper_bound + 4 * stats.stddev / math.sqrt(stats.trials)


# criterion 10's segment instances, each with its seed there, then P3, K4,
# K6, C7 and the 3 x 4 grid
CONFLICT_CORPUS = [
    (f"segments-{n}-{seed}", intersection_graph(random_segment_instance(n, seed=seed))[0], n * 100 + seed)
    for n, seed in CONFLICT_INSTANCES
] + [
    ("P3", generate("path", (3,)), 3),
    ("K4", generate("complete", (4,)), 4),
    ("K6", generate("complete", (6,)), 6),
    ("C7", generate("cycle", (7,)), 7),
    ("grid-3x4", generate("grid", (3, 4)), 12),
]


@pytest.mark.parametrize("name,g,seed", CONFLICT_CORPUS, ids=[c[0] for c in CONFLICT_CORPUS])
def test_conflicts_match_the_paths_oracle(name, g, seed):
    flows = vertex_congestion(g)
    got = drawing_conflict_experiment(g, trials=200, seed=seed)
    want = conflict_experiment_from_paths(
        g, decompose_to_paths(g, flows), trials=200, seed=seed, vcong=flows.congestion
    )
    assert got == want


def test_conflicts_reject_trials_before_the_lp():
    g = parse_graph("1 0\n")  # the LP would refuse it, but the trial count is checked first
    with pytest.raises(ContractViolation, match="^trials must be >= 1$"):
        drawing_conflict_experiment(g, trials=0, seed=0)


def test_conflicts_reject_disconnected_graph():
    g = parse_graph("3 1\n0 1\n")  # vertex 2 is isolated: no flow reaches it
    with pytest.raises(ContractViolation, match="^infinite congestion carries no flows$"):
        drawing_conflict_experiment(g, trials=5, seed=0)


def test_conflicts_reject_negative_seed(p3):
    with pytest.raises(ContractViolation, match="^seed must be non-negative, got -1$"):
        drawing_conflict_experiment(p3, trials=5, seed=-1)


def test_duality_report_rows(p3, c4):
    row = duality_report(p3, "P3")
    assert row.econg == pytest.approx(2.0, abs=1e-6)
    assert row.espars == pytest.approx(0.5)
    assert row.prod_edge == pytest.approx(1.0, abs=1e-6)
    row5 = duality_report(generate("complete", (5,)), "K5")
    assert row5.econg == pytest.approx(1.0, abs=1e-6)
    assert row5.espars == pytest.approx(1.0)
    assert row5.vspars is None  # complete graph: no vertex cut
    rowc = duality_report(c4, "C4")
    assert rowc.econg == pytest.approx(2.0, abs=1e-6)
    assert rowc.espars == pytest.approx(0.5)
    assert rowc.prod_edge == pytest.approx(1.0, abs=1e-6)


def test_duality_easy_directions_random():
    for seed in range(8):
        g = generate("gnp_connected", (7, 45), seed=seed)
        row = duality_report(g, f"g{seed}")
        assert row.prod_edge >= 1 - 1e-6
        if row.prod_vertex is not None:
            assert row.prod_vertex >= 1 - 1e-6


def test_report_csv_shape(p3):
    text = report_csv([duality_report(p3, "P3")])
    lines = text.strip().splitlines()
    assert lines[0] == "graph,n,m,econg,espars,vcong,vspars,sep_size,prod_edge,prod_vertex"
    assert lines[1].startswith("P3,3,2,")


def test_duality_gap_ratios():
    import math

    row = duality_report(generate("gnp_connected", (8, 45), seed=1), "g")
    assert row.gap_edge == pytest.approx(row.prod_edge / math.log(8))
    assert row.gap_vertex is not None
    k5 = duality_report(generate("complete", (5,)), "K5")
    assert k5.gap_vertex is None
