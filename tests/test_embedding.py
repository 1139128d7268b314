import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringsep.embedding import (
    Embedding,
    best_embedding,
    bourgain_sample,
    default_trials,
    lipschitz_defect,
    scale_count,
)
from stringsep.errors import ContractViolation
from stringsep.geometry import intersection_graph, random_segment_instance
from stringsep.graphs import generate
from stringsep.metrics import shortest_path_metric

from .conftest import connected_graphs
from .oracles import pairwise_best_embedding


def test_scale_count():
    assert scale_count(2) == 1
    assert scale_count(8) == 3
    assert scale_count(9) == 4
    assert scale_count(32) == 5


def test_two_points():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    seen = set()
    for seed in range(64):
        e = bourgain_sample(d, seed)
        seen.add(e.anchors)
        if e.anchors == frozenset({0}):
            assert e.values == (0.0, 1.0)
        if not e.anchors:
            assert e.values == (0.0, 0.0)  # the documented degenerate rule
    assert frozenset({0}) in seen and frozenset() in seen


@settings(max_examples=30)
@given(connected_graphs(max_n=10), st.integers(0, 2**62))
def test_always_lipschitz(g, seed):
    d = shortest_path_metric(g)
    e = bourgain_sample(d, seed)
    assert lipschitz_defect(d, e.values) <= 1e-12


def test_deterministic():
    d = shortest_path_metric(generate("grid", (3, 3)))
    assert bourgain_sample(d, 99) == bourgain_sample(d, 99)
    a = best_embedding(d, 40, 5)
    b = best_embedding(d, 40, 5)
    assert a == b


def test_best_spreads_uniform_metric():
    d = np.ones((4, 4)) - np.eye(4)
    e = best_embedding(d, 30, 0)
    assert not e.is_constant and e.spread() > 0


def test_single_trial_matches_derived_stream():
    d = shortest_path_metric(generate("path", (5,)))
    from stringsep.embedding import _mix

    assert best_embedding(d, 1, 7) == bourgain_sample(d, _mix(7, 0))


def test_p8_spread_regression():
    # frozen calibration: 200 trials on the 8-path reach at least sum(d) * c
    # with c = 0.9 observed (the log^2 floor would only need 1/16)
    g = generate("path", (8,))
    d = shortest_path_metric(g)
    e = best_embedding(d, 200, 12345)
    total = float(np.triu(d, 1).sum())
    assert e.spread() >= 0.9 * total
    assert e.spread() >= total / (scale_count(8) + 1) ** 2


def test_default_trials():
    assert default_trials(8) == 50 * 4
    assert default_trials(9) == 50 * 5


def test_bad_inputs():
    with pytest.raises(ContractViolation):
        bourgain_sample(np.zeros((1, 1)), 0)
    with pytest.raises(ContractViolation):
        best_embedding(np.zeros((3, 3)), 0, 0)


def test_success_probability_floor_small():
    # empirical check of the per-pair event on one metric at modest volume;
    # the acceptance suite runs the full 5000-sample version across 10 metrics
    g = generate("gnp_connected", (9, 40), seed=4)
    d = shortest_path_metric(g)
    k = scale_count(g.n)
    delta = d / (2 * k - 1)
    n_samples = 800
    hits = np.zeros_like(d)
    for t in range(n_samples):
        f = np.asarray(bourgain_sample(d, 1000 + t).values)
        hits += np.abs(f[:, None] - f[None, :]) >= delta - 1e-12
    freq = hits / n_samples
    np.fill_diagonal(freq, 1.0)
    assert freq.min() >= 0.02 / (k + 1)


@settings(max_examples=40)
@given(connected_graphs(max_n=12), st.integers(0, 2**62), st.integers(1, 60))
def test_best_embedding_matches_pairwise_oracle(g, seed, trials):
    d = shortest_path_metric(g)
    assert best_embedding(d, trials, seed) == pairwise_best_embedding(d, trials, seed)


@pytest.mark.parametrize("count,span,seed", [(100, 80, 1), (80, 60, 2), (40, None, 3)])
def test_best_embedding_matches_pairwise_oracle_on_segment_cores(count, span, seed):
    g, _ = intersection_graph(random_segment_instance(count, seed=seed, span=span))
    giant = max(g.components(), key=len)
    core, _ = g.induced(sorted(giant))
    d = shortest_path_metric(core)
    trials = default_trials(core.n)
    assert best_embedding(d, trials, seed) == pairwise_best_embedding(d, trials, seed)


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=40))
def test_spread_is_the_pairwise_sum(values):
    v = np.asarray(values, dtype=float)
    emb = Embedding(tuple(v.tolist()), 0, 0, frozenset())
    assert emb.spread() == float(np.abs(v[:, None] - v[None, :]).sum()) / 2.0


@given(st.lists(st.floats(0, 100), min_size=1, max_size=40))
def test_spread_of_fractional_values_within_rounding(values):
    # summed in another order, so only equal up to float64 rounding
    v = np.asarray(values)
    emb = Embedding(tuple(values), 0, 0, frozenset())
    pairwise = float(np.abs(v[:, None] - v[None, :]).sum()) / 2.0
    assert emb.spread() == pytest.approx(pairwise, rel=1e-12, abs=1e-9)
