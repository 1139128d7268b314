import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringsep import embedding
from stringsep.embedding import (
    Embedding,
    _mix,
    _mix_block,
    _seed_words,
    best_embedding,
    bourgain_sample,
    default_trials,
    lipschitz_defect,
    scale_count,
)
from stringsep.cuts import find_separator
from stringsep.errors import ContractViolation
from stringsep.experiments import drawing_conflict_experiment, duality_report
from stringsep.geometry import intersection_graph, random_segment_instance
from stringsep.graphs import generate
from stringsep.metrics import shortest_path_metric

from .conftest import connected_graphs
from .oracles import column_sample, pairwise_best_embedding, scalar_mix


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


def test_bad_seeds():
    d = np.ones((3, 3)) - np.eye(3)
    for seed in (-1, -(2**70), 1.5, np.float64(2.0), "1", None):
        with pytest.raises(ContractViolation, match="^seed must be"):
            bourgain_sample(d, seed)
    for seed in (1.5, np.float64(2.0), "1", None):
        with pytest.raises(ContractViolation, match="^seed must be an integer"):
            best_embedding(d, 3, seed)
    # best_embedding takes any integer: _mix reduces it mod 2^64
    assert best_embedding(d, 3, np.int64(-5)) == best_embedding(d, 3, -5)
    assert bourgain_sample(d, np.uint64(2**64 - 1)) == bourgain_sample(d, 2**64 - 1)


P3 = shortest_path_metric(generate("path", (3,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_metric_is_refused(bad):
    d = P3.copy()
    d[0, 2] = d[2, 0] = bad
    with pytest.raises(ContractViolation, match="^metric entries must be finite$"):
        best_embedding(d, 5, 0)
    with pytest.raises(ContractViolation, match="^metric entries must be finite$"):
        bourgain_sample(d, 0)
    with pytest.raises(ContractViolation, match="^values and metric entries must be finite$"):
        lipschitz_defect(d, [0, 1, 2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_lipschitz_defect_refuses_non_finite_values(bad):
    with pytest.raises(ContractViolation, match="^values and metric entries must be finite$"):
        lipschitz_defect(P3, [0, bad, 1])


@pytest.mark.parametrize("values", [[0, 1], [0, 1, 2, 3], [[0, 1, 2]]])
def test_lipschitz_defect_refuses_a_value_count_other_than_n(values):
    with pytest.raises(ContractViolation, match="^need one value per point, got"):
        lipschitz_defect(P3, values)
    assert lipschitz_defect(P3, [0, 1, 2]) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda seed: random_segment_instance(5, seed),
        lambda seed: generate("gnp_connected", (5, 50), seed=seed),
        lambda seed: generate("path", (3,), seed=seed),
        lambda seed: drawing_conflict_experiment(generate("path", (3,)), 3, seed),
        lambda seed: find_separator(generate("path", (3,)), seed=seed),
        lambda seed: duality_report(generate("path", (3,)), seed=seed),
        lambda seed: best_embedding(P3, 3, seed),
        lambda seed: bourgain_sample(P3, seed),
    ],
    ids=["random_segment_instance", "generate-gnp", "generate-path",
         "drawing_conflict_experiment", "find_separator", "duality_report", "best_embedding",
         "bourgain_sample"],
)
@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "1"], ids=["float", "np.float64", "str"])
def test_seeded_entry_points_refuse_a_non_integer_seed(call, seed):
    # the message names the caller's value, not one derived from it
    want = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ContractViolation, match=want):
        call(seed)


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


def _segment_core_metric(count, span, seed):
    g, _ = intersection_graph(random_segment_instance(count, seed=seed, span=span))
    giant = max(g.components(), key=len)
    core, _ = g.induced(sorted(giant))
    return shortest_path_metric(core)


@pytest.mark.parametrize("count,span,seed", [(100, 80, 1), (80, 60, 2), (40, None, 3)])
def test_best_embedding_matches_pairwise_oracle_on_segment_cores(count, span, seed):
    d = _segment_core_metric(count, span, seed)
    trials = default_trials(d.shape[0])
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


def _with_block_rows(rows, n):
    """best_embedding's block budget cut to `rows` trial rows of n values."""
    return mock.patch.object(embedding, "_BLOCK_ELEMS", rows * n)


@pytest.mark.parametrize("rows", [1, 3])
@settings(max_examples=30)
@given(connected_graphs(max_n=12), st.integers(0, 2**62), st.integers(1, 40))
def test_small_blocks_match_pairwise_oracle(rows, g, seed, trials):
    d = shortest_path_metric(g)
    with _with_block_rows(rows, g.n):
        got = best_embedding(d, trials, seed)
    assert got == pairwise_best_embedding(d, trials, seed)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("count,span,seed", [(100, 80, 1), (40, None, 3)])
def test_small_blocks_match_pairwise_oracle_on_segment_cores(rows, count, span, seed):
    d = _segment_core_metric(count, span, seed)
    trials = default_trials(d.shape[0])
    with _with_block_rows(rows, d.shape[0]):
        got = best_embedding(d, trials, seed)
    assert got == pairwise_best_embedding(d, trials, seed)


def _first_top_trial(d, trials, seed):
    spreads = [bourgain_sample(d, _mix(seed, t)).spread() for t in range(trials)]
    return spreads.index(max(spreads))


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize(
    "kind,shape,scale,seed", [("grid", (6, 7), 1 / 3, 1), ("path", (30,), 0.1, 4)]
)
def test_blocks_score_non_integer_metrics_like_spread(rows, kind, shape, scale, seed):
    # scaled hop distances: many trials tie in exact arithmetic but not in
    # float64, so a score that rounds differently from Embedding.spread() (one
    # BLAS product for a 3-row block does, here) picks another trial
    d = shortest_path_metric(generate(kind, shape)) * scale
    trials = default_trials(d.shape[0])
    want = bourgain_sample(d, _mix(seed, _first_top_trial(d, trials, seed)))
    budget = rows * d.shape[0] if rows else embedding._BLOCK_ELEMS
    with mock.patch.object(embedding, "_BLOCK_ELEMS", budget):
        assert best_embedding(d, trials, seed) == want


@pytest.mark.parametrize("seed", [3, 4])  # first top trial 0; 7, tied within its block
def test_tied_top_spread_keeps_the_lowest_trial_across_blocks(seed):
    # two points: a trial spreads 1 exactly when one point is an anchor, so
    # about a quarter of the trials tie at the top
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    trials, rows = 24, 3
    spreads = [bourgain_sample(d, _mix(seed, t)).spread() for t in range(trials)]
    top = [t for t, s in enumerate(spreads) if s == max(spreads)]
    assert len({t // rows for t in top}) >= 2  # the tie spans blocks
    for r in (1, rows, trials):
        with _with_block_rows(r, 2):
            assert best_embedding(d, trials, seed) == bourgain_sample(d, _mix(seed, top[0]))
    # every prefix of the trials, so the last block is often partial: the
    # first maximum among exactly those trials wins
    with _with_block_rows(rows, 2):
        for count in range(1, trials + 1):
            first = spreads.index(max(spreads[:count]))
            assert best_embedding(d, count, seed) == bourgain_sample(d, _mix(seed, first))


def test_best_embedding_memory_does_not_grow_with_trials():
    d = shortest_path_metric(generate("path", (20,)))
    rows = embedding._BLOCK_ELEMS // 20

    def peak(trials):
        tracemalloc.start()
        try:
            best_embedding(d, trials, 11)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = peak(rows)
    assert peak(20_000) <= one_block + 64 * 1024
    # the block, its sorted copy and their scores
    assert one_block <= 3 * 8 * embedding._BLOCK_ELEMS


SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _reference_words(x):
    return np.random.SeedSequence((int(x), 431)).generate_state(4, np.uint64)


def test_seed_words_match_seed_sequence_at_the_word_edges():
    got = _seed_words(np.array(SEED_EDGES, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (len(SEED_EDGES), 4)
    for x, row in zip(SEED_EDGES, got):
        assert row.tolist() == _reference_words(x).tolist()


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_seed_words_match_seed_sequence(xs):
    got = _seed_words(np.array(xs, dtype=np.uint64))
    assert [row.tolist() for row in got] == [_reference_words(x).tolist() for x in xs]


@given(
    st.one_of(st.integers(-(2**80), -1), st.integers(2**64, 2**80), st.integers(-(2**64), 2**64)),
    st.integers(0, 2**20),
    st.integers(1, 40),
)
def test_mix_block_matches_scalar_mix(seed, start, count):
    got = _mix_block(seed, start, count)
    assert got.dtype == np.uint64
    want = [scalar_mix(seed, t) for t in range(start, start + count)]
    assert got.tolist() == want
    assert [_mix(seed, t) for t in range(start, start + count)] == want


def _block_draws(d, trials, seed, rows):
    """(j, anchors, f) of every trial best_embedding scores, with a budget of
    `rows` trial rows."""
    draws = []
    sample = embedding._sample

    def record(d, rng, out):
        j, members, f = sample(d, rng, out)
        draws.append((j, frozenset(np.flatnonzero(members).tolist()), tuple(f.tolist())))
        return j, members, f

    with _with_block_rows(rows, d.shape[0]), mock.patch.object(embedding, "_sample", record):
        best_embedding(d, trials, seed)
    return draws[:-1]  # the last draw is the winner's, drawn again


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("seed", [0, -7, 2**64 + 1, 2**32 - 1])
def test_block_trials_draw_their_own_streams(rows, seed):
    # every prefix of 10 trials, so with 3 rows the last block is often partial
    d = shortest_path_metric(generate("grid", (3, 4)))
    want = [bourgain_sample(d, _mix(seed, t)) for t in range(10)]
    want = [(e.scale_index, e.anchors, e.values) for e in want]
    for trials in range(1, 11):
        assert _block_draws(d, trials, seed, rows) == want[:trials]


def _assert_rows_match_columns(d):
    # the same draws from the same stream, and f equal bit for bit
    n = d.shape[0]
    for seed in range(60):
        f, want = np.empty(n), np.empty(n)
        j, members, _ = embedding._sample(d, np.random.default_rng((seed, 431)), f)
        wj, wmembers, _ = column_sample(d, np.random.default_rng((seed, 431)), want)
        assert (j, members.tobytes(), f.tobytes()) == (wj, wmembers.tobytes(), want.tobytes())


@settings(max_examples=40)
@given(connected_graphs(max_n=12))
def test_sample_rows_match_column_reference(g):
    _assert_rows_match_columns(shortest_path_metric(g))


@pytest.mark.parametrize("kind,shape,scale", [("grid", (6, 7), 1 / 3), ("path", (30,), 0.1)])
def test_sample_rows_match_column_reference_on_scaled_metrics(kind, shape, scale):
    _assert_rows_match_columns(shortest_path_metric(generate(kind, shape)) * scale)


@pytest.mark.parametrize("count,span,seed", [(100, 80, 1), (80, 60, 2), (40, None, 3)])
def test_sample_rows_match_column_reference_on_segment_cores(count, span, seed):
    _assert_rows_match_columns(_segment_core_metric(count, span, seed))
