import hashlib
import math
import re
import tracemalloc
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stringsep import geometry
from stringsep.errors import ContractViolation, ParseError, StandardnessError
from stringsep.geometry import (
    PolylineCurve,
    SegmentRelation,
    StringRepresentation,
    _coords,
    _meeting,
    _meeting_keys,
    _segment_pairs,
    intersection_graph,
    orientation,
    parse_strings_file,
    random_segment_instance,
    segments_intersect,
    sq_dist_segments,
    validate_standardness,
    write_strings_file,
)

from .oracles import (
    curve_pair_points,
    fraction_curve_pair_points,
    fraction_intersection_graph,
    on_segment,
    scan_meeting,
    scan_meeting_keys,
    scan_random_segment_instance,
    scan_segments_intersect,
    scan_validate_curve,
    segment_shared_point,
)

coord = st.integers(-50, 50)
point = st.tuples(coord, coord)


def seg(a, b, c, d):
    return (a, b), (c, d)


def test_classification_examples():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0)) is SegmentRelation.PROPER_CROSSING
    assert segments_intersect((0, 0), (1, 0), (2, 0), (3, 0)) is SegmentRelation.DISJOINT
    assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0)) is SegmentRelation.OVERLAPPING
    assert segments_intersect((0, 0), (2, 0), (2, 0), (2, 5)) is SegmentRelation.TOUCHING
    assert segments_intersect((0, 0), (4, 0), (2, 0), (2, 5)) is SegmentRelation.TOUCHING
    assert segments_intersect((0, 0), (4, 4), (2, 2), (5, 0)) is SegmentRelation.TOUCHING


@given(point, point, point, point)
def test_symmetry(p, q, r, s):
    if p == q or r == s:
        return
    rel = segments_intersect(p, q, r, s)
    assert segments_intersect(r, s, p, q) is rel
    assert segments_intersect(q, p, r, s) is rel
    assert segments_intersect(p, q, s, r) is rel


@given(point, point, point, point, st.tuples(coord, coord))
def test_translation_invariance(p, q, r, s, t):
    if p == q or r == s:
        return
    shift = lambda a: (a[0] + t[0], a[1] + t[1])
    assert segments_intersect(p, q, r, s) is segments_intersect(
        shift(p), shift(q), shift(r), shift(s)
    )


def test_shared_point_exact():
    pt = segment_shared_point((0, 0), (3, 3), (0, 3), (3, 0))
    assert pt == (Fraction(3, 2), Fraction(3, 2))
    pt = segment_shared_point((0, 0), (2, 1), (1, 0), (1, 5))
    assert pt == (Fraction(1), Fraction(1, 2))


def test_sq_dist_segments():
    assert sq_dist_segments((0, 0), (1, 0), (3, 0), (4, 0)) == 4
    assert sq_dist_segments((0, 0), (1, 0), (0, 1), (1, 1)) == 1
    assert sq_dist_segments((0, 0), (2, 2), (0, 2), (2, 0)) == 0
    # a single point on either side, or on both
    assert sq_dist_segments((1, 0), (1, 0), (0, 0), (2, 0)) == 0
    assert sq_dist_segments((0, 0), (2, 0), (1, 3), (1, 3)) == 9
    assert sq_dist_segments((50, 1), (50, 1), (0, 0), (100, 1)) == Fraction(2500, 10001)
    assert sq_dist_segments((0, 0), (0, 0), (3, 4), (3, 4)) == 25


def test_curve_simplicity():
    PolylineCurve("ok", ((0, 0), (5, 0), (5, 5))).validate()
    with pytest.raises(ContractViolation):
        PolylineCurve("dup", ((0, 0), (0, 0))).validate()
    with pytest.raises(ContractViolation):  # doubles back over itself
        PolylineCurve("back", ((0, 0), (5, 0), (2, 0))).validate()
    with pytest.raises(ContractViolation):  # figure-eight self crossing
        PolylineCurve("self", ((0, 0), (4, 0), (4, 4), (2, -2))).validate()


def test_intersection_graph_path(p3):
    rep = StringRepresentation(
        (
            PolylineCurve("a", ((0, 0), (4, 0))),
            PolylineCurve("b", ((1, -1), (1, 1))),
            PolylineCurve("c", ((3, -1), (3, 1))),
        )
    )
    g, counts = intersection_graph(rep)
    assert g == p3.__class__(3, ((0, 1), (0, 2)))
    assert counts == {(0, 1): 1, (0, 2): 1}


def test_intersection_graph_k2_and_empty():
    g, counts = intersection_graph(
        StringRepresentation(
            (PolylineCurve("a", ((0, 0), (2, 2))), PolylineCurve("b", ((0, 2), (2, 0))))
        )
    )
    assert g.m == 1 and counts == {(0, 1): 1}
    g, counts = intersection_graph(
        StringRepresentation(
            (
                PolylineCurve("a", ((0, 0), (1, 0))),
                PolylineCurve("b", ((0, 2), (1, 2))),
                PolylineCurve("c", ((0, 4), (1, 4))),
            )
        )
    )
    assert g.n == 3 and g.m == 0 and counts == {}


def test_standardness_rejects_overlap():
    rep = StringRepresentation(
        (PolylineCurve("a", ((0, 0), (4, 0))), PolylineCurve("b", ((2, 0), (6, 0))))
    )
    with pytest.raises(StandardnessError) as err:
        validate_standardness(rep)
    assert "a" in str(err.value) and "b" in str(err.value)


def test_standardness_rejects_triple_point():
    rep = StringRepresentation(
        (
            PolylineCurve("a", ((-2, 0), (2, 0))),
            PolylineCurve("b", ((0, -2), (0, 2))),
            PolylineCurve("c", ((-2, -2), (2, 2))),
        )
    )
    with pytest.raises(StandardnessError) as err:
        validate_standardness(rep)
    assert "triple" in str(err.value)


def test_parse_strings_file_errors_carry_the_line():
    with pytest.raises(ParseError) as err:
        parse_strings_file("a: 0 0 1 1\n\nb: 0 x 1 1\n")
    assert err.value.line == 3 and str(err.value) == "line 3: coordinates must be integers"
    # a repeated id is refused on its second line
    with pytest.raises(ParseError) as err:
        parse_strings_file("a: 0 0 1 1\nb: 0 1 1 0\n a : 2 2 3 3\n")
    assert err.value.line == 3 and str(err.value) == "line 3: repeated curve id 'a'"


id_text = st.text(
    st.one_of(st.sampled_from("a:# \t\n\r\x0b\x0c\x1c\x85\u2028\xa0"), st.characters()),
    max_size=5,
)


@settings(max_examples=400)
@given(id_text)
def test_write_strings_file_refuses_exactly_the_ids_it_cannot_read_back(label):
    rep = StringRepresentation((PolylineCurve(label, ((0, 0), (1, 1))),))
    line = f"{label}: 0 0 1 1\n"  # the line the writer would write
    try:
        readable = parse_strings_file(line).curves == rep.curves
    except ParseError:
        readable = False
    if readable:
        assert write_strings_file(rep) == line
    else:
        with pytest.raises(ContractViolation, match=re.escape(repr(label))):
            write_strings_file(rep)


@pytest.mark.parametrize("label", ["a:b", ":", "a\nb", "a\rb", "a\u2028b", " a", "a ", "a\n"])
def test_write_strings_file_refuses_examples(label):
    rep = StringRepresentation((PolylineCurve(label, ((0, 0), (1, 1))),))
    with pytest.raises(ContractViolation, match=re.escape(repr(label))):
        write_strings_file(rep)


def test_write_strings_file_round_trips():
    # the empty id included
    rep = StringRepresentation(
        (PolylineCurve("", ((0, 0), (1, 1))), PolylineCurve("b c", ((0, 1), (1, 0))),
         PolylineCurve("#x", ((5, 5), (6, 7), (8, 5))))
    )
    text = write_strings_file(rep)
    assert text == ": 0 0 1 1\n#x: 5 5 6 7 8 5\nb c: 0 1 1 0\n"
    assert parse_strings_file(text).sorted_curves() == rep.sorted_curves()


def test_random_instance_standard():
    rep = random_segment_instance(20, seed=7)
    assert len(rep.curves) == 20
    g, _ = intersection_graph(rep)  # validates standardness internally
    assert g.n == 20


def test_random_instance_deterministic():
    a = random_segment_instance(12, seed=3)
    b = random_segment_instance(12, seed=3)
    assert [c.points for c in a.curves] == [c.points for c in b.curves]


def test_random_instance_trivial_and_errors():
    rep = random_segment_instance(1, seed=0)
    g, _ = intersection_graph(rep)
    assert g.n == 1 and g.m == 0
    with pytest.raises(ContractViolation):
        random_segment_instance(0, seed=0)
    with pytest.raises(ContractViolation, match="^seed must be non-negative, got -1$"):
        random_segment_instance(5, seed=-1, span=4)


def test_random_instance_rejects_span_below_one():
    for span in (0, -1, -5):
        with pytest.raises(ContractViolation, match="^span must be >= 1$"):
            random_segment_instance(5, seed=0, span=span)
    assert len(random_segment_instance(5, seed=0, span=1).curves) == 5


# small grids make shared endpoints, corners, collinear overlaps and
# concurrent crossings common; the wider one gives crossings with large
# denominators
grid_point = st.tuples(st.integers(0, 4), st.integers(0, 4))
wide_point = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


def _rep(point_lists):
    return StringRepresentation(
        tuple(PolylineCurve(f"c{i}", tuple(pts)) for i, pts in enumerate(point_lists))
    )


def _outcome(fn, rep):
    try:
        return fn(rep)
    except (ContractViolation, StandardnessError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(st.lists(st.lists(grid_point, min_size=2, max_size=3), min_size=1, max_size=6))
def test_intersection_graph_matches_fraction_oracle(point_lists):
    rep = _rep(point_lists)
    assert _outcome(intersection_graph, rep) == _outcome(fraction_intersection_graph, rep)


ORACLE_EXAMPLES = pytest.mark.parametrize(
    "point_lists",
    [
        [[(0, 0), (4, 0)], [(4, 0), (4, 4)], [(0, 0), (0, 4)]],  # shared endpoints only
        [[(0, 0), (2, 2), (4, 0)], [(2, 2), (2, 4)]],  # a corner on another curve
        [[(0, 0), (4, 0)], [(2, 0), (2, 3), (5, 3), (5, 0), (3, 0)]],  # collinear overlap
        [[(0, 0), (4, 4)], [(0, 4), (4, 0)], [(2, 0), (2, 4)]],  # three through (2, 2)
        # two triple points in one pair: the reported one is the oracle's
        [[(0, 0), (1, 2), (2, 0), (3, 2), (4, 0)], [(0, 4), (1, 2), (2, 4), (3, 2), (4, 4)],
         [(0, 2), (4, 2)]],
        [[(0, 0), (6, 3)], [(0, 3), (6, 0)], [(1, 0), (5, 3)]],  # crossings at thirds
        # c0, c1, c2 meet at (10, 0), and c3, c4 overlap further left: the
        # sweep meets c3-c4 first, but the triple point of (c0, c2) comes
        # first in pair order
        [[(8, 0), (12, 0)], [(10, -2), (10, 2)], [(8, -2), (12, 2)], [(0, 5), (4, 5)],
         [(2, 5), (6, 5)]],
    ],
    ids=["endpoints", "corner", "overlap", "concurrent", "two-triples", "rational",
         "triple-before-overlap"],
)


@ORACLE_EXAMPLES
def test_intersection_graph_matches_fraction_oracle_examples(point_lists):
    rep = _rep(point_lists)
    assert _outcome(intersection_graph, rep) == _outcome(fraction_intersection_graph, rep)


@settings(max_examples=200)
@given(
    st.lists(wide_point, min_size=2, max_size=4, unique=True),
    st.lists(wide_point, min_size=2, max_size=4, unique=True),
)
def test_point_keys_are_the_exact_fraction_points(a, b):
    c1, c2 = PolylineCurve("a", tuple(a)), PolylineCurve("b", tuple(b))
    _, _, overlap, key = _meeting_keys((c1.segments, c2.segments))
    try:
        want = fraction_curve_pair_points(c1, c2)
    except StandardnessError as exc:
        assert overlap.any()
        with pytest.raises(StandardnessError, match=re.escape(str(exc))):
            curve_pair_points(c1, c2)
        return
    assert not overlap.any()
    keys = key.tolist()
    for x, y, den in keys:
        assert den > 0 and gcd(x, y, den) == 1
    assert {(Fraction(x, den), Fraction(y, den)) for x, y, den in keys} == want
    # same points inserted in the same order, so the sets iterate alike
    assert list(curve_pair_points(c1, c2)) == list(want)


# the 6x6 grid, placed in frames (x, y) -> (base + step x, base + step y)
# that keep every incidence: near 2^29 and spread to +-(2^30 - 1) the screen
# runs in int64, at 2^30 and 2^70 on Python ints; spread to 3 * 2^60 the
# coordinates fit in int64 but their cross products do not
grid6 = st.tuples(st.integers(0, 5), st.integers(0, 5))
SCREEN_FRAMES = [
    (0, 1), (2**29 - 5, 1), (-(2**29), 1), (2**30, 1), (2**70, 1), (-(2**70), 1),
    (-(2**30 - 1), 429496729), (-(2**61), 2**60),
]


def _screened(p, q, r, s):
    """Whether _segment_pairs yields the segments pq and rs, each its own
    curve, as a pair, whose sign row must then be the scalar orientations."""
    ends = _coords([p + q, r + s]).reshape(-1, 4)
    pairs, rows = [], []
    for a, b, signs in _segment_pairs(ends, np.arange(2)):
        pairs += zip(a.tolist(), b.tolist())
        rows += signs.T.tolist()
    assert pairs in ([], [(0, 1)])
    if pairs:
        assert rows == [[orientation(p, q, r), orientation(p, q, s),
                         orientation(r, s, p), orientation(r, s, q)]]
    return bool(pairs)


@pytest.mark.parametrize("base,step", SCREEN_FRAMES)
@settings(max_examples=150)
@given(st.lists(st.tuples(grid6, grid6, grid6, grid6), min_size=1, max_size=20))
def test_segment_pairs_match_segments_intersect(base, step, quads):
    quads = [q for q in quads if q[0] != q[1] and q[2] != q[3]]
    assume(quads)
    for p, q, r, s in ([(base + step * x, base + step * y) for x, y in q] for q in quads):
        want = scan_segments_intersect(p, q, r, s) is not SegmentRelation.DISJOINT
        assert _screened(p, q, r, s) == want
        assert _screened(r, s, p, q) == want


def _assert_meeting_matches_scan(p, q, r, s):
    # every order of the ends of each segment, and of the two segments
    for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r)):
        for quad in ((a, b, c, d), (c, d, a, b)):
            assert _meeting(*quad) == scan_meeting(*quad)


@pytest.mark.parametrize("base,step", SCREEN_FRAMES)
@settings(max_examples=150)
@given(st.lists(st.tuples(grid6, grid6, grid6, grid6), min_size=1, max_size=20))
def test_meeting_matches_scan_meeting(base, step, quads):
    quads = [q for q in quads if q[0] != q[1] and q[2] != q[3]]
    assume(quads)
    for quad in quads:
        _assert_meeting_matches_scan(*((base + step * x, base + step * y) for x, y in quad))


@pytest.mark.parametrize("base,step", SCREEN_FRAMES)
@pytest.mark.parametrize(
    "quad,rel",
    [
        (((0, 0), (2, 0), (2, 0), (5, 0)), SegmentRelation.TOUCHING),  # collinear, end to end
        (((0, 0), (0, 2), (0, 2), (0, 5)), SegmentRelation.TOUCHING),  # the same, vertical
        (((0, 0), (3, 3), (3, 3), (5, 5)), SegmentRelation.TOUCHING),  # the same, diagonal
        (((0, 0), (2, 0), (3, 0), (5, 0)), SegmentRelation.DISJOINT),
        (((0, 0), (3, 0), (2, 0), (5, 0)), SegmentRelation.OVERLAPPING),
        (((0, 0), (5, 0), (1, 0), (3, 0)), SegmentRelation.OVERLAPPING),  # one inside the other
        (((0, 0), (2, 0), (0, 0), (0, 3)), SegmentRelation.TOUCHING),  # a shared endpoint
        (((0, 0), (4, 0), (2, 0), (2, 5)), SegmentRelation.TOUCHING),  # an end inside
        (((0, 0), (4, 0), (2, 1), (2, 5)), SegmentRelation.DISJOINT),
        (((0, 0), (4, 4), (0, 4), (4, 0)), SegmentRelation.PROPER_CROSSING),
        (((0, 0), (5, 1), (1, 2), (3, -3)), SegmentRelation.PROPER_CROSSING),
    ],
)
def test_meeting_matches_scan_meeting_examples(base, step, quad, rel):
    quad = [(base + step * x, base + step * y) for x, y in quad]
    assert segments_intersect(*quad) is rel
    _assert_meeting_matches_scan(*quad)


@pytest.mark.parametrize("base,step", SCREEN_FRAMES)
@settings(max_examples=150)
@given(st.lists(st.tuples(grid6, grid6, grid6), min_size=1, max_size=20))
def test_segment_pairs_one_point_segment_is_on_segment(base, step, triples):
    # a vertex point v as the segment (v, v), on either side of the screen
    triples = [t for t in triples if t[0] != t[1]]
    assume(triples)
    for p, q, v in ([(base + step * x, base + step * y) for x, y in t] for t in triples):
        want = on_segment(p, q, v)
        assert _screened(p, q, v, v) == want
        assert _screened(v, v, p, q) == want


# the 6x6 grid in frames about the int64 bound of the keys: the corners
# reach +-(2^19 - 1) (int64) and -2^19 (Python ints), then +-(2^30 - 1),
# where int64 keys would overflow, and beyond 2^63; each frame's crossings
# have denominators of order step^2
KEY_FRAMES = {
    "unit": (0, 1, np.int64),
    "below-2^19": (-(2**19 - 1), 209714, np.int64),
    "at-2^19": (-(2**19), 209715, object),
    "near-2^30": (-(2**30 - 1), 429496729, object),
    "beyond-2^63": (2**64, 2**40, object),
}
KEY_FRAME_STEPS = pytest.mark.parametrize(
    "base,step", [f[:2] for f in KEY_FRAMES.values()], ids=list(KEY_FRAMES)
)
grid6_segment = st.tuples(grid6, grid6)  # (p, p) is a one-point segment


def _framed(groups, base, step):
    return [[tuple((base + step * x, base + step * y) for x, y in sg) for sg in g] for g in groups]


def _meeting_rows(groups):
    i, j, overlap, key = _meeting_keys(groups)
    rows = zip(i.tolist(), j.tolist(), overlap.tolist(), key.tolist())
    return [(a, b, over, None if over else tuple(k)) for a, b, over, k in rows], key.dtype


# each also in chunks of one box: the signs stay with their pairs across
# the concatenation of the chunks and the sort
PAIR_CHUNKS = (geometry._PAIR_CHUNK, 1)


@KEY_FRAME_STEPS
@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(grid6_segment, min_size=1, max_size=3), min_size=2, max_size=5))
def test_meeting_keys_match_scan_oracle(base, step, groups):
    groups = _framed(groups, base, step)
    want = scan_meeting_keys(groups)
    for chunk in PAIR_CHUNKS:
        with patch.object(geometry, "_PAIR_CHUNK", chunk):
            assert _meeting_rows(groups)[0] == want


@pytest.mark.parametrize("base,step,dtype", KEY_FRAMES.values(), ids=list(KEY_FRAMES))
@pytest.mark.parametrize(
    "groups",
    [
        [[((0, 0), (5, 4))], [((0, 4), (5, 0))], [((1, 0), (4, 5))]],  # crossings at 20ths
        [[((0, 0), (4, 0))], [((4, 0), (5, 0))], [((2, 0), (2, 0))]],  # collinear, a point on it
        [[((0, 0), (4, 0))], [((2, 0), (5, 0))], [((0, 0), (0, 0))]],  # overlap, a point at an end
        [[((0, 5), (0, 5))], [((0, 5), (0, 5)), ((1, 1), (1, 1))]],  # two equal points
    ],
    ids=["crossings", "collinear-touch", "overlap", "points"],
)
def test_meeting_keys_match_scan_oracle_examples(base, step, dtype, groups):
    # each example has a point at x = base, so the frame sets the dtype
    groups = _framed(groups, base, step)
    for chunk in PAIR_CHUNKS:
        with patch.object(geometry, "_PAIR_CHUNK", chunk):
            rows, got_dtype = _meeting_rows(groups)
        assert rows and rows == scan_meeting_keys(groups)
        assert got_dtype == dtype


@KEY_FRAME_STEPS
@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(grid6, min_size=2, max_size=3), min_size=1, max_size=6))
def test_intersection_graph_matches_fraction_oracle_about_the_key_bound(base, step, point_lists):
    rep = _rep([[(base + step * x, base + step * y) for x, y in pts] for pts in point_lists])
    assert _outcome(intersection_graph, rep) == _outcome(fraction_intersection_graph, rep)


@pytest.mark.parametrize("seed", [0, 1, 1001])
@pytest.mark.parametrize(
    "count,span",
    [(1, None), (2, None), (20, None), (60, None), (40, 40), (140, 110), (300, 30),
     (50, 1), (100, 2)],
)
def test_random_instance_matches_scan_oracle(count, span, seed):
    # (60, None) and (140, 110) are the sep_dense and sep_sparse generator
    # sizes; spans 1 and 2 make axis-parallel and unit segments, so zero-width
    # boxes, boxes that share only an edge and collinear touches
    assert random_segment_instance(count, seed, span) == scan_random_segment_instance(
        count, seed, span
    )


# SHA-256 of write_strings_file(random_segment_instance(count, seed, span)),
# taken while the generator still called segments_intersect and on_segment
# for each screened hit: no cheaper test of a hit may change a byte.  (60,
# 1000..1001, None), (140, 1000..1009, 110) and (880, 1000, 207) are
# instances of the benchmark's sep_dense, sep_sparse and embed_giant corpora.
# (1600, 1, 280) and (5000, 1, 494), span int(7 sqrt(count)), were taken
# while each candidate still went through _meets against all placed segments.
GENERATOR_DIGESTS = {
    (1, 0, None): "867d70141e5a20654cc563a08dcd7b142faefa8f783224d162872d1214567668",
    (20, 7, None): "cfdc7a91f09f8208a114f298d140f45b57093aff73b126d71298bc63029374a1",
    (60, 1000, None): "c122a008d2b3e1c3b67d2c98b9b2680d30e970b70a4c763b489edbd7e554afb5",
    (60, 1001, None): "061d707d3041bc0baa2c0f6de030d2d8f5faf83051f70c77a6fb5071222732f1",
    (140, 1000, 110): "442a773a221f23818930301a176c2df9c538bfab655dca9ef5280b9d183f9849",
    (140, 1009, 110): "9460eea864ec5a105afb13e7a1e1c0fb99213434531f9a278c7a6708f223d059",
    (48, 5, 110): "bf4092733e19370ba56c09b5cfe83acdebe919f1348cba3cbf968d91791dfc9b",
    (300, 1, 30): "8cea32e764e79d1f1aae8a652b391ed479c83fd373150f795ca824347c6f9c9b",
    (880, 1000, 207): "f19a2f29af74ee464a5bb79fbe2f1e9ac321cdc33bc65b6ff9187b628c83ca83",
    (1600, 1, 280): "c1350d4a1ecd8a12d44418ef0a5384beaf9ec780c9d7bec5b1fa3a44366c3189",
    (5000, 1, 494): "5d6c11cb4663a8edb760b9dd6e1559db0c020ec30f604b4604b2f5a11d7d1ee4",
}


@pytest.mark.parametrize("count,seed,span", sorted(GENERATOR_DIGESTS, key=str))
def test_random_instance_bytes_unchanged(count, seed, span):
    text = write_strings_file(random_segment_instance(count, seed, span))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[(count, seed, span)]


@pytest.mark.parametrize("base,step", [(0, 1), (2**30, 3), (-(2**70), 2**40)])
@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(grid_point, min_size=2, max_size=5), min_size=1, max_size=6))
def test_intersection_graph_matches_fraction_oracle_far_out(base, step, point_lists):
    rep = _rep([[(base + step * x, base - step * y) for x, y in pts] for pts in point_lists])
    assert _outcome(intersection_graph, rep) == _outcome(fraction_intersection_graph, rep)


def test_stacked_segments_match_fraction_oracle():
    # 2,000 horizontal segments over one x-range: every pair of boxes meets in
    # x, so the pair sweep expands about 2 M candidates in chunks.  Two bent
    # curves cross all of them, and one ends on the lowest and the highest.
    point_lists = [[(0, 2 * i), (4000, 2 * i)] for i in range(2000)]
    point_lists += [[(1000, 0), (1000, 2001), (1002, 3998)], [(3001, 4000), (3001, -1), (3003, -2)]]
    rep = _rep(point_lists)
    g, counts = intersection_graph(rep)
    assert g.m == 4000 and set(counts.values()) == {1}
    assert (g, counts) == fraction_intersection_graph(rep)


@ORACLE_EXAMPLES
def test_pair_sweep_chunks_of_one_box(monkeypatch, point_lists):
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 1)
    rep = _rep(point_lists)
    assert _outcome(intersection_graph, rep) == _outcome(fraction_intersection_graph, rep)


def _validate_outcome(validate, curve):
    try:
        validate(curve)
    except ContractViolation as exc:
        return str(exc)
    return None


def _serpentine(columns):
    """Up and down over a width of 4, one step right between columns."""
    pts = []
    for x in range(columns):
        ys = (0, 4) if x % 2 == 0 else (4, 0)
        pts += [(x, ys[0]), (x, ys[1])]
    return pts


SELF_CROSSING_EXAMPLES = pytest.mark.parametrize(
    "pts",
    [
        [(0, 0), (4, 0), (4, 4), (2, 0)],  # ends on segment 0
        [(0, 0), (5, 0), (2, 0)],  # doubles back
        [(2, 0), (6, 0), (6, 1), (0, 1), (0, 0), (4, 0)],  # collinear overlap
        [(0, 0), (4, 0), (4, 4), (2, 0), (0, 4), (0, 0)],  # crossing, and closed
        _serpentine(40),  # 79 segments, simple
        _serpentine(40) + [(39, -1), (-1, 2)],  # the last segment crosses them all
        _serpentine(40) + [(39, -1), (40, -1), (40, 0), (0, 0)],  # runs along the bottom
    ],
    ids=["touch", "double-back", "overlap", "closed", "serpentine", "serpentine-cross",
         "serpentine-overlap"],
)


@settings(max_examples=600)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=12))
def test_curve_validate_matches_scan_oracle(pts):
    # on a 4x4 grid, touching, doubling back and collinear overlaps are common
    curve = PolylineCurve("c", tuple(pts))
    got = _validate_outcome(PolylineCurve.validate, curve)
    assert got == _validate_outcome(scan_validate_curve, curve)


@SELF_CROSSING_EXAMPLES
def test_curve_validate_matches_scan_oracle_examples(pts):
    curve = PolylineCurve("c", tuple(pts))
    got = _validate_outcome(PolylineCurve.validate, curve)
    assert got == _validate_outcome(scan_validate_curve, curve)


@SELF_CROSSING_EXAMPLES
def test_curve_validate_chunks_of_one_box(monkeypatch, pts):
    # the least crossing pair is kept across the sweep's chunks
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 1)
    curve = PolylineCurve("c", tuple(pts))
    got = _validate_outcome(PolylineCurve.validate, curve)
    assert got == _validate_outcome(scan_validate_curve, curve)


def _star(n):
    # n points of a circle, each chord skipping n // 2 of them, so nearly
    # every two non-adjacent segments cross
    angles = [2 * math.pi * i / n for i in range(n)]
    ring = [(round(1000 * math.cos(t)), round(1000 * math.sin(t))) for t in angles]
    return PolylineCurve("star", tuple(ring[(j * (n // 2)) % n] for j in range(n)))


def test_curve_validate_memory_does_not_grow_with_crossings(monkeypatch):
    # about 45,000 and 500,000 crossing pairs: validate keeps one chunk's
    # worth at a time, not every pair found
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 1 << 12)
    peaks = []
    for n in (301, 1001):
        curve = _star(n)
        tracemalloc.start()
        try:
            got = _validate_outcome(PolylineCurve.validate, curve)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert got == _validate_outcome(scan_validate_curve, curve)
    assert peaks[1] - peaks[0] < 256 * 1024


def test_curve_validate_far_out_serpentine():
    # beyond 2^30 the screen computes on Python ints
    base = 2**62
    pts = [(base + 3 * x, base - 5 * y) for x, y in _serpentine(40) + [(39, -1), (-1, 2)]]
    curve = PolylineCurve("far", tuple(pts))
    assert _validate_outcome(PolylineCurve.validate, curve) == _validate_outcome(
        scan_validate_curve, curve
    ) == "curve far: non-adjacent segments 0,80 intersect"
