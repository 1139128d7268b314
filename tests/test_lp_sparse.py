"""Sparse rows from {column: coefficient} dicts, blocks of rows, the
array-built congestion LP against the dict-built one, and the lazy import
of scipy.optimize."""

import os
import subprocess
import sys

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import coo_array, csr_array

import stringsep
from stringsep.congestion import _aggregated_lp
from stringsep.graphs import generate, graph_from_pairs
from stringsep.lp import LpProblem, lp_solve

from .conftest import connected_graphs
from .oracles import dense_rows, dict_aggregated_lp


def _dense_twin(p: LpProblem) -> LpProblem:
    twin = LpProblem(p.objective)
    for row, rel, rhs in dense_rows(p):
        twin.add_rows(row[None], rel, rhs)
    return twin


def _assert_same_solution(p: LpProblem) -> None:
    s, t = lp_solve(p), lp_solve(_dense_twin(p))
    assert s.status == t.status
    if s.status == "optimal":
        assert abs(s.value - t.value) < 1e-9
        assert np.allclose(s.duals, t.duals, atol=1e-9)


def test_dict_rows_match_dense_twin():
    # each dict row becomes a one-row sparse block; a max objective and a
    # ">=" row are negated into the one form LpProblem takes
    rng = np.random.default_rng(5)
    statuses = set()
    for _ in range(80):
        n = int(rng.integers(1, 6))
        obj = rng.integers(-4, 5, n).astype(float)
        p = LpProblem(-obj if rng.integers(2) else obj)
        for _ in range(int(rng.integers(1, 6))):
            cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            row = {int(j): float(rng.integers(-4, 5)) for j in cols}
            rel, rhs = ["<=", ">=", "="][int(rng.integers(3))], float(rng.integers(-3, 8))
            flip = -1.0 if rel == ">=" else 1.0
            vals = [flip * v for v in row.values()]
            block = coo_array((vals, ([0] * len(row), list(row))), shape=(1, n))
            p.add_rows(block, "=" if rel == "=" else "<=", flip * rhs)
        _assert_same_solution(p)
        statuses.add(lp_solve(p).status)
    assert statuses >= {"optimal", "infeasible", "unbounded"}


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_congestion_lp_matches_dense_twin(mode):
    lp = _aggregated_lp(generate("grid", (3, 3)), mode)
    _assert_same_solution(lp)


class _Handed(Exception):
    """Raised by the stand-in for linprog once it has its arguments."""


def _linprog_inputs(p: LpProblem) -> dict:
    """What lp_solve hands to linprog: each array as (dtype, shape, bytes),
    each sparse matrix as its CSR (indptr, indices, data) and its shape,
    the other arguments as they are."""
    seen = {}

    def spy(c, **kw):
        seen.update(kw, c=c)
        raise _Handed

    with patch("scipy.optimize.linprog", spy), pytest.raises(_Handed):
        lp_solve(p)
    out = {}
    for key, val in seen.items():
        if isinstance(val, csr_array):
            assert val.has_sorted_indices
            parts = (val.indptr, val.indices, val.data)
            out[key] = tuple((a.dtype.str, a.shape, a.tobytes()) for a in parts)
            out[key + ".shape"] = val.shape
        elif isinstance(val, np.ndarray):
            out[key] = (val.dtype.str, val.shape, val.tobytes())
        else:
            out[key] = val
    return out


def _assert_same_linprog_inputs(g) -> None:
    for mode in ("edge", "vertex"):
        handed = _linprog_inputs(_aggregated_lp(g, mode))
        assert handed == _linprog_inputs(dict_aggregated_lp(g, mode))
        assert {"c", "A_ub", "b_ub", "A_eq", "b_eq"} <= handed.keys()


def _star(n):
    return graph_from_pairs(n, [(0, i) for i in range(1, n)])


FAMILIES = (
    [generate("path", (n,)) for n in (2, 3, 5, 8)]
    + [_star(n) for n in (3, 4, 7)]
    + [generate("cycle", (n,)) for n in (3, 4, 7)]
    + [generate("complete", (n,)) for n in (2, 4, 6)]
    + [generate("grid", ab) for ab in ((1, 4), (2, 3), (3, 4), (4, 5))]
)


@pytest.mark.parametrize("g", FAMILIES, ids=lambda g: f"n{g.n}m{g.m}")
def test_array_lp_hands_linprog_the_dict_lp(g):
    _assert_same_linprog_inputs(g)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_n=2, max_n=9))
def test_array_lp_hands_linprog_the_dict_lp_random(g):
    _assert_same_linprog_inputs(g)


def _error(fn, *args):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


def test_add_rows_error_messages():
    p = LpProblem(np.array([1.0, 1.0, 1.0]))
    for block in (np.ones((2, 2)), coo_array(np.ones((1, 4))), np.ones(3)):
        assert _error(p.add_rows, block, "<=", 1.0) == "coefficient vector length mismatch"
    for rhs in (np.inf, -np.inf, np.nan, [1.0, np.inf]):
        assert _error(p.add_rows, np.ones((2, 3)), "<=", rhs) == "bounds must be finite"
    for rel in ("<>", "==", "<", ">="):
        assert _error(p.add_rows, np.ones((2, 3)), rel, 0.0) == f"bad relation {rel!r}"
    assert _error(p.add_rows, np.ones((2, 3)), "<=", [1.0, 2.0, 3.0]) == "one rhs per row required"
    assert len(p.rows) == 0


def test_separator_does_not_import_scipy_optimize():
    # scipy.optimize costs memory on import and only lp_solve needs it: the
    # separator pipeline must not load it, nor may importing the congestion
    # module and assembling its LP, rows and matrix included
    code = (
        "import sys, stringsep\n"
        "from stringsep import congestion, lp\n"
        "from stringsep.graphs import generate\n"
        "stringsep.find_separator(generate('grid', (4, 4)), seed=1)\n"
        "for mode in ('edge', 'vertex'):\n"
        "    p = congestion._aggregated_lp(generate('grid', (3, 3)), mode)\n"
        "    assert len(p.rows) == lp._row_matrix(p).shape[0] > 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(stringsep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
