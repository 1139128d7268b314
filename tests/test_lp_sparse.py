"""Sparse {column: coefficient} rows, and the lazy import of scipy.optimize."""

import os
import subprocess
import sys

import numpy as np
import pytest

import stringsep
from stringsep.congestion import _aggregated_lp
from stringsep.graphs import generate
from stringsep.lp import LpProblem, lp_solve


def _dense_twin(p: LpProblem) -> LpProblem:
    twin = LpProblem(p.objective, p.sense)
    for coeffs, rel, rhs in p.rows:
        row = np.zeros(p.n_vars)
        for j, c in coeffs.items():
            row[j] = c
        twin.add(row, rel, rhs)
    return twin


def _assert_same_solution(p: LpProblem) -> None:
    s, t = lp_solve(p), lp_solve(_dense_twin(p))
    assert s.status == t.status
    if s.status == "optimal":
        assert abs(s.value - t.value) < 1e-9
        assert np.allclose(s.duals, t.duals, atol=1e-9)


def test_dict_rows_match_dense_twin():
    rng = np.random.default_rng(5)
    statuses = set()
    for _ in range(80):
        n = int(rng.integers(1, 6))
        p = LpProblem(rng.integers(-4, 5, n).astype(float), "max" if rng.integers(2) else "min")
        for _ in range(int(rng.integers(1, 6))):
            cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            row = {int(j): float(rng.integers(-4, 5)) for j in cols}
            p.add(row, ["<=", ">=", "="][int(rng.integers(3))], float(rng.integers(-3, 8)))
        _assert_same_solution(p)
        statuses.add(lp_solve(p).status)
    assert statuses >= {"optimal", "infeasible", "unbounded"}


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_congestion_lp_matches_dense_twin(mode):
    lp, _, _ = _aggregated_lp(generate("grid", (3, 3)), mode)
    _assert_same_solution(lp)


def test_dict_row_column_out_of_range():
    p = LpProblem(np.array([1.0, 1.0]), "max")
    with pytest.raises(ValueError):
        p.add({2: 1.0}, "<=", 1)
    with pytest.raises(ValueError):
        p.add({-1: 1.0}, "<=", 1)
    p.add({1: 1.0}, "<=", 1)
    assert len(p.rows) == 1


def test_separator_does_not_import_scipy_optimize():
    # scipy.optimize costs memory on import and only the LPs need it
    code = (
        "import sys, stringsep\n"
        "from stringsep.graphs import generate\n"
        "stringsep.find_separator(generate('grid', (4, 4)), seed=1)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(stringsep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
