"""Solver checks: frozen examples, a vertex-enumeration oracle for tiny
programs, and the mechanical-dual agreement property."""

from itertools import combinations

import numpy as np
import pytest

from stringsep.lp import LpProblem, lp_solve

from .oracles import dense_rows, dual_of


def test_box_max():
    p = LpProblem(np.array([1.0, 1.0]), "max")
    p.add([1, 0], "<=", 1)
    p.add([0, 1], "<=", 2)
    s = lp_solve(p)
    assert s.status == "optimal"
    assert abs(s.value - 3.0) < 1e-9
    assert np.allclose(s.x, [1, 2], atol=1e-9)


def test_unbounded():
    p = LpProblem(np.array([1.0]), "max")
    p.add([-1], "<=", 1)
    assert lp_solve(p).status == "unbounded"


def test_infeasible():
    p = LpProblem(np.array([1.0]), "max")
    p.add([1], "<=", 1)
    p.add([1], ">=", 2)
    assert lp_solve(p).status == "infeasible"


def test_equality_and_min():
    p = LpProblem(np.array([2.0, 3.0]), "min")
    p.add([1, 1], "=", 4)
    p.add([1, 0], ">=", 1)
    s = lp_solve(p)
    assert s.status == "optimal"
    assert abs(s.value - 8.0) < 1e-9  # all weight on the cheap variable


def _brute_force_optimum(p: LpProblem):
    """Enumerate basic points: intersections of n active constraints drawn
    from {rows as equalities} + {x_j = 0}, keep the feasible ones."""
    n = p.n_vars
    rows = dense_rows(p)
    planes = [(c, b) for c, rel, b in rows] + [
        (np.eye(n)[j], 0.0) for j in range(n)
    ]
    best = None
    for chosen in combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in chosen])
        b = np.array([planes[i][1] for i in chosen])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if (x < -1e-9).any():
            continue
        ok = True
        for c, rel, rhs in rows:
            lhs = float(c @ x)
            if rel == "<=" and lhs > rhs + 1e-9:
                ok = False
            elif rel == ">=" and lhs < rhs - 1e-9:
                ok = False
            elif rel == "=" and abs(lhs - rhs) > 1e-9:
                ok = False
        if not ok:
            continue
        val = float(p.objective @ x)
        if best is None or (val > best if p.sense == "max" else val < best):
            best = val
    return best


def test_against_vertex_enumeration_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        sense = "max" if rng.integers(2) else "min"
        p = LpProblem(rng.integers(-3, 4, n).astype(float), sense)
        for _ in range(m):
            rel = ["<=", ">=", "="][int(rng.integers(3))]
            p.add(rng.integers(-3, 4, n).astype(float), rel, float(rng.integers(0, 6)))
        s = lp_solve(p)
        if s.status != "optimal":
            continue
        oracle = _brute_force_optimum(p)
        assert oracle is not None
        assert abs(s.value - oracle) < 1e-6, (p.rows, s.value, oracle)
        checked += 1
    assert checked >= 30


def test_mechanical_dual_agreement():
    rng = np.random.default_rng(7)
    agreements = 0
    for _ in range(150):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        sense = "max" if rng.integers(2) else "min"
        p = LpProblem(rng.integers(-4, 5, n).astype(float), sense)
        for _ in range(m):
            rel = ["<=", ">=", "="][int(rng.integers(3))]
            p.add(rng.integers(-4, 5, n).astype(float), rel, float(rng.integers(-3, 8)))
        s = lp_solve(p)
        d = lp_solve(dual_of(p))
        if s.status == "optimal":
            assert d.status == "optimal"
            assert abs(s.value - d.value) < 1e-6
            agreements += 1
        elif s.status == "unbounded":
            assert d.status == "infeasible"
    assert agreements >= 40


def test_duals_price_the_rhs():
    rng = np.random.default_rng(21)
    for _ in range(80):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        sense = "max" if rng.integers(2) else "min"
        p = LpProblem(rng.integers(-4, 5, n).astype(float), sense)
        for _ in range(m):
            rel = ["<=", ">=", "="][int(rng.integers(3))]
            p.add(rng.integers(-4, 5, n).astype(float), rel, float(rng.integers(-3, 8)))
        s = lp_solve(p)
        if s.status != "optimal":
            continue
        b = np.array([row[2] for row in p.rows])
        assert abs(float(b @ s.duals) - s.value) < 1e-6


def test_feasibility_residuals():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        p = LpProblem(rng.normal(size=n), "min")
        for _ in range(m):
            rel = ["<=", ">=", "="][int(rng.integers(3))]
            p.add(rng.normal(size=n), rel, float(rng.normal()))
        s = lp_solve(p)
        if s.status != "optimal":
            continue
        for coeffs, rel, rhs in dense_rows(p):
            lhs = float(coeffs @ s.x)
            if rel == "<=":
                assert lhs <= rhs + 1e-9
            elif rel == ">=":
                assert lhs >= rhs - 1e-9
            else:
                assert abs(lhs - rhs) <= 1e-9
        assert abs(float(p.objective @ s.x) - s.value) < 1e-9


def test_rank_deficient_equalities():
    p = LpProblem(np.array([1.0, 2.0]), "min")
    p.add([1, 1], "=", 3)
    p.add([1, 1], "=", 3)
    p.add([2, 2], "=", 6)
    s = lp_solve(p)
    assert s.status == "optimal" and abs(s.value - 3.0) < 1e-9
    b = np.array([r[2] for r in p.rows])
    assert abs(float(b @ s.duals) - s.value) < 1e-6


def test_beale_degenerate_cycle_terminates():
    # classic cycling example for naive simplex pivoting; the solver must
    # still terminate at the optimum
    p = LpProblem(np.array([0.75, -150, 0.02, -6]), "max")
    p.add([0.25, -60, -1 / 25, 9], "<=", 0)
    p.add([0.5, -90, -1 / 50, 3], "<=", 0)
    p.add([0, 0, 1, 0], "<=", 1)
    s = lp_solve(p)
    assert s.status == "optimal"
    assert abs(s.value - 0.05) < 1e-9


def test_zero_rows():
    p = LpProblem(np.array([1.0]), "max")
    p.add([0], "=", 0)
    p.add([0], "<=", 1)
    p.add([1], "<=", 4)
    s = lp_solve(p)
    assert s.status == "optimal" and abs(s.value - 4.0) < 1e-9
    p = LpProblem(np.array([1.0]), "max")
    p.add([0], "=", 1)
    p.add([1], "<=", 4)
    assert lp_solve(p).status == "infeasible"


def test_bad_inputs():
    p = LpProblem(np.array([1.0]), "max")
    with pytest.raises(ValueError):
        p.add([1, 2], "<=", 1)
    with pytest.raises(ValueError):
        p.add([1], "<>", 1)
    with pytest.raises(ValueError):
        p.add([1], "<=", float("inf"))
    with pytest.raises(ValueError):
        LpProblem(np.array([1.0]), "maximize")
