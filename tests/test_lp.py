"""Solver checks: frozen examples, a vertex-enumeration oracle for tiny
programs, and the mechanical-dual agreement property.  The programs mix max
and min objectives and "<=", ">=" and "=" rows; `kept_form` rewrites each
in the one form LpProblem takes before it is solved."""

from itertools import combinations

import numpy as np
import pytest

from stringsep.lp import LpProblem, lp_solve

from .oracles import dual_of


def kept_form(sense, objective, rows) -> LpProblem:
    """The program `sense` objective @ x over x >= 0 and rows (coefficients,
    "<=" | ">=" | "=", rhs), as the LpProblem that minimises over "=" and
    "<=" rows: a max objective is negated, so the LpProblem's value is minus
    the program's, and each ">=" row is negated into a "<=" row."""
    objective = np.asarray(objective, dtype=float)
    p = LpProblem(-objective if sense == "max" else objective)
    for coeffs, rel, rhs in rows:
        flip = -1.0 if rel == ">=" else 1.0
        p.add_rows(flip * np.array([coeffs], dtype=float), "=" if rel == "=" else "<=", flip * rhs)
    return p


def program_value(sense, s) -> float:
    """The optimum of the program that kept_form rewrote, from the solution
    of its LpProblem."""
    return -s.value if sense == "max" else s.value


def random_program(rng, size, lo, hi, rhs_lo, rhs_hi):
    """(sense, objective, rows) of a program of 1 to size - 1 variables and
    rows, with integer coefficients in [lo, hi), rhs in [rhs_lo, rhs_hi) and
    a random relation per row.  The draws come in the order n, m, sense,
    objective, then per row relation, coefficients, rhs."""
    n = int(rng.integers(1, size))
    m = int(rng.integers(1, size))
    sense = "max" if rng.integers(2) else "min"
    objective = rng.integers(lo, hi, n).astype(float)
    rows = []
    for _ in range(m):
        rel = ["<=", ">=", "="][int(rng.integers(3))]
        rows.append((rng.integers(lo, hi, n).astype(float), rel, float(rng.integers(rhs_lo, rhs_hi))))
    return sense, objective, rows


def test_box_max():
    p = kept_form("max", [1.0, 1.0], [([1, 0], "<=", 1), ([0, 1], "<=", 2)])
    s = lp_solve(p)
    assert s.status == "optimal"
    assert abs(program_value("max", s) - 3.0) < 1e-9
    assert np.allclose(s.x, [1, 2], atol=1e-9)


def test_unbounded():
    p = kept_form("max", [1.0], [([-1], "<=", 1)])
    assert lp_solve(p).status == "unbounded"


def test_infeasible():
    p = kept_form("max", [1.0], [([1], "<=", 1), ([1], ">=", 2)])
    assert lp_solve(p).status == "infeasible"


def test_equality_and_min():
    p = kept_form("min", [2.0, 3.0], [([1, 1], "=", 4), ([1, 0], ">=", 1)])
    s = lp_solve(p)
    assert s.status == "optimal"
    assert abs(s.value - 8.0) < 1e-9  # all weight on the cheap variable


def _brute_force_optimum(sense, objective, rows):
    """Enumerate basic points: intersections of n active constraints drawn
    from {rows as equalities} + {x_j = 0}, keep the feasible ones."""
    n = len(objective)
    planes = [(np.asarray(c, dtype=float), b) for c, rel, b in rows] + [
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
        val = float(objective @ x)
        if best is None or (val > best if sense == "max" else val < best):
            best = val
    return best


def test_against_vertex_enumeration_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(120):
        sense, obj, rows = random_program(rng, 4, -3, 4, 0, 6)
        p = kept_form(sense, obj, rows)
        s = lp_solve(p)
        if s.status != "optimal":
            continue
        oracle = _brute_force_optimum(sense, obj, rows)
        assert oracle is not None
        assert abs(program_value(sense, s) - oracle) < 1e-6, (rows, s.value, oracle)
        checked += 1
    assert checked >= 30


def test_mechanical_dual_agreement():
    rng = np.random.default_rng(7)
    agreements = 0
    for _ in range(150):
        p = kept_form(*random_program(rng, 5, -4, 5, -3, 8))
        s = lp_solve(p)
        d = lp_solve(dual_of(p))
        if s.status == "optimal":
            assert d.status == "optimal"
            assert abs(s.value + d.value) < 1e-6
            agreements += 1
        elif s.status == "unbounded":
            assert d.status == "infeasible"
    assert agreements >= 40


def test_duals_price_the_rhs():
    rng = np.random.default_rng(21)
    for _ in range(80):
        p = kept_form(*random_program(rng, 5, -4, 5, -3, 8))
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
        obj = rng.normal(size=n)
        rows = []
        for _ in range(m):
            rel = ["<=", ">=", "="][int(rng.integers(3))]
            rows.append((rng.normal(size=n), rel, float(rng.normal())))
        s = lp_solve(kept_form("min", obj, rows))
        if s.status != "optimal":
            continue
        for coeffs, rel, rhs in rows:
            lhs = float(coeffs @ s.x)
            if rel == "<=":
                assert lhs <= rhs + 1e-9
            elif rel == ">=":
                assert lhs >= rhs - 1e-9
            else:
                assert abs(lhs - rhs) <= 1e-9
        assert abs(float(obj @ s.x) - s.value) < 1e-9


def test_rank_deficient_equalities():
    p = LpProblem(np.array([1.0, 2.0]))
    p.add_rows([[1, 1], [1, 1], [2, 2]], "=", [3, 3, 6])
    s = lp_solve(p)
    assert s.status == "optimal" and abs(s.value - 3.0) < 1e-9
    b = np.array([r[2] for r in p.rows])
    assert abs(float(b @ s.duals) - s.value) < 1e-6


def test_beale_degenerate_cycle_terminates():
    # classic cycling example for naive simplex pivoting; the solver must
    # still terminate at the optimum
    rows = [([0.25, -60, -1 / 25, 9], "<=", 0), ([0.5, -90, -1 / 50, 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1)]
    s = lp_solve(kept_form("max", [0.75, -150, 0.02, -6], rows))
    assert s.status == "optimal"
    assert abs(program_value("max", s) - 0.05) < 1e-9


def test_zero_rows():
    s = lp_solve(kept_form("max", [1.0], [([0], "=", 0), ([0], "<=", 1), ([1], "<=", 4)]))
    assert s.status == "optimal" and abs(program_value("max", s) - 4.0) < 1e-9
    p = kept_form("max", [1.0], [([0], "=", 1), ([1], "<=", 4)])
    assert lp_solve(p).status == "infeasible"


def test_bad_inputs():
    p = LpProblem(np.array([1.0]))
    with pytest.raises(ValueError):
        p.add_rows([[1, 2]], "<=", 1)
    with pytest.raises(ValueError):
        p.add_rows([[1]], "<>", 1)
    with pytest.raises(ValueError, match="^bad relation '>='$"):
        p.add_rows([[1]], ">=", 1)
    with pytest.raises(ValueError):
        p.add_rows([[1]], "<=", float("inf"))
    assert len(p.rows) == 0
    with pytest.raises(TypeError):
        LpProblem(np.array([1.0]), "max")  # one form: no sense to choose
