"""Linear programs over nonnegative variables, solved by HiGHS.

`LpProblem` collects rows as dense coefficient vectors or as sparse
{column: coefficient} dicts; `lp_solve` assembles them into one sparse
matrix and hands it to `scipy.optimize.linprog(method="highs")`.  The
primal point is checked against every original row before it is reported
optimal.

Solutions expose dual values per constraint, taken from HiGHS's marginals.
Convention: duals satisfy value = sum_i b_i * y_i, with y_i >= 0 on binding
">=" rows of a minimization (and the sign map mirrored for maximization),
i.e. the same convention as the mechanically constructed dual LP (the test
oracle `dual_of` builds one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

RESIDUAL_TOL = 1e-6

Relation = str  # "<=", "=", ">="

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass
class LpProblem:
    objective: np.ndarray
    sense: str = "max"  # "max" | "min"
    # coefficients are a dense vector or a {column: coefficient} dict
    rows: list[tuple[np.ndarray | dict[int, float], Relation, float]] = field(default_factory=list)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def add(self, coeffs, rel: Relation, rhs: float) -> None:
        if isinstance(coeffs, dict):
            coeffs = {int(j): float(c) for j, c in coeffs.items()}
            if any(not 0 <= j < self.n_vars for j in coeffs):
                raise ValueError("coefficient column out of range")
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (self.n_vars,):
                raise ValueError("coefficient vector length mismatch")
        if rel not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {rel!r}")
        if not np.isfinite(rhs):
            raise ValueError("bounds must be finite")
        self.rows.append((coeffs, rel, float(rhs)))


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | numerical_failure
    value: float
    x: np.ndarray
    iterations: int
    duals: np.ndarray  # one per constraint row, canonical-dual convention


def _row_matrix(problem: LpProblem, row_scale=None) -> csr_array:
    """The rows as one sparse matrix, row i multiplied by row_scale[i]."""
    rows, cols, vals = [], [], []
    for i, (coeffs, _, _) in enumerate(problem.rows):
        if isinstance(coeffs, dict):
            idx, val = list(coeffs), np.fromiter(coeffs.values(), float, len(coeffs))
        else:
            idx = np.flatnonzero(coeffs)
            val = coeffs[idx]
        rows.extend([i] * len(idx))
        cols.extend(idx)
        vals.extend(val if row_scale is None else val * row_scale[i])
    return csr_array((vals, (rows, cols)), shape=(len(problem.rows), problem.n_vars))


def lp_solve(problem: LpProblem) -> LpSolution:
    # scipy.optimize adds about 15 MB of resident memory on import; only the
    # congestion LPs need it, so the separator pipeline never loads it
    from scipy.optimize import linprog

    m, n = len(problem.rows), problem.n_vars
    minimize = problem.sense == "min"
    c = problem.objective if minimize else -problem.objective
    rels = np.array([rel for _, rel, _ in problem.rows], dtype=str)
    # ">=" rows enter HiGHS negated, as "<=" rows
    sign = np.where(rels == ">=", -1.0, 1.0)
    a = _row_matrix(problem, sign)
    b = sign * np.array([rhs for _, _, rhs in problem.rows])
    ub = rels != "="
    kw = {}
    if ub.any():
        kw.update(A_ub=a[ub], b_ub=b[ub])
    if not ub.all():
        kw.update(A_eq=a[~ub], b_eq=b[~ub])
    res = linprog(c, bounds=(0, None), method="highs", **kw)
    status = _STATUS.get(res.status, "numerical_failure")
    if status != "optimal":
        return LpSolution(status, np.nan, np.zeros(n), int(res.nit), np.zeros(m))

    xs = np.asarray(res.x, dtype=float)
    duals = np.zeros(m)
    if ub.any():
        duals[ub] = res.ineqlin.marginals
    if not ub.all():
        duals[~ub] = res.eqlin.marginals
    duals = sign * duals if minimize else -sign * duals
    value = float(problem.objective @ xs)

    # residual check on the original rows
    excess = a @ xs - b
    if np.where(ub, excess, np.abs(excess)).max(initial=0.0) > RESIDUAL_TOL:
        return LpSolution("numerical_failure", value, xs, int(res.nit), duals)
    return LpSolution("optimal", value, xs, int(res.nit), duals)
