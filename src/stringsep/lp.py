"""Linear programs over nonnegative variables, solved by HiGHS.

`LpProblem` collects its rows as sparse (row, column, coefficient) triples:
`add` takes one row as a dense vector or a {column: coefficient} dict, and
`add_rows` a whole block of rows at once as a matrix.  `lp_solve` builds
one sparse matrix from the triples and hands it to
`scipy.optimize.linprog(method="highs")`.  The primal point is checked
against every original row before it is reported optimal.

Solutions expose dual values per constraint, taken from HiGHS's marginals.
Convention: duals satisfy value = sum_i b_i * y_i, with y_i >= 0 on binding
">=" rows of a minimization (and the sign map mirrored for maximization),
i.e. the same convention as the mechanically constructed dual LP (the test
oracle `dual_of` builds one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, csr_array

RESIDUAL_TOL = 1e-6

Relation = str  # "<=", "=", ">="

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass
class LpProblem:
    objective: np.ndarray
    sense: str = "max"  # "max" | "min"

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")
        # the coefficients as (row, column, value) arrays, one triple per
        # block added, and one relation and one rhs per row
        self._triples: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rels: list[Relation] = []
        self._rhs: list[float] = []

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def rows(self) -> list[tuple[tuple[np.ndarray, np.ndarray], Relation, float]]:
        """Each row as ((columns, coefficients), relation, rhs), columns ascending."""
        a = _row_matrix(self)
        ptr = a.indptr.tolist()
        return [
            ((a.indices[p:q], a.data[p:q]), rel, rhs)
            for p, q, rel, rhs in zip(ptr, ptr[1:], self._rels, self._rhs)
        ]

    def add(self, coeffs, rel: Relation, rhs: float) -> None:
        """Append one row: a dense vector or a {column: coefficient} dict."""
        if isinstance(coeffs, dict):
            cols = np.array([int(j) for j in coeffs], dtype=np.int64)
            if ((cols < 0) | (cols >= self.n_vars)).any():
                raise ValueError("coefficient column out of range")
            vals = np.array([float(c) for c in coeffs.values()])
            row = coo_array((vals, (np.zeros_like(cols), cols)), shape=(1, self.n_vars))
        else:
            row = np.asarray(coeffs, dtype=float)
            if row.shape != (self.n_vars,):
                raise ValueError("coefficient vector length mismatch")
        self.add_rows(row.reshape(1, -1), rel, rhs)

    def add_rows(self, matrix, rel: Relation, rhs) -> None:
        """Append a block of rows, all with relation `rel`.

        `matrix` is a dense 2-D array or a scipy sparse matrix with n_vars
        columns; a dense one keeps only its nonzeros.  `rhs` is one value for
        every row or one value per row.
        """
        block = coo_array(matrix)
        if block.ndim != 2 or block.shape[1] != self.n_vars:
            raise ValueError("coefficient vector length mismatch")
        if rel not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {rel!r}")
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape not in ((), block.shape[:1]):
            raise ValueError("one rhs per row required")
        if not np.isfinite(rhs).all():
            raise ValueError("bounds must be finite")
        self._triples.append((block.row + len(self._rels), block.col, block.data.astype(float)))
        self._rels.extend([rel] * block.shape[0])
        self._rhs.extend(np.broadcast_to(rhs, block.shape[:1]).tolist())


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | numerical_failure
    value: float
    x: np.ndarray
    iterations: int
    duals: np.ndarray  # one per constraint row, canonical-dual convention


def _row_matrix(problem: LpProblem, row_scale=None) -> csr_array:
    """The rows as one sparse matrix, row i multiplied by row_scale[i]."""
    empty = np.zeros(0, np.int64)
    parts = problem._triples or [(empty, empty, np.zeros(0))]
    rows, cols, vals = map(np.concatenate, zip(*parts))
    if row_scale is not None:
        vals = vals * row_scale[rows]
    return csr_array((vals, (rows, cols)), shape=(len(problem._rels), problem.n_vars))


def lp_solve(problem: LpProblem) -> LpSolution:
    # scipy.optimize adds about 15 MB of resident memory on import; only the
    # congestion LPs need it, so the separator pipeline never loads it
    from scipy.optimize import linprog

    m, n = len(problem._rels), problem.n_vars
    minimize = problem.sense == "min"
    c = problem.objective if minimize else -problem.objective
    rels = np.array(problem._rels, dtype=str)
    # ">=" rows enter HiGHS negated, as "<=" rows
    sign = np.where(rels == ">=", -1.0, 1.0)
    a = _row_matrix(problem, sign)
    b = sign * np.array(problem._rhs)
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
