"""Linear programs over nonnegative variables, solved by HiGHS.

One form only: minimise objective @ x over x >= 0, subject to blocks of
"=" and "<=" rows, the form of the congestion LPs.  `LpProblem` collects
its rows as sparse (row, column, coefficient) triples, one block at a time
from `add_rows`.  `lp_solve` builds one sparse matrix from the triples and
hands it, with the rhs, as stored to `scipy.optimize.linprog(method="highs")`.
The primal point is checked against every row before it is reported
optimal.

Solutions expose one dual value per row, HiGHS's marginals as they are:
value = sum_i b_i * y_i, with y_i <= 0 on "<=" rows and y_i free on "="
rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, csr_array

RESIDUAL_TOL = 1e-6

Relation = str  # "=" or "<="

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass
class LpProblem:
    objective: np.ndarray  # minimised

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
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

    def add_rows(self, matrix, rel: Relation, rhs) -> None:
        """Append a block of rows, all with relation `rel`, "=" or "<=".

        `matrix` is a dense 2-D array or a scipy sparse matrix with n_vars
        columns; a dense one keeps only its nonzeros.  `rhs` is one value for
        every row or one value per row.
        """
        block = coo_array(matrix)
        if block.ndim != 2 or block.shape[1] != self.n_vars:
            raise ValueError("coefficient vector length mismatch")
        if rel not in ("<=", "="):
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
    duals: np.ndarray  # one per row, <= 0 on "<=" rows


def _row_matrix(problem: LpProblem) -> csr_array:
    """The rows as one sparse matrix."""
    empty = np.zeros(0, np.int64)
    parts = problem._triples or [(empty, empty, np.zeros(0))]
    rows, cols, vals = map(np.concatenate, zip(*parts))
    return csr_array((vals, (rows, cols)), shape=(len(problem._rels), problem.n_vars))


def lp_solve(problem: LpProblem) -> LpSolution:
    # scipy.optimize adds about 15 MB of resident memory on import; only the
    # congestion LPs need it, so the separator pipeline never loads it
    from scipy.optimize import linprog

    m, n = len(problem._rels), problem.n_vars
    a, b = _row_matrix(problem), np.array(problem._rhs)
    ub = np.array(problem._rels, dtype=str) == "<="
    kw = {}
    if ub.any():
        kw.update(A_ub=a[ub], b_ub=b[ub])
    if not ub.all():
        kw.update(A_eq=a[~ub], b_eq=b[~ub])
    res = linprog(problem.objective, bounds=(0, None), method="highs", **kw)
    status = _STATUS.get(res.status, "numerical_failure")
    if status != "optimal":
        return LpSolution(status, np.nan, np.zeros(n), int(res.nit), np.zeros(m))

    xs = np.asarray(res.x, dtype=float)
    duals = np.zeros(m)
    if ub.any():
        duals[ub] = res.ineqlin.marginals
    if not ub.all():
        duals[~ub] = res.eqlin.marginals
    value = float(problem.objective @ xs)

    # residual check on the rows
    excess = a @ xs - b
    if np.where(ub, excess, np.abs(excess)).max(initial=0.0) > RESIDUAL_TOL:
        return LpSolution("numerical_failure", value, xs, int(res.nit), duals)
    return LpSolution("optimal", value, xs, int(res.nit), duals)
