"""Dense two-phase simplex for small standard-form linear programs.

Solves min c.x subject to A x = b, x >= 0.  Phase 1 minimizes the mass of
artificial variables to find a basic feasible point; phase 2 optimizes the
real objective.  Pivots follow Bland's rule (smallest eligible index both
entering and leaving), which rules out cycling, so the iteration cap is a
backstop against bugs rather than a tuning knob.

Problem sizes here are tiny (tens of variables), so everything is dense.
Every feasible x has c.x = optimum + sum d_j x_j over the final reduced
costs d_j >= 0, so the optimal set is the feasible set with x_j = 0 where
d_j > 0, and the final basis is feasible on it (Goldman & Tucker 1956).

Each phase works on one ``(m + 1) x (columns + 1)`` array: the m
constraint rows of the tableau with the right-hand side as the last
column, and the reduced costs (minus the objective in the corner) as the
last row.  A pivot scales the pivot row, forms the rank-1 product of the
factor column and the pivot row in a buffer the phase allocates once,
and subtracts it from every row at once, reduced costs included.  Each
entry gets the product and subtraction it would get if the reduced costs
were updated on their own, so the pivots and every reported number are
the same; only the signs of zeros in the reduced-cost row, which nothing
reads, can differ while the tableau stays finite.  At these sizes
numpy's per-call cost outweighs the arithmetic, which is why the loop
makes few calls per pivot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SolverError

PIVOT_TOL = 1e-10
RATIO_TIE_TOL = 1e-12
FEAS_TOL = 1e-9
MAX_ITER = 100_000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: np.ndarray
    objective: float
    iterations: int


def _pivot(work: np.ndarray, buf: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    prow = work[row]
    prow /= prow[col]
    factors = work[:, col : col + 1].copy()
    factors[row] = 0.0
    # Filling the buffer with the row and scaling it in place runs faster
    # than one broadcast multiply of the factor column by the row; the
    # products are the same.
    buf[:] = prow
    buf *= factors
    work -= buf
    basis[row] = col


def _iterate(
    work: np.ndarray,
    buf: np.ndarray,
    basis: np.ndarray,
    n_enterable: int,
    iterations: int,
) -> tuple[int, str]:
    red = work[-1, :n_enterable]
    while True:
        col = int((red < -PIVOT_TOL).argmax())
        if not red[col] < -PIVOT_TOL:
            return iterations, OPTIMAL
        column = work[:-1, col]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return iterations, UNBOUNDED
        if rows.size == 1:
            row = int(rows[0])
        else:
            ratios = work[rows, -1] / column[rows]
            best = float(ratios.min())
            ties = rows[ratios <= best + RATIO_TIE_TOL * max(1.0, abs(best))]
            row = int(ties[basis[ties].argmin()])
        _pivot(work, buf, basis, row, col)
        iterations += 1
        if iterations > MAX_ITER:
            raise SolverError("simplex iteration cap exceeded; anti-cycling pivoting should prevent this")


def _phase_one(a: np.ndarray, b: np.ndarray):
    """Find a basic feasible point of A x = b, x >= 0.

    Minimizes the mass of artificial variables, then drives leftover
    artificials out of the basis.  Returns ``(work, basis, iterations)``
    with the artificial columns removed and a last row for phase 2 to fill
    with its reduced costs; ``work`` and ``basis`` are ``None`` when the
    artificial mass stays above ``FEAS_TOL``.  ``a`` and ``b`` are modified
    in place.
    """
    m, n = a.shape
    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0

    work = np.zeros((m + 1, n + m + 1))
    work[:m] = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)

    # Phase 1 reduced costs for artificial-sum objective: the basis is all
    # artificials, each with cost one.
    red = work[m]
    red[: n + m] = -work[:m, : n + m].sum(axis=0)
    red[-1] = -b.sum()
    red[n : n + m] += 1.0
    buf = np.empty_like(work)
    iterations, status = _iterate(work, buf, basis, n + m, 0)
    if status != OPTIMAL:
        raise SolverError("phase-1 subproblem cannot be unbounded")
    artificial_mass = -red[-1]
    if artificial_mass > FEAS_TOL:
        return None, None, iterations

    # Drive leftover artificials out of the basis; a row with no usable real
    # column is redundant and gets dropped.
    keep = np.ones(m + 1, dtype=bool)
    for i in range(m):
        if basis[i] < n:
            continue
        usable = np.abs(work[i, :n]) > PIVOT_TOL
        usable[basis[basis < n]] = False
        if usable.any():
            _pivot(work, buf, basis, i, int(usable.argmax()))
        else:
            keep[i] = False
    columns = np.r_[:n, n + m]
    return work[np.ix_(keep, columns)], basis[keep[:m]], iterations


def _phase_two(c: np.ndarray, work: np.ndarray, basis: np.ndarray, iterations: int) -> LPResult:
    """Minimize c.x from a feasible work array; ``work`` and ``basis`` are modified in place.

    ``iterations`` counts the pivots made before, which the cap also covers.
    """
    n = c.shape[0]
    tableau = work[:-1]
    cost_basis = c[basis]
    work[-1, :n] = c - cost_basis @ tableau[:, :n]
    work[-1, -1] = -(cost_basis @ tableau[:, -1])
    total, status = _iterate(work, np.empty_like(work), basis, n, iterations)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, np.zeros(n), float("nan"), total)

    x = np.zeros(n)
    x[basis] = tableau[:, -1]
    return LPResult(OPTIMAL, x, float(c @ x), total)


def _solve(c, a_eq, b_eq):
    """``solve_standard_lp`` that also returns the final work array and basis, None if infeasible."""
    c = np.asarray(c, dtype=float)
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    if a.ndim != 2 or b.ndim != 1 or c.ndim != 1:
        raise SolverError("LP inputs must be (vector, matrix, vector)")
    m, n = a.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise SolverError(f"LP shape mismatch: A is {a.shape}, b is {b.shape}, c is {c.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise SolverError("LP inputs must be finite")

    work, basis, iterations = _phase_one(a, b)
    if work is None:
        return LPResult(INFEASIBLE, np.zeros(n), float("nan"), iterations), None, None
    return _phase_two(c, work, basis, iterations), work, basis


def solve_standard_lp(c, a_eq, b_eq) -> LPResult:
    """Solve min c.x with A x = b, x >= 0.

    The status is ``optimal``, ``infeasible`` (phase-1 artificial mass above
    ``FEAS_TOL``) or ``unbounded``, where ``x`` and ``objective`` mean nothing.
    """
    return _solve(c, a_eq, b_eq)[0]


def optimal_face_ranges(c, a_eq, b_eq, k: int, face_tol):
    """Solve min c.x with A x = b, x >= 0, then bound x_0 .. x_{k-1} over its optimal face.

    Nonbasic columns with a final reduced cost above ``face_tol`` (one
    number, or one per column) are fixed at zero, and each coordinate is
    minimized and maximized by phase 2 from the final basis.  Returns
    ``(result, ranges, face_columns, range_pivots)`` with ``ranges[i] =
    [min, max]`` (inf for an unbounded maximum).  Raises ``SolverError``
    unless the LP has an optimum.
    """
    result, work, basis = _solve(c, a_eq, b_eq)
    if result.status != OPTIMAL:
        raise SolverError(f"LP ended with status {result.status}; it has no optimal face")
    kept = work[-1, : result.x.size] <= face_tol
    face = work[:, np.r_[kept, True]]
    position = np.cumsum(kept) - 1
    unit = np.eye(int(kept.sum()))
    ranges = np.zeros((k, 2))
    range_pivots = 0
    for i in np.flatnonzero(kept[:k]):
        for side, sign in enumerate((1.0, -1.0)):
            bound = _phase_two(sign * unit[position[i]], face.copy(), position[basis], 0)
            range_pivots += bound.iterations
            ranges[i, side] = bound.x[position[i]] if bound.status == OPTIMAL else -sign * np.inf
    return result, ranges, len(unit), range_pivots
