"""Dense two-phase simplex for small standard-form linear programs.

Solves min c.x subject to A x = b, x >= 0.  Phase 1 minimizes the mass of
artificial variables to find a basic feasible point; phase 2 optimizes the
real objective.  The maximin LPs of ``solver.solve_maximin`` are the only
equality-form programs left.  Dantzig's (1951) game LP max 1.y subject to
A y <= 1, y >= 0, with A in [1, 2], starts from its slack basis, which is
feasible, so ``slack_basis_lp`` runs phase 2 alone.  On A = 1 + Â, the
payoff mapped onto [0, 1], one such LP solves a game: y / sum(y) is the
column strategy, the slack columns' final reduced costs give the row
strategy, and 1 / sum(y) - 1 is the value of Â.  ``solver._solve_dantzig``
runs it for ``kkt_verify`` and ``pm_gap``, and ``optimal_face_ranges``
takes its optimal face on A = 2 - Âᵀ.  Pivots follow Bland's rule (smallest
eligible index both entering and leaving), which rules out cycling, so
the iteration cap is a backstop against bugs rather than a tuning knob.

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
            # Indexing at argmin skips the Python wrapper of ``min``.
            best = ratios[ratios.argmin()]
            ties = rows[ratios <= best + RATIO_TIE_TOL * max(1.0, abs(best))]
            row = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
        _pivot(work, buf, basis, row, col)
        iterations += 1
        if iterations > MAX_ITER:
            raise SolverError("simplex iteration cap exceeded; anti-cycling pivoting should prevent this")


def _unit_basis_work(a: np.ndarray, rhs) -> np.ndarray:
    """The work array ``[a | I | rhs]`` over a zero last row: the tableau of a slack or artificial basis."""
    m, n = a.shape
    work = np.zeros((m + 1, n + m + 1))
    work[:m, :n] = a
    work[:m, n : n + m].flat[:: m + 1] = 1.0
    work[:m, -1] = rhs
    return work


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

    work = _unit_basis_work(a, b)
    basis = np.arange(n, n + m)

    # Phase 1 reduced costs for artificial-sum objective: the basis is all
    # artificials, each with cost one.
    red = work[m]
    red[: n + m] = -work[:m, : n + m].sum(axis=0)
    red[-1] = -b.sum()
    red[n : n + m] += 1.0
    buf = np.empty_like(work)
    iterations, status = _iterate(work, buf, basis, n + m, 0)
    while status != OPTIMAL:
        # Phase 1 is bounded below by zero, so this is round-off in the
        # reduced costs.  They are recomputed from the rows of the basic
        # artificials; with no artificial mass left the solve failed.
        red[:] = -work[:m][basis >= n].sum(axis=0)
        red[n : n + m] += 1.0
        if -red[-1] <= FEAS_TOL:
            raise SolverError("phase-1 subproblem cannot be unbounded")
        # A column improves only if it also has an entry to pivot on.  The
        # others are priced out, and phase 1 resumes from this basis: it
        # stops at once when no column improves, and otherwise pivots at
        # least once per round, so the iteration cap bounds the rounds.
        stuck = (red[: n + m] < 0.0) & ~(work[:m, : n + m] > PIVOT_TOL).any(axis=0)
        red[: n + m][stuck] = 0.0
        iterations, status = _iterate(work, buf, basis, n + m, iterations)
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
    # The right-hand side moves into the first artificial column, so the
    # kept rows up to it are phase 2's work array.
    work[:, n] = work[:, -1]
    return work[keep, : n + 1], basis[keep[:m]], iterations


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


def solve_standard_lp(c, a_eq, b_eq) -> LPResult:
    """Solve min c.x with A x = b, x >= 0.

    The status is ``optimal``, ``infeasible`` (phase-1 artificial mass above
    ``FEAS_TOL``) or ``unbounded``, where ``x`` and ``objective`` mean nothing.
    """
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
        return LPResult(INFEASIBLE, np.zeros(n), float("nan"), iterations)
    return _phase_two(c, work, basis, iterations)


def slack_basis_lp(a: np.ndarray):
    """Solve max 1.y with A y <= 1, y >= 0 for entries of ``a`` in [1, 2].

    The slack basis is feasible and y <= 1 bounds the LP, so phase 2 alone
    finds the optimum (Dantzig 1951).  Returns ``(result, work, basis)``:
    ``result.x`` holds y and then the slacks, ``result.objective`` is
    -1.y, and ``work`` and ``basis`` are the final tableau and basis.
    """
    m, n = a.shape
    work = _unit_basis_work(a, 1.0)
    basis = np.arange(n, n + m)
    result = _phase_two(np.r_[np.full(n, -1.0), np.zeros(m)], work, basis, 0)
    if result.status != OPTIMAL:
        raise SolverError(f"LP ended with status {result.status}; it has no optimal face")
    return result, work, basis


def optimal_face_ranges(a: np.ndarray, face_tol: float):
    """Solve ``slack_basis_lp(a)``, then bound each y_i over its optimal face.

    Nonbasic columns with a final reduced cost above ``face_tol`` are fixed
    at zero, and each y_i is minimized and maximized by phase 2 from the
    final basis.  When no nonbasic column is kept, the face is the final
    vertex (the basis matrix is invertible), every range LP would start
    there without a pivot, and the ranges are that vertex itself.  Returns
    ``(result, ranges, face_columns, range_pivots)`` with
    ``ranges[i] = [min, max]``.
    """
    n = a.shape[1]
    result, work, basis = slack_basis_lp(a)
    # Basic columns keep a reduced cost of exactly zero, so they are kept.
    kept = work[-1, : result.x.size] <= face_tol
    face_columns = int(kept.sum())
    if face_columns == basis.size:
        return result, np.column_stack([result.x[:n], result.x[:n]]), face_columns, 0
    face = work[:, np.r_[kept, True]]
    position = np.cumsum(kept) - 1
    unit = np.eye(face_columns)
    ranges = np.zeros((n, 2))
    range_pivots = 0
    for i in np.flatnonzero(kept[:n]):
        for side, sign in enumerate((1.0, -1.0)):
            bound = _phase_two(sign * unit[position[i]], face.copy(), position[basis], 0)
            range_pivots += bound.iterations
            ranges[i, side] = bound.x[position[i]]
    return result, ranges, face_columns, range_pivots
