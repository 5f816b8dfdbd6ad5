"""The simplex pivot loop as it was before the single work-array kernel.

A test-only reference: the constraint tableau and the reduced costs are
separate arrays, each pivot forms an ``np.outer`` temporary, and the
reduced costs are updated on their own.  ``prefgame._simplex`` must run the
same pivots and return bit-identical results; the tolerances and the
result type come from there, so only the loop is kept here.
"""

import numpy as np

from prefgame._simplex import FEAS_TOL, INFEASIBLE, MAX_ITER, OPTIMAL, PIVOT_TOL, RATIO_TIE_TOL, UNBOUNDED, LPResult
from prefgame.core import SolverError


def _pivot(tableau, red, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    red -= red[col] * tableau[row]
    basis[row] = col


def _iterate(tableau, red, basis, n_enterable, iterations):
    while True:
        negative = np.flatnonzero(red[:n_enterable] < -PIVOT_TOL)
        if negative.size == 0:
            return iterations, OPTIMAL
        col = int(negative[0])
        column = tableau[:, col]
        rows = np.flatnonzero(column > PIVOT_TOL)
        if rows.size == 0:
            return iterations, UNBOUNDED
        ratios = tableau[rows, -1] / column[rows]
        best = float(ratios.min())
        ties = rows[ratios <= best + RATIO_TIE_TOL * max(1.0, abs(best))]
        row = int(ties[np.argmin(basis[ties])])
        _pivot(tableau, red, basis, row, col)
        iterations += 1
        if iterations > MAX_ITER:
            raise SolverError("simplex iteration cap exceeded; anti-cycling pivoting should prevent this")


def _phase_one(a, b):
    m, n = a.shape
    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0

    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)

    red = np.concatenate([-tableau[:, : n + m].sum(axis=0), [-b.sum()]])
    red[n : n + m] += 1.0
    iterations, status = _iterate(tableau, red, basis, n + m, 0)
    if status != OPTIMAL:
        red = -tableau[basis >= n].sum(axis=0)
        red[n : n + m] += 1.0
        improving = (red[: n + m] < -PIVOT_TOL) & (tableau[:, : n + m] > PIVOT_TOL).any(axis=0)
        if improving.any() or -red[-1] <= FEAS_TOL:
            raise SolverError("phase-1 subproblem cannot be unbounded")
    artificial_mass = -red[-1]
    if artificial_mass > FEAS_TOL:
        return None, None, iterations

    keep = np.ones(m, dtype=bool)
    in_basis = set(int(v) for v in basis)
    for i in range(m):
        if basis[i] < n:
            continue
        candidates = [j for j in range(n) if j not in in_basis and abs(tableau[i, j]) > PIVOT_TOL]
        if candidates:
            j = candidates[0]
            in_basis.discard(int(basis[i]))
            in_basis.add(j)
            _pivot(tableau, red, basis, i, j)
        else:
            keep[i] = False
    if not np.all(keep):
        tableau = tableau[keep]
        basis = basis[keep]

    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    return tableau, basis, iterations


def _phase_two(c, tableau, basis, iterations):
    n = c.shape[0]
    cost_basis = c[basis]
    red = np.concatenate([c - cost_basis @ tableau[:, :n], [-(cost_basis @ tableau[:, -1])]])
    total, status = _iterate(tableau, red, basis, n, iterations)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, np.zeros(n), float("nan"), total)

    x = np.zeros(n)
    x[basis] = tableau[:, -1]
    return LPResult(OPTIMAL, x, float(c @ x), total)


def solve_standard_lp(c, a_eq, b_eq):
    """Reference for ``prefgame._simplex.solve_standard_lp`` on well-formed inputs."""
    c = np.asarray(c, dtype=float)
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    tableau, basis, iterations = _phase_one(a, b)
    if tableau is None:
        return LPResult(INFEASIBLE, np.zeros(a.shape[1]), float("nan"), iterations)
    return _phase_two(c, tableau, basis, iterations)
