"""Dense two-phase simplex for small standard-form linear programs.

Solves min c.x subject to A x = b, x >= 0.  Phase 1 minimizes the mass of
artificial variables to find a basic feasible point; phase 2 optimizes the
real objective.  Pivots follow Bland's rule (smallest eligible index both
entering and leaving), which rules out cycling, so the iteration cap is a
backstop against bugs rather than a tuning knob.

Problem sizes here are tiny (tens of variables), so everything is dense.
Phase 1 depends only on A and b, so ``solve_standard_lps`` runs it once
for a batch of objectives over the same constraints and starts each
phase 2 from a copy of the feasible tableau.
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
    phase_one_iterations: int


def _pivot(tableau: np.ndarray, red: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    red -= red[col] * tableau[row]
    basis[row] = col


def _iterate(
    tableau: np.ndarray,
    red: np.ndarray,
    basis: np.ndarray,
    n_enterable: int,
    iterations: int,
) -> tuple[int, str]:
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


def _phase_one(a: np.ndarray, b: np.ndarray):
    """Find a basic feasible point of A x = b, x >= 0.

    Minimizes the mass of artificial variables, then drives leftover
    artificials out of the basis.  Returns ``(tableau, basis, iterations)``
    with the artificial columns removed; ``tableau`` and ``basis`` are
    ``None`` when the artificial mass stays above ``FEAS_TOL``.  ``a`` and
    ``b`` are modified in place.
    """
    m, n = a.shape
    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0

    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)

    # Phase 1 reduced costs for artificial-sum objective: the basis is all
    # artificials, each with cost one.
    red = np.concatenate([-tableau[:, : n + m].sum(axis=0), [-b.sum()]])
    red[n : n + m] += 1.0
    iterations, status = _iterate(tableau, red, basis, n + m, 0)
    if status != OPTIMAL:
        raise SolverError("phase-1 subproblem cannot be unbounded")
    artificial_mass = -red[-1]
    if artificial_mass > FEAS_TOL:
        return None, None, iterations

    # Drive leftover artificials out of the basis; a row with no usable real
    # column is redundant and gets dropped.
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


def _phase_two(c: np.ndarray, tableau: np.ndarray, basis: np.ndarray, iterations: int) -> LPResult:
    """Minimize c.x from a feasible tableau; ``tableau`` and ``basis`` are modified in place.

    ``iterations`` is the phase-1 pivot count, which the cap also covers.
    """
    n = c.shape[0]
    cost_basis = c[basis]
    red = np.concatenate([c - cost_basis @ tableau[:, :n], [-(cost_basis @ tableau[:, -1])]])
    total, status = _iterate(tableau, red, basis, n, iterations)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, np.zeros(n), float("nan"), total, phase_one_iterations=iterations)

    x = np.zeros(n)
    x[basis] = tableau[:, -1]
    return LPResult(OPTIMAL, x, float(c @ x), total, phase_one_iterations=iterations)


def solve_standard_lps(cs, a_eq, b_eq) -> list[LPResult]:
    """Solve min c.x with A x = b, x >= 0 for every objective c in ``cs``.

    Phase 1 depends only on A and b, so it runs once; each objective's
    phase 2 starts from its own copy of the feasible tableau.  Every result
    is bit-identical to solving that objective alone.  Each ``LPResult``
    has status ``optimal``, ``infeasible`` (phase-1 artificial mass above
    ``FEAS_TOL``, then every result is infeasible) or ``unbounded``; on
    non-optimal statuses ``x`` and ``objective`` are not meaningful.
    ``iterations`` counts the shared phase-1 pivots, given alone in
    ``phase_one_iterations``, plus that objective's phase-2 pivots.
    """
    cs = [np.asarray(c, dtype=float) for c in cs]
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    if a.ndim != 2 or b.ndim != 1 or any(c.ndim != 1 for c in cs):
        raise SolverError("LP inputs must be (vector, matrix, vector)")
    m, n = a.shape
    if b.shape[0] != m or any(c.shape[0] != n for c in cs):
        shapes = ", ".join(str(c.shape) for c in cs)
        raise SolverError(f"LP shape mismatch: A is {a.shape}, b is {b.shape}, c is {shapes}")

    tableau, basis, iterations = _phase_one(a, b)
    if tableau is None:
        return [
            LPResult(INFEASIBLE, np.zeros(n), float("nan"), iterations, phase_one_iterations=iterations)
            for _ in cs
        ]
    return [_phase_two(c, tableau.copy(), basis.copy(), iterations) for c in cs]


def solve_standard_lp(c, a_eq, b_eq) -> LPResult:
    """Solve min c.x with A x = b, x >= 0; see ``solve_standard_lps``."""
    return solve_standard_lps([c], a_eq, b_eq)[0]
