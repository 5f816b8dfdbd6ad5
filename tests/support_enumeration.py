"""Support enumeration of zero-sum equilibria, the LP-free test oracle.

``enumerate_equilibria`` is deliberately brute force: it tries every pair
of supports, solves the equalization systems by least squares, and keeps
candidates whose best-response gap vanishes.  It exists to cross-check the
LP path in tests, not to be fast.
"""

import itertools

import numpy as np

from prefgame.core import PayoffMatrix, Policy, ValidationError, _as_readonly, _require_same_n
from prefgame.solver import DEFAULT_VERIFY_TOL

DEDUP_TOL = 1e-7
DEFAULT_MAX_ENUM_N = 8


def total_payoff(payoff: PayoffMatrix, pi1: Policy, pi2: Policy) -> float:
    """Expected payoff of ``pi1`` against ``pi2``: the bilinear form w1' A w2."""
    _require_same_n("payoff", payoff.n, "policies", pi1.n, pi2.n)
    return float(pi1.w @ payoff.a @ pi2.w)


def _support_system(a: np.ndarray, own: tuple[int, ...], other: tuple[int, ...], row_side: bool):
    # Equalization plus normalization: own weights make every index in
    # ``other`` yield the same payoff v.
    k = len(own)
    rows = len(other) + 1
    m = np.zeros((rows, k + 1))
    rhs = np.zeros(rows)
    for r, j in enumerate(other):
        m[r, :k] = a[list(own), j] if row_side else a[j, list(own)]
        m[r, k] = -1.0
    m[-1, :k] = 1.0
    rhs[-1] = 1.0
    sol, _, _, _ = np.linalg.lstsq(m, rhs, rcond=None)
    residual = float(np.max(np.abs(m @ sol - rhs)))
    return sol[:k], residual


def _equilibria(payoff: PayoffMatrix, max_n: int, tolerance: float):
    """Yield ``(x, y)`` for each support pair whose equalizers form an equilibrium.

    Tries every pair of row/column supports, including unequal sizes, which
    degenerate games need.  Candidates must solve their equalization systems
    consistently, be nonnegative, and pass the best-response gap test.
    """
    n = payoff.n
    if n > max_n:
        raise ValidationError(f"support enumeration limited to n <= {max_n}, got n={n}")
    a = payoff.a
    indices = range(n)
    supports = [
        tuple(comb) for size in range(1, n + 1) for comb in itertools.combinations(indices, size)
    ]
    for rows_support in supports:
        for cols_support in supports:
            x_part, res_x = _support_system(a, rows_support, cols_support, row_side=True)
            if res_x > 1e-9 or np.any(x_part < -1e-9):
                continue
            y_part, res_y = _support_system(a, cols_support, rows_support, row_side=False)
            if res_y > 1e-9 or np.any(y_part < -1e-9):
                continue
            x = np.zeros(n)
            x[list(rows_support)] = np.clip(x_part, 0.0, None)
            y = np.zeros(n)
            y[list(cols_support)] = np.clip(y_part, 0.0, None)
            if x.sum() <= 0.0 or y.sum() <= 0.0:
                continue
            x /= x.sum()
            y /= y.sum()
            gap = float(np.max(a @ y)) - float(np.min(x @ a))
            if abs(gap) <= tolerance:
                yield x, y


def enumerate_equilibria(
    payoff: PayoffMatrix,
    max_n: int = DEFAULT_MAX_ENUM_N,
    tolerance: float = DEFAULT_VERIFY_TOL,
) -> list[tuple[Policy, Policy, float]]:
    """Brute-force all equilibria reachable through support enumeration.

    Near-duplicate strategy pairs (within L-inf 1e-7) are merged.
    """
    n = payoff.n
    # Row i holds the i-th kept pair as [x, y], so each candidate is compared
    # with every kept pair in one array operation.
    kept = np.empty((0, 2 * n))
    for x, y in _equilibria(payoff, max_n, tolerance):
        pair = np.r_[x, y]
        distance = np.abs(kept - pair)
        if np.any((distance[:, :n].max(axis=1) <= DEDUP_TOL) & (distance[:, n:].max(axis=1) <= DEDUP_TOL)):
            continue
        kept = np.vstack([kept, pair])
    return [
        (Policy(n=n, w=_as_readonly(x)), Policy(n=n, w=_as_readonly(y)), float(x @ payoff.a @ y))
        for x, y in zip(kept[:, :n], kept[:, n:])
    ]


def game_value(payoff: PayoffMatrix) -> float:
    """The value at the first equilibrium support enumeration finds.

    Every equilibrium of a zero-sum game has the same value, so this stops
    early where a degenerate game has thousands of them.
    """
    x, y = next(_equilibria(payoff, DEFAULT_MAX_ENUM_N, DEFAULT_VERIFY_TOL))
    return float(x @ payoff.a @ y)
