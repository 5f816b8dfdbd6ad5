"""Exact maximin solving for finite two-player zero-sum games.

The row player's problem max_pi min_j pi.A[:, j] becomes a linear program
by introducing the guaranteed value as an epigraph variable; the column
player's problem is the same program on the negated transpose.  When the
game is skew-symmetric (A = -A^T, as under any symmetric mapping) that
program is the row player's own, so it is solved once; otherwise both are
solved.  ``_solve_dantzig`` gets both strategies from one phase-1-free LP
instead (Dantzig 1951); ``kkt_verify``, ``pm_gap`` and ``uniqueness_report``
call it.  Every reported pair is certified by its exploitability, the
distance from mutual best response, relative to the payoff span.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._simplex import OPTIMAL, optimal_face_ranges, slack_basis_lp, solve_standard_lp
from .core import (
    SUPPORT_THRESHOLD,
    PayoffMatrix,
    Policy,
    Record,
    SolverError,
    ValidationError,
    _as_readonly,
    _require_same_n,
)

logger = logging.getLogger(__name__)

DEFAULT_SOLVER_TOL = 1e-9
DEFAULT_VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class NashReport(Record):
    """Solution of a zero-sum game from both sides.

    ``value`` is the row strategy's exact guarantee min(xᵀA); the game's
    value lies in [value, value + ``exploitability``], where
    ``exploitability`` = max(A y) - value, the pair's ``best_response_gap``,
    is at most ``DEFAULT_SOLVER_TOL`` times the payoff span.
    ``solver_iterations`` counts the simplex pivots of every LP solved.
    """

    row_strategy: Policy
    col_strategy: Policy
    value: float
    exploitability: float
    solver_iterations: int


@dataclass(frozen=True)
class UniquenessReport(Record):
    """Optimal-polytope geometry around a solved game.

    ``coordinate_ranges[i]`` is the [min, max] of the i-th strategy weight
    over all optimal row strategies, read off the optimal face of the
    certified ``_solve_dantzig`` LP of the column player's game; ``unique``
    means every range has width at most ``DEFAULT_VERIFY_TOL``.
    ``column_slacks`` are xᵀA minus its minimum.  ``face_vertex`` says the
    face was the LP's final vertex alone, read off with no range LP.
    """

    unique: bool
    column_slacks: np.ndarray
    dual_support_full: bool
    coordinate_ranges: np.ndarray
    face_vertex: bool


def _clean_policy(w: np.ndarray) -> Policy:
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise SolverError("LP returned an empty strategy")
    return Policy(n=int(w.size), w=_as_readonly(w / total))


def _span(a: np.ndarray) -> float:
    """The payoff's range of entries, or 1 for a constant payoff.

    A non-finite entry is a ``SolverError``, as in every LP; finite entries
    whose range overflows a float are a ``ValidationError``.
    """
    high, low = float(a.max()), float(a.min())
    if not (math.isfinite(high) and math.isfinite(low)):
        raise SolverError("LP inputs must be finite")
    span = high - low  # Python floats overflow to inf without numpy's warning
    if not math.isfinite(span):
        raise ValidationError(f"payoff span is not finite: max {high!r} - min {low!r} = {span!r}")
    return span or 1.0


def _unit_span(a: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``((a - low) / span, low, span)``: the payoff on [0, 1], where affine maps of ``a`` do not move it."""
    span, low = _span(a), float(a.min())
    return (a - low) / span, low, span


def _maximin_program(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row player's LP on payoff array ``a`` as ``(c, a_eq, b_eq)``.

    Standard-form variables: strategy weights, the split epigraph value,
    and one surplus per column constraint; the optimum is minus the value.
    """
    n, m = a.shape
    nv = n + 2 + m
    a_eq = np.zeros((m + 1, nv))
    a_eq[:m, :n] = a.T
    a_eq[:m, n] = -1.0
    a_eq[:m, n + 1] = 1.0
    # Index assignment, not -np.eye, whose -0.0 entries could surface as
    # signed zeros in the reported strategies.
    a_eq[np.arange(m), n + 2 + np.arange(m)] = -1.0
    a_eq[m, :n] = 1.0
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    c = np.zeros(nv)
    c[n] = -1.0
    c[n + 1] = 1.0
    return c, a_eq, b_eq


def _maximin_lp(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Optimal row-strategy weights of payoff array ``a`` and the pivots that found them."""
    result = solve_standard_lp(*_maximin_program(a))
    if result.status != OPTIMAL:
        raise SolverError(f"maximin LP ended with status {result.status}")
    return result.x[: a.shape[0]], result.iterations


def _pair_payoffs(payoff: PayoffMatrix, x: Policy, y: Policy) -> tuple[np.ndarray, float, float]:
    """What the pair (x, y) is worth: xᵀA, x's guarantee min(xᵀA) and the gap max(A y) - min(xᵀA).

    The guarantee drops a negative zero; the game's value lies in [guarantee, guarantee + gap].
    """
    column_payoffs = x.w @ payoff.a
    low = np.min(column_payoffs)
    return column_payoffs, float(low) + 0.0, float(np.max(payoff.a @ y.w) - low)


def _certified_report(
    payoff: PayoffMatrix, span: float, row_w: np.ndarray, col_w: np.ndarray, lps: int, iterations: int
) -> NashReport:
    """Clip and normalize both strategies, certify them and log the solve.

    ``col_w`` may be ``row_w`` itself, and then one policy is both
    strategies; ``_pair_payoffs`` gives the value and exploitability.
    Raises ``SolverError`` unless the exploitability is at most
    ``DEFAULT_SOLVER_TOL`` times ``span``: the LPs lost accuracy, and the
    pair is not an equilibrium.  A NaN exploitability, from strategies the
    LPs left non-finite, fails that test too.
    """
    row = _clean_policy(row_w)
    col = row if col_w is row_w else _clean_policy(col_w)
    _, value, exploitability = _pair_payoffs(payoff, row, col)
    if not exploitability <= DEFAULT_SOLVER_TOL * span:
        raise SolverError(
            f"exploitability {exploitability} exceeds {DEFAULT_SOLVER_TOL} x payoff span {span}; "
            "the LP solve lost accuracy"
        )
    logger.debug(
        "maximin solved: n=%d lps=%d value=%.12g exploitability=%.3g span=%.3g iterations=%d",
        payoff.n,
        lps,
        value,
        exploitability,
        span,
        iterations,
    )
    return NashReport(
        row_strategy=row,
        col_strategy=col,
        value=value,
        exploitability=exploitability,
        solver_iterations=iterations,
    )


def _solve_dantzig(payoff: PayoffMatrix) -> tuple[NashReport, np.ndarray, np.ndarray]:
    """Solve the game with one LP and certify the pair as ``solve_maximin`` does.

    Dantzig's (1951) LP max 1ᵀz subject to (1 + Â) z <= 1, z >= 0, on the
    payoff Â = (a - min) / span mapped onto [0, 1], starts from its
    feasible slack basis, so no phase 1 runs.  z / Σz is an optimal column
    strategy, and the slack columns' final reduced costs, the LP's dual,
    are proportional to an optimal row strategy.  Returns the report with
    the LP's final tableau and basis.
    """
    unit, _, span = _unit_span(payoff.a)
    result, work, basis = slack_basis_lp(1.0 + unit)
    n = payoff.n
    return _certified_report(payoff, span, work[-1, n : 2 * n], result.x[:n], 1, result.iterations), work, basis


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_maximin(payoff: PayoffMatrix) -> NashReport:
    """Solve the zero-sum game with payoff matrix ``payoff``.

    The column player's LP runs on ``-a.T``.  When that array equals ``a``
    the game is skew-symmetric and the row player's solve is reused, so one
    LP runs instead of two and ``solver_iterations`` counts its pivots only.
    Raises ``SolverError`` if the reported pair's exploitability exceeds
    ``DEFAULT_SOLVER_TOL`` times the payoff span: the LPs lost accuracy,
    and the pair is not an equilibrium.  The span is taken before any LP
    runs, so a span that overflows a float is a ``ValidationError``.  The
    LPs run with numpy's floating-point warnings off: a tableau that
    overflows ends in a ``SolverError``, from the LP status, the ratio test
    or the certificate, not in a warning.
    """
    a = payoff.a
    span = _span(a)
    neg_t = -a.T
    row_w, iters_row = _maximin_lp(a)
    # array_equal counts the -0.0 on the diagonal of -a.T equal to a's 0.0; a
    # signed zero only changes signs of zeros in the LP, which the clipped
    # strategies drop, so reuse is bit-identical.
    skew = np.array_equal(neg_t, a)
    col_w, iters_col = (row_w, 0) if skew else _maximin_lp(neg_t)
    return _certified_report(payoff, span, row_w, col_w, 1 if skew else 2, iters_row + iters_col)


def best_response_gap(payoff: PayoffMatrix, pi1: Policy, pi2: Policy) -> float:
    """How far the pair (pi1, pi2) is from mutual best response.

    Zero exactly at the game's equilibria: max(A pi2) - min(pi1 A), the sum
    of the row player's regret against ``pi2`` and the column player's
    regret against ``pi1``, in which the pair's own payoff cancels.
    """
    _require_same_n("payoff", payoff.n, "policies", pi1.n, pi2.n)
    return _pair_payoffs(payoff, pi1, pi2)[2]


def uniqueness_report(payoff: PayoffMatrix, nash: NashReport) -> UniquenessReport:
    """Measure the optimal-strategy polytope around a solved game.

    ``_solve_dantzig`` solves the column player's game -Âᵀ, where Â is the
    payoff mapped onto [0, 1], and its z / Σz ranges over the optimal row
    strategies.  Each weight is bounded over that certified LP's optimal
    face with ``DEFAULT_SOLVER_TOL`` as the reduced-cost tolerance, so the
    ranges do not move under a positive affine map of the payoff.
    ``unique`` holds when every coordinate is pinned to width at most
    ``DEFAULT_VERIFY_TOL``; the dual-support flag records whether every
    column weight of the opponent's strategy is active, the full-support
    condition tied to uniqueness.
    """
    n = payoff.n
    _require_same_n("payoff", n, "report", nash.row_strategy.n, nash.col_strategy.n)
    unit, low, span = _unit_span(payoff.a)
    column_payoffs, guarantee, _ = _pair_payoffs(payoff, nash.row_strategy, nash.col_strategy)
    face, work, basis = _solve_dantzig(PayoffMatrix(n=n, a=-unit.T))
    # The face solve's guarantee is minus an upper bound on the unit game's value.
    if abs(face.value + (nash.value - low) / span) > DEFAULT_VERIFY_TOL:
        raise SolverError(f"the payoff's value {low - face.value * span} is not the report's {nash.value}")
    ranges, face_columns, range_pivots = optimal_face_ranges(work, basis, DEFAULT_SOLVER_TOL)
    ranges /= work[:-1, -1][basis < n].sum()  # Σz, the LP's optimum, is the same on the whole face
    if not np.all(np.abs(ranges - 0.5) <= 0.5 + DEFAULT_VERIFY_TOL):
        raise SolverError(f"the optimal face lost accuracy: weight ranges span {ranges.min()} to {ranges.max()}")
    ranges = np.clip(ranges, 0.0, 1.0)
    logger.debug(
        "uniqueness probed: n=%d face_columns=%d pivots=%d range_pivots=%d",
        n,
        face_columns,
        face.solver_iterations,
        range_pivots,
    )
    return UniquenessReport(
        unique=bool(np.all(ranges[:, 1] - ranges[:, 0] <= DEFAULT_VERIFY_TOL)),
        column_slacks=_as_readonly(column_payoffs - guarantee),
        dual_support_full=bool(np.all(nash.col_strategy.w > SUPPORT_THRESHOLD)),
        coordinate_ranges=_as_readonly(ranges),
        face_vertex=face_columns == n,
    )
