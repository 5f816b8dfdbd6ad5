"""Exact maximin solving for finite two-player zero-sum games.

The row player's problem max_pi min_j pi.A[:, j] becomes a linear program
by introducing the guaranteed value as an epigraph variable; the column
player's problem is the same program on the negated transpose.  When the
game is skew-symmetric (A = -A^T, as under any symmetric mapping) that
program is the row player's own, so it is solved once; otherwise both are
solved.  Every reported pair is certified by its exploitability, the
distance from mutual best response, relative to the payoff span.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._simplex import OPTIMAL, optimal_face_ranges, solve_standard_lp
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

    ``row_strategy`` attains ``value`` as a guaranteed minimum over columns;
    ``col_strategy`` caps the row player at ``value`` from above.
    ``exploitability`` is ``best_response_gap`` of the two strategies, at
    most ``DEFAULT_SOLVER_TOL`` times the payoff span.
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
    over all optimal row strategies, read off the optimal face of Dantzig's
    LP for the row player; ``unique`` means every range has width at most
    ``DEFAULT_VERIFY_TOL``.  ``face_vertex`` says the face was the LP's
    final vertex alone, so the ranges were read off it with no range LP.
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


def _maximin_lp(a: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Best guaranteed value for the row player of payoff array ``a``."""
    result = solve_standard_lp(*_maximin_program(a))
    if result.status != OPTIMAL:
        raise SolverError(f"maximin LP ended with status {result.status}")
    value = -result.objective + 0.0  # avoid reporting negative zero
    return result.x[: a.shape[0]], value, result.iterations


def solve_maximin(payoff: PayoffMatrix) -> NashReport:
    """Solve the zero-sum game with payoff matrix ``payoff``.

    The column player's LP runs on ``-a.T``.  When that array equals ``a``
    the game is skew-symmetric and the row player's solve is reused, so one
    LP runs instead of two and ``solver_iterations`` counts its pivots only.
    Raises ``SolverError`` if the reported pair's exploitability exceeds
    ``DEFAULT_SOLVER_TOL`` times the payoff span: the LPs lost accuracy,
    and the pair is not an equilibrium.  The span is taken before any LP
    runs, so a span that overflows a float is a ``ValidationError``.
    """
    a = payoff.a
    span = _span(a)
    neg_t = -a.T
    row_w, value, iters_row = _maximin_lp(a)
    # array_equal counts the -0.0 on the diagonal of -a.T equal to a's 0.0; a
    # signed zero only changes signs of zeros in the LP, which the clipped
    # strategies and the "+ 0.0" value drop, so reuse is bit-identical.
    skew = np.array_equal(neg_t, a)
    col_w, _, iters_col = (row_w, value, 0) if skew else _maximin_lp(neg_t)
    row = _clean_policy(row_w)
    col = row if skew else _clean_policy(col_w)
    exploitability = best_response_gap(payoff, row, col)
    if exploitability > DEFAULT_SOLVER_TOL * span:
        raise SolverError(
            f"exploitability {exploitability} exceeds {DEFAULT_SOLVER_TOL} x payoff span {span}; "
            "the LP solve lost accuracy"
        )
    logger.debug(
        "maximin solved: n=%d lps=%d value=%.12g exploitability=%.3g span=%.3g iterations=%d",
        payoff.n,
        1 if skew else 2,
        value,
        exploitability,
        span,
        iters_row + iters_col,
    )
    return NashReport(
        row_strategy=row,
        col_strategy=col,
        value=float(value),
        exploitability=exploitability,
        solver_iterations=iters_row + iters_col,
    )


def best_response_gap(payoff: PayoffMatrix, pi1: Policy, pi2: Policy) -> float:
    """How far the pair (pi1, pi2) is from mutual best response.

    Zero exactly at the game's equilibria: max(A pi2) - min(pi1 A), the sum
    of the row player's regret against ``pi2`` and the column player's
    regret against ``pi1``, in which the pair's own payoff cancels.
    """
    _require_same_n("payoff", payoff.n, "policies", pi1.n, pi2.n)
    return float(np.max(payoff.a @ pi2.w) - np.min(pi1.w @ payoff.a))


def uniqueness_report(payoff: PayoffMatrix, nash: NashReport) -> UniquenessReport:
    """Measure the optimal-strategy polytope around a solved game.

    Each strategy weight is bounded over the optimal face of Dantzig's LP
    max 1ᵀy subject to (2 - Âᵀ) y <= 1, y >= 0, where Â is the payoff
    mapped onto [0, 1], with ``DEFAULT_SOLVER_TOL`` as the reduced-cost
    tolerance, so the ranges do not move under a positive affine map of
    the payoff.  ``unique`` holds when every coordinate is pinned to width
    at most ``DEFAULT_VERIFY_TOL``; the dual-support flag records whether
    every column weight of the opponent's strategy is active, the
    full-support condition tied to uniqueness.
    """
    a = payoff.a
    n = payoff.n
    _require_same_n("payoff", n, "report", nash.row_strategy.n, nash.col_strategy.n)
    unit, low, span = _unit_span(a)
    w = nash.row_strategy.w
    column_slacks = w @ a - nash.value
    dual_support_full = bool(np.all(nash.col_strategy.w > SUPPORT_THRESHOLD))
    # Dantzig's LP: y / sum(y) ranges over the optimal row strategies, and
    # sum(y) is 1 / (2 - value) on the whole face.
    result, ranges, face_columns, range_pivots = optimal_face_ranges(2.0 - unit.T, DEFAULT_SOLVER_TOL)
    value = 2.0 + 1.0 / result.objective
    if abs(value - (nash.value - low) / span) > DEFAULT_VERIFY_TOL:
        raise SolverError(f"the payoff's value {low + value * span} is not the report's {nash.value}")
    ranges /= -result.objective
    logger.debug(
        "uniqueness probed: n=%d face_columns=%d pivots=%d range_pivots=%d",
        n,
        face_columns,
        result.iterations,
        range_pivots,
    )
    widths = ranges[:, 1] - ranges[:, 0]
    unique = bool(np.all(widths <= DEFAULT_VERIFY_TOL))
    return UniquenessReport(
        unique=unique,
        column_slacks=_as_readonly(column_slacks),
        dual_support_full=dual_support_full,
        coordinate_ranges=_as_readonly(ranges),
        face_vertex=face_columns == n,
    )
