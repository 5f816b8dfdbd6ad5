"""Reward-based preferences and the search for diversity-preserving payoffs.

A logistic reward model turns a reward vector into pairwise preferences;
its softmax is the policy that matches those preferences' proportions.
``kkt_verify`` certifies whether a given full-support policy is a maximin
solution of a payoff matrix, ``construction_one``/``construction_two``
build matrices for which any target certifiably is, and ``pm_gap`` probes
how badly a ratio-structured payoff family misses a target.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    MappingError,
    PayoffMatrix,
    Policy,
    PreferenceMatrix,
    Record,
    ValidationError,
    _as_readonly,
    _float_array,
    _integer,
    _real,
    _require_same_n,
    make_payoff,
    make_policy,
    validate_preferences,
)
from .solver import DEFAULT_VERIFY_TOL, NashReport, _pair_payoffs, _solve_dantzig, _span

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BTLModel(Record):
    """A reward per response; preferences follow by logistic comparison."""

    rewards: np.ndarray


@dataclass(frozen=True)
class KKTCertificate(Record):
    """Duality evidence that a full-support target policy is a maximin solution.

    ``t`` is the target's guarantee: every column payoff is at least
    ``t``, and ``column_slacks`` (column payoff minus ``t``) are >= 0.
    ``u`` is the column strategy of a certified solve, so max(A u) is
    within ``DEFAULT_SOLVER_TOL`` times the payoff span of the value.  By
    weak duality no row strategy guarantees more than max(A u), so
    ``feasible`` is the bound max(A u) - t <= ``DEFAULT_VERIFY_TOL`` times
    the span: the target attains the value up to that tolerance.  When the
    bound fails, the value exceeds t by more than the difference of the
    two tolerances times the span, so the target is proved not maximin;
    ``u`` and ``complementarity_residual`` are then None, as infeasibility
    is a result, not an error.  The residual max_j u_j * slack_j is
    reported only.
    """

    u: Policy | None
    t: float
    column_slacks: np.ndarray
    complementarity_residual: float | None
    feasible: bool


@dataclass(frozen=True)
class RatioPayoffSpec:
    """Payoff family whose off-diagonal entries depend only on mass ratios.

    ``f`` maps the ratio of target masses to a payoff and must accept numpy
    arrays; ``diagonal_c`` is the constant self-play payoff.
    """

    f: Callable[[np.ndarray], np.ndarray]
    diagonal_c: float


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of probing a ratio family against a target policy."""

    gap: float
    kkt: KKTCertificate
    nash: NashReport

    # A flat summary of the two nested reports, not a dump of them.
    def to_dict(self) -> dict:
        return {
            "gap": self.gap,
            "kkt_feasible": self.kkt.feasible,
            "value": self.nash.value,
            "row_strategy": self.nash.row_strategy.w.tolist(),
        }


def make_btl(rewards) -> BTLModel:
    r = _float_array(rewards, "rewards")
    if r.ndim != 1 or r.size < 1:
        raise ValidationError(f"rewards must be a nonempty vector, got shape {r.shape}")
    return BTLModel(rewards=_as_readonly(r))


def btl_preferences(model: BTLModel) -> PreferenceMatrix:
    """Pairwise win probabilities: the logistic function of reward gaps.

    Computed from exp(-|gap|) so large rewards neither overflow nor lose
    the complement identity.  A gap beyond the float range is ±inf, whose
    logistic is exactly 1 or 0.
    """
    r = model.rewards
    with np.errstate(over="ignore"):
        diff = r[:, None] - r[None, :]
    damp = np.exp(-np.abs(diff))
    p = np.where(diff >= 0.0, 1.0 / (1.0 + damp), damp / (1.0 + damp))
    return validate_preferences(p)


def pm_policy(model: BTLModel) -> Policy:
    """The softmax of the rewards: the policy proportional to exp(reward).

    A reward more than the float range below the largest is -inf here and
    gets mass exactly 0.
    """
    with np.errstate(over="ignore"):
        z = model.rewards - np.max(model.rewards)
    e = np.exp(z)
    return make_policy(e / e.sum())


def _require_full_support(target: Policy, context: str) -> np.ndarray:
    if np.any(target.w <= 0.0):
        i = int(np.argmin(target.w))
        raise ValidationError(f"{context} needs a strictly positive target; w[{i}] = {target.w[i]}")
    return target.w


def construction_one(target: Policy) -> PayoffMatrix:
    """Payoff a[i][j] = w_i + w_j - 1[i==j]; the target is its maximin solution."""
    w = _require_full_support(target, "construction_one")
    a = w[:, None] + w[None, :] - np.eye(target.n)
    return make_payoff(a)


def construction_two(target: Policy) -> PayoffMatrix:
    """Payoff a[i][j] = -w_j/w_i + n*1[i==j]; the target is its maximin solution."""
    w = _require_full_support(target, "construction_two")
    a = -(w[None, :] / w[:, None]) + target.n * np.eye(target.n)
    return make_payoff(a)


def ratio_payoff(spec: RatioPayoffSpec, target: Policy) -> PayoffMatrix:
    """Evaluate a ratio family at a target policy's mass ratios."""
    w = _require_full_support(target, "ratio_payoff")
    # A ratio or payoff beyond the float range is refused as non-finite below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = w[:, None] / w[None, :]
        try:
            a = np.asarray(spec.f(ratios), dtype=float)
        except Exception as exc:
            raise MappingError(f"ratio function failed on the target's ratios: {exc}") from exc
    if a.shape != ratios.shape:
        raise MappingError(
            f"ratio function must map arrays elementwise; got shape {a.shape} "
            f"for input shape {ratios.shape}"
        )
    a = a.copy()
    np.fill_diagonal(a, spec.diagonal_c)
    if not np.all(np.isfinite(a)):
        raise MappingError("ratio function produced non-finite payoffs")
    return make_payoff(a)


def btl_family(c: float = 0.5) -> RatioPayoffSpec:
    """The ratio family f(x) = x / (1 + x) with self-play payoff ``c``.

    At a target's mass ratios this is the BTL win probability of the
    target's log-masses taken as rewards.
    """

    def f(x: np.ndarray) -> np.ndarray:
        return x / (1.0 + x)

    return RatioPayoffSpec(f=f, diagonal_c=_real(c, "c"))


def degenerate_family(n: int, c: float = 0.0, c2: float = 1.0) -> RatioPayoffSpec:
    """The ratio family f(x) = c2/x + c2*(n-1) + c with self-play payoff c.

    Built for exactly ``n`` responses: there every column payoff collapses
    to the same constant and any full-support target certifies.  Reusing
    the family at a different response count breaks that collapse, which is
    the point of the mismatch probe.
    """
    n = _integer(n, "n", 2)
    c, c2 = _real(c, "c"), _real(c2, "c2")
    shift = c2 * _real(n - 1, "n") + c

    def f(x: np.ndarray) -> np.ndarray:
        return c2 / x + shift

    return RatioPayoffSpec(f=f, diagonal_c=c)


def _certificate(payoff: PayoffMatrix, target: Policy, nash: NashReport) -> KKTCertificate:
    """The weak-duality verdict on ``target`` from the solve's column strategy, logged with the solve's pivots."""
    u, span = nash.col_strategy, _span(payoff.a)
    column_payoffs, t, gap = _pair_payoffs(payoff, target, u)
    column_slacks = _as_readonly(column_payoffs - t)
    feasible = gap <= DEFAULT_VERIFY_TOL * span
    verdict = "feasible" if feasible else "infeasible"
    logger.debug(
        "kkt %s: n=%d t=%.12g gap=%.3g span=%.3g pivots=%d", verdict, payoff.n, t, gap, span, nash.solver_iterations
    )
    return KKTCertificate(
        u=u if feasible else None,
        t=t,
        column_slacks=column_slacks,
        complementarity_residual=float(np.max(u.w * column_slacks)) if feasible else None,
        feasible=feasible,
    )


def kkt_verify(payoff: PayoffMatrix, target: Policy) -> KKTCertificate:
    """Check whether ``target`` is a maximin solution of ``payoff``.

    A full-support target is maximin iff its guarantee t = min_j (wᵀA)_j
    is the game's value.  ``u`` is the column strategy of
    ``solver._solve_dantzig``, one phase-1-free LP whose pair is certified
    as in ``solve_maximin``.  The target certifies when max(A u) - t,
    which bounds value - t from above, is at most ``DEFAULT_VERIFY_TOL``
    times the span, so the verdict does not change under a positive affine
    map of the payoff.  Raises ``SolverError`` when the solve lost
    accuracy, so an infeasible verdict is proved, never a round-off miss.
    """
    _require_same_n("payoff", payoff.n, "target", target.n)
    _require_full_support(target, "kkt_verify")
    return _certificate(payoff, target, _solve_dantzig(payoff)[0])


def pm_gap(spec: RatioPayoffSpec, target: Policy) -> ProbeReport:
    """Solve the ratio family's game and measure the miss against the target.

    The game is solved as ``kkt_verify`` solves it, by
    ``solver._solve_dantzig``: one LP (``lps=1`` in its debug line) with
    no phase 1, certified by its exploitability.  The gap is the
    total-variation distance between the solve's row strategy and the
    target.  The attached certificate matters when the gap is positive:
    the target could still be an optimal strategy the solve simply did
    not return.  It is ``kkt_verify``'s verdict on the same solve, so no
    second LP runs.  A feasible certificate proves the target optimal, and
    an infeasible one rules that out.
    """
    payoff = ratio_payoff(spec, target)
    nash = _solve_dantzig(payoff)[0]
    gap = 0.5 * float(np.abs(nash.row_strategy.w - target.w).sum())
    return ProbeReport(gap=gap, kkt=_certificate(payoff, target, nash), nash=nash)
