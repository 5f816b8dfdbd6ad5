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

from ._simplex import INFEASIBLE, OPTIMAL, solve_standard_lp
from .core import (
    MappingError,
    PayoffMatrix,
    Policy,
    PreferenceMatrix,
    Record,
    ValidationError,
    _as_readonly,
    _float_array,
    make_payoff,
    make_policy,
    validate_preferences,
)
from .solver import DEFAULT_VERIFY_TOL, NashReport, SolverError, _span, solve_maximin

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BTLModel(Record):
    """A reward per response; preferences follow by logistic comparison."""

    rewards: np.ndarray


@dataclass(frozen=True)
class KKTCertificate(Record):
    """Stationarity evidence that a target policy is a maximin solution.

    ``u`` re-weights the columns so that every row payoff equals ``t``,
    while the target keeps every column payoff at most ``t`` and puts
    weight only on tight columns.  ``u`` is None when no such weighting
    exists; infeasibility is a result, not an error.
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
    if not np.all(np.isfinite(r)):
        raise ValidationError("rewards must be finite")
    return BTLModel(rewards=_as_readonly(r))


def btl_preferences(model: BTLModel) -> PreferenceMatrix:
    """Pairwise win probabilities: the logistic function of reward gaps.

    Computed from exp(-|gap|) so large rewards neither overflow nor lose
    the complement identity.
    """
    r = model.rewards
    diff = r[:, None] - r[None, :]
    damp = np.exp(-np.abs(diff))
    p = np.where(diff >= 0.0, 1.0 / (1.0 + damp), damp / (1.0 + damp))
    return validate_preferences(p)


def pm_policy(model: BTLModel) -> Policy:
    """The softmax of the rewards: the policy proportional to exp(reward)."""
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

    return RatioPayoffSpec(f=f, diagonal_c=c)


def degenerate_family(n: int, c: float = 0.0, c2: float = 1.0) -> RatioPayoffSpec:
    """The ratio family f(x) = c2/x + c2*(n-1) + c with self-play payoff c.

    Built for exactly ``n`` responses: there every column payoff collapses
    to the same constant and any full-support target certifies.  Reusing
    the family at a different response count breaks that collapse, which is
    the point of the mismatch probe.
    """
    if n < 2:
        raise ValidationError(f"degenerate family needs n >= 2, got {n}")
    shift = c2 * (n - 1) + c

    def f(x: np.ndarray) -> np.ndarray:
        return c2 / x + shift

    return RatioPayoffSpec(f=f, diagonal_c=c)


def kkt_verify(payoff: PayoffMatrix, target: Policy) -> KKTCertificate:
    """Check whether ``target`` is a maximin solution of ``payoff``.

    The certificate value is pinned at the maximum column payoff under the
    target, which complementary slackness forces; the column weights are
    then restricted to tight columns and the remaining equalization system
    is solved as a pure feasibility LP.  ``DEFAULT_VERIFY_TOL`` is relative
    to the payoff span, and the system is solved on the payoff mapped to
    [0, 1] (the same weights solve it), so the verdict does not change
    under a positive affine map of the payoff.
    """
    if target.n != payoff.n:
        raise ValidationError(
            f"dimension mismatch: payoff n={payoff.n}, target n={target.n}"
        )
    w = _require_full_support(target, "kkt_verify")
    a = payoff.a
    n = payoff.n
    column_payoffs = w @ a
    t = float(np.max(column_payoffs))
    column_slacks = column_payoffs - t
    low, span = a.min(), _span(a)
    tol = DEFAULT_VERIFY_TOL * span
    tight = np.flatnonzero(column_slacks >= -tol)
    k = tight.size

    a_eq = np.zeros((n + 1, k))
    a_eq[:n, :] = (a[:, tight] - low) / span
    a_eq[n, :] = 1.0
    b_eq = np.concatenate([np.full(n, (t - low) / span), [1.0]])
    result = solve_standard_lp(np.zeros(k), a_eq, b_eq)
    if result.status == INFEASIBLE:
        logger.debug("kkt infeasible: n=%d t=%.12g tight=%d", n, t, k)
        return KKTCertificate(
            u=None,
            t=t,
            column_slacks=_as_readonly(column_slacks),
            complementarity_residual=None,
            feasible=False,
        )
    if result.status != OPTIMAL:
        raise SolverError(f"KKT feasibility LP ended with status {result.status}")

    u = np.zeros(n)
    u[tight] = np.clip(result.x, 0.0, None)
    u /= u.sum()
    row_payoffs = a @ u
    row_residual = float(np.max(np.abs(row_payoffs - t)))
    # ``u`` lives on tight columns, whose slacks lie in [-tol, 0], and
    # u <= 1, so complementarity holds by construction; it is reported only.
    complementarity = float(np.max(np.abs(u * column_slacks)))
    feasible = row_residual <= tol
    return KKTCertificate(
        u=Policy(n=n, w=_as_readonly(u)),
        t=t,
        column_slacks=_as_readonly(column_slacks),
        complementarity_residual=complementarity,
        feasible=feasible,
    )


def pm_gap(spec: RatioPayoffSpec, target: Policy) -> ProbeReport:
    """Solve the ratio family's game and measure the miss against the target.

    The gap is the total-variation distance between the solver's row
    strategy and the target.  The attached certificate matters when the gap
    is positive: the target could still be an optimal strategy the solver
    simply did not return, and only an infeasible certificate rules that
    out.
    """
    payoff = ratio_payoff(spec, target)
    nash = solve_maximin(payoff)
    gap = 0.5 * float(np.abs(nash.row_strategy.w - target.w).sum())
    certificate = kkt_verify(payoff, target)
    return ProbeReport(gap=gap, kkt=certificate, nash=nash)
