"""Seeded preference generators and the fixed proof-game tables.

Random tournaments are reproducible bit-for-bit from their seed: the PCG64
generator seeded through numpy's SeedSequence is part of the public
contract, so fixtures stay stable across platforms.  The small proof
games that separate the mapping conditions are preference tables
(``table_preferences``), which ``apply_mapping`` turns into payoffs, and
``mixture_weights`` solves the 2x2 system that makes the six-response
game's two-cycle blend an exact equalizer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    GenerationError,
    Policy,
    PreferenceMatrix,
    ValidationError,
    _integer,
    _real,
    make_policy,
    validate_preferences,
)
from .mappings import MappingSpec, apply_mapping

REJECTION_CAP = 10_000


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for one seeded random tournament draw.

    Winning preferences are drawn uniformly from
    [strength_low, strength_high], which must sit strictly inside
    (1/2, 1) so no draw ever ties or saturates.
    """

    n: int
    seed: int
    strength_low: float = 0.55
    strength_high: float = 0.95
    force_no_winner: bool = False

    def __post_init__(self) -> None:
        _integer(self.n, "n", 1)
        _integer(self.seed, "seed", 0)
        low, high = _real(self.strength_low, "strength_low"), _real(self.strength_high, "strength_high")
        if not 0.5 < low <= high < 1.0:
            raise ValidationError(
                f"need 1/2 < strength_low <= strength_high < 1, got "
                f"[{self.strength_low}, {self.strength_high}]"
            )


@functools.lru_cache(maxsize=32)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j of n responses, in row-major order."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def random_tournament(cfg: GeneratorConfig) -> PreferenceMatrix:
    """Draw a strict random tournament, deterministic given the config.

    Each unordered pair gets a fair-coin winner and a uniform preference
    strength.  With ``force_no_winner`` the draw repeats (advancing the
    same stream) until no response beats all others.  Below three
    responses that is impossible, and the call raises before any draw; the
    attempt cap only bites for sizes where it is vanishingly rare.
    """
    n = cfg.n
    if cfg.force_no_winner and n < 3:
        raise GenerationError(f"no tournament of size {n} is winner-free; force_no_winner needs n >= 3")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    rows, cols = _pairs(n)
    low, high = cfg.strength_low, cfg.strength_high
    for _ in range(REJECTION_CAP):
        # Pairs i < j in row-major order, each drawing its strength, then its coin.
        draws = rng.random(2 * rows.size)
        row_wins = draws[1::2] < 0.5
        # Strengths lie strictly above 1/2, so the coins alone decide who
        # beats whom: a Condorcet winner wins all n - 1 of its pairs.
        if cfg.force_no_winner and np.bincount(np.where(row_wins, rows, cols), minlength=n).max() == n - 1:
            continue
        strength = low + (high - low) * draws[0::2]
        p = np.full((n, n), 0.5)
        p[rows, cols] = np.where(row_wins, strength, 1.0 - strength)
        p[cols, rows] = np.where(row_wins, 1.0 - strength, strength)
        return validate_preferences(p)
    raise GenerationError(
        f"no winner-free tournament of size {n} in {REJECTION_CAP} attempts"
    )


def _open_half(name: str, t: float | None) -> float:
    """``t`` read by ``core._real``; it must lie in (1/2, 1]."""
    if t is None or not 0.5 < _real(t, name) <= 1.0:
        raise ValidationError(f"{name} must lie in (1/2, 1], got {t}")
    return float(t)


def table_preferences(kind: str, t1: float, t2: float | None = None) -> PreferenceMatrix:
    """The proof game ``kind`` as a preference table.

    - ``table2``: two responses, the first preferred with probability ``t1``;
    - ``table4``: a three-cycle at strength ``t1`` whose responses each beat
      a fourth, dominated one with probability ``t2``;
    - ``table6``: two stacked three-cycles at strength ``t1``, the upper
      one beating the lower at ``t2``.
    """
    if kind == "table2":
        if t2 is not None:
            raise ValidationError("table2 takes one strength")
        t1 = _open_half("t", t1)
        return validate_preferences([[0.5, t1], [1.0 - t1, 0.5]])
    if kind not in ("table4", "table6"):
        raise ValidationError(f"unknown table {kind!r}; known tables: table2, table4, table6")
    t1, t2 = _open_half("t1", t1), _open_half("t2", t2)
    cycle = np.array([[0.5, t1, 1.0 - t1], [1.0 - t1, 0.5, t1], [t1, 1.0 - t1, 0.5]])
    if kind == "table4":
        p = np.block([[cycle, np.full((3, 1), t2)], [np.full((1, 3), 1.0 - t2), 0.5]])
    else:
        p = np.block([[cycle, np.full((3, 3), t2)], [np.full((3, 3), 1.0 - t2), cycle]])
    return validate_preferences(p)


def mixture_weights(mapping: MappingSpec, t1: float, t2: float) -> tuple[Policy, Policy]:
    """Blend weights making both cycles of ``table6`` under ``mapping`` exact equalizers.

    Solving mu1*(S - 3*f(t2)) = mu2*(S - 3*f(1-t2)) with mu1 + mu2 = 1,
    where S is the cycle sum f(1/2) + f(t1) + f(1-t1), spreads mu1 over the
    top cycle and mu2 over the bottom one; the primed policy swaps the two
    brackets.  A positive solution exists exactly when both brackets
    S - 3*f(t2) and S - 3*f(1-t2) are positive; the interesting use has
    cross values straddling the midpoint value, but only positivity is
    required.
    """
    a = apply_mapping(table_preferences("table6", t1, t2), mapping).a
    mid, a1, b1, a2, b2 = (float(a[i, j]) for i, j in ((0, 0), (0, 1), (0, 2), (0, 3), (3, 0)))
    cycle_sum = mid + a1 + b1
    d_top = cycle_sum - 3.0 * a2
    d_bottom = cycle_sum - 3.0 * b2
    if not (d_top > 0.0 and d_bottom > 0.0):
        raise ValidationError(
            f"no positive blend: the cycle sum {cycle_sum} must exceed both "
            f"3*{a2} and 3*{b2}"
        )
    mu1 = d_bottom / (d_top + d_bottom)
    mu2 = d_top / (d_top + d_bottom)
    blend = make_policy([mu1 / 3.0] * 3 + [mu2 / 3.0] * 3)
    blend_primed = make_policy([mu2 / 3.0] * 3 + [mu1 / 3.0] * 3)
    return blend, blend_primed
