"""The seeded Monte Carlo verification harness.

Trial k draws a random tournament from SeedSequence([seed, k]), maps and
solves it, and judges the solution against the tournament's Condorcet
winner and top group, so trials are independent of execution order.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass

import numpy as np

from .core import Record, SolverError, ValidationError
from .generators import GeneratorConfig, random_tournament
from .mappings import MappingSpec, apply_mapping, mapping_to_dict
from .social_choice import consistency_verdict
from .solver import solve_maximin

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MonteCarloSummary(Record):
    """Tally of one seeded verification run."""

    trials: int
    seed: int
    psi: dict
    n_min: int
    n_max: int
    force_no_winner: bool
    violations_condorcet: int
    violations_smith: int
    violations_mixed: int
    worst_mass_outside_smith: float
    elapsed_ms: int

    def to_dict(self, include_timing: bool = True) -> dict:
        out = super().to_dict()
        if not include_timing:
            del out["elapsed_ms"]
        return out

    @property
    def total_violations(self) -> int:
        return self.violations_condorcet + self.violations_smith + self.violations_mixed


def monte_carlo(
    mapping: MappingSpec,
    trials: int,
    n_range: tuple[int, int] = (3, 8),
    seed: int = 42,
    force_no_winner: bool = False,
    witness_dir: str | None = None,
) -> MonteCarloSummary:
    """Draw, solve and judge ``trials`` random tournaments.

    Each trial derives its own generator state from the master seed and the
    trial index, draws a size uniformly from ``n_range``, and checks the
    solved game's verdict.  Violations are tallied; when ``witness_dir`` is
    set, each violating trial is dumped as a standalone JSON file.  A
    ``SolverError`` in any trial aborts the run and names the trial, its n
    and its generator seed.
    """
    n_min, n_max = n_range
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if not 2 <= n_min <= n_max <= 10:
        raise ValidationError(f"need 2 <= n_min <= n_max <= 10, got [{n_min}, {n_max}]")
    if force_no_winner and n_min < 3:
        raise ValidationError("force_no_winner requires n_min >= 3; two responses always have a winner")
    start = time.perf_counter()
    violations_condorcet = 0
    violations_smith = 0
    violations_mixed = 0
    worst_mass = 0.0
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))
        n = int(rng.integers(n_min, n_max + 1))
        sub_seed = int(rng.integers(0, 2**63))
        cfg = GeneratorConfig(n=n, seed=sub_seed, force_no_winner=force_no_winner)
        pref = random_tournament(cfg)
        payoff = apply_mapping(pref, mapping)
        try:
            nash = solve_maximin(payoff)
        except SolverError as exc:
            # The message stays first so callers can still match on it.
            raise SolverError(f"{exc} (monte-carlo trial {trial}: n={n}, seed={sub_seed})") from exc
        verdict = consistency_verdict(pref, nash)
        # In a tournament the top group has several members exactly when
        # there is no Condorcet winner.
        top_is_group = verdict.condorcet_winner is None
        bad_condorcet = verdict.condorcet_consistent is False
        bad_smith = not verdict.smith_consistent
        bad_mixed = top_is_group and not verdict.is_mixed
        violations_condorcet += int(bad_condorcet)
        violations_smith += int(bad_smith)
        violations_mixed += int(bad_mixed)
        worst_mass = max(worst_mass, verdict.mass_outside_smith)
        if (bad_condorcet or bad_smith or bad_mixed) and witness_dir is not None:
            _dump_witness(witness_dir, trial, pref, nash, verdict)
    elapsed_ms = int((time.perf_counter() - start) * 1000.0)
    return MonteCarloSummary(
        trials=trials,
        seed=seed,
        psi=mapping_to_dict(mapping),
        n_min=n_min,
        n_max=n_max,
        force_no_winner=force_no_winner,
        violations_condorcet=violations_condorcet,
        violations_smith=violations_smith,
        violations_mixed=violations_mixed,
        worst_mass_outside_smith=worst_mass,
        elapsed_ms=elapsed_ms,
    )


def _dump_witness(witness_dir, trial, pref, nash, verdict) -> None:
    os.makedirs(witness_dir, exist_ok=True)
    payload = {
        "trial": trial,
        "preferences": pref.to_dict(),
        "nash": nash.to_dict(),
        "verdict": verdict.to_dict(),
    }
    path = os.path.join(witness_dir, f"witness_trial_{trial:05d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    logger.info("violation witness written to %s", path)
