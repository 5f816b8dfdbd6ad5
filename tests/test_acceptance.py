"""Acceptance gate: nine end-to-end criteria, one printed line each.

Every criterion prints exactly one ``[PASS]`` or ``[FAIL]`` line with the
measured margin, then asserts.  Under pytest the collected lines are echoed
once more in the terminal summary (see ``conftest.py``); running the file
directly executes all nine in order and exits nonzero if any failed:

    python3 tests/test_acceptance.py
"""

import hashlib
import json
import subprocess
import sys

import numpy as np

import prefgame as pg
from support_enumeration import enumerate_equilibria

# Fixed bumpy half-table used as a symmetric extension base throughout.
BUMPY_BASE = [(0.0, -1.3), (0.2, -0.9), (0.35, -0.2), (0.5, 0.4), (1.0, 0.4)]

# Piecewise nodes of t + 4 (t - 1/2)^2 at every argument criterion 4 samples.
QUAD = [(0.0, 1.0), (0.1, 0.74), (0.4, 0.44), (0.5, 0.5), (0.6, 0.64), (0.9, 1.54), (1.0, 2.0)]

DEGENERATE_MAP = [(0.0, -4.5), (0.5, 0.5), (1.0, 1.0)]


# Lines collected here are replayed by the pytest terminal summary hook.
RESULT_LINES: list[str] = []


def check(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    RESULT_LINES.append(line)
    assert ok, line


def shape_compliant_mappings():
    return [
        pg.identity(),
        pg.log_odds(),
        pg.symmetric_extension(pg.piecewise_linear(BUMPY_BASE)),
    ]


def seeded_tournament(stream: list[int], n_low: int, n_high: int, force_no_winner: bool = False):
    rng = np.random.default_rng(np.random.SeedSequence(stream))
    n = int(rng.integers(n_low, n_high + 1))
    cfg = pg.GeneratorConfig(
        n=n,
        seed=int(rng.integers(0, 2**63)),
        force_no_winner=force_no_winner,
    )
    return pg.random_tournament(cfg)


def test_criterion_1_winner_concentration():
    mappings = shape_compliant_mappings()
    collected = 0
    attempt = 0
    worst_mass = 1.0
    while collected < 500:
        pref = seeded_tournament([99, attempt], 2, 8)
        attempt += 1
        winner = pg.condorcet_winner(pref)
        if winner is None:
            continue
        collected += 1
        for mapping in mappings:
            nash = pg.solve_maximin(pg.apply_mapping(pref, mapping))
            worst_mass = min(worst_mass, float(nash.row_strategy.w[winner]))
    check(
        "criterion 1",
        worst_mass >= 1.0 - 1e-6,
        f"500 winner tournaments x 3 mappings: min winner mass {worst_mass:.12f}",
    )


def test_criterion_2_no_winner_mixes_inside_top_group():
    mappings = shape_compliant_mappings() + [pg.piecewise_constant(-1.0, 0.0, 1.0)]
    worst_outside = 0.0
    min_support = 10
    for k in range(500):
        pref = seeded_tournament([7, k], 3, 8, force_no_winner=True)
        top = set(pg.smith_decomposition(pref).top_group())
        for mapping in mappings:
            nash = pg.solve_maximin(pg.apply_mapping(pref, mapping))
            outside = float(
                sum(w for i, w in enumerate(nash.row_strategy.w) if i not in top)
            )
            worst_outside = max(worst_outside, outside)
            min_support = min(min_support, len(nash.row_strategy.support()))
    check(
        "criterion 2",
        worst_outside <= 1e-6 and min_support > 1,
        f"500 winnerless tournaments x 4 mappings: max mass outside top group "
        f"{worst_outside:.3e}, min support size {min_support}",
    )


def test_criterion_3_degenerate_game_has_pure_optimum():
    mapping = pg.piecewise_linear(DEGENERATE_MAP)
    pay = pg.game_four(mapping, 0.9, 0.55)
    nash = pg.solve_maximin(pay)
    mass = float(nash.row_strategy.w[3])
    equilibria = enumerate_equilibria(pay)
    value_dev = max(abs(v - nash.value) for _, _, v in equilibria)
    mixed_col = next(y for _, y, _ in equilibria if y.support() == [0, 1, 2])
    gap = pg.best_response_gap(pay, pg.Policy.delta(3, 4), mixed_col)
    check(
        "criterion 3",
        mass >= 1.0 - 1e-6 and gap <= 1e-8 and value_dev <= 1e-8,
        f"pure-vs-cycle game: last-player mass {mass:.12f}, best response gap "
        f"{gap:.3e} against a three-way mixed column, enumeration value "
        f"deviation {value_dev:.3e}",
    )


def test_criterion_4_two_cycle_blend():
    mapping = pg.piecewise_linear(QUAD)
    pay = pg.game_six(mapping, 0.9, 0.6)
    blend, primed = pg.mixture_weights(mapping, 0.9, 0.6)
    mu1 = 3.0 * float(blend.w[0])
    # Independent oracle: the primed column mixture must equalize rows of
    # the two blocks, which is one linear equation in mu1.
    diff = pay.a[0] - pay.a[3]
    base = np.concatenate([np.full(3, 1.0 / 3.0), np.zeros(3)])
    direction = np.concatenate([np.full(3, -1.0 / 3.0), np.full(3, 1.0 / 3.0)])
    mu_oracle = -float(diff @ base) / float(diff @ direction)
    gap = pg.best_response_gap(pay, blend, primed)
    check(
        "criterion 4",
        abs(mu1 - mu_oracle) <= 1e-9
        and abs(mu1 - 0.6293103448275861) <= 1e-9
        and gap <= 1e-8,
        f"blend weight {mu1:.16f} vs oracle {mu_oracle:.16f}, "
        f"equalizer best response gap {gap:.3e}",
    )


def test_criterion_5_exact_constructions():
    rng = np.random.default_rng(2718)
    worst_dev = 0.0
    infeasible = 0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        w = rng.uniform(0.05, 1.0, size=n)
        target = pg.make_policy(w / w.sum())

        additive = pg.construction_one(target)
        cert1 = pg.kkt_verify(additive, target)
        dev1 = abs(pg.solve_maximin(additive).value - float(np.sum(np.square(target.w))))

        ratio = pg.construction_two(target)
        cert2 = pg.kkt_verify(ratio, target)
        dev2 = abs(pg.solve_maximin(ratio).value)

        infeasible += (not cert1.feasible) + (not cert2.feasible)
        worst_dev = max(worst_dev, dev1, dev2)
    check(
        "criterion 5",
        infeasible == 0 and worst_dev <= 1e-8,
        f"100 targets, n in [2,10], both constructions: {infeasible} infeasible "
        f"certificates, max value deviation {worst_dev:.3e}",
    )


def test_criterion_6_certified_mismatch():
    spec = pg.RatioPayoffSpec(f=lambda x: x / (1.0 + x), diagonal_c=0.5)
    probe = pg.pm_gap(spec, pg.make_policy([0.6, 0.3, 0.1]))
    pinned_ok = abs(probe.gap - 0.4) <= 1e-6 and probe.kkt.feasible is False

    rng = np.random.default_rng(5150)
    matched_failures = 0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        family = pg.degenerate_family(n, c=float(rng.uniform(-1.0, 1.0)), c2=float(rng.uniform(0.5, 2.0)))
        w = rng.uniform(0.1, 1.0, size=n)
        target = pg.make_policy(w / w.sum())
        cert = pg.kkt_verify(pg.ratio_payoff(family, target), target)
        if not cert.feasible:
            matched_failures += 1
    check(
        "criterion 6",
        pinned_ok and matched_failures == 0,
        f"skewed target misses by {probe.gap:.9f} with an infeasible certificate; "
        f"{matched_failures} of 50 matched degenerate families failed to certify",
    )


def test_criterion_7_solver_cross_validation():
    rng = np.random.default_rng(1234)
    worst_value_dev = 0.0
    worst_gap = 0.0
    empty = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pay = pg.make_payoff(rng.uniform(-5.0, 5.0, size=(n, n)))
        nash = pg.solve_maximin(pay)
        equilibria = enumerate_equilibria(pay)
        if not equilibria:
            empty += 1
            continue
        for _, y, value in equilibria:
            worst_value_dev = max(worst_value_dev, abs(value - nash.value))
            worst_gap = max(worst_gap, pg.best_response_gap(pay, nash.row_strategy, y))
    check(
        "criterion 7",
        empty == 0 and worst_value_dev <= 1e-8 and worst_gap <= 1e-8,
        f"200 random games, n in [2,6]: max value deviation {worst_value_dev:.3e}, "
        f"max cross gap {worst_gap:.3e}, {empty} enumeration misses",
    )


def brute_minimal_dominant_set(p: np.ndarray) -> tuple[int, ...]:
    from itertools import combinations

    n = p.shape[0]
    beats = p > 0.5
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            outside = [j for j in range(n) if j not in subset]
            if all(beats[i, j] for i in subset for j in outside):
                return subset
    raise AssertionError("tournament without a dominant set")


def test_criterion_8_decomposition_matches_brute_force():
    rng = np.random.default_rng(888)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        cfg = pg.GeneratorConfig(n=n, seed=int(rng.integers(0, 2**63)))
        pref = pg.random_tournament(cfg)
        if pg.smith_decomposition(pref).top_group() != brute_minimal_dominant_set(pref.p):
            mismatches += 1
    check(
        "criterion 8",
        mismatches == 0,
        f"200 tournaments, n in [2,7]: {mismatches} disagreements with the "
        f"subset-scan oracle",
    )


def test_criterion_9_cli_byte_determinism():
    argv = [
        sys.executable,
        "-m",
        "prefgame",
        "monte-carlo",
        "--seed",
        "42",
        "--trials",
        "100",
        "--no-timing",
        "--format",
        "json",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    report = json.loads(first.stdout)
    digest = hashlib.sha256(first.stdout).hexdigest()[:12]
    check(
        "criterion 9",
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and report["violations_condorcet"] == 0
        and report["violations_smith"] == 0
        and report["violations_mixed"] == 0,
        f"two seeded runs of 100 trials byte-identical (sha256 {digest}), "
        f"zero violations",
    )


CRITERIA = [
    test_criterion_1_winner_concentration,
    test_criterion_2_no_winner_mixes_inside_top_group,
    test_criterion_3_degenerate_game_has_pure_optimum,
    test_criterion_4_two_cycle_blend,
    test_criterion_5_exact_constructions,
    test_criterion_6_certified_mismatch,
    test_criterion_7_solver_cross_validation,
    test_criterion_8_decomposition_matches_brute_force,
    test_criterion_9_cli_byte_determinism,
]


if __name__ == "__main__":
    failures = 0
    for criterion in CRITERIA:
        try:
            criterion()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
