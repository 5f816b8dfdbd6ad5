"""Quick self-test of the benchmark: tiny runs pass, corrupted outputs fail.

    python3 benchmarks/selftest.py

Every workload runs one short round, timed and traced, and must pass its
checks.  Then each oracle is handed a deliberately corrupted output (a
perturbed strategy, a wrong value or t, a wrong tally, a wrong top group)
and must reject it.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import run

if not run.prepare():
    sys.exit(f"error: no prefgame package under {run.SRC}")

import numpy as np  # noqa: E402

import harness  # noqa: E402
import oracles  # noqa: E402
import prefgame as pg  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from spans import NULL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def expect_pass(name: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailed as exc:
        FAILURES.append(name)
        print(f"FAIL  {name}: rejected a correct output: {exc}")
    else:
        print(f"ok    {name}")


def expect_reject(name: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailed as exc:
        print(f"ok    {name}: rejected ({exc})")
    else:
        FAILURES.append(name)
        print(f"FAIL  {name}: accepted a corrupted output")


def shifted(policy: pg.Policy, amount: float = 1e-3) -> pg.Policy:
    """Move ``amount`` of mass from the largest entry to the smallest."""
    w = policy.w.copy()
    w[int(np.argmax(w))] -= amount
    w[int(np.argmin(w))] += amount
    return pg.Policy(n=policy.n, w=w)


def tiny_round(name: str, keep=lambda op: True):
    workload = WORKLOADS[name]()
    _, ops = harness.setup(workload, run.SRC, run.RUNS)
    ops = [op for op in ops if keep(op)]
    timed = harness.timed_run(workload, ops, seed=7, seconds=0.0, min_rounds=1)
    expect_pass(f"{name}: timed round passes its checks", harness.check_timed, workload, ops, timed)
    tracer, records, failed = harness.traced_run(workload, ops, seed=7, seconds=0.0)
    expect_pass(f"{name}: traced round passes its checks", harness.check_traced, workload, ops, records)
    metrics = harness.layer_metrics(workload, tracer, records)
    expect_pass(f"{name}: traced round reports every per-layer metric", oracles.require,
                set(metrics) == set(harness.PER_LAYER_UNITS), "per-layer metric names differ")
    expect_pass(f"{name}: traced and timed rounds fail alike", oracles.require,
                failed == timed.failed, f"{failed} traced failures, {timed.failed} timed")
    return workload, ops, timed


def corrupt_mc(workload, ops, timed) -> None:
    i = next(iter(timed.first))
    op = ops[i]
    code, text = timed.first[i]
    report = json.loads(text)
    bad = dict(report, violations_smith=1)
    expect_reject("mc: report with a violation", workload.check_report, op, (code, json.dumps(bad)))
    bad = dict(report, trials=report["trials"] - 1)
    expect_reject("mc: report with a wrong trial count", workload.check_report, op, (code, json.dumps(bad)))
    trials = workload.replay(op, NULL)
    wrong = dict(report, violations_mixed=1)
    expect_reject("mc: replay tallies differ from the report", workload.check_replay, op, wrong, trials, False)
    n, sub_seed, pref, payoff, nash, verdict, decomposition = trials[0]
    p = pref.p.copy()
    p[0, 1], p[1, 0] = p[1, 0], p[0, 1]
    flipped = pg.validate_preferences(p)
    bad_trials = [(n, sub_seed, flipped, payoff, nash, verdict, decomposition)] + trials[1:]
    expect_reject("mc: tournament off the documented draw order", workload.check_replay, op, report, bad_trials, False)
    bad_nash = dataclasses.replace(nash, row_strategy=shifted(nash.row_strategy))
    bad_trials = [(n, sub_seed, pref, payoff, bad_nash, verdict, decomposition)] + trials[1:]
    expect_reject("mc: perturbed strategy", workload.check_replay, op, report, bad_trials, False)
    broken = copy.copy(op)
    broken.argv = [os.path.join(run.RUNS, "missing.json") if a == op.argv[2] else a for a in op.argv]
    expect_reject("mc: CLI error exit that is not a SolverError", workload.run_op, broken)
    expect_reject("mc: a failed operation outside the expected set", harness.check_failures, workload, ops, {i})


def corrupt_large(workload, ops, timed) -> None:
    by_kind = {}
    for i, result in timed.first.items():
        by_kind.setdefault(ops[i].kind, (ops[i], result))
    for kind, (op, (payoff, nash, verdict)) in sorted(by_kind.items()):
        expect_reject(f"solve-large {kind}: perturbed row strategy", workload.check, op,
                      (payoff, dataclasses.replace(nash, row_strategy=shifted(nash.row_strategy)), verdict))
        expect_reject(f"solve-large {kind}: wrong value", workload.check, op,
                      (payoff, dataclasses.replace(nash, value=nash.value + 1e-3), verdict))
        expect_reject(f"solve-large {kind}: wrong top-group verdict", workload.check, op,
                      (payoff, nash, dataclasses.replace(verdict, smith_consistent=False)))
        expect_reject(f"solve-large {kind}: wrong mass outside the top group", workload.check, op,
                      (payoff, nash, dataclasses.replace(verdict, mass_outside_smith=1e-3)))
        a = payoff.a.copy()
        a[0, 1] += 1e-3
        expect_reject(f"solve-large {kind}: payoff off the mapping", workload.check, op,
                      (pg.make_payoff(a), nash, verdict))
    expected = [i for i, op in enumerate(ops) if op.key in workload.expected_failures]
    expect_pass("solve-large: the expected failures failed", oracles.require, set(expected) == set(timed.failures),
                f"failed {sorted(ops[i].key for i in timed.failures)}")
    expect_reject("solve-large: an expected failure that succeeded", harness.check_failures, workload, ops,
                  set(expected[1:]))
    expect_reject("solve-large: a failed operation outside the expected set", harness.check_failures, workload, ops,
                  set(expected) | {next(iter(timed.first))})
    planted = next(op for op in ops if op.source == "planted")
    original = planted.planted_top
    planted.planted_top = original[1:]
    expect_reject("solve-large: planted top group that reachability does not confirm", workload.check_inputs, [planted])
    planted.planted_top = original
    x = np.array([0.5, 0.5, 0.0, 0.0])
    expect_reject("oracle: even support in the tournament game", oracles.check_tournament_game, x, x)
    expect_reject("oracle: unequal strategies in the tournament game", oracles.check_tournament_game,
                  np.array([0.4, 0.3, 0.3]), np.array([0.3, 0.4, 0.3]))
    game = oracles.mapped_payoff("piecewise_constant", oracles.reference_tournament(7, 3, True))
    if oracles.highs_value(game) is not None:
        expect_reject("oracle: value that HiGHS contradicts", oracles.check_highs_value, game, 0.25)


def corrupt_certify(workload, ops, timed) -> None:
    i = next(iter(timed.first))
    op = ops[i]
    result = list(timed.first[i])

    def with_item(index, value):
        out = list(result)
        out[index] = value
        return tuple(out)

    pref, target, one, cert_one, two, cert_two, nash, unique, probe_ratio, probe_degenerate = result
    expect_reject("certify: pm_policy off the softmax", workload.check, op, with_item(1, shifted(target)))
    expect_reject("certify: wrong t for construction_one", workload.check, op,
                  with_item(3, dataclasses.replace(cert_one, t=cert_one.t + 1e-3)))
    expect_reject("certify: wrong t for construction_two", workload.check, op,
                  with_item(5, dataclasses.replace(cert_two, t=1e-3)))
    expect_reject("certify: certificate weights that do not equalize", workload.check, op,
                  with_item(3, dataclasses.replace(cert_one, u=shifted(cert_one.u, 1e-2))))
    expect_reject("certify: perturbed solved strategy", workload.check, op,
                  with_item(6, dataclasses.replace(nash, row_strategy=shifted(nash.row_strategy))))
    expect_reject("certify: coordinate ranges that miss the target", workload.check, op,
                  with_item(7, dataclasses.replace(unique, coordinate_ranges=unique.coordinate_ranges + 1e-3)))
    expect_reject("certify: unique optimum reported as not unique", workload.check, op,
                  with_item(7, dataclasses.replace(unique, unique=False)))
    widened = unique.coordinate_ranges + np.array([-1e-8, 1e-8])
    expect_reject("certify: coordinate ranges wider than the tolerance", workload.check, op,
                  with_item(7, dataclasses.replace(unique, coordinate_ranges=widened)))
    expect_reject("certify: ratio family reported as matched", workload.check, op,
                  with_item(8, dataclasses.replace(probe_ratio, kkt=dataclasses.replace(probe_ratio.kkt, feasible=True))))
    expect_reject("certify: wrong ratio gap", workload.check, op,
                  with_item(8, dataclasses.replace(probe_ratio, gap=probe_ratio.gap + 1e-3)))
    expect_reject("certify: degenerate family reported as unmatched", workload.check, op,
                  with_item(9, dataclasses.replace(probe_degenerate,
                                                   kkt=dataclasses.replace(probe_degenerate.kkt, feasible=False))))
    w = target.w
    verdict = oracles.highs_kkt_infeasible(oracles.construction_one_payoff(w), w)
    expect_pass("oracle: HiGHS certifies construction_one", oracles.require, verdict in (None, False),
                "HiGHS calls a feasible certificate infeasible")


def check_spec() -> None:
    """BENCHMARK.json must list exactly the metrics the runs print."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, units in (("end_to_end", harness.END_TO_END_UNITS), ("per_layer", harness.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect_pass(f"BENCHMARK.json lists the {key} metrics", oracles.require, listed == units,
                    f"{key} in BENCHMARK.json differs from what the runs print")


def main() -> int:
    os.makedirs(run.RUNS, exist_ok=True)
    check_spec()
    corrupt_mc(*tiny_round("mc-tournament", keep=lambda op: op.seed < 2))
    corrupt_large(*tiny_round("solve-large", keep=lambda op: op.n in (30, 40)))
    corrupt_certify(*tiny_round("certify", keep=lambda op: op.key[1] < 4))
    print(f"{len(FAILURES)} failures" if FAILURES else "all self-test cases passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
