"""Set-up, the timed run, the traced run and their metrics.

The caller puts the package's ``src`` directory on ``sys.path`` and pins
BLAS to one thread before importing this module (see ``run.prepare``).
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracles
from oracles import require
from spans import NULL, Tracer
from workloads import FAILURES, WORKLOADS, McTournament, order

SETUP_REPS = 12
WARMUP_OPS = 4
MIN_COMPLETED = 100
MIN_ROUNDS = 4
HIGHS_REPLAY_TRIALS = 120
REPLAY_CHECK_OPS = 12

IMPORT_PROBE = "import time; t = time.perf_counter(); import prefgame; print(time.perf_counter() - t)"

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

LAYERS = (
    "generators.random_tournament",
    "core.apply_mapping",
    "solver.solve_maximin",
    "solver.uniqueness_report",
    "social_choice.consistency_verdict",
    "social_choice.smith_decomposition",
    "preference_matching.btl_preferences",
    "preference_matching.kkt_verify",
    "preference_matching.pm_gap",
)
COUNTED_LAYERS = ("generators.random_tournament", "solver.solve_maximin", "preference_matching.kkt_verify")
SOLVE_SIZES = tuple(sorted({n for w in WORKLOADS.values() for n in w.sizes}))


def _per_layer_units() -> dict[str, str]:
    units = {f"{layer}.ms": "ms/op" for layer in LAYERS}
    units.update({f"{layer}.calls": "calls/op" for layer in COUNTED_LAYERS})
    units["solver.solve_maximin.failed"] = "failed/op"
    units["solver.pivots"] = "pivots/op"
    for n in SOLVE_SIZES:
        units[f"solver.solve_maximin.ms.n{n}"] = "ms/call"
        units[f"solver.pivots.n{n}"] = "pivots/call"
    units["solver.exploitability_rel_max"] = "rel"
    units["cli.monte_carlo.overhead_ms"] = "ms/op"
    units["trace.overhead_ms"] = "ms/op"
    units["trace.overhead_pct"] = "%"
    return units


# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = _per_layer_units()


# ------------------------------------------------------------------ set-up

def fresh_import_seconds(src: str) -> float:
    """Time ``import prefgame`` in a new interpreter that sees only ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class SetupTimes:
    """Fresh-import and input-build times, sampled before and after the timed phase."""

    imports: list = field(default_factory=list)
    builds: list = field(default_factory=list)

    def seconds(self) -> float:
        """The fastest import plus the fastest build.

        Consecutive fresh imports differ by up to 50 %, and that noise only
        adds time, so the fastest sample is the steadiest estimate of the
        work set-up does; work added to import or build still raises it.
        """
        return min(self.imports) + min(self.builds)


def set_up(workload, src: str, work_dir: str, times: SetupTimes) -> list:
    """Set up ``SETUP_REPS`` times, adding each import and build time to ``times``."""
    ops = None
    for _ in range(SETUP_REPS):
        times.imports.append(fresh_import_seconds(src))
        start = perf_counter()
        ops = workload.build(work_dir)
        times.builds.append(perf_counter() - start)
    return ops


def setup(workload, src: str, work_dir: str) -> tuple[SetupTimes, list]:
    times = SetupTimes()
    ops = set_up(workload, src, work_dir, times)
    workload.check_inputs(ops)
    return times, ops


def warm_up(workload, ops, seed: int) -> None:
    for i in order(seed, 0, len(ops))[:WARMUP_OPS]:
        try:
            workload.run_op(ops[i])
        except FAILURES:
            pass


# ------------------------------------------------------------- timed run

@dataclass
class Timed:
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    slowest: dict = field(default_factory=dict)
    first: dict = field(default_factory=dict)
    prints: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)


def timed_run(workload, ops, seed: int, seconds: float, min_rounds: int = MIN_ROUNDS) -> Timed:
    """Whole rounds of every operation, in seeded order, until ``seconds`` pass.

    Rounds continue past ``seconds`` until every operation has run
    ``min_rounds`` times.  ``slowest`` keeps each operation's slowest repeat,
    failed attempts included.
    """
    out = Timed()
    rounds = 0
    start = perf_counter()
    while True:
        for i in order(seed, rounds, len(ops)):
            op = ops[i]
            t0 = perf_counter()
            try:
                result = workload.run_op(op)
            except FAILURES as exc:
                latency = perf_counter() - t0
                out.failed += 1
                out.failures.setdefault(i, str(exc))
            else:
                latency = perf_counter() - t0
                digest = workload.fingerprint(result)
                if i not in out.first:
                    out.first[i] = result
                    out.prints[i] = digest
                elif out.prints[i] != digest:
                    out.mismatches.append(i)
            out.slowest[i] = max(out.slowest.get(i, 0.0), latency)
            out.attempted += 1
        rounds += 1
        if perf_counter() - start >= seconds and rounds >= min_rounds:
            break
    out.wall = perf_counter() - start
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(timed: Timed, setup_s: float, rss_mb: float) -> dict:
    """Timings from each operation's slowest repeat in the run.

    A CPU shared with other tenants can alternate between a contended state
    and one up to 1.8 times faster (measured on a 2-core VM, see README.md),
    and the share of each varies from run to run.  An operation's slowest
    repeat reads its time in the contended state, which holds steady; a
    change to the program moves it as it moves every repeat.  ``ops_per_s``
    is the throughput of a round in which every operation, failed ones
    included, takes its slowest repeat.
    """
    lat_ms = np.asarray([timed.slowest[i] for i in timed.first]) * 1000.0
    require(lat_ms.size >= MIN_COMPLETED, f"only {lat_ms.size} distinct operations completed")
    values = {
        "ops_per_s": lat_ms.size / sum(timed.slowest.values()),
        "op_ms_p50": float(np.percentile(lat_ms, 50)),
        "op_ms_p90": float(np.percentile(lat_ms, 90)),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def check_failures(workload, ops, failed: set) -> None:
    """The failed operations must be exactly the workload's expected failures."""
    failed_keys = {ops[i].key for i in failed}
    expected = workload.expected_failures & {op.key for op in ops}
    require(failed_keys <= expected, f"unexpected failed operations: {sorted(failed_keys - expected)[:5]}")
    require(expected <= failed_keys, f"expected failures that succeeded: {sorted(expected - failed_keys)[:5]}")


def check_timed(workload, ops, timed: Timed) -> None:
    """Oracle checks on every distinct result, plus a checked replay for the CLI."""
    require(not timed.mismatches, f"repeated operations gave different results: {sorted(set(timed.mismatches))[:5]}")
    flaky = set(timed.failures) & set(timed.first)
    require(not flaky, f"operations failed in one round and succeeded in another: {sorted(flaky)[:5]}")
    check_failures(workload, ops, set(timed.failures))
    for i, result in timed.first.items():
        workload.check(ops[i], result)
    if isinstance(workload, McTournament):
        # The first operations to complete, in the run's seeded order.
        highs_left = HIGHS_REPLAY_TRIALS
        for i in list(timed.first)[:REPLAY_CHECK_OPS]:
            report = workload.check_report(ops[i], timed.first[i])
            trials = workload.replay(ops[i], NULL)
            workload.check_replay(ops[i], report, trials, highs=highs_left > 0)
            highs_left -= len(trials)


# ------------------------------------------------------------ traced run

@dataclass
class Record:
    index: int
    untraced: float
    baseline: float
    result: object = None
    replayed: object = None


def traced_run(workload, ops, seed: int, seconds: float) -> tuple[Tracer, list, int]:
    """Each operation untraced, then replayed with a span around every layer call.

    ``baseline`` is the untraced time of the same calls the replay makes:
    the operation itself, or for the CLI workload an untraced replay.
    """
    tracer = Tracer()
    records: list[Record] = []
    failed = 0
    cli = isinstance(workload, McTournament)
    rounds = 0
    start = perf_counter()
    while True:
        for i in order(seed, rounds, len(ops)):
            op = ops[i]
            t0 = perf_counter()
            try:
                result = workload.run_op(op)
            except FAILURES:
                failed += 1
                result = None
            record = Record(i, perf_counter() - t0, 0.0, result)
            if cli:
                t0 = perf_counter()
                try:
                    workload.replay(op, NULL)
                except FAILURES:
                    pass
                record.baseline = perf_counter() - t0
            else:
                record.baseline = record.untraced
            tracer.op = len(records)
            try:
                record.replayed = tracer.call("op", workload.replay, op, tracer)
            except FAILURES:
                pass
            require((record.result is None) == (record.replayed is None),
                    f"operation {i} failed in one of its untraced and traced runs only")
            records.append(record)
        rounds += 1
        if perf_counter() - start >= seconds:
            break
    return tracer, records, failed


def check_traced(workload, ops, records: list) -> None:
    """The replayed work must pass the oracles and match the untraced results."""
    check_failures(workload, ops, {record.index for record in records if record.result is None})
    cli = isinstance(workload, McTournament)
    highs_left = HIGHS_REPLAY_TRIALS
    seen = set()
    for record in records:
        if record.result is None:
            continue
        op = ops[record.index]
        if cli:
            report = workload.check_report(op, record.result)
            workload.check_replay(op, report, record.replayed, highs=highs_left > 0)
            highs_left -= len(record.replayed)
            continue
        require(workload.fingerprint(record.replayed) == workload.fingerprint(record.result),
                f"operation {record.index}: the traced replay differs from the untraced run")
        if record.index not in seen:
            seen.add(record.index)
            workload.check(op, record.replayed)


def layer_metrics(workload, tracer: Tracer, records: list) -> dict:
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    count = len(records)
    own = tracer.self_times()
    layer_ms = defaultdict(float)
    layer_calls = defaultdict(int)
    per_op_layers = defaultdict(float)
    size_ms = defaultdict(list)
    size_pivots = defaultdict(list)
    failed_solves = 0
    pivots = 0
    roots = {}
    for index, span in enumerate(tracer.spans):
        name, begin, end, _, op_index, ok = span
        if name == "op":
            roots[op_index] = end - begin
            continue
        layer_ms[name] += own[index]
        layer_calls[name] += 1
        per_op_layers[op_index] += own[index]
        if name == "solver.solve_maximin":
            if not ok:
                failed_solves += 1
                continue
            tags = tracer.tags[index]
            size_ms[tags["n"]].append(end - begin)
            size_pivots[tags["n"]].append(tags["pivots"])
            pivots += tags["pivots"]
    for layer in LAYERS:
        values[f"{layer}.ms"] = 1000.0 * layer_ms[layer] / count
    for layer in COUNTED_LAYERS:
        values[f"{layer}.calls"] = layer_calls[layer] / count
    values["solver.solve_maximin.failed"] = failed_solves / count
    values["solver.pivots"] = pivots / count
    for n in SOLVE_SIZES:
        if size_ms[n]:
            values[f"solver.solve_maximin.ms.n{n}"] = 1000.0 * statistics.fmean(size_ms[n])
            values[f"solver.pivots.n{n}"] = statistics.fmean(size_pivots[n])
    exploit = 0.0
    for record in records:
        if record.replayed is not None:
            for a, nash in workload.solves(record.replayed):
                exploit = max(exploit, oracles.exploitability_rel(a, nash.row_strategy.w, nash.col_strategy.w))
    values["solver.exploitability_rel_max"] = exploit
    ok = [(op_index, r) for op_index, r in enumerate(records) if r.result is not None]
    if isinstance(workload, McTournament) and ok:
        values["cli.monte_carlo.overhead_ms"] = 1000.0 * statistics.fmean(
            r.untraced - per_op_layers[op_index] for op_index, r in ok)
    overhead = [roots[op_index] - r.baseline for op_index, r in ok]
    if overhead:
        values["trace.overhead_ms"] = 1000.0 * statistics.fmean(overhead)
        values["trace.overhead_pct"] = 100.0 * sum(overhead) / sum(r.baseline for _, r in ok)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
