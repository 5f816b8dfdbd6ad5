"""Run every workload several times and print how much each metric spreads.

    python3 benchmarks/steadiness.py --runs 10 [--workload certify] [--first-seed 1]

Each run is a fresh ``run.py`` process with its own seed and the run
length from ``BENCHMARK.json``.  For every end-to-end metric the table
shows the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread (q3 - q1) / median, and the metric's bound.  The command exits
1 when any spread, ``setup_s``'s included, is above its bound, or when the
share of failed operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        results = [run_once(workload, args.first_seed + k, spec["run_seconds"]) for k in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, failed shares {sorted(shares)}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = spread <= metric["bound"] / 3.0
            steady = steady and spread <= metric["bound"] and len(shares) == 1
            print(f"  {name:<12} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {metric['bound']:>6}"
                  f"{'' if ok else '  above a third of the bound'}")
            print(f"  {'':<12} runs: {' '.join(f'{v:.4g}' for v in values)}")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
