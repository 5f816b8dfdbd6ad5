"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload solve-large --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run, whose spans are written to ``benchmarks/runs/``.  The process runs on
one thread with BLAS pinned to one thread, imports ``prefgame`` from the
checkout's ``src`` directory, and exits with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> bool:
    """Pin BLAS to one thread and import ``prefgame`` from this checkout only."""
    if not os.path.isfile(os.path.join(SRC, "prefgame", "__init__.py")):
        return False
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    # Debug logging would add stderr writes to every timed solve.
    os.environ.pop("PREFGAME_LOG", None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc-tournament", "solve-large", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        print(f"error: no prefgame package under {SRC}", file=sys.stderr)
        return 2
    import harness
    from oracles import CheckFailed
    from workloads import WORKLOADS

    os.makedirs(RUNS, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        setup_times, ops = harness.setup(workload, SRC, RUNS)
        harness.warm_up(workload, ops, args.seed)
        if args.trace:
            tracer, records, failed = harness.traced_run(workload, ops, args.seed, args.seconds)
            tracer.write(os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}.jsonl"))
            result["attempted"], result["failed"] = len(records), failed
            harness.check_traced(workload, ops, records)
            result["metrics"] = harness.layer_metrics(workload, tracer, records)
        else:
            timed = harness.timed_run(workload, ops, args.seed, args.seconds)
            rss_mb = harness.peak_rss_mb()
            harness.set_up(workload, SRC, RUNS, setup_times)
            result["attempted"], result["failed"] = timed.attempted, timed.failed
            harness.check_timed(workload, ops, timed)
            result["metrics"] = harness.end_to_end(timed, setup_times.seconds(), rss_mb)
            print("setup samples: import " + " ".join(f"{t:.4f}" for t in setup_times.imports)
                  + "; build " + " ".join(f"{t:.4f}" for t in setup_times.builds), file=sys.stderr)
            print(f"wall clock: {timed.attempted - timed.failed} operations completed"
                  f" in {timed.wall:.2f} s", file=sys.stderr)
            for i, message in sorted(timed.failures.items()):
                print(f"failed operation {ops[i].key}: {message}", file=sys.stderr)
    except CheckFailed as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
