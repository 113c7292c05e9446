"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds src/stablesheet. OpenBLAS is
pinned to one thread before numpy loads, and the load comes from this one
process. With --trace 0 the last line of standard output carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of one
traced round, after a warm-up round and an untraced round of the same
operations. The line before it records the machine, the software and every
check.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = os.path.join(ROOT, "src", "stablesheet", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: no package source at {package}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import environment
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "work"))
    try:
        size = workloads.PROFILES[args.size][args.workload]
        wl = workloads.WORKLOADS[args.workload](size, args.seed, workdir)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            if args.trace:
                rounds = {"round_s": traced(wl, tracer)}
                metrics = tracing.layer_metrics(tracer)
                _, plain, with_trace = rounds["round_s"]
                metrics["trace.overhead_s"] = (with_trace - plain, "s")
            else:
                metrics, rounds = timed(wl, args.seconds, import_s)
            wl.finish()
        attempted = len(wl.ops)
        failed = sum(op.failed for op in wl.ops)
        correct = failed == 0 and all(c["ok"] for c in wl.checks.values())
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "rounds": rounds,
            "environment": environment.describe(ROOT), "checks": wl.checks, "info": wl.info,
        }, default=float))
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def timed(wl, seconds: float, import_s: float) -> tuple:
    """Set up SETUP_REPEATS times, then run whole rounds until the next would
    take the measured time past `seconds`. Each round's checks follow it,
    outside its timing."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    rounds = []
    while not rounds or sum(rounds) + statistics.median(rounds) <= seconds:
        round_s, ops = wl.round(len(rounds))
        rounds.append(round_s)
        wl.check_round(ops)
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "run_s": (statistics.median(rounds), "s"),
        "op_s": (statistics.median(op.seconds for op in wl.ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"setup_s": setups, "round_s": rounds}


def traced(wl, tracer) -> list:
    """Set up once; run a warm-up round, an untraced round and a traced round
    of the same operations; return the three round times. The first round of
    a process runs slower, so the overhead compares the last two. The tracer
    is off during checks."""
    tracer.enabled = True
    wl.setup()
    tracer.enabled = False
    times = []
    for index in range(3):
        tracer.enabled = index == 2
        round_s, ops = wl.round(index)
        tracer.enabled = False
        times.append(round_s)
        wl.check_round(ops)
    return times


if __name__ == "__main__":
    sys.exit(main())
