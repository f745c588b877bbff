"""survtree benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs each workload in fresh processes (measure.py) with BLAS and OpenMP
fixed at one thread. With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. set-up time (spawn to the
first timed operation) is the median over SETUP_PROBES processes that only
set up plus the measuring one. Every metric is printed by name with its
unit; the last line of standard output is one JSON object. Exits 1 if a
correctness check fails, 2 if the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MEASURE = os.path.join(BENCH, "measure.py")
WORKLOADS = ("cohort-25k", "mc-529", "study-529")
SETUP_PROBES = 4
DEADLINE_S = 170.0  # a workload's processes together
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run measure.py to completion; (monotonic time of the spawn, its
    result object)."""
    env = dict(os.environ, **CHILD_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, MEASURE, *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"measure.py {' '.join(args)} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"measure.py {' '.join(args)} exited {proc.returncode}")
    return started, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            started, probe = _spawn(common + ["--seconds", "0", "--setup-only"], deadline)
            setups.append(probe["ready_at"] - started)
    started, result = _spawn(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    metrics = result["metrics"]
    if not trace:
        setups.append(result["ready_at"] - started)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="survtree benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "survtree", "__init__.py")):
        print(f"error: no survtree sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = result = run_workload(name, args.seed, args.seconds, args.trace)
            for metric, m in result["metrics"].items():
                print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
            print(f"{name} attempted = {result['attempted']} failed = {result['failed']} "
                  f"correct = {str(result['correct']).lower()}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
