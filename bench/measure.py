"""Run one workload in this process: set up, time rounds, check the outputs.

Started by run.py once per measurement (and once per set-up probe), with
the BLAS/OpenMP thread count already fixed at 1 in the environment. Prints
one JSON object on its last line of standard output. With --trace 1 it
alternates untraced and traced rounds, and reports per-layer metrics from
the traced ones and the tracing overhead from the difference.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

OUT = os.path.join(BENCH, "out")
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "simulate_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "km_s": "s",
    "pipeline_s": "s",
    "cohorts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# functions whose self time and calls per round a traced run reports
TRACED = (
    "cli.fit", "cli.predict", "cli.km",
    "meld.simulate_cohort",
    "data.dataset_to_csv", "data.load_csv", "data.subset_weights",
    "influence.logrank_scores", "influence.event_table",
    "km.km_estimate",
    "permstat.test_statistic", "permstat.linear_statistic", "permstat.pvalue_montecarlo",
    "partition.fit", "partition.weighted_midranks", "partition.best_split", "partition.predict_node",
    "treedoc.route_document", "treedoc.write_atomic", "treedoc.tree_to_document",
    "treedoc.dumps_canonical", "treedoc.parse_document", "treedoc.document_to_dot",
)
COUNTERS = {
    "data.rows_loaded": "count",
    "data.rows_dropped": "count",
    "permstat.mc_replicates": "count",
    "permstat.philox_streams": "count",
    "partition.nodes": "count",
    "partition.leaves": "count",
    "treedoc.bytes_written": "B",
}


def run_rounds(workload, seconds: float, tracer=None):
    """Whole rounds until another would end past `seconds` (at least
    MIN_ROUNDS). With a tracer, odd-numbered rounds are traced."""
    rounds, traced = [], []
    start = time.monotonic()
    while True:
        trace_this = tracer is not None and (len(rounds) + len(traced)) % 2 == 1
        if trace_this:
            tracer.install()
            try:
                result = workload.round(tracer)
            finally:
                tracer.uninstall()
        else:
            result = workload.round()
        if rounds:
            result.summary = None  # only the first round's outputs are checked
        (traced if trace_this else rounds).append(result)
        done = len(rounds) + len(traced)
        elapsed = time.monotonic() - start
        if done >= MIN_ROUNDS and elapsed * (done + 1) / done > seconds:
            return rounds, traced


def round_metrics(workload, r) -> dict:
    s = r.seconds
    return {
        "simulate_s": s["simulate"],
        "fit_s": s["fit"],
        "predict_s": s["predict"],
        "km_s": s["km"],
        "pipeline_s": sum(s.values()),
        "cohorts_per_s": workload.n_cohorts / (s["simulate"] + s["fit"]),
    }


def median_metrics(workload, rounds) -> dict:
    per_round = [round_metrics(workload, r) for r in rounds]
    return {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}


def per_layer(workload, rounds, traced, tracer) -> dict:
    k = len(traced)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_s"] = {"value": tracer.self_s[name] / k, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": tracer.calls[name] / k, "unit": "count"}
    for name, unit in COUNTERS.items():
        metrics[name] = {"value": tracer.counts[name] / k, "unit": unit}
    untraced = median_metrics(workload, rounds)["pipeline_s"]
    overhead = median_metrics(workload, traced)["pipeline_s"] - untraced
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / untraced, "unit": "%"}

    subject = workload.memory_subject(rounds[0])
    gc.collect()
    tracemalloc.start()
    try:
        subject()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    metrics["partition.fit.peak_alloc_mb"] = {"value": peak / 2**20, "unit": "MB"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set up, reporting only when set-up ended")
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        ready_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0

        tracer = Tracer() if args.trace else None
        rounds, traced = run_rounds(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        everything = rounds + traced

        checks = Checks()
        checks.require(
            len({r.fingerprint for r in everything}) == 1,
            "outputs differ between repetitions of the same inputs",
        )
        workload.check(rounds[0], checks)
        for failure in checks.failures:
            print(f"check failed: {failure}", file=sys.stderr)

        if tracer:
            metrics = per_layer(workload, rounds, traced, tracer)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}.csv"))
        else:
            values = median_metrics(workload, rounds)
            values["peak_rss_mb"] = peak_rss_mb
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(json.dumps({
            "ready_at": ready_at,
            "rounds": len(everything),
            "correct": not checks.failures,
            "attempted": sum(r.attempted for r in everything),
            "failed": sum(r.failed for r in everything),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
