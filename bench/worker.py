"""One benchmark process: build a workload's inputs, run its items, report.

``run.py`` starts this in a fresh interpreter with ``PYTHONPATH=src``:

    python bench/worker.py WORKLOAD SEED MODE [--seconds S] [--min-items N]
                           [--rounds R] [--spans PATH]

MODE is ``setup`` (build the first round's inputs, then exit), ``run``
(untraced rounds until S seconds have passed and N items are done),
``fixed`` (R untraced rounds) or ``traced`` (R rounds under the tracer,
spans written to PATH).  The process prints ``READY`` once the first
round's inputs exist and, in the modes that run items, one JSON line with
the results when it ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

from qjforms import arith
from tracer import NullTracer, Tracer
from workloads import build_round, usage_exit_mismatch

CACHES = {"binomial": arith.binomial, "bernoulli": arith.bernoulli, "sigma": arith.sigma}
MAX_REPORTED_FAILURES = 5


def run_rounds(workload: str, seed: int, tracer, first=None, seconds: float = 0.0, min_items: int = 0, rounds=None):
    """Run whole rounds: R of them, or until both the time and the item floor are reached.

    Returns the latency of every item that returned, round by round, the
    attempted and failed counts, descriptions of the first failures, the counts of cli
    queries and of out-of-range ones, and the count of those whose exit
    code was not the documented 2.
    """
    latencies: list[list[float]] = []
    failures: list[str] = []
    attempted = failed = mismatched = queries = out_of_range = timed = 0
    items = first if first is not None else build_round(workload, seed, 0)
    traced = isinstance(tracer, Tracer)
    round_no = 0
    start = perf_counter()
    while True:
        round_latencies: list[float] = []
        latencies.append(round_latencies)
        for item in items:
            tracer.item = attempted
            attempted += 1
            queries += item.kind.startswith("cli.")
            out_of_range += item.kind == "cli.range"
            try:
                t0 = perf_counter()
                out = tracer.call("bench.item", item.run, tracer)
                round_latencies.append(perf_counter() - t0)
                ok = item.check(out)
                mismatched += usage_exit_mismatch(item.kind, out)
            except Exception as exc:  # a raising item is a failed item, never an abort
                ok, out = False, exc
            if not ok:
                failed += 1
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append(f"round {round_no} {item.kind}: {out!r:.300}")
            if traced and item.replay is not None:
                item.replay(tracer)
        round_no += 1
        timed += len(round_latencies)
        if rounds is not None:
            if round_no >= rounds:
                break
        elif perf_counter() - start >= seconds and timed >= min_items:
            break
        items = build_round(workload, seed, round_no)
    return {
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "cli_queries": queries,
        "range_queries": out_of_range,
        "usage_exit_mismatch": mismatched,
        "rounds": round_no,
    }


def _cache_stats() -> dict[str, tuple[int, int]]:
    return {name: (fn.cache_info().hits, fn.cache_info().misses) for name, fn in CACHES.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=("setup", "run", "fixed", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-items", type=int, default=0)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--spans")
    args = ap.parse_args()

    first = build_round(args.workload, args.seed, 0)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer() if args.mode == "traced" else NullTracer()
    before = _cache_stats()
    rounds = None if args.mode == "run" else args.rounds
    result = run_rounds(args.workload, args.seed, tracer, first, args.seconds, args.min_items, rounds)
    after = _cache_stats()
    result["hit_ratio"] = {}
    for name, (hits, misses) in after.items():
        dh, dm = hits - before[name][0], misses - before[name][1]
        result["hit_ratio"][name] = dh / (dh + dm) if dh + dm else 0.0
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.mode == "traced":
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["maxima"] = tracer.maxima
        if args.spans:
            tracer.dump(args.spans)
    for line in result["failures"]:
        print(f"FAIL {args.workload} seed {args.seed} {line}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
