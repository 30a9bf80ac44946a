"""Benchmark of qjforms: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload {brackets,bigprod,oracle} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures set-up time nine times in fresh interpreters
plus once in the measuring one, then runs the workload untraced in a fresh
interpreter for S seconds (whole rounds, at least 100 items) and prints the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of rounds
twice in fresh interpreters, untraced and then traced, and prints the
per-layer metrics; spans go to ``.bench_out/``.  Every item's output is
checked against an independent route; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The library is run from ``src`` (``PYTHONPATH=src``); nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("brackets", "bigprod", "oracle")
SETUP_PROBES = 9
MIN_ITEMS = 100  # so that at least ten item latencies lie beyond p90
# Rounds of a traced run: a fixed batch, so that per-layer counts repeat exactly.
# Four oracle rounds hold one whole list of CLI queries.
TRACE_ROUNDS = {"brackets": 8, "bigprod": 6, "oracle": 4}
START_PROBES = 5
CHILD_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# name -> unit; a name ending in ".calls", ".pairs", ".terms_*" or
# ".coeffs_out" is a count read at the layer boundary.
PER_LAYER = {
    "calculus.derive.calls": "count",
    "calculus.derive.self_s": "s",
    "calculus.derive.terms_in": "count",
    "calculus.derive.terms_out": "count",
    "calculus.bracket.calls": "count",
    "calculus.bracket.self_s": "s",
    "calculus.bracket.terms_out": "count",
    "calculus.tv_recurrence.calls": "count",
    "calculus.tv_recurrence.self_s": "s",
    "forms.mul.calls": "count",
    "forms.mul.self_s": "s",
    "forms.mul.pairs": "count",
    "forms.mul.terms_out": "count",
    "forms.linear.calls": "count",
    "forms.linear.self_s": "s",
    "forms.eq.self_s": "s",
    "forms.coeff_bits_max": "bits",
    "forms.member.calls": "count",
    "forms.member.self_s": "s",
    "forms.q_coefficient.self_s": "s",
    "forms.eisenstein.self_s": "s",
    "series.expand.calls": "count",
    "series.expand.self_s": "s",
    "series.expand.coeffs_out": "count",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.mul.pairs": "count",
    "series.derive.self_s": "s",
    "series.equal.self_s": "s",
    "dimensions.closed.self_s": "s",
    "dimensions.brute.self_s": "s",
    "dimensions.series.self_s": "s",
    "arith.binomial.hit_ratio": "ratio",
    "arith.bernoulli.hit_ratio": "ratio",
    "arith.sigma.hit_ratio": "ratio",
    "parser.parse_and_evaluate.calls": "count",
    "parser.parse_and_evaluate.self_s": "s",
    "cli.main.self_s": "s",
    "cli.interp_start_s": "s",
    "cli.import_s": "s",
    "cli.usage_exit_mismatch": "count",
    "bench.trace_overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """A child process failed; the benchmark prints no result."""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QJALG_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(cmd: list[str], ready_line: bool) -> tuple[float, str]:
    """Run a child to the end; return seconds from spawn to its first line, and the rest of stdout."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline() if ready_line else ""
        ready = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or (ready_line and first != "READY\n"):
        raise BenchError(f"{' '.join(cmd[1:])} exited with code {code}")
    return ready, rest


def _worker(workload: str, seed: int, mode: str, *extra: str) -> tuple[float, dict | None]:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode, *extra]
    ready, rest = _spawn(cmd, ready_line=True)
    return ready, json.loads(rest) if rest.strip() else None


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _round_quantile(rounds: list[list[float]], q: int) -> float:
    """The q-th percentile item latency of each round, averaged over the rounds.

    A round is a fixed mix of items, so its percentile falls at the same
    place in the mix every time.  On a shared host whose speed switches
    between two levels about 1.7x apart, a percentile of all of a run's
    latencies at once jumps between the levels as the share of time spent
    in each changes; this mean moves smoothly with that share, as
    ``items_per_s`` does.
    """
    return statistics.fmean(_quantile(r, q) for r in rounds if len(r) > 1)


def _rate(run: dict) -> float:
    lat = [t for r in run["latencies"] for t in r]
    return len(lat) / sum(lat)


def _median_time(code: str) -> float:
    times = []
    for _ in range(START_PROBES):
        start = perf_counter()
        _spawn([sys.executable, "-c", code], ready_line=False)
        times.append(perf_counter() - start)
    return statistics.median(times)


def untraced(workload: str, seed: int, seconds: float) -> dict:
    setups = [_worker(workload, seed, "setup")[0] for _ in range(SETUP_PROBES)]
    ready, run = _worker(workload, seed, "run", "--seconds", str(seconds), "--min-items", str(MIN_ITEMS))
    setups.append(ready)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": _rate(run),
        "item_p50_ms": _round_quantile(run["latencies"], 50) * 1e3,
        "item_p90_ms": _round_quantile(run["latencies"], 90) * 1e3,
        "peak_rss_mb": run["maxrss_kb"] / 1024,
    }
    print(
        f"{workload} seed {seed}: {run['rounds']} rounds, {sum(map(len, run['latencies']))} items timed, "
        f"{run['attempted']} attempted, {run['failed']} failed",
        file=sys.stderr,
    )
    _report_usage_mismatch(run)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def _report_usage_mismatch(run: dict) -> None:
    if run["cli_queries"]:
        print(
            f"known defect: {run['usage_exit_mismatch']} of {run['range_queries']} out-of-range-argument queries "
            f"({run['usage_exit_mismatch'] / run['cli_queries']:.3f} of {run['cli_queries']} cli queries) "
            "did not exit 2 as the README says",
            file=sys.stderr,
        )


def traced(workload: str, seed: int) -> dict:
    rounds = str(TRACE_ROUNDS[workload])
    _, plain = _worker(workload, seed, "fixed", "--rounds", rounds)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.jsonl"
    _, run = _worker(workload, seed, "traced", "--rounds", rounds, "--spans", str(spans))
    interp = _median_time("pass")
    imported = _median_time("import qjforms.cli")

    values = {name: 0 for name in PER_LAYER}
    for name, seconds in run["self_s"].items():
        values[name + ".self_s"] = seconds
    for name, count in {**run["counts"], **run["maxima"]}.items():
        values[name] = count
    for name, ratio in run["hit_ratio"].items():
        values[f"arith.{name}.hit_ratio"] = ratio
    values["cli.interp_start_s"] = interp
    values["cli.import_s"] = imported - interp
    values["cli.usage_exit_mismatch"] = run["usage_exit_mismatch"]
    values["bench.trace_overhead_frac"] = _rate(plain) / _rate(run) - 1

    print(f"{workload} seed {seed}: {rounds} rounds traced, spans in {spans.relative_to(ROOT)}", file=sys.stderr)
    for name in sorted(PER_LAYER):
        if values[name]:
            print(f"  {name:36s} {values[name]:>14.6g} {PER_LAYER[name]}", file=sys.stderr)
    _report_usage_mismatch(run)
    failed = plain["failed"] + run["failed"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return {
        "correct": failed == 0,
        "attempted": plain["attempted"] + run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qjforms" / "__init__.py").is_file():
        print(f"bench: no qjforms sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced(args.workload, args.seed)
        else:
            result = untraced(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
