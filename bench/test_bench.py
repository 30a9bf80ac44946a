"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
from inputs import P, eval_mod, random_form, render
from qjforms import QJForm
from qjforms.parser import parse_and_evaluate
from tracer import NullTracer, Tracer
from worker import run_rounds
from workloads import CLI_PARTS, build_round, usage_exit_mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class Planting(NullTracer):
    """Replaces the first result of one layer that ``alter`` accepts, as a wrong library result would."""

    def __init__(self, name: str, alter):
        self.name, self.alter, self.planted = name, alter, False

    def call(self, name, fn, *args):
        out = fn(*args)
        if name == self.name and not self.planted:
            wrong = self.alter(out)
            if wrong is not None:
                self.planted, out = True, wrong
        return out


def _bump_coefficient(form: QJForm) -> QJForm:
    terms = dict(form.terms())
    first = next(iter(terms))
    terms[first] += 1
    return QJForm(terms)


def _bump_cli_coefficient(out):
    rc, stdout, stderr = out
    envelope = json.loads(stdout) if stdout.startswith("{") else {}
    result = envelope.get("result")
    if not (isinstance(result, list) and result and isinstance(result[0], dict)):
        return None
    result[0]["coeff"] = "1" + result[0]["coeff"]
    return rc, json.dumps(envelope), stderr


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_one_round_passes(workload):
    res = run_rounds(workload, 7, NullTracer(), rounds=1)
    assert res["failures"] == []
    assert res["attempted"] == len(res["latencies"][0]) >= 13


def test_planted_product_coefficient_fails():
    tracer = Planting("forms.mul", _bump_coefficient)
    res = run_rounds("bigprod", 7, tracer, rounds=1)
    assert tracer.planted and res["failed"] == 1


def test_planted_cli_result_fails():
    tracer = Planting("cli.query", _bump_cli_coefficient)
    res = run_rounds("oracle", 7, tracer, rounds=CLI_PARTS)
    assert tracer.planted and res["failed"] == 1


@pytest.mark.parametrize("workload", ["brackets", "oracle"])
def test_trace_counts_repeat_in_process(workload):
    a, b = Tracer(), Tracer()
    run_rounds(workload, 5, a, rounds=1)
    run_rounds(workload, 5, b, rounds=1)
    assert a.counts == b.counts and a.maxima == b.maxima
    assert [s[0] for s in a.spans] == [s[0] for s in b.spans]


def test_trace_counts_repeat_across_processes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reports = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "bigprod", "9", "traced", "--rounds", "1"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True,
        )
        ready, line = proc.stdout.splitlines()
        assert ready == "READY"
        reports.append(json.loads(line))
    a, b = reports
    assert a["counts"] == b["counts"] and a["maxima"] == b["maxima"] and a["hit_ratio"] == b["hit_ratio"]


def test_oracle_rounds_keep_out_of_range_queries():
    kinds = [item.kind for r in range(CLI_PARTS) for item in build_round("oracle", 3, r) if item.kind.startswith("cli.")]
    assert len(kinds) == 20 and kinds.count("cli.range") == 1 and kinds.count("cli.syntax") == 1
    assert usage_exit_mismatch("cli.range", (1, "", "error: K must be nonnegative\n"))
    assert not usage_exit_mismatch("cli.range", (2, "", "error: K must be nonnegative\n"))
    assert not usage_exit_mismatch("cli.eval", (1, "", "error: x\n"))


def test_inputs_render_and_evaluate_exactly():
    rng = random.Random(4)
    point = tuple(rng.randrange(1, P) for _ in range(5))
    for _ in range(50):
        f = random_form(rng, rng.randint(1, 8), 3, num=50, den=30)
        g = random_form(rng, rng.randint(1, 8), 3, num=50, den=30)
        assert parse_and_evaluate(render(f)) == f
        assert eval_mod(f * g, point) == eval_mod(f, point) * eval_mod(g, point) % P


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "bench/run.py", "--workload", "brackets", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
