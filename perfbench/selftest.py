"""Tests of the benchmark itself, kept out of the repository's test suite:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


def declared(section):
    return {entry["name"] for entry in DECLARED[section]}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(workload, tmp_path):
    def text(seed, sub):
        (job,) = workloads.jobs(workload, seed, REPO, tmp_path / sub)
        return job.path.read_bytes()

    assert text(7, "a") == text(7, "b")
    assert text(7, "a") != text(8, "c")


def test_declared_metrics_match_the_runner():
    assert declared("end_to_end") == set(run.END_TO_END_UNITS)
    assert declared("per_layer") == set(run.PER_LAYER_UNITS)
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def run_cli(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_reference_smoke_run_reports_every_metric(trace):
    done = run_cli("--workload", "reference", "--seed", "3", "--seconds", "0.3",
                   "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == declared(section)


def test_tiny_generated_state_reports_every_metric(tmp_path):
    import multirank.cli

    kets = workloads.support(random.Random(5), 6, 9)
    rng = random.Random(1)
    terms = workloads.relabel({k: workloads.coefficient(rng) for k in kets}, rng)
    path = tmp_path / "tiny.state"
    path.write_text(workloads.render((2,) * 6, terms))
    jobs = [workloads.Job(path)]

    runner = run.Runner(jobs, multirank.cli.main)
    metrics, samples = run.end_to_end(runner, REPO, 0.05)
    assert set(metrics) == declared("end_to_end")
    assert all(value > 0 for value in metrics.values())

    runner = run.Runner(jobs, multirank.cli.main)
    metrics, extra, samples, spans = run.per_layer(runner, 0.05)
    assert set(metrics) == declared("per_layer")
    assert metrics["flatten.calls"] == 6 + 15 + 20
    assert runner.failed == 0 and not runner.problems


def test_counter_check_catches_a_missing_flattening():
    import multirank.cli

    path = REPO / "states" / "cluster4.state"
    runner = run.Runner([workloads.Job(path)], multirank.cli.main)
    tracer = run.tracing.Tracer()
    runner.traced_pass(tracer, [None])
    spans = tracer.spans
    assert run.tracing.check_counters(spans, runner.jobs, run.dims_of) == []
    moved = next(s for s in spans if s[0] == "flatten")
    moved[4] = 1  # attribute one flattening to another job
    (problem,) = run.tracing.check_counters(spans, runner.jobs, run.dims_of)
    assert "flatten.calls 9 != 10" in problem


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = run_cli("--workload", "sparse10", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
