#!/usr/bin/env python3
"""Benchmark of the multirank CLI, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sparse10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every input goes through ``multirank.cli.main`` in this process, with
stdout captured and compared with the expected output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics of a traced run (see ``tracing.py``).  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report, with the run environment and the sample
counts, is also written to ``.perfbench/BENCH_<workload>_<seed>_<trace>.json``.
See README.md in this directory for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5  # before the first pass and again after the timed loop
REPLAY_SECONDS = 1.0  # kernel replays repeat until they have taken this long
# numpy is imported before the clock starts: no change to multirank moves
# its import, which is most of the total and varied twofold with the
# host's state where multirank's own import stayed within a few percent.
IMPORT_PROBE = (
    "import time, numpy; t = time.perf_counter(); import multirank; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "run_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "state.parse_s": "s",
    "profile.self_s": "s",
    "partition.enumerate_s": "s",
    "flatten.calls": "count",
    "flatten.s": "s",
    "rank.dispatch_calls": "count",
    "rank.dispatch_self_s": "s",
    "rank.certified_ratio": "ratio",
    "rank.modular_calls": "count",
    "rank.modular_self_s": "s",
    "rank.exact_calls": "count",
    "rank.generic_calls": "count",
    "kernels.calls": "count",
    "kernels.s": "s",
    "kernels.cells": "count",
    "kernels.max_rows": "count",
    "kernels.max_cols": "count",
    "kernels.pure_s": "s",
    "classify.verdict_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}
# Reported in the full report but not in the result line: each reads 0 or
# null on some workload (exact on reference, generic off reference, the
# compiled kernel wherever Cython is absent).
REPORT_ONLY_UNITS = {
    "rank.exact_s": "s",
    "rank.generic_s": "s",
    "kernels.compiled_s": "s",
    "failed_frac": "1",
}


class Failure(Exception):
    """The benchmark cannot run here; reported without a result line."""


class Runner:
    """Runs a workload's jobs through the CLI and checks every output."""

    def __init__(self, jobs, cli_main):
        self.jobs = jobs
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None

    def call(self, job_index, argv, expected):
        """One invocation; returns its seconds and stdout."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                code = self.cli_main(argv)
            else:
                self.tracer.job = job_index
                code = self.tracer.span("cli", self.cli_main, argv)
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        if expected is not None:
            self.attempted += 1
            if code != 0 or text != expected:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(
                        f"{argv[0]}: exit {code}, stdout {text[:120]!r}, "
                        f"stderr {err.getvalue()[:200]!r}"
                    )
        return elapsed, code, text

    def run_pass(self, expected):
        """All jobs once; returns the pass wall time and per-call times."""
        calls = []
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            elapsed, _, _ = self.call(i, job.argv(), expected[i])
            calls.append(elapsed)
        return time.perf_counter() - start, calls

    def expected_outputs(self, first_outputs):
        """Pinned outputs, or the ``--rank exact`` output for generated ones."""
        expected = []
        for i, job in enumerate(self.jobs):
            if job.expected is not None:
                expected.append(job.expected)
                continue
            _, code, text = self.call(i, [*job.argv(), "--rank", "exact"], None)
            if code != 0:
                raise Failure(f"{job.path}: --rank exact exited {code}")
            expected.append(text)
        for i, text in enumerate(first_outputs):
            self.attempted += 1
            if text != expected[i]:
                self.failed += 1
                self.problems.append(f"{self.jobs[i].path}: first run differs")
        return expected

    def first_pass(self):
        """Warm-up run, untimed; returns each job's stdout."""
        return [self.call(i, job.argv(), None)[2] for i, job in enumerate(self.jobs)]

    def loop(self, seconds, expected):
        """Closed loop with one client: passes until ``seconds`` elapse."""
        passes, calls = [], []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            wall, per_call = self.run_pass(expected)
            passes.append(wall)
            calls.extend(per_call)
        return passes, calls

    def traced_pass(self, tracer, expected):
        """One pass with ``tracer`` installed; returns its wall time."""
        tracer.spans = []
        self.tracer = tracer
        try:
            with tracer:
                wall, _ = self.run_pass(expected)
        finally:
            self.tracer = None
        return wall


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_seconds(repo: Path) -> list[float]:
    """Import time of ``multirank``, backend selection included, in fresh
    interpreters that have imported numpy."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=repo, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise Failure(f"import multirank failed: {done.stderr.strip()}")
        samples.append(float(done.stdout))
    return samples


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(runner, repo, seconds):
    setup = setup_seconds(repo)
    first = runner.first_pass()
    rss = peak_rss_mb()
    expected = runner.expected_outputs(first)
    passes, calls = runner.loop(seconds, expected)
    # host speed drifts over tens of seconds; sample set-up on both sides
    setup += setup_seconds(repo)
    metrics = {
        "run_s": statistics.median(passes),
        "call_ms_p50": statistics.median(calls) * 1e3,
        "call_ms_p99": nearest_rank(calls, 0.99) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    samples = {"passes": len(passes), "calls": len(calls), "setup_runs": len(setup),
               "calls_beyond_p99": sum(c * 1e3 > metrics["call_ms_p99"] for c in calls),
               "raw": {"pass_s": passes, "call_s": calls, "setup_s": setup}}
    return metrics, samples


def dims_of(job):
    for line in job.path.read_text(encoding="utf-8").splitlines():
        words = line.split()
        if words and words[0] == "dims":
            return [int(w) for w in words[1:]]
    raise Failure(f"{job.path}: no dims line")


def per_layer(runner, seconds):
    import multirank.kernels as kernels

    with tracing.KernelCapture() as capture:
        first = runner.first_pass()
    expected = runner.expected_outputs(first)

    # untraced and traced passes alternate, so that the host's drifting
    # speed affects both alike and their difference is the tracing cost
    tracer = tracing.Tracer()
    untraced, traced, pass_totals = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.run_pass(expected)[0])
        traced.append(runner.traced_pass(tracer, expected))
        pass_totals.append(tracing.layer_totals(tracer.spans))
    # summed over passes: a collector pause between two calls can put a
    # single short pass out by more than its harness overhead
    attributed = sum(sum(t["self_s"].values()) for t in pass_totals)
    if abs(attributed - sum(traced)) > 0.02 * sum(traced):
        runner.problems.append(
            f"layer self times add up to {attributed:.6f} s, passes took {sum(traced):.6f} s"
        )
    runner.problems.extend(tracing.check_counters(tracer.spans, runner.jobs, dims_of))
    counts = [(t["calls"], t["kernel_cells"], t["certified"]) for t in pass_totals]
    if any(c != counts[0] for c in counts):
        runner.problems.append("span counts differ between traced passes")

    backends = {"pure": getattr(kernels, "pure_rank_mod_gaussian", None),
                "compiled": getattr(kernels, "compiled_rank_mod_gaussian", None)}
    replayed = {}
    for name, kernel in backends.items():
        if kernel is None:
            replayed[name] = None
            continue
        times, wrong = [], 0
        while not times or sum(times) < REPLAY_SECONDS:
            elapsed, mismatches = tracing.replay(kernel, capture.inputs)
            times.append(elapsed)
            wrong += mismatches
        if wrong:
            runner.problems.append(f"{name} kernel replay: {wrong} wrong ranks")
        replayed[name] = statistics.median(times)

    def median_self(layer):
        return statistics.median(t["self_s"][layer] for t in pass_totals)

    last = pass_totals[-1]
    calls = last["calls"]
    dispatched = calls["rank.dispatch"]
    run_traced = statistics.median(traced)
    metrics = {
        "cli.self_s": median_self("cli"),
        "state.parse_s": median_self("state.parse"),
        "profile.self_s": median_self("profile"),
        "partition.enumerate_s": median_self("partition.enumerate"),
        "flatten.calls": calls["flatten"],
        "flatten.s": median_self("flatten"),
        "rank.dispatch_calls": dispatched,
        "rank.dispatch_self_s": median_self("rank.dispatch"),
        "rank.certified_ratio": last["certified"] / dispatched if dispatched else 0.0,
        "rank.modular_calls": calls["rank.modular"],
        "rank.modular_self_s": median_self("rank.modular"),
        "rank.exact_calls": calls["rank.exact"],
        "rank.generic_calls": calls["rank.generic"],
        "kernels.calls": calls["kernels"],
        "kernels.s": median_self("kernels"),
        "kernels.cells": last["kernel_cells"],
        "kernels.max_rows": last["kernel_max_rows"],
        "kernels.max_cols": last["kernel_max_cols"],
        "kernels.pure_s": replayed["pure"],
        "classify.verdict_s": median_self("classify.verdict"),
        "trace.run_s": run_traced,
        "trace.overhead_s": run_traced - statistics.median(untraced),
    }
    extra = {
        "rank.exact_s": median_self("rank.exact"),
        "rank.generic_s": median_self("rank.generic"),
        "kernels.compiled_s": replayed["compiled"],
    }
    samples = {"untraced_passes": len(untraced), "traced_passes": len(traced),
               "kernel_inputs": len(capture.inputs), "absent": tracer.absent,
               "certified": last["certified"], "spans_per_pass": len(tracer.spans)}
    return metrics, extra, samples, tracer.spans


def environment(repo: Path, seed: int) -> dict:
    import multirank
    import numpy

    commit = None
    if (repo / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                commit = done.stdout.strip()
    return {
        "backend": multirank.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    repo = Path.cwd()
    if not (repo / "src" / "multirank" / "__init__.py").is_file():
        raise Failure(f"no multirank sources under {repo / 'src'}; run from a checkout")
    sys.path.insert(0, str(repo / "src"))
    import multirank.cli

    out_dir = repo / ".perfbench"
    jobs = workloads.jobs(workload, seed, repo, out_dir / "inputs")
    missing = [str(job.path) for job in jobs if not job.path.is_file()]
    if missing:
        raise Failure(f"missing inputs: {', '.join(missing)}")
    runner = Runner(jobs, multirank.cli.main)
    report = {"workload": workload, "environment": environment(repo, seed)}
    if trace:
        metrics, extra, samples, spans = per_layer(runner, seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, samples = end_to_end(runner, repo, seconds)
        extra, spans, units = {}, None, END_TO_END_UNITS
    extra["failed_frac"] = runner.failed / runner.attempted
    correct = runner.failed == 0 and not runner.problems
    all_units = {**units, **REPORT_ONLY_UNITS}
    report.update(
        correct=correct, attempted=runner.attempted, failed=runner.failed,
        problems=runner.problems, samples=samples,
        metrics={k: {"value": v, "unit": all_units[k]} for k, v in {**metrics, **extra}.items()},
    )
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}_{seed}_{int(trace)}"
    (out_dir / f"BENCH_{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        # layer names in full; parents and jobs index into the same list
        (out_dir / f"spans_{stem}.json").write_text(json.dumps(spans) + "\n")

    for problem in runner.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"{workload} seed={seed} trace={int(trace)} {json.dumps(report['environment'])}")
    print(f"  samples: {json.dumps({k: v for k, v in samples.items() if k != 'raw'})}")
    for name, entry in report["metrics"].items():
        print(f"  {name:<24} {entry['value']!s:>24} {entry['unit']}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def bench_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    code = 0
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return bench_all(args)
    try:
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
