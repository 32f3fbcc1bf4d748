"""Per-layer spans recorded from outside the program.

multirank's layers call each other through module-level names (``cli``
calls ``parse_state``, ``profile`` calls ``flatten`` and so on).  The
tracer rebinds those names to timing wrappers for the duration of a
traced run and restores them afterwards, so the program's own code is
untouched and an untraced run pays nothing.  A name that the program no
longer has is reported as absent and simply not traced.

Spans are kept in memory as ``[layer, start_ns, end_ns, parent, job,
note]`` lists; a layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
from math import comb
from time import perf_counter, perf_counter_ns

# (module, name) -> layer.  The CLI invocation itself is the root layer
# "cli"; its self time is argument parsing, file reading and rendering.
TRACED = {
    ("multirank.cli", "parse_state"): "state.parse",
    ("multirank.cli", "multirank_profile"): "profile",
    ("multirank.cli", "verdict"): "classify.verdict",
    ("multirank.profile", "all_levels"): "partition.enumerate",
    ("multirank.profile", "flatten"): "flatten",
    ("multirank.profile", "rank_dispatch"): "rank.dispatch",
    ("multirank.rank", "modular_rank"): "rank.modular",
    ("multirank.rank", "exact_rank"): "rank.exact",
    ("multirank.rank", "generic_rank"): "rank.generic",
    ("multirank.rank", "rank_mod_gaussian"): "kernels",
}
LAYERS = ("cli", *TRACED.values())


def _kernel_note(args, result):
    rows, cols = args[0].shape
    return rows, cols


def _dispatch_note(args, result):
    return result.certainty == "exact"


NOTES = {"kernels": _kernel_note, "rank.dispatch": _dispatch_note}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def span(self, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        record = [layer, 0, 0, stack[-1] if stack else -1, self.job, None]
        spans.append(record)
        stack.append(index)
        note = NOTES.get(layer)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter_ns()
            record[1] = start
            stack.pop()
        if note is not None:
            record[5] = note(args, result)
        return result

    def _wrapper(self, layer, fn):
        def traced(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)

        return traced

    def __enter__(self):
        self.absent = []
        for (module_name, name), layer in TRACED.items():
            module = importlib.import_module(module_name)
            if not hasattr(module, name):
                self.absent.append(f"{module_name}.{name}")
                continue
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrapper(layer, original))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def layer_totals(spans, job=None) -> dict:
    """Per-layer calls, self seconds and note aggregates, for one job or all."""
    child_ns = [0] * len(spans)
    for record in spans:
        if record[3] >= 0:
            child_ns[record[3]] += record[2] - record[1]
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    cells = max_rows = max_cols = certified = 0
    exact_under = set()
    for i, record in enumerate(spans):
        if job is not None and record[4] != job:
            continue
        layer = record[0]
        calls[layer] += 1
        self_ns[layer] += record[2] - record[1] - child_ns[i]
        if layer == "kernels":
            rows, cols = record[5]
            cells += rows * cols
            max_rows = max(max_rows, rows)
            max_cols = max(max_cols, cols)
        elif layer == "rank.exact":
            exact_under.add(record[3])
    for i, record in enumerate(spans):
        if job is not None and record[4] != job:
            continue
        if record[0] == "rank.dispatch" and record[5] and i not in exact_under:
            certified += 1
    return {
        "calls": calls,
        "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
        "kernel_cells": cells,
        "kernel_max_rows": max_rows,
        "kernel_max_cols": max_cols,
        "certified": certified,
    }


def check_counters(spans, jobs, dims_of) -> list[str]:
    """ROADMAP's "counters add up", checked per job from the spans.

    Under ``fast`` every dispatched matrix is either certified by its
    modular pass or handed to ``exact_rank`` once; a full-profile run
    flattens every bipartition with 1 <= |I| <= n/2 once.
    """
    problems = []
    for job_index, job in enumerate(jobs):
        totals = layer_totals(spans, job_index)
        calls = totals["calls"]
        n = len(dims_of(job))
        expected = sum(comb(n, k) for k in range(1, n // 2 + 1))
        if calls["flatten"] != expected:
            problems.append(
                f"{job.path.name}: flatten.calls {calls['flatten']} != {expected}"
            )
        if "--rank" not in job.flags:
            routed = totals["certified"] + calls["rank.exact"]
            if routed != calls["rank.dispatch"]:
                problems.append(
                    f"{job.path.name}: certified + exact {routed} != "
                    f"dispatched {calls['rank.dispatch']}"
                )
    return problems


class KernelCapture:
    """Copies every kernel input during one run, for replay."""

    def __init__(self):
        self.inputs: list[tuple] = []
        self._saved = None

    def __enter__(self):
        rank = importlib.import_module("multirank.rank")
        if hasattr(rank, "rank_mod_gaussian"):
            original = rank.rank_mod_gaussian
            self._saved = (rank, original)

            def capture(re, im, p):
                result = original(re.copy(), im.copy(), p)
                self.inputs.append((re, im, p, int(result)))
                return result

            rank.rank_mod_gaussian = capture
        return self

    def __exit__(self, *exc):
        if self._saved is not None:
            module, original = self._saved
            module.rank_mod_gaussian = original


def replay(kernel, inputs) -> tuple[float, int]:
    """Seconds ``kernel`` spends on the captured inputs, and mismatches.

    The kernels consume their arrays, so each call gets fresh copies,
    made outside the timed region.
    """
    elapsed = 0.0
    wrong = 0
    for re, im, p, expected in inputs:
        a, b = re.copy(), im.copy()
        start = perf_counter()
        value = kernel(a, b, p)
        elapsed += perf_counter() - start
        wrong += int(value) != expected
    return elapsed, wrong
