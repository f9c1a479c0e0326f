"""Span tracing of pertopt's public functions, installed from outside.

Each wrapper is set where the consuming module looks the function up
(``pertopt.objectives.evolve``, ``pertopt.optimizers.adam_step`` and so
on), so no file of the package changes; the originals come back when the
context ends.  A span records its name, start, end and the span that was
open when it began; a layer's self time is its span's duration minus the
durations of its children.  Spans stay in memory until their pass ends
and are written out.
"""

from __future__ import annotations

import bisect
import inspect
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import pertopt.experiments
import pertopt.objectives
import pertopt.optimizers
import pertopt.rb

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    ("transmon.evolve.calls", "count", "lower"),
    ("transmon.evolve.self_s", "s", "lower"),
    ("transmon.evolve.segments", "count", "lower"),
    ("transmon.hann_waveform.self_s", "s", "lower"),
    ("transmon.measure_population.calls", "count", "lower"),
    ("transmon.measure_population.self_s", "s", "lower"),
    ("rb.run_rb.calls", "count", "lower"),
    ("rb.run_rb.self_s", "s", "lower"),
    ("rb.clifford_steps", "count", "lower"),
    ("rb.clifford_steps_per_s", "1/s", "higher"),
    ("rb.compile_cliffords.self_s", "s", "lower"),
    ("rb.measure_population.self_s", "s", "lower"),
    ("rb.fit_rb_decay.calls", "count", "lower"),
    ("rb.fit_rb_decay.self_s", "s", "lower"),
    ("rb.fit_rb_decay.ms_p50", "ms", "lower"),
    ("rb.fit_rb_decay.degenerate", "count", "lower"),
    ("rb.fit_rb_decay.failed", "count", "lower"),
    ("objectives.lx.calls", "count", "lower"),
    ("objectives.lx.self_s", "s", "lower"),
    ("objectives.l_combined.calls", "count", "lower"),
    ("objectives.l_combined.self_s", "s", "lower"),
    ("objectives.l_rb.calls", "count", "lower"),
    ("objectives.l_rb.self_s", "s", "lower"),
    ("estimators.estimate_gradient.calls", "count", "lower"),
    ("estimators.estimate_gradient.self_s", "s", "lower"),
    ("estimators.objective_calls", "count", "lower"),
    ("estimators.billed_ratio", "ratio", "higher"),
    ("optimizers.unbilled_probe_calls", "count", "lower"),
    ("optimizers.step.calls", "count", "lower"),
    ("optimizers.step.self_s", "s", "lower"),
    ("optimizers.run_optimization.self_s", "s", "lower"),
    ("experiments.write_trajectory_csv.self_s", "s", "lower"),
    ("experiments.write_summary_jsonl.self_s", "s", "lower"),
    ("experiments.bytes_written", "B", "lower"),
    ("experiments.assess_gate.self_s", "s", "lower"),
    ("experiments.config_parse_s", "s", "lower"),
    ("rb.clifford_group_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
LOSSES = ("lx", "l_combined", "l_rb")
_RUN_RB_SIGNATURE = inspect.signature(pertopt.rb.run_rb)


@contextmanager
def patched(patches):
    """Set ``module.attr = value`` for each triple; restore on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, value in patches:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Tracer:
    """In-memory spans plus the work counts recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, open_spans, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".failed"] += 1
                raise
            finally:
                span[2] = clock()
                open_spans.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced


def _count_segments(counts, args, kwargs, result):
    counts["transmon.evolve.segments"] += args[0].n_segments


def _count_clifford_steps(counts, args, kwargs, result):
    # each sequence applies m Cliffords (2m steps when interleaved) plus
    # one recovery Clifford
    call = _RUN_RB_SIGNATURE.bind(*args, **kwargs)
    call.apply_defaults()
    per_sequence = sum(int(m) for m in call.arguments["lengths"])
    if call.arguments["interleaved"]:
        per_sequence *= 2
    per_sequence += len(call.arguments["lengths"])
    counts["rb.clifford_steps"] += call.arguments["n_sequences"] * per_sequence


def _count_degenerate(counts, args, kwargs, result):
    counts["rb.fit_rb_decay.degenerate"] += int(result.degenerate)


def _count_billed(counts, args, kwargs, result):
    counts["optimizers.billed_evals"] += result.total_evals


def _count_bytes(counts, args, kwargs, result):
    counts["experiments.bytes_written"] += os.path.getsize(args[0])


@contextmanager
def installed(tracer: Tracer, bench_module):
    """Trace every lookup site for the duration of the context.

    ``bench_module`` is the benchmark's own module that calls ``run_rb``
    and ``fit_rb_decay`` directly; it is one more lookup site.
    """
    objectives, optimizers = pertopt.objectives, pertopt.optimizers
    experiments, rb = pertopt.experiments, pertopt.rb
    make_objective = experiments.make_pulse_objective

    def traced_make_objective(name, cfg, rng=None):
        # _PULSE_LOSSES holds direct references, so the loss span wraps
        # the callable make_pulse_objective hands out
        return tracer.wrap(f"objectives.{name}", make_objective(name, cfg, rng))

    sites = [
        (objectives, "evolve", "transmon.evolve", _count_segments),
        (objectives, "hann_waveform", "transmon.hann_waveform", None),
        (objectives, "measure_population", "transmon.measure_population", None),
        (objectives, "run_rb", "rb.run_rb", _count_clifford_steps),
        (objectives, "fit_rb_decay", "rb.fit_rb_decay", _count_degenerate),
        (rb, "compile_cliffords", "rb.compile_cliffords", None),
        (rb, "measure_population", "rb.measure_population", None),
        (optimizers, "estimate_gradient", "estimators.estimate_gradient", None),
        (optimizers, "adam_step", "optimizers.step", None),
        (optimizers, "momentum_step", "optimizers.step", None),
        (optimizers, "sgd_step", "optimizers.step", None),
        (experiments, "run_optimization", "optimizers.run_optimization", _count_billed),
        (experiments, "write_trajectory_csv", "experiments.write_trajectory_csv",
         _count_bytes),
        (experiments, "write_summary_jsonl", "experiments.write_summary_jsonl",
         _count_bytes),
        (experiments, "run_rb", "rb.run_rb", _count_clifford_steps),
        (experiments, "fit_rb_decay", "rb.fit_rb_decay", _count_degenerate),
        (experiments, "assess_gate", "experiments.assess_gate", None),
        (bench_module, "run_rb", "rb.run_rb", _count_clifford_steps),
        (bench_module, "fit_rb_decay", "rb.fit_rb_decay", _count_degenerate),
    ]
    patches = [
        (module, attr, tracer.wrap(name, getattr(module, attr), count))
        for module, attr, name, count in sites
    ]
    patches.append((experiments, "make_pulse_objective", traced_make_objective))
    with patched(patches):
        yield tracer


def layer_metrics(tracer: Tracer, kernel_windows) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    ``kernel_windows`` are the speed samples' (start, end) times; each is
    taken out of every span it interrupted.  They are placed by time, not
    by the open-span stack, because a sample can land while a wrapper is
    opening or closing its span.
    """
    spans = tracer.spans
    starts = [span[1] for span in spans]  # spans open in list order
    kernel_s = [0.0] * len(spans)
    for k_start, k_end in kernel_windows:
        index = bisect.bisect_right(starts, k_start) - 1
        while index >= 0 and spans[index][2] < k_end:
            index = spans[index][3]
        while index >= 0:
            kernel_s[index] += k_end - k_start
            index = spans[index][3]
    durations = [end - start - kernel_s[i] for i, (_, start, end, _) in enumerate(spans)]
    child_time = [0.0] * len(spans)
    for index, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[index]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    fit_ms = []
    loss_parents: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += durations[index] - child_time[index]
        total_s[name] += durations[index]
        if name == "rb.fit_rb_decay":
            fit_ms.append(durations[index] * 1e3)
        if name.startswith("objectives."):
            loss_parents[spans[parent][0] if parent >= 0 else None] += 1

    metrics: dict[str, float] = {}
    for layer in (
        "transmon.evolve", "transmon.measure_population", "rb.run_rb",
        "rb.fit_rb_decay", "estimators.estimate_gradient", "optimizers.step",
    ):
        metrics[f"{layer}.calls"] = calls[layer]
    for loss in LOSSES:
        metrics[f"objectives.{loss}.calls"] = calls[f"objectives.{loss}"]
        metrics[f"objectives.{loss}.self_s"] = self_s[f"objectives.{loss}"]
    for layer in (
        "transmon.evolve", "transmon.hann_waveform", "transmon.measure_population",
        "rb.run_rb", "rb.compile_cliffords", "rb.measure_population",
        "rb.fit_rb_decay", "estimators.estimate_gradient", "optimizers.step",
        "optimizers.run_optimization", "experiments.write_trajectory_csv",
        "experiments.write_summary_jsonl", "experiments.assess_gate",
    ):
        metrics[f"{layer}.self_s"] = self_s[layer]
    counts = tracer.counts
    for name in (
        "transmon.evolve.segments", "rb.clifford_steps",
        "rb.fit_rb_decay.degenerate", "rb.fit_rb_decay.failed",
        "experiments.bytes_written",
    ):
        metrics[name] = counts[name]
    steps, run_rb_s = counts["rb.clifford_steps"], total_s["rb.run_rb"]
    metrics["rb.clifford_steps_per_s"] = steps / run_rb_s if run_rb_s else 0.0
    metrics["rb.fit_rb_decay.ms_p50"] = statistics.median(fit_ms) if fit_ms else 0.0
    objective_calls = sum(loss_parents.values())
    metrics["estimators.objective_calls"] = loss_parents["estimators.estimate_gradient"]
    metrics["optimizers.unbilled_probe_calls"] = loss_parents["optimizers.run_optimization"]
    billed = counts["optimizers.billed_evals"]
    metrics["estimators.billed_ratio"] = billed / objective_calls if objective_calls else 0.0
    return metrics


def write_spans(fh, pass_index: int, tracer: Tracer) -> None:
    """One JSON array per span: pass, name, start, end, parent index."""
    for name, start, end, parent in tracer.spans:
        fh.write(f'[{pass_index},"{name}",{start!r},{end!r},{parent}]\n')
