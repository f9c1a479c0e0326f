"""The benchmark's main loop: set-up probes, passes, checks, metrics.

``run.py`` caps the thread pools, puts this checkout's ``src`` first on
the path and calls ``main``.  Set-up (import, config parsing, first
Clifford-group build) is timed in fresh interpreters before any pass.
Then whole workload passes run back to back, all from the same seeded
inputs, until ``--seconds`` is spent.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes,
at least three of each, and reports the per-layer metrics.  End-to-end
times are scaled to a reference machine speed (see speed.py); the raw
times are printed beside them.  Every pass is checked as it ends and only
its timings are kept; the last line of stdout is one JSON object,
and the exit code is 1 if any check failed.  Details (environment, raw
times, spans) go to ``.bench_out/``.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import pertopt.rb
import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
# The tail is the highest percentile with at least ten samples beyond it,
# capped at p90 and never below the lower median: the 10th-slowest of tens of
# thousands of sub-ms calls measures the machine's scheduling hiccups, and
# the slowest few of a few hundred RB losses how hard one seed's gates
# make the decay fits, not the program.
TAIL_BEYOND = 10
TAIL_CAP = 90.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
    }


def measure_setup(workload: str, config_text: str, runs: int) -> dict:
    """Median of ``runs`` set-ups, each in its own fresh interpreter."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            input=config_text,
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return {
        kind: {key: statistics.median(s[kind][key] for s in samples) for key in keys}
        for kind, keys in samples[0].items()
    }


def tail(durations: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank, up to TAIL_CAP, with
    at least TAIL_BEYOND samples beyond it, but at least the lower median."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = max(min(n - TAIL_BEYOND, math.ceil(n * TAIL_CAP / 100.0)), math.ceil(n / 2))
    return ordered[rank - 1], 100.0 * rank / n


@dataclass
class Pass:
    """What the metrics need of one pass, once its outputs are checked."""

    traced: bool
    ops: workloads.OpLog
    layers: dict | None  # per-layer metrics of a traced pass

    @property
    def wall_s(self) -> float:
        return self.ops.clock.normalized_s


def run_one_pass(inputs, index: int, spans) -> tuple[Pass, workloads.Outcome, dict]:
    """One pass: its record, its outcome and the digests of its artifacts.

    A traced pass writes its spans to ``spans`` and keeps only its layer
    metrics.  Both kinds of pass sample the machine speed the same way;
    a traced pass takes the samples out of the spans they interrupted.
    """
    tracer = tracing.Tracer() if spans is not None else None
    hooks = contextlib.nullcontext()
    if tracer is not None:
        hooks = tracing.installed(tracer, workloads)
    ops = workloads.OpLog(speed.SpeedClock())
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="pass_") as out:
        gc.collect()
        with hooks, ops.clock:
            outcome = workloads.run_pass(inputs, Path(out), ops)
        digests = workloads.artifact_digests(Path(out))
    layers = None
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, ops.clock.windows)
        tracing.write_spans(spans, index, tracer)
    return Pass(tracer is not None, ops, layers), outcome, digests


def run_passes(inputs, seconds: float, spans) -> tuple[list[Pass], list[str], list]:
    """Passes until the next one would overrun ``seconds``, each checked
    as it ends; returns the passes, the failed checks and the fidelities
    of pass 0.

    Untraced runs need two passes to compare artifacts.  Traced runs
    (``spans`` is the file their spans go to) alternate untraced and
    traced passes, at least three of each, so the tracing overhead is a
    difference of medians and traced passes can be compared count for
    count.  Outcomes are dropped once checked, so the memory the process
    holds does not grow with the number of passes.
    """
    minimum = 2 if spans is None else 6
    passes: list[Pass] = []
    errors: list[str] = []
    lengths: list[float] = []
    reference = fidelities = None
    start = time.perf_counter()
    while True:
        index = len(passes)
        began = time.perf_counter()
        record, outcome, digests = run_one_pass(
            inputs, index, spans if index % 2 == 1 else None
        )
        now = time.perf_counter()
        errors += [f"pass {index}: {e}" for e in workloads.check_outcome(outcome)]
        if reference is None:
            reference, fidelities = digests, outcome.fidelities
        elif digests != reference:
            errors.append(f"pass {index}: artifacts differ from pass 0 on the same seed")
        del outcome
        passes.append(record)
        lengths.append(now - began)
        if len(passes) >= minimum and now - start + statistics.median(lengths) > seconds:
            return passes, errors, fidelities


def end_to_end(passes: list[Pass], setup: dict, peak_rss_mb: float) -> tuple[dict, dict]:
    """Metrics from the untraced passes, plus the notes that qualify them.

    Times are scaled to the reference machine speed (see speed.py); the
    raw times go into the notes.
    """
    timed = [p for p in passes if not p.traced]
    durations = [d for p in timed for d in p.ops.normalized]
    raw = [d for p in timed for d in p.ops.raw]
    failed = sum(p.ops.failed for p in timed)
    tail_s, tail_pct = tail(durations)
    metrics = {
        "setup_s": (setup["normalized"]["setup_s"], "s"),
        "wall_s": (statistics.median(p.wall_s for p in timed), "s"),
        "op_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    kernel = [k for p in timed for k in p.ops.clock.kernel_samples]
    notes = {
        "failed_frac": failed / len(durations),
        "op_ms_tail_percentile": tail_pct,
        "op_samples": len(durations),
        "passes": len(timed),
        "pass_wall_s": [p.wall_s for p in timed],
        "raw_pass_wall_s": [p.ops.clock.raw_s for p in timed],
        "raw_wall_s": statistics.median(p.ops.clock.raw_s for p in timed),
        "raw_op_ms_p50": statistics.median(raw) * 1e3,
        "raw_op_ms_tail": tail(raw)[0] * 1e3,
        "kernel_s_median": statistics.median(kernel),
        "kernel_samples": len(kernel),
    }
    return metrics, notes


def per_layer(passes: list[Pass], setup: dict) -> tuple[dict, list[str]]:
    """Median over traced passes; counts must repeat exactly between them."""
    traced = [p.layers for p in passes if p.traced]
    errors = []
    for name, unit, _ in tracing.PER_LAYER:
        if unit in ("count", "B"):
            values = {m[name] for m in traced if name in m}
            if len(values) > 1:
                errors.append(f"{name} differs between traced passes: {sorted(values)}")
    metrics = {
        name: statistics.median(m[name] for m in traced) for name in traced[0]
    }
    metrics["experiments.config_parse_s"] = setup["normalized"]["config_parse_s"]
    metrics["rb.clifford_group_s"] = setup["normalized"]["clifford_group_s"]
    metrics["trace.overhead_frac"] = trace_overhead(passes)[0]
    return {name: (metrics[name], unit) for name, unit, _ in tracing.PER_LAYER}, errors


def trace_overhead(passes: list[Pass]) -> tuple[float, float]:
    """Traced over untraced median wall time, minus one, and the spread
    of the untraced passes (range over median) it has to exceed to be
    resolved."""
    plain = [p.wall_s for p in passes if not p.traced]
    with_spans = statistics.median(p.wall_s for p in passes if p.traced)
    median = statistics.median(plain)
    return (with_spans - median) / median, (max(plain) - min(plain)) / median


def main(argv: list[str]) -> int:
    if SRC.resolve() not in Path(pertopt.__file__).resolve().parents:
        print(f"error: pertopt imported from {pertopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced passes that run the checks only")
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    # fit noise on near-perfect gates; the fidelity checks bound the result
    warnings.filterwarnings("ignore", message="interleaved decay exceeds")
    size = workloads.SMOKE if args.smoke else workloads.FULL
    config = workloads.make_config(args.workload, args.seed, size)
    setup = measure_setup(args.workload, json.dumps(config), 1 if args.smoke else SETUP_RUNS)

    pertopt.rb.clifford_group()
    inputs = workloads.make_inputs(
        args.workload, config, workloads.parse_config(args.workload, config)
    )
    seconds = 0.0 if args.smoke else args.seconds
    spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
    OUT.mkdir(exist_ok=True)
    with open(spans_path, "w") if args.trace == 1 else contextlib.nullcontext() as spans:
        passes, errors, fidelities = run_passes(inputs, seconds, spans)
    # before anything is aggregated: the peak is the passes' own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if inputs.workload == "rb_assess":
        errors += workloads.check_exact_x90(inputs)
    e2e, notes = end_to_end(passes, setup, peak_rss_mb)
    result = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "environment": environment(), "setup": setup, **notes}
    print(f"env {json.dumps(result['environment'])}")
    print(f"workload {args.workload} seed {args.seed}: {notes['passes']} untraced "
          f"passes, {notes['op_samples']} ops")
    for name, (value, unit) in e2e.items():
        extra = ""
        if name == "op_ms_tail":
            pct, n = notes["op_ms_tail_percentile"], notes["op_samples"]
            extra = f"  (p{pct:.2f} of {n} samples, {round(n * (1 - pct / 100))} beyond)"
        print(f"  {name} {value:.6g} {unit}{extra}")
    print(f"  failed_frac {notes['failed_frac']:.6g} fraction")
    print(f"  unscaled: setup_s {setup['raw']['setup_s']:.6g} s, "
          f"wall_s {notes['raw_wall_s']:.6g} s, op_ms_p50 {notes['raw_op_ms_p50']:.6g} ms, "
          f"op_ms_tail {notes['raw_op_ms_tail']:.6g} ms; "
          f"speed kernel {notes['kernel_s_median'] * 1e3:.4g} ms median of "
          f"{notes['kernel_samples']} samples")
    for label, f_irb, f_direct, _ in fidelities:
        print(f"  {label}: interleaved_gate_fidelity {f_irb:.6f} "
              f"average_gate_fidelity {f_direct:.6f}")

    metrics = e2e
    if args.trace == 1:
        metrics, count_errors = per_layer(passes, setup)
        errors += count_errors
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
        overhead, spread = trace_overhead(passes)
        result.update(traced_pass_wall_s=[p.wall_s for p in passes if p.traced],
                      trace_overhead_resolved=abs(overhead) > spread)
        if abs(overhead) <= spread:
            print(f"  trace.overhead_frac is unresolved: within the untraced "
                  f"passes' spread of {spread:.3g} (range over median)")
    for error in errors:
        print(f"CHECK FAILED: {error}")

    attempted = sum(len(p.ops.raw) for p in passes)
    failed = sum(p.ops.failed for p in passes)
    result.update(errors=errors, metrics={k: v for k, (v, _) in metrics.items()},
                  end_to_end={k: v for k, (v, _) in e2e.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if errors else 0

