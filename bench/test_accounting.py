"""Time accounting: the speed clock and the spans it interrupts.

    python3 -m pytest -q bench
"""

import signal
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import speed  # noqa: E402
import tracing  # noqa: E402


def test_clock_excludes_its_samples_and_disarms():
    previous = signal.getsignal(signal.SIGALRM)
    began = time.perf_counter()
    with speed.SpeedClock() as clock:
        while time.perf_counter() - began < 0.7:
            first, _ = clock.read()
            second, _ = clock.read()
            assert second >= first
    elapsed = time.perf_counter() - began
    assert len(clock.kernel_samples) >= 3
    kernel = sum(end - start for start, end in clock.windows)
    assert clock.raw_s == pytest.approx(elapsed - kernel, abs=2e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_samples_leave_the_spans_they_interrupted():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["optimizers.run_optimization", 0.0, 10.0, -1],
        ["estimators.estimate_gradient", 1.0, 5.0, 0],
        ["objectives.lx", 2.0, 3.0, 1],
        ["transmon.evolve", 2.2, 2.8, 2],
        # opened on the stack before the sample at 3.5, started after it
        ["objectives.lx", 4.0, 4.5, 1],
    ]
    metrics = tracing.layer_metrics(tracer, [(2.4, 2.5), (3.5, 3.9), (6.0, 7.0)])
    assert metrics["transmon.evolve.self_s"] == pytest.approx(0.5)
    assert metrics["objectives.lx.self_s"] == pytest.approx(0.4 + 0.5)
    assert metrics["estimators.estimate_gradient.self_s"] == pytest.approx(2.1)
    assert metrics["optimizers.run_optimization.self_s"] == pytest.approx(5.0)
