"""Machine speed, sampled during a pass by a fixed reference kernel.

On a shared machine the same work can take twice as long from one second
to the next, because other tenants compete for the cores; process CPU
time moves with wall time, so it does not help.  A fixed kernel timed
right next to the work slows down with it: each stretch of work is scaled
by ``REFERENCE_KERNEL_S`` over the recent kernel time and so reported at
one reference speed.  BASELINE.json records the unscaled and the scaled
figures of every run side by side.

The kernel steps a 3-level state through 3x3 complex matrix products,
the inner loop of ``run_rb``, with a 3x3 Hermitian eigendecomposition
every eighth step, the simulator's per-segment work.  It uses no pertopt
code, so a change to the program cannot move it.  An interval timer
interrupts the pass to run it, wherever the program is, so how often
the speed is sampled does not depend on how the program is built.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the median kernel time on the baseline machine (unscaled.kernel_s
# in BASELINE.json); only the scale of normalized times depends on it.
REFERENCE_KERNEL_S = 0.025
SAMPLE_EVERY_S = 0.2
# a single 20 ms sample is itself noisy; the median of the last three
# keeps that noise out of scaled latencies
SMOOTHING = 3
KERNEL_STEPS = 6000

_RNG = np.random.default_rng(0)
_GENERATOR = _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))
_HERMITIAN = _GENERATOR + _GENERATOR.conj().T
_MATRIX = np.linalg.qr(_GENERATOR)[0]


def kernel_seconds() -> float:
    state = np.ones(3, dtype=complex)
    start = time.perf_counter()
    for step in range(KERNEL_STEPS):
        state = _MATRIX @ state
        if step % 8 == 0:
            np.linalg.eigh(_HERMITIAN)
    return time.perf_counter() - start


_ALARM = {signal.SIGALRM}


class SpeedClock:
    """Raw and speed-normalized time of a pass, kernel samples excluded.

    A context around the pass: a one-shot ``SIGALRM`` timer runs the
    kernel every ``SAMPLE_EVERY_S`` and is re-armed only when the sample
    ends, so samples never nest.  ``read`` excludes the kernel's own time
    and blocks the timer's signal while it reads, so a sample cannot land
    between its two halves; each stretch of time is scaled by the speed
    measured just before it.  ``windows`` holds the start and end of
    every sample, so a traced pass can take them out of the spans they
    interrupted.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.normalized_s = 0.0
        self.kernel_samples: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.scale = 1.0
        self._mark = 0.0
        self._active = False
        self._previous = None

    def __enter__(self) -> SpeedClock:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        # a signal already on its way finds the clock inactive and does nothing
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close()

    def read(self) -> tuple[float, float]:
        """Raw and normalized seconds since the pass began."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        stretch = time.perf_counter() - self._mark
        values = self.raw_s + stretch, self.normalized_s + stretch * self.scale
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)
        return values

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self._close()
            self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        self.kernel_samples.append(kernel_seconds())
        self._mark = time.perf_counter()
        self.windows.append((start, self._mark))
        self.scale = REFERENCE_KERNEL_S / statistics.median(self.kernel_samples[-SMOOTHING:])
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def _close(self) -> None:
        stretch = time.perf_counter() - self._mark
        self.raw_s += stretch
        self.normalized_s += stretch * self.scale
