"""Host-speed normalisation of measured times.

The benchmark runs on shared hosts whose speed changes by 30-60% within
seconds and between runs: neighbours load the same cores, caches and memory.
Raw wall times therefore move with the neighbours' load, not with the
program.  A fixed calibration kernel, written in the style of the program's
hot path (interpreted Python plus small dense numpy updates) and sharing no
code with it, is timed every ``PERIOD_S`` seconds from a ``SIGALRM``
handler, so it also runs between the program's own bytecodes.  A measured
interval is then reported as *reference milliseconds*: its wall time, less
the kernel samples run inside it, times the host's speed during it relative
to ``REFERENCE_KERNEL_MS``.  On a host that runs the kernel in exactly
``REFERENCE_KERNEL_MS`` the two agree.

A faster program finishes its work in fewer reference milliseconds; the
kernel itself never changes with the program, so it only removes the
neighbours' share of the noise.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Kernel time on a shared 2-core x86 host at its usual load (Xeon, Python
# 3.11, numpy 2).  It sets only the scale of a reference millisecond.
REFERENCE_KERNEL_MS = 1.2
_PY_ITERATIONS = 6000
_PIVOTS = 60
_TABLEAU = np.random.default_rng(0).random((24, 48))


def _kernel() -> float:
    total = 0
    for i in range(_PY_ITERATIONS):
        total += i * i % 7
    tableau = _TABLEAU.copy()
    rows, cols = tableau.shape
    for k in range(_PIVOTS):
        r, c = k % rows, k % cols
        column = tableau[:, c] / (tableau[r, c] + 1.0)
        tableau -= np.outer(column, tableau[r, :]) * 1e-3
        total += int(np.argmin(tableau[-1]))
    return float(total)


class HostSpeed:
    """Samples of the kernel's duration, in time order, on the perf_counter clock."""

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter_ns()
        _kernel()
        self._starts.append(start)
        self._ends.append(time.perf_counter_ns())

    def start(self) -> None:
        """Sample now and then every PERIOD_S seconds of wall time."""
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.sample()

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Mean speed relative to the reference over the samples inside the
        interval and the nearest one on either side of it.

        Samples are evenly spaced in wall time, so the mean is the speed
        averaged over the interval, and work done is wall time times that
        mean.  A median would take the host's usual state for the whole
        interval and miss the bursts.  A sample slowed by preemption reads
        as a speed near 0 and moves the mean by at most its share.
        """
        lo = max(0, bisect.bisect_left(self._starts, start_ns) - 1)
        hi = bisect.bisect_right(self._ends, end_ns) + 1
        durations = [(e - s) / 1e6 for s, e in zip(self._starts[lo:hi], self._ends[lo:hi])]
        if not durations:
            raise ValueError("no host-speed sample near the interval")
        return statistics.fmean(REFERENCE_KERNEL_MS / ms for ms in durations)

    def own_ms(self, start_ns: int, end_ns: int) -> float:
        """Wall time of the interval less the samples run inside it."""
        lo = bisect.bisect_left(self._starts, start_ns)
        hi = bisect.bisect_right(self._ends, end_ns)
        sampled_ns = sum(self._ends[i] - self._starts[i] for i in range(lo, hi))
        return (end_ns - start_ns - sampled_ns) / 1e6

    def reference_ms(self, start_ns: int, end_ns: int) -> float:
        """Wall time of the interval less the samples inside it, at reference speed."""
        return self.own_ms(start_ns, end_ns) * self.speed(start_ns, end_ns)
