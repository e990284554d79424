"""The machine's speed, sampled while the program runs, to normalise timings.

A shared host runs this process at a speed that drifts by up to a factor of
two between regimes lasting seconds (another tenant on the core's sibling
thread, for one), and that drift is the same for CPU time as for wall time.
Over a run it moves the raw rates far more than any change to the program
should be allowed to.  So while a CLI call runs, an interval timer
interrupts it every `PERIOD_S` and runs `kernel()`, a fixed piece of
interpreter-bound work that nothing in the program can change.  Its thread
CPU time measures how fast the interpreter runs right then; the wall time
it takes is removed from the call's time.

`Probe.speed()` is the mean of REFERENCE_S / kernel seconds over a run: 1.0
is the speed at which the kernel takes REFERENCE_S, and the mean of
speeds sampled evenly in time is the mean speed the calls ran at.  Rates
divided by it are rates at the reference speed.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.05
REFERENCE_S = 0.001  # about the kernel's CPU time on a 2.1 GHz Xeon vCPU


def kernel(rounds: int = 150) -> int:
    """Fixed interpreter-bound work: Euclid chains on 40- and 50-bit ints.

    Builtins only, so that running it in a fresh interpreter imports
    nothing the program's own import would then find already loaded."""
    acc = 0
    seen = {}
    for k in range(rounds):
        a, b = 10 ** 12 + 39 * k + 7, 10 ** 15 + 12345 * k + 11
        sign = 1
        while a:
            q, r = divmod(b, a)
            acc += sign * (q * a + r) % 1000003
            seen[r & 255] = q
            sign = -sign
            a, b = r, a
    return acc + len(seen)


def kernel_seconds() -> float:
    """Thread CPU seconds of one kernel() run, with the collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        kernel()
        return time.thread_time() - start
    finally:
        if was_enabled:
            gc.enable()


class Probe:
    """Samples kernel_seconds() every PERIOD_S while `sampling()` is open."""

    def __init__(self, cpus: list[int] | None = None):
        self.samples: list[float] = []
        self.stolen_s = 0.0  # wall seconds spent in the samples
        self.cpus = cpus
        self._turn = 0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        if self.cpus:
            saved = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpus[self._turn % len(self.cpus)]})
            self._turn += 1
            try:
                self.samples.append(kernel_seconds())
            finally:
                os.sched_setaffinity(0, saved)
        else:
            self.samples.append(kernel_seconds())
        self.stolen_s += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        """Sample for the duration of the block; always disarm the timer."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self) -> float:
        """Mean speed over the samples, relative to REFERENCE_S."""
        if not self.samples:
            raise RuntimeError("no speed samples: every call was shorter than PERIOD_S")
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
