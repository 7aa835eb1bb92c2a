"""The machine's speed, measured while the jobs run, to scale their times by.

On a shared host the speed of a fixed piece of code drifts by a third or
more, in spells of seconds to minutes that other tenants cause; process CPU
time drifts with it, so it is no way out. The benchmark therefore runs a
fixed kernel of its own every ``EVERY_S`` seconds while the jobs run (from a
timer signal, so also in the middle of a long job) and around every set-up.
The kernel mixes what the program spends its time in: a small LP through
``scipy.optimize.linprog`` (HiGHS), a loop of Python arithmetic and small
numpy products. It calls nothing of ``cpwl``, so a change to the program
does not change it.

A job's time leaves out the kernel runs inside it. Each stretch ``t`` of it
between kernel runs counts as ``t * KERNEL_REF_S / k``, where ``k`` is the
median kernel time around that stretch (``Speed.factor``): seconds at the
speed at which the kernel takes ``KERNEL_REF_S``. On a steady machine that
is a constant factor, close to 1 on the machine the baseline comes from.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.optimize import linprog

# The kernel's time at the reference speed: about its median during the
# passes on the 2-core machine of the baseline in bench/README.md.
KERNEL_REF_S = 0.003
# Seconds between samples while the timer runs.
EVERY_S = 0.25
# Kernel runs per sample: their median, and that of the samples around,
# holds against one run that a stray pause slows down.
REPEATS = 3
# Kernel runs within this many seconds of a stretch count for its factor.
WINDOW_S = 0.5

_rng = np.random.default_rng(20221)
_A = _rng.standard_normal((12, 3))
_B = _rng.random(12) + 0.5
_X = _rng.standard_normal((8, 8))


def kernel() -> None:
    linprog(c=[0.0, 0.0, -1.0], A_ub=_A, b_ub=_B, bounds=[(-5.0, 5.0)] * 3,
            method="highs")
    s = 0
    for i in range(10000):
        s += i * i % 7
    y = np.zeros(8)
    for _ in range(100):
        y = np.abs(_X @ y + 1.0) * 0.1


class Speed:
    """Kernel runs and the pauses they make, in time order."""

    def __init__(self):
        self.mid: list[float] = []      # the middle of each kernel run
        self.seconds: list[float] = []  # its duration
        self.pauses: list[tuple[float, float]] = []  # (start, end) of each sample
        self._busy = False

    def warm_up(self) -> None:
        for _ in range(5):
            kernel()

    def sample(self) -> None:
        """Run the kernel REPEATS times (not again from a timer signal
        that arrives meanwhile)."""
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.mid.append((t0 + t1) / 2)
            self.seconds.append(t1 - t0)
        self.pauses.append((start, time.perf_counter()))
        self._busy = False

    # -- the timer -----------------------------------------------------------

    def __enter__(self):
        """Sample every EVERY_S seconds until the block ends. The handler
        runs in this thread between two bytecodes of whatever runs."""
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    # -- scaling -------------------------------------------------------------

    def factor(self, start: float, end: float) -> float:
        """KERNEL_REF_S over the median time of the kernel runs within
        WINDOW_S of [start, end], and always of the last sample before it
        and the first one after it."""
        lo = bisect.bisect_left(self.mid, start - WINDOW_S)
        hi = bisect.bisect_right(self.mid, end + WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.mid, start) - REPEATS, 0))
        hi = max(hi, min(bisect.bisect_right(self.mid, end) + REPEATS, len(self.mid)))
        return KERNEL_REF_S / statistics.median(self.seconds[lo:hi])

    def timed(self, start: float, end: float) -> tuple[float, float]:
        """(measured, scaled) seconds of [start, end] outside the samples
        taken within it."""
        measured = scaled = 0.0
        i = bisect.bisect_left(self.pauses, (start,))
        at = start
        for p0, p1 in self.pauses[i:]:
            if p1 > end:
                break
            measured += p0 - at
            scaled += (p0 - at) * self.factor(at, p0)
            at = p1
        measured += end - at
        scaled += (end - at) * self.factor(at, end)
        return measured, scaled

    def median_s(self) -> float:
        return statistics.median(self.seconds)
