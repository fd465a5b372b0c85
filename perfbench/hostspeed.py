"""Host speed along a run, from a fixed calibration loop, to steady the timings.

On a shared host the same code runs up to 1.5 times slower for stretches of
seconds to minutes, while it is on the CPU: the slowdown does not show as
waiting or stolen time, so neither CPU time nor wall time escapes it.  A
short loop that never calls cpgates, timed every ``PERIOD`` seconds of the
run from a ``SIGALRM`` handler in the main thread, slows down by nearly the
same factor at the same moments.

``adjust(t0, t1)`` turns a wall-clock interval into the time it would have
taken on a host where the loop takes ``REFERENCE`` seconds: the interval
minus the calibrations inside it, scaled by ``REFERENCE`` over each
calibration's own time.  ``REFERENCE`` is a fixed constant, about the
fastest the loop runs on the host the README's baseline comes from, so an
adjusted time there is close to the wall time of an unloaded moment, and it
does not depend on how fast the host happened to be during one run.  A
change to cpgates cannot speed up or slow down the loop, so it moves the
adjusted times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _first(item: _Item, k: int) -> int:
    return item.a + k


class HostSpeed:
    PERIOD = 0.025  # seconds between calibrations; each takes about 0.25 ms
    REFERENCE = 250e-6  # seconds per calibration that adjusted times assume
    NEAR = 5  # calibrations on each side that time an interval with none inside

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._x = np.linspace(0.0, 1.0, 64)

    def calibrate(self, *_signal_args) -> None:
        """Time the fixed loop once: small numpy calls, calls and objects,
        then integer bytecode, in shares whose slowdown follows that of the
        workloads' own code (scalar queries, integrator, fold)."""
        t0 = time.perf_counter()
        x = self._x
        for _ in range(20):
            x = np.sin(x) * 0.5 + 0.25
        s = 0
        for i in range(300):
            item = _Item(i, (i, i))
            s += _first({"k": item}["k"], len(item.b))
        for i in range(1500):
            s += i * i
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def now(self) -> float:
        """Median of ``NEAR`` calibrations in a row: the speed at this moment."""
        for _ in range(self.NEAR):
            self.calibrate()
        return float(np.median(self.seconds[-self.NEAR:]))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def adjust(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` at the reference host speed.

        Calibrations that started inside the interval are taken out of it
        and give its mean speed.  An interval with none takes the median of
        the ``NEAR`` calibrations on each side of it, which resists the odd
        slow one (the first after a wait, say).
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.seconds[lo:hi]
        if inside:
            speed = float(np.mean([1.0 / s for s in inside]))
        else:
            speed = 1.0 / float(np.median(self.seconds[max(lo - self.NEAR, 0):lo + self.NEAR]))
        return (t1 - t0 - sum(inside)) * self.REFERENCE * speed

    def record(self) -> dict:
        return {"calibrations": len(self.seconds),
                "mean_calibration_us": float(np.mean(self.seconds)) * 1e6,
                "fastest_calibration_us": min(self.seconds) * 1e6}
