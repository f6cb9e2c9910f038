"""Machine-speed yardsticks for timing on a shared machine.

The cores of a shared machine change speed by up to 2x for seconds at a
time, and the cost of starting a process drifts by 20% over minutes;
no number of repeats inside one run averages that away.  A yardstick is
a fixed piece of work that shares no code with plapeig, read before and
after every timed call; the call's duration is rescaled by the
yardstick's reference time over the mean reading, so reported times are
seconds at the speed where the yardstick takes its reference time.

* ``interpreter``: a pure-Python loop in the style of the integrator (a
  Runge-Kutta stage loop over tuples, with a bisect lookup in the
  right-hand side), for work done in this process.  With ``ticks`` it is
  also read on a timer every ``TICK_S`` inside a call, and those
  readings are taken off the call's duration.
* ``cold_start``: a child process that only imports numpy, for child
  processes.  A cold import does not slow down with the loop, but it
  does with this.
"""

import math
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_right

STEPS = 2000
LOOP_REF_S = 0.012
TICK_S = 0.25
IMPORT_REF_S = 0.15
_TABLE = tuple(i / 64 for i in range(65))
_STAGES = ((0.2,), (0.075, 0.225), (0.3, -0.9, 1.2))


def _loop_seconds(steps: int) -> float:
    """Seconds taken by ``steps`` steps of the yardstick loop."""
    t0 = time.perf_counter()
    table = _TABLE

    def rhs(x, y):
        i = bisect_right(table, x - math.floor(x)) - 1
        return (1.0 - 0.5 * abs(math.sin(y[0])) ** 1.5 + table[i],)

    x, y, h = 0.0, (0.0,), 1e-3
    for _ in range(steps):
        k = [rhs(x, y)]
        for a in _STAGES:
            yi = tuple(y[d] + h * sum(aj * kj[d] for aj, kj in zip(a, k))
                       for d in range(len(y)))
            k.append(rhs(x + h, yi))
        x, y = x + h, yi
    return time.perf_counter() - t0


class Yardstick:
    """Readings of one yardstick; times calls at the reference speed."""

    def __init__(self, read, ref_s: float, tick_read=None):
        self.read = read
        self.ref_s = ref_s
        self.tick_read = tick_read
        self.readings = [read()]

    def rescale(self, seconds: float) -> float:
        """``seconds`` of work that just ended, at the reference speed."""
        return self._scaled(seconds, [])

    def time(self, call) -> tuple[float, float]:
        """Run ``call``; returns (raw seconds, rescaled seconds)."""
        inside, paused = [], 0.0

        def tick(signum, frame):
            nonlocal paused
            t0 = time.perf_counter()
            inside.append(self.tick_read())
            paused += time.perf_counter() - t0

        if self.tick_read:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            call()
        finally:
            if self.tick_read:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            raw = time.perf_counter() - t0 - paused
        return raw, self._scaled(raw, inside)

    def _scaled(self, seconds: float, inside: list[float]) -> float:
        before = self.readings[-1]
        self.readings.append(self.read())
        return seconds * self.ref_s / statistics.mean([before, *inside, self.readings[-1]])


def interpreter(ticks: bool) -> Yardstick:
    """The yardstick for Python work done in this process."""
    return Yardstick(lambda: _loop_seconds(STEPS), LOOP_REF_S,
                     (lambda: 4.0 * _loop_seconds(STEPS // 4)) if ticks else None)


def cold_start(env: dict) -> Yardstick:
    """The yardstick for child processes: a child that imports numpy."""
    def read() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                       capture_output=True, check=True, timeout=120)
        return time.perf_counter() - t0
    return Yardstick(read, IMPORT_REF_S)
