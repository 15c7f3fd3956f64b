"""Op timing scaled to a fixed host speed, so that host contention cancels.

The benchmark shares a small, busy host: the same pure-Python code runs up to
1.6 times slower for seconds at a time when neighbouring work contends for
the core and its caches.  So every measured interval is scaled by a
calibration kernel run next to it: a fixed free-reduction loop that builds
lists, tuples and a dict, the kind of work the engine does, and slows with
it.  A time reads what it would on a host where the kernel takes
``REFERENCE_S``; it is still the program's own measured time, only with the
host's momentary speed divided out.  The kernel is the benchmark's own code,
and it runs with the cyclic garbage collector off, so that no collection
pass over the engine's heap lands inside it: the size of the engine's heap
cannot move its time.  The speed of an interval is the median of the marks
around it, so one slow mark does not rescale the ops next to it.

The kernel runs between ops once ``PERIOD_S`` has passed since it last ran,
and a timer signal also runs it every ``PERIOD_S`` inside long ops; its own
time is then taken out of the op's, and out of any span it ran inside.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.001  # the kernel's time on the reference host
PERIOD_S = 0.05

_rng = random.Random(0)
_LETTERS = [_rng.choice((1, -1)) * _rng.randint(1, 6) for _ in range(6000)]


def kernel() -> float:
    """Run the calibration kernel once, with the cyclic GC off; return its wall time."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    out: list[int] = []
    chunks = []
    for x in _LETTERS:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
        if len(out) % 64 == 0:
            chunks.append(tuple(out[-64:]))
    index = {}
    for i, chunk in enumerate(chunks):
        index[chunk] = i
    dt = perf_counter() - t0
    del out, chunks, index  # freed before the collector is back on
    if was_enabled:
        gc.enable()
    return dt


class Clock:
    """Calibration marks along a run, and intervals scaled by them."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # when each kernel run ended
        self.kernel_s: list[float] = []  # how long it took
        self.kernel_total = 0.0
        self.calibrate()

    def calibrate(self, *_signal_args) -> None:
        dt = kernel()
        self.ends.append(perf_counter())
        self.kernel_s.append(dt)
        self.kernel_total += dt

    def tick(self) -> None:
        """Calibrate if the last mark is older than ``PERIOD_S``; call between ops."""
        if perf_counter() - self.ends[-1] >= PERIOD_S:
            self.calibrate()

    def start_sampling(self) -> None:
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """``end - start``, less kernel runs inside it, at reference speed.

        The speed comes from the median of the marks inside the interval and
        the nearest one on either side.  Call ``calibrate`` once after the
        last interval.
        """
        lo = max(bisect.bisect_right(self.ends, start) - 1, 0)
        hi = min(bisect.bisect_left(self.ends, end), len(self.ends) - 1)
        inside = sum(self.kernel_s[lo + 1:hi])
        speed = REFERENCE_S / statistics.median(self.kernel_s[lo:hi + 1])
        return (end - start - inside) * speed


class OpLog:
    """Per-op intervals and outcomes of one measured stretch."""

    def __init__(self, tracer=None) -> None:
        self.clock = tracer.clock if tracer is not None else Clock()
        self.intervals: list[tuple[float, float]] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.tracer = tracer
        self.clock.start_sampling()

    def run(self, fn, *args):
        """Call ``fn(*args)`` as one op, timing it whether or not it raises."""
        self.clock.tick()
        if self.tracer is not None:
            self.tracer.op = len(self.intervals)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.intervals.append((t0, perf_counter()))

    def times(self) -> list[float]:
        """End the stretch; each op's time at reference speed."""
        self.clock.stop_sampling()
        self.clock.calibrate()
        return [self.clock.scaled(a, b) for a, b in self.intervals]
