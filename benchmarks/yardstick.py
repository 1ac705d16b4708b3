"""A fixed piece of work, timed while the program runs, to factor out host speed.

On a shared host the speed of the core this process runs on swings by up to
2x, over seconds and over minutes, with other tenants' load; CPU time swings
with wall time, so it is not time stolen from the process but slower
instructions.  A pass's wall time therefore says as much about the host as
about the program.  While a timed pass runs, SIGALRM every ``PERIOD_S``
seconds runs ``_work`` (a fixed, package-independent loop of heap operations,
float arithmetic and small allocations) and adds up its time.
Because its samples are spread evenly over the pass, the yardstick sees the
same mix of fast and slow moments as the program, and

    program seconds * REFERENCE_S / (yardstick seconds per call)

is the pass's time on a host where one yardstick call takes ``REFERENCE_S``.
Against a 2x swing in host speed this left a spread of 5 to 10% in single
3-s area calls and 2-s stream passes, where their wall times spread 15 to 25%.
Program seconds exclude the yardstick's own calls.  The yardstick is pure
Python, so starting it imports nothing that a timed set-up would import.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import signal
import time

PERIOD_S = 0.005
# About the time of one _work() call from the handler on the host the
# benchmark was defined on (2-core Intel Xeon, Python 3.11, at its slower
# speed); it only fixes the scale of the results.
REFERENCE_S = 100e-6


def _work() -> float:
    """Adaptive Simpson steps on exp(-x^2) over [0, 1] from a heap, then a
    few small tuples, a dict and a string, as a driver and a parser make."""
    heap = [(-1.0, 0.0, 1.0)]
    total = 0.0
    for _ in range(40):
        err, a, b = heapq.heappop(heap)
        m = 0.5 * (a + b)
        total += (b - a) * (math.exp(-a * a) + 4 * math.exp(-m * m) + math.exp(-b * b)) / 6
        heapq.heappush(heap, (0.5 * err, a, m))
        heapq.heappush(heap, (0.51 * err, m, b))
    terms: dict[tuple, int] = {}
    for i in range(30):
        key = ("mul", ("var", "x%d" % (i % 7)), ("const", i * 0.5))
        terms[key] = terms.get(key, 0) + 1
    return total + len("+".join(f"{k[1][1]}*{k[2][1]}" for k in terms))


class Yardstick:
    """Counts the calls of ``_work`` and the seconds they took."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._busy = False

    def tick(self, *_signal_args) -> None:
        if self._busy:  # a signal that lands during a call is dropped
            return
        self._busy = True
        start = time.perf_counter()
        _work()
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self._busy = False

    def reading(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.seconds, self.calls

    def since(self, reading: tuple[float, float, int]) -> tuple[float, float, int]:
        """(program seconds, yardstick seconds, yardstick calls) since ``reading``."""
        now, seconds, calls = self.reading()
        yard_s = seconds - reading[1]
        return now - reading[0] - yard_s, yard_s, calls - reading[2]

    @contextlib.contextmanager
    def running(self):
        """Run ``tick`` every PERIOD_S seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def at_reference(program_s: float, yard_s: float, calls: int) -> float:
    """Program seconds scaled to a host where one yardstick call takes REFERENCE_S."""
    return program_s * REFERENCE_S * calls / yard_s
