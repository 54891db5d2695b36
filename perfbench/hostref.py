"""Host-speed sampling: scale measured times to one reference speed.

On a shared VM the speed of one thread drifts by up to 2x from one
second to the next, and a run's times drift with it (see README.md).
While a run is measured, a timer interrupts it every ``INTERVAL``
seconds and times one run of a small fixed loop that never touches the
package.  A time measured over an interval is then reported as

    (time - the sampler's own time inside it) * REF_SECONDS / (mean loop time near it)

that is, at the host speed at which the loop takes ``REF_SECONDS``.
The mean, not the median, so that the loop sees the host's stalls as
often as the measured code does.  A change to the package moves a
scaled time as it moves the raw one.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL = 0.005
# The loop's typical time on the reference VM (see README.md); a
# constant, so that scaled times keep their size in seconds.
REF_SECONDS = 100e-6
# Samples up to MARGIN seconds either side of an interval count
# towards its mean, so that a short op still gets dozens of them.
MARGIN = 0.1


def sample_loop():
    # Integer arithmetic and str building.  It creates no container, so
    # it never sets off the cyclic collector over the package's heap.
    x, n = 1, 0
    for _ in range(250):
        x = (x * 1103515245 + 12345) % (1 << 61)
        n += len(str(x))
    return n


class Sampler:
    """Times ``sample_loop`` on every SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._own: list[float] = [0.0]  # running total of self.seconds

    def _tick(self, signum, frame):
        t0 = perf_counter()
        sample_loop()
        self._tick_at(t0, perf_counter() - t0)

    def _tick_at(self, t0: float, spent: float):
        self.starts.append(t0)
        self.seconds.append(spent)
        self._own.append(self._own[-1] + spent)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _own_time(self, lo: float, hi: float) -> float:
        """Seconds the sampler itself ran in [lo, hi]."""
        a, b = bisect.bisect_left(self.starts, lo), bisect.bisect_left(self.starts, hi)
        return self._own[b] - self._own[a]

    def scaled(self, start: float, *durations: float) -> list[float]:
        """Each ``start + duration`` interval's length at the reference
        speed, less the sampler's own time in it."""
        hi = start + max(durations)
        a = bisect.bisect_left(self.starts, start - MARGIN)
        b = bisect.bisect_right(self.starts, hi + MARGIN)
        near = self.seconds[a:b]
        if not near:
            raise RuntimeError("no host-speed samples near a measured interval")
        scale = REF_SECONDS * len(near) / sum(near)
        return [(d - self._own_time(start, start + d)) * scale for d in durations]
