"""Host-speed calibration.

The benchmark shares its machine with other work, and the speed a Python
process gets drifts by up to a factor of two within minutes.  A run
therefore times one fixed piece of pure-Python work (a hash join and a
grouped sum over a few megabytes of tuples, the kind of work the engine's
interpreter does) every quarter second, and scales each timed interval (a
statement, a set-up round) to a reference host on which that work takes
:data:`REFERENCE_S`:

    reported time = measured time × REFERENCE_S / local calibration time

where the local calibration time is the median of the samples taken within
:data:`WINDOW_S` of the interval.  The host flips between speeds up to 1.7×
apart within a run, so one factor for the whole run would scale the time
spent in one state by the speed of the other.  In-process workloads take
their samples between statements; the server workload takes them on the
server's CPU while no statement is in flight.

The calibration work is the benchmark's own code, so a change to the
program never moves it; only the host's speed does.  The garbage collector
is paused while it runs, so the program's heap does not change its cost.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Seconds the calibration work takes on the reference host (about its
#: median on the 2-core host the benchmark was written on).
REFERENCE_S = 0.008
#: Minimum seconds between two calibration samples.
PERIOD_S = 0.25
#: Samples taken within this many seconds of an interval calibrate it.
WINDOW_S = 0.3

#: A 20 000-row fact list and a 1 000-row dimension: the calibration work
#: is a hash join of the two followed by a grouped sum.
_FACTS = [(i, i % 1000, float(i)) for i in range(20000)]
_DIMENSION = [(i % 1000, f"n{i % 50}") for i in range(1000)]


def sample() -> float:
    """Seconds the calibration work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        index: dict = {}
        for key, name in _DIMENSION:
            index.setdefault(key, []).append(name)
        joined = [
            (name, value * 0.5)
            for _, key, value in _FACTS
            for name in index.get(key, ())
        ]
        groups: dict = {}
        for name, value in joined:
            groups[name] = groups.get(name, 0.0) + value
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Calibration samples taken by one thread between its statements."""

    def __init__(self):
        #: ``(perf_counter when it ended, seconds it took)`` of every sample.
        self.samples: list = []
        #: Wall seconds spent calibrating (excluded from throughput).
        self.spent = 0.0
        self._due = 0.0

    def due(self) -> bool:
        """Whether :meth:`tick` would take a sample now."""
        return time.perf_counter() >= self._due

    def tick(self) -> None:
        """Take a sample if :data:`PERIOD_S` has passed since the last."""
        now = time.perf_counter()
        if now < self._due:
            return
        seconds = sample()
        end = time.perf_counter()
        self.samples.append((end, seconds))
        self.spent += end - now
        self._due = end + PERIOD_S

    def factor(self, start: float = None, end: float = None) -> float:
        """Reference-host seconds per measured second over the whole run,
        or in the interval ``[start, end]`` of ``time.perf_counter()``: from
        the samples taken within :data:`WINDOW_S` of it, or the nearest one
        if there are none."""
        if start is None:
            return REFERENCE_S / statistics.median(s for _, s in self.samples)
        near = [
            s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S
        ]
        if not near:
            middle = (start + end) / 2
            near = [min(self.samples, key=lambda ts: abs(ts[0] - middle))[1]]
        return REFERENCE_S / statistics.median(near)
