"""Machine-speed reference: a fixed pure-Python loop timed through the run.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same pure-Python work takes 15 to 25% more or less time from one
stretch of tens of seconds to the next, in wall-clock and CPU time
alike, because the other tenants load the caches and the memory bus,
not because the process waits for a core.  A timing taken in a slow
stretch and one taken in a fast stretch then differ by more than most
changes to the program would.

So the run times this loop, ``probe``, between its steps, at least every
``INTERVAL`` seconds, and reports every timing scaled to the speed the
loop had around it:

    reported seconds = measured seconds * REF_S / (median probe time near the step)

which is the time the step would have taken on a machine running the
loop in ``REF_S``.  The loop does integer arithmetic and lookups in a
small fixed table and allocates no container, so it neither triggers
the garbage collector nor depends on what the program left in memory;
it runs outside every timed step.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# The loop's median time on the 2-core machine the baseline was recorded
# on, so that reported seconds read about as wall-clock seconds there.
REF_S = 0.016
INTERVAL = 0.25  # seconds between probes, at most (probes sit between steps)
WINDOW = 1.0  # probes this far before and after a step count toward its speed

_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}
_ROUNDS = 100_000


def _loop():
    table, x = _TABLE, 0
    for i in range(_ROUNDS):
        x = (x + table[(i ^ x) & 1023]) & 0xFFFF
    return x


class Speed:
    """Probe times over a run, and the scale they give each timed span."""

    def __init__(self):
        self.times = []  # probe midpoints, ascending
        self.secs = []  # probe durations
        self._last = None

    def probe(self):
        start = perf_counter()
        _loop()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.secs.append(end - start)
        self._last = end

    def tick(self):
        """Probe if the last probe is ``INTERVAL`` seconds old or more."""
        if self._last is None or perf_counter() - self._last >= INTERVAL:
            self.probe()

    def scale(self, t0, t1):
        """REF_S over the median probe time around [t0, t1].

        The window reaches ``WINDOW`` seconds, or the span's own length if
        that is longer, beyond each end, and takes the nearest probe when
        none falls inside.
        """
        pad = max(WINDOW, t1 - t0)
        lo = bisect.bisect_left(self.times, t0 - pad)
        hi = bisect.bisect_right(self.times, t1 + pad)
        near = self.secs[lo:hi]
        if not near:
            k = min(range(len(self.times)), key=lambda i: abs(self.times[i] - (t0 + t1) / 2))
            near = [self.secs[k]]
        return REF_S / statistics.median(near)

    def median(self):
        return statistics.median(self.secs)
