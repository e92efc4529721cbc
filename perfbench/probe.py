"""Host-speed-normalized timing.

On a shared host the same Python work can take 1.7x longer from one
minute to the next: the CPU time of a fixed loop moves with the wall
time, so the core itself is running slower, and neither more passes nor
medians remove a slow minute.  Every timed region is therefore also
measured in *reference seconds*: wall seconds scaled by how fast a fixed
calibration loop runs during that region.

:class:`Timed` arms a 50 ms interval timer for the region.  Each
``SIGALRM`` runs :func:`calibration_loop` once in this process, between
bytecodes of whatever the region is doing, and records how long it
took.  The region's reference time is its wall time minus the loops'
own cost, times the mean of ``REFERENCE_LOOP_S / loop time`` over the
samples; one loop also runs at each end, so short regions have samples
too.  Reference seconds are wall seconds on a host where the loop takes
exactly :data:`REFERENCE_LOOP_S`.

``Timed(interval=False)`` arms no timer.  The region calls
:meth:`Timed.poll` instead, at points where a loop delays nothing the
program measures, and each poll samples once :data:`INTERVAL_S` has
passed since the last sample.

Interval timers are not inherited across ``fork``, so fan-out workers
are never interrupted; while the parent waits for them, its samples
measure its own core.
"""

import signal
import time

_NOW = time.perf_counter

#: the calibration loop's duration on the reference host
REFERENCE_LOOP_S = 0.0004
#: seconds between samples
INTERVAL_S = 0.05


def calibration_loop(n=4000):
    """Fixed interpreter-bound work: dictionary stores and lookups."""
    table = {}
    total = 0
    for i in range(n):
        table[i & 255] = i
        total += table.get(i & 127, 0)
    return total


class Timed:
    """Context manager: ``wall`` and ``seconds`` (reference seconds) of
    its body.  Regions must not nest: they share one timer signal."""

    _active = False

    def __init__(self, interval=True):
        self.interval = interval

    def _sample(self, *_):
        start = _NOW()
        calibration_loop()
        self._last = _NOW()
        took = self._last - start
        self.samples.append(took)
        self.cost += took

    def poll(self):
        """Sample if :data:`INTERVAL_S` has passed since the last sample."""
        if _NOW() - self._last >= INTERVAL_S:
            self._sample()

    def __enter__(self):
        if Timed._active:
            raise RuntimeError("timed regions cannot nest")
        Timed._active = True
        self.samples, self.cost = [], 0.0
        self._sample()
        self.cost = 0.0            # count only the loops run inside
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.start = _NOW()
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        end = _NOW()
        Timed._active = False
        self.wall = end - self.start - self.cost
        self._sample()
        speed = sum(REFERENCE_LOOP_S / s for s in self.samples) / \
            len(self.samples)
        self.seconds = self.wall * speed
        return False
