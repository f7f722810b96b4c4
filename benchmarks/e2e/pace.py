"""Timing regions that compute, on a machine whose speed is not constant.

This sandbox is a few cores of a shared host.  A fixed pure-Python loop
runs at full speed for milliseconds at a time, and for ten seconds or
minutes on end 1.3 to 1.8 times slower on average, on both cores, in
CPU time as much as in wall time.  Ten runs of the same batch pass
therefore spread by 15 to 30 %, whether a run reports the median or the
best of its passes (README, "Measured spread").

:class:`Pace` times a region and, while it runs, interrupts it every
``INTERVAL`` seconds (a one-shot ``ITIMER_REAL`` whose handler re-arms
it) to time a few slices of a fixed kernel.  Each stretch of the region
between two samples is weighed by how fast the machine was around it:
``units`` is the region's length in kernel slices, the sum over the
stretches of stretch / median slice of the two samples next to it.
``units`` times the fastest slice any region of the run has seen (the
machine undisturbed; it repeats within 3 %) is the region's *quiet
time*: how long it would have taken had all of it run at that speed.
Sampling time is part of neither ``wall_s`` nor ``units``.

Only for regions that compute: time spent waiting (a delayed ACK, an
fsync) does not stretch with the machine's speed, so the serve windows
are timed plainly.  Main thread only: that is where signals are taken.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Seconds of the region between two samples.
INTERVAL = 0.025
#: Kernel slices per sample.
SLICES = 6


def _kernel() -> int:
    """A third of a millisecond of what the program under test mostly
    does: small objects made and dropped, dictionary traffic,
    arithmetic."""
    table = {}
    total = 0
    for index in range(1400):
        table[index] = [index, str(index), index * 0.5]
        total += len(table) ^ index
    for index in list(table):
        total += table.pop(index)[0]
    return total


class Pace:
    """``with Pace() as pace: region()``, then ``pace.report()``."""

    def __init__(self):
        self.wall_s = 0.0
        self.units = 0.0
        self.fastest_slice_s = float("inf")
        self._samples = []      # (started, ended, [slice seconds])
        self._previous = None
        self._running = False

    def _sample(self) -> None:
        # The kernel must cost the same wherever it runs: no collector.
        collecting = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        started = last = clock()
        slices = []
        for _ in range(SLICES):
            _kernel()
            now = clock()
            slices.append(now - last)
            last = now
        self._samples.append((started, last, slices))
        if collecting:
            gc.enable()

    def _tick(self, _signum, _frame) -> None:
        # A signal taken just before the timer was stopped still lands.
        if self._running:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        return self

    def __exit__(self, *_exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        samples = self._samples
        for (_s, ended, before), (started, _e, after) in zip(samples,
                                                            samples[1:]):
            stretch = started - ended
            self.wall_s += stretch
            self.units += stretch / statistics.median(before + after)
        self.fastest_slice_s = min(min(slices) for _s, _e, slices in samples)

    def report(self) -> dict:
        return {"wall_s": self.wall_s, "units": self.units,
                "fastest_slice_s": self.fastest_slice_s}
