"""Work time at a fixed reference speed, measured on a core whose speed drifts.

On a shared host the speed of one core swings by 1.3-1.8x in phases lasting
about a second, most likely because other work shares the physical core.
Wall time and CPU time both follow those swings. So while the pipeline runs, a timer signal
interrupts it every ``INTERVAL_S`` and times a short fixed pure-Python loop on
the same core: the probe. The time of a stretch of work at reference speed is
its wall time, minus the probes inside it, scaled by the ratio of
``REF_PROBE_S`` to the probe times around it, raised to ``SENSITIVITY``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_ITERS = 10_000
# The probe's time on an uncontended core of the 2-core host the bounds were
# set on; a constant, so that every run and commit uses the same scale.
REF_PROBE_S = 0.00085
# The pipeline touches far more memory than the probe and slows more when the
# core is shared: across 60 pipeline runs of the three workloads on that host,
# log wall time rose 1.1-1.6 times (fitted slope, 1.5 on two workloads) as
# fast as log probe time. So a probe ``f`` times slower than the reference
# means the pipeline runs ``f ** SENSITIVITY`` times slower.
SENSITIVITY = 1.5
INTERVAL_S = 0.05
WINDOW_S = 0.15  # well under the ~1 s phases of host speed


def probe(iters: int = PROBE_ITERS) -> float:
    """Seconds for a fixed pure-Python loop of ``iters`` steps."""
    start = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


class Sampler:
    """Times a probe on every timer tick while active; converts wall time to reference time."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (probe start, probe seconds)
        self._old_handler = None

    def _on_tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.marks.append((start, probe()))

    def __enter__(self):
        self._on_tick(None, None)  # so that the first stretch has a probe on each side
        self._old_handler = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._on_tick(None, None)
        return False

    def _speed(self, k: int) -> float:
        """Reference seconds per wall second around probe ``k`` (clamped to the probes taken).

        One probe is noisy, so this averages the probe times within ``WINDOW_S`` of it.
        """
        at = self.marks[min(max(k, 0), len(self.marks) - 1)][0]
        lo = bisect.bisect_left(self.marks, (at - WINDOW_S,))
        hi = bisect.bisect_right(self.marks, (at + WINDOW_S, float("inf")))
        return (REF_PROBE_S / statistics.fmean(d for _t, d in self.marks[lo:hi])) ** SENSITIVITY

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done from ``start`` to ``end``, probes excluded.

        The stretch between two probes runs at the mean of their two speeds.
        """
        if not self.marks:
            raise RuntimeError("no probe ran; the timer signal did not fire")
        k = bisect.bisect_left(self.marks, (start,))
        total = 0.0
        t = start
        while k < len(self.marks) and self.marks[k][0] < end:
            at, dur = self.marks[k]
            total += (at - t) * (self._speed(k - 1) + self._speed(k)) / 2
            t = at + dur
            k += 1
        return total + (end - t) * (self._speed(k - 1) + self._speed(k)) / 2

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 on an uncontended core."""
        return statistics.median(d for _t, d in self.marks) / REF_PROBE_S
