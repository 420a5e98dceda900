"""A clock that reads what an interval would have taken on a quiet host.

The benchmark runs on shared machines: other tenants' load slows this
process down by up to 1.7 times, in phases that last from milliseconds to
minutes, so raw wall times of the same code vary far more than any change
worth measuring.  ``QuietClock`` samples the host's speed while it runs: a
``SIGALRM`` every ``interval`` seconds runs a fixed calibration loop (Python
bytecode, FFTs and scattered adds, the mix the workloads run) and records
how long it took.  ``quiet_s(start, end)`` scales each stretch of the interval between
two samples by ``REFERENCE_LOOP_S`` over the loop time around that stretch,
and leaves out the calibration time itself.  The result is in seconds of a
host on which the loop takes ``REFERENCE_LOOP_S``, about its fastest time on
the 2-core machine the benchmark was tuned on (Python 3.11, numpy 2.4).  A fixed
reference, rather than the fastest loop of the run, also removes slowdowns
that last the whole run.

Only untraced runs use it: a handler running inside a span would be counted
as that layer's self time.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# small FFTs stay in cache; the frame-sized FFT and the scattered adds do
# not, so the loop also feels a neighbour's memory traffic, as
# power_frames and bigram_counts do
_SMALL_FFT = np.linspace(-1.0, 1.0, 16 * 256).reshape(16, 256)
_FRAME_FFT = np.linspace(-1.0, 1.0, 32 * 2048).reshape(32, 2048)
_SCATTER = np.random.Generator(np.random.PCG64(0)).integers(0, 65536, size=40_000)


def _calibration_loop() -> None:
    acc = 0
    for i in range(9000):
        acc += i * i
    for _ in range(12):
        np.fft.rfft(_SMALL_FFT, axis=1)
    np.fft.rfft(_FRAME_FFT, axis=1)
    np.add.at(np.zeros(65536), _SCATTER, 1.0)


REFERENCE_LOOP_S = 0.001


class QuietClock:
    """Samples host speed while entered; converts wall intervals afterwards."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, end) of each loop
        self._sampling = False
        _calibration_loop()  # first calls allocate; keep them out of the samples

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # a late signal inside a sample: samples must not overlap
            return
        self._sampling = True
        start = time.perf_counter()
        _calibration_loop()
        self.samples.append((start, time.perf_counter()))
        self._sampling = False

    def __enter__(self) -> "QuietClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean loop time over the reference: about 1.0 on a quiet reference host."""
        return float(np.mean([end - start for start, end in self.samples])) / REFERENCE_LOOP_S

    def quiet_s(self, start: float, end: float) -> float:
        """Seconds that ``[start, end]`` would have taken on the quiet reference host.

        A stretch between two samples is weighted by the mean of the loop
        times that bracket it; a stretch with one neighbour uses that one.
        Without samples the interval is returned unscaled.
        """
        if not self.samples:
            return end - start
        starts = [s for s, _ in self.samples]
        i = bisect.bisect_right(starts, start)  # the first sample after start
        total, t = 0.0, start
        while t < end:
            before = self.samples[i - 1] if i > 0 else None
            after = self.samples[i] if i < len(self.samples) else None
            stop = min(after[0], end) if after is not None else end
            loops = [e - s for s, e in filter(None, (before, after))]
            total += (stop - t) * REFERENCE_LOOP_S / (sum(loops) / len(loops))
            if after is None or after[0] >= end:
                break
            t = after[1]
            i += 1
        return total
