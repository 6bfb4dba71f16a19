"""Machine-speed sampling, to take the host's speed swings out of wall times.

On the shared 2-core host this benchmark was defined on, the CPU alternates
every few seconds between speeds about 1.5-1.7x apart, with no steal time, so
a 36-second run can fall mostly in either state: over a run, a report's wall
time varied by 8-15% (coefficient of variation). While the sampler is on, a
SIGALRM timer runs a fixed calibration kernel every PERIOD_S seconds between
bytecodes of the main thread. The mean kernel time over an interval measures
how slow the machine was during it; `adjusted` rescales the interval's wall
time, less the sampler's own time, to the kernel time REF_KERNEL_S. That cut
the variation of one report's time to 2.6-3.2%.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# The timed kernel call took 0.4-0.8 ms on the host above, depending on its
# state; at 0.6 ms an adjusted time is near the wall time.
REF_KERNEL_S = 6e-4

_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((48, 48))
_SMALL = (lambda a: a @ a.T)(_rng.standard_normal((4, 4)))


def calibration_kernel():
    """A LAPACK call of medium size plus small-matrix calls dominated by numpy
    dispatch, the two kinds of work georank's reports mix."""
    np.linalg.svd(_SQUARE)
    for _ in range(10):
        np.linalg.eigh(_SMALL)


def kernel_seconds(repeats=1):
    """Median time of `repeats` kernel calls, after one untimed call that
    refills the caches the program evicted: this measures the machine's
    speed, not the program's footprint."""
    calibration_kernel()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def adjust(seconds, kernel_s):
    """Seconds taken at a kernel time of `kernel_s`, rescaled to REF_KERNEL_S."""
    return seconds * REF_KERNEL_S / kernel_s


class SpeedSampler:
    def __init__(self):
        self.starts = []
        self.durations = []  # of the timed kernel call
        self.costs = []  # of the whole handler
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.durations.append(kernel_seconds())
        self.starts.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _window(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def adjusted(self, t0, t1):
        """Seconds in [t0, t1], less the sampler's own time, at the reference
        speed. An interval without samples uses the two on either side."""
        i, j = self._window(t0, t1)
        own = sum(self.costs[i:j])
        window = self.durations[i:j] or self.durations[max(i - 2, 0):i + 2]
        if not window:
            raise RuntimeError("no speed samples were taken")
        return adjust(t1 - t0 - own, statistics.fmean(window))

    def speed_index(self):
        """REF_KERNEL_S over the mean kernel time: above 1 is faster."""
        return REF_KERNEL_S / statistics.fmean(self.durations)
