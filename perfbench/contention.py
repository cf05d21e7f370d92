"""Reference probe: how fast the core runs at this moment.

On a shared machine the same computation runs at speeds up to about 1.9x
apart, switching within milliseconds as other tenants load the physical
core, and the share of slow time drifts over minutes.  Wall seconds of
one run therefore say as much about the neighbours as about the code.

The probe times a fixed reference computation (``reference``: a short loop
of ``Fraction`` arithmetic, the same kind of work the library does) from a
SIGALRM handler every ``INTERVAL_S`` seconds while the benchmark runs.  A
timed region is then expressed in *ref*: its own time, less the probes that
ran inside it, divided by the mean probe time around it.  Contention slows
both by the same factor, so the ratio holds still where the seconds do not.
"""

import signal
import statistics
import time

from fractions import Fraction

INTERVAL_S = 0.01
# Fewest probe samples a speed estimate uses; a region shorter than
# MIN_SAMPLES * INTERVAL_S borrows the samples just before it.
MIN_SAMPLES = 16


def reference():
    """The reference computation; one ref is the time it takes."""
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(1, i) * Fraction(i + 1, 3)
    return total


class Probe:
    """Samples the reference computation on a timer while started."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.times = []
        self._previous = None

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        reference()
        self.times.append(time.perf_counter() - start)

    def start(self):
        for _ in range(MIN_SAMPLES):  # samples for the first region
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self):
        """Index of the next sample, taken at the edges of a region."""
        return len(self.times)

    def region(self, begin, end, elapsed):
        """(seconds, ref) of a region that took ``elapsed`` seconds while
        samples ``begin:end`` ran, both without those samples' time."""
        samples = self.times[begin:end]
        seconds = elapsed - sum(samples)
        around = self.times[max(0, end - max(MIN_SAMPLES, end - begin)):end]
        return seconds, seconds / statistics.fmean(around)

    def median(self):
        return statistics.median(self.times)
