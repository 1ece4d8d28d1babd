"""Machine-speed probe: measured seconds scaled to a fixed reference speed.

The 2-vCPU virtual machine the benchmark was written on switches, often
within a second, between a fast state and a state about 1.7x slower.  CPU
time slows with wall time (no steal time shows), so neither clock removes
it, and whether a 28 s run fell mostly in one state or the other gave the
pass times of ``suite`` a run-to-run spread over 25%.

While a timed region runs, a timer signal every ``INTERVAL_S`` interrupts
the main thread and times a small fixed kernel of interpreter and
small-array numpy work, the mix the workloads themselves are made of.  The
trimmed mean kernel time over the region, divided by ``REFERENCE_S`` (the
kernel's time in the fast state), is the region's slowdown.  The region's
seconds, less the time spent in the kernel, divided by that slowdown, are
its seconds at the reference speed.  A region too short for
``MIN_SAMPLES`` ticks is sampled again right after it ends.  A program that
does more work takes proportionally longer at any speed, so a regression
moves the scaled seconds as it moves the raw ones.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.01
# the kernel's time, run from the timer signal, in the fast state of a 2-vCPU
# virtual machine (Python 3.11.7, numpy 2.4.6); any fixed value would do,
# this one makes scaled seconds read as seconds in that state
REFERENCE_S = 70e-6
MIN_SAMPLES = 5
TRIM = 0.1  # share of samples dropped at each end: a preempted sample is not a slowdown

_VECTOR = np.linspace(-1.0, 1.0, 64)


def kernel():
    acc = 0
    for _ in range(20):
        a = np.sin(_VECTOR) * _VECTOR
        acc += int(a[0] > 0)
        for j in range(20):
            acc += j
    return acc


class SpeedProbe:
    """``with SpeedProbe() as probe:`` times its body; then ``probe.seconds``, ``probe.scaled``."""

    def __init__(self):
        self.samples = []
        self.seconds = self.overhead_s = 0.0
        self._previous = None
        self._start = 0.0

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()  # back into cache, so the timed run does not follow the job's cache use
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.overhead_s += end - start

    def __enter__(self):
        self.samples = []
        self.overhead_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.seconds = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        overhead = self.overhead_s
        while len(self.samples) < MIN_SAMPLES:
            self._tick()
        self.overhead_s = overhead
        return False

    @property
    def slowdown(self):
        """Trimmed mean kernel time over its reference time."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return sum(kept) / len(kept) / REFERENCE_S

    @property
    def scaled(self):
        """The body's seconds, less the kernel's, at the reference speed."""
        return (self.seconds - self.overhead_s) / self.slowdown
