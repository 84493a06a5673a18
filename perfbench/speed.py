"""Rescale measured times to a reference CPU speed.

The CPU speed of a shared virtual machine drifts by up to a factor of 1.8
over a few seconds with the code unchanged, from load elsewhere on the host.
A pass therefore runs a fixed probe of exact Fraction arithmetic (the kind
of work the library does) every ``PERIOD_S`` seconds from a SIGALRM handler,
and scales each interval's time by ``REF_S / probe duration``.  The result
reads in seconds at the speed where the probe takes ``REF_S``; the probes'
own time is left out.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# Median probe duration on a 2-vCPU Intel Xeon VM, Python 3.11.7.
REF_S = 350e-6

_TERMS = [Fraction(i, 7) for i in range(1, 60)]


def _probe_work() -> Fraction:
    s = Fraction(0)
    for x in _TERMS:
        s += x * x
    return s


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.total = 0.0  # time spent in probes so far

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.monotonic()
        _probe_work()
        d = time.monotonic() - t0
        self.durations.append(d)
        self.starts.append(t0)
        self.total += d

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, a: float, b: float) -> tuple[float, float]:
        """(raw, rescaled) time of the interval [a, b], probes left out.

        The speed is the mean of REF_S / duration over the probes inside the
        interval and the last one before it.
        """
        inside = [d for t, d in zip(self.starts, self.durations) if a <= t < b]
        before = [d for t, d in zip(self.starts, self.durations) if t < a][-1:]
        raw = b - a - sum(inside)
        samples = before + inside
        return raw, raw * sum(REF_S / d for d in samples) / len(samples)
